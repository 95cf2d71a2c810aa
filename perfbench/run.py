"""Benchmark of factorid, driven from outside the package.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Workloads are defined in workloads.py and described in README.md. With
--trace 0 the run prints the end-to-end metrics listed in BENCHMARK.json;
with --trace 1 it prints the per-layer metrics of a traced run instead. The
last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The exit code is 0 only when every output passed its independent check.

The program is imported from ../src of this file's directory; without it the
run stops with exit code 2 and prints no result.
"""

import argparse
import bisect
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_RUNS = 7
MIN_ROUNDS = 2
CALIBRATION_REFERENCE_S = 0.005
CALIBRATION_INTERVAL_NS = 100_000_000
CALIBRATION_WINDOW_NS = 1_000_000_000
WORKLOAD_NAMES = ("filter_stream", "check_large", "rule_deletion", "oracle_sweep")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def src_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


_CALIBRATION_MASKS = [(i * 2654435761) % (1 << 60) | 1 for i in range(16)]


def _calibration_loop():
    """A fixed mix of the interpreter work factorid does: integer arithmetic,
    small tuples from itertools, list indexing, bit counts, dict updates."""
    x = 0
    for i in range(40000):
        x = (x * 31 + i) & 0xFFFFFF
    for combo in itertools.combinations(range(16), 3):
        u = 0
        for j in combo:
            u |= _CALIBRATION_MASKS[j]
        x += u.bit_count()
    counts = {}
    for i in range(3000):
        k = (i * 7) & 511
        counts[k] = counts.get(k, 0) + i
    return x + len(counts)


class Calibration:
    """Times a fixed pure-Python loop in between the benchmark's operations,
    to follow the speed of a shared CPU through a run.

    On the shared machine the bounds were set on, CPU speed drifts by ±20%
    within seconds and over minutes. `scale_at(t)` is CALIBRATION_REFERENCE_S
    over the median loop time near t; a time multiplied by it reads as on a
    CPU that runs the loop in the reference time.
    """

    def __init__(self):
        self.mids = []  # perf_counter_ns at the middle of each loop
        self.loops = []  # its duration in ns
        self.last = 0

    def sample(self):
        t0 = time.perf_counter_ns()
        _calibration_loop()
        self.last = time.perf_counter_ns()
        self.mids.append((t0 + self.last) // 2)
        self.loops.append(self.last - t0)

    def maybe_sample(self):
        if time.perf_counter_ns() - self.last >= CALIBRATION_INTERVAL_NS:
            self.sample()

    def scale_at(self, t_ns) -> float:
        """Uses the loops within CALIBRATION_WINDOW_NS of t_ns and the
        nearest loop on either side."""
        lo = bisect.bisect_left(self.mids, t_ns - CALIBRATION_WINDOW_NS)
        hi = bisect.bisect_right(self.mids, t_ns + CALIBRATION_WINDOW_NS)
        near = self.loops[max(lo - 1, 0):hi + 1]
        return CALIBRATION_REFERENCE_S * 1e9 / statistics.median(near)


def setup_seconds(calibration) -> tuple[float, float]:
    """Median wall time of a fresh interpreter importing factorid and
    factorid.cli, which every CLI call pays, as timed and scaled. One
    untimed import first writes the bytecode caches."""
    cmd = [sys.executable, "-c", "import factorid, factorid.cli"]
    env = src_env()
    timed = []
    for k in range(SETUP_RUNS + 1):
        calibration.sample()
        t0 = time.perf_counter_ns()
        subprocess.run(cmd, env=env, check=True, stdin=subprocess.DEVNULL)
        if k:
            timed.append((t0, time.perf_counter_ns() - t0))
    calibration.sample()
    raw = statistics.median(dt for _, dt in timed) / 1e9
    scaled = statistics.median(dt * calibration.scale_at(t0 + dt // 2) for t0, dt in timed) / 1e9
    return raw, scaled


def provenance() -> dict:
    import numpy
    import factorid

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        ).stdout.strip() or None
    except OSError:
        rev = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "factorid").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "backend": factorid.active_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
    }


def own_peak_rss_kb() -> int:
    """Peak RSS (VmHWM) of this process since it started its program. Unlike
    ru_maxrss it does not carry over the high-water mark of the parent."""
    with open("/proc/self/status", encoding="ascii") as f:
        return int(next(line.split()[1] for line in f if line.startswith("VmHWM:")))


def run_rounds(ops, seconds, calibration, tracer=None):
    """Repeat the round of operations, at least MIN_ROUNDS times, and stop
    at the round boundary nearest to `seconds`. Returns
    [(op, ns, output, ns at its middle)] and, per round, its span index
    range, the summed duration of its operations, and this process's peak
    RSS in kB after the round."""
    results, rounds = [], []
    calibration.sample()
    start = time.perf_counter()

    def more():
        elapsed = time.perf_counter() - start
        return len(rounds) < MIN_ROUNDS or elapsed + elapsed / len(rounds) / 2 < seconds

    while more():
        first_span = len(tracer.spans) if tracer else 0
        wall = 0
        for op in ops:
            arg = op.prep() if op.prep else None
            if tracer:
                tracer.new_op()
            t0 = time.perf_counter_ns()
            try:
                out = op.run(arg)
            except Exception as e:  # counted as a failed operation
                out = e
            dt = time.perf_counter_ns() - t0
            wall += dt
            results.append((op, dt, out, t0 + dt // 2))
            calibration.maybe_sample()
        last_span = len(tracer.spans) if tracer else 0
        rounds.append((first_span, last_span, wall, own_peak_rss_kb()))
    calibration.sample()
    return results, rounds


def check_all(results) -> tuple[int, int]:
    attempted = failed = 0
    for op, _, out, _ in results:
        attempted += op.units
        if isinstance(out, Exception):
            print(f"error: {op.variant}: {type(out).__name__}: {out}", file=sys.stderr)
            failed += op.units
        else:
            failed += op.check(out)
    return attempted, failed


def end_to_end(results, rss_kb, setup_s, calibration=None) -> dict:
    """Throughput is a variant's work over the time it took, summed over the
    run; latencies are quantiles over single operations. With a calibration,
    each operation's time is scaled by the CPU speed around it."""
    values = {"setup_s": setup_s, "peak_rss_mb": rss_kb / 1024}
    for variant, prefix in (("a", ""), ("b", "alt_")):
        samples = [
            (dt * (calibration.scale_at(mid) if calibration else 1.0), op.units)
            for op, dt, _, mid in results if op.variant == variant
        ]
        ms = [dt / 1e6 for dt, _ in samples]
        values[prefix + "ops_per_s"] = sum(u for _, u in samples) / (sum(ms) / 1e3)
        values[prefix + "p50_ms"] = statistics.median(ms)
        values[prefix + "p90_ms"] = statistics.quantiles(ms, n=10, method="inclusive")[8]
        values[prefix + "samples"] = len(ms)
    return values


_WORK_SUFFIXES = ("arcs", "arcs_in", "edges_in", "subsets", "copies")


def per_layer(names, profiles, overhead) -> dict:
    """Per-layer values: times are means per round, counts those of the first
    traced round (every round runs the same operations)."""
    from tracing import LAYERS

    first = profiles[0]

    def mean(f):
        return sum(f(p) for p in profiles) / len(profiles)

    values = {}
    for name in names:
        head, _, tail = name.rpartition(".")
        if name == "trace.overhead_frac":
            v = overhead
        elif name == "trace.wall_s":
            v = mean(lambda p: p.wall_ns) / 1e9
        elif name == "trace.unspanned_s":
            v = mean(lambda p: p.unspanned_ns) / 1e9
        elif name == "cli.filter.error_records":
            v = first.errors_to_cli
        elif name == "pattern.trim.copy_frac":
            calls = first.calls.get("pattern.trim", 0)
            v = first.work.get("pattern.trim", 0) / calls if calls else 0.0
        elif name == "identify.counting_rule.s1_calls_per_check":
            checks = first.work.get("identify.counting_rule", 0)
            v = first.s1_under_deletion / checks if checks else 0.0
        elif head in LAYERS and tail == "self_s":
            v = mean(lambda p: p.layer_self_ns(head)) / 1e9
        elif tail in ("self_s", "self_ms"):
            v = mean(lambda p: p.self_ns.get(head, 0)) / (1e9 if tail == "self_s" else 1e6)
        elif tail == "calls":
            v = first.calls.get(head, 0)
        elif tail in _WORK_SUFFIXES:
            v = first.work.get(head, 0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
        values[name] = v
    return values


def build(name, seed, workdir):
    import numpy as np
    from workloads import WORKLOADS, FilterStream

    rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(name)])
    if WORKLOADS[name] is FilterStream:
        return FilterStream(rng, workdir, src_env())
    return WORKLOADS[name](rng)


def measure(workload, seconds, spec):
    """Untraced run: (attempted, failed, correct, metrics), with times
    scaled by the calibration."""
    setup_cal, run_cal = Calibration(), Calibration()
    setup_raw, setup_s = setup_seconds(setup_cal)
    results, rounds = run_rounds(workload.ops(), seconds, run_cal)
    # after the first round: later rounds repeat its operations, and the
    # outputs kept for checking would otherwise grow with the run
    rss_kb = workload.peak_rss_kb(results) or rounds[0][3]
    attempted, failed = check_all(results)
    raw = end_to_end(results, rss_kb, setup_raw)
    values = end_to_end(results, rss_kb, setup_s, run_cal)
    loop_ms = statistics.median(run_cal.loops) / 1e6
    print(
        f"rounds={len(rounds)} samples: a={values['samples']} b={values['alt_samples']}"
        f" calibration: {len(run_cal.loops)} loops, median {loop_ms:.3f} ms"
    )
    print(f"  {'metric':<14} {'alias':<34} {'scaled':>14} {'unit':<5} {'as timed':>14}")
    for m in spec["end_to_end"]:
        alias = workload.aliases.get(m["name"], "")
        print(
            f"  {m['name']:<14} {alias:<34} {values[m['name']]:>14.4f} {m['unit']:<5}"
            f" {raw[m['name']]:>14.4f}"
        )
    if workload.total_alias:
        total = len(results) / (sum(r[2] for r in rounds) / 1e9)
        print(f"  {'':<14} {workload.total_alias:<34} {'':>14} {'1/s':<5} {total:>14.4f}")
    return attempted, failed, True, values


def measure_traced(workload, seconds, spec, spans_path):
    """Half the time untraced, half traced: (attempted, failed, correct,
    metrics). Incorrect also when the span accounting does not add up."""
    from tracing import LAYERS, RoundProfile, Tracer

    plain_cal, traced_cal = Calibration(), Calibration()
    plain, plain_rounds = run_rounds(workload.trace_ops(None), seconds / 2, plain_cal)
    tracer = Tracer()
    ops = workload.trace_ops(tracer)
    with tracer.installed():
        traced, traced_rounds = run_rounds(ops, seconds / 2, traced_cal, tracer)
    attempted, failed = check_all(plain + traced)
    profiles = [RoundProfile(tracer.spans, lo, hi, wall) for lo, hi, wall, *_ in traced_rounds]
    overhead = (
        sum(dt * traced_cal.scale_at(mid) for _, dt, _, mid in traced) / len(traced_rounds)
        / (sum(dt * plain_cal.scale_at(mid) for _, dt, _, mid in plain) / len(plain_rounds))
        - 1
    )
    values = per_layer([m["name"] for m in spec["per_layer"]], profiles, overhead)
    correct = True
    for p in profiles:
        if p.negative_self or sum(p.layer_self_ns(x) for x in LAYERS) + p.unspanned_ns != p.wall_ns:
            print("error: span self times do not add up to the traced wall time", file=sys.stderr)
            correct = False
        if workload.malformed is not None and p.errors_to_cli != workload.malformed:
            print("error: error records differ from the injected malformed lines", file=sys.stderr)
            correct = False
    repeat = all(p.counts() == profiles[0].counts() for p in profiles)
    print(f"rounds: untraced={len(plain_rounds)} traced={len(traced_rounds)} counts_repeat={repeat}")
    tracer.dump(spans_path, traced_rounds[:1])  # the round the counts come from
    for m in spec["per_layer"]:
        print(f"  {m['name']:<48} {values[m['name']]:>14.6f} {m['unit']}")
    return attempted, failed, correct, values


def run_one(args, spec) -> int:
    sys.path.insert(0, str(SRC))
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("record: " + json.dumps(provenance()))
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = build(args.workload, args.seed, workdir)
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            attempted, failed, correct, values = measure_traced(
                workload, args.seconds, spec, spans_path
            )
            listed = spec["per_layer"]
        else:
            attempted, failed, correct, values = measure(workload, args.seconds, spec)
            listed = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    correct = correct and failed == 0
    print(f"failed_frac: {failed / attempted:g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process and print a combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 0, "failed": 0}
        combined["workloads"][name] = result
        combined["correct"] &= result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "factorid" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: no factorid sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
