"""Span tracing of factorid from outside the package.

`Tracer.installed()` replaces the module-level names that one layer of
factorid calls in the next (for example `factorid.identify.max_flow_min_cut`
or `factorid._kernels.dinic_min_cut`) with timing wrappers, and puts the
originals back on exit. Every call through a wrapper appends one span to an
in-memory list; nothing is written until the benchmark ends.

A span is (name, start_ns, end_ns, parent, op, raised, count). `parent` is
the index of the enclosing span or -1, `op` the operation id shared by the
spans of one draw or pattern, and `count` a work count taken from the call's
arguments or result (arcs handed to Dinic, subsets visited by the sweep, ...).
Self time is a span's duration minus the durations of its direct children.
Work done inside a lazily computed attribute (such as
`SparsityPattern.col_masks`) is charged to the span whose code touched it.
"""

import importlib
import json
import time
from contextlib import contextmanager
from math import comb

LAYERS = ("cli", "pattern", "bipartite", "flow", "identify", "kernels")


def _kernel_arcs(args, kwargs, out):
    return len(args[3])  # dinic_min_cut(n_nodes, source, sink, tails, ...)


def _kernel_edges(args, kwargs, out):
    return len(args[3])  # hopcroft_karp(n_left, n_right, indptr, indices)


def subsets_visited(r, subset):
    """Subsets `counting_sweep` scans before it stops: all 2^r - 1 on a pass,
    else the 1-based size-then-lexicographic rank of the violating subset."""
    if subset is None:
        return 2**r - 1
    q = len(subset)
    rank = sum(comb(r, k) for k in range(1, q))
    prev = -1
    for i, c in enumerate(subset):
        for v in range(prev + 1, c):
            rank += comb(r - 1 - v, q - 1 - i)
        prev = c
    return rank + 1


def _sweep_subsets(args, kwargs, out):
    return subsets_visited(args[0], None if out[0] else tuple(out[1]))


def _network_arcs(args, kwargs, out):
    return len(out.arcs)


def _trim_copied(args, kwargs, out):
    return int(out[0] is not args[0])


def _rule_needs_deletions(args, kwargs, out):
    s = args[1] if len(args) > 1 else kwargs["s"]
    return int(s >= 2)


# (module, attribute, work count or None, whether a call starts a new operation)
_SITES = (
    # calls the benchmark itself makes through the public API
    ("factorid", "parse_pattern", None, False),
    ("factorid", "trim", _trim_copied, False),
    ("factorid", "variance_identified", None, False),
    ("factorid", "counting_rule", _rule_needs_deletions, False),
    ("factorid", "counting_rule_bruteforce", None, False),
    # cli -> pattern, identify; one parsed line is one draw
    ("factorid.cli", "parse_jsonl_record", None, True),
    ("factorid.cli", "variance_identified", None, False),
    ("factorid.cli", "trim", _trim_copied, False),
    ("factorid.cli", "counting_rule", _rule_needs_deletions, False),
    ("factorid.cli", "verdict_in_original_coords", None, False),
    # identify -> pattern, bipartite, flow, and its own dispatch
    ("factorid.identify", "trim", _trim_copied, False),
    ("factorid.identify", "nonzero_row_count", None, False),
    ("factorid.identify", "generate_bipartite", None, False),
    ("factorid.identify", "duplicate_columns", None, False),
    ("factorid.identify", "maximum_matching", None, False),
    ("factorid.identify", "minimum_vertex_cover", None, False),
    ("factorid.identify", "is_rcm", None, False),
    ("factorid.identify", "build_identification_network", _network_arcs, False),
    ("factorid.identify", "max_flow_min_cut", None, False),
    ("factorid.identify", "mwvc_from_cut", None, False),
    ("factorid.identify", "counting_rule_s0", None, False),
    ("factorid.identify", "counting_rule_s1", None, False),
    ("factorid.identify", "verdict_in_original_coords", None, False),
    # bipartite, flow, identify -> kernels
    ("factorid._kernels", "hopcroft_karp", _kernel_edges, False),
    ("factorid._kernels", "dinic_min_cut", _kernel_arcs, False),
    ("factorid._kernels", "counting_sweep", _sweep_subsets, False),
)


def span_name(fn) -> str:
    layer = fn.__module__.rsplit(".", 1)[-1].lstrip("_")
    return f"{layer}.{fn.__name__}"


class Tracer:
    """Collects spans of one benchmark run in memory."""

    def __init__(self):
        self.spans = []
        self.parent = -1
        self.op = 0
        self._next_op = 0

    def new_op(self) -> int:
        self._next_op += 1
        self.op = self._next_op
        return self.op

    def wrap(self, name, fn, count=None, starts_op=False):
        spans = self.spans
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if starts_op:
                tracer.new_op()
            parent = tracer.parent
            idx = len(spans)
            spans.append(None)
            tracer.parent = idx
            start = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = (name, start, clock(), parent, tracer.op, True, None)
                raise
            finally:
                tracer.parent = parent
            end = clock()
            work = count(args, kwargs, out) if count is not None else None
            spans[idx] = (name, start, end, parent, tracer.op, False, work)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self):
        """Route factorid's cross-layer calls through timing wrappers."""
        saved = []
        try:
            for module_name, attr, count, starts_op in _SITES:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:  # a later refactor removed the name
                    continue
                saved.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name(fn), fn, count, starts_op))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def dump(self, path, rounds) -> None:
        """Write the spans of the given rounds as JSON lines."""
        with open(path, "w", encoding="utf-8") as f:
            for k, (lo, hi, *_) in enumerate(rounds):
                for name, start, end, parent, op, raised, work in self.spans[lo:hi]:
                    f.write(json.dumps({
                        "round": k, "name": name, "start_ns": start, "end_ns": end,
                        "parent": parent, "op": op, "raised": raised, "count": work,
                    }) + "\n")


class RoundProfile:
    """Self time, calls and work counts per span name over one traced round."""

    def __init__(self, spans, lo, hi, wall_ns):
        self.wall_ns = wall_ns
        self.self_ns = {}
        self.calls = {}
        self.work = {}
        self.s1_under_deletion = 0
        self.errors_to_cli = 0
        self.negative_self = 0
        child_ns = {}
        covered = 0
        for idx in range(lo, hi):
            name, start, end, parent, _, _, _ = spans[idx]
            if parent >= lo:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
            else:
                covered += end - start
        for idx in range(lo, hi):
            name, start, end, parent, _, raised, work = spans[idx]
            own = end - start - child_ns.get(idx, 0)
            if own < 0:
                self.negative_self += 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.calls[name] = self.calls.get(name, 0) + 1
            if work is not None:
                self.work[name] = self.work.get(name, 0) + work
            if raised and parent >= lo and spans[parent][0] == "cli.filter":
                self.errors_to_cli += 1
            if (
                name == "identify.counting_rule_s1"
                and parent >= lo
                and spans[parent][0] == "identify.counting_rule"
                and spans[parent][6]
            ):
                self.s1_under_deletion += 1
        self.unspanned_ns = wall_ns - covered

    def layer_self_ns(self, layer) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.split(".")[0] == layer)

    def counts(self) -> dict:
        """Work counts of the round; they depend only on the inputs."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "work": dict(sorted(self.work.items())),
            "s1_under_deletion": self.s1_under_deletion,
            "errors_to_cli": self.errors_to_cli,
        }
