"""Backend parity: the compiled kernels must be bit-identical to pure Python."""

import hashlib
import importlib.util
import os
import shlex
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import numpy as np
import pytest

import oracles
from factorid import _kernels


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels: the built extension if there is one, else the
    committed `_ckernels.c` compiled into a temporary directory and loaded
    from there, so the package tree and the active backend stay untouched."""
    if "compiled" in _kernels.available_backends():
        return _kernels.backend_module("compiled")
    link = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    include = sysconfig.get_paths()["include"]
    if not link or shutil.which(link[0]) is None:
        pytest.skip("no C compiler to build the compiled kernels")
    if not os.path.exists(os.path.join(include, "Python.h")):
        pytest.skip("Python.h not found; cannot build the compiled kernels")
    source = Path(_kernels.__file__).with_name("_ckernels.c")
    target = tmp_path_factory.mktemp("ckernels") / (
        "_ckernels" + sysconfig.get_config_var("EXT_SUFFIX")
    )
    build = subprocess.run(
        [*link, "-fPIC", "-O1", "-I", include, str(source), "-o", str(target)],
        capture_output=True, text=True,
    )
    assert build.returncode == 0, build.stderr
    spec = importlib.util.spec_from_file_location("factorid._kernels._ckernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def random_csr(rng, max_side=9, max_edges=24):
    n_col = int(rng.integers(0, max_side + 1))
    n_row = int(rng.integers(1, max_side + 1))
    edges = set()
    if n_col:
        for _ in range(int(rng.integers(0, max_edges + 1))):
            edges.add((int(rng.integers(0, n_col)), int(rng.integers(0, n_row))))
    adj = [[] for _ in range(n_col)]
    for c, r in edges:
        adj[c].append(r)
    indptr = [0]
    indices = []
    for c in range(n_col):
        indices.extend(sorted(adj[c]))
        indptr.append(len(indices))
    return n_col, n_row, indptr, indices


def test_hopcroft_karp_parity(compiled):
    pure = _kernels.backend_module("pure")
    rng = np.random.default_rng(71)
    for _ in range(400):
        n_col, n_row, indptr, indices = random_csr(rng)
        a = pure.hopcroft_karp(n_col, n_row, indptr, indices)
        b = compiled.hopcroft_karp(n_col, n_row, indptr, indices)
        assert a[0] == b[0]
        assert list(a[1]) == list(b[1])
        assert list(a[2]) == list(b[2])


def test_dinic_parity(compiled):
    pure = _kernels.backend_module("pure")
    rng = np.random.default_rng(73)
    for _ in range(400):
        n = int(rng.integers(2, 11))
        n_arcs = int(rng.integers(1, 30))
        tails = [int(rng.integers(0, n - 1)) for _ in range(n_arcs)]
        heads = [int(rng.integers(1, n)) for _ in range(n_arcs)]
        caps = [int(rng.integers(0, 12)) for _ in range(n_arcs)]
        a = pure.dinic_min_cut(n, 0, n - 1, tails, heads, caps)
        b = compiled.dinic_min_cut(n, 0, n - 1, tails, heads, caps)
        assert a[0] == b[0]
        assert list(a[1]) == list(b[1])
        assert list(a[2]) == list(b[2])


def sweep_cases(rng, n, max_rows=None):
    """(r, s, col_masks) for the counting sweep with r <= 12, three families
    in turn: random masks on m <= max_rows rows (default 3r+3); tight
    patterns, half of them every column on its own two rows plus the same s
    extra rows, where nothing prunes (sometimes the last column takes one row
    from each of the two before it and one of its own, so the last 3-subset is
    the first to fail), and half of them m = 2r+s with columns of 2+s or 3+s
    random rows, where violators sit deep and narrow; and all-ones columns,
    where pruning fires at depth 1."""
    for case in range(n):
        r = int(rng.integers(0, 13))
        s = int(rng.integers(0, 5))
        m = int(rng.integers(1, (max_rows or 3 * r + 3) + 1))
        family = case % 3
        if family == 0:
            density = rng.random()
            masks = [
                sum(1 << i for i, on in enumerate(rng.random(m) < density) if on)
                for _ in range(r)
            ]
        elif family == 1 and rng.random() < 0.5:
            masks = [0b11 << 2 * j for j in range(r)]
            if r >= 3 and rng.random() < 0.5:
                masks[-1] = 0b10101 << 2 * (r - 3)
            extra = ((1 << s) - 1) << (2 * r)
            masks = [mask | extra for mask in masks]
        elif family == 1:
            m = 2 * r + s
            masks = []
            for _ in range(r):
                rows = rng.choice(m, min(m, 2 + s + int(rng.integers(0, 2))), replace=False)
                masks.append(sum(1 << int(i) for i in rows))
        else:
            masks = [(1 << m) - 1] * r
        yield r, s, masks


def test_counting_sweep_first_violator():
    """The pruned pure sweep returns exactly the naive scan's first violator."""
    pure = _kernels.backend_module("pure")
    rng = np.random.default_rng(83)
    for r, s, masks in sweep_cases(rng, 600):
        assert pure.counting_sweep(r, s, masks) == oracles.first_violating_subset(masks, s)


def test_counting_sweep_parity(compiled):
    pure = _kernels.backend_module("pure")
    rng = np.random.default_rng(79)
    for r, s, masks in sweep_cases(rng, 600, max_rows=129):
        assert pure.counting_sweep(r, s, masks) == compiled.counting_sweep(r, s, masks)


def test_forced_backend_context():
    active = _kernels.active_backend()
    with _kernels.forced_backend("pure"):
        assert _kernels.active_backend() == "pure"
    assert _kernels.active_backend() == active


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        _kernels.backend_module("fortran")


def test_env_override_pure():
    env = dict(os.environ, FACTORID_KERNELS="pure")
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src"),
         env.get("PYTHONPATH", "")]
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "from factorid import _kernels; print(_kernels.active_backend())"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "pure"


def test_committed_c_matches_pyx():
    """`_ckernels.c` is generated from `_ckernels.pyx`; the SHA-256 of the
    `.pyx` it was generated from is committed beside it."""
    here = Path(_kernels.__file__).parent
    recorded = (here / "_ckernels.pyx.sha256").read_text().split()[0]
    actual = hashlib.sha256((here / "_ckernels.pyx").read_bytes()).hexdigest()
    assert actual == recorded, (
        "_ckernels.pyx changed since _ckernels.c was generated; regenerate both with "
        "`cd src/factorid/_kernels && cython -3 _ckernels.pyx "
        "&& sha256sum _ckernels.pyx > _ckernels.pyx.sha256`"
    )
