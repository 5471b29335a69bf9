"""Output checks applied to every fit the benchmark runs.

Each function returns a list of problem strings; an empty list means the
output passed. The checks read only what a fit hands back (trace rows,
graphs, imputed views) and recompute what they can from the arrays
themselves instead of trusting the program's own counters.
"""

from __future__ import annotations

import numpy as np

# Largest objective increase between consecutive trace rows.
MONOTONE_TOL = 1e-9
# Largest constraint violation a trace row or a graph column may show.
VIOLATION_TOL = 1e-10


def check_trace(rows: list[dict], *,
                iterations: int | None = None) -> list[str]:
    """Trace rows: objective non-increasing, constraints held after every
    sub-update. With `iterations`, the trace must have exactly that many
    rows."""
    if not rows:
        return ["empty trace"]
    problems = []
    obj = np.array([float(r["objective"]) for r in rows])
    if not np.all(np.isfinite(obj)):
        problems.append("non-finite objective in trace")
    rises = np.flatnonzero(np.diff(obj) > MONOTONE_TOL)
    if rises.size:
        i = int(rises[0])
        problems.append(f"objective rose by {obj[i + 1] - obj[i]:.3e} at "
                        f"iteration {i + 2}")
    for i, r in enumerate(rows, start=1):
        if float(r["max_violation"]) > VIOLATION_TOL:
            problems.append(f"max_violation {float(r['max_violation']):.3e} "
                            f"at iteration {i}")
            break
    for i, r in enumerate(rows, start=1):
        if int(float(r["nnz_bad_columns"])) != 0:
            problems.append(f"{r['nnz_bad_columns']} graph column(s) without "
                            f"k nonzeros at iteration {i}")
            break
    if iterations is not None and len(rows) != iterations:
        problems.append(f"ran {len(rows)} iterations, expected {iterations}")
    return problems


def check_graphs(graphs: list[np.ndarray], k: int) -> list[str]:
    """Every column of every graph: exactly k nonzeros, nonnegative, and
    summing to one."""
    problems = []
    for g, G in enumerate(graphs):
        nnz = np.count_nonzero(G, axis=0)
        bad = np.flatnonzero(nnz != k)
        if bad.size:
            problems.append(f"graph {g}: {bad.size} column(s) without {k} "
                            f"nonzeros (first: column {int(bad[0])} has "
                            f"{int(nnz[bad[0]])})")
        if float(G.min()) < -VIOLATION_TOL:
            problems.append(f"graph {g}: negative entry {float(G.min()):.3e}")
        dev = float(np.abs(G.sum(axis=0) - 1.0).max())
        if dev > VIOLATION_TOL:
            problems.append(f"graph {g}: column sum off by {dev:.3e}")
    return problems


def check_observed(imputed: list[np.ndarray], views: list[np.ndarray],
                   masks: list[np.ndarray]) -> list[str]:
    """Observed entries of the imputed views equal the input bit for bit."""
    problems = []
    for v, (X, Y, M) in enumerate(zip(imputed, views, masks)):
        obs = M == 1.0
        if X.shape != Y.shape or not np.array_equal(
                X[obs].view(np.uint64), Y[obs].view(np.uint64)):
            problems.append(f"view {v}: observed entries differ from input")
    return problems


def _bits(x) -> str:
    return float(x).hex()


def compare_reruns(first: dict, other: dict) -> list[str]:
    """Two runs of the same inputs must report the same outputs (iteration
    counts, final objectives, scores) bit for bit."""
    if set(first) != set(other):
        return [f"rerun reported outputs {sorted(other)}, "
                f"first run {sorted(first)}"]
    return [f"rerun changed {key}: {first[key]!r} -> {other[key]!r}"
            for key in first if _bits(first[key]) != _bits(other[key])]
