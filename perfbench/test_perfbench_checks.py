"""Tests of the benchmark's own checker, span recorder and metric table."""

import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
from workloads import Outcome

ROOT = Path(__file__).resolve().parent.parent


def _rows(objectives, **extra):
    return [{"objective": o, "max_violation": 0.0, "nnz_bad_columns": 0,
             **extra} for o in objectives]


def _graph(n=6):
    G = np.zeros((n, n))
    for j in range(n):
        G[(j + 1) % n, j] = 0.75
        G[(j + 2) % n, j] = 0.25
    return G


def test_clean_trace_passes():
    assert checks.check_trace(_rows([5.0, 4.0, 4.0 + 1e-10]),
                              iterations=3) == []


def test_non_monotone_trace_is_flagged():
    problems = checks.check_trace(_rows([5.0, 4.0, 4.5]))
    assert len(problems) == 1 and "rose" in problems[0]


def test_trace_constraint_counters_are_flagged():
    assert checks.check_trace(_rows([2.0, 1.0], nnz_bad_columns=3))
    assert checks.check_trace(_rows([2.0, 1.0], max_violation=1e-6))


def test_trace_sweep_count_is_enforced():
    assert checks.check_trace(_rows([2.0, 1.0]), iterations=5)


def test_valid_graphs_pass():
    assert checks.check_graphs([_graph(), _graph()], k=2) == []


def test_non_k_column_is_flagged():
    G = _graph()
    G[:, 3] = 0.0
    G[[0, 1, 2], 3] = 1.0 / 3.0
    problems = checks.check_graphs([_graph(), G], k=2)
    assert len(problems) == 1 and "column 3" in problems[0]


def test_column_sum_and_sign_are_flagged():
    G = _graph()
    G[1, 0] = 0.5
    assert checks.check_graphs([G], k=2)
    G = _graph()
    G[1, 0], G[2, 0] = 1.25, -0.25
    assert checks.check_graphs([G], k=2)


def test_changed_observed_entry_is_flagged():
    X = np.arange(12.0).reshape(3, 4)
    M = np.ones_like(X)
    M[0, 0] = 0.0
    Y = X.copy()
    Y[0, 0] = -1.0          # masked: may differ
    assert checks.check_observed([Y], [X], [M]) == []
    Y[1, 1] = np.nextafter(Y[1, 1], np.inf)
    assert checks.check_observed([Y], [X], [M])


def test_matching_rerun_passes():
    out = {"iters": 76, "objective": 123.456, "acc": 0.8, "nmi": 0.5}
    assert checks.compare_reruns(out, dict(out)) == []


def test_mismatched_rerun_is_flagged():
    out = {"iters": 76, "objective": 123.456, "acc": 0.8, "nmi": 0.5}
    other = dict(out, objective=np.nextafter(123.456, 0.0))
    problems = checks.compare_reruns(out, other)
    assert len(problems) == 1 and "objective" in problems[0]
    assert checks.compare_reruns(out, dict(out, iters=77))


def test_rerun_mismatch_counts_as_failed_fit():
    first = Outcome({"fit_s": 1.0}, {"iters": 5, "objective": 1.0},
                    {"climfs": []})
    same = Outcome({"fit_s": 1.1}, {"iters": 5, "objective": 1.0},
                   {"climfs": []})
    other = Outcome({"fit_s": 1.1}, {"iters": 6, "objective": 1.0},
                    {"climfs": []})
    assert run.score([[first], [same]])[:2] == (2, 0)
    assert run.score([[first], [other]])[:2] == (2, 1)


def test_spans_nest_and_count_raised_errors():
    mods = run.import_climfs(("climfs.cli",))
    numkit = mods.numkit
    from climfs.errors import NumericError

    original = numkit.ksparse_simplex_min
    tracer = spans.Tracer()
    tracer.install({k: v for k, v in vars(mods).items() if k in spans.LAYERS})
    try:
        assert numkit.ksparse_simplex_min is not original
        with tracer.span("outer"):
            numkit.ksparse_simplex_min(np.array([0.0, 1.0, 2.0]), 1)
            with pytest.raises(NumericError):
                numkit.ksparse_simplex_min(np.array([1.0, 1.0, 2.0]), 1)
    finally:
        tracer.restore()
    assert numkit.ksparse_simplex_min is original
    tot = tracer.totals()
    assert tot["numkit.ksparse_simplex_min"]["calls"] == 2
    assert tracer.counts["numkit.ksparse_simplex_min.raised.NumericError"] == 1
    assert tracer.parents == [-1, 0, 0]
    outer = tot["outer"]
    assert outer["self_s"] == pytest.approx(
        outer["s"] - tot["numkit.ksparse_simplex_min"]["s"])


def test_metric_table_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    batch = [[Outcome({"fit_s": 1.0, "eval_s": 0.1, "pipeline_s": 1.1},
                      {"iters": 5, "acc": 0.8, "nmi": 0.5}, {"climfs": []})]]
    e2e = run.end_to_end(batch, setup_s=0.5)
    layer = run.per_layer(spans.Tracer(), batch, batch, 0.4, 1)
    assert list(run.report(spec["end_to_end"], e2e)) == [
        m["name"] for m in spec["end_to_end"]]
    assert list(run.report(spec["per_layer"], layer)) == [
        m["name"] for m in spec["per_layer"]]
