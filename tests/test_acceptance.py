"""Release gates, one test per shipped guarantee.

`pytest -v tests/test_acceptance.py` reads as a scorecard: a single
pass/fail line for each gate. The two heavyweight inputs (a 20-instance
convergence family and a 5-seed planted-cluster comparison) are built once
per session in module fixtures; the remaining gates are implementation
versus independent oracle on randomized small instances.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from climfs.baselines import run_variant
from climfs.cli import main
from climfs.dataset import (MissingScenario, MultiViewDataset, apply_missing,
                            make_synthetic)
from climfs.evaluation import (clustering_accuracy, diagnostics_report,
                               evaluate_selection, nmi)
from climfs.model import (FULL_MODEL, FitConfig, _b_spec, _costs, _q_spec,
                          fit, init_state, rank_features, update_Fstar,
                          update_Fv, update_H, update_S, update_W,
                          update_Xhat, update_alpha, validate_state)
from climfs.numkit import ksparse_simplex_columns, solve_scaled_sylvester

# ---------------------------------------------------------------- oracles


def _project_simplex(y: np.ndarray) -> np.ndarray:
    """Textbook sort-based Euclidean projection onto the simplex."""
    u = np.sort(y)[::-1]
    css = np.cumsum(u)
    rho = int(np.max(np.nonzero(
        u - (css - 1.0) / np.arange(1, y.size + 1) > 0)[0])) + 1
    theta = (css[rho - 1] - 1.0) / rho
    return np.maximum(y - theta, 0.0)


def _enum_best(q: np.ndarray, k: int, xi: float) -> float:
    """Minimize q.s + xi*||s||^2 over the k-sparse simplex by trying every
    support: on a fixed support the problem is a simplex projection."""
    best = np.inf
    for support in itertools.combinations(range(q.size), k):
        idx = list(support)
        s = _project_simplex(-q[idx] / (2.0 * xi))
        best = min(best, float(q[idx] @ s + xi * (s @ s)))
    return best


def _brute_force_accuracy(pred: np.ndarray, truth: np.ndarray,
                          c: int) -> float:
    best = max(int(np.sum(np.asarray(perm)[pred] == truth))
               for perm in itertools.permutations(range(c)))
    return best / pred.size


def _round_half_up(x: float) -> int:
    return int(np.floor(x + 0.5))


# --------------------------------------------------------------- fixtures


def _mean_acc(state, labels, cfg, sel) -> float:
    """Score a fitted state the way the evaluate subcommand does: repeated
    k-means on its own imputation restricted to the selected features."""
    imputed = MultiViewDataset(views=[x.copy() for x in state.Xhat],
                               labels=labels)
    report = evaluate_selection(imputed, sel, c=cfg.c, runs=50, seed=cfg.seed)
    return report.acc_mean


@pytest.fixture(scope="module")
def convergence_family():
    """Twenty seeded mixed-missing fits spanning n, view count and c."""
    runs = []
    t0 = time.perf_counter()
    for i in range(20):
        rng = np.random.default_rng(100 + i)
        n = int(rng.integers(60, 201))
        views = int(rng.integers(2, 4))
        c = int(rng.integers(2, 5))
        ds = make_synthetic(n=n, views=views, clusters=c, informative=5,
                            noise=10, seed=200 + i)
        masked, masks = apply_missing(
            ds, MissingScenario("mixed", 0.3, 300 + i))
        cfg = FitConfig(lam=1.0, beta=1.0, k=5, c=c, max_iter=200, tol=1e-5,
                        seed=100 + i)
        _, trace = fit(masked, masks, cfg)
        runs.append({"cfg": cfg, "trace": trace})
    return {"runs": runs, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def planted_comparison():
    """Planted-cluster family: full model and every baseline fitted and
    scored on five dataset seeds; full fits kept for the diagnostics gate."""
    rows, fulls, traces = [], [], []
    t0 = time.perf_counter()
    for seed in range(5):
        ds = make_synthetic(n=150, views=2, clusters=3, informative=10,
                            noise=40, separation=3.0, noise_scale=0.6,
                            seed=seed)
        masked, masks = apply_missing(ds, MissingScenario("mixed", 0.5, seed))
        cfg = FitConfig(lam=1.0, beta=1.0, k=6, c=3, max_iter=200, tol=1e-5,
                        seed=seed)
        state, trace = fit(masked, masks, cfg)
        traces.append(trace)
        accs = {"climfs": _mean_acc(state, ds.labels, cfg,
                                    rank_features(state, 0.2))}
        # climfs-i is the impute-then-select baseline
        for kind in ("climfs-i", "climfs-ii", "climfs-iii"):
            sel, vstate, vtrace = run_variant(kind, masked, masks, cfg,
                                              ratio=0.2)
            accs[kind] = _mean_acc(vstate, ds.labels, cfg, sel)
            traces.append(vtrace)
        rows.append(accs)
        fulls.append({"state": state, "trace": trace, "cfg": cfg,
                      "masks": masks})
    return {"rows": rows, "fulls": fulls, "traces": traces,
            "seconds": time.perf_counter() - t0}


# ------------------------------------------------------------------ gates


def test_fit_converges_monotonically_across_twenty_instances(
        convergence_family):
    iteration_counts = []
    for run in convergence_family["runs"]:
        objectives = np.array([row["objective"]
                               for row in run["trace"].rows])
        assert np.all(np.diff(objectives) <= 1e-9)
        assert run["trace"].rows[-1]["rel_change"] < run["cfg"].tol
        iteration_counts.append(len(run["trace"].rows))
    assert max(iteration_counts) <= 200
    assert np.median(iteration_counts) <= 60
    assert convergence_family["seconds"] < 120.0


def test_graph_column_updates_match_support_enumeration():
    rng = np.random.default_rng(4242)
    cases = []
    # Cost columns exactly as the similarity updates see them, taken from
    # a few briefly fitted tiny models (both the per-view and the fused
    # subproblems), topped up with synthetic vectors across scales.
    for j in range(4):
        ds = make_synthetic(n=6, views=2, clusters=2, informative=3, noise=3,
                            seed=500 + j)
        masked, masks = apply_missing(
            ds, MissingScenario("variable", 0.2, 500 + j))
        cfg = FitConfig(lam=1.0, beta=1.0, k=j % 3 + 1, c=2, max_iter=3,
                        tol=1e-9, seed=j)
        state, _ = fit(masked, masks, cfg)
        cols = np.arange(6)   # row r of a block holds column r's costs
        for spec in (_q_spec(state, 0), _q_spec(state, 1),
                     _b_spec(state, FULL_MODEL)):
            mat = _costs(*spec, cols, np.empty((6, 6)))
            cases.extend((np.delete(mat[col], col), cfg.k) for col in cols)
    while len(cases) < 500:
        size = int(rng.integers(3, 7))
        k = int(rng.integers(1, min(3, size - 1) + 1))
        scale = float(rng.uniform(0.3, 30.0))
        cases.append((rng.normal(scale=scale, size=size), k))

    for q, k in cases:
        # q becomes the costs of column 0 (its own entry left out)
        Q = np.zeros((1, q.size + 1))
        Q[0, 1:] = q
        nbr, w, halves, _ = ksparse_simplex_columns(Q, np.array([0]), k)
        s = np.zeros(q.size)
        s[nbr[0] - 1] = w[0]
        half = halves[0]
        assert np.count_nonzero(s) == k
        assert abs(s.sum() - 1.0) <= 1e-12
        assert s.min() >= 0.0
        value = float(q @ s + half * (s @ s))
        assert abs(value - _enum_best(q, k, half)) <= 1e-8


def test_sylvester_solver_matches_kronecker_oracle():
    rng = np.random.default_rng(777)
    worst_residual = 0.0
    worst_gap = 0.0
    oracle_checked = 0
    for _ in range(1000):
        p = int(rng.integers(1, 9))
        c = int(rng.integers(1, 5))
        d = rng.uniform(0.05, 5.0, size=p)
        lam = float(rng.uniform(0.1, 10.0))
        base = rng.normal(size=(c, c))
        G = base @ base.T
        G = (G + G.T) / 2.0
        C = rng.normal(size=(p, c))
        W = solve_scaled_sylvester(d, lam, G, C)
        residual = float(np.abs(lam * d[:, None] * W + W @ G - C).max())
        worst_residual = max(worst_residual, residual)
        if p <= 4 and c <= 4:
            # Row-major vec: vec(diag(d)W) = (diag(d) kron I) vec(W),
            # vec(WG) = (I kron G^T) vec(W).
            A = lam * np.kron(np.diag(d), np.eye(c)) \
                + np.kron(np.eye(p), G.T)
            W_oracle = np.linalg.solve(A, C.reshape(-1)).reshape(p, c)
            worst_gap = max(worst_gap, float(np.abs(W - W_oracle).max()))
            oracle_checked += 1
    assert worst_residual <= 1e-8
    assert worst_gap <= 1e-8
    assert oracle_checked >= 200


def test_constraints_hold_after_every_sub_update(convergence_family,
                                                 planted_comparison):
    # `fit` validates after every sub-update; the trace keeps the worst
    # measurement seen inside each iteration.
    for trace in ([run["trace"] for run in convergence_family["runs"]]
                  + planted_comparison["traces"]):
        for row in trace.rows:
            assert row["max_violation"] <= 1e-10
            assert row["nnz_bad_columns"] == 0

    # Direct sweep: after each individual sub-update the graph columns stay
    # k-sparse on the simplex, alpha stays on the simplex, the consensus
    # factor stays nonnegative and observed entries survive bitwise.
    ds = make_synthetic(n=50, views=2, clusters=3, informative=4, noise=6,
                        seed=5)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.3, 5))
    cfg = FitConfig(lam=0.8, beta=0.7, k=4, c=3, max_iter=5, tol=1e-9,
                    seed=5)
    state = init_state(masked, masks, cfg)
    for _ in range(3):
        for step in (update_W, update_Fv, update_Fstar, update_S, update_H,
                     update_alpha):
            step(state, cfg)
            checks = validate_state(state, masked, masks, cfg)
            assert checks["max_violation"] <= 1e-10
            assert checks["nnz_bad_columns"] == 0
            assert checks["observed_bitwise_equal"]
        update_Xhat(state, masked, masks)
        checks = validate_state(state, masked, masks, cfg)
        assert checks["max_violation"] <= 1e-10
        assert checks["nnz_bad_columns"] == 0
        assert checks["observed_bitwise_equal"]


def test_similarity_bound_diagnostics_show_zero_violations(
        planted_comparison):
    qualifying_pairs = 0
    for rec in planted_comparison["fulls"]:
        assert rec["trace"].rows[-1]["rel_change"] < rec["cfg"].tol
        report = diagnostics_report(rec["state"], rec["masks"],
                                    zetas=(0.1, 0.2))
        for check in report["consensus_consistency"]["checks"]:
            assert check["violations"] == 0
            qualifying_pairs += check["pairs"]
        for view_record in report["cluster_separation"]:
            assert view_record["same_violations"] == 0
            assert view_record["cross_violations"] == 0
            assert view_record["premise_status"]
    # the strong-similarity bound must be exercised, not hold vacuously
    assert qualifying_pairs > 0


def test_full_model_beats_baselines_on_planted_clusters(planted_comparison):
    rows = planted_comparison["rows"]
    for rival in ("climfs-i", "climfs-ii", "climfs-iii"):
        wins = sum(row["climfs"] > row[rival] for row in rows)
        assert wins >= 4, (rival,
                           [(row["climfs"], row[rival]) for row in rows])
    assert planted_comparison["seconds"] < 600.0


def test_clustering_metrics_match_reference_computations():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        c = int(rng.integers(1, 7))
        n = int(rng.integers(c, 40))
        truth = rng.integers(0, c, size=n)
        pred = rng.integers(0, c, size=n)
        assert clustering_accuracy(pred, truth) \
            == _brute_force_accuracy(pred, truth, c)

    # hand-worked contingency tables
    assert abs(nmi([0, 1, 2, 0, 1, 2], [0, 1, 2, 0, 1, 2]) - 1.0) <= 1e-12
    assert abs(nmi([0, 1, 0, 1], [0, 0, 1, 1]) - 0.0) <= 1e-12
    # contingency [[2, 0], [1, 2]] over n = 5; both marginals are (.4, .6)
    info = (0.4 * math.log(0.4 / (0.4 * 0.6))
            + 0.2 * math.log(0.2 / (0.6 * 0.6))
            + 0.4 * math.log(0.4 / (0.6 * 0.4)))
    entropy = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))
    assert abs(nmi([0, 0, 1, 1, 1], [0, 0, 0, 1, 1])
               - info / entropy) <= 1e-12
    # contingency diag(2, 1, 1) against marginals (.5, .5): the mutual
    # information is ln 2 against entropies (1.5 ln 2, ln 2), so the
    # geometric-mean normalization lands exactly on sqrt(2/3)
    assert abs(nmi([0, 0, 1, 2], [0, 0, 1, 1])
               - math.sqrt(2.0 / 3.0)) <= 1e-12

    truth = rng.integers(0, 5, size=60)
    pred = rng.integers(0, 5, size=60)
    base = clustering_accuracy(pred, truth)
    for _ in range(100):
        relabel = rng.permutation(5)
        assert clustering_accuracy(relabel[pred], truth) == base


def test_mask_counts_match_requested_rates_exactly():
    ds = make_synthetic(n=41, views=3, clusters=3, informative=3, noise=4,
                        seed=1)
    for delta in (0.1, 0.2, 0.3, 0.4, 0.5):
        for seed in range(1, 11):
            _, masks = apply_missing(ds, MissingScenario("view", delta, seed))
            dropped = sum(int((~m.any(axis=0)).sum()) for m in masks.masks)
            assert dropped == _round_half_up(delta * 41)
            for m in masks.masks:
                column_ones = m.sum(axis=0)
                assert np.all((column_ones == 0) | (column_ones == m.shape[0]))

            _, masks = apply_missing(
                ds, MissingScenario("variable", delta, seed))
            for m in masks.masks:
                assert int((m == 0.0).sum()) == _round_half_up(delta * m.size)

            # The whole-view stage of "mixed" consumes the same leading RNG
            # draws as the standalone "view" scenario, so replaying "view"
            # with the same seed identifies the stage-1 columns.
            _, mixed = apply_missing(ds, MissingScenario("mixed", delta, seed))
            _, stage1 = apply_missing(ds, MissingScenario("view", delta, seed))
            for m, s1 in zip(mixed.masks, stage1.masks):
                gone = ~s1.any(axis=0)
                assert np.all(m[:, gone] == 0.0)
                survivors = m[:, ~gone]
                assert int((survivors == 0.0).sum()) \
                    == _round_half_up(delta * survivors.size)


def test_cli_pipeline_is_deterministic_modulo_timing(tmp_path):
    def strip_timing(payload: dict) -> dict:
        payload.pop("timing", None)
        return payload

    outputs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        config = {
            "data": {"synthetic": {"n": 40, "views": 2, "clusters": 3,
                                   "informative": 4, "noise": 6, "seed": 7}},
            "scenario": {"kind": "mixed", "delta": 0.3, "seed": 7},
            "fit": {"lambda": 0.5, "beta": 0.5, "k": 4, "c": 3,
                    "max_iter": 150, "tol": 1e-5, "seed": 7},
            "feature_ratios": [0.2],
            "eval_runs": 5,
            "out_dir": str(out),
        }
        path = tmp_path / f"{tag}.json"
        path.write_text(json.dumps(config))
        for command in ("simulate", "fit", "evaluate", "diagnose"):
            assert main([command, "--config", str(path)]) == 0
        outputs.append(out)

    first, second = outputs
    for rel in ("fit/climfs/fit_result.json", "eval/climfs/report_r0.2.json",
                "diagnose/climfs.json"):
        a = strip_timing(json.loads((first / rel).read_text()))
        b = strip_timing(json.loads((second / rel).read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert (first / "eval" / "summary.csv").read_bytes() \
        == (second / "eval" / "summary.csv").read_bytes()
