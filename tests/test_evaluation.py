"""Clustering metrics against brute-force oracles and hand-computed
values; diagnostics on constructed and fitted states."""

import itertools
import json
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import graph_oracle as oracle
import kmeans_oracle

from climfs.dataset import (MaskMatrix, MissingScenario, apply_missing,
                            make_synthetic)
from climfs.evaluation import (KMEANS_MAX_ITER, EvalReport, _cross_view,
                               clustering_accuracy, diagnostics_report,
                               evaluate_selection, kmeans, nmi)
from climfs.model import FitConfig, SelectionResult, fit, rank_features


def acc_brute(pred, truth):
    """Max matched fraction over all label bijections (padded square)."""
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    _, pi = np.unique(pred, return_inverse=True)
    _, ti = np.unique(truth, return_inverse=True)
    side = max(pi.max(), ti.max()) + 1
    C = np.zeros((side, side), dtype=int)
    np.add.at(C, (pi, ti), 1)
    best = 0
    for perm in itertools.permutations(range(side)):
        best = max(best, sum(C[i, perm[i]] for i in range(side)))
    return best / len(pred)


# ----------------------------------------------------------------- k-means


def test_kmeans_separated_blobs():
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0.0, 0.1, size=(20, 1)),
                   rng.normal(10.0, 0.1, size=(20, 1))])
    labels = kmeans(X, 2, seed=0)
    truth = np.repeat([0, 1], 20)
    assert clustering_accuracy(labels, truth) == 1.0


def test_kmeans_c_equals_n():
    X = np.arange(6, dtype=float).reshape(-1, 1) * 3.0
    labels = kmeans(X, 6, seed=1)
    assert len(set(labels.tolist())) == 6


def test_kmeans_single_cluster():
    X = np.random.default_rng(2).normal(size=(10, 3))
    assert set(kmeans(X, 1, seed=0).tolist()) == {0}


def test_kmeans_rejects_bad_c():
    X = np.zeros((4, 2))
    with pytest.raises(ValueError):
        kmeans(X, 5, seed=0)
    with pytest.raises(ValueError):
        kmeans(X, 0, seed=0)


def test_kmeans_wcss_history_non_increasing():
    rng = np.random.default_rng(3)
    for trial in range(50):
        X = rng.normal(size=(40, 4))
        _, hist = kmeans(X, 4, seed=trial, return_history=True)
        assert (np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1])).all()


def test_kmeans_labels_do_not_depend_on_the_history():
    # the history is computed only when asked for; the Lloyd loop must
    # stop at the same iteration either way, also when clusters empty out
    rng = np.random.default_rng(6)
    for seed in range(40):
        X = rng.normal(size=(int(rng.integers(8, 60)), 3))
        if seed % 4 == 0:
            X[: len(X) // 2] = X[0]  # duplicate points empty clusters
        c = int(rng.integers(1, 7))
        labels, hist = kmeans(X, c, seed=seed, return_history=True)
        assert np.array_equal(kmeans(X, c, seed=seed), labels)
        assert 1 <= len(hist) <= KMEANS_MAX_ITER


def test_kmeans_deterministic_per_seed():
    X = np.random.default_rng(4).normal(size=(30, 3))
    assert np.array_equal(kmeans(X, 3, seed=9), kmeans(X, 3, seed=9))


@pytest.fixture(scope="module")
def planted_eval_inputs():
    """What `evaluate_selection` clusters on the planted family: the top
    20% of features of a 2-sweep fit's imputed views, at n = 150 and 400,
    two seeds each."""
    inputs = []
    for n in (150, 400):
        for seed in (0, 1):
            ds = make_synthetic(n=n, views=2, clusters=3, informative=10,
                                noise=40, separation=3.0, noise_scale=0.6,
                                seed=seed)
            state, _ = fit(*apply_missing(ds, MissingScenario("mixed", 0.5,
                                                              seed)),
                           FitConfig(k=6, c=3, max_iter=2, tol=1e-12,
                                     seed=seed))
            sel = rank_features(state, 0.2)
            inputs.append(np.hstack([x[i].T for x, i in
                                     zip(state.Xhat, sel.selected)]))
    return inputs


def test_kmeans_batch_matches_the_per_seed_oracle(planted_eval_inputs):
    for X in planted_eval_inputs:
        batch = kmeans(X, 3, seed=range(5, 35))
        assert batch.shape == (30, X.shape[0])
        for r, labels in enumerate(batch):
            assert np.array_equal(labels, kmeans_oracle.kmeans(X, 3, 5 + r))


@pytest.mark.parametrize("case", ["duplicates", "empties", "empties_midway",
                                  "c_1", "c_n"])
def test_kmeans_batch_run_equals_its_seed_alone_and_the_oracle(case):
    rng = np.random.default_rng(13)
    X, c = rng.normal(size=(30, 2)), 4
    if case == "duplicates":
        X[10:25] = X[3]
    elif case == "empties":
        # two distinct points: from the third center on, k-means++ draws
        # a point at random, so centers coincide and clusters empty out
        X = np.repeat([[0.0, 0.0], [1.0, 2.0]], 15, axis=0)
    elif case == "empties_midway":
        # rounded points, so distances tie; for some seeds a cluster
        # empties after the first pass, with points off every center
        X, c = np.round(np.random.default_rng(387).normal(size=(34, 2))
                        * 3.0), 8
    elif case == "c_1":
        c = 1
    else:
        c = len(X)
    seeds = [3, 0, 17, 4, 9, 11, 2, 8]
    labels, hists = kmeans(X, c, seed=seeds, return_history=True)
    for s, lab, hist in zip(seeds, labels, hists):
        one, one_hist = kmeans(X, c, seed=s, return_history=True)
        assert one.tobytes() == lab.tobytes()
        assert one_hist.tobytes() == hist.tobytes()
        assert np.array_equal(lab, kmeans_oracle.kmeans(X, c, s))
    used = [np.unique(lab).size for lab in labels]
    if case == "empties":
        assert max(used) == 2 < c
    if case == "c_n":
        assert min(used) == c


def test_kmeans_rejects_seeds_that_are_not_a_flat_sequence():
    X = np.zeros((4, 2))
    for seed in ([], [[0, 1]]):
        with pytest.raises(ValueError, match="seed"):
            kmeans(X, 2, seed=seed)


# ---------------------------------------------------------------- accuracy


def test_accuracy_exact_and_permuted():
    truth = np.array([0, 0, 1, 1, 2, 2])
    assert clustering_accuracy(truth, truth) == 1.0
    remap = np.array([2, 0, 1])
    assert clustering_accuracy(remap[truth], truth) == 1.0


def test_accuracy_hand_case():
    assert clustering_accuracy([0, 0, 1, 1], [0, 1, 0, 1]) == 0.5


def test_accuracy_matches_bruteforce():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = int(rng.integers(2, 7))
        n = int(rng.integers(5, 40))
        pred = rng.integers(0, c, n)
        truth = rng.integers(0, c, n)
        assert clustering_accuracy(pred, truth) == pytest.approx(
            acc_brute(pred, truth), abs=1e-12)


def test_accuracy_relabeling_invariance():
    rng = np.random.default_rng(6)
    truth = rng.integers(0, 4, 60)
    pred = rng.integers(0, 4, 60)
    base = clustering_accuracy(pred, truth)
    for _ in range(100):
        perm = rng.permutation(4)
        assert clustering_accuracy(perm[pred], truth) == pytest.approx(
            base, abs=1e-12)


def test_accuracy_length_mismatch():
    with pytest.raises(ValueError):
        clustering_accuracy([0, 1], [0, 1, 2])


# --------------------------------------------------------------------- NMI


def test_nmi_identical_labelings():
    assert nmi([0, 0, 1, 1, 2], [0, 0, 1, 1, 2]) == pytest.approx(1.0)


def test_nmi_independent_blocks_zero():
    assert nmi([0, 0, 1, 1], [0, 1, 0, 1]) == pytest.approx(0.0, abs=1e-15)


def test_nmi_hand_computed_value():
    pred = [0, 0, 1, 1, 1]
    truth = [0, 0, 0, 1, 1]
    # contingency [[2, 0], [1, 2]] over n = 5
    info = (0.4 * math.log(0.4 / (0.4 * 0.6))
            + 0.2 * math.log(0.2 / (0.6 * 0.6))
            + 0.4 * math.log(0.4 / (0.6 * 0.4)))
    ent = -(0.4 * math.log(0.4) + 0.6 * math.log(0.6))
    assert nmi(pred, truth) == pytest.approx(info / ent, abs=1e-12)


def test_nmi_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = rng.integers(0, 3, 30)
        b = rng.integers(0, 4, 30)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)


def test_nmi_independent_large_sample_near_zero():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 3, 10000)
    b = rng.integers(0, 3, 10000)
    assert nmi(a, b) <= 0.05


def test_nmi_degenerate_conventions():
    assert nmi([0, 0, 0], [1, 1, 1]) == 1.0       # both trivial partitions
    assert nmi([0, 0, 0], [0, 1, 2]) == 0.0       # one side carries nothing
    assert nmi([0, 1, 2], [5, 5, 5]) == 0.0


def test_nmi_length_mismatch():
    with pytest.raises(ValueError):
        nmi([0], [0, 1])


# ------------------------------------------------------- evaluate_selection


def _identity_selection(dims, ratio=1.0):
    return SelectionResult(scores=[np.ones(d) for d in dims],
                           rankings=[np.arange(d) for d in dims],
                           selected=[np.arange(d) for d in dims],
                           ratio=ratio)


def test_evaluate_selection_single_run_equals_run():
    ds = make_synthetic(n=40, views=2, clusters=2, informative=3, noise=3,
                        seed=0)
    sel = _identity_selection(ds.dims)
    rep = evaluate_selection(ds, sel, c=2, runs=1, seed=4)
    X = np.hstack([v.T for v in ds.views])
    labels = kmeans(X, 2, seed=4)
    assert rep.acc_mean == clustering_accuracy(labels, ds.labels)
    assert rep.nmi_mean == nmi(labels, ds.labels)
    assert rep.acc_runs == [rep.acc_mean]


def test_evaluate_selection_means_are_arithmetic():
    ds = make_synthetic(n=40, views=2, clusters=2, informative=3, noise=3,
                        seed=1)
    rep = evaluate_selection(ds, _identity_selection(ds.dims), c=2, runs=7,
                             seed=0)
    assert rep.acc_mean == pytest.approx(np.mean(rep.acc_runs), abs=1e-12)
    assert rep.nmi_mean == pytest.approx(np.mean(rep.nmi_runs), abs=1e-12)
    assert rep.runs == 7 and len(rep.acc_runs) == 7
    assert 0.0 <= rep.acc_mean <= 1.0 and 0.0 <= rep.nmi_mean <= 1.0


def test_evaluate_selection_requires_labels():
    ds = make_synthetic(n=20, views=1, clusters=2, informative=2, noise=2,
                        seed=2)
    ds = type(ds)(views=ds.views, labels=None, view_names=ds.view_names)
    with pytest.raises(ValueError):
        evaluate_selection(ds, _identity_selection(ds.dims), c=2, runs=1,
                           seed=0)


def test_evaluate_selection_requires_a_run():
    ds = make_synthetic(n=20, views=1, clusters=2, informative=2, noise=2,
                        seed=2)
    with pytest.raises(ValueError, match="runs=0"):
        evaluate_selection(ds, _identity_selection(ds.dims), c=2, runs=0)


def test_evaluate_selection_planted_informative_features():
    accs = []
    for seed in range(10):
        ds = make_synthetic(n=150, views=1, clusters=3, informative=5,
                            noise=45, seed=seed)
        sel = SelectionResult(scores=[np.ones(50)],
                              rankings=[np.arange(50)],
                              selected=[np.arange(5)], ratio=0.1)
        accs.append(evaluate_selection(ds, sel, c=3, runs=5,
                                       seed=seed).acc_mean)
    assert np.mean(accs) >= 0.9


def test_eval_report_serializes():
    rep = EvalReport(acc_mean=0.5, nmi_mean=0.25, acc_runs=[0.5],
                     nmi_runs=[0.25], runs=1, seed=0, feature_ratio=0.2)
    d = rep.to_dict()
    assert d["acc_mean"] == 0.5 and d["feature_ratio"] == 0.2


# -------------------------------------------------------------- diagnostics


def fitted(seed=0):
    ds = make_synthetic(n=40, views=2, clusters=2, informative=4, noise=4,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.3,
                                                      seed + 1))
    cfg = FitConfig(k=4, c=2, max_iter=40, tol=1e-6, seed=seed)
    state, trace = fit(masked, masks, cfg)
    return state, masks, cfg


def cross_view_matrix(masks):
    """`_cross_view` over every ordered pair of samples, as an (n, n)
    matrix."""
    a, b = np.indices((masks.masks[0].shape[1],) * 2)
    return _cross_view(masks, a, b)


def test_cross_view_pair_eligibility():
    # view 0: samples 0,1 missing; view 1: samples 1,2 missing; sample 3
    # complete. Pairs must span two different views of missingness.
    masks = MaskMatrix(masks=[
        np.array([[0.0, 0.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0]]),
        np.array([[1.0, 0.0, 0.0, 1.0]])])
    ok = cross_view_matrix(masks)
    assert not ok[0, 3] and not ok[3, 0]          # 3 has nothing missing
    assert ok[0, 1] and ok[1, 0]                  # 1 missing in both views
    assert ok[0, 2] and ok[2, 0]                  # different single views
    assert not ok[0, 0] and not ok[1, 1]
    # same single view on both sides: not a cross-view pair
    masks2 = MaskMatrix(masks=[
        np.array([[0.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
        np.array([[1.0, 1.0, 1.0]])])
    assert not cross_view_matrix(masks2)[0, 1]


def cross_view_pairs_loop(masks):
    """Pair-by-pair reference for `_cross_view`."""
    miss = np.stack([(m == 0.0).any(axis=0) for m in masks.masks])
    n = miss.shape[1]
    ok = np.zeros((n, n), dtype=bool)
    for i in range(n):
        vi = np.flatnonzero(miss[:, i])
        for j in range(n):
            vj = np.flatnonzero(miss[:, j])
            if j == i or vi.size == 0 or vj.size == 0:
                continue
            ok[i, j] = vi.size > 1 or vj.size > 1 or vi[0] != vj[0]
    return ok


def test_cross_view_pairs_match_pairwise_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for trial in range(40):
        V = 2 + trial % 2
        n = int(rng.integers(2, 30))
        masks = MaskMatrix(masks=[
            (rng.random((int(rng.integers(1, 4)), n))
             > rng.uniform(0.0, 0.6)).astype(float) for _ in range(V)])
        miss = np.stack([(m == 0.0).any(axis=0) for m in masks.masks])
        seen |= {(V, int(k)) for k in miss.sum(axis=0)}
        loop = cross_view_pairs_loop(masks)
        np.testing.assert_array_equal(cross_view_matrix(masks), loop)
        np.testing.assert_array_equal(oracle.cross_view_pairs(masks), loop)
    # complete, single-view-missing and all-views-missing samples occurred
    assert {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 3)} <= seen


def _diagnostics_case(draw):
    """A random state and masks for the graph sections of the diagnostics,
    with thresholds rho and zeta: n in 3-30, V = 2 or 3, valid (n, k)
    graphs (k distinct neighbours, never the column itself) whose weights
    include rho and zeta exactly, and masks that mix complete,
    single-view-missing and multi-view-missing samples."""
    n = draw(hst.integers(3, 30))
    V = draw(hst.sampled_from([2, 3]))
    k = draw(hst.integers(1, n - 1))
    c = draw(hst.integers(1, 3))
    rho, zeta = draw(hst.sampled_from([(0.1, 0.2), (0.25, 0.1),
                                       (0.2, 0.2)]))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    pool = np.array([rho, zeta, 0.05, 0.15, 0.3, 0.6])

    def graph():
        nbr = np.stack([np.sort(rng.permutation(np.delete(np.arange(n), j))
                                [:k]) for j in range(n)])
        w = rng.choice(pool, size=(n, k))
        w[0, 0], w[1, -1] = rho, zeta
        return nbr, w

    # per sample: complete, missing in one view, or in at least two
    kind = rng.permutation(np.arange(n) % 3)
    missing = np.zeros((V, n), dtype=bool)
    for i in np.flatnonzero(kind == 1):
        missing[rng.integers(V), i] = True
    for i in np.flatnonzero(kind == 2):
        missing[rng.choice(V, size=rng.integers(2, V + 1), replace=False),
                i] = True
    dims = rng.integers(1, 5, size=V)
    masks = []
    for v, d in enumerate(dims):
        m = np.ones((d, n))
        for i in np.flatnonzero(missing[v]):   # one entry or the whole view
            m[rng.integers(d) if rng.random() < 0.5 else slice(None), i] = 0.0
        masks.append(m)
    # consensus rows from a small pool, so that some repeat
    Fstar = rng.random((3, c))[rng.integers(3, size=n)]
    Fstar[rng.random(n) < 0.3] += rng.random((1, c))
    Xhat = [rng.normal(size=(d, n)) for d in dims]
    Xhat[0][:, rng.integers(n)] = 0.0   # a zero column keeps scale 1
    S = [graph() for _ in range(V)]
    H_nbr, H_w = graph()
    state = SimpleNamespace(
        Xhat=Xhat, W=[rng.normal(size=(d, c)) * 10.0 ** rng.uniform(-2, 0.5)
                      for d in dims],
        Fv=[0.1 * rng.normal(size=(n, c)) for _ in range(V)], Fstar=Fstar,
        S_nbr=[g[0] for g in S], S_w=[g[1] for g in S], H_nbr=H_nbr,
        H_w=H_w, n_views=V, n_samples=n)
    return state, MaskMatrix(masks=masks), rho, zeta


def assert_dense_sections(report, state, masks, rho, zetas):
    """Each section of `report` equals the dense oracle's, as JSON."""
    assert report.keys() == {"neighbor_consistency", "consensus_consistency"}
    assert json.dumps(report["neighbor_consistency"]) == \
        json.dumps(oracle.neighbor_consistency(state, masks, rho))
    assert json.dumps(report["consensus_consistency"]) == \
        json.dumps(oracle.consensus_consistency(state, masks, zetas))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hst.data())
def test_graph_diagnostics_match_the_dense_sections(data):
    state, masks, rho, zeta = _diagnostics_case(data.draw)
    zetas = (zeta, rho)
    report = diagnostics_report(state, masks, rho, zetas)
    assert_dense_sections(report, state, masks, rho, zetas)


def test_neighbor_consistency_matches_the_dense_section_at_n_600():
    # 600 samples imputed in view 0 and the 300 even ones in view 1; every
    # sample's neighbours lie 2, 256, 300 and 598 samples on, even
    # offsets, so that view 1's imputed samples have imputed neighbours,
    # and imputed data 10 times larger than its reconstruction gives
    # both views some violations and some pairs within the bound.
    rng = np.random.default_rng(12)
    n, c, rho, zetas = 600, 3, 0.1, (0.1, 0.2)
    masks = [np.ones((4, n)), np.ones((3, n))]
    masks[0][rng.integers(4, size=n), np.arange(n)] = 0.0
    masks[1][:, ::2] = 0.0
    masks = MaskMatrix(masks=masks)
    nbr = np.sort((np.arange(n)[:, None] + [2, 256, 300, 598]) % n, axis=1)
    pool = np.array([0.05, rho, 0.3, 0.6])
    state = SimpleNamespace(
        Xhat=[10.0 * rng.normal(size=(4, n)), 10.0 * rng.normal(size=(3, n))],
        W=[4.0 * np.eye(4, c), 4.0 * np.eye(3, c)],
        Fv=[1e-4 * rng.normal(size=(n, c)) for _ in range(2)],
        Fstar=rng.uniform(0.0, 2.0, size=(5, c))[rng.integers(5, size=n)],
        S_nbr=[nbr, nbr], S_w=[rng.choice(pool, size=(n, 4)) for _ in "SS"],
        H_nbr=nbr, H_w=rng.choice(pool, size=(n, 4)), n_views=2,
        n_samples=n)
    report = diagnostics_report(state, masks, rho, zetas)
    assert_dense_sections(report, state, masks, rho, zetas)
    for rec in report["neighbor_consistency"]:
        assert 0 < rec["violations"] < rec["pairs"]


def test_diagnostics_report_structure_and_bounds():
    state, masks, _ = fitted(0)
    rep = diagnostics_report(state, masks)
    assert rep.keys() == {"neighbor_consistency", "consensus_consistency"}
    for v, rec in enumerate(rep["neighbor_consistency"]):
        assert (rec["view"], rec["rho"]) == (v, 0.1)
        assert 0 <= rec["violations"] <= rec["pairs"]
        assert (rec["min_margin"] is None) == (rec["pairs"] == 0)
    cc = rep["consensus_consistency"]
    assert cc["subproblem_value"] >= 0.0
    for chk in cc["checks"]:
        assert chk["violations"] == 0
        assert chk["bound"] == pytest.approx(
            2.0 * cc["subproblem_value"] / chk["zeta"])


def test_diagnostics_build_no_m_by_m_array():
    # the whole imputed distance matrices peaked at 2.6 m x m arrays
    rng = np.random.default_rng(5)
    n, c, dims = 3000, 3, (4, 3)
    masks = [np.ones((d, n)) for d in dims]
    for m in masks:   # every sample imputed in both views
        m[rng.integers(m.shape[0], size=n), np.arange(n)] = 0.0
    nbr = np.sort((np.arange(n)[:, None] + [1, 2, 300, 2999]) % n, axis=1)
    state = SimpleNamespace(
        Xhat=[rng.normal(size=(d, n)) for d in dims],
        W=[rng.normal(size=(d, c)) for d in dims],
        Fv=[0.1 * rng.normal(size=(n, c)) for _ in dims],
        Fstar=rng.random((n, c)), S_nbr=[nbr, nbr],
        S_w=[np.full((n, 4), 0.25)] * 2, H_nbr=nbr, H_w=np.full((n, 4), 0.25),
        n_views=2, n_samples=n)
    masks = MaskMatrix(masks=masks)
    diagnostics_report(state, masks)   # imports outside the probe
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        report = diagnostics_report(state, masks)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    # every edge joins two imputed samples and has weight 0.25 >= rho
    assert [rec["pairs"] for rec in report["neighbor_consistency"]] \
        == [4 * n, 4 * n]
    assert peak < n * n * 8, round(peak / (n * n * 8), 2)


@pytest.fixture(scope="module")
def fitted_zero():
    return fitted(0)


@pytest.mark.parametrize("rho, zetas", [
    (0.0, (0.1,)), (-1.0, (0.1,)), (math.nan, (0.1,)), (0.1, (0.0,)),
    (0.1, (0.2, -0.5)), (0.1, (math.nan,))])
def test_diagnostics_report_rejects_thresholds_that_are_not_positive(
        fitted_zero, rho, zetas):
    state, masks, _ = fitted_zero
    with pytest.raises(ValueError, match="positive numbers"):
        diagnostics_report(state, masks, rho, zetas)
