"""Reduced-model behavior: the method table, frozen modules and trace
monotonicity."""

import numpy as np
import pytest

from climfs.baselines import METHODS, run_variant
from climfs.dataset import (MaskMatrix, MissingScenario, MultiViewDataset,
                            apply_missing, make_synthetic, mean_impute)
from climfs.model import Components, FitConfig, fit, validate_state


def instance(seed=0, n=24, delta=0.3):
    ds = make_synthetic(n=n, views=2, clusters=2, informative=3, noise=4,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", delta,
                                                      seed + 1))
    return masked, masks


CFG = dict(k=4, c=2, max_iter=12, tol=1e-12)


def test_variant_component_mapping():
    assert METHODS == {
        "climfs": Components(),
        "climfs-i": Components(adaptive_imputation=False),
        "climfs-ii": Components(cluster_structure=False),
        "climfs-iii": Components(graph_learning=False)}
    masked, masks = instance()
    with pytest.raises(KeyError):
        run_variant("climfs-iv", masked, masks, FitConfig(**CFG))


def test_variant_i_keeps_mean_imputation_frozen():
    masked, masks = instance(seed=2)
    cfg = FitConfig(**CFG)
    _, state, _ = run_variant("climfs-i", masked, masks, cfg)
    for view, mask, xh in zip(masked.views, masks.masks, state.Xhat):
        assert np.array_equal(xh, mean_impute(view, mask))


def test_variant_iii_has_zero_graph_terms_and_frozen_graphs():
    masked, masks = instance(seed=3)
    cfg = FitConfig(**CFG)
    _, state, trace = run_variant("climfs-iii", masked, masks, cfg)
    for row in trace.rows:
        assert row["smooth"] == 0.0
        assert row["cross_view"] == 0.0
        assert row["s_quad"] == 0.0
        assert row["fusion"] == 0.0
        # the consensus regularizer on F* stays active (frozen H)
    from climfs.model import init_state
    init = init_state(masked, masks, cfg, Components(graph_learning=False))
    for a, b in zip(state.S, init.S):
        assert np.array_equal(a, b)
    assert np.array_equal(state.H, init.H)
    assert np.array_equal(state.alpha, init.alpha)


def test_variant_ii_drops_consensus_regularizer():
    masked, masks = instance(seed=4)
    cfg = FitConfig(**CFG)
    _, _, trace = run_variant("climfs-ii", masked, masks, cfg)
    for row in trace.rows:
        assert row["fstar_smooth"] == 0.0


@pytest.mark.parametrize("kind", ["climfs-i", "climfs-ii", "climfs-iii"])
def test_every_variant_trace_monotone_and_constrained(kind):
    masked, masks = instance(seed=5)
    cfg = FitConfig(seed=5, **CFG)
    _, state, trace = run_variant(kind, masked, masks, cfg)
    obj = trace.objectives()
    assert (np.diff(obj) <= 1e-9 * np.maximum(1.0, np.abs(obj[:-1]))).all()
    checks = validate_state(state, masked, masks, cfg)
    assert checks["max_violation"] <= 1e-10
    assert checks["nnz_bad_columns"] == 0
    assert checks["observed_bitwise_equal"]


def test_variants_are_deterministic_and_distinct():
    masked, masks = instance(seed=6)
    cfg = FitConfig(seed=6, **CFG)
    traces = {}
    for kind in ("climfs-i", "climfs-ii", "climfs-iii"):
        _, _, t1 = run_variant(kind, masked, masks, cfg)
        _, _, t2 = run_variant(kind, masked, masks, cfg)
        assert np.array_equal(t1.objectives(), t2.objectives())
        traces[kind] = t1.objectives()
    _, full_trace = fit(masked, masks, cfg)
    traces["full"] = full_trace.objectives()
    kinds = list(traces)
    for i in range(len(kinds)):
        for j in range(i + 1, len(kinds)):
            assert not np.array_equal(traces[kinds[i]], traces[kinds[j]])


def test_two_stage_all_missing_feature_row_warns():
    # climfs-i is the impute-then-select (two-stage) baseline
    rng = np.random.default_rng(7)
    views = [rng.normal(size=(3, 10)), rng.normal(size=(2, 10))]
    labels = np.array([0, 1] * 5)
    ds = MultiViewDataset(views=views, labels=labels)
    masks = [np.ones((3, 10)), np.ones((2, 10))]
    masks[0][1, :] = 0.0    # feature 1 of view 0 observed nowhere
    masked_views = [np.where(m == 1.0, v, 0.0)
                    for v, m in zip(views, masks)]
    masked = MultiViewDataset(views=masked_views, labels=labels)
    mm = MaskMatrix(masks=masks)
    cfg = FitConfig(k=3, c=2, max_iter=3, tol=1e-12)
    with pytest.warns(UserWarning, match="fully missing"):
        sel, _, _ = run_variant("climfs-i", masked, mm, cfg)
    assert all(len(s) >= 1 for s in sel.selected)
