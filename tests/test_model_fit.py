"""End-to-end optimizer behavior: initialization contracts, monotone
convergence, determinism, checkpoint round-trips, and feature ranking."""

import copy
import dataclasses
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hst

from climfs import model, numkit
from climfs.baselines import METHODS
from climfs.dataset import (MaskMatrix, MissingScenario, MultiViewDataset,
                            apply_missing, make_synthetic)
from climfs.errors import ConfigError, NumericError
from climfs.evaluation import kmeans
from climfs.model import (EPS_DV, Components, FitConfig, ModelState,
                          _b_spec, _constrained_impute, _costs, _layout,
                          _spectral_partition, check_state, fit,
                          init_state, load_state, objective, rank_features,
                          save_state, update_alpha, update_Fstar, update_Fv,
                          update_H, update_S, update_W, update_Xhat,
                          validate_state)

# The state parts `validate_state` reads; each is written by one block.
CHECKED_PARTS = ("Fstar", "S", "H", "alpha", "Xhat")


def small_instance(seed=0, n=30, delta=0.3):
    ds = make_synthetic(n=n, views=2, clusters=2, informative=3, noise=4,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", delta,
                                                      seed + 1))
    return masked, masks


def state_arrays(st: ModelState) -> dict:
    """Every array of a ModelState by name, Adam moments included."""
    out = {}
    for f in dataclasses.fields(ModelState):
        val = getattr(st, f.name)
        if isinstance(val, list):
            out.update({f"{f.name}{v}": x for v, x in enumerate(val)})
        else:
            out[f.name] = np.asarray(val)   # the sweep count included
    return out


def assert_states_bitwise_equal(a: ModelState, b: ModelState) -> None:
    xa, xb = state_arrays(a), state_arrays(b)
    assert xa.keys() == xb.keys()
    for key in xa:
        assert xa[key].dtype == xb[key].dtype, key
        assert xa[key].shape == xb[key].shape, key
        assert xa[key].tobytes() == xb[key].tobytes(), key


def untimed(row: dict) -> dict:
    """A trace row without its wall-clock columns (seconds, t_*)."""
    return {k: v for k, v in row.items()
            if k != "seconds" and not k.startswith("t_")}


def spectral_partition_oracle(H, c, seed):
    """Full dense eigendecomposition of the normalized Laplacian."""
    A = (H + H.T) / 2.0
    dinv = 1.0 / np.sqrt(np.maximum(A.sum(axis=0), 1e-30))
    L = np.eye(H.shape[0]) - dinv[:, None] * A * dinv[None, :]
    emb = np.linalg.eigh(L)[1][:, :c]
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    return kmeans(emb / np.where(norms == 0.0, 1.0, norms), c, seed=seed)


# ---------------------------------------------------------------- init


def test_init_uniform_alpha_three_views():
    ds = make_synthetic(n=20, views=3, clusters=2, informative=2, noise=2,
                        seed=0)
    masked, masks = apply_missing(ds, MissingScenario("view", 0.2, 1))
    st = init_state(masked, masks, FitConfig(k=3, c=2))
    assert np.array_equal(st.alpha, np.full(3, 1.0 / 3.0))


def test_init_fully_observed_keeps_data_exactly():
    ds = make_synthetic(n=15, views=2, clusters=2, informative=2, noise=2,
                        seed=1)
    masks = MaskMatrix(masks=[np.ones_like(v) for v in ds.views])
    st = init_state(ds, masks, FitConfig(k=3, c=2))
    for xh, xv in zip(st.Xhat, ds.views):
        assert np.array_equal(xh, xv)


def test_init_fstar_one_hot_matches_partition_sizes():
    masked, masks = small_instance(seed=2)
    cfg = FitConfig(k=4, c=2, seed=7)
    st = init_state(masked, masks, cfg)
    assert set(np.unique(st.Fstar)) <= {0.0, 1.0}
    assert np.array_equal(st.Fstar.sum(axis=1), np.ones(30))
    labels = _spectral_partition(st.H_nbr, st.H_w, cfg.c, cfg.seed)
    assert np.array_equal(st.Fstar.sum(axis=0),
                          np.bincount(labels, minlength=cfg.c))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_partition_matches_full_eigh_oracle(seed):
    ds = make_synthetic(n=40, views=2, clusters=3, informative=3, noise=3,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.3, seed))
    st = init_state(masked, masks, FitConfig(k=5, c=3))
    for c in (1, 3, st.n_samples):
        assert np.array_equal(_spectral_partition(st.H_nbr, st.H_w, c, seed),
                              spectral_partition_oracle(st.H, c, seed)), c


def test_spectral_partition_rejects_nonfinite_graph():
    masked, masks = small_instance(seed=3)
    st = init_state(masked, masks, FitConfig(k=4, c=2))
    st.H_w[0, 2] = np.nan
    with pytest.raises(NumericError, match="non-finite consensus graph"):
        _spectral_partition(st.H_nbr, st.H_w, 2, 0)


@pytest.mark.parametrize("n", [40, numkit.COLUMN_BLOCK + 44])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spectral_partition_matches_the_oracle_on_both_solvers(n, seed):
    # c < n - 1 runs the Lanczos solve on the sparse form, c >= n - 1 the
    # dense eigensolve
    ds = make_synthetic(n=n, views=2, clusters=3, informative=3, noise=3,
                        seed=seed)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.3, seed))
    st = init_state(masked, masks, FitConfig(k=5, c=3))
    for c in (1, 3, n // 2, n - 2, n - 1, n):
        assert np.array_equal(_spectral_partition(st.H_nbr, st.H_w, c, seed),
                              spectral_partition_oracle(st.H, c, seed)), c


@pytest.mark.parametrize("n", [6, 12, 30, 200])
def test_spectral_partition_repeats_bytewise_on_a_ring(n):
    # every degree is equal, so the ones vector is an exact eigenvector
    # and the second eigenvalue is double: the partition is repeatable
    # only if the Lanczos start vector is fixed, whatever ARPACK's own
    # random state did in between
    from scipy.sparse.linalg import eigsh
    nbr = np.sort(np.stack([np.arange(n) - 1, np.arange(n) + 1], axis=1) % n,
                  axis=1)
    w = np.full((n, 2), 0.5)
    first = _spectral_partition(nbr, w, 3, 0)
    rng = np.random.default_rng(1)
    B = rng.normal(size=(20, 20))
    eigsh(B + B.T, k=2)
    assert _spectral_partition(nbr, w, 3, 0).tobytes() == first.tobytes()


def test_spectral_partition_maps_an_eigensolver_failure_to_numeric_error(
        monkeypatch):
    import scipy.sparse.linalg
    masked, masks = small_instance(seed=3)
    st = init_state(masked, masks, FitConfig(k=4, c=2))

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence",
                                                      np.empty(0),
                                                      np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    with pytest.raises(NumericError, match="spectral initialization failed"):
        _spectral_partition(st.H_nbr, st.H_w, 2, 0)


def test_spectral_partition_builds_no_dense_array():
    # the dense Laplacian and its eigensolve peaked at 1.15 n x n arrays
    n = 300
    ds = make_synthetic(n=n, views=2, clusters=3, informative=4, noise=6,
                        seed=0)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.5, 1))
    st = init_state(masked, masks, FitConfig(k=6, c=3))
    _spectral_partition(st.H_nbr, st.H_w, 3, 0)  # imports outside the probe
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        _spectral_partition(st.H_nbr, st.H_w, 3, 0)
        peak = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * n * n * 8, round(peak / (n * n * 8), 2)


def test_init_graph_columns_and_factors():
    masked, masks = small_instance(seed=3)
    cfg = FitConfig(k=4, c=2)
    st = init_state(masked, masks, cfg)
    checks = validate_state(st, masked, masks, cfg)
    assert checks["max_violation"] <= 1e-10
    assert checks["nnz_bad_columns"] == 0
    assert checks["observed_bitwise_equal"]
    for F in st.Fv:
        assert not F.any()


def test_init_is_deterministic():
    masked, masks = small_instance(seed=4)
    cfg = FitConfig(k=4, c=2, seed=11)
    a = init_state(masked, masks, cfg)
    b = init_state(masked, masks, cfg)
    assert np.array_equal(a.Fstar, b.Fstar)
    assert np.array_equal(a.H, b.H)
    for x, y in zip(a.S, b.S):
        assert np.array_equal(x, y)


def test_init_rejects_oversized_k():
    masked, masks = small_instance(seed=5, n=10)
    with pytest.raises(ConfigError):
        init_state(masked, masks, FitConfig(k=9, c=2))


def _constant_feature_rows():
    ds = make_synthetic(n=30, views=2, clusters=3, informative=3, noise=4,
                        seed=21)
    flat = np.repeat(np.arange(ds.dims[0], dtype=float)[:, None], 30, axis=1)
    ds = MultiViewDataset(views=[flat, ds.views[1]], labels=ds.labels)
    return ds, MaskMatrix.all_observed(ds), FitConfig(k=4, c=3)


def _k_is_n_minus_2():
    masked, masks = small_instance(seed=21)
    return masked, masks, FitConfig(k=28, c=2)


def _c_is_n():
    masked, masks = small_instance(seed=21)
    return masked, masks, FitConfig(k=4, c=30)


def _c_is_n_minus_1():
    # the least c the initialization solves by a dense eigensolve
    masked, masks = small_instance(seed=21)
    return masked, masks, FitConfig(k=4, c=29)


def _view_on_k_plus_1_samples():
    # every other sample misses view 0 whole: its mean-imputed columns tie
    ds = make_synthetic(n=30, views=2, clusters=3, informative=3, noise=4,
                        seed=21)
    m0 = np.zeros_like(ds.views[0])
    m0[:, :5] = 1.0
    masks = MaskMatrix(masks=[m0, np.ones_like(ds.views[1])])
    views = [np.where(m0 == 1.0, ds.views[0], 0.0), ds.views[1]]
    return (MultiViewDataset(views=views, labels=ds.labels), masks,
            FitConfig(k=4, c=3))


@pytest.mark.parametrize("make", [_constant_feature_rows, _k_is_n_minus_2,
                                  _c_is_n, _c_is_n_minus_1,
                                  _view_on_k_plus_1_samples],
                         ids=lambda f: f.__name__.strip("_"))
def test_degenerate_inputs_fit_cleanly(make):
    # Each of these could also legitimately end in a named ConfigError or
    # NumericError; today every one fits with a clean trace.
    ds, masks, cfg = make()
    cfg.max_iter, cfg.tol = 10, 1e-12
    state, trace = fit(ds, masks, cfg)
    obj = trace.objectives()
    assert trace.iterations == 10
    assert (np.diff(obj) <= 1e-9 * np.maximum(1.0, np.abs(obj[:-1]))).all()
    for row in trace.rows:
        assert row["max_violation"] <= 1e-10
        assert row["nnz_bad_columns"] == 0
    assert validate_state(state, ds, masks, cfg)["observed_bitwise_equal"]


# ----------------------------------------------------------------- fit


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fit_objective_monotone(seed):
    masked, masks = small_instance(seed=seed)
    cfg = FitConfig(k=4, c=2, max_iter=30, tol=1e-12, seed=seed)
    _, trace = fit(masked, masks, cfg)
    obj = trace.objectives()
    assert (np.diff(obj) <= 1e-9 * np.maximum(1.0, np.abs(obj[:-1]))).all()


def test_fit_infinite_tol_runs_one_iteration():
    masked, masks = small_instance(seed=6)
    cfg = FitConfig(k=4, c=2, tol=np.inf)
    _, trace = fit(masked, masks, cfg)
    assert trace.iterations == 1
    assert trace.converged
    assert len(trace.rows) == 1


def test_fit_fully_observed_data_is_never_touched():
    ds = make_synthetic(n=20, views=2, clusters=2, informative=3, noise=3,
                        seed=7)
    masks = MaskMatrix(masks=[np.ones_like(v) for v in ds.views])
    cfg = FitConfig(k=3, c=2, max_iter=5, tol=1e-12)
    state, _ = fit(ds, masks, cfg)   # fit validates after every step
    for xh, xv in zip(state.Xhat, ds.views):
        assert np.array_equal(xh, xv)


def test_fit_is_deterministic():
    masked, masks = small_instance(seed=8)
    cfg = FitConfig(k=4, c=2, max_iter=12, tol=1e-12, seed=3)
    s1, t1 = fit(masked, masks, cfg)
    s2, t2 = fit(masked, masks, cfg)
    assert np.array_equal(t1.objectives(), t2.objectives())
    # every trace column but the timings, bit for bit
    assert repr([untimed(r) for r in t1.rows]) \
        == repr([untimed(r) for r in t2.rows])
    assert np.array_equal(s1.Fstar, s2.Fstar)
    for a, b in zip(s1.Xhat, s2.Xhat):
        assert np.array_equal(a, b)


def test_fit_constraints_hold_throughout():
    masked, masks = small_instance(seed=9)
    cfg = FitConfig(k=4, c=2, max_iter=10, tol=1e-12)
    _, trace = fit(masked, masks, cfg)
    assert max(r["max_violation"] for r in trace.rows) <= 1e-10
    assert max(r["nnz_bad_columns"] for r in trace.rows) == 0


def test_trace_csv_and_breakdown(tmp_path):
    masked, masks = small_instance(seed=10)
    cfg = FitConfig(k=4, c=2, max_iter=4, tol=1e-12)
    _, trace = fit(masked, masks, cfg)
    term_keys = ["recon", "w_l21", "fv_l1", "smooth", "cross_view",
                 "s_quad", "fusion", "fstar_smooth", "orth_penalty"]
    for row in trace.rows:
        assert abs(row["objective"] - sum(row[k] for k in term_keys)) \
            <= 1e-12 * max(1.0, abs(row["objective"]))
    out = tmp_path / "trace.csv"
    trace.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert len(lines) == len(trace.rows) + 1
    assert lines[0].split(",")[0] == "iter"


@pytest.mark.parametrize("comps", [Components(),
                                   Components(graph_learning=False)],
                         ids=["full", "no_graphs"])
def test_trace_rows_time_every_block(comps):
    masked, masks = small_instance(seed=10)
    cfg = FitConfig(k=4, c=2, max_iter=4, tol=1e-12)
    _, trace = fit(masked, masks, cfg, comps)
    graphs = ("S", "H", "alpha")
    for row in trace.rows:
        times = {k: row[k] for k in row if k.startswith("t_")}
        assert list(times) == [f"t_{b}" for b in (
            "W", "Fv", "Fstar", "S", "H", "alpha", "Xhat", "check")]
        for key, t in times.items():   # blocks that do not run read 0
            assert (t > 0.0) == (comps.graph_learning
                                 or key[2:] not in graphs), key
        assert abs(sum(times.values()) - row["seconds"]) \
            <= 0.05 * row["seconds"]
        solved = comps.graph_learning * masked.n_samples
        assert (row["s_columns"], row["h_columns"]) == (2 * solved, solved)


# ------------------------------------------------------------ checkpoints


def test_checkpoint_roundtrip_and_resume_equivalence(tmp_path):
    masked, masks = small_instance(seed=11)
    base = dict(k=4, c=2, tol=1e-12, seed=5)

    state_a, trace_a = fit(masked, masks, FitConfig(max_iter=15, **base))

    cfg10 = FitConfig(max_iter=10, **base)
    state_b, _ = fit(masked, masks, cfg10)
    ckpt = save_state(state_b, cfg10, Components(), tmp_path / "ck")
    loaded, cfg_l, comp_l = load_state(ckpt)

    assert cfg_l == cfg10 and comp_l == Components()
    assert sorted(p.name for p in ckpt.iterdir()) == ["header.json",
                                                       "state.npz"]
    assert_states_bitwise_equal(state_b, loaded)

    cfg5 = FitConfig(max_iter=5, **base)
    _, trace_c = fit(masked, masks, cfg5, state=loaded)

    straight = trace_a.objectives()
    resumed = trace_c.objectives()
    assert np.array_equal(straight[10:], resumed)
    # the resumed rows continue the numbering of the run they resume
    assert [r["iter"] for r in trace_a.rows[10:]] == \
        [r["iter"] for r in trace_c.rows] == list(range(11, 16))
    assert trace_c.iterations == 5 and loaded.sweeps == 15


def test_checkpoint_with_an_adam_lr_header_resumes_bitwise(tmp_path):
    # checkpoints used to store each view's Adam step size, always
    # FV_ADAM_LR, and step count, always FV_INNER_STEPS times the sweeps;
    # the header no longer has either and older ones still resume, the
    # stored count ignored even when it is wrong
    masked, masks = small_instance(seed=12)
    base = dict(k=4, c=2, tol=1e-12, seed=6)
    straight, trace_a = fit(masked, masks, FitConfig(max_iter=9, **base))
    cfg = FitConfig(max_iter=5, **base)
    ckpt = save_state(fit(masked, masks, cfg)[0], cfg, Components(),
                      tmp_path / "ck")
    header = json.loads((ckpt / "header.json").read_text())
    assert "adam_lr" not in header and "adam_t" not in header
    header["adam_lr"] = [0.01, 0.01]
    header["adam_t"] = [0, 7]
    (ckpt / "header.json").write_text(json.dumps(header))
    loaded, cfg_l, comp_l = load_state(ckpt)
    resumed, trace_b = fit(masked, masks,
                           dataclasses.replace(cfg_l, max_iter=4), comp_l,
                           state=loaded)
    assert_states_bitwise_equal(straight, resumed)
    assert np.array_equal(trace_a.objectives()[5:], trace_b.objectives())


def test_checkpoint_with_drow_arrays_and_n_views_resumes_bitwise(tmp_path):
    # checkpoints used to store the l2,1 diagonals D^v, a function of W,
    # as Drow_<v> arrays and the view count in the header; both are
    # ignored on load
    masked, masks = small_instance(seed=12)
    base = dict(k=4, c=2, tol=1e-12, seed=6)
    straight, trace_a = fit(masked, masks, FitConfig(max_iter=9, **base))
    cfg = FitConfig(max_iter=5, **base)
    state = fit(masked, masks, cfg)[0]
    ckpt = save_state(state, cfg, Components(), tmp_path / "ck")
    header = json.loads((ckpt / "header.json").read_text())
    assert "n_views" not in header
    header["n_views"] = state.n_views
    (ckpt / "header.json").write_text(json.dumps(header))
    with np.load(ckpt / "state.npz") as npz:
        arrays = dict(npz)
    assert not any(name.startswith("Drow") for name in arrays)
    for v, W in enumerate(state.W):
        arrays[f"Drow_{v}"] = 1.0 / (2.0 * np.sqrt(
            np.einsum("ij,ij->i", W, W) + EPS_DV))
    np.savez(ckpt / "state.npz", **arrays)
    loaded, cfg_l, comp_l = load_state(ckpt)
    resumed, trace_b = fit(masked, masks,
                           dataclasses.replace(cfg_l, max_iter=4), comp_l,
                           state=loaded)
    assert_states_bitwise_equal(straight, resumed)
    assert np.array_equal(trace_a.objectives()[5:], trace_b.objectives())


def test_checkpoint_roundtrip_is_bitwise_for_any_graph(tmp_path):
    # graphs are stored as their neighbour arrays; storing may not rely on
    # a valid graph or lose a NaN or the sign of a zero, while loading
    # rejects a broken graph (`check_state`)
    masked, masks = small_instance(seed=11)
    cfg = FitConfig(k=4, c=2)
    st = init_state(masked, masks, cfg)
    st.Fstar[0, 1] = np.nan
    st.Fv[1][3] = -0.0
    loaded, _, _ = load_state(save_state(st, cfg, Components(),
                                         tmp_path / "ok"))
    assert_states_bitwise_equal(st, loaded)
    assert np.isnan(loaded.Fstar[0, 1]) and np.signbit(loaded.Fv[1][3]).all()
    st.S_w[0][0, 1] = np.nan
    st.S_w[1][3] = -0.0
    st.H_nbr[5, 2] = st.H_nbr[5, 0]
    st.H_w[5] = [-0.0, 0.5, 0.25, 0.25]
    # S[0] column 0 has a NaN weight, S[1] column 3 no nonzero weight, H
    # column 5 a repeated neighbour and a zero weight
    assert validate_state(st, masked, masks, cfg)["nnz_bad_columns"] == 3
    ckpt = save_state(st, cfg, Components(), tmp_path / "ck")
    with np.load(ckpt / "state.npz") as npz:
        stored = dict(npz)
    for name, (_, a, _) in _layout(st, st.n_samples, masked.dims,
                                   cfg).items():
        assert stored[name].dtype == a.dtype, name
        assert stored[name].tobytes() == a.tobytes(), name
    with pytest.raises(ConfigError, match="H_nbr/H_w holds a column"):
        load_state(ckpt)   # the first graph of `_layout` to fail


@pytest.mark.parametrize("name, at, value, graph", [
    ("S_nbr_0", (3, 1), lambda a: a[3, 0], "S_nbr_0/S_w_0"),
    ("H_nbr", (5, 0), lambda a: 5, "H_nbr/H_w"),
    ("S_w_1", (2, 0), lambda a: 0.0, "S_nbr_1/S_w_1"),
    ("H_w", (4, 2), lambda a: -0.25, "H_nbr/H_w"),
    ("S_w_0", (0, 0), lambda a: np.inf, "S_nbr_0/S_w_0"),
], ids=["repeated_neighbour", "self_loop", "zero_weight", "negative_weight",
        "infinite_weight"])
def test_a_checkpoint_with_a_broken_graph_column_is_a_config_error(
        tmp_path, name, at, value, graph):
    masked, masks = small_instance(seed=19)
    cfg = FitConfig(k=4, c=3, max_iter=2, tol=1e-15)
    st, _ = fit(masked, masks, cfg)
    ckpt = save_state(st, cfg, Components(), tmp_path / "ck")
    with np.load(ckpt / "state.npz") as npz:
        arrays = dict(npz)
    arrays[name][at] = value(arrays[name])
    np.savez(ckpt / "state.npz", **arrays)
    with pytest.raises(ConfigError, match=f"{graph} holds a column not of 4 "
                                          f"distinct integer neighbours"):
        load_state(ckpt)


def test_unreadable_or_missing_checkpoint_is_a_config_error(tmp_path):
    masked, masks = small_instance(seed=11)
    cfg = FitConfig(k=4, c=2)
    ckpt = save_state(init_state(masked, masks, cfg), cfg, Components(),
                      tmp_path / "ck")
    npz = ckpt / "state.npz"
    npz.write_bytes(npz.read_bytes()[:1000])   # e.g. a disk that filled up
    with pytest.raises(ConfigError, match="cannot read checkpoint"):
        load_state(ckpt)
    (ckpt / "header.json").unlink()
    with pytest.raises(ConfigError, match="run 'fit' first"):
        load_state(ckpt)


def test_resume_from_nonfinite_checkpoint_raises_numeric_error(tmp_path):
    masked, masks = small_instance(seed=11)
    cfg = FitConfig(k=4, c=2, max_iter=2, tol=1e-12)
    state, _ = fit(masked, masks, cfg)
    state.W[0][0, 0] = np.nan
    loaded, cfg_l, comp_l = load_state(
        save_state(state, cfg, Components(), tmp_path / "ck"))
    assert np.isnan(loaded.W[0][0, 0])
    with pytest.raises(NumericError, match="non-finite objective"):
        fit(masked, masks, cfg_l, comp_l, state=loaded)


def run_fresh_python(code: str, **env_vars: str) -> None:
    """Run `code` in a fresh interpreter that imports this tree's climfs,
    with the environment variables `env_vars` set."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]), **env_vars)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)


def test_fits_under_one_and_two_blas_threads_are_bitwise_equal(tmp_path):
    # OpenBLAS reads its thread count when it loads, so each count gets a
    # fresh interpreter. The instance is converge-n400's first: two threads
    # split its distance products. Not every shape is equal across thread
    # counts: with scipy-openblas 0.3.31 on an x86-64 box, the 256 x 52 by
    # 52 x 300 product of augmented factors (n=300) rounds differently
    # under two threads, so a fit at n=300 or n=150 is not, while n=400
    # and n=1000 are. The fitted state is then scored by 50 k-means runs,
    # whose products also go through BLAS
    code = (
        "import json, pathlib\n"
        "from climfs.dataset import MissingScenario, MultiViewDataset, "
        "apply_missing, make_synthetic\n"
        "from climfs.evaluation import evaluate_selection\n"
        "from climfs.model import Components, FitConfig, fit, "
        "rank_features, save_state\n"
        "out = pathlib.Path(OUT)\n"
        "ds = make_synthetic(n=400, views=2, clusters=3, informative=10, "
        "noise=40, separation=3.0, noise_scale=0.6, seed=0)\n"
        "cfg = FitConfig(k=6, c=3, max_iter=3, tol=1e-12)\n"
        "state, _ = fit(*apply_missing(ds, MissingScenario('mixed', 0.5, 0)),"
        " cfg)\n"
        "save_state(state, cfg, Components(), out)\n"
        "rep = evaluate_selection(MultiViewDataset(views=state.Xhat, "
        "labels=ds.labels), rank_features(state, 0.2), c=3, runs=50)\n"
        "(out / 'scores.json').write_text(json.dumps([rep.acc_runs, "
        "rep.nmi_runs]))\n")
    arrays, scores = [], []
    for threads in ("1", "2"):
        run_fresh_python(code.replace("OUT", repr(str(tmp_path / threads))),
                         OPENBLAS_NUM_THREADS=threads)
        with np.load(tmp_path / threads / "state.npz") as npz:
            arrays.append(dict(npz))
        scores.append(json.loads((tmp_path / threads
                                  / "scores.json").read_text()))
    one, two = arrays
    assert list(one) == list(two) and len(one) > 0
    for name in one:
        assert one[name].tobytes() == two[name].tobytes(), name
    assert len(scores[0][0]) == 50
    assert scores[0] == scores[1]


@pytest.mark.parametrize("n, change, nbr, field", [
    (30, {"k": 5}, None, "H_nbr"), (30, {"k": 3}, None, "H_nbr"),
    (30, {"c": 2}, None, "Fstar"), (31, {}, None, "samples"),
    (30, {}, -1, "H_nbr"), (30, {}, 30, "H_nbr"), (30, {}, 6, "H_nbr")],
    ids=["k_up", "k_down", "c_down", "n_up", "negative_neighbour",
         "neighbour_n", "self_loop"])
def test_resuming_a_state_that_does_not_fit_is_a_config_error(n, change, nbr,
                                                              field):
    cfg = FitConfig(k=4, c=3, max_iter=2, tol=1e-15)
    st, _ = fit(*small_instance(seed=19), cfg)
    if nbr is not None:
        st.H_nbr[6, 0] = nbr
    masked, masks = small_instance(seed=19, n=n)
    with pytest.raises(ConfigError, match=field):
        fit(masked, masks, dataclasses.replace(cfg, **change), state=st)


def test_a_state_with_another_view_count_is_a_config_error():
    masked, masks = small_instance(seed=19)
    cfg = FitConfig(k=4, c=3)
    st = init_state(masked, masks, cfg)
    with pytest.raises(ConfigError, match="Xhat holds 2 views, the dataset 1"):
        check_state(st, masked.n_samples, masked.dims[:1], cfg)


def _resume_case(draw):
    """A small instance, settings and method for the resume property: n in
    6-40, 1-3 views of 1-6 features holding Gaussian, integer,
    duplicated-sample or constant-feature data, any scenario kind, k <=
    n - 2 and c <= min(6, n); view removal only with two views or more."""
    n = draw(hst.integers(6, 40))
    dims = draw(hst.lists(hst.integers(1, 6), min_size=1, max_size=3))
    data = draw(hst.sampled_from(["gaussian", "integer", "duplicated",
                                  "constant"]))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    views = []
    for d in dims:
        X = rng.integers(0, 3, size=(d, n)).astype(float) \
            if data == "integer" else rng.normal(size=(d, n))
        if data == "duplicated":
            X[:, n // 2:] = X[:, :n - n // 2]
        if data == "constant":
            X[0] = 1.5
        views.append(X)
    kinds = ["variable"] + (["view", "mixed"] if len(dims) > 1 else [])
    scenario = MissingScenario(draw(hst.sampled_from(kinds)),
                               draw(hst.floats(0.1, 0.7)),
                               draw(hst.integers(0, 1000)))
    cfg = FitConfig(k=draw(hst.integers(1, n - 2)),
                    c=draw(hst.integers(1, min(6, n))), tol=1e-12,
                    seed=draw(hst.integers(0, 1000)))
    return (MultiViewDataset(views=views), scenario, cfg,
            draw(hst.sampled_from(sorted(METHODS))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(hst.data())
def test_a_resumed_fit_matches_the_unbroken_one(tmp_path_factory, data):
    ds, scenario, cfg, method = _resume_case(data.draw)
    try:
        masked, masks = apply_missing(ds, scenario)
    except ValueError:
        assume(False)  # a draw that apply_missing rejects
    comps = METHODS[method]
    with warnings.catch_warnings():  # a feature row may lose every entry
        warnings.simplefilter("ignore")
        unbroken, trace_a = fit(masked, masks,
                                dataclasses.replace(cfg, max_iter=4), comps)
        half = dataclasses.replace(cfg, max_iter=2)
        resumed, trace_b = fit(masked, masks, half, comps)
        rows = trace_b.rows
        if not trace_b.converged:  # else the unbroken run stopped there too
            ckpt = save_state(resumed, half, comps,
                              tmp_path_factory.mktemp("ck"))
            loaded, cfg_l, comps_l = load_state(ckpt)
            resumed, trace_c = fit(masked, masks, cfg_l, comps_l,
                                   state=loaded)
            rows = rows + trace_c.rows
    assert [untimed(r) for r in trace_a.rows] == [untimed(r) for r in rows]
    assert_states_bitwise_equal(unbroken, resumed)  # sweeps included
    # the checkpoint names are the array fields, with _<v> per view
    layout = _layout(unbroken, masked.n_samples, masked.dims, cfg)
    assert {re.sub(r"_\d+$", "", name) for name in layout} == {
        f.name for f in dataclasses.fields(ModelState) if f.name != "sweeps"}


def test_fit_takes_the_graph_inner_products_once_per_sweep(monkeypatch):
    # V = 2: three pairs of view graphs and two of (H, S^v) per pass, on
    # the start state and once per sweep (update_alpha's pass also
    # prices the end-of-sweep objective; no block after it writes a graph)
    masked, masks = small_instance(seed=20)
    calls = []
    real = numkit.graph_inner
    monkeypatch.setattr(numkit, "graph_inner",
                        lambda *args: calls.append(1) or real(*args))
    _, trace = fit(masked, masks, FitConfig(k=4, c=2, max_iter=3, tol=1e-15))
    assert trace.iterations == 3
    assert len(calls) == 5 + 5 * 3


def test_fit_does_not_import_scipy_optimize():
    # k-means is used by the spectral initialization; the assignment
    # solver of clustering_accuracy must stay out of a fit
    run_fresh_python(
        "import sys\n"
        "from climfs.dataset import MaskMatrix, make_synthetic\n"
        "from climfs.model import FitConfig, fit\n"
        "ds = make_synthetic(n=30, views=2, clusters=3, informative=3,"
        " noise=3, seed=0)\n"
        "fit(ds, MaskMatrix.all_observed(ds), FitConfig(k=4, c=3,"
        " max_iter=1))\n"
        "assert 'scipy.optimize' not in sys.modules\n")


def test_model_import_leaves_scipy_sparse_out():
    # climfs.cli imports climfs.model; no scipy module is loaded: each is
    # imported where a fit or a score first needs it, so the commands that
    # never fit (simulate, diagnose, --help) skip its start-up time
    run_fresh_python("import sys\n"
                     "import climfs.cli\n"
                     "loaded = [m for m in sys.modules\n"
                     "          if m == 'scipy' or m.startswith('scipy.')]\n"
                     "assert not loaded, loaded\n")


# Traced (tracemalloc) peak, in n x n float64 arrays, of init_state above
# the state it returns and of each block of a sweep above the live heap,
# at n=300. At this n one 256-column block of the graph kernel is 0.85 of
# an n x n array, so update_S and update_H carry about two arrays of
# kernel temporaries besides their one cost matrix. Before the graph terms
# became reductions the same probe read init_state 6.0, update_Fstar 1.2,
# update_H 4.0, update_alpha 1.0, update_Xhat 3.1 and objective 3.1; while
# the imputation system was a dense I + L, update_Xhat read 1.22.
WORKING_SET_BOUNDS = {"init_state": 3.5, "update_W": 0.5, "update_Fv": 0.5,
                      "update_Fstar": 0.5, "update_S": 3.5, "update_H": 3.5,
                      "update_alpha": 0.5, "update_Xhat": 0.75,
                      "objective": 0.5}


def test_working_set_stays_within_its_bounds():
    n = 300
    ds = make_synthetic(n=n, views=2, clusters=3, informative=4, noise=6,
                        seed=0)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.5, 1))
    cfg = FitConfig(k=6, c=3)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        st = init_state(masked, masks, cfg)
        live, peak = tracemalloc.get_traced_memory()
        peaks = {"init_state": peak - live}   # the state is not working set
        for name, block in {
                "update_W": lambda: update_W(st, cfg),
                "update_Fv": lambda: update_Fv(st, cfg),
                "update_Fstar": lambda: update_Fstar(st, cfg),
                "update_S": lambda: update_S(st, cfg),
                "update_H": lambda: update_H(st, cfg),
                "update_alpha": lambda: update_alpha(st, cfg),
                "update_Xhat": lambda: update_Xhat(st, masked, masks),
                "objective": lambda: objective(st, cfg)}.items():
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            block()
            peaks[name] = tracemalloc.get_traced_memory()[1] - live
    finally:
        tracemalloc.stop()
    over = {k: round(v / (n * n * 8), 2) for k, v in peaks.items()
            if v > WORKING_SET_BOUNDS[k] * n * n * 8}
    assert not over, over


def _update_xhat_peaks(n: int) -> list[float]:
    """Traced peaks of update_Xhat above the live heap, in bytes, on the
    fast path and then on the fallback, which the
    constrained minimizer as the current iterate forces."""
    ds = make_synthetic(n=n, views=2, clusters=3, informative=4, noise=6,
                        seed=0)
    masked, masks = apply_missing(ds, MissingScenario("mixed", 0.5, 0))
    st = init_state(masked, masks, FitConfig(k=6, c=3))
    update_Xhat(st, masked, masks)   # imports outside the probe
    peaks = []
    for fallbacks in (0, st.n_views):
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            assert update_Xhat(st, masked, masks)["xhat_fallbacks"] \
                == fallbacks
            peaks.append(tracemalloc.get_traced_memory()[1] - live)
        finally:
            tracemalloc.stop()
        for v in range(st.n_views):
            M = st.W[v] @ (st.Fv[v] + st.Fstar).T
            K = numkit.identity_plus_laplacian(st.S_nbr[v], st.S_w[v])
            st.Xhat[v] = _constrained_impute(M, K, masks.masks[v] == 1.0,
                                             masked.views[v], st.Xhat[v])[0]
    return peaks


def test_update_xhat_builds_no_n_by_n_array():
    # the dense I + L of the imputation system alone was one n x n array
    n = 2000
    peaks = _update_xhat_peaks(n)
    assert max(peaks) < 0.1 * n * n * 8, [round(p / (n * n * 8), 3)
                                          for p in peaks]


def test_update_xhat_holds_one_n_by_n_array_up_to_column_block():
    # the dense I + L is factored in place and built again for the guard
    # and the fallback, so one n x n array is held at a time; the rest is
    # O(n k) entry lists and (d, n) iterates, which read 1.35 (fast path)
    # and 1.43 (fallback) in all with d=10
    n = numkit.COLUMN_BLOCK
    peaks = _update_xhat_peaks(n)
    assert max(peaks) < 1.5 * n * n * 8, [round(p / (n * n * 8), 3)
                                           for p in peaks]


def test_unconverged_imputation_solve_raises_numeric_error(monkeypatch):
    # above COLUMN_BLOCK, where the fast path is a conjugate gradient solve
    masked, masks = small_instance(seed=4, n=numkit.COLUMN_BLOCK + 1)
    monkeypatch.setattr(numkit, "CG_MAXITER", 1)
    with pytest.raises(NumericError, match="conjugate gradients"):
        fit(masked, masks, FitConfig(k=4, c=2, max_iter=2))


# ---------------------------------------------------------- rank_features


def _state_with_W(W_list):
    masked, masks = small_instance(seed=12)
    st = init_state(masked, masks, FitConfig(k=4, c=2))
    st.W = [np.asarray(w, dtype=float) for w in W_list]
    return st


def test_rank_features_hand_case():
    st = _state_with_W([np.diag([3.0, 1.0, 2.0])[:, :2],
                        np.ones((7, 2))])
    st.W[0] = np.array([[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # view 1 ties are filtered below
        warnings.filterwarnings("ignore", message=".*scores tie.*")
        sel = rank_features(st, 2.0 / 3.0)
    assert sel.rankings[0].tolist() == [0, 2, 1]
    assert sel.selected[0].tolist() == [0, 2]


def test_rank_features_full_ratio_keeps_everything():
    st = _state_with_W([np.random.default_rng(0).normal(size=(5, 2)),
                        np.random.default_rng(1).normal(size=(7, 2))])
    sel = rank_features(st, 1.0)
    assert sel.selected[0].tolist() == list(range(5))
    assert sel.selected[1].tolist() == list(range(7))


def test_rank_features_zero_matrix_warns_and_uses_index_order():
    st = _state_with_W([np.zeros((6, 2)), np.zeros((7, 2))])
    with pytest.warns(UserWarning, match="scores tie"):
        sel = rank_features(st, 0.5)
    assert sel.selected[0].tolist() == [0, 1, 2]   # round(3.0) of 6
    assert sel.selected[1].tolist() == [0, 1, 2, 3]  # round(3.5) rounds up


def test_rank_features_rejects_bad_ratio():
    st = _state_with_W([np.ones((4, 2)), np.ones((4, 2))])
    for bad in (0.0, -0.1, 1.2):
        with pytest.raises(ValueError):
            rank_features(st, bad)


# ------------------------------------------------------------- validation


def test_validate_state_flags_tampering():
    masked, masks = small_instance(seed=13)
    cfg = FitConfig(k=4, c=2)
    st = init_state(masked, masks, cfg)

    st.S_w[0][0] *= 2.0
    assert validate_state(st, masked, masks, cfg)["max_violation"] > 1e-6

    # a column must hold k distinct in-range neighbours with nonzero
    # weights, none the column itself
    def zero_weight(st):
        st.S_w[0][0] = [0.0, 0.5, 0.25, 0.25]

    def duplicate(st):
        st.S_nbr[1][4, 3] = st.S_nbr[1][4, 1]

    def self_loop(st):
        st.H_nbr[2, 1] = 2

    def out_of_range(st):
        st.H_nbr[6, 0] = -1
        st.S_nbr[0][7, 3] = st.n_samples

    for tamper, bad in ((zero_weight, 1), (duplicate, 1), (self_loop, 1),
                        (out_of_range, 2)):
        st = init_state(masked, masks, cfg)
        tamper(st)
        checks = validate_state(st, masked, masks, cfg)
        assert checks["nnz_bad_columns"] == bad, tamper.__name__
        assert checks["max_violation"] <= 1e-10, tamper.__name__

    st = init_state(masked, masks, cfg)
    r, c = np.argwhere(masks.masks[0] == 1.0)[0]
    st.Xhat[0][r, c] += 1.0
    assert not validate_state(st, masked, masks,
                              cfg)["observed_bitwise_equal"]

    # NaN is a violation, not a clean reading
    st = init_state(masked, masks, cfg)
    st.S_w[0][0, 1] = st.alpha[0] = np.nan
    assert validate_state(st, masked, masks, cfg)["max_violation"] == np.inf
    for tamper in ("H_w", "Fstar"):
        st = init_state(masked, masks, cfg)
        getattr(st, tamper)[0, 1] = np.inf
        assert validate_state(st, masked, masks,
                              cfg)["max_violation"] == np.inf


def _sub_updates(state, masked, masks, cfg, comps):
    """`fit`'s sub-updates in its order, each with the checked parts it
    writes."""
    steps = [(lambda: update_W(state, cfg), ()),
             (lambda: update_Fv(state, cfg), ()),
             (lambda: update_Fstar(state, cfg, comps), ("Fstar",))]
    if comps.graph_learning:
        steps += [(lambda: update_S(state, cfg), ("S",)),
                  (lambda: update_H(state, cfg, comps), ("H",)),
                  (lambda: update_alpha(state, cfg), ("alpha",))]
    if comps.adaptive_imputation:
        steps.append((lambda: update_Xhat(state, masked, masks, comps),
                      ("Xhat",)))
    return steps


@pytest.mark.parametrize("kind", ["climfs", "climfs-i", "climfs-ii",
                                  "climfs-iii"])
def test_fit_constraint_rows_equal_a_full_check_after_every_sub_update(
        kind, monkeypatch):
    # `fit` refuses to resume from broken graph columns (`check_state`);
    # this test starts from some on purpose, so that a part left
    # unmeasured shows in a row, and skips that check: its start state
    # fits the instance in every shape
    monkeypatch.setattr(model, "check_state", lambda *args: None)
    masked, masks = small_instance(seed=16)
    cfg = FitConfig(k=4, c=2, max_iter=5, tol=1e-15)
    comps = METHODS[kind]
    start = init_state(masked, masks, cfg, comps)
    # distinct violations in S (a zero weight, a self-loop), H (one
    # neighbour repeated, weights summing to 1.5) and alpha, so a part
    # that is not re-measured after its block, or not carried, shows in a
    # row
    start.S_w[0][0] = [0.0, 0.5, 0.25, 0.25]
    start.S_nbr[1][2, 0] = 2
    far = np.argmax(np.where(np.arange(start.n_samples) == 1, -np.inf,
                             _costs(*_b_spec(start, comps), np.array([1]),
                                    np.empty((1, start.n_samples)))[0]))
    start.H_nbr[1] = far
    start.H_w[1] = 1.5 / cfg.k
    start.alpha = start.alpha * 1.2
    _, trace = fit(masked, masks, cfg, comps, state=copy.deepcopy(start))

    replay = []
    steps = _sub_updates(start, masked, masks, cfg, comps)
    for _ in trace.rows:
        viol, bad = 0.0, 0
        for step, _written in steps:
            step()
            chk = validate_state(start, masked, masks, cfg)
            viol = max(viol, chk["max_violation"])
            bad = max(bad, chk["nnz_bad_columns"])
        start.sweeps += 1   # as in fit: it numbers the Adam steps
        replay.append((viol, bad, objective(start, cfg, comps)[0]))
    rows = [(r["max_violation"], r["nnz_bad_columns"], r["objective"])
            for r in trace.rows]
    assert len(rows) == cfg.max_iter
    assert repr(rows) == repr(replay)   # bitwise, the sign of 0.0 included
    assert rows[0][:2] == (0.5, 3)


def test_each_update_leaves_the_parts_it_does_not_write_unchanged():
    masked, masks = small_instance(seed=17)
    cfg = FitConfig(k=4, c=2, max_iter=2, tol=1e-15)
    st, _ = fit(masked, masks, cfg)
    for step, written in _sub_updates(st, masked, masks, cfg, Components()):
        before = {p: copy.deepcopy(getattr(st, p)) for p in CHECKED_PARTS}
        step()
        for part in set(CHECKED_PARTS) - set(written):
            old, new = before[part], getattr(st, part)
            if isinstance(old, np.ndarray):
                old, new = [old], [new]
            assert len(old) == len(new)
            for o, n in zip(old, new):
                assert o.tobytes() == n.tobytes(), (step, part)


def test_objective_total_is_sum_of_terms():
    masked, masks = small_instance(seed=14)
    cfg = FitConfig(k=4, c=2)
    st = init_state(masked, masks, cfg)
    total, terms = objective(st, cfg)
    assert abs(total - sum(terms.values())) <= 1e-12 * max(1.0, abs(total))


def test_objective_perfect_factorization_reconstruction_zero():
    masked, masks = small_instance(seed=15)
    st = init_state(masked, masks, FitConfig(k=4, c=2))
    for v in range(st.n_views):
        st.Xhat[v] = st.W[v] @ (st.Fv[v] + st.Fstar).T
    # lam/beta at 0 is allowed for evaluation (fit validates separately)
    _, terms = objective(st, FitConfig(lam=1.0, beta=1.0, k=4, c=2))
    assert terms["recon"] <= 1e-20
