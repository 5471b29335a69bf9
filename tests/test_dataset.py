"""Dataset container, manifest, and missing-data simulator tests.

Mask-count assertions are computed independently from the scenario
definition (round-half-up of delta times the eligible pool), never read
back from the implementation."""

import json

import numpy as np
import pytest

from climfs.dataset import (MaskMatrix, MissingScenario, MultiViewDataset,
                            ScenarioKind, apply_missing, load_manifest,
                            load_masks, make_synthetic, mean_impute,
                            save_dataset, save_masks)
from climfs.errors import ConfigError


def round_half_up(x):
    return int(np.floor(x + 0.5))


def two_view_dataset(n=20, seed=0):
    rng = np.random.default_rng(seed)
    return MultiViewDataset(
        views=[rng.normal(size=(5, n)), rng.normal(size=(7, n))],
        labels=rng.integers(0, 3, size=n))


# ------------------------------------------------------------ containers


def test_dataset_validates_shapes_and_labels():
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.zeros((3, 4)), np.zeros((2, 5))])
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.zeros((3, 4))], labels=np.zeros(3, dtype=int))
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.full((2, 2), np.nan)])
    ds = MultiViewDataset(views=[np.zeros((3, 4))])
    assert ds.view_names == ["view0"] and ds.n_samples == 4 and ds.dims == [3]


def test_mask_matrix_validates_binary():
    with pytest.raises(ValueError):
        MaskMatrix([np.full((2, 2), 0.5)])
    ds = two_view_dataset()
    mm = MaskMatrix.all_observed(ds)
    mm.check_against(ds)


def test_scenario_rejects_bad_delta():
    with pytest.raises(ValueError):
        MissingScenario(kind="view", delta=0.0, seed=1)
    with pytest.raises(ValueError):
        MissingScenario(kind="mixed", delta=1.0, seed=1)
    sc = MissingScenario(kind="variable", delta=0.3, seed=1)
    assert sc.kind is ScenarioKind.VARIABLE


@pytest.mark.parametrize("args", [("mixed", 0.5, 1.7), ("mixed", 0.5, True),
                                  ("mixed", "0.3", 0), ("mixed", 0.5, -1),
                                  (3, 0.5, 0)])
def test_scenario_rejects_wrong_types_without_coercing(args):
    with pytest.raises(ValueError):
        MissingScenario(*args)


def test_scenario_defaults_and_numpy_scalars():
    assert MissingScenario() == MissingScenario("mixed", 0.3, 0)
    assert MissingScenario().kind is ScenarioKind.MIXED
    sc = MissingScenario("view", np.float64(0.25), np.int64(4))
    assert (sc.delta, sc.seed) == (0.25, 4)


# ------------------------------------------------------------- manifests


def test_manifest_round_trip_bit_exact(tmp_path):
    ds = two_view_dataset(n=13, seed=3)
    manifest = save_dataset(ds, tmp_path / "bundle")
    back = load_manifest(manifest)
    assert back.view_names == ds.view_names
    for a, b in zip(back.views, ds.views):
        assert np.array_equal(a, b)  # bit-exact via 17 significant digits
    assert np.array_equal(back.labels, ds.labels)


def test_manifest_without_labels(tmp_path):
    ds = MultiViewDataset(views=[np.eye(3)])
    back = load_manifest(save_dataset(ds, tmp_path))
    assert back.labels is None


def test_manifest_rejects_mismatched_views(tmp_path):
    np.savetxt(tmp_path / "a.csv", np.zeros((2, 3)), delimiter=",")
    np.savetxt(tmp_path / "b.csv", np.zeros((2, 4)), delimiter=",")
    spec = {"views": [{"name": "a", "path": "a.csv"},
                      {"name": "b", "path": "b.csv"}], "labels": None}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(spec))
    with pytest.raises(ConfigError):
        load_manifest(mpath)


def test_manifest_rejects_unknown_keys(tmp_path):
    np.savetxt(tmp_path / "a.csv", np.zeros((2, 3)), delimiter=",")
    spec = {"views": [{"name": "a", "path": "a.csv"}], "labels": None,
            "extra": 1}
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(spec))
    with pytest.raises(ConfigError):
        load_manifest(mpath)


def test_masks_round_trip(tmp_path):
    ds = two_view_dataset(n=10, seed=5)
    _, masks = apply_missing(ds, MissingScenario(kind="mixed", delta=0.3, seed=2))
    idx = save_masks(masks, ds.view_names, tmp_path)
    back = load_masks(idx)
    for a, b in zip(back.masks, masks.masks):
        assert np.array_equal(a, b)


def test_mask_files_are_the_bytes_of_savetxt(tmp_path):
    rng = np.random.default_rng(21)
    for shape in [(50, 1000), (1, 1), (4, 1), (1, 7), (6, 13)]:
        m = rng.integers(0, 2, size=shape).astype(float)
        m[(m == 0.0) & (rng.random(shape) < 0.5)] = -0.0   # prints as 0
        save_masks(MaskMatrix([m]), ["a"], tmp_path)
        np.savetxt(tmp_path / "ref.csv", m, fmt="%d", delimiter=",")
        assert (tmp_path / "mask_a.csv").read_bytes() == \
            (tmp_path / "ref.csv").read_bytes(), shape


MALFORMED_INDEXES = {
    "masks_empty": ("masks.json", {}),
    "mask_without_path": ("masks.json", {"masks": [{"name": "a"}]}),
    "masks_not_a_list": ("masks.json", {"masks": {"name": "a",
                                                  "path": "a.csv"}}),
    "masks_extra_key": ("masks.json", {"masks": [], "extra": 1}),
    "masks_root_list": ("masks.json", [{"name": "a", "path": "a.csv"}]),
    "views_number": ("manifest.json", {"views": 3}),
    "view_entry_list": ("manifest.json", {"views": [["a", "a.csv"]]}),
    "view_path_number": ("manifest.json",
                         {"views": [{"name": "a", "path": 3}]}),
    **{f"labels_{name}": ("manifest.json",
                          {"views": [{"name": "a", "path": "a.csv"}],
                           "labels": labels})
       for name, labels in (("number", 3), ("true", True),
                            ("list", ["a.csv"]))},
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INDEXES))
def test_malformed_index_is_a_config_error(tmp_path, case):
    name, index = MALFORMED_INDEXES[case]
    np.savetxt(tmp_path / "a.csv", np.ones((2, 3)), delimiter=",")
    (tmp_path / name).write_text(json.dumps(index))
    load = load_masks if name == "masks.json" else load_manifest
    with pytest.raises(ConfigError):
        load(tmp_path / name)


# ------------------------------------------------------------- scenarios


@pytest.mark.parametrize("delta", [0.1, 0.2, 0.3, 0.4, 0.5])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_view_missing_exact_counts(delta, seed):
    ds = two_view_dataset(n=30, seed=seed)
    masked, masks = apply_missing(
        ds, MissingScenario(kind="view", delta=delta, seed=seed))
    dead_views = np.zeros(ds.n_samples, dtype=int)
    for m in masks.masks:
        col_dead = ~m.any(axis=0)
        # a dropped view is all-zero for that column, nothing partial
        assert np.all(m.sum(axis=0)[~col_dead] == m.shape[0])
        dead_views += col_dead.astype(int)
    assert (dead_views <= 1).all()
    assert dead_views.sum() == round_half_up(delta * ds.n_samples)
    # observed entries are copied verbatim, masked entries zeroed
    for mv, v, m in zip(masked.views, ds.views, masks.masks):
        assert np.array_equal(mv[m == 1.0], v[m == 1.0])
        assert np.all(mv[m == 0.0] == 0.0)


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.5])
def test_variable_missing_exact_counts(delta):
    ds = two_view_dataset(n=40, seed=9)
    _, masks = apply_missing(
        ds, MissingScenario(kind="variable", delta=delta, seed=4))
    for m in masks.masks:
        missing = int((m == 0.0).sum())
        assert missing == round_half_up(delta * m.size)


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.5])
def test_mixed_missing_exact_counts(delta):
    # The view-removal stage of "mixed" consumes the same leading RNG draws
    # as the standalone "view" scenario, so replaying "view" with the same
    # seed recovers the stage-1 drop set independently of stage 2.
    ds = two_view_dataset(n=40, seed=11)
    _, masks = apply_missing(
        ds, MissingScenario(kind="mixed", delta=delta, seed=6))
    _, stage1 = apply_missing(
        ds, MissingScenario(kind="view", delta=delta, seed=6))
    total_dropped = 0
    for m, s1 in zip(masks.masks, stage1.masks):
        dropped = ~s1.any(axis=0)
        total_dropped += int(dropped.sum())
        # stage-1 drops survive into the mixed mask
        assert np.all(m[:, dropped] == 0.0)
        survivors = m[:, ~dropped]
        stage2 = int((survivors == 0.0).sum())
        assert stage2 == round_half_up(delta * survivors.size)
    assert total_dropped == round_half_up(delta * ds.n_samples)


def test_scenarios_are_deterministic():
    ds = two_view_dataset(n=25, seed=13)
    for kind in ("view", "variable", "mixed"):
        sc = MissingScenario(kind=kind, delta=0.3, seed=42)
        _, m1 = apply_missing(ds, sc)
        _, m2 = apply_missing(ds, sc)
        for a, b in zip(m1.masks, m2.masks):
            assert np.array_equal(a, b)
        _, m3 = apply_missing(ds, MissingScenario(kind=kind, delta=0.3, seed=43))
        assert any(not np.array_equal(a, b) for a, b in zip(m1.masks, m3.masks))


def test_view_missing_requires_two_views():
    ds = MultiViewDataset(views=[np.random.default_rng(0).normal(size=(4, 10))])
    with pytest.raises(ValueError):
        apply_missing(ds, MissingScenario(kind="view", delta=0.3, seed=1))


def test_guard_rejects_samples_losing_everything():
    # single-feature views at delta=0.9: some sample ends up fully masked
    rng = np.random.default_rng(0)
    ds = MultiViewDataset(views=[rng.normal(size=(1, 12)),
                                 rng.normal(size=(1, 12))])
    with pytest.raises(ValueError):
        apply_missing(ds, MissingScenario(kind="variable", delta=0.9, seed=3))


# ------------------------------------------------------------ imputation


def test_mean_impute_fills_feature_means():
    view = np.array([[1.0, 2.0, 3.0], [10.0, 20.0, 30.0]])
    mask = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    out = mean_impute(view, mask)
    np.testing.assert_allclose(out, [[1.0, 2.0, 3.0], [10.0, 20.0, 15.0]])
    assert out[0, 1] == 2.0  # mean of 1 and 3


def test_mean_impute_all_missing_row_warns_zero():
    view = np.array([[1.0, 2.0], [5.0, 6.0]])
    mask = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.warns(UserWarning):
        out = mean_impute(view, mask)
    np.testing.assert_allclose(out[0], [0.0, 0.0])
    np.testing.assert_allclose(out[1], [5.0, 6.0])


# ------------------------------------------------------------- synthetic


def test_make_synthetic_shapes_and_balance():
    ds = make_synthetic(n=31, views=2, clusters=3, informative=4, noise=6,
                        seed=5)
    assert ds.n_views == 2 and ds.n_samples == 31
    assert ds.dims == [10, 10]
    counts = np.bincount(ds.labels, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_make_synthetic_deterministic():
    a = make_synthetic(n=20, views=2, clusters=2, informative=3, noise=2, seed=8)
    b = make_synthetic(n=20, views=2, clusters=2, informative=3, noise=2, seed=8)
    # numpy scalars count as integers and reals
    c = make_synthetic(n=np.int64(20), views=np.int32(2), clusters=2,
                       informative=3, noise=2, seed=np.uint8(8),
                       separation=np.float64(3.0), noise_scale=np.float32(1))
    for va, vb, vc in zip(a.views, b.views, c.views):
        assert np.array_equal(va, vb) and np.array_equal(va, vc)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.labels, c.labels)
