"""End-to-end tests of the command-line pipeline, run in-process."""

import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest

import climfs.baselines as baselines
import climfs.cli as cli
import climfs.model as model
import climfs.numkit as numkit
from climfs.cli import load_config, main, resolve_fit_config
from climfs.dataset import load_manifest, load_masks
from climfs.errors import ConfigError, NumericError
from climfs.model import FitConfig, fit, load_state


def base_config(out_dir) -> dict:
    return {
        "data": {"synthetic": {"n": 40, "views": 2, "clusters": 3,
                               "informative": 4, "noise": 6, "seed": 7}},
        "scenario": {"kind": "mixed", "delta": 0.3, "seed": 7},
        "fit": {"lambda": 0.5, "beta": 0.5, "k": 4, "c": 3,
                "max_iter": 150, "tol": 1e-5, "seed": 7},
        "feature_ratios": [0.2],
        "eval_runs": 5,
        "out_dir": str(out_dir),
    }


def write_config(path, cfg) -> str:
    Path(path).write_text(json.dumps(cfg))
    return str(path)


def run_pipeline(root, mutate=None) -> Path:
    cfg = base_config(root / "out")
    if mutate:
        mutate(cfg)
    p = write_config(root / "cfg.json", cfg)
    for command in ("simulate", "fit", "evaluate", "diagnose"):
        assert main([command, "--config", p]) == 0, command
    return root / "out"


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    a = tmp_path_factory.mktemp("run_a")
    b = tmp_path_factory.mktemp("run_b")
    return run_pipeline(a), run_pipeline(b)


# ------------------------------------------------------------- simulate


def test_simulate_twice_byte_identical_masks(two_runs):
    out_a, out_b = two_runs
    for name in ("mask_view0.csv", "mask_view1.csv", "view0.csv",
                 "labels.csv", "masks.json", "manifest.json"):
        assert (out_a / "dataset" / name).read_bytes() \
            == (out_b / "dataset" / name).read_bytes()


def test_synthetic_labels_cover_every_cluster(two_runs):
    out_a, _ = two_runs
    labels = np.loadtxt(out_a / "dataset" / "labels.csv", dtype=int)
    assert len(set(labels.tolist())) == 3


def test_view_missing_guard_keeps_every_sample_alive(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["scenario"] = {"kind": "view", "delta": 0.5, "seed": 3}
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    masks = load_masks(tmp_path / "out" / "dataset" / "masks.json")
    alive = np.zeros(masks.masks[0].shape[1], dtype=bool)
    for m in masks.masks:
        alive |= m.any(axis=0)
    assert alive.all()


def test_scenario_that_apply_missing_rejects_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["data"]["synthetic"]["views"] = 1  # view removal needs two views
    cfg["scenario"]["kind"] = "view"
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 2
    assert "bad scenario" in capsys.readouterr().err


def test_simulate_without_a_scenario_observes_every_entry(tmp_path):
    cfg = base_config(tmp_path / "out")
    del cfg["scenario"]
    cfg["fit"].update(max_iter=2, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    for command in ("simulate", "fit", "evaluate"):
        assert main([command, "--config", p]) == 0, command
    out = tmp_path / "out"
    ds = load_manifest(out / "dataset" / "manifest.json")
    masks = load_masks(out / "dataset" / "masks.json")
    assert all((m == 1.0).all() for m in masks.masks)
    state, _, _ = load_state(out / "fit" / "climfs" / "state")
    for xhat, view in zip(state.Xhat, ds.views):
        assert xhat.tobytes() == view.tobytes()


def test_seed_flag_changes_generated_data(tmp_path):
    cfg = base_config(tmp_path / "ignored")
    p = write_config(tmp_path / "cfg.json", cfg)
    for seed in (1, 2):
        assert main(["simulate", "--config", p,
                     "--out", str(tmp_path / f"o{seed}"),
                     "--seed", str(seed)]) == 0
    v1 = (tmp_path / "o1" / "dataset" / "view0.csv").read_bytes()
    v2 = (tmp_path / "o2" / "dataset" / "view0.csv").read_bytes()
    assert v1 != v2


# ------------------------------------------------------------------ fit


def test_fit_trace_columns_and_monotone_objective(two_runs):
    out_a, _ = two_runs
    lines = (out_a / "fit" / "climfs" / "trace.csv").read_text().splitlines()
    header = lines[0].split(",")
    for col in ("iter", "objective", "recon", "w_l21", "fv_l1", "smooth",
                "cross_view", "s_quad", "fusion", "fstar_smooth",
                "orth_penalty", "max_violation", "seconds"):
        assert col in header
    obj = np.array([float(line.split(",")[header.index("objective")])
                    for line in lines[1:]])
    assert (np.diff(obj) <= 1e-9 * np.maximum(1.0, np.abs(obj[:-1]))).all()
    assert (obj[0] > obj[-1])


def test_fit_result_reports_convergence(two_runs):
    out_a, _ = two_runs
    result = json.loads((out_a / "fit" / "climfs"
                         / "fit_result.json").read_text())
    assert result["converged"] is True
    assert result["method"] == "climfs"
    assert result["timing"]["seconds"] > 0


def test_infinite_tol_trace_has_exactly_one_row(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["fit"]["tol"] = float("inf")
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    lines = (tmp_path / "out" / "fit" / "climfs"
             / "trace.csv").read_text().strip().splitlines()
    assert len(lines) == 2          # header + one iteration
    assert lines[1].split(",")[0] == "1"


def test_diagnostics_section_overrides_only_the_keys_it_sets(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    cfg["diagnostics"] = {"rho": 1}
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    with pytest.warns(UserWarning, match="unconverged"):
        assert main(["diagnose", "--config", p]) == 0
    text = (tmp_path / "out" / "diagnose" / "climfs.json").read_text()
    report = json.loads(text)
    assert '"rho": 1.0' in text
    assert {r["rho"] for r in report["neighbor_consistency"]} == {1.0}
    assert [c["zeta"] for c in report["consensus_consistency"]["checks"]] \
        == [0.1, 0.2]


def test_strict_flag_turns_nonconvergence_into_exit_4(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["fit"]["max_iter"] = 2
    cfg["fit"]["tol"] = 1e-13
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p, "--strict"]) == 4
    assert main(["fit", "--config", p]) == 0

    with pytest.warns(UserWarning, match="unconverged"):
        assert main(["diagnose", "--config", p]) == 0
    assert (tmp_path / "out" / "diagnose" / "climfs.json").exists()


def test_checkpoint_written_by_fit_resumes_identically(tmp_path):
    def long(cfg):
        cfg["fit"]["max_iter"] = 12
        cfg["fit"]["tol"] = 1e-13

    cfg_a = base_config(tmp_path / "a")
    long(cfg_a)
    pa = write_config(tmp_path / "cfg_a.json", cfg_a)
    assert main(["simulate", "--config", pa]) == 0
    assert main(["fit", "--config", pa]) == 0

    cfg_b = base_config(tmp_path / "b")
    long(cfg_b)
    cfg_b["fit"]["max_iter"] = 8
    pb = write_config(tmp_path / "cfg_b.json", cfg_b)
    assert main(["simulate", "--config", pb]) == 0
    assert main(["fit", "--config", pb]) == 0

    state, fc, comps = load_state(tmp_path / "b" / "fit" / "climfs" / "state")
    ds = load_manifest(tmp_path / "b" / "dataset" / "manifest.json")
    masks = load_masks(tmp_path / "b" / "dataset" / "masks.json")
    _, trace = fit(ds, masks, dataclasses.replace(fc, max_iter=4),
                   components=comps, state=state)

    lines = (tmp_path / "a" / "fit" / "climfs"
             / "trace.csv").read_text().splitlines()
    col = lines[0].split(",").index("objective")
    straight = np.array([float(line.split(",")[col]) for line in lines[1:]])
    assert np.array_equal(straight[8:], trace.objectives())
    assert [line.split(",")[0] for line in lines[9:]] == \
        [str(r["iter"]) for r in trace.rows] == ["9", "10", "11", "12"]


# ------------------------------------------------------- evaluate/ablate


def test_single_method_single_ratio_gives_one_report(two_runs):
    out_a, _ = two_runs
    reports = sorted((out_a / "eval" / "climfs").glob("report_*.json"))
    assert [r.name for r in reports] == ["report_r0.2.json"]


def test_summary_csv_means_equal_report_means(two_runs):
    out_a, _ = two_runs
    lines = (out_a / "eval" / "summary.csv").read_text().strip().splitlines()
    assert lines[0] == "method,ratio,acc_mean,nmi_mean"
    for line in lines[1:]:
        method, ratio, acc, nmi = line.split(",")
        report = json.loads((out_a / "eval" / method
                             / f"report_r{ratio}.json").read_text())
        assert float(acc) == report["acc_mean"]
        assert float(nmi) == report["nmi_mean"]
        assert report["feature_ratio"] == float(ratio)


def test_ablate_covers_full_model_and_three_variants(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["data"]["synthetic"]["n"] = 30
    cfg["fit"]["max_iter"] = 6
    cfg["fit"]["tol"] = 1e-13
    cfg["fit"]["k"] = 3
    cfg["eval_runs"] = 3
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["ablate", "--config", p]) == 0
    lines = (tmp_path / "out" / "eval"
             / "summary.csv").read_text().strip().splitlines()
    methods = [line.split(",")[0] for line in lines[1:]]
    assert len(methods) == 4
    assert set(methods) == {"climfs", "climfs-i", "climfs-ii", "climfs-iii"}
    for m in methods:
        assert (tmp_path / "out" / "fit" / m / "state"
                / "header.json").exists()


# --------------------------------------------------------- determinism


def _strip_timing(payload: dict) -> dict:
    payload.pop("timing", None)
    return payload


def test_result_jsons_identical_across_runs_modulo_timing(two_runs):
    out_a, out_b = two_runs
    rel_paths = ["fit/climfs/fit_result.json",
                 "eval/climfs/report_r0.2.json",
                 "diagnose/climfs.json"]
    for rel in rel_paths:
        da = _strip_timing(json.loads((out_a / rel).read_text()))
        db = _strip_timing(json.loads((out_b / rel).read_text()))
        assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True), rel


def test_checkpoint_bytes_and_key_order_identical_across_runs(two_runs):
    out_a, out_b = two_runs
    rel = Path("fit") / "climfs" / "state"
    for name in ("state.npz", "header.json"):
        assert (out_a / rel / name).read_bytes() == \
            (out_b / rel / name).read_bytes(), name
    with np.load(out_a / rel / "state.npz") as npz:
        assert npz.files == [
            "Fstar", "alpha", "gamma", "H_nbr", "H_w",
            "Xhat_0", "W_0", "Fv_0", "xi_0", "adam_m_0", "adam_v_0",
            "S_nbr_0", "S_w_0",
            "Xhat_1", "W_1", "Fv_1", "xi_1", "adam_m_1", "adam_v_1",
            "S_nbr_1", "S_w_1"]


def test_trace_objectives_identical_across_runs(two_runs):
    out_a, out_b = two_runs

    def objectives(root):
        lines = (root / "fit" / "climfs" / "trace.csv").read_text().splitlines()
        col = lines[0].split(",").index("objective")
        return [line.split(",")[col] for line in lines[1:]]

    assert objectives(out_a) == objectives(out_b)


def test_config_snapshot_sits_next_to_every_output(two_runs):
    out_a, _ = two_runs
    for sub in ("dataset", "fit/climfs", "eval/climfs", "diagnose"):
        snap = json.loads((out_a / sub / "config.json").read_text())
        assert snap["out_dir"] == str(out_a)
        assert snap["fit"]["lambda"] == 0.5


# --------------------------------------------------------- config errors


def invalid_config_cases():
    def drop_out_dir(cfg):
        del cfg["out_dir"]

    def both_sources(cfg):
        cfg["data"]["manifest"] = "nowhere.json"

    def neither_source(cfg):
        cfg["data"] = {}

    def top_typo(cfg):
        cfg["featur_ratios"] = [0.2]

    def fit_typo(cfg):
        cfg["fit"]["lamda"] = 1.0

    def scenario_typo(cfg):
        cfg["scenario"]["detla"] = 0.2

    def bad_method(cfg):
        cfg["method"] = "pca"

    def bad_ratio(cfg):
        cfg["feature_ratios"] = [0.2, 1.5]

    def empty_ratios(cfg):
        cfg["feature_ratios"] = []

    def bad_runs(cfg):
        cfg["eval_runs"] = 0

    def bad_kind(cfg):
        cfg["scenario"]["kind"] = "sideways"

    def bad_delta(cfg):
        cfg["scenario"]["delta"] = 1.5

    def bad_fit_value(cfg):
        cfg["fit"]["k"] = 0

    def removed_fit_key(cfg):
        cfg["fit"]["strict_descent"] = True

    def removed_eps_dv(cfg):
        cfg["fit"]["eps_dv"] = 1e-8

    def removed_inner_fv_steps(cfg):
        cfg["fit"]["inner_fv_steps"] = 10

    def removed_rho(cfg):
        cfg["fit"]["rho"] = 1e4

    def scalar_zetas(cfg):
        cfg["diagnostics"] = {"zetas": 0.1}

    def zero_zeta(cfg):
        cfg["diagnostics"] = {"zetas": [0.0]}

    def empty_zetas(cfg):
        cfg["diagnostics"] = {"zetas": []}

    def text_rho(cfg):
        cfg["diagnostics"] = {"rho": "x"}

    def boolean_runs(cfg):
        cfg["eval_runs"] = True

    def boolean_ratio(cfg):
        cfg["feature_ratios"] = [True]

    def boolean_c(cfg):
        cfg["fit"]["c"] = True

    def float_k(cfg):
        cfg["fit"]["k"] = 4.5

    def boolean_max_iter(cfg):
        cfg["fit"]["max_iter"] = True

    def float_seed(cfg):
        cfg["fit"]["seed"] = 7.0

    def boolean_lambda(cfg):
        cfg["fit"]["lambda"] = True

    def boolean_beta(cfg):
        cfg["fit"]["beta"] = True

    def inf_lambda(cfg):  # written as JSON Infinity
        cfg["fit"]["lambda"] = float("inf")

    def inf_beta(cfg):
        cfg["fit"]["beta"] = float("inf")

    def text_rho_fit(cfg):
        cfg["fit"]["rho"] = "1e4"

    def list_tol(cfg):
        cfg["fit"]["tol"] = [1e-5]

    def list_delta(cfg):
        cfg["scenario"]["delta"] = [0.3]

    def null_delta(cfg):
        cfg["scenario"]["delta"] = None

    def text_delta(cfg):
        cfg["scenario"]["delta"] = "0.3"

    def float_scenario_seed(cfg):
        cfg["scenario"]["seed"] = 1.7

    def boolean_scenario_seed(cfg):
        cfg["scenario"]["seed"] = True

    def negative_fit_seed(cfg):
        cfg["fit"]["seed"] = -1

    def negative_scenario_seed(cfg):
        cfg["scenario"]["seed"] = -1

    def list_method(cfg):
        cfg["method"] = ["climfs"]

    def nested_methods(cfg):
        cfg["methods"] = [["climfs"]]

    def float_n(cfg):
        cfg["data"]["synthetic"]["n"] = 30.0

    def boolean_views(cfg):  # the mixed scenario would reject one view
        cfg["data"]["synthetic"]["views"] = True
        del cfg["scenario"]

    def boolean_synthetic_seed(cfg):
        cfg["data"]["synthetic"]["seed"] = True

    def boolean_separation(cfg):
        cfg["data"]["synthetic"]["separation"] = True

    def number_out_dir(cfg):
        cfg["out_dir"] = 5

    def number_manifest(cfg):
        cfg["data"] = {"manifest": 5}

    return [drop_out_dir, both_sources, neither_source, top_typo, fit_typo,
            scenario_typo, bad_method, bad_ratio, empty_ratios, bad_runs,
            bad_kind, bad_delta, bad_fit_value, removed_fit_key,
            removed_eps_dv, removed_inner_fv_steps, removed_rho,
            scalar_zetas, zero_zeta,
            empty_zetas, text_rho, boolean_runs, boolean_ratio, boolean_c,
            float_k, boolean_max_iter, float_seed, boolean_lambda,
            boolean_beta, inf_lambda, inf_beta, text_rho_fit, list_tol,
            list_delta, null_delta, text_delta, float_scenario_seed,
            boolean_scenario_seed, negative_fit_seed, negative_scenario_seed,
            list_method, nested_methods, float_n, boolean_views,
            boolean_synthetic_seed, boolean_separation, number_out_dir,
            number_manifest]


@pytest.mark.parametrize("mutate", invalid_config_cases(),
                         ids=lambda f: f.__name__)
def test_invalid_config_exits_2(tmp_path, mutate):
    cfg = base_config(tmp_path / "out")
    mutate(cfg)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 2


def test_out_dir_that_names_a_file_exits_2(tmp_path, capsys):
    (tmp_path / "out").write_text("a file, not a directory\n")
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 2
    assert "config error" in capsys.readouterr().err


def test_unreadable_or_malformed_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["simulate", "--config", str(bad)]) == 2
    lst = tmp_path / "list.json"
    lst.write_text("[1, 2]")
    assert main(["simulate", "--config", str(lst)]) == 2


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p, "--seed", "-3"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err
    assert main(["simulate", "--config", p, "--seed", "-3"]) == 2


def test_fit_before_simulate_exits_2(tmp_path):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["fit", "--config", p]) == 2
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2


def test_evaluate_before_fit_exits_2(tmp_path):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0
    assert main(["evaluate", "--config", p]) == 2


def test_checkpoint_from_an_earlier_version_exits_2(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    header_path = tmp_path / "out" / "fit" / "climfs" / "state" / "header.json"
    fitted = header_path.read_text()
    for removed in ("strict_descent", "eps_dv", "rho"):
        header = json.loads(fitted)
        header["cfg"][removed] = 1e-8
        header_path.write_text(json.dumps(header))
        assert main(["evaluate", "--config", p]) == 2
        assert main(["diagnose", "--config", p]) == 2


def test_checkpoint_without_a_sweep_count_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    header_path = tmp_path / "out" / "fit" / "climfs" / "state" / "header.json"
    header = json.loads(header_path.read_text())
    assert header.pop("sweeps") == 1
    header_path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("refit it") == 2


@pytest.mark.parametrize("entry", ["W_1", "Fstar", "S_nbr_0", "H_w",
                                   "adam_m_0"])
def test_checkpoint_without_an_array_exits_2(tmp_path, capsys, entry):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    npz = tmp_path / "out" / "fit" / "climfs" / "state" / "state.npz"
    with np.load(npz) as arrays:
        kept = {name: a for name, a in arrays.items() if name != entry}
    assert len(kept) == len(arrays) - 1
    np.savez(npz, **kept)
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("refit it") == 2


def _flat_graph_layout(arrays: dict) -> dict:
    """The graph entries of checkpoints before the (n, k) layout: the flat
    indices and values of each dense graph's nonzero entries."""
    out = {}
    for name, a in arrays.items():
        if "_nbr" in name:  # H_nbr, S_nbr_<v>: graphs H, S_<v>
            graph = name.replace("_nbr", "")
            G = np.zeros((a.shape[0], a.shape[0]))
            G[a, np.arange(a.shape[0])[:, None]] = \
                arrays[name.replace("_nbr", "_w")]
            idx = np.flatnonzero(G.view(np.uint64))
            out.update({f"{graph}_idx": idx, f"{graph}_vals": G.ravel()[idx]})
        elif not name.startswith(("S_w", "H_w")):
            out[name] = a
    return out


def _set(arrays: dict, name: str, at: tuple, value) -> dict:
    """`arrays` with one entry of arrays[name] set to `value`."""
    edited = arrays[name].copy()
    edited[at] = value
    return {**arrays, name: edited}


@pytest.mark.parametrize("tamper", [
    lambda a: {**a, "S_w_1": a["S_w_1"][:, 1:]},
    lambda a: {**a, "H_nbr": a["H_nbr"][:-1]},
    lambda a: {**a, "S_nbr_0": a["S_nbr_0"].astype(float)},
    lambda a: {**a, "H_nbr": np.full_like(a["H_nbr"], a["H_nbr"].shape[0])},
    lambda a: {**a, "S_nbr_1": -a["S_nbr_1"]},
    _flat_graph_layout,
    lambda a: {re.sub(r"^S_(nbr|w)_(\d)$", r"S_\2_\1", name): x
               for name, x in a.items()},
    lambda a: {**a, "W_0": np.hstack([a["W_0"], a["W_0"][:, :1]])},
    lambda a: {**a, "Fv_0": np.hstack([a["Fv_0"], a["Fv_0"][:, :1]])},
    lambda a: {**a, "Fstar": np.hstack([a["Fstar"], a["Fstar"][:, :1]])},
    lambda a: {**a, "xi_0": a["xi_0"][:-1]},
    lambda a: {**a, "gamma": a["gamma"][:-1]},
    lambda a: _set(a, "S_nbr_0", (3, 1), a["S_nbr_0"][3, 0]),
    lambda a: _set(a, "H_nbr", (5, 0), 5),
    lambda a: _set(a, "S_w_1", (0, 0), np.nan),
    lambda a: _set(a, "H_w", (2, 1), -0.5),
], ids=["weights_not_n_by_k", "neighbours_not_n_by_k", "float_neighbours",
        "neighbour_n", "negative_neighbours", "flat_index_layout",
        "earlier_view_graph_names",
        "W_not_d_by_c", "Fv_not_n_by_c", "Fstar_not_n_by_c", "short_xi",
        "short_gamma", "repeated_neighbour", "self_loop", "nan_weight",
        "negative_weight"])
def test_malformed_graph_checkpoint_exits_2(tmp_path, capsys, tamper):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    npz = tmp_path / "out" / "fit" / "climfs" / "state" / "state.npz"
    with np.load(npz) as arrays:
        arrays = dict(arrays)
    np.savez(npz, **tamper(arrays))
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("refit it") == 2


@pytest.mark.parametrize("section,key,value", [
    ("cfg", "c", 0), ("cfg", "c", 41), ("cfg", "seed", -1),
    ("cfg", "c", True), ("cfg", "lam", "x"),
    ("components", "graph_learning", "yes"), (None, "sweeps", True),
], ids=["c_zero", "c_above_n", "negative_seed", "bool_c", "string_lam",
        "string_component", "bool_sweeps"])
def test_malformed_checkpoint_header_exits_2(tmp_path, capsys, section, key,
                                             value):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    path = tmp_path / "out" / "fit" / "climfs" / "state" / "header.json"
    header = json.loads(path.read_text())
    (header[section] if section else header)[key] = value
    path.write_text(json.dumps(header))
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("refit it") == 2


def test_fit_of_an_earlier_dataset_exits_2(tmp_path, capsys):
    # simulate again at another n after fitting: the fit no longer
    # matches the dataset it is evaluated and diagnosed against
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    cfg["data"]["synthetic"]["n"] = 50
    write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("does not match the dataset") == 2


def test_csv_checkpoint_from_an_earlier_version_exits_2(tmp_path, capsys):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    state_dir = tmp_path / "out" / "fit" / "climfs" / "state"
    (state_dir / "state.npz").unlink()
    np.savetxt(state_dir / "H.csv", np.eye(3), fmt="%.17g", delimiter=",")
    capsys.readouterr()
    assert main(["evaluate", "--config", p]) == 2
    assert main(["diagnose", "--config", p]) == 2
    assert capsys.readouterr().err.count("refit it") == 2


def test_evaluate_without_labels_exits_2(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(2):
        np.savetxt(tmp_path / f"v{i}.csv", rng.normal(size=(5, 20)),
                   delimiter=",")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "views": [{"name": f"v{i}", "path": f"v{i}.csv"} for i in range(2)],
        "labels": None}))
    cfg = base_config(tmp_path / "out")
    cfg["data"] = {"manifest": str(tmp_path / "manifest.json")}
    cfg["fit"].update(k=3, c=2, max_iter=2, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    assert main(["evaluate", "--config", p]) == 2


@pytest.mark.parametrize("labels", [3, True, ["labels.csv"]],
                         ids=["number", "true", "list"])
def test_manifest_labels_not_a_path_exit_2(tmp_path, capsys, labels):
    np.savetxt(tmp_path / "v0.csv", np.ones((3, 20)), delimiter=",")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "views": [{"name": "v0", "path": "v0.csv"}], "labels": labels}))
    cfg = base_config(tmp_path / "out")
    cfg["data"] = {"manifest": str(tmp_path / "manifest.json")}
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 2
    assert "'labels' must be a path string or null" in capsys.readouterr().err


def _simulate_views_named(tmp_path, names):
    """`climfs simulate`, without a scenario, on a manifest of 3 x 20
    views named `names`."""
    for i in range(len(names)):
        np.savetxt(tmp_path / f"v{i}.csv", np.full((3, 20), float(i)),
                   delimiter=",")
    (tmp_path / "manifest.json").write_text(json.dumps({
        "views": [{"name": x, "path": f"v{i}.csv"}
                  for i, x in enumerate(names)], "labels": None}))
    cfg = base_config(tmp_path / "out")
    cfg["data"] = {"manifest": str(tmp_path / "manifest.json")}
    del cfg["scenario"]  # every entry observed
    return main(["simulate", "--config", write_config(tmp_path / "cfg.json",
                                                      cfg)])


def test_two_views_of_one_name_exit_2_before_writing(tmp_path, capsys):
    # both would be written to x.csv, the second over the first
    assert _simulate_views_named(tmp_path, ["x", "x"]) == 2
    assert "give two dataset files one name" in capsys.readouterr().err
    assert not (tmp_path / "out" / "dataset").exists()


def test_view_name_with_a_path_separator_exit_2_before_writing(tmp_path,
                                                               capsys):
    assert _simulate_views_named(tmp_path, ["../escaped"]) == 2
    assert "no path separator" in capsys.readouterr().err
    assert not (tmp_path / "out" / "escaped.csv").exists()
    assert not (tmp_path / "out" / "dataset").exists()


@pytest.mark.parametrize("content", ["{broken", "[]"],
                         ids=["not_json", "not_an_object"])
def test_unreadable_fit_result_exits_2(tmp_path, capsys, content):
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=1, tol=1e-13)
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    result = tmp_path / "out" / "fit" / "climfs" / "fit_result.json"
    result.write_text(content)
    capsys.readouterr()
    assert main(["diagnose", "--config", p]) == 2
    assert "refit it" in capsys.readouterr().err


@pytest.mark.parametrize("index, content", [
    ("masks.json", {}),
    ("masks.json", {"masks": [{"name": "view0"}]}),
    ("manifest.json", {"views": 3, "labels": "labels.csv"}),
], ids=["empty_masks", "mask_without_path", "views_number"])
def test_malformed_dataset_index_exits_2(tmp_path, capsys, index, content):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0
    (tmp_path / "out" / "dataset" / index).write_text(json.dumps(content))
    capsys.readouterr()
    for command in ("fit", "evaluate", "diagnose"):
        assert main([command, "--config", p]) == 2
    assert capsys.readouterr().err.count(f"index {tmp_path}") == 3


def test_masks_of_the_views_in_another_order_exit_2(tmp_path, capsys):
    # both views are 10 x 40, so counts and shapes alone cannot tell
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0
    index = tmp_path / "out" / "dataset" / "masks.json"
    spec = json.loads(index.read_text())
    spec["masks"].reverse()
    index.write_text(json.dumps(spec))
    capsys.readouterr()
    assert main(["fit", "--config", p]) == 2
    assert "views not in the order ['view0', 'view1']" in \
        capsys.readouterr().err


# --------------------------------------------------------- numeric errors


@pytest.mark.parametrize("exc", [NumericError("update diverged"),
                                 np.linalg.LinAlgError("singular")],
                         ids=["numeric", "linalg"])
def test_optimizer_failure_exits_3(tmp_path, monkeypatch, exc):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0

    def boom(*args, **kwargs):
        raise exc

    monkeypatch.setattr(baselines, "fit", boom)  # the fit run_variant calls
    assert main(["fit", "--config", p]) == 3


def test_eigensolver_failure_at_initialization_exits_3(tmp_path,
                                                       monkeypatch):
    import scipy.sparse.linalg
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence",
                                                      np.empty(0),
                                                      np.empty((0, 0)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    assert main(["fit", "--config", p]) == 3


def test_unconverged_imputation_solve_exits_3(tmp_path, monkeypatch, capsys):
    p = write_config(tmp_path / "cfg.json", base_config(tmp_path / "out"))
    assert main(["simulate", "--config", p]) == 0
    monkeypatch.setattr(numkit, "CG_MAXITER", 1)
    assert main(["fit", "--config", p]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_nonfinite_iterate_raises_and_exits_3(tmp_path, monkeypatch):
    # a NaN in a masked entry of the graph-free variant's imputed data
    # makes the objective of the start state non-finite
    cfg = base_config(tmp_path / "out")
    cfg["fit"].update(max_iter=2, tol=1e-13)
    cfg["method"] = "climfs-iii"
    p = write_config(tmp_path / "cfg.json", cfg)
    assert main(["simulate", "--config", p]) == 0
    assert main(["fit", "--config", p]) == 0
    out = tmp_path / "out"
    masks = load_masks(out / "dataset" / "masks.json")
    state, fc, comps = load_state(out / "fit" / "climfs-iii" / "state")

    def poison(st):
        st.Xhat[0][masks.masks[0] == 0.0] = np.nan
        return st

    with pytest.raises(NumericError, match="non-finite objective"):
        fit(load_manifest(out / "dataset" / "manifest.json"), masks, fc,
            components=comps, state=poison(state))

    real_init = model.init_state
    monkeypatch.setattr(model, "init_state",
                        lambda *args, **kw: poison(real_init(*args, **kw)))
    assert main(["fit", "--config", p]) == 3


# ----------------------------------------------------------- unit pieces


def test_lambda_config_key_maps_onto_lam():
    fc = resolve_fit_config({"fit": {"lambda": 0.25, "k": 3, "c": 2}})
    assert fc.lam == 0.25
    assert fc.k == 3


def test_fit_config_rejects_wrong_types():
    for bad in ({"k": 2.5}, {"c": True}, {"seed": 1.0}, {"max_iter": "9"},
                {"lam": True}, {"tol": None}):
        with pytest.raises(ConfigError, match="must be an integer|must be a "
                                              "real number"):
            FitConfig(**bad).validate()
    FitConfig(k=np.int64(3), lam=np.float64(0.5), tol=np.inf).validate()


def test_load_config_fills_defaults(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps({"data": {"synthetic": {"n": 10, "views": 2,
                                                    "clusters": 2,
                                                    "informative": 2,
                                                    "noise": 0}},
                             "out_dir": "x"}))
    cfg = load_config(p)
    assert cfg["feature_ratios"] == [0.2]
    assert cfg["eval_runs"] == 50
