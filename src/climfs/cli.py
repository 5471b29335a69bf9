"""Experiment runner.

Subcommands build a pipeline under one output directory:

* simulate  — load or generate a dataset, apply a missing scenario, and
              write the masked views, labels, and masks to <out>/dataset/.
* fit       — optimize one method on the simulated data; checkpoint,
              trace CSV, and a result JSON land in <out>/fit/<method>/.
* evaluate  — rank features from fitted states and score them with
              repeated k-means; reports in <out>/eval/<method>/ plus a
              summary CSV.
* diagnose  — structural bound checks on a fitted state, JSON in
              <out>/diagnose/.
* ablate    — fit + evaluate the full model and the three reduced
              variants in one call.

Every command validates the JSON config strictly (unknown keys are
refused at every level), writes the resolved config snapshot next to its
outputs, and keeps all volatile values inside "timing" subobjects so the
remaining JSON bytes are reproducible for a fixed config and seed.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 fit did not converge (only with --strict).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from climfs.baselines import METHODS, run_variant
from climfs.dataset import (MaskMatrix, MissingScenario, MultiViewDataset,
                            apply_missing, load_manifest, load_masks,
                            make_synthetic, save_dataset, save_masks)
from climfs.errors import ConfigError, NumericError
from climfs.evaluation import diagnostics_report, evaluate_selection
from climfs.model import (FitConfig, ModelState, check_state, load_state,
                          rank_features, save_state)

_SYNTH_KEYS = set(inspect.signature(make_synthetic).parameters)
_SCENARIO_KEYS = {f.name for f in dataclasses.fields(MissingScenario)}
# The config names FitConfig's `lam` "lambda".
_FIT_KEYS = {"lambda" if f.name == "lam" else f.name
             for f in dataclasses.fields(FitConfig)}
_TOP_KEYS = {"data", "scenario", "fit", "method", "methods",
             "feature_ratios", "eval_runs", "diagnostics", "out_dir"}


# ------------------------------------------------------------ config load


def _reject_unknown(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _is_positive(x) -> bool:
    """A positive JSON number; booleans, which Python counts as ints, are
    not numbers here."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and x > 0


def load_config(path: str | Path) -> dict:
    """Read and strictly validate an experiment config."""
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config root")

    data = raw.get("data")
    if data is None:
        raise ConfigError("config needs a 'data' section")
    _reject_unknown(data, {"manifest", "synthetic"}, "data")
    if ("manifest" in data) == ("synthetic" in data):
        raise ConfigError("data needs exactly one of 'manifest'/'synthetic'")
    if not isinstance(data.get("manifest", ""), str):
        raise ConfigError("data.manifest must be a path string")
    if "synthetic" in data:
        _reject_unknown(data["synthetic"], _SYNTH_KEYS, "data.synthetic")

    if "scenario" in raw:
        resolve_scenario(raw)
    if "fit" in raw:
        _reject_unknown(raw["fit"], _FIT_KEYS, "fit")
    if "diagnostics" in raw:
        dsec = raw["diagnostics"]
        _reject_unknown(dsec, {"rho", "zetas"}, "diagnostics")
        if "rho" in dsec and not _is_positive(dsec["rho"]):
            raise ConfigError("diagnostics.rho must be a positive number")
        zetas = dsec.get("zetas")
        if "zetas" in dsec and not (isinstance(zetas, list) and zetas and all(
                _is_positive(z) for z in zetas)):
            raise ConfigError("diagnostics.zetas must be a non-empty list of "
                              "positive numbers")

    ratios = raw.get("feature_ratios", [0.2])
    if (not isinstance(ratios, list) or not ratios
            or not all(_is_positive(r) and r <= 1.0 for r in ratios)):
        raise ConfigError("feature_ratios must be a list of fractions in "
                          "(0, 1]")
    raw["feature_ratios"] = [float(r) for r in ratios]

    runs = raw.get("eval_runs", 50)
    if isinstance(runs, bool) or not isinstance(runs, int) or runs < 1:
        raise ConfigError("eval_runs must be a positive integer")
    raw["eval_runs"] = runs

    methods = raw.get("methods", [])
    if not isinstance(methods, list):
        raise ConfigError("methods must be a list")
    for m in methods + [raw.get("method", "climfs")]:
        if not isinstance(m, str) or m not in METHODS:
            raise ConfigError(f"unknown method '{m}' (choose from "
                              f"{', '.join(METHODS)})")
    resolve_fit_config(raw)      # value-level validation, fail fast
    return raw


def resolve_scenario(cfg: dict) -> MissingScenario:
    """The 'scenario' section, whose keys are MissingScenario's fields, as
    a MissingScenario, which checks the values and supplies defaults."""
    _reject_unknown(cfg["scenario"], _SCENARIO_KEYS, "scenario")
    try:
        return MissingScenario(**cfg["scenario"])
    except ValueError as exc:
        raise ConfigError(f"bad scenario: {exc}") from exc


def resolve_fit_config(cfg: dict) -> FitConfig:
    """Build a FitConfig from the 'fit' section ('lambda' names the
    reconstruction-penalty weight; the dataclass field is `lam`)."""
    section = dict(cfg.get("fit", {}))
    if "lambda" in section:
        section["lam"] = section.pop("lambda")
    try:
        out = FitConfig(**section)
    except TypeError as exc:
        raise ConfigError(f"bad fit section: {exc}") from exc
    out.validate()
    return out


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    if args.out is not None:
        cfg["out_dir"] = args.out
    if not isinstance(cfg.get("out_dir"), str):
        raise ConfigError("output directory missing or not a path string: "
                          "set 'out_dir' in the config or pass --out")
    if args.seed is not None:
        cfg.setdefault("fit", {})["seed"] = args.seed
        if "scenario" in cfg:
            cfg["scenario"]["seed"] = args.seed
        if "synthetic" in cfg["data"]:
            cfg["data"]["synthetic"]["seed"] = args.seed
    return cfg


def _write_json(path: Path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _snapshot(cfg: dict, directory: Path) -> None:
    _write_json(directory / "config.json", cfg)


# ------------------------------------------------------------ dataset I/O


def _load_or_generate(cfg: dict) -> MultiViewDataset:
    data = cfg["data"]
    if "manifest" in data:
        return load_manifest(data["manifest"])
    spec = dict(data["synthetic"])
    try:
        return make_synthetic(**spec)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad synthetic spec: {exc}") from exc


def _dataset_dir(cfg: dict) -> Path:
    return Path(cfg["out_dir"]) / "dataset"


def _load_simulated(cfg: dict) -> tuple[MultiViewDataset, MaskMatrix]:
    droot = _dataset_dir(cfg)
    manifest = droot / "manifest.json"
    masks_path = droot / "masks.json"
    if not manifest.exists() or not masks_path.exists():
        raise ConfigError(
            f"no simulated dataset under {droot}; run 'simulate' first")
    ds = load_manifest(manifest)
    return ds, load_masks(masks_path, ds)


# -------------------------------------------------------------- commands


def cmd_simulate(cfg: dict) -> int:
    ds = _load_or_generate(cfg)
    if "scenario" in cfg:
        scenario = resolve_scenario(cfg)
        try:
            masked, masks = apply_missing(ds, scenario)
        except ValueError as exc:
            raise ConfigError(f"bad scenario: {exc}") from exc
    else:
        masked = ds
        masks = MaskMatrix.all_observed(ds)
    droot = _dataset_dir(cfg)
    save_dataset(masked, droot)
    save_masks(masks, masked.view_names, droot)
    _snapshot(cfg, droot)
    print(f"dataset written to {droot}")
    return 0


def _run_fit(cfg: dict, method: str, strict: bool) -> int:
    ds, masks = _load_simulated(cfg)
    fc = resolve_fit_config(cfg)
    t0 = time.perf_counter()
    _, state, trace = run_variant(method, ds, masks, fc,
                                  cfg["feature_ratios"][0])
    elapsed = time.perf_counter() - t0
    mroot = Path(cfg["out_dir"]) / "fit" / method
    save_state(state, fc, METHODS[method], mroot / "state")
    trace.to_csv(mroot / "trace.csv")
    _write_json(mroot / "fit_result.json", {
        "method": method,
        "converged": trace.converged,
        "iterations": trace.iterations,
        "objective_final": trace.rows[-1]["objective"],
        "message": trace.message,
        "timing": {"seconds": elapsed}})
    _snapshot(cfg, mroot)
    print(f"{method}: {trace.message}; state in {mroot}")
    if strict and not trace.converged:
        return 4
    return 0


def cmd_fit(cfg: dict, strict: bool) -> int:
    return _run_fit(cfg, cfg.get("method", "climfs"), strict)


def _load_fit(cfg: dict, method: str, ds) -> tuple[ModelState, FitConfig]:
    """`method`'s fitted state and settings, checked against `ds`."""
    state, fc, _ = load_state(Path(cfg["out_dir"]) / "fit" / method / "state")
    try:
        check_state(state, ds.n_samples, ds.dims, fc)
    except ConfigError as exc:
        raise ConfigError(
            f"the '{method}' fit does not match the dataset under "
            f"{_dataset_dir(cfg)} ({exc}); refit it") from exc
    return state, fc


def _evaluate_method(cfg: dict, method: str, ds) -> list[dict]:
    state, fc = _load_fit(cfg, method, ds)
    imputed = MultiViewDataset(views=[x.copy() for x in state.Xhat],
                               labels=ds.labels)
    rows = []
    for ratio in cfg["feature_ratios"]:
        sel = rank_features(state, ratio)
        t0 = time.perf_counter()
        report = evaluate_selection(imputed, sel, c=fc.c,
                                    runs=cfg["eval_runs"], seed=fc.seed)
        payload = report.to_dict()
        payload["method"] = method
        payload["selected"] = [s.tolist() for s in sel.selected]
        payload["timing"] = {"seconds": time.perf_counter() - t0}
        out = (Path(cfg["out_dir"]) / "eval" / method
               / f"report_r{ratio:g}.json")
        _write_json(out, payload)
        rows.append({"method": method, "ratio": ratio,
                     "acc_mean": report.acc_mean,
                     "nmi_mean": report.nmi_mean})
    _snapshot(cfg, Path(cfg["out_dir"]) / "eval" / method)
    return rows


def _evaluate_all(cfg: dict, methods) -> Path:
    """Evaluate every method's fit; returns the path of the summary CSV."""
    ds, _ = _load_simulated(cfg)
    if ds.labels is None:
        raise ConfigError("dataset has no labels; evaluation needs them")
    rows = []
    for method in methods:
        rows.extend(_evaluate_method(cfg, method, ds))
    rows.sort(key=lambda r: (r["method"], r["ratio"]))
    lines = ["method,ratio,acc_mean,nmi_mean"]
    for r in rows:
        lines.append(f"{r['method']},{r['ratio']:g},"
                     f"{r['acc_mean']:.17g},{r['nmi_mean']:.17g}")
    path = Path(cfg["out_dir"]) / "eval" / "summary.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def cmd_evaluate(cfg: dict) -> int:
    path = _evaluate_all(cfg, cfg.get("methods")
                         or [cfg.get("method", "climfs")])
    print(f"summary written to {path}")
    return 0


def cmd_diagnose(cfg: dict) -> int:
    ds, masks = _load_simulated(cfg)
    method = cfg.get("method", "climfs")
    state, _ = _load_fit(cfg, method, ds)
    result_path = Path(cfg["out_dir"]) / "fit" / method / "fit_result.json"
    if result_path.exists():
        try:
            result = json.loads(result_path.read_text())
        except (OSError, ValueError) as exc:  # JSONDecodeError included
            raise ConfigError(f"cannot read {result_path} ({exc}); "
                              f"refit it") from exc
        if not isinstance(result, dict):
            raise ConfigError(f"{result_path} is not a JSON object; refit it")
        if not result.get("converged", False):
            warnings.warn(f"diagnosing an unconverged '{method}' state",
                          stacklevel=1)
    report = diagnostics_report(state, masks, **cfg.get("diagnostics", {}))
    out = Path(cfg["out_dir"]) / "diagnose" / f"{method}.json"
    _write_json(out, report)
    _snapshot(cfg, out.parent)
    print(f"diagnostics written to {out}")
    return 0


def cmd_ablate(cfg: dict, strict: bool) -> int:
    worst = max([_run_fit(cfg, method, strict) for method in METHODS])
    path = _evaluate_all(cfg, METHODS)
    print(f"ablation summary written to {path}")
    return worst


# ------------------------------------------------------------------ main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="climfs",
        description="Joint feature selection and imputation experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (
            ("simulate", "write a masked dataset and its masks"),
            ("fit", "optimize one method on the simulated dataset"),
            ("evaluate", "score fitted methods with repeated k-means"),
            ("diagnose", "structural bound checks on a fitted state"),
            ("ablate", "fit and evaluate the full model and its variants")):
        p = sub.add_parser(name, help=descr)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None,
                       help="output directory (overrides config out_dir)")
        p.add_argument("--seed", type=int, default=None,
                       help="override fit, scenario, and generator seeds")
        if name in ("fit", "ablate"):
            p.add_argument("--strict", action="store_true",
                           help="exit 4 when the fit does not converge")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "fit":
            return cmd_fit(cfg, args.strict)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "diagnose":
            return cmd_diagnose(cfg)
        return cmd_ablate(cfg, args.strict)
    except (ConfigError, OSError) as exc:  # OSError: e.g. out_dir is a file
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
