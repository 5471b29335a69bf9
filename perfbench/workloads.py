"""The three climfs workloads: seeded inputs, one timed unit, its checks.

Every workload fits the planted-cluster family of the acceptance gates:
two views of 10 informative and 40 noise features (separation 3.0, noise
scale 0.6), mixed missingness at delta 0.5, k=6, c=3, lam=beta=1,
tol=1e-5, default guards and per-update validation. The benchmark seed
picks a fixed batch of instances; every instance is generated from its
own seed and the program sees only the generated inputs.

A unit runs one instance and returns its timings (seconds), the outputs
that must repeat bit for bit when the same instance runs again, and the
problems the checks found, per fit.
"""

from __future__ import annotations

import csv
import io
import json
import shutil
import statistics
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import checks

SYNTH = {"views": 2, "clusters": 3, "informative": 10, "noise": 40,
         "separation": 3.0, "noise_scale": 0.6}
DELTA = 0.5
FIT = {"lam": 1.0, "beta": 1.0, "k": 6, "c": 3, "tol": 1e-5}
RATIO = 0.2
EVAL_RUNS = 50
# Iteration cap of the converge-n400 and ablate-n150 fits, which run to
# tol. At n=400 the full model needs 63-110 iterations and at n=150 the
# full model and climfs-ii need 54-135, so the cap stops nearly every such
# fit and climfs-iii (which never reaches tol) always: the work per
# instance is nearly fixed, and a change that reaches tol sooner still
# shows as fewer iterations. Without the cap, the spread over ten
# benchmark seeds of iters on converge-n400 was 0.20 with five instances
# per seed, and of fit_s on ablate-n150 0.27.
MAX_ITER = 60
PIPELINE_SWEEPS = 5
# The library evaluation takes ~0.08 s; its time is the median of this
# many identical repeats, so one scheduler hiccup does not decide it.
EVAL_REPEATS = 5
ABLATION = ("climfs", "climfs-i", "climfs-ii", "climfs-iii")


class UnitFailure(Exception):
    """A unit could not produce outputs (exception or non-zero exit)."""


@dataclass
class Outcome:
    """One unit: timings, outputs that must repeat, problems per fit."""

    times: dict[str, float]
    outputs: dict[str, float]
    problems: dict[str, list[str]] = field(default_factory=dict)


@dataclass
class Instance:
    seed: int
    n: int
    masked: object          # MultiViewDataset the program must preserve
    masks: object           # MaskMatrix
    labels: object
    config: Path | None = None
    out: Path | None = None


def instance_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the `count` instances a benchmark seed stands for."""
    return [seed * count + i for i in range(count)]


def generate(mods, n: int, seed: int) -> Instance:
    ds = mods.dataset.make_synthetic(n=n, seed=seed, **SYNTH)
    scenario = mods.dataset.MissingScenario("mixed", DELTA, seed)
    masked, masks = mods.dataset.apply_missing(ds, scenario)
    return Instance(seed=seed, n=n, masked=masked, masks=masks,
                    labels=ds.labels)


def _fit_section(seed: int, max_iter: int, tol: float) -> dict:
    return {"lambda": FIT["lam"], "beta": FIT["beta"], "k": FIT["k"],
            "c": FIT["c"], "max_iter": max_iter, "tol": tol, "seed": seed}


def write_config(inst: Instance, work: Path, max_iter: int,
                 tol: float) -> None:
    """Config of a CLI instance: the same generator spec and scenario as
    `generate`, so `simulate` writes exactly the arrays the checks hold."""
    inst.out = work / f"n{inst.n}-seed{inst.seed}"
    inst.config = work / f"n{inst.n}-seed{inst.seed}.json"
    cfg = {"data": {"synthetic": {"n": inst.n, "seed": inst.seed, **SYNTH}},
           "scenario": {"kind": "mixed", "delta": DELTA, "seed": inst.seed},
           "fit": _fit_section(inst.seed, max_iter, tol),
           "feature_ratios": [RATIO], "eval_runs": EVAL_RUNS,
           "out_dir": str(inst.out)}
    work.mkdir(parents=True, exist_ok=True)
    inst.config.write_text(json.dumps(cfg, indent=2) + "\n")


# ------------------------------------------------------------- helpers


def _state_problems(inst: Instance, state) -> list[str]:
    return (checks.check_graphs(list(state.S) + [state.H], FIT["k"])
            + checks.check_observed(state.Xhat, inst.masked.views,
                                    inst.masks.masks))


def _cli(mods, tracer, command: str, config: Path) -> float:
    """Run one `climfs` subcommand in process; returns its wall time."""
    log = io.StringIO()
    span = tracer.span(f"cli.{command}") if tracer else nullcontext()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(log), redirect_stderr(log), span:
            code = mods.cli.main([command, "--config", str(config)])
    except Exception as exc:  # noqa: BLE001 - reported as a failed unit
        raise UnitFailure(f"climfs {command} raised {exc!r}") from exc
    seconds = time.perf_counter() - t0
    if code != 0:
        raise UnitFailure(f"climfs {command} exited {code}: "
                          f"{log.getvalue().strip()[-400:]}")
    return seconds


def _read_trace(path: Path) -> list[dict]:
    with path.open() as fh:
        return list(csv.DictReader(fh))


def _summary(out: Path) -> dict[str, dict]:
    with (out / "eval" / "summary.csv").open() as fh:
        return {r["method"]: r for r in csv.DictReader(fh)}


# ----------------------------------------------------------- workloads


class Workload:
    name: str
    n: int
    instances: int
    # climfs modules the workload calls, imported before the first timed call
    imports: tuple[str, ...]
    fits_per_unit: int = 1

    def prepare(self, mods, seed: int, work: Path) -> list[Instance]:
        return [generate(mods, self.n, s)
                for s in instance_seeds(seed, self.instances)]

    def run(self, mods, inst: Instance, tracer=None) -> Outcome:
        raise NotImplementedError


class Converge(Workload):
    """Library fit of the full model to tol (capped), then ranking and
    scoring."""

    name = "converge-n400"
    n = 400
    instances = 5
    imports = ("climfs.dataset", "climfs.model", "climfs.evaluation")

    def run(self, mods, inst, tracer=None):
        cfg = mods.model.FitConfig(seed=inst.seed, max_iter=MAX_ITER,
                                   **FIT)
        t0 = time.perf_counter()
        state, trace = mods.model.fit(inst.masked, inst.masks, cfg)
        fit_s = time.perf_counter() - t0
        evals, reports = [], []
        for _ in range(1 if tracer else EVAL_REPEATS):
            t0 = time.perf_counter()
            sel = mods.model.rank_features(state, RATIO)
            imputed = mods.dataset.MultiViewDataset(views=state.Xhat,
                                                    labels=inst.labels)
            reports.append(mods.evaluation.evaluate_selection(
                imputed, sel, c=cfg.c, runs=EVAL_RUNS, seed=cfg.seed))
            evals.append(time.perf_counter() - t0)
        report = reports[0]
        problems = (checks.check_trace(trace.rows)
                    + _state_problems(inst, state))
        if any(r.to_dict() != report.to_dict() for r in reports):
            problems.append("repeated evaluation gave different scores")
        eval_s = statistics.median(evals)
        return Outcome(
            times={"fit_s": fit_s, "eval_s": eval_s,
                   "pipeline_s": fit_s + eval_s},
            outputs={"iters": trace.iterations,
                     "objective": trace.rows[-1]["objective"],
                     "acc": report.acc_mean, "nmi": report.nmi_mean},
            problems={"climfs": problems})


class Pipeline(Workload):
    """`climfs simulate -> fit -> evaluate` with a fixed sweep count."""

    name = "pipeline-n1000"
    n = 1000
    instances = 6
    imports = ("climfs.cli",)

    def prepare(self, mods, seed, work):
        insts = super().prepare(mods, seed, work)
        for inst in insts:
            write_config(inst, work, PIPELINE_SWEEPS, 1e-12)
        return insts

    def run(self, mods, inst, tracer=None):
        shutil.rmtree(inst.out, ignore_errors=True)
        times = {c: _cli(mods, tracer, c, inst.config)
                 for c in ("simulate", "fit", "evaluate")}
        fit_dir = inst.out / "fit" / "climfs"
        result = json.loads((fit_dir / "fit_result.json").read_text())
        state, _, _ = mods.load_state(fit_dir / "state")
        problems = (checks.check_trace(_read_trace(fit_dir / "trace.csv"),
                                       iterations=PIPELINE_SWEEPS)
                    + _state_problems(inst, state))
        row = _summary(inst.out)["climfs"]
        shutil.rmtree(inst.out)
        return Outcome(
            times={"fit_s": times["fit"], "eval_s": times["evaluate"],
                   "pipeline_s": sum(times.values())},
            outputs={"iters": result["iterations"],
                     "objective": result["objective_final"],
                     "acc": float(row["acc_mean"]),
                     "nmi": float(row["nmi_mean"])},
            problems={"climfs": problems})


class Ablate(Workload):
    """`climfs simulate -> ablate`: the full model and three variants."""

    name = "ablate-n150"
    n = 150
    instances = 5
    imports = ("climfs.cli",)
    fits_per_unit = len(ABLATION)

    def prepare(self, mods, seed, work):
        insts = super().prepare(mods, seed, work)
        for inst in insts:
            write_config(inst, work, MAX_ITER, FIT["tol"])
        return insts

    def run(self, mods, inst, tracer=None):
        shutil.rmtree(inst.out, ignore_errors=True)
        sim = _cli(mods, tracer, "simulate", inst.config)
        abl = _cli(mods, tracer, "ablate", inst.config)
        summary = _summary(inst.out)
        times = {"fit_s": 0.0, "eval_s": 0.0, "pipeline_s": sim + abl}
        outputs = {"acc": float(summary["climfs"]["acc_mean"]),
                   "nmi": float(summary["climfs"]["nmi_mean"]), "iters": 0}
        problems = {}
        for method in ABLATION:
            fit_dir = inst.out / "fit" / method
            result = json.loads((fit_dir / "fit_result.json").read_text())
            report = json.loads((inst.out / "eval" / method
                                 / f"report_r{RATIO:g}.json").read_text())
            times["fit_s"] += result["timing"]["seconds"]
            times["eval_s"] += report["timing"]["seconds"]
            outputs["iters"] += result["iterations"]
            outputs[f"objective.{method}"] = result["objective_final"]
            outputs[f"acc.{method}"] = float(summary[method]["acc_mean"])
            state, _, _ = mods.load_state(fit_dir / "state")
            problems[method] = (
                checks.check_trace(_read_trace(fit_dir / "trace.csv"))
                + _state_problems(inst, state))
        shutil.rmtree(inst.out)
        return Outcome(times=times, outputs=outputs, problems=problems)


WORKLOADS = {w.name: w for w in (Converge(), Pipeline(), Ablate())}
