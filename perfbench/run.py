"""climfs benchmark: seeded workloads timed end to end, traced per layer.

    python3 perfbench/run.py --workload converge-n400 --seed 0 --seconds 35 --trace 0

Run from anywhere inside a source tree that has `src/climfs` and
`BENCHMARK.json` at its root. The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` (fits run and fits that failed
a check) and `metrics`, the `end_to_end` metrics of BENCHMARK.json with
`--trace 0` or its `per_layer` metrics with `--trace 1`. Lines above it
give the environment, every metric with its unit, and any problem found.

`--trace 0` repeats the workload's batch of instances until `--seconds`
would be exceeded and reports per-instance medians averaged over the
batch; set-up time is the median over fresh interpreter processes.
`--trace 1` runs the batch's first instance once untraced and once with
spans around every public layer function, reports the per-layer figures of
the traced pass and its overhead, and writes the spans to perfbench/.work/.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads: small dense products at n <= 1000
# gain little from a second thread, and an idle-spinning one makes timings
# depend on whatever else shares the machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import ABLATION, WORKLOADS, Outcome, UnitFailure

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
# Fresh interpreters started to time set-up; the median is reported.
SETUP_PROBES = 5


# ---------------------------------------------------------------- set-up


def import_climfs(names) -> SimpleNamespace:
    """Import the workload's climfs modules from this tree's `src`."""
    sys.path.insert(0, str(SRC))
    for name in names:
        importlib.import_module(name)
    import climfs
    if Path(climfs.__file__).resolve().parent != (SRC / "climfs").resolve():
        raise RuntimeError(f"imported climfs from {climfs.__file__}, "
                           f"not from {SRC}")
    mods = SimpleNamespace(**{layer: sys.modules.get(f"climfs.{layer}")
                              for layer in spans.LAYERS})
    # Checks reload states through the untraced function.
    mods.load_state = mods.model.load_state
    return mods


def probe_setup(workload: str, seed: int) -> float:
    """Median wall time from starting an interpreter to the point where
    the workload's first timed call would begin."""
    values = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(seed), "--probe", "setup"],
            capture_output=True, text=True, timeout=120, check=True)
        values.append(float(out.stdout.split()[-1]) - t0)
    return statistics.median(values)


def probe_fit_import() -> int:
    """1 if a first fit in a fresh process imports scipy.optimize."""
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "converge-n400", "--probe", "fit-import"],
        capture_output=True, text=True, timeout=120, check=True)
    return int(out.stdout.split()[-1])


def _fit_imports_scipy_optimize() -> int:
    mods = import_climfs(("climfs.dataset", "climfs.model"))
    ds = mods.dataset.make_synthetic(n=30, views=2, clusters=3,
                                     informative=3, noise=3, seed=0)
    cfg = mods.model.FitConfig(k=4, c=3, max_iter=1)
    before = "scipy.optimize" in sys.modules
    mods.model.fit(ds, mods.dataset.MaskMatrix.all_observed(ds), cfg)
    return int(not before and "scipy.optimize" in sys.modules)


# ----------------------------------------------------------- environment


def _blas_threads():
    import numpy
    libdir = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(glob.glob(str(libdir / "*openblas*.so*"))):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS")


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "climfs").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas_name,
            "blas_threads": _blas_threads(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "git_commit": _git_commit(),
            "src_sha256": _src_digest()}


# ------------------------------------------------------------- measuring


def run_unit(wl, mods, inst, tracer=None) -> Outcome:
    try:
        return wl.run(mods, inst, tracer)
    except UnitFailure as exc:
        return Outcome(times={}, outputs={},
                       problems={f"fit{j}": [str(exc)]
                                 for j in range(wl.fits_per_unit)})


def measure(wl, mods, insts, seconds: float, reps: int | None = None,
            tracer=None) -> list[list[Outcome]]:
    """Run the batch repeatedly: `reps` times, or else while one more
    batch still fits in `seconds` (always at least once)."""
    out = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        out.append([run_unit(wl, mods, inst, tracer) for inst in insts])
        now = time.perf_counter()
        if reps is not None:
            if len(out) >= reps:
                return out
        elif (now - start) + (now - t0) > seconds:
            return out


def score(batches: list[list[Outcome]]) -> tuple[int, int, list[str]]:
    """Fits attempted, fits failed and problem messages. Every repeat of
    an instance must reproduce the outputs of its first run."""
    attempted = failed = 0
    messages = []
    for i in range(len(batches[0])):
        first = batches[0][i]
        for r, o in enumerate(batches):
            o = o[i]
            bad = {name for name, probs in o.problems.items() if probs}
            for name in sorted(bad):
                messages += [f"instance {i} run {r} {name}: {p}"
                             for p in o.problems[name]]
            if r and first.outputs and o.outputs:
                rerun = checks.compare_reruns(first.outputs, o.outputs)
                if rerun:
                    bad.add(next(iter(o.problems)))
                    messages += [f"instance {i} run {r}: {p}" for p in rerun]
            attempted += len(o.problems)
            failed += len(bad)
    return attempted, failed, messages


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _per_instance(batches, field: str, key: str) -> list[float]:
    """Per instance, the median over repeats of one timing or output."""
    out = []
    for i in range(len(batches[0])):
        vals = [getattr(b[i], field)[key] for b in batches
                if key in getattr(b[i], field)]
        if vals:
            out.append(statistics.median(vals))
    return out


def end_to_end(batches, setup_s: float) -> dict[str, float]:
    m = {"setup_s": setup_s}
    for key in ("fit_s", "pipeline_s"):
        m[key] = _mean(_per_instance(batches, "times", key))
    for key in ("iters", "acc", "nmi"):
        m[key] = _mean(_per_instance(batches, "outputs", key))
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def per_layer(tracer, untraced, traced, import_s: float,
              fit_import: int) -> dict[str, float]:
    """Per-layer figures of the traced pass, per instance traced."""
    count = len(traced[0])
    tot = tracer.totals()
    c = tracer.counts

    def calls(name):
        return tot.get(name, {}).get("calls", 0)

    def secs(name, key="s"):
        return tot.get(name, {}).get(key, 0.0) / count

    def frac(num, den):
        return num / den if den else 0.0

    m = {}
    ks = "numkit.ksparse_simplex_min"
    m[f"{ks}.calls"] = calls(ks) / count
    m[f"{ks}.s"] = secs(ks)
    m[f"{ks}.degenerate_frac"] = frac(c[f"{ks}.raised.NumericError"],
                                      calls(ks))
    for f in ("laplacian", "solve_scaled_sylvester", "simplex_qp"):
        m[f"numkit.{f}.s"] = secs(f"numkit.{f}")
    m["numkit.adam_step.calls"] = calls("numkit.adam_step") / count
    for g in ("model.update_S", "model.update_H"):
        m[f"{g}.s"] = secs(g)
        m[f"{g}.self_s"] = secs(g, "self_s")
        m[f"{g}.accept_frac"] = 1.0 - frac(c[f"{g}.skips"], c[f"{g}.columns"])
        m[f"{g}.perturbed"] = c[f"{g}.perturbed"] / count
    x = "model.update_Xhat"
    m[f"{x}.s"] = secs(x)
    m[f"{x}.self_s"] = secs(x, "self_s")
    m[f"{x}.fallback_frac"] = frac(c[f"{x}.fallbacks"], c[f"{x}.views"])
    m["model.update_W.s"] = secs("model.update_W")
    for b in ("model.update_Fv", "model.update_Fstar"):
        m[f"{b}.s"] = secs(b)
        m[f"{b}.backtracks"] = c[f"{b}.backtracks"] / count
    for f in ("update_alpha", "objective", "validate_state", "init_state",
              "save_state", "load_state", "rank_features"):
        m[f"model.{f}.s"] = secs(f"model.{f}")
    m["model.fit.other_s"] = tracer.fit_other_seconds() / count
    m["model.save_state.bytes"] = c["model.save_state.bytes"] / count
    for f in spans.TRACED["dataset"]:
        m[f"dataset.{f}.s"] = secs(f"dataset.{f}")
    m["dataset.bytes_written"] = c["dataset.bytes_written"] / count
    m["evaluation.kmeans.calls"] = calls("evaluation.kmeans") / count
    for f in ("kmeans", "evaluate_selection", "clustering_accuracy", "nmi"):
        m[f"evaluation.{f}.s"] = secs(f"evaluation.{f}")
    for v in ABLATION[1:]:
        m[f"baselines.{v}.s"] = secs(f"baselines.{v}")
        m[f"baselines.{v}.iters"] = c[f"baselines.{v}.iters"] / count
        m[f"baselines.{v}.acc"] = _mean(_per_instance(traced, "outputs",
                                                      f"acc.{v}"))
    for cmd in ("simulate", "fit", "evaluate", "ablate"):
        m[f"cli.{cmd}.s"] = secs(f"cli.{cmd}")
    m["setup.import_s"] = import_s
    m["setup.scipy_optimize_in_fit"] = fit_import
    fit_traced = _mean(_per_instance(traced, "times", "fit_s"))
    m["trace.fit_s"] = fit_traced
    m["trace.overhead_s"] = fit_traced - _mean(_per_instance(untraced, "times",
                                                             "fit_s"))
    m["trace.spans"] = len(tracer.names) / count
    return m


# ------------------------------------------------------------------ main


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0,
                   help="benchmark seed; picks the batch of instances")
    p.add_argument("--seconds", type=float, default=35.0,
                   help="measuring time of an untraced run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=("setup", "fit-import"),
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be nonnegative")
    return args


def report(spec: list[dict], values: dict[str, float]) -> dict:
    names = [m["name"] for m in spec]
    if set(names) != set(values):
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(names) - set(values))}, extra "
            f"{sorted(set(values) - set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "climfs" / "__init__.py").is_file():
        print(f"no climfs sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe == "fit-import":
        print(_fit_imports_scipy_optimize())
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    mods = import_climfs(wl.imports)
    import_s = time.perf_counter() - t0
    insts = wl.prepare(mods, args.seed, WORK / f"{wl.name}-seed{args.seed}")
    if args.probe == "setup":
        print(repr(time.time()))
        return 0

    if args.trace:
        # The first instance of the batch, once untraced and once traced.
        insts = insts[:1]
    print(f"workload {wl.name} seed {args.seed} instances "
          f"{[i.seed for i in insts]} trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        untraced = measure(wl, mods, insts, args.seconds, reps=1)
        tracer = spans.Tracer()
        tracer.install({k: v for k, v in vars(mods).items()
                        if k in spans.LAYERS and v is not None})
        try:
            traced = measure(wl, mods, insts, args.seconds, reps=1,
                             tracer=tracer)
        finally:
            tracer.restore()
        tracer.write_csv(WORK / f"spans-{wl.name}-seed{args.seed}.csv")
        batches = untraced + traced
        values = per_layer(tracer, untraced, traced, import_s,
                           probe_fit_import())
        metrics = report(spec["per_layer"], values)
        unbounded = {}
    else:
        setup_s = probe_setup(wl.name, args.seed)
        batches = measure(wl, mods, insts, args.seconds)
        metrics = report(spec["end_to_end"], end_to_end(batches, setup_s))
        # Printed but not in BENCHMARK.json: its seed-to-seed spread
        # exceeds the largest bound (perfbench/README.md).
        unbounded = {"eval_s": (_mean(_per_instance(batches, "times",
                                                    "eval_s")), "s")}

    attempted, failed, messages = score(batches)
    print(f"runs of the batch: {len(batches)}")
    for name, rec in metrics.items():
        print(f"  {name:<44} {rec['value']:>16.6g} {rec['unit']}")
    for name, (value, unit) in unbounded.items():
        print(f"  {name:<44} {value:>16.6g} {unit} (not bounded)")
    print(f"  {'fail_frac':<44} {failed / attempted:>16.6g} "
          f"({failed} of {attempted} fits failed a check)")
    for msg in messages:
        print(f"problem: {msg}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
