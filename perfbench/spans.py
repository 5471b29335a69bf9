"""Spans around the public functions of each climfs layer, from outside.

`Tracer.install` replaces a function at every climfs module attribute
that holds it (the name its callers look it up through at call time) with
a wrapper that records a span: name, start, end and the enclosing span.
Spans stay in memory until `write_csv`. Counters the layers hand back
(guard skips, backtracks, bytes written) are added up by per-function
hooks. `restore` puts the original functions back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np

LAYERS = ("numkit", "dataset", "model", "evaluation", "baselines", "cli")

# Functions traced per defining module.
TRACED = {
    "numkit": ("ksparse_simplex_min", "laplacian", "solve_scaled_sylvester",
               "simplex_qp", "adam_step"),
    "dataset": ("make_synthetic", "apply_missing", "save_dataset",
                "load_manifest", "save_masks", "load_masks"),
    "model": ("init_state", "update_W", "update_Fv", "update_Fstar",
              "update_S", "update_H", "update_alpha", "update_Xhat",
              "objective", "validate_state", "fit", "rank_features",
              "save_state", "load_state"),
    "evaluation": ("kmeans", "clustering_accuracy", "nmi",
                   "evaluate_selection"),
    "baselines": ("run_variant",),
}

# Direct children of a fit span; the rest of the span is `model.fit.other`.
FIT_PARTS = ("model.init_state", "model.update_W", "model.update_Fv",
             "model.update_Fstar", "model.update_S", "model.update_H",
             "model.update_alpha", "model.update_Xhat", "model.objective",
             "model.validate_state")


def _files_bytes(index: Path, key: str) -> int:
    """Size of a JSON index written by climfs plus the files it lists."""
    spec = json.loads(index.read_text())
    total = index.stat().st_size
    for entry in spec[key]:
        total += (index.parent / entry["path"]).stat().st_size
    if spec.get("labels"):
        total += (index.parent / spec["labels"]).stat().st_size
    return total


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir() if p.is_file())


def _guard_hook(skips: str, perturbed: str, per_view: bool):
    def hook(tr, args, result):
        state = args[0]
        cols = state.n_samples * (state.n_views if per_view else 1)
        name = "model.update_S" if per_view else "model.update_H"
        tr.counts[f"{name}.columns"] += cols
        tr.counts[f"{name}.skips"] += result[skips]
        tr.counts[f"{name}.perturbed"] += result[perturbed]
    return hook


def _xhat_hook(tr, args, result):
    tr.counts["model.update_Xhat.views"] += args[0].n_views
    tr.counts["model.update_Xhat.fallbacks"] += result["xhat_fallbacks"]


def _backtrack_hook(name: str, key: str):
    def hook(tr, args, result):
        tr.counts[f"{name}.backtracks"] += result[key]
    return hook


def _bytes_hook(key: str, measure):
    def hook(tr, args, result):
        tr.counts[key] += measure(result)
    return hook


def _variant_hook(tr, args, result):
    kind = getattr(args[0], "value", args[0])
    tr.counts[f"baselines.{kind}.iters"] += result[2].iterations


HOOKS = {
    "model.update_S": _guard_hook("s_guard_skips", "s_perturbed", True),
    "model.update_H": _guard_hook("h_guard_skips", "h_perturbed", False),
    "model.update_Xhat": _xhat_hook,
    "model.update_Fv": _backtrack_hook("model.update_Fv", "fv_backtracks"),
    "model.update_Fstar": _backtrack_hook("model.update_Fstar",
                                          "fstar_backtracks"),
    "model.save_state": _bytes_hook("model.save_state.bytes", _dir_bytes),
    "dataset.save_dataset": _bytes_hook(
        "dataset.bytes_written", lambda out: _files_bytes(out, "views")),
    "dataset.save_masks": _bytes_hook(
        "dataset.bytes_written", lambda out: _files_bytes(out, "masks")),
    "baselines.run_variant": _variant_hook,
}


def _variant_name(args) -> str:
    return f"baselines.{getattr(args[0], 'value', args[0])}"


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str):
        hook = HOOKS.get(name)
        named = name == "baselines.run_variant"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(_variant_name(args) if named else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{self.names[idx]}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                self._close(idx)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    # ------------------------------------------------------ patching

    def install(self, modules: dict) -> None:
        """Wrap every function in TRACED at each attribute of `modules`
        (layer name -> imported module) that holds it; layers missing from
        `modules` are not traced."""
        for layer, funcs in TRACED.items():
            home = modules.get(layer)
            if home is None:
                continue
            for func in funcs:
                original = getattr(home, func)
                wrapped = self._wrap(original, f"{layer}.{func}")
                for mod in modules.values():
                    for attr, val in list(vars(mod).items()):
                        if val is original:
                            self._patched.append((mod, attr, val))
                            setattr(mod, attr, wrapped)

    def restore(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    # ----------------------------------------------------- summaries

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        starts = np.array(self.starts)
        dur = np.array(self.ends) - starts
        parents = np.array(self.parents, dtype=np.int64)
        child = np.zeros(len(dur))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            rec = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["s"] += float(dur[i])
            rec["self_s"] += float(dur[i] - child[i])
        return out

    def fit_other_seconds(self) -> float:
        """Time inside fit spans not covered by block, objective,
        validation and init spans."""
        dur = np.array(self.ends) - np.array(self.starts)
        fit_ids = {i for i, n in enumerate(self.names) if n == "model.fit"}
        covered = sum(float(dur[i]) for i, (n, p) in
                      enumerate(zip(self.names, self.parents))
                      if p in fit_ids and n in FIT_PARTS)
        return sum(float(dur[i]) for i in fit_ids) - covered

    def write_csv(self, path: Path) -> None:
        """Write every span as id,name,start,end,parent (seconds on the
        perf_counter clock)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write("id,name,start,end,parent\n")
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                 self.ends, self.parents)):
                fh.write(f"{i},{n},{s:.9f},{e:.9f},{p}\n")

