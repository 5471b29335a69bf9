"""Multi-view data containers, CSV manifests, and missing-data simulation.

Conventions
-----------
* A view is a (d_v, n) float64 matrix whose *columns* are samples.
* Masks share the view's shape with entries in {0, 1}; 1 marks observed.
* CSV files carry no header; floats are written with 17 significant
  digits so that a save/load round trip is bit-exact.
* All randomness flows through a numpy ``default_rng`` seeded explicitly.
"""

from __future__ import annotations

import enum
import json
import numbers
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from climfs.errors import ConfigError

CSV_FLOAT_FMT = "%.17g"


class ScenarioKind(str, enum.Enum):
    """Supported missing-data regimes."""

    VIEW = "view"          # whole views vanish for selected samples
    VARIABLE = "variable"  # individual entries vanish per view
    MIXED = "mixed"        # view removal, then entry removal on the rest


@dataclass
class MissingScenario:
    """Simulation request: which regime, how much, and the seed.

    `kind` names a ScenarioKind, `delta` is a real number in (0, 1) and
    `seed` a non-negative integer; numpy scalars count, booleans do not.
    Any other value is a ValueError: nothing is rounded or converted.
    """

    kind: ScenarioKind = ScenarioKind.MIXED
    delta: float = 0.3
    seed: int = 0

    def __post_init__(self) -> None:
        self.kind = ScenarioKind(self.kind)  # ValueError unless a kind name
        if (isinstance(self.delta, bool) or not isinstance(
                self.delta, numbers.Real) or not 0.0 < self.delta < 1.0):
            raise ValueError(f"delta must lie in (0, 1), got {self.delta!r}")
        if (isinstance(self.seed, bool) or not isinstance(
                self.seed, numbers.Integral) or self.seed < 0):
            raise ValueError(f"seed must be a non-negative integer, got "
                             f"{self.seed!r}")


@dataclass
class MultiViewDataset:
    """Aligned views of one sample set, with optional cluster labels."""

    views: list[np.ndarray]
    labels: np.ndarray | None = None
    view_names: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.views:
            raise ValueError("need at least one view")
        self.views = [np.ascontiguousarray(v, dtype=float) for v in self.views]
        n = self.views[0].shape[1]
        for i, v in enumerate(self.views):
            if v.ndim != 2:
                raise ValueError(f"view {i} is not a matrix")
            if v.shape[1] != n:
                raise ValueError(
                    f"view {i} has {v.shape[1]} samples, expected {n}")
            if not np.all(np.isfinite(v)):
                raise ValueError(f"view {i} contains non-finite entries")
        if not self.view_names:
            self.view_names = [f"view{i}" for i in range(len(self.views))]
        if len(self.view_names) != len(self.views):
            raise ValueError("one name per view required")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int)
            if self.labels.shape != (n,):
                raise ValueError("labels must be one integer per sample")
            if self.labels.min(initial=0) < 0:
                raise ValueError("labels must be nonnegative")

    @property
    def n_samples(self) -> int:
        return self.views[0].shape[1]

    @property
    def n_views(self) -> int:
        return len(self.views)

    @property
    def dims(self) -> list[int]:
        return [v.shape[0] for v in self.views]


@dataclass
class MaskMatrix:
    """Observation masks, one 0/1 matrix per view."""

    masks: list[np.ndarray]

    def __post_init__(self) -> None:
        self.masks = [np.ascontiguousarray(m, dtype=float) for m in self.masks]
        for i, m in enumerate(self.masks):
            if m.ndim != 2:
                raise ValueError(f"mask {i} is not a matrix")
            if not np.isin(m, (0.0, 1.0)).all():
                raise ValueError(f"mask {i} has entries outside {{0, 1}}")

    @classmethod
    def all_observed(cls, ds: MultiViewDataset) -> "MaskMatrix":
        return cls([np.ones_like(v) for v in ds.views])

    def check_against(self, ds: MultiViewDataset) -> None:
        if len(self.masks) != ds.n_views:
            raise ValueError("mask/view count mismatch")
        for m, v in zip(self.masks, ds.views):
            if m.shape != v.shape:
                raise ValueError("mask/view shape mismatch")


def _round_count(x: float) -> int:
    """Deterministic round-half-up used for all simulated counts."""
    return int(np.floor(x + 0.5))


def _check_no_empty_samples(masks: list[np.ndarray], context: str) -> None:
    n = masks[0].shape[1]
    alive = np.zeros(n, dtype=bool)
    for m in masks:
        alive |= m.any(axis=0)
    if not alive.all():
        dead = int(np.flatnonzero(~alive)[0])
        raise ValueError(
            f"{context}: sample {dead} would lose every view; lower delta "
            f"or change the seed")


def apply_missing(ds: MultiViewDataset,
                  scenario: MissingScenario) -> tuple[MultiViewDataset, MaskMatrix]:
    """Mask `ds` according to `scenario`; returns (masked data, masks).

    Counts are exact under round-half-up:

    * view: exactly round(delta * n) samples each lose one whole view,
      chosen uniformly (requires >= 2 views).
    * variable: each view loses round(delta * d_v * n_kept) entries,
      uniformly without replacement, from the columns of the n_kept
      samples that have the view (all n of them here).
    * mixed: the view stage, then the variable stage.

    Masked entries are zeroed in the returned dataset; observed entries
    are copied verbatim. Raises ValueError if any sample would end up with
    no observed view at all.
    """
    rng = np.random.default_rng(scenario.seed)
    n, V = ds.n_samples, ds.n_views
    masks = [np.ones_like(v) for v in ds.views]

    if scenario.kind in (ScenarioKind.VIEW, ScenarioKind.MIXED):
        if V < 2:
            raise ValueError("view removal needs at least two views")
        m = _round_count(scenario.delta * n)
        hit = rng.choice(n, size=m, replace=False)
        dropped_view = rng.integers(0, V, size=m)
        for sample, view in zip(hit, dropped_view):
            masks[view][:, sample] = 0.0

    if scenario.kind in (ScenarioKind.VARIABLE, ScenarioKind.MIXED):
        for mask in masks:
            keep = np.flatnonzero(mask.any(axis=0))
            d_v = mask.shape[0]
            cnt = _round_count(scenario.delta * d_v * keep.shape[0])
            flat = rng.choice(d_v * keep.shape[0], size=cnt, replace=False)
            rows, cols = np.unravel_index(flat, (d_v, keep.shape[0]))
            mask[rows, keep[cols]] = 0.0

    _check_no_empty_samples(masks, f"{scenario.kind.value} delta={scenario.delta}")

    masked_views = [np.where(m == 1.0, v, 0.0) for v, m in zip(ds.views, masks)]
    masked = MultiViewDataset(views=masked_views, labels=ds.labels,
                              view_names=list(ds.view_names))
    return masked, MaskMatrix(masks)


def mean_impute(view: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Fill masked entries with the per-feature mean of observed entries.

    A feature row with no observed entry is filled with zeros and a
    warning is emitted.
    """
    view = np.asarray(view, dtype=float)
    mask = np.asarray(mask, dtype=float)
    if view.shape != mask.shape:
        raise ValueError("view/mask shape mismatch")
    counts = mask.sum(axis=1)
    sums = (view * mask).sum(axis=1)
    means = np.zeros(view.shape[0])
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen]
    if not seen.all():
        warnings.warn(
            f"{int((~seen).sum())} feature row(s) fully missing; imputing zeros",
            stacklevel=2)
    out = view.copy()
    miss = mask == 0.0
    out[miss] = np.broadcast_to(means[:, None], view.shape)[miss]
    return out


# ------------------------------------------------------------- CSV + JSON


def _load_csv_matrix(path: Path) -> np.ndarray:
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2, dtype=float)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix CSV {path}: {exc}") from exc
    return arr


def _read_index(path: Path, key: str,
                extra: tuple[str, ...] = ()) -> tuple[dict, list]:
    """Read a JSON index whose `key` lists {"name": str, "path": str}
    objects; returns the index and its (name, path) pairs, paths resolved
    against the index's directory. Any other shape, or a top-level key
    besides `key` and `extra`, is a ConfigError."""
    try:
        spec = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read index {path}: {exc}") from exc
    entries = spec.get(key) if isinstance(spec, dict) else None
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and set(e) == {"name", "path"}
            and all(isinstance(x, str) for x in e.values()) for e in entries):
        raise ConfigError(f"index {path}: '{key}' must be a list of objects "
                          f"with exactly a name and a path string")
    unknown = set(spec) - {key, *extra}
    if unknown:
        raise ConfigError(f"index {path}: unknown keys {sorted(unknown)}")
    return spec, [(e["name"], path.parent / e["path"]) for e in entries]


def load_manifest(path: str | Path) -> MultiViewDataset:
    """Load a dataset described by a manifest JSON.

    Format: {"views": [{"name": str, "path": csv}, ...],
             "labels": csv-path-or-null}. View CSVs are (d_v, n) with no
    header; the labels CSV is a single integer column of length n.
    Relative paths resolve against the manifest's directory.
    """
    path = Path(path)
    spec, entries = _read_index(path, "views", ("labels",))
    names = [name for name, _ in entries]
    views = [_load_csv_matrix(p) for _, p in entries]
    labels, labels_path = None, spec.get("labels")
    if not isinstance(labels_path, (str, type(None))):
        raise ConfigError(f"manifest {path}: 'labels' must be a path string "
                          f"or null")
    if labels_path:
        raw = _load_csv_matrix(path.parent / labels_path).reshape(-1)
        labels = raw.astype(int)
        if not np.array_equal(raw, labels):
            raise ConfigError("labels CSV must contain integers")
    try:
        return MultiViewDataset(views=views, labels=labels, view_names=names)
    except ValueError as exc:
        raise ConfigError(f"manifest {path}: {exc}") from exc


def _check_view_names(names: list[str]) -> None:
    """A ConfigError unless every view name gives files of its own in a
    dataset directory, where view v writes <name>.csv and mask_<name>.csv
    next to labels.csv: a name must be a non-empty string without a path
    separator, and no two of those file names may coincide."""
    files = [f"{x}.csv" for x in names] + [f"mask_{x}.csv" for x in names]
    if not all(isinstance(x, str) and x and not set(x) & set("/\\\0")
               for x in names):
        raise ConfigError(f"view names {names} must be non-empty and hold "
                          f"no path separator")
    if len(set(files + ["labels.csv"])) <= len(files):
        raise ConfigError(f"view names {names} give two dataset files one "
                          f"name: view files are <name>.csv and "
                          f"mask_<name>.csv, next to labels.csv")


def save_dataset(ds: MultiViewDataset, out_dir: str | Path) -> Path:
    """Write view/label CSVs plus manifest.json to `out_dir`; returns the
    manifest path. Floats use 17 significant digits (bit-exact reload).
    View names that `_check_view_names` rejects are a ConfigError, raised
    before anything is written."""
    _check_view_names(ds.view_names)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, v in zip(ds.view_names, ds.views):
        fname = f"{name}.csv"
        np.savetxt(out / fname, v, fmt=CSV_FLOAT_FMT, delimiter=",")
        entries.append({"name": name, "path": fname})
    labels_entry = None
    if ds.labels is not None:
        np.savetxt(out / "labels.csv", ds.labels[:, None], fmt="%d", delimiter=",")
        labels_entry = "labels.csv"
    manifest = {"views": entries, "labels": labels_entry}
    mpath = out / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return mpath


def save_masks(masks: MaskMatrix, view_names: list[str],
               out_dir: str | Path) -> Path:
    """Write per-view 0/1 mask CSVs plus masks.json; returns the index
    path. View names are checked as in `save_dataset`."""
    _check_view_names(view_names)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for name, m in zip(view_names, masks.masks):
        fname = f"mask_{name}.csv"
        # the bytes np.savetxt(fmt="%d", delimiter=",") writes: each
        # digit followed by a comma, the last of a row by a newline
        text = np.full((m.shape[0], 2 * m.shape[1]), ord(","), np.uint8)
        text[:, 0::2] = m.astype(np.uint8) + ord("0")
        text[:, -1:] = ord("\n")
        (out / fname).write_bytes(text.tobytes())
        entries.append({"name": name, "path": fname})
    mpath = out / "masks.json"
    mpath.write_text(json.dumps({"masks": entries}, indent=2, sort_keys=True) + "\n")
    return mpath


def load_masks(path: str | Path,
               ds: MultiViewDataset | None = None) -> MaskMatrix:
    """Load masks written by `save_masks`. Given the dataset `ds`, masks
    that do not name its views in order, or do not match them in count
    and shape, are a ConfigError."""
    path = Path(path)
    entries = _read_index(path, "masks")[1]
    try:
        masks = MaskMatrix([_load_csv_matrix(p) for _, p in entries])
        if ds is not None:
            masks.check_against(ds)
            if [e[0] for e in entries] != ds.view_names:
                raise ValueError(f"views not in the order {ds.view_names}")
        return masks
    except ValueError as exc:
        raise ConfigError(f"mask index {path}: {exc}") from exc


# ------------------------------------------------------------- synthetic


def make_synthetic(n: int, views: int, clusters: int, informative: int,
                   noise: int, separation: float = 3.0,
                   noise_scale: float = 1.0, seed: int = 0) -> MultiViewDataset:
    """Planted-cluster generator used by tests and the CLI.

    Each view stacks `informative` features carrying the cluster structure
    (unit-norm random centers scaled by `separation`, plus unit Gaussian
    jitter) on top of `noise` pure-noise features drawn N(0, noise_scale).
    Cluster sizes are as balanced as n allows; sample order is shuffled.
    The counts and `seed` must be integers, `separation` and `noise_scale`
    real numbers (numpy scalars count, booleans do not), or ValueError.
    """
    counts = {"n": n, "views": views, "clusters": clusters,
              "informative": informative, "noise": noise, "seed": seed}
    scales = {"separation": separation, "noise_scale": noise_scale}
    for kind, args in ((numbers.Integral, counts), (numbers.Real, scales)):
        for name, value in args.items():
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {kind.__name__.lower()}, "
                                 f"got {value!r}")
    if min(n, views, clusters, informative) < 1 or noise < 0:
        raise ValueError("n, views, clusters, informative must be >= 1, noise >= 0")
    if clusters > n:
        raise ValueError("more clusters than samples")
    rng = np.random.default_rng(seed)
    base = np.arange(n) % clusters
    labels = rng.permutation(base)
    view_list = []
    for _ in range(views):
        centers = rng.normal(size=(clusters, informative))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        centers *= separation
        signal = centers[labels].T + rng.normal(size=(informative, n))
        noise_block = rng.normal(scale=noise_scale, size=(noise, n))
        view_list.append(np.vstack([signal, noise_block]))
    return MultiViewDataset(views=view_list, labels=labels)
