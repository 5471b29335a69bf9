"""Reduced models for controlled comparisons.

`run_variant` fits any of them by `VariantKind`. The two-stage baseline
imputes first (per-view means) and then runs the factorization-based
selection with imputation frozen. The three ablation variants each switch
off one coupled component of the full model:

* variant I drops adaptive imputation (masked entries stay mean-imputed),
* variant II drops the consensus cluster-structure regularizer on F*,
* variant III freezes the similarity graphs and view weights at their
  initial values and removes their objective terms.

Every reduced run uses the same fit loop and therefore inherits the
monotone trace and the constraint suite of the full model.
"""

from __future__ import annotations

import enum

from climfs.dataset import MaskMatrix, MultiViewDataset
from climfs.model import (Components, FitConfig, FitTrace, ModelState,
                          SelectionResult, fit, rank_features)


class VariantKind(str, enum.Enum):
    TWO_STAGE = "two-stage"
    CLIMFS_I = "climfs-i"
    CLIMFS_II = "climfs-ii"
    CLIMFS_III = "climfs-iii"


def variant_components(kind: VariantKind) -> Components:
    """Component toggles for a reduced model.

    The two-stage baseline shares variant I's reduction: mean imputation
    followed by selection with imputation frozen is operationally the
    same computation, which also makes the two coincide on fully observed
    data by construction.
    """
    kind = VariantKind(kind)
    if kind in (VariantKind.TWO_STAGE, VariantKind.CLIMFS_I):
        return Components(adaptive_imputation=False)
    if kind == VariantKind.CLIMFS_II:
        return Components(cluster_structure=False)
    return Components(graph_learning=False)


def run_variant(kind: VariantKind, ds_masked: MultiViewDataset,
                masks: MaskMatrix, cfg: FitConfig, ratio: float = 0.2,
                ) -> tuple[SelectionResult, ModelState, FitTrace]:
    """Fit the reduced model named by `kind` and rank features at `ratio`."""
    components = variant_components(kind)
    state, trace = fit(ds_masked, masks, cfg, components=components)
    return rank_features(state, ratio), state, trace

