"""The full model and its reduced variants, by method name.

`METHODS` maps each method the command line accepts to the coupled
components it fits; `run_variant` fits one by name. The three reduced
variants each switch off one component of the full model:

* climfs-i drops adaptive imputation (masked entries stay mean-imputed),
  which makes it the impute-then-select baseline,
* climfs-ii drops the consensus cluster-structure regularizer on F*,
* climfs-iii freezes the similarity graphs and view weights at their
  initial values and removes their objective terms.

Every reduced run uses the same fit loop and therefore inherits the
monotone trace and the constraint suite of the full model.
"""

from __future__ import annotations

from climfs.dataset import MaskMatrix, MultiViewDataset
from climfs.model import (FULL_MODEL, Components, FitConfig, FitTrace,
                          ModelState, SelectionResult, fit, rank_features)

METHODS = {
    "climfs": FULL_MODEL,
    "climfs-i": Components(adaptive_imputation=False),
    "climfs-ii": Components(cluster_structure=False),
    "climfs-iii": Components(graph_learning=False),
}


def run_variant(kind: str, ds_masked: MultiViewDataset, masks: MaskMatrix,
                cfg: FitConfig, ratio: float = 0.2,
                ) -> tuple[SelectionResult, ModelState, FitTrace]:
    """Fit the model `METHODS[kind]` and rank features at `ratio`."""
    state, trace = fit(ds_masked, masks, cfg, components=METHODS[kind])
    return rank_features(state, ratio), state, trace
