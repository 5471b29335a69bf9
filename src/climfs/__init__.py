"""climfs: joint unsupervised feature selection and adaptive imputation
for incomplete multi-view data.

The package is organized as:

* :mod:`climfs.numkit`     -- dense numeric kernels (Sylvester solver,
  sparse-simplex projections, simplex QP, Laplacians, Adam steps)
* :mod:`climfs.dataset`    -- multi-view containers, CSV manifests,
  missing-data simulators and mean imputation
* :mod:`climfs.model`      -- the alternating optimizer and feature ranking
* :mod:`climfs.evaluation` -- k-means, clustering metrics, selection
  evaluation and structural diagnostics
* :mod:`climfs.baselines`  -- the method table: the full model and its
  reduced variants, the impute-then-select baseline among them
* :mod:`climfs.cli`        -- experiment runner
"""

from climfs.errors import ClimFsError, ConfigError, NumericError

__all__ = ["ClimFsError", "ConfigError", "NumericError"]
__version__ = "0.1.0"
