"""The traced benchmark's contract with the package.

`perfbench/spans.py` wraps climfs functions by name and reads the
counters they return (guard skips, fallbacks, backtracks) and the
`(selection, state, trace)` shape of `baselines.run_variant`. A tiny
`climfs simulate` plus `ablate` run under its tracer must feed every hook
and raise nothing.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from climfs import cli

_SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


def test_tracer_hooks_count_a_cli_ablate_run(tmp_path):
    modules = {layer: importlib.import_module(f"climfs.{layer}")
               for layer in spans.LAYERS}
    originals = {(layer, attr): val for layer, mod in modules.items()
                 for attr, val in vars(mod).items() if callable(val)}
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "data": {"synthetic": {"n": 30, "views": 2, "clusters": 3,
                               "informative": 4, "noise": 6, "seed": 1}},
        "scenario": {"kind": "mixed", "delta": 0.5, "seed": 1},
        "fit": {"k": 4, "c": 3, "max_iter": 2, "tol": 1e-12, "seed": 1},
        "eval_runs": 2, "out_dir": str(tmp_path / "out")}))

    tracer = spans.Tracer()
    tracer.install(modules)
    try:
        for command in ("simulate", "ablate"):
            assert cli.main([command, "--config", str(config)]) == 0
    finally:
        tracer.restore()

    counts = tracer.counts
    for key in ("model.update_S.columns", "model.update_H.columns",
                "model.update_Xhat.views", "model.save_state.bytes",
                "dataset.bytes_written", "baselines.climfs-i.iters",
                "baselines.climfs-ii.iters", "baselines.climfs-iii.iters"):
        assert counts[key] > 0, key
    for key in ("model.update_S.skips", "model.update_S.perturbed",
                "model.update_H.skips", "model.update_H.perturbed",
                "model.update_Xhat.fallbacks", "model.update_Fv.backtracks",
                "model.update_Fstar.backtracks"):
        assert key in counts, key
    assert not [key for key in counts if ".raised." in key]
    assert {"baselines.climfs-i", "baselines.climfs-ii",
            "baselines.climfs-iii", "model.fit"} <= set(tracer.totals())
    for (layer, attr), val in originals.items():
        assert getattr(modules[layer], attr) is val, (layer, attr)
