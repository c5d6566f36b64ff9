"""The benchmark's span tracer still finds every function it wraps.

``perfbench/tracer.py`` patches the package's functions at the module
attributes where callers look them up, so a rename in ``rsb`` or ``rs``
would break a traced benchmark run.  Entering the recorder fails on a
missing attribute; the counts check that the wrapped calls are the ones the
solvers make.
"""

import importlib.util
from pathlib import Path

from replicacs.cli import EXIT_NONCONV, EXIT_OK, main

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_rsb_solve_counts_grid_passes_and_rs_updates(capsys):
    tracer = load_tracer()
    argv = ["rsb-solve", "--set", "alpha=2", "--set", "rho=0.1", "--set", "penalty=l1",
            "--set", "quad_order=8"]
    with tracer.Recorder("tracer-sites") as rec:
        code = main(argv)
    capsys.readouterr()
    assert code in (EXIT_OK, EXIT_NONCONV)
    metrics = rec.layer_metrics()
    assert metrics["rsb.grid_evaluations"][0] > 0
    assert metrics["rs.rs_update.calls"][0] > 0
