"""The benchmark's tracer wraps names of the package; a rename or removal
of one of them fails here, not only in a benchmark run."""

import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The thread settings bench/run.py writes into the environment on import.
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _load_run(monkeypatch):
    """bench/run.py as a module, with bench/ on the path for its tracer;
    the environment, path and module table are put back when the test
    ends."""
    for var in _BLAS_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    monkeypatch.setitem(sys.modules, spec.name, run)
    spec.loader.exec_module(run)
    return run


def test_benchmark_tracer_wraps_and_restores(monkeypatch):
    from condreach import abstraction, driver

    run = _load_run(monkeypatch)
    before = dict(vars(driver))
    original = abstraction.TransientBoundCache.bound_matrices
    tracer = run.install_tracer()
    try:
        assert driver.analyze is not before["analyze"]
        assert driver.analyze.__wrapped__ is before["analyze"]
        assert abstraction.TransientBoundCache.bound_matrices is not original
    finally:
        tracer.restore()
        sys.modules.pop("tracer", None)
    assert dict(vars(driver)) == before
    assert abstraction.TransientBoundCache.bound_matrices is original
