"""The bench tracer wraps acx names where their callers read them; every one must exist."""

import importlib.util
from pathlib import Path

from acx import cli, cohomology, linalg
from acx.linalg import ExactMatrix

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_traced_name():
    tracer_module = _load_tracer()
    originals = (linalg.kernel, cli.psi_from_selector, vars(cohomology.CohomologyEngine)["a_dol"])
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert linalg.kernel is not originals[0]
        linalg.kernel(ExactMatrix.identity(2))
        assert {group for _, group, _, _ in tracer.spans} >= {"linalg.kernel", "linalg.rref"}
    finally:
        tracer.unpatch()
    assert (linalg.kernel, cli.psi_from_selector, vars(cohomology.CohomologyEngine)["a_dol"]) == originals
