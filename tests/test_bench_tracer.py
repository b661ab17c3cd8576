"""The bench tracer wraps acx names where their callers read them; every one must exist."""

import json

from acx import cli, cohomology, lie, linalg
from acx.linalg import ExactMatrix

from conftest import bundled_manifest_path, load_bench_module


def test_tracer_installs_on_every_traced_name():
    tracer_module = load_bench_module("tracer")
    originals = (linalg.kernel, cli.psi_from_selector, vars(cohomology.CohomologyEngine)["a_dol"])
    tracer = tracer_module.Tracer()
    try:
        tracer_module.install(tracer)
        assert linalg.kernel is not originals[0]
        # a kernel is eliminated when its basis is read, on triples; rref boxes the reduced rows it returns
        linalg.kernel(ExactMatrix.identity(2)).generators
        linalg.rref(ExactMatrix.identity(2))
        assert {group for _, group, _, _ in tracer.spans} >= {"linalg.kernel", "linalg.rref"}
    finally:
        tracer.unpatch()
    assert (linalg.kernel, cli.psi_from_selector, vars(cohomology.CohomologyEngine)["a_dol"]) == originals


def test_tracer_reads_a_traced_report(capsys):
    """The counters read subspaces and reduced rows: the guard's den.dim and the bit height of rref's rows."""
    tracer_module = load_bench_module("tracer")
    tracer = tracer_module.Tracer()
    # rref's one caller in a report is the frame construction, run once per model
    lie.build_frame.cache_clear()
    try:
        tracer_module.install(tracer)
        code = cli.main(["report", bundled_manifest_path("kt4"), "--truncations", "1", "--format", "json"])
    finally:
        tracer.unpatch()
    assert code == 0 and json.loads(capsys.readouterr().out)["audits"]
    summary = tracer_module.summarize(tracer.spans)
    assert summary["guard_vectors"] > 0
    assert summary["rref"]["bits"] > 0
    assert {"linalg.quotient_dim", "linalg.intersect", "linalg.preimage", "linalg.map_subspace"} <= set(summary["calls"])
