"""Byte identity of machine output: the benchmark's recorded digests and frozen reports.

JSON output minus its `timing` field is deterministic; these tests pin it
against bench/digests.json (through the benchmark's own checks) and against
the report files under tests/golden/, which include two seeded sweep models
with non-unit rational data.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from acx import cli

from conftest import bundled_manifest_path, load_bench_module

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def test_bench_jobs_match_recorded_digests(tmp_path, monkeypatch):
    # import the benchmark's own modules without writing bytecode next to them
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    worker = importlib.import_module("worker")
    for workload in workloads.WORKLOADS:
        plan = workloads.prepare(workload, workloads.DEFAULT_SEED, ROOT, tmp_path)
        raw, _ = worker._run_jobs(cli.main, plan["jobs"])
        results = worker._finish(raw)
        digests = workloads.expected_digests(workload, workloads.DEFAULT_SEED)
        assert digests is not None and len(digests) == len(results)
        for result, digest in zip(results, digests):
            assert workloads.check_job(workload, result, digest) == [], (workload, result.get("payload", {}).get("command"))


GOLDEN_FLAGS = {"torus4": [], "nil6": [], "kt4": ["--truncations", "0,1,2,3"]}


@pytest.mark.parametrize("name", list(GOLDEN_FLAGS))
def test_report_matches_golden(name, capsys):
    code = cli.main(["report", bundled_manifest_path(name), *GOLDEN_FLAGS[name], "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    payload.pop("timing")
    assert cli.render_json(payload) == (GOLDEN / f"report_{name}.json").read_text(encoding="utf-8")


# (index into bench/models.py's sweep_manifests(101, 3, 2), golden file label)
SWEEP_SEED = 101
SWEEP_GOLDEN = {0: "sweep101_6d", 3: "sweep101_4d"}


def _sweep_manifests(seed):
    return load_bench_module("models").sweep_manifests(seed, 3, 2)


@pytest.mark.parametrize("index", list(SWEEP_GOLDEN))
def test_sweep_report_matches_golden(index, tmp_path, capsys):
    path = tmp_path / f"model-{index:02d}.json"
    path.write_text(json.dumps(_sweep_manifests(SWEEP_SEED)[index], indent=1) + "\n", encoding="utf-8")
    code = cli.main(["report", str(path), "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    payload.pop("timing")
    assert cli.render_json(payload) == (GOLDEN / f"report_{SWEEP_GOLDEN[index]}.json").read_text(encoding="utf-8")
