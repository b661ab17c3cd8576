"""The benchmark's workloads: the jobs of one pass, and the checks on their outputs.

A job is the argv of one `acx` CLI call.  A pass runs a workload's jobs once,
in order.  Every job output is checked against invariants that hold for any
seed and, where the inputs do not depend on the seed (or the seed is the
default one), against a digest recorded in digests.json.
"""

from __future__ import annotations

import json
from pathlib import Path

import models

DEFAULT_SEED = 0
SWEEP_SIX_DIM = 3
SWEEP_FOUR_DIM = 2
KT4_REFINED = {"1,1": [3, 11, 27, 51], "2,1": [2, 10, 26, 50]}

WORKLOADS = ("kt4-diamond-scan", "kt4-verify", "random-rational-sweep")
DIGESTS = Path(__file__).with_name("digests.json")


def prepare(workload: str, seed: int, root: Path, workdir: Path) -> dict:
    """Jobs and distinct manifest paths of one pass; generated manifests go to workdir."""
    kt4 = str(root / "src" / "acx" / "manifests" / "kt4.json")
    if workload == "kt4-diamond-scan":
        jobs = [["diamond", kt4, "--truncations", "0,1,2,3", "--format", "json"]]
        return {"jobs": jobs, "manifests": [kt4]}
    if workload == "kt4-verify":
        jobs = [
            ["verify", kt4, "--truncations", "2", "--format", "json"],
            ["taming", kt4, "--truncations", "2", "--psi", "perturbed", "--format", "json"],
            ["taming", kt4, "--truncations", "2", "--psi", "basis:0", "--format", "json"],
        ]
        return {"jobs": jobs, "manifests": [kt4]}
    if workload == "random-rational-sweep":
        out = workdir / f"sweep-seed{seed}"
        out.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, manifest in enumerate(models.sweep_manifests(seed, SWEEP_SIX_DIM, SWEEP_FOUR_DIM)):
            path = out / f"model-{k:02d}.json"
            path.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
            paths.append(str(path))
        return {"jobs": [["report", p, "--format", "json"] for p in paths], "manifests": paths}
    raise ValueError(f"unknown workload {workload!r}")


def expected_digests(workload: str, seed: int) -> list[str] | None:
    """Recorded output digests, or None when this workload and seed have none."""
    if not DIGESTS.is_file():
        return None
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8"))
    if workload == "random-rational-sweep":
        return recorded[workload].get(str(seed))
    return recorded[workload]


def check_job(workload: str, result: dict, digest: str | None) -> list[str]:
    """Every reason this job counts as failed; empty when it passed."""
    errors = []
    if result.get("error"):
        errors.append(result["error"])
    if result.get("code") != 0:
        errors.append(f"exit code {result.get('code')}")
    payload = result.get("payload")
    if not isinstance(payload, dict):
        return errors + ["no JSON report"]
    if "fatal" in payload:
        errors.append(f"fatal {payload['fatal']}")
    if digest is not None and result.get("digest") != digest:
        errors.append("output digest differs from the recorded one")
    validation = payload.get("validation")
    if validation is not None:
        if not validation.get("passed"):
            errors.append("validation failed")
        if not all(e["passed"] for e in validation.get("identity_suite", [])):
            errors.append("an identity of the identity suite failed")
    diamonds = payload.get("diamonds")
    if diamonds is not None:
        errors.extend(_check_diamonds(workload, diamonds))
    audits = {a["claim"]: a["status"] for a in payload.get("audits", [])}
    for cert in payload.get("certificates", []):
        status = cert.get("status")
        if workload.startswith("kt4-"):
            if status != "certified" or not (cert.get("closed") and cert.get("well_defined")):
                errors.append(f"taming certificate {cert.get('selector')} is {status}")
        elif (status == "certified") != (audits.get(f"taming-correction:{cert.get('selector')}") == "pass"):
            # on random models no-solution is a legitimate outcome, but the
            # certificate and the report's own taming audit must agree
            errors.append(f"taming certificate {status} disagrees with the taming audit")
    return errors


def _check_diamonds(workload: str, diamonds: dict) -> list[str]:
    errors = []
    betti = {int(r): v for r, v in diamonds["betti"].items()}
    top = max(betti)
    for t, label in enumerate(diamonds["labels"]):
        b = [betti[r][t] for r in range(top + 1)]
        if b != b[::-1]:
            errors.append(f"{label}: betti numbers {b} break b_r = b_(2n-r)")
        if sum((-1) ** r * x for r, x in enumerate(b)) != 0:
            errors.append(f"{label}: Euler characteristic of {b} is not 0")
    if workload == "kt4-diamond-scan":
        if diamonds["labels"] != ["N=0", "N=1", "N=2", "N=3"]:
            errors.append(f"truncation labels {diamonds['labels']}")
        refined = diamonds["tables"]["refined"]
        for cell, want in KT4_REFINED.items():
            if refined.get(cell) != want:
                errors.append(f"refined ({cell}) is {refined.get(cell)}, expected {want}")
    return errors
