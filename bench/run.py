"""Benchmark runner for acx.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 bench/run.py --workload all [--seconds S]
    python3 bench/run.py --record-digests

Run it from any directory; the checkout root is the parent of this file's
directory, and the package is imported from its `src/`.  Workloads are
listed in BENCHMARK.json, the layer map in bench/layers.json.

--trace 0 measures the end-to-end metrics.  Set-up is timed in 3 to 9 fresh
interpreters; then whole passes run, each in a fresh interpreter, until the
run has spent --seconds, and the medians are reported.  A pass's time is
reported as `pass_cost`: its busy time in units of the speed probe that runs
interleaved with it (see worker.py), because on a shared host the machine's
own speed can change by up to 2x between and within runs.  Raw seconds are on
the detail line.  --trace 1 runs one untraced, one traced and one profiled
pass and reports the per-layer metrics.  Every pass checks every job output
(workloads.py).  A human-readable JSON
line with sample counts, error rate and the pinned environment comes first;
the last line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--workload all runs every workload with --trace 0 and ends with a table.

Every child interpreter gets PYTHONHASHSEED=0, so set and string-hash order
is the same in every run, no ACX_WORKERS, which switches on a thread pool
that changes the work done, and no PYTHONPATH, so the checkout's own src/
is the package measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_build" / "acx"
# set-up is probed at least [0] and at most [1] times, within this share of --seconds
SETUP_PROBES = (3, 9)
SETUP_SHARE = 0.2
HASH_SEED = "0"
# a run must end within this many seconds, whatever --seconds says
RUN_BUDGET_S = 170.0


class HarnessError(Exception):
    """The benchmark itself could not run (as opposed to a failed job)."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ACX_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def spawn(mode: str, plan: dict, deadline: float) -> dict:
    """Run worker.py MODE in a fresh interpreter and return its JSON result."""
    WORKDIR.mkdir(parents=True, exist_ok=True)
    plan_path = WORKDIR / f"plan-{os.getpid()}.json"
    plan_path.write_text(json.dumps({"root": str(ROOT), **plan}), encoding="utf-8")
    timeout = max(1.0, deadline - perf_counter())
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), mode, str(plan_path)],
            env=child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise HarnessError(f"{mode} pass did not finish within {timeout:.0f} s") from None
    finally:
        plan_path.unlink(missing_ok=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise HarnessError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def environment(seed: int) -> dict:
    src = ROOT / "src" / "acx"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "src_sha256": h.hexdigest(),
        "seed": seed,
        "PYTHONHASHSEED": HASH_SEED,
        "ACX_WORKERS": None,
    }


def timing(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "samples": len(samples), "percentile": None}
    n = len(samples)
    if n >= 20:
        k = (100 * (n - 10)) // n
        out["percentile"] = {"p": k, "value": statistics.quantiles(samples, n=100, method="inclusive")[k - 1]}
    return out


class Checker:
    """Checks job outputs and counts attempted and failed jobs."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.expected = workloads.expected_digests(workload, seed)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, result: dict, reference: list[str] | None = None) -> list[str]:
        """Check one pass; reference digests (from an untraced pass) apply when none are recorded."""
        expected = self.expected or reference
        digests = []
        for k, job in enumerate(result["jobs"]):
            self.attempted += 1
            errors = workloads.check_job(self.workload, job, expected[k] if expected else None)
            if errors:
                self.failed += 1
                self.errors.extend(f"job {k}: {e}" for e in errors)
            digests.append(job.get("digest"))
        if result.get("threads", 1) != 1:
            self.errors.append(f"worker ran {result['threads']} threads")
        return digests

    @property
    def correct(self) -> bool:
        return not self.errors and self.attempted > 0


def measure(workload: str, seed: int, seconds: float) -> tuple[Checker, dict, dict]:
    deadline = perf_counter() + RUN_BUDGET_S
    checker = Checker(workload, seed)
    start = perf_counter()
    plan = workloads.prepare(workload, seed, ROOT, WORKDIR)
    spawn("setup", plan, deadline)  # warm-up: byte-compiles the package
    setup = []
    while len(setup) < SETUP_PROBES[0] or (
        len(setup) < SETUP_PROBES[1] and perf_counter() - start < SETUP_SHARE * seconds
    ):
        setup.append(spawn("setup", plan, deadline)["setup_s"])
    walls, costs, probe_s, rss = [], [], [], []
    while True:
        t = perf_counter()
        result = spawn("plain", plan, deadline)
        checker.check(result)
        walls.append(result["wall_s"])
        costs.append(result["cost"])
        probe_s.append(result["probe_median_s"])
        rss.append(result["maxrss_kb"] / 1024)
        last = perf_counter() - t
        if perf_counter() - start + last > seconds or perf_counter() + 2 * last > deadline:
            break
    detail = {
        "pass_cost": {**timing(costs), "unit": "probes", "values": costs},
        "wall_s": {**timing(walls), "unit": "s", "values": walls},
        "probe_median_s": {**timing(probe_s), "unit": "s", "values": probe_s},
        "setup_s": {**timing(setup), "unit": "s", "values": setup},
        "peak_rss_mb": {**timing(rss), "unit": "MB", "values": rss},
        "error_rate": {"value": checker.failed / checker.attempted, "unit": "ratio",
                       "failed": checker.failed, "attempted": checker.attempted},
    }
    metrics = {
        "pass_cost": {"value": detail["pass_cost"]["median"], "unit": "probes"},
        "setup_s": {"value": detail["setup_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": detail["peak_rss_mb"]["median"], "unit": "MB"},
    }
    return checker, metrics, detail


def measure_layers(workload: str, seed: int) -> tuple[Checker, dict, dict]:
    deadline = perf_counter() + RUN_BUDGET_S
    checker = Checker(workload, seed)
    plan = workloads.prepare(workload, seed, ROOT, WORKDIR)
    plain = spawn("plain", plan, deadline)
    reference = checker.check(plain)
    spans_out = WORKDIR / f"spans-{workload}-seed{seed}.json"
    traced = spawn("trace", {**plan, "spans_out": str(spans_out)}, deadline)
    profiled = spawn("profile", plan, deadline)
    for result in (traced, profiled):
        if checker.check(result, reference) != reference:
            checker.errors.append("a traced or profiled output differs from the untraced one")
    spec = layer_spec()
    values = layer_values(spec, traced["layers"], profiled["profile"], traced["wall_s"], plain["wall_s"])
    metrics = {name: {"value": values[name], "unit": spec[name]["unit"]} for name in spec}
    layers = traced["layers"]
    traced_wall = traced["wall_s"]
    detail = {
        "spans": traced["spans"],
        "spans_file": str(spans_out.relative_to(ROOT)),
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced_wall,
        # shares of the traced pass, largest first: [group or layer, share]
        "self_share": shares(layers["self"], traced_wall),
        "inclusive_share": shares(layers["inclusive"], traced_wall),
        "cohomology_by_N": layers["cohomology_by_N"],
        "scaling_exp_defined": layers["scaling_exp"] is not None,
    }
    return checker, metrics, detail


def shares(seconds: dict, wall: float) -> list:
    return [[g, s / wall] for g, s in sorted(seconds.items(), key=lambda kv: -kv[1])]


def layer_spec() -> dict:
    """Per-layer metric definitions; they must match BENCHMARK.json's per_layer list."""
    spec = json.loads((BENCH / "layers.json").read_text(encoding="utf-8"))["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
    if [m["name"] for m in declared] != list(spec):
        raise HarnessError("bench/layers.json and BENCHMARK.json list different per-layer metrics")
    return spec


def layer_values(spec: dict, layers: dict, profile: dict, traced_wall: float, plain_wall: float) -> dict:
    inclusive, self_s, calls = layers["inclusive"], layers["self"], layers["calls"]
    rref = layers["rref"]
    rref_calls = calls.get("linalg.rref", 0)
    block_calls = calls.get("operators.block", 0)
    out = {
        "cli.render_json.bytes": layers["render_bytes"],
        "operators.block.hit_ratio": layers["block_hits"] / block_calls if block_calls else 0.0,
        "linalg.rref.cells": rref["cells"],
        "linalg.rref.nnz_in": rref["nnz"],
        "linalg.rref.dense_share": rref["dense"] / rref_calls if rref_calls else 0.0,
        "linalg.rref.max_bits": rref["bits"],
        "linalg.quotient_dim.guard_vectors": layers["guard_vectors"],
        "cohomology.scaling_exp": layers["scaling_exp"] or 0.0,
        "scalars.self_share": profile["scalar_self_s"] / profile["profiled_self_s"],
        "trace.overhead": traced_wall / plain_wall,
    }
    for name in spec:
        if name in out:
            continue
        group, kind = name.rsplit(".", 1)
        table = {"s": inclusive, "self_s": self_s, "calls": calls}[kind]
        out[name] = table.get(group, 0)
    return out


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        checker, metrics, detail = measure_layers(workload, seed)
    else:
        checker, metrics, detail = measure(workload, seed, seconds)
    print(json.dumps({
        "workload": workload, "trace": int(trace), "env": environment(seed),
        "detail": detail, "errors": checker.errors[:20],
    }, sort_keys=True))
    result = {"correct": checker.correct, "attempted": checker.attempted,
              "failed": checker.failed, "metrics": metrics}
    print(json.dumps(result))
    return {"result": result, "detail": detail}


def record_digests() -> None:
    """Write the digests of every fixed-input job, and of the sweep at the default seed."""
    deadline = perf_counter() + 10 * RUN_BUDGET_S
    recorded: dict = {}
    for workload in workloads.WORKLOADS:
        plan = workloads.prepare(workload, workloads.DEFAULT_SEED, ROOT, WORKDIR)
        result = spawn("plain", plan, deadline)
        for k, job in enumerate(result["jobs"]):
            errors = workloads.check_job(workload, job, None)
            if errors:
                raise HarnessError(f"{workload} job {k} fails its checks: {errors}")
        digests = [job["digest"] for job in result["jobs"]]
        recorded[workload] = {str(workloads.DEFAULT_SEED): digests} if workload == "random-rational-sweep" else digests
    workloads.DIGESTS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) if (ROOT / "BENCHMARK.json").is_file() else {}
    parser = argparse.ArgumentParser(description="acx benchmark")
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=bench.get("run_seconds", 30))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "acx" / "cli.py").is_file():
        print(f"no acx source under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        if args.record_digests:
            record_digests()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload != "all":
            run_one(args.workload, args.seed, args.seconds, bool(args.trace))
            return 0
        rows = [(w, run_one(w, args.seed, args.seconds, False)) for w in workloads.WORKLOADS]
    except HarnessError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    columns = ("pass_cost", "wall_s", "setup_s", "peak_rss_mb")
    print(f"{'workload':<24}" + "".join(f"{c:>26}" for c in columns) + f"{'error_rate':>24}")
    for workload, out in rows:
        d = out["detail"]
        cells = [f"{d[m]['median']:.4f} {d[m]['unit']} (n={d[m]['samples']})" for m in columns]
        e = d["error_rate"]
        cells.append(f"{e['value']:.4f} {e['unit']} ({e['failed']}/{e['attempted']})")
        print(f"{workload:<24}" + "".join(f"{c:>26}" for c in cells[:-1]) + f"{cells[-1]:>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
