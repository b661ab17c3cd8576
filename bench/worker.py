"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py MODE PLAN_JSON

MODE is one of
  setup    time `import acx.cli` plus parse_manifest and Session for each
           manifest in the plan, as every CLI call pays before any work;
  plain    run the plan's jobs through acx.cli.main, one at a time, with the
           speed probe below interleaved;
  trace    the same with every layer wrapped in spans (see tracer.py);
  profile  the same under cProfile, for the scalar layer's self-time share.

The plan is a JSON object with the source root, the jobs (argv lists) or
manifests, and for `trace` the file the spans go to.  The result is one JSON
object on stdout.  Job outputs are returned without their `timing` field,
with a digest of the rest.

The speed probe.  On a virtual machine whose cores other tenants share, the
speed of the same code can change by up to 2x over seconds to minutes (seen on
a 2-vCPU VM), so a raw pass time there mostly measures the neighbours.  In plain mode a SIGALRM every PROBE_INTERVAL_S of wall time runs a
fixed stdlib computation, `reference_work`, and records how long it took.
A pass's cost is its busy time (probe time taken out) times the mean of
1 / probe time: the integral of dt / (probe time at t), that is, how many
reference computations the host could have done in the time the pass took.
It is in `probes`; raw seconds are reported beside it.
"""

from __future__ import annotations

import json
import signal
import sys
from fractions import Fraction
from time import perf_counter

PROBE_INTERVAL_S = 0.02
# a fixed 5 x 6 rational matrix; reducing it takes 0.4 to 0.8 ms on a 2-vCPU VM
PROBE_MATRIX = [[Fraction((3 * i + 5 * j) % 7 - 3, (i * j) % 5 + 1) for j in range(6)] for i in range(5)]


def reference_work() -> list:
    """Gauss-Jordan elimination of PROBE_MATRIX over Q: the probe's fixed computation."""
    rows = [row[:] for row in PROBE_MATRIX]
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return rows


class SpeedProbe:
    """Times reference_work once at start and then on every SIGALRM until stop."""

    def __init__(self):
        self.durations: list[float] = []
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        t = perf_counter()
        reference_work()
        self.durations.append(perf_counter() - t)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _probed(main, jobs: list[list[str]]) -> tuple[list[dict], dict]:
    """Run the jobs under the speed probe; returns raw results and the pass's busy seconds and cost."""
    probe = SpeedProbe()
    probe.start()
    try:
        start = perf_counter()
        raw, _ = _run_jobs(main, jobs)
    finally:
        probe.stop()
    window = perf_counter() - start
    # the first probe ran before the window opened
    busy = window - sum(probe.durations[1:])
    mean_rate = sum(1 / d for d in probe.durations) / len(probe.durations)
    return raw, {"wall_s": busy, "cost": busy * mean_rate, "probes": len(probe.durations),
                 "probe_median_s": sorted(probe.durations)[len(probe.durations) // 2]}


def _setup(plan: dict) -> dict:
    t0 = perf_counter()
    from acx import cli

    for path in plan["manifests"]:
        cli.Session(cli.parse_manifest(path))
    return {"setup_s": perf_counter() - t0}


def _run_jobs(main, jobs: list[list[str]]) -> tuple[list[dict], float]:
    """Call main once per job with stdout captured; returns raw results and the summed job time."""
    import io
    from contextlib import redirect_stdout

    raw = []
    total = 0.0
    for argv in jobs:
        buf = io.StringIO()
        error = None
        start = perf_counter()
        try:
            with redirect_stdout(buf):
                code = main(argv)
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a crashing job is a failed job, not a crashed pass
            code, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - start
        total += seconds
        raw.append({"code": code, "seconds": seconds, "error": error, "text": buf.getvalue()})
    return raw, total


def _finish(raw: list[dict]) -> list[dict]:
    import hashlib

    out = []
    for r in raw:
        payload = None
        text = r.pop("text")
        if r["error"] is None:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                r["error"] = f"output is not JSON: {exc}"
        if isinstance(payload, dict):
            payload.pop("timing", None)
            canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            r["digest"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        r["payload"] = payload
        out.append(r)
    return out


def _profile_share(profiler) -> dict:
    """Self-time share of acx/scalars.py plus Fraction arithmetic (fractions.py and its gcd)."""
    import pstats

    total = scalar = 0.0
    for (filename, _, funcname), (_, _, tt, _, _) in pstats.Stats(profiler).stats.items():
        total += tt
        path = filename.replace("\\", "/")
        if path.endswith("acx/scalars.py") or path.endswith("/fractions.py") or funcname == "<built-in method math.gcd>":
            scalar += tt
    return {"scalar_self_s": scalar, "profiled_self_s": total}


def main(argv: list[str]) -> int:
    import os
    import resource
    import threading

    mode, plan_path = argv
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    if mode == "setup":
        result = _setup(plan)
    else:
        from acx import cli

        extra: dict = {}
        if mode == "plain":
            raw, extra = _probed(cli.main, plan["jobs"])
            wall = extra.pop("wall_s")
        elif mode == "trace":
            import tracer

            t = tracer.Tracer()
            tracer.install(t)
            raw, wall = _run_jobs(t.wrap("cli.main", cli.main), plan["jobs"])
            t.unpatch()
            extra["layers"] = tracer.summarize(t.spans)
            extra["spans"] = len(t.spans)
            t.dump(plan["spans_out"])
        elif mode == "profile":
            import cProfile

            profiler = cProfile.Profile()
            raw, wall = _run_jobs(lambda a: profiler.runcall(cli.main, a), plan["jobs"])
            extra["profile"] = _profile_share(profiler)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
        result = {
            "wall_s": wall,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "threads": threading.active_count(),
            **extra,
            "jobs": _finish(raw),
        }
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
