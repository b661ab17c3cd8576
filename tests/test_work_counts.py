"""Work-count pin: eliminations, products and sums over the benchmark's seed-0 jobs.

Each workload's jobs (bench/workloads.py: the kt4 diamond scan at N = 0..3,
the three kt4-verify jobs and the reports of the seed-0 sweep models) run
through the CLI in a fresh interpreter, so no process-wide cache starts warm,
with every linalg._eliminate, ExactMatrix.__matmul__ and ExactMatrix.__add__
call counted.  A count may fall; a rise means a path does work it did not do
before, such as a kernel basis built for a reader that only wants its
dimension, a rank the sparsity pattern decides sent to elimination, a
Fourier block summed from separate lifts, or a diamond that builds one
engine per truncation shell where a run of shells shares one.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (eliminations, products, additions) of one pass
PINNED = {
    "kt4-diamond-scan": (9, 56, 0),
    "kt4-verify": (16, 255, 23),
    "random-rational-sweep": (237, 439, 4),
}

COUNTER = r"""
import contextlib, io, json, sys
from pathlib import Path

root, workload, workdir = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import workloads
from acx import cli, linalg

counts = {"eliminations": 0, "products": 0, "additions": 0, "codes": []}
eliminate, matmul, add = linalg._eliminate, linalg.ExactMatrix.__matmul__, linalg.ExactMatrix.__add__


def counted_eliminate(*args, **kwargs):
    counts["eliminations"] += 1
    return eliminate(*args, **kwargs)


def counted_matmul(a, b):
    counts["products"] += 1
    return matmul(a, b)


def counted_add(a, b):
    counts["additions"] += 1
    return add(a, b)


linalg._eliminate = counted_eliminate
linalg.ExactMatrix.__matmul__, linalg.ExactMatrix.__add__ = counted_matmul, counted_add
for job in workloads.prepare(workload, 0, root, workdir)["jobs"]:
    with contextlib.redirect_stdout(io.StringIO()):
        counts["codes"].append(cli.main(job))
print(json.dumps(counts))
"""


def count_work(workload: str, workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ACX_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", COUNTER, str(ROOT), workload, str(workdir)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_jobs_do_no_more_work_than_pinned(tmp_path):
    for workload, (eliminations, products, additions) in PINNED.items():
        counts = count_work(workload, tmp_path)
        assert counts["codes"] and not any(counts["codes"]), (workload, counts)
        assert counts["eliminations"] <= eliminations, (workload, counts)
        assert counts["products"] <= products, (workload, counts)
        assert counts["additions"] <= additions, (workload, counts)
