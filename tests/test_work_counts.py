"""Work-count pin: eliminations and the entries they reduce, products and their multiply-adds, sums, Leibniz
calls, invariant bases and Gram systems over the benchmark's seed-0 jobs.

Each workload's jobs (bench/workloads.py: the kt4 diamond scan at N = 0..3,
the three kt4-verify jobs and the reports of the seed-0 sweep models) run
through the CLI in a fresh interpreter, so no process-wide cache starts warm,
with every linalg._eliminate, ExactMatrix.__matmul__, ExactMatrix.__add__ and
forms.leibniz call counted, the multiply-adds of each product A @ B (the sum
over k of nnz(A[:, k]) * nnz(B[k, :]), whatever shortcut the product takes),
every monomial basis of the invariant model
that enumerate_basis builds, and every Gram-weighted harmonic system
(CohomologyEngine._harmonic_system) built.  The eliminated entries are the
nonzeros of every matrix linalg._eliminate is handed, plus those of every
matrix whose rows linalg._reduced_rows reduces by a kept echelon (that
reduction is not counted as an elimination).  An elimination is a repeat when the same matrix,
by its shape and entries, was eliminated before in the same CLI call.  A
count may fall; a rise means a path does work it did not do before, such as a
kernel basis built for a reader that only wants its dimension, a rank the
sparsity pattern decides sent to elimination, a Fourier block summed from
separate lifts, a diamond that builds one engine per truncation shell where a
run of shells shares one, an invariant basis rebuilt for each reader, or a
harmonic number ranked off the Gram system on a cell where dbar and mu compose
to zero, or a d.d check on a one-weight complex that multiplies whole
differentials where their independent rows and columns decide it, or a
refined number that builds a null basis and an image product where its
kernels' dimensions decide it, or a stacked kernel that eliminates the rows
of a kernel it extends again.  The
frame's structure equations are two products, so every frame adds two.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# (eliminations, products, additions, leibniz calls, invariant bases, repeated eliminations, Gram systems,
# multiply-adds, eliminated entries) of one pass
PINNED = {
    "kt4-diamond-scan": (9, 42, 0, 32, 24, 0, 3, 787, 2070),
    "kt4-verify": (16, 245, 23, 48, 25, 0, 11, 5335, 1290),
    "random-rational-sweep": (156, 266, 4, 801, 134, 5, 0, 8775, 6216),
}
KINDS = (
    "eliminations", "products", "additions", "leibniz", "invariant_bases", "repeats", "gram_systems", "multiply_adds",
    "eliminated_entries",
)

COUNTER = r"""
import contextlib, io, json, sys
from pathlib import Path

root, workload, workdir = Path(sys.argv[1]), sys.argv[2], Path(sys.argv[3])
sys.path[:0] = [str(root / "src"), str(root / "bench")]
import workloads
from acx import cli, cohomology, forms, linalg, operators

counts = dict.fromkeys(sys.argv[4].split(","), 0)
counts["codes"] = []
eliminate, matmul, add = linalg._eliminate, linalg.ExactMatrix.__matmul__, linalg.ExactMatrix.__add__
eliminated = set()


def counted_eliminate(m, *args, **kwargs):
    counts["eliminations"] += 1
    counts["eliminated_entries"] += len(m.triples)
    content = (m.rows, m.cols, frozenset(m.triples.items()))
    counts["repeats"] += content in eliminated
    eliminated.add(content)
    return eliminate(m, *args, **kwargs)


def counted_matmul(a, b):
    counts["products"] += 1
    left = {}
    for _, k in a.triples:
        left[k] = left.get(k, 0) + 1
    for k, _ in b.triples:
        counts["multiply_adds"] += left.get(k, 0)
    return matmul(a, b)


def counted_add(a, b):
    counts["additions"] += 1
    return add(a, b)


def counting(kind, function, counted=lambda *args: True):
    def wrapper(*args):
        counts[kind] += counted(*args)
        return function(*args)
    return wrapper


linalg._eliminate = counted_eliminate
reduce_rows = linalg._reduced_rows


def counted_reduce(echelon, m):
    # rows reduced by a kept echelon are eliminated too: their entries count, and the call is not an elimination
    counts["eliminated_entries"] += len(m.triples)
    return reduce_rows(echelon, m)


linalg._reduced_rows = counted_reduce
linalg.ExactMatrix.__matmul__, linalg.ExactMatrix.__add__ = counted_matmul, counted_add
# operators binds both by name; lie and invariant_basis read them off forms when called
for module in (forms, operators):
    module.leibniz = counting("leibniz", module.leibniz)
    module.enumerate_basis = counting("invariant_bases", module.enumerate_basis, lambda n, p, q, m: m.kind == "invariant")
cohomology.CohomologyEngine._harmonic_system = counting("gram_systems", cohomology.CohomologyEngine._harmonic_system)
for job in workloads.prepare(workload, 0, root, workdir)["jobs"]:
    eliminated.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        counts["codes"].append(cli.main(job))
print(json.dumps(counts))
"""


def count_work(workload: str, workdir: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("ACX_WORKERS", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", COUNTER, str(ROOT), workload, str(workdir), ",".join(KINDS)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_bench_jobs_do_no_more_work_than_pinned(tmp_path):
    for workload, pinned in PINNED.items():
        counts = count_work(workload, tmp_path)
        assert counts["codes"] and not any(counts["codes"]), (workload, counts)
        for kind, ceiling in zip(KINDS, pinned):
            assert counts[kind] <= ceiling, (workload, kind, counts)
