import importlib.util
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from acx import linalg
from acx.cli import Session, manifest_from_dict, parse_manifest
from acx.cohomology import CohomologyEngine
from acx.linalg import ExactMatrix
from acx.operators import FormComplex, compose

BENCH = Path(__file__).resolve().parents[1] / "bench"
MANIFESTS = Path(__file__).resolve().parents[1] / "src" / "acx" / "manifests"


def bundled_manifest_path(name: str) -> str:
    """The path of a manifest shipped with the package."""
    return str(MANIFESTS / f"{name}.json")


def contains(space, vec) -> bool:
    """Whether the vector lies in the subspace."""
    return space.outside(ExactMatrix.from_rows([vec], space.ambient_dim)) == 0


def load_bench_module(name: str):
    """A module of the benchmark, loaded without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def sweep_sessions(seed: int) -> list[Session]:
    """The benchmark sweep's models for one seed: three 6-dim, then two 4-dim."""
    return [Session(manifest_from_dict(raw)) for raw in load_bench_module("models").sweep_manifests(seed, 3, 2)]


@pytest.fixture(scope="session")
def kt4_session():
    return Session(parse_manifest(bundled_manifest_path("kt4")))


@pytest.fixture(scope="session")
def torus_session():
    return Session(parse_manifest(bundled_manifest_path("torus4")))


@pytest.fixture(scope="session")
def nil6_session():
    return Session(parse_manifest(bundled_manifest_path("nil6")))


@pytest.fixture(scope="session")
def kodaira_session():
    # the same nilmanifold as kt4 but with the integrable complex structure:
    # mu and mubar vanish and the refined degree-one numbers differ (1 vs 2)
    raw = {
        "name": "kodaira4",
        "real_dim": 4,
        "brackets": [[1, 2, 3, "1"]],
        "J": [
            ["0", "-1", "0", "0"],
            ["1", "0", "0", "0"],
            ["0", "0", "0", "-1"],
            ["0", "0", "1", "0"],
        ],
        "metric": [["1", "0"], ["0", "1"]],
        "coefficients": {"type": "invariant"},
        "tasks": [],
    }
    return Session(manifest_from_dict(raw))


@pytest.fixture(scope="session")
def oracle_engines(kt4_session, torus_session, nil6_session, kodaira_session):
    """(label, engine) of every model the differential oracles run on: kt4 at N = 0..2,
    torus4, nil6, kodaira4, four seeded random 4-dim models and the benchmark sweep's
    models at seeds 0 and 101."""
    cases = [(f"kt4 N={n}", kt4_session.engine(n)) for n in (0, 1, 2)]
    cases += [("torus4", torus_session.engine()), ("nil6", nil6_session.engine())]
    cases.append(("kodaira4", kodaira_session.engine()))
    rng = random.Random(4242)
    cases += [(f"random {k}", random_4d_session(rng).engine()) for k in range(4)]
    for seed in (0, 101):
        cases += [(f"sweep{seed} {k}", s.engine()) for k, s in enumerate(sweep_sessions(seed))]
    return cases


# -- realified references for the real (1,1) statements ----------------------------------------


def realified_real_subspace(engine, p: int):
    """The real (conjugation-fixed) vectors of the (p,p) block in doubled coordinates, as the kernel
    of conj - id realified: an elimination, where the engine reads the conjugation permutation."""
    conj = linalg.realify(None, engine.complex.conj_struct(p, p))
    return linalg.kernel(conj - ExactMatrix.identity(conj.rows))


def real_ddc_parts(engine):
    """The real ddc quotient in doubled coordinates: ker(del dbar) on real (1,1)-forms, from one
    stacked realified kernel, over the realified image of d^{1,1} on real 1-forms."""
    ddc = linalg.realify(compose(engine.block, ["partial", "dbar"], 1, 1))
    conj = linalg.realify(None, engine.complex.conj_struct(1, 1))
    numerator = linalg.kernel(ExactMatrix.vstack([ddc, conj - ExactMatrix.identity(conj.rows)]))
    denominator = linalg.map_subspace(linalg.realify(engine._d11()), engine.real_one_forms())
    return numerator, denominator


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_inv(m):
    n = len(m)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m)]
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, n) if aug[i][c]), None)
        if sel is None:
            return None
        aug[r], aug[sel] = aug[sel], aug[r]
        piv = aug[r][c]
        aug[r] = [x / piv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        r += 1
    return [row[n:] for row in aug]


def random_4d_manifest(rng: random.Random) -> dict:
    """A random valid 4-dimensional manifest: a two-step nilpotent bracket and
    a rational J, both transported through a random rational change of basis."""
    a = Fraction(rng.randint(-2, 2))
    b = Fraction(rng.randint(-2, 2))
    base_brackets = {(1, 2): {3: a, 4: b}}
    j0 = [
        [Fraction(0), Fraction(-1), Fraction(0), Fraction(0)],
        [Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
    ]
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        q = _mat_inv(p)
        if q is not None:
            break
    # structure constants in the transported frame f_a = sum_j P[j][a] e_j
    entries = []
    for fa in range(1, 5):
        for fb in range(fa + 1, 5):
            target = [Fraction(0)] * 4
            for (i, j), comps in base_brackets.items():
                coeff = p[i - 1][fa - 1] * p[j - 1][fb - 1] - p[j - 1][fa - 1] * p[i - 1][fb - 1]
                if coeff:
                    for k, v in comps.items():
                        target[k - 1] += coeff * v
            for l in range(4):
                val = sum(q[l][k] * target[k] for k in range(4))
                if val:
                    entries.append([fa, fb, l + 1, str(val)])
    j_new = _mat_mul(_mat_mul(q, j0), p)
    return {
        "name": f"random-{rng.randint(0, 10**9)}",
        "real_dim": 4,
        "brackets": entries,
        "J": [[str(x) for x in row] for row in j_new],
        "coefficients": {"type": "invariant"},
        "tasks": [],
    }


def random_4d_session(rng: random.Random) -> Session:
    return Session(manifest_from_dict(random_4d_manifest(rng)))


NON_UNIT_RATIONALS = [Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3) if abs(Fraction(a, b)) != 1]


def random_fourier_manifest(rng: random.Random, name: str, rank: int) -> dict:
    """A bundled manifest with a seeded torus_fourier model at truncation 1.

    A random maximal set of closed, pairwise commuting frame directions of the
    algebra acts, each by a random row of non-unit rationals.
    """
    with open(bundled_manifest_path(name), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    algebra = parse_manifest(bundled_manifest_path(name)).algebra
    table = algebra.bracket_table()
    closed = [a for a in range(1, algebra.dim + 1) if algebra.coframe_is_closed(a)]
    rng.shuffle(closed)
    acting: list[int] = []
    for a in closed:
        if not any(table.get((min(a, b), max(a, b))) for b in acting):
            acting.append(a)
    actions = [
        [str(rng.choice(NON_UNIT_RATIONALS)) if a in acting else "0" for _ in range(rank)]
        for a in range(1, algebra.dim + 1)
    ]
    raw["name"] = f"{name}-fourier-rank{rank}"
    raw["coefficients"] = {"type": "torus_fourier", "rank": rank, "actions": actions, "truncation": 1}
    return raw


@pytest.fixture(scope="session")
def fourier_sessions() -> list[tuple[str, Session]]:
    """(label, session) of seeded random torus_fourier models on kt4, torus4 and nil6 at ranks 1 and 2,
    and kt4 with the degenerate action rows [[1, 0], [0, 0], [0, 0], [0, 0]], all at truncation 1."""
    rng = random.Random(4242)
    cases = []
    for name in ("kt4", "torus4", "nil6"):
        for rank in (1, 2):
            raw = random_fourier_manifest(rng, name, rank)
            cases.append((raw["name"], Session(manifest_from_dict(raw))))
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["coefficients"]["actions"] = [["1", "0"], ["0", "0"], ["0", "0"], ["0", "0"]]
    cases.append(("kt4-degenerate", Session(manifest_from_dict(raw))))
    return cases


def sectors(model) -> list[tuple[int, ...]]:
    """One representative w >= -w of each conjugation pair of the model's weights."""
    return [w for w in model.weights() if w >= tuple(-x for x in w)]


def sector_model(model, w: tuple[int, ...]):
    """The model restricted to the sector {w, -w}, at the truncation of w."""
    return replace(model, truncation=max(map(abs, w)), kept=tuple(sorted({w, tuple(-x for x in w)})))


def engine_on(session: Session, model) -> CohomologyEngine:
    """A fresh engine on the session's frame and metric, over the weights of this model."""
    return CohomologyEngine.of(session.frame, model, session.spec.metric)


def sector_complexes(session: Session, truncation: int) -> list[FormComplex]:
    """One complex per weight sector {w, -w} of the session's model at this truncation."""
    model = session.spec.coefficients.with_truncation(truncation)
    return [FormComplex(session.frame, sector_model(model, w)) for w in sectors(model)]


def assert_sectors_decompose(session: Session, truncation: int, names, cells) -> None:
    """The ranks and kernel dimensions of the sector blocks add up to the whole block's."""
    whole_cx = session.complex(truncation)
    sectors = sector_complexes(session, truncation)
    for name in names:
        for p, q in cells:
            whole = whole_cx.block(name, p, q)
            if whole.rows == 0:
                continue
            parts = [cx.block(name, p, q) for cx in sectors]
            assert sum(linalg.rank(b) for b in parts) == linalg.rank(whole)
            assert sum(linalg.kernel(b).dim for b in parts) == linalg.kernel(whole).dim
