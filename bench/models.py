"""Seeded random invariant models for the random-rational-sweep workload.

Every model is a two-step nilpotent Lie algebra with the standard almost
complex structure, transported through a random invertible rational change
of basis, and carries a random non-diagonal rational Hermitian metric that is
diagonally dominant and therefore positive definite.  The same seed always
gives the same manifests, byte for byte.  Only the standard library is used;
nothing here imports the package under test.
"""

from __future__ import annotations

import random
from fractions import Fraction


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _mat_inv(m):
    """Inverse over Q by Gauss-Jordan elimination, or None if singular."""
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


def _standard_j(real_dim: int):
    """J e_{2k-1} = e_{2k}, J e_{2k} = -e_{2k-1}, in the column-action convention."""
    j = [[Fraction(0)] * real_dim for _ in range(real_dim)]
    for k in range(0, real_dim, 2):
        j[k][k + 1] = Fraction(-1)
        j[k + 1][k] = Fraction(1)
    return j


def _random_invertible(rng: random.Random, n: int):
    """A random n x n matrix with entries in [-2, 2], redrawn until invertible."""
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(n)]
        q = _mat_inv(p)
        if q is not None:
            return p, q


def _random_dense_invertible(rng: random.Random, n: int):
    """P = L U with every off-diagonal entry of L and U in {-1, 1}, unit L and
    diag(U) in {1, 2}: always invertible, always dense, |det P| <= 2^n.

    A dense P makes every transported frame dense, so the cost of one model
    varies little from seed to seed while its coefficients stay non-unit.
    """
    lower = [[Fraction(1) if i == j else Fraction(rng.choice((-1, 1)) if i > j else 0) for j in range(n)] for i in range(n)]
    upper = [[Fraction(rng.choice((1, 2))) if i == j else Fraction(rng.choice((-1, 1)) if i < j else 0) for j in range(n)] for i in range(n)]
    p = _mat_mul(lower, upper)
    return p, _mat_inv(p)


def _transport(base_brackets, p, q, real_dim: int) -> list:
    """Structure constants in the frame f_a = sum_j P[j][a] e_j, as manifest rows."""
    entries = []
    for fa in range(1, real_dim + 1):
        for fb in range(fa + 1, real_dim + 1):
            target = [Fraction(0)] * real_dim
            for (i, j), comps in base_brackets.items():
                coeff = p[i - 1][fa - 1] * p[j - 1][fb - 1] - p[j - 1][fa - 1] * p[i - 1][fb - 1]
                if coeff:
                    for k, v in comps.items():
                        target[k - 1] += coeff * v
            for l in range(real_dim):
                val = sum(q[l][k] * target[k] for k in range(real_dim))
                if val:
                    entries.append([fa, fb, l + 1, str(val)])
    return entries


def _format_gaussian(re: Fraction, im: Fraction) -> str:
    if not im:
        return str(re)
    sign = "+" if im > 0 else "-"
    return f"{re}{sign}{abs(im)}*i"


def random_metric(rng: random.Random, n: int) -> list[list[str]]:
    """A random non-diagonal Hermitian matrix with a dominant real diagonal.

    Off-diagonal entries are Gaussian rationals with |re|, |im| <= 2; each
    diagonal entry exceeds the sum of |re| + |im| over its row, so the matrix
    is strictly diagonally dominant with a positive diagonal, hence positive
    definite.
    """
    g = [[(Fraction(0), Fraction(0)) for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for j in range(k + 1, n):
            re = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            im = Fraction(rng.randint(-2, 2), rng.randint(1, 3))
            if not (re or im):
                re = Fraction(1, 2)
            g[k][j] = (re, im)
            g[j][k] = (re, -im)
    for k in range(n):
        bound = sum(abs(g[k][j][0]) + abs(g[k][j][1]) for j in range(n) if j != k)
        g[k][k] = (bound + Fraction(rng.randint(1, 4), rng.randint(1, 3)), Fraction(0))
    return [[_format_gaussian(*g[k][j]) for j in range(n)] for k in range(n)]


def random_4d_manifest(rng: random.Random) -> dict:
    """A random valid 4-dimensional manifest: a two-step nilpotent bracket and
    a rational J, both transported through a random rational change of basis,
    plus a random Hermitian metric."""
    a = Fraction(rng.randint(-2, 2))
    b = Fraction(rng.randint(-2, 2))
    base_brackets = {(1, 2): {3: a, 4: b}}
    p, q = _random_invertible(rng, 4)
    entries = _transport(base_brackets, p, q, 4)
    j_new = _mat_mul(_mat_mul(q, _standard_j(4)), p)
    return {
        "name": f"random-{rng.randint(0, 10**9)}",
        "real_dim": 4,
        "brackets": entries,
        "J": [[str(x) for x in row] for row in j_new],
        "metric": random_metric(rng, 2),
        "coefficients": {"type": "invariant"},
        "tasks": [],
    }


def random_6d_manifest(rng: random.Random) -> dict:
    """A random 6-dimensional two-step nilpotent model.

    Brackets [e1,e2] = a e4, [e1,e3] = b e5, [e2,e3] = c e6, transported with
    J through a random dense rational change of basis, plus a random
    Hermitian metric.  |a|, |b|, |c| are 1, 2, 3 in random order with random
    signs: equal magnitudes allow cancellations that make a model up to a
    quarter cheaper, which would make the cost of a pass depend on the seed.
    """
    magnitudes = [1, 2, 3]
    rng.shuffle(magnitudes)
    a, b, c = (Fraction(m * rng.choice((-1, 1))) for m in magnitudes)
    base_brackets = {(1, 2): {4: a}, (1, 3): {5: b}, (2, 3): {6: c}}
    p, q = _random_dense_invertible(rng, 6)
    entries = _transport(base_brackets, p, q, 6)
    j_new = _mat_mul(_mat_mul(q, _standard_j(6)), p)
    return {
        "name": f"random6-{rng.randint(0, 10**9)}",
        "real_dim": 6,
        "brackets": entries,
        "J": [[str(x) for x in row] for row in j_new],
        "metric": random_metric(rng, 3),
        "coefficients": {"type": "invariant"},
        "tasks": [],
    }


def sweep_manifests(seed: int, six_dim: int, four_dim: int) -> list[dict]:
    """The sweep's models for one seed: six_dim 6-dim models, then four_dim 4-dim ones."""
    rng = random.Random(seed)
    models = [random_6d_manifest(rng) for _ in range(six_dim)]
    models.extend(random_4d_manifest(rng) for _ in range(four_dim))
    return models
