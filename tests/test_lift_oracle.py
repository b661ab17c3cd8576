"""Differential oracle for the lifted pointwise operators and the linear coefficient eigenvalues.

HermitianStructure.star, lefschetz_block, lambda_block and inner lift one
matrix on invariant monomials to every Fourier weight (FormComplex.lift),
and FormComplex reads the eigenvalues of Z_r and Zbar_r from one n x rank
matrix.  The constructions they replaced are kept here as references: the
star copy loop, L from a Form wedge on each monomial of each weight, Lambda
as a product of three truncated matrices, the offset loop of inner, and the
eigenvalue loop over weights, frame rows and frame vectors.
"""

import random

from acx.forms import Form
from acx.linalg import ExactMatrix
from acx.metric import HermitianMetric, HermitianStructure
from acx.scalars import I, ONE, ZERO, Scalar, as_scalar, integer, rational

from conftest import sector_complexes


def reference_star(h, p, q):
    inv = h.star_invariant(p, q)
    copies = max(len(h.complex.coefficients.weights()), 1)
    entries = {}
    for w in range(copies):
        ro = w * inv.rows
        co = w * inv.cols
        for (r, c), v in inv.entries.items():
            entries[(r + ro, c + co)] = v
    return ExactMatrix(inv.rows * copies, inv.cols * copies, entries)


def reference_lefschetz(h, p, q):
    cx = h.complex
    src = cx.basis(p, q)
    if not cx.valid_bidegree(p + 1, q + 1):
        return ExactMatrix(0, len(src))
    tgt_index = cx.index(p + 1, q + 1)
    entries = {}
    for col, elt in enumerate(src):
        img = h.omega.wedge(Form.monomial(elt))
        for e, c in img.coeffs.items():
            entries[(tgt_index[e], col)] = c
    return ExactMatrix(cx.dim(p + 1, q + 1), len(src), entries)


def reference_lambda(h, p, q):
    n = h.n
    if not h.complex.valid_bidegree(p - 1, q - 1):
        return ExactMatrix(0, h.complex.dim(p, q))
    s_in = reference_star(h, p, q)
    lef = reference_lefschetz(h, n - q, n - p)
    s_out = reference_star(h, n - q + 1, n - p + 1)
    mat = s_out @ lef @ s_in
    return mat if (p + q) % 2 == 0 else -mat


def reference_inner(h, x, y, p, q):
    inv = h.gram_invariant(p, q)
    gram = [[inv.entry(a, b) for b in range(inv.cols)] for a in range(inv.rows)]
    size = len(gram)
    total = ZERO
    for off in range(0, h.complex.dim(p, q), size):
        for a in range(size):
            xa = x[off + a]
            if not xa:
                continue
            for b in range(size):
                yb = y[off + b]
                if yb:
                    total = total + xa * gram[a][b] * yb.conj()
    return total


def reference_eigenvalues(cx):
    """(Z eigenvalues, Zbar eigenvalues) per weight, one frame vector at a time."""
    model = cx.coefficients

    def frame_eigenvalue(a, w):
        if model.kind == "invariant":
            return ZERO
        acc = ZERO
        for r, x in zip(model.actions[a - 1], w):
            if r and x:
                acc = acc + r * as_scalar(x)
        return I * acc

    z_eig, zbar_eig = {}, {}
    for w in model.weights():
        z_eigs, zbar_eigs = [], []
        for zr in cx.frame.z_vectors:
            acc = acc_bar = ZERO
            for a, coord in enumerate(zr, start=1):
                if coord:
                    lam = frame_eigenvalue(a, w)
                    if lam:
                        acc = acc + coord * lam
                        acc_bar = acc_bar + coord.conj() * lam
            z_eigs.append(acc)
            zbar_eigs.append(acc_bar)
        z_eig[w], zbar_eig[w] = tuple(z_eigs), tuple(zbar_eigs)
    return z_eig, zbar_eig


def assert_lifts_match(label, h, rng):
    cx = h.complex
    assert (cx._z_eig, cx._zbar_eig) == reference_eigenvalues(cx), label
    for p in range(h.n + 1):
        for q in range(h.n + 1):
            cell = (label, p, q)
            assert h.star(p, q) == reference_star(h, p, q), cell
            # L from (0,0) is non-square: a swapped row/column offset would show here
            assert h.lefschetz_block(p, q) == reference_lefschetz(h, p, q), cell
            assert h.lambda_block(p, q) == reference_lambda(h, p, q), cell
            dim = cx.dim(p, q)
            x = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
            y = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
            assert h.inner(x, y, p, q) == reference_inner(h, x, y, p, q), cell


def test_lifts_match_references_on_oracle_engines(oracle_engines):
    rng = random.Random(10)
    for label, engine in oracle_engines:
        assert_lifts_match(label, engine.hermitian, rng)


def test_lifts_match_references_on_kt4_sectors(kt4_session):
    """Every sector {w, -w} of kt4 at N = 3, which holds the sectors of N = 0..2, for two metrics."""
    rng = random.Random(11)
    third_i = rational(1, 3) * I
    generic = HermitianMetric(((integer(2), third_i), (-third_i, ONE)))
    for metric in (kt4_session.spec.metric, generic):
        for cx in sector_complexes(kt4_session, 3):
            assert_lifts_match(f"kt4 sector {cx.coefficients.sector}", HermitianStructure(cx, metric), rng)


def test_lift_places_one_copy_per_weight(kt4_session):
    cx = sector_complexes(kt4_session, 1)[-1]
    assert len(cx.coefficients.weights()) == 2
    inv = ExactMatrix(2, 1, {(0, 0): integer(3), (1, 0): I})
    assert cx.lift(inv) == ExactMatrix(4, 2, {(0, 0): integer(3), (1, 0): I, (2, 1): integer(3), (3, 1): I})
