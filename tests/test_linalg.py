import random
from fractions import Fraction

import pytest

from acx import linalg
from acx.linalg import (
    AmbientMismatch,
    ExactMatrix,
    NotContained,
    full_space,
    image,
    intersect,
    kernel,
    preimage,
    quotient_dim,
    rank,
    realify,
    realify_vector,
    solve,
    solve_many,
    subspace_from_vectors,
    sum_spaces,
    zero_space,
)
from acx.scalars import I, MINUS_ONE, ONE, ZERO, Scalar, integer


def rand_scalar(rng, density=0.5):
    if rng.random() > density:
        return ZERO
    return Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), Fraction(rng.randint(-3, 3), rng.randint(1, 3)))


def rand_matrix(rng, rows, cols, density=0.4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            v = rand_scalar(rng, density)
            if v:
                entries[(r, c)] = v
    return ExactMatrix(rows, cols, entries)


def test_rank_examples():
    assert rank(ExactMatrix.zeros(3, 3)) == 0
    m = ExactMatrix.from_rows([[ONE, I], [I, MINUS_ONE]])
    assert rank(m) == 1
    assert rank(ExactMatrix.identity(4)) == 4


def test_kernel_examples():
    assert kernel(ExactMatrix.identity(2)).dim == 0
    assert kernel(ExactMatrix.zeros(2, 3)).dim == 3
    m = ExactMatrix.from_rows([[ONE, I], [I, MINUS_ONE]])
    k = kernel(m)
    assert k.dim == 1
    for v in k.basis:
        assert not any(m.apply(v))


def test_image_examples():
    assert image(ExactMatrix.identity(3)).dim == 3
    assert image(ExactMatrix.zeros(3, 2)).dim == 0


def test_rank_nullity_random():
    rng = random.Random(20260810)
    for _ in range(40):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, rows, cols)
        assert rank(m) + kernel(m).dim == cols
        assert image(m).dim == rank(m)


def test_solve_roundtrip_random():
    rng = random.Random(99)
    for _ in range(30):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = rand_matrix(rng, rows, cols)
        x = tuple(rand_scalar(rng, 0.8) for _ in range(cols))
        b = m.apply(x)
        got = solve(m, b)
        assert got is not None
        assert m.apply(got) == b
        rev = solve(m, b, reverse_pivots=True)
        assert rev is not None and m.apply(rev) == b


def test_solve_unsolvable():
    m = ExactMatrix.zeros(2, 2)
    assert solve(m, (ONE, ZERO)) is None
    assert solve(ExactMatrix.identity(3), (ONE, I, ZERO)) == (ONE, I, ZERO)


def test_solve_many_matches_solve():
    rng = random.Random(5)
    m = rand_matrix(rng, 5, 4)
    good = m.apply(tuple(rand_scalar(rng, 0.9) for _ in range(4)))
    bad = tuple(ONE for _ in range(5))
    results = solve_many(m, [good, bad])
    assert results[0] is not None and m.apply(results[0]) == good
    assert results[0] == solve(m, good)
    assert results[1] == solve(m, bad)


def test_intersect_examples_and_order():
    f = full_space(3)
    assert intersect([f, f]).dim == 3
    e1 = subspace_from_vectors(2, [(ONE, ZERO)])
    e2 = subspace_from_vectors(2, [(ZERO, ONE)])
    assert intersect([e1, e2]).dim == 0
    rng = random.Random(3)
    for _ in range(15):
        spaces = [image(rand_matrix(rng, 5, rng.randint(1, 4), 0.7)) for _ in range(3)]
        dims = set()
        for order in ([0, 1, 2], [2, 0, 1], [1, 2, 0]):
            dims.add(intersect([spaces[i] for i in order]).dim)
        assert len(dims) == 1
        inter = intersect(spaces)
        for v in inter.basis:
            assert all(s.contains(v) for s in spaces)


def test_intersect_ambient_mismatch():
    with pytest.raises(AmbientMismatch):
        intersect([full_space(2), full_space(3)])


def test_quotient_dim():
    f = full_space(4)
    z = zero_space(4)
    assert quotient_dim(f, z) == 4
    assert quotient_dim(f, f) == 0
    line = subspace_from_vectors(2, [(ONE, ZERO)])
    other = subspace_from_vectors(2, [(ZERO, ONE)])
    with pytest.raises(NotContained):
        quotient_dim(line, other)
    rng = random.Random(17)
    for _ in range(20):
        m = rand_matrix(rng, 5, 5, 0.5)
        im = image(m)
        sub = subspace_from_vectors(5, im.basis[: max(0, im.dim - 1)])
        assert quotient_dim(im, sub) + sub.dim == im.dim


def test_preimage():
    m = ExactMatrix.from_rows([[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]])
    w = subspace_from_vectors(3, [(ONE, ZERO, ZERO)])
    pre = preimage(m, w)
    assert pre.dim == 1
    assert pre.contains((ONE, ZERO))


def test_sum_spaces():
    e1 = subspace_from_vectors(3, [(ONE, ZERO, ZERO)])
    e2 = subspace_from_vectors(3, [(ZERO, ONE, ZERO)])
    assert sum_spaces([e1, e2]).dim == 2


def test_subspace_equality_is_canonical():
    two = integer(2)
    a = subspace_from_vectors(2, [(two, two)])
    b = subspace_from_vectors(2, [(ONE, ONE)])
    assert a == b


def test_realify_respects_products():
    rng = random.Random(23)
    m = rand_matrix(rng, 3, 4, 0.8)
    x = tuple(rand_scalar(rng, 0.9) for _ in range(4))
    lhs = realify_vector(m.apply(x))
    rhs = realify(m).apply(realify_vector(x))
    assert lhs == rhs
    conj_x = tuple(v.conj() for v in x)
    assert linalg.conjugation_flip(4).apply(realify_vector(x)) == realify_vector(conj_x)


# ---------------------------------------------------------------------------
# differential oracle: the dense Gauss-Jordan that once eliminated every matrix
# narrower than 64 columns, kept here as the reference for the sparse kernel


def dense_rref_full(m, pivot_limit=None):
    rows = [[ZERO] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    limit = m.cols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(limit):
        sel = None
        for i in range(r, nrows):
            if rows[i][c]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = rows[r][c].inverse()
        if inv != ONE:
            rows[r] = [v * inv for v in rows[r]]
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    reduced = [{c: v for c, v in enumerate(rows[i]) if v} for i in range(len(pivots))]
    leftover = [{c: v for c, v in enumerate(rows[i]) if v} for i in range(len(pivots), nrows)]
    return pivots, reduced, leftover


def dense_basis(n, reduced):
    return tuple(tuple(rd.get(c, ZERO) for c in range(n)) for rd in reduced)


def dense_kernel(m):
    pivots, red, _ = dense_rref_full(m)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            if red[i].get(f):
                vec[p] = -red[i][f]
        vectors.append(vec)
    if not vectors:
        return ()
    return dense_basis(m.cols, dense_rref_full(ExactMatrix.from_rows(vectors, m.cols))[1])


def dense_image(m):
    return dense_basis(m.rows, dense_rref_full(m.transpose())[1])


def dense_solve(m, b, reverse_pivots):
    perm = list(range(m.cols))[::-1] if reverse_pivots else list(range(m.cols))
    inv_perm = {oldc: newc for newc, oldc in enumerate(perm)}
    entries = {(r, inv_perm[c]): v for (r, c), v in m.entries.items()}
    entries.update(((r, m.cols), v) for r, v in enumerate(b) if v)
    pivots, red, _ = dense_rref_full(ExactMatrix(m.rows, m.cols + 1, entries))
    if m.cols in pivots:
        return None
    x = [ZERO] * m.cols
    for i, p in enumerate(pivots):
        x[p] = red[i].get(m.cols, ZERO)
    return tuple(x[inv_perm[c]] for c in range(m.cols))


def dense_solve_many(m, rhs_list):
    entries = dict(m.entries)
    for j, b in enumerate(rhs_list):
        entries.update(((r, m.cols + j), v) for r, v in enumerate(b) if v)
    aug = ExactMatrix(m.rows, m.cols + len(rhs_list), entries)
    pivots, red, leftover = dense_rref_full(aug, pivot_limit=m.cols)
    bad = {c - m.cols for row in leftover for c in row}
    out = []
    for j in range(len(rhs_list)):
        x = [ZERO] * m.cols
        for i, p in enumerate(pivots):
            x[p] = red[i].get(m.cols + j, ZERO)
        out.append(None if j in bad else tuple(x))
    return out


def low_rank_matrix(rng, rows, cols, rank_, density):
    return rand_matrix(rng, rows, rank_, density) @ rand_matrix(rng, rank_, cols, density)


def fourier_block_matrix(rng, weights, block_rows, block_cols):
    """Block-diagonal like an operator on a truncated complex: the block of weight w
    is A + w*B, with A of rank one, so the weight-zero block loses rank."""
    a = low_rank_matrix(rng, block_rows, block_cols, 1, 0.8)
    b = rand_matrix(rng, block_rows, block_cols, 0.4)
    entries = {}
    for k, w in enumerate(weights):
        for (r, c), v in (a + b.scale(integer(w))).entries.items():
            entries[(k * block_rows + r, k * block_cols + c)] = v
    return ExactMatrix(len(weights) * block_rows, len(weights) * block_cols, entries)


def oracle_matrices():
    rng = random.Random(20261018)
    for cols in (5, 63, 64):
        yield f"random-{cols}", rand_matrix(rng, 4, cols, 0.15)
        yield f"low-rank-{cols}", low_rank_matrix(rng, 5, cols, 2, 0.3)
    for weights in ((0,), (-1, 0, 1), tuple(range(-4, 5))):
        m = fourier_block_matrix(rng, weights, 3, 8)
        yield f"fourier-{m.rows}x{m.cols}", m
        yield f"fourier-T-{m.cols}x{m.rows}", m.transpose()
    yield "zero-3x70", ExactMatrix.zeros(3, 70)
    yield "empty-0x5", ExactMatrix.zeros(0, 5)


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in oracle_matrices()])
def test_sparse_kernel_matches_dense_gauss_jordan(name, m):
    rng = random.Random(name)
    pivots, reduced, _ = dense_rref_full(m)
    assert linalg.rref(m) == (pivots, reduced)
    assert kernel(m).basis == dense_kernel(m)
    assert image(m).basis == dense_image(m)
    inside = m.apply(tuple(rand_scalar(rng, 0.6) for _ in range(m.cols)))
    outside = tuple(rand_scalar(rng, 0.6) for _ in range(m.rows))
    for b in (inside, outside):
        for reverse in (False, True):
            assert solve(m, b, reverse_pivots=reverse) == dense_solve(m, b, reverse)
    assert solve(m, inside) is not None
    rhs = [inside, outside, tuple(ZERO for _ in range(m.rows))]
    assert solve_many(m, rhs) == dense_solve_many(m, rhs)


def test_oracle_covers_rank_deficiency_and_no_solution():
    matrices = dict(oracle_matrices())
    low = matrices["low-rank-64"]
    assert rank(low) == 2
    assert solve(low, tuple(ONE for _ in range(low.rows))) is None
    fourier = matrices["fourier-27x72"]
    assert fourier.cols > 64 and rank(fourier) == 8 * 3 + 1
