import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

from acx import linalg
from acx.linalg import (
    AmbientMismatch,
    ExactMatrix,
    NotContained,
    Subspace,
    complexify,
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
from acx.scalars import I, ONE, ZERO, Scalar, integer

from conftest import contains, real_ddc_parts


def full_space(n):
    return kernel(ExactMatrix(0, n))


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
    assert rank(ExactMatrix(3, 3)) == 0
    m = ExactMatrix.from_rows([[ONE, I], [I, -ONE]])
    assert rank(m) == 1
    assert rank(ExactMatrix.identity(4)) == 4


def test_kernel_examples():
    assert kernel(ExactMatrix.identity(2)).dim == 0
    assert kernel(ExactMatrix(2, 3)).dim == 3
    m = ExactMatrix.from_rows([[ONE, I], [I, -ONE]])
    k = kernel(m)
    assert k.dim == 1
    for v in k.basis:
        assert not any(m.apply(v))


def test_image_examples():
    assert image(ExactMatrix.identity(3)).dim == 3
    assert image(ExactMatrix(3, 2)).dim == 0


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
    m = ExactMatrix(2, 2)
    assert solve(m, (ONE, ZERO)) is None
    assert solve(ExactMatrix.identity(3), (ONE, I, ZERO)) == (ONE, I, ZERO)


def solve_columns(m, rhs_list, reverse=False):
    """solve_many on the right-hand sides rhs_list, read back as one dense solution per side, None if inconsistent."""
    rhs = ExactMatrix(m.rows, len(rhs_list), {(r, j): v for j, b in enumerate(rhs_list) for r, v in enumerate(b)})
    x, inconsistent = solve_many(m, rhs, reverse_pivots=reverse)
    assert inconsistent == sorted(inconsistent) and all(not x.entry(r, j) for j in inconsistent for r in range(m.cols))
    return [None if j in inconsistent else tuple(x.entry(r, j) for r in range(m.cols)) for j in range(len(rhs_list))]


def test_solve_many_matches_solve():
    rng = random.Random(5)
    m = rand_matrix(rng, 5, 4)
    good = m.apply(tuple(rand_scalar(rng, 0.9) for _ in range(4)))
    bad = tuple(ONE for _ in range(5))
    results = solve_columns(m, [good, bad])
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
            assert all(contains(s, v) for s in spaces)


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
    assert contains(pre, (ONE, ZERO))


def test_sum_spaces():
    e1 = subspace_from_vectors(3, [(ONE, ZERO, ZERO)])
    e2 = subspace_from_vectors(3, [(ZERO, ONE, ZERO)])
    assert sum_spaces([e1, e2]).dim == 2


def test_outside_counts_rows():
    """Rows, not violated constraints: e2, e3 and e2 + e3 leave the line of e1, which has two constraints."""
    line = subspace_from_vectors(3, [(ONE, ZERO, ZERO)])
    m = ExactMatrix.from_rows([[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE], [ZERO, ONE, ONE], [I, ZERO, ZERO]])
    assert line.constraint.rows == 2
    assert line.outside(m) == 3
    with pytest.raises(AmbientMismatch):
        line.outside(ExactMatrix.identity(2))


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
    assert realify(None, ExactMatrix.identity(4)).apply(realify_vector(x)) == realify_vector(conj_x)
    m2 = rand_matrix(rng, 3, 4, 0.8)
    # the antilinear part is applied to conj(x) and summed with the linear part
    want = tuple(u + v for u, v in zip(m.apply(x), m2.apply(conj_x)))
    assert realify(m, m2).apply(realify_vector(x)) == realify_vector(want)
    assert realify(m, -m) == realify(m) + realify(None, -m) and realify(None, m2).rows == 6


def test_complexify_undoes_realify_vector():
    """Columns of realified coordinates come back as the complex columns, and d(x) = 0 iff realify(d) x' = 0."""
    rng = random.Random(29)
    for density in (0.0, 0.4, 0.9):
        cols = [tuple(rand_scalar(rng, density) for _ in range(4)) for _ in range(3)]
        realified = ExactMatrix.from_rows([realify_vector(c) for c in cols]).transpose()
        assert complexify(realified) == ExactMatrix.from_rows(cols).transpose()
        m = rand_matrix(rng, 3, 4, 0.5)
        assert (m @ complexify(realified)).is_zero() == (realify(m) @ realified).is_zero()
    assert complexify(ExactMatrix(6, 0, {})).rows == 3
    # a pair whose parts cancel, -i + i*1, leaves no entry
    assert complexify(ExactMatrix(2, 1, {(0, 0): -I, (1, 0): ONE})).entries == {}


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


def fourier_block_matrix(rng, weights, block_rows, block_cols, density=0.4, low_density=0.8):
    """Block-diagonal like an operator on a truncated complex: the block of weight w
    is A + w*B, with A of rank one, so the weight-zero block loses rank."""
    a = low_rank_matrix(rng, block_rows, block_cols, 1, low_density)
    b = rand_matrix(rng, block_rows, block_cols, density)
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
    yield "zero-3x70", ExactMatrix(3, 70)
    yield "empty-0x5", ExactMatrix(0, 5)


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
    assert solve_columns(m, rhs) == dense_solve_many(m, rhs)


def test_oracle_covers_rank_deficiency_and_no_solution():
    matrices = dict(oracle_matrices())
    low = matrices["low-rank-64"]
    assert rank(low) == 2
    assert solve(low, tuple(ONE for _ in range(low.rows))) is None
    fourier = matrices["fourier-27x72"]
    assert fourier.cols > 64 and rank(fourier) == 8 * 3 + 1


# ---------------------------------------------------------------------------
# differential oracle: the sparse Gauss-Jordan that scanned every row for every
# column, and the product that accumulated into one (row, column)-keyed dict,
# kept as the references for the column-indexed kernel and the row-accumulated
# product


def reference_sparse_rref_full(m, pivot_limit=None, events=None):
    """events, if given, counts the entries filled in and cancelled off the pivot column."""
    rows = m.row_dicts()
    limit = m.cols if pivot_limit is None else pivot_limit
    pivots = []
    r = 0
    nrows = len(rows)
    for c in range(limit):
        sel = None
        for i in range(r, nrows):
            if c in rows[i]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        if inv != ONE:
            for k in list(prow):
                prow[k] = prow[k] * inv
        for i in range(nrows):
            if i != r:
                f = rows[i].get(c)
                if f:
                    tgt = rows[i]
                    for k, v in prow.items():
                        if events is not None and k != c:
                            if k not in tgt:
                                events["fill"] += 1
                            elif tgt[k] == f * v:
                                events["cancel"] += 1
                        s = tgt.get(k, ZERO) - f * v
                        if s:
                            tgt[k] = s
                        else:
                            tgt.pop(k, None)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    leftover = [row for row in rows[r:] if row]
    return pivots, rows[:r], leftover


def reference_matmul(a, b):
    by_row = {}
    for (r, c), v in b.entries.items():
        by_row.setdefault(r, []).append((c, v))
    acc = {}
    for (r, k), x in a.entries.items():
        for c, y in by_row.get(k, ()):
            key = (r, c)
            s = acc.get(key, ZERO) + x * y
            if s:
                acc[key] = s
            else:
                acc.pop(key, None)
    return ExactMatrix(a.rows, b.cols, acc)


def reference_kernel(m):
    """The kernel basis read through red[i].get(f) for every pivot and free column."""
    pivots, red, _ = reference_sparse_rref_full(m)
    free = [c for c in range(m.cols) if c not in pivots]
    entries = {}
    for r, f in enumerate(free):
        entries[(r, f)] = ONE
        for i, p in enumerate(pivots):
            coeff = red[i].get(f)
            if coeff:
                entries[(r, p)] = -coeff
    _, reduced, _ = reference_sparse_rref_full(ExactMatrix(len(free), m.cols, entries))
    return ExactMatrix(len(reduced), m.cols, {(r, c): v for r, row in enumerate(reduced) for c, v in row.items()})


def ordered(rows):
    """Rows with their key order, so a comparison pins the dicts bit for bit."""
    return [list(row.items()) for row in rows]


def spread_out(m):
    """m with an all-zero row and column before, between and after its own."""
    entries = {(2 * r + 1, 3 * c + 1): v for (r, c), v in m.entries.items()}
    return ExactMatrix(2 * m.rows + 1, 3 * m.cols + 1, entries)


def kernel_cases():
    yield from oracle_matrices()
    rng = random.Random(20261019)
    for density in (0.02, 0.05, 0.1, 0.2, 0.4, 0.6):
        m = fourier_block_matrix(rng, (-2, -1, 0, 1, 2), 4, 6, density, density)
        yield f"fourier-{density}", m
        yield f"fourier-T-{density}", m.transpose()
        yield f"random-{density}", rand_matrix(rng, 14, 18, density)
        yield f"low-rank-{density}", low_rank_matrix(rng, 16, 12, 5, density)
    yield "spread-out", spread_out(rand_matrix(rng, 5, 6, 0.5))
    yield "zero-rows-and-columns", ExactMatrix(4, 3)
    yield "empty-0x6", ExactMatrix(0, 6)
    yield "empty-6x0", ExactMatrix(6, 0)
    yield "empty-0x0", ExactMatrix(0, 0)


def solve_many_with_reference_kernel(m, rhs, reverse):
    """solve_columns with solve_many's elimination, linalg._triple_rref, run by the reference."""

    def reference_triple_rref(m, pivot_limit=None):
        pivots, red, leftover = reference_sparse_rref_full(m, pivot_limit)
        as_triples = lambda rows: [{k: v.triple for k, v in row.items()} for row in rows]
        return pivots, as_triples(red), as_triples(leftover)

    original = linalg._triple_rref
    linalg._triple_rref = reference_triple_rref
    try:
        return solve_columns(m, rhs, reverse)
    finally:
        linalg._triple_rref = original


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in kernel_cases()])
def test_column_indexed_kernel_matches_reference(name, m):
    rng = random.Random(f"{name}-kernel")
    for limit in sorted({None, 0, m.cols // 3, m.cols // 2, max(m.cols - 1, 0)}, key=lambda x: -1 if x is None else x):
        pivots, reduced, leftover = linalg._rref_full(m, limit)
        want = reference_sparse_rref_full(m, limit)
        assert pivots == want[0], limit
        assert ordered(reduced) == ordered(want[1]), limit
        assert ordered(leftover) == ordered(want[2]), limit
    got = kernel(m).rows
    want = reference_kernel(m)
    assert got == want and list(got.entries.items()) == list(want.entries.items())
    for left, right in (
        (m, rand_matrix(rng, m.cols, 7, 0.3)),
        (rand_matrix(rng, 5, m.rows, 0.3), m),
        (m.transpose(), m),
        (m, m.conjugate().transpose()),
    ):
        assert left @ right == reference_matmul(left, right)
    inside = m.apply(tuple(rand_scalar(rng, 0.6) for _ in range(m.cols)))
    outside = tuple(rand_scalar(rng, 0.6) for _ in range(m.rows))
    rhs = [inside, outside, tuple(ZERO for _ in range(m.rows))]
    for reverse in (False, True):
        assert solve_columns(m, rhs, reverse) == solve_many_with_reference_kernel(m, rhs, reverse)


def test_kernel_cases_fill_in_and_cancel():
    """The cases make the column index grow by fill-in and shrink by cancellation off the pivot column."""
    events = {"fill": 0, "cancel": 0}
    for _, m in kernel_cases():
        reference_sparse_rref_full(m, events=events)
    assert events["fill"] >= 100 and events["cancel"] >= 20, events


# ---------------------------------------------------------------------------
# differential oracle: the dense-tuple Subspace and its operations, which the
# canonical sparse reduced-row matrix and then the constraint and generator
# presentations replaced, kept as the reference


@dataclass(frozen=True)
class DenseSubspace:
    ambient_dim: int
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, vec):
        work = {c: v for c, v in enumerate(vec) if v}
        for row in self.basis:
            nz = [(c, v) for c, v in enumerate(row) if v]
            f = work.get(nz[0][0])
            if f:
                for c, v in nz:
                    s = work.get(c, ZERO) - f * v
                    if s:
                        work[c] = s
                    else:
                        work.pop(c, None)
        return not work


def ref_span(n, vectors):
    vectors = [tuple(v) for v in vectors]
    if any(len(v) != n for v in vectors):
        raise AmbientMismatch("vector length")
    if not vectors:
        return DenseSubspace(n, ())
    return DenseSubspace(n, dense_basis(n, linalg.rref(ExactMatrix.from_rows(vectors, n))[1]))


def ref_kernel(m):
    pivots, red = linalg.rref(m)
    vectors = []
    for f in (c for c in range(m.cols) if c not in pivots):
        vec = [ZERO] * m.cols
        vec[f] = ONE
        for i, p in enumerate(pivots):
            if red[i].get(f):
                vec[p] = -red[i][f]
        vectors.append(vec)
    return ref_span(m.cols, vectors)


def ref_image(m):
    return DenseSubspace(m.rows, dense_basis(m.rows, linalg.rref(m.transpose())[1]))


def ref_map(m, s):
    return ref_span(m.rows, (m.apply(v) for v in s.basis))


def ref_intersect(spaces):
    n = spaces[0].ambient_dim
    acc = spaces[0]
    for b in spaces[1:]:
        if acc.dim == n:
            acc = b
        elif b.dim == n:
            continue
        elif acc.dim == 0 or b.dim == 0:
            acc = DenseSubspace(n, ())
        else:
            # (u, v) with u*A = v*B
            entries = {}
            for r, row in enumerate(acc.basis):
                entries.update(((c, r), val) for c, val in enumerate(row) if val)
            for r, row in enumerate(b.basis):
                entries.update(((c, acc.dim + r), -val) for c, val in enumerate(row) if val)
            combos = ref_kernel(ExactMatrix(n, acc.dim + b.dim, entries))
            vecs = []
            for uv in combos.basis:
                vec = [ZERO] * n
                for r, row in enumerate(acc.basis):
                    if uv[r]:
                        vec = [x + uv[r] * y for x, y in zip(vec, row)]
                vecs.append(vec)
            acc = ref_span(n, vecs)
    return acc


def ref_sum(spaces):
    return ref_span(spaces[0].ambient_dim, [v for s in spaces for v in s.basis])


def ref_quotient_dim(num, den):
    if not all(num.contains(v) for v in den.basis):
        raise NotContained("reference")
    return num.dim - den.dim


def ref_preimage(m, w):
    if w.dim == m.rows:
        return ref_span(m.cols, [[ONE if c == r else ZERO for c in range(m.cols)] for r in range(m.cols)])
    entries = dict(m.entries)
    for j, row in enumerate(w.basis):
        entries.update(((c, m.cols + j), -val) for c, val in enumerate(row) if val)
    combo = ref_kernel(ExactMatrix(m.rows, m.cols + w.dim, entries))
    return ref_span(m.cols, (v[: m.cols] for v in combo.basis))


def as_ref(s):
    """The reference subspace spanned by a Subspace's basis, canonicalized independently."""
    return ref_span(s.ambient_dim, s.basis)


def assert_same(new, ref, *where):
    assert (new.ambient_dim, new.dim) == (ref.ambient_dim, ref.dim), where
    assert new.basis == ref.basis, where


def outcome(quotient, num, den):
    try:
        return quotient(num, den)
    except NotContained:
        return "NotContained"


FORMS = ("as built", "constraint", "generators", "rows")


def held(s, form):
    """s, or a fresh copy of it held by its constraint only, its generators only or its
    reduced rows only; a copy fills itself in as it is read."""
    if form == "as built":
        return s
    return Subspace(**{form: getattr(s, form)})


def held_forms(s):
    return [(form, held(s, form)) for form in FORMS]


def form_pairs():
    """Forms of an operand pair: each operand in each of its forms while the other is as built."""
    return [(form, "as built") for form in FORMS] + [("as built", form) for form in FORMS[1:]]


def check_spaces(spaces, *where):
    """Every subspace operation on these spaces of one ambient space against the reference,
    with each operand held in each of its forms."""
    refs = [as_ref(s) for s in spaces]
    for s, r in zip(spaces, refs):
        assert_same(s, r, *where)
        for form, copy in held_forms(s):
            assert (copy.ambient_dim, copy.dim) == (r.ambient_dim, r.dim), (form, *where)
            assert s == copy, (form, *where)
    for i, (a, ra) in enumerate(zip(spaces, refs)):
        for j, (b, rb) in enumerate(zip(spaces, refs)):
            if i == j:
                continue
            want_quotient = outcome(ref_quotient_dim, ra, rb)
            want_intersect, want_sum = ref_intersect([ra, rb]), ref_sum([ra, rb])
            for fa, fb in form_pairs():
                forms = (fa, fb, *where)
                assert (held(a, fa) == held(b, fb)) == (ra == rb), forms
                assert_same(intersect([held(a, fa), held(b, fb)]), want_intersect, "intersect", *forms)
                assert_same(sum_spaces([held(a, fa), held(b, fb)]), want_sum, "sum", *forms)
                assert outcome(quotient_dim, held(a, fa), held(b, fb)) == want_quotient, forms
            assert [contains(a, v) for v in rb.basis] == [ra.contains(v) for v in rb.basis], where
    for order in itertools.permutations(range(len(spaces))):
        want = ref_intersect([refs[i] for i in order])
        assert_same(intersect([spaces[i] for i in order]), want, "intersect", order, *where)


def check_matrix(m, sources, targets, *where):
    """kernel, image, map_subspace and preimage of one matrix against the reference,
    with each source and target held in each of its forms."""
    assert_same(kernel(m), ref_kernel(m), "kernel", *where)
    assert_same(image(m), ref_image(m), "image", *where)
    for s in sources:
        want = ref_map(m, as_ref(s))
        for form, copy in held_forms(s):
            assert_same(linalg.map_subspace(m, copy), want, "map", form, *where)
    for w in targets:
        want = ref_preimage(m, as_ref(w))
        for form, copy in held_forms(w):
            assert_same(preimage(m, copy), want, "preimage", form, *where)


def check_pair(num, den, *where):
    """A quotient's pair of subspaces: both orders of every operation, and its coefficient map.

    The matrix whose columns are the numerator's basis is the descent's psi:
    its preimage of the denominator is the coefficient vectors landing there.
    """
    check_spaces([num, den], *where)
    if num.dim:
        psi = num.rows.transpose()
        check_matrix(psi, [full_space(num.dim)], [den, num], "psi", *where)


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in oracle_matrices()])
def test_subspace_layer_matches_dense_reference(name, m):
    rng = random.Random(f"{name}-subspaces")
    vectors = [tuple(rand_scalar(rng, 0.3) for _ in range(m.cols)) for _ in range(3)]
    k, row_space = kernel(m), image(m.transpose())
    mixed = subspace_from_vectors(m.cols, vectors + list(k.basis[:1]))
    assert_same(mixed, ref_span(m.cols, vectors + list(k.basis[:1])), name)
    check_spaces([k, row_space, mixed], name)
    targets = [image(m), subspace_from_vectors(m.rows, [tuple(rand_scalar(rng, 0.5) for _ in range(m.rows))])]
    check_matrix(m, [k, row_space, mixed], targets, name)
    check_pair(row_space, intersect([row_space, mixed]), name)


def test_subspace_layer_matches_dense_reference_on_random_sets():
    # the random sets of test_intersect_examples_and_order
    rng = random.Random(3)
    for _ in range(15):
        spaces = [image(rand_matrix(rng, 5, rng.randint(1, 4), 0.7)) for _ in range(3)]
        check_spaces(spaces)


def test_subspace_layer_matches_dense_reference_on_models(oracle_engines):
    for label, eng in oracle_engines:
        cx = eng.complex
        for p in range(eng.n + 1):
            for q in range(eng.n + 1):
                refined, spectral = eng.refined_parts(p, q), eng.dolbeault_cw_parts(p, q)
                check_pair(*refined, label, "refined", p, q)
                check_pair(*spectral, label, "spectral", p, q)
                if cx.valid_bidegree(p, q + 1):
                    above = eng.dolbeault_cw_parts(p, q + 1) + eng.refined_parts(p, q + 1)
                    check_matrix(cx.block("dbar", p, q), refined + spectral, above, label, "dbar", p, q)
        check_pair(*eng.hat_h01_parts(), label, "hat01")
        check_pair(*real_ddc_parts(eng), label, "ddc")


def test_subspace_oracle_is_not_vacuous(oracle_engines):
    """The model pairs include proper nonzero denominators and pairs whose reverse quotient fails."""
    engines = dict(oracle_engines)
    kt4 = engines["kt4 N=2"]
    num, den = real_ddc_parts(kt4)
    assert 0 < den.dim < num.dim
    for fn, fd in form_pairs():
        with pytest.raises(NotContained):
            quotient_dim(held(den, fd), held(num, fn))
        assert quotient_dim(held(num, fn), held(den, fd)) == num.dim - den.dim, (fn, fd)
    num, den = kt4.refined_parts(1, 1)
    assert 0 < den.dim < num.dim < kt4.complex.dim(1, 1)
    assert sum(label.startswith("sweep") for label in engines) == 10


# ---------------------------------------------------------------------------
# the presentation's costs: one rref a kernel, one product a guard, a forward pass a rank


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in kernel_cases()])
def test_forward_rank_counts_the_pivots_of_rref(name, m):
    pivots, _ = linalg.rref(m)
    assert linalg._rref_full(m, forward=True)[0] == pivots
    assert rank(m) == len(pivots)


def count_calls(monkeypatch, owner, attr):
    """A list that gets the arguments of every call of owner.attr from now on."""
    calls = []
    original = getattr(owner, attr)
    monkeypatch.setattr(owner, attr, lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    return calls


def test_kernel_is_one_rref(monkeypatch):
    """kernel() eliminates nothing: dim is one forward pass, generators one rref, and dim is free after generators."""
    passes = []
    eliminate = linalg._eliminate

    def counted(m, pivot_limit=None, forward=False):
        passes.append(forward)
        return eliminate(m, pivot_limit, forward)

    monkeypatch.setattr(linalg, "_eliminate", counted)
    # the reduced rows of a null basis come from _triple_rref
    calls = count_calls(monkeypatch, linalg, "_triple_rref")
    for name, m in kernel_cases():
        nullity = m.cols - len(linalg.rref(m)[0])
        # a matrix with no entries is not eliminated at all
        one_pass = [True] if m.triples else []
        calls.clear()
        passes.clear()
        k = kernel(m)
        assert not calls and not passes, name
        assert (k.dim, k.ambient_dim) == (nullity, m.cols), name
        assert passes == one_pass and not calls, name
        passes.clear()
        k = kernel(m)
        assert k.generators.cols == nullity, name
        assert len(calls) == 1 and passes == [not p for p in one_pass], name
        passes.clear()
        assert k.dim == nullity and not passes and len(calls) == 1, name


def test_quotient_guard_is_one_product(monkeypatch):
    """quotient_dim multiplies num's constraint by den's generators once and reduces no vector."""
    rng = random.Random(41)
    a = rand_matrix(rng, 3, 9, 0.5)
    num = kernel(a)
    den = kernel(ExactMatrix.vstack([a, rand_matrix(rng, 2, 9, 0.5)]))
    # the null bases, built before the counters start: the second quotient's guard reads num's
    num.generators, den.generators
    # the per-vector reduction the guard once ran, counted wherever it still exists
    escapes = []
    reduce = getattr(linalg.Subspace, "_escapes", None)
    monkeypatch.setattr(linalg.Subspace, "_escapes", lambda s, work: escapes.append(work) or reduce(s, work), raising=False)
    products = count_calls(monkeypatch, ExactMatrix, "__matmul__")
    eliminations = count_calls(monkeypatch, linalg, "_eliminate")
    assert quotient_dim(num, den) == 9 - rank(a) - den.dim
    assert len(products) == 1 and not escapes
    eliminations.clear()
    with pytest.raises(NotContained):
        quotient_dim(den, num)
    assert len(products) == 2 and not escapes and not eliminations


# ---------------------------------------------------------------------------
# the whole- and zero-space identities against the general path they skip: an
# identity's space has the dim, the reduced rows and the guard outcomes of the
# operation run in full


def general_intersect(spaces):
    """intersect as it was before its identity: the generators are always cut by a null basis."""
    spaces = list(spaces)
    linalg._check_ambient(spaces)
    if len(spaces) == 1:
        return spaces[0]
    k = next((k for k, s in enumerate(spaces) if s._constraint is None), None)
    if k is None:
        return Subspace(constraint=ExactMatrix.vstack([s.constraint for s in spaces]))
    g = spaces[k].generators
    null = linalg.null_basis(ExactMatrix.vstack([s.constraint for j, s in enumerate(spaces) if j != k]) @ g)
    return Subspace(generators=g @ null, dim=null.cols if spaces[k]._dim == g.cols else None)


def general_map(m, s):
    """map_subspace as it was: always the product with s's generators."""
    if s.ambient_dim != m.cols:
        raise AmbientMismatch(f"{s.ambient_dim} != {m.cols}")
    return Subspace(generators=m @ s.generators)


def general_preimage(m, w):
    """preimage as it was: always the product with w's constraint."""
    if w.ambient_dim != m.rows:
        raise AmbientMismatch(f"{w.ambient_dim} != {m.rows}")
    return Subspace(constraint=w.constraint @ m)


def general_sum(spaces):
    """sum_spaces as it was: always a stack of generators."""
    spaces = list(spaces)
    linalg._check_ambient(spaces)
    return Subspace(generators=ExactMatrix.hstack([s.generators for s in spaces]))


def with_zero_blocks(rng, rows, cols, density):
    """A random matrix whose leading rows and trailing columns are zero blocks, each possibly empty or everything."""
    zr, zc = rng.randint(0, rows), rng.randint(0, cols)
    m = rand_matrix(rng, rows, cols, density)
    return ExactMatrix.unchecked(rows, cols, {(r, c): t for (r, c), t in m.triples.items() if r >= zr and c < cols - zc})


def assert_same_space(got, want, *where):
    assert (got.ambient_dim, got.dim, got.basis) == (want.ambient_dim, want.dim, want.basis), where
    assert got == want and want == got, where


def assert_same_guards(got, want, others, *where):
    for other in others:
        assert outcome(quotient_dim, got, other) == outcome(quotient_dim, want, other), ("num", *where)
        assert outcome(quotient_dim, other, got) == outcome(quotient_dim, other, want), ("den", *where)


def identity_cases():
    """(n, c, g): a constraint c with zero blocks and generators g of n rows that c annihilates."""
    rng = random.Random(2510)
    for _ in range(40):
        n = rng.randint(1, 8)
        c = with_zero_blocks(rng, rng.randint(0, 5), n, 0.5)
        null = kernel(c).generators
        yield n, c, null @ with_zero_blocks(rng, null.cols, rng.randint(0, 4), 0.6), rng


def test_identities_match_the_general_path():
    fired = {"intersect": 0, "map": 0, "preimage": 0}
    for case, (n, c, g, rng) in enumerate(identity_cases()):
        annihilated, zero_constraint = image(g), kernel(ExactMatrix(rng.randint(0, 3), n))
        others = [kernel(c), image(with_zero_blocks(rng, n, 3, 0.5)), zero_space(n), zero_constraint]
        # intersect: the stacked constraints of the others annihilate g, so the cut has no entries;
        # each order gets fresh spaces, since reading a space fills in its presentation
        for order in itertools.permutations(range(3)):
            spaces = [image(g), kernel(c), kernel(zero_constraint.constraint)]
            got = intersect([spaces[i] for i in order])
            assert got is spaces[0], case
            fired["intersect"] += 1
            want = general_intersect([spaces[i] for i in order])
            assert_same_space(got, want, "intersect", order, case)
            assert_same_guards(got, want, others, "intersect", order, case)
        # a constraint that does not annihilate g runs the general path
        escaping = [image(g), kernel(with_zero_blocks(rng, 2, n, 0.7))]
        assert_same_space(intersect(escaping), general_intersect(escaping), "intersect general", case)
        # map_subspace: a whole space held by a constraint with no entries maps to the image of m
        m = with_zero_blocks(rng, rng.randint(0, 6), n, 0.5)
        targets = [image(m), zero_space(m.rows), kernel(with_zero_blocks(rng, 2, m.rows, 0.5))]
        for whole in (kernel(ExactMatrix(0, n)), zero_constraint, Subspace(constraint=zero_constraint.constraint)):
            got = linalg.map_subspace(m, whole)
            assert got.generators is m, case
            fired["map"] += 1
            assert_same_space(got, general_map(m, whole), "map", case)
            assert_same_guards(got, general_map(m, whole), targets, "map", case)
        for s in (annihilated, kernel(c), image(ExactMatrix.identity(n))):
            assert_same_space(linalg.map_subspace(m, s), general_map(m, s), "map general", case)
        # preimage: the zero space, held by zero rows or by generators with no entries, pulls back to ker m
        sources = [kernel(c), annihilated, zero_space(n), zero_constraint]
        for zero in (zero_space(m.rows), image(ExactMatrix(m.rows, 2)), subspace_from_vectors(m.rows, [])):
            got = preimage(m, zero)
            assert got.constraint is m, case
            fired["preimage"] += 1
            assert_same_space(got, general_preimage(m, zero), "preimage", case)
            assert_same_guards(got, general_preimage(m, zero), sources, "preimage", case)
        for w in targets + [Subspace(constraint=ExactMatrix.identity(m.rows))]:
            assert_same_space(preimage(m, w), general_preimage(m, w), "preimage general", case)
        # sum_spaces of one space is that space, in each of its presentations
        for s in [annihilated, kernel(c), zero_space(n), zero_constraint]:
            for form, copy in held_forms(s):
                assert sum_spaces([copy]) is copy, (form, case)
                assert_same_space(sum_spaces([copy]), general_sum([copy]), "sum", form, case)
    assert all(count >= 40 for count in fired.values()), fired


# ---------------------------------------------------------------------------
# matrices derived from checked ones skip the entry checks; each must hold only
# nonzero entries inside its shape, as the checked constructor would keep them


def rechecked(m):
    return ExactMatrix(m.rows, m.cols, dict(m.entries))


def derived_matrices(m, rng):
    other = rand_matrix(rng, m.rows, m.cols, 0.3)
    yield "transpose", m.transpose()
    yield "conjugate", m.conjugate()
    yield "scale", m.scale(rand_scalar(rng, 1.0) or ONE)
    yield "scale-zero", m.scale(ZERO)
    yield "neg", -m
    yield "add", m + other
    yield "add-cancelling", m + (-m)
    yield "sub", m - other
    yield "matmul", m @ rand_matrix(rng, m.cols, 4, 0.4)
    yield "matmul-left", rand_matrix(rng, 3, m.rows, 0.4) @ m
    yield "gram", m.conjugate().transpose() @ m
    yield "vstack", ExactMatrix.vstack([m, other])
    yield "hstack", ExactMatrix.hstack([m, other])
    yield "realify", realify(m)
    yield "realify-parts", realify(m + m.conjugate()) + realify(m - m.conjugate())
    yield "null-basis", linalg.null_basis(m)
    yield "kernel-rows", kernel(m).rows
    yield "span-rows", image(m.transpose()).rows
    yield "annihilator", image(m).constraint
    rhs = m @ rand_matrix(rng, m.cols, 2, 0.6)
    yield "solve-many", solve_many(m, ExactMatrix.hstack([rhs, rand_matrix(rng, m.rows, 2, 0.6)]))[0]
    yield "solve-many-reversed", solve_many(m, rhs, reverse_pivots=True)[0]


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in kernel_cases()])
def test_derived_matrices_hold_only_checked_entries(name, m):
    rng = random.Random(f"{name}-derived")
    for op, result in derived_matrices(m, rng):
        assert result == rechecked(result), op


def test_derived_matrices_of_random_shapes_hold_only_checked_entries():
    rng = random.Random(20261020)
    for _ in range(25):
        m = rand_matrix(rng, rng.randint(0, 6), rng.randint(0, 6), rng.choice((0.2, 0.5, 0.9)))
        for op, result in derived_matrices(m, rng):
            assert result == rechecked(result), op


def test_lifts_and_totals_hold_only_checked_entries(kt4_session):
    from acx.audits import IDENTITY_TERMS

    engine = kt4_session.engine(2)
    cx = engine.complex
    weights = len(cx._weights)
    rng = random.Random(7)
    for p, q in ((0, 0), (1, 0), (1, 1), (2, 1)):
        inv = cx._frame_blocks.block("dbar", p, q)
        scales = [rand_scalar(rng, 0.5) for _ in range(weights)]
        for lifted in (cx.lift(inv), cx.lift(inv, scales), cx.lift(inv, [ZERO] * weights)):
            assert lifted == rechecked(lifted), (p, q)
    for r in range(5):
        for terms in IDENTITY_TERMS.values():
            total = cx.total(engine.block, terms, r)
            assert total == rechecked(total), r
