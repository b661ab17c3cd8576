"""Differential oracle for the exact kernels on int triples.

Products, elimination, the Leibniz rule and the structure equations
accumulate unreduced (a, b, d) triples and reduce each result entry once.
The references below are the loops they replaced, which built a canonical
Scalar for every flop through the fused updates add_mul and sub_mul (kept
here too).  Results are compared as values, independent of dict order, on
random sparse Q(i) matrices with unequal denominators, on purely real and
purely imaginary data, on exact cancellation, on ints above 2^64, on every
elimination mode (pivot_limit, forward, solve_many's leftover rows), and on
the bundled manifests and the seeded sweep of tests/conftest.py.
"""

import math
import random
from fractions import Fraction

import pytest

from acx import forms, lie, linalg
from acx.forms import BasisElement, Form, GeneratorImages, enumerate_basis, extend_derivation
from acx.linalg import ExactMatrix
from acx.audits import IDENTITY_TERMS
from acx.operators import D_TERMS, DIFFERENTIALS, INVARIANT, frame_blocks, shift
from acx.scalars import I, ONE, ZERO, Scalar, reduced

from conftest import _mat_inv, _mat_mul
from test_linalg import solve_columns

# ---------------------------------------------------------------------------
# the Scalar-per-flop kernels, as they were


def _fused(t, a, b, d):
    """t + (a + b*i)/d with one reduction; None stands for zero on both sides."""
    if t is not None:
        ta, tb, td = t.triple
        if td == d:
            a += ta
            b += tb
        else:
            a = ta * d + a * td
            b = tb * d + b * td
            d *= td
    if not (a or b):
        return None
    return reduced(a, b, d)


def add_mul(t, x, y):
    """t + x*y as one fused update."""
    xa, xb, xd = x.triple
    ya, yb, yd = y.triple
    return _fused(t, xa * ya - xb * yb, xa * yb + xb * ya, xd * yd)


def sub_mul(t, x, y):
    """t - x*y, as add_mul."""
    xa, xb, xd = x.triple
    ya, yb, yd = y.triple
    return _fused(t, xb * yb - xa * ya, -(xa * yb + xb * ya), xd * yd)


def reference_matmul(left, right):
    """Row r of the product accumulates a * (row k of right) with add_mul, the row views built per product."""
    rows = {}
    for (r, k), a in left.entries.items():
        rows.setdefault(r, []).append((k, a))
    by_row = {}
    for (k, c), b in right.entries.items():
        by_row.setdefault(k, []).append((c, b))
    entries = {}
    for r, terms in rows.items():
        acc = {}
        for k, a in terms:
            for c, b in by_row.get(k, ()):
                s = add_mul(acc.get(c), a, b)
                if s is None:
                    del acc[c]
                else:
                    acc[c] = s
        for c, v in acc.items():
            entries[(r, c)] = v
    return ExactMatrix(left.rows, right.cols, entries)


def reference_rref_full(m, pivot_limit=None, forward=False):
    """The column-indexed Gauss-Jordan on Scalar rows: pivot scaling by the inverse, updates by sub_mul."""
    rows = [dict() for _ in range(m.rows)]
    index = {}
    for (r, c), v in m.entries.items():
        rows[r][c] = v
        index.setdefault(c, set()).add(r)
    limit = m.cols if pivot_limit is None else pivot_limit
    nrows = len(rows)
    at = list(range(nrows))
    pos = list(range(nrows))
    pivots = []
    r = 0
    for c in sorted(index):
        if c >= limit or r == nrows:
            break
        holders = index[c]
        sel = min((pos[i] for i in holders if pos[i] >= r), default=nrows)
        if sel == nrows:
            continue
        p = at[sel]
        if sel != r:
            q = at[r]
            at[r], at[sel] = p, q
            pos[p], pos[q] = r, sel
        prow = rows[p]
        lead = prow[c]
        divide = forward and lead != ONE
        if lead != ONE and not forward:
            inv = lead.inverse()
            for k, v in prow.items():
                prow[k] = v * inv
        if len(holders) > 1:
            rest = [(k, v) for k, v in prow.items() if k != c]
            for i in list(holders):
                if i == p or (forward and pos[i] < r):
                    continue
                tgt = rows[i]
                f = tgt.pop(c) / lead if divide else tgt.pop(c)
                for k, v in rest:
                    t = tgt.get(k)
                    s = sub_mul(t, f, v)
                    if s is None:
                        del tgt[k]
                        index[k].discard(i)
                    else:
                        tgt[k] = s
                        if t is None:
                            index[k].add(i)
        pivots.append(c)
        r += 1
    pivot_rows = [rows[at[k]] for k in range(r)]
    leftover = [rows[at[k]] for k in range(r, nrows) if rows[at[k]]]
    return pivots, pivot_rows, leftover


def reference_extend_derivation(gen_action, form):
    """The bitmask Leibniz rule with a Scalar per term.

    Unit coefficients add or subtract the image; others go through add_mul or sub_mul.
    """
    out = {}
    placements = {}
    for elt, c in form.coeffs.items():
        w, holo, anti = elt
        m = forms._mask(holo, anti)
        rank = len(w)
        unit = c == ONE
        acc = out.setdefault(w, {})
        gens = [(("h", s), 1 << s) for s in holo] + [(("a", s), 1 << (s + forms._ANTI_BIT)) for s in anti]
        for k, (gen, g) in enumerate(gens):
            images = placements.get(gen)
            if images is None:
                action = gen_action.get(gen)
                terms = action.coeffs.items() if action else ()
                images = placements[gen] = [(*forms._placement(e), v) for e, v in terms]
            rest = m ^ g
            for e, below_a, below_b, e_rank, shift, v in images:
                if rest & e:
                    continue
                if e_rank != rank:
                    raise ValueError("wedge of forms with different weight ranks")
                target = acc if shift is None else out.setdefault(tuple(x + y for x, y in zip(w, shift)), {})
                key = rest | e
                t = target.get(key)
                if (k + (rest & below_a).bit_count() + (rest & below_b).bit_count()) & 1:
                    val = (-v if t is None else t - v) if unit else sub_mul(t, v, c)
                else:
                    val = (v if t is None else t + v) if unit else add_mul(t, v, c)
                if val:
                    target[key] = val
                elif t is not None:
                    del target[key]
    return Form({forms._decode(w, key): v for w, acc in out.items() for key, v in acc.items()})


def reference_bracket(spec, x, y):
    """The bracket on complexified vectors with a Scalar per product and sum."""
    out = [ZERO] * spec.dim
    for (i, j, k, v) in spec.brackets:
        c = Scalar(v, 0)
        a = x[i - 1] * y[j - 1] - x[j - 1] * y[i - 1]
        if a:
            out[k - 1] = out[k - 1] + c * a
    return tuple(out)


def reference_structure_equations(frame):
    """(generator, ((monomial, coefficient), ...)), each pairing summed in Scalars."""
    n = frame.n
    dim = 2 * n
    vectors = [frame.complex_frame_vector(a) for a in range(dim)]
    gens = [(kind, s) for kind in ("h", "a") for s in range(1, n + 1)]
    covectors = [frame.covector(kind, s) for kind, s in gens]
    terms = [[] for _ in gens]
    for a in range(dim):
        for b in range(a + 1, dim):
            bracket = reference_bracket(frame.algebra, vectors[a], vectors[b])
            if not any(bracket):
                continue
            mono = lie._pair_monomial(n, a, b)
            for cov, out in zip(covectors, terms):
                val = ZERO
                for coord, x in zip(cov, bracket):
                    if coord and x:
                        val = val + coord * x
                if val:
                    out.append((mono, -val))
    return tuple((gen, tuple(out)) for gen, out in zip(gens, terms))


# ---------------------------------------------------------------------------
# comparisons, by value and canonical form


def canonical(s):
    a, b, d = s.triple
    return d > 0 and math.gcd(a, b, d) == 1 and bool(a or b)


def triples(entries):
    """A {key: Scalar} map as {key: (a, b, d)}, every value checked canonical and nonzero."""
    assert all(canonical(v) for v in entries.values())
    return {k: v.triple for k, v in entries.items()}


def assert_same_matrix(got, want, *where):
    assert (got.rows, got.cols) == (want.rows, want.cols), where
    assert triples(got.entries) == triples(want.entries), where


def assert_same_elimination(got, want, *where):
    assert got[0] == want[0], where
    for rows_got, rows_want in zip(got[1:], want[1:]):
        assert [triples(row) for row in rows_got] == [triples(row) for row in rows_want], where


def assert_same_form(got, want, *where):
    assert triples(got.coeffs) == triples(want.coeffs), where


# ---------------------------------------------------------------------------
# data


BIG = 2**64


def gaussian(rng, kind, bits):
    """A nonzero element of Q(i): kind is 'complex', 'real' or 'imaginary'; parts up to 2^bits, unequal denominators."""
    while True:
        re = Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)) if kind != "imaginary" else Fraction(0)
        im = Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits)) if kind != "real" else Fraction(0)
        if re or im:
            return Scalar(re, im)


def sparse(rng, rows, cols, density, kind="complex", bits=4):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = gaussian(rng, kind, bits)
    return ExactMatrix(rows, cols, entries)


def with_big_ints(m, rng):
    """m with every entry scaled by a Gaussian rational whose parts exceed 2^64."""
    out = {}
    for rc, v in m.entries.items():
        re = Fraction(rng.randint(BIG, 4 * BIG), rng.randint(BIG, 4 * BIG))
        big = Scalar(re, Fraction(rng.randint(-BIG, BIG), 3))
        out[rc] = v * big
    return ExactMatrix(m.rows, m.cols, out)


def matrix_cases():
    """(name, matrix) pairs: sparse and dense, each kind of entry, rank deficiency and entries above 2^64."""
    rng = random.Random(20261019)
    cases = []
    for kind in ("complex", "real", "imaginary"):
        for density in (0.1, 0.3, 0.7):
            cases.append((f"{kind}-{density}", sparse(rng, 9, 12, density, kind)))
        low = sparse(rng, 8, 3, 0.8, kind) @ sparse(rng, 3, 10, 0.8, kind)
        cases.append((f"{kind}-low-rank", low))
    cases.append(("big-ints", with_big_ints(sparse(rng, 6, 8, 0.5), rng)))
    cases.append(("big-ints-low-rank", with_big_ints(sparse(rng, 7, 2, 0.9) @ sparse(rng, 2, 9, 0.9), rng)))
    # duplicate rows with unequal denominators: elimination cancels whole rows to zero
    m = sparse(rng, 4, 8, 0.6)
    cases.append(("repeated-rows", ExactMatrix.vstack([m, m.scale(Scalar(Fraction(3, 7), Fraction(-2, 5))), m])))
    cases.append(("empty-3x4", ExactMatrix(3, 4)))
    return cases


# ---------------------------------------------------------------------------
# products


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in matrix_cases()])
def test_products_match_reference(name, m):
    rng = random.Random(f"{name}-products")
    for kind in ("complex", "real", "imaginary"):
        right = sparse(rng, m.cols, 7, 0.4, kind)
        left = sparse(rng, 5, m.rows, 0.4, kind)
        assert_same_matrix(m @ right, reference_matmul(m, right), name, kind)
        assert_same_matrix(left @ m, reference_matmul(left, m), name, kind)
    assert_same_matrix(m.transpose() @ m, reference_matmul(m.transpose(), m), name)
    assert_same_matrix(m @ m.conjugate().transpose(), reference_matmul(m, m.conjugate().transpose()), name)
    # a product reads its factors' triples and leaves them as they were, so a repeated product is the same
    right = sparse(rng, m.cols, 4, 0.5)
    want = reference_matmul(m, right)
    held = (list(m.triples.items()), list(right.triples.items()))
    assert_same_matrix(m @ right, want, name)
    assert_same_matrix(m @ right, want, name)
    assert (list(m.triples.items()), list(right.triples.items())) == held
    assert_same_matrix(-m @ right, reference_matmul(-m, right), name)


def test_products_cancel_exactly_to_zero():
    """[A | A] @ [B; -B] is zero, and [A | A] @ [B; -B + C] is A @ C, over unequal denominators and big ints."""
    rng = random.Random(7)
    for bits in (3, 70):
        for kind in ("complex", "real", "imaginary"):
            a = sparse(rng, 6, 5, 0.6, kind, bits)
            b = sparse(rng, 5, 7, 0.6, kind, bits)
            c = sparse(rng, 5, 7, 0.3, kind, bits)
            left = ExactMatrix.hstack([a, a])
            assert (left @ ExactMatrix.vstack([b, -b])).is_zero()
            got = left @ ExactMatrix.vstack([b, c - b])
            assert_same_matrix(got, reference_matmul(a, c), bits, kind)
            assert_same_matrix(got, reference_matmul(left, ExactMatrix.vstack([b, c - b])), bits, kind)


def test_products_of_big_ints_stay_exact():
    rng = random.Random(64)
    a = with_big_ints(sparse(rng, 5, 6, 0.7), rng)
    b = with_big_ints(sparse(rng, 6, 4, 0.7), rng)
    got = a @ b
    assert max(max(abs(x).bit_length() for x in v.triple) for v in got.entries.values()) > 128
    assert_same_matrix(got, reference_matmul(a, b))


# ---------------------------------------------------------------------------
# elimination


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in matrix_cases()])
def test_elimination_matches_reference(name, m):
    limits = sorted({None, 0, 1, m.cols // 2, m.cols - 1}, key=lambda x: -1 if x is None else x)
    for limit in limits:
        assert_same_elimination(linalg._rref_full(m, limit), reference_rref_full(m, limit), name, limit)
        forward = linalg._rref_full(m, limit, forward=True)
        assert_same_elimination(forward, reference_rref_full(m, limit, forward=True), name, limit, "forward")
    assert linalg.rank(m) == len(reference_rref_full(m, forward=True)[0])
    pivots, red = linalg.rref(m)
    want = reference_rref_full(m)
    assert pivots == want[0] and [triples(row) for row in red] == [triples(row) for row in want[1]]


def solve_with_reference_kernel(m, rhs, reverse):
    """solve_columns with solve_many's elimination, linalg._triple_rref, run by the reference."""

    def reference_triple_rref(m, pivot_limit=None, forward=False):
        pivots, red, leftover = reference_rref_full(m, pivot_limit, forward)
        return pivots, [triples(row) for row in red], [triples(row) for row in leftover]

    original = linalg._triple_rref
    linalg._triple_rref = reference_triple_rref
    try:
        return solve_columns(m, rhs, reverse)
    finally:
        linalg._triple_rref = original


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in matrix_cases()])
def test_solve_many_and_leftover_rows_match_reference(name, m):
    rng = random.Random(f"{name}-solve")
    inside = m.apply(tuple(gaussian(rng, "complex", 3) for _ in range(m.cols)))
    outside = tuple(gaussian(rng, "complex", 3) for _ in range(m.rows))
    rhs = [inside, outside, tuple(ZERO for _ in range(m.rows))]
    for reverse in (False, True):
        assert solve_columns(m, rhs, reverse) == solve_with_reference_kernel(m, rhs, reverse), (name, reverse)
    # the augmented matrix of solve_many, eliminated up to the columns of m
    columns = {(r, j): v for j, col in enumerate(rhs) for r, v in enumerate(col) if v}
    aug = ExactMatrix.hstack([m, ExactMatrix(m.rows, len(rhs), columns)])
    got = linalg._rref_full(aug, pivot_limit=m.cols)
    want = reference_rref_full(aug, pivot_limit=m.cols)
    assert_same_elimination(got, want, name)


def test_elimination_cases_leave_rows_and_cancel():
    """Non-vacuity: some cases have leftover rows under pivot_limit and some rows cancel to zero."""
    leftovers = cancelled = 0
    for _, m in matrix_cases():
        _, red, left = reference_rref_full(m)
        cancelled += m.rows - len(red) - len(left) > 0
        leftovers += bool(reference_rref_full(m, pivot_limit=m.cols // 2)[2])
    assert leftovers >= 5 and cancelled >= 5


def test_null_basis_of_a_matrix_with_no_entries_eliminates_nothing(monkeypatch):
    calls = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args, **kwargs: calls.append(args) or original(*args, **kwargs))
    for rows, cols in ((3, 4), (0, 5), (5, 0), (0, 0)):
        m = ExactMatrix(rows, cols)
        assert linalg.null_basis(m) == ExactMatrix.identity(cols)
        assert linalg.kernel(m).dim == cols and linalg.rank(m) == 0
    assert calls == []
    linalg.null_basis(ExactMatrix(2, 2, {(0, 1): ONE}))
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# matrix operations on stored triples, against references that compute every
# entry as a Scalar and store it through the checked constructor


def reference_sum(left, right):
    entries = dict(left.entries)
    for rc, v in right.entries.items():
        entries[rc] = entries.get(rc, ZERO) + v
    return ExactMatrix(left.rows, left.cols, entries)


def reference_stack(blocks, vertical):
    entries = {}
    off = 0
    for b in blocks:
        for (r, c), v in b.entries.items():
            entries[(r + off, c) if vertical else (r, c + off)] = v
        off += b.rows if vertical else b.cols
    return ExactMatrix(off, blocks[0].cols, entries) if vertical else ExactMatrix(blocks[0].rows, off, entries)


def reference_lift(cx, inv, scales=None):
    """One copy of inv per weight of cx, the k-th multiplied by scales[k]."""
    copies = len(cx._weights)
    entries = {}
    for k in range(copies):
        s = ONE if scales is None else scales[k]
        for (r, c), v in inv.entries.items():
            entries[(r + k * inv.rows, c + k * inv.cols)] = s * v
    return ExactMatrix(inv.rows * copies, inv.cols * copies, entries)


def reference_total(cx, block, terms, r):
    """sum_k c_k name_k from degree r, each block placed at its total-degree offsets and scaled entry by entry."""
    k = sum(shift(terms[0][1]))
    tgt = cx.total_offsets(r + k)
    entries = {}
    for (p, q), so in cx.total_offsets(r).items():
        for c, name in terms:
            dp, dq = shift(name)
            to = tgt.get((p + dp, q + dq))
            if to is not None:
                for (rr, cc), v in block(name, p, q).entries.items():
                    entries[(rr + to, cc + so)] = c * v
    return ExactMatrix(cx.total_dim(r + k), cx.total_dim(r), entries)


def tiled(m, rows, cols):
    """A rows x cols matrix whose entry (r, c) is m's entry (r mod m.rows, c mod m.cols)."""
    if not (m.rows and m.cols):
        return ExactMatrix(rows, cols)
    return ExactMatrix(rows, cols, {(r, c): m.entry(r % m.rows, c % m.cols) for r in range(rows) for c in range(cols)})


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in matrix_cases()])
def test_matrix_operations_match_scalar_references(name, m):
    rng = random.Random(f"{name}-operations")
    # the Scalar view stores back to the same triples, and a caller's edits of it do not reach the matrix
    assert ExactMatrix(m.rows, m.cols, m.entries) == m
    m.entries.clear()
    assert ExactMatrix(m.rows, m.cols, m.entries) == m and len(m.entries) == len(m.triples)
    assert_same_matrix(m.transpose(), ExactMatrix(m.cols, m.rows, {(c, r): v for (r, c), v in m.entries.items()}), name)
    assert_same_matrix(m.conjugate(), ExactMatrix(m.rows, m.cols, {rc: v.conj() for rc, v in m.entries.items()}), name)
    assert_same_matrix(-m, ExactMatrix(m.rows, m.cols, {rc: -v for rc, v in m.entries.items()}), name)
    for s in (I, -ONE, gaussian(rng, "complex", 4), gaussian(rng, "real", 70), gaussian(rng, "imaginary", 4), ZERO):
        assert_same_matrix(m.scale(s), ExactMatrix(m.rows, m.cols, {rc: s * v for rc, v in m.entries.items()}), name, s)
    for kind in ("complex", "real", "imaginary"):
        other = sparse(rng, m.rows, m.cols, 0.4, kind, 70 if kind == "real" else 4)
        assert_same_matrix(m + other, reference_sum(m, other), name, kind)
        assert_same_matrix(m - other, reference_sum(m, -other), name, kind)
        scaled = m.scale(Scalar(Fraction(-2, 3), Fraction(1, 5)))
        assert_same_matrix(other + scaled, reference_sum(other, scaled), name, kind)
        wide = sparse(rng, m.rows, 3, 0.5, kind)
        tall = sparse(rng, 2, m.cols, 0.5, kind)
        assert_same_matrix(ExactMatrix.vstack([m, tall, m]), reference_stack([m, tall, m], True), name, kind)
        assert_same_matrix(ExactMatrix.hstack([wide, m, wide]), reference_stack([wide, m, wide], False), name, kind)
        right = sparse(rng, m.cols, 5, 0.4, kind)
        assert_same_matrix(m @ right, reference_matmul(m, right), name, kind)
    assert (m + (-m)).is_zero() and (m - m).is_zero()


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in matrix_cases()])
def test_lift_and_total_match_scalar_references(kt4_session, name, m):
    rng = random.Random(f"{name}-lift")
    cx = kt4_session.engine(1).complex
    weights = len(cx._weights)
    scales = [gaussian(rng, "complex", 70 if k % 3 else 4) if k % 4 else ZERO for k in range(weights)]
    for s in (None, scales, [I] * weights, [ZERO] * weights):
        assert_same_matrix(cx.lift(m, s), reference_lift(cx, m, s), name)
    # the case's values tiled over every block of the complex, summed with unit, +-i and big coefficients
    blocks = {}

    def block(op, p, q):
        if (op, p, q) not in blocks:
            shape = cx.block(op, p, q)
            blocks[(op, p, q)] = tiled(m, shape.rows, shape.cols)
        return blocks[(op, p, q)]

    big = tuple((gaussian(rng, "complex", 70), op) for op in DIFFERENTIALS)
    for terms in (D_TERMS, IDENTITY_TERMS["C+"], big):
        for r in range(5):
            assert_same_matrix(cx.total(block, terms, r), reference_total(cx, block, terms, r), name, r)


# ---------------------------------------------------------------------------
# Leibniz rule and structure equations


def random_images(rng, n, kind):
    """Generator images: dense random 2-forms with unequal denominators and, for some, entries above 2^64."""
    gens = [(k, s) for k in ("h", "a") for s in range(1, n + 1)]
    action = {}
    for gen in gens:
        coeffs = {}
        for p, q in ((2, 0), (1, 1), (0, 2)):
            for e in enumerate_basis(n, p, q, INVARIANT):
                if rng.random() < 0.7:
                    coeffs[e] = gaussian(rng, kind, 70 if rng.random() < 0.2 else 4)
        action[gen] = Form(coeffs)
    return action


def random_forms(rng, n, kind):
    out = []
    for p in range(n + 1):
        for q in range(n + 1):
            basis = list(enumerate_basis(n, p, q, INVARIANT))
            out += [Form.monomial(e) for e in rng.sample(basis, min(3, len(basis)))]
            picks = rng.sample(basis, min(4, len(basis)))
            out.append(Form({e: gaussian(rng, kind, 4) for e in picks}))
    return out


def test_leibniz_rule_matches_reference_on_random_images():
    rng = random.Random(2026)
    compared = nonzero = 0
    for n in (2, 3, 4):
        for kind in ("complex", "real", "imaginary"):
            action = random_images(rng, n, kind)
            prepared = GeneratorImages(action)
            for form in random_forms(rng, n, kind):
                want = reference_extend_derivation(action, form)
                assert_same_form(extend_derivation(action, form), want, n, kind, form)
                assert_same_form(extend_derivation(prepared, form), want, n, kind, form)
                compared += 1
                nonzero += not want.is_zero()
    assert nonzero > compared // 2


def test_leibniz_rule_cancels_exactly():
    """d(theta^1 ^ theta^2) with d theta^1 = x theta^1 tbar^1 and d theta^2 = -x theta^2 tbar^1 is zero."""
    x = Scalar(Fraction(1, 2), Fraction(1, 3))
    action = {("h", 1): Form({BasisElement((), (1,), (1,)): x}), ("h", 2): Form({BasisElement((), (2,), (1,)): -x})}
    for c in (ONE, Scalar(Fraction(5, 7), Fraction(0)), Scalar(Fraction(0), Fraction(-BIG, 3))):
        form = Form.monomial(BasisElement((), (1, 2), ()), c)
        got = extend_derivation(action, form)
        assert got.is_zero() and reference_extend_derivation(action, form).is_zero()
        assert extend_derivation(GeneratorImages(action), form).is_zero()


def test_brackets_match_reference_on_random_algebras():
    """bracket_complex on random structure constants and vectors with unequal denominators and big ints."""
    rng = random.Random(11)
    nonzero = 0
    for dim in (4, 6):
        for kind in ("complex", "real", "imaginary"):
            entries = [
                (i, j, k, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                for i in range(1, dim + 1)
                for j in range(i + 1, dim + 1)
                for k in range(1, dim + 1)
                if rng.random() < 0.4
            ]
            spec = lie.LieAlgebraSpec.from_entries(dim, entries)
            for bits in (3, 70):
                x = [gaussian(rng, kind, bits) if rng.random() < 0.8 else ZERO for _ in range(dim)]
                y = [gaussian(rng, kind, bits) if rng.random() < 0.8 else ZERO for _ in range(dim)]
                for u, v in ((x, y), (y, x), (x, x)):
                    got, want = spec.bracket_complex(u, v), reference_bracket(spec, u, v)
                    assert [s.triple for s in got] == [s.triple for s in want], (dim, kind, bits)
                    assert all(canonical(s) for s in got if s)
                    nonzero += any(got)
    assert nonzero >= 10


def random_frame(rng, dim):
    """The frame of random rational brackets and J = P J0 P^-1, with J0 the standard structure and P rational."""
    j0 = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(0, dim, 2):
        j0[k + 1][k], j0[k][k + 1] = Fraction(1), Fraction(-1)
    while True:
        p = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim)] for _ in range(dim)]
        q = _mat_inv(p)
        if q is not None:
            break
    j = _mat_mul(_mat_mul(p, j0), q)
    entries = [
        (i, jj, k, Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        for i in range(1, dim + 1)
        for jj in range(i + 1, dim + 1)
        for k in range(1, dim + 1)
        if rng.random() < 0.3
    ]
    spec = lie.LieAlgebraSpec.from_entries(dim, entries)
    return lie.build_frame(spec, lie.AlmostComplexStructure(tuple(tuple(row) for row in j)))


def test_structure_equations_match_reference_on_random_frames():
    rng = random.Random(5)
    terms = 0
    for dim in (4, 4, 6, 6):
        frame = random_frame(rng, dim)
        got = lie._structure_equations.__wrapped__(frame)
        want = reference_structure_equations(frame)
        assert [g for g, _ in got] == [g for g, _ in want]
        for (gen, ours), (_, theirs) in zip(got, want):
            assert triples(dict(ours)) == triples(dict(theirs)), (dim, gen)
            terms += len(ours)
    assert terms > 50


def test_kernels_match_reference_on_models(oracle_engines):
    """Structure equations, the Leibniz rule on every invariant monomial, block products and eliminations."""
    products = 0
    for label, engine in oracle_engines:
        cx = engine.complex
        frame = cx.frame
        got = lie._structure_equations.__wrapped__(frame)
        want = reference_structure_equations(frame)
        assert [g for g, _ in got] == [g for g, _ in want], label
        for (gen, terms), (_, ref_terms) in zip(got, want):
            assert triples(dict(terms)) == triples(dict(ref_terms)), (label, gen)
        blocks = frame_blocks(frame)
        for name in ("mu", "partial", "dbar", "mubar", "d"):
            action = blocks.structure if name == "d" else blocks.parts[name]
            for p in range(cx.n + 1):
                for q in range(cx.n + 1):
                    for e in enumerate_basis(cx.n, p, q, INVARIANT):
                        form = Form.monomial(e)
                        want = reference_extend_derivation(action, form)
                        assert_same_form(extend_derivation(blocks.images(name), form), want, label, e)
        for r in range(2 * cx.n):
            left, right = cx.d_total(r + 1), cx.d_total(r)
            assert_same_matrix(left @ right, reference_matmul(left, right), label, r)
            assert_same_elimination(linalg._rref_full(right), reference_rref_full(right), label, r)
            assert_same_elimination(
                linalg._rref_full(right, forward=True), reference_rref_full(right, forward=True), label, r
            )
            products += 1
    assert products > 50
