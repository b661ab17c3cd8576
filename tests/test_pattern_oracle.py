"""Differential oracle for the work decided by structure before arithmetic.

`linalg.rank` reads the rank of a matrix whose every nonzero row, or every
nonzero column, holds one entry off its pattern, and `linalg._triple_rref`
(so `null_basis` and `Subspace.rows`) reads the full reduction of a
one-entry-per-row or one-entry-per-column matrix off it; every other matrix
goes to `_eliminate`.
Both are compared here with `_eliminate` itself, rows in dict order, on
seeded random one-entry-per-row and one-entry-per-column matrices (repeated
columns or rows, empty rows, 1x1, wide and tall shapes, Gaussian rationals
with unequal denominators) and on near misses with one two-entry row or
column, which must be eliminated.

`FormComplex.block` places A and every scaled E_r copy in one pass
(`FormComplex.lift` on a sequence of terms); it is compared, entries and
their order, with lift(A) + sum_r lift(E_r, lambda_r) built from the Scalar
reference lift and `ExactMatrix.__add__`, on the kt4 boxes at N = 0..3, the
kt4 shells 0..3 and the seeded fourier models.
"""

import random

import pytest

from acx import linalg
from acx.linalg import ExactMatrix, Subspace
from acx.operators import DIFFERENTIALS, FormComplex
from acx.scalars import ONE

from test_kernel_oracle import gaussian, reference_lift
from test_linalg import fresh_forward, kernel_cases, rechecked

# ---------------------------------------------------------------------------
# the references: _eliminate itself


def eliminated_rank(m):
    return len(linalg._eliminate(m, forward=True)[0]) if m.triples else 0


def eliminated_rref(m, pivot_limit=None, forward=False):
    """_triple_rref as it was before the pattern path: (pivots, pivot rows, leftover rows) of _eliminate."""
    if not m.triples:
        return [], [], []
    pivots, rows, at, r = linalg._eliminate(m, pivot_limit, forward)
    return pivots, [rows[at[k]] for k in range(r)], [rows[at[k]] for k in range(r, len(rows)) if rows[at[k]]]


def in_order(rref):
    """An rref result with every row as its list of (column, triple) items, so dict order is compared too."""
    pivots, red, leftover = rref
    return pivots, [list(row.items()) for row in red], [list(row.items()) for row in leftover]


def eliminated_null_basis(m):
    """null_basis's construction on eliminated_rref."""
    pivots, red, _ = eliminated_rref(m)
    vectors = {f: {f: (1, 0, 1)} for f in range(m.cols) if f not in pivots}
    for p, row in zip(pivots, red):
        for f, (a, b, d) in row.items():
            if f != p:
                vectors[f][p] = (-a, -b, d)
    triples = {(c, j): t for j, vec in enumerate(vectors.values()) for c, t in vec.items()}
    return ExactMatrix.unchecked(m.cols, len(vectors), triples)


# ---------------------------------------------------------------------------
# data


def one_per_row(rng, rows, cols, empty=0.25, pool=None):
    """A rows x cols matrix whose nonzero rows hold one entry each, in a column drawn from pool
    (all columns by default; a small pool repeats columns); a row is empty with probability empty."""
    pool = range(cols) if pool is None else pool
    entries = {}
    for r in range(rows):
        if rng.random() >= empty:
            entries[(r, rng.choice(pool))] = gaussian(rng, rng.choice(("complex", "real", "imaginary")), 6)
    return ExactMatrix(rows, cols, entries)


def pattern_cases():
    """(name, matrix) pairs whose every nonzero row, or every nonzero column, holds one entry."""
    rng = random.Random(20261028)
    cases = [("1x1", ExactMatrix(1, 1, {(0, 0): gaussian(rng, "complex", 8)})), ("empty-4x3", ExactMatrix(4, 3))]
    for k in range(6):
        for rows, cols in ((3, 12), (12, 3), (7, 7), (1, 9), (9, 1)):
            m = one_per_row(rng, rows, cols)
            cases.append((f"rows-{rows}x{cols}-{k}", m))
            cases.append((f"cols-{cols}x{rows}-{k}", m.transpose()))
        # repeated columns: every nonzero row in one of two columns
        m = one_per_row(rng, 10, 6, empty=0.1, pool=rng.sample(range(6), 2))
        cases.append((f"repeated-columns-{k}", m))
        cases.append((f"repeated-rows-{k}", m.transpose()))
    # a permutation scaled by unequal denominators, and every row in the same column
    perm = list(range(8))
    rng.shuffle(perm)
    scaled = {(r, c): gaussian(rng, "complex", 10) for r, c in enumerate(perm)}
    cases.append(("scaled-permutation", ExactMatrix(8, 8, scaled)))
    cases.append(("one-column", one_per_row(rng, 6, 5, empty=0.0, pool=[3])))
    return cases


def near_misses():
    """One-entry-per-row matrices, and their transposes, with one entry added where it makes a two-entry
    row and a two-entry column, so neither pattern holds."""
    rng = random.Random(20261029)
    cases = []
    while len(cases) < 16:
        m = one_per_row(rng, 6, 9, empty=0.3)
        (r, c), (r2, c2) = rng.sample(sorted(m.triples), 2)
        if c == c2:
            continue
        entries = dict(m.entries)
        entries[(r, c2)] = gaussian(rng, "complex", 6)
        wider = ExactMatrix(m.rows, m.cols, entries)
        k = len(cases) // 2
        cases.append((f"two-entry-row-{k}", wider))
        cases.append((f"two-entry-column-{k}", wider.transpose()))
    return cases


def count_eliminations(monkeypatch):
    calls = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *a, **kw: calls.append(a) or original(*a, **kw))
    return calls


# ---------------------------------------------------------------------------
# rank, reduced rows and null bases


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in pattern_cases() + near_misses()])
def test_pattern_results_equal_the_eliminations(name, m):
    assert linalg.rank(m) == eliminated_rank(m), name
    assert in_order(linalg._triple_rref(m)) == in_order(eliminated_rref(m)), name
    got, want = linalg.null_basis(m), eliminated_null_basis(m)
    assert (got.rows, got.cols) == (want.rows, want.cols), name
    assert list(got.triples.items()) == list(want.triples.items()), name
    # the reduced rows of the row space, as Subspace.rows builds them
    rows = Subspace(generators=m.transpose()).rows
    red = eliminated_rref(m)[1]
    assert rows.rows == len(red), name
    assert list(rows.triples.items()) == [((i, c), t) for i, row in enumerate(red) for c, t in row.items()], name
    # the modes the pattern does not decide still run the kernel
    for limit, forward in ((None, True), (m.cols // 2, False), (m.cols // 2, True)):
        assert in_order(linalg._triple_rref(m, limit, forward)) == in_order(eliminated_rref(m, limit, forward)), name


def test_the_pattern_decides_without_elimination(monkeypatch):
    calls = count_eliminations(monkeypatch)
    for name, m in pattern_cases():
        calls.clear()
        linalg.rank(m)
        assert not calls, name
        # the full reduction of a one-entry-per-row matrix and of its transpose are read off the pattern
        linalg.null_basis(m)
        Subspace(generators=m.transpose()).rows
        assert not calls, name


def test_near_misses_are_eliminated(monkeypatch):
    calls = count_eliminations(monkeypatch)
    for name, m in near_misses():
        calls.clear()
        linalg.rank(m)
        linalg._triple_rref(m)
        assert len(calls) == 2, name


def test_cases_cover_repeats_and_empty_rows():
    """Non-vacuity: some cases repeat a column (rank below the nonzero rows) and some have empty rows."""
    repeats = empties = 0
    for _, m in pattern_cases():
        nonzero_rows = {r for r, _ in m.triples}
        nonzero_cols = {c for _, c in m.triples}
        repeats += linalg.rank(m) < max(len(nonzero_rows), len(nonzero_cols))
        empties += len(nonzero_rows) < m.rows
    assert repeats >= 5 and empties >= 5


# ---------------------------------------------------------------------------
# the elimination record: equal to a fresh forward pass however it was decided


def record_cases():
    yield from kernel_cases()
    yield from pattern_cases()
    yield from near_misses()


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in record_cases()])
def test_records_equal_a_fresh_forward_pass(name, m):
    """The record's pivots, independent rows and rank are a fresh forward pass's, whether the pattern, a forward
    pass or a full reduction decided them, and with or without rows."""
    pivots, independent = fresh_forward(m)
    for rows in (None, "echelon", "reduced"):
        done = linalg.echelon(rechecked(m), rows)
        assert (done.pivots, done.independent) == (pivots, independent), (name, rows)
        assert rows is None or len(done.rows) == len(pivots), (name, rows)
    reduced = rechecked(m)
    linalg.null_basis(reduced)
    for copy in (m, reduced):
        done = linalg.echelon(copy)
        assert (done.pivots, done.independent, linalg.rank(copy)) == (pivots, independent, len(pivots)), name


# ---------------------------------------------------------------------------
# one-pass blocks


def reference_block(cx, name, p, q):
    """lift(A) + sum_r lift(E_r, lambda_r) over the directions whose eigenvalue is nonzero at some weight."""
    frame = cx._frame_blocks
    mat = reference_lift(cx, frame.block(name, p, q))
    if name in ("partial", "dbar"):
        eig = cx._z_eig if name == "partial" else cx._zbar_eig
        for r in range(1, cx.n + 1):
            scales = [eig[w][r - 1] for w in cx._weights]
            if any(scales):
                mat = mat + reference_lift(cx, frame.coefficient_block(name, p, q, r), scales)
    return mat


def assert_blocks_match(label, cx):
    for name in DIFFERENTIALS:
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                got, want = cx.block(name, p, q), reference_block(cx, name, p, q)
                assert (got.rows, got.cols) == (want.rows, want.cols), (label, name, p, q)
                assert list(got.triples.items()) == list(want.triples.items()), (label, name, p, q)


def test_one_pass_blocks_match_summed_lifts_on_kt4(kt4_session):
    for n in range(4):
        assert_blocks_match(f"kt4 N={n}", kt4_session.complex(n))
        model = kt4_session.spec.coefficients.shell(n)
        assert_blocks_match(f"kt4 shell {n}", FormComplex(kt4_session.frame, model))


def test_one_pass_blocks_match_summed_lifts_on_fourier_models(fourier_sessions):
    for label, session in fourier_sessions:
        assert_blocks_match(label, session.complex())


def test_one_pass_blocks_add_no_matrices(kt4_session, monkeypatch):
    """A block with acting directions is summed in place: no ExactMatrix.__add__, one lift."""
    adds, lifts = [], []
    add, lift = ExactMatrix.__add__, FormComplex.lift
    monkeypatch.setattr(ExactMatrix, "__add__", lambda a, b: adds.append(1) or add(a, b))
    monkeypatch.setattr(FormComplex, "lift", lambda cx, *a, **kw: lifts.append(1) or lift(cx, *a, **kw))
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(2))
    assert cx._acting["partial"] and cx._acting["dbar"]
    for name in ("partial", "dbar"):
        cx.block(name, 1, 0)
    assert adds == [] and len(lifts) == 2


def test_lift_of_cancelling_terms_drops_the_entry(kt4_session):
    cx = kt4_session.complex(1)
    inv = ExactMatrix(2, 1, {(0, 0): ONE, (1, 0): ONE})
    minus = [-ONE] * len(cx._weights)
    assert cx.lift(((inv, None), (inv, minus))) == ExactMatrix(inv.rows * len(minus), len(minus))
    half = ExactMatrix(2, 1, {(1, 0): ONE})
    lifted = cx.lift(((inv, None), (half, minus)))
    assert list(lifted.triples) == [(2 * k, k) for k in range(len(minus))]
