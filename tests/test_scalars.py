import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest

import test_linalg
from acx import linalg
from acx.linalg import ExactMatrix
from acx.scalars import (
    I,
    ONE,
    ZERO,
    Scalar,
    add_triples,
    format_scalar,
    integer,
    parse_rational,
    parse_scalar,
    rational,
    reduced,
)


def test_field_basics():
    a = Scalar(Fraction(1, 2), Fraction(-3, 4))
    b = Scalar(Fraction(2), Fraction(1, 3))
    assert a + b - b == a
    assert a * b == b * a
    assert (a * b) / b == a
    assert ONE / I == -I
    assert I * I == integer(-1)


def test_conjugation_involution_and_abs2():
    rng = random.Random(7)
    for _ in range(50):
        s = Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert s.conj().conj() == s
        norm = s * s.conj()
        assert norm.is_real()
        assert norm.re >= 0
        assert (norm.re == 0) == (not s)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_pow():
    assert I ** 0 == ONE
    assert I ** 2 == integer(-1)
    assert I ** 3 == -I
    assert integer(2) ** -1 == rational(1, 2)


@pytest.mark.parametrize(
    "text,expected",
    [
        ("3", integer(3)),
        ("-1/4", rational(-1, 4)),
        ("i", I),
        ("-i", -I),
        ("2i", Scalar(Fraction(0), Fraction(2))),
        ("1/2*i", Scalar(Fraction(0), Fraction(1, 2))),
        ("1/2+3/4*i", Scalar(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4*i", Scalar(Fraction(1, 2), Fraction(-3, 4))),
        ("0", ZERO),
    ],
)
def test_parse(text, expected):
    assert parse_scalar(text) == expected


def test_format_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        s = Scalar(Fraction(rng.randint(-20, 20), rng.randint(1, 12)), Fraction(rng.randint(-20, 20), rng.randint(1, 12)))
        assert parse_scalar(format_scalar(s)) == s


def test_parse_rejects_garbage():
    for bad in ("", "one", "1+2", "i*i", "1/0", "1e5", "2E-3", "1/2+1e400000*i", "1e9i", "-1e3*i"):
        with pytest.raises(ValueError):
            parse_scalar(bad)
    for bad in ("1e4000000", "3E2", "1/2e1"):
        with pytest.raises(ValueError):
            parse_rational(bad)


# ---------------------------------------------------------------------------
# differential oracle: the Fraction-pair Scalar that the integer triple
# replaced, kept here as the reference for every operation


@dataclass(frozen=True, slots=True)
class RefScalar:
    re: Fraction
    im: Fraction

    def __add__(self, other):
        return RefScalar(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return RefScalar(self.re - other.re, self.im - other.im)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def __mul__(self, other):
        return RefScalar(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __truediv__(self, other):
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return RefScalar((self.re * other.re + self.im * other.im) / n, (self.im * other.re - self.re * other.im) / n)

    def __pow__(self, k):
        if k < 0:
            return (self ** (-k)).inverse()
        out = REF_ONE
        for _ in range(k):
            out = out * self
        return out

    def inverse(self):
        return REF_ONE / self

    def conj(self):
        return RefScalar(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def is_real(self):
        return self.im == 0


REF_ZERO = RefScalar(Fraction(0), Fraction(0))
REF_ONE = RefScalar(Fraction(1), Fraction(0))


def ref_format(s):
    if not s.im:
        return str(s.re)
    im = f"{s.im}*i"
    if not s.re:
        return im
    sign = "+" if s.im > 0 else ""
    return f"{s.re}{sign}{im}"


def _rand_fraction(rng, bits):
    if rng.random() < 0.25:
        return Fraction(0)
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def oracle_pairs(count=300):
    """(Scalar, RefScalar) pairs of equal value: small, 64-bit and 200-bit-plus parts."""
    rng = random.Random(20261018)
    out = [(ZERO, REF_ZERO), (ONE, REF_ONE), (I, RefScalar(Fraction(0), Fraction(1)))]
    for k in range(count):
        bits = (3, 64, 240)[k % 3]
        re, im = _rand_fraction(rng, bits), _rand_fraction(rng, bits)
        out.append((Scalar(re, im), RefScalar(re, im)))
    return out


def same(new, ref):
    return (new.re, new.im) == (ref.re, ref.im) and format_scalar(new) == ref_format(ref)


def canonical(s):
    a, b, d = s._a, s._b, s._d
    return d > 0 and math.gcd(a, b, d) == 1 and (a or b or d == 1)


def test_oracle_covers_large_parts():
    bits = max(max(x.re.numerator.bit_length(), x.im.denominator.bit_length()) for x, _ in oracle_pairs())
    assert bits >= 200


def test_unary_operations_match_reference():
    for x, rx in oracle_pairs():
        assert same(x, rx) and canonical(x)
        for new, ref in ((-x, -rx), (x.conj(), rx.conj()), (x ** 2, rx ** 2), (x ** 3, rx ** 3), (x ** 0, rx ** 0)):
            assert same(new, ref) and canonical(new)
        assert (x * x.conj()).re == rx.abs2()
        assert bool(x) == bool(rx) and x.is_real() == rx.is_real()
        assert x.real_part() == Scalar(rx.re, 0) and x.imag_part() == Scalar(rx.im, 0)
        if rx:
            for new, ref in ((x.inverse(), rx.inverse()), (x ** -1, rx ** -1), (x ** -2, rx ** -2)):
                assert same(new, ref) and canonical(new)
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()


def test_binary_operations_match_reference():
    pairs = oracle_pairs(120)
    rng = random.Random(5)
    # equal denominators exercise the fast path of + and -
    extra = []
    for x, rx in pairs[:40]:
        y = x + rational(rng.randint(-5, 5), 1) * Scalar(Fraction(1, x._d), 0)
        extra.append((y, rx + RefScalar(y.re - rx.re, y.im - rx.im)))
    pairs += extra
    for x, rx in pairs:
        for y, ry in rng.sample(pairs, 12) + [(x, rx), (-x, -rx), (x.conj(), rx.conj())]:
            for new, ref in ((x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry)):
                assert same(new, ref) and canonical(new)
            if ry:
                new, ref = x / y, rx / ry
                assert same(new, ref) and canonical(new)
            assert (x == y) == (rx == ry)
            if x == y:
                assert hash(x) == hash(y)


def test_triple_sums_and_reduction_match_reference():
    """add_triples of unreduced triples, reduced once, is the sum; reduced gives the canonical triple."""
    pairs = oracle_pairs(90)
    rng = random.Random(13)
    unequal = 0
    for x, rx in pairs:
        for y, ry in rng.sample(pairs, 8):
            k = rng.randint(1, 6)
            # the same values with a common factor k left in: unreduced triples
            xt = tuple(v * k for v in x.triple)
            yt = tuple(v * (k + 1) for v in y.triple)
            total = reduced(*add_triples(xt, yt))
            assert same(total, rx + ry) and canonical(total)
            assert reduced(*xt) == x and reduced(*xt).triple == x.triple
            unequal += xt[2] != yt[2]
    assert unequal > 100


def test_equal_values_from_different_paths_are_identical():
    for x, _ in oracle_pairs(60):
        for y, _ in oracle_pairs(60)[1:20]:
            if y:
                z = x * y / y
                assert z == x and hash(z) == hash(x)
                assert (z._a, z._b, z._d) == (x._a, x._b, x._d)
    half = rational(1, 2)
    assert half + half == ONE and (half + half)._d == 1
    assert half - half == ZERO and (half - half)._d == 1
    assert (I * I + ONE) == ZERO and hash(I * I + ONE) == hash(ZERO)


def test_int_and_fraction_operands():
    x = Scalar(Fraction(3, 4), Fraction(-1, 6))
    assert x + 1 == 1 + x == x + ONE
    assert x * Fraction(2, 3) == Fraction(2, 3) * x == x * rational(2, 3)
    assert x - Fraction(1, 4) == x - rational(1, 4)
    assert x / 2 == x * rational(1, 2)
    with pytest.raises(TypeError):
        x + 0.5


def test_equality_is_false_against_other_types():
    assert ONE != 1 and ZERO != 0 and not (ONE == Fraction(1))
    assert rational(1, 2) != Fraction(1, 2)
    assert ZERO != (0, 0, 1) and ZERO is not None


def test_canonical_form_pinned():
    assert (ZERO._a, ZERO._b, ZERO._d) == (0, 0, 1)
    for s in (Scalar(Fraction(0), Fraction(0)), ONE - ONE, rational(3, 7) - rational(6, 14), I * ZERO):
        assert (s._a, s._b, s._d) == (0, 0, 1)
    s = Scalar(Fraction(-2, 6), Fraction(5, 10))
    assert (s._a, s._b, s._d) == (-2, 3, 6)
    t = rational(6, -4)
    assert (t._a, t._b, t._d) == (-3, 0, 2)
    u = Scalar(Fraction(1, 2), Fraction(1, 2)) * Scalar(Fraction(1), Fraction(-1))
    assert (u._a, u._b, u._d) == (1, 0, 1)


def test_scalars_are_read_only():
    s = rational(1, 2)
    with pytest.raises(AttributeError):
        s.re = Fraction(1)
    with pytest.raises(AttributeError):
        s.im = Fraction(1)
    with pytest.raises(AttributeError):
        s.extra = 1


def test_division_by_zero_error():
    for x in (ONE, I, rational(-3, 5), ZERO):
        with pytest.raises(ZeroDivisionError, match="division by zero in Q"):
            x / ZERO
    with pytest.raises(ZeroDivisionError):
        ZERO ** -1
    with pytest.raises(ZeroDivisionError):
        rational(1, 0)


# the elimination layer in integer-triple scalars against the dense
# Gauss-Jordan of tests/test_linalg.py run in reference scalars


def to_ref(s):
    return RefScalar(s.re, s.im)


class RefMatrix:
    """A sparse matrix of reference scalars, with the shape and {(r, c): value} entries the dense references read.

    ExactMatrix holds canonical int triples, so it cannot hold a RefScalar.
    """

    def __init__(self, rows, cols, entries=None):
        self.rows = rows
        self.cols = cols
        self.entries = {rc: v for rc, v in (entries or {}).items() if v}

    @classmethod
    def from_rows(cls, rowvecs, cols):
        return cls(len(rowvecs), cols, {(r, c): v for r, row in enumerate(rowvecs) for c, v in enumerate(row)})

    def transpose(self):
        return RefMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})


def ref_matrix(m):
    return RefMatrix(m.rows, m.cols, {rc: to_ref(v) for rc, v in m.entries.items()})


def ref_rows(rows):
    return [{c: to_ref(v) for c, v in row.items()} for row in rows]


def ref_vec(vec):
    return None if vec is None else tuple(to_ref(v) for v in vec)


def big_matrix(rng, rows, cols, bits):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < 0.6:
                entries[(r, c)] = Scalar(_rand_fraction(rng, bits), _rand_fraction(rng, bits))
    return ExactMatrix(rows, cols, entries)


def elimination_cases():
    cases = list(test_linalg.oracle_matrices())
    rng = random.Random(99)
    for rows, cols in ((4, 6), (6, 4), (5, 9)):
        cases.append((f"big-{rows}x{cols}", big_matrix(rng, rows, cols, 200)))
    low = big_matrix(rng, 6, 2, 64) @ big_matrix(rng, 2, 7, 64)
    cases.append(("big-low-rank-6x7", low))
    return cases


class DenseReferences:
    """tests/test_linalg.py's dense references, each call run with its zero, one and matrices in reference scalars.

    Only the call is patched: test_linalg.solve_columns, which the tests also call, builds an ExactMatrix.
    """

    def __getattr__(self, name):
        reference = getattr(test_linalg, name)

        def call(*args):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(test_linalg, "ZERO", REF_ZERO)
                patch.setattr(test_linalg, "ONE", REF_ONE)
                patch.setattr(test_linalg, "ExactMatrix", RefMatrix)
                return reference(*args)

        return call


@pytest.fixture
def dense():
    return DenseReferences()


@pytest.mark.parametrize("name, m", [pytest.param(name, m, id=name) for name, m in elimination_cases()])
def test_elimination_matches_reference_scalars(dense, name, m):
    rng = random.Random(name)
    rm = ref_matrix(m)
    pivots, reduced, leftover = dense.dense_rref_full(rm)
    got_pivots, got_reduced = linalg.rref(m)
    assert got_pivots == pivots and ref_rows(got_reduced) == reduced
    assert ref_rows(linalg._rref_full(m)[2]) == [row for row in leftover if row]
    assert [ref_vec(v) for v in linalg.kernel(m).basis] == list(dense.dense_kernel(rm))
    assert [ref_vec(v) for v in linalg.image(m).basis] == list(dense.dense_image(rm))
    inside = m.apply(tuple(test_linalg.rand_scalar(rng, 0.6) for _ in range(m.cols)))
    outside = tuple(test_linalg.rand_scalar(rng, 0.6) for _ in range(m.rows))
    rhs = [inside, outside, tuple(ZERO for _ in range(m.rows))]
    expected = dense.dense_solve_many(rm, [ref_vec(b) for b in rhs])
    assert [ref_vec(x) for x in test_linalg.solve_columns(m, rhs)] == expected
    for reverse in (False, True):
        assert ref_vec(linalg.solve(m, outside, reverse_pivots=reverse)) == dense.dense_solve(rm, ref_vec(outside), reverse)
