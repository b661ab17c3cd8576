import random
from fractions import Fraction

import pytest

from acx import linalg
from acx.forms import BasisElement, CoefficientModel, Form, InconsistentModel
from acx.lie import SHIFTS
from acx.operators import FormComplex, block_at_weight
from acx.scalars import ONE, Scalar, ZERO


def test_identity_suite_kt4(kt4_session):
    for n in (0, 1, 2):
        suite = kt4_session.complex(n).identity_suite()
        assert all(entry["passed"] for entry in suite), suite


def test_identity_suite_torus(torus_session):
    cx = torus_session.complex()
    suite = cx.identity_suite()
    assert all(entry["passed"] for entry in suite)
    # abelian invariant model: all four differentials vanish identically
    for name in ("mu", "partial", "dbar", "mubar"):
        for p in range(3):
            for q in range(3):
                assert cx.block(name, p, q).is_zero()


def test_identity_suite_runs_once_per_complex(kt4_session, monkeypatch):
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(1))
    products = []
    matmul = linalg.ExactMatrix.__matmul__

    def counting_matmul(a, b):
        products.append((a.rows, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(linalg.ExactMatrix, "__matmul__", counting_matmul)
    first = cx.identity_suite()
    assert products and len(first) == 9
    expected = [dict(entry, failures=list(entry["failures"])) for entry in first]
    products.clear()
    # what a caller does to its report must not reach the next caller
    first[0]["failures"].append((9, 9))
    first.pop()
    assert cx.identity_suite() == expected
    assert not products


def test_operator_blocks_respect_shifts(kt4_session):
    cx = kt4_session.complex(1)
    for name, (dp, dq) in SHIFTS.items():
        for p in range(3):
            for q in range(3):
                m = cx.block(name, p, q)
                assert m.cols == cx.dim(p, q)
                if cx.valid_bidegree(p + dp, q + dq):
                    assert m.rows == cx.dim(p + dp, q + dq)
                else:
                    assert m.rows == 0


def test_zero_order_operators_are_weight_constant(kt4_session):
    """mu and mubar carry no coefficient-derivative terms: every weight block
    equals the invariant block."""
    cx = kt4_session.complex(1)
    inv = kt4_session.complex(0)
    zero_w = (0, 0)
    for name in ("mu", "mubar"):
        for p in range(3):
            for q in range(3):
                if not cx.valid_bidegree(p + SHIFTS[name][0], q + SHIFTS[name][1]):
                    continue
                ref = block_at_weight(inv, name, p, q, zero_w)
                for w in cx.coefficients.weights():
                    assert block_at_weight(cx, name, p, q, w) == ref


def test_dbar_on_functions_eigenvalue(kt4_session):
    """dbar e_(m,n) = eigenvalue * e_(m,n) tbar^1 with eigenvalue (i m - n)/2."""
    cx = kt4_session.complex(1)
    for (m, n) in [(1, 0), (0, 1), (1, 1), (-1, 1)]:
        f = Form.monomial(BasisElement((m, n), (), ()))
        img = cx.apply("dbar", f)
        expected = Form.monomial(
            BasisElement((m, n), (), (1,)),
            Scalar(Fraction(-n, 2), Fraction(m, 2)),
        )
        assert img == expected
        img_d = cx.apply("partial", f)
        assert img_d == Form.monomial(
            BasisElement((m, n), (1,), ()), Scalar(Fraction(n, 2), Fraction(m, 2))
        )


def test_weight_blocks_decompose_full_matrices(kt4_session):
    """Per-weight computation agrees with the whole-matrix computation."""
    cx = kt4_session.complex(1)
    for name in ("mu", "partial", "dbar", "mubar"):
        for p in range(3):
            for q in range(3):
                whole = cx.block(name, p, q)
                if whole.rows == 0:
                    continue
                blocks = [block_at_weight(cx, name, p, q, w) for w in cx.coefficients.weights()]
                assert sum(linalg.rank(b) for b in blocks) == linalg.rank(whole)
                assert sum(linalg.kernel(b).dim for b in blocks) == linalg.kernel(whole).dim


def test_conjugation_intertwines_mu_and_mubar(kt4_session):
    """conj . mu . conj = mubar as block maps."""
    cx = kt4_session.complex(1)
    for p in range(3):
        for q in range(3):
            twisted = cx.conj_twisted_block("mu", p, q)
            direct = cx.block("mubar", p, q)
            if direct.rows == 0:
                assert twisted.rows == 0 or twisted.is_zero()
            else:
                assert twisted == direct


def test_reconstruction_and_bidegree_purity(kt4_session):
    cx = kt4_session.complex(0)
    basis10 = cx.basis(1, 0)
    for elt in basis10:
        mono = Form.monomial(elt)
        d_img = cx.apply("d", mono)
        assert d_img.bidegrees() <= {(2, 0), (1, 1), (0, 2)}
        total = Form()
        for name in ("mu", "partial", "dbar", "mubar"):
            total = total + cx.apply(name, mono)
        assert total == d_img


def test_inconsistent_fourier_models(kt4_session):
    frame = kt4_session.frame
    # action on a frame vector whose dual coframe element is not closed
    bad = CoefficientModel(
        "torus_fourier",
        1,
        ((ZERO,), (ZERO,), (ZERO,), (ONE,)),
        1,
    )
    with pytest.raises(InconsistentModel):
        FormComplex(frame, bad)
    # two acting vectors that do not commute
    bad2 = CoefficientModel(
        "torus_fourier",
        2,
        ((ZERO, ZERO), (ONE, ZERO), (ZERO, ONE), (ZERO, ZERO)),
        1,
    )
    with pytest.raises(InconsistentModel):
        FormComplex(frame, bad2)


def test_d_total_squares_to_zero(kt4_session, nil6_session):
    for cx in (kt4_session.complex(1), nil6_session.complex()):
        for r in range(2 * cx.n):
            assert (cx.d_total(r + 1) @ cx.d_total(r)).is_zero()


def test_d_on_invariant_one_forms_kt4(kt4_session):
    """Rank one, kernel spanned by theta^1, tbar^1 and theta^2 + tbar^2."""
    cx = kt4_session.complex(0)
    d1 = cx.d_total(1)
    assert linalg.rank(d1) == 1
    k = linalg.kernel(d1)
    assert k.dim == 3
    theta1 = cx.total_form_vector(Form.monomial(BasisElement((0, 0), (1,), ())), 1)
    tbar1 = cx.total_form_vector(Form.monomial(BasisElement((0, 0), (), (1,))), 1)
    real2 = cx.total_form_vector(
        Form.monomial(BasisElement((0, 0), (2,), ())) + Form.monomial(BasisElement((0, 0), (), (2,))), 1
    )
    for v in (theta1, tbar1, real2):
        assert k.contains(v)


def test_mubar_image_on_invariant_10_forms(kt4_session):
    cx = kt4_session.complex(0)
    img = linalg.image(cx.block("mubar", 1, 0))
    assert img.dim == 1
    target = cx.to_vector(Form.monomial(BasisElement((0, 0), (), (1, 2))), 0, 2)
    assert img.contains(target)


def test_graded_operator_wrapper(kt4_session):
    cx = kt4_session.complex(0)
    op = cx.graded("mubar")
    assert op.name == "mubar"
    assert op.shift == (-1, 2)
    assert op.block(1, 0) == cx.block("mubar", 1, 0)
    assert set(op.blocks) == {(p, q) for p in range(3) for q in range(3)}
