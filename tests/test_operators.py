import random
from fractions import Fraction

import pytest

from acx import linalg
from acx.forms import BasisElement, CoefficientModel, Form, InconsistentModel
from acx.lie import SHIFTS
from acx.linalg import ExactMatrix
from acx.operators import FormComplex, FrameBlocks, compose, shift
from acx.scalars import ONE, Scalar, ZERO

from conftest import assert_sectors_decompose, contains, random_4d_session, sector_complexes


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


def test_reconstruction_identity_fails_on_a_corrupted_d(kodaira_session):
    """The Leibniz rule on the unsplit structure equations is checked against the four
    invariant blocks, so a wrong d shows."""
    cx = FormComplex(kodaira_session.frame, kodaira_session.spec.coefficients)
    # a private FrameBlocks keeps the frame's shared one intact; its parts are split before the corruption
    cx._frame_blocks = FrameBlocks(kodaira_session.frame)
    structure = cx._frame_blocks.structure
    # d(theta^1) gains theta^1 ^ theta^2, which survives on every monomial holding theta^1 but not theta^2
    structure[("h", 1)] = structure[("h", 1)] + Form.monomial(BasisElement((), (1, 2), ()))
    failures = {entry["identity"]: entry["failures"] for entry in cx.identity_suite()}
    assert failures.pop("d=mu+partial+dbar+mubar") == [(1, 0), (1, 1), (1, 2)]
    assert not any(failures.values())


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


def _copies(m, k):
    """The block-diagonal matrix of k copies of m."""
    zero = ExactMatrix(m.rows, m.cols)
    return ExactMatrix.vstack([ExactMatrix.hstack([m if i == j else zero for j in range(k)]) for i in range(k)])


def test_zero_order_operators_are_weight_constant(kt4_session):
    """mu and mubar carry no coefficient-derivative terms: every sector block
    is one copy of the invariant block per weight of the sector."""
    inv = kt4_session.complex(0)
    sectors = sector_complexes(kt4_session, 1)
    assert len(sectors) == 5
    for name in ("mu", "mubar"):
        for p in range(3):
            for q in range(3):
                if not inv.valid_bidegree(p + SHIFTS[name][0], q + SHIFTS[name][1]):
                    continue
                ref = inv.block(name, p, q)
                for cx in sectors:
                    assert cx.block(name, p, q) == _copies(ref, len(cx.coefficients.weights()))


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
    """Per-sector computation agrees with the whole-matrix computation."""
    cells = [(p, q) for p in range(3) for q in range(3)]
    assert_sectors_decompose(kt4_session, 1, ("mu", "partial", "dbar", "mubar"), cells)


def test_weight_blocks_decompose_on_random_fourier_models(fourier_sessions):
    """The seeded torus_fourier models, degenerate action rows included, split into sectors like kt4."""
    for _, session in fourier_sessions:
        n = session.frame.n
        cells = [(p, q) for p in range(n + 1) for q in range(n + 1)]
        assert_sectors_decompose(session, 1, ("mu", "partial", "dbar", "mubar"), cells)


def test_conjugation_intertwines_each_differential_with_its_conjugate(kt4_session, fourier_sessions):
    """conj . D . conj = Dbar for D = mu, partial, dbar, mubar, on kt4 N=1, the 4-dim Fourier models and random 4-dim models."""
    conjugate = {"mu": "mubar", "partial": "dbar", "dbar": "partial", "mubar": "mu"}
    rng = random.Random(4242)
    complexes = [kt4_session.complex(1)]
    complexes += [s.complex() for _, s in fourier_sessions if s.frame.n == 2]
    complexes += [random_4d_session(rng).complex() for _ in range(4)]
    for cx in complexes:
        for name, bar in conjugate.items():
            for p in range(3):
                for q in range(3):
                    twisted = cx.conj_twisted_block(name, p, q)
                    direct = cx.block(bar, p, q)
                    if direct.rows == 0:
                        assert twisted.rows == 0 or twisted.is_zero()
                    else:
                        assert twisted == direct, (cx.coefficients, name, p, q)


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

    def total_vector(form):
        """Coordinates of a 1-form in the total-degree basis of d_total(1)."""
        offsets = cx.total_offsets(1)
        out = [ZERO] * cx.total_dim(1)
        for e, c in form.coeffs.items():
            out[offsets[e.bidegree] + cx.index(*e.bidegree)[e]] = c
        return out

    theta1 = total_vector(Form.monomial(BasisElement((0, 0), (1,), ())))
    tbar1 = total_vector(Form.monomial(BasisElement((0, 0), (), (1,))))
    real2 = total_vector(Form.monomial(BasisElement((0, 0), (2,), ())) + Form.monomial(BasisElement((0, 0), (), (2,))))
    for v in (theta1, tbar1, real2):
        assert contains(k, v)


def test_mubar_image_on_invariant_10_forms(kt4_session):
    cx = kt4_session.complex(0)
    img = linalg.image(cx.block("mubar", 1, 0))
    assert img.dim == 1
    target = cx.to_vector(Form.monomial(BasisElement((0, 0), (), (1, 2))), 0, 2)
    assert contains(img, target)


def test_compose_equals_product_of_blocks(kt4_session):
    cx = kt4_session.complex(1)
    assert compose(cx.block, ["partial", "dbar"], 0, 0) == cx.block("partial", 0, 1) @ cx.block("dbar", 0, 0)
    assert compose(cx.block, ["mubar", "mu"], 0, 1) == cx.block("mubar", 2, 0) @ cx.block("mu", 0, 1)
    triple = cx.block("partial", 1, 1) @ cx.block("dbar", 1, 0) @ cx.block("partial", 0, 0)
    assert compose(cx.block, ["partial", "dbar", "partial"], 0, 0) == triple
    assert compose(cx.block, ["dbar"], 1, 0) == cx.block("dbar", 1, 0)


def test_compose_leaving_the_diamond_has_zero_rows(kt4_session):
    cx = kt4_session.complex(1)
    # mubar takes (1,0) to (0,2); a second mubar would land in (-1,4)
    out = compose(cx.block, ["mubar", "mubar"], 1, 0)
    assert (out.rows, out.cols) == (0, cx.dim(1, 0))
    # leaving at the first step gives the same shape
    out = compose(cx.block, ["partial", "mu"], 2, 1)
    assert (out.rows, out.cols) == (0, cx.dim(2, 1))


def test_compose_shifts_of_adjoints_and_lefschetz(kt4_session):
    eng = kt4_session.engine(1)
    h, cx = eng.hermitian, eng.complex
    assert shift("dbar*") == (0, -1) and shift("mubar*") == (1, -2)
    assert shift("L") == (1, 1) and shift("Lambda") == (-1, -1)
    assert compose(eng.block, ["L", "Lambda"], 1, 1) == h.lefschetz_block(0, 0) @ h.lambda_block(1, 1)
    assert compose(eng.block, ["Lambda", "L"], 1, 1) == h.lambda_block(2, 2) @ h.lefschetz_block(1, 1)
    assert compose(eng.block, ["dbar", "dbar*"], 1, 1) == cx.block("dbar", 1, 0) @ h.adjoint_block("dbar", 1, 1)
    assert compose(eng.block, ["dbar*", "dbar"], 1, 1) == h.adjoint_block("dbar", 1, 2) @ cx.block("dbar", 1, 1)
    assert compose(eng.block, ["L", "mubar*"], 0, 2) == h.lefschetz_block(1, 0) @ h.adjoint_block("mubar", 0, 2)
