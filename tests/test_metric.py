import random
from fractions import Fraction

import pytest

from acx import linalg
from acx.forms import BasisElement, Form
from acx.linalg import ExactMatrix
from acx.metric import (
    HermitianMetric,
    HermitianStructure,
    Not4Manifold,
    NotPositive,
    PointwiseMetric,
    fundamental_form,
)
from acx.operators import FormComplex
from acx.scalars import I, ONE, Scalar, ZERO, integer, rational

HALF_I = Scalar(Fraction(0), Fraction(1, 2))


def mono(w, holo, anti, coeff=ONE):
    return Form.monomial(BasisElement(w, holo, anti), coeff)


def test_fundamental_form_identity_metric(kt4_session):
    cx = kt4_session.complex(0)
    omega = fundamental_form(cx, HermitianMetric.identity(2))
    expected = mono((0, 0), (1,), (1,), HALF_I) + mono((0, 0), (2,), (2,), HALF_I)
    assert omega == expected


def test_fundamental_form_diagonal_metric(torus_session):
    cx = torus_session.complex()
    g = HermitianMetric(((integer(2), ZERO), (ZERO, integer(3))))
    omega = fundamental_form(cx, g)
    expected = mono((), (1,), (1,), I) + mono((), (2,), (2,), Scalar(Fraction(0), Fraction(3, 2)))
    assert omega == expected


def test_non_hermitian_metric_rejected():
    g = HermitianMetric(((ONE, I), (I, ONE)))
    with pytest.raises(NotPositive):
        g.validate()
    g2 = HermitianMetric(((-ONE, ZERO), (ZERO, ONE)))
    with pytest.raises(NotPositive):
        g2.validate()


def test_star_anchors(kt4_session):
    eng = kt4_session.engine(0)
    h = eng.hermitian
    cx = eng.complex
    # star(1) = dV
    one = Form.monomial(BasisElement((0, 0), (), ()))
    assert h.apply_star(one) == h.volume_form
    # the holomorphic volume form is self-dual
    v = cx.to_vector(mono((0, 0), (1, 2), ()), 2, 0)
    assert h.star(2, 0).apply(v) == v
    # omega is self-dual
    w = cx.to_vector(h.omega, 1, 1)
    assert h.star(1, 1).apply(w) == w


def test_star_squares_blockwise(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    for p in range(3):
        for q in range(3):
            square = h.star(2 - q, 2 - p) @ h.star(p, q)
            expected = ExactMatrix.identity(cx.dim(p, q)).scale(integer((-1) ** (p + q)))
            assert square == expected


def test_star_pairing_positive(kt4_session):
    """a ^ star(conj a) integrates to a positive rational for a != 0."""
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    rng = random.Random(6)
    for _ in range(20):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        vec = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(p, q))]
        if not any(vec):
            continue
        a = cx.from_vector(vec, p, q)
        value = h.integral(a.wedge(h.apply_star(a.conjugate())))
        assert value.is_real() and value.re > 0


def test_adjointness(kt4_session):
    """<delta a, b> = <a, delta^* b> for every differential, exactly."""
    for n in (0, 1):
        eng = kt4_session.engine(n)
        h, cx = eng.hermitian, eng.complex
        rng = random.Random(31 + n)
        from acx.lie import SHIFTS

        for name in ("mu", "partial", "dbar", "mubar"):
            dp, dq = SHIFTS[name]
            for p in range(3):
                for q in range(3):
                    tp, tq = p + dp, q + dq
                    if not (cx.valid_bidegree(tp, tq) and cx.dim(p, q) and cx.dim(tp, tq)):
                        continue
                    fwd = cx.block(name, p, q)
                    back = h.adjoint_block(name, tp, tq)
                    for _ in range(3):
                        a = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(p, q))]
                        b = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(tp, tq))]
                        lhs = h.inner(fwd.apply(a), b, tp, tq)
                        rhs = h.inner(a, back.apply(b), p, q)
                        assert lhs == rhs


def test_adjoint_kills_invariant_01(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    adj = h.adjoint_block("dbar", 0, 1)
    assert adj.is_zero()


def test_torus_adjoints_and_laplacians_vanish(torus_session):
    eng = torus_session.engine()
    h = eng.hermitian
    for name in ("mu", "partial", "dbar", "mubar"):
        for p in range(3):
            for q in range(3):
                assert h.adjoint_block(name, p, q).is_zero()
                assert h.laplacian_block(name, p, q).is_zero()


def test_laplacian_kernel_is_double_kernel(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    for name in ("dbar", "mu", "partial", "mubar", "d"):
        if name == "d":
            continue
        for p in range(3):
            for q in range(3):
                if cx.dim(p, q) == 0:
                    continue
                lap = h.laplacian_block(name, p, q)
                lap_kernel = linalg.kernel(lap)
                direct = eng.harmonic_space((name,), p, q)
                assert lap_kernel == direct


def test_laplacian_dbar_10_kernel(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    lap = h.laplacian_block("dbar", 1, 0)
    k = linalg.kernel(lap)
    assert k.dim == 1
    theta1 = cx.to_vector(mono((0, 0), (1,), ()), 1, 0)
    assert k.contains(theta1)


def test_laplacian_self_adjoint(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    rng = random.Random(44)
    lap = h.laplacian_block("dbar", 1, 1)
    for _ in range(5):
        a = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(1, 1))]
        b = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(1, 1))]
        assert h.inner(lap.apply(a), b, 1, 1) == h.inner(a, lap.apply(b), 1, 1)
        assert h.inner(lap.apply(a), a, 1, 1).re >= 0


def test_conjugation_relates_laplacian_kernels(kt4_session):
    """conj maps dbar-harmonics at (p,q) onto partial-harmonics at (q,p)."""
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    for (p, q) in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        src = eng.harmonic_space(("dbar",), p, q)
        tgt = eng.harmonic_space(("partial",), q, p)
        assert src.dim == tgt.dim
        conj = cx.conj_struct(p, q)
        for v in src.basis:
            image_vec = conj.apply([x.conj() for x in v])
            assert tgt.contains(image_vec)


def test_lefschetz_pair(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    one = cx.to_vector(Form.monomial(BasisElement((0, 0), (), ())), 0, 0)
    assert cx.from_vector(h.lefschetz_block(0, 0).apply(one), 1, 1) == h.omega
    lam = h.lambda_block(1, 1)
    w = cx.to_vector(h.omega, 1, 1)
    assert lam.apply(w) == (integer(2),)


def test_primitive_11_torus(torus_session):
    eng = torus_session.engine()
    h = eng.hermitian
    lam = h.lambda_block(1, 1)
    assert linalg.kernel(lam).dim == 3


def test_asd_split(kt4_session, nil6_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    plus, minus = h.asd_split()
    assert plus.dim == 3 and minus.dim == 3
    # omega sits in the self-dual part; coordinates are [(2,0), (1,1), (0,2)]
    w11 = cx.to_vector(h.omega, 1, 1)
    vec = (ZERO,) + tuple(w11) + (ZERO,)
    assert plus.contains(vec)
    # a primitive (1,1) element is anti-self-dual
    lam = h.lambda_block(1, 1)
    for v in linalg.kernel(lam).basis:
        vec = (ZERO,) + tuple(v) + (ZERO,)
        assert minus.contains(vec)
    with pytest.raises(Not4Manifold):
        nil6_session.engine().hermitian.asd_split()


def _generic_metric_structure(session, truncation=None):
    """A positive Hermitian metric with a complex off-diagonal entry."""
    from acx.scalars import Scalar as S

    cx = session.complex(truncation)
    third_i = S(Fraction(0), Fraction(1, 3))
    g = HermitianMetric(((integer(2), third_i), (-third_i, ONE)))
    return HermitianStructure(cx, g)


def test_star_involution_generic_metric(kt4_session):
    """Exactness of the wedge-pairing star for a non-diagonal rational metric."""
    h = _generic_metric_structure(kt4_session, 0)
    cx = h.complex
    for p in range(3):
        for q in range(3):
            square = h.star(2 - q, 2 - p) @ h.star(p, q)
            expected = ExactMatrix.identity(cx.dim(p, q)).scale(integer((-1) ** (p + q)))
            assert square == expected
    one = Form.monomial(BasisElement((0, 0), (), ()))
    assert h.apply_star(one) == h.volume_form
    # Lambda omega = n for the fundamental form of its own metric
    lam = h.lambda_block(1, 1)
    assert lam.apply(cx.to_vector(h.omega, 1, 1)) == (integer(2),)


def test_weight_independent_parts_are_shared_across_sectors(kt4_session, monkeypatch):
    validated = []
    validate = HermitianMetric.validate
    monkeypatch.setattr(HermitianMetric, "validate", lambda g: validated.append(g) or validate(g))
    # a metric no other test builds, so nothing of it is cached yet
    metric = HermitianMetric(((integer(3), I), (-I, integer(2))))
    model = kt4_session.spec.coefficients
    structures = [
        HermitianStructure(FormComplex(kt4_session.frame, model.with_sector(w)), metric)
        for w in ((0, 0), (1, 0), (1, -1))
    ]
    assert validated == [metric]
    first, *rest = structures
    for h in rest:
        assert h.omega is first.omega
        assert h.gram_invariant(1, 0) is first.gram_invariant(1, 0)
        assert h.star_invariant(1, 1) is first.star_invariant(1, 1)
    assert first.star_invariant(1, 1) == PointwiseMetric(metric, 2).star_invariant(1, 1)


def test_star_pairing_positive_generic_metric(kt4_session):
    h = _generic_metric_structure(kt4_session, 0)
    cx = h.complex
    rng = random.Random(61)
    for _ in range(15):
        p, q = rng.randint(0, 2), rng.randint(0, 2)
        vec = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(p, q))]
        if not any(vec):
            continue
        a = cx.from_vector(vec, p, q)
        value = h.integral(a.wedge(h.apply_star(a.conjugate())))
        assert value.is_real() and value.re > 0


def test_adjointness_generic_metric(kt4_session):
    from acx.lie import SHIFTS

    h = _generic_metric_structure(kt4_session, 0)
    cx = h.complex
    rng = random.Random(62)
    for name in ("mu", "partial", "dbar", "mubar"):
        dp, dq = SHIFTS[name]
        for p in range(3):
            for q in range(3):
                tp, tq = p + dp, q + dq
                if not (cx.valid_bidegree(tp, tq) and cx.dim(p, q) and cx.dim(tp, tq)):
                    continue
                fwd = cx.block(name, p, q)
                back = h.adjoint_block(name, tp, tq)
                a = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(p, q))]
                b = [Scalar(Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2))) for _ in range(cx.dim(tp, tq))]
                assert h.inner(fwd.apply(a), b, tp, tq) == h.inner(a, back.apply(b), p, q)


def test_star_involution_six_dimensional(nil6_session):
    eng = nil6_session.engine()
    h, cx = eng.hermitian, eng.complex
    for p in range(4):
        for q in range(4):
            square = h.star(3 - q, 3 - p) @ h.star(p, q)
            expected = ExactMatrix.identity(cx.dim(p, q)).scale(integer((-1) ** (p + q)))
            assert square == expected


def test_kahler_predicates(kt4_session, torus_session, kodaira_session):
    assert kt4_session.engine(0).hermitian.kahler_predicates() == {
        "almost_kahler": True,
        "ddc_closed": True,
    }
    assert torus_session.engine().hermitian.kahler_predicates() == {
        "almost_kahler": True,
        "ddc_closed": True,
    }
    # the integrable structure on the same nilmanifold: omega is not closed
    preds = kodaira_session.engine().hermitian.kahler_predicates()
    assert preds["almost_kahler"] is False
    assert preds["ddc_closed"] is True


def test_non_closed_metric_predicate(kt4_session):
    """An off-diagonal positive metric on kt4 loses closedness of omega."""
    cx = kt4_session.complex(0)
    half = rational(1, 2)
    g = HermitianMetric(((ONE, half), (half, ONE)))
    h = HermitianStructure(cx, g)
    preds = h.kahler_predicates()
    assert preds["almost_kahler"] is False


def test_almost_kahler_implies_ddc_closed_on_models(kt4_session, torus_session, kodaira_session):
    for session in (kt4_session, torus_session, kodaira_session):
        preds = session.engine(0 if session.spec.coefficients.kind != "invariant" else None).hermitian.kahler_predicates()
        if preds["almost_kahler"]:
            assert preds["ddc_closed"]
