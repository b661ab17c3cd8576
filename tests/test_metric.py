import random
from fractions import Fraction
from math import comb

import pytest

from acx import linalg
from acx import metric as metric_module
from acx.forms import BasisElement, Form, wedge_elements
from acx.linalg import ExactMatrix
from acx.metric import (
    HermitianMetric,
    HermitianStructure,
    NotPositive,
    PointwiseMetric,
    pointwise_metric,
)
from acx.operators import FormComplex
from acx.scalars import I, ONE, Scalar, ZERO, integer, rational

from conftest import contains, sweep_sessions

HALF_I = Scalar(Fraction(0), Fraction(1, 2))


def mono(w, holo, anti, coeff=ONE):
    return Form.monomial(BasisElement(w, holo, anti), coeff)


def volume_form(h):
    """dV = omega ^ omega / 2 of a four-dimensional model."""
    return h.omega.wedge(h.omega).scale(rational(1, 2))


def integral(h, form):
    """Model-level integral: the volume coefficient of the weight-zero part over that of dV."""
    ((vol_elt, vol_coeff),) = volume_form(h).coeffs.items()
    return form.coeffs.get(vol_elt, ZERO) / vol_coeff


def asd_split(h):
    """(+1, -1) eigenspaces of star on 2-forms in dimension four, where star keeps (2,0), (1,1) and (0,2)."""
    entries, off = {}, 0
    for b in ((2, 0), (1, 1), (0, 2)):
        star = h.star(*b)
        entries.update(((off + r, off + c), v) for (r, c), v in star.entries.items())
        off += star.cols
    star2 = ExactMatrix(off, off, entries)
    ident = ExactMatrix.identity(off)
    return linalg.kernel(star2 - ident), linalg.kernel(star2 + ident)


def test_fundamental_form_identity_metric(kt4_session):
    omega = pointwise_metric(HermitianMetric.identity(2), 2).omega
    expected = mono((0, 0), (1,), (1,), HALF_I) + mono((0, 0), (2,), (2,), HALF_I)
    assert omega == expected


def test_fundamental_form_diagonal_metric(torus_session):
    g = HermitianMetric(((integer(2), ZERO), (ZERO, integer(3))))
    omega = pointwise_metric(g, torus_session.spec.coefficients.rank).omega
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
    assert h.apply_star(one) == volume_form(h)
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
        value = integral(h, a.wedge(h.apply_star(a.conjugate())))
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
    assert contains(k, theta1)


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
            assert contains(tgt, image_vec)


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


def test_asd_split(kt4_session):
    eng = kt4_session.engine(0)
    h, cx = eng.hermitian, eng.complex
    plus, minus = asd_split(h)
    assert plus.dim == 3 and minus.dim == 3
    # omega sits in the self-dual part; coordinates are [(2,0), (1,1), (0,2)]
    w11 = cx.to_vector(h.omega, 1, 1)
    vec = (ZERO,) + tuple(w11) + (ZERO,)
    assert contains(plus, vec)
    # a primitive (1,1) element is anti-self-dual
    lam = h.lambda_block(1, 1)
    for v in linalg.kernel(lam).basis:
        vec = (ZERO,) + tuple(v) + (ZERO,)
        assert contains(minus, vec)


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
    assert h.apply_star(one) == volume_form(h)
    # Lambda omega = n for the fundamental form of its own metric
    lam = h.lambda_block(1, 1)
    assert lam.apply(cx.to_vector(h.omega, 1, 1)) == (integer(2),)


def test_weight_independent_parts_are_shared_across_sectors(kt4_session, monkeypatch):
    validated = []
    validate = HermitianMetric.validate
    monkeypatch.setattr(HermitianMetric, "validate", lambda g: validated.append(g) or validate(g))
    # every build of an invariant L or Lambda, as (builder, p, q)
    built = []
    for name in ("_lefschetz", "_lambda"):
        builder = getattr(PointwiseMetric, name)
        monkeypatch.setattr(
            PointwiseMetric, name, lambda pm, p, q, name=name, builder=builder: built.append((name, p, q)) or builder(pm, p, q)
        )
    # a metric no other test builds, so nothing of it is cached yet
    metric = HermitianMetric(((integer(3), I), (-I, integer(2))))
    model = kt4_session.spec.coefficients
    # the truncation shells 0, 1, 2, each a union of sectors {w, -w}
    structures = [HermitianStructure(FormComplex(kt4_session.frame, model.shell(s)), metric) for s in range(3)]
    assert validated == [metric]
    first, *rest = structures
    for h in rest:
        assert h.omega is first.omega
        assert h.gram_invariant(1, 0) is first.gram_invariant(1, 0)
        assert h.star_invariant(1, 1) is first.star_invariant(1, 1)
    assert first.star_invariant(1, 1) == PointwiseMetric(metric, 2).star_invariant(1, 1)
    # the invariant L and Lambda are built once for the metric and shared by every sector
    for h in structures:
        h.lefschetz_block(1, 1)
        h.lambda_block(1, 1)
        h.lambda_block(2, 1)
        assert h._pointwise is first._pointwise
    assert sorted(built) == [("_lambda", 1, 1), ("_lambda", 2, 1), ("_lefschetz", 1, 0), ("_lefschetz", 1, 1)]


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
        value = integral(h, a.wedge(h.apply_star(a.conjugate())))
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


def test_kahler_predicates_are_evaluated_once_per_structure(kt4_session, monkeypatch):
    cx = kt4_session.complex(1)
    h = HermitianStructure(cx, kt4_session.spec.metric)
    calls = []
    apply = FormComplex.apply
    monkeypatch.setattr(FormComplex, "apply", lambda self, name, form: calls.append(name) or apply(self, name, form))
    first = h.kahler_predicates()
    assert first == {"almost_kahler": True, "ddc_closed": True} and calls
    calls.clear()
    # what a caller does to its dict must not reach the next caller
    first["almost_kahler"] = False
    assert h.kahler_predicates() == {"almost_kahler": True, "ddc_closed": True}
    assert not calls


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


# differential oracle: the Gram build that recomputed both metric minors for
# every pair of monomials, kept as the reference for the per-build minor table


def reference_gram(pm, p, q):
    monos = pm._monomials(p, q)
    h = pm._h

    def det_sub(rows_idx, cols_idx, conj):
        rows = [[h[r - 1][c - 1].conj() if conj else h[r - 1][c - 1] for c in cols_idx] for r in rows_idx]
        return metric_module.exact_det(rows)

    return ExactMatrix.from_rows(
        [[det_sub(x.holo, y.holo, False) * det_sub(x.anti, y.anti, True) for y in monos] for x in monos],
        len(monos),
    )


def generic_metric(n, rng):
    """A Hermitian metric with complex off-diagonal entries, made positive by a dominant diagonal."""
    rows = [[ZERO] * n for _ in range(n)]
    for k in range(n):
        rows[k][k] = integer(3 * n)
        for j in range(k + 1, n):
            g = Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)), Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
            rows[k][j], rows[j][k] = g, g.conj()
    return HermitianMetric(tuple(tuple(r) for r in rows))


def gram_metrics():
    rng = random.Random(8)
    yield "torus8-identity", HermitianMetric.identity(4)
    yield "torus8-generic", generic_metric(4, rng)
    for k, session in enumerate(sweep_sessions(101)):
        if session.spec.real_dim == 6:
            yield f"sweep101-{k}", session.spec.metric


@pytest.mark.parametrize("name, metric", [pytest.param(name, m, id=name) for name, m in gram_metrics()])
def test_gram_minor_table_matches_per_pair_gram(name, metric, monkeypatch):
    """Each (rows, cols, conj) minor is computed once per Gram build: C(n,p)^2 + C(n,q)^2 top-level dets."""
    pm = PointwiseMetric(metric, 0)
    n = pm.n
    calls = []
    depth = [0]
    exact_det = metric_module.exact_det

    def counting(rows):
        if not depth[0]:
            calls.append(len(rows))
        depth[0] += 1
        try:
            return exact_det(rows)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(metric_module, "exact_det", counting)
    for p in range(n + 1):
        for q in range(n + 1):
            calls.clear()
            gram = pm._gram(p, q)
            assert len(calls) == comb(n, p) ** 2 + comb(n, q) ** 2, (p, q)
            calls.clear()
            assert gram == reference_gram(pm, p, q), (p, q)
            assert len(calls) == 2 * (comb(n, p) * comb(n, q)) ** 2


def reference_star(pm, p, q):
    """Star on invariant (p,q)-monomials from the full wedge-pairing system.

    W[phi, beta] is the volume coefficient of phi ^ beta over every probe phi in
    A^{q,p} and target beta in A^{n-q,n-p}; each column of star solves W x =
    <phi, conj(sigma)> dV.
    """
    n = pm.n
    src = pm._monomials(p, q)
    probe = pm._monomials(q, p)
    tgt = pm._monomials(n - q, n - p)
    gram_qp = pm.gram_invariant(q, p)
    probe_index = {m: i for i, m in enumerate(probe)}
    w_entries = {}
    for ip, phi in enumerate(probe):
        for ib, beta in enumerate(tgt):
            sign, _ = wedge_elements(phi, beta)
            if sign:
                w_entries[(ip, ib)] = integer(sign)
    w = ExactMatrix(len(probe), len(tgt), w_entries)
    rhs_cols = []
    for sigma in src:
        ((celt, ccoeff),) = list(Form.monomial(sigma).conjugate().coeffs.items())
        col = probe_index[celt]
        scale = ccoeff.conj() * pm.vol_coeff
        rhs = [ZERO] * len(probe)
        for (r, c), g in gram_qp.entries.items():
            if c == col:
                rhs[r] = g * scale
        rhs_cols.append(rhs)
    star, inconsistent = linalg.solve_many(w, ExactMatrix.from_rows(rhs_cols, len(probe)).transpose())
    assert not inconsistent
    return star


def star_metrics():
    rng = random.Random(13)
    for n in range(1, 7):
        yield f"identity-n{n}", HermitianMetric.identity(n)
    for n in range(2, 5):
        yield f"generic-n{n}", generic_metric(n, rng)
    for seed in (0, 101):
        for k, session in enumerate(sweep_sessions(seed)):
            yield f"sweep{seed}-{k}", session.spec.metric


@pytest.mark.parametrize("name, metric", [pytest.param(name, m, id=name) for name, m in star_metrics()])
def test_star_by_complementary_pairing_matches_the_pairing_solve(name, metric):
    """Each probe pairs with its complement only, so star reads off the Gram right-hand side without a solve."""
    pm = PointwiseMetric(metric, 0)
    nonzero = 0
    for p in range(pm.n + 1):
        for q in range(pm.n + 1):
            star = pm._star(p, q)
            assert star == reference_star(pm, p, q), (p, q)
            nonzero += len(star.entries)
    assert nonzero >= 4 ** pm.n
