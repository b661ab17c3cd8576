import random
from fractions import Fraction

import pytest

from acx import audits
from acx.audits import (
    DegenerateAtSample,
    NoSolution,
    NotDdcClosed,
    check_nondegenerate,
    solve_taming,
)
from acx.cli import psi_from_selector
from acx.forms import BasisElement, Form
from acx.scalars import I, ONE, Scalar

from conftest import random_4d_session


def statuses(items):
    return {item.claim: item.status for item in items}


def test_identities_audit_kt4(kt4_session):
    for n in (0, 1):
        got = statuses(audits.audit_identities(kt4_session.engine(n)))
        assert set(got.values()) == {"pass"}
        assert "symplectic-commutators" in got
        assert "lefschetz-sl2-commutator" in got


def test_identities_audit_gates_on_closedness(kt4_session):
    """A positive but non-closed fundamental form switches the metric
    commutator checks to not-applicable."""
    from acx.cohomology import CohomologyEngine
    from acx.metric import HermitianMetric, HermitianStructure
    from acx.scalars import rational

    cx = kt4_session.complex(0)
    half = rational(1, 2)
    h = HermitianStructure(cx, HermitianMetric(((ONE, half), (half, ONE))))
    engine = CohomologyEngine(cx, h)
    got = statuses(audits.audit_identities(engine))
    assert got["symplectic-commutators"] == "not-applicable"
    assert got["square-zero-relations:mu.mu"] == "pass"


def test_identity_audits_name_what_fails_when_L_is_doubled(kt4_session, monkeypatch):
    """Doubling L (but not Lambda, which is built from the true L) breaks exactly the
    commutators whose right side pairs L with an adjoint, and sl(2) off the middle blocks."""
    from acx.cohomology import CohomologyEngine
    from acx.scalars import integer

    session_engine = kt4_session.engine(1)
    engine = CohomologyEngine(session_engine.complex, session_engine.hermitian)
    block = engine.block

    def doubled_l(name, p, q):
        m = block(name, p, q)
        return m.scale(integer(2)) if name == "L" else m

    monkeypatch.setattr(engine, "block", doubled_l)
    got = {item.claim: item for item in audits.audit_identities(engine)}
    assert got["symplectic-commutators"].status == "fail"
    assert got["symplectic-commutators"].witness == {"failing": ["[L,mubar*]", "[L,mu*]", "[L,dbar*]", "[L,partial*]"]}
    assert got["lefschetz-sl2-commutator"].status == "fail"
    assert got["lefschetz-sl2-commutator"].witness == {
        "failing_blocks": [[0, 0], [0, 1], [1, 0], [1, 2], [2, 1], [2, 2]]
    }


def test_dualities_audit_builds_each_harmonic_space_once(kt4_session, monkeypatch):
    from acx.cli import run
    from acx.cohomology import CohomologyEngine

    calls = []
    harmonic_space = CohomologyEngine.harmonic_space

    def counting(engine, deltas, p, q):
        calls.append((deltas, p, q))
        return harmonic_space(engine, deltas, p, q)

    monkeypatch.setattr(CohomologyEngine, "harmonic_space", counting)
    payload, code = run("verify", kt4_session, {"truncations": "2"})
    assert code == 0
    assert {a["claim"]: a["status"] for a in payload["audits"]}["star-preserves-harmonicity"] == "pass"
    assert len(calls) == len(set(calls)) == 9


def test_dualities_audit(kt4_session, torus_session):
    for engine in (kt4_session.engine(0), kt4_session.engine(1), torus_session.engine()):
        got = statuses(audits.audit_dualities(engine))
        assert got == {
            "harmonic-dimension-symmetries": "pass",
            "star-preserves-harmonicity": "pass",
        }


def test_4mfld_lemmas_audit(kt4_session, torus_session, kodaira_session):
    for engine in (
        kt4_session.engine(0),
        kt4_session.engine(1),
        torus_session.engine(),
        kodaira_session.engine(),
    ):
        got = statuses(audits.audit_4mfld_lemmas(engine))
        assert set(got.values()) == {"pass"}, got


def test_closed_one_zero_forms_witness(kt4_session):
    (item,) = [i for i in audits.audit_4mfld_lemmas(kt4_session.engine(0)) if i.claim == "closed-one-zero-forms"]
    assert item.witness == {"dim_ker_dbar": 1, "dim_ker_d": 1}


def test_first_betti_bound_exact_on_kt4(kt4_session):
    items = audits.audit_4mfld_lemmas(kt4_session.engine(1))
    (betti,) = [i for i in items if i.claim == "first-betti-bounds"]
    assert betti.status == "pass"
    w = betti.witness
    # the bound is attained with equality on this model: 3 <= 1 + 2
    assert w["b1"] == 3 and w["ht10"] == 1 and w["hat01"] == 2


def test_ddbar_images_audit(kt4_session, torus_session):
    for engine in (kt4_session.engine(0), kt4_session.engine(1), torus_session.engine()):
        (item,) = audits.audit_ddbar_images(engine)
        assert item.status == "pass"


def test_ddbar_images_on_random_sweep():
    rng = random.Random(20260810)
    for _ in range(5):
        session = random_4d_session(rng)
        (item,) = audits.audit_ddbar_images(session.engine())
        assert item.status == "pass"


def test_full_audit_battery_on_random_sweep():
    """Generic rational J (dense matrices, transported brackets): the whole
    dimension machinery stays consistent and every inequality chain holds."""
    rng = random.Random(424242)
    for _ in range(5):
        session = random_4d_session(rng)
        engine = session.engine()
        for item in audits.audit_4mfld_lemmas(engine):
            assert item.status == "pass", (session.spec.name, item.claim, item.witness)
        for item in audits.audit_identities(engine):
            assert item.status in ("pass", "not-applicable"), (item.claim, item.witness)


def test_generalized_ddbar_audit(kt4_session, torus_session, kodaira_session):
    (item,) = audits.audit_generalized_ddbar(kt4_session.engine(1))
    assert item.status == "pass"
    assert item.witness["d_exact_11_dim"] > 0  # nonvacuous at this truncation
    assert item.witness["counterexamples"] == 0
    (item0,) = audits.audit_generalized_ddbar(kt4_session.engine(0))
    assert item0.status == "pass"
    assert item0.witness["d_exact_11_dim"] == 0  # vacuous at the invariant level
    (t_item,) = audits.audit_generalized_ddbar(torus_session.engine())
    assert t_item.status == "pass"
    # integrable structure: both sides fail, so the equivalence still holds
    (k_item,) = audits.audit_generalized_ddbar(kodaira_session.engine())
    assert k_item.status == "pass"
    assert k_item.witness["potential_side"] is False
    assert k_item.witness["equality_side"] is False
    assert k_item.witness["counterexamples"] > 0


def test_maximal_nijenhuis_audit(nil6_session, kt4_session):
    (item,) = audits.audit_maximal_nijenhuis(nil6_session.engine())
    assert item.status == "pass"
    assert item.witness == {"rank": 3, "ht10": 0, "ht01": 0}
    (na,) = audits.audit_maximal_nijenhuis(kt4_session.engine(0))
    assert na.status == "not-applicable"


def test_ddc_descent_audit(kt4_session, torus_session):
    for engine in (kt4_session.engine(0), kt4_session.engine(1), torus_session.engine()):
        (item,) = audits.audit_ddc_descent(engine)
        assert item.status == "pass"


def test_ddc_descent_not_applicable_when_obstructed(kodaira_session):
    (item,) = audits.audit_ddc_descent(kodaira_session.engine())
    assert item.status == "not-applicable"


# ---------------------------------------------------------------------------
# taming pipeline


def test_taming_fundamental(kt4_session):
    eng = kt4_session.engine(0)
    cert = solve_taming(eng, eng.hermitian.omega)
    assert cert.u.is_zero()
    assert cert.omega_prime == eng.hermitian.omega
    assert cert.closed and cert.well_defined
    assert cert.nondegeneracy["kind"] == "constant-coefficient"
    assert cert.hypothesis == {"ht10": 1, "ht01": 1, "equal": True}


def test_taming_perturbed(kt4_session):
    session = kt4_session
    eng = session.engine(0)
    cx = eng.complex
    psi = psi_from_selector(session, 0, "perturbed")
    assert not cx.apply("d", psi).is_zero()  # genuinely non-closed input
    assert cx.apply("partial", cx.apply("dbar", psi)).is_zero()
    cert = solve_taming(eng, psi)
    assert cert.closed
    assert cert.well_defined
    assert cert.nondegeneracy["structural_guarantee"]["applies"]
    # the correction really is the claimed combination, recomputed here
    recomputed = (
        cx.apply("dbar", cert.u)
        + cx.apply("partial", cert.u.conjugate())
        + cx.apply("mu", cert.u)
        + cx.apply("mubar", cert.u.conjugate())
    )
    assert cert.omega_prime == psi + recomputed
    assert cx.apply("d", cert.omega_prime).is_zero()


def test_taming_perturbed_fourier(kt4_session):
    """A weight-coupled perturbation: the solver works at truncation 1 and the
    nondegeneracy evidence falls back to the exact sample grid."""
    eng = kt4_session.engine(1)
    cx = eng.complex
    # psi = omega + real multiple of (i e_w theta^1 ^ tbar^2 + conjugate), w = (1,0)
    pert = Form.monomial(BasisElement((1, 0), (1,), (2,)), I)
    pert = pert + pert.conjugate()
    psi = eng.hermitian.omega + pert.scale(Scalar(Fraction(1, 10), Fraction(0)))
    assert psi.conjugate() == psi
    assert not cx.apply("d", psi).is_zero()
    assert cx.apply("partial", cx.apply("dbar", psi)).is_zero()
    cert = solve_taming(eng, psi)
    assert cert.closed and cert.well_defined
    assert cert.nondegeneracy["kind"] == "fourier-sample-grid"
    assert cert.nondegeneracy["samples"] == 16 and cert.nondegeneracy["all_nonzero"]
    # exact positivity certification is only claimed for invariant (1,1)-parts
    assert cert.nondegeneracy["structural_guarantee"]["applies"] is False


def test_taming_from_non_closed_fundamental_form(kt4_session):
    """The headline pipeline: a metric whose fundamental form is ddc-closed
    but not closed still yields an exactly closed taming form with the
    positive (1,1)-part untouched."""
    from acx.cohomology import CohomologyEngine
    from acx.metric import HermitianMetric, HermitianStructure
    from acx.scalars import ONE, integer

    cx = kt4_session.complex(0)
    half = Scalar(Fraction(1, 2), Fraction(0))
    h = HermitianStructure(cx, HermitianMetric(((integer(2), half), (half, ONE))))
    eng = CohomologyEngine(cx, h)
    preds = h.kahler_predicates()
    assert preds["ddc_closed"] and not preds["almost_kahler"]
    cert = solve_taming(eng, h.omega)
    assert not cert.u.is_zero()
    assert cert.closed and cert.well_defined
    assert cert.omega_prime.bidegree_part(1, 1) == h.omega
    assert cert.nondegeneracy["structural_guarantee"]["applies"]


def test_taming_rejects_non_ddc_closed(kt4_session):
    eng = kt4_session.engine(1)
    bad = Form.monomial(BasisElement((1, 0), (2,), (2,)), I)
    bad = bad + bad.conjugate()
    with pytest.raises(NotDdcClosed):
        solve_taming(eng, bad)


def test_taming_obstruction_on_integrable_structure(kodaira_session):
    """The integrable Heisenberg structure obstructs the correction of omega."""
    eng = kodaira_session.engine()
    with pytest.raises(NoSolution) as exc:
        solve_taming(eng, eng.hermitian.omega)
    assert exc.value.obstruction["functional"]
    assert exc.value.obstruction["pairing"] != "0"


def test_check_nondegenerate_zero_form(kt4_session):
    eng = kt4_session.engine(0)
    with pytest.raises(DegenerateAtSample):
        check_nondegenerate(eng, Form())


def test_check_nondegenerate_omega(kt4_session):
    eng = kt4_session.engine(0)
    out = check_nondegenerate(eng, eng.hermitian.omega)
    assert out["kind"] == "constant-coefficient"
    assert out["top_wedge_coefficient"] == "1/2"


def test_check_nondegenerate_refuses_a_sign_change(kt4_session):
    """The corrected basis:2 form at N = 1 has no zero on the sample grid, but its top wedge is -24/25 at
    (0, 0) and 24/25 at (0, 1/4): it changes sign between them, so it vanishes somewhere and the evidence
    is degenerate, with both points and their values."""
    eng = kt4_session.engine(1)
    cert = solve_taming(eng, psi_from_selector(kt4_session, 1, "basis:2"))
    assert cert.closed and cert.well_defined
    witness = {
        "sign_change": [
            {"point": ["0", "0"], "top_wedge": "-24/25"},
            {"point": ["0", "1/4"], "top_wedge": "24/25"},
        ]
    }
    assert cert.nondegeneracy == {"kind": "degenerate", **witness}
    with pytest.raises(DegenerateAtSample) as exc:
        check_nondegenerate(eng, cert.omega_prime)
    assert exc.value.witness == witness and exc.value.point == (0, Fraction(1, 4))


def test_taming_well_definedness_two_pivot_orders(kt4_session):
    """The kernel of the correction system is nontrivial, yet both pivot
    orders give the same corrected form."""
    from acx import linalg

    eng = kt4_session.engine(0)
    system = eng.correction_map()[2]
    assert linalg.kernel(system).dim > 0
    psi = psi_from_selector(kt4_session, 0, "perturbed")
    cert = solve_taming(eng, psi)
    assert cert.well_defined
