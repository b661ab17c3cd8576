"""Acceptance suite: every exit criterion, one test each, exact arithmetic.

Run with `pytest -v tests/test_acceptance.py`; the verbose listing is the
per-criterion pass/fail record and each test additionally prints one line
(visible with -s or in failure output).  All checks are exact -- tolerance
zero -- and the whole file targets well under a minute on a laptop for
truncations up to N = 3.
"""

import random

from acx import audits, linalg
from acx.cli import Session, psi_from_selector, render_json, run
from acx.cohomology import compute_diamond, diamond_numbers
from acx.forms import BasisElement, Form
from acx.lie import exterior_d_on_generators, split_d
from acx.scalars import rational

from conftest import assert_sectors_decompose, random_4d_session
from test_forms import all_monomials, brute_wedge_sign

SWEEP_SEED = 20260810
SWEEP_SIZE = 20


def report(criterion: int, text: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {text}")


def mono(holo, anti, coeff):
    return Form.monomial(BasisElement((), holo, anti), coeff)


def test_criterion_01_structure_equations(kt4_session):
    parts = split_d(exterior_d_on_generators(kt4_session.frame))
    quarter = rational(1, 4)
    assert ("h", 1) not in parts["partial"] and ("h", 1) not in parts["dbar"] and ("h", 1) not in parts["mubar"]
    assert parts["partial"][("h", 2)] == mono((1, 2), (), -quarter)
    assert parts["dbar"][("h", 2)] == mono((1,), (2,), -quarter) + mono((2,), (1,), -quarter)
    assert parts["mubar"][("h", 2)] == mono((), (1, 2), quarter)
    report(1, "derived complex structure equations match coefficient for coefficient")


def test_criterion_02_refined_diamond_fixed_entries(kt4_session):
    fixed = {(0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 0, (0, 2): 0, (1, 2): 1, (2, 2): 1}
    for n in (0, 1, 2, 3):
        eng = kt4_session.engine(n)
        for (p, q), expected in fixed.items():
            assert eng.refined_dolbeault(p, q) == expected, (n, p, q)
        assert eng.refined_dolbeault(2, 1) >= 0  # finite per truncation by construction
    report(2, "refined diamond fixed entries 1/1/1/0/0/1/1 at every truncation 0..3")


def test_criterion_03_unbounded_witnesses(kt4_session):
    baseline_11 = [3, 11, 27, 51]
    baseline_21 = [2, 10, 26, 50]
    got_11 = [kt4_session.engine(n).refined_dolbeault(1, 1) for n in range(4)]
    got_21 = [kt4_session.engine(n).refined_dolbeault(2, 1) for n in range(4)]
    assert got_11 == baseline_11
    assert got_21 == baseline_21
    assert all(a < b for a, b in zip(got_11, got_11[1:]))
    assert all(a < b for a, b in zip(got_21, got_21[1:]))
    diamond = compute_diamond([(f"N={n}", diamond_numbers(kt4_session.engine(n)).values()) for n in range(4)])
    witnessed = {(w["theory"], w["cell"]) for w in diamond.as_dict()["unbounded_witnesses"]}
    assert {("refined", "1,1"), ("refined", "2,1")} <= witnessed
    report(3, "strict growth at (1,1) and (2,1) with frozen per-N baselines")


def test_criterion_04_first_betti(kt4_session, torus_session):
    assert kt4_session.engine(0).de_rham(1) == 3
    assert torus_session.engine().de_rham(1) == 4
    report(4, "b1 = 3 on the Heisenberg model and 4 on the torus")


def test_criterion_05_identity_suites(kt4_session, torus_session):
    for engine in (kt4_session.engine(0), kt4_session.engine(1), torus_session.engine()):
        got = {i.claim: i.status for i in audits.audit_identities(engine)}
        assert all(v == "pass" for v in got.values()), got
        (item,) = audits.audit_ddbar_images(engine)
        assert item.status == "pass"
    # Kaehler commutators must have been exercised on the almost Kaehler model
    got = {i.claim: i.status for i in audits.audit_identities(kt4_session.engine(0))}
    assert got["symplectic-commutators"] == "pass"
    rng = random.Random(SWEEP_SEED)
    for _ in range(SWEEP_SIZE):
        session = random_4d_session(rng)
        suite = session.complex().identity_suite()
        assert all(entry["passed"] for entry in suite), session.spec.name
        (item,) = audits.audit_ddbar_images(session.engine())
        assert item.status == "pass"
    report(5, f"square-zero suite + commutators on bundled models and a {SWEEP_SIZE}-manifest sweep")


def test_criterion_06_hat_splitting(kt4_session, torus_session):
    te = torus_session.engine()
    assert te.hat_h1() == 4 and te.hat_h01() == 2 and te.refined_dolbeault(0, 1) == 2
    assert te.hat_h1() == te.hat_h01() + te.refined_dolbeault(0, 1)
    for n in (0, 1, 2, 3):
        eng = kt4_session.engine(n)
        assert eng.hat_h1() == eng.hat_h01() + eng.refined_dolbeault(0, 1)
    report(6, "hat-space splitting holds with both sides computed independently")


def test_criterion_07_kernel_equality_on_10_forms(kt4_session, torus_session, kodaira_session):
    sessions = [(kt4_session, (0, 1, 2)), (torus_session, (None,)), (kodaira_session, (None,))]
    rng = random.Random(SWEEP_SEED + 1)
    sessions.extend((random_4d_session(rng), (None,)) for _ in range(5))
    for session, truncations in sessions:
        for t in truncations:
            items = audits.audit_4mfld_lemmas(session.engine(t))
            (item,) = [i for i in items if i.claim == "closed-one-zero-forms"]
            assert item.status == "pass", (session.spec.name, t)
    report(7, "ker(dbar) and ker(d) agree on (1,0)-forms across all 4-dimensional models")


def test_criterion_08_dualities(kt4_session):
    for n in (0, 1):
        eng = kt4_session.engine(n)
        assert eng.ell(1, 0) == eng.ell(0, 1) == 1
        table = {(p, q): eng.ell(p, q) for p in range(3) for q in range(3)}
        for (p, q), v in table.items():
            assert v == table[(q, p)] == table[(2 - q, 2 - p)], (p, q)
        got = {i.claim: i.status for i in audits.audit_dualities(eng)}
        assert set(got.values()) == {"pass"}
    report(8, "harmonic dimension symmetries and star-harmonicity hold exactly")


def test_criterion_09_taming_pipeline(kt4_session):
    eng = kt4_session.engine(0)
    cert = audits.solve_taming(eng, eng.hermitian.omega)
    assert cert.u.is_zero() and cert.omega_prime == eng.hermitian.omega
    assert cert.closed and cert.well_defined
    assert cert.nondegeneracy["kind"] == "constant-coefficient"
    psi = psi_from_selector(kt4_session, 0, "perturbed")
    cx = eng.complex
    assert not cx.apply("d", psi).is_zero()
    cert2 = audits.solve_taming(eng, psi)
    assert cert2.closed  # d omega' = 0 exactly
    assert cert2.well_defined  # two pivot orders, one corrected form
    assert cert2.nondegeneracy["structural_guarantee"]["applies"]
    report(9, "taming certificates: exact closedness, well-definedness, nondegeneracy")


def test_criterion_10_generalized_ddbar_at_n1(kt4_session):
    eng = kt4_session.engine(1)
    assert eng.refined_dolbeault(1, 0) == 1
    assert eng.refined_dolbeault(0, 1) == 1
    (item,) = audits.audit_generalized_ddbar(eng)
    assert item.status == "pass"
    assert item.witness["d_exact_11_dim"] > 0
    assert item.witness["counterexamples"] == 0
    report(10, f"every one of {item.witness['d_exact_11_dim']} d-exact (1,1) basis forms has a potential")


def test_criterion_11_determinism(kt4_session):
    flags = {"truncations": "0,1,2"}
    first, code1 = run("report", Session(kt4_session.spec), dict(flags))
    second, code2 = run("report", Session(kt4_session.spec), dict(flags))
    assert code1 == code2 == 0
    first.pop("timing")
    second.pop("timing")
    bytes1 = render_json(first).encode()
    bytes2 = render_json(second).encode()
    assert bytes1 == bytes2
    report(11, f"two report runs agree byte for byte ({len(bytes1)} bytes, timing excluded)")


def test_criterion_12_property_suite(kt4_session):
    rng = random.Random(SWEEP_SEED + 2)
    # rank-nullity and solve on random sparse matrices
    from test_linalg import rand_matrix, rand_scalar

    for _ in range(25):
        m = rand_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        assert linalg.rank(m) + linalg.kernel(m).dim == m.cols
        x = tuple(rand_scalar(rng, 0.8) for _ in range(m.cols))
        sol = linalg.solve(m, m.apply(x))
        assert sol is not None and m.apply(sol) == m.apply(x)
    # quotient containment bookkeeping
    for _ in range(10):
        m = rand_matrix(rng, 5, 5, 0.5)
        im = linalg.image(m)
        sub = linalg.subspace_from_vectors(5, im.basis[: max(0, im.dim - 1)])
        assert linalg.quotient_dim(im, sub) + sub.dim == im.dim
    # wedge sign against the brute-force permutation oracle on n = 2
    monos = all_monomials(2)
    from acx.forms import wedge_elements

    for e1 in monos:
        for e2 in monos:
            assert wedge_elements(e1, e2)[0] == brute_wedge_sign(2, e1, e2)[0]
    # conjugation involution on random weighted forms
    from test_forms import rand_form

    for _ in range(25):
        f = rand_form(rng, 2, rank=2)
        assert f.conjugate().conjugate() == f
    # weight-sector blocks decompose the whole matrices at N = 1
    cells = [(p, q) for p in range(3) for q in range(3)]
    assert_sectors_decompose(kt4_session, 1, ("mu", "partial", "dbar", "mubar"), cells)
    report(12, "rank-nullity, quotients, wedge oracle, conjugation, weight decomposition")
