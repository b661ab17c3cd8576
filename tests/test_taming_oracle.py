"""Differential oracle for the taming correction.

The correction psi -> psi + dbar u + partial ubar + mu u + mubar ubar is
built once per engine as a realified map on blocks, and solve_taming and the
ddc descent audit are the one-column and many-column cases of one helper.
The references below are the form-by-form constructions: the correction as
four operator applications, the hand-expanded closedness system, a solve by
elimination of [m | b], the descent loop that corrects, differentiates and
flattens one basis form at a time, and the taming selector that builds every
real (1,1) basis form and tests it by operator applications.  Certificates,
selected forms, obstruction functionals and descent witnesses must agree on
every case.  The descent audit and the selector are also compared with their
realified constructions: an eliminated real basis, preimages of realified
images, and realified block products.  The references run on the whole box,
while solve_taming and the selector run on the weight sectors of psi, so
they also pin that the sectors give the whole box's answers.
"""

import importlib.util
import json
import random
import sys
from pathlib import Path

from acx import linalg
from acx.audits import (
    AuditItem,
    DegenerateAtSample,
    NoSolution,
    NotDdcClosed,
    TamingCertificate,
    _closed,
    _correct,
    _obstruction_functional,
    audit_ddc_descent,
    check_nondegenerate,
    solve_taming,
)
from acx import audits, cli
from acx.cli import Session, ValidationError, _sector_batches, manifest_from_dict, psi_from_selector, render_json, run
from acx.cohomology import CohomologyEngine
from acx.linalg import ExactMatrix
from acx.operators import DIFFERENTIALS, FormComplex, compose
from acx.scalars import ONE, ZERO, rational

from conftest import engine_on, random_4d_session, real_ddc_parts, realified_real_subspace

BENCH = Path(__file__).resolve().parents[1] / "bench"
SELECTORS = ("fundamental", "perturbed", "basis:0", "basis:1", "basis:2")


def conjugation_flip(n):
    """diag(1, -1, 1, -1, ...) of size 2n: complex conjugation on realified coordinates."""
    return ExactMatrix(2 * n, 2 * n, {(k, k): ONE if k % 2 == 0 else -ONE for k in range(2 * n)})


def reference_correction_map(cx):
    """(K02, K20, S) from realified blocks: each ubar term is realify(op @ C01) @ flip, and S multiplies realified K."""
    c01 = cx.conj_struct(0, 1)
    flip = conjugation_flip(cx.dim(0, 1))
    k02 = linalg.realify(cx.block("dbar", 0, 1)) + linalg.realify(cx.block("mubar", 1, 0) @ c01) @ flip
    k20 = linalg.realify(cx.block("mu", 0, 1)) + linalg.realify(cx.block("partial", 1, 0) @ c01) @ flip
    system = linalg.realify(cx.block("partial", 0, 2)) @ k02 + linalg.realify(cx.block("mubar", 2, 0)) @ k20
    return k02, k20, system


def reference_closed(cx, omega):
    """d of the realified degree-2 forms in the columns of omega, through the realified d_total(2)."""
    return (linalg.realify(cx.d_total(2)) @ omega).is_zero()


def reference_correction(cx, u):
    ubar = u.conjugate()
    return cx.apply("dbar", u) + cx.apply("partial", ubar) + cx.apply("mu", u) + cx.apply("mubar", ubar)


def reference_closedness_system(cx):
    """Realified matrix of u -> (1,2)-component of d(correction(u)), expanded by hand."""
    linear = compose(cx.block, ["partial", "dbar"], 0, 1) + compose(cx.block, ["mubar", "mu"], 0, 1)
    conjugated = compose(cx.block, ["mubar", "partial"], 1, 0) + compose(cx.block, ["partial", "mubar"], 1, 0)
    c01 = cx.conj_struct(0, 1)
    return linalg.realify(linear) + linalg.realify(conjugated @ c01) @ conjugation_flip(cx.dim(0, 1))


def reference_solve(m, b, reverse_pivots=False):
    """Some x with m x = b by reducing [m | b], the columns of m optionally in reverse order."""
    cols = m.cols
    perm = list(range(cols - 1, -1, -1)) if reverse_pivots else list(range(cols))
    inv_perm = [0] * cols
    for newc, oldc in enumerate(perm):
        inv_perm[oldc] = newc
    entries = {(r, inv_perm[c]): v for (r, c), v in m.entries.items()}
    entries.update(((r, cols), v) for r, v in enumerate(b) if v)
    pivots, red = linalg.rref(ExactMatrix(m.rows, cols + 1, entries))
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        if p == cols:
            return None
        x[p] = red[i].get(cols, ZERO)
    return tuple(x[inv_perm[c]] for c in range(cols))


def _realified_target(cx, psi):
    return linalg.realify_vector(tuple(-v for v in cx.to_vector(cx.apply("dbar", psi), 1, 2)))


def reference_solve_taming(engine, psi):
    cx = engine.complex
    if not cx.apply("partial", cx.apply("dbar", psi)).is_zero():
        raise NotDdcClosed("del delbar psi != 0")
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    system = reference_closedness_system(cx)
    target = _realified_target(cx, psi)
    solution = reference_solve(system, target)
    if solution is None:
        raise NoSolution(
            "closedness correction equation is inconsistent",
            _obstruction_functional(system, _columns(len(target), [target]), 0),
        )
    u = cx.from_realified(solution, 0, 1)
    omega_prime = psi + reference_correction(cx, u)
    u_alt = cx.from_realified(reference_solve(system, target, reverse_pivots=True), 0, 1)
    try:
        evidence = check_nondegenerate(engine, omega_prime)
    except DegenerateAtSample as exc:
        evidence = {"kind": "degenerate", **exc.witness}
    return TamingCertificate(
        psi=psi,
        u=u,
        omega_prime=omega_prime,
        closed=cx.apply("d", omega_prime).is_zero(),
        well_defined=(psi + reference_correction(cx, u_alt)) == omega_prime,
        nondegeneracy=evidence,
        hypothesis={"ht10": ht10, "ht01": ht01, "equal": ht10 == ht01},
    )


def _total_vector(cx, form, r):
    off = cx.total_offsets(r)
    out = [ZERO] * cx.total_dim(r)
    for e, c in form.coeffs.items():
        out[off[e.bidegree] + cx.index(*e.bidegree)[e]] = c
    return tuple(out)


def _columns(ambient, vectors):
    return ExactMatrix(ambient, len(vectors), {(r, c): v for c, col in enumerate(vectors) for r, v in enumerate(col) if v})


def reference_ddc_descent(engine):
    cx = engine.complex
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    if ht10 != ht01:
        reason = {"reason": "correction equation can be obstructed", "ht10": ht10, "ht01": ht01}
        return [AuditItem("ddc-descent-injective", "not-applicable", reason)]
    num_real, den_real = real_ddc_parts(engine)
    if num_real.dim == 0:
        return [AuditItem("ddc-descent-injective", "pass", {"note": "empty source"})]
    system = reference_closedness_system(cx)
    corrected = []
    for v in num_real.basis:
        psi = cx.from_realified(v, 1, 1)
        sol = reference_solve(system, _realified_target(cx, psi))
        if sol is None:
            return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction equation obstructed"})]
        omega_prime = psi + reference_correction(cx, cx.from_realified(sol, 0, 1))
        if not cx.apply("d", omega_prime).is_zero():
            return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction not closed"})]
        corrected.append(linalg.realify_vector(_total_vector(cx, omega_prime, 2)))
    exact2 = linalg.image(linalg.realify(cx.d_total(1)))
    kernel = linalg.preimage(_columns(2 * cx.total_dim(2), corrected), exact2)
    expected = linalg.preimage(_columns(num_real.ambient_dim, num_real.basis), den_real)
    witness = {"source_dim": num_real.dim, "class_map_kernel": kernel.dim, "expected_kernel": expected.dim}
    return [AuditItem("ddc-descent-injective", "pass" if kernel == expected else "fail", witness)]


def _outcome(solve, engine, psi):
    """('certified', certificate fields) or the exception's name and payload."""
    try:
        cert = solve(engine, psi)
    except NoSolution as exc:
        return "no-solution", exc.obstruction
    except NotDdcClosed:
        return "not-ddc-closed", None
    return "certified", cert.as_dict(lambda form: form)


def _sweep_four_dim_sessions(seed):
    spec = importlib.util.spec_from_file_location("bench_models", BENCH / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    return [Session(manifest_from_dict(m)) for m in models.sweep_manifests(seed, 3, 2) if m["real_dim"] == 4]


def _oracle_cases(kt4_session, kodaira_session):
    """(label, session, truncation) for every model of the oracle."""
    cases = [(f"kt4 N={n}", kt4_session, n) for n in range(4)]
    cases.append(("kodaira", kodaira_session, None))
    rng = random.Random(4242)
    cases += [(f"random4d-{k}", random_4d_session(rng), None) for k in range(4)]
    for seed in (0, 101):
        cases += [(f"sweep4d-{seed}-{k}", s, None) for k, s in enumerate(_sweep_four_dim_sessions(seed))]
    return cases


def test_closedness_system_is_the_12_rows_of_d_after_the_correction(kt4_session, kodaira_session):
    cases = _oracle_cases(kt4_session, kodaira_session)
    assert len(cases) == 13
    for label, session, n in cases:
        engine = session.engine(n)
        assert engine.correction_map()[2] == reference_closedness_system(engine.complex), label


def test_correction_map_matches_realified_products(kt4_session, kodaira_session):
    """K02, K20 and S, composed over Q(i) and realified once, equal the realified products entry for entry."""
    antilinear = 0
    for label, session, n in _oracle_cases(kt4_session, kodaira_session):
        cx = session.engine(n).complex
        got = CohomologyEngine(cx, session.engine(n).hermitian).correction_map()
        want = reference_correction_map(cx)
        for name, g, w in zip(("K02", "K20", "S"), got, want):
            assert (g.rows, g.cols) == (w.rows, w.cols), (label, name)
            assert g.entries == w.entries, (label, name)
        antilinear += not (cx.block("mubar", 1, 0) @ cx.conj_struct(0, 1)).is_zero()
    # non-vacuity: the conjugated terms are present on some models
    assert antilinear > 0


def test_taming_and_descent_match_reference(kt4_session, kodaira_session):
    seen = set()
    descent_sources = 0
    for label, session, n in _oracle_cases(kt4_session, kodaira_session):
        engine = session.engine(n)
        for selector in SELECTORS:
            try:
                psi = psi_from_selector(session, n, selector)
            except ValidationError:
                continue  # fewer ddc-closed basis forms than the selector asks for
            got = _outcome(solve_taming, engine, psi)
            assert got == _outcome(reference_solve_taming, engine, psi), (label, selector)
            seen.add(got[0])
        descent = audit_ddc_descent(engine)
        assert [i.as_dict() for i in descent] == [i.as_dict() for i in reference_ddc_descent(engine)], label
        seen.add(descent[0].status)
        descent_sources += descent[0].witness.get("source_dim", 0) > 0
    # non-vacuity: both taming outcomes and both descent regimes occur
    assert {"certified", "no-solution", "not-applicable", "pass"} <= seen
    assert descent_sources > 0


def _drop_mubar_term(engine):
    """The correction map with the mubar(ubar) term of K02 left out, and its own closedness system."""
    cx = engine.complex
    k02 = linalg.realify(cx.block("dbar", 0, 1))
    _, k20, _ = engine.correction_map()
    system = linalg.realify(cx.block("partial", 0, 2)) @ k02 + linalg.realify(cx.block("mubar", 2, 0)) @ k20
    return k02, k20, system


def _solving_engine(engine, psi):
    """The engine solve_taming corrects psi on: the engine's sector of the weights of psi."""
    return engine.sector(tuple(sorted(psi.weights())))


def test_closed_and_well_defined_guards_can_fail(kt4_session, monkeypatch):
    """A correction map missing one term solves its own system but leaves d(omega') != 0;
    two pivot orders that reach different corrected forms are caught.  The maps are set on
    the engine that solves, the sector of psi, which is not the whole box here."""
    session_engine = kt4_session.engine(1)
    psi = psi_from_selector(kt4_session, 1, "perturbed")
    engine = CohomologyEngine(session_engine.complex, session_engine.hermitian)
    solver = _solving_engine(engine, psi)
    assert solver is not engine and solver.complex.dim(1, 1) < engine.complex.dim(1, 1)
    good, broken = solver.correction_map(), _drop_mubar_term(solver)
    monkeypatch.setattr(solver, "correction_map", lambda: broken)
    assert not solve_taming(engine, psi).closed
    monkeypatch.setattr(engine, "correction_map", lambda: _drop_mubar_term(session_engine))
    assert audit_ddc_descent(engine)[0].witness == {"reason": "correction not closed"}

    maps = iter([good, broken])
    monkeypatch.setattr(solver, "correction_map", lambda: next(maps))
    cert = solve_taming(engine, psi)
    assert cert.closed and not cert.well_defined


def test_closed_check_matches_realified_reference(kt4_session, kodaira_session, monkeypatch):
    """_closed applies d_total(2) to complexified columns; on the descent's corrected columns, under the
    engine's correction map (certified) and under one missing a term (not closed), it agrees with the
    realified product column by column."""
    verdicts = set()
    for label, session, n in _oracle_cases(kt4_session, kodaira_session):
        engine = session.engine(n)
        cx = engine.complex
        num_real, _ = real_ddc_parts(engine)
        if not num_real.dim:
            continue
        psi = num_real.rows.transpose()
        fresh = CohomologyEngine(cx, engine.hermitian)
        for maps in (engine.correction_map(), _drop_mubar_term(fresh)):
            monkeypatch.setattr(fresh, "correction_map", lambda maps=maps: maps)
            try:
                _, omega = _correct(fresh, psi)
            except NoSolution:
                continue
            assert _closed(cx, linalg.complexify(omega)) == reference_closed(cx, omega), label
            for j in range(omega.cols):
                column = ExactMatrix(omega.rows, 1, {(r, 0): v for (r, c), v in omega.entries.items() if c == j})
                got = _closed(cx, linalg.complexify(column))
                assert got == reference_closed(cx, column), label
                verdicts.add(got)
    assert verdicts == {True, False}


def test_correction_target_realifies_dbar_once_per_engine(kt4_session, monkeypatch):
    """Both pivot orders of solve_taming, and a second solve, share one realified dbar(1,1) block of the
    engine that solves, the sector of psi, which the engine builds once."""
    session_engine = kt4_session.engine(1)
    engine = CohomologyEngine(session_engine.complex, session_engine.hermitian)
    psi = psi_from_selector(kt4_session, 1, "perturbed")
    solver = _solving_engine(engine, psi)
    assert solver is not engine
    dbar = solver.complex.block("dbar", 1, 1)
    realified = []
    realify = linalg.realify
    monkeypatch.setattr(linalg, "realify", lambda m, *rest: realified.append(m is dbar) or realify(m, *rest))
    first, second = solve_taming(engine, psi), solve_taming(engine, psi)
    assert first.closed and first == second
    assert sum(realified) == 1
    assert solver.realified_block("dbar", 1, 1) == realify(dbar)
    assert not vars(engine).get("_correction_map_cache") and not vars(engine).get("_realified_block_cache")


def reference_psi_from_selector(session, truncation, selector):
    """The Form-level selector: every real (1,1) basis vector becomes a form,
    and operator applications on forms pick the ddc-closed and the non-closed ones."""
    engine = session.engine(truncation)
    cx = engine.complex
    omega = engine.hermitian.omega
    real_11 = [cx.from_realified(vec, 1, 1) for vec in realified_real_subspace(engine, 1).basis]
    pure = [c for c in real_11 if cx.apply("partial", cx.apply("dbar", c)).is_zero()]
    if selector == "perturbed":
        candidate = next((c for c in pure if not cx.apply("d", c).is_zero()), None)
        return omega if candidate is None else omega + candidate.scale(rational(1, 10))
    idx = int(selector.partition(":")[2])
    if idx >= len(pure):
        raise ValidationError("TamingSelector", f"basis index {idx} out of range ({len(pure)} available)")
    return pure[idx]


def _selection(select, session, n, selector):
    try:
        return "form", select(session, n, selector)
    except ValidationError as exc:
        return "error", str(exc)


def test_selector_matches_form_level_reference(kt4_session, torus_session, kodaira_session):
    cases = [(f"kt4 N={n}", kt4_session, n) for n in range(3)]
    cases += [("torus4", torus_session, None), ("kodaira", kodaira_session, None)]
    rng = random.Random(4242)
    cases += [(f"random4d-{k}", random_4d_session(rng), None) for k in range(4)]
    for seed in (0, 101):
        cases += [(f"sweep4d-{seed}-{k}", s, None) for k, s in enumerate(_sweep_four_dim_sessions(seed))]
    perturbed = selected = 0
    for label, session, n in cases:
        omega = session.engine(n).hermitian.omega
        got = psi_from_selector(session, n, "perturbed")
        assert got == reference_psi_from_selector(session, n, "perturbed"), label
        perturbed += got != omega
        k = 0
        while True:
            # every basis:K up to and including the first one out of range
            want = _selection(reference_psi_from_selector, session, n, f"basis:{k}")
            assert _selection(psi_from_selector, session, n, f"basis:{k}") == want, (label, k)
            if want[0] == "error":
                break
            k += 1
        selected += k
    # non-vacuity: some perturbations and some basis forms are really chosen
    assert perturbed > 0 and selected > len(cases)


def test_selector_applies_no_operator_to_forms(kt4_session, monkeypatch):
    """Once the blocks exist, the selector reads them: it never applies an operator to a form."""
    kt4_session.complex(2).identity_suite()
    calls = []
    apply = FormComplex.apply

    def counting(cx, name, form):
        calls.append(name)
        return apply(cx, name, form)

    monkeypatch.setattr(FormComplex, "apply", counting)
    for selector in ("basis:0", "perturbed"):
        psi = psi_from_selector(kt4_session, 2, selector)
        assert psi != kt4_session.engine(2).hermitian.omega
    assert calls == []


# ---------------------------------------------------------------------------
# the realified constructions that the descent audit and the selector replaced


def realified_ddc_descent(engine):
    """The descent audit on realified images and preimages: the real kernel of ddc from one stacked
    realified kernel, and both kernel comparisons as preimages of realified subspaces."""
    cx = engine.complex
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    if ht10 != ht01:
        reason = {"reason": "correction equation can be obstructed", "ht10": ht10, "ht01": ht01}
        return [AuditItem("ddc-descent-injective", "not-applicable", reason)]
    num_real, den_real = real_ddc_parts(engine)
    if num_real.dim == 0:
        return [AuditItem("ddc-descent-injective", "pass", {"note": "empty source"})]
    psi = num_real.rows.transpose()
    try:
        _, corrected = _correct(engine, psi)
    except NoSolution:
        return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction equation obstructed"})]
    if not _closed(cx, linalg.complexify(corrected)):
        return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction not closed"})]
    kernel = linalg.preimage(corrected, linalg.image(linalg.realify(cx.d_total(1))))
    expected = linalg.preimage(psi, den_real)
    witness = {"source_dim": num_real.dim, "class_map_kernel": kernel.dim, "expected_kernel": expected.dim}
    return [AuditItem("ddc-descent-injective", "pass" if kernel == expected else "fail", witness)]


def realified_psi_from_selector(session, truncation, selector):
    """The selector on the eliminated real basis, classified by realified block products."""
    engine = session.engine(truncation)
    cx = engine.complex
    omega = engine.hermitian.omega
    basis = realified_real_subspace(engine, 1).rows
    ddc = linalg.realify(compose(engine.block, ["partial", "dbar"], 1, 1))
    d = linalg.realify(ExactMatrix.vstack([cx.block(name, 1, 1) for name in DIFFERENTIALS]))
    not_ddc_closed = {r for r, _ in (basis @ ddc.transpose()).entries}
    not_closed = {r for r, _ in (basis @ d.transpose()).entries}
    pure = [r for r in range(basis.rows) if r not in not_ddc_closed]

    def form(r):
        return cx.from_realified([basis.entry(r, c) for c in range(basis.cols)], 1, 1)

    if selector == "perturbed":
        candidate = next((r for r in pure if r in not_closed), None)
        return omega if candidate is None else omega + form(candidate).scale(rational(1, 10))
    idx = int(selector.partition(":")[2])
    if idx >= len(pure):
        raise ValidationError("TamingSelector", f"basis index {idx} out of range ({len(pure)} available)")
    return form(pure[idx])


def _fourier_cases(fourier_sessions):
    """Every four-dimensional Fourier model at truncations 1 and 2."""
    return [
        (f"{label} N={n}", session, n) for label, session in fourier_sessions if session.frame.n == 2 for n in (1, 2)
    ]


def _widened_cases(kt4_session, kodaira_session, fourier_sessions):
    """The 13 oracle cases and every four-dimensional Fourier model at truncations 1 and 2."""
    return _oracle_cases(kt4_session, kodaira_session) + _fourier_cases(fourier_sessions)


def test_descent_and_selector_match_realified_references(kt4_session, kodaira_session, fourier_sessions):
    outcomes = []
    for label, session, n in _widened_cases(kt4_session, kodaira_session, fourier_sessions):
        engine = session.engine(n)
        got = [i.as_dict() for i in audit_ddc_descent(engine)]
        assert got == [i.as_dict() for i in realified_ddc_descent(engine)], label
        outcomes.append((label, got[0]["status"], got[0]["witness"].get("reason")))
        for selector in ("perturbed", "basis:0", "basis:1", "basis:2", "basis:3"):
            want = _selection(realified_psi_from_selector, session, n, selector)
            assert _selection(psi_from_selector, session, n, selector) == want, (label, selector)
    # non-vacuity: sources that pass, models off the gate, and obstructed correction equations on
    # kt4 acted on along e1 and e3, which span no J-invariant plane
    statuses = {status for _, status, _ in outcomes}
    assert statuses == {"pass", "not-applicable", "fail"}, statuses
    obstructed = {label for label, _, reason in outcomes if reason == "correction equation obstructed"}
    assert obstructed == {f"kt4-fourier-rank{r} N={n}" for r in (1, 2) for n in (1, 2)}, obstructed


def _zero(m):
    return ExactMatrix(m.rows, m.cols)


def test_descent_kernels_that_differ_match_the_realified_reference(kt4_session, monkeypatch):
    """No model separates the class map's kernel from the expected one, so two mutations seen by the
    audit and the reference alike do: a zeroed d on 1-forms (a zero class map kernel) and a zeroed
    d^{1,1} (a zero expected kernel)."""
    model = kt4_session.spec.coefficients.with_truncation(2)
    d_total = FormComplex.d_total
    mutations = {
        "d_total(1) = 0": lambda engine: monkeypatch.setattr(
            engine.complex, "d_total", lambda r: _zero(d_total(engine.complex, r)) if r == 1 else d_total(engine.complex, r)
        ),
        "d11 = 0": lambda engine: monkeypatch.setattr(engine, "_d11", lambda: _zero(CohomologyEngine._d11(engine))),
    }
    for label, mutate in mutations.items():
        engine = engine_on(kt4_session, model)
        mutate(engine)
        got = audit_ddc_descent(engine)[0]
        assert got.as_dict() == realified_ddc_descent(engine)[0].as_dict(), label
        witness = got.witness
        assert got.status == "fail" and witness["class_map_kernel"] != witness["expected_kernel"], (label, witness)
        assert 0 in (witness["class_map_kernel"], witness["expected_kernel"]), (label, witness)
        monkeypatch.undo()


def test_descent_builds_no_realified_image_or_preimage(kt4_session, monkeypatch):
    """During the audit no preimage is taken, and realify runs only for the correction system, the
    realified dbar of its target and the realified del dbar of the source."""
    engine = engine_on(kt4_session, kt4_session.spec.coefficients.with_truncation(2))
    calls = []
    preimage, realify = linalg.preimage, linalg.realify

    def counting_realify(*args):
        calls.append(("realify", sys._getframe(1).f_code.co_name, args[0]))
        return realify(*args)

    monkeypatch.setattr(linalg, "preimage", lambda *args: calls.append(("preimage",)) or preimage(*args))
    monkeypatch.setattr(linalg, "realify", counting_realify)
    (item,) = audit_ddc_descent(engine)
    assert item.status == "pass" and item.witness["source_dim"] > 0
    assert ("preimage",) not in calls
    callers = [caller for _, caller, _ in calls]
    assert set(callers) == {"correction_map", "realified_block", "real_ddc_kernel"}, callers
    ddc = compose(engine.block, ["partial", "dbar"], 1, 1)
    assert [m for _, caller, m in calls if caller == "real_ddc_kernel"] == [ddc]
    assert [m for _, caller, m in calls if caller == "realified_block"] == [engine.complex.block("dbar", 1, 1)]


# ---------------------------------------------------------------------------
# taming on the weight sectors of psi


def _sector_rows(engine):
    """The real (1,1) basis rows of an engine as forms, in order."""
    basis = engine.real_subspace(1, 1).rows
    return [engine.complex.from_realified([basis.entry(r, c) for c in range(basis.cols)], 1, 1) for r in range(basis.rows)]


def test_real_basis_rows_are_the_batches_rows_in_walk_order(kt4_session, fourier_sessions):
    """The whole real (1,1) basis lists its rows sector by sector, representatives w < -w ascending and then
    w = 0, so its rows are the rows of the selector's batches of 1, 2, 4, ... sectors, concatenated."""
    cases = [(f"kt4 N={n}", kt4_session, n) for n in range(4)] + _fourier_cases(fourier_sessions)
    for label, session, n in cases:
        engine = session.engine(n)
        weights = engine.complex.coefficients.weights()
        batches = list(_sector_batches(engine))
        got = [row for part in batches for row in _sector_rows(part)]
        assert got == _sector_rows(engine), label
        sizes = [len(part.complex.coefficients.weights()) for part in batches]
        assert sum(sizes) == len(weights), label
        # 1, 2, 4, ... sectors: 2, 4, 8, ... weights, and the zero sector one weight, at the end
        assert all(size == 2 ** (k + 1) for k, size in enumerate(sizes[:-1])), (label, sizes)
        assert (0,) * len(weights[0]) in batches[-1].complex.coefficients.weights(), label
        assert (len(batches) == 1) == (batches[0] is engine), label


def test_taming_on_sectors_matches_the_whole_box_reference_on_fourier_models(fourier_sessions):
    """On every four-dimensional Fourier model at N = 1 and 2, each selector's certificate or obstruction
    equals the whole-box form-level reference; the solves run on sectors smaller than the box."""
    seen = set()
    for label, session, n in _fourier_cases(fourier_sessions):
        engine = session.engine(n)
        for selector in SELECTORS + ("basis:3",):
            try:
                psi = psi_from_selector(session, n, selector)
            except ValidationError:
                continue
            got = _outcome(solve_taming, engine, psi)
            assert got == _outcome(reference_solve_taming, engine, psi), (label, selector)
            seen.add((_solving_engine(engine, psi) is engine, got[0]))
    assert (False, "certified") in seen


def _kodaira_fourier_session(truncation):
    """kodaira4 with a rank-2 torus acting along e1 and e4, closed and commuting directions."""
    raw = {
        "name": "kodaira4-fourier",
        "real_dim": 4,
        "brackets": [[1, 2, 3, "1"]],
        "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"], ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
        "metric": [["1", "0"], ["0", "1"]],
        "coefficients": {
            "type": "torus_fourier",
            "rank": 2,
            "actions": [["2", "0"], ["0", "0"], ["0", "0"], ["0", "3"]],
            "truncation": truncation,
        },
        "tasks": [],
    }
    return Session(manifest_from_dict(raw))


def _taming_json(session, selector, monkeypatch, whole_box=False):
    """taming's JSON minus timing, and its exit code; whole_box runs the form-level references instead."""
    with monkeypatch.context() as patch:
        if whole_box:
            patch.setattr(audits, "solve_taming", reference_solve_taming)
            patch.setattr(
                cli, "psi_from_selector",
                lambda s, n, sel: s.engine(n).hermitian.omega if sel == "fundamental" else reference_psi_from_selector(s, n, sel),
            )
        payload, code = run("taming", session, {"psi": selector})
    payload.pop("timing")
    return render_json(payload), code


def test_obstructed_fourier_taming_prints_the_whole_box_functional(monkeypatch):
    """kodaira4 acted on along e1 and e4 obstructs the correction of omega and of its perturbation at N = 1
    and 2.  The certificate equals the whole-box reference byte for byte, and its obstruction functional
    has the length of the whole realified (1,2) block though the solve ran on a sector."""
    obstructed = 0
    for n in (1, 2):
        for selector in ("fundamental", "perturbed", "basis:0", "basis:5"):
            got = _taming_json(_kodaira_fourier_session(n), selector, monkeypatch)
            assert got == _taming_json(_kodaira_fourier_session(n), selector, monkeypatch, whole_box=True), (n, selector)
            session = _kodaira_fourier_session(n)
            engine = session.engine()
            (cert,) = json.loads(got[0])["certificates"]
            if cert["status"] == "no-solution":
                obstructed += 1
                psi = psi_from_selector(session, None, selector)
                assert _solving_engine(engine, psi) is not engine
                assert len(cert["obstruction"]["functional"]) == 2 * engine.complex.dim(1, 2) == 2 * 2 * (2 * n + 1) ** 2
                assert cert["obstruction"]["pairing"] != "0"
    assert obstructed == 4


def test_taming_by_sector_builds_nothing_of_the_box_on_one_one(kt4_session):
    """After taming kt4 at N = 2 with basis:0 (or perturbed) the N = 2 engine holds no block from (1,1), no
    real (1,1) basis and no correction map: the selector and the solve ran on sectors, and only the
    hypothesis numbers were read off the box."""
    for selector in ("basis:0", "perturbed"):
        session = Session(kt4_session.spec)
        payload, code = run("taming", session, {"truncations": "2", "psi": selector})
        assert code == 0 and payload["certificates"][0]["status"] == "certified"
        engine = session.engine(2)
        assert engine.refined_dolbeault(1, 0) == payload["certificates"][0]["hypothesis"]["ht10"]
        assert not [key for key in vars(engine.complex).get("_block_cache", {}) if key[1:] == (1, 1)]
        assert (1, 1) not in vars(engine).get("_real_subspace_cache", {})
        assert not vars(engine).get("_correction_map_cache")
