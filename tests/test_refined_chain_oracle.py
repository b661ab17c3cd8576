"""Differential oracle for the refined chain: refined numbers and harmonic guards off shared forward passes.

The engine reads h~^{p,q} = dim N(p,q) - dim A(p,q-1) + dim N(p,q-1), with
N = ker dbar ^ ker mu ^ ker mubar the echelon of K = ker[dbar; mu] extended by
mubar's rows and A = ker[mu; mubar; K_I dbar] (`CohomologyEngine.refined_terms`),
and tests dbar A(p,q-1) in N(p,q) by rank.  The reference below is the path that
came before it: the numerator ker[dbar; mu; mubar] and A_Dol as the kernel of
mu, mubar, dbar dbar and mu dbar, every block stacked, and the quotient
numerator / dbar A_Dol with quotient_dim's containment product; the harmonic
guard composed every chain out . in through the cell.  Every refined number,
every harmonic guard verdict, every split by shell and every fatal must be the
same on both, and a mubar broken on purpose must stop both guards.
"""

import json

from acx import linalg
from acx.cli import Session, main, manifest_from_dict, run
from acx.cohomology import CohomologyEngine
from acx.lie import SHIFTS
from acx.linalg import ExactMatrix, NotContained
from acx.operators import compose

from conftest import engine_on
from test_cli import kt4_raw
from test_lazy_kernel_oracle import fresh

# ---------------------------------------------------------------------------
# the reference: the refined quotient and the harmonic guard as they were


def reference_parts(engine: CohomologyEngine, p: int, q: int):
    """The refined quotient's numerator and denominator, built from every block of their chains."""
    cx = engine.complex

    def kernel_of(*chains, p, q):
        return linalg.kernel(ExactMatrix.vstack([compose(engine.block, chain, p, q) for chain in chains]))

    numerator = kernel_of(["dbar"], ["mu"], ["mubar"], p=p, q=q)
    if q == 0 or not cx.valid_bidegree(p, q - 1):
        return numerator, linalg.zero_space(cx.dim(p, q))
    below = kernel_of(["mu"], ["mubar"], ["dbar", "dbar"], ["mu", "dbar"], p=p, q=q - 1)
    return numerator, linalg.map_subspace(cx.block("dbar", p, q - 1), below)


def reference_refined(engine: CohomologyEngine, p: int, q: int):
    """quotient_dim of reference_parts, or the NotContained it raises."""
    try:
        return linalg.quotient_dim(*reference_parts(engine, p, q))
    except NotContained as exc:
        return ("NotContained", str(exc))


def reference_terms(engine: CohomologyEngine, p: int, q: int) -> list[tuple]:
    """reference_parts as (sign, space, blocks) terms, after quotient_dim's guard."""
    numerator, denominator = reference_parts(engine, p, q)
    linalg.quotient_dim(numerator, denominator)
    return [(1, numerator, ((p, q),)), (-1, denominator, ((p, q),))]


def reference_verdict(engine: CohomologyEngine, p: int, q: int) -> bool:
    """Whether every chain out . in of dbar and mu through (p,q), each with entries, composes to zero."""
    cx = engine.complex
    source = {a: (p - SHIFTS[a][0], q - SHIFTS[a][1]) for a in ("dbar", "mu")}
    outs = [b for b in ("dbar", "mu") if cx.block(b, p, q).triples]
    ins = [a for a, (sp, sq) in source.items() if cx.valid_bidegree(sp, sq) and cx.block(a, sp, sq).triples]
    return all(compose(engine.block, (b, a), *source[a]).is_zero() for b in outs for a in ins)


def chain_refined(engine: CohomologyEngine, p: int, q: int):
    try:
        return engine.refined_dolbeault(p, q)
    except NotContained as exc:
        return ("NotContained", str(exc))


def cells(engine: CohomologyEngine):
    return [(p, q) for p in range(engine.n + 1) for q in range(engine.n + 1)]


def run_engine(session, first: int, last: int) -> CohomologyEngine:
    spec = session.spec
    return CohomologyEngine.of(session.frame, spec.coefficients.shell(first, last), spec.metric)


def chain_cases(kt4_session, oracle_engines, fourier_sessions):
    """(label, build) of a fresh engine for every case: kt4 at N = 0..3 and over shells 0..3, the oracle
    engines (torus4, nil6, kodaira4, the seeded random models and the sweeps at seeds 0 and 101), and the
    seeded Fourier models at N = 1 and 2."""
    cases = [(f"kt4 N={n}", lambda n=n: fresh(kt4_session.engine(n))) for n in range(4)]
    cases.append(("kt4 shells 0..3", lambda: run_engine(kt4_session, 0, 3)))
    cases += [(label, lambda e=e: fresh(e)) for label, e in oracle_engines]
    cases += [
        (f"{label} N={n}", lambda s=session, n=n: engine_on(s, s.spec.coefficients.with_truncation(n)))
        for label, session in fourier_sessions
        for n in (1, 2)
    ]
    return cases


# ---------------------------------------------------------------------------
# numbers, verdicts and shells


def test_refined_numbers_and_harmonic_verdicts_match_the_reference(kt4_session, oracle_engines, fourier_sessions):
    """Each refined number (or NotContained) and each harmonic guard verdict equals the reference's, with the
    cells visited in diamond order and in reverse, so a_dol is built before and after the numerators it reads."""
    labels = set()
    for label, build in chain_cases(kt4_session, oracle_engines, fourier_sessions):
        reference = build()
        want = {cell: reference_refined(reference, *cell) for cell in cells(reference)}
        verdicts = {cell: reference_verdict(reference, *cell) for cell in cells(reference)}
        for order in (1, -1):
            engine = build()
            got = {cell: chain_refined(engine, *cell) for cell in cells(engine)[::order]}
            assert got == want, (label, order)
            assert {cell: engine.harmonic_terms(*cell) is not None for cell in cells(engine)} == verdicts, label
        labels.add(label)
    assert {"torus4", "nil6", "kodaira4", "kt4 N=3", "kt4 shells 0..3"} <= labels
    assert sum(label.startswith("sweep") for label in labels) == 10


def test_the_oracle_sees_nonzero_quotients_and_failing_guards(kt4_session, oracle_engines):
    """The comparison above is not vacuous: proper denominators, mubar rows that extend K's echelon, and
    harmonic guards that fail."""
    engines = dict(oracle_engines)
    extended = [
        (label, p, q)
        for label, engine in engines.items()
        for p, q in cells(engine)
        if engine.refined_numerator(p, q) is not engine.harmonic_kernel(p, q)
    ]
    assert any(label.startswith("sweep") for label, _, _ in extended)
    numerator, denominator = reference_parts(engines["kt4 N=2"], 1, 1)
    assert 0 < denominator.dim < numerator.dim
    assert not all(reference_verdict(engines["nil6"], *cell) for cell in cells(engines["nil6"]))


def test_a_run_engine_splits_the_refined_numbers_like_one_shell_engines(kt4_session, fourier_sessions):
    """Over shells 0..3 the chain's terms counted by shell (their free coordinates) equal the reference numbers
    of one-shell engines, on kt4 and on every seeded Fourier model whose refined guards hold."""
    checked = {}
    for label, session in [("kt4", kt4_session)] + fourier_sessions:
        spec = session.spec
        run_ = run_engine(session, 0, 3)
        for p, q in cells(run_):
            try:
                terms = run_.refined_terms(p, q)
            except NotContained:
                continue
            split = run_.by_shell(terms)
            for s in range(4):
                shell = CohomologyEngine.of(session.frame, spec.coefficients.shell(s), spec.metric)
                assert split.get(s, 0) == reference_refined(shell, p, q), (label, s, p, q)
            checked[label] = checked.get(label, 0) + 1
    assert checked["kt4"] == 9 and len(checked) == 1 + len(fourier_sessions), checked


# ---------------------------------------------------------------------------
# fatals


def payloads_on_both_paths(monkeypatch, spec, command, flags):
    """One command's payload without timing and its exit code, on the chain and on the reference terms."""
    def report():
        payload, code = run(command, Session(spec), flags)
        payload.pop("timing")
        return payload, code

    chain = report()
    with monkeypatch.context() as m:
        m.setattr(CohomologyEngine, "refined_terms", reference_terms)
        reference = report()
    return chain, reference


def test_fatal_cases_exit_2_with_the_same_fatal(monkeypatch, fourier_sessions, tmp_path, capsys):
    """kt4 with J swapped and the seeded kt4 Fourier models at ranks 1 and 2 stop `diamond` with NotContained,
    on the chain as on the reference, with the same payload."""
    raw = kt4_raw()
    raw["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    cases = [("kt4-j-swapped", manifest_from_dict(raw), {"truncations": "1"})]
    for label, session in fourier_sessions:
        if label in ("kt4-fourier-rank1", "kt4-fourier-rank2"):
            cases.append((label, session.spec, {"truncations": "1,2"}))
    assert len(cases) == 3
    expected = {"type": "NotContained", "detail": "denominator vector escapes the numerator subspace"}
    for label, spec, flags in cases:
        chain, reference = payloads_on_both_paths(monkeypatch, spec, "diamond", flags)
        assert chain == reference, label
        assert chain[1] == 2 and chain[0]["fatal"] == expected, label
    path = tmp_path / "kt4-j-swapped.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["diamond", str(path), "--truncations", "1", "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["fatal"] == expected


# ---------------------------------------------------------------------------
# mutations of mubar


def with_mubar(engine: CohomologyEngine, p: int, q: int, replacement: ExactMatrix) -> CohomologyEngine:
    """A fresh engine on engine's complex whose mubar block on (p,q) is replacement."""
    out = fresh(engine)
    block = out.complex.block

    def mutated(name, p_, q_):
        return replacement if (name, p_, q_) == ("mubar", p, q) else block(name, p_, q_)

    out.complex.block = mutated
    return out


def test_a_broken_mubar_stops_both_guards_and_a_harmless_one_stops_neither(oracle_engines):
    """On every six-dim oracle model and every cell (p,1) where dbar A_Dol^{p,0} is nonzero: an entry added to
    mubar's first row where that image has one makes dbar A_Dol escape ker mubar, and both the reference and the
    chain raise NotContained; a row of dbar added to mubar's first row leaves the kernel as it was, and both give
    the number they gave before."""
    broken_cells = 0
    for label, engine in oracle_engines:
        if engine.n != 3:
            continue
        cx = engine.complex
        for p in range(1, 4):
            q = 1
            mubar = cx.block("mubar", p, q)
            image = linalg.map_subspace(cx.block("dbar", p, q - 1), fresh(engine).a_dol(p, q - 1)).generators
            if not (mubar.rows and image.triples):
                continue
            row = min(r for r, _ in image.triples)
            broken = mubar + ExactMatrix.unchecked(mubar.rows, mubar.cols, {(0, row): (1, 0, 1)})
            assert reference_refined(with_mubar(engine, p, q, broken), p, q)[0] == "NotContained", (label, p)
            assert chain_refined(with_mubar(engine, p, q, broken), p, q)[0] == "NotContained", (label, p)
            dbar = cx.block("dbar", p, q)
            first = min(r for r, _ in dbar.triples)
            shifted = {(0, c): t for (r, c), t in dbar.triples.items() if r == first}
            harmless = mubar + ExactMatrix.unchecked(mubar.rows, mubar.cols, shifted)
            want = reference_refined(engine, p, q)
            assert reference_refined(with_mubar(engine, p, q, harmless), p, q) == want, (label, p)
            assert chain_refined(with_mubar(engine, p, q, harmless), p, q) == want, (label, p)
            broken_cells += 1
    assert broken_cells >= 6
