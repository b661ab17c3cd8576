"""Differential oracle for the harmonic numbers read as guarded quotients.

ell^{p,q} = dim(ker dbar ^ ker dbar^* ^ ker mu ^ ker mu^*) on (p,q).  Where dbar
and mu compose to zero into and out of (p,q), the engine reads it as
dim K - dim I, K = ker(dbar, mu out of (p,q)) and I = im(dbar, mu into (p,q))
(`CohomologyEngine.harmonic_terms`); elsewhere it ranks the Gram-weighted
system.  Every cell's number must equal cols - rank of that system on every
model the oracles run on, on kt4's run engines over shells 0..3 and on the
seeded Fourier models, and a run engine's split by shell must equal the
numbers of one-shell engines.  The guard's verdicts are pinned, and at (1,1)
of kt4 and nil6 the unguarded difference is wrong, so the guard carries weight.
"""

from acx import linalg
from acx.cohomology import CohomologyEngine
from acx.lie import SHIFTS
from acx.linalg import ExactMatrix
from acx.operators import compose

KT4_FAILING = {(2, 0), (1, 1), (0, 2)}
NIL6_FAILING = {(0, 2), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (3, 1)}


def gram_reference(engine: CohomologyEngine, p: int, q: int) -> int:
    """cols - rank of the Gram-weighted system, the rank from its full reduction."""
    system = engine._harmonic_system(("dbar", "mu"), p, q)
    return system.cols - len(linalg.rref(system)[0])


def cells(engine: CohomologyEngine):
    return [(p, q) for p in range(engine.n + 1) for q in range(engine.n + 1)]


def failing(engine: CohomologyEngine) -> set:
    """The cells where the guard fails and ell falls back to the Gram system."""
    return {cell for cell in cells(engine) if engine.harmonic_terms(*cell) is None}


def harmonic_by_shell(engine: CohomologyEngine, p: int, q: int) -> dict:
    """ell^{p,q} of a run engine by shell, from its guarded terms or its harmonic space."""
    terms = engine.harmonic_terms(p, q)
    if terms is None:
        terms = [(1, engine.harmonic_space(("dbar", "mu"), p, q), ((p, q),))]
    return dict(engine.by_shell(terms))


def unguarded(engine: CohomologyEngine, p: int, q: int) -> int:
    """dim K - dim I at (p,q) with no containment check, dbar and mu into (p,q) from valid sources only."""
    cx = engine.complex
    kernel = linalg.kernel(ExactMatrix.vstack([cx.block("dbar", p, q), cx.block("mu", p, q)]))
    images = [
        linalg.image(cx.block(name, p - SHIFTS[name][0], q - SHIFTS[name][1]))
        for name in ("dbar", "mu")
        if cx.valid_bidegree(p - SHIFTS[name][0], q - SHIFTS[name][1])
    ]
    return kernel.dim - linalg.sum_spaces(images).dim


def run_and_shells(session, first: int, last: int):
    """A fresh engine over shells first..last and a fresh engine over each of them alone."""
    spec = session.spec
    run = CohomologyEngine.of(session.frame, spec.coefficients.shell(first, last), spec.metric)
    shells = {s: CohomologyEngine.of(session.frame, spec.coefficients.shell(s), spec.metric) for s in range(first, last + 1)}
    return run, shells


def test_guarded_quotients_equal_the_gram_system_on_oracle_engines(oracle_engines):
    for label, engine in oracle_engines:
        for p, q in cells(engine):
            assert engine.ell(p, q) == gram_reference(engine, p, q), (label, p, q)


def composed_verdict(engine: CohomologyEngine, p: int, q: int) -> bool:
    """The guard as it read before a_dol held K's core: every chain out . in of dbar and mu through (p,q), each
    with entries, composed whole and zero."""
    cx = engine.complex
    source = {a: (p - SHIFTS[a][0], q - SHIFTS[a][1]) for a in ("dbar", "mu")}
    outs = [b for b in ("dbar", "mu") if cx.block(b, p, q).triples]
    ins = [a for a, (sp, sq) in source.items() if cx.valid_bidegree(sp, sq) and cx.block(a, sp, sq).triples]
    return all(compose(engine.block, (b, a), *source[a]).is_zero() for b in outs for a in ins)


def test_verdicts_read_off_a_dol_give_the_same_numbers(oracle_engines):
    """With every refined number computed first, the guard reads dbar's verdict off what a_dol recorded of its
    K_I dbar block (_core_vanishes) and builds no A_Dol of its own: each recorded verdict equals the composed
    chains dbar.dbar and mu.dbar, and the guard gives the composed chains' verdicts and the same numbers."""
    for label, engine in oracle_engines:
        fresh = CohomologyEngine(engine.complex, engine.hermitian)
        for cell in cells(fresh):
            fresh.refined_dolbeault(*cell)
        recorded, built = dict(fresh._core_vanishes), dict(vars(fresh)["_a_dol_cache"])
        cx = fresh.complex
        for (p, q), vanishes in recorded.items():
            outs = [b for b in ("dbar", "mu") if cx.valid_bidegree(p, q + 1) and cx.block(b, p, q + 1).triples]
            assert vanishes == all(compose(fresh.block, (b, "dbar"), p, q).is_zero() for b in outs), (label, p, q)
        verdicts = {cell: fresh.harmonic_terms(*cell) is not None for cell in cells(fresh)}
        assert fresh._core_vanishes == recorded and vars(fresh)["_a_dol_cache"] == built, label
        assert verdicts == {cell: composed_verdict(fresh, *cell) for cell in cells(fresh)}, label
        assert failing(fresh) == failing(CohomologyEngine(engine.complex, engine.hermitian)), label
        for p, q in cells(fresh):
            assert fresh.ell(p, q) == gram_reference(fresh, p, q), (label, p, q)
    # on kt4 and nil6 a K_I dbar block with entries is what fails the guard at some cell
    engines = dict(oracle_engines)
    for label in ("kt4 N=1", "nil6"):
        engine = CohomologyEngine(engines[label].complex, engines[label].hermitian)
        fails = failing(engine)
        assert any(not engine._core_vanishes[(p, q - 1)] for p, q in fails if q), label


def test_run_engines_split_like_one_shell_engines(kt4_session, fourier_sessions):
    """kt4 and every seeded Fourier model over shells 0..3: each shell's part of the run engine's number
    equals the one-shell engine's, and both equal the Gram system's cols - rank."""
    for label, session in [("kt4", kt4_session)] + fourier_sessions:
        run, shells = run_and_shells(session, 0, 3)
        for p, q in cells(run):
            assert run.ell(p, q) == gram_reference(run, p, q), (label, p, q)
            split = harmonic_by_shell(run, p, q)
            for s, engine in shells.items():
                assert split.get(s, 0) == engine.ell(p, q) == gram_reference(engine, p, q), (label, s, p, q)


def test_guard_verdicts_are_pinned(kt4_session, nil6_session, oracle_engines):
    """kt4 fails at (2,0), (1,1) and (0,2) at N = 0..2 and on its run of shells 0..3, nil6 at eight cells,
    and every cell of the benchmark sweep's models passes."""
    for n in (0, 1, 2):
        assert failing(kt4_session.engine(n)) == KT4_FAILING, n
    assert failing(run_and_shells(kt4_session, 0, 3)[0]) == KT4_FAILING
    assert failing(nil6_session.engine()) == NIL6_FAILING
    sweeps = [engine for label, engine in oracle_engines if label.startswith("sweep")]
    assert len(sweeps) == 10
    for engine in sweeps:
        assert failing(engine) == set()


def test_the_guard_is_load_bearing(kt4_session, nil6_session):
    """Where the guard fails, dim K - dim I is not the harmonic number: 2 against 3 at kt4's (1,1), 2 against
    5 at nil6's (1,1)."""
    for engine, ell in ((kt4_session.engine(), 3), (nil6_session.engine(), 5)):
        assert engine.harmonic_terms(1, 1) is None
        assert unguarded(engine, 1, 1) == 2
        assert engine.ell(1, 1) == gram_reference(engine, 1, 1) == ell
    for n in (1, 2):
        engine = kt4_session.engine(n)
        assert unguarded(engine, 1, 1) == 2 and engine.ell(1, 1) == 3, n
