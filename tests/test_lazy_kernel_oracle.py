"""Differential oracle for the lazy kernel and the whole- and zero-space identities.

linalg.kernel holds a kernel by its constraint alone: its dimension is a
forward pass and its null basis is built on the first read of generators.
intersect, map_subspace, preimage and sum_spaces hand back a space without
work when an operand is the whole or the zero space, or when a cut has no
entries.  The reference below is the subspace layer as it was: kernel built
its null basis at once, every operation ran in full, and equality compared
dimensions before it read a basis.  Every diamond number, every verify,
taming and diamond report, and every NotContained must be the same on both.
"""

import random

import pytest

from acx import linalg
from acx.cli import Session, run
from acx.cohomology import CohomologyEngine, diamond_numbers
from acx.linalg import ExactMatrix, NotContained, Subspace
from acx.metric import HermitianStructure
from acx.operators import FormComplex

from conftest import engine_on, random_4d_session, sweep_sessions
from test_linalg import general_intersect, general_map, general_preimage, general_sum

# ---------------------------------------------------------------------------
# the eager layer, as it was: its operations are test_linalg's general paths


def eager_kernel(m):
    generators = linalg.null_basis(m)
    return Subspace(constraint=m, generators=generators, dim=generators.cols)


def eager_eq(self, other):
    if not isinstance(other, Subspace):
        return NotImplemented
    return (
        self.ambient_dim == other.ambient_dim
        and self.dim == other.dim
        and (self.constraint @ other.generators).is_zero()
    )


def use_reference(monkeypatch):
    for name, fn in (
        ("kernel", eager_kernel),
        ("map_subspace", general_map),
        ("intersect", general_intersect),
        ("sum_spaces", general_sum),
        ("preimage", general_preimage),
    ):
        monkeypatch.setattr(linalg, name, fn)
    monkeypatch.setattr(Subspace, "__eq__", eager_eq)


def on_both_paths(monkeypatch, compute):
    """compute() with the lazy layer, then with the eager reference patched in."""
    lazy = compute()
    with monkeypatch.context() as m:
        use_reference(m)
        eager = compute()
    return lazy, eager


def outcome(fn, *args):
    try:
        return fn(*args)
    except NotContained as exc:
        return ("NotContained", str(exc))


def fresh(engine):
    """An engine on the same complex and metric with an empty memo."""
    cx = FormComplex(engine.complex.frame, engine.complex.coefficients)
    return CohomologyEngine(cx, HermitianStructure(cx, engine.hermitian.metric))


def report(spec, command, flags):
    """One command's payload without timing, and its exit code, from a fresh session."""
    payload, code = run(command, Session(spec), flags)
    payload.pop("timing")
    return payload, code


# ---------------------------------------------------------------------------
# diamond numbers


def test_diamond_numbers_match_the_eager_layer(oracle_engines, fourier_sessions, kt4_session, monkeypatch):
    engines = [(label, lambda e=e: fresh(e)) for label, e in oracle_engines]
    engines += [
        (f"{label} N={n}", lambda s=session, n=n: engine_on(s, s.spec.coefficients.with_truncation(n)))
        for label, session in fourier_sessions
        for n in (1, 2)
    ]
    engines.append(("kt4 N=3", lambda: engine_on(kt4_session, kt4_session.spec.coefficients.with_truncation(3))))
    guarded = 0
    for label, build in engines:
        lazy, eager = on_both_paths(monkeypatch, lambda: outcome(diamond_numbers, build()))
        assert lazy == eager, label
        guarded += isinstance(lazy, tuple)
    # the Fourier models on kt4 stop in a guard: the oracle also pins where NotContained is raised
    assert guarded >= 2


# ---------------------------------------------------------------------------
# reports


def report_cases(kt4_session, torus_session, nil6_session, kodaira_session, fourier_sessions):
    """(label, spec, command, flags) of verify, taming and diamond on every oracle model."""
    specs = [("torus4", torus_session.spec), ("nil6", nil6_session.spec), ("kodaira4", kodaira_session.spec)]
    rng = random.Random(4242)
    specs += [(f"random {k}", random_4d_session(rng).spec) for k in range(4)]
    for seed in (0, 101):
        specs += [(f"sweep{seed} {k}", s.spec) for k, s in enumerate(sweep_sessions(seed))]
    cases = []
    for label, spec in specs:
        cases.append((label, spec, "report", {}))
        if spec.real_dim == 4:
            cases += [(label, spec, "taming", {"psi": psi}) for psi in ("perturbed", "basis:0")]
    kt4 = kt4_session.spec
    cases += [("kt4", kt4, command, {"truncations": "0,1,2,3"}) for command in ("verify", "diamond", "report")]
    cases += [("kt4", kt4, "taming", {"truncations": "2", "psi": psi}) for psi in ("fundamental", "perturbed", "basis:0")]
    for label, session in fourier_sessions:
        spec = session.spec
        cases += [(label, spec, command, {"truncations": "1,2"}) for command in ("verify", "diamond")]
        if spec.real_dim == 4:
            cases += [(label, spec, "taming", {"truncations": str(n)}) for n in (1, 2)]
    return cases


def test_reports_match_the_eager_layer(
    kt4_session, torus_session, nil6_session, kodaira_session, fourier_sessions, monkeypatch
):
    cases = report_cases(kt4_session, torus_session, nil6_session, kodaira_session, fourier_sessions)
    fatal = 0
    for label, spec, command, flags in cases:
        lazy, eager = on_both_paths(monkeypatch, lambda: report(spec, command, flags))
        assert lazy == eager, (label, command, flags)
        fatal += "fatal" in lazy[0]
    assert len(cases) > 50 and fatal >= 2


# ---------------------------------------------------------------------------
# a mutation that breaks the one containment the refined chain can fail


@pytest.mark.parametrize("path", ["lazy", "eager"])
def test_guard_fires_when_mubar_dbar_plus_dbar_mubar_is_nonzero(monkeypatch, path):
    """dbar A_Dol^{1,0} lies in ker dbar ^ ker mu of (1,1) by A_Dol's construction, so the refined (1,1) quotient
    can fail only through mubar, where d^2 = 0 gives mubar dbar + dbar mubar = 0 from (1,0).  On the benchmark
    sweep's first six-dim model, a mubar on (1,1) with one entry added at a coordinate where dbar A_Dol^{1,0} is
    nonzero breaks that relation, and both the quotient guard on refined_parts and the chain's rank test stop."""
    if path == "eager":
        use_reference(monkeypatch)
    session = sweep_sessions(0)[0]
    p, q = 1, 1
    clean = session.engine()
    cx = clean.complex
    mubar, dbar = cx.block("mubar", p, q), cx.block("dbar", p, q - 1)
    image = linalg.map_subspace(dbar, clean.a_dol(p, q - 1)).generators
    row = min(r for r, _ in image.triples)
    broken = mubar + ExactMatrix.unchecked(mubar.rows, mubar.cols, {(0, row): (1, 0, 1)})
    # the (-1, 3) part of d^2 on (1,0): zero before the mutation, not after it
    other = cx.block("dbar", p - 1, q + 1) @ cx.block("mubar", p, q - 1)
    assert (mubar @ dbar + other).is_zero() and not (broken @ dbar + other).is_zero()
    assert clean.refined_dolbeault(p, q) == linalg.quotient_dim(*clean.refined_parts(p, q))

    def mutated_engine():
        engine = fresh(clean)
        block = engine.complex.block

        def mutated(name, p_, q_):
            return broken if (name, p_, q_) == ("mubar", p, q) else block(name, p_, q_)

        monkeypatch.setattr(engine.complex, "block", mutated)
        return engine

    with pytest.raises(NotContained):
        linalg.quotient_dim(*mutated_engine().refined_parts(p, q))
    with pytest.raises(NotContained):
        mutated_engine().refined_dolbeault(p, q)
