"""Differential oracles for the frame-calculus layer.

The structure equations are derived once per frame and derivations are
extended monomial by monomial on invariant forms; the references below are
the direct constructions: one bracket per (covector, pair) and Form
arithmetic for each Leibniz term.  Both must give equal Forms on every case.
The coefficient terms of partial and dbar on weighted forms have their own
oracle in tests/test_lift_oracle.py.
"""

import importlib.util
import json
import random
from fractions import Fraction
from pathlib import Path

from acx import lie, linalg
from acx.cli import Session, manifest_from_dict
from acx.forms import INVARIANT, BasisElement, Form, enumerate_basis, extend_derivation
from acx.lie import (
    build_frame,
    exterior_d_on_generators,
    validate_model,
)
from acx.operators import FormComplex, frame_blocks, nijenhuis_rank
from acx.linalg import ExactMatrix
from acx.scalars import ONE, ZERO, Scalar

from conftest import bundled_manifest_path, random_4d_session, sweep_sessions
from test_kernel_oracle import bracket_complex, covector
from test_lift_oracle import ReferenceOperators, reference_leibniz

BENCH = Path(__file__).resolve().parents[1] / "bench"
OPERATORS = ("mu", "partial", "dbar", "mubar", "d")


def reference_exterior_d(frame):
    """d(theta^s) and d(tbar^s), one bracket per covector and pair."""
    n = frame.n
    dim = 2 * n
    vectors = [frame.complex_frame_vector(a) for a in range(dim)]
    out = {}
    for kind in ("h", "a"):
        for s in range(1, n + 1):
            cov = covector(frame, kind, s)
            coeffs = {}
            for a in range(dim):
                for b in range(a + 1, dim):
                    bracket = bracket_complex(frame.algebra, vectors[a], vectors[b])
                    val = ZERO
                    for coord, x in zip(cov, bracket):
                        if coord and x:
                            val = val + coord * x
                    if val:
                        coeffs[lie._pair_monomial(n, a, b)] = -val
            out[(kind, s)] = Form(coeffs)
    return out


def reference_nijenhuis_rank(frame):
    """Rank of mubar on (1,0)-forms, from a hand-indexed matrix of the split structure equations."""
    diffs = lie.split_d(exterior_d_on_generators(frame))
    n = frame.n
    targets = [(j, k) for j in range(1, n + 1) for k in range(j + 1, n + 1)]
    index = {t: i for i, t in enumerate(targets)}
    entries = {}
    for s in range(1, n + 1):
        for elt, c in diffs["mubar"].get(("h", s), Form()).items():
            entries[(index[elt.anti], s - 1)] = c
    return linalg.rank(ExactMatrix(len(targets), n, entries))


def _random_scalar(rng):
    return Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 4)), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))


def _random_combination(rng, basis):
    picks = rng.sample(basis, min(len(basis), 4))
    return Form({e: _random_scalar(rng) for e in picks})


def _sweep_six_dim_sessions(seed):
    spec = importlib.util.spec_from_file_location("bench_models", BENCH / "models.py")
    models = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(models)
    manifests = models.sweep_manifests(seed, 3, 2)
    return [Session(manifest_from_dict(m)) for m in manifests if m["real_dim"] == 6]


def _compare_complex(cx, rng):
    """Compare every operator on every invariant monomial and a few random combinations; count nonzero images."""
    blocks = frame_blocks(cx.frame)
    nonzero = 0
    for name in OPERATORS:
        action = blocks.structure if name == "d" else blocks.parts[name]
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                basis = list(enumerate_basis(cx.n, p, q, INVARIANT))
                forms = [Form.monomial(e) for e in basis]
                forms += [_random_combination(rng, basis) for _ in range(3)] if basis else []
                for form in forms:
                    got = extend_derivation(action, form)
                    assert got == reference_leibniz(action, None, form), (name, p, q, form)
                    nonzero += not got.is_zero()
    return nonzero


def _oracle_sessions(kt4_session, torus_session, nil6_session, kodaira_session):
    rng = random.Random(4242)
    cases = [("kt4 N=%d" % n, kt4_session.complex(n)) for n in (0, 1, 2)]
    cases += [("torus4", torus_session.complex()), ("nil6", nil6_session.complex()), ("kodaira", kodaira_session.complex())]
    cases += [(f"random4d-{k}", random_4d_session(rng).complex()) for k in range(4)]
    cases += [(f"sweep6d-{k}", s.complex()) for k, s in enumerate(_sweep_six_dim_sessions(0))]
    return cases


def test_structure_equations_match_reference(kt4_session, torus_session, nil6_session, kodaira_session):
    cases = _oracle_sessions(kt4_session, torus_session, nil6_session, kodaira_session)
    assert len(cases) == 13
    nonzero = 0
    for label, cx in cases:
        got = exterior_d_on_generators(cx.frame)
        want = reference_exterior_d(cx.frame)
        assert got == want, label
        nonzero += sum(not f.is_zero() for f in got.values())
    assert nonzero > 0


def test_extend_derivation_matches_reference(kt4_session, torus_session, nil6_session, kodaira_session):
    rng = random.Random(7)
    for label, cx in _oracle_sessions(kt4_session, torus_session, nil6_session, kodaira_session):
        nonzero = _compare_complex(cx, rng)
        # the abelian torus is the one model where every operator vanishes
        assert (nonzero > 0) == (label != "torus4"), label


def test_oracle_runs_the_coefficient_action(kt4_session):
    """kt4 at N >= 1 has weighted monomials on which partial and dbar act through their coefficients."""
    cx = kt4_session.complex(1)
    weighted = [e for e in cx.basis(0, 0) if any(e.weight)]
    assert weighted
    act = ReferenceOperators(cx).coeff_action("dbar")
    assert any(not act(e.weight).is_zero() for e in weighted)
    assert any(not frame_blocks(cx.frame).coefficient_block("dbar", 0, 0, r).is_zero() for r in range(1, cx.n + 1))
    # on functions only the coefficient terms contribute, so d of one is nonzero, while
    # extend_derivation, which treats coefficients as constants, gives zero
    f = Form.monomial(weighted[0])
    assert not cx.apply("d", f).is_zero()
    assert extend_derivation(frame_blocks(cx.frame).structure, f).is_zero()


def test_structure_equations_are_derived_once_per_frame(nil6_session):
    """One structure-equation build per frame: equal frames, validate_model, FrameBlocks and the
    complexes share it, and what a caller does to its copy does not reach the next caller."""
    spec = nil6_session.spec
    lie._structure_equations.cache_clear()
    frame_blocks.cache_clear()
    frame = build_frame(spec.algebra, spec.structure)
    first = exterior_d_on_generators(frame)
    assert lie._structure_equations.cache_info().misses == 1
    snapshot = {g: dict(f.coeffs) for g, f in first.items()}
    first[("h", 1)].coeffs.clear()
    next(f for f in first.values() if f.coeffs).coeffs.clear()
    first.pop(("a", 1))
    # an equal frame that is not the memoized one
    equal_frame = build_frame.__wrapped__(spec.algebra, spec.structure)
    assert equal_frame is not frame
    assert validate_model.__wrapped__(spec.algebra, spec.structure).passed
    assert nijenhuis_rank(equal_frame) == 3
    FormComplex(equal_frame, spec.coefficients)
    again = exterior_d_on_generators(equal_frame)
    assert lie._structure_equations.cache_info().misses == 1
    assert {g: dict(f.coeffs) for g, f in again.items()} == snapshot


def _random_two_form(rng, n, rank, shifted):
    """A dense random 2-form: each monomial of degree 2 gets a nonzero coefficient with probability 3/4.

    With shifted, some monomials carry a nonzero weight of the given rank.
    """
    coeffs = {}
    for p, q in ((2, 0), (1, 1), (0, 2)):
        for e in enumerate_basis(n, p, q, INVARIANT):
            if rng.random() < 0.75:
                weight = (0,) * rank
                if shifted and rng.random() < 0.3:
                    weight = tuple(rng.randint(-2, 2) for _ in range(rank))
                coeffs[BasisElement(weight, e.holo, e.anti)] = _random_scalar(rng) or ONE
    return Form(coeffs)


def _weighted_monomials(rng, n, rank, count):
    """count random monomials of every bidegree, each at a random weight of the given rank."""
    out = []
    for p in range(n + 1):
        for q in range(n + 1):
            basis = list(enumerate_basis(n, p, q, INVARIANT))
            for e in rng.sample(basis, min(count, len(basis))):
                out.append(BasisElement(tuple(rng.randint(-3, 3) for _ in range(rank)), e.holo, e.anti))
    return out


def test_bitmask_leibniz_matches_reference_on_dense_random_images():
    """extend_derivation against the Form-arithmetic Leibniz rule at n = 1..6, on dense random
    generator images, weighted monomials (unit coefficient) and random weighted combinations."""
    rng = random.Random(2024)
    compared = nonzero = 0
    for n in range(1, 7):
        for rank, shifted in ((0, False), (2, False), (2, True)):
            gens = [(kind, s) for kind in ("h", "a") for s in range(1, n + 1)]
            action = {g: _random_two_form(rng, n, rank, shifted) for g in gens}
            # one generator with no image, which the rule skips
            action[rng.choice(gens)] = Form()
            monomials = _weighted_monomials(rng, n, rank, 4 if n < 6 else 2)
            forms = [Form.monomial(e) for e in monomials]
            for _ in range(6):
                picks = rng.sample(monomials, min(5, len(monomials)))
                forms.append(Form({e: _random_scalar(rng) or ONE for e in picks}))
            for form in forms:
                got = extend_derivation(action, form)
                assert got == reference_leibniz(action, None, form), (n, rank, shifted, form)
                compared += 1
                nonzero += not got.is_zero()
    assert nonzero > compared // 2


def test_nijenhuis_rank_matches_reference(kt4_session, torus_session, nil6_session, kodaira_session):
    sessions = [kt4_session, torus_session, nil6_session, kodaira_session]
    for seed in (0, 101, 7, 13):
        sessions += sweep_sessions(seed)
    # kt4 with J e1 = e3, J e2 = e4
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    sessions.append(Session(manifest_from_dict(raw)))
    ranks = [nijenhuis_rank(s.frame) for s in sessions]
    assert ranks == [reference_nijenhuis_rank(s.frame) for s in sessions]
    assert ranks[:4] == [1, 0, 3, 0] and max(ranks[4:]) > 0
