"""Differential oracle for the structure equations and the Jacobi check.

lie._structure_equations builds the theta rows as (Theta @ C) @ L, with L the
second compound of the frame, and reads each tbar row off its theta row by
conjugation; validate_model runs d(d theta) on the n theta generators and
reads each tbar verdict off its partner.  The references are what they
replaced: reference_structure_equations (tests/test_kernel_oracle.py), one
complex bracket per pair of frame vectors paired with all 2n covectors, and
all_generator_jacobi, d(d phi) on every generator of those reference
equations.  The equations must agree in values and term order, the checks in
verdict, failing list and detail, on the bundled models, the seeded sweeps,
dense random frames, bracket tables broken on purpose and every frame the
manifest fuzzer reaches.
"""

import random
from fractions import Fraction

from acx import lie
from acx.cli import ParseError, ValidationError, manifest_from_dict
from acx.forms import Form, GeneratorImages, InconsistentModel, leibniz
from acx.metric import NotPositive
from acx.operators import frame_blocks

from conftest import sweep_sessions
from test_fuzz import BASES, CASES_PER_BASE, SEEDS, _load, mutate
from test_kernel_oracle import random_frame, reference_structure_equations


def all_generator_jacobi(frame) -> lie.ValidationCheck:
    """The Jacobi check as validate_model ran it before: d(d phi) on all 2n generators, here of the
    reference structure equations, whose tbar rows are derived on their own and not by conjugation."""
    diffs = {gen: Form(dict(terms)) for gen, terms in reference_structure_equations(frame)}
    images = GeneratorImages(diffs)
    failures = [gen for gen, dgen in diffs.items() if leibniz(images, dgen.triples().items())]
    detail = "d(d theta) = 0 on every generator" if not failures else f"fails on {failures}"
    return lie.ValidationCheck("jacobi-via-d-squared", not failures, detail)


def jacobi(frame) -> lie.ValidationCheck:
    (check,) = [c for c in lie.validate_model.__wrapped__(frame.algebra, frame.structure).checks if "jacobi" in c.name]
    return check


def as_triples(equations):
    return [(gen, [(m, v.triple) for m, v in terms]) for gen, terms in equations]


def assert_same_equations(frame, *where) -> int:
    """The structure equations equal the reference in values and term order; returns their term count."""
    got = as_triples(lie._structure_equations.__wrapped__(frame))
    assert got == as_triples(reference_structure_equations(frame)), where
    return sum(len(terms) for _, terms in got)


def model_frames(kt4_session, nil6_session, torus_session):
    cases = [("kt4", kt4_session.frame), ("nil6", nil6_session.frame), ("torus4", torus_session.frame)]
    for seed in (0, 101):
        cases += [(f"sweep{seed} {k}", s.frame) for k, s in enumerate(sweep_sessions(seed))]
    return cases


def test_structure_equations_match_reference_on_models_and_random_frames(kt4_session, nil6_session, torus_session):
    cases = model_frames(kt4_session, nil6_session, torus_session)
    rng = random.Random(27)
    cases += [(f"random n={n}", random_frame(rng, 2 * n)) for n in range(1, 7)]
    terms = sum(assert_same_equations(frame, label) for label, frame in cases)
    assert len(cases) == 19 and terms > 500


def test_structure_equations_match_reference_on_fuzzed_manifests(monkeypatch):
    """Every frame whose structure equations the 300 mutated manifests of test_fuzz reach at parse,
    also where validation then refuses the model.  validate_model reads them through frame_blocks, so
    both caches start empty."""
    lie.validate_model.cache_clear()
    frame_blocks.cache_clear()
    frames = []
    build = lie._structure_equations
    monkeypatch.setattr(lie, "_structure_equations", lambda frame: frames.append(frame) or build(frame))
    parsed = 0
    for seed in SEEDS:
        rng = random.Random(seed)
        for name in BASES:
            raw = _load(name)
            for _ in range(CASES_PER_BASE):
                try:
                    manifest_from_dict(mutate(raw, rng))
                    parsed += 1
                except (ParseError, ValidationError, lie.DegenerateJ, NotPositive, InconsistentModel):
                    pass
    monkeypatch.undo()
    distinct = list({frame: None for frame in frames})
    for frame in distinct:
        assert_same_equations(frame, frame.algebra, frame.structure)
        assert jacobi(frame) == all_generator_jacobi(frame)
    assert parsed >= 20 and len(distinct) >= 8


def broken_brackets(spec: lie.LieAlgebraSpec, rng: random.Random) -> lie.LieAlgebraSpec:
    """The algebra with one structure constant changed, an existing one or a new one: most such tables break Jacobi."""
    table = {(i, j, k): v for (i, j, k, v) in spec.brackets}
    if table and rng.random() < 0.5:
        key = rng.choice(sorted(table))
    else:
        key = (*sorted(rng.sample(range(1, spec.dim + 1), 2)), rng.randint(1, spec.dim))
    table[key] = table.get(key, 0) + Fraction(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
    return lie.LieAlgebraSpec.from_entries(spec.dim, [(*key, v) for key, v in table.items()])


def test_theta_only_jacobi_matches_the_all_generator_check(kt4_session, nil6_session, torus_session):
    """Verdicts, failing lists and details agree on passing models and on bracket tables broken on purpose."""
    cases = model_frames(kt4_session, nil6_session, torus_session)
    rng = random.Random(30)
    for label, frame in list(cases):
        for k in range(3):
            cases.append((f"{label} broken {k}", lie.build_frame(broken_brackets(frame.algebra, rng), frame.structure)))
    verdicts = {"passed": 0, "all fail": 0, "some fail": 0}
    for label, frame in cases:
        check = jacobi(frame)
        assert check == all_generator_jacobi(frame), label
        failing = check.detail.count("(")
        verdicts["passed" if check.passed else "all fail" if failing == 2 * frame.n else "some fail"] += 1
    assert verdicts["passed"] >= 13 and verdicts["all fail"] >= 10 and verdicts["some fail"] >= 1, verdicts
