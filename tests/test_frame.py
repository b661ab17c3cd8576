from fractions import Fraction

import pytest

from acx import linalg
from acx.cli import Session, parse_manifest
from acx.forms import BasisElement, Form
from acx.lie import (
    AlmostComplexStructure,
    DegenerateJ,
    LieAlgebraSpec,
    build_frame,
    exterior_d_on_generators,
    split_d,
    validate_model,
)
from acx.operators import nijenhuis_rank
from acx.scalars import ZERO, Scalar, rational

from conftest import bundled_manifest_path

HALF = Fraction(1, 2)


def mono(holo, anti, coeff):
    return Form.monomial(BasisElement((), holo, anti), coeff)


def test_torus_frame_standard():
    spec = LieAlgebraSpec.from_entries(4, [])
    j = AlmostComplexStructure(
        (
            (Fraction(0), Fraction(-1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        )
    )
    frame = build_frame(spec, j)
    # Z_1 = (e_1 - i e_2)/2, Z_2 = (e_3 - i e_4)/2
    assert frame.z_vectors[0] == (rational(1, 2), Scalar(Fraction(0), -HALF), rational(0), rational(0))
    assert frame.z_vectors[1] == (rational(0), rational(0), rational(1, 2), Scalar(Fraction(0), -HALF))
    # duality theta^j(Z_k) = delta, theta^j(conj Z_k) = 0
    for jdx in range(2):
        for k in range(2):
            pair = sum((a * b for a, b in zip(frame.theta[jdx], frame.z_vectors[k])), rational(0))
            assert pair == (rational(1) if jdx == k else rational(0))
            pair_bar = sum((a * b for a, b in zip(frame.theta[jdx], frame.z_bar(k))), rational(0))
            assert pair_bar == rational(0)
    diffs = exterior_d_on_generators(frame)
    assert all(f.is_zero() for f in diffs.values())


def test_degenerate_j_rejected():
    spec = LieAlgebraSpec.from_entries(2, [])
    j = AlmostComplexStructure(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))))
    with pytest.raises(DegenerateJ):
        build_frame(spec, j)


def test_kt4_structure_equations(kt4_session):
    """The derived complex structure equations, coefficient for coefficient."""
    frame = kt4_session.frame
    # theta^1 = e^1 + i e^2
    assert frame.theta[0] == (rational(1), Scalar(Fraction(0), Fraction(1)), rational(0), rational(0))
    diffs = exterior_d_on_generators(frame)
    assert diffs[("h", 1)].is_zero()
    parts = split_d(diffs)
    quarter = rational(1, 4)
    assert parts["partial"][("h", 2)] == mono((1, 2), (), -quarter)
    assert parts["dbar"][("h", 2)] == mono((1,), (2,), -quarter) + mono((2,), (1,), -quarter)
    assert parts["mubar"][("h", 2)] == mono((), (1, 2), quarter)
    assert ("h", 2) not in parts["mu"]
    # conjugation symmetry: the mu action on tbar^s is the conjugate of mubar on theta^s
    assert parts["mu"][("a", 2)] == parts["mubar"][("h", 2)].conjugate()
    assert parts["partial"][("a", 2)] == parts["dbar"][("h", 2)].conjugate()


def nijenhuis_coefficient(frame, t, j, k):
    """N^t_{jk}, read off mubar theta^t = (1/2) sum over ordered (j, k) of N^t_{jk} tbar^j ^ tbar^k."""
    mubar = split_d(exterior_d_on_generators(frame))["mubar"].get(("h", t), Form())
    if j > k:
        return -nijenhuis_coefficient(frame, t, k, j)
    return mubar.coeffs.get(BasisElement((), (), (j, k)), ZERO)


def test_nijenhuis_coefficients(kt4_session):
    # mubar theta^2 = (1/4) tbar^1 ^ tbar^2 pins N^2_{12} = 1/4
    assert nijenhuis_coefficient(kt4_session.frame, 2, 1, 2) == rational(1, 4)
    assert nijenhuis_coefficient(kt4_session.frame, 2, 2, 1) == rational(-1, 4)
    assert nijenhuis_coefficient(kt4_session.frame, 1, 1, 2) == rational(0)


def test_nijenhuis_rank_values(kt4_session, torus_session, nil6_session, kodaira_session):
    assert nijenhuis_rank(torus_session.frame) == 0
    assert nijenhuis_rank(kt4_session.frame) == 1
    assert nijenhuis_rank(nil6_session.frame) == 3
    assert nijenhuis_rank(kodaira_session.frame) == 0
    assert not split_d(exterior_d_on_generators(kodaira_session.frame))["mubar"]


def test_validate_passes_on_bundled(kt4_session):
    report = validate_model(kt4_session.spec.algebra, kt4_session.spec.structure)
    assert report.passed


def test_validate_catches_jacobi_failure():
    spec = LieAlgebraSpec.from_entries(
        4, [(1, 2, 1, Fraction(1)), (1, 3, 2, Fraction(1))]
    )
    j = AlmostComplexStructure(
        (
            (Fraction(0), Fraction(-1), Fraction(0), Fraction(0)),
            (Fraction(1), Fraction(0), Fraction(0), Fraction(0)),
            (Fraction(0), Fraction(0), Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(0), Fraction(1), Fraction(0)),
        )
    )
    report = validate_model(spec, j)
    names = {c.name: c.passed for c in report.checks}
    assert names["J-squares-to-minus-identity"]
    assert not names["jacobi-via-d-squared"]
    assert not report.passed


def test_bracket_table_rejects_bad_entries():
    with pytest.raises(ValueError):
        LieAlgebraSpec.from_entries(4, [(1, 1, 2, Fraction(1))])
    with pytest.raises(ValueError):
        LieAlgebraSpec.from_entries(4, [(0, 2, 3, Fraction(1))])
    with pytest.raises(ValueError):
        LieAlgebraSpec.from_entries(
            4, [(1, 2, 3, Fraction(1)), (2, 1, 3, Fraction(1))]
        )


def test_one_manifest_builds_one_frame(monkeypatch):
    """validate_model at parse and Session share build_frame's memo: one frame, one duality solve."""
    validate_model.cache_clear()
    build_frame.cache_clear()
    solves = []
    solve_many = linalg.solve_many
    monkeypatch.setattr(linalg, "solve_many", lambda *args, **kwargs: solves.append(args) or solve_many(*args, **kwargs))
    spec = parse_manifest(bundled_manifest_path("kt4"))
    session = Session(spec)
    assert build_frame.cache_info().misses == 1 and len(solves) == 1
    assert session.frame is build_frame(spec.algebra, spec.structure)
