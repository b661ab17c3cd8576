"""Differential oracle for the truncation shells that `diamond` computes on.

`Session.shell_numbers(s)` is the diamond_numbers of one engine over the
weights with max |w_a| = s.  Summed over shells 0..N it must equal the sum
over the {w, -w} sectors (the unit the diamond was computed on before) and
the numbers of the whole truncated complex.  A model whose containment
guard fails must fail the same way on all three paths.
"""

import json
from collections import Counter

from acx import cohomology
from acx.cli import Session, manifest_from_dict, run
from acx.cohomology import diamond_numbers
from acx.linalg import NotContained

from conftest import bundled_manifest_path, engine_on, sector_model, sectors


def summed(parts):
    """The sum of the parts' diamond_numbers, or the type of the exception that stops them."""
    total = Counter()
    try:
        for numbers in parts:
            total.update(numbers)
    except Exception as exc:
        return type(exc)
    return total


def three_ways(session: Session, n: int) -> tuple:
    """Diamond numbers at truncation n summed over shells, over sectors, and of the whole complex."""
    model = session.spec.coefficients.with_truncation(n)
    fresh = Session(session.spec)
    return (
        summed(fresh.shell_numbers(s) for s in range(n + 1)),
        summed(diamond_numbers(engine_on(session, sector_model(model, w))) for w in sectors(model)),
        summed(diamond_numbers(engine_on(session, m)) for m in [model]),
    )


def kt4_with_j_swapped() -> Session:
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    return Session(manifest_from_dict(raw))


def test_shells_match_sectors_and_whole_complex_on_kt4(kt4_session):
    for n in range(5):
        by_shell, by_sector, whole = three_ways(kt4_session, n)
        assert isinstance(by_shell, Counter), n
        assert by_shell == by_sector == whole, n


def test_shells_match_sectors_and_whole_complex_on_fourier_models(fourier_sessions):
    """Every seeded torus_fourier model and kt4-degenerate at N = 0..2; several of them stop with
    NotContained at N >= 1, and then each path raises it."""
    outcomes = set()
    for label, session in fourier_sessions:
        for n in range(3):
            by_shell, by_sector, whole = three_ways(session, n)
            assert by_shell == by_sector == whole, (label, n)
            outcomes.add(by_shell if isinstance(by_shell, type) else Counter)
    assert outcomes == {Counter, NotContained}


def test_shells_match_sectors_and_whole_complex_on_kt4_with_j_swapped():
    session = kt4_with_j_swapped()
    for n in range(3):
        by_shell, by_sector, whole = three_ways(session, n)
        assert by_shell == by_sector == whole, n
    assert by_shell is NotContained
    payload, code = run("diamond", Session(session.spec), {"truncations": "0,1,2"})
    assert code == 2 and payload["fatal"]["type"] == "NotContained"


def test_diamond_builds_one_engine_per_shell(kt4_session, monkeypatch):
    built = []
    init = cohomology.CohomologyEngine.__init__
    monkeypatch.setattr(cohomology.CohomologyEngine, "__init__", lambda eng, *args: built.append(1) or init(eng, *args))
    payload, code = run("diamond", Session(kt4_session.spec), {"truncations": "0,1,2,3"})
    assert code == 0 and payload["diamonds"]["labels"] == ["N=0", "N=1", "N=2", "N=3"]
    assert len(built) == 4
