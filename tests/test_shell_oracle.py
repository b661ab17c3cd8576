"""Differential oracle for the runs of truncation shells that `diamond` computes on.

`Session.shell_numbers(N)` groups the shells 0..N into runs of consecutive
shells (`Session.shell_runs`) and computes each run in one engine, whose
`diamond_numbers` split every number by shell off the coordinates its
spaces' dimensions are attributed to.  Each shell's numbers must equal those
of an engine over that shell alone (the unit the diamond was computed on
before), and summed over shells 0..N they must equal the sum over the
{w, -w} sectors and the numbers of the whole truncated complex.  A model
whose containment guard fails must fail the same way on every path.
"""

import json
from collections import Counter

from acx import cohomology
from acx.cli import RUN_WEIGHTS, Session, manifest_from_dict, run
from acx.cohomology import CohomologyEngine, diamond_numbers
from acx.linalg import NotContained

from conftest import bundled_manifest_path, engine_on, sector_model, sectors


def outcome(compute):
    """compute(), or the type of the exception that stops it."""
    try:
        return compute()
    except Exception as exc:
        return type(exc)


def summed(parts):
    """The sum of the parts' numbers, or the type of the exception that stops them."""
    total = Counter()
    try:
        for numbers in parts:
            total.update(numbers)
    except Exception as exc:
        return type(exc)
    return total


def values_of(compute):
    """The values of the dict compute() returns, computed when first iterated."""
    yield from compute().values()


def sector_numbers(session: Session, model):
    """The numbers of every shell of every {w, -w} sector's engine, computed when iterated."""
    for w in sectors(model):
        yield from diamond_numbers(engine_on(session, sector_model(model, w))).values()


def shell_engine_numbers(session: Session, s: int) -> dict:
    """The numbers of shell s from an engine over that shell alone."""
    spec = session.spec
    return diamond_numbers(CohomologyEngine.of(session.frame, spec.coefficients.shell(s), spec.metric))[s]


def single_shells(session: Session, shells) -> dict:
    return outcome(lambda: {s: shell_engine_numbers(session, s) for s in shells})


def three_ways(session: Session, n: int) -> tuple:
    """Diamond numbers at truncation n summed over shells, over sectors, and of the whole complex."""
    model = session.spec.coefficients.with_truncation(n)
    fresh = Session(session.spec)
    return (
        summed(values_of(lambda: fresh.shell_numbers(n))),
        summed(sector_numbers(session, model)),
        summed(values_of(lambda: diamond_numbers(engine_on(session, model)))),
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


# ---------------------------------------------------------------------------
# grouped runs against one engine per shell


def test_grouped_shells_match_single_shell_engines_on_kt4(kt4_session):
    """At N = 0..5, and on runs that start past shell 0, every shell's numbers equal its own engine's."""
    reference = single_shells(kt4_session, range(6))
    for n in range(6):
        session = Session(kt4_session.spec)
        assert session.shell_numbers(n) == {s: reference[s] for s in range(n + 1)}, n
    session = Session(kt4_session.spec)
    for first, last in ((1, 2), (2, 5), (3, 4)):
        assert session.run_numbers(first, last) == {s: reference[s] for s in range(first, last + 1)}
    # the N = 5 box is split over runs, and the first of them holds four shells
    assert session.shell_runs(5) == [(0, 3), (4, 4), (5, 5)]


def test_grouped_shells_match_single_shell_engines_on_fourier_models(fourier_sessions):
    """The seeded torus_fourier models and kt4-degenerate at N = 0..3, and on the run of shells 1..3:
    equal numbers, or NotContained on both sides."""
    outcomes = set()
    for label, session in fourier_sessions:
        for n in range(4):
            grouped = outcome(lambda: Session(session.spec).shell_numbers(n))
            assert grouped == single_shells(session, range(n + 1)), (label, n)
            outcomes.add(grouped if isinstance(grouped, type) else dict)
        grouped = outcome(lambda: Session(session.spec).run_numbers(1, 3))
        assert grouped == single_shells(session, range(1, 4)), label
    assert outcomes == {dict, NotContained}


def test_grouped_shells_raise_where_single_shells_do(fourier_sessions):
    """kt4-fourier-rank1 and the J-swapped kt4 stop in a containment guard: the grouped run raises
    NotContained exactly when some single shell of it does, and the report carries the same fatal."""
    cases = [(label, s) for label, s in fourier_sessions if label == "kt4-fourier-rank1"]
    cases.append(("kt4 J-swapped", kt4_with_j_swapped()))
    for label, session in cases:
        for n in range(3):
            grouped = outcome(lambda: Session(session.spec).shell_numbers(n))
            assert grouped == single_shells(session, range(n + 1)), (label, n)
        assert grouped is NotContained, label
        payload, code = run("diamond", Session(session.spec), {"truncations": "0,1,2"})
        assert code == 2 and payload["fatal"] == {
            "type": "NotContained", "detail": "denominator vector escapes the numerator subspace"
        }, label


def test_shell_runs_cover_the_shells_within_the_weight_bound(kt4_session, fourier_sessions):
    """Runs are consecutive, cover 0..N, and hold at most RUN_WEIGHTS weights unless a shell alone is wider."""
    sessions = [kt4_session] + [session for _, session in fourier_sessions]
    for session in sessions:
        model = session.spec.coefficients
        for n in (0, 3, 39):
            runs = session.shell_runs(n)
            assert [s for first, last in runs for s in range(first, last + 1)] == list(range(n + 1))
            for first, last in runs:
                width = len(model.shell(first, last).weights())
                assert width <= RUN_WEIGHTS or first == last, (model.rank, n, first, last)
    assert kt4_session.shell_runs(39)[:3] == [(0, 3), (4, 4), (5, 5)] and len(kt4_session.shell_runs(39)) == 37


def test_diamond_builds_one_engine_per_run(kt4_session, monkeypatch):
    built = []
    init = cohomology.CohomologyEngine.__init__
    monkeypatch.setattr(cohomology.CohomologyEngine, "__init__", lambda eng, *args: built.append(1) or init(eng, *args))
    payload, code = run("diamond", Session(kt4_session.spec), {"truncations": "0,1,2,3"})
    assert code == 0 and payload["diamonds"]["labels"] == ["N=0", "N=1", "N=2", "N=3"]
    assert len(built) == 1
    built.clear()
    payload, code = run("diamond", Session(kt4_session.spec), {"truncations": "5"})
    assert code == 0 and len(built) == 3
