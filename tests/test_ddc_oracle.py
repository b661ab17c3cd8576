"""Differential oracle for the real ddc quotient that the diamond reports.

`special_11_quotients` reads `h11_ddc_real` off complex ranks: dim ker(del dbar)
on (1,1) minus rank d^{1,1}, guarded by del dbar . d^{1,1} = 0.  The reference
is the realified quotient `quotient_dim(*real_ddc_parts(engine))` in doubled
coordinates.  On every model both give the same number or raise the same
exception type; the models include ones whose guard fails.  The de Rham and
Bott-Chern guards that `special_11_quotients` checks first hold on all of
them, so an exception it raises here is the ddc guard's.
"""

import json
import random
from fractions import Fraction

import pytest

from acx import linalg
from acx.cli import Session, main, manifest_from_dict, run
from acx.linalg import NotContained
from acx.operators import FormComplex

from conftest import _mat_inv, _mat_mul, bundled_manifest_path, engine_on, random_4d_session, real_ddc_parts


def outcome(compute):
    """The value, or the type of the exception that stops the computation."""
    try:
        return compute()
    except Exception as exc:
        return type(exc)


def both_ways(engine) -> tuple:
    """h11_ddc_real from complex ranks (the diamond's) and from the realified reference."""
    return (
        outcome(lambda: engine.special_11_quotients()["h11_ddc_real"]),
        outcome(lambda: linalg.quotient_dim(*real_ddc_parts(engine))),
    )


def kt4_raw() -> dict:
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def random_j_kt4(rng: random.Random) -> dict:
    """kt4's brackets and actions with J = P J0 P^-1 for a random rational P, not transported with them."""
    raw = kt4_raw()
    j0 = [[Fraction(x) for x in row] for row in raw["J"]]
    while True:
        p = [[Fraction(rng.randint(-2, 2)) for _ in range(4)] for _ in range(4)]
        q = _mat_inv(p)
        if q is not None:
            break
    raw["J"] = [[str(x) for x in row] for row in _mat_mul(_mat_mul(p, j0), q)]
    raw["name"] = f"kt4-random-j-{rng.randint(0, 10**9)}"
    del raw["metric"]
    return raw


def oracle_cases(kt4_session, torus_session, kodaira_session, fourier_sessions):
    """(label, engine) of every model the oracle runs on."""
    cases = [(f"kt4 shell {s}", engine_on(kt4_session, kt4_session.spec.coefficients.shell(s))) for s in range(5)]
    cases += [(f"kt4 N={n}", kt4_session.engine(n)) for n in range(3)]
    cases += [("torus4", torus_session.engine()), ("kodaira4", kodaira_session.engine())]
    rng = random.Random(4242)
    cases += [(f"random {k}", random_4d_session(rng).engine()) for k in range(20)]
    for label, session in fourier_sessions:
        if session.frame.n == 2:
            cases += [(f"{label} N={n}", session.engine(n)) for n in range(3)]
    rng = random.Random(3)
    for k in range(12):
        session = Session(manifest_from_dict(random_j_kt4(rng)))
        cases += [(f"kt4 random J {k} N={n}", session.engine(n)) for n in (0, 1)]
    swapped = kt4_raw()
    swapped["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    cases.append(("kt4 J swapped N=1", Session(manifest_from_dict(swapped)).engine(1)))
    return cases


def test_complex_ddc_quotient_matches_realified_reference(kt4_session, torus_session, kodaira_session, fourier_sessions):
    seen = set()
    for label, engine in oracle_cases(kt4_session, torus_session, kodaira_session, fourier_sessions):
        fast, reference = both_ways(engine)
        assert fast == reference, (label, fast, reference)
        seen.add(fast)
    # both numbers and guard failures occur, so the oracle exercises the guard
    assert {3, 4, NotContained} <= seen, seen


def test_diamond_realifies_nothing(capsys, monkeypatch):
    """No real basis is consumed by `diamond`, so it builds no realified matrix and no conjugation block."""
    calls = []
    realify, conj_struct = linalg.realify, FormComplex.conj_struct
    monkeypatch.setattr(linalg, "realify", lambda *args: calls.append("realify") or realify(*args))
    monkeypatch.setattr(FormComplex, "conj_struct", lambda cx, *args: calls.append("conj_struct") or conj_struct(cx, *args))
    assert main(["diamond", bundled_manifest_path("kt4"), "--truncations", "0,1,2,3", "--format", "json"]) == 0
    assert main(["diamond", bundled_manifest_path("torus4"), "--format", "json"]) == 0
    capsys.readouterr()
    assert calls == []


def test_ddc_guard_fires_when_the_acting_directions_span_no_j_plane(fourier_sessions):
    """kt4's own J with the torus acting along e1 and e3, which span no J-invariant plane (J e1 = e2).

    At truncation 1 both the spectral guard (`dolbeault_cw`) and the ddc guard
    (`special_11_quotients`, and the realified reference of the ddc quotient)
    raise NotContained.  `diamond` reads the spectral numbers first, so its
    fatal is the spectral guard's.  `verify` fails the three claims that read
    the real ddc quotient.  This pins the behaviour that ROADMAP item 3's
    hypothesis has to account for; it asserts no lemma.
    """
    sessions = dict(fourier_sessions)
    for label in ("kt4-fourier-rank1", "kt4-fourier-rank2"):
        session = sessions[label]
        model = session.spec.coefficients
        assert model.truncation == 1 and model.acting_frame_indices() == [1, 3], label
        engine = session.engine()
        with pytest.raises(NotContained):
            engine.dolbeault_cw(1, 1)
        assert both_ways(engine) == (NotContained, NotContained), label
        payload, code = run("diamond", session, {})
        assert code == 2 and payload["fatal"]["type"] == "NotContained", (label, payload.get("fatal"))
        payload, code = run("verify", session, {})
        assert code == 0, label
        failing = {a["claim"] for a in payload["audits"] if a["status"] == "fail"}
        want = {"ddbar-annihilates-first-order-images", "generalized-ddbar-lemma", "ddc-descent-injective"}
        assert failing == want, (label, failing)
