import json
from functools import wraps
from math import comb

import pytest

from acx import cli
from acx.audits import audit_identities
from acx.cli import (
    KNOWN_TASKS,
    MAX_BASIS_MONOMIALS,
    MAX_INVARIANT_BLOCK,
    ParseError,
    Session,
    ValidationError,
    check_basis_size,
    check_flags,
    check_invariant_block,
    main,
    manifest_from_dict,
    parse_manifest,
    render_json,
    run,
)
from acx.operators import FormComplex, memoized

from conftest import bundled_manifest_path, load_bench_module


def count_complexes(monkeypatch) -> list:
    """A list that gets one entry per FormComplex constructed from now on."""
    built = []
    init = FormComplex.__init__
    monkeypatch.setattr(FormComplex, "__init__", lambda cx, *args: built.append(1) or init(cx, *args))
    return built


def kt4_raw():
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_parse_bundled_manifests():
    for name in ("kt4", "torus4", "nil6"):
        spec = parse_manifest(bundled_manifest_path(name))
        assert spec.name == name
    kt4 = parse_manifest(bundled_manifest_path("kt4"))
    assert kt4.algebra.brackets == ((2, 3, 4, 1),)
    assert kt4.coefficients.kind == "torus_fourier"
    assert kt4.coefficients.truncation == 1


def test_manifest_roundtrip():
    raw = kt4_raw()
    spec = manifest_from_dict(raw)
    again = manifest_from_dict(spec.as_dict())
    assert again.as_dict() == spec.as_dict()


def test_parse_errors(tmp_path, capsys, monkeypatch):
    with pytest.raises(ParseError):
        parse_manifest("/nonexistent/path.json")
    raw = kt4_raw()
    del raw["real_dim"]
    with pytest.raises(ParseError):
        manifest_from_dict(raw)
    raw = kt4_raw()
    raw["brackets"] = [[1, 2, 3]]
    with pytest.raises(ParseError):
        manifest_from_dict(raw)
    raw = kt4_raw()
    raw["tasks"] = ["explode"]
    with pytest.raises(ParseError):
        manifest_from_dict(raw)
    # true is an int to Python but not a manifest integer: a ParseError naming the field, exit 2
    for field in ("real_dim", "coefficients.rank", "coefficients.truncation", "brackets[0]"):
        raw = kt4_raw()
        if field == "brackets[0]":
            raw["brackets"][0][0] = True
        elif field == "real_dim":
            raw["real_dim"] = True
        else:
            raw["coefficients"][field.split(".")[1]] = True
        with pytest.raises(ParseError) as exc:
            manifest_from_dict(raw)
        assert exc.value.field == field
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ParseError" and fatal["detail"].startswith(f"{field}:"), fatal
    # a frame vector acts on Fourier modes through a rational row; "i" would break d(conj f) = conj(d f)
    raw = kt4_raw()
    raw["coefficients"]["actions"][0] = ["i", "0"]
    with pytest.raises(ParseError) as exc:
        manifest_from_dict(raw)
    assert exc.value.field == "coefficients.actions[0]"
    path = tmp_path / "imaginary_action.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["verify", str(path), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["fatal"]["detail"].startswith("coefficients.actions[0]:")
    # exponent notation is refused before Fraction expands it: "1e4000000" alone takes seconds
    for field, value in (("brackets[0]", "1e4000000"), ("J[0]", "1E9"), ("metric[0]", "1/2+1e4000000*i")):
        raw = kt4_raw()
        if field == "brackets[0]":
            raw["brackets"][0][3] = value
        elif field == "J[0]":
            raw["J"][0][1] = value
        else:
            raw["metric"][0][0] = value
        with pytest.raises(ParseError) as exc:
            manifest_from_dict(raw)
        assert exc.value.field == field
        path = tmp_path / "exponent.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ParseError" and fatal["detail"].startswith(f"{field}:"), fatal
    # a JSON float is rounded to a double before any parser sees it: refused, never read
    for field, value in (
        ("coefficients.actions[0]", 0.33333333333333333333),
        ("brackets[0]", 1.00000000000000000001),
        ("J[0]", 1.0),
        ("metric[0]", 0.5),
    ):
        raw = kt4_raw()
        if field == "coefficients.actions[0]":
            raw["coefficients"]["actions"][0][0] = value
        elif field == "brackets[0]":
            raw["brackets"][0][3] = value
        elif field == "J[0]":
            raw["J"][0][1] = value
        else:
            raw["metric"][0][1] = value
        with pytest.raises(ParseError) as exc:
            manifest_from_dict(raw)
        assert exc.value.field == field
        path = tmp_path / "float.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["validate", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ParseError" and fatal["detail"].startswith(f"{field}:"), fatal
    # JSON integers are exact and stay accepted
    raw = kt4_raw()
    raw["brackets"][0][3] = 1
    raw["coefficients"]["actions"][0] = [1, 0]
    assert manifest_from_dict(raw).algebra.brackets == ((2, 3, 4, 1),)
    # unreadable files: a directory, bytes that are not UTF-8, an integer literal past Python's digit limit,
    # arrays nested deeper than the JSON decoder recurses
    long_int = tmp_path / "long_int.json"
    long_int.write_text(json.dumps(kt4_raw())[:-1] + ', "pad": ' + "7" * 4400 + "}", encoding="utf-8")
    latin = tmp_path / "latin.json"
    latin.write_bytes(b'{"name": "\xff"}')
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
    for path in (tmp_path, latin, long_int, deep):
        with pytest.raises(ParseError) as exc:
            parse_manifest(str(path))
        assert exc.value.field == str(path)
        assert main(["validate", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ParseError" and fatal["detail"].startswith(f"{path}:"), fatal
    # a truncation whose basis passes the limit is refused at parse, before any complex is built
    built = count_complexes(monkeypatch)
    raw = kt4_raw()
    raw["coefficients"]["truncation"] = 100000
    with pytest.raises(ValidationError):
        manifest_from_dict(raw)
    path = tmp_path / "huge_truncation.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["diamond", str(path), "--format", "json"]) == 2
    assert json.loads(capsys.readouterr().out)["fatal"]["type"] == "ValidationError"
    assert not built

def test_report_validates_the_model_once(monkeypatch, capsys):
    """Parse time and the report's validation section share one Jacobi d(d theta) check."""
    from acx import forms, lie

    calls = []
    leibniz = forms.leibniz

    def counting_leibniz(images, terms):
        calls.append(1)
        return leibniz(images, terms)

    monkeypatch.setattr(forms, "leibniz", counting_leibniz)
    lie.validate_model.cache_clear()
    assert main(["report", bundled_manifest_path("kt4"), "--truncations", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["validation"]["passed"]
    # one d(d theta) per coframe generator of the 4-dimensional model
    assert len(calls) == 4


def test_diamond_extends_derivations_on_invariant_monomials_only(monkeypatch, capsys):
    """The Leibniz rule runs on invariant monomials, once per frame: the number of
    leibniz calls is the same for one truncation as for four."""
    from acx import forms, lie, operators

    calls = []
    for module in (forms, operators):
        leibniz = module.leibniz
        monkeypatch.setattr(module, "leibniz", lambda *args, leibniz=leibniz: calls.append(1) or leibniz(*args))
    counts = []
    for truncations in ("0", "0,1,2,3"):
        lie.validate_model.cache_clear()
        operators.frame_blocks.cache_clear()
        calls.clear()
        assert main(["diamond", bundled_manifest_path("kt4"), "--truncations", truncations, "--format", "json"]) == 0
        capsys.readouterr()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _sweep_manifest_path(tmp_path, k: int) -> str:
    """The k-th model of the benchmark sweep at seed 0, written to a file."""
    raw = load_bench_module("models").sweep_manifests(0, 3, 2)[k]
    path = tmp_path / f"sweep-{k}.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    return str(path)


def test_diamond_builds_no_star_and_no_adjoint(tmp_path, monkeypatch, capsys):
    """Harmonic systems pair each differential with the Gram matrix: no Hodge star, no adjoint block.

    kt4 is almost Kaehler and the sweep's first model is not; verify, whose audits do use star
    and adjoints, shows the counters see them.
    """
    from acx import lie, metric, operators

    stars, adjoints = [], []
    build_star = metric.PointwiseMetric._star
    adjoint = metric.HermitianStructure.adjoint_block
    monkeypatch.setattr(metric.PointwiseMetric, "_star", lambda pm, p, q: stars.append((p, q)) or build_star(pm, p, q))
    monkeypatch.setattr(metric.HermitianStructure, "adjoint_block", lambda h, *a: adjoints.append(a) or adjoint(h, *a))
    sweep = _sweep_manifest_path(tmp_path, 0)
    for path, flags in ((bundled_manifest_path("kt4"), ["--truncations", "0,1"]), (sweep, [])):
        lie.validate_model.cache_clear()
        operators.frame_blocks.cache_clear()
        metric.pointwise_metric.cache_clear()
        assert main(["diamond", path, *flags, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["diamonds"]["tables"]["harmonic"]
        assert not stars and not adjoints
    metric.pointwise_metric.cache_clear()
    assert main(["verify", bundled_manifest_path("kt4"), "--truncations", "0", "--format", "json"]) == 0
    capsys.readouterr()
    assert stars and adjoints


def test_engine_numbers_and_hat_kernel_are_built_once(tmp_path, monkeypatch, capsys):
    """Within one engine each refined and spectral quotient is computed once, and the hat
    system [T | S] once: the diamond, the audits and the taming hypothesis share them."""
    from acx.cohomology import CohomologyEngine

    calls = []

    def counting(name):
        """The method counting each run of its body: a memoized body is counted inside the memo."""
        method = getattr(CohomologyEngine, name)
        body = getattr(method, "__wrapped__", method)

        @wraps(body)
        def count(eng, *a):
            calls.append((id(eng), name, a))
            return body(eng, *a)

        return count if body is method else memoized(count)

    for name in ("refined_parts", "dolbeault_cw_parts", "_hat_maps"):
        monkeypatch.setattr(CohomologyEngine, name, counting(name))
    jobs = [
        ["verify", bundled_manifest_path("kt4"), "--truncations", "2"],
        ["report", _sweep_manifest_path(tmp_path, 3)],
    ]
    for job in jobs:
        calls.clear()
        assert main([*job, "--format", "json"]) == 0
        capsys.readouterr()
        refined = [c for c in calls if c[1] == "refined_parts"]
        assert len(set(refined)) == len(refined) and any(c[2] == (1, 0) for c in refined)
        spectral = [c for c in calls if c[1] == "dolbeault_cw_parts"]
        assert len(set(spectral)) == len(spectral) and any(c[2] == (2, 0) for c in spectral)
        # once for the hat system, once for hat_h01's parts
        hat = [c for c in calls if c[1] == "_hat_maps"]
        assert 0 < len(hat) <= 2 * len({c[0] for c in hat})


def test_validation_error_names_invariant():
    raw = kt4_raw()
    raw["J"][0][0] = "1"
    with pytest.raises(ValidationError) as exc:
        manifest_from_dict(raw)
    assert exc.value.invariant == "AlmostComplexStructure"
    raw = kt4_raw()
    raw["brackets"] = [[1, 2, 1, "1"], [1, 3, 2, "1"]]
    with pytest.raises(ValidationError) as exc:
        manifest_from_dict(raw)
    assert exc.value.invariant == "LieAlgebraSpec"
    raw = kt4_raw()
    raw["metric"] = [["1", "1"], ["1", "1"]]
    with pytest.raises(ValidationError) as exc:
        manifest_from_dict(raw)
    assert exc.value.invariant == "HermitianMetric"


def test_validate_command(kt4_session):
    payload, code = run("validate", kt4_session, {})
    assert code == 0
    assert payload["validation"]["passed"]


def test_verify_command_torus(torus_session):
    payload, code = run("verify", torus_session, {})
    assert code == 0
    assert all(a["status"] in ("pass", "not-applicable") for a in payload["audits"])


def test_diamond_command(kt4_session):
    payload, code = run("diamond", kt4_session, {"truncations": "0,1,2,3"})
    assert code == 0
    d = payload["diamonds"]
    assert d["tables"]["refined"]["1,1"] == [3, 11, 27, 51]
    assert {"theory": "refined", "cell": "1,1"} in d["unbounded_witnesses"]
    assert {"theory": "refined", "cell": "2,1"} in d["unbounded_witnesses"]


def test_diamond_bidegree_filter(kt4_session):
    payload, _ = run("diamond", kt4_session, {"truncations": "0,1", "bidegree": "1,1"})
    assert list(payload["diamonds"]["tables"]["refined"]) == ["1,1"]


def test_taming_command(kt4_session):
    payload, code = run("taming", kt4_session, {"psi": "fundamental"})
    assert code == 0
    (cert,) = payload["certificates"]
    assert cert["status"] == "certified"
    assert cert["closed"] and cert["well_defined"]
    assert cert["u"] == {}


def test_taming_no_solution_reported(kodaira_session):
    payload, code = run("taming", kodaira_session, {"psi": "fundamental"})
    assert code == 0  # a model-level obstruction is an outcome, not a crash
    (cert,) = payload["certificates"]
    assert cert["status"] == "no-solution"
    assert cert["obstruction"]["pairing"] != "0"


def test_report_nil6_gates_four_dim_audits(nil6_session):
    payload, code = run("report", nil6_session, {})
    assert code == 0
    claims = {a["claim"]: a["status"] for a in payload["audits"]}
    assert claims["maximal-nijenhuis-vanishing"] == "pass"
    assert "closed-one-zero-forms" not in claims  # four-dimensional audits skipped
    assert "certificates" not in payload or payload["certificates"] == []


def test_exit_code_on_truncations_for_invariant(torus_session):
    payload, code = run("diamond", torus_session, {"truncations": "0,1"})
    assert code == 2
    assert payload["fatal"]["type"] == "ValidationError"


def test_cli_main_table(capsys):
    code = main(["validate", bundled_manifest_path("torus4")])
    out = capsys.readouterr().out
    assert code == 0
    assert "validation: PASS" in out


def test_cli_main_json_fatal(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{не json", encoding="utf-8")
    code = main(["validate", str(bad), "--format", "json"])
    assert code == 2
    out = capsys.readouterr().out
    assert json.loads(out)["fatal"]["type"] == "ParseError"


def test_diamond_guard_fires_on_kt4_with_j_swapped(tmp_path, capsys):
    """kt4 with J e1 = e3, J e2 = e4 at truncation 1: the spectral containment guard stops
    diamond with the NotContained fatal, and verify completes."""
    raw = kt4_raw()
    raw["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    path = tmp_path / "kt4-j-swapped.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    assert main(["diamond", str(path), "--truncations", "1", "--format", "json"]) == 2
    fatal = json.loads(capsys.readouterr().out)["fatal"]
    assert fatal == {"type": "NotContained", "detail": "denominator vector escapes the numerator subspace"}
    assert main(["verify", str(path), "--truncations", "1", "--format", "json"]) == 0


def test_report_determinism(kt4_session):
    """Two runs produce byte-identical machine output, timing aside."""
    flags = {"truncations": "0,1"}
    first, _ = run("report", Session(kt4_session.spec), dict(flags))
    second, _ = run("report", Session(kt4_session.spec), dict(flags))
    first.pop("timing")
    second.pop("timing")
    assert render_json(first) == render_json(second)


def test_check_flags_sets_every_default(kt4_session, torus_session, nil6_session):
    """Truncations come back as ints, the manifest's or 0 for an invariant model, and psi as a selector."""
    cases = ((kt4_session, [1], ["N=1"]), (torus_session, [0], ["invariant"]), (nil6_session, [0], ["invariant"]))
    for session, truncations, labels in cases:
        # run's callers pass no flags, or main's flags with nothing given
        for flags in ({}, {"truncations": None, "bidegree": None, "psi": None}):
            out = check_flags(session, flags)
            assert out["truncations"] == truncations and all(type(t) is int for t in out["truncations"])
            assert [session.truncation_label(t) for t in out["truncations"]] == labels
            assert out["psi"] == "fundamental"
    out = check_flags(kt4_session, {"truncations": "0,2", "psi": "basis:3", "bidegree": "1,0"})
    assert (out["truncations"], out["psi"], out["bidegree"]) == ([0, 2], "basis:3", (1, 0))


@pytest.mark.parametrize("command", KNOWN_TASKS)
def test_every_command_labels_invariant_models_invariant(command, torus_session, nil6_session):
    for session in (torus_session, nil6_session):
        payload, code = run(command, session, {})
        labels = payload.get("diamonds", {}).get("labels", [])
        labels += [a["witness"]["truncation"] for a in payload.get("audits", [])]
        labels += [c["truncation"] for c in payload.get("certificates", [])]
        # validate reports no truncation, and taming nil6 is refused off dimension four
        fatal = command == "taming" and session is nil6_session
        assert code == (2 if fatal else 0), (command, payload.get("fatal"))
        assert set(labels) == (set() if command == "validate" or fatal else {"invariant"}), command


def test_report_with_no_psi_certifies_fundamental(kt4_session):
    for flags in ({}, {"psi": None}):
        payload, code = run("report", kt4_session, flags)
        (cert,) = payload["certificates"]
        assert code == 0 and (cert["selector"], cert["status"]) == ("fundamental", "certified")


def test_verify_gives_each_truncation_its_own_witness_dicts(kt4_session, monkeypatch):
    """verify --truncations 0,1,2,3 audits the identities on engine(0) and engine(1) only, and every
    item of every truncation gets a new witness dict with its own label; the audited items are not touched."""
    audited = []
    monkeypatch.setattr(cli, "audit_identities", lambda engine: audited.append(audit_identities(engine)) or audited[-1])
    payload, code = run("verify", Session(kt4_session.spec), {"truncations": "0,1,2,3"})
    assert code == 0 and len(audited) == 2
    assert not any("truncation" in item.witness for items in audited for item in items)
    witnesses = [a["witness"] for a in payload["audits"]]
    assert len({id(w) for w in witnesses}) == len(witnesses)
    per_truncation = len(witnesses) // 4
    assert [w["truncation"] for w in witnesses] == [f"N={t}" for t in range(4) for _ in range(per_truncation)]


@pytest.mark.parametrize(
    "flags",
    [
        ["--truncations", "a"],
        ["--truncations", "-1"],
        ["--truncations", "0,,1"],
        ["--bidegree", "x"],
        ["--bidegree", "3,0"],
        ["--psi", "basis:-1"],
        ["--psi", "basis:x"],
        ["--truncations", "3,2,1,0"],
        ["--truncations", "1,1"],
        ["--truncations", "0,2,1"],
        # past Python's int-from-text digit limit
        ["--truncations", "9" * 5000],
        ["--bidegree", "1," + "9" * 5000],
        ["--psi", "basis:" + "9" * 5000],
        # parseable, but the basis would pass MAX_BASIS_MONOMIALS
        ["--truncations", "100000"],
        ["--truncations", "0,1,40"],
    ],
)
def test_bad_flags_are_fatal(flags, capsys, monkeypatch):
    built = count_complexes(monkeypatch)
    code = main(["diamond", bundled_manifest_path("kt4"), "--format", "json", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.out)["fatal"]["type"] == "ValidationError"
    assert "Traceback" not in captured.err
    assert not built


def test_taming_with_several_truncations_is_fatal(capsys, monkeypatch):
    """A certificate is for one truncation: `taming` refuses a list before any complex is built."""
    built = count_complexes(monkeypatch)
    assert main(["taming", bundled_manifest_path("kt4"), "--truncations", "1,2", "--format", "json"]) == 2
    fatal = json.loads(capsys.readouterr().out)["fatal"]
    assert fatal["type"] == "ValidationError" and "one truncation" in fatal["detail"], fatal
    assert not built


def abelian_manifest(real_dim: int) -> dict:
    """The abelian invariant model of this dimension with its standard J."""
    j = [["0"] * real_dim for _ in range(real_dim)]
    for k in range(0, real_dim, 2):
        j[k][k + 1], j[k + 1][k] = "-1", "1"
    return {"name": f"torus{real_dim}", "real_dim": real_dim, "brackets": [], "J": j, "tasks": []}


def test_invariant_basis_is_bounded_at_parse(tmp_path, capsys, monkeypatch):
    """4^(real_dim / 2) invariant monomials: real_dim 18 and 40 are refused before any complex is built.

    So are 2^62 and 10^30, whose n = real_dim / 2 is past the C ssize_t range:
    the count is refused before J, here a 4 x 4 matrix, is read.
    """
    assert 4**8 <= MAX_BASIS_MONOMIALS < 4**9
    check_basis_size(8, 0, 0)
    built = count_complexes(monkeypatch)
    for real_dim in (18, 40, 2**62, 10**30):
        raw = abelian_manifest(real_dim) if real_dim <= 40 else {**abelian_manifest(4), "real_dim": real_dim}
        with pytest.raises(ValidationError) as exc:
            manifest_from_dict(raw)
        assert f"real_dim {real_dim}" in str(exc.value)
        path = tmp_path / f"torus{real_dim}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["diamond", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ValidationError" and "real_dim" in fatal["detail"], fatal
    assert not built


def test_invariant_block_is_bounded_at_parse(tmp_path, capsys, monkeypatch):
    """real_dim 12 (middle block 20 * 20) is accepted; 14 (35 * 35) and 16 (70 * 70) are refused before any complex is built."""
    assert comb(6, 3) ** 2 <= MAX_INVARIANT_BLOCK < comb(7, 3) * comb(7, 4)
    assert manifest_from_dict(abelian_manifest(12)).real_dim == 12
    built = count_complexes(monkeypatch)
    for real_dim in (14, 16):
        raw = abelian_manifest(real_dim)
        with pytest.raises(ValidationError) as exc:
            manifest_from_dict(raw)
        assert f"real_dim {real_dim}" in str(exc.value)
        path = tmp_path / f"torus{real_dim}.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["diamond", str(path), "--format", "json"]) == 2
        fatal = json.loads(capsys.readouterr().out)["fatal"]
        assert fatal["type"] == "ValidationError" and f"real_dim {real_dim}" in fatal["detail"], fatal
    assert not built
    # the check stops at the first dimension past the limit: no huge binomial is formed
    with pytest.raises(ValidationError):
        check_invariant_block(10**9)


def test_basis_size_limit():
    """kt4 (rank 2, n = 2) has (2N+1)^2 * 16 monomials: N = 39 fits the limit, N = 40 does not."""
    assert 79**2 * 16 <= MAX_BASIS_MONOMIALS < 81**2 * 16
    check_basis_size(2, 2, 39)
    with pytest.raises(ValidationError):
        check_basis_size(2, 2, 40)
    # the count stops at the first factor past the limit: no huge power is formed
    with pytest.raises(ValidationError):
        check_basis_size(2, 10**9, 10**4000)
