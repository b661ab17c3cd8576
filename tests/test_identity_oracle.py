"""Differential oracle for the operator identities.

FormComplex.identity_suite reads the seven bidegree parts of d^2 = 0 off one
product d_total(r+1) . d_total(r) per degree, and audits.audit_identities
reads the sixteen symplectic commutators and [L, Lambda] = H off products of
total-degree operators the same way.  The evaluation they replaced is kept
here as the reference: each identity as a sum of chains checked on every
block with failing_blocks, and total d.d checked on a separately assembled
exterior differential.  The two must agree on every label, every failing
block (in order) and every failing degree, on working complexes and on
complexes and engines broken on purpose.  On a complex of one weight the
suite first decides each product on its core, the independent rows of
d_total(r+1) times the independent columns of d_total(r); there it must also
equal the reading of the whole products.
"""

import random
from dataclasses import replace

import pytest

from acx import audits, cli, cohomology, lie, linalg, operators
from acx.audits import IDENTITY_TERMS, SYMPLECTIC_COMMUTATORS, audit_identities
from acx.cli import Session, manifest_from_dict, parse_manifest, run
from acx.cohomology import CohomologyEngine
from acx.linalg import ExactMatrix
from acx.metric import HermitianStructure
from acx.operators import DIFFERENTIALS, SQUARE_ZERO_RELATIONS, FormComplex, FrameBlocks, compose, shift
from acx.scalars import I, ONE, integer, rational

from conftest import bundled_manifest_path, random_fourier_manifest

MINUS_I = -I


def reference_shift(name):
    """shift, plus the counting operator H of the Lefschetz sl(2), which preserves bidegree."""
    return (0, 0) if name == "H" else shift(name)


def reference_block(engine):
    """engine.block, read at call time, plus H = (p + q - n) id on the (p,q) block."""

    def block(name, p, q):
        if name == "H":
            return ExactMatrix.identity(engine.complex.dim(p, q)).scale(integer(p + q - engine.n))
        return engine.block(name, p, q)

    return block


def failing_blocks(block, terms, n):
    """The bidegrees (p,q) on which the sum of c . compose(block, chain, p, q) is nonzero.

    terms is a list of (c, chain) with c a Scalar; a chain that leaves the
    diamond counts as zero.  All chains must share one bidegree shift, or the
    sum would add maps into different blocks.
    """
    shifts = {tuple(map(sum, zip(*map(reference_shift, chain)))) for _, chain in terms}
    if len(shifts) != 1:
        raise ValueError(f"the chains of an identity must share one bidegree shift, not {sorted(shifts)}")
    ((sp, sq),) = shifts
    failing = []
    for p in range(max(0, -sp), min(n, n - sp) + 1):
        for q in range(max(0, -sq), min(n, n - sq) + 1):
            acc = None
            for c, chain in terms:
                # H preserves bidegree and appears alone; compose knows only the operators of acx
                prod = block("H", p, q) if chain == ["H"] else compose(block, chain, p, q)
                if prod.rows == 0:
                    continue
                if c != ONE:
                    prod = prod.scale(c)
                acc = prod if acc is None else acc + prod
            if acc is not None and not acc.is_zero():
                failing.append((p, q))
    return failing


# [a, b] = c . rhs, one row per commutator, in the order of the families of audits.SYMPLECTIC_COMMUTATORS
REFERENCE_COMMUTATORS = [
    ("L", "mubar", None),
    ("L", "mu", None),
    ("L", "dbar", None),
    ("L", "partial", None),
    ("Lambda", "mubar*", None),
    ("Lambda", "mu*", None),
    ("Lambda", "dbar*", None),
    ("Lambda", "partial*", None),
    ("L", "mubar*", (I, "mu")),
    ("L", "mu*", (MINUS_I, "mubar")),
    ("L", "dbar*", (MINUS_I, "partial")),
    ("L", "partial*", (I, "dbar")),
    ("Lambda", "mubar", (I, "mu*")),
    ("Lambda", "mu", (MINUS_I, "mubar*")),
    ("Lambda", "dbar", (MINUS_I, "partial*")),
    ("Lambda", "partial", (I, "dbar*")),
]


def reference_metric_audits(engine):
    """{claim: (status, witness)} of the commutator and sl(2) audits, each identity checked per block."""
    if not engine.hermitian.kahler_predicates()["almost_kahler"]:
        return {"symplectic-commutators": ("not-applicable", {"reason": "fundamental form is not closed"})}
    block = reference_block(engine)
    failures = []
    for a, b, rhs in REFERENCE_COMMUTATORS:
        terms = [(ONE, [a, b]), (-ONE, [b, a])]
        if rhs is not None:
            scalar, name = rhs
            terms.append((-scalar, [name]))
        if failing_blocks(block, terms, engine.n):
            failures.append(f"[{a},{b}]")
    sl2 = failing_blocks(block, [(ONE, ["L", "Lambda"]), (-ONE, ["Lambda", "L"]), (-ONE, ["H"])], engine.n)
    return {
        "symplectic-commutators": (
            "fail" if failures else "pass",
            {"failing": failures} if failures else {"checked": len(REFERENCE_COMMUTATORS)},
        ),
        "lefschetz-sl2-commutator": (
            "fail" if sl2 else "pass",
            {"failing_blocks": [list(b) for b in sl2]} if sl2 else {},
        ),
    }


def metric_audits(engine):
    return {
        item.claim: (item.status, item.witness)
        for item in audit_identities(engine)
        if not item.claim.startswith("square-zero-relations:")
    }


RECONSTRUCTION = "d=mu+partial+dbar+mubar"


def reference_d_total(cx, r):
    """d from degree r to degree r+1, stacked from the four differential blocks."""
    src = [(p, r - p) for p in range(cx.n + 1) if cx.valid_bidegree(p, r - p)]
    tgt = [(p, r + 1 - p) for p in range(cx.n + 1) if cx.valid_bidegree(p, r + 1 - p)]
    rows = []
    for tp, tq in tgt:
        row = []
        for p, q in src:
            acc = ExactMatrix(cx.dim(tp, tq), cx.dim(p, q))
            for name in DIFFERENTIALS:
                if (p + shift(name)[0], q + shift(name)[1]) == (tp, tq):
                    acc = acc + cx.block(name, p, q)
            row.append(acc)
        rows.append(ExactMatrix.hstack(row) if row else ExactMatrix(cx.dim(tp, tq), 0))
    return ExactMatrix.vstack(rows) if rows else ExactMatrix(0, sum(cx.dim(p, q) for p, q in src))


def reference_suite(cx):
    """(label, failing blocks) of the seven relations, per block, then ("d.d", failing degrees)."""
    out = []
    for label in SQUARE_ZERO_RELATIONS.values():
        chains = [chain.split(".") for chain in label.split("+")]
        out.append((label, failing_blocks(cx.block, [(ONE, chain) for chain in chains], cx.n)))
    dd = [r for r in range(2 * cx.n) if not (reference_d_total(cx, r + 1) @ reference_d_total(cx, r)).is_zero()]
    out.append(("d.d", dd))
    return out


def suite_without_reconstruction(cx):
    return [(e["identity"], e["failures"]) for e in cx.identity_suite() if e["identity"] != RECONSTRUCTION]


def test_relations_are_keyed_by_the_shift_of_their_chains():
    for s, label in SQUARE_ZERO_RELATIONS.items():
        for chain in label.split("+"):
            a, b = chain.split(".")
            assert (shift(a)[0] + shift(b)[0], shift(a)[1] + shift(b)[1]) == s, label
    # each commutator [a, b] of a family is keyed by shift(a) + shift(b), and the family's
    # right-hand side has one term of each key
    labels = []
    for a, family, rhs, table in SYMPLECTIC_COMMUTATORS:
        names = sorted(name for _, name in IDENTITY_TERMS[family])
        assert sorted(label[len(a) + 2 : -1] for label in table.values()) == names, table
        for s, label in table.items():
            b = label[len(a) + 2 : -1]
            assert (shift(a)[0] + shift(b)[0], shift(a)[1] + shift(b)[1]) == s, label
        if rhs is not None:
            assert sorted(shift(name) for _, name in IDENTITY_TERMS[rhs]) == sorted(table)
        labels += table.values()
    assert labels == [f"[{a},{b}]" for a, b, _ in REFERENCE_COMMUTATORS]
    assert len({s for *_, table in SYMPLECTIC_COMMUTATORS for s in table}) == 16


def test_suite_matches_reference_on_bundled_manifests():
    for name in ("kt4", "torus4", "nil6"):
        cx = Session(parse_manifest(bundled_manifest_path(name))).complex()
        assert suite_without_reconstruction(cx) == reference_suite(cx), name


def test_suite_matches_reference_on_oracle_engines(oracle_engines):
    for label, engine in oracle_engines:
        cx = engine.complex
        assert suite_without_reconstruction(cx) == reference_suite(cx), label


def test_suite_matches_reference_on_random_fourier_models():
    rng = random.Random(1414)
    for name in ("kt4", "torus4", "nil6"):
        for rank in (1, 2):
            cx = Session(manifest_from_dict(random_fourier_manifest(rng, name, rank))).complex()
            assert suite_without_reconstruction(cx) == reference_suite(cx), (name, rank)


def _broken(session, rng, truncation=None):
    """A fresh complex of the session's model with one entry of one cached differential block perturbed."""
    model = session.spec.coefficients
    if model.kind != "invariant":
        model = model.with_truncation(model.truncation if truncation is None else truncation)
    return _broken_copy(FormComplex(session.frame, model), rng)


def _broken_copy(cx, rng):
    """The fresh complex cx with one entry of one cached differential block perturbed."""
    keys = [
        (name, p, q)
        for name in DIFFERENTIALS
        for p in range(cx.n + 1)
        for q in range(cx.n + 1)
        if cx.valid_bidegree(p + shift(name)[0], q + shift(name)[1])
    ]
    name, p, q = rng.choice(keys)
    blk = cx.block(name, p, q)
    entry = (rng.randrange(blk.rows), rng.randrange(blk.cols))
    cx._block_cache[(name, p, q)] = blk + ExactMatrix(blk.rows, blk.cols, {entry: rational(rng.randint(1, 5), 2)})
    return (name, p, q, entry), cx


def test_metric_audits_match_reference_on_bundled_manifests(kt4_session, torus_session, nil6_session):
    engines = [(f"kt4 N={n}", kt4_session.engine(n)) for n in range(4)]
    engines += [("torus4", torus_session.engine()), ("nil6", nil6_session.engine())]
    for label, engine in engines:
        assert metric_audits(engine) == reference_metric_audits(engine), label


def test_metric_audits_match_reference_on_oracle_engines(oracle_engines):
    for label, engine in oracle_engines:
        assert metric_audits(engine) == reference_metric_audits(engine), label


def test_metric_audits_match_reference_on_random_fourier_models():
    rng = random.Random(1515)
    for name in ("kt4", "torus4", "nil6"):
        for rank in (1, 2):
            engine = Session(manifest_from_dict(random_fourier_manifest(rng, name, rank))).engine()
            assert metric_audits(engine) == reference_metric_audits(engine), (name, rank)


def _patched_engine(session, truncation, patch):
    """A fresh engine on the session's complex and metric whose block is patch(name, p, q, true block)."""
    base = session.engine(truncation)
    engine = CohomologyEngine(base.complex, base.hermitian)
    block = engine.block
    engine.block = lambda name, p, q: patch(name, p, q, block(name, p, q))
    return engine


def _perturbed_engine(session, truncation, rng, names):
    """A fresh engine whose block of one operator of names has one entry perturbed."""
    engine = session.engine(truncation)
    n = engine.n
    keys = [
        (name, p, q)
        for name in names
        for p in range(n + 1)
        for q in range(n + 1)
        if engine.block(name, p, q).rows and engine.block(name, p, q).cols
    ]
    key = rng.choice(keys)
    blk = engine.block(*key)
    entry = (rng.randrange(blk.rows), rng.randrange(blk.cols))
    bump = ExactMatrix(blk.rows, blk.cols, {entry: rational(rng.randint(1, 5), 2)})
    return (*key, entry), _patched_engine(session, truncation, lambda name, p, q, m: m + bump if (name, p, q) == key else m)


def test_broken_engines_report_the_reference_failures(kt4_session, torus_session):
    rng = random.Random(1515)
    adjoints = tuple(name + "*" for name in DIFFERENTIALS)
    detected = 0
    for session, truncation in ((kt4_session, 1), (kt4_session, 2), (torus_session, None)):
        engine = _patched_engine(session, truncation, lambda name, p, q, m: m.scale(integer(2)) if name == "L" else m)
        got = metric_audits(engine)
        assert got == reference_metric_audits(engine), ("L doubled", truncation)
        assert got["lefschetz-sl2-commutator"][0] == "fail"
        for names in (("Lambda",), adjoints):
            for _ in range(3):
                what, engine = _perturbed_engine(session, truncation, rng, names)
                got = metric_audits(engine)
                assert got == reference_metric_audits(engine), what
                detected += "fail" in (got["symplectic-commutators"][0], got["lefschetz-sl2-commutator"][0])
    assert detected == 18


def test_audit_identities_makes_no_compose_call(kt4_session, monkeypatch):
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(1))
    engine = CohomologyEngine(cx, HermitianStructure(cx, kt4_session.spec.metric))

    def no_chains(*args, **kwargs):
        raise AssertionError("audit_identities composed a chain of blocks")

    for module in (operators, audits, cohomology):
        monkeypatch.setattr(module, "compose", no_chains)
    items = audit_identities(engine)
    assert {"symplectic-commutators", "lefschetz-sl2-commutator"} <= {item.claim for item in items}
    assert all(item.status == "pass" for item in items)


def test_failing_blocks_names_every_nonzero_block(kt4_session):
    eng = kt4_session.engine(1)
    n = eng.n
    # partial . dbar alone is not an identity: it fails where it is a nonzero map
    lone = [(p, q) for p in range(n) for q in range(n) if not compose(eng.block, ["partial", "dbar"], p, q).is_zero()]
    assert lone and failing_blocks(eng.block, [(ONE, ["partial", "dbar"])], n) == lone
    assert reference_shift("H") == (0, 0)


def test_failing_blocks_rejects_chains_of_mixed_shifts(kt4_session):
    eng = kt4_session.engine(1)
    with pytest.raises(ValueError):
        failing_blocks(eng.block, [(ONE, ["mu", "dbar"]), (ONE, ["partial", "dbar"])], eng.n)
    with pytest.raises(ValueError):
        failing_blocks(eng.block, [(ONE, ["L", "Lambda"]), (-ONE, ["L"])], eng.n)


def test_broken_complexes_report_the_reference_failures(kt4_session, nil6_session, kodaira_session):
    rng = random.Random(2026)
    detected = 0
    for session, truncation in ((kt4_session, 1), (nil6_session, None), (kodaira_session, None)):
        for _ in range(5):
            what, cx = _broken(session, rng, truncation)
            got = suite_without_reconstruction(cx)
            assert got == reference_suite(cx), what
            failing = dict(got)
            dd = failing.pop("d.d")
            # the relations are the blocks of d.d, so one fails exactly when d.d does; a wrong entry
            # breaks at most the four relations at its own block and one at each block mapping onto its row
            broken = [blocks for blocks in failing.values() if blocks]
            assert bool(dd) == bool(broken), what
            assert sum(map(len, broken)) <= len(DIFFERENTIALS) + cx.n + 1, what
            detected += bool(dd)
    assert detected >= 10


def whole_product_suite(cx):
    """(label, failing blocks) of the seven relations, then ("d.d", failing degrees), read off the whole
    products d_total(r+1) . d_total(r), each built."""
    sides = []
    for r in range(2 * cx.n):
        product = cx.d_total(r + 1) @ cx.d_total(r)
        sides.append((r, product, ExactMatrix(product.rows, product.cols)))
    relations = [(label, list(blocks)) for label, blocks in cx.read_off(SQUARE_ZERO_RELATIONS, sides).items()]
    return relations + [("d.d", [r for r, product, _ in sides if not product.is_zero()])]


def one_weight_complexes(oracle_engines):
    return [(label, e.complex) for label, e in oracle_engines if len(e.complex.coefficients.weights()) == 1]


def test_one_weight_suite_matches_the_whole_products(oracle_engines):
    """On every one-weight complex of the oracle models, and on three broken copies of each, the suite
    decided on core products gives every failing block, in order, and every failing degree that the
    whole products give."""
    rng = random.Random(3333)
    cases = one_weight_complexes(oracle_engines)
    labels = [label for label, _ in cases]
    assert {"kt4 N=0", "torus4", "nil6", "kodaira4"} <= set(labels)
    assert sum(label.startswith(("sweep0 ", "sweep101 ")) for label in labels) == 10
    broken = 0
    for label, cx in cases:
        assert suite_without_reconstruction(cx) == whole_product_suite(cx), label
        for _ in range(3):
            what, copy = _broken_copy(FormComplex(cx.frame, cx.coefficients), rng)
            got = suite_without_reconstruction(copy)
            assert got == whole_product_suite(copy), (label, what)
            broken += bool(dict(got)["d.d"])
    assert broken > len(cases)


def _counted_products(monkeypatch):
    products = []
    matmul = linalg.ExactMatrix.__matmul__

    def counting_matmul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    monkeypatch.setattr(linalg.ExactMatrix, "__matmul__", counting_matmul)
    return products


def test_one_weight_suites_do_2n_core_products_and_no_chain_products(oracle_engines, monkeypatch):
    """A passing suite on one weight decides each d_total(r+1) . d_total(r) = 0 on its core alone: the
    rank(d_total(r+1)) independent rows of d_total(r+1) times the rank(d_total(r)) independent columns of
    d_total(r), each smaller than the whole matrix."""

    def no_chains(*args, **kwargs):
        raise AssertionError("the identity suite composed a chain of blocks")

    monkeypatch.setattr(operators, "compose", no_chains)
    products = _counted_products(monkeypatch)
    for label, cx in one_weight_complexes(oracle_engines):
        fresh = FormComplex(cx.frame, cx.coefficients)
        totals = [fresh.d_total(r) for r in range(2 * fresh.n + 1)]
        products.clear()
        assert all(e["passed"] for e in fresh.identity_suite()), label
        ranks = [linalg.rank(d) for d in totals]
        assert products == [(ranks[r + 1], fresh.total_dim(r + 1), ranks[r]) for r in range(2 * fresh.n)], label
        assert all(rank < fresh.total_dim(r) for r, rank in enumerate(ranks)), label


def test_a_fourier_box_suite_multiplies_whole_differentials_and_runs_no_forward_pass(kt4_session, monkeypatch):
    """On kt4's N = 1 box, the identity engine of every N >= 1, nothing else reads d_total's forward passes:
    the suite multiplies the 2n whole differentials and eliminates nothing."""
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(1))
    for r in range(2 * cx.n + 1):
        cx.d_total(r)
    products = _counted_products(monkeypatch)
    eliminations = []
    monkeypatch.setattr(linalg, "_eliminate", lambda m, *args, **kwargs: eliminations.append(m))
    assert all(e["passed"] for e in cx.identity_suite())
    assert products == [(cx.total_dim(r + 2), cx.total_dim(r + 1), cx.total_dim(r)) for r in range(2 * cx.n)]
    assert not eliminations
    assert all(getattr(cx.d_total(r), "_echelon", None) is None for r in range(2 * cx.n + 1))


def test_coefficient_blocks_are_built_only_for_acting_directions(nil6_session, kt4_session):
    # an invariant model builds no E_r at all
    cx = FormComplex(nil6_session.frame, nil6_session.spec.coefficients)
    cx._frame_blocks = FrameBlocks(nil6_session.frame)
    cx.identity_suite()
    for name in DIFFERENTIALS:
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                cx.block(name, p, q)
    assert not vars(cx._frame_blocks).get("_coefficient_block_cache")
    # on kt4 only Z_1 and Zbar_1 act on the coefficients: E_2 is never built
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(1))
    cx._frame_blocks = FrameBlocks(kt4_session.frame)
    assert all(e["passed"] for e in cx.identity_suite())
    assert {(key[0], key[3]) for key in cx._frame_blocks._coefficient_block_cache} == {("partial", 1), ("dbar", 1)}


def test_one_parse_evaluates_j_squared_once(monkeypatch):
    calls = []
    square = lie.square_is_minus_identity
    monkeypatch.setattr(lie, "square_is_minus_identity", lambda m: calls.append(m) or square(m))
    spec = parse_manifest(bundled_manifest_path("kt4"))
    session = Session(spec)
    assert len(calls) == 1
    # the manifest's one frame is build_frame's; a frame built past the memo still checks J, on the cached square
    assert lie.build_frame(spec.algebra, spec.structure) is session.frame
    fresh = lie.build_frame.__wrapped__(spec.algebra, spec.structure)
    assert fresh is not session.frame and fresh == session.frame
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the N <= 1 box decides every identity (Session.identity_engine)


IDENTITY_CLAIMS = ("square-zero-relations:", "symplectic-commutators", "lefschetz-sl2-commutator")


def _scaled_partial_coefficients(monkeypatch):
    """E_r of partial doubled, E_r of dbar kept: the eigenvalues of Z_r doubled, those of Zbar_r not.

    Doubling both would be the model with doubled actions, a valid complex.
    """
    coefficient_block = FrameBlocks.coefficient_block

    def doubled(self, name, p, q, r):
        blk = coefficient_block(self, name, p, q, r)
        return blk.scale(integer(2)) if name == "partial" else blk

    monkeypatch.setattr(FrameBlocks, "coefficient_block", doubled)


def _swapped_eigenvalues(monkeypatch):
    """Z_r acts by the eigenvalues of Zbar_r and back; the actions are real, so the acting directions stay."""
    init = FormComplex.__init__

    def swapped(self, *args):
        init(self, *args)
        self._z_eig, self._zbar_eig = self._zbar_eig, self._z_eig

    monkeypatch.setattr(FormComplex, "__init__", swapped)


def _doubled_lefschetz(monkeypatch):
    """L = 2 omega ^ -, Lambda kept."""
    lefschetz_block = HermitianStructure.lefschetz_block
    monkeypatch.setattr(HermitianStructure, "lefschetz_block", lambda self, p, q: lefschetz_block(self, p, q).scale(integer(2)))


# every mutation keeps each block polynomial in the weight, of the same degrees
WHOLE_SESSION_MUTATIONS = {
    "none": lambda monkeypatch: None,
    "partial E_r doubled": _scaled_partial_coefficients,
    "eigenvalues swapped": _swapped_eigenvalues,
    "L doubled": _doubled_lefschetz,
}


def _rendered_suite(cx):
    """identity_suite as validate renders it."""
    return [
        {"identity": e["identity"], "passed": e["passed"], "failures": audits.failure_list(e["failures"])}
        for e in cx.identity_suite()
    ]


def _failure_key(identity):
    """The audit witness key of an identity_suite entry's failures: d.d fails in total degrees, the rest in blocks."""
    return "failing_degrees" if identity == "d.d" else "failing_blocks"


def test_identities_read_off_the_n1_box_match_the_whole_box(kt4_session, fourier_sessions, monkeypatch):
    """verify's identity items at N = 2 and 3, and validate's suite at a manifest truncation of 3,
    are read off the N = 1 box; they equal audit_identities and identity_suite on the whole box.

    Each case runs on a fresh session of the model under each whole-session
    mutation, so the mutation reaches every block the session builds.
    Together the mutations fail square-zero, the commutators and sl(2).
    """
    failing = set()
    for mutation, mutate in WHOLE_SESSION_MUTATIONS.items():
        with monkeypatch.context() as patch:
            mutate(patch)
            for label, fixture in [("kt4", kt4_session)] + list(fourier_sessions):
                session = Session(fixture.spec)
                for truncation in (2, 3):
                    payload, code = run("verify", session, {"truncations": str(truncation)})
                    assert code == 0, (mutation, label, payload.get("fatal"))
                    got = [a for a in payload["audits"] if a["claim"].startswith(IDENTITY_CLAIMS)]
                    tag = {"truncation": f"N={truncation}"}
                    want = [
                        {**item.as_dict(), "witness": {**item.witness, **tag}}
                        for item in audit_identities(session.engine(truncation))
                    ]
                    assert got == want, (mutation, label, truncation)
                    suite = [
                        {
                            "claim": f"square-zero-relations:{e['identity']}",
                            "status": "pass" if e["passed"] else "fail",
                            "witness": {**({_failure_key(e["identity"]): e["failures"]} if e["failures"] else {}), **tag},
                        }
                        for e in _rendered_suite(session.complex(truncation))
                    ]
                    assert got[: len(suite)] == suite, (mutation, label, truncation)
                    failing |= {a["claim"].split(":")[0] for a in got if a["status"] == "fail"}
                spec = replace(fixture.spec, coefficients=fixture.spec.coefficients.with_truncation(3))
                payload, code = run("validate", Session(spec), {})
                assert payload["validation"]["identity_suite"] == _rendered_suite(session.complex(3)), (mutation, label)
    assert failing == {"square-zero-relations", "symplectic-commutators", "lefschetz-sl2-commutator"}


def test_dd_witness_names_total_degrees_and_the_relations_name_blocks(fourier_sessions, monkeypatch):
    """Under the partial-only E_r mutation, verify on nil6-fourier-rank1 at N = 2 fails d.d in total
    degrees, under failing_degrees, and the bidegree relations in [p, q] blocks, under failing_blocks."""
    fixture = dict(fourier_sessions)["nil6-fourier-rank1"]
    _scaled_partial_coefficients(monkeypatch)
    payload, code = run("verify", Session(fixture.spec), {"truncations": "2"})
    assert code == 0
    square_zero = {
        a["claim"].split(":")[1]: a for a in payload["audits"] if a["claim"].startswith("square-zero-relations:")
    }
    assert square_zero["d.d"]["status"] == "fail"
    assert square_zero["d.d"]["witness"] == {"failing_degrees": [0, 1, 2, 3, 4], "truncation": "N=2"}
    relations = [a for label, a in square_zero.items() if label in SQUARE_ZERO_RELATIONS.values()]
    failing = [a["witness"] for a in relations if a["status"] == "fail"]
    assert failing and all(set(w) == {"failing_blocks", "truncation"} for w in failing)
    assert all(len(block) == 2 for w in failing for block in w["failing_blocks"])
    # the degrees are those of the failing blocks
    assert sorted({p + q for w in failing for p, q in w["failing_blocks"]}) == [0, 1, 2, 3, 4]


def test_verify_audits_the_identities_once_per_deciding_engine(kt4_session, monkeypatch):
    """--truncations 0,1,2,3 audits engine(0) and engine(1) once each; N = 1, 2 and 3 get their own copies."""
    session = Session(kt4_session.spec)
    audited = []
    monkeypatch.setattr(cli, "audit_identities", lambda engine: audited.append(engine) or audit_identities(engine))
    payload, code = run("verify", session, {"truncations": "0,1,2,3"})
    assert code == 0
    assert audited == [session.engine(0), session.engine(1)]
    by_label = {}
    for a in payload["audits"]:
        if a["claim"] == "lefschetz-sl2-commutator":
            by_label[a["witness"]["truncation"]] = a
    assert list(by_label) == ["N=0", "N=1", "N=2", "N=3"]
    two, three = by_label["N=2"], by_label["N=3"]
    assert two is not three and two["witness"] is not three["witness"]
    assert {k: v for k, v in two["witness"].items() if k != "truncation"} == {
        k: v for k, v in three["witness"].items() if k != "truncation"
    }


def test_verify_builds_no_adjoint_or_lefschetz_block_at_its_truncation(kt4_session):
    """After verify --truncations 3 the identities came off engine(1): engine(3) holds no adjoint, L or Lambda block."""
    session = Session(kt4_session.spec)
    assert run("verify", session, {"truncations": "3"})[1] == 0
    hermitian = vars(session.engine(3).hermitian)
    assert not hermitian.get("_adjoint_block_cache")
    assert not {key[0] for key in hermitian.get("_lift_cache", {})} & {"L", "Lambda"}
    assert vars(session.engine(1).hermitian).get("_adjoint_block_cache")
