"""Differential oracle for the square-zero identity suite.

FormComplex.identity_suite reads the seven bidegree parts of d^2 = 0 off one
product d_total(r+1) . d_total(r) per degree.  The evaluation it replaced is
kept here as the reference: each relation as a sum of chains checked on every
block with failing_blocks, and total d.d checked on a separately assembled
exterior differential.  The two must agree on every label, every failing
block (in order) and every failing degree, on working complexes and on
complexes broken on purpose.
"""

import random

from acx import lie, linalg, operators
from acx.cli import Session, bundled_manifest_path, manifest_from_dict, parse_manifest
from acx.linalg import ExactMatrix
from acx.operators import DIFFERENTIALS, SQUARE_ZERO_RELATIONS, FormComplex, FrameBlocks, failing_blocks, shift
from acx.scalars import ONE, rational

from conftest import random_fourier_manifest

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
    cx = FormComplex(session.frame, model)
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


def test_invariant_suite_does_2n_total_products_and_no_chain_products(nil6_session, monkeypatch):
    cx = FormComplex(nil6_session.frame, nil6_session.spec.coefficients)
    products = []
    matmul = linalg.ExactMatrix.__matmul__

    def counting_matmul(a, b):
        products.append((a.rows, a.cols, b.cols))
        return matmul(a, b)

    def no_chains(*args, **kwargs):
        raise AssertionError("the identity suite composed a chain of blocks")

    monkeypatch.setattr(linalg.ExactMatrix, "__matmul__", counting_matmul)
    monkeypatch.setattr(operators, "compose", no_chains)
    monkeypatch.setattr(operators, "failing_blocks", no_chains)
    assert all(e["passed"] for e in cx.identity_suite())
    assert products == [(cx.total_dim(r + 2), cx.total_dim(r + 1), cx.total_dim(r)) for r in range(2 * cx.n)]


def test_coefficient_blocks_are_built_only_for_acting_directions(nil6_session, kt4_session):
    # an invariant model builds no E_r at all
    cx = FormComplex(nil6_session.frame, nil6_session.spec.coefficients)
    cx._frame_blocks = FrameBlocks(nil6_session.frame)
    cx.identity_suite()
    for name in DIFFERENTIALS:
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                cx.block(name, p, q)
    assert not any(key[0] == "E" for key in cx._frame_blocks._cache)
    # on kt4 only Z_1 and Zbar_1 act on the coefficients: E_2 is never built
    cx = FormComplex(kt4_session.frame, kt4_session.spec.coefficients.with_truncation(1))
    cx._frame_blocks = FrameBlocks(kt4_session.frame)
    assert all(e["passed"] for e in cx.identity_suite())
    assert {(key[1], key[4]) for key in cx._frame_blocks._cache if key[0] == "E"} == {("partial", 1), ("dbar", 1)}


def test_one_parse_evaluates_j_squared_once(monkeypatch):
    calls = []
    square = lie.square_is_minus_identity
    monkeypatch.setattr(lie, "square_is_minus_identity", lambda m: calls.append(m) or square(m))
    spec = parse_manifest(bundled_manifest_path("kt4"))
    session = Session(spec)
    assert len(calls) == 1
    # build_frame still checks J, and still returns a fresh frame
    assert lie.build_frame(spec.algebra, spec.structure) is not session.frame
    assert len(calls) == 1
