"""Differential oracle for the frame layer on int triples.

FrameBlocks.block fills its matrices from the triples of the bit-mask Leibniz
rule (forms.leibniz), the reconstruction d = mu + partial + dbar + mubar of the
identity suite and the Jacobi check of validate_model compare Leibniz triples,
and the Gram matrices are read off the compound minors of h.  The references
are the Form and Scalar paths they replaced: reference_extend_derivation
(tests/test_kernel_oracle.py) read into a checked ExactMatrix, the two checks
on Forms, and reference_gram (tests/test_metric.py) with its Scalar Laplace
determinant.  Matrices must agree entry by entry and in entry order, verdicts
in their failing blocks and detail strings.  A last test pins that the layer
builds no Scalar.
"""

import random

import pytest

from acx import forms, lie, linalg, metric, operators, scalars
from acx.cli import parse_manifest
from acx.forms import BasisElement, Form, enumerate_basis
from acx.linalg import ExactMatrix
from acx.metric import PointwiseMetric
from acx.operators import DIFFERENTIALS, INVARIANT, FormComplex, FrameBlocks, frame_blocks
from acx.scalars import Scalar, rational

from conftest import bundled_manifest_path, sweep_sessions
from test_kernel_oracle import random_frame, reference_extend_derivation
from test_metric import generic_metric, reference_det, reference_gram

RECONSTRUCTION = "d=mu+partial+dbar+mubar"


def first_met(action, elt):
    """The monomials the Leibniz terms of elt land on, each once, in the order the terms meet them:
    generators in basis order, each image in its own order.  A column's entries keep this order,
    also where a monomial's terms cancel and a later term lands on it again."""
    seen = {}
    for kind, s in [("h", s) for s in elt.holo] + [("a", s) for s in elt.anti]:
        holo = tuple(x for x in elt.holo if (kind, x) != ("h", s))
        anti = tuple(x for x in elt.anti if (kind, x) != ("a", s))
        image = action.get((kind, s))
        for e in image.coeffs if image else ():
            if not (set(e.holo) & set(holo) or set(e.anti) & set(anti)):
                seen.setdefault(BasisElement((), tuple(sorted(holo + e.holo)), tuple(sorted(anti + e.anti))))
    return list(seen)


def reference_block(blocks, name, p, q):
    """The invariant block as the Form path built it: each column a Scalar Leibniz image, checked on entry."""
    n = blocks.n
    dp, dq = lie.SHIFTS[name]
    action = blocks.parts[name]
    src = enumerate_basis(n, p, q, INVARIANT)
    tgt = {m: i for i, m in enumerate(enumerate_basis(n, p + dp, q + dq, INVARIANT))}
    entries = {}
    for col, elt in enumerate(src if tgt else ()):
        image = reference_extend_derivation(action, Form.monomial(elt)).coeffs
        order = first_met(action, elt)
        assert set(image) <= set(order)
        for e in order:
            if e in image:
                assert e.bidegree == (p + dp, q + dq)
                entries[(tgt[e], col)] = image[e]
    return ExactMatrix(len(tgt), len(src), entries)


def reference_reconstruction(blocks):
    """The bidegrees whose unsplit Leibniz images, as Forms, differ from a column of the four blocks' Scalar entries."""
    n = blocks.n
    failing = []
    for p in range(n + 1):
        for q in range(n + 1):
            columns = {}
            for name in DIFFERENTIALS:
                dp, dq = lie.SHIFTS[name]
                target = enumerate_basis(n, p + dp, q + dq, INVARIANT)
                for (r, c), v in blocks.block(name, p, q).entries.items():
                    columns.setdefault(c, {})[target[r]] = v
            for col, elt in enumerate(enumerate_basis(n, p, q, INVARIANT)):
                if reference_extend_derivation(blocks.structure, Form.monomial(elt)).coeffs != columns.get(col, {}):
                    failing.append((p, q))
                    break
    return tuple(failing)


def reference_jacobi(frame):
    """validate_model's Jacobi check with every d(d theta) a Scalar Form."""
    diffs = lie.exterior_d_on_generators(frame)
    failures = [gen for gen, dgen in diffs.items() if not reference_extend_derivation(diffs, dgen).is_zero()]
    detail = "d(d theta) = 0 on every generator" if not failures else f"fails on {failures}"
    return lie.ValidationCheck("jacobi-via-d-squared", not failures, detail)


def assert_same_matrix(got, want, *where):
    assert (got.rows, got.cols) == (want.rows, want.cols), where
    assert list(got.triples.items()) == list(want.triples.items()), where


def check_frame(label, frame, metric_, perturb=None, at=None):
    """Blocks, reconstruction, Jacobi and Gram of one frame against the references; the reconstruction
    also on a copy of the blocks with one entry of the invariant block `perturb` changed.

    at, when given, picks the bidegrees (p, q) whose blocks and Gram matrices are compared, and the
    reconstruction, which reads every block, is skipped.
    """
    blocks = FrameBlocks(frame)
    n = blocks.n
    bidegrees = [(p, q) for p in range(n + 1) for q in range(n + 1)]
    for p, q in filter(at, bidegrees):
        for name in DIFFERENTIALS:
            assert_same_matrix(blocks.block(name, p, q), reference_block(blocks, name, p, q), label, name, p, q)
    if at is None:
        cx = FormComplex(frame, INVARIANT)
        cx._frame_blocks = blocks
        recon = dict(cx._identity_failures)[RECONSTRUCTION]
        assert recon == reference_reconstruction(blocks) == (), label
        broken = FrameBlocks(frame)
        m = blocks.block(*perturb)
        broken._block_cache = {perturb: m + ExactMatrix(m.rows, m.cols, {(0, m.cols - 1): rational(1, 3)})}
        cx = FormComplex(frame, INVARIANT)
        cx._frame_blocks = broken
        recon = dict(cx._identity_failures)[RECONSTRUCTION]
        assert recon == reference_reconstruction(broken) == (perturb[1:],), (label, perturb)
    (jacobi,) = [c for c in lie.validate_model.__wrapped__(frame.algebra, frame.structure).checks if "jacobi" in c.name]
    assert jacobi == reference_jacobi(frame), label
    pm = PointwiseMetric(metric_, 0)
    for p, q in filter(at, bidegrees):
        assert_same_matrix(pm._gram(p, q), reference_gram(pm, p, q), label, "gram", p, q)
    return jacobi.passed


def test_frame_layer_matches_reference_on_models(kt4_session, nil6_session, torus_session, fourier_sessions):
    cases = [("kt4", kt4_session), ("nil6", nil6_session), ("torus4", torus_session)] + list(fourier_sessions)
    for seed in (0, 101):
        cases += [(f"sweep{seed} {k}", s) for k, s in enumerate(sweep_sessions(seed))]
    for label, session in cases:
        assert check_frame(label, session.frame, session.spec.metric, ("partial", 1, 0)), label
    assert len(cases) == 20


def test_frame_layer_matches_reference_on_dense_random_frames():
    """n = 1..6 on random brackets (dense generator images that mostly break Jacobi) and random metrics.

    Everything is compared up to n = 4.  The Scalar references grow too slow beyond, so n = 5 and 6
    compare the blocks and Gram matrices of the bidegrees with p and q in {0, 1, n} and the Jacobi check.
    """
    rng = random.Random(27)
    jacobi_failures = 0
    for n in range(1, 7):
        at = (lambda pq, n=n: set(pq) <= {0, 1, n}) if n >= 5 else None
        frame = random_frame(rng, 2 * n)
        jacobi_failures += not check_frame(f"random n={n}", frame, generic_metric(n, rng), ("dbar", 0, n - 1), at)
    assert jacobi_failures >= 4


def test_frame_layer_builds_no_scalar(monkeypatch):
    """A six-dim sweep model's frame blocks, reconstruction check and Gram matrices construct no Scalar."""
    session = sweep_sessions(0)[0]
    assert session.spec.real_dim == 6
    operators.frame_blocks.cache_clear()
    cx = FormComplex(session.frame, session.spec.coefficients)
    pm = PointwiseMetric(session.spec.metric, 0)
    built = []
    init = Scalar.__init__
    monkeypatch.setattr(Scalar, "__init__", lambda self, *args: built.append("Scalar") or init(self, *args))
    for module in (scalars, forms, lie, linalg, operators, metric):
        for name in ("reduced", "canonical"):
            if hasattr(module, name):
                make = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *args, make=make, name=name: built.append(name) or make(*args))
    blocks = frame_blocks(session.frame)
    for name in DIFFERENTIALS:
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                blocks.block(name, p, q)
    assert dict(cx._identity_failures)[RECONSTRUCTION] == ()
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            pm._gram(p, q)
    assert built == []
    # the counters see a Scalar where one is read
    blocks.block("dbar", 1, 0).entries
    assert built


@pytest.mark.parametrize("name", ["kt4", "nil6", "torus4"])
def test_validate_reads_leading_minors_of_the_compound_table(name):
    """validate's verdicts and messages on the bundled metrics and on broken ones equal the Scalar Laplace reference."""
    g = parse_manifest(bundled_manifest_path(name)).metric
    rng = random.Random(name)
    cases = [g, generic_metric(g.n, rng)]
    for _ in range(6):
        rows = [list(r) for r in generic_metric(g.n, rng).entries]
        k = rng.randrange(g.n)
        rows[k][k] = rational(rng.randint(-3, 1), rng.randint(1, 3))
        cases.append(metric.HermitianMetric(tuple(tuple(r) for r in rows)))
    refused = 0
    for m in cases:
        want = None
        for size in range(1, m.n + 1):
            minor = reference_det([row[:size] for row in m.entries[:size]])
            if not minor.is_real() or minor.re <= 0:
                want = f"leading principal minor of size {size} is {minor}"
                break
        try:
            m.validate()
            got = None
        except metric.NotPositive as exc:
            got = str(exc)
        assert got == want, name
        refused += got is not None
    assert refused >= 2
