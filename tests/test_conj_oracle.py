"""Differential oracle for the lifted conjugation.

FormComplex.conj_struct(p, q) is the lift of one signed permutation on
invariant monomials (FrameBlocks.conjugation), the copy taken from weight w
placed at the rows of -w.  The construction it replaced is kept here as the
reference: the conjugate of each truncated basis monomial, looked up in the
(q,p) index.  The models are the kt4 boxes and shells, weight sectors, the
taming selector's sector batches, the seeded torus_fourier models and every
oracle engine, so weight sets of every shape the program builds are covered.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from acx.cli import Session, _sector_batches
from acx.forms import CoefficientModel, Form, enumerate_basis
from acx.linalg import ExactMatrix
from acx.operators import FormComplex, frame_blocks

ROOT = Path(__file__).resolve().parents[1]


def reference_conj_struct(cx: FormComplex, p: int, q: int) -> ExactMatrix:
    """Conjugation (p,q) -> (q,p) built one truncated basis monomial at a time."""
    src = cx.basis(p, q)
    tgt_index = cx.index(q, p)
    entries = {}
    for col, elt in enumerate(src):
        ((e, c),) = Form.monomial(elt).conjugate().coeffs.items()
        entries[(tgt_index[e], col)] = c
    return ExactMatrix(cx.dim(q, p), len(src), entries)


def assert_conjugation_matches(label, cx: FormComplex, conj=None) -> None:
    """conj(p, q), by default cx.conj_struct, equals the reference on every bidegree."""
    conj = conj or cx.conj_struct
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            assert conj(p, q) == reference_conj_struct(cx, p, q), (label, p, q)


def test_conjugation_matches_reference_on_kt4_boxes_and_shells(kt4_session):
    model = kt4_session.spec.coefficients
    for n in range(4):
        assert_conjugation_matches(f"kt4 N={n}", kt4_session.complex(n))
        assert_conjugation_matches(f"kt4 shell {n}", FormComplex(kt4_session.frame, model.shell(n)))


def test_conjugation_matches_reference_on_sectors_and_selector_batches(kt4_session):
    """The weight-zero sector and every batch of sectors the taming selector walks, at N = 1..3."""
    for n in range(1, 4):
        engine = Session(kt4_session.spec).engine(n)
        zero = engine.sector(((0, 0),))
        assert zero.complex.coefficients.weights() == [(0, 0)]
        assert_conjugation_matches(f"kt4 N={n} sector 0", zero.complex)
        batches = list(_sector_batches(engine))
        assert len(batches) > 1
        for k, part in enumerate(batches):
            assert_conjugation_matches(f"kt4 N={n} batch {k}", part.complex)


def test_conjugation_matches_reference_on_fourier_models(fourier_sessions):
    for label, session in fourier_sessions:
        for n in (1, 2):
            assert_conjugation_matches(f"{label} N={n}", session.complex(n))


def test_conjugation_matches_reference_on_oracle_engines(oracle_engines):
    """kt4 at N = 0..2, torus4, nil6, kodaira4 and the seeded random invariant and sweep models."""
    for label, engine in oracle_engines:
        assert_conjugation_matches(label, engine.complex)


def test_a_copy_left_at_its_own_weight_fails_the_oracle(kt4_session, torus_session):
    """The mutation that lifts the invariant conjugation without moving each copy to -w.

    On an invariant model w = -w and the mutation is harmless; on kt4 at N = 1
    it fails the oracle on every bidegree.
    """

    def unmoved(cx):
        return lambda p, q: cx.lift(((frame_blocks(cx.frame).conjugation(p, q), None),))

    torus = torus_session.complex()
    assert_conjugation_matches("torus4 unmoved", torus, unmoved(torus))
    cx = kt4_session.complex(1)
    for p in range(cx.n + 1):
        for q in range(cx.n + 1):
            assert unmoved(cx)(p, q) != reference_conj_struct(cx, p, q), (p, q)


CONJUGATE_COUNTER = r"""
import contextlib, io, json, sys
sys.path[:0] = [sys.argv[1]]
from acx import cli, forms

calls = [0]
conjugate = forms.Form.conjugate


def counted(form):
    calls[0] += 1
    return conjugate(form)


forms.Form.conjugate = counted
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps({"code": code, "calls": calls[0]}))
"""


def test_verify_conjugates_no_form_per_truncated_monomial():
    """verify kt4 --truncations 5 in a fresh interpreter: Form.conjugate runs once per invariant
    monomial (each frame's conjugation table) and twice more, for the reality checks of omega and
    of the taming input; building conj_struct one truncated monomial at a time took 874 calls."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    kt4 = str(ROOT / "src" / "acx" / "manifests" / "kt4.json")
    proc = subprocess.run(
        [sys.executable, "-B", "-c", CONJUGATE_COUNTER, str(ROOT / "src"), "verify", kt4, "--truncations", "5"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    monomials = sum(len(enumerate_basis(2, p, q, CoefficientModel.invariant())) for p in range(3) for q in range(3))
    assert monomials == 16
    assert out["code"] == 0
    assert out["calls"] <= monomials + 2, out
