"""Differential oracle for the lifted operators and the linear coefficient eigenvalues.

Every differential block is lift(A) + sum_r lambda_r(w) lift(E_r) from the
per-frame invariant blocks; HermitianStructure.star, lefschetz_block,
lambda_block and inner lift one matrix on invariant monomials to every
Fourier weight (FormComplex.lift); and FormComplex reads the eigenvalues of
Z_r and Zbar_r from one n x rank matrix.  The constructions they replaced
are kept here as references: the graded Leibniz rule on each monomial of
each weight, with the generator action re-ranked to the weight rank and the
coefficient terms Z_r(e_w) theta^r and Zbar_r(e_w) tbar^r; the star copy
loop, L from a Form wedge on each monomial of each weight, Lambda as a
product of three truncated matrices, the offset loop of inner, and the
eigenvalue loop over weights, frame rows and frame vectors.
"""

import random

from acx.forms import BasisElement, Form, with_weight_rank
from acx.lie import SHIFTS, exterior_d_on_generators, split_d
from acx.linalg import ExactMatrix
from acx.metric import HermitianMetric, HermitianStructure
from acx.operators import DIFFERENTIALS
from acx.scalars import I, ONE, ZERO, Scalar, as_scalar, integer, rational

from conftest import sector_complexes


def reference_star(h, p, q):
    inv = h.star_invariant(p, q)
    copies = max(len(h.complex.coefficients.weights()), 1)
    entries = {}
    for w in range(copies):
        ro = w * inv.rows
        co = w * inv.cols
        for (r, c), v in inv.entries.items():
            entries[(r + ro, c + co)] = v
    return ExactMatrix(inv.rows * copies, inv.cols * copies, entries)


def reference_lefschetz(h, p, q):
    cx = h.complex
    src = cx.basis(p, q)
    if not cx.valid_bidegree(p + 1, q + 1):
        return ExactMatrix(0, len(src))
    tgt_index = cx.index(p + 1, q + 1)
    entries = {}
    for col, elt in enumerate(src):
        img = h.omega.wedge(Form.monomial(elt))
        for e, c in img.coeffs.items():
            entries[(tgt_index[e], col)] = c
    return ExactMatrix(cx.dim(p + 1, q + 1), len(src), entries)


def reference_lambda(h, p, q):
    n = h.n
    if not h.complex.valid_bidegree(p - 1, q - 1):
        return ExactMatrix(0, h.complex.dim(p, q))
    s_in = reference_star(h, p, q)
    lef = reference_lefschetz(h, n - q, n - p)
    s_out = reference_star(h, n - q + 1, n - p + 1)
    mat = s_out @ lef @ s_in
    return mat if (p + q) % 2 == 0 else -mat


def reference_inner(h, x, y, p, q):
    inv = h.gram_invariant(p, q)
    gram = [[inv.entry(a, b) for b in range(inv.cols)] for a in range(inv.rows)]
    size = len(gram)
    total = ZERO
    for off in range(0, h.complex.dim(p, q), size):
        for a in range(size):
            xa = x[off + a]
            if not xa:
                continue
            for b in range(size):
                yb = y[off + b]
                if yb:
                    total = total + xa * gram[a][b] * yb.conj()
    return total


def reference_eigenvalues(cx):
    """(Z eigenvalues, Zbar eigenvalues) per weight, one frame vector at a time."""
    model = cx.coefficients

    def frame_eigenvalue(a, w):
        if model.kind == "invariant":
            return ZERO
        acc = ZERO
        for r, x in zip(model.actions[a - 1], w):
            if r and x:
                acc = acc + r * as_scalar(x)
        return I * acc

    z_eig, zbar_eig = {}, {}
    for w in model.weights():
        z_eigs, zbar_eigs = [], []
        for zr in cx.frame.z_vectors:
            acc = acc_bar = ZERO
            for a, coord in enumerate(zr, start=1):
                if coord:
                    lam = frame_eigenvalue(a, w)
                    if lam:
                        acc = acc + coord * lam
                        acc_bar = acc_bar + coord.conj() * lam
            z_eigs.append(acc)
            zbar_eigs.append(acc_bar)
        z_eig[w], zbar_eig[w] = tuple(z_eigs), tuple(zbar_eigs)
    return z_eig, zbar_eig


def reference_leibniz(gen_action, coeff_action, form):
    """The graded Leibniz rule in Form arithmetic: coeff_action(w) is the image of the mode e_w, or None."""
    out = Form()
    for elt, c in form.coeffs.items():
        w, holo, anti = elt
        zero = tuple(0 for _ in w)
        if coeff_action is not None and any(w):
            out = out + coeff_action(w).wedge(Form.monomial(BasisElement(zero, holo, anti))).scale(c)
        gens = [("h", s) for s in holo] + [("a", s) for s in anti]
        for t, g in enumerate(gens):
            action = gen_action.get(g)
            if not action:
                continue
            if t < len(holo):
                prefix = BasisElement(w, holo[:t], ())
                suffix = BasisElement(zero, holo[t + 1 :], anti)
            else:
                j = t - len(holo)
                prefix = BasisElement(w, holo, anti[:j])
                suffix = BasisElement(zero, (), anti[j + 1 :])
            term = Form.monomial(prefix).wedge(action).wedge(Form.monomial(suffix))
            out = out + term.scale(c if t % 2 == 0 else -c)
    return out


class ReferenceOperators:
    """The differentials of a complex applied monomial by monomial, weight by weight."""

    def __init__(self, cx):
        self.cx = cx
        rank = cx.coefficients.rank
        parts = split_d(exterior_d_on_generators(cx.frame))
        self.gen_action = {
            name: {g: with_weight_rank(f, rank) for g, f in parts[name].items()} for name in DIFFERENTIALS
        }
        self.z_eig, self.zbar_eig = reference_eigenvalues(cx)

    def coeff_action(self, name):
        """w -> Z_r(e_w) theta^r (partial) or Zbar_r(e_w) tbar^r (dbar); None for mu and mubar."""
        if name not in ("partial", "dbar"):
            return None
        eig = self.z_eig if name == "partial" else self.zbar_eig

        def act(w):
            out = Form()
            for r, v in enumerate(eig[w], start=1):
                elt = BasisElement(w, (r,), ()) if name == "partial" else BasisElement(w, (), (r,))
                out = out + Form.monomial(elt, v)
            return out

        return act

    def apply(self, name, form):
        return reference_leibniz(self.gen_action[name], self.coeff_action(name), form)

    def block(self, name, p, q):
        cx = self.cx
        dp, dq = SHIFTS[name]
        src = cx.basis(p, q)
        if not cx.valid_bidegree(p + dp, q + dq):
            return ExactMatrix(0, len(src))
        tgt_index = cx.index(p + dp, q + dq)
        entries = {}
        for col, elt in enumerate(src):
            for e, c in self.apply(name, Form.monomial(elt)).coeffs.items():
                assert e.weight == elt.weight, (name, elt)
                entries[(tgt_index[e], col)] = c
        return ExactMatrix(cx.dim(p + dp, q + dq), len(src), entries)


def assert_blocks_match(label, cx):
    """Every block of mu, partial, dbar and mubar against the reference; the number of nonzero blocks."""
    ref = ReferenceOperators(cx)
    nonzero = 0
    for name in DIFFERENTIALS:
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                got = cx.block(name, p, q)
                assert got == ref.block(name, p, q), (label, name, p, q)
                nonzero += not got.is_zero()
    return nonzero


def test_blocks_match_reference_on_oracle_engines(oracle_engines):
    for label, engine in oracle_engines:
        # the abelian torus is the one model where every operator vanishes
        assert (assert_blocks_match(label, engine.complex) > 0) == (label != "torus4"), label


def test_blocks_match_reference_on_kt4_sectors(kt4_session):
    """Every sector {w, -w} of kt4 at N = 3, which holds the sectors of N = 0..2."""
    for cx in sector_complexes(kt4_session, 3):
        assert_blocks_match(f"kt4 sector {cx.coefficients.kept}", cx)


def test_blocks_match_reference_on_random_fourier_models(fourier_sessions):
    """The seeded torus_fourier models, whole and sector by sector: each carries E_r terms."""
    for label, session in fourier_sessions:
        cx = session.complex(1)
        # on functions only the coefficient terms act, so a zero dbar block would mean no E_r was read;
        # this holds on the abelian torus too, where every block is its coefficient terms alone
        assert not cx.block("dbar", 0, 0).is_zero(), label
        assert assert_blocks_match(label, cx) > 0, label
        for sector in sector_complexes(session, 1):
            assert_blocks_match(f"{label} sector {sector.coefficients.kept}", sector)


def test_apply_matches_reference_on_weighted_forms(kt4_session, fourier_sessions):
    """FormComplex.apply reads the blocks: on forms of several weights it is the Leibniz rule,
    and d is the sum of the four parts."""
    rng = random.Random(12)
    for label, cx in [("kt4", kt4_session.complex(1))] + [(lab, s.complex(1)) for lab, s in fourier_sessions]:
        ref = ReferenceOperators(cx)
        for p in range(cx.n + 1):
            for q in range(cx.n + 1):
                basis = cx.basis(p, q)
                picks = rng.sample(basis, min(5, len(basis)))
                form = Form({e: Scalar(rng.randint(-3, 3), rng.randint(-3, 3)) for e in picks})
                total = Form()
                for name in DIFFERENTIALS:
                    assert cx.apply(name, form) == ref.apply(name, form), (label, name, p, q)
                    total = total + ref.apply(name, form)
                assert cx.apply("d", form) == total, (label, p, q)


def assert_lifts_match(label, h, rng):
    cx = h.complex
    assert (cx._z_eig, cx._zbar_eig) == reference_eigenvalues(cx), label
    for p in range(h.n + 1):
        for q in range(h.n + 1):
            cell = (label, p, q)
            assert h.star(p, q) == reference_star(h, p, q), cell
            # L from (0,0) is non-square: a swapped row/column offset would show here
            assert h.lefschetz_block(p, q) == reference_lefschetz(h, p, q), cell
            assert h.lambda_block(p, q) == reference_lambda(h, p, q), cell
            dim = cx.dim(p, q)
            x = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
            y = [Scalar(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(dim)]
            assert h.inner(x, y, p, q) == reference_inner(h, x, y, p, q), cell


def test_lifts_match_references_on_oracle_engines(oracle_engines):
    rng = random.Random(10)
    for label, engine in oracle_engines:
        assert_lifts_match(label, engine.hermitian, rng)


def test_lifts_match_references_on_kt4_sectors(kt4_session):
    """Every sector {w, -w} of kt4 at N = 3, which holds the sectors of N = 0..2, for two metrics."""
    rng = random.Random(11)
    third_i = rational(1, 3) * I
    generic = HermitianMetric(((integer(2), third_i), (-third_i, ONE)))
    for metric in (kt4_session.spec.metric, generic):
        for cx in sector_complexes(kt4_session, 3):
            assert_lifts_match(f"kt4 sector {cx.coefficients.kept}", HermitianStructure(cx, metric), rng)


def test_lift_places_one_copy_per_weight(kt4_session):
    cx = sector_complexes(kt4_session, 1)[-1]
    assert len(cx.coefficients.weights()) == 2
    inv = ExactMatrix(2, 1, {(0, 0): integer(3), (1, 0): I})
    assert cx.lift(((inv, None),)) == ExactMatrix(4, 2, {(0, 0): integer(3), (1, 0): I, (2, 1): integer(3), (3, 1): I})


def test_one_weight_lift_of_one_unscaled_term_is_that_matrix(oracle_engines, kt4_session):
    """On one weight a single unscaled term lifts to the matrix it was given, so a one-weight complex's
    differential blocks and conjugation are its frame's invariant matrices, with their triples in the same
    order as a copy; two weights, two terms or a scale still build a new matrix."""
    cases = [(label, e.complex) for label, e in oracle_engines if len(e.complex.coefficients.weights()) == 1]
    assert len(cases) >= 10 and any(label == "kt4 N=0" for label, _ in cases)
    for label, cx in cases:
        frame = cx._frame_blocks
        for name in DIFFERENTIALS:
            for p in range(cx.n + 1):
                for q in range(cx.n + 1):
                    inv = frame.block(name, p, q)
                    assert cx.block(name, p, q) is inv, (label, name, p, q)
                    # what the placement loop builds: the same triples in the same order
                    copy = cx.lift(((inv, None), (ExactMatrix(inv.rows, inv.cols), None)))
                    assert copy is not inv and list(copy.triples.items()) == list(inv.triples.items())
        assert cx.conj_struct(1, 0) is frame.conjugation(1, 0), label
    cx = kt4_session.engine(0).complex
    inv = ExactMatrix(2, 1, {(0, 0): integer(3), (1, 0): I})
    assert cx.lift(((inv, None), (inv, None))) == inv + inv
    assert cx.lift(((inv, [I]),)) == inv.scale(I) and cx.lift(((inv, [I]),)) is not inv
    two = sector_complexes(kt4_session, 1)[-1]
    assert two.lift(((inv, None),)) is not inv
