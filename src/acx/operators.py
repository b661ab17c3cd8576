"""Assembly of the graded operator calculus as exact matrices.

A FormComplex bundles a complex frame with a coefficient model and exposes
mu, partial, dbar, mubar and d both as functions on forms and as
per-bidegree block matrices over the truncated monomial basis, and
conjugation as a block matrix.  On the mode e_w a differential is
A + sum_r lambda_r(w) E_r: A is its matrix on invariant monomials, E_r is
theta^r ^ for partial and tbar^r ^ for dbar, and lambda_r(w) is the
eigenvalue of Z_r or Zbar_r on e_w; mu and mubar are the A term alone.
Conjugation is one signed permutation C on invariant monomials, copied from
each weight w to -w.  Every block is therefore a lift of per-frame invariant
blocks (FrameBlocks), every operator preserves the Fourier weight, and
conjugation negates it, so the symmetric truncation |w_a| <= N is an honest
subcomplex.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache, wraps
from typing import Callable

from . import linalg
from .forms import (  # extend_derivation is not called here: bench/tracer.py wraps it by this name
    BasisElement,
    CoefficientModel,
    Form,
    GeneratorImages,
    InconsistentModel,
    enumerate_basis,
    extend_derivation,
    leibniz,
)
from .lie import SHIFTS, ComplexFrame, exterior_d_on_generators, split_d
from .linalg import ExactMatrix
from .scalars import I, ONE, ZERO, Scalar, Triple, mul_triples

DIFFERENTIALS = ("mu", "partial", "dbar", "mubar")

# the seven bidegree components of d^2 = 0, keyed by the common bidegree shift of their chains
SQUARE_ZERO_RELATIONS = {
    (4, -2): "mu.mu",
    (3, -1): "mu.partial+partial.mu",
    (2, 0): "mu.dbar+dbar.mu+partial.partial",
    (1, 1): "mu.mubar+partial.dbar+dbar.partial+mubar.mu",
    (0, 2): "mubar.partial+partial.mubar+dbar.dbar",
    (-1, 3): "mubar.dbar+dbar.mubar",
    (-2, 4): "mubar.mubar",
}

# d = mu + partial + dbar + mubar as the terms of FormComplex.total
D_TERMS = tuple((ONE, name) for name in DIFFERENTIALS)


def shift(name: str) -> tuple[int, int]:
    """Bidegree shift of a differential, its adjoint `name*`, L or Lambda."""
    if name.endswith("*"):
        dp, dq = SHIFTS[name[:-1]]
        return (-dp, -dq)
    return {"L": (1, 1), "Lambda": (-1, -1)}.get(name) or SHIFTS[name]


def compose(block: Callable[[str, int, int], ExactMatrix], names, p: int, q: int) -> ExactMatrix:
    """Matrix of names[0] . names[1] . ... . names[-1] on the (p,q) block.

    block(name, p, q) is one operator's matrix from (p,q); the last name acts
    first.  A chain that leaves the diamond has zero rows.
    """
    mat = None
    for name in reversed(names):
        step = block(name, p, q)
        if step.rows == 0:
            return ExactMatrix(0, step.cols if mat is None else mat.cols)
        mat = step if mat is None else step @ mat
        dp, dq = shift(name)
        p, q = p + dp, q + dq
    return mat


def _dot(row, vec) -> Scalar:
    """sum_k row[k] * vec[k] over the nonzero terms; vec may hold ints."""
    acc = ZERO
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


INVARIANT = CoefficientModel.invariant()


def memoized(method):
    """A method computed once per object and positional argument tuple.

    The values are kept in the object's `_<method>_cache` dict, keyed by the
    argument tuple, so a dropped object drops its values.  Blocks, engine
    numbers and shell diamonds share this one memo.
    """
    attr = f"_{method.__name__}_cache"

    @wraps(method)
    def cached(self, *args):
        memo = vars(self).get(attr)
        if memo is None:
            memo = vars(self)[attr] = {}
        if args not in memo:
            memo[args] = method(self, *args)
        return memo[args]

    return cached


def invariant_matrix(n: int, image: Callable[[BasisElement], dict], p: int, q: int, tp: int, tq: int) -> ExactMatrix:
    """The matrix of a map from invariant (p,q)-monomials to invariant (tp,tq)-monomials.

    image(m) is what the map sends the monomial m to, as {monomial: canonical
    nonzero triple} (forms.leibniz, Form.triples); column m holds its
    triples in that order.  A target off the diamond gives zero rows and
    image is not called; an image component off (tp,tq) is a bidegree fault
    and raises AssertionError.
    """
    src = enumerate_basis(n, p, q, INVARIANT)
    tgt = {m: i for i, m in enumerate(enumerate_basis(n, tp, tq, INVARIANT))}
    triples = {}
    for col, elt in enumerate(src if tgt else ()):
        for e, t in image(elt).items():
            row = tgt.get(e)
            if row is None:
                raise AssertionError(f"the map from ({p},{q}) to ({tp},{tq}) hit {e.bidegree} on {elt}")
            triples[(row, col)] = t
    return ExactMatrix.unchecked(len(tgt), len(src), triples)


@lru_cache(maxsize=16)
def frame_blocks(frame: ComplexFrame) -> "FrameBlocks":
    """The FrameBlocks of a frame, built once; equal frames share them."""
    return FrameBlocks(frame)


def nijenhuis_rank(frame: ComplexFrame) -> int:
    """Rank of mubar as a map from (1,0)-forms to (0,2)-forms."""
    return linalg.rank(frame_blocks(frame).block("mubar", 1, 0))


class FrameBlocks:
    """The differentials of one frame on invariant monomials.

    block(name, p, q) is A, the Leibniz extension of the split structure
    equations, coefficient_block(name, p, q, r) is E_r, the wedge on the
    left with theta^r (partial) or tbar^r (dbar), and conjugation(p, q) is
    the signed permutation of conjugation onto (q,p).  They depend on the
    frame alone, so every truncation and truncation shell of it shares them
    through frame_blocks.
    """

    def __init__(self, frame: ComplexFrame):
        self.n = frame.n
        self.structure = exterior_d_on_generators(frame)
        self.parts = split_d(self.structure)

    @memoized
    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """A: the named differential on invariant (p,q)-monomials."""
        dp, dq = SHIFTS[name]
        action = self.images(name)
        return invariant_matrix(self.n, lambda m: leibniz(action, ((m, (1, 0, 1)),)), p, q, p + dp, q + dq)

    @memoized
    def images(self, name: str) -> GeneratorImages:
        """The split structure equations of one differential ("d" for all of them), converted once."""
        return GeneratorImages(self.structure if name == "d" else self.parts[name])

    @memoized
    def conjugation(self, p: int, q: int) -> ExactMatrix:
        """Conjugation from invariant (p,q)-monomials to (q,p)-monomials: a signed permutation."""
        return invariant_matrix(self.n, lambda m: Form.monomial(m).conjugate().triples(), p, q, q, p)

    @memoized
    def coefficient_block(self, name: str, p: int, q: int, r: int) -> ExactMatrix:
        """E_r of partial or dbar on invariant (p,q)-monomials, r = 1..n, built on first use."""
        dp, dq = SHIFTS[name]
        gen = Form.monomial(BasisElement((), (r,), ()) if name == "partial" else BasisElement((), (), (r,)))
        return invariant_matrix(self.n, lambda m: gen.wedge(Form.monomial(m)).triples(), p, q, p + dp, q + dq)


class FormComplex:
    """The truncated bigraded complex of an invariant almost complex model."""

    def __init__(self, frame: ComplexFrame, coefficients: CoefficientModel):
        self.frame = frame
        self.coefficients = coefficients
        self.n = frame.n
        self._check_coefficients()
        self._frame_blocks = frame_blocks(frame)
        # Z_r acts on the mode e_w by i (M w)_r and Zbar_r by i (Mbar w)_r, where
        # M = Z . actions and Mbar = conj(Z) . actions are n x rank
        columns = list(zip(*coefficients.actions))
        m = [[_dot(z, col) for col in columns] for z in frame.z_vectors]
        mbar = [[_dot([c.conj() for c in z], col) for col in columns] for z in frame.z_vectors]
        self._weights = coefficients.weights()
        self._z_eig = {w: tuple(I * _dot(row, w) for row in m) for w in self._weights}
        self._zbar_eig = {w: tuple(I * _dot(row, w) for row in mbar) for w in self._weights}
        # the directions r = 1..n whose eigenvalue is nonzero at some weight: only their E_r are built
        self._acting = {
            name: [r for r in range(1, self.n + 1) if any(eig[w][r - 1] for w in self._weights)]
            for name, eig in (("partial", self._z_eig), ("dbar", self._zbar_eig))
        }
        # block's memo, keyed (name, p, q), exists before the first block is built
        self._block_cache: dict[tuple[str, int, int], ExactMatrix] = {}

    def _check_coefficients(self) -> None:
        model = self.coefficients
        if model.kind == "invariant":
            return
        if len(model.actions) != self.frame.algebra.dim:
            raise InconsistentModel("one action row per real frame vector is required")
        acting = model.acting_frame_indices()
        table = self.frame.algebra.bracket_table()
        for a in acting:
            if not self.frame.algebra.coframe_is_closed(a):
                raise InconsistentModel(
                    f"frame vector {a} carries a Fourier action but its dual coframe element is not closed"
                )
        for x in acting:
            for y in acting:
                if x < y and table.get((x, y)):
                    raise InconsistentModel(
                        f"frame vectors {x} and {y} both act on coefficients but do not commute"
                    )

    # -- bases ------------------------------------------------------------

    def valid_bidegree(self, p: int, q: int) -> bool:
        return 0 <= p <= self.n and 0 <= q <= self.n

    @memoized
    def basis(self, p: int, q: int) -> tuple[BasisElement, ...]:
        return enumerate_basis(self.n, p, q, self.coefficients)

    @memoized
    def index(self, p: int, q: int) -> dict[BasisElement, int]:
        return {e: i for i, e in enumerate(self.basis(p, q))}

    def dim(self, p: int, q: int) -> int:
        return len(self.basis(p, q))

    def to_vector(self, form: Form, p: int, q: int) -> tuple[Scalar, ...]:
        idx = self.index(p, q)
        vec = [ZERO] * self.dim(p, q)
        for e, c in form.coeffs.items():
            if e.bidegree != (p, q):
                raise ValueError(f"form has a component outside bidegree ({p},{q})")
            vec[idx[e]] = c
        return tuple(vec)

    def from_vector(self, vec, p: int, q: int) -> Form:
        basis = self.basis(p, q)
        return Form({basis[i]: v for i, v in enumerate(vec) if v})

    def from_realified(self, doubled, p: int, q: int) -> Form:
        """The (p,q)-form whose coordinates have the (Re, Im) pairs of a realified vector."""
        coords = [doubled[2 * j] + I * doubled[2 * j + 1] for j in range(self.dim(p, q))]
        return self.from_vector(coords, p, q)

    def lift(self, inv: ExactMatrix, scales=None, negate: bool = False) -> ExactMatrix:
        """The block-diagonal copy of a matrix on invariant monomials, one copy per weight.

        Every basis is weight-major (forms.enumerate_basis), so a pointwise
        operator, one that acts on each Fourier mode alike, is this lift of its
        matrix on the invariant monomials.  With scales, the copy at the k-th
        weight is multiplied by scales[k].  With negate, the copy taken from
        weight w is placed at the rows of -w, as for conjugation; every model
        has a weight set closed under negation.
        """
        weights = self._weights
        at = {w: k for k, w in enumerate(weights)} if negate else None
        triples = {}
        for k, w in enumerate(weights):
            s = ONE if scales is None else scales[k]
            if s:
                u = s.triple
                j = at[tuple(-x for x in w)] if negate else k
                for (r, c), t in inv.triples.items():
                    triples[(r + j * inv.rows, c + k * inv.cols)] = t if scales is None else mul_triples(u, t)
        return ExactMatrix.unchecked(inv.rows * len(weights), inv.cols * len(weights), triples)

    # -- operators ----------------------------------------------------------

    @memoized
    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """Matrix of the named differential from the (p,q) block to its target.

        It is lift(A) plus, for partial and dbar, each E_r lifted with its copy
        at weight w scaled by the eigenvalue of Z_r or Zbar_r on e_w; a
        direction whose eigenvalue vanishes at every weight adds nothing.
        """
        mat = self.lift(self._frame_blocks.block(name, p, q))
        eig = self._z_eig if name == "partial" else self._zbar_eig
        for r in self._acting.get(name, ()):
            scales = [eig[w][r - 1] for w in self._weights]
            mat = mat + self.lift(self._frame_blocks.coefficient_block(name, p, q, r), scales)
        return mat

    def apply(self, name: str, form: Form) -> Form:
        """Apply one of mu, partial, dbar, mubar, d to a form, through the blocks; d is the sum of the four."""
        out = Form()
        for p, q in form.bidegrees():
            vec = self.to_vector(form.bidegree_part(p, q), p, q)
            for part in DIFFERENTIALS if name == "d" else (name,):
                dp, dq = SHIFTS[part]
                if self.valid_bidegree(p + dp, q + dq):
                    out = out + self.from_vector(self.block(part, p, q).apply(vec), p + dp, q + dq)
        return out

    @memoized
    def conj_struct(self, p: int, q: int) -> ExactMatrix:
        """C-linear part of conjugation: (p,q) -> (q,p), weight-negating.

        Conjugation itself is x -> C . conj(x) in coordinates, with C the
        real signed permutation returned here: the lift of the invariant
        conjugation (FrameBlocks.conjugation) whose copy from weight w sits
        at the rows of -w.
        """
        return self.lift(self._frame_blocks.conjugation(p, q), negate=True)

    def conj_twisted_block(self, name: str, p: int, q: int) -> ExactMatrix:
        """Matrix of conj . op . conj on the (p,q) block.

        With conjugation written as C . entrywise-conj, the composite is the
        honest matrix C_out . conj(M) . C_in because C has real entries.
        """
        dp, dq = SHIFTS[name]
        c_in = self.conj_struct(p, q)
        m = self.block(name, q, p)
        tp, tq = q + dp, p + dq
        if not self.valid_bidegree(tp, tq):
            return ExactMatrix(0, self.dim(p, q))
        c_out = self.conj_struct(tp, tq)
        return c_out @ m.conjugate() @ c_in

    # -- total-degree assembly ------------------------------------------------

    def total_blocks(self, r: int) -> list[tuple[int, int]]:
        return [(p, r - p) for p in range(max(0, r - self.n), min(self.n, r) + 1)]

    def total_dim(self, r: int) -> int:
        return sum(self.dim(p, q) for p, q in self.total_blocks(r))

    def total_offsets(self, r: int) -> dict[tuple[int, int], int]:
        out = {}
        off = 0
        for p, q in self.total_blocks(r):
            out[(p, q)] = off
            off += self.dim(p, q)
        return out

    def total(self, block: Callable[[str, int, int], ExactMatrix], terms, r: int) -> ExactMatrix:
        """The map sum_k c_k name_k from degree r, assembled from block(name, p, q) on each (p,q) of degree r.

        terms is a sequence of (c, name) with c a nonzero Scalar; the names share one
        total degree shift and have distinct bidegree shifts, so each block of
        the sum is one term.  A term whose target is off the diamond adds nothing.
        """
        k = sum(shift(terms[0][1]))
        tgt_off = self.total_offsets(r + k)
        triples = {}
        for (p, q), so in self.total_offsets(r).items():
            for c, name in terms:
                dp, dq = shift(name)
                to = tgt_off.get((p + dp, q + dq))
                if to is None:
                    continue
                unit, u = c == ONE, c.triple
                for (rr, cc), t in block(name, p, q).triples.items():
                    triples[(rr + to, cc + so)] = t if unit else mul_triples(u, t)
        return ExactMatrix.unchecked(self.total_dim(r + k), self.total_dim(r), triples)

    @memoized
    def d_total(self, r: int) -> ExactMatrix:
        """Full exterior differential from degree r to degree r+1, assembled once."""
        return self.total(self.block, D_TERMS, r)

    def read_off(self, relations: dict, sides) -> dict[str, tuple[tuple[int, int], ...]]:
        """The failing source blocks of each part of an identity, read off its total-degree sides.

        sides yields (r, lhs, rhs): the identity lhs = rhs of maps from degree
        r to degree r + k.  relations maps each bidegree shift (all of total
        degree k) to the label of the part of the identity with that shift.
        The (p,q) -> (p',q') block of a side is the part of shift (p'-p, q'-q)
        on the (p,q) block, so an entry where the sides differ fails that part
        at (p,q).  This is the one evaluator of every operator identity.
        """
        k = sum(next(iter(relations)))
        failing: dict[tuple[int, int], set[tuple[int, int]]] = {s: set() for s in relations}
        for r, lhs, rhs in sides:
            left, right = lhs.triples, rhs.triples
            if left == right:
                continue
            src, tgt = self.total_offsets(r), self.total_offsets(r + k)
            src_blocks, src_starts = list(src), list(src.values())
            tgt_blocks, tgt_starts = list(tgt), list(tgt.values())
            for row, col in left.keys() | right.keys():
                if left.get((row, col)) != right.get((row, col)):
                    p, q = src_blocks[bisect_right(src_starts, col) - 1]
                    tp, tq = tgt_blocks[bisect_right(tgt_starts, row) - 1]
                    failing[(tp - p, tq - q)].add((p, q))
        return {label: tuple(sorted(failing[s])) for s, label in relations.items()}

    # -- identity suite ---------------------------------------------------------

    def identity_suite(self) -> list[dict]:
        """Exact blockwise checks of the square-zero relations of d.

        The seven bidegree components of d^2 = 0, the reconstruction
        d = mu + partial + dbar + mubar and the total d^2 = 0 are each
        verified as zero-matrix identities on every block.  The checks run
        once per complex; every call returns fresh lists.
        """
        return [
            {"identity": label, "passed": not failures, "failures": list(failures)}
            for label, failures in self._identity_failures
        ]

    @cached_property
    def _identity_failures(self) -> tuple[tuple[str, tuple], ...]:
        """(identity, failing blocks) for every identity of identity_suite.

        The seven relations are read off d_total(r+1) . d_total(r) = 0
        (read_off; the seven shifts are distinct), and d.d fails in the degrees
        of their failing blocks.
        """
        sides = []
        for r in range(2 * self.n):
            product = self.d_total(r + 1) @ self.d_total(r)
            sides.append((r, product, ExactMatrix(product.rows, product.cols)))
        report = list(self.read_off(SQUARE_ZERO_RELATIONS, sides).items())
        dd_fail = tuple(sorted({p + q for _, blocks in report for p, q in blocks}))
        # reconstruction: the Leibniz rule on the unsplit structure equations, applied
        # to each invariant monomial, equals its column in the four invariant blocks
        frame = self._frame_blocks
        images = frame.images("d")
        recon_fail = []
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                columns: dict[int, dict[BasisElement, Triple]] = {}
                for name in DIFFERENTIALS:
                    dp, dq = SHIFTS[name]
                    target = enumerate_basis(self.n, p + dp, q + dq, INVARIANT)
                    for (r, c), t in frame.block(name, p, q).triples.items():
                        columns.setdefault(c, {})[target[r]] = t
                for col, elt in enumerate(enumerate_basis(self.n, p, q, INVARIANT)):
                    if leibniz(images, ((elt, (1, 0, 1)),)) != columns.get(col, {}):
                        recon_fail.append((p, q))
                        break
        report.append(("d=mu+partial+dbar+mubar", tuple(recon_fail)))
        report.append(("d.d", dd_fail))
        return tuple(report)
