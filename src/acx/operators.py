"""Assembly of the graded operator calculus as exact matrices.

A FormComplex bundles a complex frame with a coefficient model and exposes
mu, partial, dbar, mubar, d and conjugation both as functions on forms and as
per-bidegree block matrices over the truncated monomial basis.  On the mode
e_w a differential is A + sum_r lambda_r(w) E_r: A is its matrix on
invariant monomials, E_r is theta^r ^ for partial and tbar^r ^ for dbar, and
lambda_r(w) is the eigenvalue of Z_r or Zbar_r on e_w; mu and mubar are the
A term alone.  Every block is therefore a lift of per-frame invariant blocks,
every operator preserves the Fourier weight, and conjugation negates it, so
the symmetric truncation |w_a| <= N is an honest subcomplex.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cached_property, lru_cache
from typing import Callable

from .forms import (
    BasisElement,
    CoefficientModel,
    Form,
    InconsistentModel,
    enumerate_basis,
    extend_derivation,
)
from .lie import SHIFTS, ComplexFrame, exterior_d_on_generators, split_d
from .linalg import ExactMatrix
from .scalars import I, ONE, ZERO, Scalar

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


# operators of the metric calculus that are not differentials; H is (p + q - n) id
_METRIC_SHIFTS = {"L": (1, 1), "Lambda": (-1, -1), "H": (0, 0)}


def shift(name: str) -> tuple[int, int]:
    """Bidegree shift of a differential, its adjoint `name*`, L, Lambda or H."""
    if name in _METRIC_SHIFTS:
        return _METRIC_SHIFTS[name]
    if name.endswith("*"):
        dp, dq = SHIFTS[name[:-1]]
        return (-dp, -dq)
    return SHIFTS[name]


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


def failing_blocks(block: Callable[[str, int, int], ExactMatrix], terms, n: int) -> list[tuple[int, int]]:
    """The bidegrees (p,q) on which the sum of c . compose(block, chain, p, q) is nonzero.

    terms is a list of (c, chain) with c a Scalar; this is the one test of an
    operator identity "sum of chains = 0" on every block of the diamond.  A
    chain that leaves the diamond counts as zero.  All chains must share one
    bidegree shift, or the sum would add maps into different blocks.
    """
    shifts = {tuple(map(sum, zip(*map(shift, chain)))) for _, chain in terms}
    if len(shifts) != 1:
        raise ValueError(f"the chains of an identity must share one bidegree shift, not {sorted(shifts)}")
    ((sp, sq),) = shifts
    failing = []
    for p in range(max(0, -sp), min(n, n - sp) + 1):
        for q in range(max(0, -sq), min(n, n - sq) + 1):
            acc = None
            for c, chain in terms:
                prod = compose(block, chain, p, q)
                if prod.rows == 0:
                    continue
                if c != ONE:
                    prod = prod.scale(c)
                acc = prod if acc is None else acc + prod
            if acc is not None and not acc.is_zero():
                failing.append((p, q))
    return failing


def _dot(row, vec) -> Scalar:
    """sum_k row[k] * vec[k] over the nonzero terms; vec may hold ints."""
    acc = ZERO
    for a, b in zip(row, vec):
        if a and b:
            acc = acc + a * b
    return acc


INVARIANT = CoefficientModel.invariant()


def invariant_matrix(n: int, image: Callable[[BasisElement], Form], p: int, q: int, tp: int, tq: int) -> ExactMatrix:
    """The matrix of a map from invariant (p,q)-monomials to invariant (tp,tq)-monomials.

    image(m) is the Form the map sends the monomial m to.  A target off the
    diamond gives zero rows and image is not called; an image component off
    (tp,tq) is a bidegree fault and raises AssertionError.
    """
    src = enumerate_basis(n, p, q, INVARIANT)
    tgt = {m: i for i, m in enumerate(enumerate_basis(n, tp, tq, INVARIANT))}
    entries = {}
    for col, elt in enumerate(src if tgt else ()):
        for e, c in image(elt).coeffs.items():
            if e.bidegree != (tp, tq):
                raise AssertionError(f"the map from ({p},{q}) to ({tp},{tq}) hit {e.bidegree} on {elt}")
            entries[(tgt[e], col)] = c
    return ExactMatrix(len(tgt), len(src), entries)


@lru_cache(maxsize=16)
def frame_blocks(frame: ComplexFrame) -> "FrameBlocks":
    """The FrameBlocks of a frame, built once; equal frames share them."""
    return FrameBlocks(frame)


class FrameBlocks:
    """The differentials of one frame on invariant monomials.

    block(name, p, q) is A, the Leibniz extension of the split structure
    equations, and coefficient_block(name, p, q, r) is E_r, the wedge on the
    left with theta^r (partial) or tbar^r (dbar).  They depend on the frame
    alone, so every truncation and weight sector of it shares them through
    frame_blocks.
    """

    def __init__(self, frame: ComplexFrame):
        self.n = frame.n
        self.structure = exterior_d_on_generators(frame)
        self.parts = split_d(self.structure)
        self._cache: dict[tuple[str, str, int, int], object] = {}

    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """A: the named differential on invariant (p,q)-monomials."""
        key = ("A", name, p, q)
        if key not in self._cache:
            dp, dq = SHIFTS[name]
            action = self.parts[name]
            leibniz = lambda m: extend_derivation(action, Form.monomial(m))
            self._cache[key] = invariant_matrix(self.n, leibniz, p, q, p + dp, q + dq)
        return self._cache[key]

    def coefficient_block(self, name: str, p: int, q: int, r: int) -> ExactMatrix:
        """E_r of partial or dbar on invariant (p,q)-monomials, r = 1..n, built on first use."""
        key = ("E", name, p, q, r)
        if key not in self._cache:
            dp, dq = SHIFTS[name]
            gen = Form.monomial(BasisElement((), (r,), ()) if name == "partial" else BasisElement((), (), (r,)))
            self._cache[key] = invariant_matrix(self.n, lambda m: gen.wedge(Form.monomial(m)), p, q, p + dp, q + dq)
        return self._cache[key]


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
        self._basis_cache: dict[tuple[int, int], tuple[BasisElement, ...]] = {}
        self._index_cache: dict[tuple[int, int], dict[BasisElement, int]] = {}
        self._block_cache: dict[tuple[str, int, int], ExactMatrix] = {}
        self._conj_cache: dict[tuple[int, int], ExactMatrix] = {}
        self._total_cache: dict[int, ExactMatrix] = {}

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

    def basis(self, p: int, q: int) -> tuple[BasisElement, ...]:
        key = (p, q)
        if key not in self._basis_cache:
            self._basis_cache[key] = enumerate_basis(self.n, p, q, self.coefficients)
        return self._basis_cache[key]

    def index(self, p: int, q: int) -> dict[BasisElement, int]:
        key = (p, q)
        if key not in self._index_cache:
            self._index_cache[key] = {e: i for i, e in enumerate(self.basis(p, q))}
        return self._index_cache[key]

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

    def lift(self, inv: ExactMatrix, scales=None) -> ExactMatrix:
        """The block-diagonal copy of a matrix on invariant monomials, one copy per weight.

        Every basis is weight-major (forms.enumerate_basis), so a pointwise
        operator, one that acts on each Fourier mode alike, is this lift of its
        matrix on the invariant monomials.  With scales, the copy at the k-th
        weight is multiplied by scales[k].
        """
        entries = {}
        for k in range(len(self._weights)):
            s = ONE if scales is None else scales[k]
            if s:
                for (r, c), v in inv.entries.items():
                    entries[(r + k * inv.rows, c + k * inv.cols)] = v if scales is None else s * v
        return ExactMatrix(inv.rows * len(self._weights), inv.cols * len(self._weights), entries)

    # -- operators ----------------------------------------------------------

    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """Matrix of the named differential from the (p,q) block to its target.

        It is lift(A) plus, for partial and dbar, each E_r lifted with its copy
        at weight w scaled by the eigenvalue of Z_r or Zbar_r on e_w; a
        direction whose eigenvalue vanishes at every weight adds nothing.
        """
        key = (name, p, q)
        if key in self._block_cache:
            return self._block_cache[key]
        mat = self.lift(self._frame_blocks.block(name, p, q))
        eig = self._z_eig if name == "partial" else self._zbar_eig
        for r in self._acting.get(name, ()):
            scales = [eig[w][r - 1] for w in self._weights]
            mat = mat + self.lift(self._frame_blocks.coefficient_block(name, p, q, r), scales)
        self._block_cache[key] = mat
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

    def conj_struct(self, p: int, q: int) -> ExactMatrix:
        """C-linear part of conjugation: (p,q) -> (q,p), weight-negating.

        Conjugation itself is x -> C . conj(x) in coordinates, with C the
        real signed permutation returned here.
        """
        key = (p, q)
        if key in self._conj_cache:
            return self._conj_cache[key]
        src = self.basis(p, q)
        tgt_index = self.index(q, p)
        entries = {}
        for col, elt in enumerate(src):
            img = Form.monomial(elt).conjugate()
            ((e, c),) = list(img.coeffs.items())
            entries[(tgt_index[e], col)] = c
        mat = ExactMatrix(self.dim(q, p), len(src), entries)
        self._conj_cache[key] = mat
        return mat

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

    def d_total(self, r: int) -> ExactMatrix:
        """Full exterior differential from degree r to degree r+1, assembled once."""
        if r in self._total_cache:
            return self._total_cache[r]
        src_off = self.total_offsets(r)
        tgt_off = self.total_offsets(r + 1)
        entries = {}
        for (p, q), so in src_off.items():
            for name in DIFFERENTIALS:
                dp, dq = SHIFTS[name]
                tp, tq = p + dp, q + dq
                if (tp, tq) not in tgt_off:
                    continue
                blk = self.block(name, p, q)
                to = tgt_off[(tp, tq)]
                for (rr, cc), v in blk.entries.items():
                    entries[(rr + to, cc + so)] = v
        mat = ExactMatrix(self.total_dim(r + 1), self.total_dim(r), entries)
        self._total_cache[r] = mat
        return mat

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

        The seven relations are read off the products d_total(r+1) . d_total(r):
        their (p,q) -> (p',q') block is the sum of the chains a.b with shift
        (p'-p, q'-q), which is one relation's sum on the (p,q) block, and the
        seven shifts are distinct.  A nonzero entry therefore fails its
        relation at (p,q), and degree r at d.d.
        """
        failing: dict[tuple[int, int], set[tuple[int, int]]] = {s: set() for s in SQUARE_ZERO_RELATIONS}
        dd_fail = []
        for r in range(2 * self.n):
            product = self.d_total(r + 1) @ self.d_total(r)
            if product.is_zero():
                continue
            dd_fail.append(r)
            src_block, tgt_block = self._block_locator(r), self._block_locator(r + 2)
            for row, col in product.entries:
                (p, q), (tp, tq) = src_block(col), tgt_block(row)
                failing[(tp - p, tq - q)].add((p, q))
        report = [(label, tuple(sorted(failing[s]))) for s, label in SQUARE_ZERO_RELATIONS.items()]
        # reconstruction: the Leibniz rule on the unsplit structure equations, applied
        # to each invariant monomial, equals its column in the four invariant blocks
        frame = self._frame_blocks
        recon_fail = []
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                columns: dict[int, dict[BasisElement, Scalar]] = {}
                for name in DIFFERENTIALS:
                    dp, dq = SHIFTS[name]
                    target = enumerate_basis(self.n, p + dp, q + dq, INVARIANT)
                    for (r, c), v in frame.block(name, p, q).entries.items():
                        columns.setdefault(c, {})[target[r]] = v
                for col, elt in enumerate(enumerate_basis(self.n, p, q, INVARIANT)):
                    if extend_derivation(frame.structure, Form.monomial(elt)).coeffs != columns.get(col, {}):
                        recon_fail.append((p, q))
                        break
        report.append(("d=mu+partial+dbar+mubar", tuple(recon_fail)))
        report.append(("d.d", tuple(dd_fail)))
        return tuple(report)

    def _block_locator(self, r: int) -> Callable[[int], tuple[int, int]]:
        """The bidegree (p,q) of a total-degree-r coordinate."""
        offsets = self.total_offsets(r)
        blocks, starts = list(offsets), list(offsets.values())
        return lambda i: blocks[bisect_right(starts, i) - 1]
