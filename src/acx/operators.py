"""Assembly of the graded operator calculus as exact matrices.

A FormComplex bundles a complex frame with a coefficient model and exposes
mu, partial, dbar, mubar, d and conjugation both as functions on forms and as
per-bidegree block matrices over the truncated monomial basis.  The zero
order operators carry no coefficient-derivative terms; partial adds Z_j(f)
theta^j terms and dbar adds Zbar_j(f) tbar^j terms; every operator preserves
the Fourier weight, and conjugation negates it, so the symmetric truncation
|w_a| <= N is an honest subcomplex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import linalg
from .forms import (
    BasisElement,
    CoefficientModel,
    Form,
    InconsistentModel,
    enumerate_basis,
    extend_derivation,
    with_weight_rank,
)
from .lie import SHIFTS, ComplexFrame, exterior_d_on_generators, split_d
from .linalg import ExactMatrix
from .scalars import ZERO, Scalar

DIFFERENTIALS = ("mu", "partial", "dbar", "mubar")


@dataclass(frozen=True)
class GradedOperator:
    """A named family of exact blocks indexed by source bidegree."""

    name: str
    shift: tuple[int, int]
    blocks: dict

    def block(self, p: int, q: int) -> ExactMatrix:
        return self.blocks[(p, q)]


class FormComplex:
    """The truncated bigraded complex of an invariant almost complex model."""

    def __init__(self, frame: ComplexFrame, coefficients: CoefficientModel):
        self.frame = frame
        self.coefficients = coefficients
        self.n = frame.n
        self._check_coefficients()
        rank = coefficients.rank
        diffs = exterior_d_on_generators(frame)
        parts = split_d(diffs)
        self._gen_action: dict[str, dict] = {
            name: {g: with_weight_rank(f, rank) for g, f in parts[name].items()}
            for name in DIFFERENTIALS
        }
        self._gen_action["d"] = {g: with_weight_rank(f, rank) for g, f in diffs.items()}
        self._weights = coefficients.weights()
        self._z_eig: dict[tuple[int, ...], tuple[Scalar, ...]] = {}
        self._zbar_eig: dict[tuple[int, ...], tuple[Scalar, ...]] = {}
        for w in self._weights:
            z_eigs = []
            zbar_eigs = []
            for r in range(self.n):
                zr = frame.z_vectors[r]
                acc = ZERO
                acc_bar = ZERO
                for a, coord in enumerate(zr, start=1):
                    if coord:
                        lam = coefficients.frame_eigenvalue(a, w)
                        if lam:
                            acc = acc + coord * lam
                            acc_bar = acc_bar + coord.conj() * lam
                z_eigs.append(acc)
                zbar_eigs.append(acc_bar)
            self._z_eig[w] = tuple(z_eigs)
            self._zbar_eig[w] = tuple(zbar_eigs)
        self._basis_cache: dict[tuple[int, int], tuple[BasisElement, ...]] = {}
        self._index_cache: dict[tuple[int, int], dict[BasisElement, int]] = {}
        self._block_cache: dict[tuple[str, int, int], ExactMatrix] = {}
        self._conj_cache: dict[tuple[int, int], ExactMatrix] = {}

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

    def weight_slices(self, p: int, q: int) -> dict[tuple[int, ...], tuple[int, int]]:
        """Contiguous index ranges of each weight inside the (p,q) basis."""
        per_weight = self.dim(p, q) // max(len(self._weights), 1)
        out = {}
        for i, w in enumerate(self._weights):
            out[w] = (i * per_weight, (i + 1) * per_weight)
        return out

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

    # -- operators on forms -------------------------------------------------

    def _coeff_action(self, name: str):
        if name in ("mu", "mubar"):
            return None
        n = self.n

        if name == "partial":
            def act(w):
                eig = self._z_eig[w]
                return Form({BasisElement(w, (r + 1,), ()): eig[r] for r in range(n) if eig[r]})
            return act
        if name == "dbar":
            def act(w):
                eig = self._zbar_eig[w]
                return Form({BasisElement(w, (), (r + 1,)): eig[r] for r in range(n) if eig[r]})
            return act
        if name == "d":
            def act(w):
                zeig = self._z_eig[w]
                zbeig = self._zbar_eig[w]
                out = {BasisElement(w, (r + 1,), ()): zeig[r] for r in range(n) if zeig[r]}
                out.update({BasisElement(w, (), (r + 1,)): zbeig[r] for r in range(n) if zbeig[r]})
                return Form(out)
            return act
        raise KeyError(name)

    def apply(self, name: str, form: Form) -> Form:
        """Apply one of mu, partial, dbar, mubar, d to a form."""
        return extend_derivation(self._gen_action[name], self._coeff_action(name), form)

    # -- operator blocks ----------------------------------------------------

    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """Matrix of the named operator from the (p,q) block to its target."""
        key = (name, p, q)
        if key in self._block_cache:
            return self._block_cache[key]
        dp, dq = SHIFTS[name]
        tp, tq = p + dp, q + dq
        src = self.basis(p, q)
        if not self.valid_bidegree(tp, tq):
            mat = ExactMatrix(0, len(src))
        else:
            tgt_index = self.index(tp, tq)
            entries = {}
            for col, elt in enumerate(src):
                img = self.apply(name, Form.monomial(elt))
                for e, c in img.coeffs.items():
                    if e.bidegree != (tp, tq):
                        raise AssertionError(
                            f"{name} violated its bidegree shift on {elt}: hit {e.bidegree}"
                        )
                    if e.weight != elt.weight:
                        raise AssertionError(f"{name} failed to preserve the weight of {elt}")
                    entries[(tgt_index[e], col)] = c
            mat = ExactMatrix(self.dim(tp, tq), len(src), entries)
        self._block_cache[key] = mat
        return mat

    def graded(self, name: str) -> GradedOperator:
        blocks = {}
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                blocks[(p, q)] = self.block(name, p, q)
        return GradedOperator(name, SHIFTS[name], blocks)

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
        """Full exterior differential from degree r to degree r+1."""
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
        return ExactMatrix(self.total_dim(r + 1), self.total_dim(r), entries)

    def total_form_vector(self, form: Form, r: int):
        off = self.total_offsets(r)
        out = [ZERO] * self.total_dim(r)
        for e, c in form.coeffs.items():
            p, q = e.bidegree
            if p + q != r:
                raise ValueError("form is not homogeneous of the requested degree")
            out[off[(p, q)] + self.index(p, q)[e]] = c
        return tuple(out)

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
        """(identity, failing blocks) for every identity of identity_suite."""
        relations = [
            ("mu.mu", [("mu", "mu")]),
            ("mu.partial+partial.mu", [("mu", "partial"), ("partial", "mu")]),
            ("mu.dbar+dbar.mu+partial.partial", [("mu", "dbar"), ("dbar", "mu"), ("partial", "partial")]),
            (
                "mu.mubar+partial.dbar+dbar.partial+mubar.mu",
                [("mu", "mubar"), ("partial", "dbar"), ("dbar", "partial"), ("mubar", "mu")],
            ),
            ("mubar.partial+partial.mubar+dbar.dbar", [("mubar", "partial"), ("partial", "mubar"), ("dbar", "dbar")]),
            ("mubar.dbar+dbar.mubar", [("mubar", "dbar"), ("dbar", "mubar")]),
            ("mubar.mubar", [("mubar", "mubar")]),
        ]
        report = []
        for label, terms in relations:
            failures = []
            for p in range(self.n + 1):
                for q in range(self.n + 1):
                    acc = None
                    for outer, inner in terms:
                        dpi, dqi = SHIFTS[inner]
                        first = self.block(inner, p, q)
                        mid_p, mid_q = p + dpi, q + dqi
                        if not self.valid_bidegree(mid_p, mid_q):
                            continue
                        second = self.block(outer, mid_p, mid_q)
                        prod = second @ first
                        if prod.rows == 0:
                            continue
                        acc = prod if acc is None else acc + prod
                    if acc is not None and not acc.is_zero():
                        failures.append((p, q))
            report.append((label, tuple(failures)))
        # reconstruction: d equals the sum of its four components, blockwise
        recon_fail = []
        for p in range(self.n + 1):
            for q in range(self.n + 1):
                for elt in self.basis(p, q):
                    mono = Form.monomial(elt)
                    total = self.apply("d", mono)
                    summed = Form()
                    for name in DIFFERENTIALS:
                        summed = summed + self.apply(name, mono)
                    if total != summed:
                        recon_fail.append((p, q))
                        break
        report.append(("d=mu+partial+dbar+mubar", tuple(recon_fail)))
        dd_fail = []
        for r in range(2 * self.n):
            if not (self.d_total(r + 1) @ self.d_total(r)).is_zero():
                dd_fail.append(r)
        report.append(("d.d", tuple(dd_fail)))
        return tuple(report)


def block_at_weight(complex_: FormComplex, name: str, p: int, q: int, w) -> ExactMatrix:
    """The sub-block of a weight-preserving operator at one Fourier weight."""
    dp, dq = SHIFTS[name]
    tp, tq = p + dp, q + dq
    m = complex_.block(name, p, q)
    lo, hi = complex_.weight_slices(p, q)[w]
    if not complex_.valid_bidegree(tp, tq) or complex_.dim(tp, tq) == 0:
        return ExactMatrix(0, hi - lo)
    tlo, thi = complex_.weight_slices(tp, tq)[w]
    entries = {}
    for (r, c), v in m.entries.items():
        if lo <= c < hi:
            if not (tlo <= r < thi):
                raise AssertionError(f"{name} failed to preserve the weight {w}")
            entries[(r - tlo, c - lo)] = v
    return ExactMatrix(thi - tlo, hi - lo, entries)
