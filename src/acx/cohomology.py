"""Every cohomology dimension of the model, from assembled operator blocks.

All quotients are computed as exact subspace dimensions over Q(i) (or over Q
after realification where a real structure is required).  The containments
that make each quotient well defined are asserted; a violation raises
NotContained and is treated as a fatal model diagnostic rather than clamped.
Everything here is model-level: dimensions refer to the invariant complex,
optionally tensored with the truncated Fourier modes, never to the full
infinite-dimensional form spaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from . import linalg
from .lie import SHIFTS
from .linalg import ExactMatrix, Subspace
from .metric import HermitianStructure, Not4Manifold
from .operators import FormComplex
from .scalars import ONE, ZERO


class CohomologyEngine:
    """Dimension computations for one complex (and optional metric)."""

    def __init__(self, complex_: FormComplex, hermitian: HermitianStructure | None = None):
        self.complex = complex_
        self.hermitian = hermitian
        self.n = complex_.n
        self._adol_cache: dict[tuple[int, int], Subspace] = {}

    # -- generic block subspaces ------------------------------------------------

    def op_kernel(self, name: str, p: int, q: int) -> Subspace:
        m = self.complex.block(name, p, q)
        if m.rows == 0:
            return linalg.full_space(m.cols)
        return linalg.kernel(m)

    def op_image_into(self, name: str, p: int, q: int) -> Subspace:
        """Image of the named operator inside the (p,q) block."""
        dp, dq = SHIFTS[name]
        sp, sq = p - dp, q - dq
        if not self.complex.valid_bidegree(sp, sq):
            return linalg.zero_space(self.complex.dim(p, q))
        return linalg.image(self.complex.block(name, sp, sq))

    def _compose(self, outer: str, inner: str, p: int, q: int) -> ExactMatrix:
        """Matrix of outer . inner from the (p,q) block (zero rows if it dies)."""
        dpi, dqi = SHIFTS[inner]
        mp, mq = p + dpi, q + dqi
        first = self.complex.block(inner, p, q)
        if not self.complex.valid_bidegree(mp, mq):
            return ExactMatrix(0, first.cols)
        second = self.complex.block(outer, mp, mq)
        if second.rows == 0:
            return ExactMatrix(0, first.cols)
        return second @ first

    # -- de Rham ------------------------------------------------------------------

    def de_rham(self, r: int) -> int:
        """dim ker(d on r-forms) - rank(d on (r-1)-forms)."""
        d_r = self.complex.d_total(r)
        kernel_dim = d_r.cols - linalg.rank(d_r) if d_r.rows else d_r.cols
        if r == 0:
            return kernel_dim
        return kernel_dim - linalg.rank(self.complex.d_total(r - 1))

    # -- spectral (first page) Dolbeault -------------------------------------------

    def dolbeault_cw_parts(self, p: int, q: int) -> tuple[Subspace, Subspace]:
        ker_mubar = self.op_kernel("mubar", p, q)
        dbar = self.complex.block("dbar", p, q)
        if dbar.rows == 0:
            in_kernel = linalg.full_space(dbar.cols)
        else:
            target_image = self.op_image_into("mubar", p, q + 1)
            in_kernel = linalg.preimage(dbar, target_image)
        numerator = linalg.intersect([ker_mubar, in_kernel])
        den_parts = []
        dbar_image = self.op_image_into("dbar", p, q)
        if dbar_image.dim:
            den_parts.append(linalg.intersect([dbar_image, ker_mubar]))
        mubar_image = self.op_image_into("mubar", p, q)
        if mubar_image.dim:
            den_parts.append(mubar_image)
        if den_parts:
            denominator = linalg.sum_spaces(den_parts)
        else:
            denominator = linalg.zero_space(self.complex.dim(p, q))
        return numerator, denominator

    def dolbeault_cw(self, p: int, q: int) -> int:
        numerator, denominator = self.dolbeault_cw_parts(p, q)
        return linalg.quotient_dim(numerator, denominator)

    # -- refined Dolbeault ------------------------------------------------------------

    def a_dol(self, p: int, q: int) -> Subspace:
        """ker(mu) ^ ker(mubar) ^ ker(dbar^2) ^ ker(mu dbar) inside (p,q).

        The composite (dbar + mu) dbar vanishes iff both summands do, because
        they land in different bidegrees.
        """
        key = (p, q)
        if key in self._adol_cache:
            return self._adol_cache[key]
        dim = self.complex.dim(p, q)
        pieces = [self.op_kernel("mu", p, q), self.op_kernel("mubar", p, q)]
        dbar2 = self._compose("dbar", "dbar", p, q)
        if dbar2.rows:
            pieces.append(linalg.kernel(dbar2))
        mu_dbar = self._compose("mu", "dbar", p, q)
        if mu_dbar.rows:
            pieces.append(linalg.kernel(mu_dbar))
        out = linalg.intersect(pieces) if dim else linalg.zero_space(0)
        self._adol_cache[key] = out
        return out

    def refined_parts(self, p: int, q: int) -> tuple[Subspace, Subspace]:
        numerator = linalg.intersect([self.op_kernel("dbar", p, q), self.a_dol(p, q)])
        if q == 0 or not self.complex.valid_bidegree(p, q - 1):
            denominator = linalg.zero_space(self.complex.dim(p, q))
        else:
            below = self.a_dol(p, q - 1)
            dbar = self.complex.block("dbar", p, q - 1)
            denominator = linalg.map_subspace(dbar, below)
        return numerator, denominator

    def refined_dolbeault(self, p: int, q: int) -> int:
        numerator, denominator = self.refined_parts(p, q)
        return linalg.quotient_dim(numerator, denominator)

    # -- hat spaces -----------------------------------------------------------------------

    def _hat_maps(self):
        """T: (1,0)-forms -> (2,0)+(0,2); S: (0,1)-forms -> same stack."""
        t20 = self.complex.block("partial", 1, 0)
        t02 = self.complex.block("mubar", 1, 0)
        s20 = self.complex.block("mu", 0, 1)
        s02 = self.complex.block("dbar", 0, 1)
        t = ExactMatrix.vstack([t20, t02])
        s = ExactMatrix.vstack([s20, s02])
        return t, s

    def hat_h01_parts(self) -> tuple[Subspace, Subspace]:
        t, s = self._hat_maps()
        numerator = linalg.preimage(s, linalg.image(t))
        denominator = self.op_image_into("dbar", 0, 1)
        return numerator, denominator

    def hat_h01(self) -> int:
        numerator, denominator = self.hat_h01_parts()
        return linalg.quotient_dim(numerator, denominator)

    def hat_h1(self, diagonal_potentials: bool = False) -> int:
        """dim of the paired kernel modulo potential pairs (partial f, dbar g).

        diagonal_potentials switches the denominator to the one-function
        variant (f = g), exposed for comparison only.
        """
        t, s = self._hat_maps()
        # numerator: kernel of (u1, u2) -> (d^{0,2}, d^{2,0}) components
        mubar10 = self.complex.block("mubar", 1, 0)
        dbar01 = self.complex.block("dbar", 0, 1)
        partial10 = self.complex.block("partial", 1, 0)
        mu01 = self.complex.block("mu", 0, 1)
        top = ExactMatrix.hstack([mubar10, dbar01])
        bottom = ExactMatrix.hstack([partial10, mu01])
        phi = ExactMatrix.vstack([top, bottom])
        numerator = linalg.kernel(phi) if phi.rows else linalg.full_space(phi.cols)
        # denominator: (partial f, dbar g) pairs satisfying the same equations
        pf = self.complex.block("partial", 0, 0)
        dg = self.complex.block("dbar", 0, 0)
        dim0 = self.complex.dim(0, 0)
        if diagonal_potentials:
            psi = ExactMatrix.vstack([pf, dg])
        else:
            zero = ExactMatrix(pf.rows, dim0)
            psi = ExactMatrix.vstack(
                [ExactMatrix.hstack([pf, zero]), ExactMatrix.hstack([ExactMatrix(dg.rows, dim0), dg])]
            )
        constrained = phi @ psi
        good_potentials = linalg.kernel(constrained) if constrained.rows else linalg.full_space(psi.cols)
        denominator = linalg.map_subspace(psi, good_potentials)
        return linalg.quotient_dim(numerator, denominator)

    # -- harmonic intersections --------------------------------------------------------------

    def harmonic_space(self, deltas, p: int, q: int) -> Subspace:
        if self.hermitian is None:
            raise ValueError("harmonic spaces require a metric")
        pieces = []
        for name in deltas:
            pieces.append(self.op_kernel(name, p, q))
            adj = self.hermitian.adjoint_block(name, p, q)
            if adj.rows:
                pieces.append(linalg.kernel(adj))
        dim = self.complex.dim(p, q)
        if not dim:
            return linalg.zero_space(0)
        return linalg.intersect(pieces) if pieces else linalg.full_space(dim)

    def harmonic_dim(self, deltas, p: int, q: int) -> int:
        return self.harmonic_space(deltas, p, q).dim

    def ell(self, p: int, q: int) -> int:
        return self.harmonic_dim(("dbar", "mu"), p, q)

    # -- real structure ------------------------------------------------------------------------

    def real_subspace(self, p: int, q: int) -> Subspace:
        """Fixed points of conjugation inside the doubled (real) coordinates.

        Only the conjugation-stable blocks (q, p) == (p, q) carry one.
        """
        if p != q:
            raise ValueError("real subspaces live on conjugation-stable blocks only")
        c = linalg.realify(self.complex.conj_struct(p, q))
        conj_real = c @ linalg.conjugation_flip(self.complex.dim(p, q))
        return linalg.kernel(conj_real - ExactMatrix.identity(conj_real.rows))

    def special_11_quotients(self) -> dict:
        """The de Rham, del-delbar-potential and ddc quotients in bidegree (1,1)."""
        if self.n != 2:
            raise Not4Manifold("the (1,1) special quotients are four-dimensional constructions")
        cx = self.complex
        dim11 = cx.dim(1, 1)
        # numerator: d-closed pure (1,1) forms
        d_parts = [cx.block(name, 1, 1) for name in ("mu", "partial", "dbar", "mubar")]
        d_parts = [m for m in d_parts if m.rows]
        closed = linalg.kernel(ExactMatrix.vstack(d_parts)) if d_parts else linalg.full_space(dim11)
        # d-exact forms inside the (1,1) block of degree-2 forms
        offsets = cx.total_offsets(2)
        lo = offsets[(1, 1)]
        hi = lo + dim11
        d1 = cx.d_total(1)
        image_total = linalg.image(d1)
        block_vectors = []
        for i in range(dim11):
            v = [ZERO] * cx.total_dim(2)
            v[lo + i] = ONE
            block_vectors.append(tuple(v))
        block_space = linalg.subspace_from_vectors(cx.total_dim(2), block_vectors)
        exact_in_block_total = linalg.intersect([image_total, block_space])
        exact_11 = linalg.subspace_from_vectors(dim11, (v[lo:hi] for v in exact_in_block_total.basis))
        h11_dr = linalg.quotient_dim(closed, exact_11)
        # del-delbar potentials whose ddc output is pure (1,1)
        pdbar = self._compose("partial", "dbar", 0, 0)
        mu_dbar = self._compose("mu", "dbar", 0, 0)
        mubar_partial = self._compose("mubar", "partial", 0, 0)
        constraints = [m for m in (mu_dbar, mubar_partial) if m.rows]
        if constraints:
            pure_potentials = linalg.kernel(ExactMatrix.vstack(constraints))
        else:
            pure_potentials = linalg.full_space(cx.dim(0, 0))
        bc_denominator = linalg.map_subspace(pdbar, pure_potentials) if pdbar.rows else linalg.zero_space(dim11)
        h11_bc = linalg.quotient_dim(closed, bc_denominator)
        # real ddc quotient: ker(del dbar on real (1,1)) / image of d^{1,1} on real 1-forms
        pdbar11 = self._compose("partial", "dbar", 1, 1)
        real11 = self.real_subspace(1, 1)
        if pdbar11.rows:
            ddc_kernel = linalg.kernel(linalg.realify(pdbar11))
            num_real = linalg.intersect([ddc_kernel, real11])
        else:
            num_real = real11
        # d^{1,1} on real 1-forms: (u', u'') -> partial u'' + dbar u'
        dbar10 = cx.block("dbar", 1, 0)
        partial01 = cx.block("partial", 0, 1)
        d11 = ExactMatrix.hstack([dbar10, partial01])
        real1 = self.real_one_forms()
        den_real = linalg.map_subspace(linalg.realify(d11), real1)
        h11_ddc_real = linalg.quotient_dim(num_real, den_real)
        return {"h11_dR": h11_dr, "h11_BC": h11_bc, "h11_ddc_real": h11_ddc_real}

    def real_one_forms(self) -> Subspace:
        """Real (conjugation-fixed) vectors of A^1 = (1,0) + (0,1), doubled coords."""
        cx = self.complex
        d10, d01 = cx.dim(1, 0), cx.dim(0, 1)
        c_10 = cx.conj_struct(1, 0)  # (1,0) -> (0,1)
        c_01 = cx.conj_struct(0, 1)
        top = ExactMatrix.hstack([ExactMatrix(d10, d10), c_01])
        bottom = ExactMatrix.hstack([c_10, ExactMatrix(d01, d01)])
        c_full = ExactMatrix.vstack([top, bottom])
        total = d10 + d01
        conj_real = linalg.realify(c_full) @ linalg.conjugation_flip(total)
        return linalg.kernel(conj_real - ExactMatrix.identity(2 * total))


# -- diamonds ---------------------------------------------------------------------------


@dataclass
class HodgeDiamond:
    """Per-truncation dimension tables with growth tracking.

    An entry is flagged as an unbounded-witness when it strictly increases
    across every consecutive pair of at least three computed truncations; a
    finite-dimensional theory stabilizes, so sustained strict growth is the
    strongest finite certificate the model can produce.
    """

    labels: tuple[str, ...]
    betti: dict = field(default_factory=dict)
    tables: dict = field(default_factory=dict)
    scalars: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    scope: str = "model-level (finite subcomplex); entries are exact dimensions"

    def detect_witnesses(self) -> None:
        self.witnesses = []
        if len(self.labels) < 3:
            return
        for theory, table in self.tables.items():
            for cell, values in table.items():
                if all(a < b for a, b in zip(values, values[1:])):
                    self.witnesses.append((theory, cell))
        for name, values in self.scalars.items():
            if all(a < b for a, b in zip(values, values[1:])):
                self.witnesses.append(("scalar", name))

    def as_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "betti": {str(r): v for r, v in sorted(self.betti.items())},
            "tables": {
                theory: {f"{p},{q}": v for (p, q), v in sorted(table.items())}
                for theory, table in sorted(self.tables.items())
            },
            "scalars": dict(sorted(self.scalars.items())),
            "unbounded_witnesses": [
                {"theory": t, "cell": (f"{c[0]},{c[1]}" if isinstance(c, tuple) else c)}
                for t, c in sorted(self.witnesses, key=str)
            ],
            "scope": self.scope,
        }


def diamond_numbers(engine: CohomologyEngine) -> dict:
    """Every diamond number of one engine, keyed (theory, cell), ("betti", r) or ("scalar", name)."""
    n = engine.n
    out = {}
    for p in range(n + 1):
        for q in range(n + 1):
            out[("refined", (p, q))] = engine.refined_dolbeault(p, q)
            out[("spectral", (p, q))] = engine.dolbeault_cw(p, q)
            if engine.hermitian is not None:
                out[("harmonic", (p, q))] = engine.ell(p, q)
    for r in range(2 * n + 1):
        out[("betti", r)] = engine.de_rham(r)
    out[("scalar", "hat_h01")] = engine.hat_h01()
    out[("scalar", "hat_h1")] = engine.hat_h1()
    # the one-potential variant is reported alongside for comparison only
    out[("scalar", "hat_h1_diagonal_potentials")] = engine.hat_h1(diagonal_potentials=True)
    if n == 2:
        for k, v in engine.special_11_quotients().items():
            out[("scalar", k)] = v
    return out


def compute_diamond(columns: Iterable[tuple[str, Iterable[dict]]]) -> HodgeDiamond:
    """One column per (label, parts): the sum of the parts' diamond_numbers.

    A part is a weight sector or a whole complex; every number adds over direct sums.
    """
    columns = list(columns)
    diamond = HodgeDiamond(labels=tuple(label for label, _ in columns))
    for _, parts in columns:
        total = Counter()
        for numbers in parts:
            total.update(numbers)
        for (kind, key), v in total.items():
            if kind == "betti":
                diamond.betti.setdefault(key, []).append(v)
            elif kind == "scalar":
                diamond.scalars.setdefault(key, []).append(v)
            else:
                diamond.tables.setdefault(kind, {}).setdefault(key, []).append(v)
    diamond.detect_witnesses()
    return diamond
