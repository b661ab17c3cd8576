"""Every cohomology dimension of the model, from assembled operator blocks.

All quotients are computed as exact subspace dimensions over Q(i), and so is
a harmonic number where dbar and mu compose to zero on its cell: ker/im,
metric-free (harmonic_terms); elsewhere it is the Gram-weighted system's
nullity.  The refined numbers and the harmonic kernels share one chain of
kernels per cell, each an echelon extended by more rows (refined_terms), so
they read dimensions and build no null basis or image.  Matrices
are realified over Q only in the taming correction system and where a
certificate prints real coordinates; a real dimension or a real subspace
equality is read off complex ranks and kernels when conjugation preserves the
spaces, as for the real ddc quotient and the ddc-descent audit, and the real
(1,1) basis is read off the conjugation permutation.  The containments
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
from .forms import CoefficientModel, shell_of
from .lie import SHIFTS, ComplexFrame
from .linalg import ExactMatrix, Subspace
from .metric import HermitianMetric, HermitianStructure, Not4Manifold
from .operators import DIFFERENTIALS, FormComplex, compose, memoized
from .scalars import ONE


class CohomologyEngine:
    """Dimension computations for one complex and its metric.

    Each @memoized method is computed once per engine and argument tuple, so
    the diamond, the audits and the taming pipeline share its values; a
    dropped engine drops them.
    """

    def __init__(self, complex_: FormComplex, hermitian: HermitianStructure):
        self.complex = complex_
        self.hermitian = hermitian
        self.n = complex_.n
        # (p, q) -> whether a_dol(p, q)'s K_I dbar block has no entries; the harmonic guard at (p, q+1) reads it
        self._core_vanishes: dict[tuple[int, int], bool] = {}

    @classmethod
    def of(cls, frame: ComplexFrame, model: CoefficientModel, metric: HermitianMetric) -> "CohomologyEngine":
        """A fresh engine of the frame's complex on the coefficient model, with the metric."""
        cx = FormComplex(frame, model)
        return cls(cx, HermitianStructure(cx, metric))

    def restricted(self, weights) -> "CohomologyEngine":
        """A fresh engine of the direct summand on `weights`, a set closed under negation.

        Operators preserve the weight and conjugation negates it, so its bases
        and blocks are this engine's restricted in order, and kernels, RREFs
        and solves split over it.  An invariant model, or every weight, gives
        this engine itself.
        """
        model = self.complex.coefficients.restricted(weights)
        if model == self.complex.coefficients:
            return self
        return CohomologyEngine.of(self.complex.frame, model, self.hermitian.metric)

    @memoized
    def sector(self, weights: tuple) -> "CohomologyEngine":
        """restricted(weights), built once per engine and weight tuple."""
        return self.restricted(weights)

    # -- truncation shells ---------------------------------------------------------

    @memoized
    def grading(self, blocks: tuple) -> list[int]:
        """The shell of each coordinate of the (p,q) blocks stacked in order; every basis is weight-major."""
        cx = self.complex
        shells = [shell_of(w) for w in cx.coefficients.weights()]
        out: list[int] = []
        for p, q in blocks:
            run = cx.dim(p, q) // len(shells)
            out += [s for s in shells for _ in range(run)]
        return out

    def by_shell(self, terms) -> Counter:
        """sum of sign * dim over (sign, space, blocks) terms, in each shell: the count of the space's
        coordinates there (Subspace.coordinates); a space of None is the whole of its stacked blocks."""
        counts: Counter = Counter()
        for sign, space, blocks in terms:
            grading = self.grading(blocks)
            for s, k in Counter(grading if space is None else map(grading.__getitem__, space.coordinates)).items():
                counts[s] += sign * k
        return counts

    # -- generic block subspaces ------------------------------------------------

    def block(self, name: str, p: int, q: int) -> ExactMatrix:
        """One operator from the (p,q) block: a differential, its adjoint `name*`, L or Lambda."""
        if name == "L":
            return self.hermitian.lefschetz_block(p, q)
        if name == "Lambda":
            return self.hermitian.lambda_block(p, q)
        if name.endswith("*"):
            return self.hermitian.adjoint_block(name[:-1], p, q)
        return self.complex.block(name, p, q)

    def op_kernel(self, name: str, p: int, q: int) -> Subspace:
        return linalg.kernel(self.complex.block(name, p, q))

    def _kernel_of(self, *chains, p: int, q: int) -> Subspace:
        """The common kernel of operator chains on the (p,q) block: the kernel of their stack."""
        return linalg.kernel(ExactMatrix.vstack([compose(self.block, chain, p, q) for chain in chains]))

    @memoized
    def op_image_into(self, name: str, p: int, q: int) -> Subspace:
        """Image of the named operator inside the (p,q) block.

        Built once per engine, so the rank and annihilator it completes are shared by every reader.
        """
        dp, dq = SHIFTS[name]
        sp, sq = p - dp, q - dq
        if not self.complex.valid_bidegree(sp, sq):
            return linalg.zero_space(self.complex.dim(p, q))
        return linalg.image(self.complex.block(name, sp, sq))

    # -- de Rham ------------------------------------------------------------------

    @memoized
    def d_kernel(self, r: int) -> Subspace:
        """ker(d on r-forms), built once: de_rham reads its dimension in degrees r and r + 1."""
        return linalg.kernel(self.complex.d_total(r))

    def de_rham(self, r: int) -> int:
        """dim ker(d on r-forms) - rank(d on (r-1)-forms), the rank being total_dim(r-1) - dim ker."""
        closed = self.d_kernel(r).dim
        return closed if r == 0 else closed - self.complex.total_dim(r - 1) + self.d_kernel(r - 1).dim

    # -- spectral (first page) Dolbeault -------------------------------------------

    @memoized
    def dolbeault_cw_parts(self, p: int, q: int) -> tuple[Subspace, Subspace]:
        """The spectral quotient's parts; the diamond and the four-manifold audit share them."""
        ker_mubar = self.op_kernel("mubar", p, q)
        in_kernel = linalg.preimage(self.complex.block("dbar", p, q), self.op_image_into("mubar", p, q + 1))
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

    @memoized
    def dolbeault_cw(self, p: int, q: int) -> int:
        return linalg.quotient_dim(*self.dolbeault_cw_parts(p, q))

    # -- refined Dolbeault ------------------------------------------------------------
    #
    # One chain per cell, each link memoized and each an echelon extended by more rows (linalg.stacked_kernel):
    # K = ker[dbar; mu] (harmonic_kernel), N = K ^ ker mubar (refined_numerator) and
    # A_Dol = ker[mu; mubar; K_I dbar] (a_dol), K_I being K's independent rows one degree up.  The refined
    # number reads their dimensions, and the harmonic guard reads a_dol's verdict on K_I dbar.

    @memoized
    def harmonic_kernel(self, p: int, q: int) -> Subspace:
        """K = ker dbar ^ ker mu on (p,q): the blocks with entries, dbar's echelon extended by mu's rows (dbar's
        block stands for none)."""
        return self._stacked(self.complex.block("dbar", p, q), self.complex.block("mu", p, q))

    @memoized
    def refined_numerator(self, p: int, q: int) -> Subspace:
        """N = ker dbar ^ ker mu ^ ker mubar on (p,q): K's echelon extended by mubar's rows, K itself where they
        add no pivot."""
        kernel, mubar = self.harmonic_kernel(p, q), self.complex.block("mubar", p, q)
        return linalg.stacked_kernel(kernel, mubar) if mubar.triples else kernel

    def _stacked(self, *blocks: ExactMatrix) -> Subspace:
        """The common kernel of the blocks with entries, the first one's echelon extended by the others' rows;
        the first block's kernel when none has entries."""
        full = [m for m in blocks if m.triples] or blocks[:1]
        space = linalg.kernel(full[0])
        for m in full[1:]:
            space = linalg.stacked_kernel(space, m)
        return space

    def _dbar_core(self, p: int, q: int) -> ExactMatrix:
        """K(p,q+1)'s independent rows composed with dbar on (p,q): the row space of [dbar dbar; mu dbar] on (p,q)
        in rank-K rows, none when dbar on (p,q) has no entries."""
        dbar = self.complex.block("dbar", p, q)
        if not dbar.triples:
            return ExactMatrix(0, dbar.cols)
        core = linalg.row_core(self.harmonic_kernel(p, q + 1).constraint)
        return core @ dbar if core.triples else ExactMatrix(0, dbar.cols)

    @memoized
    def a_dol(self, p: int, q: int) -> Subspace:
        """ker(mu) ^ ker(mubar) ^ ker(dbar^2) ^ ker(mu dbar) inside (p,q).

        The composite (dbar + mu) dbar vanishes iff both summands do, because
        they land in different bidegrees, and [dbar; mu] on (p,q+1) has the row
        space of K's independent rows there, so A_Dol is the common kernel of
        mu, mubar and _dbar_core.  Whether that core has entries is kept, for
        the harmonic guard at (p,q+1); the matrix is not.
        """
        cx = self.complex
        core = self._dbar_core(p, q)
        self._core_vanishes[(p, q)] = not core.triples
        return self._stacked(cx.block("mu", p, q), cx.block("mubar", p, q), core)

    def refined_terms(self, p: int, q: int) -> list[tuple]:
        """h~^{p,q} = dim N(p,q) - dim A(p,q-1) + dim N(p,q-1) as (sign, space, blocks) terms, after the guard.

        dbar maps A(p,q-1) onto the denominator dbar A_Dol^{p,q-1}, and its
        kernel there is N(p,q-1), since dbar^2 and mu dbar vanish on ker dbar:
        so no null basis and no image is built.  The guard dbar A(p,q-1) in
        N(p,q) is a rank test.  K's rows composed with dbar vanish on A(p,q-1),
        which stacks their core, so only N's independent mubar rows composed
        with dbar are reduced by A's echelon, and each must leave nothing.
        """
        numerator = self.refined_numerator(p, q)
        terms = [(1, numerator, ((p, q),))]
        if q == 0 or not self.complex.valid_bidegree(p, q - 1):
            return terms
        below, dbar = self.a_dol(p, q - 1), self.complex.block("dbar", p, q - 1)
        start = self.harmonic_kernel(p, q).constraint.rows
        if dbar.triples and numerator.constraint.rows > start:
            core = linalg.row_core(numerator.constraint, start)
            if core.triples and not linalg.annihilates(core @ dbar, below):
                raise linalg.NotContained("denominator vector escapes the numerator subspace")
        cell = ((p, q - 1),)
        return terms + [(-1, below, cell), (1, self.refined_numerator(p, q - 1), cell)]

    def refined_parts(self, p: int, q: int) -> tuple[Subspace, Subspace]:
        """The refined quotient as subspaces, N(p,q) over dbar A(p,q-1), for readers of their bases."""
        if q == 0 or not self.complex.valid_bidegree(p, q - 1):
            denominator = linalg.zero_space(self.complex.dim(p, q))
        else:
            denominator = linalg.map_subspace(self.complex.block("dbar", p, q - 1), self.a_dol(p, q - 1))
        return self.refined_numerator(p, q), denominator

    @memoized
    def refined_dolbeault(self, p: int, q: int) -> int:
        return sum(sign * space.dim for sign, space, _ in self.refined_terms(p, q))

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

    @memoized
    def _hat_system(self) -> tuple[ExactMatrix, Subspace]:
        """[T | S] on pairs of 1-forms and its kernel, the pairs whose d is pure (1,1)."""
        phi = ExactMatrix.hstack(self._hat_maps())
        kernel = linalg.kernel(phi)
        if self.n == 2:
            # exact_11 maps this basis in dimension four; reading it before hat_h1 reads the
            # dimension spares phi a forward pass on top of its rref
            kernel.generators
        return phi, kernel

    def hat_h01_parts(self) -> tuple[Subspace, Subspace]:
        t, s = self._hat_maps()
        numerator = linalg.preimage(s, linalg.image(t))
        denominator = self.op_image_into("dbar", 0, 1)
        return numerator, denominator

    @memoized
    def hat_h01(self) -> int:
        return linalg.quotient_dim(*self.hat_h01_parts())

    def hat_h1(self, diagonal_potentials: bool = False) -> int:
        """dim of the paired kernel modulo potential pairs (partial f, dbar g).

        diagonal_potentials switches the denominator to the one-function
        variant (f = g), exposed for comparison only.
        """
        return self._hat_h1(diagonal_potentials)

    @memoized
    def _hat_h1(self, diagonal_potentials: bool) -> int:
        return linalg.quotient_dim(*self.hat_h1_parts(diagonal_potentials))

    def hat_h1_parts(self, diagonal_potentials: bool) -> tuple[Subspace, Subspace]:
        """hat_h1's quotient on the 1-form pairs, (1,0) before (0,1)."""
        # numerator: pairs (u1, u2) with T u1 + S u2 = 0, i.e. d(u1 + u2) is pure (1,1)
        phi, numerator = self._hat_system()
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
        good_potentials = linalg.kernel(phi @ psi)
        return numerator, linalg.map_subspace(psi, good_potentials)

    def _d11(self) -> ExactMatrix:
        """The (1,1) part of d on 1-forms (u', u''): dbar u' + partial u''."""
        return ExactMatrix.hstack([self.complex.block("dbar", 1, 0), self.complex.block("partial", 0, 1)])

    def exact_11(self) -> Subspace:
        """The d-exact pure (1,1)-forms: d of the 1-forms whose d has no (2,0) or (0,2) part."""
        return linalg.map_subspace(self._d11(), self._hat_system()[1])

    # -- harmonic intersections --------------------------------------------------------------

    def _harmonic_system(self, deltas, p: int, q: int) -> ExactMatrix:
        """Each operator and the Gram pairing of its adjoint, stacked: the harmonic forms are its kernel.

        For delta into (p,q) from (p-dp, q-dq), <delta u, x> = u^T delta^T G conj(x)
        with G the Gram matrix of (p,q), so ker delta^* = ker conj(delta^T G).  The
        star-built delta^* is G_src^-1 times that block, which has the same kernel;
        the block is left out when the source is off the diamond.
        """
        blocks = []
        for delta in deltas:
            blocks.append(self.complex.block(delta, p, q))
            dp, dq = SHIFTS[delta]
            if self.complex.valid_bidegree(p - dp, q - dq):
                into = self.complex.block(delta, p - dp, q - dq)
                blocks.append((into.transpose() @ self.hermitian.gram(p, q)).conjugate())
        return ExactMatrix.vstack(blocks)

    def harmonic_space(self, deltas, p: int, q: int) -> Subspace:
        return linalg.kernel(self._harmonic_system(deltas, p, q))

    def harmonic_dim(self, deltas, p: int, q: int) -> int:
        system = self._harmonic_system(deltas, p, q)
        return system.cols - linalg.rank(system)

    def harmonic_terms(self, p: int, q: int) -> list[tuple] | None:
        """ell's (sign, space, blocks) terms, dim K - dim I, where dbar and mu compose to zero on (p,q); else None.

        K = ker(dbar, mu out of (p,q)) (harmonic_kernel), I = im(dbar, mu into
        (p,q)), and the guard K.constraint @ I.generators = 0 is read off K's
        independent rows K_I: a_dol one degree down records whether K_I dbar
        vanishes (_dbar_core), and only K_I mu is composed for it.  Then I lies in K and
        ker dbar^* ^ ker mu^* = I^perp for the positive-definite Gram pairing, so
        the harmonic space K ^ I^perp is I's complement in K.  Only blocks with
        entries are stacked, so a one-block K or I reads its memoized block's
        forward pass.
        """
        cx = self.complex
        kernel = self.harmonic_kernel(p, q)
        source = {a: (p - SHIFTS[a][0], q - SHIFTS[a][1]) for a in ("dbar", "mu")}
        ins = [a for a, (sp, sq) in source.items() if cx.valid_bidegree(sp, sq) and cx.block(a, sp, sq).triples]
        if kernel.constraint.triples:
            if "dbar" in ins:
                self.a_dol(*source["dbar"])
                if not self._core_vanishes[source["dbar"]]:
                    return None
            if "mu" in ins and (linalg.row_core(kernel.constraint) @ cx.block("mu", *source["mu"])).triples:
                return None
        terms = [(1, kernel, ((p, q),))]
        if ins:
            terms.append((-1, linalg.sum_spaces([self.op_image_into(a, p, q) for a in ins]), ((p, q),)))
        return terms

    @memoized
    def ell(self, p: int, q: int) -> int:
        terms = self.harmonic_terms(p, q)
        return self.harmonic_dim(("dbar", "mu"), p, q) if terms is None else sum(sign * space.dim for sign, space, _ in terms)

    # -- real structure ------------------------------------------------------------------------

    @memoized
    def real_subspace(self, p: int, q: int) -> Subspace:
        """Fixed points of conjugation inside the doubled (real) coordinates, read off its permutation.

        Conjugation is x -> C conj(x) with C a real signed permutation and
        C^2 = 1, so x = a + ib is fixed iff C a = a and C b = -b.  An orbit
        j < pi(j) with sign s gives the rows e_2j + s e_2pi(j) and
        e_2j+1 - s e_2pi(j)+1; a fixed j gives e_2j when s = 1 and e_2j+1 when
        s = -1.  In order of j these are the reduced rows of the fixed space,
        so no elimination is run.  Only the conjugation-stable blocks
        (q, p) == (p, q) carry one.
        """
        if p != q:
            raise ValueError("real subspaces live on conjugation-stable blocks only")
        c = self.complex.conj_struct(p, q)
        cells = c.entries
        image = {col: (r, s) for (r, col), s in cells.items()}
        if not len(cells) == len(image) == c.cols or any(
            s not in (ONE, -ONE) or image.get(r) != (col, s) for col, (r, s) in image.items()
        ):
            raise AssertionError(f"conjugation on ({p},{q}) is not a signed permutation involution")
        entries = {}
        k = 0
        for j in range(c.cols):
            t, s = image[j]
            if t > j:
                entries[(k, 2 * j)], entries[(k, 2 * t)] = ONE, s
                entries[(k + 1, 2 * j + 1)], entries[(k + 1, 2 * t + 1)] = ONE, -s
                k += 2
            elif t == j:
                entries[(k, 2 * j if s == ONE else 2 * j + 1)] = ONE
                k += 1
        return Subspace(rows=ExactMatrix(k, 2 * c.cols, entries))

    def real_ddc_kernel(self) -> Subspace:
        """ker(del dbar) on real (1,1)-forms, in doubled coordinates: R^T K, held by its basis.

        R is the real basis of real_subspace(1, 1) in its rows and K the null
        basis of the realified del dbar on them, so only the real directions
        are eliminated.
        """
        real = self.real_subspace(1, 1).rows.transpose()
        null = linalg.null_basis(linalg.realify(compose(self.block, ["partial", "dbar"], 1, 1)) @ real)
        return Subspace(generators=real @ null, dim=null.cols)

    @memoized
    def realified_block(self, name: str, p: int, q: int) -> ExactMatrix:
        """One block on (Re, Im) pairs, for the R-linear taming systems."""
        return linalg.realify(self.complex.block(name, p, q))

    @memoized
    def correction_map(self) -> tuple[ExactMatrix, ExactMatrix, ExactMatrix]:
        """The taming correction u -> dbar u + partial ubar + mu u + mubar ubar.

        Returns (K02, K20, S) on realified (0,1)-forms u.  K02 and K20 give
        the (0,2) and (2,0) parts of the correction; ubar = C01 . conj(u), so
        each ubar term is the antilinear part op @ C01.  S is the closedness
        system, the (1,2) rows of d . K: partial on the (0,2) part plus mubar
        on the (2,0) part.  Every map is composed over Q(i) and realified once.
        """
        cx = self.complex
        c01 = cx.conj_struct(0, 1)
        dbar, mu = cx.block("dbar", 0, 1), cx.block("mu", 0, 1)
        mubar_c, partial_c = cx.block("mubar", 1, 0) @ c01, cx.block("partial", 1, 0) @ c01
        partial, mubar = cx.block("partial", 0, 2), cx.block("mubar", 2, 0)
        k02 = linalg.realify(dbar, mubar_c)
        k20 = linalg.realify(mu, partial_c)
        system = linalg.realify(partial @ dbar + mubar @ mu, partial @ mubar_c + mubar @ partial_c)
        return k02, k20, system

    def special_11_quotients(self) -> dict:
        """The de Rham, del-delbar-potential and ddc quotients in bidegree (1,1), each guarded by quotient_dim."""
        return {name: linalg.quotient_dim(*parts) for name, parts in self.special_11_parts().items()}

    def special_11_parts(self) -> dict[str, tuple[Subspace, Subspace]]:
        """The numerator and denominator of each (1,1) special quotient.

        The real ddc quotient is read off complex ranks, with no real basis.  In
        dimension four d^2 = 0 gives dbar del = -del dbar on (1,1), so conjugation
        maps ker(del dbar) onto itself and its real part has real dimension
        dim_C ker(del dbar).  d^{1,1} = [dbar on (1,0) | del on (0,1)] commutes
        with conjugation, so its image of real 1-forms has real dimension
        rank_C d^{1,1}.  Real 1-forms span A^1 over C, so the real containment
        holds iff del dbar . d^{1,1} = 0, the one complex guard product.
        """
        if self.n != 2:
            raise Not4Manifold("the (1,1) special quotients are four-dimensional constructions")
        # numerator: d-closed pure (1,1) forms
        closed = self._kernel_of(*([name] for name in DIFFERENTIALS), p=1, q=1)
        # del-delbar potentials whose ddc output is pure (1,1)
        pure_potentials = self._kernel_of(["mu", "dbar"], ["mubar", "partial"], p=0, q=0)
        pdbar = compose(self.block, ["partial", "dbar"], 0, 0)
        ddc = compose(self.block, ["partial", "dbar"], 1, 1)
        return {
            "h11_dR": (closed, self.exact_11()),
            "h11_BC": (closed, linalg.map_subspace(pdbar, pure_potentials)),
            "h11_ddc_real": (linalg.kernel(ddc), linalg.image(self._d11())),
        }

    def real_one_forms(self) -> Subspace:
        """Real (conjugation-fixed) vectors of A^1 = (1,0) + (0,1), doubled coords."""
        cx = self.complex
        d10, d01 = cx.dim(1, 0), cx.dim(0, 1)
        c_10 = cx.conj_struct(1, 0)  # (1,0) -> (0,1)
        c_01 = cx.conj_struct(0, 1)
        top = ExactMatrix.hstack([ExactMatrix(d10, d10), c_01])
        bottom = ExactMatrix.hstack([c_10, ExactMatrix(d01, d01)])
        # the kernel of conj - id in doubled coordinates
        conj = linalg.realify(None, ExactMatrix.vstack([top, bottom]))
        return linalg.kernel(conj - ExactMatrix.identity(conj.rows))


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


def diamond_numbers(engine: CohomologyEngine) -> dict[int, dict]:
    """Every diamond number of one engine by truncation shell: {s: numbers}, the numbers keyed
    (theory, cell), ("betti", r) or ("scalar", name).

    An engine over one shell reads them off its memoized methods, which a
    session engine's audits share.  An engine over several shells, a diamond
    run's own, splits each by counting its spaces' coordinates per shell.
    """
    shells = sorted({shell_of(w) for w in engine.complex.coefficients.weights()})
    if len(shells) > 1:
        split: dict[int, dict] = {s: {} for s in shells}
        for key, terms in _graded_terms(engine):
            counts = engine.by_shell(terms)
            for s in shells:
                split[s][key] = counts[s]
        return split
    n = engine.n
    out = {}
    for p in range(n + 1):
        for q in range(n + 1):
            out[("refined", (p, q))] = engine.refined_dolbeault(p, q)
            out[("spectral", (p, q))] = engine.dolbeault_cw(p, q)
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
    return {shells[0]: out}


def _graded_terms(engine: CohomologyEngine):
    """(key, terms) for each diamond number in diamond_numbers' order: the (sign, space, blocks) terms
    whose dimensions sum to it.  A quotient's containment guard is checked as it is reached; b_r is
    dim ker d_r - total_dim(r-1) + dim ker d_(r-1)."""
    n, cx = engine.n, engine.complex
    for p in range(n + 1):
        for q in range(n + 1):
            cell = ((p, q),)
            yield ("refined", (p, q)), engine.refined_terms(p, q)
            yield ("spectral", (p, q)), _quotient(engine.dolbeault_cw_parts(p, q), cell)
            harmonic = engine.harmonic_terms(p, q)
            yield ("harmonic", (p, q)), harmonic or [(1, engine.harmonic_space(("dbar", "mu"), p, q), cell)]
    for r in range(2 * n + 1):
        terms = [(1, engine.d_kernel(r), tuple(cx.total_blocks(r)))]
        if r:
            below = tuple(cx.total_blocks(r - 1))
            terms += [(-1, None, below), (1, engine.d_kernel(r - 1), below)]
        yield ("betti", r), terms
    yield ("scalar", "hat_h01"), _quotient(engine.hat_h01_parts(), ((0, 1),))
    pairs = ((1, 0), (0, 1))
    yield ("scalar", "hat_h1"), _quotient(engine.hat_h1_parts(False), pairs)
    yield ("scalar", "hat_h1_diagonal_potentials"), _quotient(engine.hat_h1_parts(True), pairs)
    if n == 2:
        for name, parts in engine.special_11_parts().items():
            yield ("scalar", name), _quotient(parts, ((1, 1),))


def _quotient(parts: tuple[Subspace, Subspace], blocks: tuple) -> list[tuple]:
    """The terms of dim(num/den), after quotient_dim's containment guard."""
    linalg.quotient_dim(*parts)
    num, den = parts
    return [(1, num, blocks), (-1, den, blocks)]


def compute_diamond(columns: Iterable[tuple[str, Iterable[dict]]]) -> HodgeDiamond:
    """One column per (label, parts): the sum of the parts' numbers, each one shell's of diamond_numbers.

    A part is a truncation shell or a whole complex; every number adds over direct sums.
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
