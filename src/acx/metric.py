"""Hermitian-metric machinery over the truncated complex.

The fundamental form is omega = (i/2) sum g_{k jbar} theta^k ^ tbar^j, so the
identity matrix is the metric making the real frame orthonormal.  The Hodge
star is computed from its defining wedge-pairing system, which keeps every
entry in Q(i) for arbitrary rational Hermitian metrics -- no orthonormal
frames, no square roots.  Adjoints follow the sign rule delta^* =
-star . conj(delta) . star; distinct Fourier weights are orthogonal with unit
mass, so kernels computed per weight agree with the whole-matrix kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from . import linalg
from .forms import BasisElement, Form
from .lie import SHIFTS
from .linalg import ExactMatrix
from .operators import FormComplex
from .scalars import I, ONE, ZERO, Scalar, integer

HALF_I = Scalar(Fraction(0), Fraction(1, 2))


class NotPositive(Exception):
    """The metric matrix is not Hermitian positive definite."""


class Not4Manifold(Exception):
    """The requested construction only exists in real dimension four."""


@dataclass(frozen=True)
class HermitianMetric:
    """Entries g_{k jbar} in the derived complex coframe."""

    entries: tuple[tuple[Scalar, ...], ...]

    @property
    def n(self) -> int:
        return len(self.entries)

    def validate(self) -> None:
        n = self.n
        for k in range(n):
            for j in range(n):
                if self.entries[k][j] != self.entries[j][k].conj():
                    raise NotPositive("metric matrix is not conjugate-symmetric")
        for size in range(1, n + 1):
            minor = exact_det([row[:size] for row in self.entries[:size]])
            if not minor.is_real() or minor.re <= 0:
                raise NotPositive(f"leading principal minor of size {size} is {minor}")

    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        rows = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        return cls(rows)


def exact_det(rows) -> Scalar:
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    out = ZERO
    for j in range(n):
        if not rows[0][j]:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * exact_det(minor)
        out = out + (term if j % 2 == 0 else -term)
    return out


def _invert(rows) -> list[list[Scalar]]:
    n = len(rows)
    entries = {}
    for r in range(n):
        for c in range(n):
            if rows[r][c]:
                entries[(r, c)] = rows[r][c]
    m = ExactMatrix(n, n, entries)
    cols = []
    for j in range(n):
        unit = [ZERO] * n
        unit[j] = ONE
        sol = linalg.solve(m, unit)
        if sol is None:
            raise NotPositive("metric matrix is singular")
        cols.append(sol)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def fundamental_form(complex_: FormComplex, metric: HermitianMetric) -> Form:
    """omega as a real nondegenerate invariant (1,1)-form."""
    return pointwise_metric(metric, complex_.coefficients.rank).omega


@lru_cache(maxsize=16)
def pointwise_metric(metric: HermitianMetric, rank: int) -> "PointwiseMetric":
    """The PointwiseMetric of a metric on a model with `rank` torus directions, built once."""
    return PointwiseMetric(metric, rank)


class PointwiseMetric:
    """The parts of a HermitianStructure that do not depend on the Fourier weight.

    omega, the dual pairing, the volume form and the Gram and star matrices
    on invariant monomials depend only on the metric and the torus rank, so
    every complex of one metric (each truncation, each weight sector) shares
    one instance through pointwise_metric.
    """

    def __init__(self, metric: HermitianMetric, rank: int):
        metric.validate()
        n = self.n = metric.n
        zero_w = (0,) * rank
        coeffs = {}
        for k in range(n):
            for j in range(n):
                g = metric.entries[k][j]
                if g:
                    coeffs[BasisElement(zero_w, (k + 1,), (j + 1,))] = HALF_I * g
        omega = self.omega = Form(coeffs)
        if omega.conjugate() != omega:
            raise NotPositive("fundamental form is not real")
        # dual pairing on (1,0)-forms: <theta^a, theta^b> = 2 (G^{-1})_{b a}
        ginv = _invert([list(r) for r in metric.entries])
        two = integer(2)
        self._h = [[two * ginv[b][a] for b in range(n)] for a in range(n)]
        acc = omega
        for _ in range(n - 1):
            acc = acc.wedge(omega)
        scale = ONE
        for k in range(2, n + 1):
            scale = scale * integer(k)
        self.volume = acc.scale(ONE / scale)
        self.vol_elt = BasisElement(zero_w, tuple(range(1, n + 1)), tuple(range(1, n + 1)))
        self.vol_coeff = self.volume.coeffs[self.vol_elt]
        self._gram_cache: dict[tuple[int, int], list[list[Scalar]]] = {}
        self._star_cache: dict[tuple[int, int], ExactMatrix] = {}

    def _invariant_monomials(self, p: int, q: int):
        holos = list(combinations(range(1, self.n + 1), p))
        antis = list(combinations(range(1, self.n + 1), q))
        return [(h, a) for h in holos for a in antis]

    def gram_invariant(self, p: int, q: int) -> list[list[Scalar]]:
        """Pointwise Hermitian pairing of invariant monomials of bidegree (p,q)."""
        key = (p, q)
        if key in self._gram_cache:
            return self._gram_cache[key]
        monos = self._invariant_monomials(p, q)
        h = self._h

        def det_sub(rows_idx, cols_idx, conj: bool) -> Scalar:
            rows = [[h[r - 1][c - 1].conj() if conj else h[r - 1][c - 1] for c in cols_idx] for r in rows_idx]
            return exact_det(rows)

        gram = []
        for (hi, ai) in monos:
            row = []
            for (hj, aj) in monos:
                val = det_sub(hi, hj, False) * det_sub(ai, aj, True)
                row.append(val)
            gram.append(row)
        self._gram_cache[key] = gram
        return gram

    def star_invariant(self, p: int, q: int) -> ExactMatrix:
        """Star on invariant (p,q)-monomials, solved from the wedge pairing.

        For sigma in A^{p,q} the image star(sigma) in A^{n-q,n-p} is pinned by
        phi ^ star(sigma) = <phi, conj(sigma)> dV for all phi in A^{q,p}.
        """
        key = (p, q)
        if key in self._star_cache:
            return self._star_cache[key]
        n = self.n
        src = self._invariant_monomials(p, q)
        probe = self._invariant_monomials(q, p)
        tgt = self._invariant_monomials(n - q, n - p)
        gram_qp = self.gram_invariant(q, p)
        probe_index = {m: i for i, m in enumerate(probe)}
        # wedge-pairing matrix W[phi, beta] = vol coefficient of phi ^ beta
        w_entries = {}
        for ip, (ph, pa) in enumerate(probe):
            for ib, (bh, ba) in enumerate(tgt):
                left = Form.monomial(BasisElement((), ph, pa))
                right = Form.monomial(BasisElement((), bh, ba))
                prod = left.wedge(right)
                if prod:
                    ((elt, coeff),) = list(prod.coeffs.items())
                    w_entries[(ip, ib)] = coeff
        w = ExactMatrix(len(probe), len(tgt), w_entries)
        vol = Scalar(self.vol_coeff.re, self.vol_coeff.im)
        cols = []
        for (sh, sa) in src:
            conj_form = Form.monomial(BasisElement((), sh, sa)).conjugate()
            ((celt, ccoeff),) = list(conj_form.coeffs.items())
            rhs = []
            for (ph, pa) in probe:
                g = gram_qp[probe_index[(ph, pa)]][probe_index[(celt.holo, celt.anti)]]
                rhs.append(g * ccoeff.conj() * vol)
            sol = linalg.solve(w, rhs)
            if sol is None:
                raise NotPositive("wedge pairing is degenerate")
            cols.append(sol)
        entries = {}
        for c, col in enumerate(cols):
            for r, v in enumerate(col):
                if v:
                    entries[(r, c)] = v
        mat = ExactMatrix(len(tgt), len(src), entries)
        self._star_cache[key] = mat
        return mat


class HermitianStructure:
    """Star, adjoints, Lefschetz pair and Laplacians for one metric."""

    def __init__(self, complex_: FormComplex, metric: HermitianMetric):
        pointwise = pointwise_metric(metric, complex_.coefficients.rank)
        if metric.n != complex_.n:
            raise NotPositive("metric size does not match the frame")
        self.complex = complex_
        self.metric = metric
        self.n = complex_.n
        self._pointwise = pointwise
        self.omega = pointwise.omega
        self._star_full_cache: dict[tuple[int, int], ExactMatrix] = {}
        self._adjoint_cache: dict[tuple[str, int, int], ExactMatrix] = {}
        self._lefschetz_cache: dict[tuple[int, int], ExactMatrix] = {}

    @property
    def volume_form(self) -> Form:
        return self._pointwise.volume

    # -- inner products -----------------------------------------------------

    def gram_invariant(self, p: int, q: int) -> list[list[Scalar]]:
        """Pointwise Hermitian pairing of invariant monomials of bidegree (p,q)."""
        return self._pointwise.gram_invariant(p, q)

    def inner(self, x, y, p: int, q: int) -> Scalar:
        """<x, y> summed over weights; distinct weights are orthogonal."""
        gram = self.gram_invariant(p, q)
        size = len(gram)
        total = ZERO
        dim = self.complex.dim(p, q)
        for off in range(0, dim, size):
            for a in range(size):
                xa = x[off + a]
                if not xa:
                    continue
                for b in range(size):
                    yb = y[off + b]
                    if yb:
                        total = total + xa * gram[a][b] * yb.conj()
        return total

    # -- Hodge star -----------------------------------------------------------

    def star_invariant(self, p: int, q: int) -> ExactMatrix:
        """Star on invariant (p,q)-monomials (see PointwiseMetric.star_invariant)."""
        return self._pointwise.star_invariant(p, q)

    def star(self, p: int, q: int) -> ExactMatrix:
        """Star on the full truncated (p,q) block; pointwise, weight-preserving."""
        key = (p, q)
        if key in self._star_full_cache:
            return self._star_full_cache[key]
        inv = self.star_invariant(p, q)
        copies = max(len(self.complex.coefficients.weights()), 1)
        entries = {}
        for w in range(copies):
            ro = w * inv.rows
            co = w * inv.cols
            for (r, c), v in inv.entries.items():
                entries[(r + ro, c + co)] = v
        mat = ExactMatrix(inv.rows * copies, inv.cols * copies, entries)
        self._star_full_cache[key] = mat
        return mat

    def apply_star(self, form: Form) -> Form:
        out = Form()
        for (p, q) in form.bidegrees():
            part = form.bidegree_part(p, q)
            vec = self.complex.to_vector(part, p, q)
            img = self.star(p, q).apply(vec)
            out = out + self.complex.from_vector(img, self.n - q, self.n - p)
        return out

    # -- adjoints and Laplacians ----------------------------------------------

    def adjoint_block(self, name: str, p: int, q: int) -> ExactMatrix:
        """delta^* = -star . (conj delta conj) . star on the (p,q) block."""
        key = (name, p, q)
        if key in self._adjoint_cache:
            return self._adjoint_cache[key]
        dp, dq = SHIFTS[name]
        tp, tq = p - dp, q - dq
        if not self.complex.valid_bidegree(tp, tq):
            mat = ExactMatrix(0, self.complex.dim(p, q))
        else:
            # the whole star path is valid exactly when the target block is
            s_in = self.star(p, q)  # (p,q) -> (n-q, n-p)
            twisted = self.complex.conj_twisted_block(name, self.n - q, self.n - p)
            s_out = self.star(self.n - q + dq, self.n - p + dp)  # -> (p-dp, q-dq)
            mat = -(s_out @ twisted @ s_in)
        self._adjoint_cache[key] = mat
        return mat

    def laplacian_block(self, name: str, p: int, q: int) -> ExactMatrix:
        """delta delta^* + delta^* delta on the (p,q) block."""
        dim = self.complex.dim(p, q)
        dp, dq = SHIFTS[name]
        acc = ExactMatrix(dim, dim)
        fwd = self.complex.block(name, p, q)
        if fwd.rows:
            back = self.adjoint_block(name, p + dp, q + dq)
            if back.rows:
                acc = acc + (back @ fwd)
        down = self.adjoint_block(name, p, q)
        if down.rows:
            up = self.complex.block(name, p - dp, q - dq)
            if up.rows:
                acc = acc + (up @ down)
        return acc

    # -- Lefschetz pair --------------------------------------------------------

    def lefschetz_block(self, p: int, q: int) -> ExactMatrix:
        """L = omega ^ - from (p,q) to (p+1,q+1)."""
        key = (p, q)
        if key in self._lefschetz_cache:
            return self._lefschetz_cache[key]
        src = self.complex.basis(p, q)
        if not self.complex.valid_bidegree(p + 1, q + 1):
            mat = ExactMatrix(0, len(src))
        else:
            tgt_index = self.complex.index(p + 1, q + 1)
            entries = {}
            for col, elt in enumerate(src):
                img = self.omega.wedge(Form.monomial(elt))
                for e, c in img.coeffs.items():
                    entries[(tgt_index[e], col)] = c
            mat = ExactMatrix(self.complex.dim(p + 1, q + 1), len(src), entries)
        self._lefschetz_cache[key] = mat
        return mat

    def lambda_block(self, p: int, q: int) -> ExactMatrix:
        """Lambda = star^{-1} L star from (p,q) to (p-1,q-1)."""
        if not self.complex.valid_bidegree(p - 1, q - 1):
            return ExactMatrix(0, self.complex.dim(p, q))
        s_in = self.star(p, q)  # -> (n-q, n-p)
        lef = self.lefschetz_block(self.n - q, self.n - p)  # -> (n-q+1, n-p+1)
        s_out = self.star(self.n - q + 1, self.n - p + 1)  # -> (p-1, q-1)
        sign = 1 if (p + q) % 2 == 0 else -1
        mat = s_out @ lef @ s_in
        return mat if sign == 1 else -mat

    # -- predicates and splittings ----------------------------------------------

    def kahler_predicates(self) -> dict:
        d_omega = self.complex.apply("d", self.omega)
        ddc = self.complex.apply("partial", self.complex.apply("dbar", self.omega))
        return {"almost_kahler": d_omega.is_zero(), "ddc_closed": ddc.is_zero()}

    def asd_split(self):
        """(+1, -1) eigenspaces of star on invariant 2-forms (dimension 4 only)."""
        if self.n != 2:
            raise Not4Manifold("self-dual splitting requested off dimension four")
        blocks = [(2, 0), (1, 1), (0, 2)]
        mats = {b: self.star_invariant(*b) for b in blocks}
        dims = {b: mats[b].cols for b in blocks}
        total = sum(dims.values())
        entries = {}
        off = 0
        for b in blocks:
            for (r, c), v in mats[b].entries.items():
                entries[(off + r, off + c)] = v
            off += dims[b]
        star2 = ExactMatrix(total, total, entries)
        ident = ExactMatrix.identity(total)
        plus = linalg.kernel(star2 - ident)
        minus = linalg.kernel(star2 + ident)
        return plus, minus

    def integral(self, form: Form) -> Scalar:
        """Model-level integral: the volume coefficient of the weight-zero part."""
        c = form.coeffs.get(self._pointwise.vol_elt, ZERO)
        return c / self._pointwise.vol_coeff
