"""Hermitian-metric machinery over the truncated complex.

The fundamental form is omega = (i/2) sum g_{k jbar} theta^k ^ tbar^j, so the
identity matrix is the metric making the real frame orthonormal.  The Hodge
star is read from its defining wedge pairing, a signed permutation of
complementary monomials, which keeps every entry in Q(i) for arbitrary
rational Hermitian metrics -- no orthonormal frames, no square roots.
Adjoints follow the sign rule delta^* = -star . conj(delta) . star; distinct
Fourier weights are orthogonal with unit mass, so kernels computed per weight
agree with the whole-matrix kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations

from . import linalg
from .forms import BasisElement, Form, conjugate_element, enumerate_basis, wedge_elements, with_weight_rank
from .lie import SHIFTS
from .linalg import ExactMatrix
from .operators import INVARIANT, FormComplex, invariant_matrix, memoized
from .scalars import I, ONE, ZERO, Scalar, Triple, add_triples, canonical, integer, mul_triples, rational, reduced_triple

HALF_I = rational(1, 2) * I


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
        minors = compound_minors([[v.triple for v in row] for row in self.entries])
        for size in range(1, n + 1):
            leading = tuple(range(1, size + 1))
            a, b, d = minors.get((leading, leading), (0, 0, 1))
            if b or a <= 0:
                raise NotPositive(f"leading principal minor of size {size} is {canonical(a, b, d)}")

    @classmethod
    def identity(cls, n: int) -> "HermitianMetric":
        rows = tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))
        return cls(rows)


def compound_minors(h: list[list[Triple]]) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Triple]:
    """Every nonzero minor of a square matrix of canonical triples, keyed by its 1-based row and column index sets.

    These are the entries of the compound matrices of h, the empty minor 1
    included.  They are built by size, each minor by Laplace expansion along
    its first row over the minors one size smaller, so each is computed once,
    accumulated unreduced and reduced once.
    """
    indices = range(1, len(h) + 1)
    minors = smaller = {((), ()): (1, 0, 1)}
    for k in indices:
        current = {}
        for rows in combinations(indices, k):
            first, rest = h[rows[0] - 1], rows[1:]
            for cols in combinations(indices, k):
                acc = None
                for t, c in enumerate(cols):
                    xa, xb, xd = first[c - 1]
                    m = smaller.get((rest, cols[:t] + cols[t + 1 :])) if xa or xb else None
                    if m is None:
                        continue
                    ma, mb, md = m
                    pa, pb = xa * ma - xb * mb, xa * mb + xb * ma
                    term = (-pa, -pb, xd * md) if t & 1 else (pa, pb, xd * md)
                    acc = term if acc is None else add_triples(acc, term)
                if acc is not None and (acc[0] or acc[1]):
                    current[(rows, cols)] = reduced_triple(*acc)
        minors.update(current)
        smaller = current
    return minors


def _invert(rows) -> list[list[Scalar]]:
    n = len(rows)
    inverse, singular = linalg.solve_many(ExactMatrix.from_rows(rows, n), ExactMatrix.identity(n))
    if singular:
        raise NotPositive("metric matrix is singular")
    return [[inverse.entry(i, j) for j in range(n)] for i in range(n)]


@lru_cache(maxsize=16)
def pointwise_metric(metric: HermitianMetric, rank: int) -> "PointwiseMetric":
    """The PointwiseMetric of a metric on a model with `rank` torus directions, built once."""
    return PointwiseMetric(metric, rank)


class PointwiseMetric:
    """The parts of a HermitianStructure that do not depend on the Fourier weight.

    omega, the dual pairing, the volume coefficient and the Gram, star, L and Lambda
    matrices on invariant monomials depend only on the metric and the torus
    rank, so every complex of one metric (each truncation, each truncation
    shell) shares one instance through pointwise_metric.  A complex lifts
    these matrices to its weights with FormComplex.lift.
    """

    def __init__(self, metric: HermitianMetric, rank: int):
        metric.validate()
        n = self.n = metric.n
        coeffs = {}
        for k in range(n):
            for j in range(n):
                g = metric.entries[k][j]
                if g:
                    coeffs[BasisElement((), (k + 1,), (j + 1,))] = HALF_I * g
        # L wedges invariant monomials with the rank-0 omega; complexes see omega at weight zero
        self._omega_invariant = Form(coeffs)
        omega = self.omega = with_weight_rank(self._omega_invariant, rank)
        if omega.conjugate() != omega:
            raise NotPositive("fundamental form is not real")
        # dual pairing on (1,0)-forms: <theta^a, theta^b> = 2 (G^{-1})_{b a}
        ginv = _invert([list(r) for r in metric.entries])
        two = integer(2)
        self._h = [[two * ginv[b][a] for b in range(n)] for a in range(n)]
        # dV = omega^n / n!, one monomial; vol_coeff is its coefficient
        top = self._omega_invariant
        scale = ONE
        for k in range(2, n + 1):
            top = top.wedge(self._omega_invariant)
            scale = scale * integer(k)
        ((_, top_coeff),) = top.coeffs.items()
        self.vol_coeff = top_coeff / scale
        self._builders = {"gram": self._gram, "star": self._star, "L": self._lefschetz, "Lambda": self._lambda}

    @memoized
    def invariant(self, name: str, p: int, q: int) -> ExactMatrix:
        """The named pointwise operator (gram, star, L or Lambda) on invariant (p,q)-monomials, built once."""
        return self._builders[name](p, q)

    def gram_invariant(self, p: int, q: int) -> ExactMatrix:
        return self.invariant("gram", p, q)

    def star_invariant(self, p: int, q: int) -> ExactMatrix:
        return self.invariant("star", p, q)

    def _monomials(self, p: int, q: int) -> tuple[BasisElement, ...]:
        return enumerate_basis(self.n, p, q, INVARIANT)

    @cached_property
    def _minors(self) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Triple]:
        """The compound matrices of h (compound_minors); those of conj(h) are their conjugates."""
        return compound_minors([[v.triple for v in row] for row in self._h])

    def _gram(self, p: int, q: int) -> ExactMatrix:
        """Pointwise Hermitian pairing of invariant monomials of bidegree (p,q).

        The entry of x and y is the minor of h on their holo index sets times
        the minor of conj(h) on their anti index sets, both read off _minors.
        """
        monos = self._monomials(p, q)
        minors = self._minors
        triples = {}
        for r, x in enumerate(monos):
            for c, y in enumerate(monos):
                holo = minors.get((x.holo, y.holo))
                anti = minors.get((x.anti, y.anti)) if holo else None
                if anti:
                    a, b, d = anti
                    triples[(r, c)] = mul_triples(holo, (a, -b, d))
        return ExactMatrix.unchecked(len(monos), len(monos), triples)

    def _star(self, p: int, q: int) -> ExactMatrix:
        """Star on invariant (p,q)-monomials, read from the wedge pairing.

        For sigma in A^{p,q} the image star(sigma) in A^{n-q,n-p} is pinned by
        phi ^ star(sigma) = <phi, conj(sigma)> dV for all phi in A^{q,p}.  A
        probe phi pairs with one target monomial only, its complement in both
        index sets, with sign +-1: the pairing is a signed permutation, so the
        coordinate of star(sigma) at phi's complement is that sign times the
        right-hand side <phi, conj(sigma)> times the volume coefficient.
        """
        n = self.n
        indices = range(1, n + 1)
        src = self._monomials(p, q)
        probe = self._monomials(q, p)
        tgt_index = {m: i for i, m in enumerate(self._monomials(n - q, n - p))}
        probe_index = {m: i for i, m in enumerate(probe)}
        # per probe: (target row of its complement, sign of phi ^ complement)
        pairing = []
        for phi in probe:
            holo = tuple(s for s in indices if s not in phi.holo)
            beta = BasisElement((), holo, tuple(s for s in indices if s not in phi.anti))
            sign, _ = wedge_elements(phi, beta)
            pairing.append((tgt_index[beta], sign))
        # the Gram column of each conj(sigma), read once
        gram_columns: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), g in self.gram_invariant(q, p).entries.items():
            gram_columns.setdefault(c, []).append((r, g))
        entries = {}
        for col, sigma in enumerate(src):
            csign, celt = conjugate_element(sigma)
            for ip, g in gram_columns.get(probe_index[celt], ()):
                row, sign = pairing[ip]
                v = g * self.vol_coeff
                entries[(row, col)] = v if sign * csign == 1 else -v
        return ExactMatrix(len(tgt_index), len(src), entries)

    def _lefschetz(self, p: int, q: int) -> ExactMatrix:
        """L = omega ^ - from invariant (p,q) to (p+1,q+1)-monomials."""
        omega = self._omega_invariant
        return invariant_matrix(self.n, lambda m: omega.wedge(Form.monomial(m)).triples(), p, q, p + 1, q + 1)

    def _lambda(self, p: int, q: int) -> ExactMatrix:
        """Lambda = (-1)^(p+q) star L star from (p,q) to (p-1,q-1)."""
        n = self.n
        if p < 1 or q < 1:
            return ExactMatrix(0, len(self._monomials(p, q)))
        s_in = self.star_invariant(p, q)  # -> (n-q, n-p)
        lef = self.invariant("L", n - q, n - p)  # -> (n-q+1, n-p+1)
        s_out = self.star_invariant(n - q + 1, n - p + 1)  # -> (p-1, q-1)
        mat = s_out @ lef @ s_in
        return mat if (p + q) % 2 == 0 else -mat


class HermitianStructure:
    """Star, adjoints, Lefschetz pair and Laplacians for one metric.

    Star, L, Lambda and the Gram pairing are pointwise: each block is the
    lift of its PointwiseMetric matrix to the complex's weights.
    """

    def __init__(self, complex_: FormComplex, metric: HermitianMetric):
        pointwise = pointwise_metric(metric, complex_.coefficients.rank)
        if metric.n != complex_.n:
            raise NotPositive("metric size does not match the frame")
        self.complex = complex_
        self.metric = metric
        self.n = complex_.n
        self._pointwise = pointwise
        self.omega = pointwise.omega

    @memoized
    def _lift(self, name: str, p: int, q: int) -> ExactMatrix:
        """The named PointwiseMetric matrix on the (p,q) block, lifted once."""
        return self.complex.lift(self._pointwise.invariant(name, p, q))

    # -- inner products -----------------------------------------------------

    def gram_invariant(self, p: int, q: int) -> ExactMatrix:
        """Pointwise Hermitian pairing of invariant monomials of bidegree (p,q)."""
        return self._pointwise.gram_invariant(p, q)

    def gram(self, p: int, q: int) -> ExactMatrix:
        """The Gram matrix of the (p,q) block: <x, y> = x^T G conj(y); distinct weights are orthogonal."""
        return self._lift("gram", p, q)

    def inner(self, x, y, p: int, q: int) -> Scalar:
        """<x, y> summed over weights; distinct weights are orthogonal."""
        total = ZERO
        for (a, b), g in self.gram(p, q).entries.items():
            if x[a] and y[b]:
                total = total + x[a] * g * y[b].conj()
        return total

    # -- Hodge star -----------------------------------------------------------

    def star_invariant(self, p: int, q: int) -> ExactMatrix:
        """Star on invariant (p,q)-monomials, solved from the wedge pairing (see PointwiseMetric)."""
        return self._pointwise.star_invariant(p, q)

    def star(self, p: int, q: int) -> ExactMatrix:
        """Star on the full truncated (p,q) block; pointwise, weight-preserving."""
        return self._lift("star", p, q)

    def apply_star(self, form: Form) -> Form:
        out = Form()
        for (p, q) in form.bidegrees():
            part = form.bidegree_part(p, q)
            vec = self.complex.to_vector(part, p, q)
            img = self.star(p, q).apply(vec)
            out = out + self.complex.from_vector(img, self.n - q, self.n - p)
        return out

    # -- adjoints and Laplacians ----------------------------------------------

    @memoized
    def adjoint_block(self, name: str, p: int, q: int) -> ExactMatrix:
        """delta^* = -star . (conj delta conj) . star on the (p,q) block, built once."""
        dp, dq = SHIFTS[name]
        tp, tq = p - dp, q - dq
        if not self.complex.valid_bidegree(tp, tq):
            return ExactMatrix(0, self.complex.dim(p, q))
        # the whole star path is valid exactly when the target block is
        s_in = self.star(p, q)  # (p,q) -> (n-q, n-p)
        twisted = self.complex.conj_twisted_block(name, self.n - q, self.n - p)
        s_out = self.star(self.n - q + dq, self.n - p + dp)  # -> (p-dp, q-dq)
        return -(s_out @ twisted @ s_in)

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
        return self._lift("L", p, q)

    def lambda_block(self, p: int, q: int) -> ExactMatrix:
        """Lambda = star^{-1} L star from (p,q) to (p-1,q-1)."""
        return self._lift("Lambda", p, q)

    # -- predicates ---------------------------------------------------------------

    def kahler_predicates(self) -> dict:
        """Whether d(omega) and partial dbar omega vanish; evaluated once per structure, a fresh dict per call."""
        return dict(self._kahler_predicates)

    @cached_property
    def _kahler_predicates(self) -> dict:
        d_omega = self.complex.apply("d", self.omega)
        ddc = self.complex.apply("partial", self.complex.apply("dbar", self.omega))
        return {"almost_kahler": d_omega.is_zero(), "ddc_closed": ddc.is_zero()}
