"""Invariant frame calculus.

From a real Lie algebra (rational structure constants) and a rational almost
complex structure J, build the complexified (1,0)-frame and its dual coframe,
derive the action of the exterior differential on coframe generators via
d(alpha)(X, Y) = -alpha([X, Y]) and split it into the four bidegree
components.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import lcm
from typing import Sequence

from . import linalg
from .forms import BasisElement, Form
from .linalg import ExactMatrix
from .scalars import I, ONE, ZERO, Scalar, add_triples, canonical, from_fraction, rational, reduced_triple

# bidegree shifts of the components of d
SHIFTS = {"mu": (2, -1), "partial": (1, 0), "dbar": (0, 1), "mubar": (-1, 2)}


def _hash_once(self) -> int:
    """A frozen dataclass's field hash, taken once: the frame layer's lru caches hash their arguments on every call."""
    if "_hash" not in self.__dict__:
        self.__dict__["_hash"] = hash(tuple(getattr(self, f.name) for f in fields(self)))
    return self.__dict__["_hash"]


class DegenerateJ(Exception):
    """The supplied endomorphism does not square to minus the identity."""


@dataclass(frozen=True)
class LieAlgebraSpec:
    """Real Lie algebra with rational structure constants.

    brackets holds c^k_{ij} for i < j only; [e_i, e_j] = sum_k c^k_{ij} e_k
    and antisymmetry supplies the rest.
    """

    dim: int
    brackets: tuple[tuple[int, int, int, Fraction], ...]
    __hash__ = _hash_once

    @classmethod
    def from_entries(cls, dim: int, entries: Sequence[tuple[int, int, int, Fraction]]) -> "LieAlgebraSpec":
        table: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k, value) in entries:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ValueError(f"bracket index out of range in ({i},{j},{k})")
            if i == j:
                if value != 0:
                    raise ValueError(f"[e_{i}, e_{i}] must vanish")
                continue
            if i > j:
                i, j, value = j, i, -value
            key = (i, j, k)
            if key in table and table[key] != value:
                raise ValueError(f"conflicting values for c^{k}_({i},{j})")
            table[key] = value
        cleaned = tuple(sorted((i, j, k, v) for (i, j, k), v in table.items() if v != 0))
        return cls(dim, cleaned)

    def bracket_table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        out: dict[tuple[int, int], dict[int, Fraction]] = {}
        for (i, j, k, v) in self.brackets:
            out.setdefault((i, j), {})[k] = v
        return out

    @cached_property
    def _int_brackets(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """The brackets with 0-based indices and each constant as numerator, denominator; converted once."""
        return tuple((i - 1, j - 1, k - 1, v.numerator, v.denominator) for (i, j, k, v) in self.brackets)

    def coframe_is_closed(self, index: int) -> bool:
        """Whether d e^index = 0, i.e. e_index never appears as a bracket target."""
        return all(k != index for (_, _, k, _) in self.brackets)


@dataclass(frozen=True)
class AlmostComplexStructure:
    """A rational endomorphism J of the real algebra with J^2 = -1."""

    matrix: tuple[tuple[Fraction, ...], ...]
    __hash__ = _hash_once

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @cached_property
    def squares_to_minus_one(self) -> bool:
        """Whether J^2 = -1 exactly; evaluated once per structure, however many checks ask."""
        return square_is_minus_identity(self.matrix)


def square_is_minus_identity(matrix: Sequence[Sequence[Fraction]]) -> bool:
    """J^2 = -1 in integer arithmetic: with J = A / D over a common denominator D, A^2 = -D^2."""
    n = len(matrix)
    den = lcm(*(x.denominator for row in matrix for x in row))
    a = [[x.numerator * (den // x.denominator) for x in row] for row in matrix]
    minus_d2 = -den * den
    for i in range(n):
        row = a[i]
        for j in range(n):
            if sum(row[k] * a[k][j] for k in range(n)) != (minus_d2 if i == j else 0):
                return False
    return True


@dataclass(frozen=True)
class ComplexFrame:
    """(1,0)-frame vectors, their conjugates and the dual coframe rows.

    z_vectors[r] are the real-frame coordinates of Z_{r+1}; theta[r] are the
    covector coordinates of theta^{r+1}, so theta^j(Z_k) is exactly delta.
    """

    algebra: LieAlgebraSpec
    structure: AlmostComplexStructure
    z_vectors: tuple[tuple[Scalar, ...], ...]
    theta: tuple[tuple[Scalar, ...], ...]
    __hash__ = _hash_once

    @property
    def n(self) -> int:
        return len(self.z_vectors)

    def z_bar(self, r: int) -> tuple[Scalar, ...]:
        return tuple(v.conj() for v in self.z_vectors[r])

    def complex_frame_vector(self, a: int) -> tuple[Scalar, ...]:
        """W_a for a in [0, 2n): Z_1..Z_n then conjugates."""
        n = self.n
        return self.z_vectors[a] if a < n else self.z_bar(a - n)


@lru_cache(maxsize=16)
def build_frame(spec: LieAlgebraSpec, structure: AlmostComplexStructure) -> ComplexFrame:
    """Project the real frame onto the +i eigenspace of J and dualize.

    The (1,0)-frame is the pivot-column subset of (1 - iJ)/2 applied to the
    real frame, so the output is deterministic; the coframe solves the exact
    duality system against (Z, Zbar).  The frame is built once per model:
    validate_model and Session share the immutable frame of equal arguments.
    """
    dim = spec.dim
    if dim % 2 != 0:
        raise DegenerateJ(f"real dimension {dim} is odd")
    if structure.dim != dim:
        raise DegenerateJ("J size does not match the algebra dimension")
    if not structure.squares_to_minus_one:
        raise DegenerateJ("J^2 != -1")
    n = dim // 2
    half = rational(1, 2)
    # columns of (1 - iJ)/2 in the real frame
    columns = []
    for c in range(dim):
        col = [ZERO] * dim
        col[c] = half
        for r in range(dim):
            if structure.matrix[r][c]:
                col[r] = col[r] - half * I * from_fraction(structure.matrix[r][c])
        columns.append(tuple(col))
    # the pivots of the column matrix are its leftmost linearly independent columns
    chosen, _ = linalg.rref(ExactMatrix.from_rows(columns, dim).transpose())
    if len(chosen) != n:
        raise DegenerateJ("projector rank is not half the dimension")
    z_vectors = tuple(columns[c] for c in chosen)
    # duality: invert the matrix whose columns are Z_1..Z_n, conj(Z_1)..conj(Z_n)
    entries = {}
    for j in range(n):
        for r, v in enumerate(z_vectors[j]):
            if v:
                entries[(r, j)] = v
            w = v.conj()
            if w:
                entries[(r, n + j)] = w
    frame_matrix = ExactMatrix(dim, dim, entries)
    # theta^j is row j of the inverse: column j of the solution of M^T X = the first n unit columns
    units = ExactMatrix(dim, n, {(j, j): ONE for j in range(n)})
    inverse, inconsistent = linalg.solve_many(frame_matrix.transpose(), units)
    if inconsistent:
        raise DegenerateJ("frame vectors are not independent")
    theta_rows = tuple(tuple(inverse.entry(r, j) for r in range(dim)) for j in range(n))
    return ComplexFrame(spec, structure, z_vectors, theta_rows)


def _pair_monomial(n: int, a: int, b: int) -> BasisElement:
    """Canonical monomial phi^a ^ phi^b for a < b over the combined coframe."""
    holo = tuple(x + 1 for x in (a, b) if x < n)
    anti = tuple(x - n + 1 for x in (a, b) if x >= n)
    return BasisElement((), holo, anti)


def exterior_d_on_generators(frame: ComplexFrame) -> dict[tuple[str, int], Form]:
    """d(theta^s) and d(tbar^s) as invariant 2-forms in the complex coframe.

    The derivation is done once per frame (equal frames share it); every
    call returns a fresh dict of fresh Forms, so callers may change theirs.
    """
    return {gen: Form(dict(items)) for gen, items in _structure_equations(frame)}


@lru_cache(maxsize=16)
def _structure_equations(frame: ComplexFrame) -> tuple[tuple[tuple[str, int], tuple], ...]:
    """(generator, ((monomial, coefficient), ...)) of d on every coframe generator.

    d(theta^s)(W_a, W_b) = -theta^s([W_a, W_b]) with [W_a, W_b]^k = sum_{i<j}
    c^k_ij (W_a^i W_b^j - W_a^j W_b^i), so theta^s([W_a, W_b]) is entry (s, (a, b))
    of R = (Theta @ C) @ L: Theta holds the theta covectors, C the constants
    c^k_ij in row k and column (i, j), and L is the second compound of the frame,
    its entry ((i, j), (a, b)) the minor above; only the rows of L that Theta @ C
    reaches are built.  As tbar^s = conj(theta^s), W_{n+a} = conj(W_a) and c is
    real, the coefficient of d(tbar^s) on phi^a ^ phi^b is the conjugate of that
    of d(theta^s) on the conjugate pair, negated when that pair reorders.
    """
    n = frame.n
    dim = 2 * n
    pairs = list(combinations(range(dim), 2))
    col = {pair: c for c, pair in enumerate(pairs)}
    consts = {(k, col[(i, j)]): (cn, 0, cd) for (i, j, k, cn, cd) in frame.algebra._int_brackets}
    theta = {(s, k): v.triple for s, row in enumerate(frame.theta) for k, v in enumerate(row) if v}
    tc = ExactMatrix.unchecked(n, dim, theta) @ ExactMatrix.unchecked(dim, len(pairs), consts)
    w = [[v.triple for v in frame.complex_frame_vector(a)] for a in range(dim)]
    minors = {}
    for r in {c for _, c in tc.triples}:
        i, j = pairs[r]
        for c, (a, b) in enumerate(pairs):
            (pa, pb, pd), (qa, qb, qd), (ua, ub, ud), (va, vb, vd) = w[a][i], w[b][j], w[a][j], w[b][i]
            t = add_triples((pa * qa - pb * qb, pa * qb + pb * qa, pd * qd), (ub * vb - ua * va, -ua * vb - ub * va, ud * vd))
            if t[0] or t[1]:
                minors[(r, c)] = reduced_triple(*t)
    rows = (tc @ ExactMatrix.unchecked(len(pairs), len(pairs), minors)).triples
    monos = [_pair_monomial(n, a, b) for a, b in pairs]
    # pair (a, b) conjugates to (a + n, b + n) mod 2n: its column, and -1 where that pair reorders
    conj = [(col[(a, b)], 1) if a < b else (col[(b, a)], -1) for a, b in (((a + n) % dim, (b + n) % dim) for a, b in pairs)]
    holo, anti = [], []
    for s in range(n):
        row = [rows.get((s, c)) for c in range(len(pairs))]
        holo.append((("h", s + 1), tuple((m, canonical(-t[0], -t[1], t[2])) for m, t in zip(monos, row) if t)))
        bar = [(m, row[k], sign) for m, (k, sign) in zip(monos, conj)]
        anti.append((("a", s + 1), tuple((m, canonical(-sign * t[0], sign * t[1], t[2])) for m, t, sign in bar if t)))
    return tuple(holo + anti)


def split_d(differentials: dict[tuple[str, int], Form]) -> dict[str, dict[tuple[str, int], Form]]:
    """Bidegree components of each generator differential.

    A (1,0)-generator distributes over (2,0) -> partial, (1,1) -> dbar,
    (0,2) -> mubar; a (0,1)-generator over (2,0) -> mu, (1,1) -> partial,
    (0,2) -> dbar.  The remaining components vanish for degree reasons.
    """
    holo_map = {(2, 0): "partial", (1, 1): "dbar", (0, 2): "mubar"}
    anti_map = {(2, 0): "mu", (1, 1): "partial", (0, 2): "dbar"}
    out: dict[str, dict[tuple[str, int], Form]] = {name: {} for name in SHIFTS}
    for gen, form in differentials.items():
        table = holo_map if gen[0] == "h" else anti_map
        for bidegree, op in table.items():
            part = form.bidegree_part(*bidegree)
            if part:
                out[op][gen] = part
    return out


@dataclass(frozen=True)
class ValidationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ValidationCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail} for c in self.checks
            ],
        }


@lru_cache(maxsize=16)
def validate_model(spec: LieAlgebraSpec, structure: AlmostComplexStructure) -> ValidationReport:
    """Report antisymmetry, Jacobi (as d*d = 0 on generators) and J^2 = -1.

    The checks run once per model (equal arguments share the immutable report).
    """
    checks = []
    # antisymmetry holds by construction of the bracket table; re-verify anyway
    table = spec.bracket_table()
    anti_ok = all(i < j for (i, j) in table)
    checks.append(ValidationCheck("bracket-antisymmetry", anti_ok, "stored pairs are ordered"))

    j_ok = structure.dim == spec.dim and structure.squares_to_minus_one
    checks.append(ValidationCheck("J-squares-to-minus-identity", j_ok, "exact matrix square"))

    if j_ok and spec.dim % 2 == 0:
        frame = build_frame(spec, structure)
        from .forms import leibniz
        from .operators import frame_blocks

        # d(d theta) on triples: a generator fails when the Leibniz rule leaves a nonzero coefficient;
        # d(d tbar^s) is the conjugate of d(d theta^s), as the structure equations are, so it fails with it.
        # The frame's FrameBlocks holds the equations and their converted images once per frame
        blocks = frame_blocks(frame)
        failing = [s for s in range(1, frame.n + 1) if leibniz(blocks.images("d"), blocks.structure[("h", s)].triples().items())]
        failures = [(kind, s) for kind in ("h", "a") for s in failing]
        checks.append(
            ValidationCheck(
                "jacobi-via-d-squared",
                not failures,
                "d(d theta) = 0 on every generator" if not failures else f"fails on {failures}",
            )
        )
    else:
        checks.append(ValidationCheck("jacobi-via-d-squared", False, "frame construction unavailable"))
    return ValidationReport(tuple(checks))
