"""Exact linear algebra over Q(i).

Ranks, kernels, images, subspace intersections, quotient dimensions and
linear solves for sparse matrices with Gaussian-rational entries.  All
elimination uses leftmost-nonzero pivot selection with ties broken by lowest
row index, so every reduced form (and therefore every reported dimension and
particular solution) is deterministic.  There is one elimination kernel,
Gauss-Jordan on sparse rows ({column: entry} dicts): the matrices of a
truncated complex are block-diagonal by Fourier weight, so a row update only
touches the nonzero entries of the pivot row.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar

# there is no dense elimination path; the bench tracer still reads this name
DENSE_COLUMN_LIMIT = 0


class AmbientMismatch(Exception):
    """Subspace operands do not share an ambient dimension."""


class NotContained(Exception):
    """A quotient denominator escapes its numerator: the complex is broken."""


class ExactMatrix:
    """Sparse matrix over Q(i); absent entries are zero."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError(f"entry {(r, c)} outside {rows}x{cols}")
                    self.entries[(r, c)] = v

    @classmethod
    def from_rows(cls, rowvecs: Sequence[Sequence[Scalar]], cols: int | None = None) -> "ExactMatrix":
        nrows = len(rowvecs)
        ncols = cols if cols is not None else (len(rowvecs[0]) if rowvecs else 0)
        entries = {}
        for r, row in enumerate(rowvecs):
            for c, v in enumerate(row):
                if v:
                    entries[(r, c)] = v
        return cls(nrows, ncols, entries)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        return cls(n, n, {(i, i): ONE for i in range(n)})

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "ExactMatrix":
        return cls(rows, cols)

    def entry(self, r: int, c: int) -> Scalar:
        return self.entries.get((r, c), ZERO)

    def row_dicts(self) -> list[dict[int, Scalar]]:
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, {rc: v.conj() for rc, v in self.entries.items()})

    def scale(self, a: Scalar) -> "ExactMatrix":
        if not a:
            return ExactMatrix(self.rows, self.cols)
        return ExactMatrix(self.rows, self.cols, {rc: a * v for rc, v in self.entries.items()})

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix(self.rows, self.cols, {rc: -v for rc, v in self.entries.items()})

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        entries = dict(self.entries)
        for rc, v in other.entries.items():
            s = entries.get(rc, ZERO) + v
            if s:
                entries[rc] = s
            else:
                entries.pop(rc, None)
        return ExactMatrix(self.rows, self.cols, entries)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        by_row: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, c), v in other.entries.items():
            by_row.setdefault(r, []).append((c, v))
        acc: dict[tuple[int, int], Scalar] = {}
        for (r, k), a in self.entries.items():
            for c, b in by_row.get(k, ()):
                key = (r, c)
                s = acc.get(key, ZERO) + a * b
                if s:
                    acc[key] = s
                else:
                    acc.pop(key, None)
        return ExactMatrix(self.rows, other.cols, acc)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] = out[r] + v * vec[c]
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.entries)})"

    @staticmethod
    def vstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not blocks:
            return ExactMatrix(0, 0)
        cols = blocks[0].cols
        entries = {}
        off = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack column mismatch")
            for (r, c), v in b.entries.items():
                entries[(r + off, c)] = v
            off += b.rows
        return ExactMatrix(off, cols, entries)

    @staticmethod
    def hstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not blocks:
            return ExactMatrix(0, 0)
        rows = blocks[0].rows
        entries = {}
        off = 0
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack row mismatch")
            for (r, c), v in b.entries.items():
                entries[(r, c + off)] = v
            off += b.cols
        return ExactMatrix(rows, off, entries)


def realify(m: ExactMatrix) -> ExactMatrix:
    """Double a Q(i)-matrix into the rational matrix acting on (Re, Im) pairs.

    Coordinate x_j = a_j + i*b_j becomes the pair (a_j, b_j); a matrix entry
    u + i*v becomes the 2x2 block [[u, -v], [v, u]].  R-linear maps built from
    compositions with complex conjugation stay honest matrices in this form.
    """
    from fractions import Fraction

    entries: dict[tuple[int, int], Scalar] = {}
    zero = Fraction(0)
    for (r, c), s in m.entries.items():
        u, v = s.re, s.im
        if u:
            entries[(2 * r, 2 * c)] = Scalar(u, zero)
            entries[(2 * r + 1, 2 * c + 1)] = Scalar(u, zero)
        if v:
            entries[(2 * r, 2 * c + 1)] = Scalar(-v, zero)
            entries[(2 * r + 1, 2 * c)] = Scalar(v, zero)
    return ExactMatrix(2 * m.rows, 2 * m.cols, entries)


def conjugation_flip(n: int) -> ExactMatrix:
    """diag(1, -1, 1, -1, ...) of size 2n: complex conjugation on realified coordinates."""
    return ExactMatrix(2 * n, 2 * n, {(k, k): ONE if k % 2 == 0 else -ONE for k in range(2 * n)})


def realify_vector(vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    from fractions import Fraction

    zero = Fraction(0)
    out = []
    for s in vec:
        out.append(Scalar(s.re, zero))
        out.append(Scalar(s.im, zero))
    return tuple(out)


# ---------------------------------------------------------------------------
# elimination


def _rref_full(m: ExactMatrix, pivot_limit: int | None = None):
    """Gauss-Jordan on the sparse rows of m.

    Pivots are searched in the first pivot_limit columns (all by default):
    the leftmost column with a nonzero entry at or below the current row,
    the lowest such row.  Returns (pivot columns, reduced pivot rows,
    nonzero leftover rows).
    """
    rows = m.row_dicts()
    limit = m.cols if pivot_limit is None else pivot_limit
    pivots: list[int] = []
    r = 0
    nrows = len(rows)
    for c in range(limit):
        sel = None
        for i in range(r, nrows):
            if c in rows[i]:
                sel = i
                break
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        prow = rows[r]
        inv = prow[c].inverse()
        if inv != ONE:
            for k in list(prow):
                prow[k] = prow[k] * inv
        for i in range(nrows):
            if i != r:
                f = rows[i].get(c)
                if f:
                    tgt = rows[i]
                    for k, v in prow.items():
                        s = tgt.get(k, ZERO) - f * v
                        if s:
                            tgt[k] = s
                        else:
                            tgt.pop(k, None)
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    leftover = [row for row in rows[r:] if row]
    return pivots, rows[:r], leftover


def rref(m: ExactMatrix) -> tuple[list[int], list[dict[int, Scalar]]]:
    """Reduced row echelon form; returns (pivot columns, nonzero reduced rows)."""
    pivots, reduced, _ = _rref_full(m)
    return pivots, reduced


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^n, held as reduced-echelon basis rows.

    Equality of subspaces is plain basis comparison because the reduced
    echelon form is canonical.
    """

    ambient_dim: int
    basis: tuple[tuple[Scalar, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _sparse_rows(self) -> tuple[tuple[int, tuple[tuple[int, Scalar], ...]], ...]:
        """(pivot column, nonzero entries) of every nonzero basis row."""
        rows = (tuple((c, v) for c, v in enumerate(row) if v) for row in self.basis)
        return tuple((nz[0][0], nz) for nz in rows if nz)

    def contains(self, vec: Sequence[Scalar]) -> bool:
        work = {c: v for c, v in enumerate(vec) if v}
        for p, nz in self._sparse_rows:
            f = work.get(p)
            if f:
                for c, v in nz:
                    s = work.get(c, ZERO) - f * v
                    if s:
                        work[c] = s
                    else:
                        work.pop(c, None)
        return not work

    def contains_subspace(self, other: "Subspace") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise AmbientMismatch(f"{other.ambient_dim} != {self.ambient_dim}")
        return all(self.contains(v) for v in other.basis)


def _reduced_subspace(ambient_dim: int, reduced: list[dict[int, Scalar]]) -> Subspace:
    return Subspace(ambient_dim, tuple(tuple(rd.get(c, ZERO) for c in range(ambient_dim)) for rd in reduced))


def subspace_from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> Subspace:
    entries = {}
    nrows = 0
    for v in vectors:
        if len(v) != ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        for c, x in enumerate(v):
            if x:
                entries[(nrows, c)] = x
        nrows += 1
    if not nrows:
        return Subspace(ambient_dim, ())
    _, red = rref(ExactMatrix(nrows, ambient_dim, entries))
    return _reduced_subspace(ambient_dim, red)


def full_space(n: int) -> Subspace:
    basis = []
    for i in range(n):
        row = [ZERO] * n
        row[i] = ONE
        basis.append(tuple(row))
    return Subspace(n, tuple(basis))


def zero_space(n: int) -> Subspace:
    return Subspace(n, ())


def rank(m: ExactMatrix) -> int:
    pivots, _ = rref(m)
    return len(pivots)


def kernel(m: ExactMatrix) -> Subspace:
    """Basis of ker(m); dim = cols - rank(m)."""
    pivots, red = rref(m)
    pivot_set = set(pivots)
    free = [c for c in range(m.cols) if c not in pivot_set]
    if not free:
        return zero_space(m.cols)
    # one vector per free column f: 1 at f, minus the f-column of the reduced rows at the pivots
    entries = {}
    for r, f in enumerate(free):
        entries[(r, f)] = ONE
        for i, p in enumerate(pivots):
            coeff = red[i].get(f)
            if coeff:
                entries[(r, p)] = -coeff
    _, basis = rref(ExactMatrix(len(free), m.cols, entries))
    return _reduced_subspace(m.cols, basis)


def image(m: ExactMatrix) -> Subspace:
    """Canonical basis of the column space of m."""
    _, red = rref(m.transpose())
    return _reduced_subspace(m.rows, red)


def map_subspace(m: ExactMatrix, s: Subspace) -> Subspace:
    """Image of the subspace s under m."""
    if s.ambient_dim != m.cols:
        raise AmbientMismatch(f"{s.ambient_dim} != {m.cols}")
    return subspace_from_vectors(m.rows, (m.apply(v) for v in s.basis))


def intersect(spaces: Sequence[Subspace]) -> Subspace:
    """Intersection of finitely many subspaces of one ambient space."""
    spaces = list(spaces)
    if not spaces:
        raise ValueError("intersect needs at least one subspace")
    n = spaces[0].ambient_dim
    for s in spaces:
        if s.ambient_dim != n:
            raise AmbientMismatch(f"{s.ambient_dim} != {n}")
    acc = spaces[0]
    for s in spaces[1:]:
        acc = _intersect_pair(acc, s)
    return acc

def _intersect_pair(a: Subspace, b: Subspace) -> Subspace:
    n = a.ambient_dim
    if a.dim == n:
        return b
    if b.dim == n:
        return a
    if a.dim == 0 or b.dim == 0:
        return zero_space(n)
    # (u, v) with u*A = v*B; kernel of the stacked transpose
    entries = {}
    for r, row in enumerate(a.basis):
        for c, val in enumerate(row):
            if val:
                entries[(c, r)] = val
    for r, row in enumerate(b.basis):
        for c, val in enumerate(row):
            if val:
                entries[(c, a.dim + r)] = -val
    m = ExactMatrix(n, a.dim + b.dim, entries)
    combos = kernel(m)
    vecs = []
    for uv in combos.basis:
        vec = [ZERO] * n
        for r, row in enumerate(a.basis):
            f = uv[r]
            if f:
                for c, val in enumerate(row):
                    if val:
                        vec[c] = vec[c] + f * val
        vecs.append(vec)
    return subspace_from_vectors(n, vecs)


def sum_spaces(spaces: Sequence[Subspace]) -> Subspace:
    spaces = list(spaces)
    if not spaces:
        raise ValueError("sum_spaces needs at least one subspace")
    n = spaces[0].ambient_dim
    vecs = []
    for s in spaces:
        if s.ambient_dim != n:
            raise AmbientMismatch(f"{s.ambient_dim} != {n}")
        vecs.extend(s.basis)
    return subspace_from_vectors(n, vecs)


def quotient_dim(num: Subspace, den: Subspace) -> int:
    """dim(num/den); raises NotContained if den is not inside num."""
    if num.ambient_dim != den.ambient_dim:
        raise AmbientMismatch(f"{num.ambient_dim} != {den.ambient_dim}")
    for v in den.basis:
        if not num.contains(v):
            raise NotContained("denominator vector escapes the numerator subspace")
    return num.dim - den.dim


def preimage(m: ExactMatrix, w: Subspace) -> Subspace:
    """{x : m x in w} computed as a kernel of the combined system."""
    if w.ambient_dim != m.rows:
        raise AmbientMismatch(f"{w.ambient_dim} != {m.rows}")
    if w.dim == m.rows:
        return full_space(m.cols)
    entries = dict(m.entries)
    for j, row in enumerate(w.basis):
        for c, val in enumerate(row):
            if val:
                entries[(c, m.cols + j)] = -val
    combined = ExactMatrix(m.rows, m.cols + w.dim, entries)
    combo = kernel(combined)
    return subspace_from_vectors(m.cols, (v[: m.cols] for v in combo.basis))


def solve_many(m: ExactMatrix, rhs_list: Sequence[Sequence[Scalar]]):
    """Particular solutions of m x = b for many right-hand sides at once.

    One elimination pass over the jointly augmented matrix; returns a list
    with None for the inconsistent right-hand sides.  Free variables are set
    to zero, as in solve.
    """
    k = len(rhs_list)
    entries = dict(m.entries)
    for j, b in enumerate(rhs_list):
        if len(b) != m.rows:
            raise ValueError("right-hand side length mismatch")
        for r, val in enumerate(b):
            if val:
                entries[(r, m.cols + j)] = val
    aug = ExactMatrix(m.rows, m.cols + k, entries)
    pivots, reduced, leftover = _rref_full(aug, pivot_limit=m.cols)
    bad = set()
    for row in leftover:
        for c in row:
            bad.add(c - m.cols)
    out = []
    for j in range(k):
        if j in bad:
            out.append(None)
            continue
        x = [ZERO] * m.cols
        for i, p in enumerate(pivots):
            v = reduced[i].get(m.cols + j)
            if v:
                x[p] = v
        out.append(tuple(x))
    return out


def solve(m: ExactMatrix, b: Sequence[Scalar], reverse_pivots: bool = False):
    """Some x with m x = b, or None when b is outside the image.

    Free variables are set to zero, so the particular solution is
    deterministic; reverse_pivots flips the column scan order and generally
    produces a different representative when the kernel is nonzero.
    """
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    cols = m.cols
    perm = list(range(cols - 1, -1, -1)) if reverse_pivots else list(range(cols))
    inv_perm = [0] * cols
    for newc, oldc in enumerate(perm):
        inv_perm[oldc] = newc
    entries = {(r, inv_perm[c]): v for (r, c), v in m.entries.items()}
    for r, val in enumerate(b):
        if val:
            entries[(r, cols)] = val
    aug = ExactMatrix(m.rows, cols + 1, entries)
    pivots, red = rref(aug)
    x = [ZERO] * cols
    for i, p in enumerate(pivots):
        if p == cols:
            return None
        x[p] = red[i].get(cols, ZERO)
    return tuple(x[inv_perm[c]] for c in range(cols))
