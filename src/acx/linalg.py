"""Exact linear algebra over Q(i).

Ranks, kernels, images, subspace intersections, quotient dimensions and
linear solves for sparse matrices with Gaussian-rational entries.  All
elimination uses leftmost-nonzero pivot selection with ties broken by lowest
row position, so every reduced form (and therefore every reported dimension and
particular solution) is deterministic.  There is one elimination kernel,
Gauss-Jordan on sparse rows ({column: entry} dicts) with a column -> rows
index: the matrices of a truncated complex are block-diagonal by Fourier
weight and a few percent dense, so the kernel finds pivots and the rows to
update through the index and a row update only touches the nonzero entries
of the pivot row.  A subspace is held as the
reduced row echelon form of a basis, itself a sparse matrix, and every
subspace operation eliminates such matrices stacked, transposed or multiplied.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .scalars import ONE, ZERO, Scalar, add_mul, sub_mul

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
        # row r of the product accumulates a * (row k of other) over the entries (r, k) of self
        left: dict[int, list[tuple[int, Scalar]]] = {}
        for (r, k), a in self.entries.items():
            left.setdefault(r, []).append((k, a))
        right: dict[int, list[tuple[int, Scalar]]] = {}
        for (k, c), b in other.entries.items():
            right.setdefault(k, []).append((c, b))
        entries: dict[tuple[int, int], Scalar] = {}
        for r, terms in left.items():
            acc: dict[int, Scalar] = {}
            for k, a in terms:
                for c, b in right.get(k, ()):
                    s = add_mul(acc.get(c), a, b)
                    if s is None:
                        del acc[c]
                    else:
                        acc[c] = s
            for c, v in acc.items():
                entries[(r, c)] = v
        return ExactMatrix(self.rows, other.cols, entries)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), v in self.entries.items():
            if vec[c]:
                out[r] = out[r] + v * vec[c]
        return tuple(out)

    def leading_columns(self, k: int) -> "ExactMatrix":
        """The first k columns."""
        return ExactMatrix(self.rows, k, {(r, c): v for (r, c), v in self.entries.items() if c < k})

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
    entries: dict[tuple[int, int], Scalar] = {}
    for (r, c), s in m.entries.items():
        u, v = s.real_part(), s.imag_part()
        if u:
            entries[(2 * r, 2 * c)] = u
            entries[(2 * r + 1, 2 * c + 1)] = u
        if v:
            entries[(2 * r, 2 * c + 1)] = -v
            entries[(2 * r + 1, 2 * c)] = v
    return ExactMatrix(2 * m.rows, 2 * m.cols, entries)


def conjugation_flip(n: int) -> ExactMatrix:
    """diag(1, -1, 1, -1, ...) of size 2n: complex conjugation on realified coordinates."""
    return ExactMatrix(2 * n, 2 * n, {(k, k): ONE if k % 2 == 0 else -ONE for k in range(2 * n)})


def realify_vector(vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    out = []
    for s in vec:
        out.append(s.real_part())
        out.append(s.imag_part())
    return tuple(out)


# ---------------------------------------------------------------------------
# elimination


def _rref_full(m: ExactMatrix, pivot_limit: int | None = None):
    """Gauss-Jordan on the sparse rows of m.

    Pivots are searched in the first pivot_limit columns (all by default):
    the leftmost column with a nonzero entry at or below the current row,
    the lowest such row.  Returns (pivot columns, reduced pivot rows,
    nonzero leftover rows).

    A column -> rows index keeps every step in proportion to the nonzeros:
    only columns that hold a nonzero are visited, the pivot is the index row
    of lowest current position, and only the rows the index lists are
    updated.  Row operations never fill a column that starts out empty, so
    the columns to visit are known up front.
    """
    rows: list[dict[int, Scalar]] = [dict() for _ in range(m.rows)]
    index: dict[int, set[int]] = {}
    for (r, c), v in m.entries.items():
        rows[r][c] = v
        if c in index:
            index[c].add(r)
        else:
            index[c] = {r}
    limit = m.cols if pivot_limit is None else pivot_limit
    nrows = len(rows)
    # at[k] is the row now at position k; pos is its inverse
    at = list(range(nrows))
    pos = list(range(nrows))
    pivots: list[int] = []
    r = 0
    for c in sorted(index):
        if c >= limit or r == nrows:
            break
        holders = index[c]
        sel = nrows
        for i in holders:
            k = pos[i]
            if r <= k < sel:
                sel = k
        if sel == nrows:
            continue
        p = at[sel]
        if sel != r:
            q = at[r]
            at[r], at[sel] = p, q
            pos[p], pos[q] = r, sel
        prow = rows[p]
        lead = prow[c]
        if lead != ONE:
            inv = lead.inverse()
            for k, v in prow.items():
                prow[k] = v * inv
        if len(holders) > 1:
            # every other entry of the pivot row lies right of c, so fill-in lands in columns
            # still to visit and index[c] is never read again
            rest = [(k, v) for k, v in prow.items() if k != c]
            for i in holders:
                if i == p:
                    continue
                tgt = rows[i]
                f = tgt.pop(c)
                for k, v in rest:
                    t = tgt.get(k)
                    s = sub_mul(t, f, v)
                    if s is None:
                        del tgt[k]
                        index[k].discard(i)
                    else:
                        tgt[k] = s
                        if t is None:
                            index[k].add(i)
        pivots.append(c)
        r += 1
    reduced = [rows[at[k]] for k in range(r)]
    leftover = [rows[at[k]] for k in range(r, nrows) if rows[at[k]]]
    return pivots, reduced, leftover


def rref(m: ExactMatrix) -> tuple[list[int], list[dict[int, Scalar]]]:
    """Reduced row echelon form; returns (pivot columns, nonzero reduced rows)."""
    pivots, reduced, _ = _rref_full(m)
    return pivots, reduced


# ---------------------------------------------------------------------------
# subspaces


@dataclass(frozen=True)
class Subspace:
    """A subspace of Q(i)^n, held as the reduced row echelon form of a basis.

    `rows` is that form as a dim x n matrix.  The reduced echelon form is
    canonical, so equality of subspaces is plain matrix comparison.
    """

    rows: ExactMatrix

    @property
    def ambient_dim(self) -> int:
        return self.rows.cols

    @property
    def dim(self) -> int:
        return self.rows.rows

    @property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """The reduced rows as dense vectors, for callers that render or read coordinates."""
        return tuple(tuple(row.get(c, ZERO) for c in range(self.ambient_dim)) for row in self.rows.row_dicts())

    @cached_property
    def _pivot_rows(self) -> list[tuple[int, dict[int, Scalar]]]:
        return [(min(row), row) for row in self.rows.row_dicts()]

    def _escapes(self, work: dict[int, Scalar]) -> bool:
        """Reduce the sparse vector work against the pivot rows, in place; True if a remainder is left."""
        for p, row in self._pivot_rows:
            f = work.get(p)
            if f:
                for c, v in row.items():
                    s = sub_mul(work.get(c), f, v)
                    if s is None:
                        del work[c]
                    else:
                        work[c] = s
        return bool(work)

    def outside(self, m: ExactMatrix) -> int:
        """The number of rows of m that do not lie in the subspace."""
        if m.cols != self.ambient_dim:
            raise AmbientMismatch(f"{m.cols} != {self.ambient_dim}")
        return sum(self._escapes(row) for row in m.row_dicts())


def span(m: ExactMatrix) -> Subspace:
    """The row space of m."""
    _, reduced = rref(m)
    entries = {(r, c): v for r, row in enumerate(reduced) for c, v in row.items()}
    return Subspace(ExactMatrix(len(reduced), m.cols, entries))


def subspace_from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> Subspace:
    rows = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        rows.append(v)
    return span(ExactMatrix.from_rows(rows, ambient_dim))


def full_space(n: int) -> Subspace:
    return Subspace(ExactMatrix.identity(n))


def zero_space(n: int) -> Subspace:
    return Subspace(ExactMatrix(0, n))


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
    # one vector per free column f: 1 at f, minus the f-column of the reduced rows at the pivots;
    # every entry of a reduced row off its pivot lies in a free column
    vectors: dict[int, dict[int, Scalar]] = {f: {f: ONE} for f in free}
    for p, row in zip(pivots, red):
        for f, coeff in row.items():
            if f != p:
                vectors[f][p] = -coeff
    entries = {(r, c): v for r, vec in enumerate(vectors.values()) for c, v in vec.items()}
    return span(ExactMatrix(len(free), m.cols, entries))


def image(m: ExactMatrix) -> Subspace:
    """Canonical basis of the column space of m."""
    return span(m.transpose())


def map_subspace(m: ExactMatrix, s: Subspace) -> Subspace:
    """Image of the subspace s under m."""
    if s.ambient_dim != m.cols:
        raise AmbientMismatch(f"{s.ambient_dim} != {m.cols}")
    return span(s.rows @ m.transpose())


def _check_ambient(spaces: Sequence[Subspace]) -> None:
    if not spaces:
        raise ValueError("at least one subspace is required")
    for s in spaces:
        if s.ambient_dim != spaces[0].ambient_dim:
            raise AmbientMismatch(f"{s.ambient_dim} != {spaces[0].ambient_dim}")


def intersect(spaces: Sequence[Subspace]) -> Subspace:
    """Intersection of finitely many subspaces of one ambient space."""
    spaces = list(spaces)
    _check_ambient(spaces)
    acc = spaces[0]
    for s in spaces[1:]:
        acc = _intersect_pair(acc, s)
    return acc


def _intersect_pair(a: Subspace, b: Subspace) -> Subspace:
    n = a.ambient_dim
    if a.dim == n or b.dim == 0:
        return b
    if b.dim == n or a.dim == 0:
        return a
    # u A = v B: the kernel of [A^T | -B^T], read through its u block
    combos = kernel(ExactMatrix.hstack([a.rows.transpose(), -b.rows.transpose()]))
    return span(combos.rows.leading_columns(a.dim) @ a.rows)


def sum_spaces(spaces: Sequence[Subspace]) -> Subspace:
    spaces = list(spaces)
    _check_ambient(spaces)
    return span(ExactMatrix.vstack([s.rows for s in spaces]))


def quotient_dim(num: Subspace, den: Subspace) -> int:
    """dim(num/den); raises NotContained if den is not inside num."""
    if num.outside(den.rows):
        raise NotContained("denominator vector escapes the numerator subspace")
    return num.dim - den.dim


def preimage(m: ExactMatrix, w: Subspace) -> Subspace:
    """{x : m x in w}: the x block of the kernel of [m | -W^T]."""
    if w.ambient_dim != m.rows:
        raise AmbientMismatch(f"{w.ambient_dim} != {m.rows}")
    if w.dim == m.rows:
        return full_space(m.cols)
    combos = kernel(ExactMatrix.hstack([m, -w.rows.transpose()]))
    return span(combos.rows.leading_columns(m.cols))


def solve_many(m: ExactMatrix, rhs: ExactMatrix, reverse_pivots: bool = False) -> tuple[ExactMatrix, list[int]]:
    """Particular solutions of m x = b for every column b of rhs at once.

    One elimination pass over the augmented matrix [m | rhs].  Returns
    (x, inconsistent): column j of x solves for column j of rhs, and
    inconsistent lists, ascending, the columns with no solution, whose x
    column is zero.  Free variables are set to zero, so each solution is
    deterministic; reverse_pivots scans the columns of m in reverse order,
    which generally gives a different representative when the kernel is
    nonzero.
    """
    if rhs.rows != m.rows:
        raise ValueError("right-hand side length mismatch")
    width = m.cols
    last = width - 1
    entries = {(r, last - c): v for (r, c), v in m.entries.items()} if reverse_pivots else dict(m.entries)
    for (r, j), v in rhs.entries.items():
        entries[(r, width + j)] = v
    pivots, reduced, leftover = _rref_full(ExactMatrix(m.rows, width + rhs.cols, entries), pivot_limit=width)
    # a leftover row is zero on the columns of m, so its entries name inconsistent right-hand sides
    inconsistent = sorted({c - width for row in leftover for c in row})
    bad = set(inconsistent)
    solutions = {}
    for p, row in zip(pivots, reduced):
        x = last - p if reverse_pivots else p
        for c, v in row.items():
            if c >= width and c - width not in bad:
                solutions[(x, c - width)] = v
    return ExactMatrix(width, rhs.cols, solutions), inconsistent


def solve(m: ExactMatrix, b: Sequence[Scalar], reverse_pivots: bool = False):
    """Some x with m x = b as a dense tuple, or None when b is outside the image: solve_many on one column."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    x, inconsistent = solve_many(m, ExactMatrix(m.rows, 1, {(r, 0): v for r, v in enumerate(b)}), reverse_pivots)
    if inconsistent:
        return None
    return tuple(x.entry(r, 0) for r in range(m.cols))
