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
of the pivot row.  A rank is its forward pass alone.  A subspace is held by
a presentation, a constraint matrix (its kernel) or a generator matrix (its
column span), and completed only as far as it is read: a dimension is a
count or a rank, a containment is one product, and the canonical reduced
rows are built only for callers that read coordinates.  A kernel is held by
its constraint alone, and its null basis is built on the first read of its
generators.  Four exact identities spare the work of whole and zero spaces:
an intersection whose cut has no entries is the generator-held space, the
image of the whole space is the image of the map, the preimage of the zero
space is the kernel of the map, and a sum of one space is that space.

Matrices hold their entries once, as canonical (a, b, d) int triples
(see scalars.py), and every kernel runs on them: transposes, sums, stacks,
products and elimination read and write triples, and a Scalar is built
only where a caller reads a value (`entries`, `entry`, `row_dicts`,
`Subspace.basis` and the rows `rref` returns).  A product groups the
entries of its right factor by row, reads the left factor's triples as
they are stored, accumulates each output row unreduced, with a gcd only
where two terms meet over different denominators, and reduces each result
entry once.  Elimination copies the triples into its rows, so a rank builds
no Scalar, and null_basis, Subspace.rows and solve_many read its rows as
triples (_triple_rref); rref and _rref_full box them as Scalar rows.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence

from .scalars import ZERO, Scalar, Triple, add_triples, canonical, mul_triples, reduced_triple

# there is no dense elimination path; the bench tracer still reads this name
DENSE_COLUMN_LIMIT = 0


class AmbientMismatch(Exception):
    """Subspace operands do not share an ambient dimension."""


class NotContained(Exception):
    """A quotient denominator escapes its numerator: the complex is broken."""


def _add_into(triples: dict, key, u: Triple) -> None:
    """triples[key] += u, for canonical triples; an entry that cancels is removed."""
    t = triples.get(key)
    if t is None:
        triples[key] = u
        return
    a, b, d = add_triples(t, u)
    if a or b:
        triples[key] = reduced_triple(a, b, d)
    else:
        del triples[key]


class ExactMatrix:
    """Sparse matrix over Q(i); absent entries are zero.

    triples is the one store of the entries: {(r, c): (a, b, d)} with every
    (a + b*i)/d canonical and nonzero.  entries is a {(r, c): Scalar} view
    of it, built on each read and never kept, for callers that read values.
    A matrix is not changed after construction.
    """

    __slots__ = ("rows", "cols", "triples")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        """The matrix with the given {(r, c): Scalar} entries; zeros are dropped, positions are checked."""
        self.rows = rows
        self.cols = cols
        self.triples = {}
        if entries:
            for (r, c), v in entries.items():
                if v:
                    if not (0 <= r < rows and 0 <= c < cols):
                        raise IndexError(f"entry {(r, c)} outside {rows}x{cols}")
                    self.triples[(r, c)] = v.triple

    @classmethod
    def unchecked(cls, rows: int, cols: int, triples: dict[tuple[int, int], Triple]) -> "ExactMatrix":
        """A matrix that owns triples, all canonical, nonzero and inside rows x cols: for results derived from checked matrices."""
        m = object.__new__(cls)
        m.rows, m.cols, m.triples = rows, cols, triples
        return m

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
        return cls.unchecked(n, n, {(i, i): (1, 0, 1) for i in range(n)})

    @property
    def entries(self) -> dict[tuple[int, int], Scalar]:
        """{(r, c): Scalar}, built from the triples on each read, in their order."""
        return {rc: canonical(a, b, d) for rc, (a, b, d) in self.triples.items()}

    def entry(self, r: int, c: int) -> Scalar:
        t = self.triples.get((r, c))
        return ZERO if t is None else canonical(*t)

    def row_dicts(self) -> list[dict[int, Scalar]]:
        rows: list[dict[int, Scalar]] = [dict() for _ in range(self.rows)]
        for (r, c), (a, b, d) in self.triples.items():
            rows[r][c] = canonical(a, b, d)
        return rows

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix.unchecked(self.cols, self.rows, {(c, r): t for (r, c), t in self.triples.items()})

    def conjugate(self) -> "ExactMatrix":
        return ExactMatrix.unchecked(self.rows, self.cols, {rc: (a, -b, d) for rc, (a, b, d) in self.triples.items()})

    def scale(self, a: Scalar) -> "ExactMatrix":
        if not a:
            return ExactMatrix(self.rows, self.cols)
        u = a.triple
        return ExactMatrix.unchecked(self.rows, self.cols, {rc: mul_triples(u, t) for rc, t in self.triples.items()})

    def __neg__(self) -> "ExactMatrix":
        return ExactMatrix.unchecked(self.rows, self.cols, {rc: (-a, -b, d) for rc, (a, b, d) in self.triples.items()})

    def __add__(self, other: "ExactMatrix") -> "ExactMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in matrix addition")
        triples = dict(self.triples)
        for rc, u in other.triples.items():
            _add_into(triples, rc, u)
        return ExactMatrix.unchecked(self.rows, self.cols, triples)

    def __sub__(self, other: "ExactMatrix") -> "ExactMatrix":
        return self + (-other)

    def __matmul__(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not (self.triples and other.triples):
            return ExactMatrix.unchecked(self.rows, other.cols, {})
        # the right factor grouped by row: {k: [(c, a, b, d), ...]}
        right: dict[int, list[tuple[int, int, int, int]]] = {}
        for (k, c), (a, b, d) in other.triples.items():
            if k in right:
                right[k].append((c, a, b, d))
            else:
                right[k] = [(c, a, b, d)]
        # row r of the product accumulates x * (row k of other) over the entries x = (r, k) of self,
        # on unreduced triples: a gcd only where two terms meet over different denominators, and one
        # reduction per nonzero result entry (scalars.add_triples, inlined: a call per flop makes the
        # random-rational sweep about 9% slower); the rows come out in the order self first meets them
        accs: dict[int, dict[int, Triple]] = {}
        for (r, k), (xa, xb, xd) in self.triples.items():
            acc = accs.get(r)
            if acc is None:
                acc = accs[r] = {}
            row = right.get(k)
            if row is None:
                continue
            for c, ya, yb, yd in row:
                pa = xa * ya - xb * yb
                pb = xa * yb + xb * ya
                pd = xd * yd
                t = acc.get(c)
                if t is None:
                    acc[c] = (pa, pb, pd)
                else:
                    ta, tb, td = t
                    if td == pd:
                        acc[c] = (ta + pa, tb + pb, td)
                    else:
                        g = gcd(td, pd)
                        u, w = pd // g, td // g
                        acc[c] = (ta * u + pa * w, tb * u + pb * w, td * u)
        triples: dict[tuple[int, int], Triple] = {}
        for r, acc in accs.items():
            for c, (a, b, d) in acc.items():
                if a or b:
                    triples[(r, c)] = reduced_triple(a, b, d)
        return ExactMatrix.unchecked(self.rows, other.cols, triples)

    def apply(self, vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        out = [ZERO] * self.rows
        for (r, c), (a, b, d) in self.triples.items():
            if vec[c]:
                out[r] = out[r] + canonical(a, b, d) * vec[c]
        return tuple(out)

    def is_zero(self) -> bool:
        return not self.triples

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.triples == other.triples
        )

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows}x{self.cols}, nnz={len(self.triples)})"

    @staticmethod
    def vstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not blocks:
            return ExactMatrix(0, 0)
        cols = blocks[0].cols
        triples = {}
        off = 0
        for b in blocks:
            if b.cols != cols:
                raise ValueError("vstack column mismatch")
            for (r, c), t in b.triples.items():
                triples[(r + off, c)] = t
            off += b.rows
        return ExactMatrix.unchecked(off, cols, triples)

    @staticmethod
    def hstack(blocks: Sequence["ExactMatrix"]) -> "ExactMatrix":
        if not blocks:
            return ExactMatrix(0, 0)
        rows = blocks[0].rows
        triples = {}
        off = 0
        for b in blocks:
            if b.rows != rows:
                raise ValueError("hstack row mismatch")
            for (r, c), t in b.triples.items():
                triples[(r, c + off)] = t
            off += b.cols
        return ExactMatrix.unchecked(rows, off, triples)


def realify(m: ExactMatrix | None, antilinear: ExactMatrix | None = None) -> ExactMatrix:
    """The rational matrix, on (Re, Im) pairs, of the R-linear map u -> m u + antilinear conj(u).

    Coordinate x_j = a_j + i*b_j becomes the pair (a_j, b_j); an entry u + i*v
    of m becomes the 2x2 block [[u, -v], [v, u]], and one of antilinear the
    block [[u, v], [v, -u]], which also conjugates its input.  So maps built
    from compositions with complex conjugation are realified once, as honest
    matrices.  Either part may be None; the other sets the shape.
    """
    triples: dict[tuple[int, int], Triple] = {}
    if m is not None:
        for (r, c), (a, b, d) in m.triples.items():
            if a:
                u = reduced_triple(a, 0, d)
                triples[(2 * r, 2 * c)] = u
                triples[(2 * r + 1, 2 * c + 1)] = u
            if b:
                va, _, vd = reduced_triple(b, 0, d)
                triples[(2 * r, 2 * c + 1)] = (-va, 0, vd)
                triples[(2 * r + 1, 2 * c)] = (va, 0, vd)
    if antilinear is not None:
        for (r, c), (a, b, d) in antilinear.triples.items():
            ua, _, ud = reduced_triple(a, 0, d)
            va, _, vd = reduced_triple(b, 0, d)
            r2, c2 = 2 * r, 2 * c
            for rc, x in (((r2, c2), (ua, 0, ud)), ((r2 + 1, c2 + 1), (-ua, 0, ud)),
                          ((r2, c2 + 1), (va, 0, vd)), ((r2 + 1, c2), (va, 0, vd))):
                if x[0]:  # a real part is zero exactly when its numerator is
                    _add_into(triples, rc, x)
    shape = m if m is not None else antilinear
    return ExactMatrix.unchecked(2 * shape.rows, 2 * shape.cols, triples)


def realify_vector(vec: Sequence[Scalar]) -> tuple[Scalar, ...]:
    out = []
    for s in vec:
        out.append(s.real_part())
        out.append(s.imag_part())
    return tuple(out)


def complexify(m: ExactMatrix) -> ExactMatrix:
    """The complex columns whose (Re, Im) pairs are the row pairs of a real matrix: realify_vector undone."""
    triples: dict[tuple[int, int], Triple] = {}
    for (r, c), t in m.triples.items():
        if r % 2:
            # i * (a + b*i)/d = (-b + a*i)/d, still canonical
            a, b, d = t
            t = (-b, a, d)
        _add_into(triples, (r // 2, c), t)
    return ExactMatrix.unchecked(m.rows // 2, m.cols, triples)


# ---------------------------------------------------------------------------
# elimination


def _eliminate(m: ExactMatrix, pivot_limit: int | None = None, forward: bool = False):
    """Gauss-Jordan on the sparse rows of m, held as canonical (a, b, d) triples.

    Pivots are searched in the first pivot_limit columns (all by default):
    the leftmost column with a nonzero entry at or below the current row,
    the lowest such row.  Returns (pivot columns, rows, at, r): rows are the
    {column: triple} dicts of m after elimination, at[k] the index of the
    row now at position k and r the number of pivots.  forward runs the
    forward pass only: pivot rows are neither scaled nor used on the rows
    above them, so they come out in echelon form, not reduced, while the
    pivots, which only the rows below decide, are the same.

    A column -> rows index keeps every step in proportion to the nonzeros:
    only columns that hold a nonzero are visited, the pivot is the index row
    of lowest current position, and only the rows the index lists are
    updated.  Row operations never fill a column that starts out empty, so
    the columns to visit are known up front.  Pivot scaling and row updates
    are int arithmetic with at most one gcd per entry written, two where a
    row update meets a different denominator; no Scalar is built.
    """
    rows: list[dict[int, tuple[int, int, int]]] = [dict() for _ in range(m.rows)]
    index: dict[int, set[int]] = {}
    for (r, c), t in m.triples.items():
        rows[r][c] = t
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
        la, lb, ld = prow[c]
        # x / lead = x * ld * conj(lead) / n
        n = la * la + lb * lb
        unit = la == 1 and not lb and ld == 1
        divide = forward and not unit
        if not (unit or forward):
            # the inverse, reduced once: (ia + ib*i)/id
            ia, ib, id_ = la * ld, -lb * ld, n
            g = gcd(ia, ib, id_)
            ia, ib, id_ = ia // g, ib // g, id_ // g
            for k, (va, vb, vd) in prow.items():
                a, b, d = va * ia - vb * ib, va * ib + vb * ia, vd * id_
                g = gcd(a, b, d)
                prow[k] = (a // g, b // g, d // g)
        if len(holders) > 1:
            # every other entry of the pivot row lies right of c, so fill-in lands in columns
            # still to visit and index[c] is never read again
            rest = [(k, va, vb, vd) for k, (va, vb, vd) in prow.items() if k != c]
            for i in holders:
                if i == p or (forward and pos[i] < r):
                    continue
                tgt = rows[i]
                fa, fb, fd = tgt.pop(c)
                if divide:
                    a, b, d = (fa * la + fb * lb) * ld, (fb * la - fa * lb) * ld, fd * n
                    g = gcd(a, b, d)
                    fa, fb, fd = a // g, b // g, d // g
                # tgt[k] -= f * v
                for k, va, vb, vd in rest:
                    a = fb * vb - fa * va
                    b = -(fa * vb + fb * va)
                    d = fd * vd
                    t = tgt.get(k)
                    if t is not None:
                        a, b, d = add_triples(t, (a, b, d))
                        if not (a or b):
                            del tgt[k]
                            index[k].discard(i)
                            continue
                    if d != 1:
                        g = gcd(a, b, d)
                        if g != 1:
                            a //= g
                            b //= g
                            d //= g
                    tgt[k] = (a, b, d)
                    if t is None:
                        index[k].add(i)
        pivots.append(c)
        r += 1
    return pivots, rows, at, r


def _triple_rref(m: ExactMatrix, pivot_limit: int | None = None, forward: bool = False):
    """(pivot columns, pivot rows, nonzero leftover rows) of _eliminate, the rows as {column: triple} dicts.

    A matrix with no entries is not eliminated.
    """
    if not m.triples:
        return [], [], []
    pivots, rows, at, r = _eliminate(m, pivot_limit, forward)
    leftover = [rows[at[k]] for k in range(r, len(rows)) if rows[at[k]]]
    return pivots, [rows[at[k]] for k in range(r)], leftover


def _scalar_rows(rows: Iterable[dict[int, Triple]]) -> list[dict[int, Scalar]]:
    """Rows of canonical triples as rows of Scalars, the key order kept."""
    return [{k: canonical(a, b, d) for k, (a, b, d) in row.items()} for row in rows]


def _rref_full(m: ExactMatrix, pivot_limit: int | None = None, forward: bool = False):
    """_triple_rref with the rows as Scalar dicts."""
    pivots, pivot_rows, leftover = _triple_rref(m, pivot_limit, forward)
    return pivots, _scalar_rows(pivot_rows), _scalar_rows(leftover)


def rref(m: ExactMatrix) -> tuple[list[int], list[dict[int, Scalar]]]:
    """Reduced row echelon form; returns (pivot columns, nonzero reduced rows).

    A matrix with no entries is not eliminated.
    """
    pivots, pivot_rows, _ = _rref_full(m)
    return pivots, pivot_rows


# ---------------------------------------------------------------------------
# subspaces


def null_basis(m: ExactMatrix) -> ExactMatrix:
    """A basis of ker(m) as the columns of a cols x nullity matrix, from one rref.

    One vector per free column f: 1 at f, minus the f-column of the reduced
    rows at the pivots; every entry of a reduced row off its pivot lies in a
    free column.
    """
    pivots, red, _ = _triple_rref(m)
    pivot_set = set(pivots)
    vectors: dict[int, dict[int, Triple]] = {f: {f: (1, 0, 1)} for f in range(m.cols) if f not in pivot_set}
    for p, row in zip(pivots, red):
        for f, (a, b, d) in row.items():
            if f != p:
                vectors[f][p] = (-a, -b, d)
    triples = {(c, j): t for j, vec in enumerate(vectors.values()) for c, t in vec.items()}
    return ExactMatrix.unchecked(m.cols, len(vectors), triples)


class Subspace:
    """A subspace of Q(i)^n, held by a presentation that is completed only as far as it is read.

    The presentation is a constraint matrix C (the subspace is ker C), a
    generator matrix G (the subspace is the column span of G), the
    canonical reduced rows, or several of these.  A missing C or G costs one
    elimination: G is a null basis of C, C is the annihilator of G (a null
    basis of G^T, transposed).  `dim` is a count when G is a basis and a
    rank otherwise: a forward pass on C or G, or nothing once a null basis
    is built, which sets it.  So a reader that wants both a kernel's basis
    and its dimension reads the basis first, and no matrix is eliminated
    twice.  Containment is one product, C @ G = 0.  `rows`, the reduced row
    echelon form of a basis, is canonical and built only when it (or
    `basis`) is read.
    """

    __slots__ = ("ambient_dim", "_constraint", "_generators", "_rows", "_dim")

    def __init__(self, *, constraint=None, generators=None, rows=None, dim=None):
        held = constraint if constraint is not None else rows
        self.ambient_dim = held.cols if held is not None else generators.rows
        self._constraint, self._generators, self._rows = constraint, generators, rows
        self._dim = rows.rows if rows is not None else dim

    @property
    def constraint(self) -> ExactMatrix:
        if self._constraint is None:
            self._constraint = null_basis(self.generators.transpose()).transpose()
            self._dim = self.ambient_dim - self._constraint.rows
        return self._constraint

    @property
    def generators(self) -> ExactMatrix:
        if self._generators is None:
            if self._rows is not None:
                self._generators = self._rows.transpose()
            else:
                self._generators = null_basis(self._constraint)
                self._dim = self._generators.cols
        return self._generators

    @property
    def dim(self) -> int:
        if self._dim is None:
            if self._generators is not None:
                self._dim = rank(self._generators)
            else:
                self._dim = self.ambient_dim - rank(self._constraint)
        return self._dim

    @property
    def rows(self) -> ExactMatrix:
        """The reduced row echelon form of a basis, as a dim x n matrix."""
        if self._rows is None:
            _, red, _ = _triple_rref(self.generators.transpose())
            triples = {(r, c): t for r, row in enumerate(red) for c, t in row.items()}
            self._rows = ExactMatrix.unchecked(len(red), self.ambient_dim, triples)
            self._dim = len(red)
        return self._rows

    @property
    def basis(self) -> tuple[tuple[Scalar, ...], ...]:
        """The reduced rows as dense vectors, for callers that render or read coordinates."""
        return tuple(tuple(row.get(c, ZERO) for c in range(self.ambient_dim)) for row in self.rows.row_dicts())

    def outside(self, m: ExactMatrix) -> int:
        """The number of rows of m that do not lie in the subspace."""
        if m.cols != self.ambient_dim:
            raise AmbientMismatch(f"{m.cols} != {self.ambient_dim}")
        return len({r for r, _ in (m @ self.constraint.transpose()).triples})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim:
            return False
        # other's basis before its dim: a kernel's null basis sets its dim, so nothing is eliminated twice
        generators = other.generators
        return self.dim == other.dim and (self.constraint @ generators).is_zero()

    __hash__ = None


def subspace_from_vectors(ambient_dim: int, vectors: Iterable[Sequence[Scalar]]) -> Subspace:
    rows = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise AmbientMismatch(f"vector length {len(v)} != ambient {ambient_dim}")
        rows.append(v)
    return Subspace(generators=ExactMatrix.from_rows(rows, ambient_dim).transpose())


def zero_space(n: int) -> Subspace:
    return Subspace(constraint=ExactMatrix.identity(n), rows=ExactMatrix(0, n))


def rank(m: ExactMatrix) -> int:
    """The number of pivots, from the forward pass of the elimination."""
    return len(_eliminate(m, forward=True)[0]) if m.triples else 0


def kernel(m: ExactMatrix) -> Subspace:
    """ker(m), held by its constraint m: nothing is eliminated until it is read.

    dim is cols - rank(m), one forward pass; the first read of generators
    builds the null basis, one rref, and sets dim with it.
    """
    return Subspace(constraint=m)


def image(m: ExactMatrix) -> Subspace:
    """The column space of m."""
    return Subspace(generators=m)


def map_subspace(m: ExactMatrix, s: Subspace) -> Subspace:
    """Image of the subspace s under m: m itself when s is held by a constraint with no entries, the whole space."""
    if s.ambient_dim != m.cols:
        raise AmbientMismatch(f"{s.ambient_dim} != {m.cols}")
    if s._constraint is not None and not s._constraint.triples:
        return Subspace(generators=m)
    return Subspace(generators=m @ s.generators)


def _check_ambient(spaces: Sequence[Subspace]) -> None:
    if not spaces:
        raise ValueError("at least one subspace is required")
    for s in spaces:
        if s.ambient_dim != spaces[0].ambient_dim:
            raise AmbientMismatch(f"{s.ambient_dim} != {spaces[0].ambient_dim}")


def intersect(spaces: Sequence[Subspace]) -> Subspace:
    """Intersection of finitely many subspaces of one ambient space.

    When every space holds a constraint it is the stacked constraints.
    Otherwise, with G the generators of the first space held without one,
    it is G @ null_basis(the others' constraints @ G), so no annihilator of
    G is built; when G is a basis, so is the result.  When that cut has no
    entries the others contain G's span, and the result is G's space itself.
    """
    spaces = list(spaces)
    _check_ambient(spaces)
    if len(spaces) == 1:
        return spaces[0]
    k = next((k for k, s in enumerate(spaces) if s._constraint is None), None)
    if k is None:
        return Subspace(constraint=ExactMatrix.vstack([s.constraint for s in spaces]))
    g = spaces[k].generators
    cut = ExactMatrix.vstack([s.constraint for j, s in enumerate(spaces) if j != k]) @ g
    if not cut.triples:
        return spaces[k]
    null = null_basis(cut)
    return Subspace(generators=g @ null, dim=null.cols if spaces[k]._dim == g.cols else None)


def sum_spaces(spaces: Sequence[Subspace]) -> Subspace:
    """The span of the spaces' generators; the sum of one space is that space."""
    spaces = list(spaces)
    _check_ambient(spaces)
    if len(spaces) == 1:
        return spaces[0]
    return Subspace(generators=ExactMatrix.hstack([s.generators for s in spaces]))


def quotient_dim(num: Subspace, den: Subspace) -> int:
    """dim(num/den); raises NotContained unless den lies inside num: num.constraint @ den.generators = 0."""
    if num.ambient_dim != den.ambient_dim:
        raise AmbientMismatch(f"{den.ambient_dim} != {num.ambient_dim}")
    if not (num.constraint @ den.generators).is_zero():
        raise NotContained("denominator vector escapes the numerator subspace")
    return num.dim - den.dim


def preimage(m: ExactMatrix, w: Subspace) -> Subspace:
    """{x : m x in w}: the kernel of w's constraint composed with m, or of m when w is held by
    rows or generators with no entries, the zero space."""
    if w.ambient_dim != m.rows:
        raise AmbientMismatch(f"{w.ambient_dim} != {m.rows}")
    held = w._rows if w._rows is not None else w._generators
    if held is not None and not held.triples:
        return Subspace(constraint=m)
    return Subspace(constraint=w.constraint @ m)


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
    triples = {(r, last - c): t for (r, c), t in m.triples.items()} if reverse_pivots else dict(m.triples)
    for (r, j), t in rhs.triples.items():
        triples[(r, width + j)] = t
    pivots, red, leftover = _triple_rref(ExactMatrix.unchecked(m.rows, width + rhs.cols, triples), pivot_limit=width)
    # a leftover row is zero on the columns of m, so its entries name inconsistent right-hand sides
    inconsistent = sorted({c - width for row in leftover for c in row})
    bad = set(inconsistent)
    solutions = {}
    for p, row in zip(pivots, red):
        x = last - p if reverse_pivots else p
        for c, t in row.items():
            if c >= width and c - width not in bad:
                solutions[(x, c - width)] = t
    return ExactMatrix.unchecked(width, rhs.cols, solutions), inconsistent


def solve(m: ExactMatrix, b: Sequence[Scalar], reverse_pivots: bool = False):
    """Some x with m x = b as a dense tuple, or None when b is outside the image: solve_many on one column."""
    if len(b) != m.rows:
        raise ValueError("right-hand side length mismatch")
    x, inconsistent = solve_many(m, ExactMatrix(m.rows, 1, {(r, 0): v for r, v in enumerate(b)}), reverse_pivots)
    if inconsistent:
        return None
    return tuple(x.entry(r, 0) for r in range(m.cols))
