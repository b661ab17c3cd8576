"""Sparse exterior forms over a complex coframe, with optional Fourier weights.

A basis monomial is e_w * theta^{i_1} ^ ... ^ theta^{i_p} ^ tbar^{j_1} ^ ...
^ tbar^{j_q} with strictly increasing index sets and a weight w in Z^k (empty
for the invariant model).  Forms are sparse maps from monomials to Q(i)
coefficients; the wedge product carries the Koszul sign and adds weights, and
conjugation swaps the index sets, negates the weight and conjugates the
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, product
from typing import Iterable, Mapping, NamedTuple

from .scalars import ONE, ZERO, Scalar, Triple, add_triples, as_scalar, canonical, reduced_triple


class BasisElement(NamedTuple):
    weight: tuple[int, ...]
    holo: tuple[int, ...]
    anti: tuple[int, ...]

    @property
    def bidegree(self) -> tuple[int, int]:
        return (len(self.holo), len(self.anti))

    @property
    def degree(self) -> int:
        return len(self.holo) + len(self.anti)


def merge_indices(a: tuple[int, ...], b: tuple[int, ...]):
    """Merge two strictly increasing tuples; (sign, merged), or (0, None) on overlap."""
    if not a:
        return 1, b
    if not b:
        return 1, a
    if set(a) & set(b):
        return 0, None
    merged = sorted(a + b)
    # parity of the merge permutation: count of pairs (x in a, y in b) with x > y
    inversions = sum(1 for x in a for y in b if x > y)
    return (-1) ** inversions, tuple(merged)


def wedge_elements(e1: BasisElement, e2: BasisElement):
    """(sign, element) for the product of two monomials; sign 0 when it dies."""
    if len(e1.weight) != len(e2.weight):
        raise ValueError("wedge of forms with different weight ranks")
    sh, holo = merge_indices(e1.holo, e2.holo)
    if sh == 0:
        return 0, None
    sa, anti = merge_indices(e1.anti, e2.anti)
    if sa == 0:
        return 0, None
    # move the second factor's holomorphic part across the first's antiholomorphic part
    cross = (-1) ** (len(e1.anti) * len(e2.holo))
    weight = tuple(x + y for x, y in zip(e1.weight, e2.weight))
    return sh * sa * cross, BasisElement(weight, holo, anti)


def conjugate_element(e: BasisElement):
    """(sign, element) under complex conjugation of the monomial."""
    sign = (-1) ** (len(e.holo) * len(e.anti))
    weight = tuple(-x for x in e.weight)
    return sign, BasisElement(weight, e.anti, e.holo)


class Form:
    """A finite Q(i)-combination of basis monomials."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[BasisElement, Scalar] | None = None):
        self.coeffs: dict[BasisElement, Scalar] = {}
        if coeffs:
            for k, v in coeffs.items():
                if v:
                    self.coeffs[k] = v

    @classmethod
    def monomial(cls, element: BasisElement, coeff: Scalar = ONE) -> "Form":
        return cls({element: coeff})

    def items(self):
        return sorted(self.coeffs.items())

    def triples(self) -> dict[BasisElement, Triple]:
        """{monomial: canonical triple} of the nonzero coefficients, in their order."""
        return {e: c.triple for e, c in self.coeffs.items()}

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other) -> bool:
        return isinstance(other, Form) and self.coeffs == other.coeffs

    def __add__(self, other: "Form") -> "Form":
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            s = out.get(k, ZERO) + v
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return Form(out)

    def __sub__(self, other: "Form") -> "Form":
        return self + other.scale(as_scalar(-1))

    def __neg__(self) -> "Form":
        return self.scale(as_scalar(-1))

    def scale(self, a) -> "Form":
        a = as_scalar(a)
        if not a:
            return Form()
        return Form({k: a * v for k, v in self.coeffs.items()})

    def wedge(self, other: "Form") -> "Form":
        out: dict[BasisElement, Scalar] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                sign, elt = wedge_elements(e1, e2)
                if sign == 0:
                    continue
                val = c1 * c2 if sign == 1 else -(c1 * c2)
                s = out.get(elt, ZERO) + val
                if s:
                    out[elt] = s
                else:
                    out.pop(elt, None)
        return Form(out)

    def conjugate(self) -> "Form":
        out: dict[BasisElement, Scalar] = {}
        for e, c in self.coeffs.items():
            sign, elt = conjugate_element(e)
            out[elt] = c.conj() if sign == 1 else -(c.conj())
        return Form(out)

    def bidegree_part(self, p: int, q: int) -> "Form":
        return Form({e: c for e, c in self.coeffs.items() if e.bidegree == (p, q)})

    def bidegrees(self) -> set[tuple[int, int]]:
        return {e.bidegree for e in self.coeffs}

    def weights(self) -> set[tuple[int, ...]]:
        return {e.weight for e in self.coeffs}

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Form(0)"
        parts = [f"({c})*{e.weight}|{e.holo}|{e.anti}" for e, c in self.items()]
        return "Form(" + " + ".join(parts) + ")"


def with_weight_rank(form: Form, rank: int) -> Form:
    """Re-embed an invariant (rank-0) form at weight zero of the given rank."""
    zero = (0,) * rank
    out = {}
    for e, c in form.coeffs.items():
        if len(e.weight) == rank:
            out[e] = c
        elif not any(e.weight):
            out[BasisElement(zero, e.holo, e.anti)] = c
        else:
            raise ValueError("cannot re-rank a form with nonzero weights")
    return Form(out)


class InconsistentModel(Exception):
    """The Fourier coefficient model is incompatible with the Lie brackets."""


@dataclass(frozen=True)
class CoefficientModel:
    """Coefficient functions carried by the complex.

    Invariant: constants only (rank 0, no weights).  TorusFourier: each real
    frame vector acts on the mode of weight w in Z^k as multiplication by
    i * (row . w); the 2*pi of the underlying torus derivative is absorbed
    into this convention so eigenvalues stay in Q(i).  Truncation keeps all
    weights with |w_a| <= N, a box closed under every weight-preserving
    operator and under conjugation.  When set, `kept` restricts the model to
    those weights, a set closed under negation, in box order (`restricted`);
    its complex is a direct summand of the box's, so dimensions add.  The box
    of truncation N is the disjoint union of the shells max |w_a| = s for
    s = 0..N (`shell`).
    """

    kind: str  # "invariant" | "torus_fourier"
    rank: int = 0
    actions: tuple[tuple[Scalar, ...], ...] = ()
    truncation: int = 0
    kept: tuple[tuple[int, ...], ...] | None = None

    @classmethod
    def invariant(cls) -> "CoefficientModel":
        return cls(kind="invariant")

    def with_truncation(self, n: int) -> "CoefficientModel":
        if self.kind == "invariant":
            return self
        return CoefficientModel(self.kind, self.rank, self.actions, n)

    def shell(self, s: int) -> "CoefficientModel":
        """The model at truncation s that keeps only the weights with max |w_a| = s."""
        box = self.with_truncation(s)
        return box.restricted(w for w in box.weights() if max(map(abs, w)) == s)

    def restricted(self, weights) -> "CoefficientModel":
        """The model keeping those of its weights that are in `weights`, in its own order.

        The model itself when that is all of them, and always for an invariant model.
        """
        if self.kind == "invariant":
            return self
        chosen = set(weights)
        own = self.weights()
        kept = tuple(w for w in own if w in chosen)
        return self if len(kept) == len(own) else replace(self, kept=kept)

    def weights(self) -> list[tuple[int, ...]]:
        if self.kind == "invariant":
            return [()]
        if self.kept is not None:
            return list(self.kept)
        n = self.truncation
        return sorted(product(range(-n, n + 1), repeat=self.rank))

    def acting_frame_indices(self) -> list[int]:
        if self.kind == "invariant":
            return []
        return [a + 1 for a, row in enumerate(self.actions) if any(row)]


def enumerate_basis(n: int, p: int, q: int, model: CoefficientModel) -> tuple[BasisElement, ...]:
    """Deterministic (weight, holo, anti)-lexicographic monomial basis of A^{p,q}."""
    if not (0 <= p <= n and 0 <= q <= n):
        return ()
    out = []
    holos = list(combinations(range(1, n + 1), p))
    antis = list(combinations(range(1, n + 1), q))
    for w in model.weights():
        for h in holos:
            for a in antis:
                out.append(BasisElement(w, h, a))
    return tuple(out)


GenAction = Mapping[tuple[str, int], Form]

# bit of the first antiholomorphic index in a monomial mask; real_dim <= 16 keeps indices below it
_ANTI_BIT = 32
# (weight, mask) -> BasisElement and generator image monomial -> placement, filled as they are met
_DECODED: dict[tuple[tuple[int, ...], int], BasisElement] = {}
_PLACEMENTS: dict[BasisElement, tuple] = {}


def _mask(holo: tuple[int, ...], anti: tuple[int, ...]) -> int:
    """A monomial's index sets as one int: holo index s is bit s, anti index s is bit s + 32."""
    m = 0
    for s in holo:
        m |= 1 << s
    for s in anti:
        m |= 1 << (s + _ANTI_BIT)
    return m


def _decode(weight: tuple[int, ...], mask: int) -> BasisElement:
    key = (weight, mask)
    elt = _DECODED.get(key)
    if elt is None:
        bits = [s for s in range(mask.bit_length()) if mask >> s & 1]
        elt = _DECODED[key] = BasisElement(
            weight, tuple(s for s in bits if s < _ANTI_BIT), tuple(s - _ANTI_BIT for s in bits if s >= _ANTI_BIT)
        )
    return elt


def _placement(e: BasisElement) -> tuple:
    """A 2-form monomial as (mask, bits below a, bits below b, weight rank, shift), a < b its two bits.

    shift is the monomial's weight, or None when it is zero.  Each monomial is encoded once per process.
    """
    out = _PLACEMENTS.get(e)
    if out is None:
        bits = e.holo + tuple(s + _ANTI_BIT for s in e.anti)
        if len(bits) != 2:
            raise ValueError(f"generator image {e} is not a 2-form")
        low, high = 1 << bits[0], 1 << bits[1]
        out = _PLACEMENTS[e] = (low | high, low - 1, high - 1, len(e.weight), e.weight if any(e.weight) else None)
    return out


def _term(e: BasisElement, v: Scalar) -> tuple:
    """A generator image term: the placement of e, then v and -v as triples."""
    a, b, d = v.triple
    return (*_placement(e), (a, b, d), (-a, -b, d))


class GeneratorImages:
    """A snapshot of generator actions with every image term converted for leibniz, keyed by generator bit.

    Pass one in place of the mapping when the same images are extended over
    many forms, so the terms are converted once and not once per call.
    """

    __slots__ = ("terms",)

    def __init__(self, gen_action: GenAction):
        # the mask bit of ('h', s), theta^s, is s and that of ('a', s), tbar^s, is s + _ANTI_BIT
        self.terms = {
            1 << (s if kind == "h" else s + _ANTI_BIT): [_term(e, v) for e, v in image.coeffs.items()]
            for (kind, s), image in gen_action.items()
        }


def leibniz(images: GeneratorImages, terms: Iterable[tuple[BasisElement, Triple]]) -> dict[BasisElement, Triple]:
    """The odd derivation of the generator images on the combination of (monomial, canonical triple) terms.

    images holds the image of each coframe generator, a 2-form with constant
    coefficients, and the graded Leibniz rule fixes everything else.  The
    result is {monomial: canonical triple} over the nonzero coefficients, in
    the order the terms first meet their monomials.  Monomials are bit masks
    whose bit order is the theta^holo ^ tbar^anti order of BasisElement, so
    the term that replaces generator bit g of m by the image bits a < b is
    (m ^ g) | e, and it dies when the two overlap.  Its sign is (-1)^(k + i): k
    generators of m lie below g, and i counts the inversions of sorting a and
    b into the rest r = m ^ g, the prefix bits above a and above b plus the
    suffix bits below a and below b.  The prefix holds k bits, so mod 2 its
    bits above a equal k plus its bits below a, and k + i is k plus the bits
    of r below a plus the bits of r below b.  Coefficients are accumulated as
    unreduced (a, b, d) triples, with a gcd only where two terms meet over
    different denominators, and each coefficient of the result is reduced
    once; no Scalar is built.
    """
    placements = images.terms
    out: dict[tuple[int, ...], dict[int, Triple]] = {}
    for (w, holo, anti), (ca, cb, cd) in terms:
        m = _mask(holo, anti)
        rank = len(w)
        unit = ca == 1 and not cb and cd == 1
        acc = out.setdefault(w, {})
        gens = [1 << s for s in holo] + [1 << (s + _ANTI_BIT) for s in anti]
        for k, g in enumerate(gens):
            rest = m ^ g
            for e, below_a, below_b, e_rank, shift, plus, minus in placements.get(g, ()):
                if rest & e:
                    continue
                if e_rank != rank:
                    raise ValueError("wedge of forms with different weight ranks")
                target = acc if shift is None else out.setdefault(tuple(x + y for x, y in zip(w, shift)), {})
                odd = (k + (rest & below_a).bit_count() + (rest & below_b).bit_count()) & 1
                if unit:
                    p = minus if odd else plus
                else:
                    va, vb, vd = plus
                    pa, pb = va * ca - vb * cb, va * cb + vb * ca
                    p = (-pa, -pb, vd * cd) if odd else (pa, pb, vd * cd)
                key = rest | e
                t = target.get(key)
                target[key] = p if t is None else add_triples(t, p)
    return {
        _decode(w, key): reduced_triple(a, b, d) for w, acc in out.items() for key, (a, b, d) in acc.items() if a or b
    }


def extend_derivation(gen_action: GenAction | GeneratorImages, form: Form) -> Form:
    """The odd derivation of the generator actions on a form: leibniz, with Scalar coefficients.

    gen_action maps ('h', s) and ('a', s) to the image of theta^s and tbar^s,
    a 2-form; a mapping is converted to GeneratorImages on each call, so pass
    GeneratorImages to convert it once.
    """
    if not isinstance(gen_action, GeneratorImages):
        gen_action = GeneratorImages(gen_action)
    terms = leibniz(gen_action, form.triples().items())
    return Form({e: canonical(a, b, d) for e, (a, b, d) in terms.items()})
