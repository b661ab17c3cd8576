"""Executable audits of the operator identities, dualities and inequalities,
plus the taming pipeline: solve the closedness correction equation for a
dd^c-closed real (1,1)-form, build the corrected 2-form, and certify exact
closedness and nondegeneracy.

Audit verdicts are model-level statements about the finite subcomplex.  A
failed inequality on a subcomplex is reported as a subcomplex artifact, not
as a contradiction of the corresponding full-manifold statement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .forms import BasisElement, Form
from .linalg import ExactMatrix
from .metric import HermitianMetric, Not4Manifold, NotPositive
from .operators import DIFFERENTIALS, FormComplex, compose, nijenhuis_rank, shift
from .cohomology import CohomologyEngine
from .scalars import I, ONE, ZERO, Scalar, integer

MINUS_I = -I


class NoSolution(Exception):
    """The correction equation is inconsistent; carries the obstruction."""

    def __init__(self, message: str, obstruction=None):
        super().__init__(message)
        self.obstruction = obstruction


class NotDdcClosed(Exception):
    """The input (1,1)-form is not del-delbar-closed."""


class DegenerateAtSample(Exception):
    """The candidate 2-form degenerates at an exact sample point, or between two where its top wedge changes sign.

    witness is the evidence beside its kind: the point, or both points of a sign change with their values.
    """

    def __init__(self, point, witness: dict | None = None):
        super().__init__(f"degenerate at sample point {point}")
        self.point = point
        self.witness = witness or {"sample_point": [str(x) for x in point]}


@dataclass
class AuditItem:
    claim: str
    status: str  # "pass" | "fail" | "not-applicable"
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"claim": self.claim, "status": self.status, "witness": self.witness}


@dataclass
class TamingCertificate:
    psi: Form
    u: Form
    omega_prime: Form
    closed: bool
    well_defined: bool
    nondegeneracy: dict
    hypothesis: dict

    def as_dict(self, render) -> dict:
        return {
            "psi": render(self.psi),
            "u": render(self.u),
            "omega_prime": render(self.omega_prime),
            "closed": self.closed,
            "well_defined": self.well_defined,
            "nondegeneracy": self.nondegeneracy,
            "hypothesis": self.hypothesis,
        }


def _verdict(ok: bool) -> str:
    return "pass" if ok else "fail"


# ---------------------------------------------------------------------------
# identity audits


# the sixteen almost-Kahler commutators [a, b] = C of Cirici-Wilson in four families, one
# total-degree identity a.b = b.a + C each, with b and C sums of operators named in
# IDENTITY_TERMS; the shift of a block of the identity names its commutator
SYMPLECTIC_COMMUTATORS = (
    ("L", "d", None, {(0, 3): "[L,mubar]", (3, 0): "[L,mu]", (1, 2): "[L,dbar]", (2, 1): "[L,partial]"}),
    ("Lambda", "d*", None,
     {(0, -3): "[Lambda,mubar*]", (-3, 0): "[Lambda,mu*]", (-1, -2): "[Lambda,dbar*]", (-2, -1): "[Lambda,partial*]"}),
    ("L", "d*", "C+", {(2, -1): "[L,mubar*]", (-1, 2): "[L,mu*]", (1, 0): "[L,dbar*]", (0, 1): "[L,partial*]"}),
    ("Lambda", "d", "C-",
     {(-2, 1): "[Lambda,mubar]", (1, -2): "[Lambda,mu]", (-1, 0): "[Lambda,dbar]", (0, -1): "[Lambda,partial]"}),
)

IDENTITY_TERMS = {
    "L": ((ONE, "L"),),
    "Lambda": ((ONE, "Lambda"),),
    "d": tuple((ONE, name) for name in DIFFERENTIALS),
    "d*": tuple((ONE, name + "*") for name in DIFFERENTIALS),
    # [L, mubar*] = i mu, [L, mu*] = -i mubar, [L, dbar*] = -i partial, [L, partial*] = i dbar
    "C+": ((I, "mu"), (MINUS_I, "mubar"), (MINUS_I, "partial"), (I, "dbar")),
    # [Lambda, mubar] = i mu*, [Lambda, mu] = -i mubar*, [Lambda, dbar] = -i partial*, [Lambda, partial] = i dbar*
    "C-": ((I, "mu*"), (MINUS_I, "mubar*"), (MINUS_I, "partial*"), (I, "dbar*")),
}


def failure_list(failures) -> list:
    """Failures of identity_suite as JSON values: [p, q] for a block, the degree r for d.d."""
    return [b if isinstance(b, int) else list(b) for b in failures]


def audit_identities(engine: CohomologyEngine) -> list[AuditItem]:
    """Square-zero relations always; the metric commutators and sl(2) when d(omega) = 0.

    Every identity is read off its two sides as total-degree maps
    (FormComplex.read_off), each operator sum assembled once per degree from
    engine.block.  This audits the engine it is given, on all of its weights;
    cli.Session.identity_engine names the N <= 1 engine whose audit decides a
    truncation.
    """
    items = []
    for entry in engine.complex.identity_suite():
        # d.d fails in total degrees, every other relation in [p, q] blocks
        key = "failing_degrees" if entry["identity"] == "d.d" else "failing_blocks"
        items.append(
            AuditItem(
                claim=f"square-zero-relations:{entry['identity']}",
                status=_verdict(entry["passed"]),
                witness={key: failure_list(entry["failures"])} if entry["failures"] else {},
            )
        )
    if not engine.hermitian.kahler_predicates()["almost_kahler"]:
        items.append(
            AuditItem(
                "symplectic-commutators",
                "not-applicable",
                {"reason": "fundamental form is not closed"},
            )
        )
        return items
    cx, n = engine.complex, engine.n
    totals: dict[tuple[str, int], ExactMatrix] = {}

    def total(group: str, r: int) -> ExactMatrix:
        """A group of IDENTITY_TERMS from degree r, or H, the counting operator r - n; built once."""
        if (group, r) not in totals:
            if group == "H":
                totals[(group, r)] = ExactMatrix.identity(cx.total_dim(r)).scale(integer(r - n))
            else:
                totals[(group, r)] = cx.total(engine.block, IDENTITY_TERMS[group], r)
        return totals[(group, r)]

    def read_commutator(a: str, b: str, rhs: str | None, table: dict) -> dict:
        """read_off of a.b = b.a + rhs on every degree."""
        ka, kb = (sum(shift(IDENTITY_TERMS[g][0][1])) for g in (a, b))
        sides = []
        for r in range(2 * n + 1):
            right = total(b, r + ka) @ total(a, r)
            sides.append((r, total(a, r + kb) @ total(b, r), right if rhs is None else right + total(rhs, r)))
        return cx.read_off(table, sides)

    failures = [
        label for family in SYMPLECTIC_COMMUTATORS for label, blocks in read_commutator(*family).items() if blocks
    ]
    items.append(
        AuditItem(
            "symplectic-commutators",
            _verdict(not failures),
            {"failing": failures} if failures else {"checked": sum(len(t) for *_, t in SYMPLECTIC_COMMUTATORS)},
        )
    )
    # sl(2) normalization: [L, Lambda] = H
    sl2_fail = read_commutator("L", "Lambda", "H", {(0, 0): "sl2"})["sl2"]
    items.append(
        AuditItem(
            "lefschetz-sl2-commutator",
            _verdict(not sl2_fail),
            {"failing_blocks": [list(b) for b in sl2_fail]} if sl2_fail else {},
        )
    )
    return items


def audit_dualities(engine: CohomologyEngine) -> list[AuditItem]:
    """Harmonic dimension symmetries and star-stability of harmonic spaces."""
    h = engine.hermitian
    if not h.kahler_predicates()["almost_kahler"]:
        return [
            AuditItem(
                "harmonic-dualities",
                "not-applicable",
                {"reason": "fundamental form is not closed"},
            )
        ]
    n = engine.n
    # star takes (p,q) to (n-q, n-p): each harmonic space is built once, as a source and as a target.
    # The star check maps their bases, so the table is read off the basis widths, which also sets each
    # dim with no forward pass (engine.ell, the same number as a rank, is left to the diamond)
    spaces = {(p, q): engine.harmonic_space(("dbar", "mu"), p, q) for p in range(n + 1) for q in range(n + 1)}
    ell = {cell: space.generators.cols for cell, space in spaces.items()}
    sym_fail = []
    for (p, q), v in ell.items():
        if not (v == ell[(q, p)] == ell[(n - q, n - p)] == ell[(n - p, n - q)]):
            sym_fail.append((p, q))
    items = [
        AuditItem(
            "harmonic-dimension-symmetries",
            _verdict(not sym_fail),
            {"table": {f"{p},{q}": v for (p, q), v in sorted(ell.items())},
             "failing": [list(b) for b in sym_fail]} if sym_fail else
            {"table": {f"{p},{q}": v for (p, q), v in sorted(ell.items())}},
        )
    ]
    # the verdict asks only whether a star image escapes, so the null basis kernel built answers it
    star_fail = []
    for (p, q), space in spaces.items():
        if space.dim and spaces[(n - q, n - p)].outside((h.star(p, q) @ space.generators).transpose()):
            star_fail.append((p, q))
    items.append(
        AuditItem(
            "star-preserves-harmonicity",
            _verdict(not star_fail),
            {"failing": [list(b) for b in star_fail]} if star_fail else {},
        )
    )
    return items


def audit_4mfld_lemmas(engine: CohomologyEngine) -> list[AuditItem]:
    cx = engine.complex
    if cx.n != 2:
        raise Not4Manifold("four-manifold lemma audit requested off dimension four")
    items = []
    # kernel equality on (1,0)-forms
    ker_dbar = engine.op_kernel("dbar", 1, 0)
    ker_d = engine._kernel_of(*([name] for name in DIFFERENTIALS), p=1, q=0)
    items.append(
        AuditItem(
            "closed-one-zero-forms",
            _verdict(ker_dbar == ker_d),
            {"dim_ker_dbar": ker_dbar.dim, "dim_ker_d": ker_d.dim},
        )
    )
    # exact classes of bidegree (2,0) vanish in the spectral quotient
    num20, den20 = engine.dolbeault_cw_parts(2, 0)
    reachable = linalg.sum_spaces(
        [engine.op_image_into("partial", 2, 0), engine.op_image_into("mu", 2, 0)]
    )
    candidates = linalg.intersect([reachable, num20])
    bad = den20.outside(candidates.rows)
    items.append(
        AuditItem(
            "exact-two-zero-classes-vanish",
            _verdict(not bad),
            {"candidates": candidates.dim, "nonvanishing": bad},
        )
    )
    # conjugation matches the (2,0) and (0,2) dimensions
    h20, h02 = engine.dolbeault_cw(2, 0), engine.dolbeault_cw(0, 2)
    items.append(AuditItem("conjugation-iso-(2,0)-(0,2)", _verdict(h20 == h02), {"h20": h20, "h02": h02}))
    # dimension chains
    numbers = {
        "h10": engine.dolbeault_cw(1, 0),
        "h01": engine.dolbeault_cw(0, 1),
        "h20": h20,
        "h02": h02,
        "ht10": engine.refined_dolbeault(1, 0),
        "ht01": engine.refined_dolbeault(0, 1),
        "ht20": engine.refined_dolbeault(2, 0),
        "ht02": engine.refined_dolbeault(0, 2),
        "hat01": engine.hat_h01(),
        "hat1": engine.hat_h1(),
        "b1": engine.de_rham(1),
        "ell10": engine.ell(1, 0),
        "ell01": engine.ell(0, 1),
        "ell20": engine.ell(2, 0),
        "ell02": engine.ell(0, 2),
    }
    chain_ok = (
        numbers["h10"] == numbers["ht10"]
        and numbers["ht10"] <= numbers["ht01"] <= numbers["hat01"] <= numbers["h01"]
        and numbers["ell10"] == numbers["h10"]
        and numbers["ell01"] <= numbers["ht01"]
        and numbers["ell20"] == numbers["h20"] == numbers["ht20"] == numbers["ell02"] == numbers["h02"] <= numbers["ht02"]
    )
    items.append(AuditItem("hodge-number-chain", _verdict(chain_ok), dict(numbers)))
    betti_ok = 2 * numbers["ht10"] <= numbers["b1"] <= numbers["ht10"] + numbers["hat01"] <= numbers["ht10"] + numbers["h01"]
    witness = dict(numbers)
    if not betti_ok:
        witness["note"] = "subcomplex artifact: the bound concerns full form spaces"
    items.append(AuditItem("first-betti-bounds", _verdict(betti_ok), witness))
    hat_ok = numbers["hat1"] == numbers["hat01"] + numbers["ht01"]
    items.append(
        AuditItem(
            "hat-splitting",
            _verdict(hat_ok),
            {"hat1": numbers["hat1"], "hat01": numbers["hat01"], "ht01": numbers["ht01"]},
        )
    )
    return items


def audit_ddbar_images(engine: CohomologyEngine) -> list[AuditItem]:
    """del-delbar annihilates first-order images and its own square (dim 4)."""
    cx = engine.complex
    if cx.n != 2:
        raise Not4Manifold("these composites are four-dimensional statements")
    first = compose(cx.block, ["partial", "dbar", "partial"], 0, 1)
    second = compose(cx.block, ["partial", "dbar", "dbar"], 1, 0)
    third = compose(cx.block, ["partial", "dbar", "partial", "dbar"], 0, 0)
    ok = all(m.is_zero() for m in (first, second, third))
    return [
        AuditItem(
            "ddbar-annihilates-first-order-images",
            _verdict(ok),
            {"on_(0,1)": first.is_zero(), "on_(1,0)": second.is_zero(), "on_functions": third.is_zero()},
        )
    ]


def audit_maximal_nijenhuis(engine: CohomologyEngine) -> list[AuditItem]:
    """Maximal-rank Nijenhuis forces trivial refined groups in degree one (dim >= 6)."""
    cx = engine.complex
    n = cx.n
    if n < 3:
        return [
            AuditItem(
                "maximal-nijenhuis-vanishing", "not-applicable", {"reason": "needs real dimension >= 6"}
            )
        ]
    rank = nijenhuis_rank(cx.frame)
    maximal = rank == min(n, n * (n - 1) // 2)
    if not maximal:
        return [
            AuditItem(
                "maximal-nijenhuis-vanishing",
                "not-applicable",
                {"reason": "rank below maximum", "rank": rank},
            )
        ]
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    return [
        AuditItem(
            "maximal-nijenhuis-vanishing",
            _verdict(ht10 == 0 and ht01 == 0),
            {"rank": rank, "ht10": ht10, "ht01": ht01},
        )
    ]


def audit_generalized_ddbar(engine: CohomologyEngine) -> list[AuditItem]:
    """Every d-exact pure (1,1)-form has a del-delbar potential iff the two
    refined degree-one numbers agree; both sides computed independently."""
    cx = engine.complex
    if cx.n != 2:
        raise Not4Manifold("the potential-existence audit is four-dimensional")
    exact_11 = engine.exact_11()
    potential_image = linalg.image(compose(cx.block, ["partial", "dbar"], 0, 0))
    counterexamples = potential_image.outside(exact_11.rows)
    left = counterexamples == 0
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    right = ht10 == ht01
    return [
        AuditItem(
            "generalized-ddbar-lemma",
            _verdict(left == right),
            {
                "d_exact_11_dim": exact_11.dim,
                "counterexamples": counterexamples,
                "ht10": ht10,
                "ht01": ht01,
                "potential_side": left,
                "equality_side": right,
            },
        )
    ]


# ---------------------------------------------------------------------------
# taming pipeline


def _correct(engine: CohomologyEngine, psi: ExactMatrix, reverse_pivots: bool = False):
    """Correct the real (1,1)-forms in the columns of psi (realified) towards d-closed 2-forms.

    omega' = psi + K02 u + K20 u is d-closed iff its (1,2) part dbar psi +
    S u vanishes (its (2,1) part is the conjugate).  Returns the realified
    (0,1)-forms u, one per column of a matrix, and the corrected forms
    stacked in total-degree-2 order [(0,2); (1,1); (2,0)].  Raises
    NoSolution with the obstruction functional of the first inconsistent
    column.
    """
    k02, k20, system = engine.correction_map()
    rhs = -(engine.realified_block("dbar", 1, 1) @ psi)
    u, inconsistent = linalg.solve_many(system, rhs, reverse_pivots)
    if inconsistent:
        obstruction = _obstruction_functional(system, rhs, inconsistent[0])
        raise NoSolution("closedness correction equation is inconsistent", obstruction)
    return u, ExactMatrix.vstack([k02 @ u, psi, k20 @ u])


def _closed(cx: FormComplex, columns: ExactMatrix) -> bool:
    """d of every degree-2 form in the columns, in complex coordinates (complexify), is exactly zero."""
    return (cx.d_total(2) @ columns).is_zero()


def _total_form(cx: FormComplex, vec, r: int) -> Form:
    """The degree-r form with realified total-degree coordinates vec."""
    form = Form()
    for (p, q), off in cx.total_offsets(r).items():
        form = form + cx.from_realified(vec[2 * off :], p, q)
    return form


def solve_taming(engine: CohomologyEngine, psi: Form) -> TamingCertificate:
    """Correct a del-delbar-closed real (1,1)-form to an exactly d-closed one.

    The R-linear system (it mixes u and conj(u)) is solved after doubling
    every coordinate into real and imaginary rational parts.  The returned
    correction satisfies the closedness equation exactly and the certificate
    records the two-pivot-order well-definedness check.

    The hypothesis numbers are the engine's; the rest runs on its sector of
    the weights of psi, closed under negation as psi is real.  The realified
    system is block-diagonal over the sectors {w, -w}, and the RREF of a
    direct sum is the union of its summands' RREFs, so under either pivot
    order the engine's solution is the sector's, 0 where psi vanishes, and
    the first obstruction functional that pairs nonzero is the sector's,
    printed in the engine's rows.
    """
    if engine.n != 2:
        raise Not4Manifold("the closedness correction is a four-dimensional construction")
    if not psi.is_zero() and psi.bidegrees() != {(1, 1)}:
        raise ValueError("the input form must be pure (1,1)")
    if psi.conjugate() != psi:
        raise ValueError("the input form must be real")
    sector = engine.sector(tuple(sorted(psi.weights())))
    cx = sector.complex
    coords = cx.to_vector(psi, 1, 1)
    if any(compose(cx.block, ["partial", "dbar"], 1, 1).apply(coords)):
        raise NotDdcClosed("del delbar psi != 0")
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    hypothesis = {"ht10": ht10, "ht01": ht01, "equal": ht10 == ht01}

    column = ExactMatrix.from_rows([linalg.realify_vector(coords)]).transpose()
    try:
        u, omega = _correct(sector, column)
    except NoSolution as exc:
        raise NoSolution(str(exc), _in_engine_rows(exc.obstruction, sector, engine)) from None
    omega_prime = _total_form(cx, [omega.entry(r, 0) for r in range(omega.rows)], 2)
    # well-definedness: a second solve under the reversed pivot order must
    # produce the same corrected form even when u itself differs
    _, alt = _correct(sector, column, reverse_pivots=True)
    try:
        evidence = check_nondegenerate(sector, omega_prime)
    except DegenerateAtSample as exc:
        # legitimate for non-positive inputs; the certificate records it
        evidence = {"kind": "degenerate", **exc.witness}
    return TamingCertificate(
        psi=psi,
        u=cx.from_realified([u.entry(r, 0) for r in range(u.rows)], 0, 1),
        omega_prime=omega_prime,
        closed=_closed(cx, linalg.complexify(omega)),
        well_defined=alt == omega,
        nondegeneracy=evidence,
        hypothesis=hypothesis,
    )


def _in_engine_rows(obstruction: dict, sector: CohomologyEngine, engine: CohomologyEngine) -> dict:
    """An obstruction functional on the sector's realified (1,2) rows, moved pair by pair to the engine's."""
    index = engine.complex.index(1, 2)
    functional = [str(ZERO)] * (2 * len(index))
    for j, e in enumerate(sector.complex.basis(1, 2)):
        k = index[e]
        functional[2 * k], functional[2 * k + 1] = obstruction["functional"][2 * j : 2 * j + 2]
    return {**obstruction, "functional": functional}


def _obstruction_functional(system: ExactMatrix, rhs: ExactMatrix, j: int) -> dict:
    """The first left-kernel vector of system that pairs nonzero with column j of rhs."""
    target = {r: v for (r, c), v in rhs.entries.items() if c == j}
    for row in linalg.kernel(system.transpose()).rows.row_dicts():
        pairing = ZERO
        for r, b in target.items():
            a = row.get(r)
            if a:
                pairing = pairing + a * b
        if pairing:
            return {
                "functional": [str(row.get(r, ZERO)) for r in range(system.rows)],
                "pairing": str(pairing),
            }
    return {"functional": [], "pairing": "0"}


def check_nondegenerate(engine: CohomologyEngine, omega_prime: Form) -> dict:
    """Exact nondegeneracy evidence for a real 2-form on a 4-dimensional model.

    Constant-coefficient forms: the top-wedge coefficient is a nonzero
    rational.  Fourier-coefficient forms: exact evaluation on the
    quarter-period grid, where every mode takes values in {1, i, -1, -i}.
    omega' ^ omega' is a real 4-form, so the top-wedge values at two samples
    differ by a real factor; a negative one means the form changes sign
    between them and, by continuity, vanishes somewhere, so it is degenerate
    even when no sample is zero.  Additionally the structural guarantee
    applies whenever the (1,1)-part is an invariant positive form and the
    rest is purely (2,0) + (0,2).
    """
    cx = engine.complex
    if cx.n != 2:
        raise Not4Manifold("nondegeneracy certificates are four-dimensional")
    rank = cx.coefficients.rank
    top = omega_prime.wedge(omega_prime)
    vol_sets = (tuple(range(1, cx.n + 1)), tuple(range(1, cx.n + 1)))
    evidence: dict = {}
    invariant_only = all(not any(e.weight) for e in top.coeffs)
    if invariant_only:
        coeff = top.coeffs.get(BasisElement((0,) * rank, *vol_sets), ZERO)
        if not coeff:
            raise DegenerateAtSample(tuple(Fraction(0) for _ in range(max(rank, 1))))
        evidence["kind"] = "constant-coefficient"
        evidence["top_wedge_coefficient"] = str(coeff)
    else:
        samples = _quarter_grid(rank)
        values = []
        for point in samples:
            value = ZERO
            for e, c in top.coeffs.items():
                if (e.holo, e.anti) != vol_sets:
                    continue
                value = value + c * _mode_value(e.weight, point)
            if not value:
                raise DegenerateAtSample(point)
            values.append(value)
        for point, value in zip(samples[1:], values[1:]):
            ratio = value / values[0]
            if ratio.is_real() and ratio.re < 0:
                pair = ((samples[0], values[0]), (point, value))
                witness = [{"point": [str(x) for x in pt], "top_wedge": str(v)} for pt, v in pair]
                raise DegenerateAtSample(point, {"sign_change": witness})
        evidence["kind"] = "fourier-sample-grid"
        evidence["samples"] = len(samples)
        evidence["all_nonzero"] = True
    evidence["structural_guarantee"] = _structural_guarantee(engine, omega_prime)
    return evidence


def _quarter_grid(rank: int):
    from itertools import product

    quarters = [Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    return [tuple(pt) for pt in product(quarters, repeat=rank)]


def _mode_value(weight, point) -> Scalar:
    """exp(2 pi i w.t) at a quarter-period point: a power of i, exactly."""
    total = Fraction(0)
    for w, t in zip(weight, point):
        total += w * t
    power = int((4 * total) % 4)
    return (I ** power) if power else ONE


def _structural_guarantee(engine: CohomologyEngine, omega_prime: Form) -> dict:
    part11 = omega_prime.bidegree_part(1, 1)
    rest = omega_prime - part11
    pure_correction = all(bd in {(2, 0), (0, 2)} for bd in rest.bidegrees())
    invariant_11 = all(not any(e.weight) for e in part11.coeffs)
    positive = False
    if invariant_11 and part11:
        # omega' = (i/2) g_{k jbar} theta^k ^ tbar^j on its (1,1) part: g = -2i c
        zero = (0,) * engine.complex.coefficients.rank
        indices = range(1, engine.n + 1)
        minus_two_i = integer(-2) * I
        g = tuple(
            tuple(minus_two_i * part11.coeffs.get(BasisElement(zero, (k,), (j,)), ZERO) for j in indices)
            for k in indices
        )
        try:
            HermitianMetric(g).validate()
            positive = True
        except NotPositive:
            pass
    return {
        "correction_is_20_plus_02": pure_correction,
        "one_one_part_invariant": invariant_11,
        "one_one_part_positive": positive,
        "applies": pure_correction and invariant_11 and positive,
    }


def audit_taming(engine: CohomologyEngine, psi: Form, label: str) -> AuditItem:
    try:
        cert = solve_taming(engine, psi)
    except (NoSolution, NotDdcClosed) as exc:
        return AuditItem(f"taming-correction:{label}", "fail", {"error": type(exc).__name__, "detail": str(exc)})
    return AuditItem(
        f"taming-correction:{label}",
        _verdict(cert.closed and cert.well_defined),
        {"closed": cert.closed, "well_defined": cert.well_defined, "nondegenerate": cert.nondegeneracy.get("kind", "")},
    )


def audit_ddc_descent(engine: CohomologyEngine) -> list[AuditItem]:
    """The corrected-form map descends injectively from the real ddc quotient
    into degree-two de Rham cohomology."""
    cx = engine.complex
    if cx.n != 2:
        raise Not4Manifold("descent audit is four-dimensional")
    ht10 = engine.refined_dolbeault(1, 0)
    ht01 = engine.refined_dolbeault(0, 1)
    if ht10 != ht01:
        return [
            AuditItem(
                "ddc-descent-injective",
                "not-applicable",
                {"reason": "correction equation can be obstructed", "ht10": ht10, "ht01": ht01},
            )
        ]
    source = engine.real_ddc_kernel()
    if source.dim == 0:
        return [AuditItem("ddc-descent-injective", "pass", {"note": "empty source"})]

    psi = source.rows.transpose()
    try:
        _, corrected = _correct(engine, psi)
    except NoSolution:
        return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction equation obstructed"})]
    columns = linalg.complexify(corrected)
    if not _closed(cx, columns):
        return [AuditItem("ddc-descent-injective", "fail", {"reason": "correction not closed"})]
    # Both kernels are taken over C on the complexified columns.  The columns are real forms and
    # im d, im d^{1,1} are conjugation-stable, so each complex kernel is closed under conjugating
    # the coefficients: it is the complexification of the real kernel, with its dimension, and two
    # such kernels are equal iff their real points are.  Real 1-forms span A^1 over C, so the real
    # points of im d^{1,1} are its image of real 1-forms.
    kernel_of_class_map = linalg.kernel(linalg.image(cx.d_total(1)).constraint @ columns)
    # coefficient vectors landing in the image of d^{1,1}
    expected_kernel = linalg.kernel(linalg.image(engine._d11()).constraint @ linalg.complexify(psi))
    ok = kernel_of_class_map == expected_kernel
    return [
        AuditItem(
            "ddc-descent-injective",
            _verdict(ok),
            {
                "source_dim": source.dim,
                "class_map_kernel": kernel_of_class_map.dim,
                "expected_kernel": expected_kernel.dim,
            },
        )
    ]
