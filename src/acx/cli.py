"""Manifest parsing, command dispatch and report serialization.

The manifest is JSON with every number carried as an exact string: rationals
as "p/q" and Gaussian rationals as "p/q+r/s*i".  Reports render all values
exactly (never decimal-approximated) and machine-readable output is
byte-deterministic apart from the top-level timing field.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, repeat
from math import comb

from . import __version__, linalg
from .audits import (
    AuditItem,
    NoSolution,
    NotDdcClosed,
    audit_4mfld_lemmas,
    audit_ddbar_images,
    audit_ddc_descent,
    audit_dualities,
    audit_generalized_ddbar,
    audit_identities,
    audit_maximal_nijenhuis,
    audit_taming,
    failure_list,
    solve_taming,
)
from .cohomology import CohomologyEngine, compute_diamond, diamond_numbers
from .forms import CoefficientModel, Form, InconsistentModel
from .lie import AlmostComplexStructure, DegenerateJ, LieAlgebraSpec, build_frame, validate_model
from .linalg import ExactMatrix, NotContained
from .metric import HermitianMetric, Not4Manifold, NotPositive
from .operators import DIFFERENTIALS, FormComplex, compose, memoized, nijenhuis_rank
from .scalars import Scalar, format_scalar, parse_rational, parse_scalar, rational

KNOWN_TASKS = ("validate", "diamond", "verify", "taming", "report")

# the largest truncated basis a run builds: (2N+1)^rank * 4^n monomials over all
# bidegrees; kt4 (rank 2, n = 2) reaches it past N = 39, an invariant model past real_dim 16
MAX_BASIS_MONOMIALS = 100_000
# the largest invariant bidegree block, C(n, n//2) * C(n, n - n//2) monomials: its Gram,
# star and wedge-pairing matrices are dense, so their cost grows with its square;
# 400 admits real_dim 12 and refuses real_dim 14 (1,225) and 16 (4,900)
MAX_INVARIANT_BLOCK = 400
# consecutive truncation shells share one diamond engine up to this many weights: that spares each
# shell's fixed bookkeeping and keeps a run's memory near one wide shell's
RUN_WEIGHTS = 64


class ParseError(Exception):
    """Structured manifest parse failure with field provenance."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


class ValidationError(Exception):
    """A manifest violates a named structural invariant."""

    def __init__(self, invariant: str, message: str):
        super().__init__(f"{invariant}: {message}")
        self.invariant = invariant


def check_basis_size(n: int, rank: int, truncation: int) -> None:
    """Refuse a basis of more than MAX_BASIS_MONOMIALS monomials, before building it.

    The count (2N+1)^rank * 4^n is formed factor by factor and abandoned once
    it passes the limit, so a huge N, rank or n costs no huge power.  At rank
    0 this bounds the invariant basis, whose size real_dim alone fixes.  Past
    MAX_BASIS_MONOMIALS.bit_length() factors of 4 the count has passed the
    limit, so n is cut there: repeat refuses a count past the C ssize_t range.
    """
    size = 1
    for factor in chain(repeat(4, min(n, MAX_BASIS_MONOMIALS.bit_length())), repeat(2 * truncation + 1, rank)):
        size *= factor
        if size > MAX_BASIS_MONOMIALS:
            what = f"truncation {truncation}" if rank else f"real_dim {2 * n}"
            raise ValidationError(
                "Truncations" if rank else "ManifoldSpec",
                f"{what} gives more than {MAX_BASIS_MONOMIALS} basis monomials ((2N+1)^{rank} * 4^{n})",
            )


def check_invariant_block(n: int) -> None:
    """Refuse a model whose largest invariant bidegree block passes MAX_INVARIANT_BLOCK.

    The middle block C(k, k//2) * C(k, k - k//2) grows with k, so the check
    stops at the first k past the limit and a huge n costs no huge binomial.
    """
    for k in range(1, n + 1):
        if comb(k, k // 2) * comb(k, k - k // 2) > MAX_INVARIANT_BLOCK:
            raise ValidationError(
                "ManifoldSpec",
                f"real_dim {2 * n} gives an invariant bidegree block of more than {MAX_INVARIANT_BLOCK} "
                "monomials (C(n, n//2) * C(n, n - n//2), n = real_dim / 2)",
            )


@dataclass
class ManifoldSpec:
    name: str
    real_dim: int
    algebra: LieAlgebraSpec
    structure: AlmostComplexStructure
    metric: HermitianMetric
    coefficients: CoefficientModel
    tasks: tuple[str, ...]

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "real_dim": self.real_dim,
            "brackets": [
                [i, j, k, str(v)] for (i, j, k, v) in self.algebra.brackets
            ],
            "J": [[str(x) for x in row] for row in self.structure.matrix],
            "metric": [[format_scalar(x) for x in row] for row in self.metric.entries],
            "coefficients": self._coefficients_dict(),
            "tasks": list(self.tasks),
        }

    def _coefficients_dict(self) -> dict:
        c = self.coefficients
        if c.kind == "invariant":
            return {"type": "invariant"}
        return {
            "type": "torus_fourier",
            "rank": c.rank,
            "actions": [[format_scalar(x) for x in row] for row in c.actions],
            "truncation": c.truncation,
        }


def parse_manifest(path: str) -> ManifoldSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(path, "file not found") from None
    except OSError as exc:
        raise ParseError(path, f"cannot be read: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(path, f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:
        # malformed JSON, or an integer literal longer than Python converts from text
        raise ParseError(path, f"invalid JSON: {exc}") from None
    except RecursionError:
        raise ParseError(path, "invalid JSON: nested too deeply") from None
    return manifest_from_dict(raw)


def _exact(field: str, x) -> str:
    """The text of a manifest number: a string or a JSON integer.

    A JSON number with a fraction part or exponent has already been rounded
    to a double by the JSON parser, so it is refused rather than read.
    """
    if isinstance(x, float):
        raise ParseError(field, f"{x!r} is a JSON float; write exact values as strings, e.g. \"1/3\"")
    return str(x)


def _exact_matrix(field: str, raw, rows: int, cols: int, parse, shape: str | None = None, real: bool = False) -> tuple:
    """A rows x cols manifest matrix, each entry read by parse from its exact text.

    A wrong number of rows is a ParseError naming field, with the message
    shape; anything wrong in row r names field[r].  real refuses a row with a
    non-real entry once the whole row has been read.
    """
    if not (isinstance(raw, list) and len(raw) == rows):
        raise ParseError(field, shape or f"a {rows}x{cols} matrix is required")
    out = []
    for r, row in enumerate(raw):
        name = f"{field}[{r}]"
        if not (isinstance(row, list) and len(row) == cols):
            raise ParseError(name, f"expected {cols} entries")
        try:
            parsed = tuple(parse(_exact(name, x)) for x in row)
        except ValueError as exc:
            raise ParseError(name, str(exc)) from None
        if real and not all(x.is_real() for x in parsed):
            raise ParseError(name, "entries must be rationals")
        out.append(parsed)
    return tuple(out)


def _is_int(x) -> bool:
    """A JSON integer; true and false are not integers here, though Python's bool is an int."""
    return isinstance(x, int) and not isinstance(x, bool)


def manifest_from_dict(raw: dict) -> ManifoldSpec:
    if not isinstance(raw, dict):
        raise ParseError("$", "manifest must be a JSON object")
    name = raw.get("name")
    if not isinstance(name, str) or not name:
        raise ParseError("name", "a nonempty string is required")
    real_dim = raw.get("real_dim")
    if not _is_int(real_dim) or real_dim <= 0:
        raise ParseError("real_dim", "a positive integer is required")
    if real_dim % 2 != 0:
        raise ValidationError("AlmostComplexStructure", "real_dim must be even over Q(i)")
    n = real_dim // 2
    check_basis_size(n, 0, 0)
    check_invariant_block(n)

    entries = []
    brackets = raw.get("brackets", [])
    if not isinstance(brackets, list):
        raise ParseError("brackets", "a list of [i, j, k, value] rows is required")
    for idx, row in enumerate(brackets):
        if not (isinstance(row, list) and len(row) == 4):
            raise ParseError(f"brackets[{idx}]", "expected [i, j, k, value]")
        i, j, k, value = row
        if not all(_is_int(x) for x in (i, j, k)):
            raise ParseError(f"brackets[{idx}]", "indices must be integers")
        try:
            v = parse_rational(_exact(f"brackets[{idx}]", value))
        except ValueError as exc:
            raise ParseError(f"brackets[{idx}]", str(exc)) from None
        entries.append((i, j, k, v))
    try:
        algebra = LieAlgebraSpec.from_entries(real_dim, entries)
    except ValueError as exc:
        raise ValidationError("LieAlgebraSpec", str(exc)) from None

    structure = AlmostComplexStructure(_exact_matrix("J", raw.get("J"), real_dim, real_dim, parse_rational))
    if not structure.squares_to_minus_one:
        raise ValidationError("AlmostComplexStructure", "J^2 != -1")

    metric_rows = raw.get("metric")
    if metric_rows is None:
        metric = HermitianMetric.identity(n)
    else:
        metric = HermitianMetric(_exact_matrix("metric", metric_rows, n, n, parse_scalar))
        try:
            metric.validate()
        except NotPositive as exc:
            raise ValidationError("HermitianMetric", str(exc)) from None

    coeff_raw = raw.get("coefficients", {"type": "invariant"})
    if not isinstance(coeff_raw, dict) or "type" not in coeff_raw:
        raise ParseError("coefficients", "an object with a 'type' field is required")
    kind = coeff_raw["type"]
    if kind == "invariant":
        coefficients = CoefficientModel.invariant()
    elif kind == "torus_fourier":
        rank = coeff_raw.get("rank")
        if not _is_int(rank) or rank <= 0:
            raise ParseError("coefficients.rank", "a positive integer is required")
        # a frame vector acts on e^{2 pi i w.t} by 2 pi i (row . w): the row must be real
        actions = _exact_matrix(
            "coefficients.actions", coeff_raw.get("actions"), real_dim, rank, parse_scalar,
            shape=f"one length-{rank} row per frame vector is required", real=True,
        )
        truncation = coeff_raw.get("truncation", 0)
        if not _is_int(truncation) or truncation < 0:
            raise ParseError("coefficients.truncation", "a nonnegative integer is required")
        check_basis_size(n, rank, truncation)
        coefficients = CoefficientModel("torus_fourier", rank, actions, truncation)
    else:
        raise ParseError("coefficients.type", f"unknown coefficient model {kind!r}")

    tasks_raw = raw.get("tasks", [])
    if not isinstance(tasks_raw, list) or not all(isinstance(t, str) for t in tasks_raw):
        raise ParseError("tasks", "a list of command names is required")
    for t in tasks_raw:
        if t not in KNOWN_TASKS:
            raise ParseError("tasks", f"unknown task {t!r}")

    spec = ManifoldSpec(
        name=name,
        real_dim=real_dim,
        algebra=algebra,
        structure=structure,
        metric=metric,
        coefficients=coefficients,
        tasks=tuple(tasks_raw),
    )
    # surface the remaining structural invariants now, not at computation time
    report = validate_model(algebra, structure)
    if not report.passed:
        failing = [c.name for c in report.checks if not c.passed]
        raise ValidationError("LieAlgebraSpec", f"failing invariants: {', '.join(failing)}")
    return spec


class Session:
    """One parsed manifest plus its engines, one per coefficient model."""

    def __init__(self, spec: ManifoldSpec):
        self.spec = spec
        self.frame = build_frame(spec.algebra, spec.structure)

    def truncation_label(self, truncation: int) -> str:
        return "invariant" if self.spec.coefficients.kind == "invariant" else f"N={truncation}"

    def complex(self, truncation: int | None = None) -> FormComplex:
        return self.engine(truncation).complex

    def engine(self, truncation: int | None = None) -> CohomologyEngine:
        """The engine at a truncation, None for the manifest's; equal models share one engine."""
        model = self.spec.coefficients
        return self._engine(model if truncation is None else model.with_truncation(truncation))

    def identity_engine(self, truncation: int | None = None) -> CohomologyEngine:
        """The engine whose operator identities decide those at a truncation: engine(min(N, 1)).

        Every block at weight w is A + sum_r lambda_r(w) E_r on invariant
        monomials, with lambda_r(w) = i (M w)_r linear in w; an adjoint brings
        in conj(lambda), still linear in the real w, and star, L, Lambda and
        the Gram pairing are weight-free lifts.  So, block by block, each side
        of an identity is a matrix polynomial in w of degree at most 2 in each
        coordinate: 2 for d.d, 1 for the [L, d*] and [Lambda, d] families, 0
        for [L, Lambda] = H.  A polynomial of degree at most 2 in each variable
        that vanishes on {-1, 0, 1}^rank is zero (tensor Lagrange
        interpolation), so at any N >= 1 the (shift, source block) pairs where
        the two sides differ somewhere in the box are those of the N = 1 box,
        which is what read_off reports.  The gate d(omega) = 0 of the metric
        identities reads omega, of weight zero, the same on every box.  At
        N = 0 only the constant term counts, and an invariant model has one
        engine at every truncation.
        """
        if truncation is None:
            truncation = self.spec.coefficients.truncation
        return self.engine(min(truncation, 1))

    @memoized
    def _engine(self, model: CoefficientModel) -> CohomologyEngine:
        return CohomologyEngine.of(self.frame, model, self.spec.metric)

    def shell_runs(self, last: int) -> list[tuple[int, int]]:
        """Shells 0..last as runs (first, last) of at most RUN_WEIGHTS weights, or one wider shell.

        Shell s > 0 of a rank-k model holds (2s+1)^k - (2s-1)^k weights, shell 0 one.
        """
        k = self.spec.coefficients.rank
        runs: list[tuple[int, int]] = []
        size = 0
        for s in range(last + 1):
            width = (2 * s + 1) ** k - max(2 * s - 1, 0) ** k
            if runs and size + width <= RUN_WEIGHTS:
                runs[-1] = (runs[-1][0], s)
                size += width
            else:
                runs.append((s, s))
                size = width
        return runs

    def shell_numbers(self, last: int) -> dict[int, dict]:
        """diamond_numbers of shells 0..last by shell, one engine per run of shells."""
        out: dict[int, dict] = {}
        for first, end in self.shell_runs(last):
            out.update(self.run_numbers(first, end))
        return out

    @memoized
    def run_numbers(self, first: int, last: int) -> dict[int, dict]:
        """diamond_numbers of one engine over shells first..last, computed once; the engine is dropped,
        unless shells 0..last are the box of truncation last (always, for an invariant model): that is
        the session engine of the truncation, whose blocks later stages reuse.
        """
        model = self.spec.coefficients.shell(first, last)
        if model.kept is None:
            return diamond_numbers(self._engine(model))
        return diamond_numbers(CohomologyEngine.of(self.frame, model, self.spec.metric))


# ---------------------------------------------------------------------------
# form rendering


def render_form(cx: FormComplex, form: Form) -> dict:
    out = {}
    for e, c in form.items():
        holo = "".join(str(i) for i in e.holo)
        anti = "".join(str(j) for j in e.anti)
        label = f"w{list(e.weight)}|t{holo}|tb{anti}"
        out[label] = format_scalar(c)
    return out


def _natural(text: str) -> int | None:
    """The value of a run of ASCII digits; None for anything else, or past Python's int-from-text digit limit."""
    text = text.strip()
    if not re.fullmatch("[0-9]+", text):
        return None
    try:
        return int(text)
    except ValueError:
        return None


def _basis_index(selector: str) -> int | None:
    """K of a basis:K taming selector, None for a named one; raises on anything else."""
    if selector in ("fundamental", "perturbed"):
        return None
    kind, _, k = selector.partition(":")
    idx = _natural(k) if kind == "basis" else None
    if idx is None:
        raise ValidationError("TamingSelector", f"unknown selector {selector!r}")
    return idx


def _sector_batches(engine: CohomologyEngine):
    """Restricted engines on runs of 1, 2, 4, ... weight sectors {w, -w}, in real (1,1) basis order.

    real_subspace(1, 1) lists its rows by the first basis index of each
    conjugation orbit, so sector by sector: representatives w < -w ascending,
    then w = 0.  Each engine is made when reached, so none passed is kept.
    """
    weights = engine.complex.coefficients.weights()
    negated = {w: tuple(-x for x in w) for w in weights}
    order = [w for w in weights if w < negated[w]] + [w for w in weights if w == negated[w]]
    start, size = 0, 1
    while start < len(order):
        batch = order[start : start + size]
        yield engine.restricted(batch + [negated[w] for w in batch])
        start, size = start + size, 2 * size


def psi_from_selector(session: Session, truncation, selector: str) -> Form:
    """The real (1,1)-form a taming selector names.

    fundamental is omega.  basis:K is the K-th ddc-closed row of the real
    (1,1) basis, perturbed omega plus 1/10 of the first ddc-closed row that
    is not d-closed (omega when there is none).  Blocks preserve the weight,
    so each row is classified in its batch of sectors, and the walk stops at
    the selected row.
    """
    engine = session.engine(truncation)
    omega = engine.hermitian.omega
    if selector == "fundamental":
        return omega
    idx = None if selector == "perturbed" else _basis_index(selector)
    seen = 0  # ddc-closed rows of the batches passed
    for part in _sector_batches(engine):
        cx = part.complex
        # the real (1,1) basis in its rows, classified by complex block products on its columns:
        # column r of block @ complexify(basis^T) is zero iff the realified block kills row r
        basis = part.real_subspace(1, 1).rows
        columns = linalg.complexify(basis.transpose())
        not_ddc_closed = {r for _, r in (compose(part.block, ["partial", "dbar"], 1, 1) @ columns).triples}
        # the ddc-closed basis rows, in basis order
        pure = [r for r in range(basis.rows) if r not in not_ddc_closed]

        def form(r: int) -> Form:
            return cx.from_realified([basis.entry(r, c) for c in range(basis.cols)], 1, 1)

        if idx is None:
            # the first one that is not d-closed
            d = ExactMatrix.vstack([cx.block(name, 1, 1) for name in DIFFERENTIALS])
            not_closed = {r for _, r in (d @ columns).triples}
            candidate = next((r for r in pure if r in not_closed), None)
            if candidate is not None:
                return omega + form(candidate).scale(rational(1, 10))
        elif idx < seen + len(pure):
            return form(pure[idx - seen])
        seen += len(pure)
    if idx is None:
        return omega
    raise ValidationError("TamingSelector", f"basis index {idx} out of range ({seen} available)")


# ---------------------------------------------------------------------------
# commands


def run(command: str, session: Session, flags: dict) -> tuple[dict, int]:
    """Execute one command; returns (report payload, exit code)."""
    t0 = time.monotonic()
    payload: dict = {
        "version": __version__,
        "command": command,
        "manifest": session.spec.as_dict(),
        "scope": "model-level (finite subcomplex of invariant forms"
        " optionally tensored with truncated Fourier modes)",
    }
    exit_code = 0
    try:
        flags = check_flags(session, flags)
        if command == "validate":
            payload["validation"] = _run_validate(session)
        elif command == "diamond":
            payload["diamonds"] = _run_diamond(session, flags)
        elif command == "verify":
            payload["validation"] = _run_validate(session)
            payload["audits"] = _run_verify(session, flags)
        elif command == "taming":
            if len(flags["truncations"]) > 1:
                # a certificate is for one complex; report's taming stage reads the first column
                raise ValidationError("Truncations", f"taming certifies one truncation, not {flags['truncations']!r}")
            payload["certificates"] = _run_taming(session, flags)
        elif command == "report":
            payload["validation"] = _run_validate(session)
            payload["diamonds"] = _run_diamond(session, flags)
            payload["audits"] = _run_verify(session, flags)
            payload["certificates"] = _run_taming(session, flags) if session.spec.real_dim == 4 else []
        else:
            raise ValidationError("Command", f"unknown command {command!r}")
    except (NotContained, InconsistentModel, DegenerateJ, NotPositive, Not4Manifold, NotDdcClosed, ValidationError) as exc:
        payload["fatal"] = {"type": type(exc).__name__, "detail": str(exc)}
        exit_code = 2
    payload["timing"] = {"seconds": round(time.monotonic() - t0, 6)}
    return payload, exit_code


def _run_validate(session: Session) -> dict:
    report = validate_model(session.spec.algebra, session.spec.structure).as_dict()
    suite = session.identity_engine().complex.identity_suite()
    report["identity_suite"] = [
        {"identity": e["identity"], "passed": e["passed"], "failures": failure_list(e["failures"])}
        for e in suite
    ]
    report["nijenhuis_rank"] = nijenhuis_rank(session.frame)
    report["passed"] = report["passed"] and all(e["passed"] for e in suite)
    return report


def check_flags(session: Session, flags: dict) -> dict:
    """The flags with every default set; raises ValidationError on bad input.

    truncations is a list of ints, the manifest's truncation when none is
    given (0 for an invariant model, whose every truncation is its one
    complex), bidegree a (p, q) pair or absent, and psi a taming selector,
    fundamental when none is given.
    """
    out = {**flags, "truncations": [session.spec.coefficients.truncation], "psi": flags.get("psi") or "fundamental"}
    if flags.get("truncations") is not None:
        if session.spec.coefficients.kind == "invariant":
            raise ValidationError("CoefficientModel", "truncations require a torus_fourier manifest")
        out["truncations"] = [_natural(x) for x in str(flags["truncations"]).split(",")]
        if None in out["truncations"]:
            raise ValidationError("Truncations", f"{flags['truncations']!r} is not a list of nonnegative integers")
        # witness detection reads the columns as a growing sequence of truncations
        if any(a >= b for a, b in zip(out["truncations"], out["truncations"][1:])):
            raise ValidationError("Truncations", f"{flags['truncations']!r} is not strictly increasing")
        for t in out["truncations"]:
            check_basis_size(session.frame.n, session.spec.coefficients.rank, t)
    if flags.get("bidegree") is not None:
        cell = [_natural(x) for x in str(flags["bidegree"]).split(",")]
        n = session.frame.n
        if len(cell) != 2 or not all(x is not None and x <= n for x in cell):
            raise ValidationError("Bidegree", f"{flags['bidegree']!r} is not p,q with 0 <= p, q <= {n}")
        out["bidegree"] = tuple(cell)
    _basis_index(out["psi"])
    return out


def _run_diamond(session: Session, flags: dict) -> dict:
    # column N sums shells 0..N; an invariant model's one truncation, 0, is shell 0
    shells = session.shell_numbers(max(flags["truncations"]))
    columns = [(session.truncation_label(t), [shells[s] for s in range(t + 1)]) for t in flags["truncations"]]
    out = compute_diamond(columns).as_dict()
    if flags.get("bidegree"):
        p, q = flags["bidegree"]
        out["tables"] = {
            theory: {cell: vals for cell, vals in table.items() if cell == f"{p},{q}"}
            for theory, table in out["tables"].items()
        }
    return out


def _run_verify(session: Session, flags: dict) -> list[dict]:
    items: list[AuditItem] = []
    # the identity audits of each deciding engine, computed once and shared by its truncations
    identities: dict[CohomologyEngine, list[AuditItem]] = {}
    for t in flags["truncations"]:
        engine = session.engine(t)
        deciding = session.identity_engine(t)
        if deciding not in identities:
            identities[deciding] = audit_identities(deciding)
        scoped = list(identities[deciding])
        scoped.extend(audit_dualities(engine))
        scoped.extend(audit_maximal_nijenhuis(engine))
        if engine.n == 2:
            scoped.extend(audit_4mfld_lemmas(engine))
            scoped.extend(audit_ddbar_images(engine))
            scoped.extend(audit_generalized_ddbar(engine))
            scoped.extend(audit_ddc_descent(engine))
            scoped.append(audit_taming(engine, engine.hermitian.omega, "fundamental"))
        # each truncation's items get new witness dicts carrying its label
        label = session.truncation_label(t)
        items.extend(AuditItem(item.claim, item.status, {**item.witness, "truncation": label}) for item in scoped)
    return [item.as_dict() for item in items]


def _run_taming(session: Session, flags: dict) -> list[dict]:
    selector = flags["psi"]
    truncation = flags["truncations"][0]
    engine = session.engine(truncation)
    cx = engine.complex
    psi = psi_from_selector(session, truncation, selector)
    base = {"selector": selector, "truncation": session.truncation_label(truncation)}
    try:
        cert = solve_taming(engine, psi)
    except NoSolution as exc:
        # a legitimate model-level outcome: report the obstruction functional
        return [{**base, "status": "no-solution", "obstruction": exc.obstruction}]
    rendered = cert.as_dict(lambda f: render_form(cx, f))
    rendered.update(base)
    rendered["status"] = "certified"
    return [rendered]


# ---------------------------------------------------------------------------
# output


def render_table(payload: dict) -> str:
    lines = [f"acx {payload['version']} :: {payload['command']} :: {payload['manifest']['name']}"]
    lines.append(f"scope: {payload['scope']}")
    if "fatal" in payload:
        lines.append(f"FATAL {payload['fatal']['type']}: {payload['fatal']['detail']}")
    if "validation" in payload:
        v = payload["validation"]
        lines.append(f"validation: {'PASS' if v['passed'] else 'FAIL'}")
        for c in v["checks"]:
            lines.append(f"  [{'ok' if c['passed'] else 'XX'}] {c['name']}")
        for e in v.get("identity_suite", []):
            lines.append(f"  [{'ok' if e['passed'] else 'XX'}] identity {e['identity']}")
        lines.append(f"  nijenhuis rank: {v.get('nijenhuis_rank')}")
    if "diamonds" in payload:
        d = payload["diamonds"]
        lines.append("truncations: " + ", ".join(d["labels"]))
        lines.append("betti: " + "; ".join(f"b{r}={v}" for r, v in d["betti"].items()))
        for theory, table in d["tables"].items():
            lines.append(f"{theory} dimensions (p,q: per truncation):")
            for cell, vals in table.items():
                mark = ""
                if any(w["theory"] == theory and w["cell"] == cell for w in d["unbounded_witnesses"]):
                    mark = "  [growing: unbounded-witness]"
                lines.append(f"  ({cell}): " + ", ".join(str(v) for v in vals) + mark)
        for name, vals in d["scalars"].items():
            lines.append(f"{name}: " + ", ".join(str(v) for v in vals))
    if "audits" in payload:
        lines.append("audits:")
        for a in payload["audits"]:
            lines.append(f"  [{a['status']:>14}] {a['claim']} ({a['witness'].get('truncation', '')})")
    if "certificates" in payload:
        for c in payload["certificates"]:
            if c.get("status") == "certified":
                lines.append(
                    f"taming[{c['selector']}]: closed={c['closed']} well_defined={c['well_defined']}"
                    f" nondegeneracy={c['nondegeneracy'].get('kind')}"
                )
            else:
                lines.append(f"taming[{c['selector']}]: {c.get('status')}")
    return "\n".join(lines) + "\n"


def render_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """main's argument parser, built once per process: parse_args leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="acx",
        description="exact Dolbeault-type cohomology engine for invariant almost complex models",
    )
    parser.add_argument("command", choices=list(KNOWN_TASKS))
    parser.add_argument("manifest", help="path to a manifest JSON file")
    parser.add_argument("--truncations", help="comma-separated Fourier truncations, e.g. 0,1,2,3")
    parser.add_argument("--bidegree", help="restrict diamond output to one cell, e.g. 1,1")
    parser.add_argument("--format", choices=["json", "table"], default="table")
    parser.add_argument("--psi", default="fundamental", help="taming input: fundamental | perturbed | basis:K")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)

    try:
        spec = parse_manifest(args.manifest)
        session = Session(spec)
    except (ParseError, ValidationError, DegenerateJ, NotPositive, InconsistentModel) as exc:
        diagnostic = {"fatal": {"type": type(exc).__name__, "detail": str(exc)}}
        if args.format == "json":
            sys.stdout.write(render_json(diagnostic))
        else:
            sys.stdout.write(f"FATAL {type(exc).__name__}: {exc}\n")
        return 2

    flags = {"truncations": args.truncations, "bidegree": args.bidegree, "psi": args.psi}
    payload, code = run(args.command, session, flags)
    if args.format == "json":
        sys.stdout.write(render_json(payload))
    else:
        sys.stdout.write(render_table(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
