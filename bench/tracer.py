"""Layer spans for the traced run, installed around acx from the outside.

Each public function of interest is replaced, where its callers look it up,
by a wrapper that records a span: parent span id, group name, duration and a
few exact counters.  Spans stay in memory and are written out once, after
the pass.  Time the wrappers spend on their own bookkeeping (including the
counters) is subtracted from every enclosing span, so self times measure the
program and not the tracer.  Nothing in the package under test is edited.
"""

from __future__ import annotations

import functools
import json
import math
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        # one row per span, in entry order: [parent id, group, seconds, attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._overhead = 0.0
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, group: str, fn, before=None, after=None):
        """fn wrapped in a span; before(*args) gives the span's attrs, after(attrs, result) updates them."""
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            attrs = before(*args, **kwargs) if before is not None else None
            rec = [stack[-1] if stack else -1, group, 0.0, attrs]
            stack.append(len(spans))
            spans.append(rec)
            start = perf_counter()
            self._overhead += start - t_in
            overhead_at_start = self._overhead
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[2] = (end - start) - (self._overhead - overhead_at_start)
            if after is not None:
                rec[3] = after(rec[3], result)
            self._overhead += perf_counter() - end
            return result

        return wrapper

    def patch(self, owner, attr: str, group: str, before=None, after=None) -> None:
        """Replace owner.attr (a module global or a class attribute) by its traced wrapper."""
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(group, original, before, after))

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["parent", "group", "seconds", "attrs"], "spans": self.spans}, fh)


# ---------------------------------------------------------------------------
# what is traced


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length()) if x else 0


def _rref_after(attrs, result):
    _, reduced = result
    bits = 0
    for row in reduced:
        for v in row.values():
            bits = max(bits, _bits(v.re), _bits(v.im))
    attrs["bits"] = bits
    return attrs


def _render_before(payload):
    # the `timing` value is the one part of a report that changes between runs
    seconds = payload.get("timing", {}).get("seconds")
    return {"timing_chars": 0 if seconds is None else len(json.dumps(seconds))}


def _render_after(attrs, text):
    return {"bytes": len(text.encode("utf-8")) - attrs["timing_chars"]}


def _truncation(engine, *args, **kwargs):
    model = engine.complex.coefficients
    return {"N": None if model.kind == "invariant" else model.truncation}


def install(tracer: Tracer) -> None:
    """Wrap every traced name of the acx package at the place its callers read it."""
    from acx import audits, cli, cohomology, forms, linalg, metric, operators

    dense_limit = linalg.DENSE_COLUMN_LIMIT

    def rref_before(m):
        return {"cells": m.rows * m.cols, "nnz": len(m.entries), "dense": m.cols < dense_limit}

    tracer.patch(linalg, "rref", "linalg.rref", rref_before, _rref_after)
    tracer.patch(linalg, "quotient_dim", "linalg.quotient_dim", lambda num, den: {"guard": den.dim})
    for fn in (
        "rank", "kernel", "image", "map_subspace", "intersect", "sum_spaces",
        "preimage", "solve", "solve_many", "subspace_from_vectors", "realify",
    ):
        tracer.patch(linalg, fn, f"linalg.{fn}")
    tracer.patch(linalg.ExactMatrix, "__matmul__", "linalg.matmul")

    fc = operators.FormComplex
    tracer.patch(fc, "__init__", "operators.init")
    tracer.patch(fc, "block", "operators.block", lambda cx, name, p, q: {"hit": (name, p, q) in cx._block_cache})
    tracer.patch(fc, "d_total", "operators.d_total")
    tracer.patch(fc, "conj_struct", "operators.conj")
    tracer.patch(fc, "conj_twisted_block", "operators.conj")
    tracer.patch(fc, "identity_suite", "operators.identity_suite")
    tracer.patch(operators, "extend_derivation", "forms.extend_derivation")
    tracer.patch(forms, "extend_derivation", "forms.extend_derivation")

    hs = metric.HermitianStructure
    tracer.patch(hs, "__init__", "metric.init")
    for fn in ("star", "star_invariant", "apply_star"):
        tracer.patch(hs, fn, "metric.star")
    tracer.patch(hs, "adjoint_block", "metric.adjoint_block")
    tracer.patch(hs, "laplacian_block", "metric.laplacian_block")
    tracer.patch(hs, "lefschetz_block", "metric.lefschetz")
    tracer.patch(hs, "lambda_block", "metric.lefschetz")
    tracer.patch(hs, "gram_invariant", "metric.gram")

    engine_groups = {
        "refined": ("refined_dolbeault", "refined_parts", "a_dol"),
        "spectral": ("dolbeault_cw", "dolbeault_cw_parts"),
        "harmonic": ("ell", "harmonic_dim", "harmonic_space"),
        "de_rham": ("de_rham",),
        "hat": ("hat_h01", "hat_h1", "hat_h01_parts"),
        "special_11": ("special_11_quotients",),
        "subspaces": ("op_kernel", "op_image_into", "real_subspace", "real_one_forms"),
    }
    for group, names in engine_groups.items():
        for fn in names:
            tracer.patch(cohomology.CohomologyEngine, fn, f"cohomology.{group}", _truncation)
    tracer.patch(cli, "compute_diamond", "cohomology.diamond")

    for fn, group in (
        ("audit_identities", "identities"),
        ("audit_dualities", "dualities"),
        ("audit_maximal_nijenhuis", "maximal_nijenhuis"),
        ("audit_4mfld_lemmas", "4mfld_lemmas"),
        ("audit_ddbar_images", "ddbar"),
        ("audit_generalized_ddbar", "ddbar"),
        ("audit_ddc_descent", "ddc_descent"),
        ("audit_taming", "taming"),
    ):
        tracer.patch(cli, fn, f"audits.{group}")
    tracer.patch(audits, "solve_taming", "audits.taming")

    tracer.patch(cli, "build_frame", "lie.build_frame")
    tracer.patch(cli, "validate_model", "lie.validate_model")
    tracer.patch(cli, "nijenhuis_rank", "lie.nijenhuis_rank")
    tracer.patch(cli, "parse_manifest", "cli.parse_manifest")
    tracer.patch(cli, "run", "cli.run")
    tracer.patch(cli, "psi_from_selector", "cli.psi_from_selector")
    tracer.patch(cli, "render_json", "cli.render_json", _render_before, _render_after)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans


# marks a chain that already passed through a CohomologyEngine method
ENGINE = "@engine"


def _slope(points: list[tuple[float, float]]) -> float:
    n = len(points)
    mx = sum(x for x, _ in points) / n
    my = sum(y for _, y in points) / n
    sxx = sum((x - mx) ** 2 for x, _ in points)
    return sum((x - mx) * (y - my) for x, y in points) / sxx


def summarize(spans: list[list]) -> dict:
    """Inclusive time, self time and calls per group and per layer, plus the named counters.

    Inclusive time counts a span only when no enclosing span belongs to the
    same group (or, for a layer, to the same layer), so recursion and helper
    chains inside one group are not counted twice.
    """
    n = len(spans)
    child = [0.0] * n
    for parent, _, seconds, _ in spans:
        if parent >= 0:
            child[parent] += seconds
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    calls = defaultdict(int)
    cohomology_by_n = defaultdict(float)
    chains: list[frozenset] = [frozenset()] * n
    extend = {}
    rref = {"cells": 0, "nnz": 0, "dense": 0, "bits": 0}
    guard = block_hits = render_bytes = 0
    for i, (parent, group, seconds, attrs) in enumerate(spans):
        layer = group.split(".", 1)[0]
        above = chains[parent] if parent >= 0 else frozenset()
        if group not in above:
            inclusive[group] += seconds
        if layer not in above:
            inclusive[layer] += seconds
        engine_n = attrs.get("N") if group.startswith("cohomology.") and attrs else None
        if engine_n is not None and ENGINE not in above:
            cohomology_by_n[engine_n] += seconds
        key = (above, group, engine_n is not None)
        if key not in extend:
            extend[key] = above | {group, layer} | ({ENGINE} if engine_n is not None else set())
        chains[i] = extend[key]
        self_s[group] += seconds - child[i]
        calls[group] += 1
        if attrs:
            if group == "linalg.rref":
                rref["cells"] += attrs["cells"]
                rref["nnz"] += attrs["nnz"]
                rref["dense"] += attrs["dense"]
                rref["bits"] = max(rref["bits"], attrs["bits"])
            elif group == "linalg.quotient_dim":
                guard += attrs["guard"]
            elif group == "operators.block":
                block_hits += attrs["hit"]
            elif group == "cli.render_json":
                render_bytes += attrs["bytes"]
    points = [
        (math.log((2 * N + 1) ** 2), math.log(t))
        for N, t in sorted(cohomology_by_n.items())
        if N >= 1 and t > 0
    ]
    return {
        "inclusive": dict(inclusive),
        "self": dict(self_s),
        "calls": dict(calls),
        "rref": rref,
        "guard_vectors": guard,
        "block_hits": block_hits,
        "render_bytes": render_bytes,
        "cohomology_by_N": {str(k): v for k, v in sorted(cohomology_by_n.items())},
        "scaling_exp": _slope(points) if len(points) >= 2 else None,
    }
