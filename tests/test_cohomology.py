import json
import random

import pytest

from acx import linalg
from acx.audits import audit_identities
from acx.cli import Session, manifest_from_dict, run
from acx.cohomology import compute_diamond, diamond_numbers
from acx.forms import BasisElement, Form
from acx.lie import SHIFTS
from acx.metric import Not4Manifold
from acx.scalars import ONE, ZERO

from conftest import (
    assert_sectors_decompose,
    bundled_manifest_path,
    contains,
    engine_on,
    random_4d_session,
    realified_real_subspace,
    sector_model,
    sectors,
    sweep_sessions,
)

# frozen regression baselines for the growing cells (derived by a per-weight
# block analysis at N = 0 and locked to engine output afterwards)
KT4_REFINED_11 = {0: 3, 1: 11, 2: 27, 3: 51}
KT4_REFINED_21 = {0: 2, 1: 10, 2: 26, 3: 50}

KT4_REFINED_FIXED = {
    (0, 0): 1,
    (1, 0): 1,
    (0, 1): 1,
    (2, 0): 0,
    (0, 2): 0,
    (1, 2): 1,
    (2, 2): 1,
}


def test_de_rham_betti(kt4_session, torus_session):
    for n in (0, 1):
        eng = kt4_session.engine(n)
        assert [eng.de_rham(r) for r in range(5)] == [1, 3, 4, 3, 1]
    te = torus_session.engine()
    assert [te.de_rham(r) for r in range(5)] == [1, 4, 6, 4, 1]


def test_dolbeault_cw_torus(torus_session):
    from math import comb

    eng = torus_session.engine()
    for p in range(3):
        for q in range(3):
            assert eng.dolbeault_cw(p, q) == comb(2, p) * comb(2, q)


def test_dolbeault_cw_kt4(kt4_session):
    eng = kt4_session.engine(0)
    assert eng.dolbeault_cw(1, 0) == 1
    assert eng.dolbeault_cw(2, 0) == 0
    assert eng.dolbeault_cw(0, 2) == 0
    assert eng.dolbeault_cw(0, 1) == 2


def test_a_dol_examples(kt4_session):
    eng = kt4_session.engine(0)
    cx = eng.complex
    # (0,1): only the closed direction tbar^1 survives
    space = eng.a_dol(0, 1)
    assert space.dim == 1
    tbar1 = cx.to_vector(Form.monomial(BasisElement((0, 0), (), (1,))), 0, 1)
    assert contains(space, tbar1)
    # top bidegree: everything
    assert eng.a_dol(2, 2).dim == cx.dim(2, 2)
    # functions: both composite conditions vanish identically on the base torus
    eng1 = kt4_session.engine(1)
    assert eng1.a_dol(0, 0).dim == eng1.complex.dim(0, 0)


def test_refined_dolbeault_kt4_fixed_entries(kt4_session):
    for n in (0, 1, 2, 3):
        eng = kt4_session.engine(n)
        for (p, q), expected in KT4_REFINED_FIXED.items():
            assert eng.refined_dolbeault(p, q) == expected, (n, p, q)


def test_refined_dolbeault_kt4_growth(kt4_session):
    got11 = {n: kt4_session.engine(n).refined_dolbeault(1, 1) for n in range(4)}
    got21 = {n: kt4_session.engine(n).refined_dolbeault(2, 1) for n in range(4)}
    assert got11 == KT4_REFINED_11
    assert got21 == KT4_REFINED_21


def test_refined_quotient_containment(kt4_session):
    """The denominator sits inside the numerator on every block."""
    eng = kt4_session.engine(1)
    for p in range(3):
        for q in range(3):
            num, den = eng.refined_parts(p, q)
            assert not num.outside(den.rows)


def test_function_block_quotient_example(kt4_session):
    """(ker dbar ^ A^0_Dol) / dbar-image is one-dimensional: the constants."""
    eng = kt4_session.engine(0)
    num, den = eng.refined_parts(0, 0)
    assert linalg.quotient_dim(num, den) == 1


def test_refined_dolbeault_torus(torus_session):
    from math import comb

    eng = torus_session.engine()
    for p in range(3):
        for q in range(3):
            assert eng.refined_dolbeault(p, q) == comb(2, p) * comb(2, q)


def test_hat_spaces(kt4_session, torus_session, kodaira_session):
    te = torus_session.engine()
    assert te.hat_h01() == 2
    assert te.hat_h1() == 4
    for n in (0, 1, 2):
        eng = kt4_session.engine(n)
        assert eng.hat_h01() == 2
        assert eng.hat_h1() == 3
    ke = kodaira_session.engine()
    assert ke.hat_h01() == 2
    assert ke.hat_h1() == 4


def test_hat_splitting_independent_sides(kt4_session, torus_session, kodaira_session):
    for session, truncations in ((kt4_session, (0, 1, 2)), (torus_session, (None,)), (kodaira_session, (None,))):
        for t in truncations:
            eng = session.engine(t)
            assert eng.hat_h1() == eng.hat_h01() + eng.refined_dolbeault(0, 1)


def test_hat_h1_diagonal_variant(kt4_session):
    """The one-potential denominator is smaller, so its quotient can only
    grow; on this model it fails to stabilize while the two-potential
    definition stays constant."""
    diag = [kt4_session.engine(n).hat_h1(diagonal_potentials=True) for n in range(3)]
    canonical = [kt4_session.engine(n).hat_h1() for n in range(3)]
    assert canonical == [3, 3, 3]
    assert diag == [3, 11, 27]
    assert all(d >= c for d, c in zip(diag, canonical))


def test_harmonic_numbers(kt4_session, torus_session):
    from math import comb

    te = torus_session.engine()
    for p in range(3):
        for q in range(3):
            assert te.ell(p, q) == comb(2, p) * comb(2, q)
    eng = kt4_session.engine(0)
    assert eng.ell(1, 0) == 1
    assert eng.ell(0, 1) == 1
    assert eng.ell(2, 0) == 0
    assert eng.ell(0, 2) == 0
    assert eng.ell(0, 0) == 1
    assert eng.ell(2, 2) == 1


def test_refined_degree_one_of_integrable_structure(kodaira_session):
    """The integrable structure on the Heisenberg nilmanifold separates the
    two refined degree-one numbers."""
    eng = kodaira_session.engine()
    assert eng.refined_dolbeault(1, 0) == 1
    assert eng.refined_dolbeault(0, 1) == 2
    assert eng.dolbeault_cw(1, 0) == 1
    assert eng.dolbeault_cw(0, 1) == 2
    assert eng.de_rham(1) == 3


def test_special_11_quotients(kt4_session, torus_session, nil6_session):
    assert torus_session.engine().special_11_quotients() == {
        "h11_dR": 4,
        "h11_BC": 4,
        "h11_ddc_real": 4,
    }
    for n in (0, 1):
        got = kt4_session.engine(n).special_11_quotients()
        assert got["h11_dR"] == got["h11_BC"] == 3
        assert got["h11_ddc_real"] == 3
    with pytest.raises(Not4Manifold):
        nil6_session.engine().special_11_quotients()


def test_special_11_bc_vs_dr_on_integrable(kodaira_session):
    """With distinct refined degree-one numbers the two (1,1) quotients split."""
    got = kodaira_session.engine().special_11_quotients()
    assert got["h11_dR"] != got["h11_BC"]


def test_per_weight_refined_sums(kt4_session):
    """Weight-sector blocks decompose the full matrices: ranks and kernels add up."""
    assert_sectors_decompose(kt4_session, 1, ("dbar",), [(1, 1), (2, 1), (0, 1), (1, 0)])


def whole_complex_diamond(session, truncations):
    """The diamond of whole truncated complexes, one engine per column (its parts are its shells): the
    sector path's oracle."""
    return compute_diamond(
        [(session.truncation_label(t), diamond_numbers(session.engine(t)).values()) for t in truncations]
    )


def test_diamond_assembly_and_witnesses(kt4_session):
    diamond = whole_complex_diamond(kt4_session, range(4))
    cells = {(w["theory"], w["cell"]) for w in diamond.as_dict()["unbounded_witnesses"]}
    assert ("refined", "1,1") in cells
    assert ("refined", "2,1") in cells
    assert ("refined", "1,0") not in cells
    out = diamond.as_dict()
    assert out["tables"]["refined"]["1,1"] == [3, 11, 27, 51]
    assert out["betti"]["1"] == [3, 3, 3, 3]
    assert out["scalars"]["hat_h01"] == [2, 2, 2, 2]


def test_diamond_needs_three_points_for_witness(kt4_session):
    diamond = whole_complex_diamond(kt4_session, range(2))
    assert diamond.as_dict()["unbounded_witnesses"] == []


def test_sector_diamond_equals_whole_complex(kt4_session):
    """Summing the {w, -w} sectors (the reference) and the shells (`diamond`) reproduces every table,
    Betti number, scalar and witness of the whole complexes."""
    whole = whole_complex_diamond(kt4_session, range(3)).as_dict()
    payload, code = run("diamond", Session(kt4_session.spec), {"truncations": "0,1,2"})
    assert code == 0
    assert payload["diamonds"] == whole
    columns = []
    for t in range(3):
        model = kt4_session.spec.coefficients.with_truncation(t)
        parts = [diamond_numbers(engine_on(kt4_session, sector_model(model, w))) for w in sectors(model)]
        columns.append((kt4_session.truncation_label(t), [shell for part in parts for shell in part.values()]))
    assert compute_diamond(columns).as_dict() == whole


def test_shell_numbers_do_not_depend_on_truncation(kt4_session):
    """Shells 0 and 1 have the same numbers from the run over shells 0..1, 0..2 and 0..4, which the
    diamond splits in one engine, and from the runs over 0..3 and then 4 alone."""
    reached = {}
    for n in (1, 2, 4):
        session = Session(kt4_session.spec)
        run("diamond", session, {"truncations": str(n)})
        reached[n] = {s: session.shell_numbers(n)[s] for s in (0, 1)}
        assert list(session._run_numbers_cache) == ([(0, 3), (4, 4)] if n == 4 else [(0, n)])
    assert reached[1] == reached[2] == reached[4]


def test_sector_count(kt4_session):
    """The reference's sectors: one per conjugation pair of the box's weights."""
    model = kt4_session.spec.coefficients
    for n in range(4):
        assert len(sectors(model.with_truncation(n))) == ((2 * n + 1) ** 2 + 1) // 2
    assert sectors(model.with_truncation(0)) == [(0, 0)]


def test_shells_partition_the_box(kt4_session):
    """Shells 0..N split the box of truncation N into sets closed under negation, 8s weights in shell s > 0."""
    model = kt4_session.spec.coefficients
    for n in range(5):
        shells = [model.shell(s) for s in range(n + 1)]
        assert sorted(w for shell in shells for w in shell.weights()) == model.with_truncation(n).weights()
        for s, shell in enumerate(shells):
            assert shell.truncation == s and len(shell.weights()) == max(1, 8 * s)
            assert {tuple(-x for x in w) for w in shell.weights()} == set(shell.weights())


def test_invariant_diamond_is_one_shell(torus_session, nil6_session):
    for base in (torus_session, nil6_session):
        session = Session(base.spec)
        payload, code = run("diamond", session, {})
        assert code == 0
        assert payload["diamonds"] == whole_complex_diamond(base, [None]).as_dict()
        assert list(session._run_numbers_cache) == [(0, 0)] and sectors(base.spec.coefficients) == [()]
        # the diamond ran on the session's own engine, whose blocks later stages reuse
        assert session.engine().complex._block_cache


def test_betti_duality_on_random_sweep():
    """Unimodular models satisfy b_r = b_{4-r} and have zero Euler number."""
    import random

    from conftest import random_4d_session

    rng = random.Random(97)
    for _ in range(6):
        eng = random_4d_session(rng).engine()
        betti = [eng.de_rham(r) for r in range(5)]
        assert betti == betti[::-1]
        assert sum((-1) ** r * b for r, b in enumerate(betti)) == 0


def test_mu_dbar_intersection_example(kt4_session):
    """ker(mu) ^ ker(dbar) on invariant (0,1)-forms is the tbar^1 line."""
    eng = kt4_session.engine(0)
    cx = eng.complex
    space = linalg.intersect([eng.op_kernel("mu", 0, 1), eng.op_kernel("dbar", 0, 1)])
    assert space.dim == 1
    assert contains(space, cx.to_vector(Form.monomial(BasisElement((0, 0), (), (1,))), 0, 1))


# -- differential oracle: the per-operator kernel intersections and the
# unit-block extraction that the kernel-of-a-stack constructions replaced


def _ref_product(cx, outer, inner, p, q):
    """outer . inner on the (p,q) block, None when the chain leaves the diamond."""
    dp, dq = SHIFTS[inner]
    if not cx.valid_bidegree(p + dp, q + dq):
        return None
    second = cx.block(outer, p + dp, q + dq)
    return second @ cx.block(inner, p, q) if second.rows else None


def _ref_a_dol(eng, p, q):
    cx = eng.complex
    pieces = [linalg.kernel(cx.block("mu", p, q)), linalg.kernel(cx.block("mubar", p, q))]
    for outer in ("dbar", "mu"):
        m = _ref_product(cx, outer, "dbar", p, q)
        if m is not None:
            pieces.append(linalg.kernel(m))
    return linalg.intersect(pieces) if cx.dim(p, q) else linalg.zero_space(0)


def _ref_harmonic_space(eng, deltas, p, q):
    cx = eng.complex
    pieces = []
    for name in deltas:
        pieces.append(linalg.kernel(cx.block(name, p, q)))
        adj = eng.hermitian.adjoint_block(name, p, q)
        if adj.rows:
            pieces.append(linalg.kernel(adj))
    return linalg.intersect(pieces) if cx.dim(p, q) else linalg.zero_space(0)


def _ref_exact_11(eng):
    """image(d on 1-forms) ^ the unit vectors of the (1,1) block of 2-forms, in (1,1) coordinates."""
    cx = eng.complex
    lo, dim11, total = cx.total_offsets(2)[(1, 1)], cx.dim(1, 1), cx.total_dim(2)
    units = [tuple(ONE if c == lo + i else ZERO for c in range(total)) for i in range(dim11)]
    in_block = linalg.intersect([linalg.image(cx.d_total(1)), linalg.subspace_from_vectors(total, units)])
    return linalg.subspace_from_vectors(dim11, (v[lo : lo + dim11] for v in in_block.basis))


def _ref_real_ddc_numerator(eng):
    cx = eng.complex
    pdbar11 = _ref_product(cx, "partial", "dbar", 1, 1)
    real11 = realified_real_subspace(eng, 1)
    if pdbar11 is None:
        return real11
    return linalg.intersect([linalg.kernel(linalg.realify(pdbar11)), real11])


def test_stacked_kernels_equal_kernel_intersections(oracle_engines):
    """A_Dol, the refined numerator, harmonic spaces, the d-exact (1,1) forms and
    the real ddc source equal their old constructions as Subspaces; the ddc source in its
    canonical rows, which the descent audit reads."""
    for label, eng in oracle_engines:
        cx = eng.complex
        for p in range(eng.n + 1):
            for q in range(eng.n + 1):
                a_dol = _ref_a_dol(eng, p, q)
                assert eng.a_dol(p, q) == a_dol, (label, p, q)
                numerator = linalg.intersect([linalg.kernel(cx.block("dbar", p, q)), a_dol])
                assert eng.refined_parts(p, q)[0] == numerator, (label, p, q)
                for deltas in (("dbar", "mu"), ("partial",)):
                    want = _ref_harmonic_space(eng, deltas, p, q)
                    assert eng.harmonic_space(deltas, p, q) == want, (label, deltas, p, q)
        assert eng.exact_11() == _ref_exact_11(eng), label
        if eng.n == 2:
            want = _ref_real_ddc_numerator(eng)
            assert eng.real_ddc_kernel() == want and eng.real_ddc_kernel().rows == want.rows, label


def test_oracle_cases_are_not_vacuous(oracle_engines):
    """The oracle above compares proper, nonzero subspaces somewhere on every model kind."""
    engines = dict(oracle_engines)
    kt4 = engines["kt4 N=2"]
    assert 0 < kt4.exact_11().dim < kt4.complex.dim(1, 1)
    assert 0 < kt4.a_dol(0, 1).dim < kt4.complex.dim(0, 1)
    assert 0 < kt4.refined_parts(2, 1)[0].dim < kt4.a_dol(2, 1).dim
    assert 0 < kt4.harmonic_space(("dbar", "mu"), 1, 1).dim < kt4.complex.dim(1, 1)
    assert 0 < kt4.real_ddc_kernel().dim < kt4.real_subspace(1, 1).dim
    nil6 = engines["nil6"]
    assert 0 < nil6.a_dol(1, 1).dim < nil6.complex.dim(1, 1)
    assert 0 < nil6.refined_parts(2, 1)[0].dim < nil6.a_dol(2, 1).dim
    assert all(eng.exact_11().dim for label, eng in engines.items() if label.startswith("random"))


def test_real_subspace_reads_the_conjugation_permutation(oracle_engines, fourier_sessions, kt4_session):
    """real_subspace(p, p), read off the signed permutation C of conjugation, is the canonical
    reduced rows of the kernel of conj - id realified, on every diagonal block."""
    engines = list(oracle_engines)
    engines += [(f"{label} N={n}", session.engine(n)) for label, session in fourier_sessions for n in (1, 2)]
    engines += [(f"kt4 N={n}", kt4_session.engine(n)) for n in range(4)]
    kinds = set()
    for label, eng in engines:
        for p in range(eng.n + 1):
            want = realified_real_subspace(eng, p)
            assert eng.real_subspace(p, p).rows == want.rows, (label, p)
            for (r, c), s in eng.complex.conj_struct(p, p).entries.items():
                kinds.add(("fixed" if r == c else "orbit", s))
    # non-vacuity: fixed indices of both signs (theta^1 ^ thetabar^1 at weight 0 is sent to minus
    # itself) and orbits of both signs
    assert kinds == {("fixed", ONE), ("fixed", -ONE), ("orbit", ONE), ("orbit", -ONE)}, kinds
    cx = kt4_session.engine(0).complex
    j = next(j for j, e in enumerate(cx.basis(1, 1)) if e.holo == e.anti == (1,))
    assert cx.conj_struct(1, 1).entry(j, j) == -ONE


def test_real_subspace_refuses_a_conjugation_that_is_not_an_involution(kt4_session, monkeypatch):
    """A C that is not a signed permutation involution is an internal-consistency error: it raises."""
    model = kt4_session.spec.coefficients.with_truncation(0)
    dim = kt4_session.engine(0).complex.dim(1, 1)
    cycle = linalg.ExactMatrix(dim, dim, {((j + 1) % dim, j): ONE for j in range(dim)})
    doubled = linalg.ExactMatrix(dim, dim, {(j, j): ONE + ONE for j in range(dim)})
    swapped_sign = kt4_session.engine(0).complex.conj_struct(1, 1)
    r, c = next(rc for rc in swapped_sign.entries if rc[0] != rc[1])
    swapped_sign = linalg.ExactMatrix(dim, dim, {**swapped_sign.entries, (r, c): -swapped_sign.entry(r, c)})
    for bad in (cycle, doubled, swapped_sign):
        eng = engine_on(kt4_session, model)
        monkeypatch.setattr(eng.complex, "conj_struct", lambda p, q, bad=bad: bad)
        with pytest.raises(AssertionError):
            eng.real_subspace(1, 1)
    assert engine_on(kt4_session, model).real_subspace(1, 1).dim == dim


def test_a_restricted_engine_is_the_box_restricted_in_order(kt4_session, fourier_sessions, torus_session):
    """A restricted engine's bases are the box's bases with the other weights left out, in order, and
    its blocks are the box's blocks on those rows and columns; an invariant model, or every weight,
    gives the engine itself, and sector memoizes restricted."""
    cases = [(f"kt4 N={n}", kt4_session.engine(n)) for n in (1, 2)]
    cases += [(f"{label} N=2", session.engine(2)) for label, session in fourier_sessions]
    restricted = 0
    for label, eng in cases:
        weights = eng.complex.coefficients.weights()
        for w in sectors(eng.complex.coefficients)[::3]:
            kept = [v for v in weights if v in {w, tuple(-x for x in w)} or not any(v)]
            part = eng.restricted(reversed(kept))
            assert part is not eng and part.complex.coefficients.kept == tuple(kept), (label, w)
            for p in range(eng.n + 1):
                for q in range(eng.n + 1):
                    rows = [i for i, e in enumerate(eng.complex.basis(p, q)) if e.weight in kept]
                    assert part.complex.basis(p, q) == tuple(eng.complex.basis(p, q)[i] for i in rows), (label, p, q)
                    for name in SHIFTS:
                        dp, dq = SHIFTS[name]
                        if not part.complex.valid_bidegree(p + dp, q + dq):
                            continue
                        targets = [i for i, e in enumerate(eng.complex.basis(p + dp, q + dq)) if e.weight in kept]
                        whole = eng.complex.block(name, p, q)
                        want = {(r, c): whole.entry(tr, tc) for r, tr in enumerate(targets) for c, tc in enumerate(rows)}
                        assert part.complex.block(name, p, q).entries == {k: v for k, v in want.items() if v}, (label, name)
            restricted += 1
        assert eng.restricted(weights) is eng and eng.sector(tuple(weights)) is eng, label
    assert restricted > len(cases)
    invariant = torus_session.engine()
    assert invariant.restricted([()]) is invariant and invariant.sector(((),)) is invariant
    eng = kt4_session.engine(1)
    assert eng.sector(((0, 0),)) is eng.sector(((0, 0),)) is not eng.restricted([(0, 0)])


def test_rank_first_harmonic_dim_matches_harmonic_space(oracle_engines):
    """harmonic_dim is cols - rank of the stacked system; the kernel basis gives the same number."""
    for label, eng in oracle_engines:
        for p in range(eng.n + 1):
            for q in range(eng.n + 1):
                for deltas in (("dbar", "mu"), ("partial",)):
                    want = eng.harmonic_space(deltas, p, q).dim
                    assert eng.harmonic_dim(deltas, p, q) == want, (label, deltas, p, q)


# dolbeault_cw_parts divides by (im dbar ^ ker mubar) + im mubar; the first page
# H(H_mubar, dbar) of Cirici-Wilson divides by dbar(ker mubar) + im mubar, which
# lies in the numerator: mubar dbar x = -dbar mubar x = 0 and dbar dbar x = -mubar partial x
# for x in ker mubar.  Both reproducers pass once the denominator is the latter.
SPECTRAL_DENOMINATOR = "the spectral denominator is (im dbar ^ ker mubar) + im mubar, not dbar(ker mubar) + im mubar"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=SPECTRAL_DENOMINATOR)
def test_spectral_sums_bound_the_betti_numbers(kt4_session, nil6_session):
    """sum_{p+q=k} h^{p,q} >= b_k, the Frolicher-type bound of the first page."""
    engines = [("kt4 N=0", kt4_session.engine(0)), ("nil6", nil6_session.engine())]
    engines += [(f"sweep0 {k}", s.engine()) for k, s in enumerate(sweep_sessions(0)) if s.frame.n == 3]
    violations = []
    for label, engine in engines:
        n = engine.n
        for k in range(2 * n + 1):
            spectral = sum(engine.dolbeault_cw(p, k - p) for p in range(max(0, k - n), min(n, k) + 1))
            if spectral < engine.de_rham(k):
                violations.append((label, k, spectral, engine.de_rham(k)))
    assert not violations


@pytest.mark.xfail(strict=True, raises=linalg.NotContained, reason=SPECTRAL_DENOMINATOR)
def test_spectral_numbers_of_kt4_with_j_swapped():
    """kt4 with J e1 = e3, J e2 = e4 is a valid model: its identity audits pass, but its
    spectral denominator escapes the numerator at (1,1) and (2,1)."""
    with open(bundled_manifest_path("kt4"), "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    raw["J"] = [["0", "0", "-1", "0"], ["0", "0", "0", "-1"], ["1", "0", "0", "0"], ["0", "1", "0", "0"]]
    engine = Session(manifest_from_dict(raw)).engine()
    assert all(item.status == "pass" for item in audit_identities(engine))
    for p in range(3):
        for q in range(3):
            engine.dolbeault_cw(p, q)
