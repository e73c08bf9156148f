"""Linear structures from constants: validation, Killing forms, builtins."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisson_ortho import scenarios
from poisson_ortho.context import ChartContext
from poisson_ortho.dsl import ExprTensorField
from poisson_ortho.errors import (
    ConfigError, ConsistencyError, DegeneracyError, RegularityError,
)
from poisson_ortho.geometry import SCHEME_KINDS, DerivativeScheme, Grid, matvec
from poisson_ortho.integrability import verdict
from poisson_ortho.liepoisson import (
    BUILTIN_NAMES, StructureConstants, builtin_algebra, casimir_lie_bracket,
    ensure_regular_grid, killing_form, linear_poisson,
    linear_poisson_bivector, se3_metric, validate_constants,
    verify_integral_surface,
)
from poisson_ortho.metric import inverse_metric
from poisson_ortho.poisson import validate_poisson


def hat(v):
    # (hat v)_{ij} = eps_{ijk} v_k
    return np.array([
        [0.0, v[2], -v[1]],
        [-v[2], 0.0, v[0]],
        [v[1], -v[0], 0.0],
    ])


def killing_oracle(sc):
    """Brute-force double sum in exact rational arithmetic."""
    n = sc.dim
    out = np.zeros((n, n))
    for m in range(n):
        for nn in range(n):
            total = Fraction(0)
            for r in range(n):
                for s in range(n):
                    total += Fraction(sc.table[m, r, s]) * Fraction(sc.table[nn, s, r])
            out[m, nn] = float(total)
    return out


def validation_oracle(sc):
    """The n^5 loop in Fraction arithmetic that the integer-tensor
    validation replaced: (antisymmetry violations, Jacobi violations, max
    antisymmetry residual, max Jacobi residual)."""
    n = sc.dim
    c = [[[Fraction(sc.table[m, u, s]) for s in range(n)]
          for u in range(n)] for m in range(n)]
    anti, jac = [], []
    max_anti = max_jac = Fraction(0)
    for m in range(n):
        for u in range(m, n):
            for s in range(n):
                r = c[m][u][s] + c[u][m][s]
                if r != 0:
                    anti.append((m, u, s))
                    max_anti = max(max_anti, abs(r))
    for m in range(n):
        for u in range(n):
            for s in range(n):
                for t in range(n):
                    r = sum(c[m][u][rho] * c[rho][s][t]
                            + c[u][s][rho] * c[rho][m][t]
                            + c[s][m][rho] * c[rho][u][t]
                            for rho in range(n))
                    if r != 0:
                        jac.append((m, u, s, t))
                        max_jac = max(max_jac, abs(r))
    return anti, jac, max_anti, max_jac


# ---------------------------------------------------------------------------
# constants validation

# integers, dyadic and non-dyadic rationals, and a value whose Fraction has
# a 2^-1074 denominator, so the lcm scaling meets large and mixed
# denominators
ENTRIES = st.sampled_from([0.0, 0.0, 0.0, 1.0, -1.0, 2.0, 0.5, -0.25, 0.1,
                           1.0 / 3.0, -3.0, 5e-324])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(ENTRIES, min_size=n ** 3,
                                             max_size=n ** 3))),
       st.booleans())
def test_validate_constants_matches_fraction_loop(shape_and_entries, antisymmetrize):
    n, entries = shape_and_entries
    table = np.array(entries).reshape(n, n, n)
    if antisymmetrize:  # most tables fail antisymmetry; these reach Jacobi alone
        table = table - table.transpose(1, 0, 2)
    sc = StructureConstants(n, table)
    rep = validate_constants(sc)
    anti, jac, max_anti, max_jac = validation_oracle(sc)
    assert rep.antisymmetry_violations == anti
    assert rep.jacobi_violations == jac
    assert rep.max_antisymmetry_residual == max_anti
    assert rep.max_jacobi_residual == max_jac
    assert type(rep.max_jacobi_residual) is Fraction


def test_validate_so3_and_se3_exactly_ok():
    for name in ("so3", "se3"):
        rep = validate_constants(builtin_algebra(name).constants)
        assert rep.ok
        assert rep.max_antisymmetry_residual == 0
        assert rep.max_jacobi_residual == 0


def test_validate_flags_antisymmetry_triple():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = 1.0
    c[1, 0, 2] = 1.0  # should be -1
    rep = validate_constants(StructureConstants(3, c))
    assert not rep.ok
    assert (0, 1, 2) in rep.antisymmetry_violations
    assert rep.max_antisymmetry_residual == Fraction(2)


def test_validate_flags_jacobi_violation():
    # antisymmetric bracket from the matrix A = I + antisym((1,0,0)):
    # c[i,j,l] = eps_{ijk} A[k,l]; the symmetric part of A times the
    # antisymmetric axis is nonzero, so the Jacobi identity fails
    eps_a = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
    a = np.eye(3) + eps_a
    eps = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        eps[i, j, k], eps[j, i, k] = 1.0, -1.0
    c = np.einsum("ijk,kl->ijl", eps, a)
    rep = validate_constants(StructureConstants(3, c))
    assert not rep.antisymmetry_violations
    assert rep.jacobi_violations
    assert rep.max_jacobi_residual > 0
    with pytest.raises(ConsistencyError, match="Jacobi"):
        killing_form(StructureConstants(3, c))


def test_constants_shape_checked():
    with pytest.raises(ConfigError, match="shape"):
        StructureConstants(3, np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# Killing forms

def test_killing_so3_bit_exact():
    sc = builtin_algebra("so3").constants
    k = killing_form(sc)
    assert np.array_equal(k, -2.0 * np.eye(3))
    assert np.array_equal(k, killing_oracle(sc))


def test_killing_sl2r_values():
    sc = builtin_algebra("sl2r").constants
    k = killing_form(sc)
    expected = np.array([[8.0, 0.0, 0.0], [0.0, 0.0, 4.0], [0.0, 4.0, 0.0]])
    assert np.array_equal(k, expected)
    assert np.array_equal(k, killing_oracle(sc))


def test_killing_se3_degenerate():
    sc = builtin_algebra("se3").constants
    k = killing_form(sc)
    assert np.array_equal(k, np.diag([-4.0, -4.0, -4.0, 0.0, 0.0, 0.0]))
    assert np.array_equal(k, killing_oracle(sc))
    assert np.linalg.det(k) == 0.0


def test_killing_ad_invariance_all_builtins():
    for name in BUILTIN_NAMES:
        sc = builtin_algebra(name).constants
        k = killing_form(sc)
        lhs = (np.einsum("rmt,tn->rmn", sc.table, k)
               + np.einsum("rnt,mt->rmn", sc.table, k))
        assert np.max(np.abs(lhs)) == 0.0, name


# ---------------------------------------------------------------------------
# linear bivector

def test_linear_bivector_so3_point():
    biv = linear_poisson_bivector(builtin_algebra("so3").constants)
    assert isinstance(biv, ExprTensorField)
    got = biv.components(np.array([[0.0, 0.0, 1.0]]))[0]
    assert np.array_equal(got, [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0],
                                [0.0, 0.0, 0.0]])
    assert np.array_equal(biv.components(np.zeros((1, 3)))[0], np.zeros((3, 3)))


def test_linear_bivector_se3_blocks():
    biv = linear_poisson_bivector(builtin_algebra("se3").constants)
    x, p = np.array([0.3, -1.0, 0.7]), np.array([0.2, 0.5, -0.4])
    got = biv.components(np.concatenate([x, p])[None, :])[0]
    want = np.block([[hat(x), hat(p)], [hat(p), np.zeros((3, 3))]])
    assert np.array_equal(got, want)


def test_linear_poisson_rejects_invalid_constants():
    c = np.zeros((3, 3, 3))
    c[0, 1, 2] = c[1, 0, 2] = 1.0
    with pytest.raises(ConsistencyError, match=r"antisymmetric at indices \(0, 1, 2\)"):
        linear_poisson(StructureConstants(3, c), ["x1"], expected_rank=2)


def test_builtin_bivectors_pass_validate_poisson_exactly():
    # the algebra Jacobi identity forces the bivector Jacobi identity
    for name in BUILTIN_NAMES:
        alg = builtin_algebra(name)
        grid = Grid.cube(list(alg.default_center), alg.default_half_width, 2)
        rep = validate_poisson(ChartContext(alg.structure, alg.metric, grid.sample()))
        assert rep.ok, name
        assert rep.jacobi.max_residual == 0.0, name


# ---------------------------------------------------------------------------
# builtin registry and regular domains

def test_builtin_unknown_name():
    with pytest.raises(ConfigError, match="unknown algebra"):
        builtin_algebra("su5")
    with pytest.raises(ConfigError, match="metric parameters"):
        builtin_algebra("so3", alpha=1.0)


def test_regular_predicates():
    assert not builtin_algebra("so3").regular(np.zeros(3))
    assert builtin_algebra("so3").regular(np.array([0.0, 0.0, 1.0]))
    assert not builtin_algebra("sl2r").regular(np.array([0.0, 1.0, 0.0]))
    assert builtin_algebra("sl2r").regular(np.array([1.0, 0.0, 0.0]))
    assert not builtin_algebra("se3").regular(
        np.array([1.0, 2.0, 3.0, 0.0, 0.0, 0.0]))
    assert builtin_algebra("se3").regular(
        np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0]))


def test_default_grids_are_regular():
    for name in BUILTIN_NAMES:
        alg = builtin_algebra(name)
        grid = Grid.cube(list(alg.default_center), alg.default_half_width, 3)
        ensure_regular_grid(alg, grid.sample())  # should not raise


def test_irregular_grid_rejected():
    alg = builtin_algebra("so3")
    bad = Grid.cube([0.0, 0.0, 0.0], 0.0, 1)
    with pytest.raises(RegularityError, match="regular domain"):
        ensure_regular_grid(alg, bad.sample())


# ---------------------------------------------------------------------------
# the block metric family

def test_se3_metric_requires_offdiagonal_pairing():
    with pytest.raises(DegeneracyError, match="beta = 0"):
        se3_metric(1.0, 0.0)


def test_se3_metric_sharp_swaps_blocks():
    m = se3_metric(0.0, 1.0)
    cov = np.array([0.2, 0.5, -0.4, 0.3, -1.0, 0.7])  # (p, x) layout
    out = matvec(inverse_metric(m, np.zeros((1, 6)))[0], cov)
    assert np.array_equal(out, np.concatenate([cov[3:], cov[:3]]))


def test_se3_metric_inverse_closed_form():
    m = se3_metric(2.0, 3.0)
    p = np.zeros((1, 6))
    prod = m.components(p)[0] @ inverse_metric(m, p)[0]
    assert np.allclose(prod, np.eye(6), atol=1e-15)


def test_se3_metric_eigenvalues_and_signature():
    for alpha, beta in ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
        vals = np.sort(np.linalg.eigvalsh(
            inverse_metric(se3_metric(alpha, beta), np.zeros((1, 6)))[0]))
        lo = (alpha - np.sqrt(alpha ** 2 + 4 * beta ** 2)) / 2
        hi = (alpha + np.sqrt(alpha ** 2 + 4 * beta ** 2)) / 2
        assert np.allclose(vals, [lo] * 3 + [hi] * 3, atol=1e-12)
        assert lo * hi == pytest.approx(-beta ** 2, abs=1e-12)
        assert np.sum(vals > 0) == 3 and np.sum(vals < 0) == 3


def test_se3_metric_ad_invariant():
    # G([z,u],v) + G(u,[z,v]) = 0 on all basis triples, for the whole family
    sc = builtin_algebra("se3").constants
    for alpha, beta in ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
        g = inverse_metric(se3_metric(alpha, beta), np.zeros((1, 6)))[0]
        lhs = (np.einsum("rmt,tn->rmn", sc.table, g)
               + np.einsum("rnt,mt->rmn", sc.table, g))
        assert np.max(np.abs(lhs)) == 0.0


# ---------------------------------------------------------------------------
# abelian criterion

def test_casimir_bracket_codimension_one_trivial():
    alg = builtin_algebra("so3")
    coframe = ChartContext(alg.structure, alg.metric, [[0.0, 0.0, 1.0]]).coframe_at()
    table = casimir_lie_bracket(alg.constants, coframe)
    assert table.shape == (1, 1, 1, 3)
    assert np.max(np.abs(table)) == 0.0


def test_casimir_bracket_so3xso3_abelian():
    alg = builtin_algebra("so3xso3")
    for coords in ([0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
                   [0.3, -0.2, 0.9, 1.0, 0.4, -0.1]):
        ctx = ChartContext(alg.structure, alg.metric, [coords])
        table = casimir_lie_bracket(alg.constants, ctx.coframe_at())
        assert table.shape == (1, 2, 2, 6)
        assert np.max(np.abs(table)) == 0.0


def test_casimir_bracket_se3_abelian_in_scenario_gauge():
    # [(p, x), (0, p)] = (p x 0, p x p + x x 0) = 0 at every point
    alg = builtin_algebra("se3")
    rng = np.random.default_rng(7)
    for _ in range(5):
        coords = rng.uniform(-1.0, 1.0, size=6)
        coords[3:] += 2.0  # keep p away from zero
        ctx = ChartContext(alg.structure, alg.metric, [coords])
        table = casimir_lie_bracket(alg.constants, ctx.coframe_at())
        assert np.max(np.abs(table)) == 0.0


# ---------------------------------------------------------------------------
# frame algebra on se3

def test_se3_frame_bracket_vanishes_exactly():
    for alpha, beta in ((0.0, 1.0), (1.0, 1.0), (0.5, 2.0)):
        alg = builtin_algebra("se3", alpha=alpha, beta=beta)
        ctx = ChartContext(alg.structure, alg.metric, [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
        br = ctx.frame_bracket(0, 1, "plain", "plain")
        assert np.max(np.abs(br)) == 0.0


def test_se3_frame_and_gram_at_base_point():
    alg = builtin_algebra("se3")
    ctx = ChartContext(alg.structure, alg.metric, [[1.0, 0.0, 0.0, 0.0, 1.0, 0.0]])
    frame = ctx.frame_at()[0]
    # xi_1 = sharp(p, x) = (x, p), the radial field; xi_2 = sharp(0, p) = (p, 0)
    assert np.array_equal(frame[:, 0], [1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    assert np.array_equal(frame[:, 1], [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    gram = ctx.gram_at()[0]
    assert np.array_equal(gram, [[0.0, 1.0], [1.0, 0.0]])  # [[2c1, c2],[c2, 0]]


# ---------------------------------------------------------------------------
# verdicts on the builtins

@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_verdicts_integrable(name):
    alg = builtin_algebra(name)
    grid = Grid.cube(list(alg.default_center), alg.default_half_width, 2)
    ensure_regular_grid(alg, grid.sample())
    v = verdict(ChartContext(alg.structure, alg.metric, grid.sample()))
    assert v.integrable, name
    assert v.consistent, name
    assert v.report("christoffel-symmetry").label == "skipped"


# ---------------------------------------------------------------------------
# integral surfaces

def columns(*entries):
    """(m, dim) surface points from per-coordinate parameter arrays or numbers."""
    return np.stack(np.broadcast_arrays(*entries), axis=1).astype(float)


def se3_exponential_surface(s, t):
    base_x = np.array([1.0, 0.0, 0.0])
    base_p = np.array([0.0, 1.0, 0.0])
    x = np.exp(s)[:, None] * base_x + np.exp(t)[:, None] * base_p
    p = np.exp(s)[:, None] * base_p
    return np.concatenate([x, p], axis=1)


def param_box(lo, hi, count):
    vals = np.linspace(lo, hi, count)
    return [(s, t) for s in vals for t in vals]


def test_integral_surface_se3_exponential():
    alg = builtin_algebra("se3")
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center])
    rep = verify_integral_surface(se3_exponential_surface, ctx,
                                  param_box(-1.0, 1.0, 5))
    assert rep.holds
    assert rep.max_residual <= 1e-9


def test_integral_surface_so3_ray():
    alg = builtin_algebra("so3")
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center])
    surface = lambda s: np.exp(s)[:, None] * np.array([0.0, 0.0, 1.0])
    rep = verify_integral_surface(surface, ctx, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert rep.holds
    assert rep.max_residual <= 1e-9


def test_integral_surface_negative_control():
    alg = builtin_algebra("se3")
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center])
    surface = lambda s, t: columns(1.0 + s, 0.0, 0.0, 0.0, 1.0 + t, 0.0)
    rep = verify_integral_surface(surface, ctx, param_box(-0.5, 0.5, 3))
    assert not rep.holds
    assert rep.max_residual > 0.1


def test_integral_surface_degenerate_frame():
    alg = builtin_algebra("se3")
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center])
    surface = lambda s, t: columns(s, t, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegeneracyError, match="rank-deficient"):
        verify_integral_surface(surface, ctx, [(0.3, 0.4)])


def test_integral_surface_names_the_first_degenerate_sample():
    # the se3 frame is rank-deficient where p = 0, here wherever s = 0
    alg = builtin_algebra("se3")
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center])
    surface = lambda s, t: columns(1.0, t, 0.0, s, 0.0, 0.0)
    with pytest.raises(DegeneracyError, match=r"parameters \(0\.0, 0\.25\)$"):
        verify_integral_surface(surface, ctx, [(1.0, 0.5), (0.0, 0.25), (0.0, 0.75)])


def per_sample_residuals(surface, ctx, samples):
    """The integral-surface residuals one sample and one tangent at a time,
    each tangent a scalar 4th-order stencil of the surface: the reference of
    the batched check."""
    def at(params):
        return surface(*(np.array([v]) for v in params))[0]

    residuals = []
    for raw in samples:
        params = [float(v) for v in np.atleast_1d(raw)]
        on_surface = ChartContext(ctx.structure, ctx.metric, at(params)[None], ctx.scheme)
        frame = on_surface.frame_at()[0]
        worst = 0.0
        for axis in range(len(params)):
            h = ctx.scheme.step_for(params[axis])

            def shifted(offset):
                moved = list(params)
                moved[axis] += offset
                return at(moved)

            tangent = (shifted(-2 * h) - 8.0 * shifted(-h) + 8.0 * shifted(h)
                       - shifted(2 * h)) / (12.0 * h)
            coeffs = np.linalg.lstsq(frame, tangent, rcond=None)[0]
            worst = max(worst, float(np.linalg.norm(tangent - frame @ coeffs)))
        residuals.append(worst)
    return residuals


@pytest.mark.parametrize("kind", SCHEME_KINDS)
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_batched_surface_check_is_bit_identical_to_per_sample_stencils(name, kind):
    alg = builtin_algebra(name)
    ctx = ChartContext(alg.structure, alg.metric, [alg.default_center],
                       DerivativeScheme(kind=kind))
    surface, samples = scenarios._integral_surface_setup(name, alg.default_center)
    rep = verify_integral_surface(surface, ctx, samples)
    assert rep.residuals == per_sample_residuals(surface, ctx, samples)
    assert 0.0 < rep.max_residual <= 1e-9
