import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import (
    ComplexPoly,
    InconsistentFactorization,
    NoConvergence,
    cluster_roots,
    find_roots,
    structured_roots,
)
from chebotarev import poly as poly_module
from chebotarev.poly import compensated_horner, quotient

from conftest import on_zeros


def coeffs_close(p, q, tol=1e-12):
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [0] * (n - len(p.coeffs))
    b = list(q.coeffs) + [0] * (n - len(q.coeffs))
    scale = 1.0 + max(abs(c) for c in a + b)
    return max(abs(x - y) for x, y in zip(a, b)) <= tol * scale


class TestMultiply:
    def test_difference_of_squares(self):
        p = ComplexPoly([-1, 1])
        q = ComplexPoly([1, 1])
        assert (p * q).coeffs == (-1, 0, 1)

    def test_identity_element(self):
        p = ComplexPoly([1, 0, 1])
        assert (p * ComplexPoly([1])).coeffs == p.coeffs

    def test_roots_of_unity_product(self):
        # expanding prod(z - e^{ik pi/5}) over k=0..9 gives z^10 - 1
        prod = ComplexPoly([1])
        for k in range(10):
            prod = prod * ComplexPoly([-np.exp(1j * np.pi * k / 5), 1])
        target = ComplexPoly([-1] + [0] * 9 + [1])
        assert coeffs_close(prod, target)


class TestDerivative:
    def test_power_rule(self):
        assert ComplexPoly([0] * 5 + [1]).derivative().coeffs == (0, 0, 0, 0, 5)

    def test_quadratic(self):
        assert ComplexPoly([-1, 0, 2]).derivative().coeffs == (0, 4)

    def test_constant_gives_zero_poly(self):
        d = ComplexPoly([7.0]).derivative()
        assert d.degree == 0 and d.coeffs == (0,)

    def test_quartic_family_member(self):
        # (8z^4 - 8z^2 + 17)/17 differentiates to (32z^3 - 16z)/17,
        # with critical points 0 and +-1/sqrt(2)
        T = ComplexPoly([1.0, 0, -8 / 17, 0, 8 / 17])
        dT = T.derivative()
        assert coeffs_close(dT, ComplexPoly([0, -16 / 17, 0, 32 / 17]))
        crits = sorted(find_roots(dT), key=lambda z: z.real)
        expected = [-1 / math.sqrt(2), 0.0, 1 / math.sqrt(2)]
        assert max(abs(a - b) for a, b in zip(crits, expected)) < 1e-12


class TestDivideExact:
    """:func:`quotient` on divisions that leave no remainder."""

    def test_linear_factor(self):
        q = quotient(ComplexPoly([-1, 0, 1]), ComplexPoly([-1, 1]))
        assert coeffs_close(q, ComplexPoly([1, 1]))

    def test_self_division(self):
        p = ComplexPoly([-1] + [0] * 9 + [1])
        assert coeffs_close(quotient(p, p), ComplexPoly([1]))

    def test_cubic_family_cofactor(self):
        # (1 - 4z^2) = -4 (z - 1/2)(z + 1/2); dividing out -4(z + 1/2)
        # leaves the monic factor z - 1/2
        num = ComplexPoly([1, 0, -4])
        den = ComplexPoly([-2, -4])
        q = quotient(num, den)
        assert coeffs_close(q, ComplexPoly([-0.5, 1]))


class TestFindRoots:
    def test_quadratic(self):
        roots = sorted(find_roots(ComplexPoly([-1, 0, 1])), key=lambda z: z.real)
        assert abs(roots[0] + 1) < 1e-13 and abs(roots[1] - 1) < 1e-13

    def test_roots_of_unity(self):
        p = ComplexPoly([-1] + [0] * 9 + [1])
        roots = sorted(find_roots(p), key=lambda z: (round(z.real, 8), z.imag))
        expected = sorted((np.exp(1j * np.pi * k / 5) for k in range(10)),
                          key=lambda z: (round(z.real, 8), z.imag))
        assert max(abs(a - b) for a, b in zip(roots, expected)) < 1e-12

    def test_quartic_family_level_roots(self):
        # zeros of T^2 - 1 for the quartic with parameter 2: +-1 and
        # +-beta/2 +- 2i/beta simple, 0 double, with beta = sqrt(1 + sqrt(17))
        T = ComplexPoly([1.0, 0, -8 / 17, 0, 8 / 17])
        beta = math.sqrt(1 + math.sqrt(17))
        expected = [1.0, -1.0, 0.0, 0.0]
        expected += [s1 * beta / 2 + s2 * 2j / beta for s1 in (1, -1) for s2 in (1, -1)]
        roots = find_roots(T * T - 1.0)
        for e in expected:
            assert min(abs(r - e) for r in roots) < 1e-5
        clusters = cluster_roots(roots, tol=1e-4)
        mults = sorted(c.multiplicity for c in clusters)
        assert mults == [1, 1, 1, 1, 1, 1, 2]

    def test_degree_one(self):
        assert find_roots(ComplexPoly([3, 1])) == [-3.0 + 0j]

    def test_quadratic_with_roots_far_apart(self):
        # z^2 - (1e8 + 1e-8) z + 1: the textbook formula loses the small root
        roots = sorted(find_roots(ComplexPoly([1.0, -(1e8 + 1e-8), 1.0])), key=abs)
        assert abs(roots[0] - 1e-8) < 1e-22 and abs(roots[1] - 1e8) < 1e-6

    def test_rejects_constants(self):
        with pytest.raises(ValueError):
            find_roots(ComplexPoly([2.0]))


def _chebyshev(n):
    return ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * n + [1]))


def _max_matched_gap(roots, reference):
    """Largest distance after pairing each root with its nearest reference;
    the pairing must be one to one."""
    nearest = [min(range(len(reference)), key=lambda j: abs(r - reference[j])) for r in roots]
    assert sorted(nearest) == list(range(len(reference)))
    return max(abs(r - reference[j]) for r, j in zip(roots, nearest))


def _warm(p, start, level=0.0):
    """One-row :func:`level_roots` solve of ``p - level`` from ``start``."""
    return list(poly_module.level_roots(p, [level], [start])[0])


class TestWarmStart:
    def test_chebyshev_level_matches_cold_roots(self):
        # started from the roots one level step away, as the tracer does
        T = _chebyshev(24)
        start = find_roots(T - math.cos(0.31))
        warm = _warm(T, start, math.cos(0.3))
        cold = find_roots(T - math.cos(0.3))
        # root i continues start i
        for i, s in enumerate(start):
            assert min(range(24), key=lambda j: abs(warm[j] - s)) == i
        # the monomial form of T_24 - c fixes its simple roots only to ~1e-9
        exact = [math.cos((0.3 + 2 * math.pi * k) / 24) for k in range(24)]
        assert _max_matched_gap(warm, cold) < 5e-9
        assert _max_matched_gap(warm, exact) < 5e-9

    def test_coincident_starts_split(self):
        p = ComplexPoly.from_roots([0.3, 0.3, -1.0])
        warm = _warm(p, [0.3, 0.3, -1.0])
        cold = find_roots(p)
        # the double root is smeared over ~sqrt(eps); the simple one is sharp
        assert _max_matched_gap(warm, cold) < 1e-7
        assert min(abs(r + 1.0) for r in warm) < 1e-13
        assert sum(abs(r - 0.3) < 1e-7 for r in warm) == 2

    def test_does_not_depend_on_seed(self):
        # warm solves take no seed: the same starts give the same roots
        T = _chebyshev(16)
        start = find_roots(T - math.cos(0.5))
        runs = {tuple(_warm(T, start, math.cos(0.51))) for _ in range(4)}
        assert len(runs) == 1

    def test_real_starts_reach_complex_roots(self):
        # real starts on a real polynomial would stay real without the nudge
        roots = _warm(ComplexPoly([0.0123, 0, 1]), [0.11, -0.11])
        assert _max_matched_gap(roots, [0.0123 ** 0.5 * 1j, -(0.0123 ** 0.5) * 1j]) < 1e-13

    @pytest.mark.parametrize("initial", [
        [0.1], [0.1, 0.2], [0.1, 0.2, 0.3, 0.4],
        [0.1, float("nan"), 0.3], [0.1, complex(0, float("inf")), 0.3],
    ])
    def test_bad_initial_rejected(self, initial):
        with pytest.raises(ValueError):
            _warm(ComplexPoly.from_roots([1, 2, 3]), initial)


class TestLevelRoots:
    """One Aberth block for many levels of T - c against one cold solve per level."""

    @staticmethod
    def _block(T, theta0=0.4, h=0.01, count=16):
        thetas = theta0 + h * np.arange(1, count + 1)
        last = np.array(find_roots(T - math.cos(theta0)))
        prev = np.array(_warm(T, last, math.cos(theta0 - h)))
        starts = last + np.arange(1, count + 1)[:, None] * (last - prev)
        return np.cos(thetas), starts

    @pytest.mark.parametrize("case, tol", [("rect_n9_system1", 1e-10), ("T16", 1e-10),
                                           ("T24", 1e-7)])
    def test_matches_sequential_find_roots(self, case, tol, solved_rect):
        T = solved_rect(9, 1).poly if case.startswith("rect") else _chebyshev(int(case[1:]))
        levels, starts = self._block(T)
        solved = poly_module.level_roots(T, levels, starts)
        assert len(solved) == len(levels)
        for c, row, roots in zip(levels, starts, solved):
            assert _max_matched_gap(list(roots), find_roots(T - c)) < tol
            # a block row settles where the same row solved alone does
            assert _max_matched_gap(list(roots), _warm(T, row, c)) < tol

    def test_failed_level_is_none_and_others_settle(self):
        T = _chebyshev(9)
        levels, starts = self._block(T, count=4)
        starts[2] = 1e200  # overflows the powers of the first sweep
        solved = poly_module.level_roots(T, levels, starts)
        assert solved[2] is None
        for k in (0, 1, 3):
            assert _max_matched_gap(list(solved[k]), find_roots(T - levels[k])) < 1e-12

    def test_no_row_settled_is_none_per_level(self, monkeypatch):
        T = _chebyshev(9)
        levels, starts = self._block(T, count=4)
        monkeypatch.setattr(poly_module, "_MAX_SWEEPS", 1)
        assert poly_module.level_roots(T, levels, starts) == [None] * 4

    def test_bad_starts_rejected(self):
        T = _chebyshev(4)
        with pytest.raises(ValueError):
            poly_module.level_roots(T, [0.1, 0.2], np.zeros((3, 4)))
        with pytest.raises(ValueError):
            poly_module.level_roots(T, [0.1], np.full((1, 4), np.nan))


class TestPolishOnlyColdSolves:
    """A settled warm solve returns the Aberth iterate; cold runs get 3 Newton steps."""

    @staticmethod
    def _spy(monkeypatch):
        log, settled = [], []
        real_call = ComplexPoly.__call__
        real_sweep = poly_module._eval_sweep
        real_aberth = poly_module._aberth

        def horner(p, z):
            log.append("horner")
            return real_call(p, z)

        def sweep(*args):
            log.append("sweep")
            return real_sweep(*args)

        def aberth(*args):
            z = real_aberth(*args)
            settled.append(np.ravel(z).tolist())
            return z

        monkeypatch.setattr(ComplexPoly, "__call__", horner)
        monkeypatch.setattr(poly_module, "_eval_sweep", sweep)
        monkeypatch.setattr(poly_module, "_aberth", aberth)
        return log, settled

    def test_settled_warm_solve_is_not_polished(self, monkeypatch):
        T = _chebyshev(24)
        start = find_roots(T - math.cos(0.31))
        log, settled = self._spy(monkeypatch)
        roots = _warm(T, start, math.cos(0.3))
        # one evaluation per sweep, none after the last
        sweeps = log.count("sweep")
        assert sweeps >= 1
        assert log == ["sweep"] * sweeps
        assert settled == [roots]

    def test_cold_solve_is_polished(self, monkeypatch):
        p = ComplexPoly.from_roots([0.5, -1.0, 2.0j, 1.5])
        log, settled = self._spy(monkeypatch)
        real_roots = np.roots

        def eigenvalues(coeffs):
            log.append("eigenvalues")
            return real_roots(coeffs)

        monkeypatch.setattr(np, "roots", eigenvalues)
        roots = find_roots(p)
        # no Aberth sweep: p at the eigenvalues, then 3 Newton steps of p' and p each
        assert not settled
        assert log == ["eigenvalues"] + ["horner"] * 7
        assert _max_matched_gap(roots, [0.5, -1.0, 2.0j, 1.5]) < 1e-13


class TestColdSolveErrors:
    """A failed eigenvalue solve keeps the typed error that the CLI maps to exit 3."""

    def test_eigenvalue_failure_is_no_convergence(self, monkeypatch):
        def fail(coeffs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "roots", fail)
        with pytest.raises(NoConvergence, match="did not converge"):
            find_roots(_chebyshev(9))

    def test_non_finite_eigenvalue_is_no_convergence(self, monkeypatch):
        monkeypatch.setattr(np, "roots", lambda coeffs: np.full(len(coeffs) - 1, np.nan))
        with pytest.raises(NoConvergence, match="non-finite eigenvalue"):
            find_roots(_chebyshev(9))


class TestSweepEvaluation:
    @pytest.mark.parametrize("degree", [2, 3, 9, 24, 40, 64])
    def test_matches_horner_and_running_bound(self, degree):
        rng = np.random.default_rng(degree)
        coeffs = rng.normal(size=degree + 1) + 1j * rng.normal(size=degree + 1)
        z = 1.5 * (rng.normal(size=257) + 1j * rng.normal(size=257))
        # Horner's running error bound, one pass per coefficient
        r = np.full(z.shape, coeffs[-1], dtype=complex)
        e = np.abs(r)
        for c in coeffs[-2::-1]:
            r = r * z + c
            e = e * np.abs(z) + np.abs(r)
        bound = poly_module._EPS * (2.0 * e)
        values, slopes, bounds = poly_module._eval_sweep(coeffs, z)
        assert np.allclose(bounds, bound, rtol=1e-12, atol=0)
        # p and p' agree with Horner's scheme to the classical gamma_2n bound
        powers = np.abs(z)[:, None] ** np.arange(degree + 1)
        derivative = coeffs[1:] * np.arange(1, degree + 1)
        eps = poly_module._EPS
        assert np.all(np.abs(values - ComplexPoly(coeffs)(z))
                      <= 2 * (degree + 1) * eps * (powers @ np.abs(coeffs)))
        assert np.all(np.abs(slopes - ComplexPoly(derivative)(z))
                      <= 2 * degree * eps * (powers[:, :-1] @ np.abs(derivative)))


    @pytest.mark.parametrize("n", [5, 9, 24])
    def test_shift_is_added_to_the_constant_coefficient(self, n):
        # the level polynomials (T - c) / tau of level_roots: at the roots of
        # each level, and 1e-9 and 0.1 off them, every shifted value is
        # within its bound of the compensated value of p + shift
        T = _chebyshev(n)
        a = np.array(T.coeffs) / T.leading
        levels = np.cos(np.linspace(0.1, 3.0, 6))
        roots = np.array([find_roots(T - c) for c in levels])
        z = np.concatenate([roots, roots + 1e-9, roots + 0.1j], axis=1)
        shift = -levels / T.leading
        values, _, bounds = poly_module._eval_sweep(a, z, shift[:, None])
        for row, s, got, bound in zip(z, shift, values, bounds):
            shifted = ComplexPoly([a[0] + s, *a[1:]])
            exact = np.array([compensated_horner(shifted, complex(w)) for w in row])
            assert np.all(np.abs(got - exact) <= bound)

    @pytest.mark.parametrize("n", range(8, 65))
    def test_running_bound_holds_on_chebyshev(self, n):
        # off the zeros by 1e-9, where the value is mostly rounding noise, on
        # a circle just outside [-1, 1] and on [-1, 1] itself
        T = _chebyshev(n)
        zeros = np.cos((2 * np.arange(1, n + 1) - 1) * np.pi / (2 * n))
        z = np.concatenate([zeros + 1e-9, zeros + 1e-9j,
                            1.01 * np.exp(2j * np.pi * np.arange(64) / 64),
                            np.linspace(-1.0, 1.0, 65)])
        values, _, bounds = poly_module._eval_sweep(np.array(T.coeffs), z)
        exact = np.array([compensated_horner(T, complex(w)) for w in z])
        assert np.all(np.abs(values - exact) <= bounds)

class TestNonFiniteIterate:
    def test_stops_at_first_non_finite_sweep(self, monkeypatch):
        # a 32-fold zero from a circle of starts: the iterates collapse until
        # a quotient overflows, and the level comes back as None long before
        # the sweep cap
        real_sweep, sweeps = poly_module._eval_sweep, []

        def eval_sweep(*args):
            sweeps.append(args[1])
            return real_sweep(*args)

        monkeypatch.setattr(poly_module, "_eval_sweep", eval_sweep)
        circle = 2.0 * np.exp(2j * np.pi * (np.arange(32) + 0.37) / 32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            solved = poly_module.level_roots(ComplexPoly([0] * 32 + [1]), [0.0], [circle])
        assert solved == [None]
        assert 0 < len(sweeps) < poly_module._MAX_SWEEPS == 500


class TestClusterRoots:
    def test_perturbed_triple(self):
        roots = [1 + 1e-9, 1 - 1e-9, 1 + 1e-9j]
        clusters = cluster_roots(roots)
        assert len(clusters) == 1
        assert clusters[0].multiplicity == 3
        assert abs(clusters[0].center - 1) < 1e-9

    def test_simple_roots_stay_apart(self):
        roots = [np.exp(1j * np.pi * k / 5) for k in range(10)]
        clusters = cluster_roots(roots)
        assert len(clusters) == 10
        assert all(c.multiplicity == 1 for c in clusters)

    def test_cubic_family_multiplicities(self):
        # cubic at parameter 1/2: zeros of T^2-1 are +-1 and 5/8 +- i/2
        # (simple) plus -3/8 (double)
        a = 0.5
        den = (1 + a * a) ** 2
        inner = ComplexPoly([1 - a * a, 2.0])
        T = (-1.0 / den) * (ComplexPoly([-1.0, 1.0]) * inner * inner) + (-1.0)
        p = T * T - 1.0
        clusters = structured_roots(p, critical=on_zeros(p))
        by_mult = {}
        for c in clusters:
            by_mult.setdefault(c.multiplicity, []).append(c.center)
        assert sorted(len(v) for v in by_mult.values()) == [1, 4]
        assert len(by_mult[2]) == 1 and abs(by_mult[2][0] - (-0.375)) < 1e-9
        for e in [1, -1, 0.625 + 0.5j, 0.625 - 0.5j]:
            assert min(abs(x - e) for x in by_mult[1]) < 1e-9

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_order_survives_ulp_changes(self, shift):
        # conjugate pairs, a point on the imaginary axis and a double point:
        # moving one real part of each pair by one ulp swaps nothing
        points = [1 + 0.1387j, 1 - 0.1387j, -0.625 + 0.5j, -0.625 - 0.5j,
                  0.1j, -0.1j, 3e-5 + 2j, 3e-5 - 2j, 0.25, 0.25]
        moved = [complex(np.nextafter(w.real, shift * np.inf), w.imag) if k % 2 else w
                 for k, w in enumerate(points)]
        before, after = cluster_roots(points), cluster_roots(moved)
        assert [c.multiplicity for c in after] == [c.multiplicity for c in before]
        for a, b in zip(after, before):
            assert abs(a.center - b.center) < 1e-15
            assert all(abs(u - v) < 1e-15 for u, v in zip(a.raw_members, b.raw_members))

    def test_multiplicity_sum_equals_degree(self):
        p = ComplexPoly.from_roots([0.3, 0.3, 0.3, -1, 2, 1j])
        clusters = structured_roots(p, critical=on_zeros(p))
        assert sum(c.multiplicity for c in clusters) == p.degree

    def test_multiplicities_past_the_degree_raise(self):
        # the critical values of 1e-8 z(z-1)(z-2) are +-3.8e-9: the absolute
        # floor of 1e-7 takes both critical points for zeros
        p = 1e-8 * ComplexPoly.from_roots([0.0, 1.0, 2.0])
        with pytest.raises(InconsistentFactorization, match="4 zeros .* degree 3"):
            structured_roots(p, critical=on_zeros(p))


def _flood(k, neighbours):
    """Groups of the nodes 0..k-1 by breadth-first flood over ``neighbours(i)``."""
    left, groups = set(range(k)), set()
    while left:
        todo = [left.pop()]
        group = set(todo)
        while todo:
            near = neighbours(todo.pop()) & left
            left -= near
            group |= near
            todo.extend(near)
        groups.add(frozenset(group))
    return groups


def _within(points, radius):
    return lambda i: {j for j, w in enumerate(points) if abs(points[i] - w) <= radius}


def _index_groups(clusters, points):
    where = {w: k for k, w in enumerate(points)}
    return {frozenset(where[m] for m in c.raw_members) for c in clusters}


class TestSingleLinkage:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_points_match_flood(self, seed):
        rng = np.random.default_rng(seed)
        points = [complex(x, y) for x, y in rng.uniform(-1, 1, (60, 2))]
        radius = rng.uniform(0.05, 0.3)
        clusters = cluster_roots(points, scale=1.0, tol=radius)
        assert _index_groups(clusters, points) == _flood(len(points), _within(points, radius))

    @pytest.mark.parametrize("spacing, pieces", [(0.999, 1), (1.001, 12)])
    def test_zigzag_chain_is_transitive(self, spacing, pieces):
        # neighbours sit just under (or just over) the radius apart, and the
        # chain turns by 60 degrees each step, so no point but a neighbour is
        # within reach: only transitivity can join the whole chain
        radius = 0.01
        rng = np.random.default_rng(12)
        steps = spacing * radius * np.exp(1j * np.pi / 3 * (np.arange(11) % 2))
        points = (0.3 + 0.2j + np.concatenate([[0], np.cumsum(steps)])).tolist()
        points = [points[k] for k in rng.permutation(len(points))]
        clusters = cluster_roots(points, scale=1.0, tol=radius)
        assert len(clusters) == pieces
        assert _index_groups(clusters, points) == _flood(len(points), _within(points, radius))


class TestLabelPairs:
    def test_no_nodes(self):
        none = np.array([], dtype=int)
        assert poly_module.label_pairs(0, none, none).shape == (0,)

    def test_no_pairs(self):
        none = np.array([], dtype=int)
        assert poly_module.label_pairs(5, none, none).tolist() == [0, 1, 2, 3, 4]

    def test_keeps_index_dtype(self):
        i, j = np.array([0, 2], dtype=np.int32), np.array([1, 3], dtype=np.int32)
        root = poly_module.label_pairs(4, i, j)
        assert root.dtype == np.int32 and root.tolist() == [0, 0, 2, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_roots_are_smallest_members(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 80))
        i, j = rng.integers(0, k, (2, int(rng.integers(0, 2 * k))))
        root = poly_module.label_pairs(k, i, j)
        groups = {}
        for node, r in enumerate(root.tolist()):
            groups.setdefault(r, set()).add(node)
        assert all(r == min(g) for r, g in groups.items())
        # same partition as a flood over the pair graph
        adjacent = [set() for _ in range(k)]
        for a, b in zip(i.tolist(), j.tolist()):
            adjacent[a].add(b)
            adjacent[b].add(a)
        assert {frozenset(g) for g in groups.values()} == _flood(k, adjacent.__getitem__)


class TestRefinement:
    def test_compensated_horner_near_roots(self):
        # T_28' at the rounded cos(k pi / 28): plain Horner returns rounding
        # noise many times the value, the compensated sum the value itself
        n = 28
        dT = ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * n + [1])).derivative()
        plain = compensated = 0.0
        for k in range(1, n):
            x = float(np.cos(k * np.pi / n))
            exact = Fraction(0)
            for c in reversed(dT.coeffs):
                exact = exact * Fraction(x) + Fraction(c.real)
            value = compensated_horner(dT, complex(x))
            assert value.imag == 0.0
            compensated = max(compensated, abs(value - float(exact)) / abs(float(exact)))
            plain = max(plain, abs(dT(complex(x)) - float(exact)) / abs(float(exact)))
        assert compensated < 1e-6 and plain > 1.0

    def test_multiple_root_recovered_to_machine_precision(self):
        z0 = 0.3 + 0.4j
        p = ComplexPoly.from_roots([z0, z0, z0, -1.0, 2.0])
        clusters = structured_roots(p, critical=on_zeros(p))
        triple = next(c for c in clusters if c.multiplicity == 3)
        assert abs(triple.center - z0) < 1e-12

    def test_derivative_drops_multiplicity(self):
        z0 = 0.3 + 0.4j
        p = ComplexPoly.from_roots([z0, z0, z0, -1.0, 2.0])
        dp = p.derivative()
        dclusters = structured_roots(dp, critical=on_zeros(dp))
        assert any(c.multiplicity == 2 and abs(c.center - z0) < 1e-7 for c in dclusters)


class TestRoundTrip:
    def test_separated_roots_reconstruct_coefficients(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            roots = []
            while len(roots) < 8:
                cand = complex(*rng.uniform(-0.9, 0.9, 2))
                if all(abs(cand - r) >= 0.12 for r in roots):
                    roots.append(cand)
            p = ComplexPoly.from_roots(roots)
            found = find_roots(p, seed=3)
            rebuilt = ComplexPoly.from_roots(found)
            assert coeffs_close(p, rebuilt, tol=1e-8)


class TestValidation:
    def test_degree_cap(self):
        with pytest.raises(ValueError):
            ComplexPoly([0] * 65 + [1])

    def test_zero_leading_coefficient_rejected(self):
        with pytest.raises(ValueError):
            ComplexPoly([1, 0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ComplexPoly([])


_coeff = st.complex_numbers(min_magnitude=0, max_magnitude=5, allow_nan=False,
                            allow_infinity=False)


@given(
    coeffs=st.lists(_coeff, min_size=1, max_size=30),
    z=st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False),
)
@settings(max_examples=200, deadline=None)
def test_horner_matches_naive_power_sum(coeffs, z):
    if abs(coeffs[-1]) < 1e-150:
        coeffs = coeffs + [1.0]
    p = ComplexPoly(coeffs)
    naive = sum(c * z**k for k, c in enumerate(p.coeffs))
    scale = 1.0 + abs(naive) + sum(abs(c) * abs(z) ** k for k, c in enumerate(p.coeffs))
    assert abs(p(z) - naive) <= 1e-12 * scale


@given(
    a=st.lists(_coeff, min_size=2, max_size=8),
    b=st.lists(_coeff, min_size=2, max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_product_rule(a, b):
    # keep leading coefficients away from underflow so degrees stay exact
    if abs(a[-1]) < 1e-150:
        a = a + [1.0]
    if abs(b[-1]) < 1e-150:
        b = b + [1.0]
    p, q = ComplexPoly(a), ComplexPoly(b)
    lhs = (p * q).derivative()
    rhs = p.derivative() * q + p * q.derivative()
    assert coeffs_close(lhs, rhs, tol=1e-12)
