import math

import numpy as np
import pytest

from chebotarev import (
    ComplexPoly,
    capacity,
    check_chebotarev_conditions,
    condition_points,
    dist_to_interval,
    factorize,
    find_crossings,
    find_roots,
    green_function,
    green_via_integral,
    hyperelliptic_integral,
    is_connected,
    min_deviation,
    verify_cosh_representation,
)
from chebotarev.poly import divide_exact, point_key

from conftest import (POLYNOMIAL_FIXTURES, RECT_IDS, RECTANGLES, cheb2, cross, fixture_poly,
                      star, t3, t4)


class TestCapacity:
    def test_segment(self):
        assert abs(capacity(cheb2()) - 0.5) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_monomials(self, n):
        assert abs(capacity(star(n)) - 2.0 ** (-1.0 / n)) < 1e-12

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
    def test_cross_family(self, alpha):
        # leading coefficient 2/(1+alpha^2) gives capacity sqrt(1+alpha^2)/2
        assert abs(capacity(cross(alpha)) - math.sqrt(1 + alpha**2) / 2) < 1e-12

    def test_scaling_by_two(self):
        T = t4(2.0)
        doubled = 2.0 * T
        n = T.degree
        assert abs(capacity(doubled) - capacity(T) * 2.0 ** (-1.0 / n)) < 1e-12


class TestMinDeviation:
    def test_segment(self):
        assert abs(min_deviation(cheb2()) - 0.5) < 1e-12

    def test_monic_monomial(self):
        assert abs(min_deviation(star(5)) - 1.0) < 1e-12

    def test_quartic(self):
        assert abs(min_deviation(t4(2.0)) - 17.0 / 8.0) < 1e-12

    @pytest.mark.parametrize("T", [cheb2(), star(5), cross(0.5), t4(2.0)],
                             ids=["cheb2", "star5", "cross05", "t4a2"])
    def test_identity_with_capacity(self, T):
        n = T.degree
        assert abs(min_deviation(T) - 2.0 * capacity(T) ** n) < 1e-12


class TestGreenFunction:
    def test_zero_on_the_set(self):
        assert green_function(cheb2(), 0.3) == 0.0

    def test_identity_map_closed_form(self):
        g = green_function(ComplexPoly([0, 1]), 2.0)
        assert abs(g - math.log(2 + math.sqrt(3))) < 1e-14

    def test_monomial_closed_form(self):
        g = green_function(star(5), 2.0)
        assert abs(g - math.log(32 + math.sqrt(1023)) / 5) < 1e-14

    def test_nonnegative_everywhere(self):
        T = t4(2.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            z = complex(*rng.uniform(-3, 3, 2))
            assert green_function(T, z) >= 0.0

    def test_zero_exactly_on_membership(self):
        T = cheb2()
        on = [0.0, 0.5, -0.99, 1.0]
        off = [1.5, 1j, -2.0 + 0.3j]
        for z in on:
            assert green_function(T, z) < 1e-9
        for z in off:
            assert green_function(T, z) > 1e-3

    @pytest.mark.parametrize("T", [cheb2(), star(5), cross(1.0), t4(2.0)],
                             ids=["cheb2", "star5", "cross1", "t4a2"])
    def test_asymptotics_at_large_radius(self, T):
        z = 1e4 * np.exp(0.7j)
        g = green_function(T, z)
        assert abs(g - (math.log(abs(z)) - math.log(capacity(T)))) < 1e-3


class TestHyperellipticIntegral:
    def test_two_point_closed_form(self):
        # integral of 1/sqrt(w^2 - 1) over [-1, 1] is +-i pi
        val, err = hyperelliptic_integral([-1.0, 1.0], [], [-1.0, 1.0])
        assert err < 1e-8
        assert abs(val.real) < 1e-10
        assert abs(abs(val.imag) - math.pi) < 1e-9

    def test_monomial_endpoint_conditions(self):
        T = star(5)
        fac = factorize(T)
        cset, dset = condition_points(fac)
        assert len(cset) == 10
        assert len(dset) == 8 and all(abs(d) < 1e-8 for d in dset)
        base = 1.0
        for k in range(1, 10):
            target = np.exp(1j * np.pi * k / 5)
            val, err = hyperelliptic_integral(cset, dset, [base, target])
            assert err < 1e-8
            assert abs(val.real) < 1e-7

    def test_cross_imaginary_axis_condition(self):
        T = cross(1.0)
        fac = factorize(T)
        cset, dset = condition_points(fac)
        val, err = hyperelliptic_integral(cset, dset, [1.0, 0.6 + 0.6j, 1j])
        assert err < 1e-8
        assert abs(val.real) < 1e-7

    def test_path_must_start_on_a_prescribed_point(self):
        with pytest.raises(ValueError):
            hyperelliptic_integral([-1.0, 1.0], [], [0.0, 1.0])

    @pytest.mark.parametrize("integrate", [
        lambda path: hyperelliptic_integral([-1.0, 1.0], [], path),
        lambda path: verify_cosh_representation(cheb2(), factorize(cheb2()), 2.0, path),
    ], ids=["hyperelliptic", "cosh"])
    def test_start_between_singular_and_regular_rejected(self, integrate):
        # 1e-6 off the zero 1 is too far for a singular end and too near for
        # a plain leg, so the path does not start at a zero
        with pytest.raises(ValueError):
            integrate([1.0 + 1e-6, 2.0])

    def test_duplicate_waypoints_rejected(self):
        with pytest.raises(ValueError):
            hyperelliptic_integral([-1.0, 1.0], [], [1.0, 1.0])

    def test_branch_ambiguity_detected(self):
        from chebotarev import BranchJump
        from chebotarev.quadrature import continue_branch

        # previous root 2j is orthogonal to sqrt(4) = 2: both signs equidistant
        with pytest.raises(BranchJump):
            continue_branch(np.sqrt(np.array([4.0 + 0j])), anchor=2j)

    def test_near_cut_pass_reports_large_error(self, monkeypatch):
        # a segment grazing a branch point cannot be integrated reliably;
        # the error estimate must say so
        from chebotarev import path_integral, quadrature

        monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)
        _, err = path_integral(ComplexPoly([1.0]), [-1.0, 1.0], [0.5 + 1e-9j, 1.5 + 1e-9j])
        assert err > 1e-6


class TestQuadratureClosedForms:
    @pytest.mark.parametrize("x", [1.5, 2.0, 3.0, 7.0])
    def test_inverse_cosh_integral(self, x):
        # integral of 1/sqrt(w^2-1) from 1 to x equals arccosh(x)
        from chebotarev import path_integral

        val, err = path_integral(ComplexPoly([1.0]), [-1.0, 1.0], [1.0, x])
        assert err < 1e-8
        assert abs(abs(val.real) - math.acosh(x)) < 1e-9

    def test_real_part_is_path_independent(self):
        # Re Phi is a Green function: any route clear of branch points gives
        # the same value, even on opposite sides of the continuum
        from chebotarev import path_integral

        zeros = np.exp(2j * np.pi * np.arange(10) / 10)  # branch points on the unit circle
        numer = ComplexPoly([0, 0, 0, 0, 1.0])
        target = 1.8 + 1.3j
        routes = [
            (1.0, target),
            (1.0, 2.5 + 0.2j, target),
            (1.0, 0.5 - 1.5j, 2.2 - 1.0j, 2.6 + 1.2j, target),
        ]
        values = []
        for waypoints in routes:
            val, err = path_integral(numer, zeros, waypoints)
            assert err < 1e-8
            values.append(abs(val.real))
        assert max(values) - min(values) < 1e-8


class TestRouting:
    def test_route_clears_obstacles(self):
        from chebotarev.analysis import route_path
        from chebotarev.quadrature import point_segment_distance

        obstacles = [0.5 + 0.0j, 0.2 - 0.01j, 0.8 + 0.02j]
        path = route_path(0.0, 1.0, obstacles)
        assert path[0] == 0.0 and path[-1] == 1.0
        for o in obstacles:
            clearance = min(point_segment_distance(o, a, b)
                            for a, b in zip(path, path[1:]))
            assert clearance >= 0.06 - 1e-12

    def test_clear_segment_stays_straight(self):
        from chebotarev.analysis import route_path

        assert route_path(0.0, 1.0, [0.5 + 1j]) == [0.0, 1.0]


class TestConditions:
    def test_segment(self):
        report = check_chebotarev_conditions(cheb2())
        assert report.passed
        assert report.max_abs_re < 1e-7
        assert len(report.entries) == 2  # two prescribed, no bifurcation

    @pytest.mark.parametrize("n", [5, 15, 16, 17])
    def test_monomial(self, n):
        # the (n - 1)-fold zero of the cofactor at 0 is root-found as such,
        # not squared into a (2n - 2)-fold one
        report = check_chebotarev_conditions(star(n))
        assert report.passed
        assert report.max_abs_re < 1e-6
        assert report.max_quad_error < 1e-8
        kinds = {e.kind for e in report.entries}
        assert kinds == {"prescribed", "bifurcation"}
        assert len(report.entries) == 2 * n + 1

    def test_cross(self):
        report = check_chebotarev_conditions(cross(1.0))
        assert report.passed and report.max_abs_re < 1e-6

    def test_base_point_is_a_free_parameter(self):
        # the conditions hold no matter which prescribed point anchors Phi
        for base_index in (1, 3):
            report = check_chebotarev_conditions(star(5), base_index=base_index)
            assert report.passed

    def test_disconnected_input_rejected(self):
        with pytest.raises(ValueError):
            check_chebotarev_conditions(t3(2.0))

    def test_segment_of_a_line(self):
        # T = 2z + 0.5 has no critical point: its inverse image is the
        # segment [-0.75, 0.25], connected with no call to the criterion
        report = check_chebotarev_conditions(ComplexPoly([0.5, 2.0]))
        assert [e.point for e in report.entries] == [-0.75, 0.25]
        assert report.passed and report.max_abs_re == 0.0

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_solved_bifurcation_points_need_no_root_solve(self, key, solved_rect, root_solves):
        # the triple zeros of the level form are the d points, and the
        # cofactor divided by them is constant
        sol = solved_rect(*key)
        T = ComplexPoly(sol.poly.coeffs, sol.poly.level)  # nothing stored on it yet
        cset, dset = condition_points(factorize(T))
        assert dset == sorted(sol.points["d"], key=point_key)
        assert root_solves == []

    def test_given_disconnected_verdict_rejected(self, root_solves):
        # the verdict stored by a first is_connected rejects T; T' is not solved again
        T = t3(2.0)
        assert not is_connected(T)
        root_solves.clear()
        with pytest.raises(ValueError):
            check_chebotarev_conditions(T)
        assert T.derivative() not in root_solves

    @pytest.mark.parametrize("T", [star(5), t4(2.0)], ids=["star5", "t4a2"])
    def test_given_factorization_is_used(self, T, factorization_work):
        # the factorization and the verdict stored by first calls serve the
        # conditions: nothing is split, checked or root-solved again
        expected = check_chebotarev_conditions(ComplexPoly(T.coeffs))
        verdict = is_connected(T)
        fac = factorize(T)
        factorization_work.clear()
        assert check_chebotarev_conditions(T) == expected
        assert factorization_work == []
        assert factorize(T) is fac
        assert is_connected(T) is verdict

    @pytest.mark.parametrize("T", [star(5), t4(2.0)], ids=["star5", "t4a2"])
    def test_given_verdict_is_used(self, T, root_solves):
        # after a first is_connected, the conditions look the verdict up:
        # T' is not solved again
        expected = check_chebotarev_conditions(ComplexPoly(T.coeffs))
        verdict = is_connected(T)
        root_solves.clear()
        assert check_chebotarev_conditions(T) == expected
        assert T.derivative() not in root_solves
        assert is_connected(T) is verdict

    def test_report_serializes(self):
        import json
        doc = check_chebotarev_conditions(cheb2()).to_dict()
        json.dumps(doc)
        assert doc["passed"] is True
        assert len(doc["points"]) == 2


class TestConditionPointsFromTheFactorization:
    """``condition_points`` and ``find_crossings`` read the critical points that
    ``factorize`` sorted; neither roots a polynomial."""

    @pytest.mark.parametrize("name", ["star5", "t4_alpha2", "cross_alpha1", "t3_alpha2"])
    def test_no_root_solve(self, name, root_solves):
        T = fixture_poly(name)
        fac = factorize(T)
        root_solves.clear()
        cset, dset = condition_points(fac)
        crossings = find_crossings(T)
        assert root_solves == []
        assert len(dset) == 2 * sum(c.multiplicity for c in fac.free) > 0
        assert len(crossings) == (0 if name == "t3_alpha2" else len(fac.free))

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_same_zeros_as_the_cofactor_quotient(self, name):
        # the route the factorization replaced: root Q, the cofactor divided
        # by the (k - 1) // 2-fold zeros it has at each zero of T^2 - 1
        fac = factorize(fixture_poly(name))
        q = divide_exact(fac.cofactor, ComplexPoly.from_roots(
            [c.center for c in fac.clusters for _ in range((c.multiplicity - 1) // 2)]))
        expected = [c.center for c in fac.clusters for _ in range(c.multiplicity - 2)]
        if q.degree >= 1:
            expected += [r for r in find_roots(q) for _ in range(2)]
        _, dset = condition_points(fac)
        assert len(dset) == len(expected)
        # star5's Q is z^4, a fourfold zero at 0
        tol = 1e-6 if name == "star5" else 1e-12
        for d in dset:
            nearest = min(expected, key=lambda e: abs(e - d))
            assert abs(nearest - d) < tol
            expected.remove(nearest)


class TestGreenConsistency:
    @pytest.mark.parametrize("T", [cheb2(), star(5), cross(1.0), t4(2.0)],
                             ids=["cheb2", "star5", "cross1", "t4a2"])
    def test_integral_matches_closed_form(self, T):
        rng = np.random.default_rng(9)
        radius = 2.5
        count = 0
        for k in range(40):
            if count >= 8:
                break
            z = radius * np.exp(2j * np.pi * (k + rng.uniform(0, 0.5)) / 20)
            if dist_to_interval(T(z)) < 0.1:
                continue
            g_direct = green_function(T, z)
            g_integral, err = green_via_integral(T, z)
            assert err < 1e-7
            assert abs(g_direct - g_integral) < 1e-6
            count += 1
        assert count >= 8

    def test_integral_vanishes_at_branch_points(self, solved_rect):
        # the continuum's own branch points sit on it, where g = 0; each is a
        # singular end of the integrand, including the base point itself
        T = solved_rect(5).poly
        fac = factorize(T)
        for b in fac.branch_points:
            g_integral, _ = green_via_integral(T, b)
            assert g_integral < 1e-9

    @pytest.mark.parametrize("T", [star(5), t4(2.0)], ids=["star5", "t4a2"])
    def test_given_factorization_is_used(self, T, factorization_work):
        # the factorization stored by a first call serves the Green
        # integral: nothing is split, checked or root-solved again
        z = 2.5 * np.exp(0.7j)
        expected = green_via_integral(ComplexPoly(T.coeffs), z)
        fac = factorize(T)
        factorization_work.clear()
        assert green_via_integral(T, z) == expected
        assert factorization_work == []
        assert factorize(T) is fac


class TestProductFormAccuracy:
    """Re Phi on solved rectangles, with the branch product taken factor by
    factor: the coefficient form lost ~1e-12 to cancellation next to the
    singular ends (Higham, Accuracy and Stability of Numerical Algorithms,
    section 5.1)."""

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_conditions_vanish_to_rounding(self, n, solved_rect):
        T = solved_rect(n).poly
        worst = max(check_chebotarev_conditions(T, base_index=b).max_abs_re
                    for b in range(4))
        assert worst < 5e-13

    @pytest.mark.parametrize("n", [5, 6, 7, 8])
    def test_green_integral_matches_closed_form(self, n, solved_rect):
        sol = solved_rect(n)
        r = 2.5 + max(abs(p) for pts in sol.points.values() for p in pts)
        for k in range(24):
            z = r * np.exp(2j * np.pi * (k + 0.2) / 24) * (0.5 + 0.05 * k)
            g_integral, _ = green_via_integral(sol.poly, z)
            assert abs(green_function(sol.poly, z) - g_integral) < 1e-12, k
