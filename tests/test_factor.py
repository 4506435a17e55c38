import numpy as np
import pytest

import chebotarev.factor as factor_module
from chebotarev import (
    ComplexPoly,
    InconsistentFactorization,
    LevelForm,
    PathTooClose,
    RootCluster,
    check_chebotarev_conditions,
    dist_to_interval,
    factorize,
    find_roots,
    green_via_integral,
    is_connected,
    verify_cosh_representation,
)

from conftest import (POLYNOMIAL_FIXTURES, RECT_IDS, RECTANGLES, cheb2, chebyshev, cross,
                      fixture_poly, star, t3, t4)


def _max_coeff_diff(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    a = list(p.coeffs) + [0] * (n - len(p.coeffs))
    b = list(q.coeffs) + [0] * (n - len(q.coeffs))
    return max(abs(x - y) for x, y in zip(a, b))


def assert_factorization_consistent(T, fac, min_sep=1e-4):
    p2 = T * T - 1.0
    rebuilt = fac.branch_poly * (fac.square_part * fac.square_part)
    scale = 1.0 + max(abs(c) for c in p2.coeffs)
    assert _max_coeff_diff(p2, rebuilt) < 1e-9 * scale

    dT = T.derivative()
    rebuilt_d = T.degree * (fac.cofactor * fac.square_part)
    dscale = 1.0 + max(abs(c) for c in dT.coeffs)
    assert _max_coeff_diff(dT, rebuilt_d) < 1e-9 * dscale

    assert 1 <= fac.min_arcs <= T.degree
    assert fac.branch_poly.degree == 2 * fac.min_arcs
    assert abs(fac.branch_poly.leading - 1.0) < 1e-12
    assert abs(fac.square_part.leading - T.leading) < 1e-9 * (1 + abs(T.leading))
    pts = fac.branch_points
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            assert abs(pts[i] - pts[j]) > min_sep
    assert sum(c.multiplicity for c in fac.clusters) == 2 * T.degree
    assert fac.branch_points == tuple(c.center for c in fac.clusters if c.multiplicity % 2 == 1)


class TestKnownFactorizations:
    def test_monomial(self):
        T = star(5)
        fac = factorize(T)
        assert fac.min_arcs == 5
        assert _max_coeff_diff(fac.branch_poly, ComplexPoly([-1] + [0] * 9 + [1])) < 1e-9
        assert fac.square_part.degree == 0
        assert _max_coeff_diff(fac.cofactor, ComplexPoly([0, 0, 0, 0, 1])) < 1e-9
        assert_factorization_consistent(T, fac)

    def test_segment_polynomial(self):
        T = cheb2()
        fac = factorize(T)
        assert fac.min_arcs == 1
        assert _max_coeff_diff(fac.branch_poly, ComplexPoly([-1, 0, 1])) < 1e-12
        assert _max_coeff_diff(fac.square_part, ComplexPoly([0, 2])) < 1e-12
        assert _max_coeff_diff(fac.cofactor, ComplexPoly([1])) < 1e-12
        assert_factorization_consistent(T, fac)

    def test_cross(self):
        T = cross(1.0)  # z^2
        fac = factorize(T)
        assert fac.min_arcs == 2
        assert _max_coeff_diff(fac.branch_poly, ComplexPoly([-1, 0, 0, 0, 1])) < 1e-9
        assert fac.square_part.degree == 0
        assert _max_coeff_diff(fac.cofactor, ComplexPoly([0, 1])) < 1e-9
        assert_factorization_consistent(T, fac)

    def test_cubic_family_half(self):
        T = t3(0.5)
        fac = factorize(T)
        assert fac.min_arcs == 2
        # branch points: +-1 and 5/8 +- i/2; the double zero -3/8 goes to
        # the square factor, whose leading coefficient is tau = -64/25
        expected_branch = [1.0, -1.0, 0.625 + 0.5j, 0.625 - 0.5j]
        for e in expected_branch:
            assert min(abs(b - e) for b in fac.branch_points) < 1e-9
        u = fac.square_part
        assert u.degree == 1
        assert abs(u.leading - (-2.56)) < 1e-9
        u_root = -u.coeffs[0] / u.coeffs[1]
        assert abs(u_root - (-0.375)) < 1e-9
        # the remaining critical point 13/24 is the cofactor's only zero
        assert fac.cofactor.degree == 1
        assert abs(-fac.cofactor.coeffs[0] - 13.0 / 24.0) < 1e-9
        assert_factorization_consistent(T, fac)

    @pytest.mark.parametrize("T", [star(5), cheb2(), cross(0.5), cross(2.0),
                                   t3(0.5), t3(2.0), t4(2.0)],
                             ids=["star5", "cheb2", "cross05", "cross2",
                                  "t3a05", "t3a2", "t4a2"])
    def test_consistency_suite(self, T):
        assert_factorization_consistent(T, factorize(T))

    @pytest.mark.parametrize("T", [cheb2(), t3(0.5), t3(2.0), t4(2.0)],
                             ids=["cheb2", "t3a05", "t3a2", "t4a2"])
    def test_square_part_zeros_lie_in_the_inverse_image(self, T):
        fac = factorize(T)
        if fac.square_part.degree < 1:
            pytest.skip("constant square factor")
        for u in find_roots(fac.square_part):
            assert dist_to_interval(T(u)) < 1e-8


class TestClassicalSegmentFamily:
    @staticmethod
    def _classical(n):
        import numpy as np

        a = [np.array([1.0]), np.array([0.0, 1.0])]
        for _ in range(2, n + 1):
            nxt = np.zeros(len(a[-1]) + 1)
            nxt[1:] = 2 * a[-1]
            nxt[: len(a[-2])] -= a[-2]
            a.append(nxt)
        return ComplexPoly(a[n])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 20, 24])
    def test_segment_structure_at_any_degree(self, n):
        # the degree-n polynomial mapping [-1,1] onto itself n-fold: one arc,
        # branch polynomial z^2 - 1, leading coefficient 2**(n-1)
        from chebotarev import capacity

        T = self._classical(n)
        fac = factorize(T)
        assert fac.min_arcs == 1
        assert _max_coeff_diff(fac.branch_poly, ComplexPoly([-1, 0, 1])) < 1e-7
        assert abs(capacity(T) - 0.5) < 1e-12
        assert_factorization_consistent(T, fac)


def _compose(outer, inner):
    """``outer(inner(z))`` by Horner's scheme on polynomials."""
    out = ComplexPoly([outer.leading])
    for c in outer.coeffs[-2::-1]:
        out = out * inner + c
    return out


def _multiplicities(fac):
    return sorted(c.multiplicity for c in fac.clusters)


class TestFactorizationLadder:
    """Bare coefficients, so every multiplicity comes from the critical points."""

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28, 32])
    def test_chebyshev(self, n):
        fac = factorize(chebyshev(n))
        assert fac.min_arcs == 1
        assert _multiplicities(fac) == [1, 1] + [2] * (n - 1)
        exact = np.cos(np.pi * np.arange(n + 1) / n)
        for c in fac.clusters:
            assert np.min(np.abs(exact - c.center)) < 1e-14

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24, 28])
    def test_shifted_chebyshev(self, n):
        fac = factorize(chebyshev(n) + 0.5)
        assert fac.min_arcs == n
        assert _multiplicities(fac) == [1] * (2 * n)

    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_monomial(self, n):
        fac = factorize(star(n))
        assert fac.min_arcs == n
        assert _multiplicities(fac) == [1] * (2 * n)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    def test_chebyshev_composition(self, m):
        # T_m(P) -+ 1 with P = T_4 + 0.5: a double zero v of T_m -+ 1 pulls
        # back to four double zeros, or, at P's critical value v = -0.5 (m = 3
        # and 6), to two quadruple ones; the ends +-1 pull back to 8 simple zeros
        fac = factorize(_compose(chebyshev(m), chebyshev(4) + 0.5))
        quadruple = 2 if m in (3, 6) else 0
        assert fac.min_arcs == 4
        assert _multiplicities(fac) == ([1] * 8 + [2] * (4 * (m - 1) - 2 * quadruple)
                                        + [4] * quadruple)

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_rectangle(self, key, solved_rect):
        T = solved_rect(*key).poly
        fac = factorize(ComplexPoly(T.coeffs))
        assert fac.min_arcs == 3
        for c in fac.clusters:
            p, m = min(T.level.plus + T.level.minus, key=lambda pm: abs(pm[0] - c.center))
            assert c.multiplicity == m and abs(p - c.center) < 1e-10

    def test_high_multiplicities_far_from_the_origin(self):
        # a quadruple, a triple and two double zeros of T - 1 out near |z| = 2:
        # dividing them out of T - 1 leaves a remainder of 7.6e-5 against
        # coefficients up to 2.7e4, over a 1e-9 relative bound, so the simple
        # zeros come from the quotient and _split's reproduction checks judge it
        pts = [0.7 - 1.217j, 1.334 - 0.583j, 1.716 - 0.763j, -1.796 + 1.012j,
               -1.726 + 1.629j, -0.388 + 1.233j, -1.969 + 0.193j]
        roots = pts[:3] + [pts[3]] * 3 + [pts[4]] * 2 + [pts[5]] * 2 + [pts[6]] * 4
        fac = factorize(ComplexPoly.from_roots(roots, 0.531 - 1.111j) + 1.0)
        assert fac.min_arcs == 9
        assert _multiplicities(fac) == [1] * 17 + [2, 2, 3, 4]

    def test_critical_value_under_the_floor_is_a_known_limit(self):
        # a quadruple and a triple zero of T - 1 0.13 apart leave a critical
        # point between them with |T - 1| = 8.6e-8, under LEVEL_FLOOR: it is
        # counted as a double zero, one zero too many for degree 10; the true
        # structure has min_arcs 6
        pts = [2.033 + 1.724j, -0.589 + 0.936j, 0.824 + 2.059j, -0.642 + 0.815j]
        roots = pts[:1] + [pts[1]] * 3 + [pts[2]] * 2 + [pts[3]] * 4
        with pytest.raises(InconsistentFactorization, match="11 zeros .* degree 10"):
            factorize(ComplexPoly.from_roots(roots, -0.216 + 1.478j) + 1.0)

    @pytest.mark.parametrize("T", [chebyshev(32) + 0.5, star(18)], ids=["T32+0.5", "z18"])
    def test_past_the_coefficient_wall(self, T):
        # expanding B U^2 misses T^2 - 1 by more than the reproduction bound
        with pytest.raises(InconsistentFactorization, match="reproduction residual"):
            factorize(T)

    def test_degree_cap(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            factorize(chebyshev(33))


class TestUniqueness:
    def test_root_order_does_not_matter(self):
        T = t4(2.0)
        reference = None
        for seed in (0, 1, 2):
            fac = factorize(T, seed=seed)
            key = (fac.min_arcs,
                   tuple(sorted(((round(b.real, 9), round(b.imag, 9))
                                 for b in fac.branch_points))))
            if reference is None:
                reference = key
            assert key == reference


class TestCoshRepresentation:
    def test_segment_polynomial_at_two(self):
        # closed form: cosh(2 arccosh 2) = 7
        T = cheb2()
        assert verify_cosh_representation(T, [1.0, 2.0]) < 1e-7

    def test_monomial_at_two(self):
        # substituting u = w^5 gives cosh(5 Phi(2)) = 2^5 = 32
        T = star(5)
        assert verify_cosh_representation(T, [1.0, 2.0]) < 1e-6

    def test_near_endpoint_continuity(self):
        T = cheb2()
        z = 1.001
        assert verify_cosh_representation(T, [1.0, z]) < 1e-5

    @pytest.mark.parametrize("end", [3.0, 3j, 1.5 + 0.5j])
    def test_compared_with_T_at_the_path_end(self, end):
        # cosh(2 Phi(z)) = +-(2 z^2 - 1) at the end z of the path, past a waypoint
        T = cheb2()
        assert verify_cosh_representation(T, [1.0, 0.5 * (1.0 + end), end]) < 1e-7
        assert verify_cosh_representation(T, [1.0, 0.5 * (1.0 + end)]) < 1e-7

    def test_path_too_close_rejected(self):
        T = star(5)
        waypoint = 0.99 * np.exp(1j * np.pi / 5)
        with pytest.raises(PathTooClose):
            verify_cosh_representation(T, [1.0, waypoint, 2.0])

    def test_path_must_start_on_branch_point(self):
        T = cheb2()
        with pytest.raises(ValueError):
            verify_cosh_representation(T, [0.5, 2.0])


class TestRandomStructuredPolynomials:
    def test_harder_regime(self):
        # wider roots, two triples allowed, degrees up to 12: the coefficient
        # scale inflates the smear of the critical points that meet at a
        # multiple zero, which their clustering must absorb
        rng = np.random.default_rng(777)
        built = 0
        while built < 40:
            n_d = int(rng.integers(0, 3))
            n_z = int(rng.integers(0, 3))
            n_c = int(rng.integers(1, 5))
            n = n_c + 3 * n_d + 2 * n_z
            if n < 2 or n > 12:
                continue
            pts = []
            tries = 0
            while len(pts) < n_c + n_d + n_z and tries < 300:
                tries += 1
                cand = complex(*rng.uniform(-1.6, 1.6, 2))
                if all(abs(cand - p) >= 0.3 for p in pts):
                    pts.append(cand)
            if len(pts) < n_c + n_d + n_z:
                continue
            tau = complex(*rng.uniform(-1.5, 1.5, 2))
            if abs(tau) < 0.2:
                continue
            roots = pts[:n_c] + pts[n_c:n_c + n_d] * 3 + pts[n_c + n_d:] * 2
            T = ComplexPoly.from_roots(roots, tau) + 1.0
            built += 1
            fac = factorize(T)
            assert fac.min_arcs == (n_c + n_d + n) // 2
            assert_factorization_consistent(T, fac, min_sep=1e-8)

    def test_division_cross_check(self):
        # build T = 1 + tau * prod(simple) * prod(triple)^3 * prod(double)^2
        # and confirm the split recovers the multiplicity structure
        rng = np.random.default_rng(42)
        for _ in range(10):
            pts = []
            while len(pts) < 4:
                cand = complex(*rng.uniform(-1.2, 1.2, 2))
                if all(abs(cand - p) >= 0.5 for p in pts):
                    pts.append(cand)
            simple = pts[:2]
            triple = pts[2:3]
            double = pts[3:4]
            tau = complex(*rng.uniform(0.4, 1.5, 2))
            roots = simple + triple * 3 + double * 2
            T = ComplexPoly.from_roots(roots, tau) + 1.0
            fac = factorize(T)
            n = T.degree
            # odd-multiplicity zeros of T^2-1: the 2 simple + 1 triple from
            # the T-1 side plus the n simple zeros of T+1
            assert fac.min_arcs == (2 + 1 + n) // 2
            assert_factorization_consistent(T, fac)


class TestLevelForm:
    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_solution_carries_its_zeros(self, key, solved_rect):
        sol = solved_rect(*key)
        T, level = sol.poly, sol.poly.level
        assert level is not None and level.tau == sol.tau
        for pairs, value in ((level.plus, 1.0), (level.minus, -1.0)):
            assert sum(m for _, m in pairs) == T.degree
            for p, _ in pairs:
                assert abs(T(p) - value) < 1e-9
        points = sorted((p for pts in sol.points.values() for p in pts),
                        key=lambda w: (w.real, w.imag))
        assert sorted((c.center for side in level.clusters() for c in side),
                      key=lambda w: (w.real, w.imag)) == points

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_factorize_makes_no_root_solve(self, key, solved_rect, root_solves):
        sol = solved_rect(*key)
        T = ComplexPoly(sol.poly.coeffs, sol.poly.level)  # nothing stored on it yet
        fac = factorize(T)
        assert root_solves == []
        assert_factorization_consistent(T, fac)

        plain = factorize(ComplexPoly(sol.poly.coeffs))
        assert len(root_solves) >= 2
        assert fac.min_arcs == plain.min_arcs
        assert ([c.multiplicity for c in fac.clusters]
                == [c.multiplicity for c in plain.clusters])
        for a, b in zip(fac.branch_points, plain.branch_points):
            assert abs(a - b) < 1e-10

    @pytest.mark.parametrize("shift", [-1, 1])
    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_order_survives_ulp_changes(self, key, shift, solved_rect):
        # one ulp on the real part of every other zero, as a conjugate pair
        # whose real parts were computed apart would carry it
        T = solved_rect(*key).poly
        level = T.level

        def nudge(pairs):
            return tuple((complex(np.nextafter(p.real, shift * np.inf), p.imag)
                          if k % 2 else p, m) for k, (p, m) in enumerate(pairs))

        moved = LevelForm(level.tau, nudge(level.plus), nudge(level.minus))
        fac = factorize(T)
        other = factorize(ComplexPoly(T.coeffs, moved))
        assert [c.multiplicity for c in other.clusters] == [c.multiplicity for c in fac.clusters]
        for a, b in zip(other.clusters, fac.clusters):
            assert abs(a.center - b.center) < 1e-15
        for a, b in zip(other.branch_points, fac.branch_points):
            assert abs(a - b) < 1e-15

    @pytest.mark.parametrize("key", [(7, 1), (8, 1), (9, 2)], ids=["n7", "n8", "n9s2"])
    def test_moved_double_zero_fails_the_reproduction_check(self, key, solved_rect):
        # 1e-6 off a double zero, n U no longer divides T'; the reproduction
        # checks judge the split, and T^2 - 1 is the first product that fails
        T = solved_rect(*key).poly
        levels = T.level.clusters()
        side, k = next((side, i) for side, clusters in enumerate(levels)
                       for i, c in enumerate(clusters) if c.multiplicity == 2)
        moved = levels[side][k].center + 1e-6
        levels[side][k] = RootCluster(moved, 2, (moved, moved))
        fresh = ComplexPoly(T.coeffs)
        with pytest.raises(InconsistentFactorization, match=r"T\^2 - 1 reproduction residual"):
            factor_module._split(fresh, *levels, ())
        assert fresh._factorization is None

    @pytest.mark.parametrize("size", [1e-9, 1e-6, 1e-3, 1e-1])
    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_moved_multiple_zero_fails_the_reproduction_check(self, key, size, solved_rect):
        # every double and triple zero, moved in 8 directions: the counts
        # still hold, and T^2 - 1 = B U^2 is the product that fails
        T = solved_rect(*key).poly
        levels = T.level.clusters()
        for side, clusters in enumerate(levels):
            for k, c in enumerate(clusters):
                if c.multiplicity < 2:
                    continue
                for j in range(8):
                    moved = c.center + size * np.exp(2j * np.pi * j / 8)
                    edited = [list(level) for level in levels]
                    edited[side][k] = RootCluster(moved, c.multiplicity, (moved,) * c.multiplicity)
                    fresh = ComplexPoly(T.coeffs)
                    with pytest.raises(InconsistentFactorization, match=r"T\^2 - 1 reproduction"):
                        factor_module._split(fresh, *edited, ())
                    assert fresh._factorization is None

    @pytest.mark.parametrize("edit", ["drop a simple zero", "add a simple zero",
                                      "triple as double", "triple as quadruple"])
    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_miscounted_level_form_falls_back(self, key, edit, solved_rect):
        # the multiplicities sum to 2n -+ 1: _split refuses the level form and
        # stores nothing, and factorize splits on the critical points instead
        T = solved_rect(*key).poly
        plus, minus = list(T.level.plus), list(T.level.minus)
        side, i = next((side, i) for side in (plus, minus)
                       for i, (_, m) in enumerate(side) if m == (1 if "simple" in edit else 3))
        if edit == "drop a simple zero":
            del side[i]
        elif edit == "add a simple zero":
            side.append((5.0 + 0j, 1))
        else:
            side[i] = (side[i][0], 2 if edit == "triple as double" else 4)
        total = sum(m for _, m in plus + minus)
        assert abs(total - 2 * T.degree) == 1
        wrong = ComplexPoly(T.coeffs, LevelForm(T.level.tau, tuple(plus), tuple(minus)))
        # a simple zero holds no critical point, a triple zero two
        message = (f"sum to {total}, not {2 * T.degree}" if "simple" in edit
                   else "not every critical point")
        with pytest.raises(InconsistentFactorization, match=message):
            factor_module._split(wrong, *wrong.level.clusters(), ())
        assert wrong._factorization is None
        assert factorize(wrong) == factorize(ComplexPoly(T.coeffs))

    @pytest.mark.parametrize("edit", ["negated", "swapped"])
    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_level_form_on_the_wrong_levels_falls_back(self, key, edit, solved_rect):
        # the zeros of T^2 - 1 are right but some sit on the other level: -T
        # with the level form of T, or the first zero of T - 1 swapped with
        # the first of T + 1.  Only the level check refuses the form, and
        # factorize splits on the critical points instead
        T = solved_rect(*key).poly
        plus, minus = list(T.level.plus), list(T.level.minus)
        if edit == "negated":
            coeffs = [-c for c in T.coeffs]
        else:
            coeffs, plus[0], minus[0] = T.coeffs, minus[0], plus[0]
        wrong = ComplexPoly(coeffs, LevelForm(T.level.tau, tuple(plus), tuple(minus)))
        with pytest.raises(InconsistentFactorization, match="on the other level"):
            factor_module._split(wrong, *wrong.level.clusters(), ())
        assert wrong._factorization is None
        fac = factorize(wrong)
        assert fac == factorize(ComplexPoly(coeffs))
        assert all((wrong(c.center).real > 0) == (s == 1) for c, s in zip(fac.clusters, fac.signs))

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_level_form_leaves_identity_alone(self, key, solved_rect):
        T = solved_rect(*key).poly
        plain = ComplexPoly(T.coeffs)
        assert T == plain and hash(T) == hash(plain)
        assert repr(T) == repr(plain)
        assert (T + 0).level is None
        assert (T * 1).level is None

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_foreign_level_form_falls_back_to_root_solves(self, key, solved_rect,
                                                          root_solves):
        # the next rectangle in the list; n9 system 1 and 2 share the degree
        other = RECTANGLES[(RECTANGLES.index(key) + 1) % len(RECTANGLES)]
        T = solved_rect(*key).poly
        wrong = ComplexPoly(T.coeffs, solved_rect(*other).poly.level)
        fac = factorize(wrong)
        assert len(root_solves) >= 2
        assert fac == factorize(ComplexPoly(T.coeffs))


class TestStoredFactorization:
    """``factorize`` stores its checked result on the polynomial object, so
    the later stages that factorize the same ``T`` only look it up."""

    @staticmethod
    def _fresh(solved_rect, key):
        # the session's solved polynomials may carry a stored result already
        T = solved_rect(*key).poly
        return ComplexPoly(T.coeffs, T.level)

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_second_call_returns_the_same_object(self, key, solved_rect):
        T = self._fresh(solved_rect, key)
        assert factorize(T) is factorize(T)

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_construct_and_certify_splits_once(self, key, solved_rect, splits):
        # the certifying calls of a construct-and-certify loop: the Re Phi
        # conditions, then the Green integral at 8 points off the continuum
        sol = solved_rect(*key)
        T = self._fresh(solved_rect, key)
        assert check_chebotarev_conditions(T).passed
        radius = 2.5 + max(abs(p) for pts in sol.points.values() for p in pts)
        for k in range(8):
            value, err = green_via_integral(T, radius * np.exp(2j * np.pi * (k + 0.3) / 8))
            assert value > 0 and err < 1e-7
        assert splits == [T]

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_construct_and_certify_solves_nothing(self, key, solved_rect, root_solves):
        # the level form gives every critical point on T = +-1, so neither the
        # conditions nor the Green integrals root a polynomial, T' included
        sol = solved_rect(*key)
        T = self._fresh(solved_rect, key)
        root_solves.clear()
        assert check_chebotarev_conditions(T).passed
        radius = 2.5 + max(abs(p) for pts in sol.points.values() for p in pts)
        for k in range(8):
            green_via_integral(T, radius * np.exp(2j * np.pi * (k + 0.3) / 8))
        assert root_solves == []

    def test_refused_polynomial_stores_nothing(self):
        T = star(18)
        for _ in range(2):
            with pytest.raises(InconsistentFactorization, match="reproduction residual"):
                factorize(T)
            assert T._factorization is None

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_new_polynomials_carry_no_stored_result(self, key, solved_rect):
        T = self._fresh(solved_rect, key)
        fac = factorize(T)
        assert T._factorization is fac
        for other in (T + 0, T.monic(), T.derivative(), ComplexPoly(T.coeffs, T.level)):
            assert other._factorization is None

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_stored_result_leaves_identity_alone(self, key, solved_rect):
        T = self._fresh(solved_rect, key)
        plain = ComplexPoly(T.coeffs)
        before = (T == plain, hash(T), repr(T))
        factorize(T)
        assert (T == plain, hash(T), repr(T)) == before == (True, hash(plain), repr(plain))
        assert plain._factorization is None


@pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES + [f"rect_{key}" for key in RECT_IDS]
                         + ["T16", "T24"])
def test_stored_result_does_not_depend_on_the_first_caller(name, solved_rect):
    # the stored result is whatever the first call computed, with or without
    # a verdict stored on T before it; both give the same
    def build():
        if name.startswith("rect_"):
            return ComplexPoly(solved_rect(*RECTANGLES[RECT_IDS.index(name[5:])]).poly.coeffs)
        if name in ("T16", "T24"):
            return chebyshev(int(name[1:]))
        return fixture_poly(name)

    fresh, checked = build(), build()
    is_connected(checked)
    assert checked._verdict is not None and fresh._verdict is None
    assert factorize(fresh) == factorize(checked)
