import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from chebotarev import (
    DegenerateSolution,
    NoConvergence,
    PointVar,
    PowerSumViolation,
    ProblemSpec,
    SignConfig,
    SolverOptions,
    default_initial,
    enumerate_sign_configs,
    level_polynomial,
    residual,
    solution_to_dict,
    solve,
    spec_from_dict,
    structured_roots,
)
from chebotarev.powersum import _signed_points, jacobian, power_sums, resolve_points, unknown_layout

from conftest import INTEGER_FIELDS, on_zeros, rect_spec, t4

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


class TestSignConfig:
    def test_balance_enforced(self):
        with pytest.raises(ValueError):
            SignConfig(5, (1, 1, 1, 1), (-1, 1), ())

    def test_block_sizes_enforced(self):
        with pytest.raises(ValueError):
            SignConfig(5, (1, 1, -1, -1), (-1,), ())
        with pytest.raises(ValueError):
            SignConfig(4, (1, 1, -1, -1), (-1, 1), ())  # needs n >= 2 nu - 3

    def test_triple_block_checked_before_degree(self):
        with pytest.raises(ValueError, match="expected 2 triple signs, got 1"):
            SignConfig(4, (1, 1, -1, -1), (-1,), ())

    @pytest.mark.parametrize("nu, n", [(2, 5), (4, 4)])
    def test_config_and_enumeration_give_one_message(self, nu, n):
        with pytest.raises(ValueError) as from_config:
            SignConfig(n, (1,) * nu, (1,) * max(nu - 2, 0), ())
        with pytest.raises(ValueError) as from_enumeration:
            enumerate_sign_configs(nu, n)
        assert str(from_config.value) == str(from_enumeration.value)

    @pytest.mark.parametrize("nu, n", [(3, 6), (3, 9), (4, 5), (4, 8), (5, 7)])
    def test_enumerate_matches_brute_force(self, nu, n):
        sizes = (nu, nu - 2, n - 2 * nu + 3)
        expected = [
            blocks
            for blocks in itertools.product(
                *(itertools.product((1, -1), repeat=k) for k in sizes))
            if sum(blocks[0]) + 3 * sum(blocks[1]) + 2 * sum(blocks[2]) == 0
            and all(list(b) == sorted(b, reverse=True) for b in blocks)
        ]
        expected.sort(key=lambda blocks: tuple(-b.count(1) for b in blocks))
        got = [(c.simple_signs, c.triple_signs, c.double_signs)
               for c in enumerate_sign_configs(nu, n)]
        assert got == expected

    def test_enumerate_counts(self):
        assert len(enumerate_sign_configs(3, 6)) == 4
        assert len(enumerate_sign_configs(3, 7)) == 4

    def test_enumerate_all_balanced(self):
        for nu, n in [(3, 6), (3, 9), (4, 5), (4, 8), (5, 7)]:
            for cfg in enumerate_sign_configs(nu, n):
                assert cfg.balance == 0

    def test_rectangle_system_included(self):
        configs = enumerate_sign_configs(4, 5)
        fingerprints = {cfg.block_plus_counts for cfg in configs}
        # the rectangle system (+,+,-,-) / (-,+) with no doubles
        assert (2, 1, 0) in fingerprints

    def test_rectangle_n6_system_included(self):
        fingerprints = {cfg.block_plus_counts for cfg in enumerate_sign_configs(4, 6)}
        assert (4, 0, 1) in fingerprints


class TestResidual:
    def test_rectangle_solution_annihilates(self):
        spec = rect_spec(5)
        beta = math.sqrt(5.0 / 27.0)
        r = residual(spec, [beta, 2.0 / 3.0])
        assert np.max(np.abs(r)) < 1e-12

    def test_first_power_sum_by_hand(self):
        # at (beta, d1) = (0.4, 0.6): Re S_1 = 4 - 6 * 0.6 = 0.4
        spec = rect_spec(5)
        r = residual(spec, [0.4, 0.6])
        assert abs(r[0] - 0.4) < 1e-12
        assert abs(r[1]) < 1e-12  # symmetric configuration: Im S_1 = 0

    def test_all_points_at_origin_gives_zero_vector(self):
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [PointVar("c", i, "fixed", value=0.0) for i in range(1, 5)]
        vars_ += [PointVar("d", i, "fixed", value=0.0) for i in (1, 2)]
        spec = ProblemSpec(config, vars_)
        assert np.max(np.abs(residual(spec, []))) == 0.0

    def test_too_many_unknowns_rejected(self):
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [PointVar("c", i, "free_complex", initial=0.1 * i) for i in range(1, 5)]
        vars_ += [PointVar("d", i, "free_complex", initial=0.5j * i) for i in (1, 2)]
        with pytest.raises(ValueError):
            ProblemSpec(config, vars_)

    def test_link_cycle_rejected(self):
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [
            PointVar("c", 1, "linked", kind="negate", target=("c", 2)),
            PointVar("c", 2, "linked", kind="negate", target=("c", 1)),
            PointVar("c", 3, "fixed", value=2.0),
            PointVar("c", 4, "fixed", value=-2.0),
            PointVar("d", 1, "fixed", value=0.5),
            PointVar("d", 2, "fixed", value=-0.5),
        ]
        with pytest.raises(ValueError):
            ProblemSpec(config, vars_)

    def test_dangling_link_rejected(self):
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [
            PointVar("c", 1, "free_imag", value=1.0),
            PointVar("c", 2, "linked", kind="conjugate", target=("c", 7)),
            PointVar("c", 3, "fixed", value=-1.0),
            PointVar("c", 4, "fixed", value=-2.0),
            PointVar("d", 1, "free_real"),
            PointVar("d", 2, "linked", kind="negate", target=("d", 1)),
        ]
        with pytest.raises(ValueError, match=r"link target \('c', 7\) does not exist"):
            ProblemSpec(config, vars_)


class TestJacobian:
    def test_random_variable_structures(self):
        # random mixtures of statuses, anchors and link chains; the analytic
        # derivative must track finite differences regardless of shape
        rng = np.random.default_rng(2024)
        statuses = ["fixed", "free_complex", "free_real", "free_imag"]
        kinds = ["conjugate", "negate", "negate_conjugate"]

        def random_spec():
            while True:
                nu = int(rng.integers(3, 6))
                n = int(rng.integers(2 * nu - 3, 2 * nu + 4))
                configs = enumerate_sign_configs(nu, n)
                cfg = configs[rng.integers(0, len(configs))]
                keys = ([("c", i + 1) for i in range(nu)]
                        + [("d", i + 1) for i in range(len(cfg.triple_signs))]
                        + [("z", i + 1) for i in range(len(cfg.double_signs))])
                vars_ = []
                placed = []
                budget = 2 * (n - 1)
                used = 0
                for role, idx in keys:
                    choices = statuses + (["linked"] * 2 if placed else [])
                    status = choices[rng.integers(0, len(choices))]
                    if status == "free_complex" and used + 2 > budget:
                        status = "free_real"
                    if status in ("free_real", "free_imag") and used + 1 > budget:
                        status = "fixed"
                    if status == "linked":
                        target = placed[rng.integers(0, len(placed))]
                        vars_.append(PointVar(role, idx, "linked",
                                              kind=kinds[rng.integers(0, 3)],
                                              target=target))
                    else:
                        used += {"free_complex": 2, "free_real": 1,
                                 "free_imag": 1}.get(status, 0)
                        vars_.append(PointVar(
                            role, idx, status,
                            value=complex(*rng.uniform(-1, 1, 2)),
                            initial=complex(*rng.uniform(-1, 1, 2)),
                        ))
                    placed.append((role, idx))
                return ProblemSpec(cfg, vars_)

        for _ in range(20):
            spec = random_spec()
            m = len(unknown_layout(spec))
            if m == 0:
                continue
            x = rng.uniform(-0.8, 0.8, m)
            J = jacobian(spec, x)
            fd = np.empty_like(J)
            for j in range(m):
                h = 1e-6 * (1 + abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (residual(spec, xp) - residual(spec, xm)) / (2 * h)
            scale = 1.0 + np.max(np.abs(J))
            assert np.max(np.abs(J - fd)) / scale < 1e-6

    @pytest.mark.parametrize("spec_key", [(5, 1), (8, 1), (9, 2)])
    def test_matches_central_differences(self, spec_key):
        n, system = spec_key
        spec = rect_spec(n, system)
        m = len(unknown_layout(spec))
        rng = np.random.default_rng(11)
        for _ in range(20):
            x = rng.uniform(0.2, 0.9, m)
            J = jacobian(spec, x)
            fd = np.empty_like(J)
            for j in range(m):
                h = 1e-6 * (1.0 + abs(x[j]))
                xp, xm = x.copy(), x.copy()
                xp[j] += h
                xm[j] -= h
                fd[:, j] = (residual(spec, xp) - residual(spec, xm)) / (2 * h)
            scale = 1.0 + np.max(np.abs(J))
            assert np.max(np.abs(J - fd)) / scale < 1e-6


class TestSolve:
    def test_rectangle_n5_exact_values(self):
        sol = solve(rect_spec(5), [0.4, 0.6])
        assert abs(sol.point("c", 1).imag - math.sqrt(5.0 / 27.0)) < 1e-10
        assert abs(sol.point("d", 1) - 2.0 / 3.0) < 1e-10
        assert abs(sol.point("d", 2) + 2.0 / 3.0) < 1e-10
        assert sol.residual_inf_norm < 1e-11
        assert sol.poly.degree == 5
        # the rebuilt polynomial takes the values +-1 at all prescribed points
        for role in ("c", "d"):
            for p in sol.points[role]:
                assert abs(abs(sol.poly(p)) - 1.0) < 1e-9

    def test_rectangle_n6_free_tangency_point_is_driven_to_zero(self):
        config = SignConfig(6, (1, 1, 1, 1), (-1, -1), (1,))
        vars_ = [
            PointVar("c", 1, "free_imag", value=1.0, initial=1.0 + 0.3j),
            PointVar("c", 2, "linked", kind="conjugate", target=("c", 1)),
            PointVar("c", 3, "linked", kind="negate_conjugate", target=("c", 1)),
            PointVar("c", 4, "linked", kind="negate", target=("c", 1)),
            PointVar("d", 1, "free_real", initial=0.8),
            PointVar("d", 2, "linked", kind="negate", target=("d", 1)),
            PointVar("z", 1, "free_real", initial=0.1),
        ]
        sol = solve(ProblemSpec(config, vars_))
        assert abs(sol.point("z", 1)) < 1e-10

    def test_heuristic_defaults_solve_without_declared_initials(self):
        # interior points fall back to the centroid / spread heuristic
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [
            PointVar("c", 1, "free_imag", value=1.0, initial=1.0 + 0.4j),
            PointVar("c", 2, "linked", kind="conjugate", target=("c", 1)),
            PointVar("c", 3, "linked", kind="negate_conjugate", target=("c", 1)),
            PointVar("c", 4, "linked", kind="negate", target=("c", 1)),
            PointVar("d", 1, "free_real"),  # no initial: centroid heuristic
            PointVar("d", 2, "linked", kind="negate", target=("d", 1)),
        ]
        sol = solve(ProblemSpec(config, vars_))
        assert abs(abs(sol.point("d", 1)) - 2.0 / 3.0) < 1e-9

    def test_no_convergence_raises(self):
        spec = rect_spec(7)
        tight = ProblemSpec(spec.config, spec.vars, SolverOptions(max_iter=1))
        with pytest.raises(NoConvergence):
            solve(tight, [0.9, 0.1, 0.9])

    def test_non_finite_start_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            solve(rect_spec(5), [1.0, np.nan])

    def test_nan_tolerance_never_converges(self):
        # every comparison with NaN is false: the residual test must not pass
        spec = rect_spec(5)
        loose = ProblemSpec(spec.config, spec.vars, SolverOptions(residual_tol=math.nan))
        with pytest.raises(NoConvergence):
            solve(loose)

    def test_point_collision_raises(self):
        # every point pinned at the origin: all power sums vanish, so the
        # residual is already zero, but the point set is degenerate
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = [PointVar("c", i, "fixed", value=0.0) for i in range(1, 5)]
        vars_ += [PointVar("d", i, "fixed", value=0.0) for i in (1, 2)]
        with pytest.raises(DegenerateSolution):
            solve(ProblemSpec(config, vars_))

    def test_capacity_and_tau_consistent(self):
        sol = solve(rect_spec(5))
        n = sol.config.degree
        assert abs(sol.capacity - (2 * abs(sol.tau)) ** (-1 / n)) < 1e-14


class TestBuildPolynomial:
    def test_negative_points_hit_minus_one(self):
        sol = solve(rect_spec(5))
        T = level_polynomial(*_signed_points(sol.config, sol.points))
        assert abs(T.level.tau - sol.tau) < 1e-9 * (1 + abs(sol.tau))
        for role in ("c", "d", "z"):
            signs = sol.config.signs_for(role)
            for idx, s in enumerate(signs):
                p = sol.points[role][idx]
                target = 1.0 if s == 1 else -1.0
                assert abs(T(p) - target) < 1e-8

    def test_points_violating_the_system_are_rejected(self):
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        points = {"c": (1 + 0.4j, 1 - 0.4j, -1 + 0.4j, -1 - 0.4j),
                  "d": (0.9, -0.9), "z": ()}
        with pytest.raises(PowerSumViolation):
            level_polynomial(*_signed_points(config, points))


class TestLevelReconstruction:
    def test_identity_map(self):
        T = level_polynomial([(1.0, 1)], [(-1.0, 1)])
        assert abs(T.level.tau - 1.0) < 1e-14
        assert np.allclose(T.coeffs, [0.0, 1.0])

    def test_segment_polynomial(self):
        # 2z^2 - 1: level sets {+-1} and {0, 0}; tau = -2/((0-1)(0+1)) = 2
        T = level_polynomial([(1.0, 1), (-1.0, 1)], [(0.0, 2)])
        assert abs(T.level.tau - 2.0) < 1e-14
        assert np.allclose(T.coeffs, [-1.0, 0.0, 2.0])

    def test_quartic_family_round_trip(self):
        target = t4(2.0)
        beta = math.sqrt(1.0 + math.sqrt(17.0))
        z_plus = [(0.0, 2), (1.0, 1), (-1.0, 1)]
        z_minus = [(s1 * beta / 2 + s2 * 2j / beta, 1) for s1 in (1, -1) for s2 in (1, -1)]
        T = level_polynomial(z_plus, z_minus)
        assert abs(T.level.tau - 8.0 / 17.0) < 1e-12
        diffs = [abs(a - b) for a, b in zip(T.coeffs, target.coeffs)]
        assert max(diffs) < 1e-9

    def test_power_sum_violation_detected(self):
        with pytest.raises(PowerSumViolation):
            level_polynomial([(1.0, 1), (-1.0, 1)], [(0.5, 1), (-0.2, 1)])

    def test_shared_point_rejected(self):
        with pytest.raises(ValueError):
            level_polynomial([(1.0, 1), (-1.0, 1)], [(1.0, 1), (-1.0, 1)])


class TestSolutionInvariants:
    @pytest.mark.parametrize("n,system", [(5, 1), (7, 1), (9, 2)])
    def test_solutions_are_connected_by_construction(self, n, system, solved_rect):
        from chebotarev import is_connected

        sol = solved_rect(n, system)
        assert is_connected(sol.poly)

    @pytest.mark.parametrize("n,system", [(5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (9, 2)])
    def test_minimal_arc_count_is_nu_minus_one(self, n, system, solved_rect):
        from chebotarev import factorize

        sol = solved_rect(n, system)
        fac = factorize(sol.poly)
        assert fac.min_arcs == sol.config.num_simple - 1

    @pytest.mark.parametrize("n", [5, 7])
    def test_square_part_zeros_map_into_the_segment(self, n, solved_rect):
        from chebotarev import dist_to_interval, factorize, find_roots

        sol = solved_rect(n)
        fac = factorize(sol.poly)
        for u in find_roots(fac.square_part):
            assert dist_to_interval(sol.poly(u)) < 1e-8


class TestSolvedLevelSets:
    @pytest.mark.parametrize("n,system", [(5, 1), (6, 1), (7, 1)])
    def test_power_sum_identity_on_solutions(self, n, system, solved_rect):
        # recover the level roots from the coefficients alone (multiplicity
        # aware, so triple roots carry full precision) and check the sums
        sol = solved_rect(n, system)
        plus_poly, minus_poly = sol.poly - 1.0, sol.poly + 1.0
        plus = [c.center for c in structured_roots(plus_poly, on_zeros(plus_poly))
                for _ in range(c.multiplicity)]
        minus = [c.center for c in structured_roots(minus_poly, on_zeros(minus_poly))
                 for _ in range(c.multiplicity)]
        sp = power_sums(plus, n - 1)
        sm = power_sums(minus, n - 1)
        assert np.max(np.abs(sp - sm)) < 1e-8


class TestLevelExtractionRoundTrip:
    def test_random_polynomials_reconstruct_from_their_levels(self):
        # extract the root multisets of T -+ 1 from the coefficients, feed
        # them back through the level reconstruction, and demand the original
        # coefficients (scale-aware: tau is shared by both level products)
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            roots = [complex(*rng.uniform(-1.2, 1.2, 2)) for _ in range(n)]
            tau = complex(*rng.uniform(0.4, 1.3, 2))
            from chebotarev import ComplexPoly

            T = ComplexPoly.from_roots(roots, tau) + 1.0
            plus = [(c.center, c.multiplicity)
                    for c in structured_roots(T - 1.0, critical=on_zeros(T - 1.0))]
            minus = [(c.center, c.multiplicity)
                     for c in structured_roots(T + 1.0, critical=on_zeros(T + 1.0))]
            rebuilt = level_polynomial(plus, minus)
            assert abs(rebuilt.level.tau - tau) < 1e-7 * (1 + abs(tau))
            scale = 1.0 + max(abs(c) for c in T.coeffs)
            gap = max(abs(a - b) for a, b in zip(rebuilt.coeffs, T.coeffs))
            assert gap < 1e-7 * scale


class TestWireFormat:
    def test_fixture_parses_and_solves(self):
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        spec = spec_from_dict(doc)
        sol = solve(spec)
        assert abs(sol.point("d", 1) - 2.0 / 3.0) < 1e-9

    def test_malformed_document_raises_value_error(self):
        with pytest.raises(ValueError):
            spec_from_dict({"n": 5, "nu": 4})
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        doc["n"] = math.inf
        with pytest.raises(ValueError, match="cannot convert float infinity"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        for field, entry in (("value", [value, 0.0]), ("initial", [1.0, value])):
            doc = json.loads((FIXTURES / "rect_n5.json").read_text())
            doc["vars"][0][field] = entry
            with pytest.raises(ValueError, match="non-finite"):
                spec_from_dict(doc)
        for option in ("max_iter", "damping", "residual_tol"):
            doc = json.loads((FIXTURES / "rect_n5.json").read_text())
            doc["options"][option] = value
            with pytest.raises(ValueError, match="non-finite"):
                spec_from_dict(doc)

    @pytest.mark.parametrize("field, entry", [
        ("value", True), ("value", "1"), ("value", None), ("initial", "1+0.4j"),
        ("initial", [1.0]), ("initial", [1.0, 0.4, 0.0]), ("initial", [True, 0.4]),
        ("initial", [1.0, "0.4"]), ("max_iter", True), ("damping", "0.001"),
        ("residual_tol", [1e-12]),
    ])
    def test_non_numbers_rejected(self, field, entry):
        # complex() and float() alone read true as 1 and "1+0.4j" as a number
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        if field in ("value", "initial"):
            doc["vars"][0][field] = entry
        else:
            doc["options"][field] = entry
        with pytest.raises(ValueError, match="malformed problem document: expected a real"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("field", list(INTEGER_FIELDS))
    @pytest.mark.parametrize("make", [str, lambda v: v + 0.5, lambda v: True],
                             ids=["string", "fraction", "boolean"])
    def test_integer_fields_take_integers_only(self, field, make):
        # int() alone reads "7" as 7, 7.5 as 7 and true as 1
        doc = json.loads((FIXTURES / "rect_n7.json").read_text())
        holder, key = INTEGER_FIELDS[field](doc)
        holder[key] = make(holder[key])
        with pytest.raises(ValueError, match="malformed problem document: expected "
                                             "(an integer|a real number)"):
            spec_from_dict(doc)

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(options=[]), "options must be an object, got []"),
        (lambda doc: doc.update(options="fast"), "options must be an object, got 'fast'"),
        (lambda doc: doc.update(options=None), "options must be an object, got None"),
        (lambda doc: doc["vars"].__setitem__(0, "x"), "each vars entry must be an object"),
        (lambda doc: doc["vars"].__setitem__(2, [1, 2]), "each vars entry must be an object"),
    ], ids=["options-list", "options-string", "options-null", "vars-string", "vars-list"])
    def test_containers_must_be_objects(self, edit, message):
        # these reached .get on a list or a string and escaped as AttributeError
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        edit(doc)
        with pytest.raises(ValueError, match=re.escape(f"malformed problem document: {message}")):
            spec_from_dict(doc)

    def test_integral_floats_read_as_integers(self):
        doc = json.loads((FIXTURES / "rect_n7.json").read_text())
        for field in INTEGER_FIELDS:
            holder, key = INTEGER_FIELDS[field](doc)
            holder[key] = float(holder[key])
        spec = spec_from_dict(doc)
        assert spec == spec_from_dict(json.loads((FIXTURES / "rect_n7.json").read_text()))
        assert type(spec.config.degree) is int and type(spec.options.max_iter) is int
        assert all(type(v.index) is int for v in spec.vars)
        assert type(spec.vars[1].target[1]) is int

    def test_solution_dict_shape(self):
        sol = solve(rect_spec(5))
        doc = solution_to_dict(sol)
        assert doc["n"] == 5 and doc["nu"] == 4
        assert len(doc["c"]) == 4 and len(doc["d"]) == 2 and doc["z"] == []
        assert len(doc["coeffs"]) == 6
        assert all(len(pair) == 2 for pair in doc["c"])
        json.dumps(doc)  # must be serializable as-is


class TestResolution:
    def test_linked_values(self):
        spec = rect_spec(5)
        pts = resolve_points(spec, [0.4, 0.6])
        assert pts[("c", 2)] == pts[("c", 1)].conjugate()
        assert pts[("c", 4)] == -pts[("c", 1)]
        assert pts[("c", 3)] == -pts[("c", 1)].conjugate()
        assert pts[("d", 2)] == -pts[("d", 1)]


class TestDefaultInitial:
    """Start values of free points declared without ``initial``."""

    def test_tangency_points_spread_along_the_longest_chord(self):
        doc = json.loads((FIXTURES / "rect_n8.json").read_text())
        corners = [1 + 0.15j, 0.9 - 0.2j, -1.3 + 0.1j, -0.8 - 0.3j]
        doc["vars"][:4] = [{"role": "c", "index": k, "status": "fixed", "value": [c.real, c.imag]}
                           for k, c in enumerate(corners, 1)]
        for var in doc["vars"]:
            if var["role"] == "z" and var["status"] != "linked":
                var["status"] = "free_complex"
                del var["initial"]
        spec = spec_from_dict(doc)
        pts = resolve_points(spec, default_initial(spec))
        # c1 and c3 are the most distant pair; three double signs make quarters
        start, end = corners[0], corners[2]
        for k in (1, 2):
            assert pts[("z", k)] == pytest.approx(start + k / 4 * (end - start), abs=1e-15)
        assert pts[("z", 3)] == -pts[("z", 1)]
        assert pts[("d", 1)] == pytest.approx(0.9)

    @pytest.mark.parametrize("status, value", [("free_imag", 1.0), ("free_complex", 0.5 + 0.7j)])
    def test_free_point_starts_at_its_value(self, status, value):
        doc = json.loads((FIXTURES / "rect_n5.json").read_text())
        doc["vars"][0].update(status=status, value=[value.real, value.imag])
        del doc["vars"][0]["initial"]
        spec = spec_from_dict(doc)
        pts = resolve_points(spec, default_initial(spec))
        assert pts[("c", 1)] == value
        assert pts[("c", 4)] == -value
        assert pts[("d", 1)] == 0.6
