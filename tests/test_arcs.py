import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebotarev import arcs as arcs_module
from chebotarev import cli
from chebotarev import poly as poly_module
from chebotarev import (
    Arc,
    ComplexPoly,
    InconsistentFactorization,
    MatchingAmbiguity,
    NotATree,
    arcs_to_csv,
    arcs_to_svg,
    build_graph,
    condition_points,
    dist_to_interval,
    factorize,
    find_crossings,
    grid_oracle,
    junction_angles,
    solve,
    spec_from_dict,
    trace,
)
from chebotarev.poly import point_key

from conftest import cheb2, chebyshev, fixture_poly, spy_everywhere, star, t4, two_intervals


def _gaps(angles):
    angles = sorted(angles)
    return [(angles[(i + 1) % len(angles)] - angles[i]) % (2 * math.pi)
            for i in range(len(angles))]


class TestTraceSegment:
    def test_conjoins_to_single_arc(self):
        arcs = trace(cheb2(), steps=128)
        assert len(arcs) == 1
        arc = arcs[0]
        assert len(arc.conjoined_through) == 1
        assert abs(arc.conjoined_through[0]) < 1e-10
        ends = sorted([arc.start_point, arc.end_point], key=lambda w: w.real)
        assert abs(ends[0] + 1) < 1e-12 and abs(ends[1] - 1) < 1e-12

    def test_too_few_steps_rejected(self):
        assert arcs_module.MIN_STEPS == 64
        with pytest.raises(ValueError, match="steps must be at least 64"):
            trace(cheb2(), steps=63)

    def test_samples_stay_on_the_set(self):
        for arc in trace(cheb2(), steps=128):
            for s in arc.samples:
                assert dist_to_interval(cheb2()(s)) < 1e-8

    def test_levels_in_range(self):
        for arc in trace(cheb2(), steps=128):
            assert all(0.0 <= t <= math.pi for t in arc.levels)


class TestTraceStar:
    def test_five_diameters(self):
        arcs = trace(star(5), steps=256)
        assert len(arcs) == 5
        # endpoints are the 10th roots of unity, and each arc is a diameter
        endpoints = sorted(
            [a.start_point for a in arcs] + [a.end_point for a in arcs],
            key=lambda w: (round(w.real, 8), w.imag),
        )
        expected = sorted((np.exp(1j * np.pi * k / 5) for k in range(10)),
                          key=lambda w: (round(w.real, 8), w.imag))
        assert max(abs(a - b) for a, b in zip(endpoints, expected)) < 1e-8
        for a in arcs:
            assert abs(a.start_point + a.end_point) < 1e-6

    def test_interior_crossing_detected(self):
        crossings = find_crossings(star(5))
        assert len(crossings) == 1
        assert abs(crossings[0]) < 1e-7

    def test_a_line_has_no_crossings(self):
        assert find_crossings(ComplexPoly([0.5, 2.0])) == []

    def test_higher_order_interior_collisions(self):
        # ten arcs pass through the origin at one level; the matcher must
        # carry all ten chains through the pile-up
        T = star(10)
        arcs = trace(T, steps=256)
        assert len(arcs) == 10
        endpoints = sorted(
            [a.start_point for a in arcs] + [a.end_point for a in arcs],
            key=lambda w: (round(w.real, 8), w.imag),
        )
        expected = sorted((np.exp(1j * np.pi * k / 10) for k in range(20)),
                          key=lambda w: (round(w.real, 8), w.imag))
        assert max(abs(a - b) for a, b in zip(endpoints, expected)) < 1e-8
        for arc in arcs:
            for s in arc.samples:
                assert dist_to_interval(T(s)) < 1e-8

    def test_star_graph_is_not_a_tree(self):
        arcs = trace(star(5), steps=128)
        graph = build_graph(arcs)
        assert not graph.is_tree
        assert graph.leaf_count == 10
        assert len(graph.edges) == 5
        with pytest.raises(NotATree):
            build_graph(arcs, expect_tree=True)


class TestTraceQuartic:
    def test_conjoined_arc_count_and_census(self):
        T = t4(2.0)
        arcs = trace(T, steps=256)
        # maximal conjoining leaves min_arcs = 3 analytic arcs; endpoint
        # multiplicity census still counts 2n = 8
        assert len(arcs) == 3
        census = 2 * len(arcs) + 2 * sum(len(a.conjoined_through) for a in arcs)
        assert census == 8

    def test_crossings_at_half_sqrt_two(self):
        hits = sorted(find_crossings(t4(2.0)), key=lambda w: w.real)
        assert len(hits) == 2
        assert abs(hits[0] + 1 / math.sqrt(2)) < 1e-7
        assert abs(hits[1] - 1 / math.sqrt(2)) < 1e-7

    def test_membership_of_samples(self):
        T = t4(2.0)
        for arc in trace(T, steps=128):
            for s in arc.samples:
                assert dist_to_interval(T(s)) < 1e-8


class TestWarmStartedLevels:
    def test_every_level_solve_is_warm_and_settles(self, monkeypatch):
        real_levels, real_find = arcs_module.level_roots, poly_module.find_roots
        settled, retries = [], []

        def spy_levels(T, levels, starts):
            solved = real_levels(T, levels, starts)
            settled.extend(roots is not None for roots in solved)
            return solved

        def no_find(p, *args, **kwargs):
            raise AssertionError("trace solved a level with find_roots")

        def spy_find(p, *args, **kwargs):
            if settled:  # the cold endpoint solves of factorize come first
                retries.append(p)
            return real_find(p, *args, **kwargs)

        monkeypatch.setattr(arcs_module, "level_roots", spy_levels)
        monkeypatch.setattr(arcs_module, "find_roots", no_find)
        monkeypatch.setattr(poly_module, "find_roots", spy_find)
        T = ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * 24 + [1]))
        arcs = trace(T, steps=256)
        assert len(arcs) == 1
        assert len(settled) >= 255 and all(settled)
        assert not retries

    def test_arc_pairing_does_not_depend_on_seed(self):
        # t4(2) has two interior crossings; cold level solves paired the arc
        # ends through them in four ways over these seeds
        def key(w):
            return (round(w.real, 6) + 0.0, round(w.imag, 6) + 0.0)

        pairings = set()
        for seed in range(6):
            arcs = trace(t4(2.0), steps=128, seed=seed)
            pairings.add(tuple((key(a.start_point), key(a.end_point)) for a in arcs))
        assert len(pairings) == 1


class TestTracerEnvelope:
    """Which ``z^n`` and ``T_n`` the tracer handles today, rung by rung."""

    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("n", range(4, 14))
    def test_monomial_traces_to_n_arcs_that_are_not_a_tree(self, n, steps):
        # known limit (ROADMAP item 3): the n chains through the crossing at
        # 0 pair up by their last digits, so the graph is not a tree; this
        # test changes when crossings become graph vertices
        arcs = trace(star(n), steps=steps)
        assert len(arcs) == n
        assert not build_graph(arcs).is_tree

    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("n", range(14, 18))
    def test_monomial_matching_stays_ambiguous(self, n, steps):
        # known limit (ROADMAP item 3): the crossing at 0 defeats the matcher
        with pytest.raises(MatchingAmbiguity, match="still ambiguous"):
            trace(star(n), steps=steps)

    @pytest.mark.parametrize("steps", [128, 256])
    def test_monomial_18_does_not_factorize(self, steps):
        # known limit (ROADMAP item 1): z^18 fails _split's reproduction check
        with pytest.raises(InconsistentFactorization, match="reproduction residual"):
            trace(star(18), steps=steps)

    @pytest.mark.parametrize("steps", [64, 128, 256, 512])
    @pytest.mark.parametrize("n", range(24, 33))
    def test_chebyshev_traces_to_one_arc(self, n, steps):
        assert len(trace(chebyshev(n), steps=steps)) == 1

    @pytest.mark.parametrize("steps", [64, 128, 256, 512])
    def test_t3_alpha2_traces_to_min_arcs(self, steps):
        T = fixture_poly("t3_alpha2")
        assert factorize(T).min_arcs == 2
        assert len(trace(T, steps=steps)) == 2


class TestFindCrossings:
    @pytest.mark.parametrize("b2", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("seed", range(6))
    def test_double_critical_points_merge(self, b2, seed):
        # (z^2 + b^2)^3 / b^6: the crossings +-ib are double zeros of T',
        # whose smeared copies straddle other points in (real, imag) order
        T = ComplexPoly([1.0, 0.0, 3.0 / b2, 0.0, 3.0 / b2**2, 0.0, 1.0 / b2**3])
        hits = sorted(find_crossings(T, seed=seed), key=lambda w: w.imag)
        b = math.sqrt(b2)
        assert len(hits) == 2
        assert abs(hits[0] + 1j * b) < 1e-6 and abs(hits[1] - 1j * b) < 1e-6


class TestJunctionAngles:
    def test_straight_through_segment(self):
        angles = junction_angles(cheb2(), 0.0)
        assert len(angles) == 2
        gaps = _gaps(angles)
        assert all(abs(g - math.pi) < 1e-3 for g in gaps)

    def test_triple_point_of_solved_rectangle(self, solved_rect):
        sol = solved_rect(5)
        for d in sol.points["d"]:
            angles = junction_angles(sol.poly, d)
            assert len(angles) == 3
            gaps = _gaps(angles)
            assert all(abs(g - 2 * math.pi / 3) < 1e-3 for g in gaps)

    def test_simple_zero_rejected(self):
        with pytest.raises(ValueError):
            junction_angles(cheb2(), 1.0)

    @pytest.mark.parametrize("n", [8, 12, 16, 20, 24])
    @pytest.mark.parametrize("k", [1, 3])
    def test_interior_extremum_of_classical_polynomial(self, n, k):
        # cos(k pi / n) is a double zero of T_n^2 - 1: the segment runs
        # straight through it
        T = ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * n + [1]))
        angles = junction_angles(T, math.cos(k * math.pi / n))
        assert len(angles) == 2
        assert all(abs(g - math.pi) < 1e-3 for g in _gaps(angles))


class TestSolvedRectangleStructure:
    def test_tree_shape(self, solved_rect):
        sol = solved_rect(5)
        arcs = trace(sol.poly, steps=256)
        assert len(arcs) == 5
        graph = build_graph(arcs, expect_tree=True)
        assert graph.is_tree
        assert graph.leaf_count == 4
        assert sorted(graph.degrees) == [1, 1, 1, 1, 3, 3]
        assert len(graph.edges) == 5

    def test_conjoining_restores_tree_for_n6(self, solved_rect):
        sol = solved_rect(6)
        arcs = trace(sol.poly, steps=256)
        assert len(arcs) == 5  # six chains, one pair conjoined at the origin
        graph = build_graph(arcs, expect_tree=True)
        assert graph.leaf_count == 4
        assert sorted(graph.degrees) == [1, 1, 1, 1, 3, 3]

    def test_endpoint_census(self, solved_rect):
        for n in (5, 6, 7):
            sol = solved_rect(n)
            arcs = trace(sol.poly, steps=128)
            census = 2 * len(arcs) + 2 * sum(len(a.conjoined_through) for a in arcs)
            assert census == 2 * n

    def test_arc_endpoints_are_level_roots(self, solved_rect):
        sol = solved_rect(5)
        T = sol.poly
        for arc in trace(T, steps=128):
            for e in (arc.start_point, arc.end_point):
                assert abs(T(e) ** 2 - 1.0) < 1e-10


class TestTraceFromFactorization:
    @pytest.mark.parametrize("T", [cheb2(), star(5), t4(2.0)],
                             ids=["cheb2", "star5", "t4a2"])
    def test_same_arcs_as_own_level_roots(self, T, factorization_work):
        # the factorization stored by a first call gives the endpoints:
        # nothing is split, checked or root-solved again
        expected = trace(ComplexPoly(T.coeffs), steps=128)
        crossings = find_crossings(ComplexPoly(T.coeffs))
        fac = factorize(T)
        factorization_work.clear()
        assert trace(T, steps=128) == expected
        assert find_crossings(T) == crossings
        assert factorization_work == []
        assert factorize(T) is fac

    def test_level_form_endpoints_are_the_solved_points(self, solved_rect):
        sol = solved_rect(7)
        points = {p for pts in sol.points.values() for p in pts}
        arcs = trace(sol.poly, steps=128)
        ends = {e for a in arcs for e in (a.start_point, a.end_point)}
        ends |= {q for a in arcs for q in a.conjoined_through}
        assert ends == points
        graph = build_graph(arcs, expect_tree=True)
        assert graph.leaf_count == 4 and len(graph.edges) == 5

    def test_level_form_replaces_cold_endpoint_solves(self, solved_rect, monkeypatch):
        sol = solved_rect(7)
        plain = trace(ComplexPoly(sol.poly.coeffs), steps=128)  # no level form
        real_levels, real_find = arcs_module.level_roots, poly_module.find_roots
        settled, finds = [], []

        def spy_levels(T, levels, starts):
            solved = real_levels(T, levels, starts)
            settled.extend(roots is not None for roots in solved)
            return solved

        def spy_find(p, *args, **kwargs):
            finds.append(p)
            return real_find(p, *args, **kwargs)

        monkeypatch.setattr(arcs_module, "level_roots", spy_levels)
        monkeypatch.setattr(arcs_module, "find_roots", spy_find)
        monkeypatch.setattr(poly_module, "find_roots", spy_find)
        arcs = trace(ComplexPoly(sol.poly.coeffs, sol.poly.level), steps=128)
        assert len(settled) >= 127 and all(settled)
        assert not finds
        assert len(arcs) == len(plain)
        for a, b in zip(arcs, plain):
            assert abs(a.start_point - b.start_point) < 1e-10
            assert abs(a.end_point - b.end_point) < 1e-10

    def test_wrong_level_form_falls_back_to_root_solves(self, solved_rect):
        # rect_n8's level form on rect_n7's coefficients fails factorize's
        # checks; the endpoints then come from the roots of T -+ 1
        T = ComplexPoly(solved_rect(7).poly.coeffs, solved_rect(8).poly.level)
        arcs = trace(T, steps=64)
        assert arcs == trace(ComplexPoly(T.coeffs), steps=64)
        graph = build_graph(arcs, expect_tree=True)
        assert graph.leaf_count == 4 and len(graph.edges) == 5

    def test_does_not_depend_on_seed(self, solved_rect):
        sol = solved_rect(7)
        first = trace(sol.poly, steps=128, seed=0)
        for seed in (1, 2, 3):
            assert trace(sol.poly, steps=128, seed=seed) == first


class TestBlockFallback:
    @pytest.mark.parametrize("position", [0, 5])
    def test_unsettled_level_is_taken_by_bisection(self, solved_rect, monkeypatch, position):
        T = solved_rect(7).poly
        expected = trace(T, steps=128)
        real_levels = arcs_module.level_roots
        blocks = []

        def failing_levels(T, levels, starts):
            solved = real_levels(T, levels, starts)
            blocks.append(list(levels))
            if len(blocks) == 3:
                solved[position] = None
            return solved

        monkeypatch.setattr(arcs_module, "level_roots", failing_levels)
        arcs = trace(T, steps=128)
        # the failed level is solved again on its own, as a one-row block
        assert blocks[3] == [blocks[2][position]]
        assert all(len(b) > 1 for b in blocks[:3] + blocks[4:])
        assert len(arcs) == len(expected)
        for a, b in zip(arcs, expected):
            assert (a.start_point, a.end_point) == (b.start_point, b.end_point)
            assert a.levels == b.levels
            assert max(abs(x - y) for x, y in zip(a.samples, b.samples)) < 1e-9

    def test_bisected_level_completes(self, monkeypatch):
        # z^3 + 0.75 at 256 steps halves one level twice: the crossing at 0
        # is taken by one-row solves at depth 2, and both halves return
        T = ComplexPoly([0.75, 0, 0, 1])
        returned = []
        calls = spy_everywhere(monkeypatch, arcs_module._advance, returned=returned)
        arcs = trace(T, steps=256)
        assert len(calls) == len(returned) == 5
        assert max(args[6] for args in returned if len(args) > 6) == 2
        assert len(arcs) == factorize(T).min_arcs == 3
        assert find_crossings(T) == [0j]

    def test_level_that_never_settles_raises_at_depth_20(self, monkeypatch):
        calls = []

        def never_settles(T, levels, starts):
            calls.append(len(levels))
            return [None] * len(levels)

        monkeypatch.setattr(arcs_module, "level_roots", never_settles)
        with pytest.raises(MatchingAmbiguity):
            trace(cheb2(), steps=64)
        # the first block, then one one-row solve per bisection depth 0..20
        assert calls == [arcs_module._BLOCK] + [1] * 21


class TestTraceCubicFamily:
    def test_conjoin_at_double_zero_and_crossing(self):
        from conftest import t3

        T = t3(0.5)
        arcs = trace(T, steps=256)
        # three chains, two conjoined at the double zero -3/8
        assert len(arcs) == 2
        through = [q for a in arcs for q in a.conjoined_through]
        assert len(through) == 1 and abs(through[0] - (-0.375)) < 1e-8
        census = 2 * len(arcs) + 2 * len(through)
        assert census == 6
        # the bar crosses the segment at (3 + alpha^2)/6 = 13/24
        hits = find_crossings(T)
        assert len(hits) == 1 and abs(hits[0] - 13.0 / 24.0) < 1e-7

    def test_junction_gap_at_double_zero(self):
        from conftest import t3

        angles = junction_angles(t3(0.5), -0.375)
        assert len(angles) == 2
        gaps = _gaps(angles)
        assert all(abs(g - math.pi) < 1e-3 for g in gaps)


class TestDisconnectedTrace:
    def test_two_intervals(self):
        T = two_intervals()
        arcs = trace(T, steps=128)
        assert len(arcs) == 2
        graph = build_graph(arcs)
        assert not graph.is_tree  # two components
        assert graph.leaf_count == 4


class TestGraphSearch:
    @pytest.mark.parametrize("seed", range(24))
    def test_tree_and_connectivity_match_search(self, seed):
        # a random tree, then (by seed) one edge more or one edge fewer
        rng = np.random.default_rng(seed)
        nv = int(rng.integers(3, 8))
        places = [complex(s % 5, s // 5) for s in rng.permutation(25)[:nv].tolist()]
        edges = [[int(rng.integers(v)), v][::int(rng.choice([1, -1]))] for v in range(1, nv)]
        if seed % 3 == 1:
            edges.append(rng.integers(0, nv, 2).tolist())
        elif seed % 3 == 2:
            edges.pop(int(rng.integers(len(edges))))
        jitter = 1e-9 * (rng.normal(size=(len(edges), 2)) + 1j * rng.normal(size=(len(edges), 2)))
        arcs = [Arc(samples=(places[a] + ja, places[b] + jb), levels=(0.0, math.pi),
                    start_point=places[a] + ja, end_point=places[b] + jb)
                for (a, b), (ja, jb) in zip(edges, jitter.tolist())]
        # depth-first search over the vertices that some arc touches
        used = {v for e in edges for v in e}
        seen, todo = set(), [next(iter(used))]
        while todo:
            v = todo.pop()
            if v not in seen:
                seen.add(v)
                todo.extend(b if a == v else a for a, b in edges if v in (a, b))
        connected = seen == used
        is_tree = connected and len(edges) == len(used) - 1
        graph = build_graph(arcs)
        assert len(graph.vertices) == len(used)
        assert graph.is_tree is is_tree
        assert sorted(graph.degrees) == sorted(
            sum((a == v) + (b == v) for a, b in edges) for v in used)
        if is_tree:
            assert build_graph(arcs, expect_tree=True) == graph
        else:
            with pytest.raises(NotATree, match=f"connected={connected}"):
                build_graph(arcs, expect_tree=True)


class TestGridAgreement:
    def test_samples_land_in_member_cells(self):
        T = star(5)
        report = grid_oracle(T, resolution=512)
        n = report.resolution
        x0, y0, x1, y1 = report.bbox
        hx, hy = (x1 - x0) / n, (y1 - y0) / n
        for arc in trace(T, steps=128):
            for s in arc.samples:
                ix = min(n - 1, max(0, int((s.real - x0) / hx)))
                iy = min(n - 1, max(0, int((s.imag - y0) / hy)))
                neighborhood = [
                    (ix + dx) + n * (iy + dy)
                    for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                    if 0 <= ix + dx < n and 0 <= iy + dy < n
                ]
                assert any(report.member.flat[c] for c in neighborhood)


class TestEmission:
    def test_csv_shape(self):
        arcs = trace(cheb2(), steps=128)
        text = arcs_to_csv(arcs)
        lines = text.strip().splitlines()
        assert lines[0] == "arc_id,theta,re,im"
        assert len(lines) == 1 + sum(len(a.samples) for a in arcs)
        parts = lines[1].split(",")
        assert len(parts) == 4
        int(parts[0])
        [float(x) for x in parts[1:]]

    def test_svg_deterministic(self):
        arcs = trace(star(5), steps=128)
        svg1 = arcs_to_svg(arcs, c_points=[1.0, -1.0], d_points=[0.0], z_points=[0.5j])
        svg2 = arcs_to_svg(arcs, c_points=[1.0, -1.0], d_points=[0.0], z_points=[0.5j])
        assert svg1 == svg2
        assert svg1.startswith("<svg ")
        assert svg1.count("<polyline") == len(arcs)
        assert svg1.count("<circle") == 2


class TestBlockAcceptance:
    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("name", ["star5", "t4_alpha2", "cross_alpha1", "t3_alpha05",
                                      "rect_n7", "cheb16"])
    def test_same_arcs_as_matching_every_level(self, name, steps, solved_rect, monkeypatch):
        if name == "rect_n7":
            T = solved_rect(7).poly
        elif name == "cheb16":
            T = chebyshev(16)
        else:
            T = fixture_poly(name)
        real_prefix = arcs_module._clear_prefix
        accepted = []

        def spy_prefix(rows, solved, scale):
            accepted.append(real_prefix(rows, solved, scale))
            return accepted[-1]

        monkeypatch.setattr(arcs_module, "_clear_prefix", spy_prefix)
        arcs = trace(T, steps=steps)
        assert sum(accepted) > steps // 2  # the block test takes most levels
        monkeypatch.setattr(arcs_module, "_clear_prefix", lambda rows, solved, scale: 0)
        assert trace(T, steps=steps) == arcs  # samples and levels compare exactly

    @pytest.mark.parametrize("steps", [128, 256])
    @pytest.mark.parametrize("name", ["rect_n7", "cheb16"])
    def test_only_the_first_level_goes_to_the_matcher(self, name, steps, solved_rect,
                                                      monkeypatch):
        # without crossings the matcher decides level 1 alone, even where it
        # permutes the roots there: the first block's later levels keep its order
        T = solved_rect(7).poly if name == "rect_n7" else chebyshev(16)
        real_match = arcs_module._match
        matched = []

        def spy_match(rows, roots, scale):
            matched.append(len(rows))
            return real_match(rows, roots, scale)

        monkeypatch.setattr(arcs_module, "_match", spy_match)
        trace(T, steps=steps)
        assert matched == [1]

    @staticmethod
    def _block(levels=6):
        # three chains on straight lines, one step of 1e-3 per level, the
        # first two 0.05 apart (within their allowance of 0.213); the first
        # two rows are the accepted rows before the block
        start = np.array([0.0, 0.05j, 20.0 - 2.0j])
        velocity = np.array([1e-3, 1e-3j, -1e-3 + 1e-3j])
        chain = [start + t * velocity for t in range(levels + 2)]
        return chain[:2], chain[2:], 21.0

    @pytest.mark.parametrize("j", range(6))
    def test_swapped_level_ends_the_prefix(self, j):
        rows, solved, scale = self._block()
        assert arcs_module._clear_prefix(rows, solved, scale) == len(solved)
        solved[j] = solved[j][[1, 0, 2]]
        assert arcs_module._clear_prefix(rows, solved, scale) == j
        # the matcher puts that level back in chain order
        cols = arcs_module._match(rows + solved[:j], solved[j], scale)
        assert solved[j][cols].tolist() == solved[j][[1, 0, 2]].tolist()

    @pytest.mark.parametrize("j", range(6))
    def test_unsettled_or_distant_level_ends_the_prefix(self, j):
        rows, solved, scale = self._block()
        far = list(solved)
        far[j] = far[j] + np.array([0.0, 0.0, 0.5])  # nearest, but beyond its allowance
        assert arcs_module._clear_prefix(rows, far, scale) == j
        solved[j] = None
        assert arcs_module._clear_prefix(rows, solved, scale) == j

    def test_first_level_goes_to_the_matcher(self):
        rows, solved, scale = self._block()
        assert arcs_module._clear_prefix(rows[-1:], solved, scale) == 0


class TestLevelStarts:
    """Every level block starts on its curve, so it settles in a few sweeps."""

    @pytest.mark.parametrize("name", ["rect_n7", "cheb16", "cheb24"])
    def test_blocks_settle_in_few_sweeps(self, name, solved_rect, monkeypatch):
        T = solved_rect(7).poly if name == "rect_n7" else chebyshev(int(name[4:]))
        real_sweep, real_levels = poly_module._eval_sweep, arcs_module.level_roots
        count, blocks = [], []

        def sweep(*args):
            count.append(1)
            return real_sweep(*args)

        def spy_levels(T, levels, starts):
            count.clear()
            solved = real_levels(T, levels, starts)
            blocks.append(len(count))
            return solved

        monkeypatch.setattr(poly_module, "_eval_sweep", sweep)
        monkeypatch.setattr(arcs_module, "level_roots", spy_levels)
        trace(T, steps=256)
        assert len(blocks) == -(-255 // arcs_module._BLOCK)  # no level was bisected
        assert blocks[0] <= 4  # the first block, from the Puiseux branches
        assert max(blocks[1:-1]) <= 3  # the interior blocks, from the cubic

    def test_puiseux_starts_follow_the_branches(self):
        # T_4 - 1 = 8 z^2 (z^2 - 1): simple zeros at -1 and 1, a double one at 0
        T = chebyshev(4)
        plus = [c for c in factorize(T).clusters if T(c.center).real >= 0]
        assert [c.multiplicity for c in plus] == [1, 2, 1]
        levels = np.cos(np.pi * np.arange(1, 6) / 64)
        starts = arcs_module._puiseux_starts(T, plus, levels)
        assert starts.shape == (5, 4)
        for row, c in zip(starts, levels):
            assert np.all(np.abs(T(row) - c) < 0.05 * (1.0 - c))  # first order
        # the two branches leave the double zero in opposite directions
        assert np.allclose(starts[:, 1], -starts[:, 2], rtol=0, atol=1e-12)

    def test_zero_derivative_value_starts_at_the_endpoint(self, monkeypatch):
        T = chebyshev(4)
        plus = [c for c in factorize(T).clusters if T(c.center).real >= 0]
        # a "derivative" that vanishes at 1 only: c_1 is 0 for that cluster alone
        monkeypatch.setattr(ComplexPoly, "derivative",
                            lambda self: ComplexPoly.from_roots([1.0]))
        starts = arcs_module._puiseux_starts(T, plus, np.cos(np.pi * np.arange(1, 6) / 64))
        assert np.isfinite(starts).all()
        assert np.all(starts[:, 3] == 1.0)
        assert np.all(starts[:, :3] != np.array([-1.0, 0.0, 0.0]))

    def test_trace_from_the_endpoints_gives_the_same_arcs(self, solved_rect, monkeypatch):
        T = solved_rect(7).poly
        expected = trace(T, steps=128)  # stores the factorization the second trace reads
        monkeypatch.setattr(ComplexPoly, "derivative", lambda self: ComplexPoly.zero())
        arcs = trace(T, steps=128)
        assert len(arcs) == len(expected)
        for a, b in zip(arcs, expected):
            assert (a.start_point, a.end_point) == (b.start_point, b.end_point)
            assert a.levels == b.levels
            assert max(abs(x - y) for x, y in zip(a.samples, b.samples)) < 1e-9

    @pytest.mark.parametrize("spacing", [[0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 1.5, 2.0]])
    def test_extrapolation_is_exact_on_cubics(self, spacing):
        # three chains moving on cubics in theta; the second set of levels
        # has a bisected step before the last row
        h = 0.01

        def curve(t):
            return np.array([1 + t - 2j * t**3, 0.5j + t**2 + t**3, -2.0 + 3j * t])

        levels = [h * s for s in spacing]
        rows = [curve(t) for t in levels]
        thetas = [levels[-1] + h * j for j in range(1, 49)]
        starts = arcs_module._extrapolated(rows, levels, thetas)
        # 48 steps ahead the weights reach ~1e4, so the rounding grows to ~1e-10
        assert np.allclose(starts, [curve(t) for t in thetas], rtol=0, atol=1e-9)
        # with two rows, the line through them
        slope = (rows[-1] - rows[-2]) / (levels[-1] - levels[-2])
        line = arcs_module._extrapolated(rows[-2:], levels[-2:], thetas)
        assert np.allclose(line, [rows[-1] + (t - levels[-1]) * slope for t in thetas],
                           rtol=0, atol=1e-12)


class TestConjoinedOrientation:
    @pytest.mark.parametrize("steps", [128, 256])
    def test_rect_n6_arc_through_the_origin(self, solved_rect, steps):
        arcs = trace(solved_rect(6).poly, steps=steps)
        joined = [a for a in arcs if a.conjoined_through]
        assert len(joined) == 1 and abs(joined[0].conjoined_through[0]) < 1e-12
        arc = joined[0]
        assert point_key(arc.start_point) <= point_key(arc.end_point)
        assert arc.start_point.real < 0 < arc.end_point.real
        assert (arc.samples[0], arc.samples[-1]) == (arc.start_point, arc.end_point)

    @pytest.mark.parametrize("n", [2, 16])
    def test_conjoined_points_in_order_along_the_arc(self, n):
        (arc,) = trace(chebyshev(n), steps=128)
        assert point_key(arc.start_point) <= point_key(arc.end_point)
        through = [q.real for q in arc.conjoined_through]
        assert len(through) == n - 1 and through == sorted(through)

    @staticmethod
    def _rect_n6_chains(solved_rect, monkeypatch):
        """rect_n6 traced at 256 steps, with the chains and doubles ``_conjoin`` got."""
        real_conjoin = arcs_module._conjoin
        calls = []

        def spy(arcs, doubles):
            calls.append((list(arcs), doubles))
            return real_conjoin(arcs, doubles)

        monkeypatch.setattr(arcs_module, "_conjoin", spy)
        traced = trace(solved_rect(6).poly, steps=256)
        chains, doubles = calls[0]
        return real_conjoin, traced, chains, doubles

    def test_swapped_chains_conjoin_to_the_same_arcs(self, solved_rect, monkeypatch):
        real_conjoin, traced, chains, doubles = self._rect_n6_chains(solved_rect, monkeypatch)
        # the two chains leaving the double zero of T - 1 at the origin
        i, j = [k for k, a in enumerate(chains) if abs(a.start_point) < 1e-12]
        swapped = list(chains)
        swapped[i], swapped[j] = chains[j], chains[i]
        assert real_conjoin(list(chains), doubles) == traced
        assert real_conjoin(swapped, doubles) == traced

    def test_bent_chains_still_conjoin_at_a_double_zero(self, solved_rect, monkeypatch):
        # the two level-set branches leave a double zero in opposite
        # directions, so the join must not depend on where the first
        # traced samples point
        real_conjoin, traced, chains, doubles = self._rect_n6_chains(solved_rect, monkeypatch)
        i = next(k for k, a in enumerate(chains) if abs(a.start_point) < 1e-12)
        old = chains[i].samples[1]
        new = old * complex(math.cos(0.05), math.sin(0.05))
        bent = list(chains)
        bent[i] = replace(chains[i], samples=(chains[i].samples[0], new) + chains[i].samples[2:])
        expected = [replace(a, samples=tuple(new if s == old else s for s in a.samples))
                    for a in traced]
        assert real_conjoin(bent, doubles) == expected


def _csv_reference(arcs):
    lines = ["arc_id,theta,re,im"]
    for aid, arc in enumerate(arcs):
        for theta, s in zip(arc.levels, arc.samples):
            lines.append(f"{aid},{theta:.12g},{s.real:.12g},{s.imag:.12g}")
    return "\n".join(lines) + "\n"


def _svg_reference(arcs, c_points=(), d_points=(), z_points=(), size=720):
    pts = [s for a in arcs for s in a.samples]
    pts += [complex(p) for p in list(c_points) + list(d_points) + list(z_points)]
    x0, x1 = min(p.real for p in pts), max(p.real for p in pts)
    y0, y1 = min(p.imag for p in pts), max(p.imag for p in pts)
    w = max(x1 - x0, 1e-6)
    h = max(y1 - y0, 1e-6)
    pad = 0.08 * max(w, h)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    scale = size / max(w, h)
    width, height = w * scale, h * scale

    def sx(p):
        return (p.real - x0) * scale

    def sy(p):
        return height - (p.imag - y0) * scale

    mark = 0.008 * size
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.6g} {height:.6g}">',
        f'<rect x="0" y="0" width="{width:.6g}" height="{height:.6g}" fill="#ffffff"/>',
    ]
    for arc in arcs:
        coords = " ".join(f"{sx(s):.3f},{sy(s):.3f}" for s in arc.samples)
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#1b5f8a" stroke-width="1.6"/>'
        )
    for p in c_points:
        p = complex(p)
        out.append(
            f'<circle cx="{sx(p):.3f}" cy="{sy(p):.3f}" r="{mark:.2f}" fill="#c0392b"/>'
        )
    for p in d_points:
        p = complex(p)
        x, y = sx(p), sy(p)
        m = mark * 1.3
        out.append(
            f'<path d="M {x:.3f} {y - m:.3f} L {x - m:.3f} {y + m:.3f} '
            f'L {x + m:.3f} {y + m:.3f} Z" fill="#1d8348"/>'
        )
    for p in z_points:
        p = complex(p)
        x, y = sx(p), sy(p)
        m = mark
        out.append(
            f'<path d="M {x - m:.3f} {y - m:.3f} L {x + m:.3f} {y + m:.3f} '
            f'M {x - m:.3f} {y + m:.3f} L {x + m:.3f} {y - m:.3f}" '
            f'stroke="#8e44ad" stroke-width="1.8"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _arc(samples, levels):
    return Arc(samples=tuple(samples), levels=tuple(levels),
               start_point=samples[0], end_point=samples[-1])


def _nudged(value, ulps):
    """``value`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


class TestWritersMatchPerSampleFormatting:
    """The writers against per-sample f-string references of the same formats."""

    ODD = [_arc([complex(-0.0, 5e-324), complex(1e-300, -0.0), complex(3.0, -2.0)],
                [0.0, 5e-324, 1.0]),
           _arc([complex(123456789012.5, 1e16), complex(-7.0, 0.25)], [2.0, math.pi]),
           _arc([complex(1.0, 1.0)], [1e-300])]

    @pytest.mark.parametrize("make", [lambda: star(5), lambda: t4(2.0), cheb2])
    def test_real_traces(self, make):
        arcs = trace(make(), steps=128)
        assert arcs_to_csv(arcs) == _csv_reference(arcs)
        points = dict(c_points=[1.0, -1.0 + 0.5j], d_points=[0.0], z_points=[0.5j])
        assert arcs_to_svg(arcs, **points) == _svg_reference(arcs, **points)
        assert arcs_to_svg(arcs) == _svg_reference(arcs)

    def test_odd_values(self):
        for arcs in (self.ODD, self.ODD[:1], self.ODD[2:]):
            assert arcs_to_csv(arcs) == _csv_reference(arcs)
            assert arcs_to_svg(arcs) == _svg_reference(arcs)
        points = dict(c_points=[-0.0, 1e16], d_points=[5e-324j], z_points=[])
        assert arcs_to_svg(self.ODD, **points) == _svg_reference(self.ODD, **points)
        assert arcs_to_svg([], c_points=[2.0]) == _svg_reference([], c_points=[2.0])
        assert arcs_to_csv([]) == "arc_id,theta,re,im\n"
        with pytest.raises(ValueError, match="nothing to draw"):
            arcs_to_svg([])

    def test_signed_zero_levels(self):
        # 0.0 and -0.0 are equal as values but print as "0" and "-0"
        one = _arc([1j, 2j, 3j, 4j], [0.0, -0.0, 0.0, -0.0])
        two = [_arc([1j, 2j], [0.0, 1.0]), _arc([3j, 4j], [-0.0, 1.0])]
        for arcs in ([one], two, two[::-1], [one] + two):
            text = arcs_to_csv(arcs)
            assert text == _csv_reference(arcs)
            assert ",0,0," in text and ",-0,0," in text

    def test_svg_coordinates_at_half_thousandths(self):
        # a frame fixes the view box, and the middle arc's x coordinates land
        # on and next to decimal half-thousandths, where rint(1000 x) can part
        # from "%.3f"
        frame = _arc([0j, complex(10.0, 10.0)], [0.0, math.pi])
        pad = 0.08 * 10.0
        x0 = 0.0 - pad
        scale = 720 / ((10.0 + pad) - x0)
        targets = (60 + np.arange(40) * 15.25 + 0.0005) / scale + x0
        re = np.concatenate([targets + k * np.spacing(targets) for k in range(-3, 4)])
        assert 0 < re.min() and re.max() < 10  # inside the frame
        xs = (re - x0) * scale
        m = np.rint(xs * 1000).astype(int)
        naive = [f"{q // 1000}.{q % 1000:03d}" for q in m.tolist()]
        assert sum(a != "%.3f" % x for a, x in zip(naive, xs.tolist())) >= 10
        arcs = [frame, _arc((re + 5j).tolist(), np.linspace(0, math.pi, len(re)).tolist())]
        assert arcs_to_svg(arcs) == _svg_reference(arcs)

    def test_fixed3_at_the_traps(self):
        values = [-0.0004, -0.0, 0.0, 0.0005, -0.0005, 0.0625, 0.1875, 1.0005, -2.0015,
                  9999.9994, 9999.9996, -9999.9996, 1e4, 123456.7895, 5e-324, -5e-324,
                  math.nan, -math.nan, math.inf, -math.inf]
        seps = np.array([ord(" "), ord(",")] * 10, np.uint8)
        expected = "".join(chr(c) + "%.3f" % v for c, v in zip(seps, values))
        assert arcs_module._fixed3(np.array(values), seps) == expected
        assert expected.startswith(" -0.000,-0.000 0.000,0.001 -0.001,0.062 0.188,")

    @given(st.lists(st.one_of(
        st.floats(),
        st.builds(_nudged, st.integers(-2 * 10**7 - 20, 2 * 10**7 + 20).map(lambda k: k / 2000),
                  st.integers(-4, 4)),
    ), max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_fixed3_matches_percent_format(self, values):
        seps = np.full(len(values), ord(" "), np.uint8)
        expected = "".join(" " + "%.3f" % v for v in values)
        assert arcs_module._fixed3(np.array(values, dtype=float), seps) == expected

    def test_cli_outputs_on_the_trace_benchmark_inputs(self, tmp_path):
        # the ten inputs of the trace benchmark: the solved rectangles'
        # coefficients, two fixture polynomials, T_16 and T_24, at 256 steps
        fixtures = Path(__file__).resolve().parent.parent / "fixtures"
        coeffs = {name: solve(spec_from_dict(json.loads((fixtures / f"{name}.json")
                                                        .read_text()))).poly.coeffs
                  for name in ("rect_n5", "rect_n6", "rect_n7", "rect_n8",
                               "rect_n9_system1", "rect_n9_system2")}
        coeffs.update({f"cheb{n}": np.polynomial.chebyshev.cheb2poly([0] * n + [1])
                       for n in (16, 24)})
        paths = {name: fixtures / f"{name}.json" for name in ("star5", "t4_alpha2")}
        for name, c in coeffs.items():
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(
                {"coeffs": [[complex(a).real, complex(a).imag] for a in c]}))
        for name, path in paths.items():
            out = tmp_path / name
            assert cli.main(["trace", str(path), "--out", str(out), "--steps", "256"]) == 0
            T = cli._read_poly(json.loads(path.read_text()))
            arcs = trace(T, steps=256)
            cset, dset = condition_points(factorize(T))
            points = dict(c_points=cset, d_points=list(dict.fromkeys(dset)),
                          z_points=[q for a in arcs for q in a.conjoined_through])
            assert (out / "arcs.csv").read_text() == _csv_reference(arcs)
            assert (out / "continuum.svg").read_text() == _svg_reference(arcs, **points)
