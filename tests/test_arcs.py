import math

import numpy as np
import pytest

from chebotarev import arcs as arcs_module
from chebotarev import poly as poly_module
from chebotarev import (
    Arc,
    ComplexPoly,
    MatchingAmbiguity,
    NotATree,
    arcs_to_csv,
    arcs_to_svg,
    build_graph,
    dist_to_interval,
    factorize,
    find_crossings,
    grid_oracle,
    junction_angles,
    trace,
)

from conftest import cheb2, star, t4, two_intervals


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
        graph = build_graph(arcs, crossing_points=find_crossings(star(5)))
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
        real_levels = arcs_module.level_roots
        real_circle = poly_module._circle_start
        settled, retries = [], []

        def spy_levels(T, levels, starts):
            solved = real_levels(T, levels, starts)
            settled.extend(roots is not None for roots in solved)
            return solved

        def no_find(p, *args, **kwargs):
            raise AssertionError("trace solved a level with find_roots")

        def spy_circle(a, seed):
            if settled:  # the cold endpoint solves of factorize come first
                retries.append(seed)
            return real_circle(a, seed)

        monkeypatch.setattr(arcs_module, "level_roots", spy_levels)
        monkeypatch.setattr(arcs_module, "find_roots", no_find)
        monkeypatch.setattr(poly_module, "_circle_start", spy_circle)
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
    def test_same_arcs_as_own_level_roots(self, T, monkeypatch):
        expected = trace(T, steps=128)
        fac = factorize(T)

        def no_clusters(*args, **kwargs):
            raise AssertionError("level roots solved although fac was given")

        monkeypatch.setattr(arcs_module, "structured_roots", no_clusters)
        assert trace(T, steps=128, fac=fac) == expected

    def test_level_form_endpoints_are_the_solved_points(self, solved_rect):
        sol = solved_rect(7)
        points = {p for pts in sol.points.values() for p in pts}
        arcs = trace(sol.poly, steps=128, fac=factorize(sol.poly))
        ends = {e for a in arcs for e in (a.start_point, a.end_point)}
        ends |= {q for a in arcs for q in a.conjoined_through}
        assert ends == points
        graph = build_graph(arcs, expect_tree=True)
        assert graph.leaf_count == 4 and len(graph.edges) == 5

    def test_level_form_replaces_cold_endpoint_solves(self, solved_rect, monkeypatch):
        sol = solved_rect(7)
        plain = trace(ComplexPoly(sol.poly.coeffs), steps=128)  # no level form
        real_levels, real_find = arcs_module.level_roots, poly_module.find_roots
        real_circle = poly_module._circle_start
        settled, finds, circles = [], [], []

        def spy_levels(T, levels, starts):
            solved = real_levels(T, levels, starts)
            settled.extend(roots is not None for roots in solved)
            return solved

        def spy_find(p, *args, **kwargs):
            finds.append(p)
            return real_find(p, *args, **kwargs)

        def spy_circle(a, seed):
            circles.append(seed)
            return real_circle(a, seed)

        monkeypatch.setattr(arcs_module, "level_roots", spy_levels)
        monkeypatch.setattr(arcs_module, "find_roots", spy_find)
        monkeypatch.setattr(poly_module, "find_roots", spy_find)
        monkeypatch.setattr(poly_module, "_circle_start", spy_circle)
        arcs = trace(sol.poly, steps=128)
        assert len(settled) >= 127 and all(settled)
        assert not finds and not circles
        assert len(arcs) == len(plain)
        for a, b in zip(arcs, plain):
            assert abs(a.start_point - b.start_point) < 1e-10
            assert abs(a.end_point - b.end_point) < 1e-10

    def test_wrong_level_form_falls_back_to_root_solves(self, solved_rect):
        # rect_n8's level form on rect_n7's coefficients fails factorize's
        # checks; the endpoints then come from the roots of T -+ 1
        T = ComplexPoly(solved_rect(7).poly.coeffs, solved_rect(8).poly.level)
        arcs = trace(T, steps=64)
        assert arcs == trace(T, steps=64, fac=factorize(T))
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

    def test_level_that_never_settles_raises_at_depth_20(self, monkeypatch):
        calls = []

        def never_settles(T, levels, starts):
            calls.append(len(levels))
            return [None] * len(levels)

        monkeypatch.setattr(arcs_module, "level_roots", never_settles)
        with pytest.raises(MatchingAmbiguity):
            trace(cheb2(), steps=64)
        # the first block, then one one-row solve per bisection depth 0..20
        assert calls == [16] + [1] * 21


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
