import math
import tracemalloc

import numpy as np
import pytest

from chebotarev import (
    ComplexPoly,
    GridReport,
    InconsistentFactorization,
    complement_connected,
    dist_to_interval,
    find_roots,
    grid_oracle,
    is_connected,
)

import chebotarev.connect as connect_module
from chebotarev import factorize, find_crossings
from chebotarev.connect import (CONNECT_TOL, CROSSING, CROSSING_TOL, LIPSCHITZ_FACTOR, MINUS,
                                OUTSIDE, PLUS, TOL_MEMBER, UNDECIDED, count_components)
from chebotarev.poly import powers

from conftest import (POLYNOMIAL_FIXTURES, RECT_IDS, RECTANGLES, cheb2, chebyshev, cross,
                      fixture_poly, star, t3, t4, two_intervals)


class TestDistToInterval:
    @pytest.mark.parametrize("w,expected", [
        (0.5, 0.0),
        (2.0, 1.0),
        (1j, 1.0),
        (-3.0, 2.0),
        (1 + 1j, 1.0),
        (0.5 + 0.5j, 0.5),
        (-2 - 1j, math.sqrt(2)),
    ])
    def test_values(self, w, expected):
        assert abs(dist_to_interval(w) - expected) < 1e-14

    def test_array_form(self):
        ws = np.array([0.5, 2.0, 1j, -3.0])
        out = dist_to_interval(ws)
        assert np.allclose(out, [0.0, 1.0, 1.0, 2.0])


class TestCriterion:
    def test_monomial_connected(self):
        verdict = is_connected(star(5))
        assert verdict
        assert len(verdict.witnesses) == 4  # quadruple critical point at 0
        assert all(w.margin < 1e-9 for w in verdict.witnesses)

    @pytest.mark.parametrize("n", [32, 40, 48, 64])
    def test_high_monomials_connected(self, n):
        # the companion matrix of z^(n-1) is nilpotent: every critical point is 0
        verdict = is_connected(star(n))
        assert verdict
        assert len(verdict.witnesses) == n - 1
        assert all(w.point == 0 and w.image == 0 and w.margin == 0 for w in verdict.witnesses)

    def test_cubic_connected_below_threshold(self):
        assert is_connected(t3(0.5))

    def test_cubic_disconnected_above_threshold(self):
        # the critical point (3 + alpha^2)/6 = 7/6 maps outside [-1, 1]
        verdict = is_connected(t3(2.0))
        assert not verdict
        bad = max(verdict.witnesses, key=lambda w: w.margin)
        assert abs(bad.point - 7 / 6) < 1e-9
        assert bad.margin > 1e-3

    def test_degree_one_rejected(self):
        with pytest.raises(ValueError):
            is_connected(ComplexPoly([0, 1]))


class TestStoredVerdict:
    """``is_connected`` stores its verdict on the polynomial object, so the
    later stages that ask about the same ``T`` only look it up."""

    @staticmethod
    def _fresh(solved_rect, key):
        # the session's solved polynomials may carry a stored verdict already
        T = solved_rect(*key).poly
        return ComplexPoly(T.coeffs, T.level)

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_second_call_returns_the_same_object(self, key, solved_rect, root_solves):
        T = self._fresh(solved_rect, key)
        assert is_connected(T) is is_connected(T)
        assert T._verdict is is_connected(T)
        assert root_solves == [T.derivative()]

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_new_polynomials_carry_no_stored_verdict(self, key, solved_rect):
        T = self._fresh(solved_rect, key)
        is_connected(T)
        for other in (T + 0, T.monic(), T.derivative(), ComplexPoly(T.coeffs, T.level)):
            assert other._verdict is None

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_stored_verdict_leaves_identity_alone(self, key, solved_rect):
        T = self._fresh(solved_rect, key)
        plain = ComplexPoly(T.coeffs)
        before = (T == plain, hash(T), repr(T))
        is_connected(T)
        assert (T == plain, hash(T), repr(T)) == before == (True, hash(plain), repr(plain))
        assert plain._verdict is None

    def test_degree_one_stores_nothing(self):
        T = ComplexPoly([0, 1])
        for _ in range(2):
            with pytest.raises(ValueError):
                is_connected(T)
            assert T._verdict is None


def _class_inputs():
    """The polynomial fixtures, T_n, T_n + 0.5 and T_n / (1 - 10^-k) for n <= 16.

    k = 7 is left out: there T_9 ... T_16 mix points on +-1 with undecided
    ones, and all but T_15 fail a check of the split (ROADMAP item 17).
    """
    for name in POLYNOMIAL_FIXTURES:
        yield pytest.param(lambda name=name: fixture_poly(name), id=name)
    for n in range(2, 17):
        yield pytest.param(lambda n=n: chebyshev(n), id=f"T{n}")
        yield pytest.param(lambda n=n: chebyshev(n) + 0.5, id=f"T{n}+0.5")
        for k in (2, 4, 6, 8, 10) if n >= 4 else ():
            yield pytest.param(lambda n=n, k=k: chebyshev(n) * (1.0 / (1.0 - 10.0 ** -k)),
                               id=f"T{n}/(1-1e-{k})")


def _check_classes(T):
    """The class table of ``is_connected`` against the factorization and the crossings."""
    verdict = is_connected(T)
    tol = CONNECT_TOL * (1.0 + max(abs(c) for c in T.coeffs))
    for w in verdict.witnesses:
        # exactly one class, and the margin rules of the classes off +-1
        assert w.kind in (PLUS, MINUS, OUTSIDE, CROSSING, UNDECIDED)
        assert w.kind != OUTSIDE or w.margin >= tol
        assert w.kind != CROSSING or w.margin < CROSSING_TOL
        assert w.kind != UNDECIDED or CROSSING_TOL <= w.margin < tol
    fac = factorize(T)
    for kind, sign in ((PLUS, 1), (MINUS, -1)):
        assert (sum(w.kind == kind for w in verdict.witnesses)
                == sum(c.multiplicity - 1 for c, s in zip(fac.clusters, fac.signs) if s == sign))
    kinds = {w.point: w.kind for w in verdict.witnesses}
    classes = [{kinds[p] for p in c.raw_members} for c in fac.free]
    assert all(CROSSING not in k or k == {CROSSING} for k in classes)
    assert find_crossings(T) == [c.center for c, k in zip(fac.free, classes) if k == {CROSSING}]
    assert verdict.connected == all(w.kind != OUTSIDE for w in verdict.witnesses)


class TestCriticalPointClasses:
    """Each critical point gets one class from ``is_connected``; the
    factorization, the crossings and the verdict read it."""

    @pytest.mark.parametrize("make", _class_inputs())
    def test_classes_agree_with_every_reader(self, make):
        _check_classes(make())

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_solved_rectangle_classes(self, key, solved_rect):
        T = ComplexPoly(solved_rect(*key).poly.coeffs)
        _check_classes(T)
        assert all(w.kind in (PLUS, MINUS) for w in is_connected(T).witnesses)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6])
    def test_off_the_levels_past_the_tolerance_is_outside(self, delta):
        # every critical value of T4 (1 + delta) is delta off +-1: over
        # LEVEL_FLOOR, and at least the tolerance 1e-7 (1 + 8 (1 + delta)) = 9e-7
        verdict = is_connected(chebyshev(4) * (1.0 + delta))
        assert {w.kind for w in verdict.witnesses} == {OUTSIDE}
        assert not verdict

    def test_off_the_levels_under_the_tolerance_is_a_known_limit(self):
        # known limit (ROADMAP item 1): T4 (1 + 5e-7) is disconnected, but
        # 5e-7 is under the tolerance 9e-7 and over CROSSING_TOL, so every
        # critical point is undecided, which the verdict counts as connected
        verdict = is_connected(chebyshev(4) * (1.0 + 5e-7))
        assert {w.kind for w in verdict.witnesses} == {UNDECIDED}
        assert verdict

    @pytest.mark.parametrize("eps,kind,crossings", [(5e-8, CROSSING, [0j]),
                                                    (1.5e-7, UNDECIDED, [])])
    def test_crossing_moved_off_the_interval(self, eps, kind, crossings):
        # z^5 + i eps maps its quadruple critical point 0 to i eps: a crossing
        # within CROSSING_TOL = 1e-7, no crossing past it, and short of the
        # tolerance 2e-7 not outside
        T = star(5) + 1j * eps
        assert {w.kind for w in is_connected(T).witnesses} == {kind}
        assert find_crossings(T) == crossings

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_shift_under_the_floor_stays_on_the_levels(self, key, solved_rect):
        # 3e-9 off +-1 at every multiple zero, 40 times the largest solve
        # residual seen (7.4e-11), is still on the levels under LEVEL_FLOOR
        T = ComplexPoly(solved_rect(*key).poly.coeffs) + 3e-9
        assert all(w.kind in (PLUS, MINUS) for w in is_connected(T).witnesses)
        assert factorize(T).min_arcs == 3


class TestGridOracle:
    def test_segment(self):
        T = cheb2()
        report = grid_oracle(T, resolution=256)
        assert report.component_count == 1
        # member cells hug the segment [-1, 1]
        n = report.resolution
        x0, y0, x1, y1 = report.bbox
        hx, hy = (x1 - x0) / n, (y1 - y0) / n
        h = max(hx, hy)
        for iy, ix in zip(*np.nonzero(report.member)):
            center = complex(x0 + hx * (ix + 0.5), y0 + hy * (iy + 0.5))
            assert dist_to_interval(center) < 6 * h

    def test_two_intervals(self):
        assert grid_oracle(two_intervals(), resolution=512).component_count == 2

    def test_quartic_connected(self):
        assert grid_oracle(t4(2.0), resolution=512).component_count == 1

    def test_cells_near_level_roots_are_members(self):
        T = t4(2.0)
        report = grid_oracle(T, resolution=256)
        n = report.resolution
        x0, y0, x1, y1 = report.bbox
        hx, hy = (x1 - x0) / n, (y1 - y0) / n
        h = max(hx, hy)
        members = report.member
        for r in find_roots(T * T - 1.0):
            ix = int((r.real - x0) / hx)
            iy = int((r.imag - y0) / hy)
            near = [
                (ix + dx, iy + dy)
                for dx in (-1, 0, 1) for dy in (-1, 0, 1)
                if 0 <= ix + dx < n and 0 <= iy + dy < n
            ]
            hits = [
                (jx, jy) for jx, jy in near
                if abs(complex(x0 + hx * (jx + 0.5), y0 + hy * (jy + 0.5)) - r) <= h
                and members[jy, jx]
            ]
            assert hits, f"no member cell within h of level root {r}"

    def test_box_from_level_halves(self):
        # T_24: the box comes from the zeros of T - 1 and T + 1, which lie in
        # [-1, 1]; rooting T^2 - 1 would smear its double zeros off the axis
        T = ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * 24 + [1]))
        bbox = grid_oracle(T, resolution=64).bbox
        assert np.allclose(bbox, (-1.32, -0.12, 1.32, 0.12), rtol=0, atol=1e-4)

    @pytest.mark.parametrize("T", [star(5), t4(2.0), t3(0.5), two_intervals()],
                             ids=["star5", "t4a2", "t3a05", "twoseg"])
    def test_box_from_factorization_clusters(self, T, monkeypatch):
        # the refined cluster centres bound the same raster as the raw roots
        expected = grid_oracle(T, resolution=256)
        fac = factorize(T)

        def no_roots(*args, **kwargs):
            raise AssertionError("root solve although fac was given")

        monkeypatch.setattr(connect_module, "find_roots", no_roots)
        report = grid_oracle(T, resolution=256, fac=fac)
        assert np.allclose(report.bbox, expected.bbox, rtol=0, atol=1e-9)
        assert report.component_count == expected.component_count
        assert np.array_equal(report.member, expected.member)

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_box_from_level_form(self, key, solved_rect):
        # without fac the box comes from the roots of T -+ 1: the level form a
        # polynomial carries is not read, so its own and another rectangle's
        # (rect_n8's on rect_n7's coefficients, ...) give the bare raster
        coeffs = solved_rect(*key).poly.coeffs
        other = RECTANGLES[(RECTANGLES.index(key) + 1) % len(RECTANGLES)]
        bare = grid_oracle(ComplexPoly(coeffs), resolution=256)
        for level in (solved_rect(*key).poly.level, solved_rect(*other).poly.level):
            report = grid_oracle(ComplexPoly(coeffs, level), resolution=256)
            assert report.bbox == bare.bbox
            assert np.array_equal(report.member, bare.member)

    def test_resolution_floor(self):
        with pytest.raises(ValueError):
            grid_oracle(cheb2(), resolution=32)

    def test_box_without_factorization_where_factorize_refuses(self):
        # without fac the box comes from cold roots of T -+ 1, the one route
        # for a polynomial that factorize refuses: expanding B U^2 over the
        # 36 zeros of z^36 - 1 misses its coefficients by 7e-9
        T = star(18)
        with pytest.raises(InconsistentFactorization, match="reproduction residual"):
            factorize(T)
        assert grid_oracle(T, resolution=256).component_count == 1

    def test_peak_memory_is_a_few_rasters(self):
        # the raster is filled band by band: no full-grid complex or float
        # temporary, and labels only for member cells
        T = chebyshev(16)
        grid_oracle(T, resolution=64)
        tracemalloc.start()
        try:
            report = grid_oracle(T, resolution=2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * report.member.nbytes


def _horner_member(T, report):
    """The membership raster from T and T' evaluated cell by cell by Horner."""
    n = report.resolution
    x0, y0, x1, y1 = report.bbox
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    xc = x0 + hx * (np.arange(n) + 0.5)
    yc = y0 + hy * (np.arange(n) + 0.5)
    dist = dist_to_interval(T(xc[None, :] + 1j * yc[:, None]))
    xg = x0 + hx * np.arange(n + 1)
    yg = y0 + hy * np.arange(n + 1)
    dmag = np.abs(T.derivative()(xg[None, :] + 1j * yg[:, None]))
    cellmax = np.maximum(np.maximum(dmag[:-1, :-1], dmag[:-1, 1:]),
                         np.maximum(dmag[1:, :-1], dmag[1:, 1:]))
    return dist < np.maximum(TOL_MEMBER, LIPSCHITZ_FACTOR * max(hx, hy) * cellmax)


FAMILY_DEGREES = range(8, 33)


class TestMatrixRaster:
    """The Taylor-row products give the cell-by-cell Horner raster exactly."""

    @staticmethod
    def _check(T, resolution=512):
        report = grid_oracle(T, resolution=resolution)
        assert np.array_equal(report.member, _horner_member(T, report))
        return report

    @pytest.mark.parametrize("resolution", [64, 100, 513, 1024])
    @pytest.mark.parametrize("source", ["rect_n7", "cheb16"])
    def test_band_edges(self, source, resolution, solved_rect):
        # whole bands, one short band, and a last band of one row
        T = solved_rect(7).poly if source == "rect_n7" else chebyshev(16)
        self._check(T, resolution)

    @pytest.mark.parametrize("name", POLYNOMIAL_FIXTURES)
    def test_fixtures(self, name):
        self._check(fixture_poly(name))

    @pytest.mark.parametrize("key", RECTANGLES, ids=RECT_IDS)
    def test_solved_rectangles(self, key, solved_rect):
        self._check(solved_rect(*key).poly)

    @pytest.mark.parametrize("n", FAMILY_DEGREES)
    def test_chebyshev(self, n):
        self._check(chebyshev(n))

    @pytest.mark.parametrize("n", FAMILY_DEGREES)
    def test_chebyshev_shifted(self, n):
        # T_n in [-1.5, 0.5]: one piece around each minimum of T_n on
        # [-1, 1]; for odd n from 19 on, the Lipschitz margin of the 512^2
        # raster joins two of them
        report = self._check(chebyshev(n) + 0.5)
        if n <= 17 or (n % 2 == 0 and n <= 24):
            assert report.component_count == (n + 1) // 2

    @pytest.mark.parametrize("n", FAMILY_DEGREES)
    def test_monomial(self, n):
        self._check(star(n))


def _unscreened(T, report):
    """The raster of every band evaluated in full, and the screen's ``keep``.

    This is the band loop from before the screen: the Taylor rows about the
    centre line of the box from the roots of T -+ 1, and in each band of 32
    centre rows the two products, the Lipschitz thresholds and the distance
    test on every cell.
    """
    ys = [r.imag for r in find_roots(T - 1.0) + find_roots(T + 1.0)]
    cy = (min(ys) + max(ys)) / 2
    n = report.resolution
    x0, y0, x1, y1 = report.bbox
    hx, hy = (x1 - x0) / n, (y1 - y0) / n
    h = max(hx, hy)
    xc = x0 + hx * (np.arange(n) + 0.5)
    yc = y0 + hy * (np.arange(n) + 0.5)
    xg = x0 + hx * np.arange(n + 1)
    yg = y0 + hy * np.arange(n + 1)
    rows = connect_module._taylor_rows(T.coeffs, np.concatenate([xc, xg]) + 1j * cy)
    at_centers = rows[:n].T
    slope_rows = (rows[n:, 1:] * np.arange(1, T.degree + 1)).T
    center_powers = powers(1j * (yc - cy), T.degree)
    corner_powers = powers(1j * (yg - cy), T.degree - 1)
    member = np.empty((n, n), dtype=bool)
    for r0 in range(0, n, 32):
        r1 = min(r0 + 32, n)
        dmag = np.abs(corner_powers[r0:r1 + 1] @ slope_rows)
        cellmax = np.maximum(np.maximum(dmag[:-1, :-1], dmag[:-1, 1:]),
                             np.maximum(dmag[1:, :-1], dmag[1:, 1:]))
        thresh = np.maximum(TOL_MEMBER, LIPSCHITZ_FACTOR * h * cellmax)
        w = center_powers[r0:r1] @ at_centers
        x = np.maximum(np.abs(w.real) - 1.0, 0.0)
        y = np.abs(w.imag)
        near = (x < thresh) & (y < thresh)
        near[near] = np.hypot(x[near], y[near]) < thresh[near]
        member[r0:r1] = near
    return member, connect_module._screen(T.coeffs, rows[n:], xg, yg, cy, h)


SCREENED = ([("fixture", name) for name in POLYNOMIAL_FIXTURES]
            + [("rect", key) for key in RECTANGLES]
            + [("cheb", n) for n in range(8, 33)]
            + [("star", 8), ("star", 16)]
            + [("shifted", n) for n in (9, 13, 17)]
            + [("noise", 20)])
SCREENED_IDS = ([str(name) for name in POLYNOMIAL_FIXTURES] + [f"rect_{i}" for i in RECT_IDS]
                + [f"T{n}" for n in range(8, 33)] + ["z8", "z16"]
                + [f"T{n}+0.5" for n in (9, 13, 17)] + ["(z-3)^20"])


class TestScreen:
    """Skipping the blocks that a Taylor bound rules out changes no member."""

    @pytest.mark.parametrize("resolution", [64, 256, 512, 513])
    @pytest.mark.parametrize("source", SCREENED, ids=SCREENED_IDS)
    def test_member_is_the_unscreened_raster(self, source, resolution, solved_rect):
        kind, arg = source
        T = {"fixture": fixture_poly, "rect": lambda key: solved_rect(*key).poly,
             "cheb": chebyshev, "star": star,
             "shifted": lambda n: chebyshev(n) + 0.5,
             # expanded, its raster near z = 3 is rounding noise at 512^2: only
             # the screen's rounding margin keeps it from dropping members
             "noise": lambda n: ComplexPoly.from_roots([3.0] * n, 1.0)}[kind](arg)
        report = grid_oracle(T, resolution=resolution)
        member, keep = _unscreened(T, report)
        assert np.array_equal(report.member, member)
        assert report.component_count == count_components(member)
        # no skipped block holds a member of the unscreened raster
        kept = np.repeat(np.repeat(keep, connect_module._BAND, axis=0),
                         connect_module._BLOCK, axis=1)[:resolution, :resolution]
        assert not (member & ~kept).any()
        assert np.count_nonzero(kept) <= report.evaluated <= member.size

    def test_most_cells_are_skipped(self, solved_rect):
        # a screen that keeps every block still gives the right raster, so
        # only the count of evaluated cells shows that it works
        report = grid_oracle(solved_rect(7).poly, resolution=512)
        assert report.evaluated < report.member.size / 2


class TestAgreement:
    @pytest.mark.parametrize("T", [star(5), cheb2(), cross(1.0), t3(0.5),
                                   t3(2.0), t4(2.0), two_intervals()],
                             ids=["star5", "cheb2", "cross1", "t3a05",
                                  "t3a2", "t4a2", "twoseg"])
    def test_criterion_matches_grid(self, T):
        verdict = bool(is_connected(T))
        report = grid_oracle(T, resolution=512)
        assert verdict == (report.component_count == 1)

    @pytest.mark.parametrize("T", [star(5), cheb2(), t3(0.5), t4(2.0),
                                   two_intervals()],
                             ids=["star5", "cheb2", "t3a05", "t4a2", "twoseg"])
    def test_complement_has_no_holes(self, T):
        assert complement_connected(grid_oracle(T, resolution=256))


N4 = ((1, 0), (-1, 0), (0, 1), (0, -1))
N8 = N4 + ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _flood(cells, seeds, steps):
    """The cells of ``cells`` reachable from ``seeds`` through ``steps``."""
    seen = set(seeds) & cells
    stack = list(seen)
    while stack:
        y, x = stack.pop()
        for dy, dx in steps:
            c = (y + dy, x + dx)
            if c in cells and c not in seen:
                seen.add(c)
                stack.append(c)
    return seen


def _report(member):
    """A GridReport for a hand-built raster, components counted by flood fill."""
    cells = set(zip(*np.nonzero(member)))
    count = 0
    while cells:
        cells -= _flood(cells, [next(iter(cells))], N8)
        count += 1
    n = member.shape[0]
    return GridReport((0.0, 0.0, 1.0, 1.0), n, count, member, member.size)


def _reference_complement_connected(member):
    """4-neighbor fill of the non-member cells, seeded from the box boundary."""
    ny, nx = member.shape
    background = set(zip(*np.nonzero(~member)))
    edge = [c for c in background if c[0] in (0, ny - 1) or c[1] in (0, nx - 1)]
    return _flood(background, edge, N4) == background


class TestComplementHoles:
    def test_disconnected_cubic_merges_around_hole(self):
        # at 64^2 the two pieces of t3(2) touch and enclose a hole
        report = grid_oracle(t3(2.0), resolution=64)
        assert report.component_count == 1
        assert complement_connected(report) is False

    def test_annulus_has_hole(self):
        member = np.zeros((12, 12), dtype=bool)
        member[2:10, 2:10] = True
        member[4:8, 4:8] = False
        assert complement_connected(_report(member)) is False

    def test_c_shape_has_none(self):
        member = np.zeros((12, 12), dtype=bool)
        member[2:10, 2:10] = True
        member[4:8, 4:10] = False
        assert complement_connected(_report(member)) is True

    def test_matches_reference_fill_on_random_rasters(self):
        verdicts = []
        for seed in range(240):
            rng = np.random.default_rng(seed)
            member = rng.random((24, 24)) < rng.uniform(0.1, 0.6)
            expected = _reference_complement_connected(member)
            assert complement_connected(_report(member)) is expected, seed
            verdicts.append(expected)
        assert any(verdicts) and not all(verdicts)


def _serpentine(n):
    """Even rows joined at alternating ends: one path through half the cells."""
    member = np.zeros((n, n), dtype=bool)
    member[::2] = True
    member[1::4, -1] = True
    member[3::4, 0] = True
    return member


def _spiral(n):
    """A square spiral of one-cell-wide arms, walked inward from the corner."""
    member = np.zeros((n, n), dtype=bool)
    y, x, dy, dx = 0, 0, 0, 1
    member[y, x] = True
    turns = 0
    while turns < 2:
        ahead, beyond = (y + dy, x + dx), (y + 2 * dy, x + 2 * dx)
        if (0 <= ahead[0] < n and 0 <= ahead[1] < n and not member[ahead]
                and not (0 <= beyond[0] < n and 0 <= beyond[1] < n and member[beyond])):
            (y, x), turns = ahead, 0
            member[y, x] = True
        else:
            dy, dx, turns = dx, -dy, turns + 1
    return member


class TestCountComponents:
    def test_matches_flood_fill_on_random_rasters(self):
        counts = []
        for seed in range(600):
            rng = np.random.default_rng(seed)
            ny, nx = rng.integers(1, 41, size=2)
            if seed % 10 == 0:
                ny = 1
            elif seed % 10 == 1:
                nx = 1
            member = rng.random((ny, nx)) < rng.uniform(0.05, 0.7)
            expected = _report(member).component_count
            assert count_components(member) == expected, seed
            counts.append(expected)
        assert min(counts) == 0 and max(counts) > 50

    @pytest.mark.parametrize("member,expected", [
        (np.zeros((0, 0), dtype=bool), 0),
        (np.zeros((512, 512), dtype=bool), 0),
        (np.ones((512, 512), dtype=bool), 1),
        (np.ones((1, 1), dtype=bool), 1),
        (_serpentine(512), 1),
        (_serpentine(512).T, 1),
        (_spiral(512), 1),
        # 8-neighbours: diagonal steps join the checkerboard into one piece
        (np.add.outer(np.arange(512), np.arange(512)) % 2 == 0, 1),
        # anti-diagonal stripes x + y = 0, 4, ..., 1020 never touch: 256 of them
        (np.add.outer(np.arange(512), np.arange(512)) % 4 == 0, 256),
    ], ids=["empty0", "empty", "full", "single", "serpentine", "serpentine_T",
            "spiral", "checkerboard", "antidiagonal"])
    def test_exact_counts(self, member, expected):
        assert count_components(member) == expected

    @pytest.mark.parametrize("shape,cells,expected", [
        ((6, 7), [(2, 6), (3, 0)], 2),
        ((6, 7), [(2, 0), (3, 6)], 2),
        ((6, 7), [(2, 0), (2, 6)], 2),
        ((6, 7), [(4, 6), (5, 0)], 2),
        ((6, 7), [(4, 0), (5, 6)], 2),
        ((6, 7), [(5, 0), (5, 6)], 2),
        ((6, 1), [(2, 0), (4, 0)], 2),
        ((6, 1), [(3, 0), (5, 0)], 2),
        ((6, 1), [(4, 0), (5, 0)], 1),
    ], ids=["end_to_next_start", "start_to_next_end", "row_ends",
            "last_end_to_start", "last_start_to_end", "last_row_ends",
            "column_gap", "column_gap_last", "column_last_pair"])
    def test_no_join_across_row_wrap(self, shape, cells, expected):
        member = np.zeros(shape, dtype=bool)
        member[tuple(zip(*cells))] = True
        assert count_components(member) == expected == _report(member).component_count
