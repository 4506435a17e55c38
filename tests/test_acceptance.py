"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import math
import time

import numpy as np

from chebotarev import (
    ComplexPoly,
    build_graph,
    capacity,
    check_chebotarev_conditions,
    dist_to_interval,
    factorize,
    green_function,
    green_via_integral,
    grid_oracle,
    is_connected,
    junction_angles,
    level_polynomial,
    min_deviation,
    solve,
    structured_roots,
    trace,
)
from chebotarev.powersum import power_sums

from conftest import cheb2, cross, on_zeros, rect_spec, star, t3, t4, two_intervals


def _criterion(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def _expand(clusters):
    return [c.center for c in clusters for _ in range(c.multiplicity)]


def test_criterion_01_rectangle_n5(solved_rect):
    start = time.perf_counter()
    sol = solve(rect_spec(5), [0.4, 0.6])
    elapsed = time.perf_counter() - start
    beta = sol.point("c", 1).imag
    beta_err = abs(beta - math.sqrt(5.0) / (3.0 * math.sqrt(3.0)))
    d_err = abs(sol.point("d", 1) - 2.0 / 3.0)
    ok = (beta_err < 1e-8 and d_err < 1e-8
          and sol.residual_inf_norm < 1e-11 and elapsed < 1.0)
    _criterion(1, ok,
               f"n=5 rectangle: |beta err|={beta_err:.2e}, |d1 err|={d_err:.2e}, "
               f"residual={sol.residual_inf_norm:.2e}, {elapsed*1e3:.0f} ms")


def test_criterion_02_rectangle_n6(solved_rect):
    sol = solved_rect(6)
    beta = sol.point("c", 1).imag
    beta_err = abs(beta - (2.0 - math.sqrt(3.0)))
    d1 = sol.point("d", 1).real
    oracle = math.sqrt(2.0 * (1.0 - beta * beta) / 3.0)
    d_err = abs(d1 - oracle)

    # the closed form 2*sqrt(2-sqrt(3)) ~ 1.0353 looks plausible for d1 but
    # violates the k=2 power-sum equation; the elimination value above is
    # the one the system actually forces
    tempting = 2.0 * math.sqrt(2.0 - math.sqrt(3.0))
    k2_with_tempting = 4.0 * (1.0 - beta * beta) - 6.0 * tempting**2
    k2_with_oracle = 4.0 * (1.0 - beta * beta) - 6.0 * oracle**2
    discrepancy_documented = abs(k2_with_tempting) > 1.0 and abs(k2_with_oracle) < 1e-12

    ok = beta_err < 1e-8 and d_err < 1e-8 and discrepancy_documented
    _criterion(2, ok,
               f"n=6 rectangle: |beta err|={beta_err:.2e}, |d1 - oracle|={d_err:.2e}; "
               f"k=2 residual is {k2_with_tempting:+.3f} for d1={tempting:.6f} "
               f"but {k2_with_oracle:+.1e} for the oracle value {oracle:.6f}")


def test_criterion_03_rectangle_n7_to_n9(solved_rect):
    cases = [
        (7, 1, {"beta": 0.186748, ("d", 1): 0.848275, ("z", 1): 0.272412}),
        (8, 1, {"beta": 0.138701, ("d", 1): 0.885782, ("z", 1): 0.442891,
                ("z", 2): 0.0}),
        (9, 1, {"beta": 0.10749, ("d", 1): 0.910657, ("z", 1): 0.558978,
                ("z", 3): 0.192993}),
        (9, 2, {"beta": 0.594803, ("d", 1): 0.541874,
                ("z", 1): 0.906406 + 0.49118j}),
    ]
    details = []
    ok = True
    for n, system, targets in cases:
        start = time.perf_counter()
        sol = solve(rect_spec(n, system))
        elapsed = time.perf_counter() - start
        worst = 0.0
        for key, expected in targets.items():
            got = sol.point("c", 1).imag if key == "beta" else sol.point(*key)
            worst = max(worst, abs(got - expected))
        ok = ok and worst < 1e-5 and elapsed < 10.0
        details.append(f"n={n}/s{system}: max dev {worst:.1e} in {elapsed*1e3:.0f} ms")
    _criterion(3, ok, "; ".join(details))


def test_criterion_04_capacity_suite():
    checks = [abs(capacity(cheb2()) - 0.5)]
    for n in range(2, 11):
        checks.append(abs(capacity(star(n)) - 2.0 ** (-1.0 / n)))
    for alpha in (0.0, 0.5, 1.0, 2.0):
        checks.append(abs(capacity(cross(alpha)) - math.sqrt(1 + alpha**2) / 2))
    fixtures = [cheb2(), cross(0.5), cross(2.0), t3(0.5), t4(2.0)] + \
        [star(n) for n in range(2, 11)]
    for T in fixtures:
        checks.append(abs(min_deviation(T) - 2.0 * capacity(T) ** T.degree))
    worst = max(checks)
    _criterion(4, worst < 1e-12, f"capacity suite: worst deviation {worst:.2e}")


def test_criterion_05_factorization_suite():
    rng = np.random.default_rng(20240814)
    built = 0
    worst = 0.0
    attempts = 0
    while built < 100 and attempts < 400:
        attempts += 1
        n_d = int(rng.integers(0, 2))
        n_z = int(rng.integers(0, 3))
        n_c = int(rng.integers(1, 5))
        n = n_c + 3 * n_d + 2 * n_z
        if n < 2 or n > 10:
            continue
        pts = []
        tries = 0
        while len(pts) < n_c + n_d + n_z and tries < 200:
            tries += 1
            cand = complex(*rng.uniform(-1.4, 1.4, 2))
            if all(abs(cand - p) >= 0.35 for p in pts):
                pts.append(cand)
        if len(pts) < n_c + n_d + n_z:
            continue
        tau = complex(*rng.uniform(0.4, 1.2, 2))
        roots = pts[:n_c] + pts[n_c:n_c + n_d] * 3 + pts[n_c + n_d:] * 2
        T = ComplexPoly.from_roots(roots, tau) + 1.0

        fac = factorize(T)
        expected_ell = (n_c + n_d + n) // 2
        assert fac.min_arcs == expected_ell, f"ell {fac.min_arcs} != {expected_ell}"

        p2 = T * T - 1.0
        rebuilt = fac.branch_poly * (fac.square_part * fac.square_part)
        scale = 1.0 + max(abs(c) for c in p2.coeffs)
        r1 = max(abs(a - b) for a, b in zip(p2.coeffs, rebuilt.coeffs)) / scale
        dT = T.derivative()
        rebuilt_d = T.degree * (fac.cofactor * fac.square_part)
        dscale = 1.0 + max(abs(c) for c in dT.coeffs)
        r2 = max(abs(a - b) for a, b in zip(dT.coeffs, rebuilt_d.coeffs)) / dscale
        worst = max(worst, r1, r2)
        built += 1
    ok = built == 100 and worst < 1e-8
    _criterion(5, ok,
               f"factorization suite: {built} random polynomials, "
               f"worst reproduction residual {worst:.2e}")


def test_criterion_06_connectivity_agreement():
    fixtures = {
        "star5": star(5), "cheb2": cheb2(), "cross05": cross(0.5),
        "cross1": cross(1.0), "cross2": cross(2.0), "t3a0": t3(0.0),
        "t3a05": t3(0.5), "t3a2": t3(2.0), "t3a3": t3(3.0),
        "t4a0": t4(0.0), "t4a2": t4(2.0), "twoseg": two_intervals(),
    }
    disagreements = []
    for name, T in fixtures.items():
        verdict = bool(is_connected(T))
        comps = grid_oracle(T, resolution=512).component_count
        if verdict != (comps == 1):
            disagreements.append(f"{name} (criterion={verdict}, comps={comps})")
    _criterion(6, not disagreements,
               f"connectivity agreement on {len(fixtures)} fixtures"
               + (f"; disagreements: {disagreements}" if disagreements else ""))


def test_criterion_07_stationarity_conditions(solved_rect):
    sol5 = solved_rect(5)
    worst_re = 0.0
    worst_err = 0.0
    for T in (sol5.poly, star(5), cross(1.0)):
        report = check_chebotarev_conditions(T)
        worst_re = max(worst_re, report.max_abs_re)
        worst_err = max(worst_err, report.max_quad_error)
    ok = worst_re < 1e-6 and worst_err < 1e-8
    _criterion(7, ok,
               f"conditions: max |Re Phi| = {worst_re:.2e}, "
               f"max quadrature error = {worst_err:.2e}")


def test_criterion_08_green_consistency(solved_rect):
    fixtures = [cheb2(), star(5), cross(1.0), t4(2.0), solved_rect(5).poly]
    worst_gap = 0.0
    worst_asym = 0.0
    for T in fixtures:
        rng = np.random.default_rng(T.degree)
        count = 0
        fac = factorize(T)
        radius = 2.5 + max(abs(b) for b in fac.branch_points)
        k = 0
        while count < 20 and k < 200:
            z = radius * np.exp(2j * np.pi * (k + rng.uniform(0, 0.4)) / 20)
            k += 1
            if dist_to_interval(T(z)) < 0.1:
                continue
            g_direct = green_function(T, z)
            g_integral, err = green_via_integral(T, z)
            worst_gap = max(worst_gap, abs(g_direct - g_integral))
            count += 1
        assert count == 20
        z_far = 1e4 * np.exp(0.3j)
        worst_asym = max(
            worst_asym,
            abs(green_function(T, z_far) - (math.log(abs(z_far)) - math.log(capacity(T)))),
        )
    ok = worst_gap < 1e-6 and worst_asym < 1e-3
    _criterion(8, ok,
               f"green consistency: worst |direct - integral| = {worst_gap:.2e} "
               f"over 20 points x {len(fixtures)} fixtures, "
               f"asymptotic gap {worst_asym:.2e} at |z|=1e4")


def test_criterion_09_tracer_structure(solved_rect):
    sol = solved_rect(5)
    arcs = trace(sol.poly, steps=256)
    graph = build_graph(arcs, expect_tree=True)
    tree_ok = (graph.leaf_count == 4
               and sorted(graph.degrees) == [1, 1, 1, 1, 3, 3]
               and len(graph.edges) == 5)

    gap_dev = 0.0
    for d in sol.points["d"]:
        angles = junction_angles(sol.poly, d)
        gaps = [(sorted(angles)[(i + 1) % 3] - sorted(angles)[i]) % (2 * math.pi)
                for i in range(3)]
        gap_dev = max(gap_dev, max(abs(g - 2 * math.pi / 3) for g in gaps))

    star_arcs = trace(star(5), steps=256)
    endpoints = sorted(
        [a.start_point for a in star_arcs] + [a.end_point for a in star_arcs],
        key=lambda w: (round(w.real, 8), w.imag),
    )
    expected = sorted((np.exp(1j * np.pi * k / 5) for k in range(10)),
                      key=lambda w: (round(w.real, 8), w.imag))
    star_err = max(abs(a - b) for a, b in zip(endpoints, expected))
    star_ok = len(star_arcs) == 5 and star_err < 1e-8

    ok = tree_ok and gap_dev < 1e-3 and star_ok
    _criterion(9, ok,
               f"tracer: n=5 tree {graph.leaf_count} leaves/"
               f"{sorted(graph.degrees).count(3)} branch/{len(graph.edges)} edges, "
               f"junction gap dev {gap_dev:.2e} rad, "
               f"star endpoints within {star_err:.2e}")


def test_criterion_10_power_sum_identity(solved_rect):
    worst = 0.0
    for n, system in [(5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (9, 2)]:
        sol = solved_rect(n, system)
        plus_poly, minus_poly = sol.poly - 1.0, sol.poly + 1.0
        plus = _expand(structured_roots(plus_poly, on_zeros(plus_poly)))
        minus = _expand(structured_roots(minus_poly, on_zeros(minus_poly)))
        gap = np.max(np.abs(power_sums(plus, n - 1) - power_sums(minus, n - 1)))
        worst = max(worst, float(gap))

    target = t4(2.0)
    beta = math.sqrt(1.0 + math.sqrt(17.0))
    z_plus = [(0.0, 2), (1.0, 1), (-1.0, 1)]
    z_minus = [(s1 * beta / 2 + s2 * 2j / beta, 1) for s1 in (1, -1) for s2 in (1, -1)]
    rebuilt = level_polynomial(z_plus, z_minus)
    round_trip = max(abs(a - b) for a, b in zip(rebuilt.coeffs, target.coeffs))

    ok = worst < 1e-8 and round_trip < 1e-9
    _criterion(10, ok,
               f"power sums: worst level-sum gap {worst:.2e} over six solutions; "
               f"level reconstruction round-trip {round_trip:.2e}")
