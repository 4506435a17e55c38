"""Every oracle in one place: is this polynomial's inverse image minimal?

Given only a coefficient list, the pipeline answers with independent
checks: the square/square-free splitting, the critical-point connectivity
criterion against a pixel oracle, the stationarity conditions by
hyperelliptic quadrature, the cosh identity at a test point, and the two
routes to the Green function.  The subject is the quartic whose continuum
is [-1, 1] plus two crossing arcs.
"""

from chebotarev import (
    ComplexPoly,
    capacity,
    check_chebotarev_conditions,
    complement_connected,
    condition_points,
    factorize,
    green_function,
    green_via_integral,
    grid_oracle,
    is_connected,
    min_deviation,
    verify_cosh_representation,
)

T = ComplexPoly([1.0, 0.0, -8.0 / 17.0, 0.0, 8.0 / 17.0])
print("subject: (8 z^4 - 8 z^2 + 17) / 17\n")

# 1. structure: T^2 - 1 = B * U^2, T' = n R U
fac = factorize(T)
print(f"1. splitting: minimal arcs = {fac.min_arcs}, "
      f"{len(fac.branch_points)} branch points")
cset, dset = condition_points(fac)
print(f"   prescribed points ({len(cset)}): " + ", ".join(f"{c:.4f}" for c in cset))
print(f"   bifurcation points: " + ", ".join(f"{d:.4f}" for d in set(round(x.real, 6) + 1j * round(x.imag, 6) for x in dset)))

# 2. connectivity, twice
verdict = is_connected(T)
grid = grid_oracle(T, resolution=512)
print(f"\n2. connectivity: criterion says {bool(verdict)}, "
      f"grid finds {grid.component_count} component(s), "
      f"complement connected: {complement_connected(grid)}")

# 3. stationarity conditions
report = check_chebotarev_conditions(T)
print(f"\n3. stationarity: max |Re Phi| = {report.max_abs_re:.2e} over "
      f"{len(report.entries)} points "
      f"(quadrature error <= {report.max_quad_error:.1e}) -> passed = {report.passed}")

# 4. the cosh identity at a point off the continuum
residual = verify_cosh_representation(T, [1.0, 2.0])
print(f"\n4. cosh identity at z = 2: residual {residual:.2e}")

# 5. Green function, closed form vs quadrature (T keeps the factorization
#    of step 1, so this and step 3 factorize nothing again)
z = 1.8 + 1.1j
g_direct = green_function(T, z)
g_quad, err = green_via_integral(T, z)
print(f"\n5. green function at {z}: closed form {g_direct:.10f}, "
      f"quadrature {g_quad:.10f} (gap {abs(g_direct - g_quad):.1e})")

# 6. the numbers the minimality buys
print(f"\n6. capacity = {capacity(T):.10f}, "
      f"minimal monic sup-norm = {min_deviation(T):.10f}")
