"""Capacity, Green functions, and the stationarity conditions.

For a degree-n polynomial T with leading coefficient tau and connected
inverse image S of [-1, 1]:

* the logarithmic capacity of S is ``(2 |tau|) ** (-1/n)`` and the minimal
  sup-norm of a monic degree-n polynomial on S is ``1 / |tau|``;
* ``g(z) = (1/n) log |T(z) + sqrt(T(z)^2 - 1)|`` (branch with modulus >= 1)
  is the Green function of the complement with pole at infinity;
* the same Green function is the real part of the hyperelliptic integral
  ``Phi(z) = Integral of sqrt(prod(w - d_j)) / sqrt(prod(w - c_j))`` from a
  point of S, and S is the minimal-capacity continuum through the points
  ``c_j`` exactly when Re Phi vanishes at every ``c_j`` and every ``d_j``.

``Re Phi`` is single valued on the whole plane (it is the Green function),
so integration paths only need to stay clear of branch points; they are
routed around them automatically.  Every Phi here is one call of
:func:`~chebotarev.quadrature.path_integral`, which takes the branch points
themselves and finds the singular path ends: the conditions, the Green
cross-check and the cosh identity ``T = +-cosh(n Phi)`` of
:mod:`~chebotarev.factor` integrate the factorization's cofactor, and
:func:`hyperelliptic_integral` the (c, d) form.
"""

from dataclasses import dataclass

import numpy as np

from .connect import is_connected
from .factor import Factorization, factorize
from .poly import ComplexPoly, cluster_roots, point_key, refine_multiple_root
from .quadrature import SINGULAR_TOL, check_clearance, path_integral, point_segment_distance

#: Branch points are kept at least this far from any integration segment.
ROUTE_MARGIN = 0.06


def capacity(T: ComplexPoly) -> float:
    """Logarithmic capacity of the inverse image of [-1, 1] under T."""
    n = T.degree
    if n < 1 or T.is_zero():
        raise ValueError("capacity needs degree >= 1")
    return float((2.0 * abs(T.leading)) ** (-1.0 / n))


def min_deviation(T: ComplexPoly) -> float:
    """Minimal sup-norm of a monic degree-n polynomial on the inverse image.

    Equals ``2 * capacity(T) ** n`` identically; both are read off tau.
    """
    n = T.degree
    if n < 1 or T.is_zero():
        raise ValueError("min_deviation needs degree >= 1")
    return float(1.0 / abs(T.leading))


def green_function(T: ComplexPoly, z) -> float:
    """Green function of the complement of the inverse image, pole at infinity.

    Computed as ``(1/n) log |q|`` where q is the root of ``q^2 - 2 T(z) q + 1``
    with ``|q| >= 1``.  Nonnegative; zero exactly on the inverse image.
    """
    n = T.degree
    if n < 1 or T.is_zero():
        raise ValueError("green function needs degree >= 1")
    w = complex(T(z))
    if abs(w) > 1e100:
        return float((np.log(2.0) + np.log(abs(w))) / n)
    s = np.sqrt(w * w - 1.0)
    q = w + s
    if abs(q) < 1.0:
        q = w - s
    g = float(np.log(max(abs(q), 1.0)) / n)
    return g


def route_path(start: complex, target: complex, obstacles, depth: int = 8) -> list:
    """Polyline from start to target keeping obstacles ``ROUTE_MARGIN`` away.

    Recursively inserts a perpendicular detour waypoint around the obstacle
    closest to the current segment.  Obstacles hugging an endpoint are left
    alone (the endpoints themselves are allowed to be branch points).
    """
    start = complex(start)
    target = complex(target)
    blockers = []
    for o in obstacles:
        o = complex(o)
        if abs(o - start) < 2 * ROUTE_MARGIN or abs(o - target) < 2 * ROUTE_MARGIN:
            continue
        d = point_segment_distance(o, start, target)
        if d < ROUTE_MARGIN:
            blockers.append((d, o))
    if not blockers or depth <= 0:
        return [start, target]
    _, o = min(blockers, key=lambda t: t[0])
    ab = target - start
    unit = ab / abs(ab)
    normal = 1j * unit
    t = ((o - start).real * ab.real + (o - start).imag * ab.imag) / abs(ab) ** 2
    foot = start + min(1.0, max(0.0, t)) * ab
    side = (o - foot).real * normal.real + (o - foot).imag * normal.imag
    direction = -normal if side >= 0 else normal
    waypoint = foot + direction * (3.0 * ROUTE_MARGIN)
    left = route_path(start, waypoint, obstacles, depth - 1)
    right = route_path(waypoint, target, obstacles, depth - 1)
    return left[:-1] + right


def hyperelliptic_integral(cset, dset, path):
    """Integrate sqrt(prod(w - d_j)) / sqrt(prod(w - c_j)) along a polyline.

    Returns ``(value, error_estimate)``.  The integrand is rearranged as a
    polynomial numerator over one tracked square root: even-multiplicity
    ``d`` factors come out of the root entirely, odd ones join the ``c``
    factors under it.  The path must start at a point of ``cset``.
    """
    cpts = [complex(c) for c in cset]
    scale = 1.0 + max(abs(c) for c in cpts)

    numer_roots = []
    sqrt_roots = list(cpts)
    for cl in cluster_roots(dset, scale=scale, tol=1e-9):
        numer_roots.extend([cl.center] * ((cl.multiplicity + 1) // 2))
        if cl.multiplicity % 2 == 1:
            sqrt_roots.append(cl.center)

    waypoints = [complex(w) for w in path]
    if min(abs(waypoints[0] - c) for c in cpts) > SINGULAR_TOL * scale:
        raise ValueError("path must start at one of the prescribed points")
    ends = [r for r in sqrt_roots
            if min(abs(r - waypoints[0]), abs(r - waypoints[-1])) <= SINGULAR_TOL * scale]
    check_clearance(waypoints, sqrt_roots, ends, 1e-3)

    return path_integral(ComplexPoly.from_roots(numer_roots, 1.0), sqrt_roots, waypoints)


def condition_points(fac: Factorization):
    """Split the factorization data into prescribed and bifurcation points.

    Returns ``(cset, dset)``: the simple zeros of T^2 - 1 and the zero
    multiset, sorted by :func:`~chebotarev.poly.point_key`, of the
    bifurcation polynomial ``cofactor^2 / prod(z - b_j)``, where the ``b_j``
    are the zeros of odd multiplicity >= 3.  A zero of T^2 - 1 of
    multiplicity ``k >= 3`` is a ``(k - 1) // 2``-fold zero of the cofactor,
    so it enters ``dset`` ``k - 2`` times straight from ``fac.clusters``;
    each other m-fold zero of the cofactor, a cluster of ``fac.free``, enters
    ``2 m`` times, refined by :func:`~chebotarev.poly.refine_multiple_root`.
    """
    cset = [c.center for c in fac.clusters if c.multiplicity == 1]
    dset = [c.center for c in fac.clusters for _ in range(c.multiplicity - 2)]
    for c in fac.free:
        m = c.multiplicity
        dset += [refine_multiple_root(fac.cofactor, c.center, m)] * (2 * m)
    return cset, sorted(dset, key=point_key)


@dataclass(frozen=True)
class ConditionEntry:
    point: complex
    kind: str              # "prescribed" or "bifurcation"
    re_phi: float
    quad_error: float


@dataclass(frozen=True)
class ConditionReport:
    entries: tuple
    max_abs_re: float
    max_quad_error: float
    threshold: float
    passed: bool

    def to_dict(self):
        return {
            "points": [
                {
                    "point": [e.point.real, e.point.imag],
                    "kind": e.kind,
                    "re_phi": e.re_phi,
                    "quad_error": e.quad_error,
                    "passed": abs(e.re_phi) < self.threshold,
                }
                for e in self.entries
            ],
            "max_abs_re_phi": self.max_abs_re,
            "max_quad_error": self.max_quad_error,
            "threshold": self.threshold,
            "passed": self.passed,
        }


def _phi(fac: Factorization, base: complex, target: complex):
    """Phi(target) integrated from the branch point ``base``: ``(value, error)``.

    The path is routed around every other branch point; :func:`path_integral`
    treats a target on a branch point as a singular end.  Phi vanishes at its
    own base.
    """
    if target == base:
        return 0j, 0.0
    obstacles = [b for b in fac.branch_points
                 if abs(b - base) > 1e-9 and abs(b - target) > 1e-9]
    return path_integral(fac.cofactor, fac.branch_points, route_path(base, target, obstacles))


def verify_cosh_representation(T: ComplexPoly, fac: Factorization, z: complex, path) -> float:
    """Residual of the cosh representation at a point off the inverse image.

    Integrates ``cofactor / sqrt(branch_poly)`` from a branch point along the
    given polyline to ``z`` and returns
    ``min over signs of | +-cosh(n * integral) - T(z) |``.
    The path must start at a branch point and keep every other branch point
    at distance > 0.05, else :class:`PathTooClose` is raised.
    """
    waypoints = [complex(w) for w in path]
    scale = 1.0 + max(abs(b) for b in fac.branch_points)
    start = [b for b in fac.branch_points if abs(waypoints[0] - b) <= SINGULAR_TOL * scale]
    if not start:
        raise ValueError("path must start at a zero of the branch polynomial")
    check_clearance(waypoints, fac.branch_points, start, 0.05)

    phi, _ = path_integral(fac.cofactor, fac.branch_points, waypoints)
    value = np.cosh(T.degree * phi)
    target = T(z)
    return float(min(abs(value - target), abs(-value - target)))


def check_chebotarev_conditions(T: ComplexPoly, seed: int = 0, threshold: float = 1e-6,
                                base_index: int = 0) -> ConditionReport:
    """Evaluate Re Phi at every prescribed and bifurcation point.

    The continuum solves the minimal-capacity problem for its prescribed
    points exactly when all these real parts vanish; the report carries the
    measured values and quadrature error estimates.  Requires a connected
    inverse image.  A factorization that puts every critical point on
    T = +-1 is connected by the criterion itself; only one with ``free``
    critical points asks :func:`is_connected`, whose verdict ``T`` may
    already store.
    """
    fac = factorize(T, seed=seed)
    if fac.free and not is_connected(T, seed=seed):
        raise ValueError("conditions are only defined for a connected inverse image")
    cset, dset = condition_points(fac)
    base = cset[base_index % len(cset)]

    targets = [(p, "prescribed") for p in cset if p != base]
    targets += [(p, "bifurcation") for p in dict.fromkeys(dset)]

    entries = [ConditionEntry(base, "prescribed", 0.0, 0.0)]
    for point, kind in targets:
        phi, err = _phi(fac, base, point)
        entries.append(ConditionEntry(point, kind, float(phi.real), float(err)))

    max_abs = max(abs(e.re_phi) for e in entries)
    max_err = max(e.quad_error for e in entries)
    return ConditionReport(tuple(entries), max_abs, max_err, threshold, max_abs < threshold)


def green_via_integral(T: ComplexPoly, z: complex, seed: int = 0):
    """|Re Phi(z)| by quadrature -- the integral route to the Green function.

    Starts from the first branch point and routes around the others.
    Returns ``(value, error_estimate)`` for cross-checking against
    :func:`green_function`.
    """
    fac = factorize(T, seed=seed)
    phi, err = _phi(fac, fac.branch_points[0], complex(z))
    return abs(phi.real), float(err)
