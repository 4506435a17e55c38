"""The square / square-free splitting of T^2 - 1 and its derivative cofactor.

For any degree-n polynomial T with leading coefficient tau there is a unique
decomposition

    T(z)^2 - 1 = B(z) * U(z)^2

with B monic of even degree 2*ell and simple zeros (exactly the zeros of
T^2 - 1 of odd multiplicity) and U of degree n - ell with leading
coefficient tau.  A monic cofactor R of degree ell - 1 then satisfies
T'(z) = n * R(z) * U(z), and away from the inverse image of [-1, 1]

    T(z) = +-cosh(n * Integral_a^z R(w) / sqrt(B(w)) dw)

for any zero a of B.  The number ell is the minimal number of analytic arcs
the inverse image of [-1, 1] under T consists of.
:func:`~chebotarev.analysis.verify_cosh_representation` checks this
identity by quadrature.

A zero of T -+ 1 of multiplicity k is one of T' of multiplicity k - 1 and of
R of multiplicity (k - 1) // 2; the other critical points, where T is not
+-1, are the zeros of ``Q = R / prod (z - c)^((k - 1) // 2)``.  A solved
polynomial carries its level form, the zeros and multiplicities it was built
from, and :func:`factorize` then takes them from there without root finding
when Q is constant; either way :func:`_split` checks the counts, both products
and the level of each zero.
"""

from dataclasses import dataclass

from .connect import MINUS, PLUS, is_connected
from .errors import InconsistentFactorization
from .poly import STRUCTURE_TOL, ComplexPoly, cluster_roots, point_key, quotient, structured_roots

#: Coefficient-residual tolerance for the reproduction checks.
RESIDUAL_TOL = 1e-9


@dataclass(frozen=True)
class Factorization:
    """The (ell, B, U, R) data of the square / square-free splitting.

    ``branch_poly`` is monic with ``2 * min_arcs`` pairwise distinct zeros
    (``branch_points``); ``square_part`` carries the leading coefficient of
    the input; ``cofactor`` is monic of degree ``min_arcs - 1``.  The two
    residuals are the relative coefficient residuals of the rebuilt products
    ``B * U^2`` against ``T^2 - 1`` and ``n R U`` against ``T'``.  ``clusters``
    holds the sorted root clusters of ``T - 1`` and ``T + 1``, ``signs`` the
    value of T, 1 or -1, on each.  ``free`` clusters at
    :data:`~chebotarev.poly.STRUCTURE_TOL` the critical points where T is
    not +-1: m of them make an m-fold zero of Q.
    """

    min_arcs: int
    branch_poly: ComplexPoly
    square_part: ComplexPoly
    cofactor: ComplexPoly
    branch_points: tuple
    level_residual: float
    derivative_residual: float
    clusters: tuple
    signs: tuple
    free: tuple


def factorize(T: ComplexPoly, seed: int = 0) -> Factorization:
    """Compute the unique splitting T^2 - 1 = B * U^2 and T' = n R U, once per polynomial.

    A polynomial that carries its :class:`~chebotarev.poly.LevelForm` (every
    ``Solution.poly`` does) is split on those known zeros and
    multiplicities, with no root finding, when Q is constant.  Otherwise, or
    when the level form fails a check, the critical points of T, the
    witnesses of :func:`~chebotarev.connect.is_connected` (stored on ``T``
    too, so the roots of T' are found once per object), go onto T = 1, onto
    T = -1 or into ``free`` by the class that verdict gave each, and
    :func:`~chebotarev.poly.structured_roots` finds the zeros of T -+ 1.  A
    structure that fails a check raises :class:`InconsistentFactorization`
    and stores nothing.  The checked result is stored on ``T`` (arithmetic
    drops it, as it drops ``level``): a later call on the same object
    returns it with no split, check or root solve.
    """
    if T._factorization is not None:
        return T._factorization
    if T.degree < 1:
        raise ValueError("factorize needs degree >= 1")
    if T.level is not None:
        try:
            return _split(T, *T.level.clusters(), ())
        except InconsistentFactorization:
            pass
    witnesses = is_connected(T, seed=seed).witnesses if T.degree > 1 else ()
    on = {kind: [w.point for w in witnesses if w.kind == kind] for kind in (PLUS, MINUS)}
    free = cluster_roots([w.point for w in witnesses if w.kind not in on], tol=STRUCTURE_TOL)
    return _split(T, structured_roots(T - 1.0, on[PLUS], seed=seed),
                  structured_roots(T + 1.0, on[MINUS], seed=seed), tuple(free))


def _split(T: ComplexPoly, plus: list, minus: list, free: tuple) -> Factorization:
    """The factorization on the zeros ``plus`` of T - 1 and ``minus`` of T + 1, stored on T.

    Checks the counts of zeros and critical points (the others are ``free``),
    that the branch points are distinct, that T^2 - 1 = B U^2 and T' = n R U,
    and that Re T is >= 0 on the zeros ``plus`` and < 0 on ``minus``.
    """
    tagged = sorted([(c, 1) for c in plus] + [(c, -1) for c in minus],
                    key=lambda cv: point_key(cv[0].center))
    clusters = [c for c, _ in tagged]
    n = T.degree
    p2 = T * T - 1.0
    # the counts imply the rest: multiplicities summing to 2n have an even number of odd ones, and
    # n + 1 + F clusters (F free critical points) cannot all be even: 1 <= ell <= n, deg U = n - ell
    if sum(c.multiplicity - 1 for c in clusters) + sum(c.multiplicity for c in free) != n - 1:
        raise InconsistentFactorization("not every critical point of T is accounted for")
    total = sum(c.multiplicity for c in clusters)
    if total != 2 * n:
        raise InconsistentFactorization(f"zero multiplicities sum to {total}, not {2 * n}")

    branch_points = tuple(c.center for c in clusters if c.multiplicity % 2 == 1)
    ell = len(branch_points) // 2
    scale = 1.0 + max(abs(b) for b in branch_points)
    # clusters within one level are separated by construction; only a
    # numerically coincident pair across the two levels (impossible for a
    # true polynomial, since the levels differ by 2) indicates breakage
    if len(cluster_roots(branch_points, scale=scale, tol=1e-9)) < len(branch_points):
        raise InconsistentFactorization("branch points are not pairwise distinct")

    branch_poly = ComplexPoly.from_roots(branch_points, 1.0)
    u_roots = [c.center for c in clusters for _ in range(c.multiplicity // 2)]
    square_part = ComplexPoly.from_roots(u_roots, T.leading)

    dT = T.derivative()
    cofactor = quotient(dT, n * square_part).monic()

    level_residual = _check_reproduction(p2, branch_poly * (square_part * square_part), "T^2 - 1")
    derivative_residual = _check_reproduction(dT, n * (cofactor * square_part), "T'")
    if any((T(c.center).real >= 0) != (sign == 1) for c, sign in tagged):
        raise InconsistentFactorization("a zero of T - 1 or T + 1 is on the other level")

    fac = Factorization(ell, branch_poly, square_part, cofactor, branch_points, level_residual,
                        derivative_residual, tuple(clusters), tuple(s for _, s in tagged), free)
    object.__setattr__(T, "_factorization", fac)
    return fac


def _check_reproduction(target: ComplexPoly, rebuilt: ComplexPoly, label: str) -> float:
    """Relative residual ``max |target - rebuilt| / (1 + max |target|)`` of the coefficients."""
    diff = target - rebuilt
    size = 1.0 + max(abs(c) for c in target.coeffs)
    bound = RESIDUAL_TOL * size
    worst = max(abs(c) for c in diff.coeffs)
    if worst > bound:
        raise InconsistentFactorization(
            f"{label} reproduction residual {worst:.3e} exceeds {bound:.3e}"
        )
    return worst / size
