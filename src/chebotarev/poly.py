"""Dense complex polynomials and multiplicity-aware root finding.

Coefficients are stored in ascending order: ``coeffs[k]`` multiplies ``z**k``.
Degrees are capped at :data:`MAX_DEGREE`; everything in this package targets
the moderate degrees that inverse-image constructions actually produce, so
dense arithmetic in double precision is the right tool.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InconsistentFactorization, NoConvergence, PowerSumViolation, RemainderTooLarge

MAX_DEGREE = 64

#: Default relative clustering radius.  Multiple roots of the constructed
#: polynomials are structural, so clusters sit far from genuinely simple
#: roots and a tight radius is safe here.
CLUSTER_TOL = 1e-6

_EPS = float(np.finfo(float).eps)

#: Relative size of the fixed nudge that :func:`level_roots` gives every
#: start, in golden-angle directions so that no symmetry survives it.
_NUDGE = 1e-6
_GOLDEN_ANGLE = float(np.pi * (3.0 - np.sqrt(5.0)))

#: Sweep cap of the Aberth iteration of :func:`level_roots`.
_MAX_SWEEPS = 500

#: Relative radius within which :func:`structured_roots` merges the smeared
#: critical points on one multiple zero; ``factorize`` those off +-1 too.
STRUCTURE_TOL = 2e-4

#: Least tolerance on ``|p|`` at a critical point on a zero of ``p``: a
#: solve's residual leaves ``|T -+ 1|`` up to 7.4e-11 at the critical points
#: on the split multiple zeros of rect_n9_system1, which must still count.
LEVEL_FLOOR = 1e-7


def _as_coeff_tuple(coeffs):
    cs = tuple(complex(c) for c in coeffs)
    if not cs:
        raise ValueError("coefficient list is empty")
    if len(cs) - 1 > MAX_DEGREE:
        raise ValueError(f"degree {len(cs) - 1} exceeds the cap of {MAX_DEGREE}")
    if len(cs) > 1 and cs[-1] == 0:
        raise ValueError("leading coefficient is zero; trim before constructing")
    return cs


@dataclass(frozen=True)
class LevelForm:
    """Known zeros of ``T - 1`` and ``T + 1``: ``T = 1 + tau prod (z - p)^m``.

    ``plus`` and ``minus`` hold ``(point, multiplicity)`` pairs, the zeros of
    ``T - 1`` and of ``T + 1``; both products have leading coefficient
    ``tau``.  :func:`level_polynomial` attaches it to the polynomial it
    builds, so the multiplicity structure need not be root-found again.
    """

    tau: complex
    plus: tuple
    minus: tuple

    def clusters(self):
        """One exact :class:`RootCluster` per zero, those of ``T - 1`` first."""
        return [RootCluster(p, m, (p,) * m) for p, m in self.plus + self.minus]


@dataclass(frozen=True)
class ComplexPoly:
    """Immutable dense polynomial with complex coefficients.

    The zero polynomial is represented as the single coefficient ``(0j,)``;
    every other instance has a nonzero leading coefficient.  ``level``, when
    present, is the :class:`LevelForm` the polynomial was built from;
    ``_factorization`` and ``_verdict`` are the answers that
    :func:`~chebotarev.factor.factorize` and
    :func:`~chebotarev.connect.is_connected` stored.  They take no part in
    equality, hashing or repr, and arithmetic drops all three.
    """

    coeffs: tuple
    level: LevelForm = field(default=None, compare=False, hash=False, repr=False)
    _factorization: object = field(default=None, init=False, compare=False, hash=False, repr=False)
    _verdict: object = field(default=None, init=False, compare=False, hash=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _as_coeff_tuple(self.coeffs))

    @classmethod
    def from_roots(cls, roots, leading=1.0):
        """Expand ``leading * prod(z - r)`` over the given root multiset."""
        c = np.array([complex(leading)])
        for r in roots:
            c = np.convolve(c, np.array([-complex(r), 1.0 + 0j]))
        return cls(tuple(c))

    @classmethod
    def zero(cls):
        return cls((0j,))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def __call__(self, z):
        """Evaluate by Horner's scheme; accepts scalars or numpy arrays."""
        w = self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            w = w * z + c
        return w

    def derivative(self):
        """Formal derivative; a constant differentiates to the zero polynomial."""
        if self.degree == 0:
            return ComplexPoly.zero()
        return ComplexPoly(tuple(k * c for k, c in enumerate(self.coeffs))[1:])

    def monic(self):
        lead = self.coeffs[-1]
        if lead == 0:
            raise ValueError("cannot normalize the zero polynomial")
        return ComplexPoly(tuple(c / lead for c in self.coeffs))

    def _coerce(self, other):
        if isinstance(other, ComplexPoly):
            return other
        return ComplexPoly((complex(other),))

    def __mul__(self, other):
        if not isinstance(other, ComplexPoly):
            s = complex(other)
            if s == 0:
                return ComplexPoly.zero()
            return ComplexPoly(tuple(s * c for c in self.coeffs))
        if self.is_zero() or other.is_zero():
            return ComplexPoly.zero()
        return ComplexPoly(tuple(np.convolve(np.array(self.coeffs), np.array(other.coeffs))))

    __rmul__ = __mul__

    def __neg__(self):
        return ComplexPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        out = [0j] * n
        for i, c in enumerate(self.coeffs):
            out[i] += c
        for i, c in enumerate(other.coeffs):
            out[i] += c
        while len(out) > 1 and out[-1] == 0:
            out.pop()
        return ComplexPoly(tuple(out))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-self._coerce(other))


def level_polynomial(plus, minus) -> ComplexPoly:
    """``T = 1 + tau prod (z - p)^m`` over ``plus``, checked against ``minus``.

    ``plus`` and ``minus`` hold ``(point, multiplicity)`` pairs, the zeros of
    ``T - 1`` and of ``T + 1``.  ``tau = -2 / prod (q - p)^m`` puts the first
    minus point ``q`` on ``T = -1``; then ``tau prod plus + 2`` must equal
    ``tau prod minus`` coefficient by coefficient to ``1e-8 (1 + max |coeff|)``,
    which holds exactly when the two zero multisets have equal power sums of
    orders 1 .. n-1.  Raises :class:`PowerSumViolation` otherwise, and
    ``ValueError`` when ``q`` is also a plus point.  Returns ``T`` carrying its
    :class:`LevelForm`.
    """
    plus = tuple((complex(p), m) for p, m in plus)
    minus = tuple((complex(q), m) for q, m in minus)
    plus_roots = [p for p, m in plus for _ in range(m)]
    minus_roots = [q for q, m in minus for _ in range(m)]
    if not minus_roots:
        raise ValueError("T + 1 needs at least one zero")
    prod = 1.0 + 0j
    for r in plus_roots:
        prod *= minus_roots[0] - r
    if prod == 0:
        raise ValueError(f"the level sets share the point {minus_roots[0]:.6g}")
    tau = -2.0 / prod
    plus_side = ComplexPoly.from_roots(plus_roots, tau)
    minus_side = ComplexPoly.from_roots(minus_roots, tau)
    worst = max(abs(c) for c in (plus_side + 2.0 - minus_side).coeffs)
    bound = 1e-8 * (1.0 + max(abs(c) for c in minus_side.coeffs))
    if not worst <= bound:
        raise PowerSumViolation(f"level products differ by {worst:.3e} (bound {bound:.3e})")
    return ComplexPoly((plus_side + 1.0).coeffs, LevelForm(tau, plus, minus))


def divide_exact(p: ComplexPoly, q: ComplexPoly) -> ComplexPoly:
    """Divide ``p`` by ``q`` assuming the division is exact up to rounding.

    Raises :class:`RemainderTooLarge` when any remainder coefficient exceeds
    ``1e-9 * (1 + max |p coeff|)`` -- the signal that an upstream
    factorization is inconsistent.
    """
    if q.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    bound = 1e-9 * (1.0 + max(abs(c) for c in p.coeffs))
    dp, dq = p.degree, q.degree
    if dp < dq or p.is_zero():
        if all(abs(c) <= bound for c in p.coeffs):
            return ComplexPoly.zero()
        raise RemainderTooLarge(
            f"divisor degree {dq} exceeds dividend degree {dp} with nonzero dividend"
        )
    out, rem = _long_division(p, q)
    worst = max(abs(r) for r in rem)
    if worst > bound:
        raise RemainderTooLarge(f"remainder magnitude {worst:.3e} exceeds bound {bound:.3e}")
    return out


def _long_division(p: ComplexPoly, q: ComplexPoly):
    """The quotient of ``p`` by ``q`` (``deg p >= deg q``) and the remainder coefficients."""
    dp, dq = p.degree, q.degree
    rem = list(p.coeffs)
    out = [0j] * (dp - dq + 1)
    qlead = q.coeffs[-1]
    for k in range(dp - dq, -1, -1):
        c = rem[k + dq] / qlead
        out[k] = c
        for j in range(dq + 1):
            rem[k + j] -= c * q.coeffs[j]
    return ComplexPoly(tuple(out)), rem


def powers(z: np.ndarray, n: int) -> np.ndarray:
    """The power table ``P[i, k] = z_i**k`` for k = 0..n, by one running product."""
    P = np.empty((len(z), n + 1), dtype=complex)
    P[:, 0] = 1.0
    P[:, 1:] = z[:, None]
    return np.cumprod(P, axis=1, out=P)


def _hankel(a: np.ndarray) -> np.ndarray:
    """``H[i, k] = a[i + k]``, zero past the end of ``a``."""
    n = len(a) - 1
    idx = np.arange(n + 1)
    return np.concatenate([a, np.zeros(n, dtype=a.dtype)])[idx[:, None] + idx[None, :]]


def _eval_sweep(H: np.ndarray, z: np.ndarray, shift=None):
    """``p``, ``p'`` and a rounding-error bound for ``p`` at every point of ``z``.

    ``H`` is :func:`_hankel` of the coefficients of ``p``.  With the powers
    ``Z[i, k] = z_i**k``, ``R = Z @ H`` holds every Horner partial
    ``r_k(z) = a_k + z r_{k+1}(z)``, so ``p = r_0``, ``p' = sum z**(k-1) r_k``
    (the Horner quotient at ``z``) and ``2 eps sum |z|**k |r_k|`` is Horner's
    running error bound (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 5.1).  The numpy calls do not grow with the degree.

    ``shift``, when given, holds one constant per point, added to the
    constant coefficient of ``p`` at that point.  Only ``r_0`` depends on the
    constant coefficient, so the shift enters column 0 of ``R`` alone and one
    product serves polynomials that differ only there.
    """
    Z = powers(z, H.shape[0] - 1)
    R = Z @ H
    if shift is not None:
        R[:, 0] += shift
    W = Z[:, :-1] * R[:, 1:]
    p = R[:, 0]
    bound = np.abs(p) + np.abs(z) * np.abs(W).sum(axis=1)
    return p, W.sum(axis=1), _EPS * (2.0 * bound)


def find_roots(p: ComplexPoly, seed: int = 0) -> list:
    """All roots of ``p``: the eigenvalues of the companion matrix, then 3 Newton steps.

    ``np.roots`` of the monic coefficients makes one LAPACK eigenvalue solve
    of the balanced companion matrix, which is backward stable (Edelman &
    Murakami, "Polynomial roots from companion matrix eigenvalues", Math.
    Comp. 1995); it strips zero trailing coefficients first, so zero roots
    come back exact.  3 Newton steps, each kept only where it does not raise
    ``|p|``, polish the roots; they evaluate ``p`` and ``p'`` by
    :meth:`ComplexPoly.__call__`.  Multiple roots come back repeated, smeared
    over the usual ``eps**(1/multiplicity)`` disc; :func:`structured_roots`
    sharpens them.  A failed eigenvalue solve, or an eigenvalue that is not
    finite, raises :class:`NoConvergence`.  The result does not depend on
    ``seed``, which callers still pass.  Warm solves from nearby roots go
    through :func:`level_roots`.
    """
    if p.is_zero() or p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    a = np.array(p.coeffs, dtype=complex)
    a = a / a[-1]
    n = len(a) - 1
    try:
        z = np.roots(a[::-1])
    except np.linalg.LinAlgError as err:
        raise NoConvergence(f"companion matrix eigenvalues failed: {err}") from err
    if not np.isfinite(z).all():
        raise NoConvergence("companion matrix has a non-finite eigenvalue")

    P, dP = ComplexPoly(a), ComplexPoly(a[1:] * np.arange(1, n + 1))
    pv = P(z)
    for _ in range(3):
        dv = dP(z)
        dv = np.where(np.abs(dv) < 1e-300, 1e-300, dv)
        z2 = z - pv / dv
        pv2 = P(z2)
        better = np.abs(pv2) <= np.abs(pv)
        z = np.where(better, z2, z)
        pv = np.where(better, pv2, pv)  # Horner is pointwise: this is p(z)
    return [complex(v) for v in z]


def level_roots(T: ComplexPoly, levels, starts) -> list:
    """Roots of ``T - c`` for every level ``c``, by one Aberth iteration over the block.

    ``starts`` holds one row of ``T.degree`` finite starts per level, for
    instance the roots of a nearby level.  Start ``k`` of a row moves by
    ``_NUDGE * (1 + |z_k|)`` in direction ``0.5 + k`` golden angles.  This
    splits coincident starts and breaks the symmetry of real or
    conjugate-closed start sets, which Aberth iteration on a real
    polynomial would otherwise keep for ever (real starts never reach a
    complex root pair); root ``i`` usually comes back near start ``i``.
    That order, which the tracer's chains follow, and the 2-4 sweeps a warm
    block takes to settle are why level solves stay with Aberth iteration
    and do not take the eigenvalues of :func:`find_roots`.

    The level polynomials share every coefficient but the constant, so each
    sweep evaluates all levels in one product against the Hankel matrix of
    monic ``T``, with ``-c / tau`` added to column 0 (:func:`_eval_sweep`).
    Each level settles by the test of :func:`_aberth` and then leaves the
    block.  Returns one entry per level: its roots as returned by the
    settled iteration, in start order, or ``None`` where the iterate hit the
    sweep cap or stopped being finite.  There is no Newton polish: once the
    iteration has converged, each Aberth correction is already a Newton
    step with implicit deflation (Bini 1996).
    """
    if T.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    a = np.array(T.coeffs, dtype=complex)
    tau = a[-1]
    shift = -np.asarray(levels, dtype=float) / tau
    z = np.array(starts, dtype=complex)
    if z.shape != (len(shift), T.degree):
        raise ValueError(f"starts need shape {(len(shift), T.degree)}, got {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("starts must be finite")
    turn = 0.5 + _GOLDEN_ANGLE * np.arange(T.degree)
    z = z + _NUDGE * (1.0 + np.abs(z)) * np.exp(1j * turn)
    block = _aberth(_hankel(a / tau), z, shift)
    finite = np.isfinite(block).all(axis=1)
    return [row if ok else None for row, ok in zip(block, finite)]


def _aberth(H, z, shift):
    """Aberth-Ehrlich sweeps from the rows of ``z`` until every root settles.

    The solver of :func:`level_roots`; cold solves take eigenvalues
    (:func:`find_roots`).  ``H`` is the Hankel matrix of a monic polynomial
    (:func:`_hankel`), ``z`` a ``(K, n)`` block of starts and ``shift`` each
    row's change of the constant coefficient; the whole block is evaluated
    in one matrix product per sweep (:func:`_eval_sweep`).  A root has
    settled when its correction is below ``1e-13 * (1 + |z|)`` or ``|p(z)|``
    is within 8 times Horner's running error bound; a row whose roots have
    all settled is frozen and leaves the sweeps.  A row that reaches the cap
    of ``_MAX_SWEEPS`` sweeps, or whose iterate stops being finite (overflow
    spreads NaNs that never settle), comes back as NaN and leaves the sweeps
    then.  The floating-point warnings on the way are silenced.
    """
    block = np.array(z, dtype=complex)
    n = block.shape[1]
    out = np.full_like(block, np.nan)
    rows = np.arange(len(block))
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            pv, dv, bound = _eval_sweep(H, block.ravel(), np.repeat(shift[rows], n))
            dv = np.where(dv == 0, 1e-300, dv)
            w = (pv / dv).reshape(-1, n)
            diff = block[:, :, None] - block[:, None, :]
            diff.reshape(len(block), -1)[:, ::n + 1] = np.inf
            s = (1.0 / diff).sum(axis=2)
            den = 1.0 - w * s
            den = np.where(np.abs(den) < 1e-300, 1e-300, den)
            corr = w / den
            block = block - corr
            scale = 1.0 + np.abs(block)
            done = ((np.abs(corr) <= 1e-13 * scale)
                    | (np.abs(pv) <= 8.0 * bound).reshape(-1, n)).all(axis=1)
            if np.isfinite(block).all():
                if not np.count_nonzero(done):
                    continue
                keep = ~done
            else:
                finite = np.isfinite(block).all(axis=1)
                done &= finite
                keep = finite & ~done
            out[rows[done]] = block[done]
            if not keep.any():
                break
            rows, block = rows[keep], block[keep]
    return out


def point_key(w):
    """Sort key for a complex point: the real part, then the imaginary part.

    The real part is rounded to 9 significant digits, or to 9 decimals when
    it is below 1 in size, so points whose real parts agree to about 1e-9
    relative -- a conjugate pair whose computed real parts differ in the
    last bits -- are ordered by imaginary part and rounding cannot swap them.
    """
    x = w.real
    return (round(x, 9) if abs(x) < 1.0 else float(f"{x:.8e}"), w.imag)


def label_pairs(k: int, i, j) -> np.ndarray:
    """The component root of every node ``0..k-1`` under the pairs ``(i[e], j[e])``.

    Each round hooks the larger root of every pair whose roots differ onto
    the smaller one, then shortcuts by pointer jumping until each node
    points at its root (Shiloach & Vishkin 1982, "An O(log n) parallel
    connectivity algorithm", J. Algorithms).  As ``parent[x] <= x``
    throughout, the forest has no cycles, and once every pair shares a root
    that root is the smallest node of its component.  ``i`` and ``j`` are
    integer arrays; the labels keep their dtype.
    """
    parent = np.arange(k, dtype=i.dtype)
    while True:
        ri, rj = parent[i], parent[j]
        differ = ri != rj
        if not differ.any():
            return parent
        i, j, ri, rj = i[differ], j[differ], ri[differ], rj[differ]
        np.minimum.at(parent, np.maximum(ri, rj), np.minimum(ri, rj))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


@dataclass(frozen=True)
class RootCluster:
    """A group of raw root approximations treated as one multiple root."""

    center: complex
    multiplicity: int
    raw_members: tuple


def cluster_roots(roots, scale: float = None, tol: float = CLUSTER_TOL) -> list:
    """Partition root approximations into multiplicity clusters.

    Single-linkage grouping with radius ``tol * scale`` where ``scale``
    defaults to ``1 + max |root|``: :func:`label_pairs` over every pair
    within the radius.  Clusters are returned sorted by center under
    :func:`point_key` and carry their members sorted the same way, so the
    output is deterministic.
    """
    pts = np.array(roots, dtype=complex)
    if not len(pts):
        return []
    if scale is None:
        scale = 1.0 + float(np.abs(pts).max())
    i, j = np.nonzero(np.triu(np.abs(pts[:, None] - pts[None, :]) <= tol * scale, 1))
    root = label_pairs(len(pts), i, j).tolist() if len(i) else range(len(pts))

    groups = {}
    for p, r in zip(pts.tolist(), root):
        groups.setdefault(r, []).append(p)
    clusters = []
    for members in groups.values():
        if len(members) > 1:
            members.sort(key=point_key)
        center = sum(members) / len(members)
        clusters.append(RootCluster(center, len(members), tuple(members)))
    clusters.sort(key=lambda c: point_key(c.center))
    return clusters


def _halves(a: float):
    """``a`` as ``h + l``, both of at most 26 bits, so their products are exact (Dekker)."""
    t = 134217729.0 * a  # 2**27 + 1
    h = t - (t - a)
    return h, a - h


def compensated_horner(p: ComplexPoly, z: complex) -> complex:
    """``p(z)`` by Horner's scheme in double-double arithmetic, rounded once.

    The running value is ``h + l``, an unevaluated sum of two complex
    doubles.  With both split into halves (:func:`_halves`), ``h z`` is a sum
    of exact products; with ``l z``, whose rounding is far below ``l``, and
    the next coefficient, ``math.fsum`` rounds each part of the step to the
    new ``h`` and its remainder to ``l``.  Near a root, where plain Horner
    returns mostly rounding noise, this still returns the value.
    """
    x, y = z.real, z.imag
    (xh, xl), (yh, yl) = _halves(x), _halves(y)
    hr, hi, lr, li = p.leading.real, p.leading.imag, 0.0, 0.0
    for c in p.coeffs[-2::-1]:
        (a, b), (d, e) = _halves(hr), _halves(hi)
        re = [a * xh, a * xl, b * xh, b * xl, -d * yh, -d * yl, -e * yh, -e * yl,
              lr * x - li * y, c.real]
        im = [a * yh, a * yl, b * yh, b * yl, d * xh, d * xl, e * xh, e * xl,
              lr * y + li * x, c.imag]
        hr, hi = math.fsum(re), math.fsum(im)
        lr, li = math.fsum(re + [-hr]), math.fsum(im + [-hi])
    return complex(hr + lr, hi + li)


def refine_multiple_root(p: ComplexPoly, center: complex, multiplicity: int) -> complex:
    """Sharpen a root estimate of the given multiplicity to full precision.

    A root of multiplicity ``m`` of ``p`` is a simple root of the
    ``(m-1)``-th derivative, where Newton converges quadratically; this
    recovers the accuracy that plain root finding loses to the
    ``eps**(1/m)`` smear.  The residual is :func:`compensated_horner`'s, so
    the iterate does not stall in the rounding noise of plain Horner, and a
    step below ``1e-10 (1 + |z|)`` is the last: quadratic convergence leaves
    an error near its square.  Falls back to the input if Newton wanders off.
    """
    q = p
    for _ in range(multiplicity - 1):
        q = q.derivative()
    dq = q.derivative()
    if dq.is_zero():
        return complex(center)
    z = complex(center)
    for _ in range(30):
        dv = dq(z)
        if dv == 0:
            break
        step = compensated_horner(q, z) / dv
        z = z - step
        if abs(step) < 1e-10 * (1.0 + abs(z)):
            break
    if abs(z - center) > 0.01 * (1.0 + abs(center)):
        return complex(center)
    return z


def vanishes(p: ComplexPoly, points: np.ndarray) -> np.ndarray:
    """Which of ``points`` lie on zeros of ``p``: the one on-level test.

    ``|p|`` there must be within ``max(64 *`` Horner's running error bound, :data:`LEVEL_FLOOR`).
    """
    values, _, bound = _eval_sweep(_hankel(np.array(p.coeffs)), points)
    return np.abs(values) <= np.maximum(64.0 * bound, LEVEL_FLOOR)


def structured_roots(p: ComplexPoly, critical, seed: int = 0) -> list:
    """Roots of ``p`` as multiplicity clusters, the multiple ones read off ``p'``.

    A zero of ``p`` of multiplicity k is a zero of ``p'`` of multiplicity
    k - 1.  ``critical`` holds the zeros of ``p'`` that lie on zeros of
    ``p``, already sorted there by :func:`vanishes`, as
    :func:`~chebotarev.factor.factorize` does.  m of them within
    ``STRUCTURE_TOL (1 + max |point|)`` of each other make a zero of
    multiplicity m + 1, and a count past the degree of ``p`` raises
    :class:`InconsistentFactorization`.  :func:`find_roots` finds the simple
    zeros from the quotient of ``p`` by these, whose remainder a caller
    checks if it needs to, as :func:`~chebotarev.factor.factorize` does.
    :func:`refine_multiple_root` then sharpens every centre.
    """
    if p.degree < 1:
        raise ValueError("root finding needs degree >= 1")
    zeros = [(refine_multiple_root(p, c.center, c.multiplicity + 1), c.multiplicity + 1)
             for c in cluster_roots(critical, tol=STRUCTURE_TOL)]
    count = sum(k for _, k in zeros)
    if count > p.degree:
        raise InconsistentFactorization(
            f"critical points give {count} zeros to a polynomial of degree {p.degree}")
    divisor = ComplexPoly.from_roots([z for z, k in zeros for _ in range(k)], p.leading)
    if divisor.degree < p.degree:
        zeros += [(refine_multiple_root(p, r, 1), 1)
                  for r in find_roots(_long_division(p, divisor)[0], seed=seed)]
    clusters = [RootCluster(z, k, (z,) * k) for z, k in zeros]
    return sorted(clusters, key=lambda c: point_key(c.center))
