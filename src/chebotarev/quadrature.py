"""Branch-continued contour integration of P(w)/sqrt(H(w)) along polylines.

The integrand's square root is continued analytically along the path: each
refinement level takes the principal roots at all its nodes as one array in
path order, flips a step's sign when the flipped root lies nearer the
previous one, and signs each node by the cumulative product of the steps.
Endpoint singularities (the path starting or ending at a simple zero of H)
are removed by the substitution ``w = e + s**2 * (b - e)``, after which
Gauss-Legendre panels converge fast.

Only the real part of the resulting integral is path-independent (it is a
Green function); the overall sign of a leg whose branch cannot be anchored
is therefore immaterial to every consumer in this package, and all of them
compare ``|Re|`` or minimize over a global sign.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BranchJump, PathTooClose
from .poly import ComplexPoly

_GL_CACHE = {}


def _gl_rule(order):
    """Gauss-Legendre nodes and weights mapped to the unit interval."""
    if order not in _GL_CACHE:
        nodes, weights = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (0.5 * (nodes + 1.0), 0.5 * weights)
    return _GL_CACHE[order]


@dataclass(frozen=True)
class QuadraturePath:
    """A polyline contour with optional square-root endpoint handling."""

    waypoints: tuple
    samples_per_segment: int = 32
    singular_start: bool = False
    singular_end: bool = False

    def __post_init__(self):
        pts = tuple(complex(w) for w in self.waypoints)
        if len(pts) < 2:
            raise ValueError("a path needs at least two waypoints")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive waypoints must be distinct")
        object.__setattr__(self, "waypoints", pts)


def continue_branch(v, anchor=None):
    """Continue the principal square roots ``v`` along their sequence.

    Step i flips the sign when ``|v_i + v_{i-1}| < |v_i - v_{i-1}|``; the sign
    of node i is the cumulative product of the step signs.  The first root is
    compared with ``anchor``, a continued root just before it, when there is
    one.  Raises :class:`BranchJump` when both signs are about equally near
    a nonzero previous root.  Returns the continued roots.
    """
    prev = np.concatenate(([v[0] if anchor is None else anchor], v[:-1]))
    d_keep = np.abs(v - prev)
    d_flip = np.abs(v + prev)
    abs_prev = np.abs(prev)
    if np.any((abs_prev > 0) & (np.abs(d_flip - d_keep) < 1e-6 * (np.abs(v) + abs_prev))):
        raise BranchJump("square-root continuation ambiguous; refine sampling")
    return np.cumprod(np.where(d_flip < d_keep, -1.0, 1.0)) * v


#: Hand-off grid on which a leg's square root is continued to its far end.
#: A singular leg skips the zero at ``s = 0``.
_HANDOFF = np.linspace(0.0, 1.0, 65)


def _leg(numer, sqrt_denom, a, b, singular, anchor, tol, max_level, order):
    """Integrate ``numer(w) / sqrt(sqrt_denom(w))`` over the leg from ``a`` to ``b``.

    Gauss-Legendre panels are halved until two levels agree to ``tol``; each
    level continues the square root over all its nodes, in path order, from
    ``anchor`` (:func:`continue_branch`), and one whose continuation is
    ambiguous is skipped, except the last.  A ``singular`` leg starts at a
    zero of ``sqrt_denom`` and is integrated via ``w = a + s**2 (b - a)``;
    its branch starts from the principal root at the first node and the
    caller aligns the overall sign using the hand-off value.
    Returns ``(value, error_estimate, square root continued to b)``.
    """
    delta = b - a
    gl_t, gl_w = _gl_rule(order)

    def points(s):
        return a + s * s * delta if singular else a + s * delta

    prev = None
    value = None
    err = np.inf
    for level in range(max_level + 1):
        panels = 2**level
        width = 1.0 / panels
        s = (np.arange(panels)[:, None] * width + width * gl_t).ravel()
        w = points(s)
        try:
            root = continue_branch(np.sqrt(sqrt_denom(w)), anchor)
        except BranchJump:
            if level == max_level:
                raise
            continue
        vals = numer(w) * 2.0 * s * delta / root if singular else numer(w) * delta / root
        value = width * np.dot(np.tile(gl_w, panels), vals)
        if prev is not None:
            err = abs(value - prev)
            if err < tol:
                break
        prev = value
    handoff = points(_HANDOFF[1:] if singular else _HANDOFF)
    carry = continue_branch(np.sqrt(sqrt_denom(handoff)), anchor)[-1]
    return value, err, carry


def path_integral(numer: ComplexPoly, sqrt_denom: ComplexPoly, path: QuadraturePath,
                  tol: float = 1e-9, max_level: int = 10):
    """Integrate ``numer(w) / sqrt(sqrt_denom(w))`` along the path.

    Returns ``(value, error_estimate)`` where the estimate is the sum of the
    last refinement differences over all legs.  ``singular_start`` /
    ``singular_end`` mark path endpoints sitting on zeros of ``sqrt_denom``
    (or of the numerator), where the square-root substitution is applied.
    """
    pts = list(path.waypoints)
    if len(pts) == 2 and path.singular_start and path.singular_end:
        mid = 0.5 * (pts[0] + pts[1])
        pts = [pts[0], mid, pts[1]]

    order = max(4, int(path.samples_per_segment))
    segments = list(zip(pts, pts[1:]))
    total = 0j
    toterr = 0.0
    carry = None
    for i, (a, b) in enumerate(segments):
        first = i == 0
        last = i == len(segments) - 1
        if first and path.singular_start:
            value, err, carry = _leg(numer, sqrt_denom, a, b, True, None, tol, max_level, order)
        elif last and path.singular_end:
            value, err, v_at_a = _leg(numer, sqrt_denom, b, a, True, None, tol, max_level, order)
            # integrated from b back to a: reverse it unless the carried branch
            # says the sign at a is flipped
            if carry is None or abs(v_at_a - carry) <= abs(v_at_a + carry):
                value = -value
            carry = None
        else:
            value, err, carry = _leg(numer, sqrt_denom, a, b, False, carry, tol, max_level, order)
        total += value
        toterr += err
    return total, toterr


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Euclidean distance from point ``p`` to the segment ``[a, b]``."""
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0:
        return abs(p - a)
    t = ((p - a).real * ab.real + (p - a).imag * ab.imag) / denom
    t = min(1.0, max(0.0, t))
    return abs(p - (a + t * ab))


def check_clearance(waypoints, branch_points, ends, clearance: float):
    """Raise :class:`PathTooClose` when the polyline passes within ``clearance``
    of a branch point other than ``ends``, the ones the path starts or ends on.
    """
    for r in branch_points:
        if r in ends:
            continue
        for a, b in zip(waypoints, waypoints[1:]):
            if point_segment_distance(r, a, b) <= clearance:
                raise PathTooClose(f"path passes within {clearance:g} of branch point {r:.6g}")
