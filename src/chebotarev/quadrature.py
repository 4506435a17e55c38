"""Branch-continued contour integration of P(w)/sqrt(prod(w - r_j)) along polylines.

:func:`path_integral` is the one integrator of the hyperelliptic integral
Phi.  It takes the zeros ``r_j`` of the square-root argument themselves and
evaluates their product factor by factor, which keeps full relative
accuracy next to a zero, where Horner's scheme on the coefficients cancels.

The integrand's square root is continued analytically along the path: each
refinement level takes the principal roots at all its nodes as one array in
path order, flips a step's sign when the flipped root lies nearer the
previous one, and signs each node by the cumulative product of the steps.
Most legs converge at level 1, and the arrays are short, so per-call costs
dominate: levels 0 and 1 and the hand-off grid are evaluated in one pass over
their nodes laid end to end, each continued from the leg's anchor on its own,
and finer levels only when refinement reaches them.  Every node gets the bits
a pass of its own would give it.

A path end within ``SINGULAR_TOL * (1 + max |r_j|)`` of a zero is a
square-root singularity, removed by the substitution
``w = e + s**2 * (b - e)``, after which Gauss-Legendre panels converge fast.

Only the real part of the resulting integral is path-independent (it is a
Green function); the overall sign of a leg whose branch cannot be anchored
is therefore immaterial to every consumer in this package, and all of them
compare ``|Re|`` or minimize over a global sign.
"""

import cmath
import math

import numpy as np

from .errors import BranchJump, NoConvergence, PathTooClose
from .poly import ComplexPoly

#: Refinement stops when two levels agree to this absolute tolerance.
TOL = 1e-9

#: Panels are halved at most this many times per leg.
MAX_LEVEL = 10

#: A path end this close to a zero, relative to ``1 + max |zero|``, is singular.
SINGULAR_TOL = 1e-8

#: 32-point Gauss-Legendre nodes and weights, mapped to the unit interval.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)
_GL_NODES, _GL_WEIGHTS = 0.5 * (_GL_NODES + 1.0), 0.5 * _GL_WEIGHTS


def _product(zeros, w):
    """``prod(w - r)`` over ``zeros``, factor by factor, for scalar or array ``w``."""
    out = 1.0
    for r in zeros:
        out = out * (w - r)
    return out


def continue_branch(v, anchor=None, starts=(0,)):
    """Continue the principal square roots ``v`` along their sequence.

    ``v`` is one or more segments laid end to end, each starting at an index
    of ``starts`` (the first at 0) and continued on its own.  Step i flips the
    sign when ``|v_i + v_{i-1}| < |v_i - v_{i-1}|``; the sign of node i is the
    product of the step signs since its segment began.  A segment's first
    root is compared with ``anchor``, a continued root just before it, when
    there is one, else with itself.  A step is ambiguous when both signs are
    about equally near a nonzero previous root.  Returns the continued roots
    and, per segment, whether any of its steps was ambiguous.
    """
    prev = np.empty_like(v)
    prev[1:] = v[:-1]
    prev[starts] = v[starts] if anchor is None else anchor
    d_keep = np.abs(v - prev)
    d_flip = np.abs(v + prev)
    abs_prev = np.abs(prev)
    ambiguous = (abs_prev > 0) & (np.abs(d_flip - d_keep) < 1e-6 * (np.abs(v) + abs_prev))
    sign = np.cumprod(np.where(d_flip < d_keep, -1.0, 1.0))
    for start in starts[1:]:
        # the running sign is +-1: multiplying the rest by its value just
        # before the segment restarts it there, exactly
        sign[start:] *= sign[start - 1]
    return sign * v, np.logical_or.reduceat(ambiguous, starts)


def _nodes(level):
    """Gauss-Legendre nodes of refinement level ``level`` on [0, 1], in path order."""
    panels = 2**level
    width = 1.0 / panels
    return (np.arange(panels)[:, None] * width + width * _GL_NODES).ravel()


#: Hand-off grid on which a leg's square root is continued to its far end.
#: A singular leg skips the zero at ``s = 0``.
_HANDOFF = np.linspace(0.0, 1.0, 65)

#: The nodes of levels 0 and 1 and the hand-off grid, laid end to end, for a
#: regular (False) and a singular (True) leg, and where each of the three starts.
_HEAD = {singular: np.concatenate((_nodes(0), _nodes(1), _HANDOFF[1:] if singular else _HANDOFF))
         for singular in (False, True)}
_HEAD_STARTS = np.array([0, 32, 96])
#: The Gauss-Legendre weights of levels 0 and 1, laid end to end.
_HEAD_WEIGHTS = np.concatenate((_GL_WEIGHTS, np.tile(_GL_WEIGHTS, 2)))

_AMBIGUOUS = "square-root continuation ambiguous; refine sampling"


def _leg(numer, zeros, a, b, singular, anchor):
    """Integrate ``numer(w) / sqrt(_product(zeros, w))`` from ``a`` to ``b``.

    Gauss-Legendre panels are halved until two levels agree to ``TOL``, at
    most ``MAX_LEVEL`` times.  Each level continues the square root over all
    its nodes, in path order, from ``anchor`` (:func:`continue_branch`), and
    one whose continuation is ambiguous is skipped, except the last.  Levels
    0 and 1 and the hand-off grid are evaluated in one pass over their
    nodes laid end to end: one product, one square root and one
    continuation, each segment continued from ``anchor`` on its own, and one
    evaluation of the integrand at both levels.  Finer levels are evaluated
    when refinement reaches them.  A ``singular`` leg starts at a zero and is
    integrated via ``w = a + s**2 (b - a)``; its branch starts from the
    principal root at the first node and the caller aligns the overall sign
    using the hand-off value.  Raises :class:`BranchJump` when the hand-off
    is ambiguous.  Returns ``(value, error_estimate, square root continued
    to b)``.
    """
    delta = b - a

    def points(s):
        return a + s * s * delta if singular else a + s * delta

    def integrand(s, w, root):
        return numer(w) * 2.0 * s * delta / root if singular else numer(w) * delta / root

    s = _HEAD[singular]
    w = points(s)
    root, ambiguous = continue_branch(np.sqrt(_product(zeros, w)), anchor, _HEAD_STARTS)
    if ambiguous[2]:
        raise BranchJump(_AMBIGUOUS)
    head = integrand(s[:96], w[:96], root[:96])   # levels 0 and 1; an ambiguous one goes unused

    prev = None
    value = None
    err = np.inf
    for level in range(MAX_LEVEL + 1):
        panels = 2**level
        width = 1.0 / panels
        if level < 2:
            skip = ambiguous[level]
            first, end = _HEAD_STARTS[level], _HEAD_STARTS[level + 1]
            weights = _HEAD_WEIGHTS[first:end]
            vals = head[first:end]
        else:
            weights = np.tile(_GL_WEIGHTS, panels)
            s = _nodes(level)
            w = points(s)
            level_root, (skip,) = continue_branch(np.sqrt(_product(zeros, w)), anchor)
            vals = None if skip else integrand(s, w, level_root)
        if skip:
            if level == MAX_LEVEL:
                raise BranchJump(_AMBIGUOUS)
            continue
        value = width * np.dot(weights, vals)
        if prev is not None:
            err = abs(value - prev)
            if err < TOL:
                break
        prev = value
    return value, err, root[-1]


@np.errstate(all="ignore")   # a non-finite leg raises NoConvergence instead
def path_integral(numer: ComplexPoly, zeros, waypoints):
    """Integrate ``numer(w) / sqrt(prod(w - r))``, ``r`` over ``zeros``, along a polyline.

    Returns ``(value, error_estimate)`` where the estimate is the sum of the
    last refinement differences over all legs.  A first or last waypoint
    within ``SINGULAR_TOL * (1 + max |r|)`` of a zero is a square-root
    singularity and gets the substitution; a path of two singular ends is
    split at its midpoint.  Raises ``ValueError`` for no zeros, fewer than
    two waypoints, two equal consecutive ones, or a waypoint or zero that is
    not finite, and :class:`NoConvergence` when a leg's value or error
    estimate is not finite.
    """
    pts = [complex(w) for w in waypoints]
    if len(pts) < 2:
        raise ValueError("a path needs at least two waypoints")
    if any(a == b for a, b in zip(pts, pts[1:])):
        raise ValueError("consecutive waypoints must be distinct")
    zeros = tuple(complex(r) for r in zeros)
    if not zeros:
        raise ValueError("the square root needs at least one zero")
    if not all(map(cmath.isfinite, pts + list(zeros))):
        raise ValueError("waypoints and zeros must be finite")
    eps = SINGULAR_TOL * (1.0 + max(abs(r) for r in zeros))
    start_on_zero = any(abs(pts[0] - r) <= eps for r in zeros)
    end_on_zero = any(abs(pts[-1] - r) <= eps for r in zeros)
    if len(pts) == 2 and start_on_zero and end_on_zero:
        pts.insert(1, 0.5 * (pts[0] + pts[1]))

    segments = list(zip(pts, pts[1:]))
    total = 0j
    toterr = 0.0
    carry = None
    for i, (a, b) in enumerate(segments):
        if i == 0 and start_on_zero:
            value, err, carry = _leg(numer, zeros, a, b, True, None)
        elif i == len(segments) - 1 and end_on_zero:
            value, err, v_at_a = _leg(numer, zeros, b, a, True, None)
            # integrated from b back to a: reverse it unless the carried branch
            # says the sign at a is flipped
            if carry is None or abs(v_at_a - carry) <= abs(v_at_a + carry):
                value = -value
            carry = None
        else:
            value, err, carry = _leg(numer, zeros, a, b, False, carry)
        if not (cmath.isfinite(value) and math.isfinite(err)):
            raise NoConvergence(f"the leg from {a:.6g} to {b:.6g} has no finite value")
        total += value
        toterr += err
    return total, toterr


def point_segment_distance(p: complex, a: complex, b: complex) -> float:
    """Distance from ``p`` to the segment ``[a, b]``; ValueError when ``|b - a|^2`` overflows."""
    ab = b - a
    try:
        denom = abs(ab) ** 2
    except OverflowError:
        raise ValueError(f"segment {a:.6g} to {b:.6g} is too long for double precision") from None
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
