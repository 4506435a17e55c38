"""Array branch continuation against the per-node scalar walk.

``ScalarBranch`` and ``scalar_leg`` are the per-node implementation that
``quadrature.continue_branch`` and the array ``quadrature._leg`` replaced,
kept here as the reference: one square root per Python call, its sign chosen
against the previous continued root.  ``per_level_leg`` is the array leg
that evaluated each refinement level and the hand-off grid in a pass of
their own, the reference for the one-pass ``_leg``.
"""

import numpy as np
import pytest

from chebotarev import BranchJump, ComplexPoly, NoConvergence, path_integral
from chebotarev import quadrature
from chebotarev.quadrature import (_GL_NODES, _GL_WEIGHTS, _HANDOFF, _HEAD, _HEAD_STARTS,
                                   _product, continue_branch)

ARRAY_LEG = quadrature._leg


class ScalarBranch:
    """Continuity tracker for one square root along a sampling sequence."""

    def __init__(self, poly, prev=None):
        self.poly = poly
        self.prev = prev

    def value(self, w):
        v = np.sqrt(complex(self.poly(w)))
        if self.prev is not None:
            d_keep = abs(v - self.prev)
            d_flip = abs(v + self.prev)
            if d_flip < d_keep:
                v = -v
                d_keep, d_flip = d_flip, d_keep
            if abs(self.prev) > 0 and d_flip - d_keep < 1e-6 * (abs(v) + abs(self.prev)):
                raise BranchJump("square-root continuation ambiguous; refine sampling")
        self.prev = v
        return v


def scalar_leg(numer, zeros, a, b, singular, anchor):
    """The leg integrator node by node, with a fresh scalar walk per level."""
    sqrt_denom = ProductPoly(zeros)
    delta = b - a
    gl_t, gl_w = _GL_NODES, _GL_WEIGHTS
    prev = None
    value = None
    err = np.inf
    for level in range(quadrature.MAX_LEVEL + 1):
        width = 1.0 / 2**level
        state = ScalarBranch(sqrt_denom, anchor)
        total = 0j
        try:
            for p in range(2**level):
                t0 = p * width
                vals = np.empty(len(gl_t), dtype=complex)
                for i, t in enumerate(gl_t):
                    s = t0 + width * t
                    if singular:
                        w = a + s * s * delta
                        vals[i] = numer(w) * 2.0 * s * delta / state.value(w)
                    else:
                        w = a + s * delta
                        vals[i] = numer(w) * delta / state.value(w)
                total += width * np.dot(gl_w, vals)
        except BranchJump:
            if level == quadrature.MAX_LEVEL:
                raise
            continue
        value = total
        if prev is not None:
            err = abs(value - prev)
            if err < quadrature.TOL:
                break
        prev = value
    tracker = ScalarBranch(sqrt_denom, anchor)
    for s in _HANDOFF[1:] if singular else _HANDOFF:
        carry = tracker.value(a + s * s * delta if singular else a + s * delta)
    return value, err, carry


def per_level_leg(numer, zeros, a, b, singular, anchor):
    """The array leg with one pass per refinement level and one for the hand-off."""
    delta = b - a

    def points(s):
        return a + s * s * delta if singular else a + s * delta

    def continued(w):
        root, (ambiguous,) = continue_branch(np.sqrt(_product(zeros, w)), anchor)
        if ambiguous:
            raise BranchJump("square-root continuation ambiguous; refine sampling")
        return root

    prev = None
    value = None
    err = np.inf
    for level in range(quadrature.MAX_LEVEL + 1):
        panels = 2**level
        width = 1.0 / panels
        s = (np.arange(panels)[:, None] * width + width * _GL_NODES).ravel()
        w = points(s)
        try:
            root = continued(w)
        except BranchJump:
            if level == quadrature.MAX_LEVEL:
                raise
            continue
        vals = numer(w) * 2.0 * s * delta / root if singular else numer(w) * delta / root
        value = width * np.dot(np.tile(_GL_WEIGHTS, panels), vals)
        if prev is not None:
            err = abs(value - prev)
            if err < quadrature.TOL:
                break
        prev = value
    carry = continued(points(_HANDOFF[1:] if singular else _HANDOFF))[-1]
    return value, err, carry


class ProductPoly:
    """``prod(w - r)`` over ``roots``, evaluated factor by factor.

    Both walks evaluate it to a few ulps, also next to a zero, as
    ``path_integral`` does.  Horner's scheme on the coefficients cancels
    there, and numpy's array loop rounds complex products differently from
    its scalar one: near the singular end of a random degree-9 leg the two
    coefficient evaluations were measured 5e-8 apart, which moved integrals
    by up to 6e-11.
    """

    def __init__(self, roots):
        self.roots = roots

    def __call__(self, w):
        out = 1.0
        for r in self.roots:
            out = out * (w - r)
        return out


def _random_poly(rng, degree, zero_at_origin=False):
    """Random monic polynomial and its zeros; with ``zero_at_origin`` it
    vanishes exactly at 0."""
    roots = rng.uniform(-1, 1, degree) + 1j * rng.uniform(-1, 1, degree)
    if zero_at_origin:
        roots[0] = 0j
    return ProductPoly(roots), roots


def _grazing_leg(rng, zero):
    """A leg passing at a log-uniform distance (or exactly through) ``zero``."""
    u = np.exp(2j * np.pi * rng.uniform())
    half = rng.uniform(0.05, 0.5)
    eps = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-12, -2)
    return zero - half * u + 1j * eps * u, zero + half * u + 1j * eps * u


def _random_walk(rng):
    """Sample points and an anchor for one random leg."""
    zero_at_origin = rng.uniform() < 0.3
    H, zeros = _random_poly(rng, int(rng.integers(2, 10)), zero_at_origin)
    if rng.uniform() < 0.5:
        a, b = _grazing_leg(rng, zeros[0])
    else:
        a, b = complex(*rng.uniform(-1.5, 1.5, 2)), complex(*rng.uniform(-1.5, 1.5, 2))
    singular = rng.uniform() < 0.3
    if rng.uniform() < 0.3:
        s = _HANDOFF[1:] if singular else _HANDOFF
    else:
        level = int(rng.integers(0, 4))
        gl_t = 0.5 * (np.polynomial.legendre.leggauss(int(rng.choice([4, 8, 32])))[0] + 1.0)
        width = 1.0 / 2**level
        s = (np.arange(2**level)[:, None] * width + width * gl_t).ravel()
    w = a + s * s * (b - a) if singular else a + s * (b - a)
    kind = rng.integers(0, 5)
    if kind == 0:
        anchor = None
    elif kind == 1:
        anchor = 0j  # a leg starting on a zero
    elif kind == 2:  # about continuous with the first node, either sign
        anchor = complex(rng.choice([-1, 1]) * np.sqrt(complex(H(w[0] - 1e-3 * (b - a)))))
    elif kind == 3:  # orthogonal to the first root: both signs equidistant
        anchor = 1j * rng.uniform(0.1, 10) * np.sqrt(complex(H(w[0])))
    else:
        anchor = complex(*rng.normal(size=2))
    return H, w, anchor


def _scalar_walk(H, w, anchor):
    state = ScalarBranch(H, anchor)
    return np.array([state.value(x) for x in w])


def _random_paths(rng):
    """200 random integrands and polylines, some starting or ending on a
    zero, some grazing one."""
    cases = []
    for _ in range(200):
        _, zeros = _random_poly(rng, int(rng.integers(2, 10)))
        numer = ComplexPoly(rng.normal(size=int(rng.integers(1, 4)))
                            + 1j * rng.normal(size=1))
        inner = [complex(*rng.uniform(-1.5, 1.5, 2)) for _ in range(rng.integers(0, 3))]
        start = zeros[0] if rng.uniform() < 0.5 else complex(*rng.uniform(-1.5, 1.5, 2))
        end = zeros[-1] if rng.uniform() < 0.5 else complex(*rng.uniform(-1.5, 1.5, 2))
        if rng.uniform() < 0.3:
            inner = list(_grazing_leg(rng, zeros[1]))
        cases.append((numer, zeros, (start, *inner, end)))
    return cases


def _outcome(leg, *args):
    """What ``leg`` returns, or the type of what it raises."""
    try:
        return leg(*args)
    except BranchJump as exc:
        return type(exc)


class TestContinuationMatchesScalarWalk:
    def test_same_signs_and_same_jumps(self):
        rng = np.random.default_rng(20240607)
        jumps = flips = 0
        for _ in range(400):
            H, w, anchor = _random_walk(rng)
            principal = np.sqrt(H(w))
            new, ambiguous = continue_branch(principal, anchor)
            try:
                ref = _scalar_walk(H, w, anchor)
            except BranchJump:
                assert ambiguous.tolist() == [True]
                jumps += 1
                continue
            assert ambiguous.tolist() == [False]
            ref_principal = np.array([np.sqrt(complex(H(x))) for x in w])
            assert np.array_equal(new == principal, ref == ref_principal)
            assert np.array_equal(new == -principal, ref == -ref_principal)
            flips += np.count_nonzero(new != principal)
        # the sample exercises both outcomes
        assert jumps > 20 and flips > 100

    def test_segments_continue_on_their_own(self):
        # walks laid end to end, each from the same anchor, give what each
        # gives alone: the running sign and the ambiguity restart per segment
        rng = np.random.default_rng(20240608)
        jumps = 0
        for _ in range(100):
            H, w, anchor = _random_walk(rng)
            cuts = np.sort(rng.choice(np.arange(1, len(w)), size=min(2, len(w) - 1),
                                      replace=False))
            parts = np.split(w, cuts)
            new, ambiguous = continue_branch(np.sqrt(H(w)), anchor, np.concatenate(([0], cuts)))
            for part, got, flag in zip(parts, np.split(new, cuts), ambiguous):
                alone, (alone_flag,) = continue_branch(np.sqrt(H(part)), anchor)
                assert flag == alone_flag
                if not flag:
                    assert np.array_equal(got, alone)
                jumps += flag
        assert 0 < jumps < 300

    def test_path_integrals_match_scalar_legs(self, monkeypatch):
        cases = _random_paths(np.random.default_rng(7))
        monkeypatch.setattr(quadrature, "MAX_LEVEL", 4)

        def run(leg):
            monkeypatch.setattr(quadrature, "_leg", leg)
            out = []
            for numer, zeros, path in cases:
                try:
                    out.append(path_integral(numer, zeros, path))
                except BranchJump:
                    out.append(None)
            return out

        reference = run(scalar_leg)
        array = run(ARRAY_LEG)
        assert sum(r is None for r in reference) < len(cases) // 2
        for ref, new in zip(reference, array):
            assert (ref is None) == (new is None)
            if ref is not None:
                assert abs(new[0] - ref[0]) <= 1e-12 * (1 + abs(ref[0]))


class TestOnePassLeg:
    """The one-pass ``_leg`` gives the per-level leg's results bit for bit."""

    @pytest.mark.parametrize("max_level", [0, 1, 4])
    def test_random_paths_match_per_level_legs(self, monkeypatch, max_level):
        monkeypatch.setattr(quadrature, "MAX_LEVEL", max_level)
        compared = []

        def both(*args):
            new = _outcome(ARRAY_LEG, *args)
            assert new == _outcome(per_level_leg, *args)
            compared.append(args[-1] is not None)
            if new is BranchJump:
                raise BranchJump("ambiguous")
            return new

        monkeypatch.setattr(quadrature, "_leg", both)
        for numer, zeros, path in _random_paths(np.random.default_rng(7)):
            try:
                path_integral(numer, zeros, path)
            except (BranchJump, NoConvergence):
                pass
        # at level 0 no leg has an error estimate, so only first legs run
        assert len(compared) >= 200
        assert max_level == 0 or sum(compared) > 100

    @staticmethod
    def _head_ambiguity(zeros, a, b, anchor):
        w = a + _HEAD[False] * (b - a)
        _, ambiguous = continue_branch(np.sqrt(_product(zeros, w)), anchor, _HEAD_STARTS)
        return ambiguous.tolist()

    @pytest.mark.parametrize("max_level", [0, 1, 4])
    def test_ambiguous_levels_and_handoff(self, monkeypatch, max_level):
        # an anchor orthogonal to the root at the first node of level 0, or
        # at the start of the hand-off grid, leaves both signs equidistant
        # there alone, as in _random_walk
        monkeypatch.setattr(quadrature, "MAX_LEVEL", max_level)
        rng = np.random.default_rng(11)
        seen = {"level 0": 0, "hand-off": 0}
        for _ in range(20):
            H, zeros = _random_poly(rng, int(rng.integers(2, 10)))
            numer = ComplexPoly(rng.normal(size=2) + 1j * rng.normal(size=2))
            a, b = complex(*rng.uniform(-1.5, 1.5, 2)), complex(*rng.uniform(-1.5, 1.5, 2))
            scale = rng.uniform(0.1, 10)
            for case, s in (("level 0", _GL_NODES[0]), ("hand-off", 0.0)):
                anchor = 1j * scale * np.sqrt(complex(H(a + s * (b - a))))
                expected = [True, False, False] if case == "level 0" else [False, False, True]
                if self._head_ambiguity(zeros, a, b, anchor) != expected:
                    continue
                seen[case] += 1
                args = (numer, zeros, a, b, False, anchor)
                new = _outcome(ARRAY_LEG, *args)
                assert new == _outcome(per_level_leg, *args)
                if case == "hand-off" or max_level == 0:
                    assert new is BranchJump
                else:
                    assert new[1] < np.inf if max_level > 1 else new[1] == np.inf
        assert min(seen.values()) >= 15



class TestPathEnds:
    @staticmethod
    def _first_leg(monkeypatch, start):
        """``path_integral`` of 1/sqrt(w^2 - 1) from ``start`` to 2, and
        whether its first leg was singular."""
        flags = []

        def spy(numer, zeros, a, b, singular, anchor):
            flags.append(singular)
            return ARRAY_LEG(numer, zeros, a, b, singular, anchor)

        monkeypatch.setattr(quadrature, "_leg", spy)
        value, err = path_integral(ComplexPoly([1.0]), [-1.0, 1.0], [start, 2.0])
        return flags[0], value, err

    def test_start_next_to_a_zero_is_singular(self, monkeypatch):
        singular, value, err = self._first_leg(monkeypatch, 1.0 + 1e-9)
        assert singular
        assert err < 1e-8
        assert abs(abs(value.real) - (np.arccosh(2.0) - np.arccosh(1.0 + 1e-9))) < 1e-8

    def test_start_further_off_is_regular(self, monkeypatch):
        singular, value, err = self._first_leg(monkeypatch, 1.0 + 1e-6)
        assert not singular
        # plain panels converge slowly this close to the zero; the error
        # estimate covers the true error
        assert abs(abs(value.real) - (np.arccosh(2.0) - np.arccosh(1.0 + 1e-6))) < err

    @pytest.mark.parametrize("zeros, waypoints", [
        ([-1.0, 1.0], [1.0]),
        ([-1.0, 1.0], [1.0, 2.0, 2.0]),
        ([-1.0, 1.0], [1.0, 1.0]),
        ([], [1.0, 2.0]),
        ([-1.0, 1.0], [1.0, np.nan]),
        ([-1.0, 1.0], [1.0, complex(2.0, np.inf)]),
        ([-1.0, np.nan], [1.0, 2.0]),
        ([-np.inf, 1.0], [1.0, 2.0]),
    ], ids=["single", "repeated", "repeated-pair", "no-zeros", "nan-waypoint",
            "infinite-waypoint", "nan-zero", "infinite-zero"])
    def test_degenerate_paths_rejected(self, zeros, waypoints):
        with pytest.raises(ValueError):
            path_integral(ComplexPoly([1.0]), zeros, waypoints)

    def test_overflowing_leg_raises(self):
        # the product of the zeros' factors overflows at every node
        with pytest.raises(NoConvergence):
            path_integral(ComplexPoly([1.0]), [-1.0, 1.0] * 3, [1.0, 1e150])
