"""Tracing the inverse image of [-1, 1] as explicit analytic arc polylines.

The inverse image of a degree-n polynomial consists of n analytic Jordan
arcs whose endpoints are the zeros of T^2 - 1, counted with multiplicity.
Writing the level as cos(theta), theta in [0, pi], each arc is swept by the
n roots of T(z) - cos(theta).  The levels are solved in blocks of 48 by one
Aberth iteration (:func:`~chebotarev.poly.level_roots`), and every level
starts on its curve: in the first block each chain starts on the
first-order Puiseux branch leaving its endpoint (:func:`_puiseux_starts`),
in later blocks on the cubic in theta through its last four accepted rows
(:func:`_extrapolated`).  The roots come back as the iteration settled,
without Newton polish, so root i normally continues chain i.  One array
test over the block (:func:`_clear_prefix`) accepts its leading levels on
which every chain's nearest root, against its linearly extrapolated
position, is its own root and lies within the chain's allowance; on those
levels the matcher would keep the roots as they are.  The first level of
the trace and each level the test refuses go to :func:`_match`, a greedy
global assignment against the chains' linearly extrapolated positions that
decides where two chains contend for one root; the block's later levels
then continue in the matched order and go back to the array test.  At the
first level that did not settle or whose match is in doubt, the tracer
falls back to one-row ``level_roots`` blocks, bisecting the step until
every level settles and its match is clear, and the next block starts
after that level.
Extrapolation carries chains straight through interior crossing points
where plain nearest-neighbor matching would turn the corner.  At such a
crossing the split into n arcs, each mapped one to one onto
[-1, 1], is not unique: which ends pair up through it follows the last
digits of the level roots, though not the seed.  The endpoints are the
zeros of T^2 - 1 from :func:`~chebotarev.factor.factorize`, which takes
them from a solved polynomial's level form when that form passes its
checks.  A zero of T^2 - 1 of multiplicity kappa collects kappa arc ends
meeting at equal angles 2*pi/kappa.  Near a double zero q,
T -/+ 1 = c_2 (z - q)^2 + ... with c_2 != 0, so its two arc ends leave q in
opposite directions and are one analytic arc through q: the two incident
arcs are conjoined, and the joined arc runs from its end that comes first
in :func:`~chebotarev.poly.point_key` order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .connect import CROSSING, is_connected
from .errors import MatchingAmbiguity, NotATree
from .factor import factorize
from .poly import ComplexPoly, cluster_roots, find_roots, label_pairs, level_roots, point_key


@dataclass(frozen=True)
class Arc:
    """One traced arc: polyline samples with their level parameters."""

    samples: tuple
    levels: tuple                # theta per sample, each in [0, pi]
    start_point: complex         # zero of T^2 - 1 at samples[0]
    end_point: complex           # zero of T^2 - 1 at samples[-1]
    conjoined_through: tuple = ()


def _arc(samples, levels, through=()):
    """An :class:`Arc` that starts and ends at its first and last sample."""
    return Arc(tuple(samples), tuple(levels), samples[0], samples[-1], tuple(through))


def _expanded(clusters):
    return [c.center for c in clusters for _ in range(c.multiplicity)]


#: Fewest level steps :func:`trace` takes; every chain has ``steps + 1`` samples.
MIN_STEPS = 64

#: Levels solved together in one :func:`~chebotarev.poly.level_roots` block.
#: Of 16, 24, 32, 48 and 64, blocks of 48 and 64 traced the benchmark
#: polynomials at 256 steps in the least CPU time.
_BLOCK = 48

#: Length in SVG units of the longer side of :func:`arcs_to_svg`'s viewBox.
SVG_SIZE = 720


def _greedy_assign(preds, candidates):
    """Greedy global matching of predicted positions to candidates, nearest first.

    Returns each prediction's candidate index and distance, as arrays.  When
    every row's nearest candidate (first on ties) is a different one, that
    is already the greedy answer: each such pick is the smallest remaining
    pair of its row and takes no column another row needs.  Only otherwise
    are all pairs taken in order of ``(dist, i, j)``.
    """
    dist = np.abs(candidates[None, :] - preds[:, None])
    nearest = dist.argmin(axis=1)
    if len(set(nearest.tolist())) == len(nearest):
        return nearest, dist[np.arange(len(preds)), nearest]
    cols = np.empty(len(preds), dtype=int)
    taken_row = [False] * len(preds)
    taken_col = [False] * len(candidates)
    left = len(preds)
    for flat in np.argsort(dist, axis=None, kind="stable").tolist():
        i, j = divmod(flat, len(candidates))
        if taken_row[i] or taken_col[j]:
            continue
        taken_row[i] = taken_col[j] = True
        cols[i] = j
        left -= 1
        if not left:
            break
    return cols, dist[np.arange(len(preds)), cols]


def _puiseux_starts(T, clusters, levels):
    """Every chain's start at the ``levels`` c = cos(theta) of the first block.

    At a zero p of T - 1 of multiplicity k, with ``c_k = T^(k)(p) / k!``,
    the k arcs leave p along the first-order Puiseux branches
    ``p + ((c - 1) / c_k)^(1/k) e^(2 pi i j / k)``; branch j starts the
    cluster's j-th copy, in the column order of :func:`_expanded`.  A cluster
    whose starts are not finite (``c_k`` evaluates to 0) starts at p.
    """
    c = np.asarray(levels)[:, None]
    derivatives = [T]
    columns = []
    for cluster in clusters:
        k = cluster.multiplicity
        while len(derivatives) <= k:
            derivatives.append(derivatives[-1].derivative())
        ck = derivatives[k](cluster.center) / math.factorial(k)
        roots_of_unity = np.exp(2j * np.pi * np.arange(k) / k)
        with np.errstate(all="ignore"):
            z = cluster.center + ((c - 1.0) / ck) ** (1.0 / k) * roots_of_unity
        columns.append(z if np.isfinite(z).all() else np.full(z.shape, cluster.center))
    return np.hstack(columns)


def _extrapolated(rows, levels, thetas):
    """Every chain's start at the levels ``thetas``.

    Each chain is continued on the cubic in theta through its last four
    accepted rows, in Lagrange form at their own levels, so rows that
    bisection put between grid levels count where they lie; with fewer
    rows the polynomial has lower degree.
    """
    t = levels[-4:]
    x = np.asarray(thetas)
    weights = np.ones((len(x), len(t)))
    for i, j in itertools.permutations(range(len(t)), 2):
        weights[:, i] *= (x - t[j]) / (t[i] - t[j])
    return weights @ np.array(rows[-4:])


def _predicted(rows):
    """Each chain's next position, extrapolated linearly from its last two samples."""
    return 2.0 * rows[-1] - rows[-2] if len(rows) > 1 else rows[-1]


def _allowance(last, before, scale):
    """A chain's allowance: three times its last step plus 0.01 of ``scale``."""
    return 3.0 * np.abs(last - before) + 0.01 * scale


def _match(rows, roots, scale):
    """The index of each chain's root among ``roots``, or ``None`` when the step is in doubt.

    ``rows`` holds the chains' samples so far, one array per level.  Each
    chain takes a root by :func:`_greedy_assign` against its predicted
    position.  A match is in doubt when it lies beyond the chain's
    allowance, three times its last step plus 0.01 of ``scale`` (0.05 of
    ``scale`` on the first step), unless every contending candidate sits in
    one tight huddle: that is a level where several arcs pass through a
    common point, the choice within the huddle is immaterial, and no amount
    of level bisection could separate the candidates anyway.
    """
    preds = _predicted(rows)
    if len(rows) > 1:
        allowance = _allowance(rows[-1], rows[-2], scale)
    else:
        allowance = np.full(len(preds), 0.05 * scale)
    cols, dist = _greedy_assign(preds, roots)
    for i in np.flatnonzero(dist > allowance).tolist():
        contenders = roots[np.abs(roots - preds[i]) <= 1.5 * dist[i]]
        spread = np.abs(contenders[:, None] - contenders[None, :]).max()
        if spread > 0.2 * dist[i]:
            return None
    return cols


def _clear_prefix(rows, solved, scale):
    """How many leading levels of a solved block :func:`_match` would take as they are.

    ``solved`` holds the block's roots per level, ``None`` where a level did
    not settle.  Level ``k`` is clear when, against the positions
    extrapolated from the two rows before it (the block's own rows after
    its first level), every chain's nearest root (first on ties) is its own
    root and lies within its allowance: the arithmetic of
    :func:`_predicted` and :func:`_match`, in one ``(K, n, n)`` distance
    array.  :func:`_match` gives such a level the identity permutation, so
    the accepted rows are the same.  The count stops at the first level that
    is ``None`` or not clear; with only one row so far (the first level,
    whose allowance differs) it is 0.
    """
    if len(rows) < 2:
        return 0
    count = next((k for k, roots in enumerate(solved) if roots is None), len(solved))
    chain = np.array(rows[-2:] + solved[:count])
    preds = 2.0 * chain[1:-1] - chain[:-2]
    allowance = _allowance(chain[1:-1], chain[:-2], scale)
    dist = np.abs(chain[2:, None, :] - preds[:, :, None])
    own = np.arange(chain.shape[1])
    clear = ((dist.argmin(axis=2) == own).all(axis=1)
             & (dist[:, own, own] <= allowance).all(axis=1))
    return count if clear.all() else int(clear.argmin())


def _advance(rows, levels, T, theta_a, theta_b, scale, depth=0):
    """Extend every chain from level theta_a to theta_b, refining on doubt.

    The level is solved as a one-row :func:`~chebotarev.poly.level_roots`
    block started at the chains' predicted positions and matched by
    :func:`_match`; a level that did not settle or whose match is in doubt
    is split in two halves.
    """
    if depth > 20:
        raise MatchingAmbiguity("level matching still ambiguous at refinement depth 20")
    roots = level_roots(T, [np.cos(theta_b)], _predicted(rows)[None])[0]
    cols = None if roots is None else _match(rows, roots, scale)
    if cols is None:
        mid = 0.5 * (theta_a + theta_b)
        _advance(rows, levels, T, theta_a, mid, scale, depth + 1)
        _advance(rows, levels, T, mid, theta_b, scale, depth + 1)
        return
    rows.append(roots[cols])
    levels.append(float(theta_b))


def trace(T: ComplexPoly, steps: int = 256, seed: int = 0) -> list:
    """Sweep the level parameter and chain the roots into analytic arcs.

    The arcs end on the refined root clusters of ``factorize(T)``, on T = 1
    or T = -1 as its ``signs`` say, so arcs terminate on multiple zeros at
    full accuracy.  The interior levels are solved in blocks of ``_BLOCK``
    by :func:`~chebotarev.poly.level_roots`, started on the curves: the
    first block on the first-order Puiseux branches leaving the zeros of
    T - 1 (:func:`_puiseux_starts`), the later ones on the cubic in theta
    through each chain's last four accepted rows (:func:`_extrapolated`).
    The block's leading levels whose match is clear are accepted in one
    array test (:func:`_clear_prefix`).  :func:`_match` decides the first
    level and each level that test refuses; the block's later levels keep
    the order it chose and go back to the array test.  At the first level
    that did not settle or whose match is in doubt, that level is taken by
    one-row blocks with bisection (:func:`_advance`) and the next block
    starts after it.
    Chains whose shared endpoint is a double zero of T^2 - 1 are conjoined
    (:func:`_conjoin`): a double zero is an interior point of one analytic
    arc, which passes straight through it.
    """
    if steps < MIN_STEPS:
        raise ValueError(f"steps must be at least {MIN_STEPS}")
    fac = factorize(T, seed=seed)
    plus_clusters = [c for c, sign in zip(fac.clusters, fac.signs) if sign == 1]
    minus_clusters = [c for c, sign in zip(fac.clusters, fac.signs) if sign == -1]
    plus_roots, minus_roots = _expanded(plus_clusters), _expanded(minus_clusters)
    scale = 1.0 + max(abs(r) for r in plus_roots + minus_roots)

    rows, levels = [np.array(plus_roots)], [0.0]
    grid = [np.pi * m / steps for m in range(steps + 1)]
    m = 1
    while m < steps:
        block = range(m, min(m + _BLOCK, steps))
        thetas = [grid[k] for k in block]
        cosines = np.cos(thetas)
        if len(rows) == 1:
            starts = _puiseux_starts(T, plus_clusters, cosines)
        else:
            starts = _extrapolated(rows, levels, thetas)
        solved = level_roots(T, cosines, starts)
        k = 0
        while k < len(block):
            clear = _clear_prefix(rows, solved[k:], scale)
            rows.extend(solved[k:k + clear])
            levels.extend(thetas[k:k + clear])
            k += clear
            if k == len(block):
                break
            cols = None if solved[k] is None else _match(rows, solved[k], scale)
            if cols is None:
                _advance(rows, levels, T, grid[block[k] - 1], grid[block[k]], scale)
                k += 1
                break
            # the block's later levels continue in the matched order
            solved[k:] = [None if roots is None else roots[cols] for roots in solved[k:]]
            rows.append(solved[k])
            levels.append(thetas[k])
            k += 1
        m = block.start + k

    minus = np.array(minus_roots)
    cols, _ = _greedy_assign(_predicted(rows), minus)
    rows.append(minus[cols])
    levels.append(float(np.pi))
    arcs = [_arc(samples, levels) for samples in np.array(rows).T.tolist()]
    doubles = [c.center for c in plus_clusters + minus_clusters if c.multiplicity == 2]
    return _conjoin(arcs, doubles)


def _from_end(arc, end):
    """The samples, levels and conjoined points of ``arc``, read from its end ``end``."""
    if end == 0:
        return arc.samples, arc.levels, arc.conjoined_through
    return arc.samples[::-1], arc.levels[::-1], arc.conjoined_through[::-1]


def _conjoin(arcs, doubles):
    """Join the two arcs at each double zero in ``doubles`` into one arc.

    An arc ends at a double zero when its end sample is that centre.  A joined
    arc runs from its end that comes first in :func:`~chebotarev.poly.point_key`
    order, with its samples, levels and conjoined points in order along it, so
    it does not depend on which of the two chains leaving the double zero took
    which column.  Returns the arcs sorted by their ends.
    """
    for q in doubles:
        incident = [(arc, end) for arc in arcs for end in (0, -1) if arc.samples[end] == q]
        if len(incident) != 2:
            continue
        (a, ea), (b, eb) = incident
        if a is b:
            continue  # would close a loop; leave the arcs separate
        sa, la, ta = _from_end(a, ea)
        sb, lb, tb = _from_end(b, eb)
        arcs.remove(a)
        arcs.remove(b)
        joined = _arc(sa[::-1] + sb[1:], la[::-1] + lb[1:], ta[::-1] + (q,) + tb)
        if point_key(joined.end_point) < point_key(joined.start_point):
            joined = _arc(*_from_end(joined, -1))
        arcs.append(joined)

    arcs.sort(key=lambda a: (point_key(a.start_point), point_key(a.end_point)))
    return arcs


def junction_angles(T: ComplexPoly, vertex: complex, seed: int = 0) -> list:
    """Tangent directions of the arcs meeting at a multiple zero of T^2 - 1.

    Measured by solving the level equation at two small offsets from the
    vertex level and extrapolating each incident direction to radius zero.
    Returns the sorted list of angles; successive gaps are 2*pi/kappa for a
    zero of multiplicity kappa, read off the nearest cluster of ``factorize``,
    as is the level, 1 or -1, it lies on.
    """
    vertex = complex(vertex)
    fac = factorize(T, seed=seed)
    near, sign = min(zip(fac.clusters, fac.signs), key=lambda cv: abs(cv[0].center - vertex))
    kappa = near.multiplicity
    if abs(near.center - vertex) > 1e-6 * (1.0 + abs(vertex)) or kappa < 2:
        raise ValueError("vertex must be a multiple zero of T^2 - 1")

    def directions(dtheta):
        level = float(np.cos(dtheta)) if sign > 0 else float(np.cos(np.pi - dtheta))
        roots = find_roots(T - level, seed=seed)
        roots.sort(key=lambda r: abs(r - vertex))
        ends = roots[:kappa]
        radius = float(np.mean([abs(r - vertex) for r in ends]))
        return [float(np.angle(r - vertex)) for r in ends], radius

    dirs_c, r_c = directions(2e-3)
    dirs_f, r_f = directions(1e-3)

    out = []
    for af in dirs_f:
        ac = min(dirs_c, key=lambda a: abs(np.angle(np.exp(1j * (a - af)))))
        diff = float(np.angle(np.exp(1j * (af - ac))))
        extrapolated = af + diff * r_f / (r_c - r_f)
        out.append(float(np.angle(np.exp(1j * extrapolated))))
    return sorted(out)


def find_crossings(T: ComplexPoly, seed: int = 0) -> list:
    """Interior crossing points: critical points mapping into [-1, 1] off its ends.

    These are places where arcs cross without branching; they are not zeros
    of T^2 - 1 and therefore not graph vertices.  They are the centres of the
    free critical point clusters of ``factorize(T)`` whose points the stored
    verdict of :func:`~chebotarev.connect.is_connected` classed as crossings.
    """
    free = factorize(T, seed=seed).free
    kinds = {w.point: w.kind for w in is_connected(T, seed=seed).witnesses} if free else {}
    return [c.center for c in free if all(kinds[p] == CROSSING for p in c.raw_members)]


@dataclass(frozen=True)
class ContinuumGraph:
    """Arc endpoints clustered into vertices, arcs as edges."""

    vertices: tuple
    degrees: tuple
    edges: tuple                 # (vertex index, vertex index) per arc
    is_tree: bool

    @property
    def leaf_count(self):
        return sum(1 for d in self.degrees if d == 1)


def build_graph(arcs, expect_tree: bool = False) -> ContinuumGraph:
    """Cluster arc endpoints into vertices and assemble the incidence graph.

    Each endpoint is the vertex of the :func:`~chebotarev.poly.cluster_roots`
    cluster that holds it.  For a solved construction the graph is a tree
    with the simple points as leaves and the triple points as degree-3
    vertices; ``expect_tree`` turns a violation into :class:`NotATree`.  Connectivity comes from
    :func:`~chebotarev.poly.label_pairs` over the edges.
    """
    clusters = cluster_roots([e for a in arcs for e in (a.start_point, a.end_point)])
    centers = [c.center for c in clusters]
    vertex = {p: i for i, c in enumerate(clusters) for p in c.raw_members}
    edges = [(vertex[a.start_point], vertex[a.end_point]) for a in arcs]
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    degrees = np.bincount(ends.ravel(), minlength=len(centers)).tolist()
    root = label_pairs(len(centers), ends[:, 0], ends[:, 1])
    connected = not root.any()  # one component: every root is vertex 0
    is_tree = connected and len(edges) == len(centers) - 1
    if expect_tree and not is_tree:
        raise NotATree(
            f"{len(centers)} vertices / {len(edges)} edges, connected={connected}"
        )
    return ContinuumGraph(tuple(centers), tuple(degrees), tuple(edges), is_tree)


# ---------------------------------------------------------------------------
# emission


def arcs_to_csv(arcs) -> str:
    """CSV dump: one row per sample, columns arc_id, theta, re, im.

    Each distinct level is formatted once, keyed on its bit pattern so that
    ``-0.0`` stays ``-0``; all rows are written by one ``%`` format.
    """
    samples = np.array([z for a in arcs for z in a.samples], dtype=complex)
    levels = np.array([t for a in arcs for t in a.levels], dtype=float)
    keys, index = np.unique(levels.view(np.int64), return_inverse=True)
    texts = np.array(["%.12g" % t for t in keys.view(float).tolist()], dtype=object)
    values = [None] * (3 * len(levels))
    values[0::3] = texts[index.ravel()].tolist()
    values[1::3] = samples.real.tolist()
    values[2::3] = samples.imag.tolist()
    rows = "".join(f"{aid},%s,%.12g,%.12g\n" * len(a.samples) for aid, a in enumerate(arcs))
    return "arc_id,theta,re,im\n" + rows % tuple(values)


def _digit_words():
    """``uint32`` words of 0 .. 9999 and of .000 .. .999, zero-byte padded."""
    k = np.arange(10**4, dtype=np.uint16)[:, None]
    place = (10 ** np.arange(3, -1, -1)).astype(np.uint16)
    digits = (k // place % 10 + ord("0")).astype(np.uint8)
    whole = np.where((k >= place) | (place == 1), digits, 0).astype(np.uint8)
    frac = np.column_stack([np.full(1000, ord("."), np.uint8), digits[:1000, 1:]])
    return whole.view(np.uint32).ravel(), frac.view(np.uint32).ravel()


_WHOLE, _FRAC = _digit_words()
_SLOT = np.frombuffer(b"\0\0%s", np.uint32)[0]  # for a value formatted one by one


def _fixed3(values, seps):
    """``"%.3f" % v`` of each value after its separator byte, as one string.

    ``rint(|v| * 1000)`` is exact unless ``|v| * 1000`` lies within 1e-6 of a
    half-integer (its rounding error is below 1.2e-9); those values, NaN,
    infinities and ``|v| >= 1e4`` are formatted one by one."""
    a = np.abs(values)
    p = np.where(a < 1e4, a, 1e4) * 1000.0
    m = np.rint(p)
    exact = (m < 1e7) & (np.abs(p - m) < 0.5 - 1e-6)
    m = np.where(exact, m, 0).astype(np.int64)
    rows = np.zeros((len(values), 12), np.uint8)
    rows[:, 0] = seps
    rows[:, 3] = np.where(exact & np.signbit(values), ord("-"), 0)
    words = rows.view(np.uint32)
    words[:, 1] = np.where(exact, _WHOLE[m // 1000], _SLOT)
    words[:, 2] = np.where(exact, _FRAC[m % 1000], 0)
    text = rows[rows != 0].tobytes().decode("ascii")
    return text % tuple("%.3f" % v for v in values[~exact].tolist())


def arcs_to_svg(arcs, c_points=(), d_points=(), z_points=()) -> str:
    """Deterministic SVG rendering of the traced continuum.

    Arcs are polylines in arc-id order; prescribed points are filled
    circles, bifurcation points triangles, tangency points crosses.  The
    viewBox derives from the bounding box of everything drawn, and its
    longer side is ``SVG_SIZE`` units.  The polylines' points are written
    by one exact ``%.3f`` kernel (:func:`_fixed3`) over all coordinates.
    """
    samples = [np.array(a.samples, dtype=complex) for a in arcs]
    marks = [complex(p) for p in list(c_points) + list(d_points) + list(z_points)]
    pts = np.concatenate(samples + [np.array(marks, dtype=complex)])
    if not len(pts):
        raise ValueError("nothing to draw")
    x0, x1 = float(np.min(pts.real)), float(np.max(pts.real))
    y0, y1 = float(np.min(pts.imag)), float(np.max(pts.imag))
    w = max(x1 - x0, 1e-6)
    h = max(y1 - y0, 1e-6)
    pad = 0.08 * max(w, h)
    x0, x1, y0, y1 = x0 - pad, x1 + pad, y0 - pad, y1 + pad
    w, h = x1 - x0, y1 - y0
    scale = SVG_SIZE / max(w, h)
    width, height = w * scale, h * scale

    def sx(p):
        return (p.real - x0) * scale

    def sy(p):
        return height - (p.imag - y0) * scale

    mark = 0.008 * SVG_SIZE
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.1f}" '
        f'height="{height:.1f}" viewBox="0 0 {width:.6g} {height:.6g}">',
        f'<rect x="0" y="0" width="{width:.6g}" height="{height:.6g}" fill="#ffffff"/>',
    ]
    lengths = np.array([len(s) for s in samples], dtype=int)
    drawn = pts[:lengths.sum()]
    seps = np.full((len(drawn), 2), [ord(" "), ord(",")], np.uint8)
    seps[(np.cumsum(lengths) - lengths)[lengths > 0], 0] = ord("\n")  # arc starts
    xy = np.column_stack([(drawn.real - x0) * scale, height - (drawn.imag - y0) * scale])
    pieces = iter(_fixed3(xy.ravel(), seps.ravel()).split("\n")[1:])
    for s in samples:
        coords = next(pieces) if len(s) else ""
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#1b5f8a" stroke-width="1.6"/>'
        )
    for p in c_points:
        p = complex(p)
        out.append(
            f'<circle cx="{sx(p):.3f}" cy="{sy(p):.3f}" r="{mark:.2f}" fill="#c0392b"/>'
        )
    for p in d_points:
        p = complex(p)
        x, y = sx(p), sy(p)
        m = mark * 1.3
        out.append(
            f'<path d="M {x:.3f} {y - m:.3f} L {x - m:.3f} {y + m:.3f} '
            f'L {x + m:.3f} {y + m:.3f} Z" fill="#1d8348"/>'
        )
    for p in z_points:
        p = complex(p)
        x, y = sx(p), sy(p)
        m = mark
        out.append(
            f'<path d="M {x - m:.3f} {y - m:.3f} L {x + m:.3f} {y + m:.3f} '
            f'M {x - m:.3f} {y + m:.3f} L {x + m:.3f} {y - m:.3f}" '
            f'stroke="#8e44ad" stroke-width="1.8"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
