"""Connectivity of the inverse image of [-1, 1] under a polynomial.

Two independent routes to the same verdict:

* the critical-point criterion -- the inverse image is connected exactly
  when every zero of T' maps into [-1, 1];
* a brute-force pixel oracle -- rasterize membership on a grid over the
  bounding box of the zeros of T^2 - 1 and count its 8-connected
  components with :func:`~chebotarev.poly.label_pairs`.

Tests require the two to agree on every fixture.

The oracle evaluates only the cells that a Taylor bound cannot rule out.
For the Taylor coefficients ``a_j`` of T at the centre of a block of cells,
``|T(z) - a_0| <= V = sum_(j>=1) |a_j| rho^j`` and
``|T'(z)| <= M = sum_(j>=1) j |a_j| rho^(j - 1)`` within ``rho`` of the
centre (the exclusion test of subdivision root finders: Becker, Sagraloff,
Sharma & Yap, J. Symb. Comput. 2018).  A block is skipped only when
``dist(a_0, [-1, 1]) - V`` is at least ``max(TOL_MEMBER,
LIPSCHITZ_FACTOR * h * M)`` plus a rounding margin above Horner's
a-priori error bound.  Every cell centre of the block then lies at least
that far from [-1, 1], and no cell's threshold exceeds that bound, so a
skipped cell is never a member: the raster is the one that evaluating
every cell gives.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.polynomial import polyval

from .poly import _EPS, ComplexPoly, find_roots, label_pairs, point_key, powers

#: Lipschitz safety factor for the grid membership threshold.
LIPSCHITZ_FACTOR = 1.5

#: Smallest image-plane distance to [-1, 1] that still makes a grid cell a member.
TOL_MEMBER = 1e-9

#: Cell-centre rows of the grid raster evaluated together in one band.
_BAND = 32

#: Cell columns of one screened block; a block spans one band.
_BLOCK = 4

#: Share of a band's blocks kept by the screen from which the whole band is evaluated.
_FULL_BAND = 0.75


def dist_to_interval(w):
    """Euclidean distance from ``w`` to the segment [-1, 1] of the real axis.

    Accepts scalars or numpy arrays.
    """
    if isinstance(w, np.ndarray):
        x = np.maximum(np.abs(w.real) - 1.0, 0.0)
        return np.hypot(x, w.imag)
    w = complex(w)
    x = max(abs(w.real) - 1.0, 0.0)
    return float(np.hypot(x, w.imag))


@dataclass(frozen=True)
class Witness:
    """A critical point, its image, and the image's distance to [-1, 1]."""

    point: complex
    image: complex
    margin: float


@dataclass(frozen=True)
class ConnectivityVerdict:
    connected: bool
    witnesses: tuple

    def __bool__(self):
        return self.connected


def is_connected(T: ComplexPoly, seed: int = 0) -> ConnectivityVerdict:
    """Critical-point criterion for connectivity of the inverse image, once per polynomial.

    Connected iff every zero of T' has its image within
    ``1e-7 (1 + max |coeff|)`` of [-1, 1]; the tolerance scales with the
    coefficients because constructed polynomials place critical values
    exactly on the boundary +-1.  The verdict is stored on ``T`` (arithmetic
    drops it, as it drops ``level``): a later call on the same object
    returns it with no root solve.
    """
    if T._verdict is not None:
        return T._verdict
    if T.degree < 2:
        raise ValueError("connectivity criterion needs degree >= 2")
    tol = 1e-7 * (1.0 + max(abs(c) for c in T.coeffs))
    crits = find_roots(T.derivative(), seed=seed)
    witnesses = []
    ok = True
    for c in sorted(crits, key=point_key):
        image = T(c)
        margin = dist_to_interval(image)
        witnesses.append(Witness(c, image, margin))
        if margin >= tol:
            ok = False
    verdict = ConnectivityVerdict(ok, tuple(witnesses))
    object.__setattr__(T, "_verdict", verdict)
    return verdict


@dataclass
class GridReport:
    """Rasterized membership of the inverse image over a bounding box."""

    bbox: tuple            # (x0, y0, x1, y1)
    resolution: int
    component_count: int
    member: np.ndarray     # bool (ny, nx), indexed [iy, ix]
    evaluated: int         # cells whose centre was evaluated


def grid_oracle(T: ComplexPoly, resolution: int = 512, seed: int = 0, fac=None) -> GridReport:
    """Brute-force connectivity oracle on a pixel grid.

    The box is the bounding box of the zeros of T^2 - 1 inflated by 20%.
    They are the cluster centers of ``fac``, the checked factorization of
    ``T``, when one is given, and otherwise the roots of T - 1 and T + 1,
    whose multiple roots smear far less than those of the product.  A level
    form ``T`` carries is not read here: :func:`~chebotarev.factor.factorize`
    checks it before ``fac`` holds its zeros.
    A cell is a member when the image of its center lies within
    ``max(TOL_MEMBER, LIPSCHITZ_FACTOR * h * max |T'| over the cell corners)``
    of [-1, 1]; the local Lipschitz bound keeps thin arcs from slipping
    between samples.  :func:`count_components` counts its 8-connected pieces.

    The grid is a tensor product, so ``T(x + iy) = sum_j a_j(x + i cy)
    (i (y - cy))^j`` with the Taylor coefficients ``a_j = T^(j) / j!`` about
    the box's centre line ``y = cy``.  One Taylor shift gives the rows
    ``a_j`` at every column abscissa of the cell centres and corners; ``T``
    at the centres and ``T'`` at the corners are then one matrix product
    each with the powers of ``i (y - cy)``.

    The membership raster is filled in bands of ``_BAND`` centre rows, each
    with its own two products against its rows of the power tables, so that
    no full-grid complex or float temporary is made.  A band of r centre
    rows takes r + 1 corner rows; the corner row two bands share is
    evaluated in both.  Within a band the distance to [-1, 1] is computed
    only for cells whose two legs both lie under the threshold.

    Before that, :func:`_screen` splits each band into blocks of
    ``_BLOCK`` columns and skips the blocks whose Taylor bound keeps every
    cell centre farther from [-1, 1] than any cell's threshold can reach
    (see the module docstring); the rule is exact, so skipping changes no
    member.  A band that keeps at least ``_FULL_BAND`` of its blocks is
    evaluated whole, as above.  The other bands are evaluated on their
    kept columns only, stacked a few at a time so that a stack holds
    about one band of cells.  ``evaluated`` in the report counts the cells
    whose centre was evaluated.
    """
    if resolution < 64:
        raise ValueError("resolution must be at least 64")
    if fac is not None:
        roots = [c.center for c in fac.clusters]
    else:
        roots = find_roots(T - 1.0, seed=seed) + find_roots(T + 1.0, seed=seed)
    xs = [r.real for r in roots]
    ys = [r.imag for r in roots]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    half_w = (max(xs) - min(xs)) / 2 * 1.2
    half_h = (max(ys) - min(ys)) / 2 * 1.2
    pad = 0.1 * max(half_w, half_h, 0.25)
    half_w += pad
    half_h += pad
    bbox = (cx - half_w, cy - half_h, cx + half_w, cy + half_h)

    nx = ny = resolution
    hx = (bbox[2] - bbox[0]) / nx
    hy = (bbox[3] - bbox[1]) / ny
    h = max(hx, hy)

    # Taylor rows about the centre line, for the centre and corner columns
    xc = bbox[0] + hx * (np.arange(nx) + 0.5)
    yc = bbox[1] + hy * (np.arange(ny) + 0.5)
    xg = bbox[0] + hx * np.arange(nx + 1)
    yg = bbox[1] + hy * np.arange(ny + 1)
    rows = _taylor_rows(T.coeffs, np.concatenate([xc, xg]) + 1j * cy)
    at_centers = rows[:nx].T
    # Taylor rows of T' follow from those of T: a'_j = (j + 1) a_(j+1)
    slope_rows = (rows[nx:, 1:] * np.arange(1, T.degree + 1)).T
    center_powers = powers(1j * (yc - cy), T.degree)
    corner_powers = powers(1j * (yg - cy), T.degree - 1)
    keep = _screen(T.coeffs, rows[nx:], xg, yg, cy, h)
    count = np.count_nonzero(keep, axis=1)
    whole = ny // _BAND
    # a band that keeps most blocks, and a short last band, is evaluated whole
    full = (count >= _FULL_BAND * keep.shape[1]) | ((count > 0) & (np.arange(len(keep)) >= whole))
    member = np.zeros((ny, nx), dtype=bool)
    evaluated = 0
    for r0 in _BAND * np.flatnonzero(full):
        r1 = min(r0 + _BAND, ny)
        dmag = np.abs(corner_powers[r0:r1 + 1] @ slope_rows)
        cellmax = np.maximum(np.maximum(dmag[:-1, :-1], dmag[:-1, 1:]),
                             np.maximum(dmag[1:, :-1], dmag[1:, 1:]))
        member[r0:r1] = _members(cellmax, center_powers[r0:r1] @ at_centers, h)
        evaluated += (r1 - r0) * nx
    # the other bands with kept blocks go in stacks of about one band of
    # cells: each band's kept blocks, padded with others to the most kept;
    # a short last block is evaluated as the last _BLOCK columns
    sparse = np.flatnonzero((count > 0) & ~full)
    stack = nx // (_BLOCK * count[sparse].max(initial=1))
    grid = member[:whole * _BAND].reshape(whole, _BAND, nx)
    centers = center_powers[:whole * _BAND].reshape(whole, _BAND, -1)
    for i in range(0, len(sparse), stack):
        bands = sparse[i:i + stack]
        blocks = np.argsort(~keep[bands], axis=1, kind="stable")[:, :count[bands].max()]
        first = np.minimum(_BLOCK * blocks, nx - _BLOCK)[..., None]
        corners = (first + np.arange(_BLOCK + 1)).reshape(len(bands), -1)
        cols = first + np.arange(_BLOCK)                    # [band, block, column]
        dmag = np.abs(corner_powers[_BAND * bands[:, None] + np.arange(_BAND + 1)]
                      @ slope_rows.T[corners].transpose(0, 2, 1))
        dmag = dmag.reshape(len(bands), _BAND + 1, -1, _BLOCK + 1)
        dmag = np.maximum(dmag[:, :-1], dmag[:, 1:])
        cellmax = np.maximum(dmag[..., :-1], dmag[..., 1:]).reshape(len(bands), _BAND, -1)
        w = centers[bands] @ rows[cols.reshape(len(bands), -1)].transpose(0, 2, 1)
        near = _members(cellmax, w, h).reshape(len(bands), _BAND, -1, _BLOCK)
        grid[bands[:, None, None], :, cols] = near.transpose(0, 2, 3, 1)
        done = np.zeros((len(bands), nx), dtype=bool)      # a clipped last block overlaps
        done[np.arange(len(bands))[:, None, None], cols] = True
        evaluated += _BAND * np.count_nonzero(done)
    return GridReport(bbox, resolution, count_components(member), member, evaluated)


def _members(cellmax: np.ndarray, w: np.ndarray, h: float) -> np.ndarray:
    """Membership of cells with ``T`` at their centres ``w`` and ``max |T'|`` at their corners."""
    thresh = np.maximum(TOL_MEMBER, LIPSCHITZ_FACTOR * h * cellmax)
    # dist_to_interval's legs; a faithfully rounded hypot is never below
    # the larger leg, so only cells with both legs under the threshold
    # can be members
    x = np.maximum(np.abs(w.real) - 1.0, 0.0)
    y = np.abs(w.imag)
    near = (x < thresh) & (y < thresh)
    near[near] = np.hypot(x[near], y[near]) < thresh[near]
    return near


@np.errstate(over="ignore", invalid="ignore")   # a NaN or an overflow keeps the block
def _screen(coeffs, corner_rows: np.ndarray, xg: np.ndarray, yg: np.ndarray,
            cy: float, h: float) -> np.ndarray:
    """``keep[band, block]``: False only for a block of the raster that holds no member.

    A block is one band of ``_BAND`` cell rows by ``_BLOCK`` cell columns.
    Its centre ``z_b`` is a grid corner, and every cell centre and corner of
    the block lies within ``rho`` of it.  The Taylor coefficients ``a_j`` of
    ``T`` at ``z_b`` come from ``corner_rows``, those on the centre line at
    the abscissa of ``z_b``, shifted by ``t = i (Im z_b - cy)``:
    ``a_j = sum_k C(k, j) t^(k - j) b_k``, one real product against the
    binomial-weighted powers of ``Im z_b - cy`` after a factor ``i^k`` on
    ``b_k``.  :func:`_excluded` drops a block on them.

    The rounding margins are ``gamma (1 + sum |c_k| r^k)`` for ``T`` and
    ``gamma sum k |c_k| r^(k - 1)`` for ``T'``, with ``gamma = 16 (n + 1)
    eps`` and ``r`` the largest ``|x + i cy| + |y - cy|`` over the blocks
    and ``rho`` around them: Horner's a-priori bounds, which cover the
    Taylor shift, the products that fill the raster and this screen.
    """
    n = len(coeffs) - 1
    ny, nx = len(yg) - 1, len(xg) - 1
    r0 = np.arange(0, ny, _BAND)
    c0 = np.arange(0, nx, _BLOCK)
    # a short last band or block is within rho of its centre too
    mid_rows = r0 + (np.minimum(_BAND, ny - r0) + 1) // 2
    mid_cols = c0 + (np.minimum(_BLOCK, nx - c0) + 1) // 2
    rho = np.hypot((yg[1] - yg[0]) * _BAND / 2, (xg[1] - xg[0]) * _BLOCK / 2)
    d = yg[mid_rows] - cy
    k = np.arange(n + 1)
    rotated = np.ascontiguousarray((corner_rows[mid_cols] * np.array([1, 1j, -1, -1j])[k % 4]).T)
    dpow = powers(d, n).real
    gap = np.maximum(k - k[:, None], 0)

    binom = np.ones((n + 1, n + 1))                 # C(k, j), exact while below 2^53
    for j in range(1, n + 1):
        binom[j] = binom[j - 1] * (k - j + 1) / j
    w = (binom * dpow[:, gap]).reshape(-1, n + 1)   # C(k, j) d^(k - j)
    a = (w @ rotated.view(float)).view(complex).reshape(len(r0), n + 1, len(c0))

    # Horner's a-priori bounds for T and T', at the largest radius of any block
    r = np.abs(d).max() + np.abs(xg[mid_cols] + 1j * cy).max() + 2.0 * rho
    cabs = np.abs(np.asarray(coeffs, dtype=complex))
    gamma = 16 * (n + 1) * _EPS
    return ~_excluded(a, rho, h, gamma, gamma * (1.0 + polyval(r, cabs)),
                      gamma * polyval(r, k[1:] * cabs[1:]))


def _excluded(a: np.ndarray, rho: float, h: float, gamma: float, margin: float,
              slope_margin: float) -> np.ndarray:
    """True where the Taylor terms ``a[band, j, block]`` prove a block holds no member.

    Within ``rho`` of the centre, ``|T - a_0| <= V = sum_(j>=1) |a_j| rho^j``
    and ``|T'| <= M = sum_(j>=1) j |a_j| rho^(j - 1)``.  A block is excluded
    when ``dist(a_0, [-1, 1]) - V - margin`` is at least
    ``max(TOL_MEMBER, LIPSCHITZ_FACTOR * h * (M + slope_margin))``, by a
    relative ``gamma``: no cell centre then maps within its cell's threshold
    of [-1, 1].  A NaN or an overflow excludes nothing.
    """
    j = np.arange(a.shape[1])
    reach = np.zeros((2, len(j)))
    reach[0, 1:] = rho ** j[1:]
    reach[1, 1:] = j[1:] * rho ** j[:-1]
    spread, slope = (reach @ np.abs(a)).transpose(1, 0, 2)
    lower = dist_to_interval(a[:, 0]) - spread - margin
    bound = np.maximum(TOL_MEMBER, LIPSCHITZ_FACTOR * h * (slope + slope_margin))
    return lower >= bound * (1.0 + gamma)


def _taylor_rows(coeffs, u: np.ndarray) -> np.ndarray:
    """Row ``i`` holds the Taylor coefficients ``T^(j)(u_i) / j!``, j = 0..n.

    Repeated synthetic division of the ascending ``coeffs`` by ``z - u``
    (a Taylor shift), run for all abscissae ``u`` at once.
    """
    b = np.repeat(np.asarray(coeffs, dtype=complex)[:, None], len(u), axis=1)
    n = len(b) - 1
    for k in range(n):
        for j in range(n - 1, k - 1, -1):
            b[j] += u * b[j + 1]
    return b.T


def count_components(member: np.ndarray) -> int:
    """Number of 8-connected components of the boolean raster ``member``.

    Only member cells are visited, by their flat indices in row-major order.
    The members of one row with no gap between them form a run, which is
    connected by itself, and the runs are the nodes.  A cell's neighbours in
    the next row (NW, N, NE) are index offsets, with column guards so that
    no pair wraps from the end of one row to the start of the next; they are
    consecutive in flat order, so one ``searchsorted`` finds all three among
    the members.  The pairs of runs they join, less repeats of the pair
    before, go to :func:`~chebotarev.poly.label_pairs`, and the count is
    the number of runs that are their own root.
    """
    nx = member.shape[1]
    cells = np.flatnonzero(member)
    col = cells % nx
    start = np.ones(len(cells), dtype=bool)
    start[1:] = (np.diff(cells) != 1) | (col[1:] == 0)
    run = np.cumsum(start) - 1
    pos = np.searchsorted(cells, cells + nx - 1)
    i, j = [], []
    for offset, guard in ((nx - 1, col > 0), (nx, True), (nx + 1, col < nx - 1)):
        found = cells.take(pos, mode="clip") == cells + offset
        hit = found & guard
        i.append(run[hit])
        j.append(run[pos[hit]])
        pos = pos + found  # the next offset's place is past a found member
    i, j = np.concatenate(i), np.concatenate(j)
    fresh = np.ones(len(i), dtype=bool)
    fresh[1:] = (np.diff(i) != 0) | (np.diff(j) != 0)
    k = int(np.count_nonzero(start))
    root = label_pairs(k, i[fresh], j[fresh])
    return int(np.count_nonzero(root == np.arange(k)))


def complement_connected(report: GridReport) -> bool:
    """True when the non-member cells form one piece: the members have no holes.

    With a ring of non-member cells around the box, the Euler number of the
    8-connected members equals their component count minus their holes
    (4-connected pieces of the complement cut off from the ring), and it is a
    sum over 2x2 windows: (Q1 - Q3 - 2 QD) / 4, counting windows with one
    member, three members and a diagonal pair (Gray 1971, "Local properties
    of binary images in two dimensions", IEEE Trans. Computers).  A window
    of four non-members adds nothing, so the sum runs over the members'
    bounding box padded by that ring; with no members it is 0.
    """
    rows = np.flatnonzero(report.member.any(axis=1))
    if len(rows) == 0:
        return report.component_count == 0
    cols = np.flatnonzero(report.member[rows[0]:rows[-1] + 1].any(axis=0))
    m = np.pad(report.member[rows[0]:rows[-1] + 1, cols[0]:cols[-1] + 1], 1).view(np.uint8)
    nw, ne, sw, se = m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:]
    s = nw + ne + sw + se
    q1 = np.count_nonzero(s == 1)
    q3 = np.count_nonzero(s == 3)
    qd = np.count_nonzero((s == 2) & (nw == se))
    return bool((q1 - q3 - 2 * qd) // 4 == report.component_count)
