"""Connectivity of the inverse image of [-1, 1] under a polynomial.

Two independent routes to the same verdict:

* the critical-point criterion -- the inverse image is connected exactly
  when every zero of T' maps into [-1, 1];
* a brute-force pixel oracle -- rasterize membership on a grid over the
  bounding box of the zeros of T^2 - 1 and count its 8-connected
  components with :func:`~chebotarev.poly.label_pairs`.

Tests require the two to agree on every fixture.
"""

from dataclasses import dataclass

import numpy as np

from .poly import ComplexPoly, find_roots, label_pairs, point_key, powers

#: Lipschitz safety factor for the grid membership threshold.
LIPSCHITZ_FACTOR = 1.5

#: Smallest image-plane distance to [-1, 1] that still makes a grid cell a member.
TOL_MEMBER = 1e-9

#: Cell-centre rows of the grid raster evaluated together in one band.
_BAND = 32


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


def is_connected(T: ComplexPoly, tol: float = None, seed: int = 0) -> ConnectivityVerdict:
    """Critical-point criterion for connectivity of the inverse image.

    Connected iff every zero of T' has its image within ``tol`` of [-1, 1].
    The default tolerance scales with the coefficients because constructed
    polynomials place critical values exactly on the boundary +-1.
    """
    if T.degree < 2:
        raise ValueError("connectivity criterion needs degree >= 2")
    if tol is None:
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
    return ConnectivityVerdict(ok, tuple(witnesses))


@dataclass
class GridReport:
    """Rasterized membership of the inverse image over a bounding box."""

    bbox: tuple            # (x0, y0, x1, y1)
    resolution: int
    component_count: int
    member: np.ndarray     # bool (ny, nx), indexed [iy, ix]


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
    member = np.empty((ny, nx), dtype=bool)
    for r0 in range(0, ny, _BAND):
        r1 = min(r0 + _BAND, ny)
        dmag = np.abs(corner_powers[r0:r1 + 1] @ slope_rows)
        cellmax = np.maximum(
            np.maximum(dmag[:-1, :-1], dmag[:-1, 1:]),
            np.maximum(dmag[1:, :-1], dmag[1:, 1:]),
        )
        thresh = np.maximum(TOL_MEMBER, LIPSCHITZ_FACTOR * h * cellmax)
        # dist_to_interval's legs; a faithfully rounded hypot is never below
        # the larger leg, so only cells with both legs under the threshold
        # can be members
        w = center_powers[r0:r1] @ at_centers
        x = np.maximum(np.abs(w.real) - 1.0, 0.0)
        y = np.abs(w.imag)
        near = (x < thresh) & (y < thresh)
        near[near] = np.hypot(x[near], y[near]) < thresh[near]
        member[r0:r1] = near
    return GridReport(bbox, resolution, count_components(member), member)


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
    of binary images in two dimensions", IEEE Trans. Computers).
    """
    m = np.pad(report.member, 1).view(np.uint8)
    nw, ne, sw, se = m[:-1, :-1], m[:-1, 1:], m[1:, :-1], m[1:, 1:]
    s = nw + ne + sw + se
    q1 = np.count_nonzero(s == 1)
    q3 = np.count_nonzero(s == 3)
    qd = np.count_nonzero((s == 2) & (nw == se))
    return bool((q1 - q3 - 2 * qd) // 4 == report.component_count)
