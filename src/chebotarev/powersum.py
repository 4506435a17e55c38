"""Power-sum construction of polynomials with connected inverse image.

A configuration of prescribed endpoints ``c`` (simple), bifurcation points
``d`` (triple) and tangency points ``z`` (double), together with sign blocks
``alpha``, ``gamma``, ``beta`` in {-1, +1}, determines a degree-n polynomial
with connected inverse image of [-1, 1] as soon as

    sum_j alpha_j c_j^k + 3 sum_j gamma_j d_j^k + 2 sum_j beta_j z_j^k = 0
                                                        for k = 1 .. n-1,

with the sign balance  sum alpha + 3 sum gamma + 2 sum beta = 0.  The
polynomial is rebuilt from the positive-sign points as

    T(z) = 1 + tau * prod_{alpha_j=+1}(z - c_j)
                 * prod_{gamma_j=+1}(z - d_j)^3 * prod_{beta_j=+1}(z - z_j)^2

where tau is fixed by requiring T = -1 at the first negative-sign point;
:func:`~chebotarev.poly.level_polynomial` builds it and checks that
``T + 1`` is tau times the product over the negative-sign points.  This
module poses the system for a caller-declared set of free, fixed and
symmetry-linked points and solves it by damped Gauss-Newton.

Every point is real-affine in the real unknowns x, so each
:class:`ProblemSpec` is compiled once into ``points = p0 + A @ x`` and the
weights w (role weight times sign).  The residual is then the w-weighted
sum of ``points**k`` and its Jacobian ``((w k) points**(k-1))^T @ A``, with
no Python loop over the points.
"""

import itertools
import numbers
from dataclasses import dataclass

import numpy as np

from .analysis import capacity
from .errors import DegenerateSolution, NoConvergence
from .poly import ComplexPoly, cluster_roots, level_polynomial

#: Multiplicity of each role's points as zeros of T^2 - 1, and so their
#: weight in the power sums: endpoints c, bifurcation points d, tangency points z.
MULTIPLICITY = {"c": 1, "d": 3, "z": 2}
ROLES = tuple(MULTIPLICITY)
_SIGN_FIELDS = {"c": "simple_signs", "d": "triple_signs", "z": "double_signs"}
#: Document keys of the sign blocks, in ``ROLES`` order.
_SIGN_KEYS = ("alpha", "gamma", "beta")
_STATUSES = ("fixed", "free_complex", "free_real", "free_imag", "linked")
_LINK_KINDS = ("conjugate", "negate", "negate_conjugate")

#: Points closer than this are considered collided.
DISTINCT_TOL = 1e-6


@dataclass(frozen=True)
class SignConfig:
    """Sign blocks for the simple / triple / double point families."""

    degree: int
    simple_signs: tuple
    triple_signs: tuple
    double_signs: tuple

    def __post_init__(self):
        for field in _SIGN_FIELDS.values():
            object.__setattr__(self, field, tuple(int(s) for s in getattr(self, field)))
        blocks = [self.signs_for(r) for r in ROLES]
        _block_sizes(self.num_simple, self.degree, [len(b) for b in blocks])
        if any(s not in (-1, 1) for b in blocks for s in b):
            raise ValueError("signs must be +-1")
        if self.balance != 0:
            raise ValueError(f"sign balance {self.balance} != 0")

    @property
    def num_simple(self):
        return len(self.simple_signs)

    @property
    def balance(self):
        return _balance(self.signs_for(r) for r in ROLES)

    @property
    def block_plus_counts(self):
        """(+1 count per block) -- the permutation-invariant fingerprint."""
        return tuple(self.signs_for(r).count(1) for r in ROLES)

    def signs_for(self, role):
        return getattr(self, _SIGN_FIELDS[role])


def _balance(blocks):
    """Multiplicity-weighted sign sum of the blocks, given in ``ROLES`` order."""
    return sum(m * sum(b) for m, b in zip(MULTIPLICITY.values(), blocks))


def _block_sizes(nu, n, lengths=None):
    """``(nu, nu - 2, n - 2 nu + 3)``: the simple, triple and double block sizes.

    Checks in turn: at least 3 simple points, the given triple block length,
    a degree of at least ``2 nu - 3``, the given double block length.
    """
    if nu < 3:
        raise ValueError("need at least 3 simple points")
    sizes = (nu, nu - 2, n - 2 * nu + 3)
    if lengths and lengths[1] != sizes[1]:
        raise ValueError(f"expected {sizes[1]} triple signs, got {lengths[1]}")
    if sizes[2] < 0:
        raise ValueError(f"degree {n} too small for {nu} simple points")
    if lengths and lengths[2] != sizes[2]:
        raise ValueError(f"expected {sizes[2]} double signs, got {lengths[2]}")
    return sizes


def enumerate_sign_configs(nu: int, n: int) -> list:
    """All admissible sign configurations, one per block-permutation class.

    The representative puts the +1 entries first in each block.  Blocks are
    interchangeable within themselves, so configurations are fingerprinted
    by their per-block +1 counts; they come in order of descending +1 count
    per block, the simple block slowest.
    """
    choices = [[(1,) * p + (-1,) * (size - p) for p in range(size, -1, -1)]
               for size in _block_sizes(nu, n)]
    return [SignConfig(n, *blocks) for blocks in itertools.product(*choices)
            if _balance(blocks) == 0]


@dataclass(frozen=True)
class PointVar:
    """One prescribed point and how the solver treats it.

    ``status`` is one of ``fixed`` (value given), ``free_complex`` (two real
    unknowns), ``free_real`` / ``free_imag`` (one real unknown along the
    real / imaginary direction from the anchor ``value``), or ``linked``
    (value derived from ``target`` by ``kind``).  ``initial`` is the starting
    point value for free statuses.
    """

    role: str
    index: int
    status: str
    value: complex = 0j
    kind: str = None
    target: tuple = None
    initial: complex = None

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if self.status not in _STATUSES:
            raise ValueError(f"unknown status {self.status!r}")
        if self.status == "linked":
            if self.kind not in _LINK_KINDS:
                raise ValueError(f"unknown link kind {self.kind!r}")
            if self.target is None:
                raise ValueError("linked variable needs a target")
            object.__setattr__(self, "target", (str(self.target[0]), int(self.target[1])))
        object.__setattr__(self, "value", complex(self.value))
        if self.initial is not None:
            object.__setattr__(self, "initial", complex(self.initial))

    @property
    def key(self):
        return (self.role, self.index)


@dataclass(frozen=True)
class SolverOptions:
    max_iter: int = 200
    damping: float = 1e-3
    residual_tol: float = None


@dataclass(frozen=True)
class ProblemSpec:
    """A sign configuration plus the free/fixed/linked point declarations.

    Construction compiles the declarations into the affine point map
    ``points = p0 + A @ x`` over the real unknowns ``x``, one row per entry
    of ``vars``, and the weights ``w`` (role weight times sign) of the power
    sums.  Every status and link kind is real-affine in ``x``, so link
    chains are followed once here; cycles and dangling targets raise
    ``ValueError``.
    """

    config: SignConfig
    vars: tuple
    options: SolverOptions = SolverOptions()

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        expected = {(r, i + 1) for r in ROLES for i in range(len(self.config.signs_for(r)))}
        got = {v.key for v in self.vars}
        if got != expected:
            raise ValueError("variable declarations do not cover the configuration")
        self._compile()
        n = self.config.degree
        m = self.A.shape[1]
        if m > 2 * (n - 1):
            raise ValueError(f"{m} real unknowns exceed the {2 * (n - 1)} equations")

    def _compile(self):
        row = {v.key: i for i, v in enumerate(self.vars)}
        layout = unknown_layout(self)
        p0 = np.array([0j if v.status == "free_complex" else v.value for v in self.vars])
        A = np.zeros((len(self.vars), len(layout)), dtype=complex)
        for col, (v, comp) in enumerate(layout):
            A[row[v.key], col] = 1j if comp == "im" or v.status == "free_imag" else 1.0
        settled = set()

        def settle(key, chain):
            if key in chain:
                raise ValueError(f"link cycle through {key}")
            if key not in row:
                raise ValueError(f"link target {key} does not exist")
            v = self.vars[row[key]]
            if v.status == "linked" and key not in settled:
                settle(v.target, chain | {key})
                z, a = p0[row[v.target]], A[row[v.target]]
                if v.kind != "negate":
                    z, a = z.conjugate(), a.conj()
                if v.kind != "conjugate":
                    z, a = -z, -a
                p0[row[key]], A[row[key]] = z, a
            settled.add(key)

        for v in self.vars:
            settle(v.key, frozenset())
        w = np.array([MULTIPLICITY[v.role] * self.config.signs_for(v.role)[v.index - 1]
                      for v in self.vars], dtype=float)
        for name, arr in (("p0", p0), ("A", A), ("w", w)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def residual_tol(self):
        if self.options.residual_tol is not None:
            return self.options.residual_tol
        return 1e-11 * self.config.degree


def unknown_layout(spec: ProblemSpec) -> list:
    """(var, component) pairs in assignment-vector order.

    ``component`` is ``"re"`` / ``"im"`` for free_complex and ``"t"`` for the
    one-parameter statuses.
    """
    layout = []
    for v in spec.vars:
        if v.status == "free_complex":
            layout.append((v, "re"))
            layout.append((v, "im"))
        elif v.status in ("free_real", "free_imag"):
            layout.append((v, "t"))
    return layout


def _points(spec: ProblemSpec, x) -> np.ndarray:
    return spec.p0 + spec.A @ np.asarray(x, dtype=float)


def resolve_points(spec: ProblemSpec, x) -> dict:
    """All point values (including linked ones) for an assignment vector."""
    return {v.key: complex(p) for v, p in zip(spec.vars, _points(spec, x))}


def residual(spec: ProblemSpec, x) -> np.ndarray:
    """The 2(n-1) real components of the weighted power sums, k = 1 .. n-1."""
    ks = np.arange(1, spec.config.degree)
    # rows added in ``vars`` order, which fixes the rounding of the sums
    total = (spec.w[:, None] * _points(spec, x)[:, None] ** ks).sum(axis=0)
    return np.column_stack([total.real, total.imag]).ravel()


def jacobian(spec: ProblemSpec, x) -> np.ndarray:
    """Analytic derivative of :func:`residual` w.r.t. the assignment vector."""
    ks = np.arange(1, spec.config.degree)
    dS = ((spec.w[:, None] * ks) * _points(spec, x)[:, None] ** (ks - 1)).T @ spec.A
    return np.column_stack([dS.real, dS.imag]).reshape(2 * len(ks), -1)


def default_initial(spec: ProblemSpec) -> np.ndarray:
    """Starting vector from the declared initial values.

    Free points without an initial value fall back to a simple heuristic:
    bifurcation points start at the centroid of the simple points, tangency
    points spread along the segment between the two most distant simple
    points, and anything else starts at the anchor.
    """
    refs = [v.value if v.status == "fixed" else v.initial for v in spec.vars if v.role == "c"]
    refs = [z for z in refs if z is not None]
    centroid = sum(refs) / len(refs) if refs else 0j
    if len(refs) >= 2:
        pairs = [(abs(a - b), a, b) for i, a in enumerate(refs) for b in refs[i + 1:]]
        _, ca, cb = max(pairs, key=lambda t: t[0])
    else:
        ca = cb = centroid

    n_z = max(1, len(spec.config.double_signs))
    x0 = []
    for v, comp in unknown_layout(spec):
        init = v.initial
        if init is None:
            if v.role == "d":
                init = centroid
            elif v.role == "z":
                frac = v.index / (n_z + 1)
                init = ca + frac * (cb - ca)
            else:
                init = v.value
        offset = init - (0 if v.status == "free_complex" else v.value)
        x0.append(offset.imag if comp == "im" or v.status == "free_imag" else offset.real)
    return np.array(x0, dtype=float)


@dataclass(frozen=True)
class Solution:
    """A solved configuration with its reconstructed polynomial."""

    config: SignConfig
    points: dict            # role -> tuple of values in index order
    tau: complex
    poly: ComplexPoly
    residual_inf_norm: float
    capacity: float
    assignment: tuple

    def point(self, role, index):
        return self.points[role][index - 1]


def _points_by_role(config, mapping):
    return {r: tuple(mapping[(r, i + 1)] for i in range(len(config.signs_for(r))))
            for r in ROLES}


def _signed_points(config: SignConfig, points) -> tuple:
    """``(plus, minus)``: the ``(point, multiplicity)`` pairs of each sign.

    The multiplicities are :data:`MULTIPLICITY`; the positive-sign points
    are the zeros of ``T - 1``, the others those of ``T + 1``.
    """
    plus, minus = [], []
    for role, mult in MULTIPLICITY.items():
        for p, s in zip(points[role], config.signs_for(role)):
            (plus if s == 1 else minus).append((complex(p), mult))
    return tuple(plus), tuple(minus)


def _check_distinct(values):
    for cl in cluster_roots(list(values), scale=1.0, tol=DISTINCT_TOL):
        if cl.multiplicity > 1:
            a, b = cl.raw_members[:2]
            raise DegenerateSolution(f"points {a:.8g} and {b:.8g} collided")


def solve(spec: ProblemSpec, initial=None) -> Solution:
    """Damped Gauss-Newton on the power-sum residual.

    Levenberg damping starts at ``options.damping`` and moves by factors of
    10 on rejected / accepted steps.  Raises :class:`NoConvergence` when the
    iteration cap is hit above tolerance or the residual is not finite,
    :class:`DegenerateSolution` when solved points collide,
    :class:`PowerSumViolation` when the level products disagree, and
    ``ValueError`` for a non-finite starting vector.

    The returned ``Solution.poly`` is :func:`level_polynomial` of the solved
    points with their signs and multiplicities, so it carries its
    :class:`LevelForm`; ``factorize`` splits it on those points without root
    finding.
    """
    x = np.asarray(default_initial(spec) if initial is None else initial, dtype=float)
    if len(x) != spec.A.shape[1]:
        raise ValueError(f"initial vector length {len(x)} != {spec.A.shape[1]} unknowns")
    if not np.isfinite(x).all():
        raise ValueError("initial vector must be finite")
    tol = spec.residual_tol
    lam = spec.options.damping
    r = residual(spec, x)

    for _ in range(spec.options.max_iter):
        if np.max(np.abs(r)) < tol:
            break
        J = jacobian(spec, x)
        A = J.T @ J
        g = J.T @ r
        accepted = False
        for _ in range(30):
            try:
                delta = np.linalg.solve(A + lam * np.eye(len(x)), -g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = x + delta
            r_new = residual(spec, x_new)
            if np.linalg.norm(r_new) < np.linalg.norm(r):
                x, r = x_new, r_new
                lam = max(lam / 10.0, 1e-14)
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break

    res_inf = float(np.max(np.abs(r))) if len(r) else 0.0
    if not res_inf < tol:  # a NaN residual never converges
        raise NoConvergence(f"residual {res_inf:.3e} above tolerance {tol:.3e}")

    mapping = resolve_points(spec, x)
    _check_distinct(mapping.values())
    points = _points_by_role(spec.config, mapping)
    T = level_polynomial(*_signed_points(spec.config, points))
    return Solution(spec.config, points, T.level.tau, T, res_inf, capacity(T),
                    tuple(float(v) for v in x))


def power_sums(points, kmax: int) -> np.ndarray:
    """Sums of k-th powers of the given points for k = 1 .. kmax."""
    pts = np.asarray(list(points), dtype=complex)
    ks = np.arange(1, kmax + 1)
    if len(pts) == 0:
        return np.zeros(kmax, dtype=complex)
    return (pts[None, :] ** ks[:, None]).sum(axis=1)


# ---------------------------------------------------------------------------
# wire format


def _is_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def read_complex(v) -> complex:
    """A real number or an ``[re, im]`` pair of real numbers, as a complex.

    The one reader of complex values in input documents.  Booleans,
    strings, ``null`` and lists of any other length raise ``TypeError``;
    ``complex()`` alone would take ``true`` as 1 and ``"1+2j"`` as a number.
    """
    parts = v if isinstance(v, (list, tuple)) else (v, 0)
    if len(parts) != 2 or not all(_is_real(x) for x in parts):
        raise TypeError(f"expected a real number or an [re, im] pair, got {v!r}")
    return complex(*parts)


def _read_point(v):
    z = read_complex(v)
    if not np.isfinite(z):
        raise ValueError(f"malformed problem document: non-finite value {v!r}")
    return z


def _read_finite(v):
    if not _is_real(v):
        raise TypeError(f"expected a real number, got {v!r}")
    x = float(v)
    if not np.isfinite(x):
        raise ValueError(f"malformed problem document: non-finite option {v!r}")
    return x


def _read_int(v):
    """An integer field: a real, non-boolean number with an integral value."""
    if not _is_real(v):
        raise TypeError(f"expected an integer, got {v!r}")
    if int(v) != v:
        raise ValueError(f"malformed problem document: expected an integer, got {v!r}")
    return int(v)


def _write_complex(v):
    v = complex(v)
    return [v.real, v.imag]


def spec_from_dict(doc: dict) -> ProblemSpec:
    """Parse the JSON problem document into a :class:`ProblemSpec`."""
    try:
        n = _read_int(doc["n"])
        nu = _read_int(doc["nu"])
        config = SignConfig(n, *(tuple(_read_int(s) for s in doc[key]) for key in _SIGN_KEYS))
        if config.num_simple != nu:
            raise ValueError(f"nu={nu} does not match {config.num_simple} alpha entries")
        vars_ = []
        for item in doc["vars"]:
            if not isinstance(item, dict):
                raise TypeError(f"each vars entry must be an object, got {item!r}")
            target = item.get("target")
            if target is not None:
                target = (target["role"], _read_int(target["index"]))
            initial = item.get("initial")
            vars_.append(PointVar(
                role=item["role"],
                index=_read_int(item["index"]),
                status=item["status"],
                value=_read_point(item.get("value", 0)),
                kind=item.get("kind"),
                target=target,
                initial=None if initial is None else _read_point(initial),
            ))
        opts = doc.get("options", {})
        if not isinstance(opts, dict):
            raise TypeError(f"options must be an object, got {opts!r}")
        options = SolverOptions(
            max_iter=_read_int(_read_finite(opts.get("max_iter", SolverOptions.max_iter))),
            damping=_read_finite(opts.get("damping", SolverOptions.damping)),
            residual_tol=(None if opts.get("residual_tol") is None
                          else _read_finite(opts["residual_tol"])),
        )
        return ProblemSpec(config, tuple(vars_), options)
    except (KeyError, TypeError, IndexError, OverflowError) as exc:
        raise ValueError(f"malformed problem document: {exc}") from exc


def solution_to_dict(sol: Solution) -> dict:
    """JSON-ready view of a solution; points as [re, im] pairs."""
    out = {"n": sol.config.degree, "nu": sol.config.num_simple}
    for r, key in zip(ROLES, _SIGN_KEYS):
        out[key] = list(sol.config.signs_for(r))
        out[r] = [_write_complex(p) for p in sol.points[r]]
    return out | {
        "tau": _write_complex(sol.tau),
        "coeffs": [_write_complex(c) for c in sol.poly.coeffs],
        "residual_inf_norm": sol.residual_inf_norm,
        "capacity": sol.capacity,
        "assignment": list(sol.assignment),
    }
