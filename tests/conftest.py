"""Shared builders for the polynomial families and rectangle problems."""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import chebotarev.factor as factor_module
import chebotarev.poly as poly_module
from chebotarev import ComplexPoly, PointVar, ProblemSpec, SignConfig, is_connected, solve
from chebotarev.connect import PLUS


def star(n=5):
    """z**n; the continuum is a 2n-spoke star."""
    return ComplexPoly([0] * n + [1])


def cheb2():
    """2 z^2 - 1; the continuum is the segment [-1, 1]."""
    return ComplexPoly([-1, 0, 2])


def cross(alpha):
    """Family with continuum [-1,1] union [-i*alpha, i*alpha]."""
    s = 2.0 / (1.0 + alpha * alpha)
    return ComplexPoly([1.0 - s, 0.0, s])


def t3(alpha):
    """Cubic family: segment plus a hyperbolic bar, connected for alpha <= sqrt(3)."""
    a2 = alpha * alpha
    den = (1.0 + a2) ** 2
    inner = ComplexPoly([1.0 - a2, 2.0])
    numer = ComplexPoly([-1.0, 1.0]) * inner * inner
    return (-1.0 / den) * numer + (-1.0)


def t4(alpha):
    """Quartic family: segment plus two crossing arcs through +-1/sqrt(2)."""
    den = 1.0 + 4.0 * alpha * alpha
    return ComplexPoly([1.0, 0.0, -8.0 / den, 0.0, 8.0 / den])


def two_intervals():
    """z^2 - 3; the inverse image is two disjoint real intervals."""
    return ComplexPoly([-3, 0, 1])


def chebyshev(n):
    """The Chebyshev polynomial T_n; the continuum is the segment [-1, 1]."""
    return ComplexPoly(np.polynomial.chebyshev.cheb2poly([0] * n + [1]))


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

#: The fixture documents that hold a polynomial rather than a problem.
POLYNOMIAL_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.json")
                             if "coeffs" in json.loads(p.read_text()))


def fixture_poly(name):
    """The polynomial of ``fixtures/<name>.json``."""
    coeffs = json.loads((FIXTURES / f"{name}.json").read_text())["coeffs"]
    return ComplexPoly([complex(*c) if isinstance(c, list) else c for c in coeffs])


#: The rectangle problems of :func:`rect_spec` as ``(n, system)``, with test ids.
#: Where each integer field of the ``rect_n7`` problem document sits, as
#: ``(holder, key)``: the value is ``holder[key]``.
INTEGER_FIELDS = {
    "n": lambda doc: (doc, "n"),
    "nu": lambda doc: (doc, "nu"),
    "alpha": lambda doc: (doc["alpha"], 0),
    "gamma": lambda doc: (doc["gamma"], 0),
    "beta": lambda doc: (doc["beta"], 0),
    "index": lambda doc: (doc["vars"][1], "index"),
    "target.index": lambda doc: (doc["vars"][1]["target"], "index"),
    "max_iter": lambda doc: (doc["options"], "max_iter"),
}

RECTANGLES = [(5, 1), (6, 1), (7, 1), (8, 1), (9, 1), (9, 2)]
RECT_IDS = ["n5", "n6", "n7", "n8", "n9s1", "n9s2"]


def _rect_c_vars(beta0):
    return [
        PointVar("c", 1, "free_imag", value=1.0, initial=complex(1.0, beta0)),
        PointVar("c", 2, "linked", kind="conjugate", target=("c", 1)),
        PointVar("c", 3, "linked", kind="negate_conjugate", target=("c", 1)),
        PointVar("c", 4, "linked", kind="negate", target=("c", 1)),
    ]


def _neg_pair(role, idx_free, idx_linked, initial):
    return [
        PointVar(role, idx_free, "free_real", initial=initial),
        PointVar(role, idx_linked, "linked", kind="negate", target=(role, idx_free)),
    ]


def rect_spec(n, system=1):
    """Rectangle problems: corners +-1 +- i*beta, symmetric ansatz, beta free."""
    if n == 5:
        config = SignConfig(5, (1, 1, -1, -1), (-1, 1), ())
        vars_ = _rect_c_vars(0.4) + _neg_pair("d", 1, 2, 0.6)
    elif n == 6:
        config = SignConfig(6, (1, 1, 1, 1), (-1, -1), (1,))
        vars_ = (_rect_c_vars(0.3) + _neg_pair("d", 1, 2, 0.8)
                 + [PointVar("z", 1, "fixed", value=0.0)])
    elif n == 7:
        config = SignConfig(7, (1, 1, -1, -1), (-1, 1), (1, -1))
        vars_ = (_rect_c_vars(0.2) + _neg_pair("d", 1, 2, 0.85)
                 + _neg_pair("z", 1, 2, 0.3))
    elif n == 8:
        config = SignConfig(8, (1, 1, 1, 1), (-1, -1), (1, -1, 1))
        vars_ = (_rect_c_vars(0.15) + _neg_pair("d", 1, 2, 0.9) + [
            PointVar("z", 1, "free_real", initial=0.45),
            PointVar("z", 2, "free_real", initial=0.05),
            PointVar("z", 3, "linked", kind="negate", target=("z", 1)),
        ])
    elif n == 9 and system == 1:
        config = SignConfig(9, (1, 1, -1, -1), (-1, 1), (1, -1, -1, 1))
        vars_ = (_rect_c_vars(0.11) + _neg_pair("d", 1, 2, 0.9)
                 + _neg_pair("z", 1, 2, 0.55) + _neg_pair("z", 3, 4, 0.2))
    elif n == 9 and system == 2:
        config = SignConfig(9, (1, 1, -1, -1), (1, -1), (-1, -1, 1, 1))
        vars_ = (_rect_c_vars(0.6) + _neg_pair("d", 1, 2, 0.55) + [
            PointVar("z", 1, "free_complex", initial=0.9 + 0.5j),
            PointVar("z", 2, "linked", kind="conjugate", target=("z", 1)),
            PointVar("z", 3, "linked", kind="negate_conjugate", target=("z", 1)),
            PointVar("z", 4, "linked", kind="negate", target=("z", 1)),
        ])
    else:
        raise ValueError(f"no rectangle problem for n={n}, system={system}")
    return ProblemSpec(config, tuple(vars_))


@pytest.fixture(scope="session")
def fam():
    return SimpleNamespace(
        star=star, cheb2=cheb2, cross=cross, t3=t3, t4=t4,
        two_intervals=two_intervals, rect_spec=rect_spec,
    )


@pytest.fixture(scope="session")
def solved_rect():
    cache = {}

    def get(n, system=1):
        key = (n, system)
        if key not in cache:
            cache[key] = solve(rect_spec(n, system))
        return cache[key]

    return get


def on_zeros(p):
    """The critical points of ``p`` that lie on zeros of ``p``: those that
    ``is_connected`` classes on ``T = 1`` for ``T = p + 1``."""
    return [w.point for w in is_connected(p + 1.0).witnesses if w.kind == PLUS]


def spy_everywhere(monkeypatch, real, calls=None, returned=None):
    """Replace ``real`` in every chebotarev module that holds it; return the call list.

    The first arguments are appended to ``calls`` when given, else to a new list.
    The positional arguments of each call that returned are appended to
    ``returned`` when given.
    """
    calls = [] if calls is None else calls

    def spy(*args, **kwargs):
        calls.append(args[0])
        result = real(*args, **kwargs)
        if returned is not None:
            returned.append(args)
        return result

    for name, module in list(sys.modules.items()):
        if name.startswith("chebotarev") and getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, spy)
    return calls


@pytest.fixture
def root_solves(monkeypatch):
    """The polynomials passed to ``poly.find_roots``, through which every cold solve goes."""
    return spy_everywhere(monkeypatch, poly_module.find_roots)


@pytest.fixture
def splits(monkeypatch):
    """The polynomials passed to ``factor._split``, which every factorization that
    is not a lookup of a stored result ends in."""
    return spy_everywhere(monkeypatch, factor_module._split)


@pytest.fixture
def factorization_work(monkeypatch):
    """The polynomials passed to ``factor._split``, ``poly.find_roots`` and
    ``poly.structured_roots``: the work a ``factorize`` call that is not a
    lookup of the stored result does."""
    calls = []
    for real in (factor_module._split, poly_module.find_roots, poly_module.structured_roots):
        spy_everywhere(monkeypatch, real, calls)
    return calls
