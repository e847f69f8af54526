"""Jump-pass filters: evaluation, moment constants, verification, construction.

A jump-pass filter is an odd, compactly supported C^1 function on [-1, 1]
with unit half-integral and k vanishing moments.  Convolving a series with
such a filter suppresses smooth trend components while passing the local
jump size, which is what the multiscale detector thresholds.

Two concrete representations live here:

* :class:`JumpPassFilter` -- a polynomial on [0, 1] (monomial coefficients,
  odd extension to [-1, 0)).  This covers the built-in optimal filter and
  everything produced by the Legendre optimizer.
* :class:`BetaJumpFilter` -- the beta-density construction ``A(x) - D(x)``.
  It is evaluated in factored form, because expanding ``x(1-x)^q`` into
  float monomials is numerically hopeless for the large ``q`` the
  construction wants.

Both classes share one exact moment engine: on [0, 1] each filter is a
polynomial whose coefficients are exact rationals (binary floats, and for
the beta filter the integers ``(q+1)(q+2) binom(q, j)``), so the moment
constants are computed in integer arithmetic and rounded once.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import numpy as np

__all__ = [
    "JumpPassFilter",
    "BetaJumpFilter",
    "FilterMoments",
    "OrderReport",
    "builtin_wstar",
    "moments",
    "verify_order",
    "construct_legendre_filter",
    "legendre_optimizer_coeffs",
    "construct_beta_filter",
    "load_filter",
    "dump_filter",
]

# Optimal filter in the degree-6, order-2 polynomial class; coefficients of
# x^1..x^6 on [0, 1].  The reference values are printed to five decimals,
# which leaves residual moments near 1e-6; a minimum-norm projection back
# onto the exact class constraints (unit half-integral, vanishing first
# moment, zero value and slope at 1) restores them to machine precision
# while moving each coefficient by less than its printed rounding.
_WSTAR_PUBLISHED = (93.99805, -647.59024, 1884.0, -2834.04878, 2136.46829, -632.82732)


def _project_to_class(coeffs):
    c0 = np.asarray(coeffs, dtype=float)
    j = np.arange(1, len(c0) + 1)
    A = np.vstack([1.0 / (j + 1), 1.0 / (j + 2), np.ones_like(j, dtype=float), j.astype(float)])
    d = np.array([1.0, 0.0, 0.0, 0.0])
    delta = A.T @ np.linalg.solve(A @ A.T, d - A @ c0)
    return tuple(c0 + delta)


_WSTAR_COEFFS = _project_to_class(_WSTAR_PUBLISHED)


# ---------------------------------------------------------------------------
# exact moments: integer polynomials over one common denominator
# ---------------------------------------------------------------------------

def _int_poly(coeffs):
    """``(num, den)`` of Python ints with ``coeffs[i] == num[i] / den`` exactly."""
    fr = [Fraction(c) for c in coeffs]
    den = math.lcm(*(f.denominator for f in fr))
    return [f.numerator * (den // f.denominator) for f in fr], den


def _polymul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _int01(a, b=None) -> Fraction:
    """Exact int_0^1 a(x) b(x) dx (default b = a) of integer polynomials."""
    c = _polymul(a, a if b is None else b)
    lcm = math.lcm(*range(1, len(c) + 1))
    return Fraction(sum(ck * (lcm // (k + 1)) for k, ck in enumerate(c)), lcm)


@dataclass(frozen=True)
class FilterMoments:
    """Moment constants of a filter, as used by the threshold formula."""

    w11: float  # int_{-1}^{1} W'(t)^2 dt
    w22: float  # int_{-1}^{1} (W'(t) t + W(t)/2)^2 dt
    u11: float  # int_{-1}^{1} W(t)^2 dt
    f0: float   # int_0^1 W(t) dt
    sn: float   # f0 / sqrt(int_0^1 W^2)


class _ExactMoments:
    """Exact moment constants for a filter that is a polynomial on [0, 1].

    Subclasses provide ``_exact()``: W on [0, 1] as ascending integer
    coefficients over one common denominator.  Every float coefficient is
    an exact binary rational, so the moments below are the exact values
    for the stored filter, rounded once.
    """

    def half_moment(self, u: int) -> float:
        """Exact int_0^1 x^u W(x) dx."""
        num, den = self._exact()
        return float(_int01([0] * u + [1], num) / den)

    @lru_cache(maxsize=64)
    def moments(self) -> FilterMoments:
        """Exact moment constants; cached, as the filter is immutable."""
        num, den = self._exact()
        f0 = _int01([1], num) / den
        half_u = _int01(num) / den**2
        if half_u == 0:
            raise ValueError("zero filter")
        w11 = 2 * _int01([i * c for i, c in enumerate(num)][1:]) / den**2
        # x W'(x) + W(x)/2 = sum (2i + 1) num_i x^i / (2 den); the integrand of w22 is even.
        w22 = 2 * _int01([(2 * i + 1) * c for i, c in enumerate(num)]) / (2 * den) ** 2
        sn = float(f0) / math.sqrt(float(half_u))
        return FilterMoments(float(w11), float(w22), float(2 * half_u), float(f0), sn)


@dataclass(frozen=True)
class JumpPassFilter(_ExactMoments):
    """Odd piecewise-polynomial filter on [-1, 1].

    ``coeffs[j]`` multiplies ``x**(j+1)`` on [0, 1]; the constant term is
    identically zero (oddness).  Values on [-1, 0) follow from
    ``W(-x) = -W(x)`` and the filter vanishes outside [-1, 1].
    """

    order_k: int
    coeffs: tuple

    def __post_init__(self):
        if self.order_k < 1:
            raise ValueError("order_k must be >= 1")
        if not self.coeffs or all(c == 0 for c in self.coeffs):
            raise ValueError("zero filter")
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def eval(self, x: float) -> float:
        return float(self.eval_many(x))

    def eval_many(self, x) -> np.ndarray:
        """Vectorized evaluation; odd extension and zero outside support."""
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        acc = np.zeros_like(ax)
        inside = ax <= 1.0
        z = ax[inside]
        a = np.zeros_like(z)
        for c in reversed(self.coeffs):
            a = (a + c) * z
        acc[inside] = a
        return acc * np.sign(x)

    def deriv_at(self, x: float) -> float:
        """W'(x) for x in [0, 1] (W' is even, so this covers [-1, 0] too)."""
        acc = 0.0
        for j in range(self.degree, 0, -1):
            acc = acc * x + j * self.coeffs[j - 1]
        return acc

    def antideriv01(self, x) -> np.ndarray:
        """P(x) = int_0^x W(u) du for x in [0, 1], vectorized."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        for j in range(self.degree, 0, -1):
            acc = (acc + self.coeffs[j - 1] / (j + 1)) * x
        return acc * x

    def _exact(self):
        num, den = _int_poly(self.coeffs)
        return [0] + num, den


def builtin_wstar() -> JumpPassFilter:
    """The built-in order-2 optimal filter (degree 6 on [0, 1]).

    Coefficients follow the published five-decimal values up to the exact
    feasibility projection described above (adjustments below 4e-6).
    """
    return JumpPassFilter(order_k=2, coeffs=_WSTAR_COEFFS)


def moments(filt) -> FilterMoments:
    """Moment constants of any filter object exposing ``.moments()``."""
    return filt.moments()


# ---------------------------------------------------------------------------
# order verification
# ---------------------------------------------------------------------------

_ORDER_GRID_POINTS = 10_000


@dataclass
class OrderCheck:
    name: str
    value: float
    tol: float
    passed: bool


@dataclass
class OrderReport:
    """Itemized filter-class verification; ``ok`` aggregates all checks."""

    order_k: int
    checks: list = field(default_factory=list)

    def add(self, name, value, tol):
        self.checks.append(OrderCheck(name, float(value), tol, abs(value) <= tol))

    def add_bool(self, name, passed, value=float("nan")):
        self.checks.append(OrderCheck(name, value, 0.0, bool(passed)))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __str__(self):
        lines = [f"order-{self.order_k} filter check:"]
        for c in self.checks:
            status = "ok " if c.passed else "FAIL"
            lines.append(f"  [{status}] {c.name}: {c.value:.3e}")
        return "\n".join(lines)


def verify_order(filt, k: int) -> OrderReport:
    """Check class membership of ``filt`` at order ``k``.

    Covers: vanishing moments u = 0..k, unit half-integral, endpoint
    derivative, smooth odd extension, and the shape conditions (|F_w|
    maximized at 0 on a grid of ``_ORDER_GRID_POINTS`` points; W'(0) != 0).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rep = OrderReport(order_k=k)
    for u in range(0, k + 1):
        if u % 2 == 0:
            m = 0.0  # x^u W(x) is odd for even u
        else:
            m = 2.0 * filt.half_moment(u)
        rep.add(f"moment u={u}", m, 1e-8)
    rep.add("half integral minus 1", filt.half_moment(0) - 1.0, 1e-8)
    rep.add("W'(1-)", filt.deriv_at(1.0), 1e-8)
    rep.add("W(0)", filt.eval(0.0), 1e-12)
    # (W2): F_w(x) = int_{-1}^x W = P(|x|) - P(1) is even; |F_w| must peak
    # only at x = 0, and W'(0) must not vanish.
    xs = np.linspace(0.0, 1.0, _ORDER_GRID_POINTS)
    fw = np.abs(filt.antideriv01(xs) - filt.antideriv01(np.array(1.0)))
    peak_at_zero = bool(np.argmax(fw) == 0) and bool(fw[0] > np.max(fw[1:]))
    rep.add_bool("|F_w| maximized at 0 (grid)", peak_at_zero, float(fw[0]))
    rep.add_bool("W'(0) != 0", abs(filt.deriv_at(0.0)) > 1e-8, filt.deriv_at(0.0))
    return rep


# ---------------------------------------------------------------------------
# SN-optimal filters from shifted-Legendre least squares
# ---------------------------------------------------------------------------

def _legendre_constraints(k: int, n_basis: int):
    """Constraint rows over shifted-Legendre coefficients a_0..a_N.

    Rows encode W(1)=0, W(0)=0, W'(1)=0, the normalization a_0=1, and the
    odd vanishing moments u = 1, 3, ... <= k (even moments hold by oddness).
    """
    N = n_basis
    i = np.arange(N + 1, dtype=float)
    rows = [np.ones(N + 1), (-1.0) ** i, i * (i + 1)]
    rhs = [0.0, 0.0, 0.0]
    e0 = np.zeros(N + 1)
    e0[0] = 1.0
    rows.append(e0)
    rhs.append(1.0)
    for u in range(1, k + 1, 2):
        row = np.zeros(N + 1)
        for j in range(0, min(u, N) + 1):
            # int_0^1 x^u P~_j(x) dx = (u!)^2 / ((u-j)! (u+j+1)!)
            row[j] = (
                math.factorial(u) ** 2
                / (math.factorial(u - j) * math.factorial(u + j + 1))
            )
        rows.append(row)
        rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def legendre_optimizer_coeffs(k: int, n_basis: int) -> np.ndarray:
    """Shifted-Legendre coefficients of the SN-optimal order-k filter.

    Minimizes ``sum_i a_i^2/(2i+1)`` (the squared filter norm; SN maximal)
    subject to the class constraints.  Solved through the dual normal
    equations, so ``n_basis`` can be large.
    """
    if k not in (2, 4):
        raise ValueError("supported orders are k=2 and k=4")
    if n_basis < k + 3:
        raise ValueError("n_basis too small for the constraint system")
    C, d = _legendre_constraints(k, n_basis)
    D = 2.0 * np.arange(n_basis + 1) + 1.0
    # equilibrate rows before forming the small Gram system
    rn = np.sqrt((C * C * D).sum(axis=1))
    Cs = C / rn[:, None]
    G = (Cs * D) @ Cs.T
    try:
        lam = np.linalg.solve(G, d / rn)
    except np.linalg.LinAlgError as exc:
        raise ValueError("infeasible constraint system (n_basis too small)") from exc
    if not np.all(np.isfinite(lam)):
        raise ValueError("infeasible constraint system (n_basis too small)")
    return D * (Cs.T @ lam)


def _shifted_legendre_to_monomial(a: np.ndarray) -> np.ndarray:
    """Monomial coefficients on [0, 1] of sum_i a_i P_i(2x - 1)."""
    from numpy.polynomial import legendre as L
    from numpy.polynomial import polynomial as P

    base = L.leg2poly(a)            # polynomial in z
    # substitute z = 2x - 1
    out = np.zeros(1)
    zpow = np.ones(1)
    for c in base:
        out = P.polyadd(out, c * zpow)
        zpow = P.polymul(zpow, np.array([-1.0, 2.0]))
    return out


def construct_legendre_filter(k: int, n_basis: int) -> JumpPassFilter:
    """Build the SN-optimized polynomial filter of order ``k``, degree ``n_basis``.

    ``construct_legendre_filter(2, 6)`` reproduces the built-in optimal
    filter up to coefficient rounding.  Monomial conversion limits
    ``n_basis`` to moderate degree; use :func:`legendre_optimizer_coeffs`
    directly when only the expansion coefficients are needed.
    """
    if n_basis > 24:
        raise ValueError("n_basis too large for a stable monomial conversion")
    a = legendre_optimizer_coeffs(k, n_basis)
    mono = _shifted_legendre_to_monomial(a)
    if abs(mono[0]) > 1e-7:
        raise ValueError(f"constraint W(0)=0 violated (c0={mono[0]:.2e})")
    return JumpPassFilter(order_k=k, coeffs=tuple(mono[1:]))


# ---------------------------------------------------------------------------
# beta-density construction (existence of arbitrary-order filters)
# ---------------------------------------------------------------------------

def _beta(a: int, b: int) -> Fraction:
    """B(a, b) = (a-1)! (b-1)! / (a+b-1)! for positive integers, exact."""
    return Fraction(math.factorial(a - 1) * math.factorial(b - 1), math.factorial(a + b - 1))


def _check_q(q):
    if not isinstance(q, numbers.Integral):
        raise ValueError(f"q must be an integer, got {q!r}")


@dataclass(frozen=True)
class BetaJumpFilter(_ExactMoments):
    """Order-k filter ``W = A - D`` on [0, 1], odd-extended.

    ``A(x) = x (1-x)^q / B(2, q+1) = (q+1)(q+2) x (1-x)^q`` carries the unit
    mass; the small polynomial correction ``D(x) = x^2 (1-x)^2 p(x)``
    restores the odd vanishing moments.  Evaluation stays factored (see the
    module docstring); the moments are exact, because for integer ``q`` the
    filter is a polynomial with exact rational coefficients.
    """

    order_k: int
    q: int
    corr: tuple  # coefficients of p(x), ascending

    def __post_init__(self):
        _check_q(self.q)
        object.__setattr__(self, "q", int(self.q))

    @property
    def _mass(self) -> int:
        return (self.q + 1) * (self.q + 2)  # 1 / B(2, q+1)

    def _dpoly(self):
        """D(x) as descending monomial coefficients (degree v + 4, small)."""
        return np.convolve([1.0, -2.0, 1.0, 0.0, 0.0], self.corr[::-1])  # x^2 (1-x)^2 p(x)

    def eval(self, x: float) -> float:
        return float(self.eval_many(np.array(x)))

    def eval_many(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        out = np.zeros_like(ax)
        inside = ax <= 1.0
        z = ax[inside]
        out[inside] = self._mass * z * (1.0 - z) ** self.q - np.polyval(self._dpoly(), z)
        return out * np.sign(x)

    def deriv_at(self, x: float) -> float:
        da = self._mass * (1.0 - x) ** (self.q - 1) * (1.0 - (self.q + 1) * x)
        return da - float(np.polyval(np.polyder(self._dpoly()), x))

    def antideriv01(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        z = np.clip(x, 0.0, 1.0)
        # int_0^x A is the Beta(2, q+1) distribution function I_x(2, q+1)
        ia = 1.0 - (1.0 - z) ** (self.q + 1) * (1.0 + (self.q + 1) * z)
        return ia - np.polyval(np.polyint(self._dpoly()), x)

    def _exact(self):
        p, den = _int_poly(self.corr)
        w = [-c for c in _polymul([0, 0, 1, -2, 1], p)]  # -D(x) = -x^2 (1-x)^2 p(x)
        w += [0] * (self.q + 2 - len(w))
        for j in range(self.q + 1):  # + A(x) = (q+1)(q+2) sum_j (-1)^j binom(q, j) x^(j+1)
            w[j + 1] += (-1) ** j * math.comb(self.q, j) * self._mass * den
        return w, den


def construct_beta_filter(k: int, q: int):
    """Order-``k`` beta-density filter; returns ``(filter, report)``.

    Solves the (v+1) x (v+1) beta-moment system for the polynomial
    correction, v = ceil(k/2).  Requires an integer ``q > max(2, k)``.
    """
    _check_q(q)
    if q <= max(2, k):
        raise ValueError("q must exceed max(2, k)")
    v = math.ceil(k / 2)
    A = np.empty((v + 1, v + 1))
    b = np.empty(v + 1)
    A[0] = [_beta(3 + j, 3) for j in range(v + 1)]
    b[0] = 0.0
    b2 = _beta(2, q + 1)
    for g in range(1, v + 1):
        A[g] = [_beta(2 * g + 2 + j, 3) for j in range(v + 1)]
        b[g] = _beta(2 * g + 1, q + 1) / b2
    cond = np.linalg.cond(A)
    if not np.isfinite(cond) or cond > 1e14:
        raise ValueError(f"beta moment system near-singular (cond={cond:.2e})")
    corr = np.linalg.solve(A, b)
    filt = BetaJumpFilter(order_k=k, q=q, corr=tuple(corr))
    return filt, verify_order(filt, k)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def dump_filter(filt: JumpPassFilter, path) -> None:
    with open(path, "w") as fh:
        json.dump({"order_k": filt.order_k, "coeffs": list(filt.coeffs)}, fh, indent=1)


def load_filter(path) -> JumpPassFilter:
    with open(path) as fh:
        spec = json.load(fh)
    return JumpPassFilter(order_k=int(spec["order_k"]), coeffs=tuple(spec["coeffs"]))
