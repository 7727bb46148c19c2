"""Built-in coupling-function families.

Each family is an analytic function V(t) with nonzero limits V_r, V_l at
t -> +/-inf, exponentially integrable tails, and exact derivatives of any
order from its Taylor jet (``taylor``), the one source of derivatives past
V' in the package: the zero orders, the propagator's step density, the
adiabatic series and the Jost tails all read it.  One jet engine propagates
the jets through the closed-form building blocks: tanh and the logistic
function by the Riccati recurrence they obey, softplus as the integral of
the logistic function, and products and powers.  Its arithmetic follows
the base points: real jets at real points, complex jets at complex ones.
``eval`` and ``deriv`` stay the closed-form point evaluators of V and V'.
Every family integrates its tails by one rule, ``PotentialModel.tail_integral``.

Families:

* ScaledTanhProduct  c * prod_i tanh(s_i (t - b_i))**p_i  -- zeros of
  prescribed orders p_i at the centers b_i.
* PolynomialWindowed p(clamp(t)) -- arbitrary polynomial behaviour inside
  the window, saturated to constants beyond |t| ~ w by a smooth softplus
  clamp; stress-test family.
* LinearLZ           the PolynomialWindowed p(x) = v x, pure (V = v t, no
  tails) when the window is omitted; scattering runs need the window.

Bad parameters (a window, sharpness or slope that is not finite and > 0, a
power that is not an integer >= 1, a center, scale or coefficient that is
not finite) are refused with a ConfigError naming the field.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..quadrature import integrate_smooth


# ----------------------------------------------------------------------------
# Jet (truncated Taylor series) arithmetic, the one engine behind every exact
# derivative of V.  A jet is a numpy array of coefficients c[k] of tau**k
# around some base point, the order k along the first axis; further axes run
# over an array of base points.  The dtype follows the base points: real
# jets at real points, complex jets at complex ones.


def _jet_mul(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """The jet of a * b to order n."""
    if a.ndim == b.ndim == 1:
        out = np.convolve(a, b)[: n + 1]
        if len(out) < n + 1:
            out = np.pad(out, (0, n + 1 - len(out)))
        return out
    shape = (n + 1,) + np.broadcast_shapes(a.shape[1:], b.shape[1:])
    out = np.zeros(shape, dtype=np.result_type(a, b))
    for j in range(min(len(a), n + 1)):
        k = min(len(b), n + 1 - j)
        out[j:j + k] += a[j] * b[:k]
    return out


def _jet_deriv(c: np.ndarray) -> np.ndarray:
    """The jet of f' from the jet c of f, one order shorter."""
    k = np.arange(1, len(c)).reshape((-1,) + (1,) * (c.ndim - 1))
    return c[1:] * k


def _jet_ipow(a: np.ndarray, p: int, n: int) -> np.ndarray:
    """The jet of a**p for an integer p >= 1, by repeated squaring."""
    out = None
    while True:
        if p & 1:
            out = a if out is None else _jet_mul(out, a, n)
        p >>= 1
        if not p:
            return out
        a = _jet_mul(a, a, n)


def _jet_power(a: np.ndarray, p: float, n: int) -> np.ndarray:
    """The jet of a**p for a real exponent, a[0] != 0: k a0 b_k = sum (p j - k + j) a_j b_(k-j)."""
    b = np.zeros((n + 1,) + a.shape[1:], dtype=np.result_type(a, float))
    b[0] = a[0] ** p
    for k in range(1, n + 1):
        j = np.arange(1, k + 1).reshape((-1,) + (1,) * (a.ndim - 1))
        b[k] = np.sum((p * j - (k - j)) * a[1:k + 1] * b[k - 1::-1], axis=0) / (k * a[0])
    return b


def _riccati_jet(u0, slope0, rate, b: float, n: int) -> np.ndarray:
    """The jet in tau of the solution of u' = rate (a + b u - u**2), u(0) = u0.

    tanh(x0 + rate tau) is a = 1, b = 0 and the logistic function of
    x0 + rate tau is a = 0, b = 1.  ``slope0`` = a + b u0 - u0**2 comes in a
    form that keeps its relative accuracy in the tails, where the difference
    cancels and every order would inherit it.  ``u0``, ``slope0`` and
    ``rate`` broadcast, so one recurrence serves a stack of factors.
    """
    u0 = np.asarray(u0)
    c = np.empty((n + 1,) + u0.shape, dtype=np.result_type(u0, float))
    c[0] = u0
    if n >= 1:
        c[1] = rate * slope0
    for k in range(1, n):
        rhs = b * c[k] - np.einsum("i...,i...->...", c[: k + 1], c[k::-1])
        c[k + 1] = (rate / (k + 1)) * rhs
    return c


def _sigmoid(x0):
    """The logistic function, elementwise and overflow-safe."""
    right = np.real(x0) >= 0
    e = np.exp(np.where(right, -x0, x0))   # never overflows
    return np.where(right, 1.0 / (1.0 + e), e / (1.0 + e))


def _sigmoid_slope(x0):
    """sigma(x0) sigma(-x0) = sigma', elementwise, overflow-safe and free of
    the cancellation in sigma - sigma^2; sech^2 x is 4 sigma(2x) sigma(-2x)."""
    e = np.exp(np.where(np.real(x0) >= 0, -x0, x0))   # never overflows
    return e / ((1.0 + e) * (1.0 + e))


def _softplus(x):
    """log(1 + exp(x)) elementwise, complex-safe and overflow-safe."""
    x = np.asarray(x)
    if np.iscomplexobj(x):
        xx = np.atleast_1d(x)
        out = np.empty(xx.shape, dtype=complex)
        big = np.real(xx) > 30.0
        out[big] = xx[big] + np.log1p(np.exp(-xx[big]))
        out[~big] = np.log1p(np.exp(xx[~big]))
        out = out.reshape(x.shape)
        return out[()] if x.ndim == 0 else out
    return np.logaddexp(0.0, x)


def _softplus_jet(x0, rate, n: int) -> np.ndarray:
    """The jet in tau of softplus(x0 + rate tau), whose derivative is rate
    times the logistic function."""
    x0 = np.asarray(x0)
    c = np.empty((n + 1,) + x0.shape, dtype=np.result_type(x0, float))
    c[0] = _softplus(x0)
    if n >= 1:
        k = np.arange(1, n + 1).reshape((-1,) + (1,) * x0.ndim)
        c[1:] = rate * _riccati_jet(_sigmoid(x0), _sigmoid_slope(x0), rate, 1.0, n - 1) / k
    return c


def _finite(name: str, value, positive: bool = False) -> float:
    """``value`` as a float; ConfigError naming the field unless it is finite,
    and > 0 when ``positive``."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x) or (positive and x <= 0):
        rule = "finite and > 0" if positive else "finite"
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    return x


class _SmoothClamp:
    """Smooth saturation of t into [-w, w] with exponential approach rate beta."""

    def __init__(self, window: float, sharpness: float):
        self.w = _finite("window", window, positive=True)
        self.beta = _finite("sharpness", sharpness, positive=True)

    def __call__(self, t):
        t = np.asarray(t)
        b = self.beta
        return t - _softplus(b * (t - self.w)) / b + _softplus(b * (-t - self.w)) / b

    def deriv(self, t):
        # 1 - sigma(b (t - w)) - sigma(-b (t + w)), even in t, with 1 - sigma(x)
        # as sigma(-x): the 1 would cancel beyond the window
        t = np.asarray(t)
        b, w = self.beta, self.w
        s = np.where(np.real(t) >= 0, t, -t)
        return _sigmoid(b * (w - s)) - _sigmoid(-b * (w + s))

    def jet(self, t0, n: int) -> np.ndarray:
        b = self.beta
        t0 = np.asarray(t0)
        out = (_softplus_jet(b * (-t0 - self.w), -b, n)
               - _softplus_jet(b * (t0 - self.w), b, n)) / b
        out[0] += t0
        if n >= 1:
            out[1] = self.deriv(t0)
        return out


def _ipow(x, p: int):
    """x**p for an integer p >= 0 by repeated multiplication.

    numpy's power has no fast path for integer exponents above 2.
    """
    out = np.ones_like(x) if p == 0 else x
    for _ in range(p - 1):
        out = out * x
    return out


# ----------------------------------------------------------------------------


class PotentialModel:
    """Abstract base: analytic V(t) with constant tails."""

    family_name = "abstract"

    # -- evaluation ----------------------------------------------------------
    def eval(self, t):
        raise NotImplementedError

    def deriv(self, t):
        raise NotImplementedError

    def taylor(self, t0, n: int) -> np.ndarray:
        """Taylor coefficients c[0..n] of V around t0, real at real t0 and
        complex at complex t0.

        For an array of base points the result has shape (n + 1,) + shape(t0).
        """
        raise NotImplementedError

    # -- structure -----------------------------------------------------------
    @property
    def v_right(self) -> float:
        raise NotImplementedError

    @property
    def v_left(self) -> float:
        raise NotImplementedError

    @property
    def has_tails(self) -> bool:
        return True

    def candidate_zeros(self) -> list[float]:
        raise NotImplementedError

    def suggest_interval(self, margin: float = 2.0) -> tuple[float, float]:
        zs = self.candidate_zeros()
        if not zs:
            return (-margin, margin)
        return (min(zs) - margin, max(zs) + margin)

    # -- tails ---------------------------------------------------------------
    def tail_envelope(self, side: str, t: float) -> float:
        """Upper bound on |V(t) - V_side| valid in the far tail."""
        raise NotImplementedError

    def tail_anchor(self, side: str, level: float) -> float:
        """Smallest |t| (beyond all zeros) where the tail envelope <= level."""
        lo, hi = self.suggest_interval(margin=1.0)
        t = hi if side == "right" else lo
        step = 0.5 if side == "right" else -0.5
        for _ in range(10000):
            if self.tail_envelope(side, t) <= level:
                return t
            t += step
        raise ConfigError("tail envelope never reached the requested level")

    @property
    def tail_rate(self) -> float:
        """Exponential decay rate of |V - V_side| in both tails."""
        raise NotImplementedError

    def tail_integral(self, side: str, anchor: float) -> float:
        """integral of (V - V_side) from the anchor out to +/- infinity.

        Quadrature over a span long enough for the tail, decaying at
        ``tail_rate``, to fall below double precision.
        """
        v_inf = self.v_right if side == "right" else self.v_left
        span = max(60.0 / self.tail_rate, 10.0)
        fn = lambda s: np.real(self.eval(s)) - v_inf  # noqa: E731
        if side == "right":
            return integrate_smooth(fn, anchor, anchor + span, max_panel=0.5)
        return integrate_smooth(fn, anchor - span, anchor, max_panel=0.5)

    # -- config --------------------------------------------------------------
    def to_config(self) -> dict:
        raise NotImplementedError

    def validate(self) -> None:
        if not self.has_tails:
            return
        if not (self.v_right > 0):
            raise ConfigError("V must approach a positive limit at t -> +inf")
        if self.v_left == 0:
            raise ConfigError("V must approach a nonzero limit at t -> -inf")


@dataclass(frozen=True)
class TanhFactor:
    power: int
    slope: float
    center: float

    def __post_init__(self):
        if (isinstance(self.power, bool) or not isinstance(self.power, numbers.Integral)
                or self.power < 1):
            raise ConfigError(f"tanh factor power must be an integer >= 1, got {self.power!r}")
        _finite("tanh factor slope", self.slope, positive=True)
        _finite("tanh factor center", self.center)


class ScaledTanhProduct(PotentialModel):
    family_name = "scaled_tanh_product"

    def __init__(self, scale: float, factors):
        self.scale = _finite("scale", scale)
        self.factors = tuple(
            f if isinstance(f, TanhFactor) else TanhFactor(**f) for f in factors
        )
        if not self.factors:
            raise ConfigError("at least one tanh factor required")
        centers = [f.center for f in self.factors]
        if len(set(centers)) != len(centers):
            raise ConfigError("tanh factors must have distinct centers")
        self.validate()

    def eval(self, t):
        t = np.asarray(t)
        out = np.full(t.shape, self.scale, dtype=complex if np.iscomplexobj(t) else float)
        for f in self.factors:
            out = out * _ipow(np.tanh(f.slope * (t - f.center)), f.power)
        return out[()] if out.ndim == 0 else out

    def deriv(self, t):
        # the product rule factor by factor: after factor i, ``value`` is the
        # product of the first i factors and ``total`` its derivative
        t = np.asarray(t)
        value, total = self.scale, 0.0
        for f in self.factors:
            x = f.slope * (t - f.center)
            th = np.tanh(x)
            lower = _ipow(th, f.power - 1)
            g = lower * th
            sech2 = 4.0 * _sigmoid_slope(2.0 * x)
            total = total * g + value * (f.power * f.slope) * lower * sech2
            value = value * g
        return total

    def taylor(self, t0, n: int) -> np.ndarray:
        t0 = np.asarray(t0)
        stack = (-1,) + (1,) * t0.ndim
        slope = np.array([f.slope for f in self.factors]).reshape(stack)
        center = np.array([f.center for f in self.factors]).reshape(stack)
        # one recurrence for every factor, the factor along axis 1
        x0 = slope * (t0 - center)
        th = _riccati_jet(np.tanh(x0), 4.0 * _sigmoid_slope(2.0 * x0), slope, 0.0, n)
        # the factors of one power are multiplied before the power is taken
        out = None
        for power in sorted({f.power for f in self.factors}):
            group = None
            for i, f in enumerate(self.factors):
                if f.power == power:
                    group = th[:, i] if group is None else _jet_mul(group, th[:, i], n)
            term = _jet_ipow(group, power, n)
            out = term if out is None else _jet_mul(out, term, n)
        return self.scale * out

    @property
    def v_right(self) -> float:
        return self.scale

    @property
    def v_left(self) -> float:
        parity = sum(f.power for f in self.factors) % 2
        return self.scale * (-1.0) ** parity

    def candidate_zeros(self) -> list[float]:
        return sorted(f.center for f in self.factors)

    def tail_envelope(self, side: str, t: float) -> float:
        # |tanh(x)**p - 1| <= 2 p exp(-2|x|) once |tanh(x)| > 0.65; a product of
        # factors deviates by at most the sum of the individual deviations
        # (all factors have modulus <= 1), doubled for safety.
        total = 0.0
        for f in self.factors:
            x = f.slope * (t - f.center)
            if (side == "right" and x < 1.0) or (side == "left" and x > -1.0):
                return math.inf
            total += 2.0 * f.power * math.exp(-2.0 * abs(x))
        return 2.0 * abs(self.scale) * total

    @property
    def tail_rate(self) -> float:
        return 2.0 * min(f.slope for f in self.factors)

    def to_config(self) -> dict:
        return {
            "family": self.family_name,
            "params": {
                "scale": self.scale,
                "factors": [
                    {"power": f.power, "slope": f.slope, "center": f.center}
                    for f in self.factors
                ],
            },
        }


def _horner(c: np.ndarray, x):
    """The polynomial sum_k c[k] x**k by Horner's rule from the leading
    coefficient, adding no zero coefficient: c = [0, v] is the one product
    v * x."""
    out = c[-1]
    for a in c[-2::-1]:
        out = out * x
        if a:
            out = out + a
    return out


class PolynomialWindowed(PotentialModel):
    """V = p(clamp(t)): the polynomial p inside a smooth window of half-width
    w, the constants p(+/-w) outside.  Without a window, which only LinearLZ
    may omit, V = p(t) has no tails."""

    family_name = "polynomial_windowed"

    def __init__(self, coefficients, window: float | None, sharpness: float = 4.0):
        try:
            self.coefficients = np.asarray(coefficients, dtype=float)
        except (TypeError, ValueError):
            self.coefficients = np.array([math.nan])
        if not np.all(np.isfinite(self.coefficients)):
            raise ConfigError(f"coefficients must be finite, got {coefficients!r}")
        if self.coefficients.ndim != 1 or len(self.coefficients) < 2:
            raise ConfigError("need polynomial coefficients [a0, a1, ...] with degree >= 1")
        if window is None and not isinstance(self, LinearLZ):
            raise ConfigError(f"{self.family_name} needs a window")
        self.clamp = None if window is None else _SmoothClamp(window, sharpness)
        self.window = None if window is None else self.clamp.w
        self._slope = np.polynomial.polynomial.polyder(self.coefficients)
        self.validate()

    def _window_clamp(self) -> _SmoothClamp:
        """The window's clamp; ConfigError without a window."""
        if self.clamp is None:
            raise ConfigError(f"{self.family_name} without a window has no tails")
        return self.clamp

    @property
    def has_tails(self) -> bool:
        return self.clamp is not None

    def eval(self, t):
        t = np.asarray(t)
        return _horner(self.coefficients, t if self.clamp is None else self.clamp(t))

    def deriv(self, t):
        t = np.asarray(t)
        if self.clamp is None:
            return np.full(t.shape, _horner(self._slope, t))
        return _horner(self._slope, self.clamp(t)) * self.clamp.deriv(t)

    def taylor(self, t0, n: int) -> np.ndarray:
        t0 = np.asarray(t0)
        if self.clamp is None:
            q = np.zeros((n + 1,) + t0.shape, dtype=np.result_type(t0, float))
            q[0] = t0
            q[1:2] = 1.0
        else:
            q = self.clamp.jet(t0, n)
        # _horner's rule on jets
        c = self.coefficients
        out = c[-1] * q
        for a in c[-2:0:-1]:
            if a:
                out[0] += a
            out = _jet_mul(out, q, n)
        if c[0]:
            out[0] += c[0]
        return out

    @property
    def v_right(self) -> float:
        return float(_horner(self.coefficients, self._window_clamp().w))

    @property
    def v_left(self) -> float:
        return float(_horner(self.coefficients, -self._window_clamp().w))

    def candidate_zeros(self) -> list[float]:
        # multiple real roots come back as near-real clusters; keep and
        # cluster them here, the catalog polishes each to full precision
        roots = np.polynomial.polynomial.polyroots(self.coefficients)
        edge = math.inf if self.window is None else self.window
        # + 0.0 turns a root at -0.0 into 0.0
        real = [float(r.real) + 0.0 for r in roots
                if abs(r.imag) < 1e-5 and abs(r.real) < edge]
        out: list[float] = []
        for r in sorted(real):
            if not out or abs(r - out[-1]) > 1e-4:
                out.append(r)
        return out

    def tail_envelope(self, side: str, t: float) -> float:
        b, w = self._window_clamp().beta, self.window
        x = t - w if side == "right" else -t - w
        if x < 0.5:
            return math.inf
        slope_max = float(np.max(np.abs(_horner(self._slope, np.linspace(-w, w, 64)))))
        return slope_max * 2.0 * math.exp(-b * x) / b

    @property
    def tail_rate(self) -> float:
        return self._window_clamp().beta

    def to_config(self) -> dict:
        return {
            "family": self.family_name,
            "params": {
                "coefficients": list(self.coefficients),
                "window": self.window,
                "sharpness": self.clamp.beta,
            },
        }


class LinearLZ(PolynomialWindowed):
    """V = slope * t, the polynomial [0, slope]: windowed when a window is
    given (scattering needs one), pure without."""

    family_name = "linear_lz"

    def __init__(self, slope: float = 1.0, window: float | None = None,
                 sharpness: float = 4.0):
        self.slope = _finite("linear_lz slope", slope, positive=True)
        super().__init__([0.0, self.slope], window, sharpness)

    def to_config(self) -> dict:
        params = {"slope": self.slope}
        if self.window is not None:
            params["window"] = self.window
            params["sharpness"] = self.clamp.beta
        return {"family": self.family_name, "params": params}


_FAMILIES = {
    ScaledTanhProduct.family_name: ScaledTanhProduct,
    LinearLZ.family_name: LinearLZ,
    PolynomialWindowed.family_name: PolynomialWindowed,
}


def model_from_config(doc: dict) -> PotentialModel:
    """Build a potential from {"family": ..., "params": {...}}."""
    try:
        family = doc["family"]
        params = doc.get("params", {})
    except (TypeError, KeyError) as exc:
        raise ConfigError(f"malformed potential spec: {doc!r}") from exc
    if family not in _FAMILIES:
        raise ConfigError(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    try:
        return _FAMILIES[family](**params)
    except TypeError as exc:
        raise ConfigError(f"bad parameters for {family}: {exc}") from exc
