"""Model primitives: integer Levy measures and trawl-set geometry.

The price process is driven by an integer-valued Levy basis attached to a
"squashed" trawl set.  A trawl is described by a normalised depth profile
``d_tilde(s)`` on ``s <= 0`` with ``d_tilde(0) = 1``, decreasing as ``s``
moves into the past.  Squashing with permanence parameter ``b`` in [0, 1]
leaves a fraction ``b`` of every move permanent while the remaining
``1 - b`` decays along ``d_tilde``:

    d(s) = b + (1 - b) * d_tilde(s)

Everything downstream (moments, autocovariances, simulation, estimation)
only touches the profile through four functionals: the profile itself, the
area ``leb_area = (1 - b) * integral d_tilde``, the overlap
``overlap(t) = (1 - b) * integral_t^inf d_tilde(-u) du`` and its complement
``increment(t) = leb_area - overlap(t)``.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple, Sequence

import numpy as np
from scipy import special as sps

__all__ = [
    "LevyMeasure",
    "TrawlFamily",
    "ExponentialTrawl",
    "SupGammaTrawl",
    "SupGigTrawl",
    "TabulatedTrawl",
    "TrawlSpec",
    "ModelParams",
    "bessel_k",
]


def _match(values: np.ndarray, template) -> "float | np.ndarray":
    """Return a float for scalar input, an ndarray otherwise."""
    if np.ndim(template) == 0:
        return float(values)
    return np.asarray(values, dtype=float)


# ---------------------------------------------------------------------------
# Levy measure on the integers
# ---------------------------------------------------------------------------


class LevyMeasure:
    """Finite-activity Levy measure concentrated on nonzero integers.

    Parameters
    ----------
    intensities : mapping of int -> float
        ``y -> nu(y)``, the Poisson intensity of moves of signed size
        ``y`` ticks.  Keys must be nonzero integers, values nonnegative
        and finite; zero-intensity entries are dropped.  The total mass
        must be positive.
    """

    def __init__(self, intensities: Mapping[int, float]):
        cleaned: dict[int, float] = {}
        for y, rate in intensities.items():
            yi = int(y)
            if yi != y or yi == 0:
                raise ValueError(f"jump size must be a nonzero integer, got {y!r}")
            r = float(rate)
            if not math.isfinite(r) or r < 0.0:
                raise ValueError(f"intensity for size {yi} must be finite and >= 0, got {rate!r}")
            if r > 0.0:
                cleaned[yi] = cleaned.get(yi, 0.0) + r
        if not cleaned:
            raise ValueError("Levy measure must have positive total mass")
        self._intensities = dict(sorted(cleaned.items()))
        self._sizes = np.array(list(self._intensities.keys()), dtype=np.int64)
        self._rates = np.array(list(self._intensities.values()), dtype=float)
        self._total = float(self._rates.sum())

    # -- basic accessors ----------------------------------------------------

    @property
    def sizes(self) -> np.ndarray:
        """Sorted array of supported jump sizes (ticks)."""
        return self._sizes.copy()

    @property
    def rates(self) -> np.ndarray:
        """Intensities aligned with :attr:`sizes`."""
        return self._rates.copy()

    @property
    def total_mass(self) -> float:
        """Total intensity ``sum_y nu(y)`` (overall event arrival rate)."""
        return self._total

    @property
    def probabilities(self) -> np.ndarray:
        """Jump-size distribution ``nu(y) / total_mass``."""
        return self._rates / self._total

    def as_dict(self) -> dict[int, float]:
        return dict(self._intensities)

    def __getitem__(self, y: int) -> float:
        return self._intensities.get(int(y), 0.0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LevyMeasure) and self._intensities == other._intensities

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LevyMeasure({self._intensities!r})"

    # -- moments ------------------------------------------------------------

    def cumulant(self, j: int) -> float:
        """j-th cumulant of the time-1 basis value, ``sum_y y^j nu(y)``.

        All cumulants of a compound-Poisson integer basis are plain power
        sums against the intensity; ``j`` must be a positive integer.
        """
        if int(j) != j or j < 1:
            raise ValueError(f"cumulant order must be a positive integer, got {j!r}")
        return float(np.sum(self._rates * np.float_power(self._sizes.astype(float), j)))

    def abs_moment(self, r: float) -> float:
        """Absolute power sum ``sum_y |y|^r nu(y)`` for real ``r >= 0``.

        ``r = 0`` counts total intensity (``|y|^0 = 1`` on the support,
        which excludes zero by construction).
        """
        r = float(r)
        if not math.isfinite(r) or r < 0.0:
            raise ValueError(f"moment exponent must be finite and >= 0, got {r!r}")
        return float(np.sum(self._rates * np.abs(self._sizes.astype(float)) ** r))


# ---------------------------------------------------------------------------
# Trawl profiles
# ---------------------------------------------------------------------------


def _invert_decreasing(func, targets, hi0: float = 1.0, rtol: float = 1e-10):
    """Invert a continuous decreasing ``func`` on [0, inf) at ``targets``.

    Brackets each root by doubling the upper end, then bisects to the
    requested relative tolerance.  ``func`` must be vectorised and satisfy
    ``func(0) >= target`` for every target.
    """
    t = np.atleast_1d(np.asarray(targets, dtype=float))
    hi = np.full(t.shape, float(hi0))
    for _ in range(200):
        open_mask = func(hi) > t
        if not open_mask.any():
            break
        hi[open_mask] *= 2.0
    else:  # pragma: no cover - pathological profile
        raise RuntimeError("failed to bracket root while inverting trawl profile")
    lo = np.zeros_like(hi)
    for _ in range(160):
        mid = 0.5 * (lo + hi)
        go_left = func(mid) <= t
        hi = np.where(go_left, mid, hi)
        lo = np.where(go_left, lo, mid)
        if np.all(hi - lo <= rtol * np.maximum(hi, 1e-300)):
            break
    return 0.5 * (lo + hi)


class Coord(NamedTuple):
    """A fit coordinate; bounds and grid box are in natural units."""

    attr: str
    log: bool
    bounds: tuple[float, float]
    box: tuple[float, float]


class TrawlFamily(ABC):
    """Normalised trawl depth profile ``d_tilde`` with its integrals.

    Subclasses describe the profile *before* squashing: ``d_tilde(0) = 1``
    and ``d_tilde`` is nonincreasing into the past.  The public methods
    are defined here once: they accept scalars or arrays, validate them,
    and return a float for a scalar and an array otherwise.

    ``coords`` maps each wire-format parameter name to its :class:`Coord`:
    the constructor field, whether it is searched on log scale, its hard
    bounds and the box its fit grid spans.  :meth:`params`,
    :meth:`from_params` and the signature fit all read it; an empty table
    is not fittable.

    A family writes only array kernels, each called with the validated
    array followed by the ``coords`` fields in table order (none for a
    family without a table): ``_d_tilde(s)``, ``_area()``,
    ``_overlap(t)`` and ``_increment(t)``, plus ``_lifetime(p)`` and
    ``_residual(q)`` where a closed form beats the default bisection.  A
    parametric family writes ``_increment`` as a static method that
    broadcasts over arrays of its fields and gives nan for shapes the
    constructor rejects: the signature fit calls it on a whole grid of
    shapes at once.
    """

    name: str = "abstract"
    coords: ClassVar[dict[str, Coord]] = {}

    def d_tilde(self, s):
        """Profile value at time lag ``s <= 0``."""
        return _match(self._d_tilde(_check_lag(s), *self._fields()), s)

    def area(self) -> float:
        """``integral_0^inf d_tilde(-u) du`` (may raise if infinite)."""
        return float(self._area(*self._fields()))

    def overlap(self, t):
        """``integral_t^inf d_tilde(-u) du`` for ``t >= 0``."""
        return _match(self._overlap(_check_age(t), *self._fields()), t)

    def increment(self, t):
        """``integral_0^t d_tilde(-u) du`` for ``t >= 0``."""
        return _match(self._increment(_check_age(t), *self._fields()), t)

    def _fields(self) -> tuple:
        """The constructor fields named by ``coords``, in table order."""
        return tuple(getattr(self, c.attr) for c in self.coords.values())

    def lifetime_quantile(self, p):
        """Smallest ``t >= 0`` with ``d_tilde(-t) <= 1 - p``, for ``p in [0, 1)``.

        This is the quantile function of a fleeting move's lifetime: the
        profile value at ``-t`` is the probability that a move born with
        uniform height survives past age ``t``.
        """
        p_arr = _check_level(p, "[0,1)")
        return _match(np.reshape(self._lifetime(p_arr, *self._fields()), np.shape(p)), p)

    def residual_quantile(self, q):
        """Invert the stationary residual-lifetime survival ``overlap(t)/area``.

        Returns ``t >= 0`` with ``overlap(t) = q * area`` for ``q in (0, 1]``;
        used to seed moves already alive at the start of a simulation window.
        """
        q_arr = _check_level(q, "(0,1]")
        return _match(np.reshape(self._residual(q_arr, *self._fields()), np.shape(q)), q)

    @abstractmethod
    def _d_tilde(self, s, *fields):
        """Profile at lags ``s <= 0``."""

    @abstractmethod
    def _area(self, *fields):
        """Profile integral; raises where it is infinite."""

    @abstractmethod
    def _overlap(self, t, *fields):
        """Profile integral beyond ages ``t >= 0``."""

    @abstractmethod
    def _increment(self, t, *fields):
        """Profile integral up to ages ``t >= 0``."""

    def _lifetime(self, p, *fields):
        """Lifetime quantiles by bisection on the profile."""
        return _invert_decreasing(lambda t: self._d_tilde(-t, *fields), 1.0 - np.atleast_1d(p))

    def _residual(self, q, *fields):
        """Residual-lifetime quantiles by bisection on the overlap."""
        return _invert_decreasing(lambda t: self._overlap(t, *fields), self._area(*fields) * np.atleast_1d(q))

    def params(self) -> dict:
        """JSON-ready parameter mapping (inverse of :meth:`from_params`)."""
        return dict(zip(self.coords, self._fields()))

    @classmethod
    def from_params(cls, params: Mapping) -> "TrawlFamily":
        """Build the family from its wire-format parameter mapping."""
        return cls(**{c.attr: float(params[key]) for key, c in cls.coords.items()})


@dataclass(frozen=True)
class ExponentialTrawl(TrawlFamily):
    """Exponentially decaying profile ``d_tilde(s) = exp(lam * s)``."""

    lam: float
    name = "exponential"
    # one coordinate is cheap enough to grid across its hard bounds
    coords = {"lambda": Coord("lam", True, (1e-5, 1e5), (1e-5, 1e5))}

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"decay rate must be finite and > 0, got {self.lam!r}")

    @staticmethod
    def _d_tilde(s, lam):
        return np.exp(lam * s)

    @staticmethod
    def _area(lam):
        return 1.0 / lam

    @staticmethod
    def _overlap(t, lam):
        return np.exp(-lam * t) / lam

    @staticmethod
    def _increment(t, lam):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam > 0.0, -np.expm1(-lam * t) / lam, np.nan)

    @staticmethod
    def _lifetime(p, lam):
        return -np.log1p(-p) / lam

    @staticmethod
    def _residual(q, lam):
        return -np.log(q) / lam


@dataclass(frozen=True)
class SupGammaTrawl(TrawlFamily):
    """Polynomially decaying profile ``d_tilde(s) = (1 - s/alpha)^(-H)``.

    Slow decay gives long memory: the area is finite only for ``H > 1``,
    and the autocorrelation tail thickens as ``H`` falls towards 1.  The
    boundary value ``H = 1`` is accepted at construction (fits routinely
    pin it) but area-dependent operations then raise.
    """

    alpha: float
    H: float
    name = "sup-gamma"
    coords = {
        "alpha": Coord("alpha", True, (1e-5, 1e5), (0.01, 100.0)),
        "H": Coord("H", False, (1.0, 50.0), (1.01, 5.0)),
    }

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and self.alpha > 0.0):
            raise ValueError(f"scale alpha must be finite and > 0, got {self.alpha!r}")
        if not (math.isfinite(self.H) and self.H >= 1.0):
            raise ValueError(f"tail index H must be finite and >= 1, got {self.H!r}")

    @staticmethod
    def _d_tilde(s, alpha, H):
        return (1.0 - s / alpha) ** (-H)

    @staticmethod
    def _area(alpha, H):
        if H <= 1.0:
            raise ValueError("trawl area is infinite for H <= 1")
        return alpha / (H - 1.0)

    @classmethod
    def _overlap(cls, t, alpha, H):
        return cls._area(alpha, H) * (1.0 + t / alpha) ** (1.0 - H)

    @staticmethod
    def _increment(t, alpha, H):
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log1p(t / alpha)
            # alpha * (1 - (1+t/alpha)^(1-H)) / (H-1), written to stay smooth as H -> 1
            val = np.where(H == 1.0, alpha * u, -alpha * np.expm1((1.0 - H) * u) / (H - 1.0))
        return np.where((alpha > 0.0) & (H >= 1.0), val, np.nan)

    @staticmethod
    def _lifetime(p, alpha, H):
        return alpha * np.expm1(-np.log1p(-p) / H)

    @classmethod
    def _residual(cls, q, alpha, H):
        cls._area(alpha, H)  # the residual law needs a finite area
        return alpha * np.expm1(-np.log(q) / (H - 1.0))


@dataclass(frozen=True)
class SupGigTrawl(TrawlFamily):
    """Bessel-type profile built from the generalised inverse Gaussian law.

    With ``z = gamma * delta_gig`` the profile is

        d_tilde(s) = (1 - 2s/gamma^2)^(-order/2)
                     * K_order(z * sqrt(1 - 2s/gamma^2)) / K_order(z)

    interpolating between exponential-like decay (``gamma`` large) and
    polynomial decay.  ``gamma = 0`` is the heavy-tailed limit and needs
    ``order < 0``; the profile then becomes
    ``2 (w/2)^|order| K_|order|(w) / Gamma(|order|)`` with
    ``w = delta_gig * sqrt(-2 s)``.  All Bessel evaluations use the
    exponentially scaled ``kve`` so large arguments underflow gracefully
    instead of destroying precision.  Quantiles use the default bisection.
    """

    gamma: float
    delta_gig: float
    order: float
    name = "sup-gig"
    coords = {
        "gamma": Coord("gamma", False, (0.0, 50.0), (0.0, 3.0)),
        "delta": Coord("delta_gig", True, (1e-5, 1e5), (0.01, 100.0)),
        "nu": Coord("order", False, (-10.0, 10.0), (-3.0, 3.0)),
    }

    def __post_init__(self):
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma!r}")
        if not (math.isfinite(self.delta_gig) and self.delta_gig > 0.0):
            raise ValueError(f"delta must be finite and > 0, got {self.delta_gig!r}")
        if not math.isfinite(self.order):
            raise ValueError(f"order must be finite, got {self.order!r}")
        if self.gamma == 0.0 and self.order >= 0.0:
            raise ValueError("gamma = 0 requires a negative order")

    @classmethod
    def _d_tilde(cls, s, gamma, delta_gig, order):
        if gamma > 0.0:
            return cls._bessel_ratio(-s, gamma, delta_gig, order, 0.0)
        a = -order
        w = delta_gig * np.sqrt(-2.0 * s)
        with np.errstate(invalid="ignore"):
            val = (2.0 ** (1.0 - a) / sps.gamma(a)) * w**a * sps.kve(a, w) * np.exp(-w)
        return np.where(w == 0.0, 1.0, val)

    @staticmethod
    def _bessel_ratio(t, gamma, delta_gig, order, shift):
        """``(w/z)^(shift-order) K_(order-shift)(w) / K_order(z)``, ``z = gamma*delta``,
        ``w = delta*sqrt(gamma^2 + 2t)``: the profile at lag ``-t`` (shift 0) or the overlap over
        ``gamma/delta`` (shift 1), never subtracting ``z`` from ``w`` (13 digits lost at z ~ 1700)."""
        root = np.sqrt(gamma**2 + 2.0 * t)
        w_minus_z = 2.0 * delta_gig * t / (root + gamma)
        log_ratio = 0.5 * np.log1p(2.0 * t / gamma**2)
        kve_ratio = sps.kve(order - shift, delta_gig * root) / sps.kve(order, gamma * delta_gig)
        return np.exp((shift - order) * log_ratio - w_minus_z) * kve_ratio

    @staticmethod
    def _area(gamma, delta_gig, order):
        z = gamma * delta_gig
        with np.errstate(divide="ignore", invalid="ignore"):
            return _branch(
                gamma > 0.0,
                lambda: gamma / delta_gig * sps.kve(order - 1.0, z) / sps.kve(order, z),
                lambda: -2.0 * order / delta_gig**2,
            )

    @classmethod
    def _overlap(cls, t, gamma, delta_gig, order):
        a = -order

        def mixed():
            return gamma / delta_gig * cls._bessel_ratio(t, gamma, delta_gig, order, 1.0)

        def heavy():
            w = delta_gig * np.sqrt(2.0 * t)
            val = (2.0 ** (1.0 - a) / sps.gamma(a)) / delta_gig**2 * w ** (1.0 + a) * sps.kve(1.0 + a, w) * np.exp(-w)
            return np.where(w == 0.0, cls._area(gamma, delta_gig, order), val)

        with np.errstate(divide="ignore", invalid="ignore"):
            return _branch(gamma > 0.0, mixed, heavy)

    @classmethod
    def _increment(cls, t, gamma, delta_gig, order):
        rejected = (gamma < 0.0) | (delta_gig <= 0.0) | ((gamma == 0.0) & (order >= 0.0))
        return np.where(rejected, np.nan, cls._area(gamma, delta_gig, order) - cls._overlap(t, gamma, delta_gig, order))


class TabulatedTrawl(TrawlFamily):
    """Piecewise-linear profile through knots, e.g. a nonparametric estimate.

    Parameters
    ----------
    s_knots : array-like
        Strictly increasing lags, all <= 0, ending exactly at 0.
    d_values : array-like
        Profile values at the knots: nondecreasing, within [0, 1], ending
        at 1.  The profile is linearly interpolated between knots and
        truncated to zero before the earliest knot, so its area is finite
        and lifetimes are bounded by the grid extent.
    """

    name = "tabulated"

    def __init__(self, s_knots: Sequence[float], d_values: Sequence[float]):
        s = np.asarray(s_knots, dtype=float)
        d = np.asarray(d_values, dtype=float)
        if s.ndim != 1 or s.shape != d.shape or s.size < 2:
            raise ValueError("need matching 1-d knot and value arrays with >= 2 points")
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(d))):
            raise ValueError("knots and values must be finite")
        if np.any(np.diff(s) <= 0.0) or s[-1] != 0.0 or np.any(s > 0.0):
            raise ValueError("knots must be strictly increasing, nonpositive, and end at 0")
        if np.any(np.diff(d) < 0.0) or d[-1] != 1.0 or np.any(d < 0.0):
            raise ValueError("values must be nondecreasing in [0, 1] with value 1 at lag 0")
        self._s = s
        self._d = d
        # cumulative integral from each knot up to lag 0 (trapezoids)
        seg = np.diff(s) * (d[:-1] + d[1:]) / 2.0
        rev = np.concatenate([np.cumsum(seg[::-1])[::-1], [0.0]])
        self._cum = rev  # cum[j] = integral_{s_j}^{0} d_tilde

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TabulatedTrawl)
            and np.array_equal(self._s, other._s)
            and np.array_equal(self._d, other._d)
        )

    def _d_tilde(self, s):
        return np.where(s < self._s[0], 0.0, np.interp(s, self._s, self._d))

    def _area(self):
        return self._cum[0]

    def _increment(self, t):
        s_q = np.maximum(-t, self._s[0])
        # integral_{s_q}^{0}: locate segment, add the partial trapezoid
        j = np.clip(np.searchsorted(self._s, s_q, side="right") - 1, 0, self._s.size - 2)
        h = self._s[j + 1] - s_q
        d_at = np.interp(s_q, self._s, self._d)
        return self._cum[j + 1] + h * (d_at + self._d[j + 1]) / 2.0

    def _overlap(self, t):
        return self._cum[0] - self._increment(t)

    def _lifetime(self, p):
        v = 1.0 - np.atleast_1d(p)
        idx = np.searchsorted(self._d, v, side="right")  # first knot with value > v
        out = np.empty(v.shape)
        out[idx == 0] = -self._s[0]  # below the tabulated range: truncated tail
        out[idx == self._d.size] = 0.0  # v == 1 exactly
        mid = (idx > 0) & (idx < self._d.size)
        j = idx[mid] - 1
        dj, dj1 = self._d[j], self._d[j + 1]
        vm = v[mid]
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = (vm - dj) / (dj1 - dj)
        s_star = np.where(dj == vm, self._s[j], self._s[j] + frac * (self._s[j + 1] - self._s[j]))
        out[mid] = -s_star
        return out

    def _residual(self, q):
        target = (1.0 - np.atleast_1d(q)) * self._cum[0]  # increment(t) to hit
        # self._cum decreases along the knots; bracket the containing segment
        idx = np.searchsorted(self._cum[::-1], target, side="left")
        j = np.clip(self._cum.size - 1 - idx, 0, self._s.size - 2)
        need = np.clip(target - self._cum[j + 1], 0.0, self._cum[j] - self._cum[j + 1])
        width = self._s[j + 1] - self._s[j]
        slope = (self._d[j + 1] - self._d[j]) / width  # >= 0 by monotonicity
        dj1 = self._d[j + 1]
        # solve need = h*d_{j+1} - slope*h^2/2 for the root in [0, width];
        # 2*need/(d_{j+1} + sqrt(...)) is the cancellation-free form
        disc = np.sqrt(np.maximum(dj1**2 - 2.0 * slope * need, 0.0))
        denom = dj1 + disc
        h = np.where(denom > 0.0, 2.0 * need / np.where(denom > 0.0, denom, 1.0), 0.0)
        h = np.clip(h, 0.0, width)
        return -(self._s[j + 1] - h)

    def params(self) -> dict:
        return {"s": self._s.tolist(), "d_tilde": self._d.tolist()}

    @classmethod
    def from_params(cls, params: Mapping) -> "TabulatedTrawl":
        return cls(params["s"], params["d_tilde"])


def _branch(mask, if_true, if_false):
    """``np.where(mask, if_true(), if_false())``, calling only the branches
    that some element of ``mask`` takes."""
    if np.all(mask):
        return if_true()
    if not np.any(mask):
        return if_false()
    return np.where(mask, if_true(), if_false())


def _check_lag(s) -> np.ndarray:
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr > 0.0):
        raise ValueError("profile is defined for s <= 0 only")
    return s_arr


def _check_age(t) -> np.ndarray:
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0.0) or not np.all(np.isfinite(t_arr)):
        raise ValueError("age/horizon must be finite and >= 0")
    return t_arr


def _check_level(p, kind: str) -> np.ndarray:
    p_arr = np.asarray(p, dtype=float)
    ok = np.all(np.isfinite(p_arr))
    if kind == "[0,1)":
        ok = ok and not (np.any(p_arr < 0.0) or np.any(p_arr >= 1.0))
    else:
        ok = ok and not (np.any(p_arr <= 0.0) or np.any(p_arr > 1.0))
    if not ok:
        raise ValueError(f"quantile level must lie in {kind}")
    return p_arr


def _mapping(value, field: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"model JSON field {field!r} must be an object, got {type(value).__name__}")
    return value


_FAMILIES = {cls.name: cls for cls in (ExponentialTrawl, SupGammaTrawl, SupGigTrawl, TabulatedTrawl)}


def _family_class(name: str) -> type[TrawlFamily]:
    """The trawl family class registered under a wire-format name."""
    try:
        return _FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown trawl family {name!r}; expected one of {sorted(_FAMILIES)}") from None


def family_from_params(name: str, params: Mapping) -> TrawlFamily:
    """Build a trawl family from its wire-format name and parameter map."""
    return _family_class(name).from_params(params)


# ---------------------------------------------------------------------------
# Squashed trawl + full model parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrawlSpec:
    """A trawl profile squashed with permanence parameter ``b``.

    ``b`` is the fraction of each move that never decays; ``b = 1`` is the
    pure permanent (Levy) limit, in which all set functionals vanish.
    """

    b: float
    family: TrawlFamily

    def __post_init__(self):
        if not (math.isfinite(self.b) and 0.0 <= self.b <= 1.0):
            raise ValueError(f"permanence parameter b must lie in [0, 1], got {self.b!r}")
        if not isinstance(self.family, TrawlFamily):
            raise TypeError("family must be a TrawlFamily instance")

    def d(self, s):
        """Squashed depth ``b + (1-b) * d_tilde(s)`` at lag ``s <= 0``."""
        if self.b == 1.0:
            return _match(np.ones_like(_check_lag(s)), s)
        return _match(self.b + (1.0 - self.b) * np.asarray(self.family.d_tilde(s)), s)

    def leb_area(self) -> float:
        """Lebesgue area of the decaying part, ``(1-b) * area``."""
        if self.b == 1.0:
            return 0.0
        return (1.0 - self.b) * self.family.area()

    def overlap(self, t):
        """Area shared by the trawl and its time-``t`` translate."""
        if self.b == 1.0:
            return _match(np.zeros_like(_check_age(t)), t)
        return _match((1.0 - self.b) * np.asarray(self.family.overlap(t)), t)

    def increment(self, t):
        """New area gained over a horizon ``t``: ``leb_area - overlap(t)``."""
        if self.b == 1.0:
            return _match(np.zeros_like(_check_age(t)), t)
        return _match((1.0 - self.b) * np.asarray(self.family.increment(t)), t)

    def to_dict(self) -> dict:
        return {"family": self.family.name, "params": self.family.params()}


@dataclass(frozen=True)
class ModelParams:
    """Complete model: jump intensities plus squashed trawl geometry."""

    levy: LevyMeasure
    trawl: TrawlSpec

    def __post_init__(self):
        if not isinstance(self.levy, LevyMeasure):
            raise TypeError("levy must be a LevyMeasure")
        if not isinstance(self.trawl, TrawlSpec):
            raise TypeError("trawl must be a TrawlSpec")

    @property
    def b(self) -> float:
        return self.trawl.b

    def to_dict(self) -> dict:
        return {
            "b": self.trawl.b,
            "trawl": self.trawl.to_dict(),
            "levy": {str(y): rate for y, rate in self.levy.as_dict().items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "ModelParams":
        try:
            b = float(data["b"])
            trawl_block = _mapping(data["trawl"], "trawl")
            family = family_from_params(trawl_block["family"], _mapping(trawl_block["params"], "trawl.params"))
            levy = LevyMeasure({int(k): float(v) for k, v in _mapping(data["levy"], "levy").items()})
        except KeyError as exc:
            raise ValueError(f"model JSON is missing required field {exc}") from exc
        return cls(levy=levy, trawl=TrawlSpec(b=b, family=family))

    def to_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_json(cls, path) -> "ModelParams":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Modified Bessel function of the second kind
# ---------------------------------------------------------------------------


def bessel_k(order, x):
    """Modified Bessel function of the second kind ``K_order(x)``.

    Thin validation wrapper around the SciPy implementation: accepts
    ``x > 0`` (scalar or array), any real order (``K_{-v} = K_v``), and
    raises instead of silently returning ``inf``/``0.0`` when the result
    leaves double-precision range.

    Raises
    ------
    ValueError
        For nonpositive or nonfinite ``x``.
    OverflowError
        When the true value overflows (small ``x``, large order).
    FloatingPointError
        When the true value underflows to zero (``x`` beyond ~740).
    """
    x_arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x_arr)) or np.any(x_arr <= 0.0):
        raise ValueError("bessel_k requires finite x > 0")
    if not np.all(np.isfinite(np.asarray(order, dtype=float))):
        raise ValueError("bessel_k requires finite order")
    # kve * exp(-x) reaches the true underflow floor (~x = 744); the plain
    # kv zeroes out near x = 700 while the value is still representable
    out = sps.kve(order, x_arr) * np.exp(-x_arr)
    if np.any(np.isinf(out)):
        raise OverflowError("K_order(x) overflows double precision for these arguments")
    if np.any(out == 0.0):
        raise FloatingPointError("K_order(x) underflows to zero for these arguments")
    return _match(out, x)
