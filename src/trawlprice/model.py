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

import contextlib
import importlib
import json
import math
import numbers
import types
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar, Mapping, NamedTuple, Sequence

import numpy as np

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


class _LazyModule(types.ModuleType):
    """Stand-in for the module named ``name``, imported on its first attribute read.

    That read copies the module's namespace in and turns the stand-in into a
    plain module, so later reads cost what any module attribute costs.  Only
    the sup-GIG kernels and ``bessel_k`` need scipy, and importing it takes
    most of a fresh ``import trawlprice``.
    """

    def __getattr__(self, attr):
        vars(self).update(vars(importlib.import_module(self.__name__)))
        self.__class__ = types.ModuleType
        return getattr(self, attr)


sps = _LazyModule("scipy.special")


def _integer_or_none(y) -> int | None:
    """``y`` as an int, or None for a finite non-integer; a ``ValueError`` where ``y`` is not finite."""
    try:
        yi = int(y)
    except (ValueError, OverflowError):  # nan, inf
        raise ValueError(f"need a finite value, got {y!r}") from None
    return yi if yi == y else None


def _number(value, parse=None):
    """The one definition of a number: ``value`` where it is a non-bool ``numbers.Real``,
    what ``parse`` (``int`` or ``float``, where given) makes of a string, else None."""
    if parse is not None and isinstance(value, str):
        with contextlib.suppress(ValueError):
            return parse(value)
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    return None


def _whole(value, need: str, low: float = -math.inf, text: bool = False) -> int:
    """The one test of a whole-number argument: ``value`` as an int where it is a :func:`_number`
    (with ``text``, parsed by ``int``) that is an integer or an integral float of at least ``low``,
    else ``ValueError("<need>, got <value>")``."""
    whole = _number(value, int if text else None)
    if whole is not None and (isinstance(whole, numbers.Integral) or float(whole).is_integer()) and int(whole) >= low:
        return int(whole)
    raise ValueError(f"{need}, got {value!r}")


def _real(value, need: str, low=-math.inf, high=math.inf, above=-math.inf, text: bool = False) -> float:
    """The one test of a real-valued argument: ``value`` as a float where it is a finite :func:`_number`
    (with ``text``, parsed by ``float``) in ``[low, high]`` and above ``above``, else
    ``ValueError("<need>, got <value>")``."""
    x = math.nan
    number = _number(value, float if text else None)
    if number is not None:
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            x = float(number)
    if math.isfinite(x) and low <= x <= high and x > above:
        return x
    raise ValueError(f"{need}, got {value!r}")


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
            yi = _whole(y, "jump size must be a nonzero integer")
            if yi == 0:
                raise ValueError(f"jump size must be a nonzero integer, got {y!r}")
            r = _real(rate, f"intensity for size {yi} must be finite and >= 0", 0.0)
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
        """``nu(y)``: 0.0 off the support, a finite non-integer ``y`` included."""
        return self._intensities.get(_integer_or_none(y), 0.0)

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
        j = _whole(j, "cumulant order must be a positive integer", 1)
        return float(np.sum(self._rates * np.float_power(self._sizes.astype(float), j)))

    def abs_moment(self, r: float) -> float:
        """Absolute power sum ``sum_y |y|^r nu(y)`` for real ``r >= 0``.

        ``r = 0`` counts total intensity (``|y|^0 = 1`` on the support,
        which excludes zero by construction).
        """
        r = _real(r, "moment exponent must be finite and >= 0", 0.0)
        return float(np.sum(self._rates * np.abs(self._sizes.astype(float)) ** r))


# ---------------------------------------------------------------------------
# Trawl profiles
# ---------------------------------------------------------------------------


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

    A family writes exactly six array kernels, each called with the
    validated array followed by the ``coords`` fields in table order (none
    for a family without a table): ``_d_tilde(s)``, ``_area()``,
    ``_overlap(t)``, ``_increment(t)``, ``_sample_lifetimes(p, rng)`` and
    ``_sample_residuals(q, rng)``.  The sampling pair draws the lifetime
    law exactly, by a closed-form inverse CDF that leaves ``rng``
    untouched or by a mixture draw from ``rng``.  A parametric family
    writes ``_increment`` as a static method that broadcasts over arrays
    of its fields and gives nan for shapes the constructor rejects: the
    signature fit calls it on a whole grid of shapes at once.  One shape's
    fields may also be plain floats, as in each polish step of the fit and
    in the public methods; the kernel then gives the same bits as with
    ``(1, 1)`` arrays of those fields (``x * x`` and ``np.power``, never
    ``x**2`` or ``2.0 ** x``, whose float and array forms round apart).
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

    def sample_lifetimes(self, p, rng):
        """Lifetimes of fleeting moves, one per level ``p in [0, 1)``.

        Given iid uniform levels, the draws have survival function
        ``d_tilde(-t)``: the probability that a move born with uniform
        height survives past age ``t``.  A family with a closed-form
        inverse returns the smallest ``t`` with ``d_tilde(-t) <= 1 - p``
        and leaves ``rng`` (a numpy Generator) untouched; a mixture family
        turns ``p`` into the exponential clock and draws its mixing rates
        from ``rng``.
        """
        return self._at_levels(self._sample_lifetimes, p, "[0,1)", rng)

    def sample_residuals(self, q, rng):
        """Residual lifetimes of moves alive at a window start, one per ``q in (0, 1]``.

        The counterpart of :meth:`sample_lifetimes` for the stationary
        residual law, whose survival function is ``overlap(t) / area``; a
        closed-form inverse returns ``t`` with ``overlap(t) = q * area``.
        """
        return self._at_levels(self._sample_residuals, q, "(0,1]", rng)

    def _at_levels(self, kernel, level, kind: str, *args):
        """``kernel`` at validated quantile levels, shaped like ``level``."""
        bounds = dict(low=0.0, below=1.0) if kind == "[0,1)" else dict(above=0.0, high=1.0)
        arr = _reals(level, f"quantile level must lie in {kind}", **bounds)
        return _match(np.reshape(kernel(arr, *args, *self._fields()), np.shape(level)), level)

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

    @abstractmethod
    def _sample_lifetimes(self, p, rng, *fields):
        """Lifetime draws at levels ``p in [0, 1)``."""

    @abstractmethod
    def _sample_residuals(self, q, rng, *fields):
        """Residual-lifetime draws at levels ``q in (0, 1]``."""

    def params(self) -> dict:
        """JSON-ready parameter mapping (inverse of :meth:`from_params`)."""
        return dict(zip(self.coords, self._fields()))

    @classmethod
    def from_params(cls, params: Mapping) -> "TrawlFamily":
        """Build the family from its wire-format parameter mapping."""
        need = "trawl parameter {!r} must be a finite number"
        return cls(**{c.attr: _real(params[key], need.format(key), text=True) for key, c in cls.coords.items()})


@dataclass(frozen=True)
class ExponentialTrawl(TrawlFamily):
    """Exponentially decaying profile ``d_tilde(s) = exp(lam * s)``."""

    lam: float
    name = "exponential"
    # one coordinate is cheap enough to grid across its hard bounds
    coords = {"lambda": Coord("lam", True, (1e-5, 1e5), (1e-5, 1e5))}

    def __post_init__(self):
        object.__setattr__(self, "lam", _real(self.lam, "decay rate must be finite and > 0", above=0.0))

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
        if isinstance(lam, float) and 0.0 < lam < math.inf:  # one valid shape: no mask to apply
            return -np.expm1(-lam * t) / lam
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam > 0.0, -np.expm1(-lam * t) / lam, np.nan)

    @staticmethod
    def _sample_lifetimes(p, rng, lam):
        return -np.log1p(-p) / lam

    @staticmethod
    def _sample_residuals(q, rng, lam):
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
        object.__setattr__(self, "alpha", _real(self.alpha, "scale alpha must be finite and > 0", above=0.0))
        object.__setattr__(self, "H", _real(self.H, "tail index H must be finite and >= 1", 1.0))

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
        if isinstance(alpha, float) and isinstance(H, float) and 0.0 < alpha < math.inf and 1.0 <= H < math.inf:
            u = np.log1p(t / alpha)  # one valid shape: the branch below taken as a float test
            return alpha * u if H == 1.0 else -alpha * np.expm1((1.0 - H) * u) / (H - 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            u = np.log1p(t / alpha)
            # alpha * (1 - (1+t/alpha)^(1-H)) / (H-1), written to stay smooth as H -> 1
            val = np.where(H == 1.0, alpha * u, -alpha * np.expm1((1.0 - H) * u) / (H - 1.0))
        return np.where((alpha > 0.0) & (H >= 1.0), val, np.nan)

    @staticmethod
    def _sample_lifetimes(p, rng, alpha, H):
        return alpha * np.expm1(-np.log1p(-p) / H)

    @classmethod
    def _sample_residuals(cls, q, rng, alpha, H):
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
    instead of destroying precision.

    The profile is the Laplace transform of ``lam ~ GIG(order, delta_gig,
    gamma)``, so a lifetime is exactly ``E / lam`` with ``E ~ Exp(1)``
    (Barndorff-Nielsen, Lunde, Shephard & Veraart, *Integer-valued trawl
    processes*, 2014).  A residual lifetime is the same with ``lam`` drawn
    from the 1/lam size-biased law, GIG of order ``order - 1``.  The
    sampling pair draws these mixtures; for ``gamma > 0`` its GIG draws are
    those of Hoermann & Leydold, *Generating generalized inverse Gaussian
    random variates* (Statistics and Computing, 2014), by scipy 1.17.1's
    steps (:func:`_gig_rvs`).
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
        object.__setattr__(self, "gamma", _real(self.gamma, "gamma must be finite and >= 0", 0.0))
        object.__setattr__(self, "delta_gig", _real(self.delta_gig, "delta must be finite and > 0", above=0.0))
        object.__setattr__(self, "order", _real(self.order, "order must be finite"))
        if self.gamma == 0.0 and self.order >= 0.0:
            raise ValueError("gamma = 0 requires a negative order")

    @classmethod
    def _d_tilde(cls, s, gamma, delta_gig, order):
        if gamma > 0.0:
            return cls._bessel_ratio(-s, gamma, delta_gig, order, 0.0)
        a = -order
        w = delta_gig * np.sqrt(-2.0 * s)
        k = sps.kve(a, w)
        with np.errstate(invalid="ignore"):
            val = (2.0 ** (1.0 - a) / sps.gamma(a)) * w**a * k * np.exp(-w)
        # kve overflows only as w -> 0, where w**a underflows: use the limit 1 there.
        # Rounding lifts the product up to ~1e-14 above 1 at small w; a survival probability is <= 1
        return np.where(np.isinf(k), 1.0, np.minimum(val, 1.0))

    @staticmethod
    def _bessel_ratio(t, gamma, delta_gig, order, shift, kve_z=None):
        """``(w/z)^(shift-order) K_(order-shift)(w) / K_order(z)``, ``z = gamma*delta``,
        ``w = delta*sqrt(gamma^2 + 2t)``: the profile at lag ``-t`` (shift 0) or the overlap over
        ``gamma/delta`` (shift 1), never subtracting ``z`` from ``w`` (13 digits lost at z ~ 1700).
        ``kve_z`` is ``kve(order, z)`` where the caller has it already."""
        root = np.sqrt(gamma * gamma + 2.0 * t)
        w_minus_z = 2.0 * delta_gig * t / (root + gamma)
        log_ratio = 0.5 * np.log1p(2.0 * t / (gamma * gamma))
        if kve_z is None:
            kve_z = sps.kve(order, gamma * delta_gig)
        kve_ratio = sps.kve(order - shift, delta_gig * root) / kve_z
        return np.exp((shift - order) * log_ratio - w_minus_z) * kve_ratio

    @staticmethod
    def _area(gamma, delta_gig, order):
        z = gamma * delta_gig
        with np.errstate(divide="ignore", invalid="ignore"):
            return _branch(
                gamma > 0.0,
                lambda: gamma / delta_gig * sps.kve(order - 1.0, z) / sps.kve(order, z),
                lambda: -2.0 * order / (delta_gig * delta_gig),
            )

    @classmethod
    def _overlap(cls, t, gamma, delta_gig, order):
        a = -order

        def mixed():
            return gamma / delta_gig * cls._bessel_ratio(t, gamma, delta_gig, order, 1.0)

        def heavy():
            w = delta_gig * np.sqrt(2.0 * t)
            k = sps.kve(1.0 + a, w)
            val = (np.power(2.0, 1.0 - a) / sps.gamma(a)) / (delta_gig * delta_gig) * w ** (1.0 + a) * k * np.exp(-w)
            # as in _d_tilde: where kve overflows (w -> 0) the overlap is the area
            return np.where(np.isinf(k), cls._area(gamma, delta_gig, order), val)

        with np.errstate(divide="ignore", invalid="ignore"):
            return _branch(gamma > 0.0, mixed, heavy)

    @classmethod
    def _increment(cls, t, gamma, delta_gig, order):
        rejected = (gamma < 0.0) | (delta_gig <= 0.0) | ((gamma == 0.0) & (order >= 0.0))
        if rejected is True:  # one rejected shape's float fields may divide by zero below
            return np.full(np.shape(t), np.nan)
        if rejected is False and gamma > 0.0:  # one mixed shape's float fields: kve(order, z) once
            with np.errstate(divide="ignore", invalid="ignore"):
                z = gamma * delta_gig
                kve_z = sps.kve(order, z)
                area = gamma / delta_gig * sps.kve(order - 1.0, z) / kve_z
                return area - gamma / delta_gig * cls._bessel_ratio(t, gamma, delta_gig, order, 1.0, kve_z)
        return np.where(rejected, np.nan, cls._area(gamma, delta_gig, order) - cls._overlap(t, gamma, delta_gig, order))

    @classmethod
    def _sample_lifetimes(cls, p, rng, gamma, delta_gig, order):
        return -np.log1p(-p) * cls._inverse_rates(p.shape, rng, gamma, delta_gig, order)

    @classmethod
    def _sample_residuals(cls, q, rng, gamma, delta_gig, order):
        return -np.log(q) * cls._inverse_rates(q.shape, rng, gamma, delta_gig, order - 1.0)

    @staticmethod
    def _inverse_rates(shape, rng, gamma, delta_gig, order):
        """Draws of ``1/lam`` for ``lam ~ GIG(order, delta_gig, gamma)``.

        ``1/lam`` is GIG with the order negated and ``gamma``, ``delta_gig``
        swapped; at ``gamma = 0`` that is Gamma(-order) over ``delta_gig^2/2``.
        For ``gamma > 0``, :func:`_gig_rvs` draws it by the ratio-of-uniforms
        and rejection methods of Hoermann & Leydold, *Generating generalized
        inverse Gaussian random variates* (Statistics and Computing, 2014),
        taking scipy 1.17.1's steps, so a seeded path is the one
        ``scipy.stats.geninvgauss`` gives.  Multiplying by the draw, never
        dividing, keeps a Gamma draw that underflows to 0 a zero lifetime
        rather than a divide warning.
        """
        if gamma > 0.0:
            return _gig_rvs(-order, gamma * delta_gig, gamma / delta_gig, shape, rng)
        return rng.gamma(-order, size=shape) * (2.0 / delta_gig**2)


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
        s = _reals(s_knots, "knots and values must be finite")
        d = _reals(d_values, "knots and values must be finite")
        if s.ndim != 1 or s.shape != d.shape or s.size < 2:
            raise ValueError("need matching 1-d knot and value arrays with >= 2 points")
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

    def _sample_lifetimes(self, p, rng):
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

    def _sample_residuals(self, q, rng):
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
    that some element of ``mask`` takes; a plain bool (one shape's float
    fields) calls its one branch."""
    if isinstance(mask, bool):
        return if_true() if mask else if_false()
    if np.all(mask):
        return if_true()
    if not np.any(mask):
        return if_false()
    return np.where(mask, if_true(), if_false())


def _reals(values, need: str, low=-math.inf, high=math.inf, above=-math.inf, below=math.inf) -> np.ndarray:
    """The array counterpart of :func:`_real`: ``values`` as a float array (``np.asarray``'s rule) whose
    entries are finite, in ``[low, high]``, above ``above`` and below ``below``, else ``ValueError(need)``."""
    try:
        arr = np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):  # not numbers, ragged, or an int beyond the float range
        raise ValueError(need) from None
    least, most = arr.min(initial=math.inf), arr.max(initial=-math.inf)  # nan if any entry is
    if not (low <= least and above < least and most <= high and most < below):
        raise ValueError(need)
    return arr


def _check_lag(s) -> np.ndarray:
    return _reals(s, "profile is defined for finite s <= 0 only", high=0.0)


def _check_age(t) -> np.ndarray:
    return _reals(t, "age/horizon must be finite and >= 0", 0.0)


def _mapping(value, what: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be an object, got {type(value).__name__}")
    return value


_FAMILIES = {cls.name: cls for cls in (ExponentialTrawl, SupGammaTrawl, SupGigTrawl, TabulatedTrawl)}


def _family_class(name: str) -> type[TrawlFamily]:
    """The trawl family class registered under a wire-format name."""
    if isinstance(name, str) and name in _FAMILIES:
        return _FAMILIES[name]
    raise ValueError(f"unknown trawl family {name!r}; expected one of {sorted(_FAMILIES)}")


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
        object.__setattr__(self, "b", _real(self.b, "permanence parameter b must lie in [0, 1]", 0.0, 1.0))
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
        """Inverse of :meth:`to_dict`; numbers may also be numeric strings.
        Anything else malformed raises ``ValueError``."""
        data = _mapping(data, "model JSON")
        try:
            b = _real(data["b"], "model JSON field 'b' must be a finite number", text=True)
            trawl_block = _mapping(data["trawl"], "model JSON field 'trawl'")
            params = _mapping(trawl_block["params"], "model JSON field 'trawl.params'")
            family = family_from_params(trawl_block["family"], params)
            levy = LevyMeasure({
                _whole(y, "levy size must be an integer", text=True):
                    _real(r, "model JSON field 'levy' must map sizes to finite numbers", text=True)
                for y, r in _mapping(data["levy"], "model JSON field 'levy'").items()
            })
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
# Generalised inverse Gaussian draws
# ---------------------------------------------------------------------------


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _gig_rvs(p, b, scale, shape, rng):
    """``scale`` times draws of the GIG law with density ``x^(p-1) exp(-b(x + 1/x)/2)``, shaped ``shape``.

    The steps of scipy 1.17.1's ``geninvgauss.rvs(p, b, scale=scale,
    size=shape, random_state=rng)`` (``rv_generic.rvs`` and
    ``geninvgauss_gen._rvs_scalar``): the same numpy arithmetic, the same
    uniforms taken from ``rng``, so the draws and the generator state after
    them keep scipy's bits.  ``p < 0`` is drawn as ``1 / GIG(-p)``; then
    Hoermann & Leydold (2014) choose ratio-of-uniforms with mode shift
    (``p >= 1`` or ``b > 1``), without it (``b >= min(1/2, 2 sqrt(1-p)/3)``),
    or rejection from a three-piece hat.  A float for ``shape == ()``.
    """
    p, b, scale = float(p), float(b), float(scale)
    if not (p == p and b > 0 and scale >= 0):
        raise ValueError(f"GIG draws need p not nan, b > 0 and scale >= 0, got p={p!r}, b={b!r}, scale={scale!r}")
    if scale == 0:
        return np.zeros(shape)
    invert = p < 0
    if invert:
        p = -p
    if p < 1:
        m = b / (np.sqrt((p - 1)**2 + b**2) + 1 - p)
    else:
        m = (np.sqrt((1 - p)**2 + b**2) - (1 - p)) / b
    size1d = shape or (1,)
    N = math.prod(size1d)
    x = np.zeros(N)
    simulated = 0

    if p >= 1 or b > 1 or b >= min(0.5, 2 * np.sqrt(1 - p) / 3):
        if p >= 1 or b > 1:  # ratio of uniforms with mode shift
            a2 = -2 * (p + 1) / b - m
            a1 = 2 * m * (p - 1) / b - 1
            # the roots of x**3 + a2*x**2 + a1*x + m (Cardano's formula)
            p1 = a1 - a2**2 / 3
            q1 = 2 * a2**3 / 27 - a2 * a1 / 3 + m
            phi = np.arccos(-q1 * np.sqrt(-27 / p1**3) / 2)
            s1 = -np.sqrt(-4 * p1 / 3)
            root1 = s1 * np.cos(phi / 3 + np.pi / 3) - a2 / 3
            root2 = -s1 * np.cos(phi / 3) - a2 / 3
            # the quasi-density over its value at the mode, in logs
            lm = _gig_logq(m, p, b)
            vmin = (root1 - m) * np.exp(0.5 * (_gig_logq(root1, p, b) - lm))
            vmax = (root2 - m) * np.exp(0.5 * (_gig_logq(root2, p, b) - lm))
            umax, c = 1, m
        else:  # ratio of uniforms without mode shift
            umax = np.exp(0.5 * _gig_logq(m, p, b))
            xplus = ((1 + p) + np.sqrt((1 + p)**2 + b**2)) / b
            vmin, vmax = 0, xplus * np.exp(0.5 * _gig_logq(xplus, p, b))
            lm = c = 0
        if vmin >= vmax:
            raise ValueError("vmin must be smaller than vmax.")
        if umax <= 0:
            raise ValueError("umax must be positive.")
        i = 1
        while simulated < N:
            k = N - simulated
            u = umax * rng.random(k)
            v = vmin + (vmax - vmin) * rng.random(k)
            rvs = v / u + c
            accept = 2 * np.log(u) <= _gig_logq(rvs, p, b) - lm
            num_accept = np.count_nonzero(accept)
            if num_accept > 0:
                x[simulated:simulated + num_accept] = rvs[accept]
                simulated += num_accept
            if simulated == 0 and i * N >= 50000:
                raise RuntimeError(f"Not a single random variate could be generated in {i * N} attempts. "
                                   "Sampling does not appear to work for the provided parameters.")
            i += 1
    else:  # Hoermann & Leydold's rejection from a three-piece hat
        x0 = b / (1 - p)
        xs = np.max((x0, 2 / b))
        k1 = np.exp(_gig_logq(m, p, b))
        A1 = k1 * x0
        if x0 < 2 / b:
            k2 = np.exp(-b)
            A2 = k2 * ((2 / b)**p - x0**p) / p if p > 0 else k2 * np.log(2 / b**2)
        else:
            k2, A2 = 0, 0
        k3 = xs**(p - 1)
        A3 = 2 * k3 * np.exp(-xs * b / 2) / b
        A = A1 + A2 + A3
        while simulated < N:
            k = N - simulated
            h, rvs = np.zeros(k), np.zeros(k)
            u = rng.random(k)
            v = A * rng.random(k)
            cond1 = v <= A1
            cond2 = ~cond1 & (v <= A1 + A2)
            cond3 = ~(cond1 | cond2)
            rvs[cond1] = x0 * v[cond1] / A1
            h[cond1] = k1
            if p > 0:
                rvs[cond2] = (x0**p + (v[cond2] - A1) * p / k2)**(1 / p)
            else:
                rvs[cond2] = b * np.exp((v[cond2] - A1) * np.exp(b))
            h[cond2] = k2 * rvs[cond2]**(p - 1)
            z = np.exp(-xs * b / 2) - b * (v[cond3] - A1 - A2) / (2 * k3)
            rvs[cond3] = -2 / b * np.log(z)
            h[cond3] = k3 * np.exp(-rvs[cond3] * b / 2)
            accept = np.log(u * h) <= _gig_logq(rvs, p, b)
            num_accept = np.count_nonzero(accept)
            if num_accept > 0:
                x[simulated:simulated + num_accept] = rvs[accept]
                simulated += num_accept

    draws = np.reshape(x, size1d)
    if invert:
        draws = 1 / draws
    if shape == ():
        draws = draws.item()
    return draws * scale + 0


def _gig_logq(x, p, b):
    """Log of the GIG quasi-density ``x^(p-1) exp(-b(x + 1/x)/2)``, ``-inf`` off ``x > 0``."""
    return np.where(x > 0, (p - 1) * np.log(x) - b * (x + 1 / x) / 2, -np.inf)


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
    x_arr = _reals(x, "bessel_k requires finite x > 0", above=0.0)
    _reals(order, "bessel_k requires finite order")
    # kve * exp(-x) reaches the true underflow floor (~x = 744); the plain
    # kv zeroes out near x = 700 while the value is still representable
    out = sps.kve(order, x_arr) * np.exp(-x_arr)
    if np.any(np.isinf(out)):
        raise OverflowError("K_order(x) overflows double precision for these arguments")
    if np.any(out == 0.0):
        raise FloatingPointError("K_order(x) underflows to zero for these arguments")
    return _match(out, x)
