"""Ideal-gas states, conversions, characteristic speeds and the point-source value.

A :class:`GasState` stores the primitive variables (rho, u, p) together with
the ratio of specific heats, so states with different gamma can coexist.
Vacuum is not representable: every downstream formula divides by rho or p,
so the constructor rejects non-positive density or pressure outright, any
field that is not finite, and a sound speed that underflows or overflows.

States and source coefficients hold Python floats whatever real numbers
they are given: numpy scalars would run every solver step in numpy-scalar
arithmetic, which gives the same bits several times slower. For the same
reason ``euler_flux`` is a plain expression: the origin fluxes evaluate it
on the floats of a state, the DG stage on arrays of conserved rows.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .errors import ConfigError

_EPS = 2.220446049250313e-16


def value_class(cls=None, *, eq=True):
    """``dataclass(frozen=True, eq=eq)`` whose ``__init__`` stores its arguments in one dict update.

    The solver builds several of these objects per solve, and the DG stage
    wraps every stage value in one. The frozen dataclass's generated
    ``__init__`` sets each field through ``object.__setattr__``, which made
    a solve 1.037-1.047x slower (CPython 3.11, 2-core x86-64 host). The
    ``__init__`` attached here has the fields' names and defaults, in order,
    and its body is ``self.__dict__.update(name=name, ...)``; it checks
    nothing, so a class that validates its fields writes its own, as
    ``GasState`` does. Like ``dataclasses``, it builds the function with
    ``exec``.
    """
    def wrap(cls):
        cls = dataclass(frozen=True, init=False, eq=eq)(cls)
        names = [f.name for f in fields(cls)]
        # The defaults, as the globals the def line reads them from.
        scope = {f"_{f.name}": f.default for f in fields(cls) if f.default is not MISSING}
        params = ", ".join(f"{n}=_{n}" if f"_{n}" in scope else n for n in names)
        store = ", ".join(f"{n}={n}" for n in names)
        exec(f"def __init__(self, {params}):\n    self.__dict__.update({store})\n", scope)
        cls.__init__ = scope["__init__"]
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
        return cls
    return wrap if cls is None else wrap(cls)


def _as_floats(obj, names: tuple[str, ...]) -> tuple[float, ...]:
    """The named fields of the frozen ``obj`` as floats, stored back into it.

    Only real numbers convert: ``float`` also accepts a numeric string or a
    one-element array, which must not become a valid state. A bool is
    rejected too; an int too large for a float raises ``ConfigError``.
    """
    values = []
    for name in names:
        x = getattr(obj, name)
        if type(x) is not float:
            # A float subclass (numpy's float64) skips the slower ABC test.
            if not isinstance(x, float) and (isinstance(x, bool)
                                             or not isinstance(x, numbers.Real)):
                raise ConfigError(f"{name} must be a real number, got {x!r}")
            try:
                x = float(x)
            except OverflowError as exc:
                raise ConfigError(f"{name} overflows a float") from exc
            object.__setattr__(obj, name, x)
        values.append(x)
    return tuple(values)


@dataclass(frozen=True, init=False)
class GasState:
    """One fluid state in primitive variables (density, velocity, pressure)."""

    rho: float
    u: float
    p: float
    gamma: float = 1.4

    def __init__(self, rho: float, u: float, p: float, gamma: float = 1.4):
        # Every solver step builds states, from floats: one dict update in
        # place of the generated init's four object.__setattr__ calls, then
        # type tests and chained comparisons only. NaN fails each comparison.
        self.__dict__.update(rho=rho, u=u, p=p, gamma=gamma)
        if not (type(rho) is float and type(u) is float and type(p) is float
                and type(gamma) is float):
            rho, u, p, gamma = _as_floats(self, ("rho", "u", "p", "gamma"))
        if not (0.0 < rho < math.inf and 0.0 < p < math.inf and -math.inf < u < math.inf):
            raise ConfigError(f"non-physical state: rho={rho}, u={u}, p={p}")
        if not gamma > 1.0:
            raise ConfigError(f"gamma must exceed 1, got {gamma}")
        if not 0.0 < gamma * p / rho < math.inf:
            raise ConfigError(f"sound speed of rho={rho}, p={p}, gamma={gamma} "
                              f"underflows or overflows")

    @property
    def sound_speed(self) -> float:
        return math.sqrt(self.gamma * self.p / self.rho)

    @property
    def mach(self) -> float:
        """Signed Mach number u/a."""
        # ``sound_speed`` inline: the wave-curve root finders read this in their loops.
        return self.u / math.sqrt(self.gamma * self.p / self.rho)

    @property
    def energy(self) -> float:
        """Total energy per unit volume."""
        return total_energy(self.rho, self.u, self.p, self.gamma)

    def mirrored(self) -> "GasState":
        """The state seen in the x -> -x, u -> -u reflected frame."""
        return GasState(self.rho, -self.u, self.p, self.gamma)


@dataclass(frozen=True)
class SourceCoefficients:
    """Dimensionless strengths of the point source, one per conserved equation.

    Each coefficient must be finite and exceed -1, and so must the derived
    combination ``k``, which controls which stationary-wave branches exist and
    which solution structures are reachable; else ``ConfigError``.
    ``k = (1+k1)(1+k3)/(1+k2)^2 - 1`` is computed once, at construction, and
    is exactly 0.0 within 4 eps so that its sign is read one way.
    """

    k1: float
    k2: float
    k3: float
    k: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k1, k2, k3 = self.k1, self.k2, self.k3
        if not (type(k1) is float and type(k2) is float and type(k3) is float):
            k1, k2, k3 = _as_floats(self, ("k1", "k2", "k3"))
        for name, value in (("k1", k1), ("k2", k2), ("k3", k3)):
            if not -1.0 < value < math.inf:
                raise ConfigError(f"{name} must be finite and exceed -1, got {value}")
        try:
            k = (1.0 + k1) * (1.0 + k3) / (1.0 + k2) ** 2 - 1.0
        except OverflowError as exc:
            raise ConfigError(f"k of {self} overflows") from exc
        if abs(k) <= 4.0 * _EPS:
            k = 0.0
        if not -1.0 < k < math.inf:
            raise ConfigError(f"k of {self} must be finite and exceed -1, got {k}")
        object.__setattr__(self, "k", k)

    @property
    def diag(self) -> np.ndarray:
        return np.array([self.k1, self.k2, self.k3])

    def is_zero(self) -> bool:
        return self.k1 == 0.0 and self.k2 == 0.0 and self.k3 == 0.0


def total_energy(rho, u, p, gamma: float):
    """Total energy per unit volume of primitive values, scalars or arrays."""
    return p / (gamma - 1.0) + 0.5 * rho * u * u


def to_conserved(state: GasState) -> np.ndarray:
    """Conserved vector (rho, rho*u, E)."""
    return np.array([state.rho, state.rho * state.u, state.energy])


def from_conserved(rho: float, mom: float, energy: float, gamma: float = 1.4) -> GasState:
    """State of the conserved vector (rho, rho*u, E); a zero density raises ``ConfigError``."""
    try:
        u = mom / rho
    except ZeroDivisionError as exc:
        raise ConfigError(f"non-physical state: rho={rho}") from exc
    # The 0.5*rho*u*u form of the origin traces; the array form of
    # ``primitives`` rounds differently and would move the origin bits.
    p = (gamma - 1.0) * (energy - 0.5 * rho * u * u)
    return GasState(rho, u, p, gamma)


def primitives(u: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rho, velocity, p) of conserved states stacked along the last axis."""
    rho = u[..., 0]
    vel = u[..., 1] / rho
    p = (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] * vel)
    return rho, vel, p


def euler_flux(mom, energy, vel, p):
    """Euler flux (rho*u, rho*u^2 + p, (E + p)*u) from momentum, energy, velocity and pressure.

    A plain expression: floats give a tuple of floats (the origin traces),
    arrays of one shape a tuple of arrays of that shape (the DG stage).
    """
    return mom, mom * vel + p, (energy + p) * vel


def signal_speed(rho, vel, p, gamma: float):
    """Fastest characteristic speed |u| + a."""
    return np.abs(vel) + np.sqrt(gamma * p / rho)


def physical_flux(state: GasState) -> np.ndarray:
    """Euler flux of one state, from the momentum and energy of ``to_conserved``."""
    return np.array(euler_flux(state.rho * state.u, state.energy, state.u, state.p))


def eigenvalues(state: GasState) -> tuple[float, float, float]:
    """Characteristic speeds (u - a, u, u + a), strictly increasing."""
    a = state.sound_speed
    return (state.u - a, state.u, state.u + a)


def rightward_frame(left: GasState, right: GasState) -> tuple[GasState, GasState, bool] | None:
    """The pair in the frame where it flows rightward, and whether that frame is mirrored.

    None when the flow does not pass through the origin (velocities of mixed
    sign, or zero on either side): such a pair carries no source. This is
    the one place that reads the flow direction of a pair of traces.
    """
    if left.u > 0.0 and right.u > 0.0:
        return left, right, False
    if left.u < 0.0 and right.u < 0.0:
        return right.mirrored(), left.mirrored(), True
    return None


def evaluate_source(left: GasState, right: GasState, coeffs: SourceCoefficients) -> np.ndarray:
    """Source vector carried by the origin, given the two adjacent traces.

    Active only when the flow passes through the origin without changing
    sign; the strength is the coefficient-scaled flux of the upstream trace,
    taken in the rightward frame. Mirror covariance fixes the leftward case:
    the reflected frame reproduces the rightward value with the momentum
    component flipped.
    """
    frame = rightward_frame(left, right)
    if frame is None:
        return np.zeros(3)
    source = coeffs.diag * physical_flux(frame[0])
    if frame[2]:
        source[1] = -source[1]
    return source
