"""Built-in test problems (coefficients, data, end times, structure labels).

The numeric literals are kept as the exact decimal strings they are tabulated
with; parsing and re-serializing the registry reproduces them verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConfigError
from .gas import GasState, SourceCoefficients

# id: (k1, k2, k3), (rho u p)_left, (rho u p)_right, t_end, structure label
_TABLE: dict[int, tuple] = {
    1: (("0.4", "0.2", "0.4"), ("0.6", "0.5", "0.6"),
        ("0.641338", "0.654881", "0.62495"), 1.0, "single source stationary wave"),
    2: (("0.2", "0.0", "0.2"), ("1.0", "1.0", "1.0"),
        ("0.933943", "0.411564", "1.27555"), 3.0, "Type1"),
    3: (("0.1", "0.1", "0.2"), ("1.0", "2.0", "1.0"),
        ("1.888", "2.53245", "2.17219"), 2.0, "Type2"),
    4: (("0.1", "-0.2", "0.2"), ("1.0", "1.0", "1.0"),
        ("0.378535", "2.07562", "0.46455"), 3.0, "Type3"),
    5: (("0.1", "0.1", "0.2"), ("1.0", "1.74007", "1.0"),
        ("1.65217", "1.71963", "1.77224"), 4.0, "Type4"),
    6: (("0.1", "0.2", "-0.2"), ("1.0", "0.8", "1.0"),
        ("1.27959", "1.38758", "0.671459"), 4.0, "Type5"),
    7: (("0.1", "0.1", "-0.1"), ("1.0", "0.8", "1.0"),
        ("0.468365", "1.92334", "0.450956"), 4.0, "Type6"),
    8: (("0.3", "0.3", "0.3"), ("0.6", "0.8", "0.6"),
        ("0.459223", "1.45488", "0.507773"), 3.0, "Type7"),
}

GAMMA = 1.4
DEFAULT_DOMAIN = (-10.0, 10.0)


@dataclass(frozen=True)
class TestCase:
    id: int
    coeffs: SourceCoefficients
    left: GasState
    right: GasState
    t_end: float
    structure_label: str
    domain: tuple[float, float] = DEFAULT_DOMAIN

    @property
    def equilibrium(self) -> bool:
        """Whether the data is a single stationary wave (preservation test)."""
        return self.id == 1


def raw_table() -> dict[int, tuple]:
    """The registry as printed decimal strings (for round-trip checks)."""
    return dict(_TABLE)


def get_case(test_id: int) -> TestCase:
    if test_id not in _TABLE:
        raise ConfigError(f"unknown test id {test_id}; valid ids are 1..8")
    ks, ul, ur, t_end, label = _TABLE[test_id]
    return TestCase(
        id=test_id,
        coeffs=SourceCoefficients(*(float(v) for v in ks)),
        left=GasState(*(float(v) for v in ul), GAMMA),
        right=GasState(*(float(v) for v in ur), GAMMA),
        t_end=t_end,
        structure_label=label,
    )


def all_cases() -> list[TestCase]:
    return [get_case(i) for i in sorted(_TABLE)]
