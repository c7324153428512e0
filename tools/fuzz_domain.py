"""The origin solver's fuzz domain: one seeded draw set, and the wave-side check of its fans.

A draw is a Riemann problem with a point source: two states, each with rho
and p in (0.1, 5) and |u| <= 4, and source coefficients k_i in (-0.6, 1.5).
``arrays(n)`` draws the whole set from ``np.random.default_rng(0)``: all n
rows of k, then all of rho and p, then all of u. So the n-draw set depends
on n: the 200 draws of ``arrays(200)`` are not the first 200 of
``arrays(20000)``. The 2,000-draw set is the ``problems`` of the benchmark's
``riemann_batch`` workload at seed 0.

The census, ``bitcheck``, ``abtime`` and the tests (through
``tests/conftest.py``) all draw from here. The module imports no package of
its own: ``draws`` builds states with the classes of the package it is given.
"""

from __future__ import annotations

import numpy as np

K_BOUNDS = (-0.6, 1.5)  # each source coefficient k_i
RHO_P_BOUNDS = (0.1, 5.0)  # density and pressure of each state
U_BOUNDS = (-4.0, 4.0)  # velocity of each state


def arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(k, rho and p, u) of the n-draw set: shapes (n, 3), (n, 4) and (n, 2).

    Row i is draw i: coefficients ``k[i]``, left state
    (``rp[i, 0]``, ``u[i, 0]``, ``rp[i, 1]``) and right state
    (``rp[i, 2]``, ``u[i, 1]``, ``rp[i, 3]``).
    """
    rng = np.random.default_rng(0)
    k = rng.uniform(*K_BOUNDS, (n, 3))
    rp = rng.uniform(*RHO_P_BOUNDS, (n, 4))
    u = rng.uniform(*U_BOUNDS, (n, 2))
    return k, rp, u


def draws(n: int, package) -> list:
    """(left, right, coeffs) of each draw of the n-draw set, built from the numpy scalars
    of ``arrays(n)`` with ``package.GasState`` and ``package.SourceCoefficients``, as the
    benchmark builds them."""
    k, rp, u = arrays(n)
    return [(package.GasState(rp[i, 0], u[i, 0], rp[i, 1]),
             package.GasState(rp[i, 2], u[i, 1], rp[i, 3]), package.SourceCoefficients(*k[i]))
            for i in range(n)]


def off_side(fan, left, right) -> bool:
    """Whether a wave of the composed ``fan`` of ``left`` and ``right`` lies on the wrong side
    of the origin: one of its left sub-fan moving right, or one of its right sub-fan moving
    left, by more than 1e-12 of the larger signal speed |u| + a of the data.

    A fan with such a wave is not a weak solution of the problem with the source.
    """
    tol = 1e-12 * max(abs(left.u) + left.sound_speed, abs(right.u) + right.sound_speed)
    return any(s > tol for s in fan.left_wave_speeds()) \
        or any(s < -tol for s in fan.right_wave_speeds())
