"""Census of the origin solver over its fuzz domain: one table of draw counts.

    python tools/census.py [--draws N]

takes the N-draw set (default 20,000) of the solver's fuzz domain in
``tools/fuzz_domain.py`` (k_i in (-0.6, 1.5), rho, p in (0.1, 5),
|u| <= 4). The set depends on N: the 200 draws of ``--draws 200`` are not
the first 200 of the 20,000, and only ``--draws 2000`` gives the seed-0
``problems`` of the benchmark's ``riemann_batch`` workload. It counts the
draws by three keys:

- ``structure``: the structure of the rightward solve, ``predict_structure``
  in the rightward frame, or the class of the error it raises (a refused
  sonic expansion reads ``NotSolvableError`` here);
- ``mismatch``: the signs of ``velocity_mismatch`` at p_crit and at p_rest,
  the ends of ``subsonic_passage_bracket`` (``+``, ``-`` or ``0``, in that
  order), or the class of the error either raises;
- ``fan``: the verdict of the wave-side check ``fuzz_domain.off_side`` on
  the fan that ``compose_reference_fan`` composes (``on-side``, or
  ``wrong-side`` when a wave of the left sub-fan moves right or one of the
  right sub-fan left, beyond 1e-12 of the largest signal speed of the
  data), or the class of the error it raises.

Draws whose flow does not pass the origin (velocities of mixed signs, or
a zero one) carry no source. They are counted in ``no-source`` rows, whose
``fan`` column gives the state at x/t = 0 of the classical fan that
``sample_classical(solve_classical(left, right), 0.0)`` reads: the
``left-datum`` or the ``right-datum``, a ``star`` state, a point inside a
rarefaction ``fan``, or the class of the error it raises. Rows are printed
by count, largest first. The tool imports ``deltawave`` from the ``src``
beside it and reads its public names only.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import deltawave  # noqa: E402
from deltawave import (  # noqa: E402
    DeltawaveError,
    GasState,
    SourceCoefficients,
    compose_reference_fan,
    predict_structure,
    sample_classical,
    solve_classical,
    subsonic_passage_bracket,
    velocity_mismatch,
)
from deltawave.gas import rightward_frame  # noqa: E402
from fuzz_domain import draws, off_side  # noqa: E402


def _attempt(fn, *args) -> str:
    """``fn(*args)``, or the class name of the ``DeltawaveError`` it raises."""
    try:
        return fn(*args)
    except DeltawaveError as exc:
        return type(exc).__name__


def _signs(left: GasState, right: GasState, coeffs: SourceCoefficients) -> str:
    p_rest, p_crit = subsonic_passage_bracket(left, coeffs)
    return "".join("+" if t > 0.0 else "-" if t < 0.0 else "0"
                   for t in (velocity_mismatch(p, left, right, coeffs) for p in (p_crit, p_rest)))


def _verdict(left: GasState, right: GasState, coeffs: SourceCoefficients) -> str:
    off = off_side(compose_reference_fan(left, right, coeffs), left, right)
    return "wrong-side" if off else "on-side"


def _origin(left: GasState, right: GasState) -> str:
    fan = solve_classical(left, right)
    state = sample_classical(fan, 0.0)
    if state == left:
        return "left-datum"
    if state == right:
        return "right-datum"
    return "star" if state.p == fan.p_star else "fan"


def census(n: int) -> Counter:
    """Counts of the ``n``-draw set by (structure, mismatch, fan)."""
    counts = Counter()
    for left, right, coeffs in draws(n, deltawave):
        frame = rightward_frame(left, right)
        if frame is None:
            counts["no-source", "", _attempt(_origin, left, right)] += 1
            continue
        rl, rr, _ = frame  # the pair in its rightward frame
        structure = _attempt(lambda: predict_structure(rl, rr, coeffs).structure.value)
        counts[structure, _attempt(_signs, rl, rr, coeffs),
               _attempt(_verdict, left, right, coeffs)] += 1
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=20_000)
    args = parser.parse_args(argv)
    if args.draws < 1:
        parser.error("--draws must be at least 1")
    counts = census(args.draws)
    rows = sorted(counts.items(), key=lambda item: (-item[1], item[0]))
    print(f"{'structure':<18} {'mismatch':<18} {'fan':<18} {'draws':>6}")
    for (structure, signs, fan), count in rows:
        print(f"{structure:<18} {signs:<18} {fan:<18} {count:>6}")
    print(f"{'total':<56} {sum(counts.values()):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
