"""Batch command-line interface.

Exit codes: 0 on success, 2 on configuration errors, 3 when an interface flux
is unavailable (curve-transform scheme without corrections).
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from .cases import get_case
from .errors import ConfigError, UnavailableFluxError
from .runner import (
    CFL,
    SCHEMES,
    convergence_study,
    end_time,
    initial_states,
    profile_rows_from_fan,
    profile_rows_from_field,
    run_test,
    scheme_from_name,
    write_profile,
)
from .structure import compose_reference_fan


def _parse_domain(text: str | None, test_id: int) -> tuple[float, float]:
    """The domain 'a,b' as two floats; None gives the test problem's own domain."""
    if text is None:
        return get_case(test_id).domain
    try:
        a, b = (float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"domain must be 'a,b', got '{text}'") from exc
    return a, b


@click.group()
def main():
    """Point-source Euler test problems: run, refine, and sample exact solutions."""


def _command(fn):
    """Register ``fn`` as a subcommand of ``main`` whose typed errors exit with one line on
    stderr: status 2 for a ``ConfigError``, 3 for an ``UnavailableFluxError``."""

    @functools.wraps(fn)
    def guarded(**options):
        try:
            fn(**options)
        except ConfigError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(2)
        except UnavailableFluxError as exc:
            click.echo(f"error: interface flux unavailable: {exc}", err=True)
            sys.exit(3)

    return main.command()(guarded)


_test = click.option("--test", "test_id", type=click.IntRange(1, 8), required=True)
_scheme = click.option("--scheme", type=click.Choice(list(SCHEMES)), required=True)
_cfl = click.option("--cfl", type=float, default=CFL, show_default=True)
_domain = click.option("--domain", type=str, default=None,
                       help="Domain 'a,b'  [default: the test problem's own]")
_out = click.option("--out", "out_path", type=click.Path(), required=True)


@_command
@_test
@_scheme
@click.option("--h", "h", type=float, required=True, help="Cell width.")
@_cfl
@click.option("--t-end", type=float, default=None, help="Override the built-in end time.")
@_domain
@_out
def run(test_id, scheme, h, cfl, t_end, domain, out_path):
    """Advance one test problem and write the cell-mean profile CSV."""
    report = run_test(test_id, scheme_from_name(scheme), h, cfl=cfl, t_end=t_end,
                      domain=_parse_domain(domain, test_id))
    write_profile(out_path, *profile_rows_from_field(report.field))
    click.echo(f"test {test_id} scheme={scheme} h={h:g} cells={report.n_cells} "
               f"t_end={report.t_end:g} wall={report.duration:.2f}s")
    for var, (l1, l2, linf) in report.errors.items():
        click.echo(f"  {var:>3}: L1={l1:.6e}  L2={l2:.6e}  Linf={linf:.6e}")
    if report.wb_deviation is not None:
        click.echo(f"  equilibrium deviation (Linf): {report.wb_deviation:.3e}")
    click.echo(f"  oscillation (TV excess of rho): {report.oscillation:.3e}")
    click.echo(f"  profile written to {out_path}")


@_command
@_test
@_scheme
@click.option("--h-list", type=str, required=True, help="Comma-separated cell widths, descending.")
@_cfl
@click.option("--out-dir", type=click.Path(), default=None, help="Write one profile CSV per width.")
def converge(test_id, scheme, h_list, cfl, out_dir):
    """Refinement study: density L1 errors and successive ratios."""
    try:
        hs = [float(v) for v in h_list.split(",")]
    except ValueError as exc:
        raise ConfigError(f"bad --h-list '{h_list}'") from exc
    reports = convergence_study(test_id, scheme_from_name(scheme), hs, cfl=cfl)
    if out_dir is not None:
        for rep in reports:
            write_profile(Path(out_dir) / f"test{test_id}_{scheme}_h{rep.h:g}.csv",
                          *profile_rows_from_field(rep.field))
    click.echo(f"test {test_id} scheme={scheme}  (density errors)")
    click.echo(f"{'h':>10} {'L1':>14} {'ratio':>8}")
    errors = [rep.l1("rho") for rep in reports]
    for rep, prev, l1 in zip(reports, [None, *errors], errors):
        ratio = f"{prev / l1:8.3f}" if prev else "       -"
        click.echo(f"{rep.h:>10g} {l1:>14.6e} {ratio}")


@_command
@_test
@click.option("--samples", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--t-end", type=float, default=None)
@_domain
@_out
def reference(test_id, samples, t_end, domain, out_path):
    """Sample the exactly composed solution of a test problem to CSV."""
    case = get_case(test_id)
    t = end_time(case, t_end)
    a, b = _parse_domain(domain, test_id)
    fan = compose_reference_fan(*initial_states(case), case.coeffs)
    xs = np.linspace(a, b, samples)
    write_profile(out_path, xs, profile_rows_from_fan(fan, xs, t))
    click.echo(f"reference profile for test {test_id} at t={t:g}: "
               f"{samples} samples -> {out_path}")


if __name__ == "__main__":
    main()
