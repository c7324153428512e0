import math
import re
import warnings

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from deltawave.cases import _TABLE, all_cases, get_case
from deltawave.cli import main as cli_main
from deltawave.dg import DgField, field_from_states, make_grid
from deltawave.errors import ConfigError, SchemeError
from deltawave.fluxes import Scheme, llf_flux, origin_flux, solver_flux
from deltawave.gas import GasState
from deltawave.runner import (
    RunReport,
    advance,
    convergence_study,
    error_norms,
    initial_states,
    profile_rows_from_field,
    reference_cell_averages,
    run_test,
    scheme_from_name,
    write_profile,
)
from deltawave.structure import compose_reference_fan

from conftest import constant_region_cells


class TestRegistry:
    def test_round_trips_printed_values(self):
        for tid, (ks, ul, ur, _, _) in _TABLE.items():
            case = get_case(tid)
            assert tuple(str(v) for v in (case.coeffs.k1, case.coeffs.k2, case.coeffs.k3)) == ks
            assert tuple(str(v) for v in (case.left.rho, case.left.u, case.left.p)) == ul
            assert tuple(str(v) for v in (case.right.rho, case.right.u, case.right.p)) == ur

    def test_end_times(self):
        expected = {1: 1.0, 2: 3.0, 3: 2.0, 4: 3.0, 5: 4.0, 6: 4.0, 7: 4.0, 8: 3.0}
        for case in all_cases():
            assert case.t_end == expected[case.id]

    def test_labels(self):
        assert get_case(1).structure_label == "single source stationary wave"
        assert get_case(5).structure_label == "Type4"

    def test_unknown_id(self):
        with pytest.raises(ConfigError):
            get_case(9)


class TestErrorComputation:
    def test_reference_self_comparison_is_zero(self):
        case = get_case(2)
        grid = make_grid(-4.0, 4.0, 0.25)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        ref = reference_cell_averages(fan, grid, case.t_end)
        errs = error_norms(ref, ref, 1.4, grid.h)
        for l1, l2, linf in errs.values():
            assert l1 == 0.0 and l2 == 0.0 and linf == 0.0

    def test_l1_bounded_by_linf(self):
        rep = run_test(1, Scheme.SPLITTING, 0.25, t_end=0.2, domain=(-2.0, 2.0))
        for l1, _, linf in rep.errors.values():
            assert l1 <= linf * 4.0 + 1e-30

    def test_constant_region_mask(self):
        case = get_case(2)
        grid = make_grid(-10.0, 10.0, 0.05)
        fan = compose_reference_fan(case.left, case.right, case.coeffs)
        cells = constant_region_cells(fan, grid, case.t_end)
        assert len(cells) > 0
        spans = [(lo * case.t_end, hi * case.t_end) for lo, hi in fan.feature_intervals()]
        for i in cells:
            x = grid.centers[i]
            for lo, hi in spans:
                assert x < lo - 5 * grid.h or x > hi + 5 * grid.h


class TestProfiles:
    def test_numerical_profile_shape(self, tmp_path):
        out = tmp_path / "p.csv"
        rep = run_test(1, Scheme.SOLVER, 0.05)
        write_profile(out, *profile_rows_from_field(rep.field))
        lines = out.read_text().split("\n")
        assert lines[0] == "x,rho,u,p,E"
        data = [l for l in lines[1:] if l]
        assert len(data) == rep.n_cells == 400
        for row in data:
            fields = row.split(",")
            assert len(fields) == 5
            assert float(fields[1]) > 0.0

    def test_deterministic_bytes(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (p1, p2):
            rep = run_test(2, Scheme.SOLVER, 0.25, t_end=0.3, domain=(-2.0, 2.0))
            write_profile(p, *profile_rows_from_field(rep.field))
        assert p1.read_bytes() == p2.read_bytes()

    def test_seventeen_digit_floats(self, tmp_path):
        out = tmp_path / "c.csv"
        write_profile(out, np.array([1.0 / 3.0]), np.array([[2.0 / 3.0, 1.0, 1.0, 2.5]]))
        body = out.read_text().split("\n")[1]
        assert body.startswith("0.33333333333333331,0.66666666666666663")
        assert out.read_text().count("\r") == 0


class TestConvergenceStudy:
    def test_errors_decrease(self):
        reports = convergence_study(2, Scheme.SOLVER, [0.25, 0.125],
                                    cfl=0.4)
        assert reports[1].l1("rho") < reports[0].l1("rho")


class TestCli:
    def test_run_command(self, tmp_path):
        out = tmp_path / "run.csv"
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "1", "--scheme", "solver", "--h", "0.5",
            "--domain", "-2,2", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        assert "equilibrium deviation" in r.output
        assert out.exists()

    def test_reference_command(self, tmp_path):
        out = tmp_path / "ref.csv"
        r = CliRunner().invoke(cli_main, [
            "reference", "--test", "4", "--samples", "100", "--out", str(out),
        ])
        assert r.exit_code == 0, r.output
        lines = [l for l in out.read_text().split("\n") if l]
        assert len(lines) == 101  # header + samples
        assert all(float(l.split(",")[1]) > 0 for l in lines[1:])

    def test_converge_command(self):
        r = CliRunner().invoke(cli_main, [
            "converge", "--test", "2", "--scheme", "solver", "--h-list", "0.5,0.25",
        ])
        assert r.exit_code == 0, r.output
        assert "ratio" in r.output

    def test_converge_profiles_named_by_scheme(self, tmp_path):
        for scheme in ("kt", "kt-nocorr"):
            r = CliRunner().invoke(cli_main, [
                "converge", "--test", "1", "--scheme", scheme, "--h-list", "0.5",
                "--out-dir", str(tmp_path),
            ])
            assert r.exit_code == 0, r.output
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["test1_kt-nocorr_h0.5.csv", "test1_kt_h0.5.csv"]

    def test_misaligned_grid_exits_2(self, tmp_path):
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "1", "--scheme", "solver", "--h", "0.3",
            "--out", str(tmp_path / "x.csv"),
        ])
        assert r.exit_code == 2

    def test_unavailable_flux_exits_3(self, tmp_path):
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "4", "--scheme", "kt-nocorr", "--h", "0.5",
            "--domain", "-2,2", "--out", str(tmp_path / "x.csv"),
        ])
        assert r.exit_code == 3

    def test_bad_domain_exits_2(self, tmp_path):
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "1", "--scheme", "solver", "--h", "0.5",
            "--domain", "zero,ten", "--out", str(tmp_path / "x.csv"),
        ])
        assert r.exit_code == 2

    @pytest.mark.parametrize("option", [["--cfl", "0.7"], ["--cfl", "0"], ["--t-end", "0"],
                                        ["--t-end", "-1"]])
    def test_bad_run_setting_exits_2(self, tmp_path, option):
        out = tmp_path / "x.csv"
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "2", "--scheme", "solver", "--h", "0.5", *option, "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert not out.exists()

    def test_reference_nonpositive_end_time_exits_2(self, tmp_path):
        out = tmp_path / "ref.csv"
        r = CliRunner().invoke(cli_main, [
            "reference", "--test", "4", "--t-end", "0", "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [["run", "--scheme", "solver", "--h", "0.5"],
                                         ["reference"]])
    def test_infinite_end_time_exits_2(self, tmp_path, command):
        out = tmp_path / "x.csv"
        r = CliRunner().invoke(cli_main, [
            *command, "--test", "2", "--t-end", "inf", "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert "finite and positive" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("h", ["0", "-0.5", "nan", "inf"])
    def test_bad_cell_width_exits_2(self, tmp_path, h):
        out = tmp_path / "x.csv"
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "2", "--scheme", "solver", "--h", h, "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert "cell width must be finite and positive" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("h", ["1e-300", "1e-7", "5e-324"])
    def test_cell_width_beyond_the_cell_bound_exits_2(self, tmp_path, h):
        out = tmp_path / "x.csv"
        r = CliRunner().invoke(cli_main, [
            "run", "--test", "2", "--scheme", "solver", "--h", h, "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert "cells on [-10.0, 10.0], more than 10,000,000" in r.output
        assert not out.exists()

    @pytest.mark.parametrize("h_list, message", [
        ("0.5,0", "cell width must be finite and positive"),
        ("0.5,nan", "cell width must be finite and positive"),
        ("0.5,1.0", "cell widths must strictly decrease"),
        ("0.5,0.5", "cell widths must strictly decrease"),
        ("0.5,x", "bad --h-list '0.5,x'"),
    ])
    def test_converge_bad_width_list_exits_2(self, tmp_path, h_list, message):
        r = CliRunner().invoke(cli_main, [
            "converge", "--test", "2", "--scheme", "solver", "--h-list", h_list,
            "--out-dir", str(tmp_path),
        ])
        assert r.exit_code == 2, r.output
        assert message in r.output
        assert not list(tmp_path.iterdir())  # checked before the first run

    @pytest.mark.parametrize("samples", ["-1", "0"])
    def test_reference_sample_count_below_one_exits_2(self, tmp_path, samples):
        out = tmp_path / "ref.csv"
        r = CliRunner().invoke(cli_main, [
            "reference", "--test", "2", "--samples", samples, "--out", str(out),
        ])
        assert r.exit_code == 2, r.output
        assert "--samples" in r.output
        assert not out.exists()


class TestRunTestValidation:
    def test_misaligned_h(self):
        with pytest.raises(ConfigError):
            run_test(1, Scheme.SOLVER, 0.3)

    @pytest.mark.parametrize("t_end", [float("nan"), -1.0])
    def test_advance_rejects_bad_end_time(self, t_end):
        # Both used to return the field unchanged.
        case = get_case(2)
        field = field_from_states(make_grid(-2.0, 2.0, 0.5), *initial_states(case))
        with pytest.raises(ConfigError, match="finite and positive"):
            advance(field, case.coeffs, Scheme.SOLVER, t_end, 0.5)

    @pytest.mark.parametrize("bad", [lambda c: c.astype(np.float32), lambda c: c[:, 0, :].copy()],
                             ids=["float32", "means-only"])
    def test_advance_rejects_coefficients_of_the_wrong_type_or_shape(self, bad):
        # They used to fail deep inside: a float32 field with numpy's ValueError
        # from the step window's int64 view, (n_cells, 3) coefficients with an
        # IndexError in cfl_dt.
        case = get_case(2)
        field = field_from_states(make_grid(-2.0, 2.0, 0.5), *initial_states(case))
        with pytest.raises(ConfigError, match=r"float64 array of shape \(8, 3, 3\)"):
            advance(field.with_coeffs(bad(field.coeffs)), case.coeffs, Scheme.SOLVER, 0.1, 0.5)

    def test_advance_gives_the_time_of_a_stage_error_once(self):
        # The stage error ends in "(t=0)"; advance used to append "(t=0, h=0.25)" to it.
        grid = make_grid(-1.0, 1.0, 0.25)
        field = field_from_states(grid, GasState(1, 1, 1), GasState(0.9, 0.4, 1.3))
        c = field.coeffs.copy()
        c[4, 2, 0] = np.inf  # the means pass cfl_dt; the traces of cell 4 do not
        message = (r"^inadmissible state at interfaces \[4 5\], quadrature cells \[4\] "
                   r"\(t=0, h=0.25\)$")
        with pytest.raises(SchemeError, match=message):
            advance(field.with_coeffs(c), get_case(1).coeffs, Scheme.SOLVER, 0.1, 0.5)

    def test_array_records_compare_and_hash_by_identity(self):
        # Generated equality compared their arrays and raised numpy's ValueError,
        # and hash raised TypeError.
        case = get_case(2)
        left, right = initial_states(case)
        grid = make_grid(-2.0, 2.0, 0.5)
        pairs = [solver_flux(left, right, case.coeffs) for _ in range(2)]
        fields = [field_from_states(grid, left, right) for _ in range(2)]
        reports = [RunReport(2, Scheme.SOLVER, 0.5, grid.n_cells, 1.0, {}, None, 0.0, 0.0, f)
                   for f in fields]
        for a, b in (pairs, fields, reports):
            assert a == a and a != b
            assert len({a, b, a}) == 2

    def test_scheme_names(self):
        assert scheme_from_name("kt-nocorr") is Scheme.KT_NOCORR
        assert scheme_from_name("kt") is Scheme.KT
        assert scheme_from_name("solver") is Scheme.SOLVER
        with pytest.raises(ConfigError, match="unknown scheme 'no-such-scheme'"):
            scheme_from_name("no-such-scheme")

    @pytest.mark.parametrize("scheme", ["solver", "no-such-scheme", None])
    def test_run_rejects_a_scheme_that_is_not_a_member(self, scheme):
        # A name in place of its Scheme member used to run without any source:
        # LLF at the origin and no split update.
        with pytest.raises(ConfigError, match="unknown scheme"):
            run_test(2, scheme, 0.5)
        case = get_case(2)
        with pytest.raises(ConfigError, match="unknown scheme"):
            origin_flux(*initial_states(case), case.coeffs, scheme)

    def test_splitting_origin_flux_is_llf(self):
        case = get_case(2)
        left, right = initial_states(case)
        pair = origin_flux(left, right, case.coeffs, Scheme.SPLITTING)
        assert pair.minus.tobytes() == pair.plus.tobytes() == llf_flux(left, right).tobytes()

    def test_equilibrium_initial_states_exact(self):
        case = get_case(1)
        left, right = initial_states(case)
        from deltawave import StationaryPair, jump_residual
        from deltawave.stationary import Branch

        res = jump_residual(StationaryPair(left, right, case.coeffs, Branch.SUBSONIC))
        assert float(np.max(np.abs(res))) < 1e-14


_PLACE = re.compile(r"(interfaces|quadrature cells|cells) \[([\d ]+)\]")
# One corruption of a small field: a coefficient set to NaN or +-inf at any
# cell, mode and variable, a mean whose density or pressure is <= 0, or a
# density so small that the velocity overflows.
_CORRUPTIONS = st.one_of(
    st.tuples(st.just("value"), st.integers(0, 2), st.integers(0, 2),
              st.sampled_from([math.nan, math.inf, -math.inf])),
    st.tuples(st.just("rho"), st.sampled_from([0.0, -0.0, -1e-300, -0.5, 1e-310, 5e-324])),
    st.tuples(st.just("p"), st.sampled_from([0.0, -1e-12, -0.5])))


class TestCorruptedFields:
    """Every corrupted field fails typed, once, at the corrupted cell."""

    @staticmethod
    def field(seed: int, n: int, slopes: bool) -> DgField:
        """An admissible field of ``n`` cells on [-1, 1]: random means, and slopes
        of at most 1% of them, or none (so that steps run on windows)."""
        rng = np.random.default_rng(seed)
        rho, u, p = rng.uniform(0.5, 2.0, n), rng.uniform(-1.0, 1.0, n), rng.uniform(0.5, 2.0, n)
        c = np.zeros((n, 3, 3))
        c[:, 0] = np.column_stack([rho, rho * u, p / 0.4 + 0.5 * rho * u * u])
        if slopes:
            c[:, 1:] = 0.01 * rng.uniform(-1.0, 1.0, (n, 2, 3)) * np.abs(c[:, :1])
        return DgField(make_grid(-1.0, 1.0, 2.0 / n), 1.4, c)

    @settings(max_examples=400, derandomize=True, database=None, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([8, 10, 16]), st.booleans(),
           st.integers(0, 15), _CORRUPTIONS)
    def test_advance_raises_scheme_error_at_the_cell(self, seed, n, slopes, cell, corruption):
        field = self.field(seed, n, slopes)
        cell %= n
        c = field.coeffs.copy()
        if corruption[0] == "value":
            _, mode, var, value = corruption
            c[cell, mode, var] = value
        elif corruption[0] == "rho":
            c[cell, 0, 0] = corruption[1]
        else:  # p = (gamma - 1) (E - 0.5 mom vel), as the scheme computes it
            rho, mom = c[cell, 0, :2]
            c[cell, 0, 2] = 0.5 * mom * (mom / rho) + corruption[1] / 0.4
        for scheme in Scheme:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(SchemeError) as info:
                    advance(field.with_coeffs(c), get_case(8).coeffs, scheme, 0.1, 0.5)
            message = str(info.value)
            assert message.count("(t=") == 1, message
            named = {(kind, int(j)) for kind, cells in _PLACE.findall(message)
                     for j in cells.split()}
            # Interface j lies between cells j - 1 and j.
            assert {("cells", cell), ("quadrature cells", cell), ("interfaces", cell),
                    ("interfaces", cell + 1)} & named, message
