import numpy as np
import pytest
from click.testing import CliRunner

from deltawave.cases import _TABLE, all_cases, get_case
from deltawave.cli import main as cli_main
from deltawave.dg import field_from_states, make_grid
from deltawave.errors import ConfigError
from deltawave.fluxes import Scheme
from deltawave.runner import (
    constant_region_cells,
    convergence_study,
    error_norms,
    initial_states,
    reference_cell_averages,
    run_test,
    scheme_from_name,
    write_profile,
)
from deltawave.structure import compose_reference_fan


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
        rep = run_test(1, Scheme.SOLVER, 0.05, out_path=str(out))
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
            run_test(2, Scheme.SOLVER, 0.25, t_end=0.3, domain=(-2.0, 2.0),
                     out_path=str(p))
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

    def test_scheme_names(self):
        assert scheme_from_name("kt-nocorr") is Scheme.KT_NOCORR
        assert scheme_from_name("kt") is Scheme.KT
        assert scheme_from_name("solver") is Scheme.SOLVER

    def test_equilibrium_initial_states_exact(self):
        case = get_case(1)
        left, right = initial_states(case)
        from deltawave import StationaryPair, jump_residual
        from deltawave.stationary import Branch

        res = jump_residual(StationaryPair(left, right, case.coeffs, Branch.SUBSONIC))
        assert float(np.max(np.abs(res))) < 1e-14
