"""Tests for the modint command-line interface."""

import csv
import io
import json
import os
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from modint import sampling
from modint.cli import _state_descriptor, build_parser, main
from modint.modvar import squeezing_s2

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestTable1:
    def test_csv_values(self):
        code, out, _ = run_cli(["table1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["N", "S1", "S2"]
        table = {int(r[0]): (r[1], r[2]) for r in rows[1:]}
        assert table[1] == ("0.00", "0.00")
        assert table[2] == ("0.61", "0.30")
        assert table[3] == ("0.71", "0.46")
        assert table[4] == ("0.79", "0.55")
        assert table[10] == ("0.92", "0.76")
        assert table[100] == ("0.99", "0.96")

    def test_json_format(self):
        code, out, _ = run_cli(["table1", "--format", "json"])
        assert code == 0
        data = json.loads(out)
        by_rank = {d["N"]: d for d in data}
        assert by_rank[2]["S1"] == 0.61
        assert by_rank[2]["S2"] == 0.3


class TestConstant:
    def test_all_methods(self):
        code, out, _ = run_cli(
            ["constant", "--method", "all", "--periods", "16", "--points-per-period", "64"]
        )
        assert code == 0
        d = json.loads(out)
        assert d["kummer"]["c"] == pytest.approx(0.0782350873517026, abs=1e-10)
        assert d["perturbative"]["c"] == pytest.approx(7 / 90, abs=1e-15)
        assert d["brute"]["c"] == pytest.approx(d["kummer"]["c"], abs=2e-3)

    def test_single_method(self):
        code, out, _ = run_cli(["constant", "--method", "perturbative"])
        assert code == 0
        d = json.loads(out)
        assert set(d) == {"perturbative"}


class TestCriterion:
    def test_mpe_violates(self):
        code, out, _ = run_cli(["criterion", "--state", "mpe", "--N", "2"])
        assert code == 0
        d = json.loads(out)
        assert d["violated"] is True
        assert d["lhs"] < d["bound"]

    def test_classical_does_not(self):
        code, out, _ = run_cli(["criterion", "--state", "classical", "--N", "2"])
        assert code == 0
        d = json.loads(out)
        assert d["violated"] is False


class TestRobustness:
    def test_threshold_and_visibility(self):
        code, out, _ = run_cli(["robustness", "--N", "2", "--bisection"])
        assert code == 0
        d = json.loads(out)
        assert 0.79 < d["epsilon_star_closed_form"] < 0.80
        assert d["epsilon_star_bisection"] == pytest.approx(
            d["epsilon_star_closed_form"], abs=1e-3
        )
        assert d["visibility_at_threshold"] == pytest.approx(0.21, abs=0.01)


class TestFringes:
    def test_multislit_momentum_profile(self):
        code, out, _ = run_cli(
            ["fringes", "--state", "multislit", "--N", "2", "--L", "1.0", "--sigma", "0.05"]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        p = np.array([float(r[0]) for r in rows[1:]])
        dens = np.array([float(r[1]) for r in rows[1:]])
        # fringe maxima at multiples of h/L = 2*pi
        peak = p[np.argmax(dens)]
        assert abs(peak - 2 * np.pi * round(peak / (2 * np.pi))) < 0.1

    def test_mpe_relative_cut(self):
        code, out, _ = run_cli(["fringes", "--state", "mpe", "--N", "2"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0].startswith("x1_minus_x2")
        dens = np.array([float(r[1]) for r in rows[1:]])
        assert dens.max() > 10 * dens.min()  # fringes present


class TestSample:
    def test_estimate_json(self):
        code, out, _ = run_cli(["sample", "--state", "mpe", "--n", "5000", "--seed", "3"])
        assert code == 0
        d = json.loads(out)
        assert d["n"] == 5000
        assert d["verdict"] == "violated"


class TestPropagate:
    def test_csv_output(self, tmp_path):
        path = tmp_path / "prop.csv"
        with pytest.warns(UserWarning, match="envelope width 0.5 is not small"):
            code, out, _ = run_cli(
                [
                    "propagate",
                    "--state",
                    "multislit",
                    "--N",
                    "2",
                    "--sigma",
                    "0.5",
                    "--time",
                    "0.5",
                    "--grid-points",
                    "4096",
                    "--xmin",
                    "-32",
                    "--xmax",
                    "32",
                    "--output",
                    str(path),
                ]
            )
        assert code == 0
        assert out == ""
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["x [length]", "re", "im", "density"]
        dens = np.array([float(r[3]) for r in rows[1:]])
        x = np.array([float(r[0]) for r in rows[1:]])
        assert np.trapezoid(dens, x) == pytest.approx(1.0, abs=1e-6)

    def test_two_particle_state_rejected(self):
        code, _, err = run_cli(["propagate", "--state", "mpe"])
        assert code == 2
        assert "single-particle" in err


class TestProtocol:
    def test_sweep_csv(self):
        code, out, _ = run_cli(
            [
                "protocol",
                "--N",
                "2",
                "--sigma",
                "8",
                "--meeting-time",
                "60",
                "--max-stagger",
                "10",
                "--steps",
                "3",
            ]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        vis = [float(r[1]) for r in rows[1:]]
        assert vis[0] == pytest.approx(1.0, abs=1e-9)
        assert vis[0] > vis[1] > vis[2]


class TestConfig:
    def test_config_supplies_values(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format = json\n\n# comment line\n")
        code, out, _ = run_cli(["--config", str(cfg), "table1"])
        assert code == 0
        json.loads(out)  # json format applied

    def test_explicit_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("format = json\n")
        code, out, _ = run_cli(["--config", str(cfg), "table1", "--format", "csv"])
        assert code == 0
        assert out.splitlines()[0] == "N,S1,S2"

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus = 1\n")
        code, _, err = run_cli(["--config", str(cfg), "table1"])
        assert code == 2
        assert "unknown config key" in err

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("not a pair\n")
        code, _, err = run_cli(["--config", str(cfg), "table1"])
        assert code == 2
        assert "key=value" in err

    def test_boolean_switch(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("bisection = true\n")
        code, out, _ = run_cli(["--config", str(cfg), "robustness"])
        assert code == 0
        assert "epsilon_star_bisection" in json.loads(out)

    def test_missing_config_file(self):
        code, _, err = run_cli(["--config", "/no/such/file", "table1"])
        assert code == 2
        assert "error:" in err


def run_cli_process(argv):
    """Run the CLI in a fresh interpreter, so warnings reach stderr unfiltered."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "modint.cli", *argv], capture_output=True, text=True, env=env, timeout=300
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestDefaultWidth:
    @pytest.mark.parametrize(
        "line",
        [
            "criterion --state mpe --N 2",
            "fringes --state mpe --N 2",
            "sample --state mpe --n 100000 --seed 7",
        ],
    )
    def test_readme_commands_do_not_warn(self, line):
        code, out, err = run_cli_process(line.split())
        assert code == 0 and out
        assert "Warning" not in err

    def test_explicit_narrow_width_still_warns(self):
        code, _, err = run_cli_process(["criterion", "--state", "mpe", "--N", "2", "--sigma", "3"])
        assert code == 0
        assert "Warning" in err and "envelope width 3.0" in err

    @pytest.mark.parametrize(
        "argv, sigma",
        [
            (["criterion", "--state", "mpe"], 8.0),
            (["criterion", "--state", "classical", "--lam", "0.5"], 4.0),
            (["sample", "--state", "admixture"], 8.0),
            (["fringes", "--state", "smp", "--lam", "2"], 16.0),
            (["propagate", "--state", "multislit", "--L", "2"], 0.2),
            (["propagate"], 0.1),
            (["criterion", "--state", "mpe", "--sigma", "3"], 3.0),
            (["propagate", "--sigma", "0.5"], 0.5),
        ],
    )
    def test_width_resolves_per_state_family(self, argv, sigma):
        args = build_parser().parse_args(argv)
        assert _state_descriptor(args)["envelope"]["sigma_x"] == pytest.approx(sigma, rel=1e-15)


class TestErrors:
    def test_invalid_value_exits_2(self):
        code, _, err = run_cli(["criterion", "--state", "mpe", "--N", "0"])
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["criterion", "--N", "abc"], "--N"),
            (["sample", "--x0", "-inf"], "--x0"),
            (["constant", "--method", "newton"], "--method"),
            ([], "command"),
        ],
        ids=["type", "missing-value", "choice", "no-subcommand"],
    )
    def test_argparse_error_is_one_line(self, argv, name):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1

    def test_help_still_exits_0(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["criterion", "--help"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("eps", ["1.5", "-0.5"])
    def test_epsilon_out_of_range_exits_2(self, eps):
        code, out, err = run_cli(["criterion", "--state", "admixture", "--epsilon", eps])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "epsilon" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["criterion", "--state", "smp"],
            ["criterion", "--state", "multislit"],
            ["sample", "--state", "multislit", "--n", "1000"],
        ],
    )
    def test_single_particle_state_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "two-particle" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_protocol_rank_below_two_exits_2(self, n):
        code, out, err = run_cli(["protocol", "--N", n])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "N >= 2" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["fringes", "--grid-points", "0"], "--grid-points"),
            (["fringes", "--periods", "0"], "--periods"),
            (["protocol", "--steps", "0"], "--steps"),
            (["criterion", "--x0", "inf"], "x0"),
            (["criterion", "--state", "mpe", "--N", "2", "--sigma", "inf"], "sigma_x"),
            (["sample", "--state", "mpe", "--N", "2", "--sigma", "inf"], "sigma_x"),
            (["fringes", "--state", "smp", "--sigma", "inf"], "sigma_x"),
            (["protocol", "--sigma", "inf", "--steps", "2"], "sigma_x"),
            (["criterion", "--state", "mpe", "--N", "2", "--sigma", "8", "--lam", "inf"], "lambda"),
            (["robustness", "--N", "100000"], "overlap quadrature"),
            (["protocol", "--steps", "2", "--sigma", "1e-100"], "not finite"),
            (["protocol", "--steps", "2", "--lam", "1e200"], "not finite"),
        ],
        ids=[
            "grid-points", "periods", "steps", "x0", "criterion-sigma", "sample-sigma",
            "fringes-sigma", "protocol-sigma", "lam", "overlap-budget", "protocol-tiny-sigma",
            "protocol-huge-lam",
        ],
    )
    def test_degenerate_size_or_position_exits_2(self, argv, name):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "argv, name",
        [
            (["criterion", "--state", "mpe", "--N", "2", "--sigma", "1e-100"], "too coarse"),
            (["sample", "--state", "mpe", "--n", "2000", "--sigma", "1e-100"], "not finite"),
        ],
        ids=["criterion-grid", "sample-bootstrap"],
    )
    def test_envelope_too_narrow_for_the_numerics_exits_2(self, argv, name):
        # the builder's overlap warning is expected; no overflow may follow it
        with pytest.warns(UserWarning, match="overlap") as caught:
            code, out, err = run_cli(argv)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and name in err
        assert len(err.strip().splitlines()) == 1

    def test_aliased_comb_gets_a_finer_grid(self):
        # each comb's top packet sits at or past pi / dx of 256 points per ell; the
        # default grid doubles that until the comb is resolved (N = 130 read 276.43)
        for argv, points, tol in (
            (["--N", "2", "--N0", "127"], 65536, 1e-4),
            (["--N", "130"], 65536, 1e-3),
        ):
            code, out, err = run_cli(["criterion", "--state", "mpe", *argv])
            assert code == 0 and err == ""
            rep = json.loads(out)
            assert rep["grid_points"] == points and rep["violated"]
            n = int(argv[1])
            assert rep["lhs"] == pytest.approx((1 - squeezing_s2(n)) / 6.0, abs=tol)

    @pytest.mark.parametrize(
        "argv",
        [
            ["propagate", "--state", "multislit", "--N", "2", "--sigma", "0.1", "--time", "nan"],
            ["protocol", "--N", "2", "--meeting-time", "nan", "--steps", "2"],
            ["protocol", "--N", "2", "--max-stagger", "nan", "--steps", "2"],
        ],
        ids=["propagate-time", "meeting-time", "max-stagger"],
    )
    def test_nonfinite_time_exits_2(self, argv):
        code, out, err = run_cli(argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--sigma", "--lam"])
    def test_extreme_widths_exit_0_or_2(self, flag):
        # widths whose square under- or overflows, or whose quadrature size does
        for value in [f"1e{sign}{e}" for e in (100, 150, 200, 300) for sign in "+-"] + ["1e307"]:
            with warnings.catch_warnings():
                # narrow envelopes warn of overlapping components, which is no error
                warnings.simplefilter("ignore", UserWarning)
                code, _, err = run_cli(["criterion", "--state", "mpe", "--N", "2", flag, value])
            assert code in (0, 2), value
            if code == 2:
                assert err.startswith("error:") and len(err.strip().splitlines()) == 1, value

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551615"])
    def test_seed_outside_64_bits_exits_2(self, seed):
        # the momentum records use seed + 1, so the largest 64-bit seed overflows too
        code, out, err = run_cli(["sample", "--state", "mpe", "--n", "1000", "--seed", seed])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551615"])
    def test_seed_checked_before_any_draw(self, seed, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("sampled before both seeds were checked")

        monkeypatch.setattr(sampling, "sample_measurements", no_draws)
        code, out, err = run_cli(["sample", "--state", "mpe", "--seed", seed])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "seed" in err
