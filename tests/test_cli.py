import argparse
import inspect
import json

import pytest

from coupled_dynamics import bifurcation as bif
from coupled_dynamics import de, pde, potentials, stationary
from coupled_dynamics.cli import build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_calls(monkeypatch, module, name, result):
    """Replace module.name by a fake returning `result`; the list it returns
    collects each call's keyword arguments."""
    calls = []

    def fake(*args, **kwargs):
        calls.append(kwargs)
        return result

    monkeypatch.setattr(module, name, fake)
    return calls


class TestDe:
    def test_threshold(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "de", "--dv", "3", "--dc", "6", "--threshold",
            "--out", str(tmp_path),
        )
        assert code == 0
        value = float(out.split()[1])
        assert value == pytest.approx(0.4294, abs=2e-4)
        lines = (tmp_path / "threshold.csv").read_text().splitlines()
        assert lines[0] == "dv,dc,threshold"
        assert float(lines[1].split(",")[2]) == value

    def test_run_below_threshold(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "de", "--dv", "3", "--dc", "6", "--eps", "0.3",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(0.0, abs=1e-9)
        lines = (tmp_path / "de_trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,y"
        assert float(lines[1].split(",")[1]) == 1.0

    def test_threshold_leaves_tol_to_the_library(self, capsys, monkeypatch):
        calls = record_calls(monkeypatch, de, "bp_threshold", 0.5)
        code, out, _ = run(capsys, "de", "--dv", "3", "--dc", "6", "--threshold")
        assert code == 0 and out == "bp_threshold 0.5\n"
        assert calls == [{}]

    def test_bad_degree_exits_1(self, capsys):
        code, _, err = run(capsys, "de", "--dv", "1", "--dc", "6", "--threshold")
        assert code == 1
        assert "error:" in err

    def test_missing_eps_exits_1(self, capsys):
        code, _, err = run(capsys, "de", "--dv", "3", "--dc", "6")
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
    def test_run_tol_not_positive_and_finite_exits_1(self, capsys, tol):
        code, out, err = run(
            capsys, "de", "--dv", "3", "--dc", "6", "--eps", "0.3", f"--tol={tol}"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: tol must be positive and finite")


class TestUsageErrors:
    def test_no_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    def test_unknown_flag(self, capsys):
        code, _, _ = run(capsys, "de", "--dv", "3", "--dc", "6", "--bogus")
        assert code == 2

    def test_missing_config_file_exits_1(self, capsys):
        code, _, err = run(
            capsys, "stationary", "--config", "/nonexistent/cfg.json"
        )
        assert code == 1
        assert "error:" in err


class TestFailureMapping:
    def test_package_errors_are_value_or_runtime_errors(self):
        # `main` maps exactly these two bases (plus KeyError and
        # FileNotFoundError) to exit code 1
        errors = [
            cls
            for mod in (potentials, pde, stationary, bif, de)
            for _, cls in inspect.getmembers(mod, inspect.isclass)
            if issubclass(cls, BaseException) and cls.__module__ == mod.__name__
        ]
        assert len(errors) >= 8
        for cls in errors:
            assert issubclass(cls, (ValueError, RuntimeError)), cls

    def test_no_stationary_point_exits_1(self, capsys):
        # DoubleWell(10)'s only root, about 2.2, lies outside [-2, 2]
        code, out, err = run(capsys, "stationary", "--h", "10", "--n", "11")
        assert code == 1
        assert out == ""
        assert err.startswith("error: no stationary points")

    def test_numeric_failure_exits_1(self, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("failed to converge after 100 iterations")

        monkeypatch.setattr(potentials, "equal_height_parameter", fail)
        code, _, err = run(capsys, "threshold-sc", "--bracket", "-0.1", "0.1")
        assert code == 1
        assert err == "error: failed to converge after 100 iterations\n"


class TestThresholdSc:
    def test_double_well(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "threshold-sc", "--family", "dw",
            "--bracket", "-0.1", "0.1", "--out", str(tmp_path),
        )
        assert code == 0
        assert float(out.split()[1]) == pytest.approx(0.0, abs=1e-9)
        lines = (tmp_path / "threshold_sc.csv").read_text().splitlines()
        assert lines[0] == "family,value"

    def test_ldpc(self, capsys):
        for bracket in (("0.43", "0.6"), ("0.6", "0.43")):
            code, out, _ = run(
                capsys, "threshold-sc", "--family", "ldpc", "--dv", "3", "--dc", "6",
                "--bracket", *bracket,
            )
            assert code == 0
            assert float(out.split()[1]) == pytest.approx(0.4626865, abs=1e-4)

    def test_zero_tol_exits_1(self, capsys):
        code, _, err = run(
            capsys, "threshold-sc", "--family", "ldpc", "--dv", "3", "--dc", "6",
            "--bracket", "0.44", "0.5", "--tol", "0",
        )
        assert code == 1
        assert "tol must be positive" in err

    @pytest.mark.parametrize("dv", [3.5, 3.0])
    def test_config_degrees_not_truncated(self, capsys, tmp_path, dv):
        # a config degree reaches LdpcBec as given, which refuses a float
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dv": dv, "dc": 6}))
        code, out, err = run(
            capsys, "threshold-sc", "--config", str(cfg), "--family", "ldpc",
            "--bracket", "0.43", "0.6",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: degrees must be integers >= 2, got dv={dv!r}, dc=6\n"

    def test_infinite_tol_exits_1(self, capsys):
        code, out, err = run(
            capsys, "threshold-sc", "--family", "ldpc", "--dv", "3", "--dc", "6",
            "--bracket", "0.43", "0.6", "--tol", "inf",
        )
        assert code == 1
        assert out == ""
        assert "tol must be positive and finite" in err


class TestStationary:
    ARGS = ("stationary", "--h", "-0.01", "--d", "0.01", "--n", "101",
            "--t-cap", "5000")

    def test_pot_shaped(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 0
        assert out.split()[1] == "PotShaped"
        lines = (tmp_path / "stationary_profile.csv").read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 102

    def test_reruns_byte_identical(self, capsys, tmp_path):
        run(capsys, *self.ARGS, "--out", str(tmp_path / "a"))
        run(capsys, *self.ARGS, "--out", str(tmp_path / "b"))
        a = (tmp_path / "a" / "stationary_profile.csv").read_bytes()
        b = (tmp_path / "b" / "stationary_profile.csv").read_bytes()
        assert a == b

    def test_config_and_override(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"h": -0.01, "d": 0.01, "n": 101, "t-cap": 5000.0}
        ))
        code, out, _ = run(capsys, "stationary", "--config", str(cfg))
        assert code == 0
        assert out.split()[1] == "PotShaped"
        # an explicit flag wins over the config value
        code, out, _ = run(
            capsys, "stationary", "--config", str(cfg), "--h", "0.01"
        )
        assert code == 0
        assert out.split()[1] == "Uniform"

    def test_numeric_y0(self, capsys):
        code, out, _ = run(capsys, "stationary", "--y0", "0.3", "--h=-0.01", "--n", "101")
        assert code == 0
        sol = stationary.solve_stationary(
            potentials.DoubleWell(-0.01), 0.01, grid=pde.Grid(1.0, 101), y0=0.3
        )
        assert out.split()[1] == sol.classification == "Uniform"
        assert float(out.split()[3]) == sol.residual

    @pytest.mark.parametrize("y0", ["5", "-3"])
    def test_y0_outside_domain_exits_1(self, capsys, y0):
        code, out, err = run(capsys, "stationary", f"--y0={y0}", "--h=-0.01", "--n", "51")
        assert code == 1
        assert out == ""
        assert err == f"error: state outside domain [-2.0, 2.0]: {float(y0)}\n"

    def test_config_list_on_scalar_key_exits_1(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"d": [0.01], "h": -0.01}))
        code, _, err = run(capsys, "stationary", "--config", str(cfg))
        assert code == 1
        assert err.startswith("error:") and "'d'" in err

    def test_config_unknown_family_exits_1(self, capsys, tmp_path):
        # a config value bypasses argparse's choices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "xx"}))
        code, out, err = run(capsys, "stationary", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: unknown family")


class TestSimulate:
    def test_already_stationary(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "simulate", "--h", "0.01", "--d", "0.01", "--n", "101",
            "--y0", "plus", "--t-end", "10", "--out", str(tmp_path),
        )
        assert code == 0
        assert out.split()[1] == "Uniform"
        assert (tmp_path / "energy.csv").exists()
        profiles = sorted(tmp_path.glob("profile_t*.csv"))
        assert profiles
        assert profiles[0].read_text().splitlines()[0] == "x,y"

    def test_run_ends_at_t_end(self, capsys, tmp_path):
        # dt = 0.064: the 782nd Euler step is clipped to end at t = 50
        code, out, _ = run(
            capsys, "simulate", "--h=-0.01", "--n", "51", "--t-end", "50",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert out.split()[-1] == "t=50"
        assert (tmp_path / "profile_t50.000000.csv").exists()
        assert not list(tmp_path.glob("profile_t50.0[1-9]*.csv"))

    def test_unsteady_end_is_other(self, capsys):
        # the t = 50 end state is pot-shaped but still moving
        code, out, _ = run(capsys, "simulate", "--h=-0.01", "--n", "51", "--t-end", "50")
        assert code == 0
        assert out.startswith("classification Other ")
        assert out.rstrip().endswith(" steady=False t=50")

    def test_bad_coupling_exits_1(self, capsys):
        code, _, err = run(capsys, "simulate", "--h", "0.01", "--d", "-1")
        assert code == 1
        assert "error:" in err

    def test_negative_t_end_exits_1(self, capsys):
        code, _, err = run(capsys, "simulate", "--n", "21", "--t-end", "-5")
        assert code == 1
        assert "t_end" in err


class TestTheorem1:
    def test_passes(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "theorem1", "--h", "0.05", "--d", "0.01", "--n", "101",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "passed=True" in out
        lines = (tmp_path / "theorem1_report.csv").read_text().splitlines()
        assert lines[0] == "d,y0,classification,residual,C"
        assert len(lines) == 4  # three initial values for one coupling

    def test_capped_runs_fail(self, capsys):
        # at t_cap = 1 every cell ends Other: no pot, but no answer either
        code, out, _ = run(capsys, "theorem1", "--h", "0.05", "--n", "101", "--t-cap", "1")
        assert code == 1
        assert out.count(" Other ") == 9
        assert out.endswith("passed=False\n")

    def test_hypothesis_violation_exits_1(self, capsys):
        code, _, err = run(capsys, "theorem1", "--h", "-0.05", "--d", "0.01")
        assert code == 1
        assert "error:" in err

    def test_ldpc_y0_outside_reflected_domain_exits_1(self, capsys):
        code, out, err = run(
            capsys, "theorem1", "--family", "ldpc", "--dv", "3", "--dc", "6",
            "--eps", "0.45", "--n", "51", "--d", "0.01", "--y0", "0.5",
        )
        assert code == 1
        assert out == ""
        assert err == "error: state outside domain [-1.0, -0.0]: 0.5\n"

    @pytest.mark.parametrize("flag", ["--d=", "--y0="])
    def test_empty_list_exits_1(self, capsys, flag):
        code, out, err = run(capsys, "theorem1", "--h", "0.05", flag)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    def test_config_json_lists(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"h": 0.05, "d": [0.01], "y0": [-1.0, 0.0], "n": 101}))
        code, out, _ = run(
            capsys, "theorem1", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == 0
        assert "passed=True" in out
        lines = (tmp_path / "theorem1_report.csv").read_text().splitlines()
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0.01", "-1"], ["0.01", "0"]
        ]


class TestBifurcation:
    ARGS = ("bifurcation", "--d", "0.01", "--h=-0.01,0.01", "--n", "101",
            "--t-cap", "5000")

    def test_sweep_csv(self, capsys, tmp_path):
        code, out, _ = run(capsys, *self.ARGS, "--out", str(tmp_path))
        assert code == 0
        assert "2 cells, 1 pot-shaped" in out
        lines = (tmp_path / "bifurcation_sweep.csv").read_text().splitlines()
        assert lines[0] == "d,h,classification,t_exit"
        assert len(lines) == 3

    def test_jobs_flag_matches_serial(self, capsys, tmp_path):
        run(capsys, *self.ARGS, "--out", str(tmp_path / "serial"))
        run(capsys, *self.ARGS, "--jobs", "2", "--out", str(tmp_path / "par"))
        a = (tmp_path / "serial" / "bifurcation_sweep.csv").read_bytes()
        b = (tmp_path / "par" / "bifurcation_sweep.csv").read_bytes()
        assert a == b

    def test_config_json_lists(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"d": [0.01], "h": [-0.01, 0.01], "n": 101, "t-cap": 5000}
        ))
        code, out, _ = run(capsys, "bifurcation", "--config", str(cfg))
        assert code == 0
        assert "2 cells, 1 pot-shaped" in out

    def test_curve_zero_tol_exits_before_sweep(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before tol was checked")

        monkeypatch.setattr(bif, "sweep", no_sweep)
        code, _, err = run(capsys, *self.ARGS, "--curve", "--tol", "0")
        assert code == 1
        assert "tol must be positive" in err

    def test_curve_nan_tol_exits_before_sweep(self, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before tol was checked")

        monkeypatch.setattr(bif, "sweep", no_sweep)
        code, _, err = run(capsys, *self.ARGS, "--curve", "--tol", "nan")
        assert code == 1
        assert "tol must be positive" in err

    def test_curve_without_h_runs_no_sweep(self, capsys, monkeypatch, tmp_path):
        def no_sweep(*args, **kwargs):
            raise AssertionError("--curve without --h swept")

        monkeypatch.setattr(bif, "sweep", no_sweep)
        code, out, err = run(capsys, "bifurcation", "--curve", "--d=0.05,0.1",
                             "--out", str(tmp_path))
        assert code == 0, err
        assert [line.split()[1].split("=")[0] for line in out.splitlines()] == [
            "h_crit", "h_crit"]
        assert sorted(f.name for f in tmp_path.iterdir()) == ["critical_curve.csv"]

    def test_curve_leaves_tol_and_bracket_to_the_library(self, capsys, monkeypatch):
        calls = record_calls(monkeypatch, bif, "critical_curve", [bif.CurvePoint(0.05, -0.02)])
        code, _, _ = run(capsys, "bifurcation", "--curve", "--d", "0.05")
        assert code == 0
        assert calls == [{"grid": pde.Grid()}]

    def test_sweep_leaves_t_cap_and_jobs_to_the_library(self, capsys, monkeypatch):
        calls = record_calls(monkeypatch, bif, "sweep", [])
        code, out, _ = run(capsys, "bifurcation", "--d", "0.1", "--h=-0.05")
        assert (code, out) == (0, "0 cells, 0 pot-shaped\n")
        assert calls == [{"grid": pde.Grid()}]

    def test_empty_d_list_exits_1(self, capsys):
        code, out, err = run(capsys, "bifurcation", "--d=")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize("bracket", ["-0.2", "-0.3,-0.1,-0.05"])
    def test_h_bracket_needs_two_values(self, capsys, monkeypatch, bracket):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the bracket was checked")

        monkeypatch.setattr(bif, "sweep", no_sweep)
        code, _, err = run(capsys, *self.ARGS, "--curve", f"--h-bracket={bracket}")
        assert code == 1
        assert "--h-bracket takes two values" in err

    def test_config_h_bracket_json_list(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"d": [0.05], "h": [-0.05], "curve": True, "h-bracket": [-0.2, -0.01],
             "tol": 1e-2, "n": 101}
        ))
        code, out, err = run(capsys, "bifurcation", "--config", str(cfg))
        assert code == 0, err
        line = out.splitlines()[1]
        assert "error=" not in line
        h_crit = float(line.split("h_crit=")[1])
        assert h_crit == pytest.approx(-0.024, abs=1e-2)


@pytest.mark.parametrize("command, answer", [
    ("simulate", "steady=True"), ("stationary", "steady=True"), ("theorem1", "passed=True")])
def test_bare_subcommand_answers(capsys, command, answer):
    # the kept defaults are a problem that resolves: the fig-2 pot (h = -0.01)
    # for simulate and stationary, and h = 0.05 for theorem1
    code, out, err = run(capsys, command)
    assert (code, err) == (0, "")
    assert answer in out.splitlines()[-1].split()


@pytest.mark.parametrize("argv, key, value", [
    (("stationary", "--h=-0.01"), "n", 101.5),
    (("de", "--dv", "3", "--dc", "6", "--eps", "0.45"), "max_iter", 3.7),
    (("simulate", "--h=-0.01", "--n", "11", "--t-end", "1"), "snapshots", 2.5),
    (("bifurcation", "--d", "0.1", "--h", "0.05", "--n", "11"), "jobs", 1.5),
    (("stationary", "--h=-0.01"), "n", "101.5"),
    (("stationary", "--h=-0.01"), "n", True),
])
def test_config_integer_keys_not_truncated(capsys, tmp_path, argv, key, value):
    # int() would run 101.5 on 101 nodes and 3.7 as 3 iterations
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert (code, out) == (1, "")
    assert err == f"error: expected an integer, got {value!r}\n"


@pytest.mark.parametrize("n", [51, 51.0, "51"])
def test_config_integral_n_accepted(capsys, tmp_path, n):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n": n}))
    code, _, _ = run(capsys, "stationary", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 0
    assert len((tmp_path / "stationary_profile.csv").read_text().splitlines()) == 52


# Cheap arguments for every subcommand and the files each writes under --out;
# together they reach every CSV the handlers write.
OUTPUTS = [
    (("de", "--dv", "3", "--dc", "6", "--threshold"), {"threshold.csv"}),
    (("de", "--dv", "3", "--dc", "6", "--eps", "0.45"), {"de_trajectory.csv"}),
    (("simulate", "--h=-0.01", "--n", "11", "--t-end", "1"),
     {"profile_t0.000000.csv", "profile_t1.000000.csv", "energy.csv"}),
    (("stationary", "--h", "0.05", "--n", "11"), {"stationary_profile.csv"}),
    (("theorem1", "--h", "0.05", "--d", "0.1", "--n", "11"), {"theorem1_report.csv"}),
    (("bifurcation", "--curve", "--d", "0.1", "--h", "0.05", "--n", "11"),
     {"bifurcation_sweep.csv", "critical_curve.csv"}),
    (("threshold-sc", "--family", "dw", "--bracket", "-0.1", "0.1"), {"threshold_sc.csv"}),
]


@pytest.mark.parametrize("argv, files", OUTPUTS, ids=[
    "de-threshold", "de", "simulate", "stationary", "theorem1", "bifurcation", "threshold-sc"])
def test_csv_files_only_under_out(capsys, monkeypatch, tmp_path, argv, files):
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv)[0] == 0
    assert list(tmp_path.iterdir()) == []
    assert run(capsys, *argv, "--out", "out")[0] == 0
    assert {f.name for f in (tmp_path / "out").iterdir()} == files


# Flag surface of every subcommand: option strings -> (type, nargs, required).
STR, FLOAT, INT = (None, None, False), (float, None, False), (int, None, False)
SWITCH = (None, 0, False)
COMMON = {"-h --help": SWITCH, "--config": STR, "--out": STR}
FLAG_SURFACE = {
    "de": {
        "--dv": (int, None, True), "--dc": (int, None, True), "--eps": FLOAT,
        "--threshold": SWITCH, "--tol": FLOAT, "--y0": FLOAT, "--max-iter": INT,
    },
    "simulate": {
        "--family": STR, "--h": FLOAT, "--eps": FLOAT, "--dv": INT, "--dc": INT,
        "--d": FLOAT, "--xmax": FLOAT, "--n": INT, "--y0": STR, "--t-end": FLOAT,
        "--snapshots": INT,
    },
    "stationary": {
        "--family": STR, "--h": FLOAT, "--eps": FLOAT, "--dv": INT, "--dc": INT,
        "--d": FLOAT, "--xmax": FLOAT, "--n": INT, "--y0": STR, "--t-cap": FLOAT,
    },
    "theorem1": {
        "--family": STR, "--h": FLOAT, "--eps": FLOAT, "--dv": INT, "--dc": INT,
        "--d": STR, "--y0": STR, "--xmax": FLOAT, "--n": INT, "--t-cap": FLOAT,
    },
    "bifurcation": {
        "--d": STR, "--h": STR, "--curve": SWITCH, "--h-bracket": STR, "--tol": FLOAT,
        "--xmax": FLOAT, "--n": INT, "--t-cap": FLOAT, "--jobs": INT,
    },
    "threshold-sc": {
        "--family": STR, "--dv": INT, "--dc": INT, "--bracket": (float, 2, True),
        "--tol": FLOAT,
    },
}


class TestParser:
    def test_flag_surface(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(FLAG_SURFACE)
        for name, sp in sub.choices.items():
            got = {
                " ".join(a.option_strings): (a.type, a.nargs, a.required)
                for a in sp._actions
            }
            assert got == {**COMMON, **FLAG_SURFACE[name]}, name
            assert all(a.default is argparse.SUPPRESS for a in sp._actions
                       if a.dest not in ("help", "config")), name

    def test_flags_reach_their_keys(self):
        parser = build_parser()
        ns = parser.parse_args(["de", "--dv", "3", "--dc", "6", "--max-iter", "7"])
        assert ns.max_iter == 7
        ns = parser.parse_args(["simulate", "--t-end", "50", "--snapshots", "5"])
        assert (ns.t_end, ns.snapshots) == (50.0, 5)
        ns = parser.parse_args(["bifurcation", "--curve", "--h-bracket=-0.2,-0.01"])
        assert (ns.curve, ns.h_bracket) == (True, "-0.2,-0.01")
