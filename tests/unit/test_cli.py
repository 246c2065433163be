"""Unit tests for the ``python -m repro`` command-line interface."""

import os
import subprocess
import sys

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_experiment_subcommands_exist(self):
        parser = build_parser()
        for name in ("timings", "figure4", "figure5", "overhead",
                     "architecture", "campaign", "list"):
            args = parser.parse_args([name] if name != "campaign"
                                     else ["campaign"])
            assert args.command == name

    def test_campaign_options(self):
        args = build_parser().parse_args(
            ["campaign", "--n-sub", "7", "--policy", "mct", "--seed", "9"])
        assert args.n_sub == 7
        assert args.policy == "mct"
        assert args.seed == 9

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--policy", "quantum"])

    def test_load_options(self):
        args = build_parser().parse_args(
            ["load", "--loads", "1,5", "--duration", "10", "--clients",
             "200", "--grids", "3", "--churn", "0", "--jobs", "2"])
        assert args.command == "load"
        assert args.loads == (1.0, 5.0)
        assert build_parser().parse_args(["load"]).loads == (2, 4, 8, 16)
        assert args.duration == 10.0
        assert args.clients == 200
        assert args.grids == 3
        assert args.churn == 0
        assert args.jobs == 2

    def test_survey_points_shape(self):
        args = build_parser().parse_args(["survey", "--points", "4x2"])
        assert args.points == (4, 2)
        assert build_parser().parse_args(["survey"]).points == (3, 3)

    @pytest.mark.parametrize("points", ["4", "0x3", "ax3", "3x-1", "2x3x4"])
    def test_bad_survey_points_rejected(self, points, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["survey", "--points", points])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --points" in err and "NxM" in err

    @pytest.mark.parametrize("argv", [
        ["campaign", "--n-sub", "-3"],
        ["campaign", "--n-sub", "0"],
        ["campaign", "--n-sub", "2.5"],
        ["data-locality", "--n-sub", "-1"],
        ["load", "--loads", "abc"],
        ["load", "--loads", "0"],
        ["load", "--loads", "2,-4"],
        ["load", "--loads", "2,,4"],
        ["load", "--loads", "inf"],
    ], ids=lambda argv: f"{argv[0]}{argv[1]}={argv[2]}")
    def test_bad_numeric_input_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        hint = ("positive integer" if argv[1] == "--n-sub"
                else "positive numbers")
        assert f"argument {argv[1]}" in err and hint in err


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "timings" in out and "campaign" in out

    def test_no_command_lists(self, capsys):
        assert main([]) == 0
        assert "available experiments" in capsys.readouterr().out

    def test_architecture_runs(self, capsys):
        assert main(["architecture"]) == 0
        out = capsys.readouterr().out
        assert "MA" in out and "SeD" in out

    def test_campaign_with_trace(self, capsys, tmp_path):
        path = str(tmp_path / "t.csv")
        assert main(["campaign", "--n-sub", "5", "--trace-csv", path]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        with open(path) as fh:
            assert len(fh.readlines()) == 7   # header + part1 + 5 zooms

    def test_load_quick_run(self, capsys):
        assert main(["load", "--loads", "3", "--duration", "5",
                     "--clients", "50", "--churn", "0", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "saturation throughput" in out
        assert "routing=pull" in out and "routing=push" in out


class TestLazyImports:
    """Experiment modules load on demand: a light command must not pay for
    the physics stack and scipy."""

    HEAVY = ("scipy", "repro.ramses")

    def _loaded_after(self, code):
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        probe = (f"import sys\n{code}\n"
                 f"print(sorted(m for m in {self.HEAVY!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip().splitlines()[-1]

    def test_load_federation_import_is_light(self):
        assert self._loaded_after(
            "import repro.experiments.load_federation") == "[]"

    def test_help_is_light(self):
        # ``python -m repro --help``, run in-process so sys.modules is ours.
        code = ("import contextlib, io, runpy\n"
                "sys.argv = ['repro', '--help']\n"
                "with contextlib.suppress(SystemExit), "
                "contextlib.redirect_stdout(io.StringIO()):\n"
                "    runpy.run_module('repro', run_name='__main__')")
        assert self._loaded_after(code) == "[]"

    def test_experiment_modules_resolve_on_access(self):
        import repro.experiments as experiments
        from repro.experiments import figure4

        assert experiments.figure4 is figure4
        with pytest.raises(AttributeError):
            experiments.no_such_experiment  # noqa: B018
