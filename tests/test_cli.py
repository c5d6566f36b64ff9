import json
import os
import subprocess
import sys

import pytest

from replicacs import cli
from replicacs.cli import (
    EXIT_CONFIG,
    EXIT_NONCONV,
    EXIT_NUMERIC,
    EXIT_OK,
    ConfigError,
    atomic_write,
    build_system_config,
    main,
    parse_config,
)


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestParseConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = parse_config(write(tmp_path, "alpha = 2\nrho = 0.1\npenalty = l1\n"))
        sc = build_system_config(cfg)
        assert sc.alpha == 2.0
        assert sc.penalty.kind == "l1"
        assert sc.quad_order == 40
        assert sc.damping == 0.5
        # matched defaults: sigma_u^2 = sigma_0^2, gamma = sigma_u^2
        assert sc.penalty.sigma_u2 == pytest.approx(sc.sigma_0_sq)
        assert sc.penalty.gamma == pytest.approx(sc.penalty.sigma_u2)

    def test_rho_bounds_named_in_error(self, tmp_path):
        cfg = parse_config(write(tmp_path, "alpha = 2\nrho = 1.5\n"))
        with pytest.raises(ConfigError, match="rho"):
            build_system_config(cfg)

    def test_duplicate_key_reports_both_lines(self, tmp_path):
        path = write(tmp_path, "alpha = 2\nrho = 0.1\nalpha = 3\n")
        with pytest.raises(ConfigError, match=r"line 1") as err:
            parse_config(path)
        assert ":3:" in str(err.value)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(write(tmp_path, "alfalfa = 2\n"))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(write(tmp_path, "[plots]\nstyle = dark\n"))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            parse_config("/nonexistent/path.cfg")

    def test_overrides(self, tmp_path):
        cfg = parse_config(write(tmp_path, "alpha = 2\n"), ["penalty=l2", "sweep.trials=5"])
        assert cfg.get("system", "penalty") == "l2"
        assert cfg.get("sweep", "trials") == "5"

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(None, ["bogus=1"])

    def test_comments_and_sections(self, tmp_path):
        cfg = parse_config(
            write(tmp_path, "# comment\nalpha = 2\n[sweep]\ncontrol = gamma\ngrid = 0.1, 0.2\n")
        )
        assert cfg.get("sweep", "control") == "gamma"


class TestVerbs:
    def test_rs_solve_json_contract(self, tmp_path, capsys):
        path = write(tmp_path, "alpha = 2\nrho = 0.1\npenalty = l2\n")
        code = main(["rs-solve", "--config", path])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        for key in ("q0", "b0", "e0", "f0", "energy", "converged", "mse_prediction"):
            assert key in doc
        assert doc["converged"] is True

    def test_rsb_solve_l2_collapses(self, tmp_path, capsys):
        path = write(tmp_path, "alpha = 2\nrho = 0.1\npenalty = l2\n")
        code = main(["rsb-solve", "--config", path])
        assert code == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["rsb_collapsed"] is True
        assert "energy" in doc

    def test_rs_solve_nonconvergence_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "alpha = 2\nrho = 0.1\npenalty = l1\nmax_iter = 2\ntol = 1e-14\n")
        code = main(["rs-solve", "--config", path])
        capsys.readouterr()
        assert code == EXIT_NONCONV

    def test_config_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "rho = 0.1\n")  # alpha missing
        code = main(["rs-solve", "--config", path])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err

    def test_quad_order_below_two_is_config_error(self, capsys):
        code = main(["rsb-solve", "--set", "alpha=2", "--set", "quad_order=1"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err and "quad_order" in err

    def test_solver_arithmetic_error_is_numeric_exit(self, capsys, monkeypatch):
        from replicacs.rsb import InconsistentStateError

        def inconsistent(cfg):
            raise InconsistentStateError("negative g1 bracket")

        monkeypatch.setattr(cli, "rsb_solve", inconsistent)
        code = main(["rsb-solve", "--set", "alpha=2"])
        err = capsys.readouterr().err
        assert code == EXIT_NUMERIC
        assert "numeric error" in err and "g1 bracket" in err

    def test_simulate_csv_shape(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5\n"
            "n = 32\ntrials = 1\nestimators = lmmse,lasso\ninclude_rsb = false\n",
        )
        code = main(["simulate", "--config", path, "--seed", "3"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("control,estimator,")
        assert len(lines) == 1 + 2  # header + one row per estimator

    def test_noiseless_rs_solve_predicts_the_sweep_system(self, capsys):
        # with no noise and no gamma set, rs-solve and the sweep's RS column
        # use the same default penalty weight, so they predict the same MSE
        system = ["--set", "rho=0.1", "--set", "snr_db=inf"]
        assert main(["rs-solve", "--set", "alpha=2", "--set", "penalty=l1"] + system) == EXIT_OK
        predicted = json.loads(capsys.readouterr().out)["mse_prediction"]
        sweep = [
            "--set", "sweep.control=measurement_ratio", "--set", "sweep.grid=0.5",
            "--set", "sweep.n=40", "--set", "sweep.trials=1",
            "--set", "sweep.estimators=lasso", "--set", "sweep.include_rsb=false",
        ]
        assert main(["simulate", "--seed", "1", "--jobs", "1", "--format", "json"]
                    + system + sweep) == EXIT_OK
        (row,) = json.loads(capsys.readouterr().out)
        assert predicted == row["rs_energy"]

    @pytest.mark.parametrize("verb", ["simulate", "compare"])
    def test_sweep_verbs_reject_system_keys_they_do_not_read(self, verb, capsys):
        sweep = ["--set", "sweep.control=measurement_ratio", "--set", "sweep.grid=0.5",
                 "--set", "sweep.n=16", "--set", "sweep.trials=1",
                 "--set", "sweep.estimators=lmmse", "--set", "sweep.include_rsb=false"]
        code = main([verb, "--set", "active_variance=4", "--set", "quad_order=8",
                     "--set", "rho=0.2"] + sweep)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "system.active_variance" in err and "system.quad_order" in err
        assert "system.rho" not in err

    def test_rsb_solve_rejects_calibrated_channel(self, capsys):
        code = main(["rsb-solve", "--set", "alpha=2", "--set", "channel=calibrated"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert "config error" in err and "bare" in err

    def test_simulate_seed_reproducible_and_jobs_invariant(self, tmp_path):
        path = write(
            tmp_path,
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5, 1.0\n"
            "n = 32\ntrials = 4\nestimators = lmmse\ninclude_rsb = false\n",
        )
        outs = []
        for jobs in ("1", "1", "2"):
            out_path = str(tmp_path / f"out{len(outs)}.csv")
            code = main(["simulate", "--config", path, "--seed", "11",
                         "--jobs", jobs, "--output", out_path])
            assert code == EXIT_OK
            outs.append(open(out_path, "rb").read())
        assert outs[0] == outs[1] == outs[2]

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        path = write(
            tmp_path,
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5\n"
            "n = 32\ntrials = 2\nestimators = lmmse\ninclude_rsb = false\n",
        )
        monkeypatch.setenv("REPLICA_CS_SEED", "99")
        main(["simulate", "--config", path])
        env_out = capsys.readouterr().out
        main(["simulate", "--config", path, "--seed", "99"])
        flag_out = capsys.readouterr().out
        assert env_out == flag_out

    def test_compare_writes_gap_table(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5\n"
            "n = 48\ntrials = 4\nestimators = lmmse\ninclude_rsb = false\n",
        )
        code = main(["compare", "--config", path, "--seed", "2"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0] == "control,estimator,empirical,predicted,gap,absolute_gap,flags"
        assert len(out.splitlines()) == 2

    def test_compare_from_existing_csv(self, tmp_path, capsys):
        cfg_text = (
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5\n"
            "n = 48\ntrials = 4\nestimators = lmmse\ninclude_rsb = false\n"
        )
        path = write(tmp_path, cfg_text)
        sweep_csv = str(tmp_path / "sweep.csv")
        main(["simulate", "--config", path, "--seed", "2", "--output", sweep_csv])
        code = main(["compare", "--config", path, "--seed", "2",
                     "--set", f"output.input={sweep_csv}"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert len(out.splitlines()) == 2
        # the file alone, without a sweep spec, gives the table of a rerun
        assert main(["compare", "--set", f"output.input={sweep_csv}"]) == EXIT_OK
        assert capsys.readouterr().out == out
        assert main(["compare", "--config", path, "--seed", "2"]) == EXIT_OK
        assert capsys.readouterr().out == out

    def test_simulate_json_format(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "rho = 0.1\n[sweep]\ncontrol = measurement_ratio\ngrid = 0.5\n"
            "n = 32\ntrials = 1\nestimators = lmmse\ninclude_rsb = false\n",
        )
        code = main(["simulate", "--config", path, "--format", "json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert doc[0]["estimator"] == "lmmse"
        assert "rs_energy" in doc[0]


class TestAtomicWrite:
    def test_writes_and_cleans_up(self, tmp_path):
        target = tmp_path / "data.csv"
        atomic_write(str(target), "hello\n")
        assert target.read_text() == "hello\n"
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []

    def test_overwrites_atomically(self, tmp_path):
        target = tmp_path / "data.csv"
        atomic_write(str(target), "one\n")
        atomic_write(str(target), "two\n")
        assert target.read_text() == "two\n"


def test_full_precision_formatting():
    from replicacs.montecarlo import _fmt

    x = 0.1234567890123456789
    assert float(_fmt(x)) == x
    assert _fmt(None) == ""


def test_cli_import_needs_no_scipy():
    # numpy is the only runtime dependency; scipy serves the test oracles
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = "import sys, replicacs.cli; sys.exit('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          timeout=60)
    assert proc.returncode == 0
