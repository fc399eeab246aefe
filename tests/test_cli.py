"""Config parsing, experiment orchestration, artifact determinism."""

import csv
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirstein import cli
from dirstein.cli import ConfigError, config_hash, main, parse_config_text


def write_cfg(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


WF_CFG = """
kind = "wf-theorem1"
model.N = 40
model.a = [1, 1]
mc.samples = 2500
mc.replicates = 256
seed = 7
"""

POLYA_CFG = """
kind = "polya-theorem4"
model.a = [1, 1]
model.n = 200
mc.samples = 8000
seed = 3
"""


class TestConfigParsing:
    def test_values_are_json(self):
        data = parse_config_text(
            'kind = "wf-theorem1"\nmodel.a = [1, 0.5]\nflag = true\n# note\n\nseed = 1\n'
        )
        assert data["kind"] == "wf-theorem1"
        assert data["model.a"] == [1, 0.5]
        assert data["flag"] is True
        assert data["seed"] == 1

    def test_bad_line_reports_position(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("a = 1\nnonsense\n")
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config_text("a = {broken\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("a = 1\na = 2\n")
        for literal in ("NaN", "Infinity", "-Infinity", "1e999", '{"x": [NaN]}'):
            with pytest.raises(ConfigError, match="^x: line 2: numbers must be finite"):
                parse_config_text(f"a = 1\nx = [{literal}, 1]\n")

    def test_hash_ignores_delivery_knobs(self):
        base = {"kind": "wf-theorem1", "seed": 1, "model.N": 10}
        assert config_hash(base) == config_hash({**base, "out": "x", "workers": 9})
        assert config_hash(base) != config_hash({**base, "seed": 2})

    def test_missing_file(self):
        assert main(["validate", "--config", "/nonexistent/q.cfg"]) == 1

    @pytest.mark.parametrize("body", [WF_CFG, POLYA_CFG], ids=["wf", "polya"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity"])
    def test_non_finite_weights_exit_1(self, tmp_path, capsys, body, literal):
        text = body.replace("model.a = [1, 1]", f"model.a = [{literal}, 1]")
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: model.a: ") and "finite" in err


class TestValidation:
    def test_seed_mandatory(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.cfg", 'kind = "wf-theorem1"\nmodel.N = 10\nmodel.a = [1, 1]\n'
        )
        assert main(["validate", "--config", cfg]) == 1
        assert "seed" in capsys.readouterr().err

    def test_theorem2_needs_four(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "cannings-theorem2"\nmodel.N = 3\nmodel.offspring = "moran"\n'
            "model.pi = [0.1, 0.1]\nseed = 1\n",
        )
        assert main(["validate", "--config", cfg]) == 1
        assert "N >= 4 required by Theorem 2" in capsys.readouterr().err

    def test_pi_must_be_subprobability(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "wf-theorem1"\nmodel.N = 10\nmodel.pi = [0.6, 0.7]\nseed = 1\n',
        )
        assert main(["validate", "--config", cfg]) == 1
        assert "model.pi" in capsys.readouterr().err

    def test_zero_mutation_column(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "wf-theorem1"\nmodel.N = 10\n'
            "model.mutation = [[1, 0], [1, 0]]\nseed = 1\n",
        )
        assert main(["validate", "--config", cfg]) == 1
        err = capsys.readouterr().err
        assert "model.mutation" in err and "column 2" in err

    def test_moran_derived_quantities(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "cannings-theorem2"\nmodel.N = 50\nmodel.offspring = "moran"\n'
            "model.pi = [0.01, 0.01]\nseed = 1\n",
        )
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "alpha = 0.04" in out  # 2/N
        assert "beta = 0" in out and "gamma = 0" in out
        assert "a = (24.5, 24.5)" in out  # N(N-1) pi
        assert "valid = true" in out

    def test_matched_pim_derived_quantities(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "tau = 0" in out and "theta = 1" in out
        assert "config_sha256 = " in out and "toolkit_version = " in out

    def test_usage_error_is_exit_1(self, capsys):
        assert main(["no-such-command"]) == 1
        assert main([]) == 1
        assert main(["run"]) == 1  # --config required


class TestRunArtifacts:
    def test_wf_run_writes_all_artifacts(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG + f'out = "{tmp_path}/out"\n')
        assert main(["run", "--config", cfg]) == 0
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"samples.csv", "gaps.csv", "bound.txt", "summary.txt"}
        gaps = (tmp_path / "out" / "gaps.csv").read_text().splitlines()
        assert gaps[0].startswith("# config_sha256=")
        rows = list(csv.reader(io.StringIO("\n".join(gaps[1:]))))
        assert rows[0] == ["h_tag", "gap", "stderr", "bound", "pass"]
        assert all(r[4] in ("true", "false") for r in rows[1:])
        summary = (tmp_path / "out" / "summary.txt").read_text()
        assert "passed = true" in summary
        assert "config_sha256 = " in summary

    def test_samples_shape_and_precision(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", POLYA_CFG + f'out = "{tmp_path}/out"\n')
        assert main(["run", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "samples.csv").read_text().splitlines()
        assert lines[1] == "w1"
        vals = np.array([float(v) for v in lines[2:]])
        assert ((vals >= 0) & (vals <= 1)).all()
        # 17 significant digits survive the round trip
        assert any(len(v) > 12 for v in lines[2:])

    def test_moments_verify_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "moments-verify"\nmodel.N = 4\nmodel.offspring = "moran"\n'
            f'seed = 2\nout = "{tmp_path}/out"\n',
        )
        assert main(["run", "--config", cfg]) == 0
        text = (tmp_path / "out" / "identities.csv").read_text()
        assert text.count("exact") == 10
        assert "worst_residual = 0" in (tmp_path / "out" / "summary.txt").read_text()

    def test_stein_verify_run(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "stein-verify"\nmodel.a = [1, 2]\nmc.samples = 20000\n'
            f'seed = 5\nout = "{tmp_path}/out"\n',
        )
        assert main(["run", "--config", cfg]) == 0
        rows = (tmp_path / "out" / "residuals.csv").read_text().splitlines()
        assert rows[1] == "exponents,exact_residual,mc_mean,mc_stderr,pass"
        assert len(rows) == 2 + 3  # degrees 1..3 in one free coordinate

    def test_flag_overrides(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", POLYA_CFG)
        out = tmp_path / "flagged"
        assert (
            main(
                [
                    "run",
                    "--config",
                    cfg,
                    "--out",
                    str(out),
                    "--mc-budget",
                    "4000",
                    "--seed",
                    "99",
                ]
            )
            == 0
        )
        assert (out / "summary.txt").read_text().count("seed = 99") == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "body",
        [WF_CFG, POLYA_CFG],
        ids=["wf", "polya"],
    )
    def test_rerun_bit_identical(self, tmp_path, body):
        cfg = write_cfg(tmp_path, "c.cfg", body)
        outs = []
        for tag, workers in (("a", "1"), ("b", "3")):
            out = tmp_path / tag
            assert (
                main(
                    ["run", "--config", cfg, "--out", str(out), "--workers", workers]
                )
                == 0
            )
            outs.append(out)
        for p in sorted(outs[0].iterdir()):
            assert p.read_bytes() == (outs[1] / p.name).read_bytes(), p.name

    def test_worker_env_var(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG)
        monkeypatch.setenv(cli.WORKERS_ENV, "2")
        out1 = tmp_path / "env"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        monkeypatch.setenv(cli.WORKERS_ENV, "broken")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "e2")]) == 1

    def test_seed_changes_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", POLYA_CFG)
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b), "--seed", "4"])
        assert (a / "samples.csv").read_text() != (b / "samples.csv").read_text()


class TestRuntimeImports:
    def test_cli_run_leaves_scipy_unimported(self, tmp_path):
        # scipy is a test-only dependency: neither importing the CLI nor
        # a run of each certifying kind may pull it in
        cfgs = {
            "wf": WF_CFG.replace("[1, 1]", "[1, 1, 1]").replace("2500", "200"),
            "polya": POLYA_CFG.replace("8000", "200"),
        }
        argv = []
        for name, body in cfgs.items():
            cfg = write_cfg(tmp_path, f"{name}.cfg", body)
            argv.append(["run", "--config", cfg, "--out", str(tmp_path / name)])
        script = (
            "import sys\n"
            "import dirstein.cli\n"
            "if 'scipy' in sys.modules: sys.exit('scipy loaded by the import')\n"
            f"for argv in {argv!r}:\n"
            "    if dirstein.cli.main(argv) != 0: sys.exit(f'{argv} failed')\n"
            "if 'scipy' in sys.modules: sys.exit('scipy loaded by a run')\n"
        )
        paths = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr


class TestOtherCommands:
    def test_bound_prints_record(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", POLYA_CFG)
        assert main(["bound", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert 'theorem = "theorem4"' in out
        assert "A2 = " in out and "config_sha256 = " in out

    def test_bound_needs_a_bound(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path, "c.cfg", 'kind = "stein-verify"\nmodel.a = [1, 1]\nseed = 1\n'
        )
        assert main(["bound", "--config", cfg]) == 1

    def test_moments_command(self, tmp_path, capsys):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "moments-verify"\nmodel.N = 6\nmodel.offspring = "moran"\nseed = 1\n',
        )
        assert main(["moments", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert out.count("[exact]") == 10 and "passed = true" in out

    def test_moments_rejects_other_kinds(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG)
        assert main(["moments", "--config", cfg]) == 1

    def test_stein_f_estimates_known_slope(self, tmp_path, capsys):
        # f for h(x)=x has slope -1/s; check the estimate at two points
        body = (
            'kind = "stein-verify"\nmodel.a = [1, 1]\nstein.exponents = [1]\n'
            "mc.samples = 60000\nseed = 9\n"
        )
        vals = {}
        for x in ("0.3", "0.7"):
            cfg = write_cfg(tmp_path, f"c{x}.cfg", body + f"stein.x = [{x}]\n")
            assert main(["stein-f", "--config", cfg]) == 0
            out = capsys.readouterr().out
            vals[x] = {
                line.split(" = ")[0]: line.split(" = ")[1]
                for line in out.splitlines()
                if " = " in line
            }
        slope = (float(vals["0.7"]["f"]) - float(vals["0.3"]["f"])) / 0.4
        err = 3.0 * (
            float(vals["0.7"]["stderr"]) + float(vals["0.3"]["stderr"])
        ) / 0.4 + 2e-3
        assert abs(slope - (-0.5)) < err

    def test_stein_f_validates_inputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "stein-verify"\nmodel.a = [1, 1]\nstein.exponents = [1, 2]\n'
            "stein.x = [0.3]\nseed = 1\n",
        )
        assert main(["stein-f", "--config", cfg]) == 1
