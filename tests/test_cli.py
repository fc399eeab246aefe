"""Config parsing, experiment orchestration, artifact determinism."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dirstein import cli
from dirstein.chains import redraw_types, run_to_stationarity
from dirstein.cli import ConfigError, config_hash, main, parse_config_text
from dirstein.metrics import (
    MOMENT_DEGREE,
    exact_moments,
    exact_stationary,
    make_battery,
    moment_z_max,
)
from dirstein.simplex import RngStream


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


_PIM_DYADIC = "[[0.625, 0.125, 0.25], [0.125, 0.625, 0.25], [0.125, 0.125, 0.75]]"
_CYCLIC = "[[0.9, 0.06, 0.04], [0.02, 0.9, 0.08], [0.05, 0.03, 0.92]]"


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

    @pytest.mark.parametrize(
        "pi, rows, rc",
        [
            # exact binary fractions: the matrix is pim(pi) entry for entry
            ("[0.125, 0.125, 0.25]", _PIM_DYADIC, 0),
            # parent dependent: its stationary mean is not pi/|pi|
            ("[0.02, 0.02, 0.03]", _CYCLIC, 1),
            # parent independent, but of other rates
            ("[0.125, 0.125, 0.125]", _PIM_DYADIC, 1),
        ],
    )
    def test_theorem2_matrix_must_match_pi(self, tmp_path, capsys, pi, rows, rc):
        # the bound takes a from model.pi and the chain runs on model.mutation
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "cannings-theorem2"\nmodel.N = 12\nmodel.offspring = "moran"\n'
            f"model.pi = {pi}\nmodel.mutation = {rows}\nmc.samples = 64\nseed = 1\n",
        )
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == rc
        err = capsys.readouterr().err
        if rc:
            assert err.startswith("error: model.mutation: must be the parent-independent")
            assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "kind, key, body",
        [
            ("wf-theorem1", "model.a", "model.N = 10\nmodel.a = [1, 1, 1, 1]\n"),
            ("wf-theorem1", "model.pi", "model.N = 10\nmodel.pi = [0.1, 0.1, 0.1, 0.1]\n"),
            (
                "wf-theorem1",
                "model.mutation",
                "model.N = 10\nmodel.mutation = [[0.9, 0.1, 0, 0], [0, 0.9, 0.1, 0], "
                "[0, 0, 0.9, 0.1], [0.1, 0, 0, 0.9]]\n",
            ),
            ("cannings-theorem2", "model.pi", "model.N = 10\nmodel.pi = [0.01, 0.01, 0.01, 0.01]\n"),
            ("polya-theorem4", "model.a", "model.n = 10\nmodel.a = [1, 1, 1, 1]\n"),
        ],
    )
    def test_certifying_kinds_need_two_or_three_types(self, tmp_path, capsys, kind, key, body):
        # the shipped battery covers K in {2, 3}; refuse before any sampling
        cfg = write_cfg(tmp_path, "c.cfg", f'kind = "{kind}"\nseed = 1\n' + body)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith(f"error: {key}: 4 types")
        assert not (tmp_path / "o").exists()

    def test_huge_whole_number_weights(self, tmp_path, capsys):
        text = 'kind = "polya-theorem4"\nmodel.n = 10\nmodel.a = [1e308, 1e308]\nseed = 1\n'
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: model.a: numbers too large")

    # the sum fits a float, but the bound's 2(s+1) or 18(s+2) does not:
    # its coefficients read 0, or the run raised OverflowError
    @pytest.mark.parametrize("weights, n", [("[1e308, 1]", 20), ("[1e308, 1]", 1), ("[5e307, 1.5]", 20)])
    def test_overflowing_theorem4_bound_refused(self, tmp_path, capsys, weights, n):
        text = f'kind = "polya-theorem4"\nmodel.n = {n}\nmodel.a = {weights}\nseed = 1\n'
        cfg = write_cfg(tmp_path, "c.cfg", text)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            assert capsys.readouterr().err.startswith("error: model.a: theorem4 bound overflows")
        assert not (tmp_path / "o").exists()

    def test_one_replicate_refused(self, tmp_path, capsys):
        # the gap stderr is taken across independent replicates
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG.replace("256", "1"))
        assert main(["validate", "--config", cfg]) == 1
        assert capsys.readouterr().err.startswith("error: mc.replicates: must be >= 2")

    @pytest.mark.parametrize("kind", cli.KINDS)
    def test_one_sample_refused(self, tmp_path, capsys, kind):
        # one sample has no stderr, so every sampling kind refuses it up
        # front; moments-verify samples nothing and lists the key as unused
        body = {**_BASES[kind], "kind": kind, "seed": 1, "mc.samples": 1}
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in body.items())
        cfg = write_cfg(tmp_path, "c.cfg", text)
        if kind == "moments-verify":
            assert main(["validate", "--config", cfg]) == 0
            out = capsys.readouterr().out
            assert "unused = mc.samples" in out and "mc.samples = " not in out
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
            assert "unused = mc.samples\n" in (tmp_path / "o" / "summary.txt").read_text()
            return
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: mc.samples: must be >= 2")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "key, body",
        [
            ("model.a", 'kind = "wf-theorem1"\nmodel.N = 20\nmodel.a = [1e-6, 1e-6]\n'),
            ("model.pi", 'kind = "wf-theorem1"\nmodel.N = 20\nmodel.pi = [1e-9, 1e-9]\n'),
            (
                "model.mutation",
                'kind = "wf-theorem1"\nmodel.N = 20\n'
                "model.mutation = [[0.999999999, 1e-9], [1e-9, 0.999999999]]\n",
            ),
            (
                "model.pi",
                'kind = "cannings-theorem2"\nmodel.N = 20\nmodel.offspring = "moran"\n'
                "model.pi = [1e-9, 1e-9]\n",
            ),
        ],
    )
    def test_runaway_genealogy_refused(self, tmp_path, capsys, key, body):
        # a lineage lives about 1/|pi| generations: ln(n N)/|pi| > 1e7 is
        # refused before any sampling
        cfg = write_cfg(tmp_path, "c.cfg", body + "mc.samples = 64\nseed = 1\n")
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: mutation rates sum to"), err
        assert not (tmp_path / "o").exists()

    _FORWARD = (
        'kind = "wf-theorem1"\nmodel.N = 30\nmc.samples = 64\nseed = 1\n'
        "model.mutation = [[0.9, 0.06, 0.04], [0.02, 0.9, 0.08], [0.05, 0.03, 0.92]]\n"
    )

    @pytest.mark.parametrize(
        "key, body, message",
        [
            ("mc.burn_in", _FORWARD + "mc.burn_in = 10000000\n", "burn_in 10000000 + thin 30"),
            ("mc.thin", _FORWARD + "mc.thin = 10000000\n", "burn_in 1000 + thin 10000000"),
            (
                "model.mutation",
                'kind = "wf-theorem1"\nmodel.N = 30\nmc.samples = 64\nseed = 1\n'
                "model.mutation = [[0.999999997, 1e-9, 2e-9], [2e-9, 0.999999997, 1e-9], "
                "[1e-9, 2e-9, 0.999999997]]\n",
                "the default burn-in",
            ),
        ],
        ids=["burn_in", "thin", "mutation"],
    )
    def test_runaway_forward_refused(self, tmp_path, capsys, key, body, message):
        # a forward run longer than 1e7 generations, or one whose default
        # burn-in the cap would cut short, is refused before any sampling
        cfg = write_cfg(tmp_path, "c.cfg", body)
        for command in ("validate", "run"):
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
            err = capsys.readouterr().err
            assert err.startswith(f"error: {key}: {message}"), err
            assert "more than 10000000" in err
        assert not (tmp_path / "o").exists()

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

    @pytest.mark.parametrize(
        "samples, law, stderr", [(8000, "exact", {"0"}), (200, "sampled", None)]
    )
    def test_polya_summary_names_the_law(self, tmp_path, samples, law, stderr):
        # model.n = 200 at K=2 is a grid of 201 states
        text = POLYA_CFG.replace("8000", str(samples)) + f'out = "{tmp_path}/out"\n'
        assert main(["run", "--config", write_cfg(tmp_path, "c.cfg", text)]) == 0
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert f"law = {law}" in summary and "states = 201" in summary
        assert any(line.startswith("resolution = ") for line in summary)
        rows = list(csv.reader((tmp_path / "out" / "gaps.csv").read_text().splitlines()[1:]))
        if stderr is not None:
            assert {r[2] for r in rows[1:]} == stderr

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

    @pytest.mark.parametrize(
        "body",
        [
            'kind = "polya-theorem4"\nmodel.a = [0.001, 0.002]\nmodel.n = 30\n'
            "mc.samples = 2000\n",
            'kind = "stein-verify"\nmodel.a = [0.001, 0.002, 0.003]\n'
            "mc.samples = 100000\n",
            'kind = "cannings-theorem2"\nmodel.N = 8\nmodel.offspring = "dirichlet-multinomial"\n'
            "model.phi = 0.001\nmodel.pi = [0.03, 0.05]\nmc.samples = 2048\n",
        ],
        ids=["polya", "stein-verify", "cannings-dm"],
    )
    def test_tiny_weights_run(self, tmp_path, capsys, body):
        # some Dirichlet rows (urn weights, Stein check draws, offspring
        # weights) have every gamma underflow to 0
        cfg = write_cfg(tmp_path, "c.cfg", body + f'seed = 1\nout = "{tmp_path}/out"\n')
        assert main(["run", "--config", cfg]) == 0
        assert capsys.readouterr().err == ""
        summary = (tmp_path / "out" / "summary.txt").read_text().splitlines()
        assert "passed = true" in summary
        for p in (tmp_path / "out").iterdir():
            assert "nan" not in p.read_text(), p.name

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

    def test_seed_changes_samples(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", POLYA_CFG)
        a, b = tmp_path / "s1", tmp_path / "s2"
        main(["run", "--config", cfg, "--out", str(a)])
        main(["run", "--config", cfg, "--out", str(b), "--seed", "4"])
        assert (a / "samples.csv").read_text() != (b / "samples.csv").read_text()


class TestOneStationaryRun:
    CANNINGS_CFG = (
        'kind = "cannings-theorem2"\nmodel.N = 8\nmodel.offspring = "dirichlet-multinomial"\n'
        "model.phi = 1\nmodel.pi = [0.03, 0.05, 0.04]\nmc.samples = 600\n"
        "mc.replicates = 64\nseed = 4\n"
    )

    @pytest.mark.parametrize("body", [WF_CFG, CANNINGS_CFG], ids=["wf", "cannings"])
    def test_one_sampling_call_per_run(self, tmp_path, monkeypatch, body):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return run_to_stationarity(*args, **kwargs)

        monkeypatch.setattr(cli, "run_to_stationarity", counted)
        cfg = write_cfg(tmp_path, "c.cfg", body)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"), "--workers", "3"]) == 0
        assert len(calls) == 1

    def test_summary_reports_the_run(self, tmp_path):
        # matched PIM: exact genealogy draws, so mc.replicates goes unused
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        exp = cli._Experiment(parse_config_text(WF_CFG))
        run = run_to_stationarity(exp.model, 2500, RngStream(7))
        samples = np.loadtxt(tmp_path / "o" / "samples.csv", delimiter=",", skiprows=2)
        assert (samples == run.samples[:, 0]).all()
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert "sampler = genealogy" in summary
        assert "burn_in = 0" in summary and "thin = 1" in summary
        assert "replicates = 2500" in summary
        assert f"generations = {run.meta['generations']}" in summary
        assert "unused = mc.replicates" in summary
        drift = [line for line in summary if line.startswith("drift_z = (")]
        assert drift == ["drift_z = (%.17g, %.17g)" % run.drift_z]

    def test_summary_reports_the_moments(self, tmp_path):
        cfg = write_cfg(tmp_path, "c.cfg", WF_CFG)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        exp = cli._Experiment(parse_config_text(WF_CFG))
        run = run_to_stationarity(exp.model, 2500, RngStream(7))
        D = MOMENT_DEGREE
        mom = exact_moments(exp.model, D)
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert f"moments = exact (degree {D})" in summary
        assert f"controls = {D}" in summary
        assert not any(line.startswith("bump_controls") for line in summary)
        assert f"type_redraws = {cli.TYPE_REDRAWS}" in summary
        assert "moment_z_max = %.17g" % moment_z_max(run, mom) in summary
        half_widths = [mom.enclose(h)[1] for h in make_battery(2) if h.tag[0] in ("sin", "cos")]
        assert "wave_half_width = %.17g" % max(half_widths) in summary
        # the moments' largest error bound, and the bump controls' moment
        # and rounding term: a deterministic part of the bump's stderr
        assert "moment_error = %.17g" % mom.errors.max() in summary
        rows = redraw_types(run, cli.TYPE_REDRAWS, RngStream(7).child(0))
        bump = make_battery(2)[-1]
        error = mom.projected(exp.a).controls(rows, bump)[2]
        assert 0.0 < error <= 1e-6
        assert "control_error = %.17g" % error in summary
        # matched rates: the linear monomial's gap and stderr are exactly 0
        with open(tmp_path / "o" / "gaps.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        linear = next(r for r in rows if r["h_tag"] == "('monomial', (1,))")
        assert (linear["gap"], linear["stderr"], linear["bound"]) == ("0", "0", "0")
        assert all(r["stderr"] == "0" for r in rows if r["h_tag"].startswith("('monomial'"))

    def test_summary_reports_a_forward_run(self, tmp_path):
        text = (
            'kind = "wf-theorem1"\nmodel.N = 12\nmodel.mutation = [[0.9, 0.06, 0.04], '
            "[0.02, 0.9, 0.08], [0.05, 0.03, 0.92]]\nmc.samples = 200\n"
            "mc.replicates = 20\nmc.burn_in = 60\nmc.thin = 4\nseed = 3\n"
        )
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) in (0, 2)
        run = run_to_stationarity(
            cli._Experiment(parse_config_text(text)).model, 200, RngStream(3),
            burn_in=60, thin=4, replicates=20,
        )
        samples = np.loadtxt(tmp_path / "o" / "samples.csv", delimiter=",", skiprows=2)
        assert (samples == run.samples).all()
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert "sampler = forward" in summary
        assert "burn_in = 60" in summary and "thin = 4" in summary
        assert "replicates = 20" in summary
        assert f"generations = {20 * (60 + 4 * 10)}" in summary
        assert not any(line.startswith("unused") for line in summary)
        # forward rounds have no blocks to redraw types on
        assert not any(line.startswith("type_redraws") for line in summary)


# The exact shape of a perfbench mc-certify job: matched PIM through model.a,
# with the forward keys mc.burn_in and mc.replicates that a genealogy run
# accepts and does not use.
_CERTIFY_JOBS = {2: (77, [2.713, 3.402]), 3: (131, [3.9, 2.25, 2.6])}


class TestCertifyJob:
    @pytest.mark.parametrize("K", sorted(_CERTIFY_JOBS))
    def test_passes_and_lists_the_unused_keys(self, tmp_path, capsys, K):
        N, a = _CERTIFY_JOBS[K]
        text = (
            f'kind = "wf-theorem1"\nmodel.N = {N}\nmodel.a = {a}\nmc.samples = 1024\n'
            f"mc.replicates = 128\nmc.burn_in = {5 * N}\nseed = 3141592653\n"
        )
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sampler = genealogy" in out
        assert "unused = mc.burn_in, mc.replicates" in out
        # the moments' largest error bound, the control set, every monomial
        # of degree 1..MOMENT_DEGREE (12 at K=2, 90 at K=3), and the
        # redraws follow the moment degree
        D = MOMENT_DEGREE
        i = out.index(f"moments = exact (degree {D})")
        mom = cli._Experiment(parse_config_text(text)).moments
        assert out[i + 1] == "moment_error = %.17g" % mom.errors.max()
        assert out[i + 2] == f"controls = {math.comb(D + K - 1, K - 1) - 1}"
        assert out[i + 3] == f"type_redraws = {cli.TYPE_REDRAWS}"
        dirs = []
        for workers in (1, 3):
            d = tmp_path / f"w{workers}"
            assert main(["run", "--config", cfg, "--out", str(d), "--workers", str(workers)]) == 0
            dirs.append(d)
        summary = (dirs[0] / "summary.txt").read_text().splitlines()
        assert "passed = true" in summary
        assert "unused = mc.burn_in, mc.replicates" in summary
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == sorted(p.name for p in dirs[1].iterdir())
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name

    def test_sampled_linear_rows_are_exact(self, tmp_path):
        # a benchmark job whose 1024 draws put both linear monomials about
        # 4 plain stderr from a/s (z = 4.09 and -3.96, bound exactly 0);
        # the exact moments give both rows gap 0 and stderr 0
        text = (
            'kind = "wf-theorem1"\nmodel.N = 85\nmodel.a = [2.634, 3.045, 2.443]\n'
            "mc.samples = 1024\nseed = 2125659498217179577\n"
        )
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "gaps.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        for tag in ("('monomial', (0, 1))", "('monomial', (1, 0))"):
            row = next(r for r in rows if r["h_tag"] == tag)
            assert (row["gap"], row["stderr"], row["bound"], row["pass"]) == ("0", "0", "0", "true")
        summary = (tmp_path / "o" / "summary.txt").read_text().splitlines()
        assert f"controls = {math.comb(MOMENT_DEGREE + 2, 2) - 1}" in summary


    @staticmethod
    def _wave_rows(path):
        lines = (path / "gaps.csv").read_text(encoding="utf-8").splitlines()
        return [line for line in lines if line.startswith(("\"('sin'", "\"('cos'"))]

    def test_wave_rows_do_not_depend_on_the_seed(self, tmp_path):
        # the waves' gaps come from the exact moments alone: two runs that
        # differ only in seed write the same wave rows, each with stderr 0
        waves = []
        for seed in (3, 4):
            text = (
                'kind = "wf-theorem1"\nmodel.N = 40\nmodel.a = [2.5, 3.0, 2.0]\n'
                f"mc.samples = 256\nseed = {seed}\n"
            )
            cfg = write_cfg(tmp_path, f"c{seed}.cfg", text)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / f"o{seed}")]) == 0
            waves.append(self._wave_rows(tmp_path / f"o{seed}"))
        assert len(waves[0]) == 12 and waves[0] == waves[1]
        assert all(row.split(",")[-3:-2] == ["0"] for row in waves[0])
        assert (tmp_path / "o3" / "samples.csv").read_bytes() != (tmp_path / "o4" / "samples.csv").read_bytes()

    def test_skewed_forward_run_passes(self, tmp_path):
        # fitted a = (57, 6), a narrow law whose Dirichlet-projected
        # controls were the weakest measured; the enclosed waves take none
        text = (
            'kind = "wf-theorem1"\nmodel.N = 30\nmodel.mutation = [[0.9, 0.1], [0.95, 0.05]]\n'
            "mc.samples = 400\nseed = 4\n"
        )
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        assert "sampler = forward" in (tmp_path / "o" / "summary.txt").read_text().splitlines()
        waves = self._wave_rows(tmp_path / "o")
        assert len(waves) == 4
        assert all(row.endswith(",true") and row.split(",")[-3] == "0" for row in waves)


# sha256 of the artifacts that these configs wrote before genealogy gaps were
# averaged over type redraws.  The redraws come from a stream the sampler
# never reads and change only sampled gap rows: the samples, the bound and
# the exact monomial rows stay byte for byte.  A forward run's whole gap
# table is pinned as its waves took enclosures from the exact moments,
# which moved its wave rows; its monomial rows kept their bytes.
_PINNED_ARTIFACTS = {
    "wf-k2": (
        'kind = "wf-theorem1"\nmodel.N = 77\nmodel.a = [2.713, 3.402]\nmc.samples = 1024\n'
        "mc.replicates = 128\nmc.burn_in = 385\nseed = 3141592653\n",
        {
            "samples.csv": "c639e6828d371dc6934cfcf7573889559758b71c751ced9540d1218c32a1ac91",
            "bound.txt": "88ae53310eb2347e8ca3045c477413b88605b5d0940c459debb7c192dfc2353b",
            "monomial rows": "b56d730d5029a338a52f8c8ed61e2c2ca01aab22b2608deb3f76fa2385724595",
        },
    ),
    "wf-k3": (
        'kind = "wf-theorem1"\nmodel.N = 131\nmodel.a = [3.9, 2.25, 2.6]\nmc.samples = 1024\n'
        "mc.replicates = 128\nmc.burn_in = 655\nseed = 3141592653\n",
        {
            "samples.csv": "68cbd5aaf173f116cdf78bc9d0254b347abcf0974804fa5efd413766aee75992",
            "bound.txt": "589c8065a51d4ad3149a52f50cf59a5a40fd37ce647d14074b24727b24d99c00",
            "monomial rows": "db5e0545bb0d0811030159928d3637462ae8dc49e9f52a5cb2051b38637e025c",
        },
    ),
    "dm-k3": (
        TestOneStationaryRun.CANNINGS_CFG,
        {
            "samples.csv": "c28f78b0c973044b78297c39f01b66b8e68597cc5e507d21d0d33b4e067f018c",
            "bound.txt": "2bbe73a1f235e5d2ef6dffd5289712334765e920435ed5461f8b30fc859d9657",
        },
    ),
    "wf-forward-k3": (
        'kind = "wf-theorem1"\nmodel.N = 12\nmodel.mutation = [[0.9, 0.06, 0.04], '
        "[0.02, 0.9, 0.08], [0.05, 0.03, 0.92]]\nmc.samples = 200\nmc.replicates = 20\n"
        "mc.burn_in = 60\nmc.thin = 4\nseed = 3\n",
        {
            "samples.csv": "f8acdeb742c3a6142dc6885b24106a21af876efdb017c1943db4d02b19fef62e",
            "bound.txt": "4e8bebc2394359ffa49d8ce41706d7e54b6b6a0a628808a9ad302f4305f5354b",
            "monomial rows": "06ee5e44556c47b1d84eb95c271596a4ae8c6e0109b37414b7e4f469d459aa01",
            "gaps.csv": "2bf549158cee0ba32bb6c677a482ee8e1fbcd3dac00626e4af47de74014cd247",
        },
    ),
}


class TestArtifactContract:
    @pytest.mark.parametrize("name", sorted(_PINNED_ARTIFACTS))
    def test_pinned_and_independent_of_workers(self, tmp_path, name):
        text, pinned = _PINNED_ARTIFACTS[name]
        cfg = write_cfg(tmp_path, "c.cfg", text)
        dirs = []
        for workers in (1, 2):
            d = tmp_path / f"w{workers}"
            assert main(["run", "--config", cfg, "--out", str(d), "--workers", str(workers)]) == 0
            dirs.append(d)
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == ["bound.txt", "gaps.csv", "samples.csv", "summary.txt"]
        for f in names:
            assert (dirs[0] / f).read_bytes() == (dirs[1] / f).read_bytes(), f
        gaps = (dirs[0] / "gaps.csv").read_text(encoding="utf-8").splitlines(keepends=True)
        monomial = "".join(line for line in gaps if line.startswith('"(\'monomial\''))
        got = {f: hashlib.sha256((dirs[0] / f).read_bytes()).hexdigest() for f in names}
        got["monomial rows"] = hashlib.sha256(monomial.encode("utf-8")).hexdigest()
        for key, digest in pinned.items():
            assert got[key] == digest, key
        summary = (dirs[0] / "summary.txt").read_text(encoding="utf-8").splitlines()
        redraws = f"type_redraws = {cli.TYPE_REDRAWS}"
        assert (redraws in summary) == ("sampler = genealogy" in summary)

    def test_cannings_validate_prints_the_redraws(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "c.cfg", TestOneStationaryRun.CANNINGS_CFG)
        assert main(["validate", "--config", cfg]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "sampler = genealogy" in out
        assert f"type_redraws = {cli.TYPE_REDRAWS}" in out
        assert not any(line.startswith(("moments", "controls")) for line in out)


# Stationary moments of one-run CLI samples against exact stationary tables.
# The parent-dependent case runs forward chains: rows of samples.csv are
# rounds of `mc.replicates` independent chains, row i from chain i % R, so
# each chain's mean over its rounds is one batch mean and the batch means are
# independent, and the z-score below counts the correlation between the
# rounds of one chain.  The parent-independent cases draw every row
# independently from the genealogy, so the same batch means are independent
# there too.  Each |z| < 4 check has a false-alarm rate of 6.3e-5 (normal;
# the t correction at R = 256 is negligible), so the fourteen checks together
# stay below 9e-4.
_EXACT_CASES = {
    "wf-k2-n20": 'kind = "wf-theorem1"\nmodel.N = 20\nmodel.a = [1.5, 2.5]\n',
    "moran-k2-n20": (
        'kind = "cannings-theorem2"\nmodel.N = 20\nmodel.offspring = "moran"\n'
        "model.pi = [0.004, 0.006]\n"
    ),
    "dm-k3-n8": (
        'kind = "cannings-theorem2"\nmodel.N = 8\nmodel.offspring = "dirichlet-multinomial"\n'
        "model.phi = 1\nmodel.pi = [0.03, 0.05, 0.04]\n"
    ),
    "wf-cyclic-k3-n12": (
        'kind = "wf-theorem1"\nmodel.N = 12\nmodel.mutation = [[0.9, 0.06, 0.04], '
        "[0.02, 0.9, 0.08], [0.05, 0.03, 0.92]]\n"
    ),
}


class TestStationaryAgainstExact:
    R, ROUNDS = 256, 32

    @pytest.mark.parametrize("name", sorted(_EXACT_CASES))
    def test_first_and_second_moments(self, tmp_path, name):
        text = _EXACT_CASES[name] + (
            f"mc.samples = {self.R * self.ROUNDS}\nmc.replicates = {self.R}\nseed = 31\n"
        )
        cfg = write_cfg(tmp_path, "c.cfg", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        w = np.loadtxt(tmp_path / "o" / "samples.csv", delimiter=",", skiprows=2, ndmin=2)
        table = exact_stationary(cli._Experiment(parse_config_text(text)).model)
        k = w.shape[1]
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        for f in [lambda v, i=i: v[:, i] for i in range(k)] + [
            lambda v, i=i, j=j: v[:, i] * v[:, j] for i, j in pairs
        ]:
            batch = f(w).reshape(self.ROUNDS, self.R).mean(axis=0)
            z = (batch.mean() - table.expect(f)) / (batch.std(ddof=1) / np.sqrt(self.R))
            assert abs(z) < 4.0, (name, z)


class TestRuntimeImports:
    def test_cli_run_leaves_scipy_unimported(self, tmp_path):
        # scipy is a test-only dependency: neither importing the CLI, nor
        # a run of each certifying kind, nor an exact battery mean of any
        # family (the Gauss rules are numpy's) may pull it in
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
            "from dirstein.metrics import _trig, attach_exact_means, make_battery\n"
            "from dirstein.simplex import DirichletParams\n"
            "from dirstein.stein import attach_mean\n"
            "attach_exact_means(make_battery(2), DirichletParams((1, 2)))\n"
            "attach_exact_means(make_battery(3), DirichletParams((0.3, 0.4, 0.5)))\n"
            "attach_mean(_trig('cos', (1, 2, 3)), DirichletParams((1, 1, 1, 1)))\n"
            "if 'scipy' in sys.modules: sys.exit('scipy loaded by a mean')\n"
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

    def test_moments_large_moran_is_quick(self, tmp_path, capsys):
        # exact identities sum over the three count values of the Moran
        # multiset, not over the N^4 coordinate tuples
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "moments-verify"\nmodel.N = 1000\nmodel.offspring = "moran"\nseed = 1\n',
        )
        t0 = time.perf_counter()
        assert main(["moments", "--config", cfg]) == 0
        assert time.perf_counter() - t0 < 5.0
        out = capsys.readouterr().out
        assert out.count("[exact]") == 10 and "passed = true" in out

    @pytest.mark.parametrize(
        "offspring",
        ['"wright-fisher"', '"dirichlet-multinomial"\nmodel.phi = 0.6666666666666666'],
        ids=["wf", "dm"],
    )
    def test_moments_exact_at_large_n(self, tmp_path, capsys, offspring):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            f'kind = "moments-verify"\nmodel.N = 1000\nmodel.offspring = {offspring}\nseed = 1\n',
        )
        assert main(["moments", "--config", cfg]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 11 and lines[-1] == "passed = true"
        assert all(line.endswith(": residual = 0 [exact] ok") for line in lines[:10])

    @pytest.mark.parametrize(
        "N, offspring",
        [(4, "dirichlet-multinomial"), (8, "dirichlet-multinomial"), (6, "moran")],
        ids=["dm4", "dm8", "moran6"],
    )
    def test_moments_output_unchanged(self, tmp_path, capsys, N, offspring):
        # the printed lines of the benchmark's moments jobs, frozen
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            f'kind = "moments-verify"\nmodel.N = {N}\nmodel.offspring = "{offspring}"\n'
            "model.phi = 1.2345\nseed = 4\n",
        )
        assert main(["moments", "--config", cfg]) == 0
        names = (
            "E V1^2", "E V1V2", "E V1^3", "E V1V2V3", "E V1^2V2", "E V1^2V2^2",
            "E V1^4", "E V1V2V3V4", "E V1^2V2V3", "E V1^3V2",
        )
        want = [f"{name}: residual = 0 [exact] ok" for name in names] + ["passed = true"]
        assert capsys.readouterr().out.splitlines() == want

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
        for v in vals.values():
            # every replicate sums the levels up to 32, one in eight the rest
            M = int(v["levels"])
            R = max(60000 // M, 100)
            assert v["replicates"] == f"{R}, {max(2, -(-R // 8)) if M > 32 else 0}"
        slope = (float(vals["0.7"]["f"]) - float(vals["0.3"]["f"])) / 0.4
        err = 3.0 * (
            float(vals["0.7"]["stderr"]) + float(vals["0.3"]["stderr"])
        ) / 0.4 + 2e-3
        assert abs(slope - (-0.5)) < err

    @pytest.mark.parametrize(
        "law, c, x, seed",
        [("[1, 2]", "[0]", "[0.3]", 1), ("[1, 2, 1.5]", "[0, 0]", "[0.3, 0.2]", 3)],
    )
    def test_stein_f_of_a_constant_is_zero(self, tmp_path, capsys, law, c, x, seed):
        # h = 1 has h~ = 0, so f = 0 at every point
        body = (
            f'kind = "stein-verify"\nmodel.a = {law}\nstein.exponents = {c}\n'
            f"stein.x = {x}\nseed = {seed}\n"
        )
        assert main(["stein-f", "--config", write_cfg(tmp_path, "c.cfg", body)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert {"f = 0", "stderr = 0", "truncation = 0"} <= set(out)

    def test_stein_f_validates_inputs(self, tmp_path):
        cfg = write_cfg(
            tmp_path,
            "c.cfg",
            'kind = "stein-verify"\nmodel.a = [1, 1]\nstein.exponents = [1, 2]\n'
            "stein.x = [0.3]\nseed = 1\n",
        )
        assert main(["stein-f", "--config", cfg]) == 1


# every key the certifying and verifying kinds read, plus the delivery knobs
_FUZZ_KEYS = (
    "kind", "seed", "model.N", "model.n", "model.a", "model.pi",
    "model.mutation", "model.offspring", "model.phi", "model.table",
    "model.degree", "mc.samples", "mc.replicates", "mc.burn_in", "mc.thin",
    "workers",
)
_EXTREMES = (0, 1, -1, 2**53 + 1, 10**400, 1e308, -1e308, 1e-320, 5e-324, 0.5)
_scalars = st.one_of(
    st.sampled_from(_EXTREMES),
    st.integers(-10, 60),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
    st.none(),
    st.sampled_from(cli.KINDS + ("moran", "wright-fisher", "dirichlet-multinomial", "explicit", "")),
)
_numbers = st.one_of(
    st.sampled_from(_EXTREMES), st.integers(1, 5), st.floats(1e-3, 2.0)
)
_values = st.one_of(
    _scalars,
    st.lists(_numbers, max_size=5),
    st.lists(st.lists(_numbers, max_size=4), max_size=4),
    st.lists(_scalars, max_size=4),
)
# a valid config per kind, so that one bad key at a time reaches the
# model builders; overrides and dropped keys then break it
_BASES = {
    "wf-theorem1": {"model.N": 20, "model.a": [1, 2]},
    "cannings-theorem2": {"model.N": 20, "model.pi": [0.01, 0.02], "model.phi": 1},
    "polya-theorem4": {"model.n": 10, "model.a": [1, 2, 1]},
    "stein-verify": {"model.a": [1, 1]},
    "moments-verify": {"model.N": 6},
}
_configs = st.builds(
    lambda kind, overrides, drop: {
        k: v
        for k, v in {"kind": kind, "seed": 1, **_BASES[kind], **overrides}.items()
        if k not in drop
    },
    st.sampled_from(cli.KINDS),
    st.dictionaries(st.sampled_from(_FUZZ_KEYS), _values, max_size=3),
    st.sets(st.sampled_from(_FUZZ_KEYS), max_size=2),
)


# wrong types and out-of-range numbers for the run fuzzer's keys
_odd = st.sampled_from([0.5, 1e308, -1e308, 5e-324, "20", None, True, [20], -1])
# an urn of n <= 30 draws has at most 31 states at K=2 and 496 at K=3, so
# mc.samples <= 64 takes both the exact law and the sampled one
_RUN_BASES = {
    "wf-theorem1": {"model.N": 20, "model.a": [1, 2], "mc.samples": 48},
    "cannings-theorem2": {
        "model.N": 20, "model.pi": [0.01, 0.02], "model.phi": 1, "mc.samples": 48,
    },
    "polya-theorem4": {"model.n": 20, "model.a": [1, 2], "mc.samples": 48},
}
_RUN_VALUES = {
    "model.N": st.one_of(st.integers(-1, 30), _odd),
    "model.n": st.one_of(st.integers(-1, 30), _odd),
    "mc.samples": st.one_of(st.integers(-1, 64), _odd),
    "model.a": st.one_of(st.lists(_numbers, max_size=4), _odd),
    "model.pi": st.one_of(st.lists(_numbers, max_size=4), _odd),
    "model.phi": st.one_of(_numbers, _odd),
    "model.offspring": st.sampled_from(
        ("moran", "wright-fisher", "dirichlet-multinomial", "explicit", "", 3)
    ),
    "mc.replicates": st.one_of(st.integers(2, 10**6), _scalars),
    "mc.burn_in": st.one_of(st.integers(0, 10**9), _scalars),
    "mc.thin": st.one_of(st.integers(1, 10**9), _scalars),
    "seed": st.one_of(st.integers(0, 2**64 - 1), _odd),
}
_run_configs = st.builds(
    lambda kind, overrides, drop: {
        k: v
        for k, v in {"kind": kind, "seed": 1, **_RUN_BASES[kind], **overrides}.items()
        if k not in drop
    },
    st.sampled_from(sorted(_RUN_BASES)),
    st.sets(st.sampled_from(sorted(_RUN_VALUES)), max_size=3).flatmap(
        lambda keys: st.fixed_dictionaries({k: _RUN_VALUES[k] for k in keys})
    ),
    st.sets(
        st.sampled_from(("model.N", "model.n", "model.a", "model.pi", "model.phi")), max_size=2
    ),
)


def _percent_row(cuts):
    c1, c2 = sorted(cuts)
    return [c1 / 100, (c2 - c1) / 100, (100 - c2) / 100]


def _parent_dependent(rows):
    # a PIM matrix repeats each column's off-diagonal entry in every row
    return any(
        len({rows[i][j] for i in range(3) if i != j}) > 1 for j in range(3)
    )


# forward runs: three-type mutation rows in whole percent that no PIM matrix
# has, and explicit sizes that keep a run to at most 200 + 4 * 16 generations
_forward_configs = st.fixed_dictionaries(
    {
        "kind": st.just("wf-theorem1"),
        "seed": st.integers(0, 2**32),
        "model.N": st.integers(2, 12),
        "model.mutation": st.lists(
            st.lists(st.integers(1, 99), min_size=2, max_size=2, unique=True).map(_percent_row),
            min_size=3,
            max_size=3,
        ).filter(_parent_dependent),
        "mc.samples": st.integers(2, 32),
        "mc.burn_in": st.integers(0, 200),
        "mc.thin": st.integers(1, 4),
        "mc.replicates": st.integers(2, 8),
    }
)


class TestConfigFuzz:
    @settings(max_examples=400, deadline=None)
    @given(data=_configs, command=st.sampled_from(["validate", "bound"]))
    @example(
        data={"kind": "polya-theorem4", "seed": 1, "model.n": 10, "model.a": [1e308, 1e308]},
        command="validate",
    )
    @example(
        data={"kind": "wf-theorem1", "seed": 1, "model.N": 10, "model.a": [1, 1, 1, 1]},
        command="validate",
    )
    @example(
        data={
            "kind": "cannings-theorem2", "seed": 1, "model.N": 12, "model.offspring": "moran",
            "model.pi": [0.02, 0.02, 0.03],
            "model.mutation": [[0.9, 0.06, 0.04], [0.02, 0.9, 0.08], [0.05, 0.03, 0.92]],
        },
        command="validate",
    )
    @example(
        data={
            "kind": "wf-theorem1", "seed": 1, "model.N": 10, "mc.burn_in": 10**9,
            "model.mutation": [[0.9, 0.06, 0.04], [0.02, 0.9, 0.08], [0.05, 0.03, 0.92]],
        },
        command="validate",
    )
    def test_exit_code_and_keyed_message(self, data, command):
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in data.items())
        with tempfile.TemporaryDirectory() as d:
            cfg = write_cfg(Path(d), "c.cfg", text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main([command, "--config", cfg])
        assert rc in (0, 1, 2)
        if rc == 1:
            key = err.getvalue().removeprefix("error: ").split(": ")[0]
            assert err.getvalue().startswith("error: ") and key in _FUZZ_KEYS, (text, err.getvalue())

    # run on tiny parent-independent configs and urns: every base and
    # override keeps N, n <= 30 and mc.samples <= 64 and leaves
    # model.mutation out, so each chain run that starts is a genealogy run
    # and ends in well under a second; the forward example is refused
    # before it steps
    @settings(max_examples=150, deadline=None)
    @given(data=_run_configs)
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 30, "model.a": [1e300, 1]})
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 30, "model.a": [5e-324, 1]})
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 20, "model.a": [1e308, 1]})
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 20, "model.a": [1e308, 1.5]})
    @example(
        data={"kind": "polya-theorem4", "seed": 1, "model.n": 30, "model.a": [1e300, 1],
              "mc.samples": 2}
    )
    @example(
        data={"kind": "polya-theorem4", "seed": 1, "model.n": 30, "model.a": [5e-324, 1, 1e300],
              "mc.samples": 64}
    )
    @example(data={"kind": "wf-theorem1", "seed": 1, "model.N": 20, "model.a": [1e-300, 1]})
    @example(data={"kind": "wf-theorem1", "seed": 1, "model.N": 20, "model.pi": [1e-9, 1e-9]})
    @example(data={"kind": "wf-theorem1", "seed": 1, "model.N": 20, "model.a": [1, 2], "mc.samples": 1})
    @example(data={"kind": "wf-theorem1", "seed": 1, "model.N": 20, "model.a": [1, 2], "mc.samples": 2})
    @example(
        data={
            "kind": "wf-theorem1", "seed": 1, "model.N": 20, "mc.samples": 48, "mc.thin": 10**9,
            "model.mutation": [[0.9, 0.06, 0.04], [0.02, 0.9, 0.08], [0.05, 0.03, 0.92]],
        }
    )
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 20, "model.a": [1e300, 1.5]})
    @example(data={"kind": "polya-theorem4", "seed": 1, "model.n": 20, "model.a": [5e306, 1.5]})
    def test_run_exit_code_and_keyed_message(self, data):
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in data.items())
        with tempfile.TemporaryDirectory() as d:
            cfg = write_cfg(Path(d), "c.cfg", text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["run", "--config", cfg, "--out", str(Path(d) / "o")])
            assert rc in (0, 1, 2)
            if rc == 1:
                key = err.getvalue().removeprefix("error: ").split(": ")[0]
                assert err.getvalue().startswith("error: ") and key in _FUZZ_KEYS, (text, err.getvalue())
                return
            # only Wright-Fisher runs take exact moments and report them
            summary = (Path(d) / "o" / "summary.txt").read_text().splitlines()
            keys = [line.split(" = ")[0] for line in summary]
            names = [
                "moments", "moment_error", "controls", "moment_z_max", "wave_half_width",
                "control_error",
            ]
            moment_keys = [k for k in keys if k in names]
            wf = data["kind"] == "wf-theorem1"
            assert moment_keys == (names if wf else []), text

    # runs that step the forward kernel; at the largest sizes one run takes
    # about 0.2 s, set-up included
    @settings(max_examples=20, deadline=None)
    @given(data=_forward_configs)
    @example(
        data={
            "kind": "wf-theorem1", "seed": 3, "model.N": 12, "mc.samples": 32,
            "model.mutation": [[0.37, 0.2, 0.43], [0.1, 0.85, 0.05], [0.33, 0.33, 0.34]],
            "mc.burn_in": 200, "mc.thin": 4, "mc.replicates": 2,
        }
    )
    def test_forward_run_exit_code_and_keyed_message(self, data):
        text = "".join(f"{k} = {json.dumps(v)}\n" for k, v in data.items())
        with tempfile.TemporaryDirectory() as d:
            cfg = write_cfg(Path(d), "c.cfg", text)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = main(["run", "--config", cfg, "--out", str(Path(d) / "o")])
            assert rc in (0, 1, 2)
            if rc == 1:
                key = err.getvalue().removeprefix("error: ").split(": ")[0]
                assert err.getvalue().startswith("error: ") and key in _FUZZ_KEYS, (text, err.getvalue())
            else:
                assert "sampler = forward" in (Path(d) / "o" / "summary.txt").read_text()
