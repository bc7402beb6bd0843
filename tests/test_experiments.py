import csv
import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import attnsim
from attnsim.cli import EXIT_NUMERICAL, EXIT_USAGE
from attnsim.cli import main as cli_main
from attnsim.data import ConfigError, DataConfig
from attnsim.experiments import (ExperimentConfig, ModelParams, SweepSpec,
                                 default_config, run, run_check_suites, sweep)
from attnsim.train import TrainConfig


def tiny_config(seed=0, **train_kw):
    tr = dict(alpha=5e-3, steps=60, log_every=20, test_size=50)
    tr.update(train_kw)
    return ExperimentConfig(
        data=DataConfig(n=8, T=5, d=64, mu_norm=6.0, sigma_eps=1.0, eta=0.25,
                        rho=0.2),
        train=TrainConfig(**tr),
        seed=seed,
    )


class TestConfigJson:
    def test_round_trip_identity(self):
        cfg = tiny_config(seed=3)
        echoed = ExperimentConfig.from_json(cfg.to_json())
        assert echoed == cfg
        assert echoed.to_json() == cfg.to_json()

    def test_unknown_top_level_key(self):
        obj = tiny_config().to_json()
        obj["extra"] = 1
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_json(obj)

    def test_unknown_nested_key(self):
        obj = tiny_config().to_json()
        obj["model"]["bogus"] = 2
        with pytest.raises(ConfigError, match="bogus"):
            ExperimentConfig.from_json(obj)

    def test_missing_section(self):
        with pytest.raises(ConfigError, match="train"):
            ExperimentConfig.from_json({"data": tiny_config().data.to_json()})

    def test_head_scale_validation(self):
        with pytest.raises(ConfigError):
            ModelParams(head_scale="nonsense")
        assert ModelParams(head_scale=0.3).head_scale == 0.3


class TestRun:
    def test_artifacts_and_summary(self, tmp_path):
        art = run(tiny_config(), tmp_path)
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "summary.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == art.config_echo
        assert ExperimentConfig.from_json(summary["config"]) == tiny_config()
        assert summary["final"]["step"] == 60
        assert summary["diverged_at"] is None
        assert summary["regime"] in ("harmful", "benign", "not-overfitting")

    def test_zero_steps_single_row(self, tmp_path):
        art = run(tiny_config(steps=0), tmp_path)
        with open(art.trace_path) as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 2  # header + step 0

    def test_rerun_byte_identical(self, tmp_path):
        a = run(tiny_config(), tmp_path / "a")
        b = run(tiny_config(), tmp_path / "b")
        assert open(a.trace_path, "rb").read() == open(b.trace_path, "rb").read()
        assert (open(a.summary_path).read() == open(b.summary_path).read())

    def test_different_seed_differs(self, tmp_path):
        a = run(tiny_config(seed=0), tmp_path / "a")
        b = run(tiny_config(seed=1), tmp_path / "b")
        assert open(a.trace_path, "rb").read() != open(b.trace_path, "rb").read()

    def test_trace_columns(self, tmp_path):
        art = run(tiny_config(), tmp_path)
        header = open(art.trace_path).readline().strip().split(",")
        assert header[:7] == ["step", "train_loss", "train_acc",
                              "train_acc_true", "test_acc", "lambda_plus",
                              "lambda_minus"]
        # first clean and first noisy sample blocks, 1-based labels
        tr = art.trace
        first = [f"s{tr.clean_idx[0] + 1}_{t}" for t in range(1, 6)]
        assert header[7:12] == first
        assert len(header) == 7 + 2 * 5

    def test_json_trace_format(self, tmp_path):
        art = run(tiny_config(), tmp_path, fmt="json")
        rows = json.loads(open(art.trace_path).read())
        assert rows[0]["step"] == 0
        assert rows[-1]["step"] == 60

    def test_tracked_samples_config(self, tmp_path):
        cfg = tiny_config()
        cfg = ExperimentConfig(data=cfg.data, train=cfg.train, model=cfg.model,
                               seed=cfg.seed, tracked_samples=(0, 3, 5))
        art = run(cfg, tmp_path)
        header = open(art.trace_path).readline().strip().split(",")
        assert len(header) == 7 + 3 * 5
        assert "s1_1" in header and "s4_1" in header and "s6_1" in header


class TestSweep:
    def spec(self, seeds=(0, 1)):
        return SweepSpec(d_values=(48, 64), mu_values=(4.0, 8.0), seeds=seeds,
                         base=tiny_config(steps=40))

    def test_row_count_and_sorting(self, tmp_path):
        rows, mean_rows = sweep(self.spec(), threads=1, out_dir=tmp_path)
        assert len(rows) == 2 * 2 * 2
        assert len(mean_rows) == 4
        keys = [(r["d"], r["mu_norm"], r["seed"]) for r in rows]
        assert keys == sorted(keys)
        lines = (tmp_path / "heatmap.csv").read_text().splitlines()
        assert lines[0] == "d,mu_norm,seed,train_loss,test_loss,train_acc,test_acc"
        assert len(lines) == 9

    def test_thread_count_invariance(self, tmp_path):
        sweep(self.spec(), threads=1, out_dir=tmp_path / "t1")
        sweep(self.spec(), threads=8, out_dir=tmp_path / "t8")
        for name in ("heatmap.csv", "heatmap_mean.csv"):
            assert ((tmp_path / "t1" / name).read_bytes()
                    == (tmp_path / "t8" / name).read_bytes())

    def test_single_cell_matches_run(self):
        spec = SweepSpec(d_values=(64,), mu_values=(6.0,), seeds=(0,),
                         base=tiny_config(steps=40))
        rows, mean_rows = sweep(spec, threads=1)
        assert len(rows) == 1 and len(mean_rows) == 1
        assert rows[0]["train_acc"] == mean_rows[0]["train_acc"]

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepSpec(d_values=(), mu_values=(4.0,), seeds=(0,),
                      base=tiny_config())

    def test_json_round_trip(self):
        spec = self.spec()
        assert SweepSpec.from_json(spec.to_json()) == spec


class TestCheckSuites:
    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigError):
            run_check_suites(default_config(), [])

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError, match="unknown suites"):
            run_check_suites(default_config(), ["nonsense"])

    def test_gradient_suite_passes(self):
        rep = run_check_suites(default_config(), ["gradients"])
        assert rep.passed_all
        assert rep.config_hash

    def test_report_json_fields(self):
        rep = run_check_suites(default_config(), ["identities"])
        for row in rep.to_json():
            assert set(row) >= {"name", "pass", "measured", "threshold",
                                "config_hash", "seed"}


class TestCli:
    def write_config(self, tmp_path, cfg=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps((cfg or tiny_config()).to_json()))
        return str(path)

    def test_run_exit_zero(self, tmp_path, capsys):
        code = cli_main(["run", "--config", self.write_config(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "trace.csv").exists()

    def test_steps_override(self, tmp_path):
        code = cli_main(["run", "--config", self.write_config(tmp_path),
                         "--out-dir", str(tmp_path / "out"), "--steps", "0"])
        assert code == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_invalid_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"n": 4}, "train": {}}))
        assert cli_main(["run", "--config", str(bad),
                         "--out-dir", str(tmp_path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli_main(["classify", "--config",
                         str(tmp_path / "nope.json")]) == 2

    def test_classify_fig3(self, tmp_path, capsys):
        for d, mu, expected in ((5000, 5.0, "harmful"),
                                (1000, 100.0, "not-overfitting")):
            cfg = ExperimentConfig(
                data=DataConfig(n=20, T=8, d=d, mu_norm=mu, sigma_eps=1.0,
                                eta=0.2, rho=0.1),
                train=TrainConfig(alpha=5e-3, steps=10))
            code = cli_main(["classify", "--config",
                             self.write_config(tmp_path, cfg)])
            assert code == 0
            assert capsys.readouterr().out.strip() == expected

    def test_check_empty_suite_usage_error(self, tmp_path):
        assert cli_main(["check", "--config", self.write_config(tmp_path),
                         "--suite", ""]) == 2

    def test_check_gradients_pass(self, tmp_path, capsys):
        assert cli_main(["check", "--suite", "gradients"]) == 0
        out = capsys.readouterr().out
        assert "gradient_oracle" in out

    def test_check_failure_exit_one(self, tmp_path, capsys):
        # an enormous explicit init scale violates the near-uniform
        # initialization checks deterministically
        cfg = default_config()
        cfg = ExperimentConfig(data=cfg.data, train=cfg.train,
                               model=ModelParams(sigma_w=5.0, sigma_p=5.0),
                               seed=0)
        code = cli_main(["check", "--config", self.write_config(tmp_path, cfg),
                         "--suite", "init"])
        assert code == 1
        assert "failed checks" in capsys.readouterr().err

    def test_unknown_suite_exit_two(self, tmp_path):
        assert cli_main(["check", "--config", self.write_config(tmp_path),
                         "--suite", "bogus"]) == 2

    def test_divergence_exit_three(self, tmp_path):
        cfg = tiny_config(alpha=1e305, steps=10, log_every=1, test_size=0)
        code = cli_main(["run", "--config", self.write_config(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 3
        # partial trace preserved
        assert (tmp_path / "out" / "trace.csv").exists()
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["diverged_at"] == 1

    @pytest.mark.parametrize("section, key, value", [
        (None, "engine", "fast"),
        ("model", "sigma_w", -1.0),
        ("model", "sigma_p", -0.5),
        ("data", "d", 1),
    ])
    def test_config_fault_rejected_at_load(self, tmp_path, capsys, section,
                                           key, value):
        obj = tiny_config().to_json()
        (obj if section is None else obj[section])[key] = value
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_json(obj)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        code = cli_main(["run", "--config", str(path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()   # nothing ran

    def test_sweep_cell_fault_rejected_at_load(self, tmp_path):
        spec = SweepSpec(d_values=(48,), mu_values=(4.0,), seeds=(0,),
                         base=tiny_config()).to_json()
        spec["d_values"] = [48, 1]
        with pytest.raises(ConfigError, match="d must be"):
            SweepSpec.from_json(spec)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out")]) == EXIT_USAGE

    def test_numerical_error_exit_four(self, tmp_path, capsys, monkeypatch):
        # a ValueError raised while computing is not a config error
        def nonfinite(*args, **kwargs):
            raise ValueError("softmax input must be finite")

        monkeypatch.setattr(importlib.import_module("attnsim.train"),
                            "_test_metrics", nonfinite)
        code = cli_main(["run", "--config", self.write_config(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical error: softmax input must be finite" in err
        assert "config error" not in err

    def test_sweep_cli(self, tmp_path):
        spec = SweepSpec(d_values=(48,), mu_values=(4.0, 8.0), seeds=(0,),
                         base=tiny_config(steps=30))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_json()))
        code = cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out"), "--threads", "2"])
        assert code == 0
        lines = (tmp_path / "out" / "heatmap.csv").read_text().splitlines()
        assert len(lines) == 3


class TestBlasDeterminism:
    """Outputs are byte-identical at a fixed BLAS configuration; across BLAS
    thread counts the reduction order may change, so they agree to 1e-12
    instead."""

    def run_cli(self, tmp_path, name, blas_threads):
        cfg = ExperimentConfig(
            data=DataConfig(n=16, T=6, d=800, mu_norm=12.0, sigma_eps=1.0,
                            eta=0.2, rho=0.1),
            train=TrainConfig(alpha=5e-3, steps=300, log_every=10,
                              test_size=400),
            seed=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_json()))
        src = os.path.dirname(os.path.dirname(attnsim.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = tmp_path / name
        subprocess.run([sys.executable, "-m", "attnsim.cli", "run", "--config",
                        str(path), "--out-dir", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        return out

    @staticmethod
    def numbers(out):
        with open(out / "trace.csv") as fh:
            rows = list(csv.reader(fh))
        final = json.loads((out / "summary.json").read_text())["final"]
        return (rows[0], np.array(rows[1:], dtype=float),
                np.array([v for _, v in sorted(final.items())], dtype=float))

    def test_fixed_blas_bytes_and_thread_counts(self, tmp_path):
        a = self.run_cli(tmp_path, "a", 1)
        b = self.run_cli(tmp_path, "b", 1)
        for name in ("trace.csv", "summary.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
        c = self.run_cli(tmp_path, "c", 2)
        (head_a, trace_a, final_a), (head_c, trace_c, final_c) = (
            self.numbers(a), self.numbers(c))
        assert head_a == head_c
        np.testing.assert_allclose(trace_c, trace_a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(final_c, final_a, rtol=1e-12, atol=1e-12)
