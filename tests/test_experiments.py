import csv
import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
import threading
import time
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

import attnsim
from attnsim import experiments, model
from attnsim.cli import (EXIT_CHECK_FAILED, EXIT_DIVERGED, EXIT_NUMERICAL,
                         EXIT_SYSTEM, EXIT_USAGE, _build_parser)
from attnsim.cli import main as cli_main
from attnsim.data import (ConfigError, DataConfig, a8_sigma,
                          generate_dataset, make_signals)
from attnsim.experiments import (ExperimentConfig, ModelParams, SweepSpec,
                                 build_inputs, default_config, run,
                                 run_check_suites, sweep, trace_table)
from attnsim.model import ModelState, init_params, make_head
from attnsim.rng import stream
from attnsim.theory import (SATURATION_LEVEL, TheoryReport, g_linearity,
                            loss_derivative_balance, pre_saturation_window)
from attnsim.train import TrainConfig, _SubspaceEngine, train


HERE = os.path.dirname(os.path.abspath(__file__))


def bench_module(monkeypatch, name):
    """Import ``perfbench/<name>.py`` without writing bytecode beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(
        f"_bench_{name}", os.path.join(HERE, os.pardir, "perfbench",
                                       f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


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

    # one instance of each section, some optional fields away from their
    # defaults, and a key it requires (None: every key is optional)
    SECTIONS = {
        "data": (lambda: replace(tiny_config().data, n_weak_same=2), "d"),
        "train": (lambda: TrainConfig(alpha=0.1, steps=5, test_size=0),
                  "alpha"),
        "model": (lambda: ModelParams(sigma_w=0.2), None),
        "experiment": (lambda: replace(tiny_config(seed=3),
                                       model=ModelParams(sigma_p=0.3)),
                       "train"),
        "sweep": (lambda: SweepSpec(d_values=(48, 64), mu_values=(4.0,),
                                    seeds=(0, 1), base=tiny_config()),
                  "base"),
    }

    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_round_trip(self, section):
        cfg = self.SECTIONS[section][0]()
        text = json.dumps(cfg.to_json())
        assert type(cfg).from_json(json.loads(text)) == cfg

    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_unknown_key(self, section):
        cfg = self.SECTIONS[section][0]()
        obj = cfg.to_json()
        obj["bogus"] = 1
        with pytest.raises(ConfigError, match=rf"unknown {type(cfg).__name__}"
                                              r" keys: \['bogus'\]"):
            type(cfg).from_json(obj)

    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_missing_required_key(self, section):
        make, required = self.SECTIONS[section]
        cls = type(make())
        obj = make().to_json()
        if required is None:    # every key is optional
            assert cls.from_json({}) == cls()
            return
        del obj[required]
        with pytest.raises(ConfigError, match=rf"missing {cls.__name__} "
                                              rf"keys: \['{required}'\]"):
            cls.from_json(obj)

    @pytest.mark.parametrize("value", [[1], "x"])
    @pytest.mark.parametrize("section", SECTIONS)
    def test_section_not_an_object(self, section, value):
        cls = type(self.SECTIONS[section][0]())
        with pytest.raises(ConfigError,
                           match=f"{cls.__name__} must be a JSON object"):
            cls.from_json(value)

    def test_nested_section_fault_names_it(self):
        obj = tiny_config().to_json()
        obj["train"] = [1]
        with pytest.raises(ConfigError, match="TrainConfig must be a JSON"):
            ExperimentConfig.from_json(obj)

    def test_config_hash_pinned(self, monkeypatch):
        # every summary.json and check report carries its config's hash
        workloads = bench_module(monkeypatch, "workloads")
        hashes = {name: workloads.regime_config(d, mu, steps, every, 3)
                  .config_hash()
                  for name, d, mu, steps, every in workloads.REGIMES}
        assert hashes == {"harmful": "1cf4645df8fe",
                          "benign": "577bd233f97b",
                          "not-overfitting": "450af5b32b36"}
        assert default_config().config_hash() == "d59327855822"
        assert workloads.heatmap_spec(7).base.config_hash() == "e8785f3df1d5"

    def test_readme_schema_loads(self):
        # the documented example writes every key of a valid config
        with open(os.path.join(HERE, os.pardir, "README.md")) as fh:
            text = fh.read()
        block = (text.split("### Config schema", 1)[1]
                 .split("```json\n", 1)[1].split("```", 1)[0])
        obj = json.loads(block)
        assert ExperimentConfig.from_json(obj).to_json() == obj


class TestRun:
    def test_artifacts_and_summary(self, tmp_path):
        art = run(tiny_config(), tmp_path)
        assert (tmp_path / "trace.csv").exists()
        assert (tmp_path / "summary.json").exists()
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["config"] == art.summary["config"]
        assert ExperimentConfig.from_json(summary["config"]) == tiny_config()
        assert summary["final"]["step"] == 60
        assert summary["diverged_at"] is None
        assert summary["divergence"] is None
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


class TestBuildInputs:
    """W(0) is drawn on a second thread while the data are drawn, and
    V = W(0) B^T is formed a row block at a time by both threads; every
    array, the engine's products and the trace must still equal a serial
    draw from the same named stream followed by training on the held
    W(0), whose products the engine forms itself."""

    @pytest.mark.parametrize("d, sigma_w, sigma_p", [
        (8, None, None), (1000, None, None), (768, None, None),
        (600, 0.0, None), (600, None, 0.0)],
        ids=["8", "1000", "768", "600-sigma_w0", "600-sigma_p0"])
    def test_bit_equal_to_serial_draws(self, d, sigma_w, sigma_p):
        # 1000 and 600 end in a ragged row block, 768 in a whole one
        cfg = tiny_config(seed=5)
        cfg = replace(cfg, data=replace(cfg.data, d=d),
                      model=ModelParams(sigma_w=sigma_w, sigma_p=sigma_p))
        dataset, test_set, state0 = build_inputs(cfg)

        ref_signals = make_signals(d, cfg.data.mu_norm, stream(5, "signals"))
        ref_data = generate_dataset(cfg.data, ref_signals, stream(5, "data"))
        ref_test = generate_dataset(
            replace(cfg.data, n=cfg.train.test_size, eta=0.0), ref_signals,
            stream(5, "test"))
        ref_W, ref_p = init_params(d, *cfg.resolved_sigmas(),
                                   stream(5, "init"))
        assert np.array_equal(dataset.signals.mu_plus, ref_signals.mu_plus)
        assert np.array_equal(dataset.signals.mu_minus, ref_signals.mu_minus)
        for got, ref in ((dataset, ref_data), (test_set, ref_test)):
            assert np.array_equal(got.X, ref.X)
            assert np.array_equal(got.y_train, ref.y_train)
            assert np.array_equal(got.y_true, ref.y_true)
        assert np.array_equal(state0.W, ref_W)
        assert np.array_equal(state0.p, ref_p)
        if sigma_w == 0.0:
            assert not ref_W.any()
            assert np.array_equal(ref_p, stream(5, "init").normal(
                0.0, cfg.resolved_sigmas()[1], size=d))
        if sigma_p == 0.0:
            assert not ref_p.any()

        ref_state = ModelState(W=ref_W, p=ref_p, nu=make_head(ref_signals))
        alpha = cfg.train.alpha
        eng = _SubspaceEngine(state0, dataset, alpha)
        ref_eng = _SubspaceEngine(ref_state, ref_data, alpha)
        N = eng.N
        assert eng._P is state0.init.P
        assert eng._P.tobytes() == ref_eng._P.tobytes()      # [p0 | V]
        assert eng._B.tobytes() == ref_eng._B.tobytes()
        assert (eng._KP[:N + 1].tobytes()                     # K = P^T P
                == ref_eng._KP[:N + 1].tobytes())

        got = train(state0, dataset, cfg.train,
                    test_set=test_set).trace
        ref = train(ref_state, ref_data, cfg.train,
                    test_set=ref_test).trace
        assert trace_table(got, [0, 1]) == trace_table(ref, [0, 1])
        for name in ("test_loss", "scores", "outputs"):
            assert (getattr(got, name).tobytes()
                    == getattr(ref, name).tobytes())

    @pytest.mark.parametrize("case", ["other-dataset", "no-basis"])
    def test_fresh_products_unless_formed_on_this_dataset(self, case):
        # the engine takes B and V from state0's draw only when this
        # dataset's tokens are a view of its B; otherwise it forms them
        # from W(0), with the bits of training a held W(0)
        cfg = tiny_config(seed=5)
        dataset, test_set, state0 = build_inputs(cfg)
        held = ModelState(W=state0.W.copy(), p=state0.p, nu=state0.nu)
        if case == "no-basis":
            state0 = ModelState(
                W=model.InitDraw(cfg.data.d, cfg.resolved_sigmas()[0],
                                 stream(5, "init")),
                p=state0.p, nu=state0.nu)
            assert state0.init.B is None
        # the build's tokens again, owning their memory
        dataset = generate_dataset(cfg.data, dataset.signals,
                                   stream(5, "data"))
        assert dataset.X.base is None
        eng = _SubspaceEngine(state0, dataset, cfg.train.alpha)
        assert eng._P is not state0.init.P
        assert dataset.X.base is eng._B
        ref_data = generate_dataset(cfg.data, dataset.signals,
                                    stream(5, "data"))
        got = train(state0, dataset, cfg.train, test_set=test_set)
        ref = train(held, ref_data, cfg.train, test_set=test_set)
        assert got.trace.scores.tobytes() == ref.trace.scores.tobytes()
        assert got.trace.test_loss.tobytes() == ref.trace.test_loss.tobytes()
        assert (got.final_state().W.tobytes()
                == ref.final_state().W.tobytes())

    def test_without_test_set_other_arrays_unchanged(self):
        cfg = tiny_config(seed=2)
        full = build_inputs(cfg)
        bare = build_inputs(replace(cfg, train=replace(cfg.train,
                                                       test_size=0)))
        assert bare[1] is None
        assert np.array_equal(bare[0].X, full[0].X)
        assert np.array_equal(bare[0].y_train, full[0].y_train)
        assert np.array_equal(bare[2].W, full[2].W)
        assert np.array_equal(bare[2].p, full[2].p)

    def test_training_leaves_test_noise_unread(self):
        # the test set is scored through X alone, so its noise is never
        # regenerated
        cfg = tiny_config(seed=1)
        dataset, test_set, state0 = build_inputs(cfg)
        train(state0, dataset, cfg.train, test_set=test_set)
        assert "noise" not in test_set.__dict__

    @pytest.mark.parametrize("log_every, projected", [(20, False),
                                                      (1, True)])
    def test_token_draws_per_branch(self, monkeypatch, log_every, projected):
        # the direct branch draws each dataset's tokens once, beside W(0);
        # the projection branch leaves the 150 test samples to train, which
        # draws them in chunks and never holds them whole
        data_mod = importlib.import_module("attnsim.data")
        exact, drawn = data_mod._draw_tokens, []

        def counting(rng, config, signals, y_true):
            drawn.append(len(y_true))
            return exact(rng, config, signals, y_true)

        monkeypatch.setattr(data_mod, "_draw_tokens", counting)
        cfg = tiny_config(seed=4, log_every=log_every, test_size=150)
        assert experiments.projects_test_set(cfg.data, cfg.train) == projected
        dataset, test_set, state0 = build_inputs(cfg)
        assert drawn == ([8] if projected else [8, 150])
        train(state0, dataset, cfg.train, test_set=test_set)
        # chunks of a sixth of 150 samples, rounded up to 32
        assert drawn == ([8, 32, 32, 32, 32, 22] if projected else [8, 150])
        assert ("X" in test_set.__dict__) != projected

    def test_init_error_propagates_and_thread_ends(self, monkeypatch):
        def failing_init(*args, **kwargs):
            raise RuntimeError("init draw failed")

        monkeypatch.setattr(experiments, "init_params", failing_init)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="init draw failed"):
            build_inputs(tiny_config())
        assert set(threading.enumerate()) <= before

    def test_init_error_after_first_block_releases_waiting_thread(
            self, monkeypatch):
        # the calling thread forms the first block, then waits for rows
        # that never come: the failed draw must wake it, and build_inputs
        # must raise the draw's error instead of hanging
        first_formed = threading.Event()
        exact_multiply = model.InitDraw._multiply

        def multiply(self, lo, hi):
            exact_multiply(self, lo, hi)
            first_formed.set()

        def failing_init(d, sigma_w, sigma_p, rng, on_rows):
            def first_block_then_fail(W, lo, hi):
                on_rows(W, lo, hi)
                assert first_formed.wait(timeout=30)
                raise RuntimeError("init draw failed")
            return init_params(d, sigma_w, sigma_p, rng,
                               on_rows=first_block_then_fail)

        monkeypatch.setattr(model.InitDraw, "_multiply", multiply)
        monkeypatch.setattr(experiments, "init_params", failing_init)
        cfg = tiny_config()
        cfg = replace(cfg, data=replace(cfg.data, d=1000))
        errors = []

        def call():
            try:
                build_inputs(cfg)
            except RuntimeError as err:
                errors.append(err)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert len(errors) == 1 and "init draw failed" in str(errors[0])

    def test_every_block_formed_once_under_fast_switching(self, monkeypatch):
        # two-row blocks and a 1 us switch interval, for about a second:
        # build_inputs's two threads, and four threads taking the blocks of
        # one draw, form each block exactly once, and V equals the serial
        # routine's
        monkeypatch.setattr(model, "INIT_ROWS", 2)
        formed = []
        exact_multiply = model.InitDraw._multiply

        def multiply(self, lo, hi):
            formed.append((lo, hi))
            exact_multiply(self, lo, hi)

        monkeypatch.setattr(model.InitDraw, "_multiply", multiply)
        d = 301
        cfg = tiny_config()
        cfg = replace(cfg, data=replace(cfg.data, d=d))
        interval = sys.getswitchinterval()
        start, builds = time.monotonic(), 0
        sys.setswitchinterval(1e-6)
        try:
            while builds < 3 or time.monotonic() - start < 1.0:
                formed.clear()
                dataset, _, state0 = build_inputs(
                    replace(cfg, seed=builds))
                assert sorted(formed) == model.row_blocks(d)
                serial = model.InitDraw.of(state0.W, dataset)

                formed.clear()
                shared = model.InitDraw(d)
                takers = [threading.Thread(target=shared.form)
                          for _ in range(4)]
                for taker in takers:
                    taker.start()
                shared.set_basis(dataset)
                init_params(d, *cfg.resolved_sigmas(),
                            stream(builds, "init"), on_rows=shared.rows_drawn)
                for taker in takers:
                    taker.join(timeout=30)
                assert not any(taker.is_alive() for taker in takers)
                assert sorted(formed) == model.row_blocks(d)
                for got in (state0.init, shared):
                    assert got.P[:, 1:].tobytes() == serial.P[:, 1:].tobytes()
                builds += 1
        finally:
            sys.setswitchinterval(interval)
        assert time.monotonic() - start < 30


class TestBenchmarkTracer:
    """The benchmark's tracer (``perfbench/tracer.py``) wraps library
    functions at the names their callers import them under; each must
    exist and be the one a run calls."""

    def test_every_patched_name_is_called(self, monkeypatch):
        tracer_mod = bench_module(monkeypatch, "tracer")
        names = ("train", "make_signals", "generate_dataset", "init_params",
                 "make_head", "execute")
        before = {name: getattr(experiments, name) for name in names}
        with tracer_mod.Tracer().installed() as tracer:
            assert all(getattr(experiments, name) is not before[name]
                       for name in names)
            experiments.execute(tiny_config())
        assert {name: getattr(experiments, name) for name in names} == before
        assert {sp.name for sp in tracer.spans} == {
            "experiments.execute", "data.make_signals",
            "data.generate_dataset", "model.init_params", "model.make_head",
            "train.train"}
        assert tracer.counts["train.log_points"] == 4

    @pytest.mark.parametrize("train_only", [False, True])
    def test_installed_restores_every_name(self, monkeypatch, train_only):
        # in both modes the tracer finds every name it patches in the
        # experiments, cli and theory modules and the check suites, and
        # puts each one back on exit
        tracer_mod = bench_module(monkeypatch, "tracer")
        mods = [importlib.import_module(f"attnsim.{name}")
                for name in ("experiments", "cli", "theory")]
        before = [dict(vars(mod)) for mod in mods]
        suites = dict(experiments.CHECK_SUITES)
        with tracer_mod.Tracer().installed(train_only=train_only):
            patched = {(mod.__name__, name)
                       for mod, names in zip(mods, before)
                       for name, value in names.items()
                       if getattr(mod, name) is not value}
            wrapped = {s for s, fn in experiments.CHECK_SUITES.items()
                       if fn is not suites[s]}
        assert ("attnsim.experiments", "train") in patched
        assert len(patched) == 1 if train_only else len(patched) > 1
        assert wrapped == (set() if train_only else set(suites))
        for mod, names in zip(mods, before):
            assert all(getattr(mod, name) is value
                       for name, value in names.items())
        assert all(experiments.CHECK_SUITES[s] is fn
                   for s, fn in suites.items())


class TestBenchmarkWorkloads:
    """The benchmark's passes (``perfbench/workloads.py``) are ``attnsim``
    command lines over config files they write; each must parse, and each
    file must load, under the library and CLI of this tree."""

    @pytest.mark.parametrize("name", ["regimes", "heatmap", "checks"])
    def test_calls_parse_and_configs_load(self, monkeypatch, tmp_path, name):
        workloads = bench_module(monkeypatch, "workloads")
        calls = workloads.build(name, 7, str(tmp_path)).calls
        assert calls
        loaders = {"run": ExperimentConfig, "check": ExperimentConfig,
                   "sweep": SweepSpec}
        loaded = set()
        for call in calls:
            args = _build_parser().parse_args(list(call.argv))
            if args.config is not None:
                with open(args.config) as fh:
                    loaders[args.command].from_json(json.load(fh))
                loaded.add(os.path.realpath(args.config))
        assert loaded == {str(path.resolve())
                          for path in tmp_path.rglob("*.json")}


class TestInitLifetime:
    """The drawn W(0) is held until its last reader: the projection on the
    projection branch, V without a test set, the last scored block on the
    direct branch.  A read after that redraws it, bit-identical."""

    @staticmethod
    def drawn(cfg):
        inputs = build_inputs(cfg)
        return inputs, weakref.ref(inputs[2].init.W)

    def test_projection_branch_drops_it(self):
        cfg = tiny_config(seed=3, log_every=1)
        assert experiments.projects_test_set(cfg.data, cfg.train)
        (dataset, test_set, state0), ref = self.drawn(cfg)
        result = train(state0, dataset, cfg.train,
                       test_set=test_set)
        assert ref() is None
        assert result.final_state().W.shape == (64, 64)

    def test_without_test_set_dropped_before_the_loop(self):
        cfg = tiny_config(seed=3, test_size=0)
        (dataset, _, state0), ref = self.drawn(cfg)
        held = []
        train(state0, dataset, cfg.train,
              hooks=(lambda step, info: held.append(ref() is not None),))
        assert held == [False] * 4

    def test_direct_branch_holds_it_to_the_last_block(self, monkeypatch):
        cfg = tiny_config(seed=3, steps=100, log_every=1)
        cfg = replace(cfg, data=replace(cfg.data, n=30))   # 123 rows
        assert not experiments.projects_test_set(cfg.data, cfg.train)
        (dataset, test_set, state0), ref = self.drawn(cfg)
        train_mod = importlib.import_module("attnsim.train")
        monkeypatch.setattr(train_mod, "_TEST_BLOCK", 32)
        scoring_cls = train_mod._TestScoring
        exact_block, held = scoring_cls._block, []

        def block(self, lo, hi):
            held.append(ref() is not None)
            exact_block(self, lo, hi)

        monkeypatch.setattr(scoring_cls, "_block", block)
        train(state0, dataset, cfg.train, test_set=test_set)
        assert held == [True] * 4       # 101 logged states, blocks of 32
        assert ref() is None

    def test_execute_does_not_pin_it(self, monkeypatch):
        refs = []

        def recording(cfg):
            inputs = build_inputs(cfg)
            refs.append(weakref.ref(inputs[2].init.W))
            return inputs

        monkeypatch.setattr(experiments, "build_inputs", recording)
        for log_every in (1, 20):       # projection branch, direct branch
            result = experiments.execute(tiny_config(log_every=log_every))
            assert refs[-1]() is None
            assert result.final_state() is not None

    @pytest.mark.parametrize("d", [300, 1000])
    def test_redrawn_equals_drawn(self, d):
        # 300 and 1000 end in a ragged row block
        cfg = tiny_config(seed=7)
        cfg = replace(cfg, data=replace(cfg.data, d=d))
        dataset, test_set, state0 = build_inputs(cfg)
        ref_W, ref_p = init_params(d, *cfg.resolved_sigmas(),
                                   stream(7, "init"))
        assert state0.W is state0.init.W
        state0.release()
        assert state0.init.W is None
        assert state0.W is not state0.W         # redrawn on each read
        assert state0.W.tobytes() == ref_W.tobytes()
        # the final state of a released W(0) against that of a held one
        ref_state = ModelState(W=ref_W, p=ref_p, nu=state0.nu)
        final = train(state0, dataset, cfg.train,
                      test_set=test_set).final_state()
        ref = train(ref_state, dataset, cfg.train,
                    test_set=test_set).final_state()
        assert final.W.tobytes() == ref.W.tobytes()
        assert final.p.tobytes() == ref.p.tobytes()

    def test_redraw_checks_each_block(self):
        init = model.InitDraw(300, 1e308, stream(0, "init"))
        with pytest.raises(ValueError, match="W contains non-finite"):
            init.array()

    def test_training_tokens_held_once(self):
        dataset, _, state0 = build_inputs(tiny_config())
        n, T, d = dataset.X.shape
        assert dataset.X.base is state0.init.B
        assert np.array_equal(state0.init.B[:n * T],
                              dataset.X.reshape(n * T, d))


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

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        # eight threads whatever the machine has, past the pool's cap
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 8)
        sweep(self.spec(), threads=1, out_dir=tmp_path / "t1")
        sweep(self.spec(), threads=8, out_dir=tmp_path / "t8")
        for name in ("heatmap.csv", "heatmap_mean.csv"):
            assert ((tmp_path / "t1" / name).read_bytes()
                    == (tmp_path / "t8" / name).read_bytes())

    def test_cells_run_largest_d_first(self, monkeypatch):
        # the largest cells run before the small ones have grown the heap
        ran = []
        real_execute = experiments.execute

        def execute(config):
            ran.append(config.data.d)
            return real_execute(config)

        monkeypatch.setattr(experiments, "execute", execute)
        sweep(self.spec(), threads=1)
        assert ran == [64] * 4 + [48] * 4

    def test_pool_capped_at_cpu_count(self, monkeypatch):
        # more sweep threads than cores run as many threads as cores
        pools = []
        real_pool = experiments.ThreadPoolExecutor

        def pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(experiments, "ThreadPoolExecutor", pool)
        rows, _ = sweep(self.spec(), threads=8)
        assert len(rows) == 8
        # build_inputs opens a one-worker pool per cell for the W(0) draw
        assert sorted(pools) == [1] * 8 + [2]

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

    def test_repeated_suite_rejected_before_any_runs(self, monkeypatch):
        def ran(config):
            raise AssertionError("a suite ran")

        monkeypatch.setitem(experiments.CHECK_SUITES, "gradients", ran)
        with pytest.raises(ConfigError, match="identities"):
            run_check_suites(default_config(),
                             ["gradients", "identities", "identities"])

    def test_goodrun_rows(self):
        rows = run_check_suites(default_config(), ["goodrun"]).to_json()
        assert [r["name"] for r in rows] == [f"good_run_{event}" for event in (
            "norm_eps", "inner_eps_eps", "norm_W_mu_plus", "norm_W_mu_minus",
            "norm_W_eps", "norm_p", "inner_Wmu_Wmu", "inner_Wmu_Weps",
            "inner_Weps_Weps", "inner_Wmu_p", "inner_Weps_p", "inner_mu_eps",
            "inner_nu_eps")]
        for r in rows:
            assert set(r["threshold"]) == {"lo", "hi"}
            assert r["threshold"]["lo"] is None

    @pytest.mark.parametrize("suite", ["softmax", "glinearity"])
    def test_short_run_suites_ignore_the_test_set(self, monkeypatch, suite):
        config = default_config()
        assert config.train.test_size == 400
        short_run = experiments._short_run
        traces = []

        def recorded(cfg, cap, until=None):
            traces.append(short_run(cfg, cap, until))
            return traces[-1]

        monkeypatch.setattr(experiments, "_short_run", recorded)
        without = run_check_suites(config, [suite]).to_json()
        assert np.isnan(traces[-1].test_acc).all()

        def with_test_set(cfg, cap, until=None):
            # the capped run as it was, scoring the config's held-out set
            trace = experiments.execute(replace(cfg, train=replace(
                cfg.train, steps=min(cfg.train.steps, cap))), until).trace
            assert not np.isnan(trace.test_acc).any()
            return trace

        monkeypatch.setattr(experiments, "_short_run", with_test_set)
        assert run_check_suites(config, [suite]).to_json() == without

    @staticmethod
    def glinearity_run(monkeypatch, config):
        """The glinearity row of ``config``, the capped config and stop
        rule its run was given, and the trace that run returned."""
        short_run, runs = experiments._short_run, []

        def recorded(cfg, cap, until=None):
            runs.append((cfg, cap, short_run(cfg, cap, until)))
            return runs[-1][2]

        monkeypatch.setattr(experiments, "_short_run", recorded)
        row, = run_check_suites(config, ["glinearity"]).to_json()
        (cfg, cap, stopped), = runs
        return row, cfg, cap, stopped

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_glinearity_row_equals_the_uncapped_fit(self, monkeypatch, seed):
        # the run stops where the window ends; the row is the fit over the
        # window of the run trained to its cap
        row, cfg, cap, stopped = self.glinearity_run(
            monkeypatch, replace(default_config(), seed=seed))
        whole = experiments._short_run(cfg, cap)
        window = pre_saturation_window(whole)
        fit = g_linearity(whole, whole.clean_idx, "Lambda", window).pooled
        assert row["measured"] == {"slope": fit.slope, "r2": fit.r2,
                                   "window": list(window)}
        assert stopped.steps[-1] == window[1] < whole.steps[-1]
        assert stopped.meta == whole.meta

    @pytest.mark.parametrize("sigma, saturated", [
        pytest.param(0.0, False, id="never_saturates"),
        pytest.param(0.1, True, id="saturated_at_step_0"),
    ])
    def test_glinearity_trains_to_the_cap(self, monkeypatch, sigma,
                                          saturated):
        # a window that runs to the last row is not stopped: at the zero
        # init no softmax leaves 1/T, and at this init scale some sample's
        # relevant token already passes the level at step 0
        config = replace(default_config(),
                         model=ModelParams(sigma_w=sigma, sigma_p=sigma))
        _, cfg, cap, stopped = self.glinearity_run(monkeypatch, config)
        assert stopped.steps[-1] == min(cfg.train.steps, cap) == 3000
        s1_max = stopped.probs[:, :, 0].max(axis=1)
        assert bool(s1_max[0] > SATURATION_LEVEL) == saturated
        assert (s1_max > SATURATION_LEVEL).any() == saturated

    def test_inputs_built_once_and_dropped_after_last_reader(
            self, monkeypatch):
        config = default_config()
        apart = (run_check_suites(config, ["init"]).to_json()
                 + run_check_suites(config, ["goodrun"]).to_json())
        build, refs, dropped = experiments._build_train_inputs, [], []

        def recording(cfg):
            inputs = build(cfg)
            refs.append(weakref.ref(inputs[2].init.W))
            return inputs

        def later_suite(cfg):
            dropped.append(refs[0]() is None)
            return TheoryReport()

        monkeypatch.setattr(experiments, "_build_train_inputs", recording)
        monkeypatch.setitem(experiments.CHECK_SUITES, "gradients",
                            later_suite)
        shared = run_check_suites(config, ["init", "goodrun", "gradients"])
        assert len(refs) == 1 and dropped == [True]
        assert shared.to_json() == apart

    def test_gradient_suite_passes(self):
        rep = run_check_suites(default_config(), ["gradients"])
        assert rep.passed_all
        assert rep.config_hash

    def test_report_json_fields(self):
        rep = run_check_suites(default_config(), ["identities"])
        for row in rep.to_json():
            assert set(row) >= {"name", "pass", "measured", "threshold",
                                "config_hash", "seed"}
        goodrun = run_check_suites(default_config(), ["goodrun"]).to_json()
        assert goodrun
        for row in goodrun:
            assert row["name"].startswith("good_run_")
            assert set(row["measured"]) == {"measured", "vacuous"}
            assert set(row["threshold"]) == {"lo", "hi"}


@pytest.mark.parametrize("module", [
    "attnsim.data", "attnsim.model", "attnsim.multiclass", "attnsim.theory",
    "attnsim.train", "attnsim.experiments"])
def test_public_names_resolve(module):
    # a deletion that leaves a stale export fails here
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing


class TestCli:
    # keys the config no longer has: a config that still names one is
    # rejected as an unknown key, as one naming ``engine`` is
    REMOVED_KEYS = ("head_scale", "signal_mode", "assumption_delta",
                    "fit_threshold", "gen_threshold", "tracked_samples")

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
        code = cli_main(["run", "--config",
                         self.write_config(tmp_path, tiny_config(steps=0)),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 0
        lines = (tmp_path / "out" / "trace.csv").read_text().splitlines()
        assert len(lines) == 2

    def test_invalid_config_exit_two(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"data": {"n": 4}, "train": {}}))
        assert cli_main(["run", "--config", str(bad),
                         "--out-dir", str(tmp_path)]) == 2

    def test_missing_file_exit_two(self, tmp_path):
        assert cli_main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out-dir", str(tmp_path / "out")]) == 2

    def test_check_empty_suite_usage_error(self, tmp_path):
        assert cli_main(["check", "--config", self.write_config(tmp_path),
                         "--suite", ""]) == 2

    def test_check_repeated_suite_usage_error(self, capsys):
        assert cli_main(["check", "--suite",
                         "identities,identities"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config error" in captured.err
        assert "identities" in captured.err

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

    @pytest.mark.parametrize("data_kw", [
        pytest.param(dict(T=2, n_weak_same=0), id="T2"),
        pytest.param(dict(d=2), id="d2"),
    ])
    def test_check_etf_on_smallest_configs(self, tmp_path, capsys, data_kw):
        # the smallest T and d a config admits: the suite sizes its
        # multiclass check to fit them, so no error is found mid-suite
        base = tiny_config()
        cfg = replace(base, data=replace(base.data, **data_kw))
        code = cli_main(["check", "--config", self.write_config(tmp_path, cfg),
                         "--suite", "etf"])
        assert code in (0, 1)
        assert "etf_head_gradient" in capsys.readouterr().out

    @pytest.mark.parametrize("kw, reason", [
        pytest.param(dict(train=dict(steps=5)),
                     "window (5, 5) selects fewer than 2", id="steps5"),
        pytest.param(dict(train=dict(steps=0)),
                     "window (0, 0) selects fewer than 2", id="steps0"),
        pytest.param(dict(data=dict(n=2, eta=0.45), seed=9),
                     "no gap series selected", id="no_clean_sample"),
    ])
    def test_check_glinearity_without_a_fit(self, tmp_path, capsys, kw,
                                            reason):
        # configs that `run` trains: too few logged points in the window,
        # or no clean sample to fit; the row fails and every suite prints
        base = default_config()
        cfg = replace(base, seed=kw.get("seed", base.seed),
                      **{k: replace(getattr(base, k), **kw[k])
                         for k in ("data", "train") if k in kw})
        code = cli_main(["check", "--config", self.write_config(tmp_path, cfg),
                         "--suite", "all"])
        out = capsys.readouterr()
        assert code == EXIT_CHECK_FAILED
        assert "g_linearity_clean" in out.err
        rows = {r["name"]: r for r in json.loads(out.out)}
        assert {"gradient_oracle", "etf_head_gradient"} <= set(rows)
        row = rows["g_linearity_clean"]
        assert row["measured"]["slope"] is None
        assert row["measured"]["r2"] is None
        assert reason in row["note"]

    def test_check_glinearity_degenerate_fit(self, tmp_path, capsys):
        # at the zero init every score stays 0, so g(Lambda) is constant
        # and its fit has no r2; at sigma 1 the gaps reach about 1000 and
        # g's sinh overflows, so the fit is not finite.  Either row prints
        # as strict JSON and fails, and nothing warns on stderr
        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        for sigma, slope, note in ((0.0, 0.0, "degenerate fit"),
                                   (1.0, None, "non-finite fit")):
            cfg = replace(default_config(),
                          model=ModelParams(sigma_w=sigma, sigma_p=sigma))
            code = cli_main(["check", "--config",
                             self.write_config(tmp_path, cfg),
                             "--suite", "glinearity"])
            out = capsys.readouterr()
            assert code == EXIT_CHECK_FAILED
            assert out.err == "failed checks: g_linearity_clean\n"
            row, = json.loads(out.out, parse_constant=reject)
            assert row["measured"]["slope"] == slope
            assert row["measured"]["r2"] is None
            assert row["note"].startswith(note)

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
        assert summary["divergence"]["step"] == 1
        assert summary["divergence"]["quantity"] == "u"
        assert set(summary["divergence"]["last_finite"]) == {
            "max_abs_u", "a", "pi_norm"}

    @pytest.mark.parametrize("suite", ["softmax", "glinearity"])
    def test_check_divergence_exit_three(self, tmp_path, capsys, suite):
        # the suite's short run diverges as the run above does
        cfg = tiny_config(alpha=1e305, steps=10, log_every=1, test_size=0)
        code = cli_main(["check", "--config",
                         self.write_config(tmp_path, cfg), "--suite", suite])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("training diverged: non-finite u at step 1")

    def test_step_zero_divergence_exit_three(self, tmp_path):
        # V = W(0) B^T is finite but P^T P overflows, so the step-0 scores
        # are already non-finite: no row is logged, and nothing warns
        base = default_config()
        cfg = replace(base, train=replace(base.train, steps=5),
                      model=ModelParams(sigma_w=1e200))
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config",
                             self.write_config(tmp_path, cfg),
                             "--out-dir", str(out)])
        assert code == EXIT_DIVERGED
        assert not caught
        assert (out / "trace.csv").read_text().count("\n") == 1  # header
        summary = json.loads((out / "summary.json").read_text())
        assert summary["diverged_at"] == 0
        assert summary["divergence"] == {"step": 0, "quantity": "u",
                                         "last_finite": None}
        assert summary["final"] is None
        assert summary["theory_digest"] == {}

    def test_overflowing_w0_fails_goodrun_exit_one(self, tmp_path, capsys):
        # at sigma_w = 1e200 the products and norms of W(0) overflow: each
        # bounded event of W(0) alone fails on its inf or NaN value, and
        # nothing warns
        cfg = replace(default_config(), model=ModelParams(sigma_w=1e200))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["check", "--config",
                             self.write_config(tmp_path, cfg),
                             "--suite", "goodrun"])
        assert code == EXIT_CHECK_FAILED
        assert not caught
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("failed checks: ")
        assert set(err[0][len("failed checks: "):].split(", ")) == {
            f"good_run_{event}" for event in (
                "norm_W_mu_plus", "norm_W_mu_minus", "norm_W_eps",
                "inner_Wmu_Wmu", "inner_Wmu_Weps", "inner_Weps_Weps")}

    def test_step_zero_divergence_message(self, tmp_path, capsys):
        base = default_config()
        cfg = replace(base, train=replace(base.train, steps=5),
                      model=ModelParams(sigma_w=1e200))
        code = cli_main(["run", "--config", self.write_config(tmp_path, cfg),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "training diverged: non-finite u at step 0, before any finite "
            "state\n")

    @pytest.mark.parametrize("command, computes",
                             [("run", "execute"), ("sweep", "_sweep_cell")])
    def test_out_dir_is_a_file_exit_two(self, tmp_path, capsys, monkeypatch,
                                         command, computes):
        def computed(*args, **kwargs):
            raise AssertionError(f"{computes} ran")

        monkeypatch.setattr(experiments, computes, computed)
        config = self.write_config(tmp_path)
        if command == "sweep":
            spec = SweepSpec(d_values=(48,), mu_values=(4.0,), seeds=(0,),
                             base=tiny_config())
            with open(config, "w") as fh:
                json.dump(spec.to_json(), fh)
        out = tmp_path / "out"
        out.write_text("")
        code = cli_main([command, "--config", config, "--out-dir", str(out)])
        assert code == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "config error: cannot create output directory")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("section, key, value", [
        (None, "engine", "subspace"),
        # tracked_samples, a REMOVED_KEYS key, at values once rejected for
        # their range or type
        (None, "tracked_samples", [99]),
        ("model", "sigma_w", -1.0),
        ("model", "sigma_p", -0.5),
        ("data", "d", 1),
        # values of the wrong JSON type
        (None, "seed", "abc"),
        (None, "seed", 1.7),
        (None, "seed", True),
        (None, "seed", -1),
        (None, "tracked_samples", 5),
        (None, "tracked_samples", [1.0]),
        (None, "tracked_samples", [0, 0]),
        ("data", "n", "20"),
        ("data", "d", 800.5),
        ("data", "mu_norm", "6"),
        ("train", "steps", "10"),
        ("train", "alpha", "x"),
        ("model", "sigma_w", "0.1"),
        # JSON's NaN: sigma_w > 0 is false for it, so W(0) would be zero
        ("model", "sigma_w", math.nan),
        # REMOVED_KEYS, at their old defaults and at values once rejected
        # for their range
        ("model", "head_scale", "inverse_mu"),
        ("model", "signal_mode", "random_orthogonal"),
        ("model", "assumption_delta", 1.0),
        ("model", "assumption_delta", 32.0),
        ("train", "fit_threshold", 1.0),
        ("train", "gen_threshold", 0.95),
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

    @pytest.mark.parametrize("value", [
        math.nan, math.inf, -math.inf,
        pytest.param(10 ** 400, id="int-beyond-float")])
    @pytest.mark.parametrize("section, key", [
        ("data", "mu_norm"), ("data", "sigma_eps"), ("data", "eta"),
        ("data", "rho"), ("train", "alpha"), ("train", "fit_threshold"),
        ("train", "gen_threshold"), ("model", "sigma_w"),
        ("model", "sigma_p"), ("model", "head_scale"),
        ("model", "assumption_delta"),
    ])
    def test_non_finite_real_rejected_at_load(self, section, key, value):
        obj = tiny_config().to_json()
        obj[section][key] = value
        match = (rf"unknown \w+ keys: \['{key}'\]" if key in self.REMOVED_KEYS
                 else f"{key} must be finite")
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_json(obj)

    @pytest.mark.parametrize("key, value, match", [
        ("d_values", [48, 1], "d must be"),
        ("d_values", 5, "d_values"),
        ("d_values", [48.5], "d_values"),
        ("mu_values", ["4"], "mu_values"),
        ("mu_values", [4.0, math.inf], "mu_values must be finite"),
        ("seeds", [0.5], "seeds"),
        ("seeds", [0, -1], "seeds"),
        ("d_values", [48, 48], "d_values repeats"),
        ("mu_values", [4, 4.0], "mu_values repeats"),
        ("seeds", [1, 1], "seeds repeats"),
    ], ids=["d-below-two", "d-not-list", "d-float", "mu-string",
            "mu-infinite", "seed-float", "seed-negative", "d-repeated",
            "mu-repeated", "seed-repeated"])
    def test_sweep_cell_fault_rejected_at_load(self, tmp_path, capsys, key,
                                               value, match):
        spec = SweepSpec(d_values=(48,), mu_values=(4.0,), seeds=(0,),
                         base=tiny_config()).to_json()
        spec[key] = value
        with pytest.raises(ConfigError, match=match):
            SweepSpec.from_json(spec)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec))
        assert cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out")]) == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()   # nothing ran

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_sweep_threads_below_one_rejected(self, tmp_path, capsys,
                                              threads):
        spec = SweepSpec(d_values=(48,), mu_values=(4.0,), seeds=(0,),
                         base=tiny_config())
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_json()))
        code = cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out"), "--threads", threads])
        assert code == EXIT_USAGE
        assert "config error: threads" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()   # nothing ran

    def test_overflowing_init_scale_exit_four(self, tmp_path, capsys):
        # sigma_w = 1e308 overflows W(0) in its first row block: the draw
        # raises there, before V is formed from it, and nothing warns
        cfg = replace(tiny_config(), model=ModelParams(sigma_w=1e308))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", "--config",
                             self.write_config(tmp_path, cfg),
                             "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert not caught
        assert (capsys.readouterr().err
                == "numerical error: W contains non-finite entries\n")

    def test_numerical_error_exit_four(self, tmp_path, capsys, monkeypatch):
        # a ValueError raised while computing is not a config error, also
        # when the worker that scores the test set raises it
        def nonfinite(*args, **kwargs):
            raise ValueError("softmax input must be finite")

        monkeypatch.setattr(importlib.import_module("attnsim.train")
                            ._TestScoring, "_block", nonfinite)
        code = cli_main(["run", "--config", self.write_config(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical error: softmax input must be finite" in err
        assert "config error" not in err

    def test_arithmetic_error_exit_four(self, tmp_path, capsys, monkeypatch):
        def overflow(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(experiments, "loss_derivative_balance", overflow)
        code = cli_main(["run", "--config", self.write_config(tmp_path),
                         "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_NUMERICAL
        assert "numerical error: math range error" in capsys.readouterr().err

    @pytest.mark.parametrize("error", [
        OSError(28, "No space left on device"),
        MemoryError("Unable to allocate 186. GiB for an array with shape "
                    "(5000, 5000000) and data type float64")])
    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    def test_system_error_exit_five(self, tmp_path, capsys, monkeypatch,
                                    command, error):
        # the error is raised, never provoked: no test allocates for real
        def fail(*args, **kwargs):
            raise error

        config = self.write_config(tmp_path)
        argv = [command, "--config", config, "--out-dir", str(tmp_path / "o")]
        if command == "run":
            monkeypatch.setattr(experiments, "execute", fail)
        elif command == "sweep":
            monkeypatch.setattr(experiments, "_sweep_cell", fail)
            spec = SweepSpec(d_values=(48,), mu_values=(4.0,), seeds=(0,),
                             base=tiny_config())
            with open(config, "w") as fh:
                json.dump(spec.to_json(), fh)
        else:
            monkeypatch.setitem(experiments.CHECK_SUITES, "gradients", fail)
            argv = ["check", "--config", config, "--suite", "gradients"]
        assert cli_main(argv) == EXIT_SYSTEM
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"system error: {type(error).__name__}: {error}\n")

    @staticmethod
    def refuse_w0(monkeypatch, d):
        # np.empty raises for W(0)'s shape alone, as an allocation too
        # large for the machine would; nothing is allocated for real
        empty = np.empty

        def refusing(shape, *args, **kwargs):
            if shape == (d, d):
                raise MemoryError(f"Unable to allocate array {shape}")
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", refusing)

    def test_w0_memory_error_names_array_and_size(self, monkeypatch):
        self.refuse_w0(monkeypatch, 5000)
        with pytest.raises(MemoryError) as info:
            init_params(5000, 0.1, 0.1, stream(0, "init"))
        assert str(info.value) == "W(0): 5000x5000 float64, 200000000 bytes"
        assert isinstance(info.value.__cause__, MemoryError)

    @pytest.mark.parametrize("command", ["run", "sweep", "check"])
    def test_w0_memory_error_exit_five(self, tmp_path, capsys, monkeypatch,
                                       command):
        config = self.write_config(tmp_path)
        argv = [command, "--config", config, "--out-dir", str(tmp_path / "o")]
        d = tiny_config().data.d
        if command == "sweep":
            d = 48
            spec = SweepSpec(d_values=(d,), mu_values=(4.0,), seeds=(0,),
                             base=tiny_config())
            with open(config, "w") as fh:
                json.dump(spec.to_json(), fh)
        elif command == "check":
            argv = ["check", "--config", config, "--suite", "goodrun"]
        self.refuse_w0(monkeypatch, d)
        assert cli_main(argv) == EXIT_SYSTEM
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"system error: MemoryError: W(0): {d}x{d} "
                                f"float64, {8 * d * d} bytes\n")

    def test_trace_path_is_a_directory_exit_five(self, tmp_path):
        # the out-dir exists and is writable, so this fails only when the
        # trace is written; a subprocess shows what reaches stderr
        out = tmp_path / "out"
        (out / "trace.csv").mkdir(parents=True)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(attnsim.__file__)),
            os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "attnsim.cli", "run", "--config",
             self.write_config(tmp_path), "--out-dir", str(out)],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == EXIT_SYSTEM
        assert proc.stdout == ""
        assert proc.stderr.count("\n") == 1
        assert proc.stderr.startswith("system error: IsADirectoryError: ")
        assert "trace.csv" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_large_head_scale_run_completes(self):
        # a head of norm 1000, not 1/||mu||: outputs reach |f| ~ 1600
        # without diverging, past where e^|f| overflows, so the balance
        # check must not form it
        cfg = ExperimentConfig(
            data=DataConfig(n=8, T=4, d=64, mu_norm=5.0, sigma_eps=1.0,
                            eta=0.25, rho=0.2),
            train=TrainConfig(alpha=5e-3, steps=50, log_every=10,
                              test_size=50),
            seed=0)
        dataset, test_set, state0 = build_inputs(cfg)
        diff = dataset.signals.mu_plus - dataset.signals.mu_minus
        state = ModelState(W=state0.W, p=state0.p,
                           nu=1000.0 * diff / float(np.linalg.norm(diff)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = train(state, dataset, cfg.train,
                          test_set=test_set).trace
            check = loss_derivative_balance(trace)
        assert trace.diverged_at is None
        assert check.measured["max_abs_output"] > 1500.0
        assert check.passed

    def test_sweep_cli(self, tmp_path, capsys):
        spec = SweepSpec(d_values=(48,), mu_values=(4.0, 8.0), seeds=(0,),
                         base=tiny_config(steps=30))
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_json()))
        code = cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out"), "--threads", "2"])
        assert code == 0
        assert capsys.readouterr().err == ""
        lines = (tmp_path / "out" / "heatmap.csv").read_text().splitlines()
        assert len(lines) == 3

    def test_sweep_divergence_exit_three(self, tmp_path, capsys):
        # the cell's step-0 scores overflow: its row stays nan, and the CLI
        # names the cell and its divergence record after writing the CSVs
        base = ExperimentConfig(
            data=DataConfig(n=20, T=8, d=100, mu_norm=20.0, sigma_eps=1.0,
                            eta=0.2, rho=0.1),
            train=TrainConfig(alpha=5e-3, steps=50),
            model=ModelParams(sigma_w=1e160, sigma_p=1e160))
        spec = SweepSpec(d_values=(100,), mu_values=(20.0,), seeds=(0,),
                         base=base)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(spec.to_json()))
        code = cli_main(["sweep", "--config", str(path), "--out-dir",
                         str(tmp_path / "out")])
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == (
            "training diverged: d=100, mu_norm=20.0, seed=0: non-finite u "
            "at step 0, before any finite state\n")
        assert (tmp_path / "out" / "heatmap.csv").read_text() == (
            "d,mu_norm,seed,train_loss,test_loss,train_acc,test_acc\n"
            "100,20.0,0,nan,nan,nan,nan\n")


class TestBlasDeterminism:
    """Outputs are byte-identical at a fixed BLAS configuration; across BLAS
    thread counts the reduction order may change, so they agree to 1e-12
    instead."""

    CONFIG = ExperimentConfig(
        data=DataConfig(n=16, T=6, d=800, mu_norm=12.0, sigma_eps=1.0,
                        eta=0.2, rho=0.1),
        train=TrainConfig(alpha=5e-3, steps=300, log_every=10, test_size=400),
        seed=3)

    def run_cli(self, tmp_path, name, blas_threads, cfg=CONFIG):
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

    @pytest.mark.slow
    def test_thread_counts_at_benign_point(self, tmp_path):
        # the benign acceptance point at full length: 20k steps, 2001
        # logged states, the test set scored through its projection
        data = DataConfig(n=20, T=8, d=2000, mu_norm=20.0, sigma_eps=1.0,
                          eta=0.2, rho=0.1, n_weak_same=1)
        s = 3.0 * a8_sigma(data)
        cfg = ExperimentConfig(
            data=data, model=ModelParams(sigma_w=s, sigma_p=s),
            train=TrainConfig(alpha=5e-3, steps=20000, log_every=10,
                              test_size=1000),
            seed=3)
        assert cfg.config_hash() == "577bd233f97b"    # as pinned above
        (head_a, trace_a, final_a), (head_b, trace_b, final_b) = (
            self.numbers(self.run_cli(tmp_path, name, threads, cfg))
            for name, threads in (("a", 1), ("b", 2)))
        assert head_a == head_b and len(trace_a) == 2001
        np.testing.assert_allclose(trace_b, trace_a, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(final_b, final_a, rtol=1e-12, atol=1e-12)
