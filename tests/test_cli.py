import hashlib
import os
import re
import subprocess
import sys
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from svafd import cli, config
from svafd.cli import cmd_attack_suite, cmd_single_round, cmd_table_error, cmd_timing, error_table, main
from svafd.config import ExperimentConfig, load_config, parse_config
from svafd.protocol import GROUP_FIELDS, PerfRecorder, RoundConfig

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


class TestConfigParsing:
    def test_round_trip_types(self):
        text = """
        # demo experiment
        n = 12
        r = 4
        sigma = 500.0          # overrides default
        grain = sample
        omega = 8
        straggler_ids = 1, 3
        sweep_n = 10, 12
        attacks = scale, server_tamper
        """
        cfg = parse_config(text)
        assert cfg.n == 12 and cfg.r == 4
        assert cfg.sigma == 500.0
        assert cfg.grain == "sample" and cfg.omega == 8
        assert cfg.straggler_ids == frozenset({1, 3})
        assert cfg.sweep_n == (10, 12)
        assert cfg.attacks == ("scale", "server_tamper")

    # after frobnicate: keys that took one value in every caller, now constants
    @pytest.mark.parametrize(
        "key",
        ["frobnicate", "p", "leader_in_group", "sharpness", "noise_scale", "attack_scale", "attack_sigma",
         "tamper_delta"],
    )
    def test_unknown_key_rejected(self, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            parse_config(f"{key} = 1")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_config("just some words")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("seed = 99\n")
        assert load_config(path).seed == 99

    def test_is_a_frozen_round_config(self):
        assert issubclass(ExperimentConfig, RoundConfig)
        assert not set(ExperimentConfig.__annotations__) & {f.name for f in fields(RoundConfig)}
        with pytest.raises(FrozenInstanceError):
            ExperimentConfig().seed = 1

    def test_docstring_lists_every_key(self):
        keys = re.findall(r"^    (\w+) =", config.__doc__, flags=re.MULTILINE)
        assert keys == [f.name for f in fields(ExperimentConfig)]


def tiny_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        n=6,
        r=4,
        k=2,
        t=1,
        d=5,
        samples=120,
        sweep_n=(8, 3),
        sweep_k=(1, 2),
        sweep_t=(1,),
        reps=2,
        omega=4,
        grain="class",
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestTableError:
    def test_grid_layout_and_na(self, tmp_path):
        path = cmd_table_error(tiny_cfg(), tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema: svafd.table_error.v1"
        assert lines[1] == "n,k1_t1,k2_t1"
        # n=3 with k=2, t=1 needs 3 shares: feasible; all cells numeric but
        # check an infeasible marker with a harsher sweep
        cfg = tiny_cfg(sweep_n=(3,), sweep_k=(3,), sweep_t=(2,))
        lines = cmd_table_error(cfg, tmp_path).read_text().splitlines()
        assert lines[2].split(",")[1] == "N/A"

    def test_cells_hit_precision_target(self, tmp_path):
        path = cmd_table_error(tiny_cfg(sweep_n=(10,), sweep_k=(2,), sweep_t=(1, 2)), tmp_path)
        rows = path.read_text().splitlines()[2].split(",")
        for cell in rows[1:]:
            assert float(cell) <= -6.0

    def test_byte_deterministic(self, tmp_path):
        cfg = tiny_cfg()
        a = cmd_table_error(cfg, tmp_path / "a").read_bytes()
        b = cmd_table_error(cfg, tmp_path / "b").read_bytes()
        assert a == b

    def test_small_sweep_pinned(self, tmp_path):
        cfg = ExperimentConfig(sweep_n=(20,), sweep_k=(2, 3), sweep_t=(1, 2), reps=2)
        digest = hashlib.sha256(cmd_table_error(cfg, tmp_path).read_bytes()).hexdigest()
        assert digest == "a830e35ee30c7edb1f9ab353dd2df65095d5fbbf00ee019c84a4b4864e3cd985"

    @staticmethod
    def sweep(sweep_n, sweep_k, sweep_t, **overrides):
        return ExperimentConfig(sweep_n=sweep_n, sweep_k=sweep_k, sweep_t=sweep_t, grain="sample", **overrides)

    def test_grid_marks_infeasible(self):
        table = error_table(self.sweep((12, 4), (2,), (1, 3), reps=2, seed=0, d=5, omega=4))
        assert table[(4, 2, 3)] is None  # threshold 5 > 4
        assert table[(12, 2, 1)] <= -6
        assert table[(12, 2, 3)] <= -6

    def test_table_deterministic(self):
        a = error_table(self.sweep((10,), (2,), (2,), reps=2, seed=9, d=4, omega=4))
        b = error_table(self.sweep((10,), (2,), (2,), reps=2, seed=9, d=4, omega=4))
        assert a == b

    def test_wider_anchor_circle_also_precise(self):
        # the circle radius is a knob: the error target must hold at 1.15 too
        table = error_table(self.sweep((20,), (3,), (3,), reps=2, seed=2, d=6, omega=8, radius=1.15))
        assert table[(20, 3, 3)] <= -6


class TestGroupParams:
    """Both sweeps hand every group the config's eight group fields."""

    FIELDS = dict(grain="sample", d=7, omega=5, q=4, sigma=500.0, theta=5.0, radius=1.1, f_degree=2)

    def test_fields_are_the_group_fields(self):
        assert tuple(self.FIELDS) == GROUP_FIELDS

    def test_every_group_gets_the_config_fields(self, tmp_path, monkeypatch):
        calls = []

        def record(r, k, t, **kwargs):
            calls.append(((r, k, t), kwargs))
            return SimpleNamespace(rel_error=1e-9)

        monkeypatch.setattr(cli, "run_single_group", record)
        cfg = tiny_cfg(sweep_n=(8,), sweep_k=(1, 2), sweep_t=(1,), **self.FIELDS)
        assert all(getattr(cfg, f) != getattr(ExperimentConfig(), f) for f in self.FIELDS)
        cmd_table_error(cfg, tmp_path)
        table_calls = [((8, k, 1), [cfg.seed, 8, k, 1, rep]) for k in (1, 2) for rep in range(cfg.reps)]
        assert [(shape, kwargs.pop("seed")) for shape, kwargs in calls] == table_calls
        assert all(kwargs == self.FIELDS for _, kwargs in calls)

        calls.clear()
        cmd_timing(cfg, tmp_path)
        timing_calls = [((cfg.n, k, cfg.t), [cfg.seed, k, rep]) for k in (1, 2) for rep in range(cfg.reps)]
        assert [(shape, kwargs.pop("seed")) for shape, kwargs in calls] == timing_calls
        for _, kwargs in calls:
            assert kwargs.pop("backend") is not None and isinstance(kwargs.pop("perf"), PerfRecorder)
            assert kwargs == self.FIELDS


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda path: path.name)
    def test_parses(self, path):
        assert isinstance(load_config(path), ExperimentConfig)

    @pytest.mark.parametrize("name", ["demo_round.cfg", "attack_suite.cfg"])
    def test_validates(self, name):
        load_config(CONFIGS / name).validate()

    def test_table_error_cell(self):
        cfg = replace(load_config(CONFIGS / "table_error.cfg"), sweep_n=(50,), sweep_k=(10,), sweep_t=(10,), reps=1)
        assert error_table(cfg)[(50, 10, 10)] <= -6


class TestTiming:
    def test_schema_and_stage_coverage(self, tmp_path):
        cfg = tiny_cfg(n=8, sweep_k=(1, 2), t=1, reps=1, backend="mock", grain="class")
        path = cmd_timing(cfg, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema: svafd.timing.v1"
        assert lines[1] == "k,role,stage,count,mean_s,var_s,total_s"
        body = [line.split(",") for line in lines[2:]]
        stages = {(row[1], row[2]) for row in body}
        for expected in [
            ("leader", "preprocess"),
            ("leader", "auxiliary"),
            ("leader", "verify"),
            ("follower", "preprocess"),
            ("follower", "auxiliary"),
            ("follower", "encode"),
            ("follower", "aggregate"),
            ("server", "decode"),
            ("server", "proof"),
        ]:
            assert expected in stages

    def test_signature_count_scales_with_k(self, tmp_path):
        cfg = tiny_cfg(n=8, sweep_k=(1, 2), t=1, reps=1, backend="mock")
        path = cmd_timing(cfg, tmp_path)
        counts = {}
        for line in path.read_text().splitlines()[2:]:
            k, role, stage, count = line.split(",")[:4]
            if (role, stage) == ("follower", "auxiliary"):
                counts[int(k)] = int(count)
        assert counts[2] == 2 * counts[1]

    def test_infeasible_k_is_skipped(self, tmp_path, capsys):
        # k=4 needs a 5-member group at t=1; the sweep goes on past it
        cfg_path = tmp_path / "timing.cfg"
        cfg_path.write_text("n = 4\nt = 1\nd = 4\ngrain = class\nsweep_k = 1, 4, 2\nreps = 1\n")
        assert main(["timing", "--config", str(cfg_path), "--backend", "mock", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "timing.csv").read_text().splitlines()[2:]
        assert [int(k) for k in dict.fromkeys(row.split(",")[0] for row in rows)] == [1, 2]
        assert "k=4 skipped, group size 4 below threshold 5" in capsys.readouterr().err


class TestAttackSuite:
    def test_control_and_tamper_rows(self, tmp_path):
        cfg = tiny_cfg(attacks=("random_logits", "server_tamper"), poison_fraction=0.34)
        path = cmd_attack_suite(cfg, tmp_path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# schema: svafd.attack_suite.v1"
        rows = {line.split(",")[0]: line.split(",") for line in lines[2:]}
        control = rows["none"]
        assert control[2] == "1.0000"  # benign fraction
        assert int(control[5]) == 0  # rejects
        tampered = rows["server_tamper"]
        assert int(tampered[5]) == 1  # exactly one reject
        assert int(tampered[4]) == cfg.n - 1
        assert "random_logits" in rows

    def test_unknown_attack_kind_fails(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_attack_suite(tiny_cfg(attacks=("nonsense",)), tmp_path)

    def test_poisoners_get_the_round_grain(self, tmp_path, monkeypatch):
        grains = []

        def record(provider, specs, grain, seed=0):
            grains.append(grain)
            return provider

        monkeypatch.setattr(cli, "poison_provider", record)
        cmd_attack_suite(tiny_cfg(grain="sample", attacks=("label_flip", "scale")), tmp_path)
        assert grains == ["sample", "sample"]

    def test_shipped_suite_pinned(self, tmp_path):
        # the module runs warning-free as a script: importing svafd must not load svafd.cli first
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-W", "error", "-m", "svafd.cli", "attack-suite",
             "--config", str(CONFIGS / "attack_suite.cfg"), "--out", str(tmp_path)],
            check=True, env=env, capture_output=True,
        )
        digest = hashlib.sha256((tmp_path / "attack_suite.csv").read_bytes()).hexdigest()
        assert digest == "717432daedd99f53a775ba1b7ef4d67587267b111fe5551d8062af5007475214"


class TestSingleRound:
    def test_transcript_written_and_deterministic(self, tmp_path, capsys):
        cfg = tiny_cfg()
        p1 = cmd_single_round(cfg, tmp_path / "a")
        p2 = cmd_single_round(cfg, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()
        out = capsys.readouterr().out
        assert "accept=6" in out


class TestMain:
    def test_main_with_config_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "n = 6\nr = 4\nk = 2\nt = 1\nd = 5\nsamples = 120\nseed = 3\n"
        )
        rc = main(
            [
                "single-round",
                "--config",
                str(cfg_path),
                "--out",
                str(tmp_path / "out"),
                "--seed",
                "4",
            ]
        )
        assert rc == 0
        assert (tmp_path / "out" / "transcript.jsonl").exists()

    def test_seed_flag_overrides_the_config(self, tmp_path):
        def transcript(seed, *flags):
            cfg_path = tmp_path / f"seed{seed}{len(flags)}.cfg"
            cfg_path.write_text(f"n = 6\nr = 4\nk = 2\nt = 1\nd = 5\nsamples = 120\nseed = {seed}\n")
            out = tmp_path / cfg_path.stem
            main(["single-round", "--config", str(cfg_path), "--out", str(out), *flags])
            return (out / "transcript.jsonl").read_bytes()

        overridden = transcript(3, "--seed", "4")
        assert overridden == transcript(4)
        assert overridden != transcript(3)

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])
