"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them).

Heavier scenarios (the full error grid, the pairing-backend timing sweep)
live here rather than in the per-module suites.
"""

import functools
import math

import numpy as np
import pytest

from helpers import build_attacked_topology, exchanged_group, full_pipeline
from svafd.cli import cmd_single_round, cmd_table_error, cmd_timing
from svafd.coding import InsufficientShares, check_achievable, decode, noise_coeff_submatrix
from svafd.config import ExperimentConfig
from svafd.numerics import make_nodes, relative_error
from svafd.protocol import (
    AGGREGATED_SHARE,
    SERVER,
    RoundConfig,
    run_round,
)
from svafd.threats import AttackSpec, inject_tamper, score_filtration
from svafd.workload import workload_provider


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {num}] {name}: FAIL")
                raise
            print(f"\n[criterion {num}] {name}: PASS")

        return wrapper

    return deco


@criterion(1, "relative-error grid reproduction")
def test_criterion_1_error_table(tmp_path):
    cfg = ExperimentConfig(
        sweep_n=(50, 75, 100),
        sweep_k=(10, 20, 30),
        sweep_t=(10, 20, 30),
        reps=5,
        grain="sample",
        omega=32,
        d=10,
        q=3,
        sigma=1e3,
        theta=6.0,
        seed=2024,
    )
    path = cmd_table_error(cfg, tmp_path)
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    grid = {}
    for line in lines[2:]:
        cells = line.split(",")
        n = int(cells[0])
        for col, cell in zip(header[1:], cells[1:]):
            k, t = (int(x[1:]) for x in col.split("_"))
            grid[(n, k, t)] = cell
    assert len(grid) == 27
    for (n, k, t), cell in grid.items():
        if (n, k, t) == (50, 30, 30):
            assert cell == "N/A"
        else:
            assert float(cell) <= -6.0, f"cell ({n},{k},{t}) = {cell}"


@criterion(2, "achievability gate vs brute-force inequality")
def test_criterion_2_achievability_exhaustive():
    for n in range(1, 201):
        for k in range(1, 61):
            for t in range(0, 61):
                for deg in range(1, 4):
                    got = check_achievable(n, k, t, deg)
                    oracle_threshold = deg * (k + t - 1) + 1
                    oracle_feasible = oracle_threshold <= n
                    assert got.feasible == oracle_feasible
                    assert got.threshold == oracle_threshold
                    assert got.d_resilience == n - oracle_threshold


@criterion(3, "homomorphic share aggregation on random instances")
def test_criterion_3_homomorphic_aggregation():
    rng = np.random.default_rng(7)
    done = 0
    while done < 200:
        deg = int(rng.integers(1, 3))
        k = int(rng.integers(1, 5))
        t = int(rng.integers(0, 4))
        threshold = deg * (k + t - 1) + 1
        if threshold > 12:
            continue
        r = int(rng.integers(max(threshold, t, 2), 13))
        grain = "class" if rng.random() < 0.5 else "sample"
        teacher, oracle = full_pipeline(
            seed=[3, done], r=r, k=k, t=t, deg_f=deg, grain=grain, d=4, omega=3, sigma=50.0
        )
        assert relative_error(teacher, oracle) <= 1e-6, (done, r, k, t, deg, grain)
        done += 1


def _aggregated_group(seed, r, k, t, d=6, q=3, sigma=1e3):
    """Everything up to decoding for one class-grain group."""
    cfg = RoundConfig(n=r, r=r, k=k, t=t, q=q, sigma=sigma, d=d)
    group, bus = exchanged_group(np.random.default_rng(seed), r, cfg, -10, 10)
    received = bus.take(SERVER, AGGREGATED_SHARE, r)
    return group.plan, [(m.payload["alpha_index"], m.payload["payload"]) for m in received], group.oracle


@criterion(4, "dropout resilience at (r=100, k=10, t=10)")
def test_criterion_4_d_resilience():
    r, k, t, deg = 100, 10, 10, 1
    ach = check_achievable(r, k, t, deg)
    assert ach.d_resilience == r - (k + t - 1) - 1 == 80
    for trial in range(20):
        plan, aggs, oracle = _aggregated_group([4, trial], r, k, t)
        rng = np.random.default_rng([44, trial])
        order = list(map(int, rng.permutation(r)))

        def teacher_from(kept):
            decoded = decode(kept, plan.nodes, k, t, deg)
            joined = np.sum(decoded, axis=0) / plan.blind_factor
            return joined

        kept79 = [aggs[i] for i in order[79:]]
        assert relative_error(teacher_from(kept79), oracle) <= 1e-6
        # the budget itself: exactly threshold-many aggregates still decode,
        # one fewer does not
        kept_budget = [aggs[i] for i in order[ach.d_resilience:]]
        assert len(kept_budget) == ach.threshold
        assert relative_error(teacher_from(kept_budget), oracle) <= 1e-6
        with pytest.raises(InsufficientShares):
            teacher_from(kept_budget[1:])


@criterion(5, "verification completeness and soundness")
def test_criterion_5_verification():
    def round_cfg(seed):
        return RoundConfig(n=6, r=4, k=2, t=1, q=3, d=5, grain="class", seed=seed, backend="mock")

    for seed in range(100):
        cfg = round_cfg(seed)
        transcript = run_round(cfg, workload_provider(cfg, alpha=1.0, samples=120))
        assert all(res.verdict == "accept" for res in transcript.group_results.values()), seed

    for kind in ("share_tamper", "weight_tamper", "server_tamper"):
        for seed in range(100):
            cfg = round_cfg(1000 + seed)
            target = seed % cfg.n
            tamper = inject_tamper(AttackSpec(kind, {"delta": 10.0**-cfg.q}), leader=target)
            transcript = run_round(cfg, workload_provider(cfg, alpha=1.0, samples=120), tamper=tamper)
            for leader, res in transcript.group_results.items():
                expected = "reject" if leader == target else "accept"
                assert res.verdict == expected, (kind, seed, leader, res.verdict)


@criterion(6, "noise-coefficient submatrices stay nonsingular")
def test_criterion_6_privacy_surrogate():
    # raw determinant magnitudes are only meaningful for small t (they decay
    # with t for scale reasons); rank checks for larger t live in the coding
    # suite
    done = 0
    trial = 0
    while done < 100:
        rng = np.random.default_rng([6, trial])
        trial += 1
        t = int(rng.integers(1, 4))
        k = int(rng.integers(1, 11))
        r = int(rng.integers(max(t, k + t), 41))
        nodes = make_nodes(r, k, t)
        for _ in range(20):
            idx = rng.permutation(r)[:t]
            sub = noise_coeff_submatrix(nodes, k, idx)
            assert abs(np.linalg.det(sub)) > 1e-12
        done += 1


@criterion(7, "filtration keeps benign fraction >= 0.9 under 40% poisoning")
def test_criterion_7_filtration_quality():
    fractions = []
    for seed in range(5):
        topo, poisoners, _ = build_attacked_topology(n=100, frac=0.4, r=10, seed=seed)
        metrics = score_filtration(topo, poisoners)
        fractions.append(metrics.benign_fraction_selected)
    assert float(np.mean(fractions)) >= 0.9, fractions


@criterion(8, "byte-deterministic outputs")
def test_criterion_8_determinism(tmp_path):
    cfg = ExperimentConfig(
        sweep_n=(10,), sweep_k=(2,), sweep_t=(1, 2), reps=2, omega=4, d=5, grain="sample", seed=5
    )
    a = cmd_table_error(cfg, tmp_path / "a").read_bytes()
    b = cmd_table_error(cfg, tmp_path / "b").read_bytes()
    assert a == b
    round_cfg = ExperimentConfig(n=6, r=4, k=2, t=1, d=5, samples=120, seed=5)
    t1 = cmd_single_round(round_cfg, tmp_path / "r1").read_bytes()
    t2 = cmd_single_round(round_cfg, tmp_path / "r2").read_bytes()
    assert t1 == t2


@criterion(9, "timing orderings (proof > verify; encode grows with k)")
def test_criterion_9_timing_orderings(tmp_path):
    cfg = ExperimentConfig(
        n=100,
        t=10,
        sweep_k=(10, 20, 40, 80),
        reps=2,
        grain="sample",
        omega=32,
        d=10,
        backend="pairing",
        seed=9,
    )
    path = cmd_timing(cfg, tmp_path)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    by_k = {}
    for k, role, stage, count, mean_s, var_s, total_s in rows:
        by_k.setdefault(int(k), {})[(role, stage)] = (int(count), float(mean_s), float(total_s))
    encode_means = []
    for k in (10, 20, 40, 80):
        stats = by_k[k]
        assert stats[("server", "proof")][1] > stats[("leader", "verify")][1]
        encode_means.append(stats[("follower", "encode")][1])
        # one signature per slice per follower
        assert stats[("follower", "auxiliary")][0] == k * cfg.n * cfg.reps
    assert encode_means == sorted(encode_means)
    assert encode_means[0] < encode_means[-1]
