"""Experiment driver.

Subcommands:
  table-error   relative-error grid over the (n, k, t) sweep
  timing        per-role, per-stage wall times for a single group, swept over k
  attack-suite  poisoning and tamper scenarios: filtration metrics + verdicts
  single-round  one full protocol round; transcript as line-delimited records

Common flags: --config PATH, --seed N, --out DIR, --backend {mock,pairing},
--reps N. Outputs are CSV files whose first line is a schema comment; all
columns except wall times are byte-deterministic given config and seed.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import coding
from .config import ExperimentConfig, load_config
from .protocol import PerfRecorder, run_round, run_single_group
from .sigcrypto import get_backend
from .threats import CLIENT_KINDS, TAMPER_KINDS, AttackSpec, inject_tamper, poison_provider, score_filtration
from .workload import workload_provider

SCHEMAS = {
    "table_error": "# schema: svafd.table_error.v1",
    "timing": "# schema: svafd.timing.v1",
    "attack_suite": "# schema: svafd.attack_suite.v1",
}


def _write_csv(path: Path, schema: str, header: list[str], rows: list[list]) -> Path:
    lines = [schema, ",".join(header)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _provider_for(cfg: ExperimentConfig, round_cfg):
    return workload_provider(
        round_cfg,
        alpha=cfg.alpha,
        samples=cfg.samples,
        confusion_sharpness=cfg.sharpness,
        noise_scale=cfg.noise_scale,
    )


def _group_params(cfg: ExperimentConfig) -> dict:
    """The `run_single_group` keywords an experiment fixes for every group:
    the config keys of the same names."""
    names = ("grain", "d", "omega", "q", "sigma", "theta", "radius", "f_degree")
    return {name: getattr(cfg, name) for name in names}


def error_table(cfg: ExperimentConfig) -> dict:
    """Mean log10 relative error per (n, k, t) cell of the sweep over
    cfg.reps seeded single-group runs; None for a cell the achievability
    gate marks infeasible."""
    table = {}
    for n, k, t in itertools.product(cfg.sweep_n, cfg.sweep_k, cfg.sweep_t):
        if not coding.check_achievable(n, k, t, cfg.f_degree).feasible:
            table[(n, k, t)] = None
            continue
        logs = [
            np.log10(run_single_group(n, k, t, seed=[cfg.seed, n, k, t, rep], **_group_params(cfg)).rel_error)
            for rep in range(cfg.reps)
        ]
        table[(n, k, t)] = float(np.mean(logs))
    return table


def cmd_table_error(cfg: ExperimentConfig, out_dir: Path) -> Path:
    table = error_table(cfg)
    combos = [(k, t) for k in cfg.sweep_k for t in cfg.sweep_t]
    header = ["n"] + [f"k{k}_t{t}" for k, t in combos]
    rows = []
    for n in cfg.sweep_n:
        row = [n]
        for k, t in combos:
            val = table[(n, k, t)]
            row.append("N/A" if val is None else f"{val:.2f}")
        rows.append(row)
    return _write_csv(out_dir / "table_error.csv", SCHEMAS["table_error"], header, rows)


def cmd_timing(cfg: ExperimentConfig, out_dir: Path) -> Path:
    backend = get_backend(cfg.backend)
    rows = []
    for k in cfg.sweep_k:
        perf = PerfRecorder()
        for rep in range(cfg.reps):
            run_single_group(
                cfg.n, k, cfg.t, seed=[cfg.seed, k, rep], backend=backend, perf=perf, **_group_params(cfg)
            )
        for stat in perf.rows():
            rows.append(
                [
                    k,
                    stat["role"],
                    stat["stage"],
                    stat["count"],
                    f"{stat['mean_s']:.6e}",
                    f"{stat['var_s']:.6e}",
                    f"{stat['total_s']:.6e}",
                ]
            )
    header = ["k", "role", "stage", "count", "mean_s", "var_s", "total_s"]
    return _write_csv(out_dir / "timing.csv", SCHEMAS["timing"], header, rows)


def _attack_spec(kind: str, cfg: ExperimentConfig, victims) -> AttackSpec:
    params = {}
    if kind == "scale":
        params["factor"] = cfg.attack_scale
    elif kind == "additive_noise":
        params["sigma"] = cfg.attack_sigma
    elif kind == "label_flip":
        params["permutation"] = list(reversed(range(cfg.d)))
    return AttackSpec(kind, params, victims=frozenset(victims))


def _suite_row(name: str, transcript, poisoners) -> list:
    metrics = score_filtration(transcript.topology, poisoners)
    verdicts = [res.verdict for res in transcript.group_results.values()]
    accepted_logs = [
        math.log10(res.rel_error)
        for res in transcript.group_results.values()
        if res.verdict == "accept" and res.rel_error not in (None, 0.0)
    ]
    fmt = lambda v: "" if v is None else f"{v:.4f}"
    return [
        name,
        len(poisoners),
        fmt(metrics.benign_fraction_selected),
        fmt(metrics.poisoner_selection_rate),
        verdicts.count("accept"),
        verdicts.count("reject"),
        verdicts.count("insufficient"),
        f"{np.mean(accepted_logs):.2f}" if accepted_logs else "",
    ]


def cmd_attack_suite(cfg: ExperimentConfig, out_dir: Path) -> Path:
    round_cfg = cfg.round_config()
    base = _provider_for(cfg, round_cfg)
    rows = [_suite_row("none", run_round(round_cfg, base), set())]
    n_victims = int(round(cfg.poison_fraction * cfg.n))
    victim_rng = np.random.default_rng([cfg.seed, 13])
    victims = sorted(map(int, victim_rng.permutation(cfg.n)[:n_victims]))
    for kind in cfg.attacks:
        if kind in CLIENT_KINDS:
            spec = _attack_spec(kind, cfg, victims)
            provider = poison_provider(base, {v: spec for v in victims}, round_cfg.grain, seed=cfg.seed)
            transcript = run_round(round_cfg, provider)
            rows.append(_suite_row(kind, transcript, set(victims)))
        elif kind in TAMPER_KINDS:
            tamper = inject_tamper(
                AttackSpec(kind, {"delta": cfg.tamper_delta}), leader=0
            )
            transcript = run_round(round_cfg, base, tamper=tamper)
            rows.append(_suite_row(kind, transcript, set()))
        else:
            raise ValueError(f"unknown attack kind {kind!r}")
    header = [
        "attack",
        "victims",
        "benign_fraction",
        "poisoner_rate",
        "accepts",
        "rejects",
        "insufficient",
        "mean_log10_re_accepted",
    ]
    return _write_csv(out_dir / "attack_suite.csv", SCHEMAS["attack_suite"], header, rows)


def cmd_single_round(cfg: ExperimentConfig, out_dir: Path) -> Path:
    round_cfg = cfg.round_config()
    transcript = run_round(round_cfg, _provider_for(cfg, round_cfg))
    path = out_dir / "transcript.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(transcript.export_jsonl(), encoding="utf-8")
    verdicts = [res.verdict for res in transcript.group_results.values()]
    print(
        f"groups={len(verdicts)} accept={verdicts.count('accept')} "
        f"reject={verdicts.count('reject')} insufficient={verdicts.count('insufficient')}"
    )
    return path


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="svafd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("table-error", "timing", "attack-suite", "single-round"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="key = value config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=Path, default=None, help="output directory")
        p.add_argument("--backend", choices=("mock", "pairing"), default=None)
        p.add_argument("--reps", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.backend is not None:
        cfg.backend = args.backend
    if args.reps is not None:
        cfg.reps = args.reps
    out_dir = args.out if args.out is not None else Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    command = {
        "table-error": cmd_table_error,
        "timing": cmd_timing,
        "attack-suite": cmd_attack_suite,
        "single-round": cmd_single_round,
    }[args.command]
    path = command(cfg, out_dir)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
