"""Experiment configuration: flat ``key = value`` text files.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored. Values are typed by the field they set: integers, reals, booleans
(true/false), strings, or comma-separated lists. Unknown keys are rejected.
An `ExperimentConfig` is a `RoundConfig` plus the experiment keys, so a
loaded config goes to `run_round` as it is.

Keys and defaults:

  round parameters
    n = 20              clients per round
    r = 5               followers per group
    k = 2               plaintext slices per client
    t = 1               noise slices (collusion tolerance)
    q = 3               quantization digits
    p = 16              hashed-fingerprint width
    sigma = 1000.0      noise scale
    theta = 6.0         noise truncation coefficient
    radius = 1.0        interpolation circle radius
    grain = class       class | sample
    f_degree = 1        aggregation polynomial degree
    seed = 0            master seed
    d = 10              classes
    omega = 32          sample-grain rows per slice (public pool = omega * k)
    straggler_ids =     comma-separated client ids that drop mid-round
    backend = mock      mock | pairing
    leader_in_group = false

  workload
    alpha = 1.0         Dirichlet heterogeneity
    samples = 300       local samples per client
    sharpness = 8.0     logit peak strength
    noise_scale = 1.0   logit noise

  sweeps / repetitions
    sweep_n = 50,75,100
    sweep_k = 10,20,30
    sweep_t = 10,20,30
    reps = 5

  attacks
    attacks = random_logits            kinds for the attack suite
    poison_fraction = 0.4
    attack_scale = -2.0                scale-attack factor
    attack_sigma = 5.0                 additive-noise attack strength
    tamper_delta = 0.001               in-flight tamper size (one grid unit)

  output
    out_dir = out
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from .protocol import RoundConfig


@dataclass(frozen=True)
class ExperimentConfig(RoundConfig):
    alpha: float = 1.0
    samples: int = 300
    sharpness: float = 8.0
    noise_scale: float = 1.0
    sweep_n: tuple = (50, 75, 100)
    sweep_k: tuple = (10, 20, 30)
    sweep_t: tuple = (10, 20, 30)
    reps: int = 5
    attacks: tuple = ("random_logits",)
    poison_fraction: float = 0.4
    attack_scale: float = -2.0
    attack_sigma: float = 5.0
    tamper_delta: float = 1e-3
    out_dir: str = "out"


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_DEFAULTS = ExperimentConfig()
_STR_TUPLES = {"attacks"}


def _parse_value(key: str, raw: str):
    default = getattr(_DEFAULTS, key)
    raw = raw.strip()
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, (tuple, frozenset)):
        items = [item.strip() for item in raw.split(",") if item.strip()]
        if key in _STR_TUPLES:
            return tuple(items)
        return type(default)(int(item) for item in items)
    return raw


def parse_config(text: str) -> ExperimentConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        values[key] = _parse_value(key, raw)
    return ExperimentConfig(**values)


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())
