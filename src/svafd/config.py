"""Experiment configuration: flat ``key = value`` text files.

Lines are ``key = value`` pairs; ``#`` starts a comment; blank lines are
ignored. Values are typed by the field they set: integers, reals, strings,
or comma-separated lists. Unknown keys are rejected.
An `ExperimentConfig` is a `RoundConfig` plus the experiment keys, so a
loaded config goes to `run_round` as it is.

Keys and defaults:

  round parameters
    n = 20              clients per round
    r = 5               followers per group
    k = 2               plaintext slices per client
    t = 1               noise slices (collusion tolerance)
    q = 3               quantization digits
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

  workload
    alpha = 1.0         Dirichlet heterogeneity
    samples = 300       local samples per client

  sweeps / repetitions
    sweep_n = 50,75,100
    sweep_k = 10,20,30
    sweep_t = 10,20,30
    reps = 5

  attacks
    attacks = random_logits            kinds for the attack suite, each at
                                       its default strength in threats
    poison_fraction = 0.4

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
    sweep_n: tuple = (50, 75, 100)
    sweep_k: tuple = (10, 20, 30)
    sweep_t: tuple = (10, 20, 30)
    reps: int = 5
    attacks: tuple = ("random_logits",)
    poison_fraction: float = 0.4
    out_dir: str = "out"


_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_DEFAULTS = ExperimentConfig()
_STR_TUPLES = {"attacks"}


def _parse_value(key: str, raw: str):
    default = getattr(_DEFAULTS, key)
    raw = raw.strip()
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
