"""The three benchmark workloads: seeded inputs, one timed op, and its checks.

Each workload turns (workload seed, op index) into the inputs of one op with
the program's own input generators (`svafd.workload`, `svafd.threats`) or
plain numpy, outside the timed region. The op calls only the engine's public
entry points. The check compares every group against a plaintext oracle that
is computed here with numpy, not by the engine, and returns the list of
misses; a miss never aborts the run.

Ops are grouped into rounds (`ops_per_round`): the runner stops only on a
round boundary, so every run times the same mix of op shapes whatever the
speed of the program.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields

import numpy as np

RE_LIMIT = 1e-6  # an accepted group's relative error must stay below this
Q = 3            # decimal digits of the quantization grid


def _quantize(arr: np.ndarray) -> np.ndarray:
    return np.floor(np.asarray(arr, dtype=float) * 10.0**Q) / 10.0**Q


def _oracle(matrices: list, r: int) -> np.ndarray:
    """Weighted sum of the quantized inputs under uniform weights floor(10^q/r)/10^q."""
    w = math.floor(10.0**Q / r) / 10.0**Q
    return w * np.sum([_quantize(m) for m in matrices], axis=0)


def _rel_error(estimate, truth) -> float:
    return float(np.linalg.norm(np.asarray(estimate) - truth) / np.linalg.norm(truth))


def _op_seed(seed: int, tag: int, i: int) -> int:
    """Distinct seed per (workload seed, workload, op); op -1 is the warm-up."""
    return int(np.random.default_rng([seed, tag, i + 1]).integers(2**31))


def payload_bytes(obj) -> int:
    """Computed size of a bus payload: array buffers plus 8 bytes per scalar."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        return sum(payload_bytes(v) for v in obj.values())
    if isinstance(obj, (list, tuple, frozenset)):
        return sum(payload_bytes(v) for v in obj)
    if hasattr(obj, "__dataclass_fields__"):
        return sum(payload_bytes(getattr(obj, f.name)) for f in fields(obj))
    if obj is None:
        return 0
    return 8


@dataclass
class OpResult:
    failures: list           # one line per miss
    re_worst: float | None   # worst relative error over accepted groups
    extra: dict              # per-op facts recorded in the run's detail


class RoundPopulation:
    """run_round + export_jsonl on many small groups, mock backend."""

    name = "round-population"
    shape = {
        "n": 200, "r": 10, "k": 2, "t": 1, "d": 10, "q": Q, "grain": "class",
        "backend": "mock", "samples": 300, "alpha": 1.0,
        "straggler_frac": 0.1, "tamper": "share_tamper", "tamper_delta": 10.0**-Q,
    }
    ops_per_round = 1
    setup_code = ""  # set-up beyond `import svafd`: run_round builds its mock backend per op

    def __init__(self, svafd, seed: int):
        self.svafd = svafd
        self.seed = seed

    def inputs(self, i: int):
        s = self.shape
        wl, threats = self.svafd.workload, self.svafd.threats
        round_seed = _op_seed(self.seed, 1, i)
        rng = np.random.default_rng([round_seed, 1])
        stragglers = frozenset(int(c) for c in rng.choice(s["n"], int(s["n"] * s["straggler_frac"]), replace=False))
        tampered = int(rng.integers(s["n"]))
        cfg = self.svafd.protocol.RoundConfig(
            n=s["n"], r=s["r"], k=s["k"], t=s["t"], d=s["d"], q=s["q"], grain=s["grain"],
            backend=s["backend"], seed=round_seed, straggler_ids=stragglers,
        )
        population = wl.dirichlet_population(
            s["n"], s["d"], s["alpha"], [round_seed, 7], samples=s["samples"], grain=s["grain"]
        )
        data = {c: wl.gen_logits(population[c], seed=[round_seed, 8, c]) for c in range(s["n"])}
        tamper = threats.inject_tamper(
            threats.AttackSpec(s["tamper"], {"delta": s["tamper_delta"]}), leader=tampered
        )
        return cfg, data, tamper

    def op(self, inputs):
        cfg, data, tamper = inputs
        transcript = self.svafd.protocol.run_round(cfg, data.__getitem__, tamper=tamper)
        return transcript, transcript.export_jsonl()

    def check(self, inputs, out) -> OpResult:
        cfg, data, tamper = inputs
        transcript, jsonl = out
        threshold = cfg.k + cfg.t
        failures, worst, absorbed = [], None, None
        for leader in range(cfg.n):
            res = transcript.group_results.get(leader)
            if res is None:
                failures.append(f"group {leader}: no result")
                continue
            live = [m for m in res.members if m not in cfg.straggler_ids]
            if tuple(live) != tuple(res.live_members):
                failures.append(f"group {leader}: live members {res.live_members} != {live}")
            if len(live) < threshold:
                expected = "insufficient"
            else:
                expected = "reject" if leader == tamper.leader else "accept"
            if expected == "reject" and res.verdict == "accept":
                # Verification vouches for the teacher, not for every share: a
                # tamper whose share drops out of the decoded teacher leaves it
                # correct, and accepting it is right. The relative-error check
                # below still fails the op if the tamper moves the teacher.
                absorbed = leader
            elif res.verdict != expected:
                failures.append(f"group {leader}: verdict {res.verdict}, expected {expected}")
            if res.verdict != "accept" or res.teacher is None:
                continue
            re = _rel_error(res.teacher, _oracle([data[z][1] for z in live], len(res.members)))
            worst = re if worst is None else max(worst, re)
            if not re <= RE_LIMIT:
                failures.append(f"group {leader}: accepted with relative error {re:.3e} > {RE_LIMIT:g}")
        return OpResult(
            failures=failures,
            re_worst=worst,
            extra={
                "tamper_absorbed_group": absorbed,
                "transcript_sha256": hashlib.sha256(jsonl.encode()).hexdigest(),
                "bus_msgs": len(transcript.messages),
                "bus_bytes": sum(payload_bytes(m.payload) for m in transcript.messages),
            },
        )


class _SingleGroup:
    """One run_single_group call per op on pre-generated sample-grain logits,
    cycling through CELLS, a list of (r, k, t)."""

    CELLS: list
    omega, d, tag, backend, setup_code = 32, 10, 0, None, ""

    def __init__(self, svafd, seed: int):
        self.svafd = svafd
        self.seed = seed
        self.ops_per_round = len(self.CELLS)

    def inputs(self, i: int):
        r, k, t = self.CELLS[i % len(self.CELLS)]
        op_seed = _op_seed(self.seed, self.tag, i)
        rng = np.random.default_rng([op_seed, 1])
        logits = {z: rng.uniform(-10, 10, (self.omega * k, self.d)) for z in range(r)}
        return (r, k, t), op_seed, logits

    def op(self, inputs):
        (r, k, t), op_seed, logits = inputs
        return self.svafd.protocol.run_single_group(
            r, k, t, grain="sample", d=self.d, omega=self.omega, q=Q,
            seed=op_seed, backend=self.backend, logits=logits,
        )

    def check(self, inputs, res) -> OpResult:
        (r, k, t), _, logits = inputs
        failures = []
        if res.verdict != "accept":
            failures.append(f"cell r={r} k={k} t={t}: verdict {res.verdict}, expected accept")
        re = _rel_error(res.teacher, _oracle(list(logits.values()), r))
        if not re <= RE_LIMIT:
            failures.append(f"cell r={r} k={k} t={t}: relative error {re:.3e} > {RE_LIMIT:g}")
        return OpResult(failures=failures, re_worst=re, extra={})


class CampaignGrid(_SingleGroup):
    """Every feasible (n, k, t) cell of configs/table_error.cfg, no backend."""

    name = "campaign-grid"
    tag = 2
    CELLS = [
        (n, k, t)
        for n in (50, 75, 100)
        for k in (10, 20, 30)
        for t in (10, 20, 30)
        if n >= k + t  # the achievability threshold deg_f*(k+t-1)+1 at deg_f=1
    ]
    shape = {"cells_nkt": CELLS, "grain": "sample", "batch": 32, "d": 10, "q": Q, "backend": None}


class VerifiedPairing(_SingleGroup):
    """One group on the real pairing backend, k alternating between 10 and 30.

    r=40, t=10 admits k <= 30 (threshold k+t <= r), so 30 is the larger k.
    """

    name = "verified-pairing"
    tag = 3
    CELLS = [(40, 10, 10), (40, 30, 10)]
    shape = {"r": 40, "t": 10, "k_cycle": (10, 30), "grain": "sample", "batch": 32, "d": 10, "q": Q,
             "backend": "pairing"}
    setup_code = "svafd.sigcrypto.get_backend('pairing')"

    def __init__(self, svafd, seed):
        super().__init__(svafd, seed)
        self.backend = svafd.sigcrypto.get_backend("pairing")


WORKLOADS = {w.name: w for w in (RoundPopulation, CampaignGrid, VerifiedPairing)}
