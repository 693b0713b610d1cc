"""Adversary harness: poisoning generators, integrity tampers, and
filtration-quality metrics.

Client-side kinds fabricate or distort the logits a poisoner submits;
tamper kinds mutate one value in flight (an encoded share entry, an
aggregation weight in one member's plan, or a decoded teacher entry) to probe
that verification catches the smallest representable lie; the protocol turns
each into a mutation of one message on its bus. Filtration quality is scored
as the fraction of benign member slots inside benign-led groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .filtration import Topology

CLIENT_KINDS = frozenset(
    {"random_logits", "label_flip", "scale", "additive_noise", "colluding_copy"}
)
TAMPER_KINDS = frozenset({"share_tamper", "weight_tamper", "server_tamper"})


class KindMismatch(ValueError):
    """Attack kind applied at the wrong role."""


@dataclass(frozen=True)
class AttackSpec:
    kind: str
    params: dict = field(default_factory=dict)
    victims: frozenset = frozenset()

    def __post_init__(self):
        if self.kind not in CLIENT_KINDS | TAMPER_KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")


def _flip_permutation(spec: AttackSpec, d: int) -> np.ndarray:
    perm = np.asarray(spec.params.get("permutation", np.arange(d)), dtype=int)
    if sorted(perm.tolist()) != list(range(d)):
        raise ValueError("flip permutation must permute all classes")
    return perm


def apply_attack(spec: AttackSpec, honest_logits: np.ndarray, rng=None) -> np.ndarray:
    """Transform one victim's knowledge matrix according to the attack kind."""
    if spec.kind not in CLIENT_KINDS:
        raise KindMismatch(f"{spec.kind} is not a client-side attack")
    logits = np.asarray(honest_logits, dtype=float)
    if spec.kind == "random_logits":
        rng = rng if rng is not None else np.random.default_rng(0)
        lo, hi = float(logits.min()), float(logits.max())
        if lo == hi:
            hi = lo + 1.0
        return rng.uniform(lo, hi, logits.shape)
    if spec.kind == "label_flip":
        d = logits.shape[1]
        perm = _flip_permutation(spec, d)
        if logits.shape[0] == d:
            return logits[perm]  # class rows carry the labels
        return logits[:, perm]  # per-sample rows: class scores move
    if spec.kind == "scale":
        return logits * float(spec.params.get("factor", 1.0))
    if spec.kind == "additive_noise":
        rng = rng if rng is not None else np.random.default_rng(0)
        return logits + rng.normal(0.0, float(spec.params.get("sigma", 1.0)), logits.shape)
    if spec.kind == "colluding_copy":
        shared = spec.params.get("shared")
        return logits if shared is None else np.array(shared, dtype=float)
    raise AssertionError(spec.kind)


def poison_samples(spec: AttackSpec, samples, rng=None) -> list:
    """Apply the matching transformation to a victim's raw (label, row)
    samples so its fingerprint reflects the poisoned knowledge."""
    if spec.kind not in CLIENT_KINDS:
        raise KindMismatch(f"{spec.kind} is not a client-side attack")
    samples = [(int(y), np.asarray(row, dtype=float)) for y, row in samples]
    if not samples:
        return samples
    d = len(samples[0][1])
    if spec.kind == "random_logits":
        rng = rng if rng is not None else np.random.default_rng(0)
        allv = np.concatenate([row for _, row in samples])
        lo, hi = float(allv.min()), float(allv.max())
        if lo == hi:
            hi = lo + 1.0
        return [(y, rng.uniform(lo, hi, d)) for y, _ in samples]
    if spec.kind == "label_flip":
        perm = _flip_permutation(spec, d)
        return [(int(perm[y - 1]) + 1, row) for y, row in samples]
    if spec.kind == "scale":
        factor = float(spec.params.get("factor", 1.0))
        return [(y, row * factor) for y, row in samples]
    if spec.kind == "additive_noise":
        rng = rng if rng is not None else np.random.default_rng(0)
        sig = float(spec.params.get("sigma", 1.0))
        return [(y, row + rng.normal(0.0, sig, d)) for y, row in samples]
    if spec.kind == "colluding_copy":
        shared = spec.params.get("shared_samples")
        return samples if shared is None else [(int(y), np.asarray(r, float)) for y, r in shared]
    raise AssertionError(spec.kind)


def poison_provider(provider, specs_by_victim: dict, seed=0):
    """Wrap a logits provider so victims emit attacked samples and matrices.

    colluding_copy victims all emit the designated source victim's output.
    """
    cache = {}

    def wrapped(cid: int):
        if cid in cache:
            return cache[cid]
        spec = specs_by_victim.get(cid)
        if spec is None:
            out = provider(cid)
        elif spec.kind == "colluding_copy":
            source = min(spec.victims) if spec.victims else cid
            samples, matrix = wrapped(source) if source != cid else provider(cid)
            out = ([(y, row.copy()) for y, row in samples], matrix.copy())
        else:
            samples, matrix = provider(cid)
            rng = np.random.default_rng([seed, 11, cid])
            out = (
                poison_samples(spec, samples, rng=rng),
                apply_attack(spec, matrix, rng=np.random.default_rng([seed, 12, cid])),
            )
        cache[cid] = out
        return out

    return wrapped


@dataclass(frozen=True)
class RoundTamper:
    """One in-flight mutation, targeted at a single group."""

    kind: str
    leader: int
    member: int | None = None
    sender: int | None = None
    entry: tuple = (0, 0)
    delta: float = 0.0


def inject_tamper(spec: AttackSpec, leader: int, member=None, sender=None) -> RoundTamper:
    """Instantiate the round tamper for a tamper-kind spec.

    A share tamper must name two different members when it names both: a
    member's share to itself never crosses the bus, so nothing could alter it.
    """
    if spec.kind not in TAMPER_KINDS:
        raise KindMismatch(f"{spec.kind} is not a tamper kind")
    tamper = RoundTamper(
        kind=spec.kind,
        leader=leader,
        member=member if member is not None else spec.params.get("member"),
        sender=sender if sender is not None else spec.params.get("sender"),
        entry=tuple(spec.params.get("entry", (0, 0))),
        delta=float(spec.params.get("delta", 0.0)),
    )
    if tamper.kind == "share_tamper" and tamper.sender is not None and tamper.sender == tamper.member:
        raise ValueError(f"member {tamper.sender}'s share to itself never crosses the bus")
    return tamper


@dataclass(frozen=True)
class FiltrationMetrics:
    benign_fraction_selected: float | None
    poisoner_selection_rate: float | None


def score_filtration(topology: Topology, poisoner_ids) -> FiltrationMetrics:
    """Fraction of benign member slots across groups led by benign clients.

    Poisoner-led groups say nothing about the filter, so they are excluded;
    with no benign leaders both metrics are undefined (None).
    """
    poisoners = set(poisoner_ids)
    total = 0
    benign = 0
    for leader, members in topology.groups.items():
        if leader in poisoners:
            continue
        total += len(members)
        benign += sum(1 for m in members if m not in poisoners)
    if total == 0:
        return FiltrationMetrics(None, None)
    frac = benign / total
    return FiltrationMetrics(benign_fraction_selected=frac, poisoner_selection_rate=1.0 - frac)
