"""Adversary harness: poisoning generators, integrity tampers, and
filtration-quality metrics.

Client-side kinds fabricate or distort the logits a poisoner submits, its
fingerprint samples and its knowledge matrix through one transform of rows.
Tamper kinds mutate one value in flight (an encoded share entry, an
aggregation weight in one member's plan, or a decoded teacher entry) to probe
that verification catches the smallest representable lie. Every in-flight
attack is a set of one group's bus mutations (`RoundTamper.mutations`), each
returning the payload to deliver or `protocol.DROP`, a late dropout.
Filtration quality is the fraction of benign member slots in benign-led groups.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .coding import EncodedShare
from .filtration import Topology
from .protocol import DECODED_RESULT, PLAN_DISTRIBUTION, SERVER, SHARE

CLIENT_KINDS = frozenset({"random_logits", "label_flip", "scale", "additive_noise", "colluding_copy"})
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


def _poison(spec: AttackSpec, rows: np.ndarray, rng, class_axis: int | None) -> np.ndarray:
    """A client kind's transform of a (count, d) array of logits rows.

    label_flip reports class c as class perm[c] (0-based): the entries for
    class c along class_axis move to index perm[c]. With class_axis None the
    rows stay and the caller relabels them. colluding_copy leaves the rows
    as they are: `poison_provider` hands every colluder its source's output.
    """
    if spec.kind not in CLIENT_KINDS:
        raise KindMismatch(f"{spec.kind} is not a client-side attack")
    rng = rng if rng is not None else np.random.default_rng(0)
    if spec.kind == "random_logits":
        lo, hi = float(rows.min()), float(rows.max())
        return rng.uniform(lo, hi if hi > lo else lo + 1.0, rows.shape)
    if spec.kind == "scale":
        return rows * float(spec.params.get("factor", 1.0))
    if spec.kind == "additive_noise":
        return rows + rng.normal(0.0, float(spec.params.get("sigma", 1.0)), rows.shape)
    if spec.kind == "label_flip" and class_axis is not None:
        return np.take(rows, np.argsort(_flip_permutation(spec, rows.shape[1])), axis=class_axis)
    return rows


def apply_attack(spec: AttackSpec, honest_logits: np.ndarray, grain: str, rng=None) -> np.ndarray:
    """Transform one victim's knowledge matrix according to the attack kind:
    class grain's row c is class c's mean, sample grain's rows score the d
    classes of the public pool's samples."""
    if grain not in ("class", "sample"):
        raise ValueError(f"unknown grain {grain!r}")
    return _poison(spec, np.asarray(honest_logits, dtype=float), rng, 0 if grain == "class" else 1)


def poison_samples(spec: AttackSpec, samples, rng=None) -> list:
    """Apply the matching transformation to a victim's raw (label, row)
    samples so its fingerprint reflects the poisoned knowledge; label_flip
    moves the labels, not the rows."""
    if not samples:
        return []
    labels = np.array([y for y, _ in samples], dtype=int)
    rows = _poison(spec, np.array([row for _, row in samples], dtype=float), rng, None)
    if spec.kind == "label_flip":
        labels = _flip_permutation(spec, rows.shape[1])[labels - 1] + 1
    return [(int(y), row) for y, row in zip(labels, rows)]


def poison_provider(provider, specs_by_victim: dict, grain: str, seed=0):
    """Wrap a logits provider so victims emit attacked samples and matrices
    of the given grain.

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
            out = (
                poison_samples(spec, samples, rng=np.random.default_rng([seed, 11, cid])),
                apply_attack(spec, matrix, grain, rng=np.random.default_rng([seed, 12, cid])),
            )
        cache[cid] = out
        return out

    return wrapped


def _shifted(values: np.ndarray, index, delta) -> np.ndarray:
    """A copy of values with the entry at index moved by delta."""
    moved = values.copy()
    moved[index] += delta
    return moved


@dataclass(frozen=True)
class RoundTamper:
    """One in-flight mutation, targeted at a single group."""

    kind: str
    leader: int
    member: int | None = None
    sender: int | None = None
    entry: tuple = (0, 0)
    delta: float = 0.0

    def mutations(self, plan, live: tuple) -> dict:
        """This tamper's bus mutation in its group, keyed as
        `MessageBus.mutations` is. Unspecified targets are the first live
        members: a share tamper hits live[0]'s share to live[1], a weight
        tamper skews live[1]'s weight in live[0]'s plan, and a server tamper
        moves an entry of the first decoded slice. A tamper that would hit no
        message raises ValueError: a share not sent from one live member to
        another (a straggler takes none, and a share to oneself stays local),
        a plan or weight of a member that is not live, and any other kind."""
        leader, entry, delta = plan.leader, self.entry, self.delta
        where = f"(group {leader}, live {live})"
        first = live[0] if live else None
        second = live[1] if len(live) > 1 else first
        if self.kind == "share_tamper":
            sender = first if self.sender is None else self.sender
            receiver = second if self.member is None else self.member
            if sender not in live or receiver not in live or sender == receiver:
                raise ValueError(f"share tamper {sender} -> {receiver} hits no message {where}")
            key, name = (SHARE, sender, receiver, leader), "share"

            def edit(share):
                return EncodedShare(share.sender, share.receiver, _shifted(share.payload, entry, delta))

        elif self.kind == "weight_tamper":
            member = first if self.member is None else self.member
            target = second if self.sender is None else self.sender
            if member not in live or target not in live:
                raise ValueError(f"weight tamper on {target}'s weight in {member}'s plan hits no message {where}")
            key, name = (PLAN_DISTRIBUTION, leader, member, leader), "blinded_weights"
            x, shift = plan.members.index(target), delta * plan.blind_factor

            def edit(weights):
                return _shifted(weights, x, shift)

        elif self.kind == "server_tamper":
            key, name = (DECODED_RESULT, SERVER, leader, None), "decoded"

            def edit(decoded):
                return [_shifted(decoded[0], entry, delta), *decoded[1:]]

        else:
            raise ValueError(f"tamper kind {self.kind!r} hits no message (group {leader})")
        return {key: lambda payload: {**payload, name: edit(payload[name])}}


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
