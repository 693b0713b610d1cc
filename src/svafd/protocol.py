"""Round orchestration over a simulated message bus.

A round runs filtration, then one group protocol per leader. In filtration
each client sends its hashed knowledge fingerprint once, to the `BROADCAST`
pseudo-receiver, and every client selects the group it leads by scoring the
fingerprints taken from there, so a fingerprint altered in flight moves the
groups. The group protocol is written once, as three stages over a `_Group`
state: `_prepare` (the plan; members quantize, split, blind and sign; the
plaintext oracle), `_exchange` (encode, deliver shares, aggregate; a member's
bundle is dropped once it encodes) and `_conclude` (decode, proof, deblind,
verify; "insufficient" below the interpolation threshold).

`_exchange` and `_conclude` send and take the group's messages themselves,
through the `MessageBus`'s `send` and `take`: `run_round` passes the round's
bus, `run_single_group` and the tests a fresh one over an empty transcript.
Every party acts only on what it takes: a member on its plan and the shares
it holds (its share to itself stays local), the server on its roster, the
aggregates and the signatures, and the leader on its key shares and the
decoded result. A message names its sender and receiver only on the bus
envelope, and the party that takes it reads them there; a payload's
"leader" routes it to its group. Every in-flight attack, built by the
threats module, enters as a mutation that `MessageBus.send` applies to one
message before recording it; one that returns `DROP` stops the message, a
late dropout.

The bus delivers in a deterministic order: given equal configs and seeds,
two runs produce byte-identical transcripts. Declared stragglers send no
shares and no aggregates and take nothing as members, so after a round only
the member messages addressed to stragglers stay filed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import coding, filtration, sigcrypto
from .numerics import make_nodes, relative_error

SERVER = -1
BROADCAST = -2  # pseudo-receiver of a message every client reads
DROP = object()  # what a bus mutation returns to stop its message: a late dropout

# message kinds, each bound to one stage
HASHED_CAL = "hashed_cal"
PLAN_DISTRIBUTION = "plan_distribution"
SHARE = "share"
KEY_SHARE = "key_share"
AGGREGATED_SHARE = "aggregated_share"
AUX_PROOF = "aux_proof"
DECODED_RESULT = "decoded_result"

STAGE_OF_KIND = {
    HASHED_CAL: "filtration",
    PLAN_DISTRIBUTION: "aggregation",
    SHARE: "aggregation",
    KEY_SHARE: "aggregation",
    AGGREGATED_SHARE: "aggregation",
    AUX_PROOF: "aggregation",
    DECODED_RESULT: "verification",
}

class InfeasibleConfig(ValueError):
    """Round parameters cannot clear the interpolation threshold."""


# the `RoundConfig` fields one group reads beyond r, k and t: what
# `run_single_group` takes as params
GROUP_FIELDS = ("grain", "d", "omega", "q", "sigma", "theta", "radius", "f_degree")


@dataclass(frozen=True)
class RoundConfig:
    n: int = 20
    r: int = 5
    k: int = 2
    t: int = 1
    q: int = 3
    sigma: float = 1e3
    theta: float = 6.0
    radius: float = 1.0
    grain: str = "class"
    f_degree: int = 1
    seed: int = 0
    d: int = 10
    omega: int = 32  # sample-grain rows per slice; the public pool is omega * k
    straggler_ids: frozenset = frozenset()
    backend: str = "mock"

    def tensor_shape(self) -> tuple[int, int]:
        """Shape of one slice, and of the blind factor."""
        if self.grain == "class":
            return (self.d, self.d)
        return (self.omega, self.d)

    def logits_shape(self) -> tuple[int, int]:
        """Shape of one client's logits: the (d, d) matrix for class grain,
        omega * k rows of d for sample grain (k slices of omega rows)."""
        if self.grain == "class":
            return (self.d, self.d)
        return (self.omega * self.k, self.d)

    def validate_group(self):
        """What one group needs: achievability at its r members, a known
        grain, and at least one row per slice for sample grain."""
        ach = coding.check_achievable(self.r, self.k, self.t, self.f_degree)
        if not ach.feasible:
            raise InfeasibleConfig(f"group size {self.r} below threshold {ach.threshold}")
        if self.grain == "sample" and self.omega < 1:
            raise InfeasibleConfig(f"sample grain needs omega >= 1 rows per slice, got {self.omega}")
        if self.grain not in ("class", "sample"):
            raise InfeasibleConfig(f"unknown grain {self.grain!r}")

    def validate(self):
        """What a verified round needs: r <= n - 1, every group check, and
        degree-1 aggregation."""
        if self.r > self.n - 1:
            raise InfeasibleConfig(f"r={self.r} needs at least {self.r + 1} clients")
        self.validate_group()
        if self.f_degree != 1:
            # signed digests reconcile with decoded sums only when the
            # aggregation is the weighted linear one; higher degrees are
            # supported by the coding layer but cannot be proof-checked
            raise InfeasibleConfig("verified rounds require degree-1 aggregation")


@dataclass(slots=True)
class Message:
    seq: int
    kind: str
    sender: int
    receiver: int
    payload: object


@dataclass
class GroupResult:
    leader: int
    members: tuple
    live_members: tuple
    verdict: str  # accept | reject | insufficient
    rel_error: float | None = None
    teacher: np.ndarray | None = None
    oracle: np.ndarray | None = None
    probe_distance: int | None = None
    margin_warning: bool = False  # verification's rounding margin was thin (not exported)


_quote = functools.cache(json.dumps)  # JSON text of a message kind or stage name
_EXPORT_CHUNK = 1024  # message lines joined at a time by `export_jsonl`


# A payload's digest is the SHA-256 of one byte stream: an array is "A", its
# dtype and shape as text, then its C-order buffer; a dict "D", then each key
# and its value, keys in repr order; a list or tuple "L" and its items; a
# dataclass its class name and its fields in order; anything else its repr.
# A walk appends the small pieces to `parts`, which go to the hash joined,
# once before each array buffer and once at the end.


def _walk_repr(obj, parts, h):
    parts.append(repr(obj).encode())


@functools.lru_cache(maxsize=256)
def _array_header(dtype, shape) -> bytes:
    return b"A" + str(dtype).encode() + str(shape).encode()


def _walk_array(obj, parts, h):
    parts.append(_array_header(obj.dtype, obj.shape))
    h.update(b"".join(parts))
    parts.clear()
    h.update(np.ascontiguousarray(obj))  # the buffer itself, not a bytes copy


def _walk_list(obj, parts, h):
    parts.append(b"L")
    for item in obj:
        _WALKS[type(item)](item, parts, h)


def _dict_steps(keys) -> tuple:
    """(the bytes of the key, the key), in the order the digest takes them."""
    steps = []
    for key in sorted(keys, key=repr):
        parts = []
        _WALKS[type(key)](key, parts, None)  # a hashable key holds no array
        steps.append((b"".join(parts), key))
    return tuple(steps)


# key types whose equal values print alike (1 == 1.0 and -0.0 == 0.0 do not)
_CACHED_KEY_TYPES = frozenset({str, int, bool, type(None)}) | {
    np.dtype(code).type for code in np.typecodes["AllInteger"]
}


@functools.lru_cache(maxsize=64, typed=True)  # typed: keyed on each key's type too
def _cached_dict_steps(*keys) -> tuple | None:
    """A dict's steps, built once per key layout; None where equal keys of
    these types might print differently."""
    if not _CACHED_KEY_TYPES.issuperset(map(type, keys)):
        return None
    return _dict_steps(keys)


def _walk_dict(obj, parts, h):
    parts.append(b"D")
    for key_bytes, key in _cached_dict_steps(*obj) or _dict_steps(obj):
        parts.append(key_bytes)
        value = obj[key]
        _WALKS[type(value)](value, parts, h)


def _dataclass_walk(cls):
    name, names = cls.__name__.encode(), tuple(f.name for f in fields(cls))

    def walk(obj, parts, h):
        parts.append(name)
        for f in names:
            value = getattr(obj, f)
            _WALKS[type(value)](value, parts, h)

    return walk


class _Walks(dict):
    """The walk for each class, built on its first payload."""

    def __missing__(self, cls):
        if issubclass(cls, np.ndarray):
            walk = _walk_array
        elif issubclass(cls, dict):
            walk = _walk_dict
        elif issubclass(cls, (list, tuple)):
            walk = _walk_list
        elif hasattr(cls, "__dataclass_fields__"):
            walk = _dataclass_walk(cls)
        else:
            walk = _walk_repr
        self[cls] = walk
        return walk


_WALKS = _Walks()


def payload_digest(payload) -> str:
    h, parts = hashlib.sha256(), []
    _WALKS[type(payload)](payload, parts, h)
    h.update(b"".join(parts))
    return h.hexdigest()


@dataclass
class RoundTranscript:
    """Append-only record of every message plus per-group outcomes."""

    messages: list = field(default_factory=list)
    group_results: dict = field(default_factory=dict)
    topology: filtration.Topology | None = None

    def export_jsonl(self) -> str:
        """One JSON line per message (sorted keys, payload as its SHA-256),
        then one per group result in leader order.

        The export streams. A message whose payload is the very object of
        the message before it (a group's plan, sent to each member in turn)
        reuses that digest; every other payload is digested afresh, so the
        memo holds one payload and nothing carries over to a later export.
        Each line carries its newline. Lines are joined `_EXPORT_CHUNK` at a
        time and the chunks once, into the result, so besides the result the
        export holds the joined chunks and at most one chunk of line strings,
        and never copies the whole text again.
        """
        chunks, lines = [], []
        last = digest = None
        for m in self.messages:
            if digest is None or m.payload is not last:
                last, digest = m.payload, payload_digest(m.payload)
            # the same bytes as json.dumps(..., sort_keys=True) of the record
            lines.append(
                f'{{"from": {m.sender}, "kind": {_quote(m.kind)}, "payload_sha256": "{digest}", '
                f'"seq": {m.seq}, "stage": {_quote(STAGE_OF_KIND[m.kind])}, "to": {m.receiver}}}\n'
            )
            if len(lines) == _EXPORT_CHUNK:
                chunks.append("".join(lines))
                lines.clear()
        for leader in sorted(self.group_results):
            res = self.group_results[leader]
            lines.append(
                json.dumps(
                    {
                        "kind": "group_result",
                        "leader": leader,
                        "members": list(res.members),
                        "live_members": list(res.live_members),
                        "verdict": res.verdict,
                        "rel_error": None if res.rel_error is None else repr(res.rel_error),
                        "probe_distance": res.probe_distance,
                    },
                    sort_keys=True,
                )
                + "\n"
            )
        chunks.append("".join(lines))
        return "".join(chunks) or "\n"  # an empty transcript exports one empty line


class MessageBus:
    """Deterministic in-process delivery: every message is recorded in the
    transcript and filed in an inbox in send order.

    A `Message` is a slotted, mutable dataclass: building one is the bulk
    of a send, and the transcript export reads its fields but digests only
    its payload, never the record itself.

    Inboxes are indexed by (receiver, kind, leader), where leader is the
    payload's "leader" entry (None for payloads without one), so `take`
    pops exactly one group's messages of one kind without scanning or
    requeueing anyone else's. Every party takes what it acts on: the
    fingerprint broadcast is taken once, from `BROADCAST`, and only the
    member messages addressed to stragglers stay filed.

    `mutations` is the one point where an in-flight attack enters: it maps
    (kind, sender, receiver, leader) to a function that returns the payload
    to deliver in place of the one sent, or `DROP`. `send` applies it to the
    first message under that key, before recording, so the transcript shows
    what was delivered; a dropped message is neither recorded nor filed, and
    `send` returns None. The transcript append is locked only by Python's
    GIL semantics; a single-threaded scheduler drives this engine."""

    def __init__(self, transcript: RoundTranscript):
        self.transcript = transcript
        self.inboxes: dict[tuple, list[Message]] = {}
        self.mutations: dict[tuple, Callable] = {}
        self._seq = 0

    def send(self, kind: str, sender: int, receiver: int, payload) -> Message | None:
        leader = payload.get("leader") if isinstance(payload, dict) else None
        if self.mutations:
            mutate = self.mutations.pop((kind, sender, receiver, leader), None)
            if mutate is not None:
                payload = mutate(payload)
                if payload is DROP:
                    return None
        msg = Message(seq=self._seq, kind=kind, sender=sender, receiver=receiver, payload=payload)
        self._seq += 1
        self.transcript.messages.append(msg)
        self.inboxes.setdefault((receiver, kind, leader), []).append(msg)
        return msg

    def take(self, receiver: int, kind: str, leader=None) -> list[Message]:
        """Remove and return, in send order, the messages of this kind for
        this receiver whose payload names this leader."""
        return self.inboxes.pop((receiver, kind, leader), [])


class _Timer:
    """One `PerfRecorder.timer` block: records its wall time and count on
    exit, also when the body raises."""

    __slots__ = ("perf", "key", "count", "t0")

    def __init__(self, perf, key, count):
        self.perf, self.key, self.count = perf, key, count

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        perf, key = self.perf, self.key
        perf.samples.setdefault(key, []).append(dt)
        perf.counts[key] = perf.counts.get(key, 0) + self.count


class PerfRecorder:
    """Wall-time samples per (role, stage), with operation counts."""

    def __init__(self):
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[tuple[str, str], int] = {}

    def timer(self, role: str, stage: str, count: int = 1) -> _Timer:
        return _Timer(self, (role, stage), count)

    def rows(self):
        out = []
        for (role, stage), vals in sorted(self.samples.items()):
            arr = np.asarray(vals)
            out.append(
                {
                    "role": role,
                    "stage": stage,
                    "count": self.counts[(role, stage)],
                    "mean_s": float(arr.mean()),
                    "var_s": float(arr.var()),
                    "total_s": float(arr.sum()),
                }
            )
        return out


def _oracle_teacher(bundles: dict, weights: dict, f_coeffs, grain: str, k: int):
    """Plaintext reference: weighted f over each quantized slice, rejoined.

    Each slot is one running sum over the bundles in their order; for
    f(x) = x it takes no polynomial evaluation, and Horner (`apply_poly`)
    runs per slice only for any other f."""
    identity = coding.is_identity(f_coeffs)
    slices = []
    for slot in range(k):
        acc = term = None
        for z, bundle in bundles.items():
            part = bundle.slices[slot] if identity else coding.apply_poly(f_coeffs, bundle.slices[slot]).real
            if acc is None:
                acc = weights[z] * part
                term = np.empty_like(acc)
            else:
                acc += np.multiply(weights[z], part, out=term)
        slices.append(acc)
    if grain == "class":
        return np.sum(slices, axis=0)
    return np.concatenate(slices, axis=0)


@dataclass
class _Group:
    """One group's state, filled in stage by stage."""

    cfg: RoundConfig
    plan: coding.GroupPlan
    live: tuple  # members that take part, in plan order
    backend: object
    perf: PerfRecorder
    weight_ints: dict
    weight_sigs: dict | None
    bundles: dict = field(default_factory=dict)  # live member -> blinded SplitBundle, until it encodes
    oracle: np.ndarray | None = None  # plaintext reference teacher, fixed once every live member has prepared
    keys: dict = field(default_factory=dict)  # member -> PrivateKey
    logits_sigs: dict = field(default_factory=dict)


def _prepare(cfg, leader, roster, rng, inputs, backend, perf, *, keys=None, weights=None) -> _Group:
    """Stage 1, member preparation: the leader's plan and weight signatures,
    then each live member (not in `cfg.straggler_ids`) quantizes, splits, blinds and signs its logits.
    Once all have, the plaintext oracle is fixed from their bundles, which
    `_exchange` then drops one by one as each member encodes.

    inputs(member) returns (raw logits, member rng). Keys come from keys,
    which maps every member to its key, or are drawn from each live member's
    rng after blinding when keys is None.
    """
    with perf.timer("leader", "preprocess"):
        plan = coding.make_group_plan(
            leader, roster, cfg.k, cfg.t, cfg.tensor_shape(), rng, radius=cfg.radius, q=cfg.q, weights=weights
        )
    live = tuple(m for m in plan.members if m not in cfg.straggler_ids)
    weight_ints = {m: sigcrypto.quantize_weight(w, cfg.q) for m, w in zip(plan.members, plan.weights)}
    weight_sigs = None
    if backend is not None:
        with perf.timer("leader", "auxiliary", count=len(plan.members)):
            weight_sigs = dict(zip(plan.members, sigcrypto.sign_weights(list(weight_ints.values()), backend)))
    group = _Group(cfg, plan, live, backend, perf, weight_ints, weight_sigs, keys=keys or {})
    for member in sorted(live):
        raw, member_rng = inputs(member)
        with perf.timer("follower", "preprocess"):
            logits_q = coding.quantize(raw, cfg.q)
            bundle = coding.split(logits_q, cfg.k, cfg.grain, rng=member_rng, quantize_digits=cfg.q)
            bundle = coding.blind(bundle, cfg.t, cfg.sigma, cfg.theta, member_rng)
        group.bundles[member] = bundle
        if backend is not None:
            if keys is None:
                group.keys[member] = sigcrypto.gen_key(backend, member_rng)
            with perf.timer("follower", "auxiliary", count=cfg.k):
                group.logits_sigs[member] = tuple(
                    sigcrypto.sign_logits(sigcrypto.digest(bundle), group.keys[member], cfg.q, backend)
                )
    if live:
        weights_of = dict(zip(plan.members, plan.weights))
        group.oracle = _oracle_teacher(group.bundles, weights_of, coding.monomial(cfg.f_degree), cfg.grain, cfg.k)
    return group


def _exchange(group: _Group, bus) -> None:
    """Stage 2, share exchange: the leader sends each member the plan and the
    server the roster; every member sends its key share and signatures.
    Every live member takes its plan, encodes its bundle under the plan's
    Lagrange coefficients and sends the x-th share to the plan's x-th member,
    keeping its share to itself; the group drops the bundle there, so none
    is left after this stage. After the leader's weight signatures, each
    attributes every share it holds to its bus sender, aggregates them in its
    plan's member order under the plan's blinded weights and sends the
    aggregate, naming those members as contributors, to the server."""
    cfg, plan, perf = group.cfg, group.plan, group.perf
    leader, send = plan.leader, bus.send
    distribution = dict(
        leader=leader, lagrange=plan.lagrange, blinded_weights=plan.blinded_weights, members=plan.members
    )
    for member in plan.members:
        send(PLAN_DISTRIBUTION, leader, member, distribution)
    # roster registration: the server learns who maps to which evaluation
    # point, never the weights or the blind
    roster = dict(leader=leader, members=plan.members, k=cfg.k, t=cfg.t, radius=cfg.radius)
    send(PLAN_DISTRIBUTION, leader, SERVER, roster)
    own, plans = {}, {}
    for member in sorted(plan.members):
        if member in group.keys:
            send(KEY_SHARE, member, leader, {"upsilon": group.keys[member].upsilon})
        if member in group.logits_sigs:
            send(AUX_PROOF, member, SERVER, {"leader": leader, "logits_sigs": group.logits_sigs[member]})
        if member not in group.bundles:
            continue
        [taken] = bus.take(member, PLAN_DISTRIBUTION, leader)
        mine = plans[member] = taken.payload
        with perf.timer("follower", "encode"):
            shares = coding.encode(group.bundles.pop(member), mine["lagrange"], mine["members"])
        for receiver, share in zip(mine["members"], shares):
            if receiver == member:
                own[member] = share
            else:
                send(SHARE, member, receiver, {"leader": leader, "share": share})
    send(AUX_PROOF, leader, SERVER, {"leader": leader, "weight_sigs": group.weight_sigs})
    f_coeffs = coding.monomial(cfg.f_degree)
    for member in sorted(group.live):
        held = {member: own[member]} | {m.sender: m.payload["share"] for m in bus.take(member, SHARE, leader)}
        mine = plans[member]
        view = {m: w for m, w in zip(mine["members"], mine["blinded_weights"]) if m in held}
        with perf.timer("follower", "aggregate"):
            agg = coding.local_aggregate([held[m] for m in view], view, f_coeffs)
        send(AGGREGATED_SHARE, member, SERVER, dict(leader=leader, payload=agg.payload, contributors=tuple(view)))


def _conclude(group: _Group, bus) -> GroupResult:
    """Stage 3, conclusion: the server takes its roster, the aggregates and
    the signatures, places each aggregate at the evaluation point of its bus
    sender's position in the roster, decodes at the roster's nodes, proves
    over the contributors the aggregates name and sends all three to the
    leader. The leader takes its key shares and that result, then deblinds
    and verifies; the relative error is against the oracle fixed in
    `_prepare`.
    Fewer aggregates than the interpolation threshold is "insufficient"."""
    cfg, plan, backend, perf = group.cfg, group.plan, group.backend, group.perf
    leader = plan.leader
    key_of = {m.sender: sigcrypto.PrivateKey(m.payload["upsilon"]) for m in bus.take(leader, KEY_SHARE)}
    [roster] = [m.payload for m in bus.take(SERVER, PLAN_DISTRIBUTION, leader)]
    aggregates = bus.take(SERVER, AGGREGATED_SHARE, leader)
    point_of = {m: x for x, m in enumerate(roster["members"])}
    points = [(point_of[m.sender], m.payload["payload"]) for m in aggregates]
    signatures = bus.take(SERVER, AUX_PROOF, leader)
    logits_sigs = {m.sender: m.payload["logits_sigs"] for m in signatures if "logits_sigs" in m.payload}
    [weight_sigs] = [m.payload["weight_sigs"] for m in signatures if "weight_sigs" in m.payload]
    result = GroupResult(leader, plan.members, group.live, "insufficient", oracle=group.oracle)
    try:
        with perf.timer("server", "decode"):
            nodes = make_nodes(len(roster["members"]), roster["k"], roster["t"], radius=roster["radius"])
            decoded = coding.decode(points, nodes, roster["k"], roster["t"], cfg.f_degree)
    except coding.InsufficientShares:
        return result
    contributors = aggregates[0].payload["contributors"]
    proof = None
    if backend is not None:
        aux = sigcrypto.AuxProofs({z: logits_sigs[z] for z in contributors}, {z: weight_sigs[z] for z in contributors})
        with perf.timer("server", "proof", count=len(contributors)):
            proof = sigcrypto.aggregate_proof(aux, backend)
    bus.send(DECODED_RESULT, SERVER, leader, {"decoded": decoded, "proof": proof, "contributors": contributors})

    [delivered] = [m.payload for m in bus.take(leader, DECODED_RESULT)]
    result.teacher = coding.deblind_and_join(delivered["decoded"], plan.blind_factor, cfg.grain)
    result.verdict = "accept"
    if backend is not None:
        contributors = delivered["contributors"]
        weight_ints, keys = [group.weight_ints[z] for z in contributors], [key_of[z] for z in contributors]
        with perf.timer("leader", "verify"):
            verdict = sigcrypto.verify(delivered["proof"], result.teacher, weight_ints, keys, cfg.k, cfg.q, backend)
        result.verdict = "accept" if verdict.accepted else "reject"
        result.probe_distance = verdict.probe_distance
        result.margin_warning = verdict.margin_warning
    if float(np.linalg.norm(group.oracle)) != 0.0:
        result.rel_error = relative_error(result.teacher, group.oracle)
    return result


def run_round(cfg: RoundConfig, logits_provider, tamper=None) -> RoundTranscript:
    """Execute one full round for every client's group.

    logits_provider(client_id) must return (sample list, knowledge matrix)
    for every non-straggler client. tamper, when given, attacks the group
    of `tamper.leader`: `tamper.mutations(plan, live)` (see the threats
    module) gives its bus mutations, `DROP` included, once that group has
    prepared. Deterministic in cfg.seed.
    """
    cfg.validate()
    backend = sigcrypto.get_backend(cfg.backend)
    transcript = RoundTranscript()
    bus = MessageBus(transcript)
    clients = list(range(cfg.n))

    # --- filtration ---------------------------------------------------
    proj_seed = int(np.random.default_rng([cfg.seed, 101]).integers(2**63))
    lsh_cfg = filtration.LshConfig(projection_seed=proj_seed)
    matrices = {}
    for cid in clients:
        samples, matrix = logits_provider(cid)
        matrices[cid] = np.asarray(matrix, dtype=float)
        cal = filtration.compute_cal(samples)
        bus.send(HASHED_CAL, cid, BROADCAST, filtration.lsh_project(cal, lsh_cfg))
    # every client scores the fingerprints that crossed the bus
    delivered = {m.sender: m.payload for m in bus.take(BROADCAST, HASHED_CAL)}
    scores = filtration.intimacy_matrix(delivered)
    groups = {cid: filtration.select_group(cid, scores[cid], cfg.r) for cid in clients}
    transcript.topology = filtration.build_topology(groups)

    # --- aggregation, then verification in a second pass over leaders ---
    keys = {cid: sigcrypto.gen_key(backend, np.random.default_rng([cfg.seed, 4, cid])) for cid in clients}
    perf, runs = PerfRecorder(), []
    for leader in clients:
        group = _prepare(
            cfg, leader, groups[leader], np.random.default_rng([cfg.seed, 2, leader]),
            lambda m, leader=leader: (matrices[m], np.random.default_rng([cfg.seed, 3, leader, m])),
            backend, perf, keys=keys,
        )
        if tamper is not None and tamper.leader == leader:
            bus.mutations.update(tamper.mutations(group.plan, group.live))
        _exchange(group, bus)
        runs.append(group)
    for group in runs:
        transcript.group_results[group.plan.leader] = _conclude(group, bus)
    return transcript


def run_single_group(
    r: int,
    k: int,
    t: int,
    *,
    seed=0,
    backend=None,
    perf: PerfRecorder | None = None,
    logits: dict | None = None,
    **params,
) -> GroupResult:
    """One group's pipeline outside a round, over a fresh bus: the
    relative-error measurement path for the error table's cells, and the
    stage-timing path when a backend is given (signatures, proof and
    verification included). params are the `RoundConfig` fields named in
    `GROUP_FIELDS`, at their defaults when left out; any other key is a
    TypeError. The group is checked by `validate_group` before any plan is
    built."""
    unknown = params.keys() - GROUP_FIELDS
    if unknown:
        raise TypeError(f"run_single_group() takes no group field {', '.join(sorted(unknown))}")
    cfg = RoundConfig(n=r, r=r, k=k, t=t, **params)
    cfg.validate_group()
    if backend is not None and cfg.f_degree != 1:
        raise ValueError("proof verification covers degree-1 aggregation only")
    rng = np.random.default_rng([seed, r, k, t] if isinstance(seed, int) else seed)
    shape = cfg.logits_shape()

    def inputs(z):
        return (logits[z] if logits is not None else rng.uniform(-10, 10, shape)), rng

    perf = perf if perf is not None else PerfRecorder()
    group = _prepare(cfg, r, range(r), rng, inputs, backend, perf)
    bus = MessageBus(RoundTranscript())
    _exchange(group, bus)
    return _conclude(group, bus)

