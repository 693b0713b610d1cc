"""Round orchestration over a simulated message bus.

One round runs three stages. Filtration: clients exchange hashed knowledge
fingerprints and every client selects the group it will lead. Aggregation:
leaders distribute coefficient matrices and blinded weights, members split,
blind, encode and cross-share their logits, then locally aggregate what they
received. Verification: the server decodes each group's aggregates, folds the
members' signatures into one proof, and the leader deblinds, rejoins and
checks the result.

The bus is an in-process queue with deterministic delivery order: given equal
configs and seeds, two runs produce byte-identical transcripts. Declared
stragglers send no shares and no aggregates; groups that still clear the
interpolation threshold succeed, the rest record the failure.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

import numpy as np

from . import coding, filtration, sigcrypto
from .numerics import relative_error

SERVER = -1

# message kinds, each bound to one stage
HASHED_CAL = "hashed_cal"
GROUP_INVITE = "group_invite"
PLAN_DISTRIBUTION = "plan_distribution"
SHARE = "share"
KEY_SHARE = "key_share"
AGGREGATED_SHARE = "aggregated_share"
AUX_PROOF = "aux_proof"
DECODED_RESULT = "decoded_result"

STAGE_OF_KIND = {
    HASHED_CAL: "filtration",
    GROUP_INVITE: "aggregation",
    PLAN_DISTRIBUTION: "aggregation",
    SHARE: "aggregation",
    KEY_SHARE: "aggregation",
    AGGREGATED_SHARE: "aggregation",
    AUX_PROOF: "aggregation",
    DECODED_RESULT: "verification",
}

SERVER_VISIBLE_KINDS = frozenset({PLAN_DISTRIBUTION, AGGREGATED_SHARE, AUX_PROOF})


class InfeasibleConfig(ValueError):
    """Round parameters cannot clear the interpolation threshold."""


@dataclass(frozen=True)
class RoundConfig:
    n: int
    r: int
    k: int
    t: int
    q: int = 3
    p: int = 16
    sigma: float = 1e3
    theta: float = 6.0
    radius: float = 1.0
    grain: str = "class"
    f_degree: int = 1
    seed: int = 0
    d: int = 10
    o: int = 0  # sample-grain public-pool size
    straggler_ids: frozenset = frozenset()
    backend: str = "mock"
    leader_in_group: bool = False

    def group_size(self) -> int:
        return self.r + (1 if self.leader_in_group else 0)

    def tensor_shape(self) -> tuple[int, int]:
        if self.grain == "class":
            return (self.d, self.d)
        return (self.o // self.k, self.d)

    def validate(self):
        if self.r > self.n - 1:
            raise InfeasibleConfig(f"r={self.r} needs at least {self.r + 1} clients")
        ach = coding.check_achievable(self.group_size(), self.k, self.t, self.f_degree)
        if not ach.feasible:
            raise InfeasibleConfig(
                f"group size {self.group_size()} below threshold {ach.threshold}"
            )
        if self.grain == "sample" and (self.o < 1 or self.o % self.k != 0):
            raise InfeasibleConfig(f"pool size {self.o} must be a positive multiple of k")
        if self.f_degree != 1:
            # signed digests reconcile with decoded sums only when the
            # aggregation is the weighted linear one; higher degrees are
            # supported by the coding layer but cannot be proof-checked
            raise InfeasibleConfig("verified rounds require degree-1 aggregation")


@dataclass(frozen=True)
class Message:
    seq: int
    stage: str
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


@functools.cache
def _dtype_bytes(dtype) -> bytes:
    return str(dtype).encode()


@functools.cache
def _layout(cls):
    """How `_feed` walks instances of cls: a one-letter tag, and for a
    dataclass its name and field names."""
    if issubclass(cls, np.ndarray):
        return "A"
    if issubclass(cls, dict):
        return "D"
    if issubclass(cls, (list, tuple)):
        return "L"
    if hasattr(cls, "__dataclass_fields__"):
        return cls.__name__.encode(), tuple(f.name for f in fields(cls))
    return "R"


def _feed(h, obj):
    layout = _layout(type(obj))
    if layout == "R":
        h.update(repr(obj).encode())
    elif layout == "A":
        h.update(b"A")
        h.update(_dtype_bytes(obj.dtype))
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif layout == "D":
        h.update(b"D")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
    elif layout == "L":
        h.update(b"L")
        for item in obj:
            _feed(h, item)
    else:
        name, names = layout
        h.update(name)
        for f in names:
            _feed(h, getattr(obj, f))


def payload_digest(payload) -> str:
    h = hashlib.sha256()
    _feed(h, payload)
    return h.hexdigest()


@dataclass
class RoundTranscript:
    """Append-only record of every message plus per-group outcomes."""

    config_digest: str
    messages: list = field(default_factory=list)
    group_results: dict = field(default_factory=dict)
    topology: filtration.Topology | None = None

    def messages_of(self, kind=None, sender=None, receiver=None):
        out = []
        for m in self.messages:
            if kind is not None and m.kind != kind:
                continue
            if sender is not None and m.sender != sender:
                continue
            if receiver is not None and m.receiver != receiver:
                continue
            out.append(m)
        return out

    def export_jsonl(self) -> str:
        """One JSON line per message (sorted keys, payload as its SHA-256),
        then one per group result in leader order.

        A payload sent to many receivers (the fingerprint broadcast) is
        digested once per call: digests are memoized by id(payload), which
        is sound because the transcript keeps every payload alive for the
        whole call. The memo is local, so a later export re-digests
        everything and sees any message appended since.
        """
        digests: dict[int, str] = {}
        lines = []
        for m in self.messages:
            digest = digests.get(id(m.payload))
            if digest is None:
                digest = digests[id(m.payload)] = payload_digest(m.payload)
            # the same bytes as json.dumps(..., sort_keys=True) of the record
            lines.append(
                f'{{"from": {m.sender}, "kind": {_quote(m.kind)}, "payload_sha256": "{digest}", '
                f'"seq": {m.seq}, "stage": {_quote(m.stage)}, "to": {m.receiver}}}'
            )
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
            )
        return "\n".join(lines) + "\n"


class MessageBus:
    """Deterministic in-process delivery: every message is recorded in the
    transcript and filed in an inbox in send order.

    Inboxes are indexed by (receiver, kind, leader), where leader is the
    payload's "leader" entry (None for payloads without one), so `take`
    pops exactly one group's messages of one kind without scanning or
    requeueing anyone else's. Messages nobody takes (the fingerprint
    broadcast) just stay filed. The transcript append is locked only by
    Python's GIL semantics; a single-threaded scheduler drives this engine."""

    def __init__(self, transcript: RoundTranscript):
        self.transcript = transcript
        self.inboxes: dict[tuple, list[Message]] = {}
        self._seq = 0

    def send(self, kind: str, sender: int, receiver: int, payload) -> Message:
        msg = Message(
            seq=self._seq,
            stage=STAGE_OF_KIND[kind],
            kind=kind,
            sender=sender,
            receiver=receiver,
            payload=payload,
        )
        self._seq += 1
        self.transcript.messages.append(msg)
        leader = payload.get("leader") if isinstance(payload, dict) else None
        self.inboxes.setdefault((receiver, kind, leader), []).append(msg)
        return msg

    def take(self, receiver: int, kind: str, leader=None) -> list[Message]:
        """Remove and return, in send order, the messages of this kind for
        this receiver whose payload names this leader."""
        return self.inboxes.pop((receiver, kind, leader), [])


class PerfRecorder:
    """Wall-time samples per (role, stage), with operation counts."""

    def __init__(self):
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.counts: dict[tuple[str, str], int] = {}

    @contextmanager
    def timer(self, role: str, stage: str, count: int = 1):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            key = (role, stage)
            self.samples.setdefault(key, []).append(dt)
            self.counts[key] = self.counts.get(key, 0) + count

    def total(self, role: str, stage: str) -> float:
        return sum(self.samples.get((role, stage), []))

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
    """Plaintext reference: weighted f over each quantized slice, rejoined."""
    slices = []
    for slot in range(k):
        acc = None
        for z, bundle in bundles.items():
            term = weights[z] * coding.apply_poly(f_coeffs, bundle.slices[slot]).real
            acc = term if acc is None else acc + term
        slices.append(acc)
    if grain == "class":
        return np.sum(slices, axis=0)
    return np.concatenate(slices, axis=0)


def _maybe_rel_error(teacher, oracle):
    if teacher is None or oracle is None or float(np.linalg.norm(oracle)) == 0.0:
        return None
    return relative_error(teacher, oracle)


def _resolve_tamper(tamper, leader: int, live: tuple):
    """Fill unspecified tamper targets with the group's first live members."""
    if tamper is None or tamper.leader != leader or not live:
        return None
    member = tamper.member
    sender = tamper.sender
    if tamper.kind == "share_tamper":
        sender = sender if sender is not None else live[0]
        member = member if member is not None else (live[1] if len(live) > 1 else live[0])
    elif tamper.kind == "weight_tamper":
        member = member if member is not None else live[0]
        sender = sender if sender is not None else (live[1] if len(live) > 1 else live[0])
    return type(tamper)(
        kind=tamper.kind,
        leader=leader,
        member=member,
        sender=sender,
        entry=tamper.entry,
        delta=tamper.delta,
    )


def run_round(cfg: RoundConfig, logits_provider, tamper=None, collect_arrays: bool = True) -> RoundTranscript:
    """Execute one full round for every client's group.

    logits_provider(client_id) must return (sample list, knowledge matrix)
    for every non-straggler client. tamper, when given, is applied to exactly
    one group (see the threats module). Deterministic in cfg.seed.
    """
    cfg.validate()
    backend = sigcrypto.get_backend(cfg.backend)
    transcript = RoundTranscript(config_digest=payload_digest(repr(cfg)))
    bus = MessageBus(transcript)
    clients = list(range(cfg.n))
    stragglers = frozenset(cfg.straggler_ids)
    f_coeffs = coding.monomial(cfg.f_degree)

    # --- filtration ---------------------------------------------------
    proj_seed = int(np.random.default_rng([cfg.seed, 101]).integers(2**63))
    lsh_cfg = filtration.LshConfig(projection_seed=proj_seed, p=cfg.p)
    matrices, hashed = {}, {}
    for cid in clients:
        samples, matrix = logits_provider(cid)
        matrices[cid] = np.asarray(matrix, dtype=float)
        cal = filtration.compute_cal(samples)
        hashed[cid] = filtration.lsh_project(cal, lsh_cfg)
    for cid in clients:
        for other in clients:
            if other != cid:
                bus.send(HASHED_CAL, cid, other, hashed[cid])
    scores = filtration.intimacy_matrix(hashed)
    groups = {
        cid: filtration.select_group(filtration.IntimacyList(cid, scores[cid]), cfg.r) for cid in clients
    }
    topology = filtration.build_topology(groups)
    transcript.topology = topology

    # --- aggregation ---------------------------------------------------
    keys = {cid: sigcrypto.gen_key(backend, np.random.default_rng([cfg.seed, 4, cid])) for cid in clients}
    shape = cfg.tensor_shape()
    plans, live_by_group = {}, {}
    bundles_by_group: dict[int, dict] = {}
    aux_by_group: dict[int, dict] = {}

    for leader in clients:
        roster = list(groups[leader]) + ([leader] if cfg.leader_in_group else [])
        rng_leader = np.random.default_rng([cfg.seed, 2, leader])
        plan = coding.make_group_plan(
            leader, roster, cfg.k, cfg.t, shape, rng_leader, radius=cfg.radius, q=cfg.q
        )
        plans[leader] = plan
        for member in roster:
            bus.send(GROUP_INVITE, leader, member, {"leader": leader})
        for member in roster:
            bus.send(
                PLAN_DISTRIBUTION,
                leader,
                member,
                {"lagrange": plan.lagrange, "blinded_weights": plan.blinded_weights, "members": plan.members},
            )
        # roster registration: the server learns who maps to which
        # evaluation point, never the weights or the blind
        bus.send(
            PLAN_DISTRIBUTION,
            leader,
            SERVER,
            {"leader": leader, "members": plan.members, "k": cfg.k, "t": cfg.t, "radius": cfg.radius},
        )
        live_by_group[leader] = tuple(m for m in roster if m not in stragglers)
        live = live_by_group[leader]
        group_tamper = _resolve_tamper(tamper, leader, live)

        # members split, blind, sign and cross-share inside this group
        bundles, inboxes = {}, {m: [] for m in roster}
        for member in sorted(roster):
            bus.send(KEY_SHARE, member, leader, {"upsilon": keys[member].upsilon})
            if member in stragglers:
                continue
            rng_m = np.random.default_rng([cfg.seed, 3, leader, member])
            logits_q = coding.quantize(matrices[member], cfg.q)
            bundle = coding.split(logits_q, cfg.k, cfg.grain, rng=rng_m, quantize_digits=cfg.q)
            bundle = coding.blind(bundle, cfg.t, cfg.sigma, cfg.theta, rng_m)
            bundles[member] = bundle
            sigs = tuple(sigcrypto.sign_logits(sigcrypto.digest(bundle), keys[member], cfg.q, backend))
            bus.send(AUX_PROOF, member, SERVER, {"leader": leader, "logits_sigs": sigs})
            for share in coding.encode(bundle, plan, sender=member):
                payload = share.payload
                if (
                    group_tamper is not None
                    and group_tamper.kind == "share_tamper"
                    and group_tamper.sender == member
                    and group_tamper.member == share.receiver
                ):
                    payload = payload.copy()
                    payload[group_tamper.entry] += group_tamper.delta
                    share = coding.EncodedShare(member, share.receiver, payload)
                if share.receiver == member:
                    inboxes[member].append(share)
                else:
                    bus.send(SHARE, member, share.receiver, {"leader": leader, "share": share})
        bundles_by_group[leader] = bundles

        weight_ints = [sigcrypto.quantize_weight(w, cfg.q) for w in plan.weights]
        weight_sigs = dict(zip(plan.members, sigcrypto.sign_weights(weight_ints, backend)))
        bus.send(AUX_PROOF, leader, SERVER, {"leader": leader, "weight_sigs": weight_sigs})
        aux_by_group[leader] = {
            "weight_ints": dict(zip(plan.members, weight_ints)),
            "weight_sigs": weight_sigs,
        }

        for member in sorted(roster):
            if member in stragglers:
                continue
            inboxes[member].extend(msg.payload["share"] for msg in bus.take(member, SHARE, leader))
            view = {m: plan.blinded_weight_of(m) for m in live}
            if (
                group_tamper is not None
                and group_tamper.kind == "weight_tamper"
                and group_tamper.member == member
            ):
                target = group_tamper.sender if group_tamper.sender in view else live[0]
                view[target] = view[target] + group_tamper.delta * plan.blind_factor
            agg = coding.local_aggregate(inboxes[member], view, f_coeffs, holder=member)
            alpha_index = plan.members.index(member)
            bus.send(
                AGGREGATED_SHARE,
                member,
                SERVER,
                {"leader": leader, "alpha_index": alpha_index, "payload": agg.payload, "contributors": live},
            )

    # --- verification --------------------------------------------------
    for leader in clients:
        plan = plans[leader]
        live = live_by_group[leader]
        group_aggs = bus.take(SERVER, AGGREGATED_SHARE, leader)
        logits_sigs = {
            m.sender: m.payload["logits_sigs"]
            for m in bus.take(SERVER, AUX_PROOF, leader)
            if "logits_sigs" in m.payload
        }
        threshold = cfg.f_degree * (cfg.k + cfg.t - 1) + 1
        oracle = None
        if bundles_by_group[leader]:
            weights_of = dict(zip(plan.members, plan.weights))
            oracle = _oracle_teacher(
                {z: b for z, b in bundles_by_group[leader].items() if z in live},
                weights_of,
                f_coeffs,
                cfg.grain,
                cfg.k,
            )
        if len(group_aggs) < threshold:
            transcript.group_results[leader] = GroupResult(
                leader=leader,
                members=plan.members,
                live_members=live,
                verdict="insufficient",
                oracle=oracle if collect_arrays else None,
            )
            continue
        points = [(m.payload["alpha_index"], m.payload["payload"]) for m in group_aggs]
        decoded = coding.decode(points, plan.nodes, cfg.k, cfg.t, cfg.f_degree)
        if tamper is not None and tamper.kind == "server_tamper" and tamper.leader == leader:
            decoded = [s.copy() for s in decoded]
            decoded[0][tamper.entry] += tamper.delta
        contributors = group_aggs[0].payload["contributors"]
        aux = sigcrypto.AuxProofs(
            logits_sigs={z: logits_sigs[z] for z in contributors},
            weight_sigs={z: aux_by_group[leader]["weight_sigs"][z] for z in contributors},
        )
        proof = sigcrypto.aggregate_proof(aux, backend)
        bus.send(DECODED_RESULT, SERVER, leader, {"decoded": decoded, "proof": proof})

        teacher = coding.deblind_and_join(decoded, plan.blind_factor, cfg.grain)
        verdict = sigcrypto.verify(
            proof,
            teacher,
            [aux_by_group[leader]["weight_ints"][z] for z in contributors],
            [keys[z] for z in contributors],
            cfg.k,
            cfg.q,
            backend,
        )
        transcript.group_results[leader] = GroupResult(
            leader=leader,
            members=plan.members,
            live_members=live,
            verdict="accept" if verdict.accepted else "reject",
            rel_error=_maybe_rel_error(teacher, oracle),
            teacher=teacher if collect_arrays else None,
            oracle=oracle if collect_arrays else None,
            probe_distance=verdict.probe_distance,
            margin_warning=verdict.margin_warning,
        )
    return transcript


def run_single_group(
    r: int,
    k: int,
    t: int,
    *,
    grain: str = "sample",
    d: int = 10,
    omega: int = 32,
    q: int = 3,
    sigma: float = 1e3,
    theta: float = 6.0,
    radius: float = 1.0,
    f_degree: int = 1,
    seed=0,
    backend=None,
    perf: PerfRecorder | None = None,
    logits: dict | None = None,
) -> GroupResult:
    """One group's pipeline without the bus: the relative-error measurement
    path for campaign cells, and the stage-timing path when a backend is
    given (signatures, proof and verification included)."""
    perf = perf if perf is not None else PerfRecorder()
    if backend is not None and f_degree != 1:
        raise ValueError("proof verification covers degree-1 aggregation only")
    rng = np.random.default_rng([seed, r, k, t] if isinstance(seed, int) else seed)
    shape = (d, d) if grain == "class" else (omega, d)
    members = list(range(r))
    f_coeffs = coding.monomial(f_degree)

    with perf.timer("leader", "preprocess"):
        plan = coding.make_group_plan(r, members, k, t, shape, rng, radius=radius, q=q)
    weight_ints = [sigcrypto.quantize_weight(w, q) for w in plan.weights]
    weight_sigs = None
    if backend is not None:
        with perf.timer("leader", "auxiliary", count=r):
            weight_sigs = dict(zip(plan.members, sigcrypto.sign_weights(weight_ints, backend)))

    bundles, keys, logits_sigs = {}, {}, {}
    rows = d if grain == "class" else omega * k
    for z in members:
        if logits is not None:
            raw = logits[z]
        else:
            raw = rng.uniform(-10, 10, (rows, d))
        with perf.timer("follower", "preprocess"):
            bundle = coding.split(coding.quantize(raw, q), k, grain, rng=rng, quantize_digits=q)
            bundle = coding.blind(bundle, t, sigma, theta, rng)
        bundles[z] = bundle
        if backend is not None:
            keys[z] = sigcrypto.gen_key(backend, rng)
            with perf.timer("follower", "auxiliary", count=k):
                logits_sigs[z] = tuple(
                    sigcrypto.sign_logits(sigcrypto.digest(bundle), keys[z], q, backend)
                )

    inboxes = {x: [] for x in members}
    for z in members:
        with perf.timer("follower", "encode"):
            shares = coding.encode(bundles[z], plan, sender=z)
        for sh in shares:
            inboxes[sh.receiver].append(sh)

    view = {z: plan.blinded_weights[i] for i, z in enumerate(plan.members)}
    aggs = []
    for x in members:
        with perf.timer("follower", "aggregate"):
            aggs.append((x, coding.local_aggregate(inboxes[x], view, f_coeffs, holder=x)))

    with perf.timer("server", "decode"):
        decoded = coding.decode(aggs, plan.nodes, k, t, f_degree)

    proof = None
    if backend is not None:
        with perf.timer("server", "proof", count=r):
            proof = sigcrypto.aggregate_proof(
                sigcrypto.AuxProofs(logits_sigs=logits_sigs, weight_sigs=weight_sigs), backend
            )

    teacher = coding.deblind_and_join(decoded, plan.blind_factor, grain)
    verdict_str = "accept"
    probe = None
    margin_warning = False
    if backend is not None:
        with perf.timer("leader", "verify"):
            verdict = sigcrypto.verify(
                proof, teacher, weight_ints, [keys[z] for z in members], k, q, backend
            )
        verdict_str = "accept" if verdict.accepted else "reject"
        probe = verdict.probe_distance
        margin_warning = verdict.margin_warning

    oracle = _oracle_teacher(bundles, dict(zip(plan.members, plan.weights)), f_coeffs, grain, k)
    return GroupResult(
        leader=r,
        members=plan.members,
        live_members=plan.members,
        verdict=verdict_str,
        rel_error=_maybe_rel_error(teacher, oracle),
        teacher=teacher,
        oracle=oracle,
        probe_distance=probe,
        margin_warning=margin_warning,
    )


def run_campaign(
    sweep_n,
    sweep_k,
    sweep_t,
    reps: int = 5,
    seed: int = 0,
    *,
    grain: str = "sample",
    d: int = 10,
    batch: int = 32,
    q: int = 3,
    sigma: float = 1e3,
    theta: float = 6.0,
    radius: float = 1.0,
    f_degree: int = 1,
) -> dict:
    """Mean log10 relative error per (n, k, t) cell over seeded repetitions;
    infeasible cells map to None. Sample grain uses one batch of rows per
    slice (pool size = batch * k)."""
    table = {}
    for n in sweep_n:
        for k in sweep_k:
            for t in sweep_t:
                if not coding.check_achievable(n, k, t, f_degree).feasible:
                    table[(n, k, t)] = None
                    continue
                logs = []
                for rep in range(reps):
                    res = run_single_group(
                        n,
                        k,
                        t,
                        grain=grain,
                        d=d,
                        omega=batch,
                        q=q,
                        sigma=sigma,
                        theta=theta,
                        radius=radius,
                        f_degree=f_degree,
                        seed=[seed, n, k, t, rep],
                    )
                    logs.append(np.log10(res.rel_error))
                table[(n, k, t)] = float(np.mean(logs))
    return table


def membership_update(topology: filtration.Topology, joins, leaves) -> filtration.Topology:
    """Carry the topology across a membership change: departed clients drop
    out of every group and edge, joiners arrive isolated. The next round's
    filtration rebuilds all groups from scratch."""
    joins = set(joins)
    leaves = set(leaves)
    nodes = (set(topology.nodes) - leaves) | joins
    groups = {}
    for leader, members in topology.groups.items():
        if leader in leaves:
            continue
        groups[leader] = [m for m in members if m not in leaves]
    pruned = filtration.build_topology(groups)
    return filtration.Topology(
        nodes=frozenset(nodes | set(pruned.nodes)), edges=pruned.edges, groups=groups
    )


def workload_provider(cfg: RoundConfig, alpha: float = 1.0, samples: int = 300, **profile_kwargs):
    """Deterministic per-client synthetic logits source for a round."""
    from .workload import dirichlet_population, gen_logits

    population = dirichlet_population(
        cfg.n,
        cfg.d,
        alpha,
        [cfg.seed, 7],
        samples=samples,
        grain=cfg.grain,
        o=cfg.o,
        **profile_kwargs,
    )
    cache = {}

    def provider(cid: int):
        if cid not in cache:
            cache[cid] = gen_logits(population[cid], seed=[cfg.seed, 8, cid])
        return cache[cid]

    return provider
