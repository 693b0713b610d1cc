"""Shared test fixtures: one group driven through the protocol's staged
pipeline over a fresh bus, a filtration run under random-logits poisoning,
and the scalar Lagrange basis coefficient used as a reference for the
vectorized one. Also the reference code only tests need: a transcript
filter, the kinds the server may see, a topology membership update and
point negation on the pairing curve."""

import numpy as np

from svafd import protocol
from svafd.coding import InsufficientShares
from svafd.filtration import (
    LshConfig,
    Topology,
    build_topology,
    compute_cal,
    intimacy_list,
    lsh_project,
    select_group,
)
from svafd.pairing import Q_FIELD
from svafd.protocol import AGGREGATED_SHARE, AUX_PROOF, PLAN_DISTRIBUTION, SERVER, RoundConfig
from svafd.threats import AttackSpec, poison_samples
from svafd.workload import dirichlet_population, gen_logits


def lagrange_coeff(nodes, j: int, x: complex) -> complex:
    """Lagrange basis coefficient l_j(x) over the anchor set, 1-based j."""
    betas = nodes.betas
    m = len(betas)
    if not 1 <= j <= m:
        raise IndexError(f"anchor index {j} outside [1, {m}]")
    bj = betas[j - 1]
    others = np.delete(betas, j - 1)
    return complex(np.prod((x - others) / (bj - others)))


SERVER_VISIBLE_KINDS = frozenset({PLAN_DISTRIBUTION, AGGREGATED_SHARE, AUX_PROOF})


def messages_of(transcript, kind=None, sender=None, receiver=None, group=None):
    """The transcript's messages that match every given envelope field, in
    order."""
    return [
        m
        for m in transcript.messages
        if (kind is None or m.kind == kind)
        and (sender is None or m.sender == sender)
        and (receiver is None or m.receiver == receiver)
        and (group is None or m.group == group)
    ]


def membership_update(topology: Topology, joins, leaves) -> Topology:
    """Carry the topology across a membership change: departed clients drop
    out of every group and edge, joiners arrive isolated."""
    joins = set(joins)
    leaves = set(leaves)
    nodes = (set(topology.nodes) - leaves) | joins
    groups = {
        leader: [m for m in members if m not in leaves]
        for leader, members in topology.groups.items()
        if leader not in leaves
    }
    pruned = build_topology(groups)
    return Topology(nodes=frozenset(nodes | set(pruned.nodes)), edges=pruned.edges, groups=groups)


def ec_neg(p):
    """The inverse of an affine point on the pairing curve (None is the identity)."""
    if p is None:
        return None
    return (p[0], (-p[1]) % Q_FIELD)


def prepared_group(rng, leader, cfg, low, high, backend=None, weights=None):
    """Preparation for members 0..r-1 (live unless in cfg.straggler_ids),
    each drawing uniform [low, high) logits from rng; the group state still
    holds every live bundle."""
    shape = cfg.logits_shape()
    return protocol._prepare(
        cfg, leader, range(cfg.r), rng, lambda z: (rng.uniform(low, high, shape), rng), backend,
        protocol.PerfRecorder(), weights=weights,
    )


def exchanged_group(rng, leader, cfg, low, high, backend=None, weights=None):
    """Preparation and share exchange for members 0..r-1 over a fresh bus;
    every member draws uniform [low, high) logits from rng. Returns the
    group state and the bus whose inboxes hold the server's aggregates."""
    group = prepared_group(rng, leader, cfg, low, high, backend, weights)
    bus = protocol.MessageBus(protocol.RoundTranscript())
    protocol._exchange(group, bus)
    return group, bus


def full_pipeline(seed, r, k, t, deg_f, grain="class", d=4, omega=8, sigma=100.0, theta=6.0, q=3, drop=()):
    """One group end to end with the aggregates of the holders at the plan
    positions in drop lost in flight (`protocol.DROP`, a late dropout);
    returns (teacher, slice-wise plaintext oracle teacher)."""
    cfg = RoundConfig(n=r, r=r, k=k, t=t, q=q, sigma=sigma, theta=theta, grain=grain, f_degree=deg_f, d=d,
                      omega=omega)
    group = prepared_group(np.random.default_rng(seed), 999, cfg, -10, 10)
    bus = protocol.MessageBus(protocol.RoundTranscript())
    lost = [group.plan.members[x] for x in drop]
    bus.mutations.update({(AGGREGATED_SHARE, m, SERVER, 999): lambda payload: protocol.DROP for m in lost})
    protocol._exchange(group, bus)
    res = protocol._conclude(group, bus)
    if res.verdict == "insufficient":
        raise InsufficientShares(f"{r - len(lost)} aggregates left")
    return res.teacher, res.oracle


def build_attacked_topology(n, frac, r, seed, d=10, samples=250):
    """Filtration run with a random-logits poisoner fraction; returns
    (topology, poisoner ids, hashed fingerprints)."""
    profiles = dirichlet_population(n, d, 1.0, [seed, 7], samples=samples)
    rng = np.random.default_rng([seed, 13])
    poisoners = set(map(int, rng.permutation(n)[: int(frac * n)]))
    spec = AttackSpec("random_logits", victims=frozenset(poisoners))
    cfg = LshConfig(projection_seed=seed, p=16)
    hashed = {}
    for cid in range(n):
        samples_list, _ = gen_logits(profiles[cid], seed=[seed, 8, cid])
        if cid in poisoners:
            samples_list = poison_samples(spec, samples_list, rng=np.random.default_rng([seed, 11, cid]))
        hashed[cid] = lsh_project(compute_cal(samples_list), cfg)
    groups = {cid: select_group(cid, intimacy_list(cid, hashed), r) for cid in range(n)}
    return build_topology(groups), poisoners, hashed
