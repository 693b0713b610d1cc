"""Shared test fixtures: one group driven through the protocol's staged
pipeline over a fresh bus, a filtration run under random-logits poisoning,
and the scalar Lagrange basis coefficient used as a reference for the
vectorized one."""

import numpy as np

from svafd import protocol
from svafd.coding import InsufficientShares
from svafd.filtration import (
    LshConfig,
    build_topology,
    compute_cal,
    intimacy_list,
    lsh_project,
    select_group,
)
from svafd.protocol import AGGREGATED_SHARE, SERVER, RoundConfig
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


def exchanged_group(rng, leader, cfg, low, high, backend=None, weights=None):
    """Preparation and share exchange for members 0..r-1 over a fresh bus;
    every member draws uniform [low, high) logits from rng. Returns the
    group state and the bus whose inboxes hold the server's aggregates."""
    rows = cfg.d if cfg.grain == "class" else cfg.o
    group = protocol._prepare(
        cfg, leader, range(cfg.r), rng, lambda z: (rng.uniform(low, high, (rows, cfg.d)), rng), backend,
        protocol.PerfRecorder(), weights=weights,
    )
    bus = protocol.MessageBus(protocol.RoundTranscript(config_digest=""))
    protocol._exchange(group, bus)
    return group, bus


def full_pipeline(seed, r, k, t, deg_f, grain="class", d=4, omega=8, sigma=100.0, theta=6.0, q=3, drop=()):
    """One group end to end with the aggregates of the holders in drop lost
    before decoding; returns (teacher, slice-wise plaintext oracle teacher)."""
    omega = d if grain == "class" else omega
    cfg = RoundConfig(n=r, r=r, k=k, t=t, q=q, sigma=sigma, theta=theta, grain=grain, f_degree=deg_f, d=d,
                      o=omega * k)
    group, bus = exchanged_group(np.random.default_rng(seed), 999, cfg, -10, 10)
    kept = [m for m in bus.take(SERVER, AGGREGATED_SHARE, 999) if m.payload["alpha_index"] not in drop]
    for m in kept:
        bus.send(AGGREGATED_SHARE, m.sender, SERVER, m.payload)
    res = protocol._conclude(group, bus)
    if res.verdict == "insufficient":
        raise InsufficientShares(f"{len(kept)} aggregates left")
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
    groups = {cid: select_group(intimacy_list(cid, hashed), r) for cid in range(n)}
    return build_topology(groups), poisoners, hashed
