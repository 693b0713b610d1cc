"""Shared test fixtures: a self-contained group pipeline with a slice-wise
plaintext oracle, a filtration run under random-logits poisoning, and the
scalar Lagrange basis coefficient used as a reference for the vectorized one."""

import numpy as np

from svafd.coding import (
    apply_poly,
    blind,
    decode,
    deblind_and_join,
    encode,
    local_aggregate,
    make_group_plan,
    monomial,
    quantize,
    split,
)
from svafd.filtration import (
    LshConfig,
    build_topology,
    compute_cal,
    intimacy_list,
    lsh_project,
    select_group,
)
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


def full_pipeline(seed, r, k, t, deg_f, grain="class", d=4, omega=8, sigma=100.0, theta=6.0, q=3, drop=()):
    """End-to-end split -> blind -> encode -> aggregate -> decode -> deblind
    for one group, returning (teacher, slice-wise plaintext oracle teacher)."""
    rng = np.random.default_rng(seed)
    if grain == "class":
        omega = d
    plan = make_group_plan(999, list(range(r)), k, t, (omega, d), rng, q=q)
    f = monomial(deg_f)
    bundles = {}
    for z in range(r):
        rows = omega * k if grain == "sample" else d
        logits = quantize(rng.uniform(-10, 10, (rows, d)), q)
        bundles[z] = blind(split(logits, k, grain, rng=rng, quantize_digits=q), t, sigma, theta, rng)
    inboxes = {x: [] for x in range(r)}
    for z in range(r):
        for sh in encode(bundles[z], plan, sender=z):
            inboxes[sh.receiver].append(sh)
    view = {z: plan.blinded_weights[z] for z in range(r)}
    aggs = [
        (x, local_aggregate(inboxes[x], view, f, holder=x))
        for x in range(r)
        if x not in drop
    ]
    decoded = decode(aggs, plan.nodes, k, t, deg_f)
    teacher = deblind_and_join(decoded, plan.blind_factor, grain)

    oracle_slices = []
    for slot in range(k):
        acc = np.zeros((omega, d))
        for z in range(r):
            acc = acc + plan.weights[z] * apply_poly(f, bundles[z].slices[slot]).real
        oracle_slices.append(acc)
    if grain == "class":
        oracle = np.sum(oracle_slices, axis=0)
    else:
        oracle = np.concatenate(oracle_slices, axis=0)
    return teacher, oracle


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
