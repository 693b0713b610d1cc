"""Synthetic per-client logits standing in for locally trained models.

Each client draws a Dirichlet label distribution; its logits rows peak at the
sample's label with a strength that grows with how often the client sees that
class, so knowledge fingerprints track the underlying data distribution.
Class-grained clients expose a d x d matrix of per-class means, sample-grained
clients an o x d matrix over a shared public pool. `workload_provider` serves
a round's population to `run_round`, one client at a time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filtration import compute_cal

LOGIT_BOUND = 20.0  # keeps digests inside the signature rounding margin


@dataclass(frozen=True)
class ClientProfile:
    label_dist: np.ndarray
    confusion_sharpness: float = 8.0
    noise_scale: float = 1.0
    samples: int = 400
    grain: str = "class"
    o: int = 0  # public-pool size, sample grain only

    def __post_init__(self):
        dist = np.asarray(self.label_dist, dtype=float)
        if abs(dist.sum() - 1.0) > 1e-9 or (dist < 0).any():
            raise ValueError("label_dist must be a probability vector")
        dist.setflags(write=False)
        object.__setattr__(self, "label_dist", dist)
        if self.grain not in ("class", "sample"):
            raise ValueError(f"unknown grain {self.grain!r}")
        if self.grain == "sample" and self.o < 1:
            raise ValueError("sample grain needs a public-pool size o >= 1")


def _class_strength(dist: np.ndarray) -> np.ndarray:
    # saturating boost for frequently seen classes: 1.0 at the uniform
    # frequency, -> 0 for unseen, -> 2 for dominant classes
    scaled = len(dist) * dist
    return 2.0 * scaled / (1.0 + scaled)


def _logits_row(rng, d: int, label: int, strength: np.ndarray, profile: ClientProfile) -> np.ndarray:
    row = rng.normal(0.0, profile.noise_scale, d) if profile.noise_scale > 0 else np.zeros(d)
    row[label - 1] += profile.confusion_sharpness * strength[label - 1]
    return np.clip(row, -LOGIT_BOUND, LOGIT_BOUND)


def public_pool_labels(o: int, d: int) -> np.ndarray:
    """Labels of the shared public pool, identical for every client."""
    return (np.arange(o) % d) + 1


def gen_logits(profile: ClientProfile, seed) -> tuple[list, np.ndarray]:
    """Generate (sample list, local knowledge matrix) for one client.

    The sample list holds (1-based label, logits row) pairs for fingerprint
    computation. The matrix is d x d per-class means for class grain, or
    o x d rows over the public pool for sample grain.
    """
    dist = profile.label_dist
    d = len(dist)
    if d < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(seed)
    strength = _class_strength(dist)

    labels = rng.choice(d, size=profile.samples, p=dist) + 1
    samples = [(int(y), _logits_row(rng, d, int(y), strength, profile)) for y in labels]

    if profile.grain == "class":
        matrix = compute_cal(samples).per_class_mean_logits
    else:
        pool = public_pool_labels(profile.o, d)
        matrix = np.stack([_logits_row(rng, d, int(y), strength, profile) for y in pool])
    return samples, matrix


def dirichlet_population(
    n: int,
    d: int,
    alpha: float,
    seed,
    **profile_kwargs,
) -> list[ClientProfile]:
    """n client profiles with Dirichlet(alpha) label distributions."""
    rng = np.random.default_rng(seed)
    return [
        ClientProfile(label_dist=rng.dirichlet(np.full(d, alpha)), **profile_kwargs)
        for _ in range(n)
    ]


def workload_provider(cfg, alpha: float = 1.0, samples: int = 300):
    """Deterministic per-client synthetic logits source for the round of a
    `RoundConfig` cfg."""
    population = dirichlet_population(
        cfg.n, cfg.d, alpha, [cfg.seed, 7], samples=samples, grain=cfg.grain, o=cfg.omega * cfg.k
    )
    cache = {}

    def provider(cid: int):
        if cid not in cache:
            cache[cid] = gen_logits(population[cid], seed=[cfg.seed, 8, cid])
        return cache[cid]

    return provider
