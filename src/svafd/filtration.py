"""Quality-aware knowledge filtration.

Each client fingerprints its local knowledge with a class-average-logits
matrix, projects it through a shared random-projection hash, scores cosine
intimacy against every peer, and leads a group of its top-R most intimate
followers. The union of group cliques forms the round's communication
topology.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np


class EmptyDataset(ValueError):
    """No samples to average."""


class RTooLarge(ValueError):
    """Requested more followers than there are candidates."""


@dataclass(frozen=True)
class CalMatrix:
    """Per-class mean logits (row d = mean over samples labeled d+1) plus
    the per-class sample counts; zero-count rows are zeroed and flagged."""

    per_class_mean_logits: np.ndarray
    class_counts: np.ndarray

    @property
    def present(self) -> np.ndarray:
        return self.class_counts > 0


@dataclass(frozen=True)
class LshConfig:
    projection_seed: int
    p: int = 16


@dataclass(frozen=True)
class HashedCal:
    """Random projection of a CAL matrix, shape (d, p), carrying the
    class-presence flags so degenerate rows stay out of similarities."""

    matrix: np.ndarray
    present: np.ndarray


def compute_cal(dataset_logits) -> CalMatrix:
    """Average logits rows per class label; labels are 1-based in [1, d].

    d is taken from the logits row width. Classes with no local samples get
    an all-zero row and a zero count.
    """
    items = list(dataset_logits)
    if not items:
        raise EmptyDataset("cannot average an empty sample set")
    labels = np.array([label for label, _ in items], dtype=np.int64)
    rows = np.array([row for _, row in items], dtype=float)
    d = rows.shape[1]
    outside = (labels < 1) | (labels > d)
    if outside.any():
        raise ValueError(f"label {labels[outside][0]} outside [1, {d}]")
    sums = np.zeros((d, d))
    np.add.at(sums, labels - 1, rows)  # unbuffered: adds the rows in sample order
    counts = np.bincount(labels - 1, minlength=d)
    means = np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0)
    return CalMatrix(per_class_mean_logits=means, class_counts=counts)


@functools.lru_cache(maxsize=64)
def projection_matrix(d: int, cfg: LshConfig) -> np.ndarray:
    """The shared d x p standard-normal projection, deterministic in the seed.

    Drawn once per (d, cfg) and read-only: every client of a round projects
    through the same matrix."""
    rng = np.random.default_rng(cfg.projection_seed)
    m = rng.standard_normal((d, cfg.p))
    m.setflags(write=False)
    return m


def lsh_project(cal: CalMatrix, cfg: LshConfig) -> HashedCal:
    """Project the CAL through the shared random matrix: output = CAL @ M."""
    if cfg.p < 1:
        raise ValueError("projection width must be >= 1")
    d = cal.per_class_mean_logits.shape[0]
    m = projection_matrix(d, cfg)
    return HashedCal(matrix=cal.per_class_mean_logits @ m, present=cal.present.copy())


def intimacy(h1, h2) -> float:
    """Cosine similarity of two hashed fingerprints, flattened.

    Rows flagged absent on either side are masked out of both operands.
    Defined as 0 when either masked operand is all-zero, so degenerate
    fingerprints stay in the scoring without poisoning the ranking.
    """
    if isinstance(h1, HashedCal) and isinstance(h2, HashedCal):
        mask = h1.present & h2.present
        a = h1.matrix[mask].ravel()
        b = h2.matrix[mask].ravel()
    else:
        a = np.asarray(h1, dtype=float).ravel()
        b = np.asarray(h2, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError("hashed values have different shapes")
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.clip(a @ b / (na * nb), -1.0, 1.0))


def intimacy_list(owner: int, hashed: dict[int, HashedCal]) -> np.ndarray:
    """The owner's cosine scores against every client id: 1.0 on its own
    slot (never selectable) and 0 for missing ids."""
    n = max(hashed) + 1
    scores = np.zeros(n)
    own = hashed[owner]
    for cid, h in hashed.items():
        scores[cid] = 1.0 if cid == owner else intimacy(own, h)
    return scores


def intimacy_matrix(hashed: dict[int, HashedCal]) -> np.ndarray:
    """Every client's intimacy list at once, as rows of an (n, n) matrix.

    One masked Gram computation replaces the n^2 pairwise `intimacy` calls:
    entry (i, j) sums the per-class-row dot products over rows present on
    both sides, and the masked squared norms of the two operands are
    (M * rownorm^2) @ M^T and its transpose, M being the presence masks.
    Row i equals `intimacy_list(i, hashed)`: the same clip, the same
    zero-norm -> 0 rule, 1.0 on the owner's own slot and 0 for missing ids.
    """
    n = max(hashed) + 1
    first = next(iter(hashed.values())).matrix
    h = np.zeros((n,) + first.shape)
    present = np.zeros((n, first.shape[0]))
    for cid, hc in hashed.items():
        h[cid] = hc.matrix
        present[cid] = hc.present
    masked = (h * present[:, :, None]).reshape(n, -1)
    dots = masked @ masked.T
    norms2 = (present * (h**2).sum(axis=2)) @ present.T  # [i, j]: |row i masked by j|^2
    denom = np.sqrt(norms2) * np.sqrt(norms2.T)
    scores = np.divide(dots, denom, out=np.zeros((n, n)), where=denom > 0.0)
    np.clip(scores, -1.0, 1.0, out=scores)
    for cid in hashed:
        scores[cid, cid] = 1.0
    return scores


def select_group(owner: int, scores, r: int) -> list[int]:
    """Ids of the r highest-scoring candidates in the owner's score row,
    owner excluded; ties broken by ascending client id. Output is in
    descending-score order.

    One lexsort over (-score, id) with the owner masked out: ids are
    distinct, so the order is total and equals sorting by (-score, id)."""
    scores = np.asarray(scores)
    n = len(scores)
    if r > n - 1:
        raise RTooLarge(f"r={r} but only {n - 1} candidates")
    ids = np.arange(n)
    ids = ids[ids != owner]
    order = np.lexsort((ids, -scores[ids]))
    return ids[order[:r]].tolist()


@dataclass(frozen=True)
class Topology:
    """Round communication graph: every group (leader plus members) forms a
    clique; a client leads exactly one group but may follow many."""

    nodes: frozenset
    edges: frozenset
    groups: dict = field(default_factory=dict)


def build_topology(groups: dict[int, list[int]]) -> Topology:
    """Union of co-membership cliques over leader-and-members sets."""
    nodes = set(groups)
    edges = set()
    for leader, members in groups.items():
        if leader in members:
            raise ValueError(f"leader {leader} appears in its own member list")
        nodes.update(members)
        clique = [leader] + list(members)
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                edges.add((min(a, b), max(a, b)))
    return Topology(nodes=frozenset(nodes), edges=frozenset(edges), groups=dict(groups))
