"""Coded co-aggregation pipeline over complex interpolation points.

A client splits its logits into K slices (additively for class grain,
block-wise for sample grain), appends T truncated complex-Gaussian noise
slices, and encodes the K+T blocks through Lagrange coefficients at the
group's evaluation points. Every member aggregates the shares it receives
under blinded weights; the server interpolates the aggregates back to the
anchor points, and the leader removes the blind and rejoins the slices.

Slices are snapped onto the 10^-q grid before encoding (and before digest
computation in the signature layer) so that decoded sums and signature
exponents agree exactly up to the coding error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import InterpolationNodes, interpolate, lagrange_matrix, make_nodes


class IndivisibleO(ValueError):
    """Sample count does not divide evenly into K blocks."""


class ShapeMismatch(ValueError):
    """Bundle blocks and plan coefficients disagree."""


class MissingShare(LookupError):
    """An expected group member never delivered its share."""


class InsufficientShares(RuntimeError):
    """Fewer aggregates than the interpolation threshold: the straggler
    budget is exhausted."""


class ZeroBlindEntry(ValueError):
    """Blind factor cannot be inverted elementwise."""


BLIND_LOW, BLIND_HIGH = 0.5, 2.0  # keeps 1/blind bounded during deblinding


def quantize(arr: np.ndarray, q: int) -> np.ndarray:
    """Snap values onto the 10^-q grid (floor); the signature layer reads
    grid values back as exact integers at scale 10^q."""
    scale = 10.0 ** q
    return np.floor(np.asarray(arr, dtype=float) * scale) / scale


def apply_poly(coeffs, x: np.ndarray) -> np.ndarray:
    """Elementwise polynomial with coeffs[i] multiplying x**i (Horner)."""
    acc = np.zeros_like(x, dtype=complex)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def monomial(degree: int) -> list[float]:
    return [0.0] * degree + [1.0]


@dataclass(frozen=True)
class SplitBundle:
    """K plaintext slices plus T complex noise slices of one client's logits."""

    slices: np.ndarray  # (k, omega, d) real
    noise: np.ndarray   # (t, omega, d) complex
    grain: str

    @property
    def k(self) -> int:
        return self.slices.shape[0]

    @property
    def t(self) -> int:
        return self.noise.shape[0]

    def blocks(self) -> np.ndarray:
        return np.concatenate([self.slices.astype(complex), self.noise])


def split(logits: np.ndarray, k: int, grain: str, rng=None, quantize_digits: int | None = None) -> SplitBundle:
    """Split logits into K slices; noise is appended separately by blind().

    Class grain: K-1 slices drawn uniform in [-s, s] with s = max|logits|,
    the last slice is the residual, so the slices sum back exactly. Sample
    grain: consecutive row blocks of o/k samples each.
    """
    logits = np.asarray(logits, dtype=float)
    if k < 1:
        raise ValueError("k must be >= 1")
    if grain == "class":
        if logits.ndim != 2 or logits.shape[0] != logits.shape[1]:
            raise ValueError("class-grain logits must be square")
        if k == 1:
            slices = logits[None].copy()
        else:
            if rng is None:
                raise ValueError("class-grain split with k > 1 needs an rng")
            s = float(np.abs(logits).max())
            parts = rng.uniform(-s, s, (k - 1,) + logits.shape)
            if quantize_digits is not None:
                parts = quantize(parts, quantize_digits)
            residual = logits - parts.sum(axis=0)
            slices = np.concatenate([parts, residual[None]])
    elif grain == "sample":
        o = logits.shape[0]
        if o % k != 0:
            raise IndivisibleO(f"{o} samples do not split into {k} blocks")
        slices = logits.reshape(k, o // k, logits.shape[1]).copy()
    else:
        raise ValueError(f"unknown grain {grain!r}")
    empty = np.zeros((0,) + slices.shape[1:], dtype=complex)
    return SplitBundle(slices=slices, noise=empty, grain=grain)


def _truncated_normal(rng, std: float, bound: float, shape) -> np.ndarray:
    out = rng.normal(0.0, std, shape)
    bad = np.abs(out) > bound
    while bad.any():
        out[bad] = rng.normal(0.0, std, int(bad.sum()))
        bad = np.abs(out) > bound
    return out


def blind(bundle: SplitBundle, t: int, sigma: float, theta: float, rng) -> SplitBundle:
    """Append T noise slices; each component is zero-mean Gaussian with
    standard deviation sigma/sqrt(T), rejection-truncated to
    [-theta*sigma/sqrt(T), theta*sigma/sqrt(T)] so the mean stays zero."""
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0:
        return bundle
    std = sigma / np.sqrt(t)
    bound = theta * std
    shape = (t,) + bundle.slices.shape[1:]
    noise = _truncated_normal(rng, std, bound, shape) + 1j * _truncated_normal(rng, std, bound, shape)
    return SplitBundle(slices=bundle.slices, noise=np.concatenate([bundle.noise, noise]), grain=bundle.grain)


@dataclass(frozen=True)
class GroupPlan:
    """A leader's aggregation plan: member order fixes the evaluation-point
    assignment; weights are blinded by one shared positive random factor."""

    leader: int
    members: tuple
    nodes: InterpolationNodes
    lagrange: np.ndarray          # (k+t, r), lagrange[j, x] = l_{j+1}(alpha_x)
    weights: np.ndarray           # (r,) quantized aggregation weights
    blind_factor: np.ndarray      # (omega, d), entries in [0.5, 2.0]
    blinded_weights: np.ndarray   # (r, omega, d) = weights[z] * blind_factor

    def blinded_weight_of(self, member: int) -> np.ndarray:
        return self.blinded_weights[self.members.index(member)]


def make_group_plan(
    leader: int,
    members,
    k: int,
    t: int,
    tensor_shape,
    rng,
    radius: float = 1.0,
    q: int = 3,
    weights=None,
) -> GroupPlan:
    """Build the leader-side plan: interpolation nodes for the group size,
    the Lagrange coefficient matrix, quantized weights (uniform 1/r unless
    given) and the random blind factor."""
    members = tuple(members)
    r = len(members)
    nodes = make_nodes(r, k, t, radius=radius)
    lag = lagrange_matrix(nodes)
    if weights is None:
        weights = np.full(r, 1.0 / r)
    weights = quantize(np.asarray(weights, dtype=float), q)
    blind_factor = rng.uniform(BLIND_LOW, BLIND_HIGH, tuple(tensor_shape))
    blinded = weights[:, None, None] * blind_factor[None]
    return GroupPlan(
        leader=leader,
        members=members,
        nodes=nodes,
        lagrange=lag,
        weights=weights,
        blind_factor=blind_factor,
        blinded_weights=blinded,
    )


@dataclass(frozen=True)
class EncodedShare:
    sender: int
    receiver: int
    payload: np.ndarray  # (omega, d) complex


@dataclass(frozen=True)
class AggregatedShare:
    holder: int
    payload: np.ndarray  # (omega, d) complex


def encode(bundle: SplitBundle, plan: GroupPlan, sender: int) -> list[EncodedShare]:
    """One share per group member: member x gets sum_j block_j * l_j(alpha_x)."""
    blocks = bundle.blocks()
    if blocks.shape[0] != plan.lagrange.shape[0]:
        raise ShapeMismatch(
            f"bundle has {blocks.shape[0]} blocks, plan expects {plan.lagrange.shape[0]}"
        )
    if blocks.shape[1:] != plan.blind_factor.shape:
        raise ShapeMismatch(
            f"slice shape {blocks.shape[1:]} does not match plan shape {plan.blind_factor.shape}"
        )
    payloads = np.einsum("jx,jod->xod", plan.lagrange, blocks)
    return [
        EncodedShare(sender=sender, receiver=member, payload=payloads[x])
        for x, member in enumerate(plan.members)
    ]


def local_aggregate(received, blinded_weights: dict, f_coeffs, holder: int) -> AggregatedShare:
    """Weighted sum of f(share) over every member in the weights view.

    Raises MissingShare when a member listed in the view never delivered.
    """
    by_sender = {}
    for share in received:
        by_sender[share.sender] = share.payload
    payload = None
    for member, w in blinded_weights.items():
        if member not in by_sender:
            raise MissingShare(f"no share from member {member}")
        term = w * apply_poly(f_coeffs, by_sender[member])
        payload = term if payload is None else payload + term
    if payload is None:
        raise ValueError("empty weights view")
    return AggregatedShare(holder=holder, payload=payload)


def decode(aggregates, nodes: InterpolationNodes, k: int, t: int, deg_f: int) -> list[np.ndarray]:
    """Interpolate the aggregated evaluations back to the first K anchors and
    return the real parts, one tensor per plaintext slice.

    aggregates: iterable of (evaluation-point index, AggregatedShare or
    payload array). Needs at least deg_f*(k+t-1)+1 of them.
    """
    items = []
    seen = set()
    for idx, agg in aggregates:
        if idx in seen:
            raise ValueError(f"duplicate evaluation point index {idx}")
        seen.add(idx)
        payload = agg.payload if isinstance(agg, AggregatedShare) else np.asarray(agg)
        items.append((nodes.alphas[idx], payload))
    threshold = deg_f * (k + t - 1) + 1
    if len(items) < threshold:
        raise InsufficientShares(f"{len(items)} aggregates < threshold {threshold}")
    decoded = interpolate(items, nodes.betas[:k])
    return [d.real for d in decoded]


def deblind_and_join(decoded, blind_factor: np.ndarray, grain: str) -> np.ndarray:
    """Remove the blind by elementwise inverse, then rejoin slices: sum for
    class grain, row concatenation in slice order for sample grain."""
    if np.any(blind_factor == 0):
        raise ZeroBlindEntry("blind factor has a zero entry")
    if grain == "class":
        return np.sum(decoded, axis=0) / blind_factor
    if grain == "sample":
        return np.concatenate([d / blind_factor for d in decoded], axis=0)
    raise ValueError(f"unknown grain {grain!r}")


@dataclass(frozen=True)
class Achievability:
    n: int
    k: int
    t: int
    deg_f: int
    threshold: int
    d_resilience: int
    feasible: bool


def check_achievable(n: int, k: int, t: int, deg_f: int) -> Achievability:
    """Dropout budget for n evaluators: d = n - deg_f*(k+t-1) - 1, feasible
    when nonnegative."""
    threshold = deg_f * (k + t - 1) + 1
    d = n - threshold
    return Achievability(
        n=n, k=k, t=t, deg_f=deg_f, threshold=threshold, d_resilience=d, feasible=d >= 0
    )


def noise_coeff_submatrix(nodes: InterpolationNodes, k: int, share_indices) -> np.ndarray:
    """The t x t matrix of noise-block coefficients {l_{k+t'}(alpha_x)} over
    the chosen share indices; nonsingularity means the noise spans those
    observations."""
    lag = lagrange_matrix(nodes)
    idx = list(share_indices)
    return lag[k:, idx]
