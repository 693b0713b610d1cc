"""Complex tensor numerics shared by the coding and protocol layers.

Provides interpolation-node construction on circles in the complex plane,
Lagrange coefficients, stable barycentric polynomial interpolation for
tensor-valued data, a least-squares polynomial fit at a given degree
(Householder QR of the monomial Vandermonde matrix, for more points than the
degree needs), and the relative-error metric.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


class NodeCollision(ValueError):
    """An evaluation point coincides with an anchor point."""


class DuplicateNode(ValueError):
    """Interpolation abscissae repeat."""


class ZeroTruth(ValueError):
    """Relative error is undefined against an all-zero reference."""


# Two nodes closer than this (relative to the circle radius) count as equal.
_COLLISION_RTOL = 1e-9


def _min_cross_distance(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a[:, None] - b[None, :]).min())


@dataclass(frozen=True)
class InterpolationNodes:
    """Evaluation points (one per group member) and anchor points (one per
    data/noise slice), all on a circle of the given radius around 0. Both
    arrays are read-only, so one node set can be shared by every group of
    its shape."""

    alphas: np.ndarray
    betas: np.ndarray
    radius: float

    def __post_init__(self):
        alphas = np.asarray(self.alphas, dtype=complex)
        betas = np.asarray(self.betas, dtype=complex)
        alphas.setflags(write=False)
        betas.setflags(write=False)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        tol = _COLLISION_RTOL * self.radius
        for name, arr in (("alphas", alphas), ("betas", betas)):
            if len(arr) > 1:
                d = np.abs(arr[:, None] - arr[None, :])
                np.fill_diagonal(d, np.inf)
                if d.min() < tol:
                    raise NodeCollision(f"{name} are not pairwise distinct")
            if np.abs(np.abs(arr) - self.radius).max() > tol:
                raise ValueError(f"{name} must lie on the circle of radius {self.radius}")
        if _min_cross_distance(alphas, betas) < tol:
            raise NodeCollision("an evaluation point coincides with an anchor point")

    @functools.cached_property
    def _lagrange(self) -> np.ndarray:
        alphas, betas = self.alphas, self.betas
        diffb = betas[:, None] - betas[None, :]
        np.fill_diagonal(diffb, 1.0)
        w = 1.0 / diffb.prod(axis=1)
        da = alphas[None, :] - betas[:, None]  # (m, group_size), never zero
        full = da.prod(axis=0)
        lag = w[:, None] * full[None, :] / da
        lag.setflags(write=False)
        return lag


@functools.lru_cache(maxsize=256)
def make_nodes(
    group_size: int,
    k: int,
    t: int,
    radius: float = 1.0,
) -> InterpolationNodes:
    """Place group_size evaluation points and k+t anchor points equally
    spaced on the circle of the given radius.

    Evaluation points are group_size-th roots of unity, anchors are
    (k+t)-th roots of unity, both scaled by radius. When the two sets
    overlap, the evaluation set is rotated by half its angular spacing; if
    the rotated set still collides (possible when the two spacings share
    structure), it is instead rotated by half the spacing of the merged
    grid, which can never land on an anchor. Raises NodeCollision when
    collisions remain.

    Memoized on its arguments: every group of one shape gets the same
    (frozen, read-only) node set, and with it one Lagrange matrix.
    """
    if group_size < 1 or k < 1 or t < 0:
        raise ValueError("need group_size >= 1, k >= 1, t >= 0")
    if radius <= 0:
        raise ValueError("radius must be positive")
    m = k + t
    alphas = radius * np.exp(-2j * np.pi * np.arange(group_size) / group_size)
    betas = radius * np.exp(-2j * np.pi * np.arange(m) / m)
    tol = _COLLISION_RTOL * radius
    if _min_cross_distance(alphas, betas) < tol:
        rotated = alphas * np.exp(-1j * np.pi / group_size)
        if _min_cross_distance(rotated, betas) < tol:
            rotated = alphas * np.exp(-1j * np.pi / (group_size * m))
        alphas = rotated
    return InterpolationNodes(alphas=alphas, betas=betas, radius=radius)


def lagrange_matrix(nodes: InterpolationNodes) -> np.ndarray:
    """Matrix L with L[j, x] = l_{j+1}(alpha_x), shape (k+t, group_size).

    Computed in barycentric form: l_j(x) = w_j * prod_l(x - beta_l) / (x - beta_j)
    with w_j = 1 / prod_{l != j}(beta_j - beta_l). Built once per node set,
    on first use, and read-only.
    """
    return nodes._lagrange


def interpolate(points, targets) -> list[np.ndarray]:
    """Fit the unique elementwise polynomial through (x, tensor) points and
    evaluate it at each target.

    Uses the second barycentric formula, which stays stable for node sets on
    circles up to the degrees used here (a Vandermonde solve would not).
    Points whose abscissae repeat raise DuplicateNode; a target that hits a
    node exactly returns that node's tensor.
    """
    xs = np.asarray([p[0] for p in points], dtype=complex)
    ys = np.stack([np.asarray(p[1], dtype=complex) for p in points])
    targets = np.asarray(list(targets), dtype=complex)
    n = len(xs)
    scale = max(1.0, float(np.abs(xs).max()))
    if n > 1:
        d = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(d, np.inf)
        if d.min() < 1e-13 * scale:
            raise DuplicateNode("interpolation abscissae repeat")

    dx = xs[:, None] - xs[None, :]
    np.fill_diagonal(dx, 1.0)
    w = 1.0 / dx.prod(axis=1)

    flat = ys.reshape(n, -1)
    out = np.empty((len(targets), flat.shape[1]), dtype=complex)
    diff = targets[:, None] - xs[None, :]  # (n_targets, n)
    hit = np.abs(diff) < 1e-13 * scale
    regular = ~hit.any(axis=1)
    if regular.any():
        c = w[None, :] / diff[regular]
        out[regular] = (c @ flat) / c.sum(axis=1)[:, None]
    for i in np.nonzero(hit.any(axis=1))[0]:
        out[i] = flat[int(np.argmax(hit[i]))]
    return [out[i].reshape(ys.shape[1:]) for i in range(len(targets))]


def least_squares(points, degree: int, targets) -> np.ndarray:
    """Fit one elementwise polynomial of the given degree to (x, tensor)
    points by least squares and evaluate it at each target; returns the
    (n_targets,) + tensor-shape array.

    The abscissae are divided by their largest modulus, so that on a circle
    the monomials over a full node set form a DFT. The fit goes through a
    Householder QR of that monomial Vandermonde matrix V = QR: the map from
    the points to the targets is D = V_targets R^-1 Q^H, one
    (n_targets x n_points) matrix. V_targets R^-1 is solved first, as the
    transposed system R^T X = V_targets^T: on a short arc of points, where V
    is ill-conditioned, that keeps about five more digits than forming
    R^-1 Q^H. Needs more points than the degree."""
    xs = np.asarray([p[0] for p in points], dtype=complex)
    ys = np.stack([np.asarray(p[1], dtype=complex) for p in points])
    scale = float(np.abs(xs).max())
    q, r = np.linalg.qr(np.vander(xs / scale, degree + 1, increasing=True))
    at_targets = np.vander(np.asarray(list(targets), dtype=complex) / scale, degree + 1, increasing=True)
    d = np.linalg.solve(r.T, at_targets.T).T @ q.conj().T
    return (d @ ys.reshape(len(xs), -1)).reshape((len(at_targets),) + ys.shape[1:])


def relative_error(estimate: np.ndarray, truth: np.ndarray) -> float:
    """Frobenius-norm ratio ||estimate - truth|| / ||truth||."""
    estimate = np.asarray(estimate)
    truth = np.asarray(truth)
    if estimate.shape != truth.shape:
        raise ValueError(f"shape mismatch {estimate.shape} vs {truth.shape}")
    denom = float(np.linalg.norm(truth))
    if denom == 0.0:
        raise ZeroTruth("reference tensor has zero norm")
    return float(np.linalg.norm(estimate - truth)) / denom
