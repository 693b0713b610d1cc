"""Signatures and verification for the co-aggregation pipeline.

Followers sign per-slice digests (element sums of their quantized plaintext
slices) shifted by a private key; the leader signs the quantized weights.
The server folds both through pairings into a single proof whose target-group
exponent must equal the digest/weight/key bookkeeping of the decoded teacher;
the leader checks that equality against its own reconstruction. A private
key is a plain int, a signature a group element, and the proof the
target-group element itself.

Two interchangeable backends: a real pairing group over a supersingular
curve, and a mock that tracks exponents modulo a 61-bit Mersenne prime with
the pairing multiplying exponents, for fast exact property tests.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .coding import SplitBundle


class Overflow(ValueError):
    """Quantized value escapes the integer guard range."""


class IncompleteAux(ValueError):
    """Signature material missing for some group member."""


_INT_GUARD = 2**62

# coding-error budget assumed by the verification margin preflight
DEFAULT_RE_BOUND = 1e-10

# how far from the expected exponent a rejected proof is probed (diagnostic)
PROBE_DELTA = 2


def digest(bundle: SplitBundle) -> list[float]:
    """Element sum of each plaintext slice (computed on the quantized,
    pre-blinding slices)."""
    return [float(s.sum()) for s in bundle.slices]


def _grid_int(v: float, q: int, what: str) -> int:
    # values on the 10^-q grid (weights, and digests of grid-quantized
    # slices) are integers at scale 10^q up to float representation and
    # accumulation noise; round-to-nearest recovers them exactly
    scaled = v * 10.0**q
    if abs(scaled) >= _INT_GUARD:
        raise Overflow(f"{what} {v} exceeds the integer guard at q={q}")
    return round(scaled)


class MockBackend:
    """Exponent-tracking stand-in: group elements are exponents mod a 61-bit
    prime and the pairing multiplies them. Exact and fast; used wherever the
    tests reason about exponent arithmetic."""

    name = "mock"

    def __init__(self):
        self.order = (1 << 61) - 1

    @property
    def gt_identity(self):
        return 0

    def g_pow(self, a: int):
        return a % self.order

    def g_pow_offsets(self, base: int, offsets) -> list:
        start = self.g_pow(base)
        return [(start + o) % self.order for o in offsets]

    def g_prod(self, elements):
        return sum(elements) % self.order

    def g_mul(self, x: int, y: int):
        return (x + y) % self.order

    def pair(self, x: int, y: int):
        return x * y % self.order

    def gt_mul(self, a: int, b: int):
        return (a + b) % self.order

    def gt_pow(self, e: int):
        return e % self.order


def get_backend(name: str):
    if name == "mock":
        return MockBackend()
    if name == "pairing":
        from .pairing import PairingBackend

        return PairingBackend()
    raise ValueError(f"unknown backend {name!r}")


def gen_key(backend, rng) -> int:
    """A member's private key upsilon, uniform in [1, order - 1]."""
    raw = int.from_bytes(rng.bytes(32), "big")
    return raw % (backend.order - 1) + 1


def sign_logits(digests, key: int, q: int, backend) -> list:
    """One group element per slice: g^(digest-at-scale-q + key).

    All slices share the key, so the backend computes the full-width power
    g^key once and shifts it by each short integer digest (g_pow_offsets)."""
    return backend.g_pow_offsets(key, [_grid_int(v, q, "digest") for v in digests])


def quantize_weight(w: float, q: int) -> int:
    """A grid-quantized weight as the exact integer w * 10^q (round to nearest)."""
    return _grid_int(w, q, "weight")


def sign_weights(weights_quantized, backend) -> list:
    """One group element per member: g^(quantized weight), with one power
    per distinct weight (uniform plan weights need a single one)."""
    powers = {w: backend.g_pow(w % backend.order) for w in dict.fromkeys(weights_quantized)}
    return [powers[w] for w in weights_quantized]


def aggregate_proof(logits_sigs: dict, weight_sigs: dict, backend):
    """pi = prod over members of e(prod_k slice_sig_k, weight_sig), a
    target-group element. logits_sigs maps each member to its K slice
    signatures and weight_sigs to the leader's signature of its weight.

    Members whose weight signatures are equal share one pairing, by
    bilinearity: prod_z e(A_z, W) = e(prod_z A_z, W). Uniform plan weights
    thus need one pairing per group. Each such fold group's slice signatures
    are multiplied in one backend product (g_prod), which on the pairing
    backend costs one inversion per group. Group elements must be hashable.
    """
    if set(logits_sigs) != set(weight_sigs):
        raise IncompleteAux(f"members with slice sigs {sorted(logits_sigs)} != weight sigs {sorted(weight_sigs)}")
    if not logits_sigs:
        raise IncompleteAux("no signature material")
    folded = {}  # weight signature -> its members' slice signatures
    for member in sorted(logits_sigs):
        folded.setdefault(weight_sigs[member], []).extend(logits_sigs[member])
    pi = backend.gt_identity
    for w, sigs in folded.items():
        pi = backend.gt_mul(pi, backend.pair(backend.g_prod(sigs), w))
    return pi


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    expected_exponent: int
    probe_distance: int | None = None
    margin_warning: bool = False


def verify(
    proof,
    teacher: np.ndarray,
    weights_quantized,
    keys,
    k: int,
    q: int,
    backend,
    re_bound: float = DEFAULT_RE_BOUND,
) -> Verdict:
    """Check the proof, a target-group element, against the deblinded
    teacher knowledge; keys are the contributors' int keys, in the order of
    weights_quantized.

    Expected exponent: round(sum of teacher entries * 10^(2q)) plus
    K * sum(quantized weight * key) — the weight scale 10^q and the slice
    scale 10^q multiply inside the decoded sums, hence 2q. Acceptance needs
    the coding error times 10^(2q) below one-half; a margin warning fires
    when the configured error budget leaves less than a quarter unit.

    On mismatch, nearby exponents within +/- PROBE_DELTA are probed and the
    signed distance of a hit is reported (diagnostic only, never accepted).
    """
    teacher = np.asarray(teacher)
    total = float(teacher.sum()) * 10.0 ** (2 * q)
    if abs(total) >= _INT_GUARD:
        raise Overflow("teacher sum exceeds the integer guard")
    margin_warning = False
    if float(np.linalg.norm(teacher)) * re_bound * 10.0 ** (2 * q) >= 0.25:
        margin_warning = True
        warnings.warn(
            "decoded-sum rounding margin is thin for this configuration; "
            "verification may reject honest runs",
            RuntimeWarning,
            stacklevel=2,
        )
    key_term = sum(int(w) * key for w, key in zip(weights_quantized, keys))
    expected = (round(total) + k * key_term) % backend.order
    accepted = backend.gt_pow(expected) == proof
    probe = None
    if not accepted:
        for dd in range(1, PROBE_DELTA + 1):
            for signed in (dd, -dd):
                if backend.gt_pow((expected + signed) % backend.order) == proof:
                    probe = signed
                    break
            if probe is not None:
                break
    return Verdict(
        accepted=accepted,
        expected_exponent=expected,
        probe_distance=probe,
        margin_warning=margin_warning,
    )
