"""SVAFD: secure, verifiable co-aggregation of federated-distillation logits.

Pipeline stages: quality-aware knowledge filtration (class-average logits +
LSH grouping), coded share aggregation over complex interpolation points with
blinded weights, and pairing-based proof generation/verification. A simulated
message bus drives leader/follower/server roles with straggler, collusion and
poisoning scenarios checked against a plaintext oracle.
"""

__version__ = "0.1.0"

from . import coding, config, filtration, numerics, protocol, sigcrypto, threats, workload  # noqa: E402,F401
