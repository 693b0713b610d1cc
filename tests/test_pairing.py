import numpy as np
import pytest

from helpers import ec_neg
from svafd.pairing import (
    COFACTOR,
    GENERATOR,
    GT_ONE,
    ORDER,
    Q_FIELD,
    PairingBackend,
    _batch_to_affine,
    _jac_add_affine,
    _jac_double,
    ec_add,
    tate_pairing,
)


def ec_mul(n: int, p) -> tuple | None:
    """Scalar multiplication, left-to-right Jacobian double-and-add over a
    fixed affine base (single inversion at the end)."""
    if p is None or n == 0:
        return None
    if n < 0:
        return ec_mul(-n, ec_neg(p))
    acc = None
    for bit in bin(n)[2:]:
        acc = _jac_double(acc)
        if bit == "1":
            acc = _jac_add_affine(acc, p)
    return _batch_to_affine([acc])[0]


def test_parameters_consistent():
    assert Q_FIELD % 4 == 3
    assert (Q_FIELD + 1) == COFACTOR * ORDER
    # Fermat primality witnesses for both primes
    for p in (Q_FIELD, ORDER):
        for a in (2, 3, 5, 7):
            assert pow(a, p - 1, p) == 1


def test_generator_on_curve_with_prime_order():
    x, y = GENERATOR
    assert y * y % Q_FIELD == (x * x * x + x) % Q_FIELD
    assert ec_mul(ORDER, GENERATOR) is None
    assert ec_mul(ORDER - 1, GENERATOR) == ec_neg(GENERATOR)


def test_frozen_generator_matches_cofactor_clearing():
    # first curve point at or above x = 2, cofactor-cleared
    x = 2
    while True:
        rhs = (x * x * x + x) % Q_FIELD
        y = pow(rhs, (Q_FIELD + 1) // 4, Q_FIELD)
        if y * y % Q_FIELD == rhs:
            candidate = ec_mul(COFACTOR, (x, y))
            if candidate is not None:
                break
        x += 1
    assert candidate == GENERATOR


def test_group_law_basics():
    g2 = ec_add(GENERATOR, GENERATOR)
    g3 = ec_add(g2, GENERATOR)
    assert ec_mul(2, GENERATOR) == g2
    assert ec_mul(3, GENERATOR) == g3
    assert ec_add(GENERATOR, ec_neg(GENERATOR)) is None
    assert ec_add(None, GENERATOR) == GENERATOR


def test_fixed_base_table_matches_generic_mult():
    backend = PairingBackend()
    rng = np.random.default_rng(0)
    for _ in range(10):
        a = int.from_bytes(rng.bytes(24), "big") % ORDER
        assert backend.g_pow(a) == ec_mul(a, GENERATOR)
    assert backend.g_pow(0) is None
    assert backend.g_pow(ORDER) is None


def test_nondegenerate():
    assert tate_pairing(GENERATOR, GENERATOR) != GT_ONE


def test_identity_absorbed():
    assert tate_pairing(None, GENERATOR) == GT_ONE
    assert tate_pairing(GENERATOR, None) == GT_ONE


def test_bilinearity_random_pairs():
    backend = PairingBackend()
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = int.from_bytes(rng.bytes(24), "big") % (ORDER - 1) + 1
        b = int.from_bytes(rng.bytes(24), "big") % (ORDER - 1) + 1
        lhs = backend.pair(backend.g_pow(a), backend.g_pow(b))
        assert lhs == backend.gt_pow(a * b)


def test_pairing_of_sums_splits():
    backend = PairingBackend()
    p1 = backend.g_pow(11)
    p2 = backend.g_pow(31)
    lhs = backend.pair(backend.g_mul(p1, p2), GENERATOR)
    rhs = backend.gt_mul(backend.pair(p1, GENERATOR), backend.pair(p2, GENERATOR))
    assert lhs == rhs


def _reference_pairing(p, q):
    """Affine Miller loop with a Fermat inverse per line and the full final
    exponentiation f^((q^2 - 1)/r): the textbook form the fast pairing must
    reproduce exactly."""
    if p is None or q is None:
        return GT_ONE

    def inv(x):
        return pow(x, Q_FIELD - 2, Q_FIELD)

    def mul(a, b):
        return ((a[0] * b[0] - a[1] * b[1]) % Q_FIELD, (a[0] * b[1] + a[1] * b[0]) % Q_FIELD)

    xq, yq_i = (-q[0]) % Q_FIELD, q[1]
    f = GT_ONE
    t = p
    for bit in bin(ORDER)[3:]:
        xt, yt = t
        lam = (3 * xt * xt + 1) * inv(2 * yt) % Q_FIELD
        f = mul(mul(f, f), ((-(lam * (xq - xt) + yt)) % Q_FIELD, yq_i))
        t = ec_add(t, t)
        if bit == "1":
            xt, yt = t
            if xt == p[0] and (yt + p[1]) % Q_FIELD == 0:
                line = ((xq - xt) % Q_FIELD, 0)
            else:
                lam = (p[1] - yt) * inv(p[0] - xt) % Q_FIELD
                line = ((-(lam * (xq - xt) + yt)) % Q_FIELD, yq_i)
            f = mul(f, line)
            t = ec_add(t, p)
    e = (Q_FIELD * Q_FIELD - 1) // ORDER
    res = GT_ONE
    while e:
        if e & 1:
            res = mul(res, f)
        f = mul(f, f)
        e >>= 1
    return res


def test_pairing_matches_affine_reference():
    assert tate_pairing(GENERATOR, GENERATOR) == _reference_pairing(GENERATOR, GENERATOR)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = int.from_bytes(rng.bytes(24), "big") % (ORDER - 1) + 1
        b = int.from_bytes(rng.bytes(24), "big") % (ORDER - 1) + 1
        p, q = ec_mul(a, GENERATOR), ec_mul(b, GENERATOR)
        assert tate_pairing(p, q) == _reference_pairing(p, q)


def test_fixed_base_table_window_edges():
    backend = PairingBackend()
    for a in (1, 15, 16, 31, 32, 255, 2**160 - 1, ORDER - 1, ORDER + 1):
        assert backend.g_pow(a) == ec_mul(a % ORDER, GENERATOR), a


@pytest.fixture(scope="module")
def backend():
    return PairingBackend()


def test_pow_offsets_match_per_offset_powers(backend):
    rng = np.random.default_rng(3)
    bases = [int.from_bytes(rng.bytes(24), "big") % ORDER for _ in range(4)] + [0, 1, ORDER - 1]
    for base in bases:
        offsets = [int(o) for o in rng.integers(-(2**62), 2**62, 6)]
        offsets += [0, 1, -1, 2**62, -(2**62), -base, base, ORDER - base, 31, -32, 2**165 + 7]
        got = backend.g_pow_offsets(base, offsets)
        assert got == [backend.g_pow((base + o) % ORDER) for o in offsets], base


def test_pow_offsets_identity_and_doubling(backend):
    base = 123456789
    # o = -base and o = ORDER - base give the identity; o = base doubles g^base
    identity, doubled, shifted = backend.g_pow_offsets(base, [-base, base, ORDER - base + 5])
    assert identity is None
    assert doubled == ec_add(backend.g_pow(base), backend.g_pow(base))
    assert shifted == backend.g_pow(5)
    assert backend.g_pow_offsets(0, [0]) == [None]
    assert backend.g_pow_offsets(base, []) == []


def test_product_matches_addition_chain(backend):
    rng = np.random.default_rng(4)
    points = [backend.g_pow(int.from_bytes(rng.bytes(24), "big")) for _ in range(6)]
    p = points[0]
    cases = [
        [],
        [None],
        [p],
        [p, ec_neg(p)],                        # P * P^-1 = identity
        [p, p],                                # doubling
        [p, ec_neg(p), points[1]],             # restarts after the identity
        [None, p, None, p, points[2], ec_neg(points[2])],
        points + [None] + points[::-1],
    ]
    for elements in cases:
        want = None
        for e in elements:
            want = ec_add(want, e)
        assert backend.g_prod(elements) == want, elements
