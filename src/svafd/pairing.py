"""Symmetric bilinear pairing over a supersingular curve, self-contained.

Curve: y^2 = x^3 + x over F_q with q == 3 (mod 4), which is supersingular
with q + 1 points and embedding degree 2. The prime-order-r subgroup
(q + 1 = h * r) hosts a symmetric pairing via the modified Tate pairing

    e(P, Q) = f_{r,P}(phi(Q)) ^ ((q^2 - 1) / r)

with distortion map phi(x, y) = (-x, i*y) over F_{q^2} = F_q[i]/(i^2 + 1).
The distorted x-coordinate stays in F_q, so Miller's vertical-line
denominators land in F_q and are annihilated by the final exponentiation
(denominator elimination), leaving only line numerators in the loop. The
same argument lets the loop keep T in Jacobian coordinates and evaluate
projective lines, each off by an F_q factor: no inversion per step. The
final exponentiation splits as (q - 1) * (q + 1)/r; the first factor is a
Frobenius (conjugation on F_q[i]) over f, the second is COFACTOR.

Group elements are affine points (x, y) with None for the identity;
target-group elements are F_{q^2} values as (real, imag) tuples. Both are
hashable (proof aggregation keys on group elements).
"""

from __future__ import annotations

# field prime q == 3 (mod 4), subgroup order r prime, q + 1 = h * r
Q_FIELD = 115792089237316195423570985154838071586360276509064442602736808213227673514411
ORDER = 1461501637330902918203684832716283019655932543267
COFACTOR = 79228162514264337593543950436

# generator of the order-r subgroup: cofactor-cleared first curve point
# above x = 3 (frozen; regenerated and checked in the test suite)
GENERATOR = (
    49777667468439771518455001310745346048397318406476319290227930244965681360736,
    61228430231643937844766064568571936233470199248222008690317340056793406154297,
)

GT_ONE = (1, 0)

# bits per digit of the fixed-base generator table
WINDOW = 5


def _inv(x: int) -> int:
    return pow(x, -1, Q_FIELD)


def f2_mul(a, b):
    x0, x1 = a
    y0, y1 = b
    return ((x0 * y0 - x1 * y1) % Q_FIELD, (x0 * y1 + x1 * y0) % Q_FIELD)


def f2_sqr(a):
    x0, x1 = a
    return ((x0 * x0 - x1 * x1) % Q_FIELD, (2 * x0 * x1) % Q_FIELD)


def f2_pow(a, e: int):
    res = GT_ONE
    while e:
        if e & 1:
            res = f2_mul(res, a)
        a = f2_sqr(a)
        e >>= 1
    return res


def ec_neg(p):
    if p is None:
        return None
    return (p[0], (-p[1]) % Q_FIELD)


def ec_add(p1, p2):
    """Affine addition on y^2 = x^3 + x."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % Q_FIELD == 0:
            return None
        lam = (3 * x1 * x1 + 1) * _inv(2 * y1) % Q_FIELD
    else:
        lam = (y2 - y1) * _inv(x2 - x1) % Q_FIELD
    x3 = (lam * lam - x1 - x2) % Q_FIELD
    return (x3, (lam * (x1 - x3) - y1) % Q_FIELD)


def _jac_double(p):
    if p is None:
        return None
    x1, y1, z1 = p
    a = x1 * x1 % Q_FIELD
    b = y1 * y1 % Q_FIELD
    c = b * b % Q_FIELD
    d = 2 * ((x1 + b) * (x1 + b) - a - c) % Q_FIELD
    z1sq = z1 * z1 % Q_FIELD
    e = (3 * a + z1sq * z1sq) % Q_FIELD  # curve coefficient a = 1
    x3 = (e * e - 2 * d) % Q_FIELD
    y3 = (e * (d - x3) - 8 * c) % Q_FIELD
    z3 = 2 * y1 * z1 % Q_FIELD
    return (x3, y3, z3)


def _jac_add_affine(p, q):
    """Mixed Jacobian + affine addition."""
    if p is None:
        return (q[0], q[1], 1)
    x1, y1, z1 = p
    x2, y2 = q
    z1z1 = z1 * z1 % Q_FIELD
    u2 = x2 * z1z1 % Q_FIELD
    s2 = y2 * z1 * z1z1 % Q_FIELD
    h = (u2 - x1) % Q_FIELD
    if h == 0:
        if (s2 - y1) % Q_FIELD == 0:
            return _jac_double(p)
        return None
    hh = h * h % Q_FIELD
    i = 4 * hh % Q_FIELD
    j = h * i % Q_FIELD
    rr = 2 * (s2 - y1) % Q_FIELD
    v = x1 * i % Q_FIELD
    x3 = (rr * rr - j - 2 * v) % Q_FIELD
    y3 = (rr * (v - x3) - 2 * y1 * j) % Q_FIELD
    z3 = ((z1 + h) * (z1 + h) - z1z1 - hh) % Q_FIELD
    return (x3, y3, z3)


def _jac_to_affine(p):
    if p is None:
        return None
    x, y, z = p
    zi = _inv(z)
    zi2 = zi * zi % Q_FIELD
    return (x * zi2 % Q_FIELD, y * zi2 * zi % Q_FIELD)


def _batch_to_affine(points):
    """Jacobian points (none the identity) to affine with a single inversion
    (Montgomery's trick)."""
    prefix = [1]
    for _, _, z in points:
        prefix.append(prefix[-1] * z % Q_FIELD)
    inv = _inv(prefix[-1])
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zi = inv * prefix[i] % Q_FIELD  # inv is 1 / (z_0 ... z_i) here
        inv = inv * z % Q_FIELD
        zi2 = zi * zi % Q_FIELD
        out[i] = (x * zi2 % Q_FIELD, y * zi2 * zi % Q_FIELD)
    return out


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
    return _jac_to_affine(acc)


def _miller(p, q_distorted):
    """f_{r,p} evaluated at the distorted point, up to a factor in F_q.

    T stays in Jacobian coordinates (X, Y, Z) with x = X/Z^2, y = Y/Z^3.
    Each line value is taken from X, Y, Z and scaled by a nonzero F_q factor
    (2YZ^3 for the tangent, the new Z for the chord through P); the final
    exponentiation erases such factors, so the loop inverts nothing.
    """
    xq, yq_i = q_distorted  # x in F_q, y purely imaginary with coefficient yq_i
    xp, yp = p
    f0, f1 = 1, 0
    x, y, z = xp, yp, 1
    for bit in bin(ORDER)[3:]:
        # tangent at T: (M (X - xq Z^2) - 2Y^2) + i yq Z3 Z^2, M = 3X^2 + Z^4
        xx = x * x % Q_FIELD
        yy = y * y % Q_FIELD
        zz = z * z % Q_FIELD
        m = (3 * xx + zz * zz) % Q_FIELD
        z3 = 2 * y * z % Q_FIELD
        l0 = (m * (x - xq * zz) - 2 * yy) % Q_FIELD
        l1 = yq_i * z3 * zz % Q_FIELD
        s0 = (f0 + f1) * (f0 - f1) % Q_FIELD
        s1 = 2 * f0 * f1 % Q_FIELD
        f0 = (s0 * l0 - s1 * l1) % Q_FIELD
        f1 = (s0 * l1 + s1 * l0) % Q_FIELD
        # T = 2T
        d = 4 * x * yy % Q_FIELD
        x = (m * m - 2 * d) % Q_FIELD
        y = (m * (d - x) - 8 * yy * yy) % Q_FIELD
        z = z3
        if bit == "1":
            zz = z * z % Q_FIELD
            h = (xp * zz - x) % Q_FIELD
            if h == 0:
                # T = -P, only at the last step: the vertical line x = xp has
                # its value in F_q, erased by the final exponentiation
                break
            # chord through P with slope rr / z3: (-yp z3 - rr (xq - xp)) + i yq z3
            rr = 2 * (yp * z * zz - y) % Q_FIELD
            z3 = 2 * z * h % Q_FIELD
            l0 = (-yp * z3 - rr * (xq - xp)) % Q_FIELD
            l1 = yq_i * z3 % Q_FIELD
            f0, f1 = (f0 * l0 - f1 * l1) % Q_FIELD, (f0 * l1 + f1 * l0) % Q_FIELD
            # T = T + P
            hh = h * h % Q_FIELD
            j = 4 * h * hh % Q_FIELD
            v = 4 * x * hh % Q_FIELD
            x = (rr * rr - j - 2 * v) % Q_FIELD
            y = (rr * (v - x) - 2 * y * j) % Q_FIELD
            z = z3
    return f0, f1


def tate_pairing(p, q) -> tuple:
    """Modified Tate pairing e(p, q) with the distortion map on q.

    Final exponentiation f^((q^2 - 1)/r) = (f^(q - 1))^((q + 1)/r): Frobenius
    on F_q[i] is conjugation, so f^(q - 1) = conj(f)/f = conj(f)^2 / N(f)
    with the norm N(f) in F_q, and (q + 1)/r is COFACTOR.
    """
    if p is None or q is None:
        return GT_ONE
    f0, f1 = _miller(p, ((-q[0]) % Q_FIELD, q[1]))
    n_inv = _inv(f0 * f0 + f1 * f1)
    c0, c1 = f2_sqr((f0, -f1))
    return f2_pow((c0 * n_inv % Q_FIELD, c1 * n_inv % Q_FIELD), COFACTOR)


class PairingBackend:
    """Pairing-group backend over the supersingular curve.

    Pairings run the inversion-free Jacobian Miller loop and the Frobenius
    final exponentiation above. Generator powers use a fixed-base table of
    WINDOW-bit windows: row j holds m * 2^(WINDOW*j) * g for m = 1 .. 2^WINDOW - 1
    as affine points, so g^a is one mixed addition per nonzero digit of a and
    a single inversion. e(g,g) is cached for target-group exponentiation.

    Group elements (affine tuples or None) and target-group elements (tuples)
    are hashable; aggregate_proof keys on weight signatures to fold pairings.
    """

    name = "pairing"

    def __init__(self):
        self.order = ORDER
        self.g = GENERATOR
        self._table = []
        base = GENERATOR
        for _ in range(-(-ORDER.bit_length() // WINDOW)):
            # m * base for m = 1 .. 2^WINDOW; the last is the next row's base
            jac = [(base[0], base[1], 1)]
            for _ in range(2**WINDOW - 1):
                jac.append(_jac_add_affine(jac[-1], base))
            row = _batch_to_affine(jac)
            self._table.append(row[:-1])
            base = row[-1]
        self._e_gg = tate_pairing(self.g, self.g)

    @property
    def gt_identity(self):
        return GT_ONE

    def g_pow(self, a: int):
        a %= self.order
        if a == 0:
            return None
        acc = None
        mask = 2**WINDOW - 1
        for row in self._table:
            digit = a & mask
            if digit:
                acc = _jac_add_affine(acc, row[digit - 1])
            a >>= WINDOW
            if not a:
                break
        return _jac_to_affine(acc)

    def g_mul(self, x, y):
        return ec_add(x, y)

    def pair(self, x, y):
        return tate_pairing(x, y)

    def gt_mul(self, a, b):
        return f2_mul(a, b)

    def gt_pow(self, e: int):
        return f2_pow(self._e_gg, e % self.order)
