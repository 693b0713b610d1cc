import numpy as np
import pytest

from svafd.coding import (
    IndivisibleO,
    InsufficientShares,
    ShapeMismatch,
    Share,
    SplitBundle,
    ZeroBlindEntry,
    blind,
    check_achievable,
    decode,
    deblind_and_join,
    encode,
    local_aggregate,
    make_group_plan,
    monomial,
    noise_coeff_submatrix,
    quantize,
    split,
    _truncated_normal,
)
from svafd.numerics import make_nodes, relative_error


from helpers import full_pipeline, lagrange_coeff


def naive_lagrange(betas, j, x):
    """Independent product-formula coefficient, 0-based j."""
    num = den = 1.0 + 0j
    for l, b in enumerate(betas):
        if l != j:
            num *= x - b
            den *= betas[j] - b
    return num / den


class TestQuantize:
    def test_matches_floor_grid(self):
        arr = np.array([1.2345, -1.2345, 0.0])
        np.testing.assert_allclose(quantize(arr, 3), [1.234, -1.235, 0.0], atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        x = quantize(rng.uniform(-5, 5, 50), 3)
        np.testing.assert_allclose(quantize(x, 3), x, atol=1e-12)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_grid_points_stay_put(self, q):
        # 0.29 * 100 is 28.999999999999996 in floats; a plain floor gave 0.28
        grid = np.arange(-(10**q), 10**q + 1) / 10**q
        np.testing.assert_array_equal(quantize(grid, q), grid)

    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    def test_off_grid_values_floor(self, q):
        x = np.random.default_rng(q).uniform(-10, 10, 10_000)
        np.testing.assert_array_equal(quantize(x, q), np.floor(x * 10**q) / 10**q)

    def test_plan_keeps_grid_weights(self):
        weights = [0.29, 0.57, 0.1, 0.04]
        plan = make_group_plan(9, range(4), 2, 1, (2, 2), np.random.default_rng(0), q=2, weights=weights)
        np.testing.assert_array_equal(plan.weights, weights)


class TestSplit:
    def test_class_additive_sum(self):
        rng = np.random.default_rng(1)
        logits = np.array([[2.0, 4.0], [6.0, 8.0]])
        b = split(logits, 2, "class", rng=rng)
        assert b.slices.shape == (2, 2, 2)
        np.testing.assert_allclose(b.slices.sum(axis=0), logits, atol=1e-12)

    def test_sample_block_order(self):
        rows = np.arange(12.0).reshape(4, 3)
        b = split(rows, 2, "sample")
        np.testing.assert_array_equal(b.slices[0], rows[:2])
        np.testing.assert_array_equal(b.slices[1], rows[2:])

    def test_class_k1_identity(self):
        logits = np.array([[1.0, -2.0], [3.0, 0.5]])
        b = split(logits, 1, "class")
        np.testing.assert_array_equal(b.slices[0], logits)

    def test_indivisible_rejected(self):
        with pytest.raises(IndivisibleO):
            split(np.zeros((5, 2)), 2, "sample")

    def test_quantized_slices_stay_on_grid(self):
        rng = np.random.default_rng(2)
        logits = quantize(rng.uniform(-10, 10, (6, 6)), 3)
        b = split(logits, 3, "class", rng=rng, quantize_digits=3)
        scaled = b.slices * 10**3
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-6)
        np.testing.assert_allclose(b.slices.sum(axis=0), logits, atol=1e-9)


class TestBlind:
    def test_t0_unchanged(self):
        b = split(np.eye(3), 1, "class")
        assert blind(b, 0, 1e3, 6.0, np.random.default_rng(0)) is b

    def test_components_within_bound(self):
        b = split(np.eye(4), 1, "class")
        out = blind(b, 4, 1e3, 6.0, np.random.default_rng(3))
        bound = 6.0 * 1e3 / np.sqrt(4)
        assert out.noise.shape == (4, 4, 4)
        assert np.abs(out.noise.real).max() <= bound
        assert np.abs(out.noise.imag).max() <= bound

    def test_seed_reproducible(self):
        b = split(np.eye(4), 1, "class")
        n1 = blind(b, 3, 10.0, 6.0, np.random.default_rng(42)).noise
        n2 = blind(b, 3, 10.0, 6.0, np.random.default_rng(42)).noise
        np.testing.assert_array_equal(n1, n2)

    def test_real_parts_drawn_before_imaginary_parts(self):
        b = split(np.eye(4), 1, "class")
        noise = blind(b, 3, 10.0, 6.0, np.random.default_rng(42)).noise
        rng, std = np.random.default_rng(42), 10.0 / np.sqrt(3)
        real = _truncated_normal(rng, std, 6.0 * std, noise.shape)
        imag = _truncated_normal(rng, std, 6.0 * std, noise.shape)
        assert noise.dtype == complex and noise.tobytes() == (real + 1j * imag).tobytes()

    def test_noise_appends_and_blocks_follow_slices(self):
        rng = np.random.default_rng(8)
        once = blind(split(rng.uniform(-5, 5, (6, 3)), 2, "sample"), 2, 10.0, 6.0, rng)
        twice = blind(once, 1, 10.0, 6.0, rng)
        assert twice.t == 3 and np.array_equal(twice.noise[:2], once.noise)
        want = np.concatenate([twice.slices.astype(complex), twice.noise])
        assert twice.blocks().dtype == complex and twice.blocks().tobytes() == want.tobytes()


class TestEncode:
    def test_k1_t0_constant_polynomial(self):
        rng = np.random.default_rng(4)
        plan = make_group_plan(0, [1, 2, 3], 1, 0, (2, 2), rng)
        b = split(np.array([[1.0, 2.0], [3.0, 4.0]]), 1, "class")
        shares = encode(b, plan.lagrange, plan.members)
        assert len(shares) == 3
        for sh in shares:
            np.testing.assert_allclose(sh.payload, b.slices[0], atol=1e-12)

    def test_anchor_evaluation_recovers_slices(self):
        # the encoding polynomial takes value slice_k at anchor beta_k
        rng = np.random.default_rng(5)
        k, t = 3, 2
        plan = make_group_plan(0, list(range(7)), k, t, (4, 4), rng)
        logits = quantize(rng.uniform(-5, 5, (4, 4)), 3)
        b = blind(split(logits, k, "class", rng=rng, quantize_digits=3), t, 10.0, 6.0, rng)
        blocks = b.blocks()
        for slot in range(k):
            beta = plan.nodes.betas[slot]
            val = sum(
                blocks[j] * naive_lagrange(plan.nodes.betas, j, beta) for j in range(k + t)
            )
            np.testing.assert_allclose(val.real, b.slices[slot], atol=1e-9)
            np.testing.assert_allclose(val.imag, np.zeros_like(val.imag), atol=1e-9)

    def test_payloads_match_pointwise_oracle(self):
        rng = np.random.default_rng(6)
        k, t, r = 2, 1, 6
        plan = make_group_plan(0, list(range(r)), k, t, (3, 3), rng)
        logits = rng.uniform(-5, 5, (3, 3))
        b = blind(split(logits, k, "class", rng=rng), t, 10.0, 6.0, rng)
        blocks = b.blocks()
        shares = encode(b, plan.lagrange, plan.members)
        for x, sh in enumerate(shares):
            alpha = plan.nodes.alphas[x]
            want = np.zeros((3, 3), dtype=complex)
            for g in range(3):
                for l in range(3):
                    want[g, l] = sum(
                        blocks[j, g, l] * naive_lagrange(plan.nodes.betas, j, alpha)
                        for j in range(k + t)
                    )
            assert np.abs(sh.payload - want).max() <= 1e-10

    def test_block_count_mismatch_rejected(self):
        rng = np.random.default_rng(7)
        plan = make_group_plan(0, [1, 2], 2, 1, (2, 2), rng)
        b = split(np.eye(2), 1, "class")
        with pytest.raises(ShapeMismatch):
            encode(b, plan.lagrange, plan.members)


def outer_j_encode(bundle, lagrange):
    """Reference: the encode product with the block axis j outermost."""
    return np.einsum("jx,jod->xod", lagrange, bundle.blocks())


def mixed_bundle(rng, k, t, shape):
    """Slices and noise whose magnitudes span 1e-3 to 1e3, a tenth of the
    entries exactly zero."""

    def draw(size, dtype):
        values = rng.normal(size=size) if dtype is float else rng.normal(size=size) + 1j * rng.normal(size=size)
        values *= 10.0 ** rng.uniform(-3, 3, size)
        values[rng.random(size) < 0.1] = 0
        return values

    return SplitBundle(draw((k,) + shape, float), draw((t,) + shape, complex))


def mixed_coeffs(rng, blocks, r):
    coeffs = (rng.normal(size=(blocks, r)) + 1j * rng.normal(size=(blocks, r))) * 10.0 ** rng.uniform(-3, 3, (blocks, r))
    coeffs[rng.random(coeffs.shape) < 0.05] = 0
    return coeffs


class TestEncodeBytes:
    """encode's payloads are byte for byte those of the outer-j einsum."""

    @staticmethod
    def assert_same_bytes(bundle, lagrange):
        r = lagrange.shape[1]
        want = outer_j_encode(bundle, lagrange)
        shares = encode(bundle, lagrange, range(r))
        assert len(shares) == r
        for x, share in enumerate(shares):
            assert share.payload.dtype == want.dtype and share.payload.shape == want.shape[1:]
            assert share.payload.tobytes() == want[x].tobytes()

    @pytest.mark.parametrize("grain", ["class", "sample"])
    def test_random_shapes(self, grain):
        rng = np.random.default_rng(21 if grain == "class" else 22)
        for _ in range(100):
            r = int(rng.integers(1, 101))
            blocks = int(rng.integers(1, r + 1))
            k = int(rng.integers(1, blocks + 1))
            d = int(rng.integers(1, 11))
            shape = (d, d) if grain == "class" else (int(rng.integers(1, 33)), d)
            self.assert_same_bytes(mixed_bundle(rng, k, blocks - k, shape), mixed_coeffs(rng, blocks, r))

    @pytest.mark.parametrize("r", [1, 2, 100])
    def test_one_block(self, r):
        rng = np.random.default_rng(r)
        self.assert_same_bytes(mixed_bundle(rng, 1, 0, (4, 3)), mixed_coeffs(rng, 1, r))

    def test_all_zero_blocks_and_coefficients(self):
        bundle = SplitBundle(np.zeros((2, 3, 3)), np.zeros((1, 3, 3), dtype=complex))
        self.assert_same_bytes(bundle, np.zeros((3, 5), dtype=complex))
        self.assert_same_bytes(bundle, -mixed_coeffs(np.random.default_rng(0), 3, 5))

    def test_plan_coefficients(self):
        rng = np.random.default_rng(23)
        plan = make_group_plan(0, range(40), 10, 10, (32, 10), rng)
        self.assert_same_bytes(mixed_bundle(rng, 10, 10, (32, 10)), plan.lagrange)

    @pytest.mark.parametrize(
        "view",
        [
            lambda c: c[:, ::2],
            lambda c: np.asfortranarray(c),
            lambda c: c[::-1],
            lambda c: c.real,
            lambda c: c.real.copy(),
            lambda c: c.real.astype(np.float32),
        ],
        ids=["strided", "fortran", "reversed", "real-view", "real", "float32"],
    )
    def test_coefficients_as_delivered(self, view):
        # a bus mutation may deliver a non-contiguous or real coefficient array
        rng = np.random.default_rng(24)
        lagrange = view(mixed_coeffs(rng, 4, 14))
        self.assert_same_bytes(mixed_bundle(rng, 3, 1, (5, 4)), lagrange)


class TestLocalAggregate:
    def mk_share(self, val):
        return Share(np.array([[complex(val)]]))

    def test_plain_sum(self):
        shares = [self.mk_share(1.0), self.mk_share(2.0)]
        view = {0: np.ones((1, 1)), 1: np.ones((1, 1))}
        agg = local_aggregate(shares, view, monomial(1))
        np.testing.assert_allclose(agg.payload, [[3.0]])

    def test_zero_weight_drops_member(self):
        shares = [self.mk_share(1.0), self.mk_share(5.0)]
        view = {0: 2 * np.ones((1, 1)), 1: np.zeros((1, 1))}
        agg = local_aggregate(shares, view, monomial(1))
        np.testing.assert_allclose(agg.payload, [[2.0]])

    def test_elementwise_square(self):
        shares = [self.mk_share(3.0)]
        agg = local_aggregate(shares, {0: np.ones((1, 1))}, monomial(2))
        np.testing.assert_allclose(agg.payload, [[9.0]])

    def test_one_share_short_of_the_view(self):
        with pytest.raises(ValueError):
            local_aggregate([self.mk_share(1.0)], {0: np.ones((1, 1)), 1: np.ones((1, 1))}, monomial(1))


def horner_aggregate(received, view, f_coeffs):
    """Per-pair reference: Horner on every share, then the weighted sum in
    view order; the i-th share pairs with the i-th view weight."""
    payload = None
    for share, w in zip(received, view.values(), strict=True):
        value = np.zeros_like(share.payload, dtype=complex)
        for c in reversed(list(f_coeffs)):
            value = value * share.payload + c
        term = w * value
        payload = term if payload is None else payload + term
    return payload


class TestDegreeOneAggregate:
    """The degree-1 running sum gives the same bytes as Horner per pair."""

    shape = (4, 3)

    def shares(self, rng, count):
        return [Share(rng.normal(size=self.shape) + 1j * rng.normal(size=self.shape)) for _ in range(count)]

    def view(self, rng, members):
        weights = quantize(rng.uniform(0.01, 0.3, len(members)), 3)
        blind_factor = rng.uniform(0.5, 2.0, self.shape)
        return {z: w * blind_factor for z, w in zip(members, weights)}, blind_factor

    def assert_matches_reference(self, received, view):
        agg = local_aggregate(received, view, monomial(1))
        ref = horner_aggregate(received, view, monomial(1))
        assert agg.payload.dtype == ref.dtype and agg.payload.tobytes() == ref.tobytes()

    def test_non_uniform_weights(self):
        rng = np.random.default_rng(21)
        view, _ = self.view(rng, range(7))
        self.assert_matches_reference(self.shares(rng, 7), view)

    def test_weight_tamper_view(self):
        rng = np.random.default_rng(22)
        view, blind_factor = self.view(rng, range(5))
        view = {**view, 2: view[2] + 1e-3 * blind_factor}
        self.assert_matches_reference(self.shares(rng, 5), view)

    def test_single_member_view(self):
        rng = np.random.default_rng(23)
        view, _ = self.view(rng, [3])
        self.assert_matches_reference(self.shares(rng, 1), view)

    def test_encoded_shares(self):
        rng = np.random.default_rng(25)
        plan = make_group_plan(9, range(6), 2, 1, self.shape, rng)
        bundles = [blind(split(rng.uniform(-10, 10, (8, 3)), 2, "sample"), 1, 100.0, 6.0, rng) for _ in range(6)]
        inbox = [encode(b, plan.lagrange, plan.members)[3] for b in bundles]
        self.assert_matches_reference(inbox, dict(zip(plan.members, plan.blinded_weights)))

    def test_empty_view_still_raises(self):
        rng = np.random.default_rng(26)
        with pytest.raises(ValueError, match="empty weights view"):
            local_aggregate(self.shares(rng, 1), {}, monomial(1))


class TestDecode:
    def test_single_share_degree_zero(self):
        nodes = make_nodes(3, 1, 0)
        payload = np.array([[1.5 + 0.25j]])
        [out] = decode([(0, payload)], nodes, 1, 0, 1)
        np.testing.assert_allclose(out, [[1.5]])

    def test_unblinded_chain_reproduces_weighted_slices(self):
        # t=0, all exact grid values: decoded slice equals the blinded
        # weighted sum of plaintext slices
        rng = np.random.default_rng(8)
        k, r = 3, 8
        plan = make_group_plan(0, list(range(r)), k, 0, (4, 4), rng)
        bundles = {
            z: split(quantize(rng.uniform(-8, 8, (4, 4)), 3), k, "class", rng=rng, quantize_digits=3)
            for z in range(r)
        }
        inbox = {x: [] for x in range(r)}
        for z in range(r):
            for x, sh in enumerate(encode(bundles[z], plan.lagrange, plan.members)):
                inbox[x].append(sh)
        view = {z: plan.blinded_weights[z] for z in range(r)}
        aggs = [(x, local_aggregate(inbox[x], view, monomial(1)).payload) for x in range(r)]
        decoded = decode(aggs, plan.nodes, k, 0, 1)
        for slot in range(k):
            want = sum(plan.blinded_weights[z] * bundles[z].slices[slot] for z in range(r))
            assert np.abs(decoded[slot] - want).max() <= 1e-9

    def test_insufficient_shares(self):
        nodes = make_nodes(5, 2, 1)
        aggs = [(i, np.zeros((1, 1), dtype=complex)) for i in range(2)]
        with pytest.raises(InsufficientShares):
            decode(aggs, nodes, 2, 1, 1)  # threshold 3

    def test_full_scale_reference_config(self):
        teacher, oracle = full_pipeline(
            seed=0, r=100, k=30, t=30, deg_f=1, grain="class", d=10, sigma=1e3, theta=6.0
        )
        assert relative_error(teacher, oracle) <= 1e-6


class TestDeblindJoin:
    def test_class_sum(self):
        out = deblind_and_join([np.array([[1.0]]), np.array([[2.0]])], np.ones((1, 1)), "class")
        np.testing.assert_allclose(out, [[3.0]])

    def test_sample_concat(self):
        r1, r2 = np.array([[1.0, 2.0]]), np.array([[3.0, 4.0]])
        out = deblind_and_join([r1, r2], np.ones((1, 2)), "sample")
        np.testing.assert_array_equal(out, np.vstack([r1, r2]))

    def test_hadamard_inverse(self):
        out = deblind_and_join([np.array([[4.0]])], 2 * np.ones((1, 1)), "class")
        np.testing.assert_allclose(out, [[2.0]])

    def test_zero_blind_rejected(self):
        with pytest.raises(ZeroBlindEntry):
            deblind_and_join([np.ones((2, 2))], np.zeros((2, 2)), "class")


class TestAchievability:
    def test_moderate_config_feasible(self):
        a = check_achievable(50, 10, 10, 1)
        assert a.feasible and a.d_resilience == 30

    def test_oversized_split_infeasible(self):
        a = check_achievable(50, 30, 30, 1)
        assert not a.feasible

    def test_boundary_equality(self):
        a = check_achievable(60, 30, 30, 1)
        assert a.feasible and a.d_resilience == 0


class TestHomomorphicAggregation:
    def test_randomized_small_instances(self):
        rng = np.random.default_rng(99)
        for trial in range(40):
            deg = int(rng.integers(1, 3))
            k = int(rng.integers(1, 5))
            t = int(rng.integers(0, 4))
            threshold = deg * (k + t - 1) + 1
            if threshold > 12:
                continue
            r = int(rng.integers(max(threshold, t, 2), 13))
            grain = "class" if rng.random() < 0.5 else "sample"
            teacher, oracle = full_pipeline(
                seed=trial, r=r, k=k, t=t, deg_f=deg, grain=grain, d=4, omega=3, sigma=50.0
            )
            assert relative_error(teacher, oracle) <= 1e-6, (trial, r, k, t, deg, grain)


class TestDResilience:
    def test_dropouts_up_to_budget(self):
        r, k, t, deg = 20, 3, 2, 1
        budget = check_achievable(r, k, t, deg).d_resilience
        assert budget == 15
        base, oracle = full_pipeline(seed=5, r=r, k=k, t=t, deg_f=deg)
        rng = np.random.default_rng(17)
        drop = set(map(int, rng.permutation(r)[:budget]))
        survived, _ = full_pipeline(seed=5, r=r, k=k, t=t, deg_f=deg, drop=drop)
        assert relative_error(survived, base) <= 1e-6
        assert relative_error(survived, oracle) <= 1e-6

    def test_budget_plus_one_fails(self):
        r, k, t, deg = 20, 3, 2, 1
        drop = set(range(16))  # budget is 15
        with pytest.raises(InsufficientShares):
            full_pipeline(seed=5, r=r, k=k, t=t, deg_f=deg, drop=drop)

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4: decode fits degree survivors-1 through a contiguous arc of survivors",
    )
    def test_threshold_size_arc_decodes(self):
        # 20 contiguous survivors out of 100, exactly the threshold k+t
        teacher, oracle = full_pipeline(seed=1, r=100, k=10, t=10, deg_f=1, drop=range(20, 100))
        assert relative_error(teacher, oracle) <= 1e-6


class TestNoisePrivacySurrogate:
    def test_small_t_determinants(self):
        for trial in range(30):
            rng = np.random.default_rng([1, trial])
            t = int(rng.integers(1, 4))
            k = int(rng.integers(1, 9))
            r = int(rng.integers(max(t, k + t), 33))
            nodes = make_nodes(r, k, t)
            for _ in range(10):
                idx = rng.permutation(r)[:t]
                m = noise_coeff_submatrix(nodes, k, idx)
                assert abs(np.linalg.det(m)) > 1e-12

    def test_full_rank_at_larger_t(self):
        for trial in range(20):
            rng = np.random.default_rng([2, trial])
            t = int(rng.integers(4, 11))
            k = int(rng.integers(1, 9))
            r = int(rng.integers(max(t, k + t), 41))
            nodes = make_nodes(r, k, t)
            idx = rng.permutation(r)[:t]
            m = noise_coeff_submatrix(nodes, k, idx)
            assert np.linalg.matrix_rank(m) == t


def test_lagrange_coeff_consistency_with_module_nodes():
    nodes = make_nodes(6, 2, 2)
    for j in range(1, 5):
        got = lagrange_coeff(nodes, j, 0.3 + 0.1j)
        want = naive_lagrange(nodes.betas, j - 1, 0.3 + 0.1j)
        assert got == pytest.approx(want, rel=1e-12)
