import numpy as np
import pytest

from svafd.numerics import (
    DuplicateNode,
    InterpolationNodes,
    NodeCollision,
    ZeroTruth,
    interpolate,
    lagrange_matrix,
    least_squares,
    make_nodes,
    relative_error,
)

from helpers import lagrange_coeff


def poly_eval(coeffs, x):
    """Independent Horner evaluation; coeffs[i] multiplies x**i."""
    acc = np.zeros_like(coeffs[0], dtype=complex)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


class TestSharedNodes:
    """A node set and its Lagrange matrix are built once per shape, equal a
    fresh build, and cannot be written."""

    def test_memo_equals_fresh_and_is_read_only(self):
        nodes = make_nodes(12, 3, 2, radius=1.15)
        fresh = make_nodes.__wrapped__(12, 3, 2, radius=1.15)
        assert make_nodes(12, 3, 2, radius=1.15) is nodes and fresh is not nodes
        lag = lagrange_matrix(nodes)
        assert lagrange_matrix(nodes) is lag
        for got, want in ((nodes.alphas, fresh.alphas), (nodes.betas, fresh.betas), (lag, lagrange_matrix(fresh))):
            assert got.tobytes() == want.tobytes()
            with pytest.raises(ValueError):
                got[0] = 0.0
        with pytest.raises(AttributeError):
            nodes.radius = 2.0


class TestMakeNodes:
    def test_raw_roots_of_unity_collide(self):
        alphas = np.exp(-2j * np.pi * np.arange(4) / 4)
        betas = np.exp(-2j * np.pi * np.arange(2) / 2)
        with pytest.raises(NodeCollision):
            InterpolationNodes(alphas=alphas, betas=betas, radius=1.0)

    def test_collision_avoidance_rotates_alphas(self):
        nodes = make_nodes(4, 1, 1, radius=1.0)
        assert len(nodes.alphas) == 4 and len(nodes.betas) == 2
        assert np.abs(nodes.alphas[:, None] - nodes.betas[None, :]).min() > 1e-6
        np.testing.assert_allclose(np.abs(nodes.alphas), 1.0, atol=1e-12)

    def test_large_config_valid(self):
        nodes = make_nodes(100, 30, 30, radius=1.0)
        assert len(nodes.alphas) == 100 and len(nodes.betas) == 60
        np.testing.assert_allclose(np.abs(nodes.alphas), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(nodes.betas), 1.0, atol=1e-12)

    def test_shared_factor_fallback_rotation(self):
        # group size 50 vs 20 anchors: the half-spacing rotation still lands
        # on anchors, so the merged-grid offset must kick in.
        nodes = make_nodes(50, 10, 10, radius=1.0)
        assert np.abs(nodes.alphas[:, None] - nodes.betas[None, :]).min() > 1e-7

    def test_deterministic(self):
        a = make_nodes(13, 3, 2, radius=1.15)
        b = make_nodes(13, 3, 2, radius=1.15)
        np.testing.assert_array_equal(a.alphas, b.alphas)
        np.testing.assert_array_equal(a.betas, b.betas)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            make_nodes(0, 1, 0)
        with pytest.raises(ValueError):
            make_nodes(3, 1, 0, radius=0.0)


class TestLagrangeCoeff:
    def test_identity_at_own_anchor(self):
        nodes = make_nodes(4, 1, 1)
        assert lagrange_coeff(nodes, 1, nodes.betas[0]) == pytest.approx(1.0)

    def test_zero_at_other_anchor(self):
        nodes = make_nodes(4, 1, 1)
        assert lagrange_coeff(nodes, 1, nodes.betas[1]) == pytest.approx(0.0, abs=1e-14)

    def test_hand_value_at_origin(self):
        # betas = {1, -1}: l_1(0) = (0 + 1) / (1 + 1) = 0.5
        nodes = make_nodes(4, 1, 1)
        np.testing.assert_allclose(nodes.betas, [1.0, -1.0], atol=1e-12)
        assert lagrange_coeff(nodes, 1, 0.0) == pytest.approx(0.5)

    def test_index_bounds(self):
        nodes = make_nodes(4, 1, 1)
        with pytest.raises(IndexError):
            lagrange_coeff(nodes, 0, 0.0)
        with pytest.raises(IndexError):
            lagrange_coeff(nodes, 3, 0.0)

    def test_matrix_matches_pointwise_product_formula(self):
        nodes = make_nodes(9, 3, 2)
        mat = lagrange_matrix(nodes)
        for j in range(1, 6):
            for x, alpha in enumerate(nodes.alphas):
                assert mat[j - 1, x] == pytest.approx(lagrange_coeff(nodes, j, alpha), rel=1e-12)

    def test_partition_of_unity(self):
        # points sampled near the circle the nodes live on; far from it the
        # analytic identity still holds but float cancellation cannot
        rng = np.random.default_rng(7)
        for k, t in [(1, 1), (5, 3), (40, 40), (50, 30)]:
            nodes = make_nodes(17, k, t)
            col_sums = lagrange_matrix(nodes).sum(axis=0)
            np.testing.assert_allclose(col_sums, 1.0, atol=1e-9)
            x = rng.uniform(0.5, 1.2) * np.exp(2j * np.pi * rng.uniform())
            s = sum(lagrange_coeff(nodes, j, x) for j in range(1, k + t + 1))
            assert s == pytest.approx(1.0, abs=1e-9)


class TestInterpolate:
    def test_line_through_two_points(self):
        [y] = interpolate([(1.0, np.array([2.0])), (-1.0, np.array([0.0]))], [0.0])
        np.testing.assert_allclose(y.real, [1.0], atol=1e-12)

    def test_single_point_is_constant(self):
        alpha = 0.3 + 0.4j
        val = np.array([[1.5, -2.0]])
        [y] = interpolate([(alpha, val)], [alpha])
        np.testing.assert_array_equal(y, val)

    def test_duplicate_nodes_rejected(self):
        pts = [(1.0, np.array([1.0])), (1.0, np.array([2.0]))]
        with pytest.raises(DuplicateNode):
            interpolate(pts, [0.0])

    def test_degree_two_roundtrip(self):
        rng = np.random.default_rng(3)
        coeffs = [rng.normal(size=(2, 2)) for _ in range(3)]
        xs = np.exp(-2j * np.pi * np.arange(3) / 3)
        pts = [(x, poly_eval(coeffs, x)) for x in xs]
        targets = [0.0, 0.5 + 0.1j, -0.7j]
        got = interpolate(pts, targets)
        for tgt, y in zip(targets, got):
            want = poly_eval(coeffs, tgt)
            assert np.abs(y - want).max() <= 1e-10 * max(1.0, np.abs(want).max())

    def test_exact_hit_returns_node_value(self):
        rng = np.random.default_rng(5)
        xs = np.exp(-2j * np.pi * np.arange(6) / 6)
        vals = [rng.normal(size=(3,)) + 0j for _ in xs]
        got = interpolate(list(zip(xs, vals)), [xs[4]])
        np.testing.assert_array_equal(got[0], vals[4])

    def test_high_degree_identity_on_circle(self):
        # evaluate a random degree-60 tensor polynomial on 70 circle nodes,
        # re-evaluate elsewhere through the interpolant
        rng = np.random.default_rng(11)
        coeffs = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(61)]
        nodes = np.exp(-2j * np.pi * np.arange(70) / 70)
        pts = [(x, poly_eval(coeffs, x)) for x in nodes]
        targets = np.exp(-2j * np.pi * (np.arange(9) + 0.37) / 9)
        got = interpolate(pts, targets)
        for tgt, y in zip(targets, got):
            want = poly_eval(coeffs, tgt)
            rel = np.linalg.norm(y - want) / np.linalg.norm(want)
            assert rel <= 1e-8


class TestLeastSquares:
    def test_recovers_a_polynomial_of_the_fitted_degree(self):
        # a degree-4 tensor polynomial sampled at 11 scattered nodes of a
        # circle of radius 2, re-evaluated off the nodes
        rng = np.random.default_rng(7)
        coeffs = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3)) for _ in range(5)]
        xs = 2 * np.exp(-2j * np.pi * np.sort(rng.permutation(16)[:11]) / 16)
        targets = [0.0, 1.5 - 0.5j, -2j]
        got = least_squares([(x, poly_eval(coeffs, x)) for x in xs], 4, targets)
        assert got.shape == (3, 2, 3)
        for tgt, y in zip(targets, got):
            want = poly_eval(coeffs, tgt)
            assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want)

    def test_averages_out_noise_off_the_polynomial(self):
        # a line plus a degree-7 term on 8 equally spaced circle nodes: the
        # degree-7 monomial is orthogonal to 1 and x there, so the degree-1
        # fit returns the line exactly, where interpolation would not
        xs = np.exp(-2j * np.pi * np.arange(8) / 8)
        pts = [(x, np.array([3.0 - 1.0 * x + 0.5 * x**7])) for x in xs]
        [y] = least_squares(pts, 1, [0.25])
        assert abs(y[0] - (3.0 - 0.25)) <= 1e-14
        [z] = interpolate(pts, [0.25])
        assert abs(z[0] - (3.0 - 0.25)) > 1e-6

    def test_matches_interpolation_at_degree_points_minus_one(self):
        rng = np.random.default_rng(9)
        xs = np.exp(-2j * np.pi * np.arange(7) / 7)
        pts = [(x, rng.normal(size=(4,)) + 0j) for x in xs]
        targets = np.exp(-2j * np.pi * (np.arange(3) + 0.5) / 3)
        np.testing.assert_allclose(least_squares(pts, 6, targets), np.stack(interpolate(pts, targets)), atol=1e-12)

    def test_short_arc_keeps_ten_digits(self):
        # 40 consecutive nodes of 100 on the unit circle, a degree-19 fit:
        # the monomial Vandermonde is ill-conditioned there, and solving for
        # V_targets R^-1 before applying Q^H keeps the result accurate
        rng = np.random.default_rng(1)
        coeffs = [rng.normal(size=(5,)) + 1j * rng.normal(size=(5,)) for _ in range(20)]
        xs = np.exp(-2j * np.pi * np.arange(40) / 100)
        targets = np.exp(-2j * np.pi * np.arange(10) / 20)
        got = least_squares([(x, poly_eval(coeffs, x)) for x in xs], 19, targets)
        want = np.stack([poly_eval(coeffs, tgt) for tgt in targets])
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)


class TestRelativeError:
    def test_identical_is_zero(self):
        y = np.arange(6.0).reshape(2, 3)
        assert relative_error(y, y) == 0.0

    def test_unit_gap(self):
        assert relative_error(np.array([2.0]), np.array([1.0])) == pytest.approx(1.0)

    def test_small_gap(self):
        assert relative_error(np.array([1.0 + 1e-7]), np.array([1.0])) == pytest.approx(1e-7)

    def test_zero_truth_rejected(self):
        with pytest.raises(ZeroTruth):
            relative_error(np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            relative_error(np.zeros((2, 2)), np.zeros((2, 3)))
