import numpy as np
import pytest

from svafd.filtration import (
    EmptyDataset,
    HashedCal,
    LshConfig,
    RTooLarge,
    build_topology,
    compute_cal,
    intimacy,
    intimacy_list,
    intimacy_matrix,
    lsh_project,
    projection_matrix,
    select_group,
)
from svafd.workload import dirichlet_population, gen_logits


class TestComputeCal:
    def test_mean_of_two_vectors(self):
        cal = compute_cal([(1, [1.0, 0.0]), (1, [3.0, 0.0])])
        np.testing.assert_array_equal(cal.per_class_mean_logits, [[2.0, 0.0], [0.0, 0.0]])
        assert list(cal.class_counts) == [2, 0]
        assert list(cal.present) == [True, False]

    def test_single_sample_per_class(self):
        cal = compute_cal([(1, [1.0, 0.0]), (2, [0.0, 1.0])])
        np.testing.assert_array_equal(cal.per_class_mean_logits, np.eye(2))

    def test_matches_bruteforce_means(self):
        rng = np.random.default_rng(0)
        d = 10
        samples = [(int(rng.integers(1, d + 1)), rng.normal(size=d)) for _ in range(1000)]
        cal = compute_cal(samples)
        for label in range(1, d + 1):
            rows = [r for (y, r) in samples if y == label]
            want = np.mean(rows, axis=0) if rows else np.zeros(d)
            np.testing.assert_allclose(cal.per_class_mean_logits[label - 1], want, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(EmptyDataset):
            compute_cal([])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            compute_cal([(0, [1.0, 2.0])])

    @staticmethod
    def loop_cal(items):
        """Per-sample reference: the rows of each class added in sample order."""
        d = len(items[0][1])
        sums, counts = np.zeros((d, d)), np.zeros(d, dtype=np.int64)
        for label, row in items:
            sums[label - 1] += np.asarray(row, dtype=float)
            counts[label - 1] += 1
        return np.divide(sums, counts[:, None], out=np.zeros_like(sums), where=counts[:, None] > 0), counts

    @pytest.mark.parametrize("case", ["skewed", "absent_class", "single_sample"])
    def test_bytes_match_per_sample_loop(self, case):
        d = 10
        if case == "single_sample":
            samples = [(3, np.random.default_rng(5).normal(size=d) * 1e3)]
        else:
            [profile] = dirichlet_population(1, d, 0.1, [9, 7], samples=400)
            samples, _ = gen_logits(profile, seed=[9, 8])
            if case == "absent_class":
                samples = [(y, row) for y, row in samples if y != 4]
        means, counts = self.loop_cal(samples)
        cal = compute_cal(samples)
        assert cal.per_class_mean_logits.tobytes() == means.tobytes()
        assert cal.class_counts.dtype == counts.dtype and list(cal.class_counts) == list(counts)
        if case == "absent_class":
            assert counts[3] == 0 and not cal.present[3]


class TestLshProject:
    CFG = LshConfig(projection_seed=42, p=8)

    def test_projection_drawn_once_per_config_and_read_only(self):
        m = projection_matrix(5, LshConfig(projection_seed=42, p=8))
        assert projection_matrix(5, self.CFG) is m
        assert m.tobytes() == np.random.default_rng(42).standard_normal((5, 8)).tobytes()
        with pytest.raises(ValueError):
            m[0, 0] = 1.0

    def test_zero_cal_projects_to_zero(self):
        cal = compute_cal([(1, [0.0, 0.0])])
        h = lsh_project(cal, self.CFG)
        np.testing.assert_array_equal(h.matrix, np.zeros((2, 8)))

    def test_deterministic(self):
        cal = compute_cal([(1, [1.0, 2.0]), (2, [0.5, -1.0])])
        h1 = lsh_project(cal, self.CFG)
        h2 = lsh_project(cal, self.CFG)
        np.testing.assert_array_equal(h1.matrix, h2.matrix)

    def test_projection_is_linear_in_scale(self):
        base = [(1, [1.0, 2.0]), (2, [0.5, -1.0])]
        scaled = [(y, [3.0 * v for v in row]) for y, row in base]
        h1 = lsh_project(compute_cal(base), self.CFG)
        h2 = lsh_project(compute_cal(scaled), self.CFG)
        assert intimacy(h1, h2) == pytest.approx(1.0)

    def test_shape(self):
        cal = compute_cal([(1, [1.0, 0.0, 0.0]), (2, [0.0, 1.0, 0.0]), (3, [0.0, 0.0, 1.0])])
        assert lsh_project(cal, LshConfig(0, p=5)).matrix.shape == (3, 5)


class TestIntimacy:
    def test_self_similarity(self):
        v = np.array([1.0, 2.0, -0.5])
        assert intimacy(v, v) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert intimacy(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)

    def test_antipodal(self):
        v = np.array([0.3, -2.0])
        assert intimacy(v, -v) == pytest.approx(-1.0)

    def test_both_zero_is_zero(self):
        assert intimacy(np.zeros(4), np.zeros(4)) == 0.0

    def test_absent_rows_masked_on_both_sides(self):
        h1 = HashedCal(matrix=np.array([[1.0, 0.0], [5.0, 5.0]]), present=np.array([True, False]))
        h2 = HashedCal(matrix=np.array([[1.0, 0.0], [-9.0, 2.0]]), present=np.array([True, True]))
        assert intimacy(h1, h2) == pytest.approx(1.0)

    def test_random_projection_preserves_cosine(self):
        # empirical distortion bound for unit vectors at p >= 64
        rng = np.random.default_rng(2024)
        d, p, trials = 12, 64, 1000
        hits = 0
        for _ in range(trials):
            m = rng.standard_normal((d, p))
            u = rng.normal(size=d)
            v = rng.normal(size=d)
            exact = u @ v / (np.linalg.norm(u) * np.linalg.norm(v))
            hashed = intimacy(u @ m, v @ m)
            hits += abs(hashed - exact) <= 0.25
        assert hits / trials >= 0.95


class TestSelectGroup:
    def test_top_two(self):
        assert select_group(0, np.array([1.0, 0.9, 0.1, 0.8]), 2) == [1, 3]

    def test_ties_break_by_ascending_id(self):
        assert select_group(2, np.array([0.5, 0.5, 1.0, 0.5, 0.5]), 2) == [0, 1]

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(-1, 1, size=100)
        got = select_group(17, scores, 30)
        oracle = sorted((i for i in range(100) if i != 17), key=lambda i: (-scores[i], i))[:30]
        assert got == oracle

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sort_oracle_with_ties_and_signed_zeros(self, seed):
        # scores drawn from a few values, so most candidates tie; 0.0 and
        # -0.0 compare equal and must tie too, broken by ascending id
        rng = np.random.default_rng(seed)
        n = 200
        scores = rng.choice([0.75, 0.5, 0.0, -0.0, -0.5, 1.0], size=n)
        scores[rng.choice(n, 20, replace=False)] = rng.uniform(-1, 1, 20)
        owner = n // 2
        for r in (0, 1, 10, n // 2, n - 1):
            got = select_group(owner, scores, r)
            oracle = sorted((i for i in range(n) if i != owner), key=lambda i: (-scores[i], i))[:r]
            assert got == oracle
            assert all(type(i) is int for i in got)
        assert sorted(select_group(owner, scores, n - 1)) == [
            i for i in range(n) if i != owner
        ]

    def test_invariant_under_positive_rescale(self):
        rng = np.random.default_rng(9)
        scores = rng.uniform(0.01, 1, size=20)
        a = select_group(3, scores, 7)
        b = select_group(3, scores * 37.5, 7)
        assert a == b

    def test_r_too_large(self):
        with pytest.raises(RTooLarge):
            select_group(0, np.zeros(4), 4)


class TestTopology:
    def test_single_group_clique(self):
        topo = build_topology({1: [2, 3]})
        assert topo.edges == frozenset({(1, 2), (1, 3), (2, 3)})
        assert topo.nodes == frozenset({1, 2, 3})

    def test_disjoint_groups(self):
        topo = build_topology({0: [1], 2: [3]})
        assert topo.edges == frozenset({(0, 1), (2, 3)})

    def test_overlapping_groups_union_without_duplicates(self):
        groups = {0: [1, 2], 1: [2, 3], 3: [0]}
        topo = build_topology(groups)
        oracle = set()
        for leader, members in groups.items():
            clique = [leader] + members
            for i, a in enumerate(clique):
                for b in clique[i + 1:]:
                    oracle.add((min(a, b), max(a, b)))
        assert topo.edges == frozenset(oracle)

    def test_leader_in_own_group_rejected(self):
        with pytest.raises(ValueError):
            build_topology({1: [1, 2]})


def test_intimacy_list_excludes_owner_via_selection():
    cfg = LshConfig(projection_seed=5, p=4)
    cals = {
        0: compute_cal([(1, [1.0, 0.0]), (2, [0.0, 1.0])]),
        1: compute_cal([(1, [1.0, 0.1]), (2, [0.0, 1.0])]),
        2: compute_cal([(1, [-1.0, 0.5]), (2, [1.0, -1.0])]),
    }
    hashed = {cid: lsh_project(c, cfg) for cid, c in cals.items()}
    scores = intimacy_list(0, hashed)
    assert scores[0] == 1.0
    assert select_group(0, scores, 1) == [1]


def mixed_fingerprints(seed, n=24, d=6, p=5):
    """Hashed fingerprints with absent class rows (carrying nonzero values
    the mask must drop), an all-zero fingerprint, a client with no class
    present, and exact duplicates of client 1 at ids 5 and 9."""
    rng = np.random.default_rng(seed)
    hashed = {}
    for cid in range(n):
        present = rng.random(d) < 0.7
        hashed[cid] = HashedCal(matrix=rng.standard_normal((d, p)), present=present)
    hashed[3] = HashedCal(matrix=np.zeros((d, p)), present=np.ones(d, dtype=bool))
    hashed[4] = HashedCal(matrix=rng.standard_normal((d, p)), present=np.zeros(d, dtype=bool))
    for dup in (5, 9):
        hashed[dup] = HashedCal(matrix=hashed[1].matrix.copy(), present=hashed[1].present.copy())
    return hashed


class TestIntimacyMatrix:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rows_match_pairwise_intimacy(self, seed):
        hashed = mixed_fingerprints(seed)
        scores = intimacy_matrix(hashed)
        for i in hashed:
            for j in hashed:
                want = 1.0 if i == j else intimacy(hashed[i], hashed[j])
                assert abs(scores[i, j] - want) <= 1e-12, (i, j)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_selected_groups_match_intimacy_list(self, seed):
        hashed = mixed_fingerprints(seed)
        scores = intimacy_matrix(hashed)
        for r in (1, 4, 10, len(hashed) - 1):
            for cid in hashed:
                got = select_group(cid, scores[cid], r)
                assert got == select_group(cid, intimacy_list(cid, hashed), r)

    def test_degenerate_fingerprints_score_zero(self):
        scores = intimacy_matrix(mixed_fingerprints(0))
        for degenerate in (3, 4):  # all-zero values, no class present
            others = [j for j in range(len(scores)) if j != degenerate]
            assert np.all(scores[degenerate, others] == 0.0)
            assert np.all(scores[others, degenerate] == 0.0)
            assert scores[degenerate, degenerate] == 1.0

    def test_duplicate_fingerprints_tie_exactly_and_break_by_id(self):
        hashed = mixed_fingerprints(1)
        scores = intimacy_matrix(hashed)
        for owner in hashed:
            if owner not in (1, 5, 9):
                assert scores[owner, 1] == scores[owner, 5] == scores[owner, 9]
        # an owner sharing the duplicates' fingerprint ranks its twins first,
        # in ascending id order
        assert select_group(5, scores[5], 2) == [1, 9]
        assert select_group(1, scores[1], 2) == [5, 9]

    def test_missing_ids_score_zero(self):
        hashed = {cid: h for cid, h in mixed_fingerprints(2, n=12).items() if cid != 6}
        scores = intimacy_matrix(hashed)
        assert scores.shape == (12, 12)
        np.testing.assert_array_equal(scores[:, 6], 0.0)
        np.testing.assert_allclose(scores[0], intimacy_list(0, hashed), rtol=0, atol=1e-12)
