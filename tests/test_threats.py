import numpy as np
import pytest

from svafd.filtration import build_topology, compute_cal, intimacy
from svafd.protocol import RoundConfig, run_round
from svafd.threats import (
    AttackSpec,
    KindMismatch,
    apply_attack,
    inject_tamper,
    poison_provider,
    poison_samples,
    score_filtration,
)
from svafd.workload import dirichlet_population, gen_logits, workload_provider


class TestApplyAttack:
    def test_scale_factor_one_is_identity(self):
        logits = np.arange(9.0).reshape(3, 3)
        out = apply_attack(AttackSpec("scale", {"factor": 1.0}), logits, "class")
        np.testing.assert_array_equal(out, logits)

    def test_label_flip_identity_permutation(self):
        logits = np.arange(9.0).reshape(3, 3)
        out = apply_attack(AttackSpec("label_flip"), logits, "class")
        np.testing.assert_array_equal(out, logits)

    def test_label_flip_swaps_class_rows(self):
        spec = AttackSpec("label_flip", {"permutation": [1, 0, 2]})
        out = apply_attack(spec, np.eye(3), "class")
        np.testing.assert_array_equal(out, np.eye(3)[[1, 0, 2]])

    def test_label_flip_on_sample_rows_moves_columns(self):
        spec = AttackSpec("label_flip", {"permutation": [1, 0]})
        logits = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        out = apply_attack(spec, logits, "sample")
        np.testing.assert_array_equal(out, logits[:, [1, 0]])

    def test_random_logits_stay_in_honest_range(self):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-4.0, 9.0, (6, 6))
        out = apply_attack(AttackSpec("random_logits"), logits, "class", rng=rng)
        assert out.min() >= logits.min() and out.max() <= logits.max()
        assert not np.allclose(out, logits)

    def test_tamper_kind_rejected_client_side(self):
        with pytest.raises(KindMismatch):
            apply_attack(AttackSpec("server_tamper"), np.eye(2), "class")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            AttackSpec("fry_the_server")

    def test_flip_relabels_samples(self):
        samples = [(1, np.array([1.0, 0.0])), (2, np.array([0.0, 1.0]))]
        out = poison_samples(AttackSpec("label_flip", {"permutation": [1, 0]}), samples)
        assert [y for y, _ in out] == [2, 1]

    @pytest.mark.parametrize("permutation", [[1, 2, 3, 0], [3, 2, 1, 0]])
    def test_flip_fingerprint_matches_flipped_matrix(self, permutation):
        # class c is reported as class perm[c] in the samples and the matrix alike
        profile = dirichlet_population(1, 4, 1.0, [1, 7], samples=200)[0]
        samples, matrix = gen_logits(profile, seed=[1, 8, 0])
        spec = AttackSpec("label_flip", {"permutation": permutation})
        flipped = compute_cal(poison_samples(spec, samples)).per_class_mean_logits
        np.testing.assert_array_equal(flipped, apply_attack(spec, matrix, "class"))
        np.testing.assert_array_equal(flipped[permutation], matrix)

    def test_sample_grain_flip_moves_columns_of_a_square_pool(self):
        # omega * k == d: the rows are still samples, so the class columns move
        spec = AttackSpec("label_flip", {"permutation": [1, 2, 0]})
        logits = np.arange(9.0).reshape(3, 3)
        np.testing.assert_array_equal(apply_attack(spec, logits, "sample")[:, [1, 2, 0]], logits)
        np.testing.assert_array_equal(apply_attack(spec, logits, "class")[[1, 2, 0]], logits)


def tamper_round(kind, delta, leader=0, entry=(0, 0), **cfg_overrides):
    base = dict(n=6, r=5, k=2, t=1, q=3, d=6, grain="class", seed=2, backend="mock")
    base.update(cfg_overrides)
    cfg = RoundConfig(**base)
    provider = workload_provider(cfg, alpha=1.0, samples=150)
    tamper = inject_tamper(AttackSpec(kind, {"delta": delta, "entry": entry}), leader=leader)
    return run_round(cfg, provider, tamper=tamper)


class TestTamperInjection:
    def test_server_tamper_minimal_delta_rejects_only_target(self):
        transcript = tamper_round("server_tamper", delta=10.0**-3, leader=2)
        for leader, res in transcript.group_results.items():
            assert res.verdict == ("reject" if leader == 2 else "accept")

    def test_weight_tamper_minimal_unit_rejects(self):
        transcript = tamper_round("weight_tamper", delta=10.0**-3, leader=0)
        verdicts = {l: r.verdict for l, r in transcript.group_results.items()}
        assert verdicts[0] == "reject"
        assert all(v == "accept" for l, v in verdicts.items() if l != 0)

    def test_share_tamper_rejects(self):
        transcript = tamper_round("share_tamper", delta=10.0**-3, leader=1)
        verdicts = {l: r.verdict for l, r in transcript.group_results.items()}
        assert verdicts[1] == "reject"
        assert all(v == "accept" for l, v in verdicts.items() if l != 1)

    def test_share_tamper_zero_delta_is_noop(self):
        transcript = tamper_round("share_tamper", delta=0.0, leader=1)
        assert all(r.verdict == "accept" for r in transcript.group_results.values())

    def test_inject_requires_tamper_kind(self):
        with pytest.raises(KindMismatch):
            inject_tamper(AttackSpec("scale"), leader=0)

    def test_share_tamper_on_own_share_refused(self):
        # a member's share to itself stays local, so no tamper can reach it
        with pytest.raises(ValueError, match="never crosses the bus"):
            inject_tamper(AttackSpec("share_tamper", {"sender": 3, "member": 3}), leader=0)
        with pytest.raises(ValueError):
            inject_tamper(AttackSpec("share_tamper"), leader=0, member=2, sender=2)
        assert inject_tamper(AttackSpec("weight_tamper"), leader=0, member=2, sender=2).member == 2


class TestScoreFiltration:
    def test_no_poisoners_full_score(self):
        topo = build_topology({0: [1, 2], 1: [0, 2], 2: [0, 1]})
        m = score_filtration(topo, poisoner_ids=set())
        assert m.benign_fraction_selected == 1.0
        assert m.poisoner_selection_rate == 0.0

    def test_all_poisoners_undefined(self):
        topo = build_topology({0: [1], 1: [0]})
        m = score_filtration(topo, poisoner_ids={0, 1})
        assert m.benign_fraction_selected is None

    def test_counts_only_benign_led_groups(self):
        topo = build_topology({0: [1, 3], 9: [3, 1]})
        m = score_filtration(topo, poisoner_ids={9, 3})
        # only group 0 counts: members 1 (benign) and 3 (poisoner)
        assert m.benign_fraction_selected == 0.5
        assert m.poisoner_selection_rate == 0.5


from helpers import build_attacked_topology


class TestFiltrationQuality:
    def test_poisoner_cosine_separation_margin(self):
        topo, poisoners, hashed = build_attacked_topology(n=50, frac=0.4, r=5, seed=3)
        benign = [c for c in range(50) if c not in poisoners]
        bb, pb = [], []
        for i, a in enumerate(benign):
            for b in benign[i + 1:]:
                bb.append(intimacy(hashed[a], hashed[b]))
        for p in poisoners:
            for b in benign:
                pb.append(intimacy(hashed[p], hashed[b]))
        assert len(bb) + len(pb) >= 1000
        assert np.mean(bb) - np.mean(pb) >= 0.1

    def test_random_poisoners_mostly_filtered(self):
        topo, poisoners, _ = build_attacked_topology(n=60, frac=0.4, r=6, seed=4)
        m = score_filtration(topo, poisoners)
        assert m.benign_fraction_selected >= 0.85


class TestPoisonProvider:
    def test_colluding_copies_share_one_matrix(self):
        cfg = RoundConfig(n=5, r=3, k=1, t=1, d=5, grain="class", seed=6)
        base = workload_provider(cfg, alpha=1.0, samples=100)
        victims = frozenset({1, 3})
        spec = AttackSpec("colluding_copy", victims=victims)
        wrapped = poison_provider(base, {v: spec for v in victims}, "class", seed=6)
        _, m1 = wrapped(1)
        _, m3 = wrapped(3)
        np.testing.assert_array_equal(m1, m3)
        _, honest = wrapped(0)
        assert not np.array_equal(honest, m1)

    def test_sample_grain_flip_moves_pool_columns(self):
        # a 6-row pool of 6 classes (omega * k == d) keeps its rows in place
        cfg = RoundConfig(n=4, r=2, k=2, t=1, d=6, omega=3, grain="sample", seed=7)
        base = workload_provider(cfg, alpha=1.0, samples=100)
        perm = [1, 2, 3, 4, 5, 0]
        wrapped = poison_provider(base, {2: AttackSpec("label_flip", {"permutation": perm})}, cfg.grain, seed=7)
        _, honest = base(2)
        _, flipped = wrapped(2)
        assert honest.shape == (6, 6)
        np.testing.assert_array_equal(flipped[:, perm], honest)

    def test_scale_attack_changes_matrix_and_samples(self):
        cfg = RoundConfig(n=4, r=2, k=1, t=1, d=5, grain="class", seed=7)
        base = workload_provider(cfg, alpha=1.0, samples=100)
        spec = AttackSpec("scale", {"factor": -2.0}, victims=frozenset({2}))
        wrapped = poison_provider(base, {2: spec}, "class", seed=7)
        samples_honest, matrix_honest = base(2)
        samples_bad, matrix_bad = wrapped(2)
        np.testing.assert_allclose(matrix_bad, -2.0 * matrix_honest)
        np.testing.assert_allclose(samples_bad[0][1], -2.0 * samples_honest[0][1])
