import numpy as np
import pytest

from svafd.coding import (
    apply_poly,
    blind,
    decode,
    deblind_and_join,
    encode,
    local_aggregate,
    make_group_plan,
    monomial,
    quantize,
    split,
)
from svafd.sigcrypto import (
    AuxProofs,
    IncompleteAux,
    MockBackend,
    Overflow,
    PrivateKey,
    Proof,
    aggregate_proof,
    conv,
    digest,
    gen_key,
    get_backend,
    quantize_weight,
    sign_logits,
    sign_weights,
    verify,
)

MOCK = MockBackend()


class TestConv:
    def test_positive(self):
        assert conv(1.2345, 3) == 1234

    def test_zero(self):
        for q in (0, 3, 6):
            assert conv(0.0, q) == 0

    def test_negative_floors_down(self):
        assert conv(-1.2345, 3) == -1235

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            conv(1e60, 3)


class TestQuantizeWeight:
    def test_grid_weights_round_to_nearest(self):
        # floor(w * 10^q) loses a unit where the float lands just below the
        # grid point (0.29 * 100 = 28.999...)
        for q in (0, 1, 2, 3, 4, 6):
            for i in range(0, min(10**q, 10**4) + 1):
                assert quantize_weight(i / 10**q, q) == i, (q, i)

    def test_overflow_guard(self):
        with pytest.raises(Overflow):
            quantize_weight(1e60, 3)


class TestDigest:
    def test_small_slice(self):
        b = split(np.array([[1.0, 2.0], [3.0, 4.0]]), 1, "class")
        assert digest(b) == [10.0]

    def test_zero_slice(self):
        b = split(np.zeros((3, 3)), 1, "class")
        assert digest(b) == [0.0]

    def test_matches_double_loop_oracle(self):
        # summation order differs between numpy and the loop, so raw floats
        # agree to ulps; the integer exponents they induce must agree exactly
        rng = np.random.default_rng(0)
        logits = quantize(rng.uniform(-5, 5, (8, 8)), 3)
        b = split(logits, 2, "class", rng=rng, quantize_digits=3)
        got = digest(b)
        for slot in range(2):
            want = 0.0
            for g in range(8):
                for l in range(8):
                    want += b.slices[slot][g, l]
            assert abs(got[slot] - want) < 1e-9
            assert round(got[slot] * 1000) == round(want * 1000)


class TestSignLogits:
    def test_zero_digest(self):
        sigs = sign_logits([0.0], PrivateKey(5), 0, MOCK)
        assert sigs == [5]

    def test_two_slices_and_product(self):
        sigs = sign_logits([3.0, 4.0], PrivateKey(1), 0, MOCK)
        assert sigs == [4, 5]
        assert MOCK.g_mul(sigs[0], sigs[1]) == 9

    def test_exponent_bookkeeping_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = float(rng.integers(-500, 500))
            ups = int(rng.integers(1, MOCK.order))
            [sig] = sign_logits([v], PrivateKey(ups), 0, MOCK)
            assert sig == (int(v) + ups) % MOCK.order

    def test_grid_digests_scale_exactly(self):
        # digests of q-quantized slices land on integers at scale 10^q
        rng = np.random.default_rng(2)
        logits = quantize(rng.uniform(-10, 10, (6, 6)), 3)
        b = split(logits, 3, "class", rng=rng, quantize_digits=3)
        sigs = sign_logits(digest(b), PrivateKey(0), 3, MOCK)
        direct = [int(np.round(s * 1000).sum()) % MOCK.order for s in b.slices]
        assert sigs == direct


class TestAggregateProof:
    def test_single_member_hand_value(self):
        aux = AuxProofs(
            logits_sigs={7: tuple(sign_logits([2.0], PrivateKey(3), 0, MOCK))},
            weight_sigs={7: MOCK.g_pow(4)},
        )
        proof = aggregate_proof(aux, MOCK)
        assert proof.pi_c == MOCK.gt_pow(20)  # 4 * (2 + 3)

    def test_zero_weight_contributes_identity(self):
        aux = AuxProofs(
            logits_sigs={0: tuple(sign_logits([11.0], PrivateKey(13), 0, MOCK))},
            weight_sigs={0: MOCK.g_pow(0)},
        )
        assert aggregate_proof(aux, MOCK).pi_c == MOCK.gt_identity

    def test_closed_form_exponent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k, r = 2, 3
            vs = {z: [float(rng.integers(-50, 50)) for _ in range(k)] for z in range(r)}
            ups = {z: int(rng.integers(1, 10**6)) for z in range(r)}
            ws = {z: int(rng.integers(0, 1000)) for z in range(r)}
            aux = AuxProofs(
                logits_sigs={z: tuple(sign_logits(vs[z], PrivateKey(ups[z]), 0, MOCK)) for z in range(r)},
                weight_sigs={z: MOCK.g_pow(ws[z]) for z in range(r)},
            )
            want = sum(ws[z] * (sum(int(v) for v in vs[z]) + k * ups[z]) for z in range(r))
            assert aggregate_proof(aux, MOCK).pi_c == want % MOCK.order

    def test_incomplete_material_rejected(self):
        aux = AuxProofs(logits_sigs={0: (1,)}, weight_sigs={})
        with pytest.raises(IncompleteAux):
            aggregate_proof(aux, MOCK)


# shared weight signatures (0.25 twice, 0.125 twice) and distinct ones,
# including a zero weight, whose signature is the identity
FOLD_WEIGHTS = [0.25, 0.25, 0.125, 0.375, 0.125, 0.0]


class CountingMock(MockBackend):
    def __init__(self):
        super().__init__()
        self.pairings = 0

    def pair(self, x, y):
        self.pairings += 1
        return super().pair(x, y)


def fold_material(backend, seed=11, k=2):
    rng = np.random.default_rng(seed)
    wq = [quantize_weight(w, 3) for w in FOLD_WEIGHTS]
    weight_sigs = dict(enumerate(sign_weights(wq, backend)))
    logits_sigs = {
        z: tuple(sign_logits([float(rng.integers(-50, 50)) for _ in range(k)], gen_key(backend, rng), 0, backend))
        for z in range(len(wq))
    }
    # an identity slice signature (digest + key = 0 mod the order)
    logits_sigs[1] = (backend.g_pow(0),) + logits_sigs[1][1:]
    return AuxProofs(logits_sigs=logits_sigs, weight_sigs=weight_sigs)


class TestProofFolding:
    @pytest.mark.parametrize("name", ["mock", "pairing"])
    def test_folded_proof_equals_per_member_product(self, name):
        backend = get_backend(name)
        aux = fold_material(backend)
        want = backend.gt_identity
        for z in sorted(aux.logits_sigs):
            combined = aux.logits_sigs[z][0]
            for s in aux.logits_sigs[z][1:]:
                combined = backend.g_mul(combined, s)
            want = backend.gt_mul(want, backend.pair(combined, aux.weight_sigs[z]))
        assert aggregate_proof(aux, backend).pi_c == want

    def test_identity_slice_signature_alone(self):
        backend = get_backend("pairing")
        aux = AuxProofs(logits_sigs={0: (None, None)}, weight_sigs={0: backend.g_pow(5)})
        assert aggregate_proof(aux, backend).pi_c == backend.gt_identity

    def test_one_pairing_per_weight_signature(self):
        backend = CountingMock()
        aggregate_proof(fold_material(backend), backend)
        assert backend.pairings == len(set(FOLD_WEIGHTS))

    @pytest.mark.parametrize("name", ["mock", "pairing"])
    def test_verify_accepts_folded_nonuniform_proof(self, name):
        backend = get_backend(name)
        proof, teacher, wq, keys, k, q = honest_group_run(
            seed=9, r=6, k=2, t=1, backend=backend, weights=FOLD_WEIGHTS
        )
        assert verify(proof, teacher, wq, keys, k, q, backend).accepted
        teacher = teacher.copy()
        teacher[0, 0] += 10.0**-q
        assert not verify(proof, teacher, wq, keys, k, q, backend).accepted


def honest_group_run(seed, r, k, t, grain="class", d=5, omega=4, q=3, backend=MOCK, sigma=50.0, weights=None):
    """Full pipeline incl. signatures; returns everything verify needs."""
    rng = np.random.default_rng(seed)
    shape = (d, d) if grain == "class" else (omega, d)
    plan = make_group_plan(0, list(range(r)), k, t, shape, rng, q=q, weights=weights)
    f = monomial(1)
    bundles, keys, logits_sigs = {}, {}, {}
    for z in range(r):
        rows = omega * k if grain == "sample" else d
        logits = quantize(rng.uniform(-8, 8, (rows, d)), q)
        bundles[z] = blind(split(logits, k, grain, rng=rng, quantize_digits=q), t, sigma, 6.0, rng)
        keys[z] = gen_key(backend, rng)
        logits_sigs[z] = tuple(sign_logits(digest(bundles[z]), keys[z], q, backend))
    wq = [quantize_weight(w, q) for w in plan.weights]
    weight_sigs = dict(zip(range(r), sign_weights(wq, backend)))
    inbox = {x: [] for x in range(r)}
    for z in range(r):
        for sh in encode(bundles[z], plan, sender=z):
            inbox[sh.receiver].append(sh)
    view = {z: plan.blinded_weights[z] for z in range(r)}
    aggs = [(x, local_aggregate(inbox[x], view, f, holder=x)) for x in range(r)]
    decoded = decode(aggs, plan.nodes, k, t, 1)
    teacher = deblind_and_join(decoded, plan.blind_factor, grain)
    proof = aggregate_proof(AuxProofs(logits_sigs=logits_sigs, weight_sigs=weight_sigs), backend)
    key_list = [keys[z] for z in range(r)]
    return proof, teacher, wq, key_list, k, q


class TestVerify:
    def test_honest_run_accepts(self):
        proof, teacher, wq, keys, k, q = honest_group_run(seed=0, r=3, k=2, t=1)
        verdict = verify(proof, teacher, wq, keys, k, q, MOCK)
        assert verdict.accepted
        assert not verdict.margin_warning

    def test_tampered_teacher_entry_rejects(self):
        proof, teacher, wq, keys, k, q = honest_group_run(seed=1, r=3, k=2, t=1)
        teacher = teacher.copy()
        teacher[0, 0] += 10.0**-q
        verdict = verify(proof, teacher, wq, keys, k, q, MOCK)
        assert not verdict.accepted

    def test_tampered_weight_rejects(self):
        proof, teacher, wq, keys, k, q = honest_group_run(seed=2, r=3, k=2, t=1)
        wq = list(wq)
        wq[1] += 1
        verdict = verify(proof, teacher, wq, keys, k, q, MOCK)
        assert not verdict.accepted

    def test_probe_reports_nearby_exponent(self):
        proof, teacher, wq, keys, k, q = honest_group_run(seed=3, r=3, k=1, t=1)
        shifted = Proof(pi_c=MOCK.gt_pow(verify(proof, teacher, wq, keys, k, q, MOCK).expected_exponent + 2))
        verdict = verify(shifted, teacher, wq, keys, k, q, MOCK)
        assert not verdict.accepted
        assert verdict.probe_distance == 2

    def test_margin_warning_fires_for_thin_margins(self):
        proof, teacher, wq, keys, k, q = honest_group_run(seed=4, r=3, k=1, t=0)
        with pytest.warns(RuntimeWarning):
            verify(proof, teacher, wq, keys, k, q, MOCK, re_bound=1e-2)

    def test_single_unit_digest_perturbation_flips_outcome(self):
        # soundness at the integer scale: the smallest representable lie is caught
        proof, teacher, wq, keys, k, q = honest_group_run(seed=5, r=4, k=2, t=1)
        assert verify(proof, teacher, wq, keys, k, q, MOCK).accepted
        bumped = Proof(pi_c=MOCK.gt_mul(proof.pi_c, MOCK.gt_pow(1)))
        assert not verify(bumped, teacher, wq, keys, k, q, MOCK).accepted


class TestBackends:
    def test_mock_bilinearity(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = int(rng.integers(1, MOCK.order))
            b = int(rng.integers(1, MOCK.order))
            assert MOCK.pair(MOCK.g_pow(a), MOCK.g_pow(b)) == MOCK.gt_pow(a * b)

    def test_mock_nondegenerate(self):
        assert MOCK.pair(MOCK.g_pow(1), MOCK.g_pow(1)) != MOCK.gt_identity

    def test_get_backend(self):
        assert get_backend("mock").name == "mock"
        with pytest.raises(ValueError):
            get_backend("nope")

    def test_honest_and_tampered_on_pairing_backend(self):
        backend = get_backend("pairing")
        proof, teacher, wq, keys, k, q = honest_group_run(seed=8, r=3, k=2, t=1, backend=backend)
        assert verify(proof, teacher, wq, keys, k, q, backend).accepted
        teacher = teacher.copy()
        teacher[0, 0] += 10.0**-q
        assert not verify(proof, teacher, wq, keys, k, q, backend).accepted
