import math

import numpy as np
import pytest

from helpers import exchanged_group, messages_of
from svafd.coding import quantize, split
from svafd.protocol import DECODED_RESULT, RoundConfig, _conclude
from svafd.sigcrypto import (
    _INT_GUARD,
    IncompleteAux,
    MockBackend,
    Overflow,
    aggregate_proof,
    digest,
    gen_key,
    get_backend,
    quantize_weight,
    sign_logits,
    sign_weights,
    verify,
)

MOCK = MockBackend()


def conv(x: float, q: int) -> int:
    """Precision conversion by floor: floor(x * 10^q) as an exact integer."""
    scaled = x * 10.0**q
    if abs(scaled) >= _INT_GUARD:
        raise Overflow(f"|{x}| * 10^{q} exceeds the integer guard")
    return math.floor(scaled)


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
        sigs = sign_logits([0.0], 5, 0, MOCK)
        assert sigs == [5]

    def test_two_slices_and_product(self):
        sigs = sign_logits([3.0, 4.0], 1, 0, MOCK)
        assert sigs == [4, 5]
        assert MOCK.g_mul(sigs[0], sigs[1]) == 9

    def test_exponent_bookkeeping_random(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            v = float(rng.integers(-500, 500))
            ups = int(rng.integers(1, MOCK.order))
            [sig] = sign_logits([v], ups, 0, MOCK)
            assert sig == (int(v) + ups) % MOCK.order

    def test_grid_digests_scale_exactly(self):
        # digests of q-quantized slices land on integers at scale 10^q
        rng = np.random.default_rng(2)
        logits = quantize(rng.uniform(-10, 10, (6, 6)), 3)
        b = split(logits, 3, "class", rng=rng, quantize_digits=3)
        sigs = sign_logits(digest(b), 0, 3, MOCK)
        direct = [int(np.round(s * 1000).sum()) % MOCK.order for s in b.slices]
        assert sigs == direct


class TestMockGroupOps:
    def test_pow_offsets_match_per_offset_powers(self):
        rng = np.random.default_rng(12)
        for base in [int(b) for b in rng.integers(0, MOCK.order, 4)] + [0, MOCK.order - 1]:
            offsets = [int(o) for o in rng.integers(-(2**62), 2**62, 6)]
            offsets += [0, -base, base, MOCK.order - base, 2**62, -(2**62)]
            got = MOCK.g_pow_offsets(base, offsets)
            assert got == [MOCK.g_pow((base + o) % MOCK.order) for o in offsets]
        assert MOCK.g_pow_offsets(7, [-7]) == [MOCK.g_pow(0)]
        assert MOCK.g_pow_offsets(7, []) == []

    def test_product_matches_addition_chain(self):
        p = MOCK.g_pow(2**60 + 3)
        inverse = MOCK.g_pow(-(2**60 + 3))
        for elements in ([], [p], [p, inverse], [p, p], [p, 0, inverse, 5], [p] * 9):
            want = 0
            for e in elements:
                want = MOCK.g_mul(want, e)
            assert MOCK.g_prod(elements) == want, elements


class TestSignLogitsCost:
    @pytest.mark.parametrize("name", ["mock", "pairing"])
    def test_one_full_width_power_per_signer(self, name, monkeypatch):
        backend = get_backend(name)
        calls = []
        full_width = type(backend).g_pow
        monkeypatch.setattr(type(backend), "g_pow", lambda self, a: calls.append(a) or full_width(self, a))
        for k in (1, 3, 40):
            calls.clear()
            sigs = sign_logits([float(v) for v in range(-k, k, 2)], 41, 0, backend)
            assert len(sigs) == k
            assert calls == [41]


class TestSignWeightsCost:
    @pytest.mark.parametrize("name", ["mock", "pairing"])
    @pytest.mark.parametrize(
        "weights, powers",
        [([250] * 4, [250]), ([250, 125, 250, 0, 125, -375], [250, 125, 0, -375]), ([7], [7])],
    )
    def test_one_power_per_distinct_weight(self, name, weights, powers, monkeypatch):
        backend = get_backend(name)
        want = [backend.g_pow(w % backend.order) for w in weights]
        calls = []
        full_width = type(backend).g_pow
        monkeypatch.setattr(type(backend), "g_pow", lambda self, a: calls.append(a) or full_width(self, a))
        assert sign_weights(weights, backend) == want
        assert calls == [w % backend.order for w in powers]


class TestAggregateProof:
    def test_single_member_hand_value(self):
        proof = aggregate_proof({7: tuple(sign_logits([2.0], 3, 0, MOCK))}, {7: MOCK.g_pow(4)}, MOCK)
        assert proof == MOCK.gt_pow(20)  # 4 * (2 + 3)

    def test_zero_weight_contributes_identity(self):
        proof = aggregate_proof({0: tuple(sign_logits([11.0], 13, 0, MOCK))}, {0: MOCK.g_pow(0)}, MOCK)
        assert proof == MOCK.gt_identity

    def test_closed_form_exponent(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            k, r = 2, 3
            vs = {z: [float(rng.integers(-50, 50)) for _ in range(k)] for z in range(r)}
            ups = {z: int(rng.integers(1, 10**6)) for z in range(r)}
            ws = {z: int(rng.integers(0, 1000)) for z in range(r)}
            logits_sigs = {z: tuple(sign_logits(vs[z], ups[z], 0, MOCK)) for z in range(r)}
            weight_sigs = {z: MOCK.g_pow(ws[z]) for z in range(r)}
            want = sum(ws[z] * (sum(int(v) for v in vs[z]) + k * ups[z]) for z in range(r))
            assert aggregate_proof(logits_sigs, weight_sigs, MOCK) == want % MOCK.order

    def test_incomplete_material_rejected(self):
        with pytest.raises(IncompleteAux):
            aggregate_proof({0: (1,)}, {}, MOCK)


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
    return logits_sigs, weight_sigs


class TestProofFolding:
    @pytest.mark.parametrize("name", ["mock", "pairing"])
    def test_folded_proof_equals_per_member_product(self, name):
        backend = get_backend(name)
        logits_sigs, weight_sigs = fold_material(backend)
        want = backend.gt_identity
        for z in sorted(logits_sigs):
            combined = logits_sigs[z][0]
            for s in logits_sigs[z][1:]:
                combined = backend.g_mul(combined, s)
            want = backend.gt_mul(want, backend.pair(combined, weight_sigs[z]))
        assert aggregate_proof(logits_sigs, weight_sigs, backend) == want

    def test_identity_slice_signature_alone(self):
        backend = get_backend("pairing")
        assert aggregate_proof({0: (None, None)}, {0: backend.g_pow(5)}, backend) == backend.gt_identity

    def test_one_pairing_per_weight_signature(self):
        backend = CountingMock()
        aggregate_proof(*fold_material(backend), backend)
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
    """Full pipeline incl. signatures, members 0..r-1 led by r; returns
    everything verify needs."""
    cfg = RoundConfig(n=r, r=r, k=k, t=t, q=q, sigma=sigma, grain=grain, d=d, omega=omega)
    group, bus = exchanged_group(np.random.default_rng(seed), r, cfg, -8, 8, backend, weights)
    teacher = _conclude(group, bus).teacher
    [decoded] = messages_of(bus.transcript, kind=DECODED_RESULT)
    return decoded.payload["proof"], teacher, list(group.weight_ints.values()), [group.keys[z] for z in range(r)], k, q


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
        shifted = MOCK.gt_pow(verify(proof, teacher, wq, keys, k, q, MOCK).expected_exponent + 2)
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
        bumped = MOCK.gt_mul(proof, MOCK.gt_pow(1))
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
