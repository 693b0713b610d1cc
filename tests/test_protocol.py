import functools
import hashlib
import json
from collections.abc import Callable
from dataclasses import dataclass, fields

import numpy as np
import pytest

from svafd import protocol, threats
from svafd.coding import Share
from svafd.filtration import HashedCal, Topology, build_topology, intimacy_list, select_group
from svafd.protocol import (
    AGGREGATED_SHARE,
    AUX_PROOF,
    BROADCAST,
    DECODED_RESULT,
    HASHED_CAL,
    KEY_SHARE,
    PLAN_DISTRIBUTION,
    SERVER,
    SHARE,
    STAGE_OF_KIND,
    InfeasibleConfig,
    Message,
    MessageBus,
    PerfRecorder,
    RoundConfig,
    run_round,
    run_single_group,
)
from svafd.sigcrypto import get_backend
from svafd.workload import workload_provider

from helpers import (
    SERVER_VISIBLE_KINDS,
    exchanged_group,
    full_pipeline,
    membership_update,
    messages_of,
    prepared_group,
)


@dataclass(frozen=True)
class Adversary:
    """A test adversary for `run_round(tamper=)`: build(plan, live) gives the
    bus mutations of the group led by leader."""

    leader: int
    build: Callable

    def mutations(self, plan, live):
        return self.build(plan, live)


def small_cfg(**overrides):
    base = dict(n=6, r=5, k=2, t=1, q=3, d=6, grain="class", seed=1, backend="mock")
    base.update(overrides)
    return RoundConfig(**base)


def run_small(**overrides):
    cfg = small_cfg(**overrides)
    provider = workload_provider(cfg, alpha=1.0, samples=150)
    return cfg, run_round(cfg, provider)


class TestHonestRound:
    def test_all_groups_accept_with_small_error(self):
        cfg, transcript = run_small()
        assert len(transcript.group_results) == cfg.n
        for res in transcript.group_results.values():
            assert res.verdict == "accept"
            assert res.rel_error is not None and res.rel_error <= 1e-6

    def test_every_client_leads_exactly_one_group(self):
        _, transcript = run_small()
        assert sorted(transcript.group_results) == list(range(6))
        assert sorted(transcript.topology.groups) == list(range(6))

    def test_sample_grain_round(self):
        cfg, transcript = run_small(grain="sample", omega=4, k=2, d=5)
        for res in transcript.group_results.values():
            assert res.verdict == "accept"
            assert res.teacher.shape == (8, 5)


class TestStragglers:
    # n=5, r=4, k=2, t=1: threshold 3, so the dropout budget is exactly 1
    def test_one_straggler_per_group_still_accepts(self):
        cfg, transcript = run_small(n=5, r=4, straggler_ids=frozenset({0}))
        for leader, res in transcript.group_results.items():
            if leader == 0:
                continue  # the straggler still leads; its group runs without it
            assert res.verdict == "accept"
            assert 0 not in res.live_members

    def test_budget_exceeded_records_insufficient(self):
        cfg, transcript = run_small(n=5, r=4, straggler_ids=frozenset({0, 1}))
        # a straggler is never a member of its own group, so groups led by 0
        # and 1 lose one member (within budget) while the rest lose two
        for leader, res in transcript.group_results.items():
            if leader in (0, 1):
                assert res.verdict == "accept"
            else:
                assert res.verdict == "insufficient"

    def test_group_without_live_members_has_no_oracle(self):
        # every client but 0 straggles: a group without client 0 keeps no live member
        _, transcript = run_small(n=4, r=2, k=2, t=0, straggler_ids=frozenset({1, 2, 3}))
        empty = [res for res in transcript.group_results.values() if 0 not in res.members]
        assert empty
        for res in empty:
            assert (res.live_members, res.verdict, res.oracle, res.rel_error) == ((), "insufficient", None, None)

    def test_straggler_sends_no_shares_or_aggregates(self):
        _, transcript = run_small(n=5, r=4, straggler_ids=frozenset({2}))
        assert messages_of(transcript, kind=SHARE, sender=2) == []
        assert messages_of(transcript, kind=AGGREGATED_SHARE, sender=2) == []
        assert messages_of(transcript, kind=KEY_SHARE, sender=2) == []


class TestTranscriptInvariants:
    def test_stage_ordering_per_group(self):
        _, transcript = run_small(n=8, r=4)
        for leader in range(8):
            plan_seqs = [m.seq for m in messages_of(transcript, kind=PLAN_DISTRIBUTION, sender=leader)]
            share_seqs = [m.seq for m in messages_of(transcript, kind=SHARE, group=leader)]
            if share_seqs:
                assert min(plan_seqs) < min(share_seqs)
            agg_seqs = [m.seq for m in messages_of(transcript, kind=AGGREGATED_SHARE, group=leader)]
            dec = messages_of(transcript, kind=DECODED_RESULT, receiver=leader)
            assert len(dec) == 1
            assert max(agg_seqs) < dec[0].seq

    def test_share_channels_are_topology_edges(self):
        _, transcript = run_small(n=8, r=3)
        edges = transcript.topology.edges
        for m in messages_of(transcript, kind=SHARE):
            pair = (min(m.sender, m.receiver), max(m.sender, m.receiver))
            assert pair in edges

    def test_hashed_cal_broadcast_to_clients_only(self, buses):
        cfg, transcript = run_small()
        msgs = messages_of(transcript, kind=HASHED_CAL)
        # one broadcast per client, in client order, before any group message
        assert [(m.seq, m.sender, m.receiver) for m in msgs] == [(c, c, BROADCAST) for c in range(cfg.n)]
        assert messages_of(transcript, kind=HASHED_CAL, receiver=SERVER) == []
        [bus] = buses
        assert not any(m.kind == HASHED_CAL for m in filed(bus))

    def test_server_sees_only_permitted_kinds_and_no_plaintext(self):
        cfg, transcript = run_small()
        provider = workload_provider(cfg, alpha=1.0, samples=150)
        plain = []
        for cid in range(cfg.n):
            _, matrix = provider(cid)
            plain.append(np.asarray(matrix))

        def arrays_in(obj):
            if isinstance(obj, np.ndarray):
                yield obj
            elif isinstance(obj, dict):
                for v in obj.values():
                    yield from arrays_in(v)
            elif isinstance(obj, (list, tuple)):
                for v in obj:
                    yield from arrays_in(v)

        for m in messages_of(transcript, receiver=SERVER):
            assert m.kind in SERVER_VISIBLE_KINDS
            for arr in arrays_in(m.payload):
                if arr.ndim == 2 and not np.iscomplexobj(arr):
                    for p in plain:
                        assert arr.shape != p.shape or not np.allclose(arr, p)

    def test_determinism_byte_identical(self):
        _, t1 = run_small(seed=5)
        _, t2 = run_small(seed=5)
        assert t1.export_jsonl() == t2.export_jsonl()

    def test_different_seed_changes_transcript(self):
        _, t1 = run_small(seed=5)
        _, t2 = run_small(seed=6)
        assert t1.export_jsonl() != t2.export_jsonl()


class TestConfigValidation:
    def test_infeasible_split_rejected(self):
        cfg = small_cfg(k=4, t=2)  # threshold 6 > r=5
        with pytest.raises(InfeasibleConfig):
            run_round(cfg, workload_provider(cfg))

    def test_r_exceeding_candidates_rejected(self):
        cfg = small_cfg(n=4, r=4)
        with pytest.raises(InfeasibleConfig):
            run_round(cfg, workload_provider(cfg))

    @pytest.mark.parametrize("grain", ["Class", "samples", ""])
    def test_unknown_grain_rejected_before_filtration(self, grain):
        cfg = RoundConfig(n=6, r=4, k=2, t=1, d=5, grain=grain)
        with pytest.raises(InfeasibleConfig, match="unknown grain"):
            cfg.validate()
        with pytest.raises(InfeasibleConfig, match="unknown grain"):
            run_round(cfg, lambda cid: pytest.fail("the round read an input before validating"))

    @pytest.mark.parametrize(
        "k, params, match",
        [(2, {"grain": "Class"}, "unknown grain"), (2, {"grain": "sample", "omega": 0}, "omega >= 1"),
         (4, {}, "below threshold")],
    )
    def test_single_group_validated_before_planning(self, monkeypatch, k, params, match):
        unplanned = lambda *args, **kwargs: pytest.fail("planned before validating")
        monkeypatch.setattr(protocol.coding, "make_group_plan", unplanned)
        with pytest.raises(InfeasibleConfig, match=match):
            run_single_group(4, k, 1, d=4, **params)

    @pytest.mark.parametrize("key", ["straggler_ids", "leader_in_group", "p", "n"])
    def test_single_group_takes_only_group_fields(self, monkeypatch, key):
        assert key not in protocol.GROUP_FIELDS
        unplanned = lambda *args, **kwargs: pytest.fail("planned with a key outside GROUP_FIELDS")
        monkeypatch.setattr(protocol.coding, "make_group_plan", unplanned)
        with pytest.raises(TypeError, match=f"group field {key}$"):
            run_single_group(4, 2, 1, d=4, **{key: 1})

    def test_sample_grain_needs_positive_omega(self):
        cfg = small_cfg(grain="sample", omega=0, k=2)
        with pytest.raises(InfeasibleConfig):
            run_round(cfg, lambda cid: pytest.fail("the round read an input before validating"))

    @pytest.mark.parametrize("grain", ["class", "sample"])
    def test_logits_split_into_k_slices_of_tensor_shape(self, grain):
        cfg = small_cfg(grain=grain, omega=4, k=3, d=5)
        assert cfg.logits_shape() == ((5, 5) if grain == "class" else (12, 5))
        logits = np.random.default_rng(2).uniform(-1, 1, cfg.logits_shape())
        bundle = protocol.coding.split(logits, cfg.k, grain, rng=np.random.default_rng(3))
        assert bundle.slices.shape == (cfg.k, *cfg.tensor_shape())

    def test_verified_rounds_are_linear_only(self):
        cfg = small_cfg(f_degree=2)
        with pytest.raises(InfeasibleConfig):
            run_round(cfg, workload_provider(cfg))
        from svafd.sigcrypto import MockBackend

        with pytest.raises(ValueError):
            run_single_group(8, 2, 1, grain="class", d=4, f_degree=2, backend=MockBackend())


class TestPreparation:
    def test_roster_that_seats_its_leader_refused(self):
        cfg = small_cfg(n=6, r=4)
        rng = np.random.default_rng(0)
        state, asked = rng.bit_generator.state, []

        def inputs(member):
            asked.append(member)
            return rng.uniform(-1, 1, cfg.logits_shape()), rng

        with pytest.raises(ValueError, match="leader 2 is seated"):
            protocol._prepare(cfg, 2, range(4), rng, inputs, None, PerfRecorder())
        assert rng.bit_generator.state == state and asked == []


class TestMembershipUpdate:
    def test_no_change_is_identity(self):
        topo = build_topology({0: [1, 2], 1: [0], 2: [1]})
        out = membership_update(topo, joins=set(), leaves=set())
        assert out.nodes == topo.nodes
        assert out.edges == topo.edges
        assert out.groups == {0: [1, 2], 1: [0], 2: [1]}

    def test_leave_removes_everywhere(self):
        topo = build_topology({0: [1, 2], 1: [0, 2], 2: [1]})
        out = membership_update(topo, joins=set(), leaves={2})
        assert 2 not in out.nodes
        assert all(2 not in e for e in out.edges)
        assert all(2 not in members for members in out.groups.values())
        assert 2 not in out.groups

    def test_join_arrives_isolated_then_selected_next_round(self):
        topo = build_topology({0: [1], 1: [0]})
        out = membership_update(topo, joins={9}, leaves=set())
        assert 9 in out.nodes
        assert all(9 not in e for e in out.edges)
        # next round: the joiner clones client 0's knowledge, so client 0
        # must pick it (r=1 selects the single most intimate candidate)
        cfg = small_cfg(n=3, r=1, k=1, t=0, seed=3)
        base = workload_provider(cfg, alpha=1.0, samples=150)

        def provider(cid):
            return base(0) if cid == 2 else base(cid)

        transcript = run_round(cfg, provider)
        assert transcript.topology.groups[0] == [2] or transcript.topology.groups[2] == [0]


class TestSingleGroupAndCampaign:
    def test_single_group_matches_oracle(self):
        res = run_single_group(20, 3, 2, grain="sample", d=6, omega=8, seed=4)
        assert res.rel_error <= 1e-6
        assert res.teacher.shape == (24, 6)


def _reference_feed(h, obj):
    if isinstance(obj, np.ndarray):
        h.update(b"A")
        h.update(str(obj.dtype).encode())
        h.update(str(obj.shape).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        h.update(b"D")
        for key in sorted(obj, key=repr):
            _reference_feed(h, key)
            _reference_feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"L")
        for item in obj:
            _reference_feed(h, item)
    elif hasattr(obj, "__dataclass_fields__"):
        h.update(type(obj).__name__.encode())
        for f in fields(obj):
            _reference_feed(h, getattr(obj, f.name))
    else:
        h.update(repr(obj).encode())


def reference_export_jsonl(transcript) -> str:
    """The transcript format spelled out plainly: one json.dumps per record
    and a fresh digest of every message's payload."""
    lines = []
    for m in transcript.messages:
        h = hashlib.sha256()
        _reference_feed(h, m.payload)
        record = {"seq": m.seq, "stage": STAGE_OF_KIND[m.kind], "kind": m.kind, "from": m.sender, "to": m.receiver,
                  "group": m.group, "payload_sha256": h.hexdigest()}
        lines.append(json.dumps(record, sort_keys=True))
    for leader in sorted(transcript.group_results):
        res = transcript.group_results[leader]
        record = {
            "kind": "group_result",
            "leader": leader,
            "members": list(res.members),
            "live_members": list(res.live_members),
            "verdict": res.verdict,
            "rel_error": None if res.rel_error is None else repr(res.rel_error),
            "probe_distance": res.probe_distance,
        }
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines) + "\n"


# what a member takes; a straggler leaves these filed
MEMBER_KINDS = {PLAN_DISTRIBUTION, SHARE}


def tampered_round(kind, **overrides):
    """A round with stragglers 2 and 7 (n=10, r=4 unless overridden) and the
    given tamper kind aimed at group 4; kind=None runs honestly."""
    cfg = small_cfg(**{"n": 10, "r": 4, "straggler_ids": frozenset({2, 7}), **overrides})
    tamper = None
    if kind is not None:
        tamper = threats.inject_tamper(threats.AttackSpec(kind, {"delta": 1e-3}), leader=4)
    return cfg, run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=tamper)


class TestRoundHotPath:
    def test_groups_match_pairwise_filtration(self):
        cfg, transcript = tampered_round(None, n=16, r=5)
        # the fingerprints every client broadcast, scored pair by pair
        hashed = {m.sender: m.payload for m in messages_of(transcript, kind=HASHED_CAL)}
        want = {cid: select_group(cid, intimacy_list(cid, hashed), cfg.r) for cid in range(cfg.n)}
        assert transcript.topology.groups == want

    @pytest.mark.parametrize("kind", [None, "share_tamper", "weight_tamper", "server_tamper"])
    def test_export_matches_reference_exporter(self, kind):
        _, transcript = tampered_round(kind)
        assert 4 in transcript.group_results
        assert transcript.export_jsonl() == reference_export_jsonl(transcript)

    def test_export_after_append_and_in_place_change(self):
        _, transcript = tampered_round("share_tamper")
        first = transcript.export_jsonl()
        last = transcript.messages[-1]
        transcript.messages.append(
            Message(seq=last.seq + 1, kind="decoded_result", sender=SERVER, receiver=0,
                    payload={"note": np.arange(3.0)}, group=0)
        )
        second = transcript.export_jsonl()
        assert second == reference_export_jsonl(transcript) != first
        # a payload changed in place between exports gets a fresh digest
        transcript.messages[0].payload.matrix[0, 0] += 1.0
        assert transcript.export_jsonl() == reference_export_jsonl(transcript) != second

    def test_every_group_message_taken_once_by_its_group_in_order(self, monkeypatch):
        takes = []
        inner = MessageBus.take

        def recording_take(bus, receiver, kind, group=None):
            out = inner(bus, receiver, kind, group)
            takes.append((receiver, kind, group, out))
            return out

        monkeypatch.setattr(MessageBus, "take", recording_take)
        cfg, transcript = tampered_round(None, n=12, r=6)
        groups = transcript.topology.groups
        assert any(set(groups[a]) & set(groups[b]) for a in groups for b in groups if a < b)
        exported = [json.loads(line) for line in transcript.export_jsonl().splitlines()[: len(transcript.messages)]]
        taken = {}
        for receiver, kind, group, out in takes:
            assert [m.seq for m in out] == sorted(m.seq for m in out)
            for m in out:
                assert (m.receiver, m.kind, m.group, exported[m.seq]["group"]) == (receiver, kind, group, group)
                taken[m.seq] = taken.get(m.seq, 0) + 1
        routed = transcript.messages
        # a straggler never collects what is addressed to it as a member
        offline = {m.seq for m in routed if m.receiver in cfg.straggler_ids and m.kind in MEMBER_KINDS}
        assert {m.kind for m in routed if m.seq in offline} == MEMBER_KINDS
        online = [m for m in routed if m.seq not in offline]
        assert {m.kind for m in online} == set(STAGE_OF_KIND)
        assert all(taken.get(m.seq) == 1 for m in online)
        assert set(taken) == {m.seq for m in online}
        # the fingerprints are taken in one go, from the broadcast
        assert [(r, k, len(out)) for r, k, _, out in takes if k == HASHED_CAL] == [(BROADCAST, HASHED_CAL, cfg.n)]


class TestMarginWarning:
    def test_round_results_carry_the_verdict_flag(self):
        _, quiet = run_small()
        assert not any(res.margin_warning for res in quiet.group_results.values())
        with pytest.warns(RuntimeWarning):
            _, thin = run_small(q=5)  # a 10^-10 error budget is thin at scale 10^(2q)
        assert all(res.margin_warning for res in thin.group_results.values())
        assert "margin" not in thin.export_jsonl()

    def test_single_group_carries_the_verdict_flag(self):
        from svafd.sigcrypto import MockBackend

        res = run_single_group(6, 2, 1, grain="class", d=4, seed=1, backend=MockBackend())
        assert res.verdict == "accept" and not res.margin_warning
        with pytest.warns(RuntimeWarning):
            res = run_single_group(6, 2, 1, grain="class", d=4, q=5, seed=1, backend=MockBackend())
        assert res.margin_warning


class TestStageTiming:
    r, k, t = 5, 3, 1
    UNSIGNED = {
        ("leader", "preprocess"): 1,
        ("follower", "preprocess"): r,
        ("follower", "encode"): r,
        ("follower", "aggregate"): r,
        ("server", "decode"): 1,
    }

    def test_signed_run_records_every_stage(self):
        from svafd.sigcrypto import MockBackend

        rec = PerfRecorder()
        run_single_group(self.r, self.k, self.t, grain="class", d=4, seed=2, backend=MockBackend(), perf=rec)
        signed = {
            ("leader", "auxiliary"): self.r,
            ("follower", "auxiliary"): self.r * self.k,
            ("server", "proof"): self.r,
            ("leader", "verify"): 1,
        }
        assert rec.counts == {**self.UNSIGNED, **signed}

    def test_unsigned_run_records_coding_stages_only(self):
        rec = PerfRecorder()
        run_single_group(self.r, self.k, self.t, grain="class", d=4, seed=2, perf=rec)
        assert rec.counts == self.UNSIGNED


class TestTimerRecordsOnRaise:
    def test_sample_and_count_kept_when_the_body_raises(self):
        rec = PerfRecorder()
        with rec.timer("server", "decode"):
            pass
        with pytest.raises(protocol.coding.InsufficientShares):
            with rec.timer("server", "decode", count=3):
                raise protocol.coding.InsufficientShares("2 aggregates left")
        assert rec.counts == {("server", "decode"): 4}
        assert len(rec.samples[("server", "decode")]) == 2
        assert all(s >= 0.0 for s in rec.samples[("server", "decode")])


class TestPayloadLayouts:
    """Each message carries its one value: no payload wraps it in a
    one-entry dict, and the server tells the leader's signatures from the
    members' by the bus sender."""

    def test_honest_round(self):
        cfg, transcript = run_small()
        assert {m.kind for m in transcript.messages} == set(STAGE_OF_KIND)
        for m in transcript.messages:
            assert not (isinstance(m.payload, dict) and len(m.payload) == 1), m
        for m in messages_of(transcript, kind=SHARE):
            assert isinstance(m.payload, np.ndarray) and np.iscomplexobj(m.payload)
            assert m.payload.shape == cfg.tensor_shape()
        for m in messages_of(transcript, kind=KEY_SHARE):
            assert type(m.payload) is int
        for leader, members in transcript.topology.groups.items():
            live = transcript.group_results[leader].live_members
            assert sorted(live) == sorted(members)
            sent = messages_of(transcript, kind=AUX_PROOF, group=leader)
            [weights] = [m.payload for m in sent if m.sender == leader]
            assert isinstance(weights, dict) and sorted(weights) == sorted(members)
            slices = {m.sender: m.payload for m in sent if m.sender != leader}
            assert len(slices) == len(sent) - 1 and sorted(slices) == sorted(live)
            assert all(isinstance(sigs, tuple) and len(sigs) == cfg.k for sigs in slices.values())


class TestTranscriptBytes:
    """The SHA-256 of `export_jsonl` on seeded mock rounds (n=10, r=4, k=2,
    t=1, seed 1; tampers aimed at group 4 with stragglers 2 and 7). A change
    that keeps transcripts byte-identical keeps every value; one that alters
    the transcript on purpose updates them and says so."""

    HONEST = {"straggler_ids": frozenset()}
    ROUNDS = {  # name: (tamper kind, round overrides, SHA-256 of the export)
        "honest": (None, HONEST, "f7816ece71b0f7a46235d82c91abf4df3bae32408eadc1bf5997ea8afd92521d"),
        "stragglers": (None, {}, "33b2582068943f1a44abf9e06350824f4467cc9a47f8dba77ed566d7221787fe"),
        "share_tamper": ("share_tamper", {}, "8e2a8ffcc3c960d6ceb3644f2a9c2b854a256651f9344a34f9a61e380365ae62"),
        "weight_tamper": ("weight_tamper", {}, "b5f9ed9ba388a30b22d5ad0aa1e74ab729914d63a695bebbb5a0c43883f3fc25"),
        "server_tamper": ("server_tamper", {}, "9dc7675048ebfd6c9d2edb553de3110d67adadbf1be4d89dc3af0b017d4bb903"),
        "sample_grain": (
            None, {**HONEST, "grain": "sample", "omega": 4},
            "36e2e42d8eddd5792fb1d748e36a4f987b4108ed68fc2d44b27fe4f56c46cc7a",
        ),
    }

    @pytest.mark.parametrize("name", sorted(ROUNDS))
    def test_export_sha256_pinned(self, name):
        kind, overrides, want = self.ROUNDS[name]
        _, transcript = tampered_round(kind, **overrides)
        assert hashlib.sha256(transcript.export_jsonl().encode()).hexdigest() == want


class TestRoundResultsPinned:
    """The SHA-256 of every group's result in the `TestTranscriptBytes`
    rounds: one JSON line per group, by leader, of its leader, verdict,
    teacher-bytes SHA-256, `repr(rel_error)`, probe distance and live
    members. A change that moves what crosses the bus but keeps each
    group's results keeps every value."""

    RESULTS = {  # name: SHA-256 of the group results
        "honest": "f37263aeff94dccf4ca9b1f5c669bd404a7ccd626f807bf8bf4fb9f5c86fde44",
        "stragglers": "1c5f3ec7e872e97ffffa1e1e9cb822818849b053231904f05d9501dc9bcc4efd",
        "share_tamper": "2866e2eed58b8d917dc7c116badb787876707e7890cbc3a65c2a48d577eb6c5d",
        "weight_tamper": "03e4bea24b21ad0554eb1cf344d4927852028cc3b1150bd30a4284546f4d359e",
        "server_tamper": "3602260e84aeb6c0e3109010b3f3b83b1f07c46847de2ad2563df1500c485c3c",
        "sample_grain": "8700809cb5640e6ec474a75b3baf8c6086d6a3d95a9ad844afc641eb9c4970db",
    }

    @staticmethod
    def results_sha256(transcript):
        h = hashlib.sha256()
        for leader in sorted(transcript.group_results):
            res = transcript.group_results[leader]
            teacher = None if res.teacher is None else hashlib.sha256(res.teacher.tobytes()).hexdigest()
            line = [leader, res.verdict, teacher, repr(res.rel_error), res.probe_distance, list(res.live_members)]
            h.update((json.dumps(line) + "\n").encode())
        return h.hexdigest()

    @pytest.mark.parametrize("name", sorted(RESULTS))
    def test_group_results_pinned(self, name):
        kind, overrides, _ = TestTranscriptBytes.ROUNDS[name]
        _, transcript = tampered_round(kind, **overrides)
        assert self.results_sha256(transcript) == self.RESULTS[name]


class TestSignedSingleGroupPinned:
    """Teacher SHA-256, verdict, `repr(rel_error)` and probe distance of
    signed `run_single_group` cells, whose key shares and signatures cross
    a fresh bus. A change that keeps the group's results keeps every
    value."""

    CELLS = {  # name: (backend, (r, k, t), group params, (teacher SHA-256, verdict, repr(rel_error), probe))
        "mock class": ("mock", (6, 2, 1), dict(grain="class", d=4, seed=1), (
            "4d88b0c4013a27c45856d58f1735115fded8e0aeaa01912bf0907e9ec116c2a0",
            "accept", "2.257955605268708e-14", None,
        )),
        "mock sample": ("mock", (7, 3, 2), dict(grain="sample", d=5, omega=3, seed=2), (
            "873936fd9c9b33c968b189d12c95fc03a02411031c73eca63248c22988442a78",
            "accept", "6.7943887397476795e-15", None,
        )),
        "pairing class": ("pairing", (4, 2, 1), dict(grain="class", d=4, seed=3), (
            "98b2e556ac1462407fde703a423340d1c6f081e002008582ba4ae1e58058cd7e",
            "accept", "2.6863215139916567e-14", None,
        )),
        "pairing sample": ("pairing", (5, 2, 2), dict(grain="sample", d=3, omega=2, seed=4), (
            "f96031918a7c4bc105941ad17ba2f313375f236fa25e8f94aadb6222ba70c1fc",
            "accept", "7.139001841191759e-15", None,
        )),
    }

    @pytest.mark.parametrize("name", sorted(CELLS))
    def test_results_pinned(self, name):
        backend, (r, k, t), params, want = self.CELLS[name]
        res = run_single_group(r, k, t, backend=get_backend(backend), **params)
        got = (hashlib.sha256(res.teacher.tobytes()).hexdigest(), res.verdict, repr(res.rel_error), res.probe_distance)
        assert got == want


class TestStreamedExport:
    """`export_jsonl` memoizes only the previous message's payload and joins
    its lines in chunks; the text is the reference exporter's."""

    PAYLOADS = {
        "A": {"lagrange": np.arange(6.0).reshape(2, 3) + 1j},
        "B": {"lagrange": np.zeros((2, 3), dtype=complex)},
    }

    @pytest.mark.parametrize("order", ["AA", "ABA", "ABAB"])
    def test_repeated_payload_object_matches_reference(self, order, monkeypatch):
        monkeypatch.setattr(protocol, "_EXPORT_CHUNK", 2)  # "AA" fills one chunk exactly
        transcript = protocol.RoundTranscript()
        bus = MessageBus(transcript)
        for member, name in enumerate(order):
            bus.send(PLAN_DISTRIBUTION, 0, member + 1, self.PAYLOADS[name], group=0)
        text = transcript.export_jsonl()
        assert text == reference_export_jsonl(transcript)
        digests = [json.loads(line)["payload_sha256"] for line in text.splitlines()]
        assert [digests.index(d) for d in digests] == [order.index(name) for name in order]

    def test_empty_transcript(self):
        assert protocol.RoundTranscript().export_jsonl() == reference_export_jsonl(protocol.RoundTranscript()) == "\n"

    def test_group_sends_one_plan_object(self):
        _, transcript = tampered_round(None)
        objects = {}
        for m in messages_of(transcript, kind=PLAN_DISTRIBUTION):
            if m.receiver != SERVER:
                objects.setdefault(m.sender, set()).add(id(m.payload))
        assert sorted(objects) == list(range(10)) and all(len(ids) == 1 for ids in objects.values())

    def test_transient_memory_bounded_by_the_text(self):
        import tracemalloc

        cfg = RoundConfig(n=40, r=10, k=2, t=1, backend="mock", seed=5, straggler_ids=frozenset({0, 24, 30, 32}))
        transcript = run_round(cfg, workload_provider(cfg, alpha=1.0, samples=120))
        transcript.export_jsonl()  # warm: the module's small caches
        tracemalloc.start()
        try:
            text = transcript.export_jsonl()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(transcript.messages) > 4 * protocol._EXPORT_CHUNK
        assert peak <= 3 * len(text), peak / len(text)


def reference_digest(payload) -> str:
    h = hashlib.sha256()
    _reference_feed(h, payload)
    return h.hexdigest()


@dataclass(frozen=True)
class Pair:
    left: object
    right: object = None


POINTS = [get_backend("pairing").g_pow(e) for e in (3, 5, 7)]  # affine (x, y) pairs of field ints


class TestPayloadDigest:
    """`payload_digest`, one plain recursive walk, hashes the reference
    walk's byte stream, on the engine's payload layouts and others."""

    PAYLOADS = {
        "share": {"share": Share(np.arange(4.0).reshape(2, 2) + 1j)},
        "share array": np.arange(12.0).reshape(4, 3) * (1 - 2j),  # a SHARE: one (omega, d) complex slice
        "key share": 2**200 + 12345,  # a KEY_SHARE: the int key
        "slice signatures": (POINTS[0], None, POINTS[1]),  # a member's AUX_PROOF; None is the identity
        "weight signatures": {4: POINTS[2], 0: POINTS[0], 11: None},  # the leader's AUX_PROOF
        "aggregate": dict(payload=np.zeros((2, 2), dtype=complex), contributors=(0, 1, 5)),
        "numpy scalars": {"leader": np.int64(3), "x": np.float64(0.5), "flag": np.bool_(True), "none": None},
        "repr key order": {10: "a", 2: np.float32(1.5), 300: [1, 2.5], "10": (), -1: {}},
        "nested": {"pairs": [Pair(np.eye(2), Pair(3)), Pair((np.ones(3, dtype=np.int32), "s"))], "d": {"x": {}}},
        "strided and fortran": {"a": np.arange(12.0).reshape(3, 4)[:, ::2], "f": np.asfortranarray(np.ones((2, 3)))},
        "zero-d and empty": [np.float64(2.0), np.array(2.0), np.zeros((0, 3)), {}, [], ()],
        "bare array": np.arange(6).reshape(2, 3),
        "bare scalar": 7,
    }

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_matches_reference(self, name):
        payload = self.PAYLOADS[name]
        assert protocol.payload_digest(payload) == protocol.payload_digest(payload) == reference_digest(payload)

    def test_equal_keys_that_print_differently(self):
        # each pair compares equal as dict keys; every dict keeps its own key
        # bytes, whichever of its pair was digested first
        payloads = [
            {1: "v"}, {True: "v"}, {1.0: "v"}, {np.int64(1): "v"}, {0.0: "v"}, {-0.0: "v"},
            {(1,): "v"}, {(True,): "v"}, {"k": 1}, {np.str_("k"): 1},
        ]
        for payload in payloads + payloads[::-1]:
            assert protocol.payload_digest(payload) == reference_digest(payload)
        assert len({protocol.payload_digest(p) for p in payloads}) == len(payloads)


class TestBundlesDroppedAfterEncode:
    """The oracle is fixed in `_prepare`; after `_exchange` no bundle is left."""

    @pytest.mark.parametrize("grain", ["class", "sample"])
    def test_exchange_drops_every_bundle_and_keeps_the_oracle(self, grain):
        cfg = RoundConfig(n=7, r=6, k=2, t=1, q=3, d=5, grain=grain, omega=4, straggler_ids=frozenset({3}))
        rng = np.random.default_rng(5)
        group = prepared_group(rng, 6, cfg, -10, 10, weights=rng.uniform(0.05, 0.3, cfg.r))
        prepared = dict(group.bundles)
        assert list(prepared) == [0, 1, 2, 4, 5] and group.live == (0, 1, 2, 4, 5)
        weights = dict(zip(group.plan.members, group.plan.weights))
        want = protocol._oracle_teacher(prepared, weights, protocol.coding.monomial(1), grain, cfg.k)
        protocol._exchange(group, MessageBus(protocol.RoundTranscript()))
        assert group.bundles == {}
        assert group.oracle.dtype == want.dtype and group.oracle.tobytes() == want.tobytes()

    def test_peak_memory_stays_near_the_share_bytes(self):
        import tracemalloc

        r, k, t, omega, d = 40, 20, 10, 32, 10
        run_single_group(r, k, t, grain="sample", omega=omega, d=d, seed=1)  # warm: imports, caches
        tracemalloc.start()
        try:
            run_single_group(r, k, t, grain="sample", omega=omega, d=d, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        share_bytes = r * r * omega * d * 16  # r^2 complex (omega, d) shares
        assert peak <= 1.4 * share_bytes, peak / share_bytes


class TestGroupOverFreshBus:
    """One group driven through the stages over a fresh bus sends its
    messages the same way every time and decodes from the server's inbox."""

    LEADER = 6

    def drive(self, kind):
        from svafd.sigcrypto import MockBackend

        cfg = RoundConfig(n=7, r=6, k=2, t=1, q=3, d=5, grain="class", backend="mock")
        rng = np.random.default_rng(11)
        tamper = None
        if kind is not None:
            tamper = threats.inject_tamper(threats.AttackSpec(kind, {"delta": 1e-3}), leader=self.LEADER)
        group = protocol._prepare(
            cfg, self.LEADER, range(cfg.r), rng, lambda z: (rng.uniform(-10, 10, (cfg.d, cfg.d)), rng),
            MockBackend(), PerfRecorder(),
        )
        bus = MessageBus(protocol.RoundTranscript())
        if tamper is not None:
            bus.mutations.update(tamper.mutations(group.plan, group.live))
        protocol._exchange(group, bus)
        server = [
            (m.sender, m.payload["payload"].tobytes())
            for m in bus.inboxes[(SERVER, AGGREGATED_SHARE, self.LEADER)]
        ]
        return protocol._conclude(group, bus), server, bus.transcript

    @pytest.mark.parametrize("kind", [None, "share_tamper", "weight_tamper", "server_tamper"])
    def test_same_group_on_two_fresh_buses(self, kind):
        first, first_server, first_log = self.drive(kind)
        second, second_server, second_log = self.drive(kind)
        assert first.verdict == second.verdict == ("accept" if kind is None else "reject")
        assert first.teacher.tobytes() == second.teacher.tobytes()
        assert (first.rel_error, first.probe_distance) == (second.rel_error, second.probe_distance)
        assert len(first_server) == 6 and first_server == second_server
        assert [m.sender for m in messages_of(first_log, kind=AGGREGATED_SHARE)] == list(range(6))
        assert first_log.export_jsonl() == second_log.export_jsonl()
        shares = messages_of(first_log, kind=SHARE)
        assert len(shares) == 6 * 5 and all(m.sender != m.receiver for m in shares)


@pytest.fixture
def buses(monkeypatch):
    """Every bus the round engine builds while the test runs, in order."""
    made = []

    class RecordingBus(MessageBus):
        def __init__(self, transcript):
            super().__init__(transcript)
            made.append(self)

    monkeypatch.setattr(protocol, "MessageBus", RecordingBus)
    return made


def filed(bus):
    return [m for inbox in bus.inboxes.values() for m in inbox]


class TestInboxDrain:
    """Every party takes what it acts on: after a round only the member
    messages addressed to stragglers stay filed."""

    STRAGGLERS = frozenset({0, 24, 30, 32})

    def assert_drained(self, bus, stragglers):
        left = filed(bus)
        assert all(m.kind in MEMBER_KINDS and m.receiver in stragglers for m in left)
        assert {m.kind for m in left} == MEMBER_KINDS

    @pytest.mark.parametrize("kind", [None, "share_tamper", "weight_tamper", "server_tamper"])
    def test_seeded_round(self, kind, buses):
        cfg = RoundConfig(n=40, r=10, k=2, t=1, backend="mock", seed=5, straggler_ids=self.STRAGGLERS)
        tamper = None
        if kind is not None:
            tamper = threats.inject_tamper(threats.AttackSpec(kind, {"delta": 1e-3}), leader=3)
        transcript = run_round(cfg, workload_provider(cfg, alpha=1.0, samples=120), tamper=tamper)
        [bus] = buses
        self.assert_drained(bus, self.STRAGGLERS)
        # 68 plans and 552 shares to stragglers, who send no key shares; 40
        # fingerprints sent
        assert len(filed(bus)) == 620 and len(transcript.messages) == 4544
        assert len(messages_of(transcript, kind=HASHED_CAL)) == cfg.n

    def test_insufficient_groups_take_their_messages(self, buses):
        _, transcript = run_small(n=5, r=4, straggler_ids=frozenset({0, 1}))
        assert "insufficient" in {res.verdict for res in transcript.group_results.values()}
        [bus] = buses
        self.assert_drained(bus, {0, 1})

    def test_one_group_leaves_every_inbox_empty(self):
        from svafd.sigcrypto import MockBackend

        cfg = RoundConfig(n=6, r=5, k=2, t=1, q=3, d=4, grain="class")
        group, bus = exchanged_group(np.random.default_rng(3), 5, cfg, -10, 10, MockBackend())
        assert protocol._conclude(group, bus).verdict == "accept"
        assert filed(bus) == []

    def test_unsigned_group_sends_no_signature_messages(self):
        cfg = RoundConfig(n=6, r=5, k=2, t=1, q=3, d=4, grain="class")
        group, bus = exchanged_group(np.random.default_rng(3), 5, cfg, -10, 10, backend=None)
        assert messages_of(bus.transcript, kind=KEY_SHARE) == messages_of(bus.transcript, kind=AUX_PROOF) == []
        assert protocol._conclude(group, bus).verdict == "accept"
        assert filed(bus) == []


class TestBusMutation:
    """A mutation an adversary hands `run_round` attacks any message kind in
    flight, with no hook in the stages: the group it hits rejects, every
    other accepts."""

    LEADER = 2

    def shift_aggregate(self, member):
        def mutate(payload):
            moved = payload["payload"].copy()
            moved[0, 0] += 1.0
            return {**payload, "payload": moved}

        return (AGGREGATED_SHARE, member, SERVER, self.LEADER), mutate

    def shift_key(self, member):
        return (KEY_SHARE, member, self.LEADER, self.LEADER), lambda upsilon: upsilon + 1

    def shift_lagrange(self, member):
        # the member encodes under the coefficients of the plan it took
        def mutate(payload):
            lagrange = payload["lagrange"].copy()
            lagrange[0, 0] += 1.0
            return {**payload, "lagrange": lagrange}

        return (PLAN_DISTRIBUTION, self.LEADER, member, self.LEADER), mutate

    @pytest.mark.parametrize("attack", ["shift_aggregate", "shift_key", "shift_lagrange"])
    def test_mutated_message_rejects_only_its_group(self, attack):
        cfg = small_cfg()
        built, hit = [], []

        def build(plan, live):
            key, mutate = getattr(self, attack)(live[0])
            built.append(key)
            return {key: lambda payload: hit.append(key) or mutate(payload)}

        adversary = Adversary(self.LEADER, build)
        transcript = run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=adversary)
        assert len(built) == 1 and hit == built
        for leader, res in transcript.group_results.items():
            assert res.verdict == ("reject" if leader == self.LEADER else "accept"), leader

    def test_swapped_fingerprint_moves_the_groups(self, monkeypatch):
        # filtration scores the fingerprints that crossed the bus: client 0's
        # broadcast replaced by client 15's reshapes the groups to match
        cfg = small_cfg(n=16, r=5)
        provider = workload_provider(cfg, alpha=1.0, samples=150)
        honest = run_round(cfg, provider)
        sent = {m.sender: m.payload for m in messages_of(honest, kind=HASHED_CAL)}
        key = (HASHED_CAL, 0, BROADCAST, None)

        class AttackedBus(MessageBus):
            def __init__(self, transcript):
                super().__init__(transcript)
                self.mutations[key] = lambda payload: sent[15]

        monkeypatch.setattr(protocol, "MessageBus", AttackedBus)
        transcript = run_round(cfg, provider)
        delivered = {m.sender: m.payload for m in messages_of(transcript, kind=HASHED_CAL)}
        digests = {c: protocol.payload_digest(h) for c, h in delivered.items()}
        assert digests == {c: protocol.payload_digest(h) for c, h in {**sent, 0: sent[15]}.items()}
        want = {cid: select_group(cid, intimacy_list(cid, delivered), cfg.r) for cid in range(cfg.n)}
        assert transcript.topology.groups == want
        assert want != honest.topology.groups
        assert want[0] != honest.topology.groups[0]


class TestOneMessageInGroupFive:
    """One in-flight mutation in group 5 of the seeded n=12, r=4 round on the
    mock backend (all four members live). The server places each aggregate
    by its bus sender's position in the roster, so an index an aggregate
    names changes nothing. The xfails record known defects: three malformed
    messages that still abort the round (ROADMAP item 10) and a server
    forgery that passes (item 7)."""

    LEADER = 5
    SHAPE = dict(n=12, r=4, k=2, t=1, d=5, seed=1)

    @classmethod
    def run(cls, build=None, **overrides):
        cfg = RoundConfig(**{**cls.SHAPE, **overrides})
        tamper = None if build is None else Adversary(cls.LEADER, build)
        return run_round(cfg, workload_provider(cfg, samples=60), tamper=tamper)

    def assert_not_accepted(self, build):
        transcript = self.run(build)
        assert transcript.group_results[self.LEADER].verdict != "accept"

    def test_forged_aggregate_index_is_ignored(self):
        hit = []

        def build(plan, live):
            forged = (plan.members.index(live[0]) + 1) % len(plan.members)  # the next member's point

            def forge(payload):
                hit.append(forged)
                return {**payload, "alpha_index": forged}

            return {(AGGREGATED_SHARE, live[0], SERVER, plan.leader): forge}

        honest, forged = self.run(), self.run(build)
        got = forged.group_results[self.LEADER]
        assert len(hit) == 1 and got.verdict == "accept"
        assert got.teacher.tobytes() == honest.group_results[self.LEADER].teacher.tobytes()

    @staticmethod
    def edit_first_aggregate(name, edit):
        def build(plan, live):
            key = (AGGREGATED_SHARE, live[0], SERVER, plan.leader)
            return {key: lambda payload: {**payload, name: edit(payload[name])}}

        return build

    @staticmethod
    def members_without_first_live(receiver):
        """A PLAN_DISTRIBUTION from the leader to receiver(live) whose
        members leave live[0] out."""

        def build(plan, live):
            def drop_member(payload):
                return {**payload, "members": tuple(m for m in payload["members"] if m != live[0])}

            return {(PLAN_DISTRIBUTION, plan.leader, receiver(live), plan.leader): drop_member}

        return build

    ABORTS = "ROADMAP item 10: a malformed message aborts the round"

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=ABORTS)
    def test_aggregate_missing_its_last_row(self):
        self.assert_not_accepted(self.edit_first_aggregate("payload", lambda payload: payload[:-1]))

    @pytest.mark.xfail(strict=True, raises=ValueError, reason=ABORTS)
    def test_plan_leaves_its_member_out(self):
        self.assert_not_accepted(self.members_without_first_live(lambda live: live[0]))

    @pytest.mark.xfail(strict=True, raises=KeyError, reason=ABORTS)
    def test_roster_leaves_a_live_member_out(self):
        self.assert_not_accepted(self.members_without_first_live(lambda live: SERVER))

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 7: the proof binds only the total")
    def test_server_moves_mass_between_sample_slots(self):
        def build(plan, live):
            def forge(payload):
                decoded = [d.copy() for d in payload["decoded"]]
                decoded[0][0, 0] += 5
                decoded[1][0, 0] -= 5
                return {**payload, "decoded": decoded}

            return {(DECODED_RESULT, SERVER, plan.leader, plan.leader): forge}

        transcript = self.run(build, d=4, omega=3, grain="sample")
        assert transcript.group_results[self.LEADER].verdict == "reject"


class TestLateDropout:
    """A member whose aggregate is lost in flight (`DROP` on its
    AGGREGATED_SHARE) has already taken its shares: a late dropout. Group 4
    of the n=10, r=4 round (threshold k+t=3) decodes without one aggregate,
    is insufficient without two, and no other group moves."""

    LEADER = 4

    @staticmethod
    @functools.cache
    def run(lost):
        cfg = small_cfg(n=10, r=4, d=5)

        def build(plan, live):
            return {(AGGREGATED_SHARE, m, SERVER, plan.leader): lambda payload: protocol.DROP for m in live[:lost]}

        adversary = Adversary(TestLateDropout.LEADER, build)
        return run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=adversary)

    def test_dropped_message_is_neither_recorded_nor_filed(self):
        bus = MessageBus(protocol.RoundTranscript())
        bus.mutations[(SHARE, 0, 1, 7)] = lambda payload: protocol.DROP
        assert bus.send(SHARE, 0, 1, {}, group=7) is None
        assert bus.transcript.messages == [] and bus.inboxes == {} and bus.mutations == {}
        assert bus.send(SHARE, 0, 1, {}, group=7).seq == 0

    def test_one_lost_aggregate_still_decodes(self):
        honest, transcript = self.run(0), self.run(1)
        res = transcript.group_results[self.LEADER]
        assert res.verdict == "accept" and res.rel_error <= 1e-6
        assert len(transcript.messages) == len(honest.messages) - 1
        sent = [m.sender for m in messages_of(transcript, kind=AGGREGATED_SHARE, group=self.LEADER)]
        assert sent == sorted(res.live_members)  # members aggregate in id order
        # the exported group result lists the members whose aggregate the server took
        dropped, *rest = honest.group_results[self.LEADER].live_members
        results = [json.loads(line) for line in transcript.export_jsonl().splitlines()[len(transcript.messages):]]
        [exported] = [line for line in results if line["leader"] == self.LEADER]
        assert exported["live_members"] == rest == list(res.live_members)
        assert dropped not in exported["live_members"]

    def test_two_lost_aggregates_are_insufficient(self):
        transcript = self.run(2)
        assert transcript.group_results[self.LEADER].verdict == "insufficient"
        assert messages_of(transcript, kind=DECODED_RESULT, receiver=self.LEADER) == []

    @pytest.mark.parametrize("lost", [1, 2])
    def test_other_groups_unchanged(self, lost):
        honest, transcript = self.run(0), self.run(lost)
        for leader, res in honest.group_results.items():
            if leader != self.LEADER:
                got = transcript.group_results[leader]
                assert (got.verdict, got.rel_error) == (res.verdict, res.rel_error), leader
                assert got.teacher.tobytes() == res.teacher.tobytes(), leader


class TestEnvelopeRouting:
    """The bus files and mutates a message under its envelope's group and
    reads nothing of its payload; a mutation that hits no message makes
    `run_round` raise."""

    PAYLOADS = {
        "dict naming another leader": (SHARE, 1, {"leader": 3, "share": Share(np.ones((2, 2), dtype=complex))}),
        "array": (SHARE, 1, np.arange(4.0)),
        "fingerprint": (HASHED_CAL, BROADCAST, HashedCal(np.ones((3, 2)), np.ones(3, dtype=bool))),
    }

    @pytest.mark.parametrize("name", sorted(PAYLOADS))
    def test_filed_and_mutated_under_the_envelope_group(self, name):
        kind, receiver, payload = self.PAYLOADS[name]
        bus = MessageBus(protocol.RoundTranscript())
        forged = np.zeros(2)
        bus.mutations[(kind, 0, receiver, 7)] = lambda sent: forged
        first, second = (bus.send(kind, 0, receiver, payload, group=7) for _ in range(2))
        assert first.payload is forged and second.payload is payload and bus.mutations == {}
        assert bus.take(receiver, kind, 3) == [] and bus.take(receiver, kind) == []
        assert [m.seq for m in bus.take(receiver, kind, 7)] == [0, 1] and bus.inboxes == {}
        exported = [json.loads(line) for line in bus.transcript.export_jsonl().splitlines()]
        assert [(m.group, line["group"]) for m, line in zip(bus.transcript.messages, exported)] == [(7, 7)] * 2

    @pytest.mark.parametrize("key", [
        lambda plan, live: (DECODED_RESULT, SERVER, plan.leader, None),  # the group left off
        lambda plan, live: (SHARE, live[0], live[0], plan.leader),  # a share to oneself stays local
    ])
    def test_mutation_that_hits_no_message_raises(self, key):
        cfg, hit = small_cfg(), []
        adversary = Adversary(2, lambda plan, live: {key(plan, live): lambda payload: hit.append(payload)})
        with pytest.raises(ValueError, match="hit no message"):
            run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=adversary)
        assert hit == []


class TestTamperHitsAMessage:
    """A tamper that would hit no message is refused. Straggler 3 leaves
    groups 0, 1 and 2 (members (1, 3), (3, 0), (3, 0)) with one live member;
    group 3's members (2, 1) are both live."""

    SHAPE = dict(n=4, r=2, k=1, t=0, straggler_ids=frozenset({3}))

    def run(self, kind, leader, **params):
        tamper = threats.inject_tamper(threats.AttackSpec(kind, {"delta": 1e-3, **params}), leader=leader)
        cfg = small_cfg(**self.SHAPE)
        return run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=tamper)

    def test_honest_groups(self):
        _, transcript = run_small(**self.SHAPE)
        assert transcript.topology.groups == {0: [1, 3], 1: [3, 0], 2: [3, 0], 3: [2, 1]}
        assert all(res.verdict == "accept" for res in transcript.group_results.values())

    @pytest.mark.parametrize("leader", [0, 1, 2])
    def test_default_share_tamper_with_one_live_member(self, leader):
        # the lone live member's share to itself never crosses the bus
        with pytest.raises(ValueError, match="hits no message"):
            self.run("share_tamper", leader)

    @pytest.mark.parametrize("params", [{"sender": 3}, {"member": 0}])
    def test_share_tamper_outside_the_live_plan(self, params):
        with pytest.raises(ValueError, match="hits no message"):
            self.run("share_tamper", 3, **params)

    @pytest.mark.parametrize("leader, member", [(0, 3), (3, 0)])
    def test_weight_tamper_on_a_member_that_takes_no_plan(self, leader, member):
        with pytest.raises(ValueError, match="hits no message"):
            self.run("weight_tamper", leader, member=member)

    @pytest.mark.parametrize("kind, leader", [("share_tamper", 3), ("weight_tamper", 0), ("weight_tamper", 1)])
    def test_tamper_on_a_live_member_rejects(self, kind, leader):
        assert self.run(kind, leader).group_results[leader].verdict == "reject"

    def test_unknown_tamper_kind(self):
        # a kind the bus has no mutation for would otherwise pass as honest
        cfg = small_cfg(**self.SHAPE)
        with pytest.raises(ValueError, match="'fry' hits no message"):
            run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=threats.RoundTamper("fry", leader=3))


class TestTamperOnAStraggler:
    """Group 1 of the n=10 round with stragglers {2, 7} has members
    (6, 7, 5, 3): member 7 takes no share, and its weight reaches no view."""

    def run(self, kind, **params):
        tamper = threats.inject_tamper(threats.AttackSpec(kind, {"delta": 1e-3, **params}), leader=1)
        cfg = small_cfg(n=10, r=4, straggler_ids=frozenset({2, 7}))
        return run_round(cfg, workload_provider(cfg, alpha=1.0, samples=150), tamper=tamper)

    def test_group(self):
        _, transcript = tampered_round(None)
        assert transcript.group_results[1].members == (6, 7, 5, 3)
        assert transcript.group_results[1].live_members == (6, 5, 3)

    def test_share_tamper_to_a_straggler(self):
        with pytest.raises(ValueError, match="hits no message"):
            self.run("share_tamper", member=7)

    def test_weight_tamper_on_a_straggler_weight(self):
        with pytest.raises(ValueError, match="hits no message"):
            self.run("weight_tamper", sender=7)

    @pytest.mark.parametrize("kind, params", [("share_tamper", {"member": 5}), ("weight_tamper", {"sender": 5})])
    def test_same_tamper_on_a_live_member_rejects(self, kind, params):
        assert self.run(kind, **params).group_results[1].verdict == "reject"


def horner_oracle(bundles, weights, f_coeffs, grain, k):
    """Per-slot reference: Horner on every slice, then the weighted sum in
    bundle order, rejoined."""
    slices = []
    for slot in range(k):
        acc = None
        for z, bundle in bundles.items():
            value = np.zeros_like(bundle.slices[slot], dtype=complex)
            for c in reversed(list(f_coeffs)):
                value = value * bundle.slices[slot] + c
            term = weights[z] * value.real
            acc = term if acc is None else acc + term
        slices.append(acc)
    return np.sum(slices, axis=0) if grain == "class" else np.concatenate(slices, axis=0)


class TestDegreeOneOracle:
    """The plaintext oracle's running sum gives the same bytes as Horner per
    slot, and no degree-1 run evaluates a polynomial."""

    @pytest.mark.parametrize("grain", ["class", "sample"])
    @pytest.mark.parametrize("deg", [1, 2])
    def test_matches_per_slot_horner(self, grain, deg):
        cfg = RoundConfig(n=8, r=7, k=3, t=1, q=3, d=5, grain=grain, omega=4)
        rng = np.random.default_rng(31)
        group = prepared_group(rng, 7, cfg, -10, 10, weights=rng.uniform(0.05, 0.3, cfg.r))
        weights = dict(zip(group.plan.members, group.plan.weights))
        f_coeffs = protocol.coding.monomial(deg)
        got = protocol._oracle_teacher(group.bundles, weights, f_coeffs, grain, cfg.k)
        ref = horner_oracle(group.bundles, weights, f_coeffs, grain, cfg.k)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_apply_poly_runs_only_above_degree_one(self, monkeypatch):
        calls = []
        horner = protocol.coding.apply_poly
        monkeypatch.setattr(protocol.coding, "apply_poly", lambda c, x: calls.append(len(c)) or horner(c, x))
        run_single_group(6, 2, 1, grain="class", d=4, seed=1)
        run_small()
        assert calls == []
        full_pipeline(seed=1, r=8, k=2, t=1, deg_f=2)
        assert calls and set(calls) == {3}
