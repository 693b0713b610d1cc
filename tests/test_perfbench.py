"""The benchmark's tracer wraps engine functions by name (perfbench/tracing.py);
every site it names must still exist where it looks, or a traced run fails."""

import importlib.util
from pathlib import Path

import pytest

import svafd

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracing_site_resolves():
    sites = load_tracing().sites(svafd)
    names = {name for name, _, _ in sites}
    assert {"protocol.run_round", "protocol.run_single_group", "numerics.relative_error"} <= names
    missing = [name for name, owner, attr in sites if attr not in owner.__dict__]
    assert missing == []


@pytest.mark.parametrize("entry", ["run_round", "run_single_group", "tampered_run_round", "pairing_run_single_group"])
def test_traced_counters_read_the_engine_calls(entry):
    # the counters read positional arguments of the traced calls: take's bus,
    # encode's bundle, local_aggregate's shares and weight view, decode's
    # aggregates and (k, t, deg_f); a tamper is a mutation applied inside
    # MessageBus.send, so every message still passes the one traced send
    protocol = svafd.protocol
    traced = entry.removeprefix("tampered_").removeprefix("pairing_")
    tracer = load_tracing().Tracer()
    backend = svafd.sigcrypto.get_backend("pairing") if entry.startswith("pairing_") else None
    tracer.install(svafd)
    tamper = None
    try:
        if traced == "run_round":
            cfg = protocol.RoundConfig(n=6, r=4, k=2, t=1, d=5, seed=1)
            if entry.startswith("tampered_"):
                spec = svafd.threats.AttackSpec("share_tamper", {"delta": 1e-3})
                tamper = svafd.threats.inject_tamper(spec, leader=0)
            transcript = protocol.run_round(cfg, svafd.workload.workload_provider(cfg, samples=60), tamper=tamper)
        else:
            result = protocol.run_single_group(4, 2, 1, grain="class", d=4, seed=1, backend=backend)
    finally:
        tracer.uninstall()
    assert tracer.calls[f"protocol.{traced}"] == 1
    for counter in ("protocol.bus.take_returned", "coding.encode.bytes", "coding.local_aggregate.bytes",
                    "coding.decode.survivors"):
        assert tracer.count[counter] > 0, counter
    if tamper is not None:
        assert tracer.calls["protocol.MessageBus.send"] == len(transcript.messages)
        assert transcript.group_results[0].verdict == "reject"
    if backend is not None:
        # one full-width power per signer (its key) and one per distinct
        # weight; uniform plan weights give one weight signature, one pairing
        assert result.verdict == "accept"
        assert tracer.calls["sigcrypto.sign_logits"] == 4
        assert tracer.calls["pairing.PairingBackend.g_pow"] == 4 + 1
        assert tracer.calls["pairing.PairingBackend.pair"] == 1
