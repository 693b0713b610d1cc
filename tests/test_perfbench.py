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


@pytest.mark.parametrize("entry", ["run_round", "run_single_group"])
def test_traced_counters_read_the_engine_calls(entry):
    # the counters read positional arguments of the traced calls: take's bus,
    # encode's bundle, local_aggregate's shares and weight view, decode's
    # aggregates and (k, t, deg_f)
    protocol = svafd.protocol
    tracer = load_tracing().Tracer()
    tracer.install(svafd)
    try:
        if entry == "run_round":
            cfg = protocol.RoundConfig(n=6, r=4, k=2, t=1, d=5, seed=1)
            protocol.run_round(cfg, protocol.workload_provider(cfg, samples=60))
        else:
            protocol.run_single_group(4, 2, 1, grain="class", d=4, seed=1)
    finally:
        tracer.uninstall()
    assert tracer.calls[f"protocol.{entry}"] == 1
    for counter in ("protocol.bus.take_returned", "coding.encode.bytes", "coding.local_aggregate.bytes",
                    "coding.decode.survivors"):
        assert tracer.count[counter] > 0, counter
