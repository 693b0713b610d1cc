"""Span tracing of the engine's layers, installed from outside the engine.

Only the traced run installs these wrappers. Each wrapper replaces a name at
the site where the engine looks it up: a module attribute, or a method on its
class. Functions that `coding` imports from `numerics` by name are replaced
in `svafd.coding`, and `relative_error` in `svafd.protocol`.

A span is (name, start, end, parent span id, op id). Spans stay in memory
and are written out when the run ends. The hottest leaves are summed per
parent span instead of kept one by one, which bounds the tracer's overhead
and memory.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

LAYERS = ("filtration", "protocol", "coding", "numerics", "sigcrypto", "pairing")

# leaves called ~10^4-10^5 times per op: summed per (name, parent)
HOT = frozenset({
    "filtration.intimacy", "coding.apply_poly", "protocol.MessageBus.send", "protocol.payload_digest",
})


def sites(svafd):
    """(span name, object whose attribute is replaced, attribute)."""
    import svafd.pairing  # noqa: F401  (not imported by the package itself)

    c, f, p, s, pa = svafd.coding, svafd.filtration, svafd.protocol, svafd.sigcrypto, svafd.pairing
    out = [(f"filtration.{a}", f, a) for a in (
        "compute_cal", "lsh_project", "intimacy_list", "intimacy", "select_group", "build_topology")]
    out += [
        ("protocol.MessageBus.send", p.MessageBus, "send"),
        ("protocol.MessageBus.take", p.MessageBus, "take"),
        ("protocol.RoundTranscript.export_jsonl", p.RoundTranscript, "export_jsonl"),
        ("protocol.payload_digest", p, "payload_digest"),
        ("protocol.run_round", p, "run_round"),
        ("protocol.run_single_group", p, "run_single_group"),
    ]
    out += [(f"coding.{a}", c, a) for a in (
        "quantize", "split", "blind", "make_group_plan", "encode", "local_aggregate", "apply_poly",
        "decode", "deblind_and_join")]
    out += [(f"numerics.{a}", c, a) for a in ("make_nodes", "lagrange_matrix", "interpolate")]
    out += [("numerics.relative_error", p, "relative_error")]
    out += [(f"sigcrypto.{a}", s, a) for a in (
        "gen_key", "digest", "sign_logits", "sign_weights", "aggregate_proof", "verify")]
    out += [(f"pairing.PairingBackend.{a}", pa.PairingBackend, a) for a in (
        "pair", "g_pow", "g_mul", "gt_mul", "gt_pow")]
    out += [("pairing.tate_pairing", pa, "tate_pairing")]
    return out


# Counters taken at a span's boundary, from its arguments and result. They
# run after the span's end time is read.
def _take_counts(tracer, args, kwargs, result):
    bus, receiver = args[0], args[1]
    tracer.count["protocol.bus.take_returned"] += len(result)
    tracer.count["protocol.bus.take_scanned"] += len(result) + len(bus.inboxes.get(receiver, []))


def _encode_counts(tracer, args, kwargs, result):
    bundle = args[0]
    blocks = bundle.slices.shape[0] + bundle.noise.shape[0]
    cells = bundle.slices[0].size if bundle.slices.shape[0] else 0
    tracer.count["coding.encode.bytes"] += blocks * cells * 16 + sum(sh.payload.nbytes for sh in result)


def _aggregate_counts(tracer, args, kwargs, result):
    received, weights = args[0], args[1]
    tracer.count["coding.local_aggregate.bytes"] += (
        sum(sh.payload.nbytes for sh in received)
        + sum(w.nbytes for w in weights.values())
        + result.payload.nbytes
    )


def _decode_counts(tracer, args, kwargs, result):
    aggregates, _, k, t, deg_f = args[:5]
    tracer.count["coding.decode.survivors"] += len(aggregates)
    tracer.count["coding.decode.threshold"] += deg_f * (k + t - 1) + 1


COUNTERS = {
    "protocol.MessageBus.take": _take_counts,
    "coding.encode": _encode_counts,
    "coding.local_aggregate": _aggregate_counts,
    "coding.decode": _decode_counts,
}


class Tracer:
    def __init__(self):
        self.spans = []                                   # (id, name, start, end, parent, op)
        self.hot = defaultdict(lambda: [0, 0.0])          # (name, parent id, op) -> [calls, seconds]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.op = None
        self._stack = []                                  # [span id, child seconds] per open span
        self._next_id = 0
        self._saved = []

    def _wrap(self, name, fn):
        hot = name in HOT
        counter = COUNTERS.get(name)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                parent_id = None if parent is None else parent[0]
                if hot:
                    agg = self.hot[(name, parent_id, self.op)]
                    agg[0] += 1
                    agg[1] += dur
                else:
                    self.spans.append((frame[0], name, start, end, parent_id, self.op))
            if counter is not None:
                counter(self, args, kwargs, result)
            return result

        return traced

    def install(self, svafd):
        for name, owner, attr in sites(svafd):
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path):
        """Spans as JSON lines; hot leaves as one line per (name, parent, op)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for sid, name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
            for (name, parent, op), (calls, secs) in self.hot.items():
                fh.write(json.dumps({"name": name, "parent": parent, "op": op,
                                     "calls": calls, "total_s": secs}) + "\n")

    def metrics(self, svafd, ops: int, op_seconds: float) -> dict:
        """Per-layer metrics, as means per op, over `ops` traced ops that took
        `op_seconds` in all."""
        out = {}
        layer_s = dict.fromkeys(LAYERS, 0.0)
        for name, _, _ in sites(svafd):
            out[f"{name}.calls"] = (self.calls[name] / ops, "count")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s")
            layer_s[name.split(".")[0]] += self.self_s[name]
        for layer, secs in layer_s.items():
            out[f"layer.{layer}.share"] = (secs / op_seconds, "ratio")
        c = self.count
        out["protocol.bus.take_useful_ratio"] = (
            c["protocol.bus.take_returned"] / c["protocol.bus.take_scanned"] if c["protocol.bus.take_scanned"] else 0.0,
            "ratio")
        out["coding.encode.bytes"] = (c["coding.encode.bytes"] / ops, "B")
        out["coding.local_aggregate.bytes"] = (c["coding.local_aggregate.bytes"] / ops, "B")
        out["coding.decode.survivors_over_threshold"] = (
            c["coding.decode.survivors"] / c["coding.decode.threshold"] if c["coding.decode.threshold"] else 0.0,
            "ratio")
        out["trace.unattributed_s"] = ((op_seconds - sum(layer_s.values())) / ops, "s")
        return out
