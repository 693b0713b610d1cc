"""svafd benchmark: closed-loop, single-threaded runs of one workload.

    python3 perfbench/run.py --workload round-population --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the root of a source checkout: the engine is imported from `src/`
of that checkout, never from an installed copy. One caller issues the next op
only after the previous one returns. Inputs are generated from --seed
outside the timed region; every op gets its own derived seed.

--trace 0 reports the end-to-end metrics. --trace 1 spends the first half
of the time untraced and the second half with span wrappers installed, and
reports per-layer metrics plus the tracing overhead. The last line of
standard output is the result object; the line before it holds the run's
detail (environment stamp, op counts, tail, failures, transcript digests).
--workload all runs every workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One process, one thread: cap numpy's BLAS/OpenMP pools before numpy loads
# (through `workloads` below, and in every child process).
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 15
SUBPROCESS_TIMEOUT_S = 170  # one set-up sample
CHILD_TIMEOUT_S = 180       # one workload run

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import svafd
{build}
print(time.perf_counter() - t0)
"""


class SetupError(RuntimeError):
    """The engine cannot be imported from this checkout."""


class NoOpCompleted(RuntimeError):
    """Every op of a run raised, so there is nothing to time."""


def import_engine():
    if not (SRC / "svafd" / "__init__.py").is_file():
        raise SetupError(f"no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import svafd

    if Path(svafd.__file__).resolve().parent != (SRC / "svafd").resolve():
        raise SetupError(f"svafd imported from {svafd.__file__}, not from {SRC}")
    return svafd


class SetupSampler:
    """Set-up samples, each in a fresh interpreter (interpreter start-up
    excluded): import of svafd plus the workload's backend construction.

    The samples are spread evenly over the run's op time, so that they see
    the same drift of machine speed as the ops do; called with the op time
    elapsed so far, it takes every sample that is due.
    """

    def __init__(self, workload: str, seconds: float):
        self.code = SETUP_PROBE.format(src=str(SRC), build=workloads.WORKLOADS[workload].setup_code)
        self.every = seconds / SETUP_SAMPLES
        self.samples = []

    def __call__(self, elapsed: float):
        while len(self.samples) < SETUP_SAMPLES and elapsed >= len(self.samples) * self.every:
            proc = subprocess.run([sys.executable, "-c", self.code], capture_output=True, text=True,
                                  timeout=SUBPROCESS_TIMEOUT_S, check=True)
            self.samples.append(float(proc.stdout.strip().splitlines()[-1]))


def git_sha():
    """Commit of the checkout; None when it is not a git repository of its own."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def env_stamp(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "seed": seed,
    }


def tail(times: list[float]):
    """Highest percentile with at least ten samples beyond it, as
    (percentile, value); None when there are fewer than 11 samples."""
    n = len(times)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(times)[n - 11]


class Loop:
    """Closed loop over ops; stops on a round boundary near the time budget."""

    def __init__(self, wl, tracer=None, between=None):
        self.wl = wl
        self.tracer = tracer
        self.between = between  # called with the op time elapsed, after every op
        self.times, self.failures, self.extras = [], [], []
        self.round_re = []  # worst relative error of each round
        self._re = None     # worst relative error of the current round so far
        self.attempted = self.failed = 0
        self.elapsed = 0.0  # op time, raising ops included

    def run(self, seconds: float, first_op: int) -> int:
        i, round_start = first_op, 0.0
        while True:
            self.one(i)
            i += 1
            if self.between is not None:
                self.between(self.elapsed)
            if (i - first_op) % self.wl.ops_per_round == 0:
                if self._re is not None:
                    self.round_re.append(self._re)
                    self._re = None
                last_round = self.elapsed - round_start
                round_start = self.elapsed
                if self.elapsed + last_round / 2 >= seconds:
                    return i

    def one(self, i: int):
        inputs = self.wl.inputs(i)
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
            self.tracer.install(self.wl.svafd)
        t0 = time.perf_counter()
        try:
            out = self.wl.op(inputs)
        except Exception as exc:  # a raising op is a failed op, not a failed run
            self.failed += 1
            self.failures.append(f"op {i}: {type(exc).__name__}: {exc}")
            return
        finally:
            dt = time.perf_counter() - t0
            self.elapsed += dt
            if self.tracer is not None:
                self.tracer.uninstall()
        self.times.append(dt)
        res = self.wl.check(inputs, out)
        if res.failures:
            self.failed += 1
            self.failures.extend(f"op {i}: {f}" for f in res.failures)
        if res.re_worst is not None:
            self._re = res.re_worst if self._re is None else max(self._re, res.re_worst)
        self.extras.append({"op": i, **res.extra})


def _digits(re: float) -> float:
    return -math.log10(max(re, 1e-300))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    svafd = import_engine()
    setup = None if trace else SetupSampler(name, seconds)
    if setup is not None:
        setup(0.0)  # the first sample is taken before any op
    wl = workloads.WORKLOADS[name](svafd, seed)
    wl.op(wl.inputs(-1))  # warm-up op: lazy imports, allocator and cache warm-up

    plain = Loop(wl, between=setup)
    next_op = plain.run(seconds / 2 if trace else seconds, first_op=0)
    if not plain.times:
        raise NoOpCompleted("; ".join(plain.failures[:3]))
    detail = {
        "workload": name, "shape": wl.shape, "env": env_stamp(seed),
        "ops": len(plain.times), "op_times_s": plain.times,
    }
    loops = [plain]
    if not trace:
        setup(math.inf)  # samples not yet due when the run stopped
        t = tail(plain.times)
        worst = max(plain.round_re) if plain.round_re else None
        metrics = {
            "setup_s": (statistics.median(setup.samples), "s"),
            "op_p50_s": (statistics.median(plain.times), "s"),
            "ops_per_s": (len(plain.times) / sum(plain.times), "1/s"),
            "re_digits": (statistics.median(_digits(r) for r in plain.round_re), "digits"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        detail.update({
            "setup_samples_s": setup.samples,
            "op_tail_s": None if t is None else {"percentile": t[0], "value": t[1], "samples": len(plain.times)},
            "log10_re_worst": None if worst is None else math.log10(max(worst, 1e-300)),
        })
    else:
        import tracing

        tracer = tracing.Tracer()
        traced = Loop(wl, tracer)
        traced.run(seconds / 2, first_op=next_op)
        if not traced.times:
            raise NoOpCompleted("; ".join(traced.failures[:3]))
        loops.append(traced)
        n, secs = len(traced.times), sum(traced.times)
        metrics = tracer.metrics(svafd, n, secs)
        bus = [e for e in traced.extras if "bus_msgs" in e]
        metrics["protocol.bus.msgs"] = (sum(e["bus_msgs"] for e in bus) / n, "count")
        metrics["protocol.bus.bytes"] = (sum(e["bus_bytes"] for e in bus) / n, "B")
        metrics["trace.overhead_ratio"] = (statistics.median(traced.times) / statistics.median(plain.times), "ratio")
        spans = OUT / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(spans)
        detail.update({"traced_ops": n, "spans_file": str(spans.relative_to(ROOT))})

    attempted = sum(lp.attempted for lp in loops)
    failed = sum(lp.failed for lp in loops)
    detail.update({
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "failures": [f for lp in loops for f in lp.failures][:50],
        "transcript_sha256": [[e["op"], e["transcript_sha256"]] for lp in loops for e in lp.extras
                              if "transcript_sha256" in e],
        "tamper_absorbed": [[e["op"], e["tamper_absorbed_group"]] for lp in loops for e in lp.extras
                            if e.get("tamper_absorbed_group") is not None],
    })
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def run_child(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """Run one workload in a process of its own and return its (result, detail)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload."""
    results = {}
    for name in workloads.WORKLOADS:
        try:
            result, detail = run_child(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:
            print(exc)
            return 1
        results[name] = result
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_frac={detail['fail_frac']:.4g}")
        for metric, m in result["metrics"].items():
            print(f"   {metric:48s} {m['value']:.6g} {m['unit']}")
        if not args.trace:
            t = detail["op_tail_s"]
            print("   op_tail_s", "n/a (fewer than 11 ops)" if t is None else
                  f"{t['value']:.6g} s at p{t['percentile']:.1f} of {t['samples']} ops")
            print(f"   log10_re_worst {detail['log10_re_worst']:.4g}")
        for f in detail["failures"][:10]:
            print("   FAIL", f)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"setup failed: {exc}", file=sys.stderr)
        return 2
    except NoOpCompleted as exc:
        print(f"no op completed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
