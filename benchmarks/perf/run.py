#!/usr/bin/env python3
"""Perf ledger runner: four workloads, end-to-end metrics, per-layer trace.

Two ways to call it, both from the repository root:

``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this interpreter (the ``BENCHMARK.json``
    contract).  ``--trace 0`` is the *timed* run: tracing off, the
    end-to-end metrics.  ``--trace 1`` is the *traced* run: spans around
    the layer calls, then 3 ops counted under ``InstrumentedBackend``;
    it reports the per-layer metrics.  The last stdout line is the
    result object.

``python3 benchmarks/perf/run.py [--seed N] [--seconds S] [--repeats R] [--out FILE]``
    The ledger: every workload timed (``R`` times) and traced, each run
    in its own fresh interpreter, one at a time, then written to
    ``FILE`` with an environment fingerprint (and the span dump next to
    it).  ``--smoke`` shrinks every shape for the smoke test.

See README.md in this directory for what each number means.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread, set before numpy loads: the box has two shared cores
# and a second BLAS thread only adds scheduling noise.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import statistics
import subprocess
import time
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

# Below the thread pinning and the path set-up on purpose.
import numpy  # noqa: E402

from perf_hostref import HostReference  # noqa: E402
from perf_metrics import (  # noqa: E402
    END_TO_END,
    LEDGER_END_TO_END,
    PER_LAYER,
    ZONES,
    quartiles,
)
from perf_tracer import IDLE, Tracer  # noqa: E402
from perf_workloads import FULL, MIN_OPS, SMOKE, WORKLOADS  # noqa: E402
from repro.backend import (  # noqa: E402
    InstrumentedBackend,
    get_plan_cache,
    use_backend,
)
from repro.system.devices import calibrate_host  # noqa: E402
from repro.utils.timer import percentiles  # noqa: E402

#: Times the whole set-up is repeated in a timed run (median reported).
SETUP_REPEATS = 3
#: Untraced ops a traced run starts with; its first traced ops repeat them.
PLAIN_OPS = 5
MIN_TRACED_OPS = 10
COUNTED_OPS = 3
FAULTS = ("nan_loss", "twin_drift", "dropped_request", "perturbed_prediction")


def pin_allocator() -> bool:
    """Keep freed memory inside the process (glibc only).

    Every training step allocates and frees tens of MB of temporaries.
    By default glibc mmaps and unmaps them, so each step re-faults its
    pages from the hypervisor: 0.03-1.6 s of *sys* time per 0.55 s step
    on this box, at random.  With the mmap threshold raised and trimming
    off, the heap is faulted in once during warm-up and reused.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
        ok = libc.mallopt(m_mmap_threshold, 1 << 30) or libc.mallopt(
            m_mmap_threshold, 32 << 20
        )
        ok = libc.mallopt(m_trim_threshold, 1 << 30) and ok
        ok = libc.mallopt(m_top_pad, 64 << 20) and ok
        return bool(ok)
    except (OSError, AttributeError):
        return False


def _cpu() -> float:
    return time.process_time()


def peak_rss_mb() -> float:
    """Peak resident set of this interpreter.

    ``VmHWM`` where /proc has it: ``ru_maxrss`` survives ``exec``, so a
    child would report its parent's peak if that was larger.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def op_count(cls: Any, seconds: float, smoke: bool) -> int:
    """Timed ops for a run of about ``seconds``: a fixed count, not a timer.

    The count depends only on ``--seconds`` and the workload's nominal
    op time, so two commits run the same ops on the same inputs and
    every exact metric (losses, counts, SimClock latencies) is
    comparable.
    """
    if smoke:
        return 3
    return max(MIN_OPS, min(cls.full_ops, round(seconds / cls.nominal_op_s)))


# ----------------------------------------------------------------------
# one run, in this interpreter
# ----------------------------------------------------------------------
class OpTimes:
    """Per-op times of one stretch of ops, plus host-reference samples."""

    def __init__(self) -> None:
        self.cpu_s: List[float] = []
        self.wall_s: List[float] = []
        #: Host-reference CPU seconds: one sample before the first op
        #: and one after every op.
        self.ref_s: List[float] = []

    @property
    def scale(self) -> float:
        """Factor turning this stretch's CPU times into normalised times.

        One factor per stretch, from the median reference sample: one
        sample is itself a few percent noisy, ten or twenty are not.
        """
        return HostReference.NOMINAL_S / _median(self.ref_s)

    @property
    def norm_s(self) -> List[float]:
        scale = self.scale
        return [c * scale for c in self.cpu_s]


def _run_ops(
    workload: Any,
    indices: Sequence[int],
    tracer: Any = None,
    ref: Any = None,
    after: Sequence[str] = (),
) -> OpTimes:
    """Run ops one by one, timing each (and the host reference around it).

    With a ``tracer`` every op is recorded under its own root span.
    ``after`` names workload hooks (``check_op``, ``observe``) to call,
    untimed, once each op is done.
    """
    times = OpTimes()
    if ref is not None:
        times.ref_s.append(ref.sample())
    for i in indices:
        w0, c0 = time.perf_counter(), _cpu()
        if tracer is None:
            workload.run_op(i, IDLE)
        else:
            with tracer.op(i):
                workload.run_op(i, tracer)
        times.cpu_s.append(_cpu() - c0)
        times.wall_s.append(time.perf_counter() - w0)
        if ref is not None:
            times.ref_s.append(ref.sample())
        for hook in after:
            getattr(workload, hook)(i)
    return times


def timed_run(cls: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Tracing off: set-up (x3), warm-up, timed ops, output checks."""
    shape = SMOKE if args.smoke else FULL
    ops = op_count(cls, args.seconds, args.smoke)
    total = cls.warmup_ops + ops
    ref = HostReference()
    setup_s: List[float] = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # drop the previous system before building the next
        gc.collect()
        c0 = _cpu()
        workload = cls(args.seed, shape, total, fault=args.fault)
        workload.build()
        _run_ops(workload, [0])
        raw = _cpu() - c0
        setup_s.append(raw * HostReference.NOMINAL_S / ref.sample())
    _run_ops(workload, range(1, cls.warmup_ops))
    gc.collect()
    timed = range(cls.warmup_ops, total)
    times = _run_ops(workload, timed, ref=ref, after=("check_op",))
    attempted, failed = workload.verify(timed)
    p50 = _median(times.norm_s)
    metrics = {
        "setup_s": _median(setup_s),
        "op_ms_p50": p50 * 1e3,
        "samples_per_s": workload.samples_per_op / p50,
        "peak_rss_mb": peak_rss_mb(),
    }
    ledger = {"fail_ratio": failed / attempted}
    ledger.update(workload.ledger_end_to_end(timed))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "problems": workload.problems,
        "detail": {
            "ops": ops,
            "warmup_ops": cls.warmup_ops,
            "samples_per_op": workload.samples_per_op,
            "op_ms": [c * 1e3 for c in times.norm_s],
            "op_raw_cpu_ms": [c * 1e3 for c in times.cpu_s],
            "op_wall_ms": [w * 1e3 for w in times.wall_s],
            "host_ref_ms": [r * 1e3 for r in times.ref_s],
            "setup_s": setup_s,
            "signatures": [workload.signatures[i] for i in timed],
            "ledger_end_to_end": ledger,
        },
    }


#: per-layer metric -> span whose per-op total (divided by the op's
#: steps, median over ops) it reports
PER_STEP_SPANS = {
    "embeddings.fwd_ms": "embeddings.fwd",
    "embeddings.bwd_ms": "embeddings.bwd",
    "embeddings.step_ms": "embeddings.step",
    "embeddings.cache.sync_ms": "embeddings.cache",
    "nn.mlp_fwd_ms": "nn.mlp_fwd",
    "nn.mlp_bwd_ms": "nn.mlp_bwd",
    "nn.interaction_fwd_ms": "nn.interaction_fwd",
    "nn.interaction_bwd_ms": "nn.interaction_bwd",
    "nn.loss_ms": "nn.loss",
    "nn.optim_ms": "nn.optim",
    "models.train_step_ms": "models.train_step",
    "models.self_ms": "models.train_step.self",
    "sharding.gather_ms": "sharding.gather",
    "sharding.apply_ms": "sharding.apply",
    "system.queue_ms": "system.queue",
}
#: per-layer metric -> span whose median duration per call it reports
PER_CALL_SPANS = {
    "data.batch_ms": "data.batch",
    "models.materialize_ms": "models.materialize",
    "embeddings.hotrow.build_ms": "embeddings.hotrow.build",
    "serving.predict_ms_per_batch": "serving.predict",
}
#: derived rate -> (counted zone, traced per-step metrics it ran in)
GFLOPS_PER_S = {
    "embeddings.fwd_gflops_per_s": ("efftt_forward", ("embeddings.fwd_ms",)),
    "embeddings.bwd_gflops_per_s": ("efftt_backward", ("embeddings.bwd_ms",)),
    "nn.mlp_gflops_per_s": ("mlp", ("nn.mlp_fwd_ms", "nn.mlp_bwd_ms")),
    "nn.interaction_gflops_per_s": (
        "interaction",
        ("nn.interaction_fwd_ms", "nn.interaction_bwd_ms"),
    ),
}


def traced_run(cls: Any, args: argparse.Namespace) -> Dict[str, Any]:
    """Plain ops, the same ops traced on a twin, then counted ops."""
    shape = SMOKE if args.smoke else FULL
    plain_n = 2 if args.smoke else PLAIN_OPS
    traced_n = (
        3 if args.smoke
        else max(MIN_TRACED_OPS, op_count(cls, args.seconds, False) // 2)
    )
    first = cls.warmup_ops
    traced = range(first, first + traced_n)
    extra_op = first + traced_n
    counted = range(extra_op + 1, extra_op + 1 + COUNTED_OPS)
    ref = HostReference()

    workload = cls(args.seed, shape, counted[-1] + 1, fault=args.fault)
    workload.build()
    _run_ops(workload, [0])
    warmup = _run_ops(workload, range(1, first), ref=ref)
    gc.collect()

    # The twin starts from the same state, so the plain ops and the
    # first traced ops do identical work: their ratio is the overhead and
    # their results must agree to the last bit.
    twin = workload.twin()
    plain = _run_ops(workload, traced[:plain_n], ref=ref)
    plain_signature = workload.signatures[traced[plain_n - 1]]
    if twin is not workload:
        del workload
        gc.collect()

    tracer = Tracer()
    twin.install(tracer)
    times = _run_ops(twin, traced, tracer, ref=ref, after=("check_op", "observe"))
    loss_absdiff = abs(twin.signatures[traced[plain_n - 1]] - plain_signature)
    extra = twin.extra_traced(tracer, extra_op)
    tracer.uninstall()

    plan_cache = get_plan_cache()
    hits0, misses0 = plan_cache.hits, plan_cache.misses
    with use_backend(InstrumentedBackend()) as counting:
        _run_ops(twin, counted)
    plan_hits = plan_cache.hits - hits0
    plan_misses = plan_cache.misses - misses0

    attempted, failed = twin.verify(traced)

    # -- assemble the per-layer metrics --------------------------------
    totals = tracer.op_totals()
    steps = cls.steps_per_op
    scale = times.scale
    norm_s = times.norm_s

    def per_step_ms(span: str) -> float:
        per_op = _median([totals[i].get(span, 0.0) for i in traced])
        return per_op * scale / steps * 1e3

    def per_call_ms(span: str) -> float:
        calls = [d for i in traced for d in tracer.durations(span, op=i)]
        return _median(calls) * scale * 1e3

    op_total = sum(totals[i]["run.op"] for i in traced)
    unnamed = sum(
        totals[i]["run.op.self"] + totals[i].get("models.train_step.self", 0.0)
        for i in traced
    )
    values: Dict[str, float] = {m.name: 0.0 for m in PER_LAYER}
    values.update(
        {
            "run.op_ms_p75": percentiles(norm_s, qs=(75.0,))[75.0] * 1e3,
            "run.op_ms_max": max(norm_s) * 1e3,
            "run.op_raw_ms_p50": _median(times.cpu_s) * 1e3,
            "run.op_wall_ms_p50": _median(times.wall_s) * 1e3,
            "run.host_slowdown": 1.0 / scale,
            "run.steal_ratio": sum(times.wall_s) / sum(times.cpu_s) - 1.0,
            "run.wall_s": sum(times.wall_s),
            "run.ops": float(traced_n),
            "run.warmup_s": sum(warmup.norm_s),
            "run.trace_overhead_ratio": _median(norm_s[:plain_n])
            / _median(plain.norm_s) - 1.0,
            "run.trace_loss_absdiff": loss_absdiff,
            "run.named_coverage_ratio": 1.0 - unnamed / op_total,
            "data.batch_calls_per_step": sum(
                len(tracer.durations("data.batch", op=i)) for i in traced
            ) / (traced_n * steps),
            "serving.predict_share": sum(
                totals[i].get("serving.predict", 0.0) for i in traced
            ) / op_total,
        }
    )
    for name, span in PER_STEP_SPANS.items():
        values[name] = per_step_ms(span)
    for name, span in PER_CALL_SPANS.items():
        values[name] = per_call_ms(span)
    if cls.root_self_metric is not None:
        values[cls.root_self_metric] = per_step_ms("run.op.self")
    for zone in ZONES:
        stats = counting.zone_stats.get(zone)
        if stats is not None:
            values[f"backend.{zone}.gflop"] = stats.flops / COUNTED_OPS / 1e9
            values[f"backend.{zone}.mbytes"] = stats.bytes / COUNTED_OPS / 1e6
    values["backend.calls"] = counting.totals().calls / COUNTED_OPS
    if plan_hits + plan_misses:
        values["backend.plan_cache.hit_ratio"] = plan_hits / (plan_hits + plan_misses)
    for name, (zone, spans) in GFLOPS_PER_S.items():
        seconds = sum(values[s] for s in spans) * steps / 1e3
        if seconds > 0.0:
            values[name] = values[f"backend.{zone}.gflop"] / seconds
    # Times the workload measured itself are raw; bring them to the same unit.
    kinds = {m.name: m.kind for m in PER_LAYER}
    for name, value in {**twin.layer_metrics(traced), **extra}.items():
        values[name] = value * scale if kinds.get(name) == "cpu" else value
    unknown = set(values) - {m.name for m in PER_LAYER}
    if unknown:
        raise KeyError(f"per-layer metrics missing from the catalogue: {unknown}")

    if args.spans:
        fields, spans = tracer.dump()
        with open(args.spans, "w") as handle:
            json.dump(
                {"workload": cls.name, "seed": args.seed, "fields": fields,
                 "spans": spans},
                handle,
                separators=(",", ":"),
            )
    return {
        "metrics": values,
        "attempted": attempted,
        "failed": failed,
        "problems": twin.problems,
        "detail": {
            "ops": traced_n,
            "plain_ops": plain_n,
            "counted_ops": COUNTED_OPS,
            "op_ms": [c * 1e3 for c in norm_s],
            "plain_op_ms": [c * 1e3 for c in plain.norm_s],
            "host_ref_ms": [r * 1e3 for r in times.ref_s],
            "span_count": len(tracer.spans),
            "op_self_ms": per_step_ms("run.op.self") * steps,
        },
    }


def run_single(args: argparse.Namespace) -> int:
    """Contract mode: one workload, one run; last line is the result."""
    pinned = pin_allocator()
    cls = WORKLOADS.get(args.workload)
    if cls is None:
        sys.stderr.write(
            f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}\n"
        )
        return 2
    catalogue = PER_LAYER if args.trace else END_TO_END
    result = (traced_run if args.trace else timed_run)(cls, args)
    mode = "traced" if args.trace else "timed"
    print(
        f"# {cls.name} [{mode}] seed={args.seed} ops={result['detail']['ops']} "
        f"blas_threads=1 allocator_pinned={pinned}"
    )
    units = {}
    for metric in catalogue:
        value = result["metrics"][metric.name]
        units[metric.name] = {"value": value, "unit": metric.unit}
        print(f"{metric.name:<40} {value:>16.6f} {metric.unit:<8} [{metric.kind}]")
    for name, value in result["detail"].get("ledger_end_to_end", {}).items():
        print(f"{name:<40} {value:>16.6f} (ledger)")
    for problem in result["problems"]:
        print(f"CHECK FAILED: {problem}")
    correct = result["failed"] == 0 and not result["problems"]
    failed = result["failed"] + len(result["problems"])
    print(f"checks: attempted={result['attempted']} failed={failed} correct={correct}")
    result["detail"].update(
        {"workload": cls.name, "mode": mode, "allocator_pinned": pinned,
         "problems": result["problems"]}
    )
    print("DETAIL " + json.dumps(result["detail"]))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": min(failed, result["attempted"]),
                "metrics": units,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the ledger: every workload, each run in a fresh interpreter
# ----------------------------------------------------------------------
def fingerprint(seed: int) -> Dict[str, Any]:
    """Where and on what the numbers were taken."""
    def git(*argv: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", *argv], cwd=REPO, capture_output=True, text=True, timeout=30
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    host = calibrate_host()
    return {
        "git_sha": sha or "unknown",
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "cpu_model": cpu_model,
        "nproc": os.cpu_count(),
        "blas_threads": 1,
        "allocator_pinned": pin_allocator(),
        "seed": seed,
        "host.gemm_gflops": host.gemm_gflops,
        "host.gather_gbps": host.gather_gbps,
    }


def _child(args: argparse.Namespace, workload: str, trace: int, spans: Optional[str]):
    """Run one workload in a fresh interpreter; return (result, detail)."""
    argv = [
        sys.executable, os.path.abspath(__file__),
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        argv.append("--smoke")
    if spans:
        argv += ["--spans", spans]
    done = subprocess.run(argv, cwd=REPO, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    for line in lines[:-2]:
        print("  " + line)
    if done.returncode != 0 or len(lines) < 2:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} (trace={trace}) exited {done.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2][len("DETAIL "):])


def run_ledger(args: argparse.Namespace) -> int:
    out = args.out or os.path.join(HERE, "out", f"ledger_seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    spans_base = os.path.splitext(out)[0]
    ledger: Dict[str, Any] = {
        "schema": "perf-ledger/1",
        "args": {"seed": args.seed, "seconds": args.seconds,
                 "repeats": args.repeats, "smoke": args.smoke},
        "fingerprint": fingerprint(args.seed),
        "workloads": {},
    }
    all_correct = True
    for name, cls in WORKLOADS.items():
        print(f"== {name}: {cls.why}")
        timed = [_child(args, name, 0, None) for _ in range(args.repeats)]
        traced, traced_detail = _child(
            args, name, 1, f"{spans_base}.spans.{name}.json"
        )
        end_to_end: Dict[str, Any] = {}
        for metric in END_TO_END + LEDGER_END_TO_END:
            if metric in END_TO_END:
                runs = [r["metrics"][metric.name]["value"] for r, _ in timed]
            else:
                runs = [
                    d["ledger_end_to_end"][metric.name]
                    for _, d in timed
                    if metric.name in d["ledger_end_to_end"]
                ]
            if runs:
                end_to_end[metric.name] = {
                    "unit": metric.unit, "better": metric.better,
                    "bound": metric.bound, "kind": metric.kind,
                    "runs": runs, **quartiles(runs),
                }
        first_detail = timed[0][1]
        correct = all(r["correct"] for r, _ in timed) and traced["correct"]
        all_correct = all_correct and correct
        kinds = {m.name: m.kind for m in PER_LAYER}
        ledger["workloads"][name] = {
            "why": cls.why,
            "correct": correct,
            "attempted": sum(r["attempted"] for r, _ in timed),
            "failed": sum(r["failed"] for r, _ in timed),
            "problems": [p for _, d in timed for p in d["problems"]]
            + traced_detail["problems"],
            "timed": {k: first_detail[k] for k in
                      ("ops", "warmup_ops", "samples_per_op", "op_ms", "op_raw_cpu_ms",
                       "op_wall_ms", "host_ref_ms", "setup_s", "signatures")},
            "traced": {k: traced_detail[k] for k in
                       ("ops", "plain_ops", "counted_ops", "span_count", "op_self_ms")},
            "end_to_end": end_to_end,
            "per_layer": {
                k: {**v, "kind": kinds[k]} for k, v in traced["metrics"].items()
            },
        }
    with open(out, "w") as handle:
        json.dump(ledger, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"ledger written to {os.path.relpath(out, os.getcwd())}")
    for name, entry in ledger["workloads"].items():
        row = "  ".join(
            f"{k}={v['median']:.6g}{v['unit']}" for k, v in entry["end_to_end"].items()
        )
        print(f"{name:<16} {'ok' if entry['correct'] else 'FAILED'}  {row}")
    return 0 if all_correct else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this one workload in-process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=None,
        help="length of the timed region (default: 10 per run, 35 for the ledger)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeats", type=int, default=1,
                        help="ledger: timed runs per workload")
    parser.add_argument("--out", help="ledger: result file")
    parser.add_argument("--spans", help="traced run: write the span dump here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, 3 ops (the smoke test)")
    parser.add_argument("--fault", choices=FAULTS,
                        help="with --workload: plant a fault in the observed "
                             "outputs so a check must fail (smoke test)")
    args = parser.parse_args(argv)
    if args.workload is not None:
        if args.seconds is None:
            args.seconds = 10.0
        return run_single(args)
    if args.seconds is None:
        args.seconds = 35.0
    return run_ledger(args)


if __name__ == "__main__":
    sys.exit(main())
