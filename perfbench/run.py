"""Deck-to-map benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed.
``--trace 1`` measures the same phases twice on one service, first
untraced and then with every layer wrapped, and reports the per-layer
metrics, the traced run's unattributed remainder and the tracing
overhead.  Every served map is checked bit-for-bit against a direct
``IRPredictor.predict_case``; a mismatch is a failed operation and the
exit code is 1.

The last line of standard output is the JSON result; the lines before
it give each metric with its unit and the provenance stamp.  See
``perfbench/README.md`` for the workloads and how to read the trace.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Layers reported as mean self time per call, in milliseconds.
LAYER_MS = {
    "spice.parse_ms": "spice.parse",
    "spice.validate_ms": "spice.validate",
    "ingest.classify_ms": "ingest.classify",
    "spice.statistics_ms": "spice.statistics",
    "solver.assemble_ms": "solver.assemble",
    "solver.solve_ms": "solver.solve",
    "solver.rasterize_ms": "solver.rasterize",
    "features.maps_ms": "features.maps",
    "prep.prepare_ms": "prep.prepare",
    "pointcloud.fit_ms": "pointcloud.fit",
    "serve.guard_ms": "serve.guard",
}

#: Layers that run inside the worker: invisible with process workers.
IN_WORKER = ("prep.prepare_ms", "pointcloud.fit_ms", "prep.cache_hit_ratio",
             "infer.run_ms_per_case", "infer.plans_compiled")


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q)) \
        if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


def window_median(phase, q: float) -> float:
    """The median over the phase's windows of each window's ``q``-th
    latency percentile."""
    return median([percentile(w, q) for w in phase.windows])


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


# ----------------------------------------------------------------------
def end_to_end(workload, setups, phases) -> dict:
    # deck_to_map has one closed-loop client and no loaded phase: its
    # loaded figures repeat the light ones
    light = phases["light"]
    loaded = phases.get("loaded", light)
    rates = (light if workload.decks else phases["burst"]).rates
    return {
        "setup_s": (median([s["setup_s"] for s in setups]), "s"),
        "latency_p50_ms": (window_median(light, 50), "ms"),
        "latency_p90_ms": (window_median(light, 90), "ms"),
        "loaded_latency_p50_ms": (window_median(loaded, 50), "ms"),
        "loaded_latency_p90_ms": (window_median(loaded, 90), "ms"),
        "throughput_per_s": (median(rates), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def unattributed_fraction(workload, phase, tracer) -> float:
    """Share of the light phase's end-to-end time outside every layer.

    Per request, the attributed time is its queue wait (from the
    ``ServeResult``) plus the time a layer span covers on the threads
    the request waits on: the client thread while it ingests a deck, and
    the serving worker thread from dispatch to fulfilment.  Process
    workers are opaque, so their TAT and transport (both from the
    ``ServeResult``) are attributed whole.
    """
    from tracer import covered

    top = tracer.top_level()
    total = unattributed = 0.0
    for served in phase.served:
        result = served.result
        attributed = result.queue_seconds
        dispatched = served.sent + result.queue_seconds
        if workload.decks:
            attributed += covered(top.get(served.thread), served.start,
                                  served.sent)
        if workload.worker_kind == "process":
            completed = served.sent + result.latency_seconds
            attributed += result.latency_seconds - result.queue_seconds
            attributed += covered(top.get("repro-serve-monitor"),
                                  completed, served.done)
        else:
            attributed += covered(top.get(f"repro-serve-{result.worker}"),
                                  dispatched, served.done)
        # open-loop generator lateness (due -> sent) is reported on its own
        e2e = served.done - (served.start if workload.decks else served.sent)
        total += e2e
        unattributed += max(0.0, e2e - attributed)
    return unattributed / total if total else 0.0


def per_layer(workload, setups, untraced, traced, tracer) -> dict:
    metrics = {}
    for metric, layer in LAYER_MS.items():
        calls, seconds = tracer.layer_self(layer)
        metrics[metric] = (seconds / calls * 1e3 if calls else 0.0, "ms")
    lookups = tracer.counts.get("prep.cache_lookups", 0)
    metrics["prep.cache_hit_ratio"] = (
        tracer.counts.get("prep.cache_hits", 0) / lookups if lookups else 0.0,
        "ratio")
    _, run_s = tracer.layer_self("infer.run")
    cases = tracer.counts.get("infer.cases", 0)
    metrics["infer.run_ms_per_case"] = (
        run_s / cases * 1e3 if cases else 0.0, "ms")
    metrics["infer.plans_compiled"] = (
        float(tracer.layer_self("infer.compile")[0]), "count")

    light = traced["light"]
    loaded = traced.get("loaded", light)
    results = [s.result for s in light.served]
    metrics["core.tat_p50_ms"] = (
        percentile([r.tat_seconds * 1e3 for r in results], 50), "ms")
    waits = [s.result.queue_seconds * 1e3 for s in loaded.served]
    metrics["serve.queue_wait_p50_ms"] = (percentile(waits, 50), "ms")
    metrics["serve.queue_wait_p90_ms"] = (percentile(waits, 90), "ms")
    metrics["serve.transport_p50_ms"] = (percentile(
        [(r.latency_seconds - r.queue_seconds - r.tat_seconds) * 1e3
         for r in results], 50), "ms")
    batched = traced.get("burst", light)
    metrics["serve.batch_size_mean"] = (
        float(sum(s.result.batch_size for s in batched.served))
        / max(1, len(batched.served)), "cases")
    for count in ("rejected", "shed", "failed", "expired"):
        metrics[f"serve.{count}"] = (
            float(sum(getattr(p, count) for p in traced.values())), "count")
    lateness = [(s.sent - s.start) * 1e3 for p in (light, loaded)
                for s in p.served] if not workload.decks else []
    metrics["loadgen.late_p90_ms"] = (percentile(lateness, 90), "ms")
    for key in ("model_build_s", "prep_fit_s", "service_start_s",
                "warmup_s"):
        metrics[f"setup.{key}"] = (median([s[key] for s in setups]), "s")
    wall = sum(p.duration_s for p in traced.values())
    metrics["gc.pause_fraction"] = (
        tracer.gc_seconds / wall if wall else 0.0, "fraction")
    metrics["trace.unattributed_fraction"] = (
        unattributed_fraction(workload, light, tracer), "fraction")
    before = untraced["light"].latencies_ms()
    after = light.latencies_ms()
    metrics["trace.overhead_fraction"] = (
        float(after.mean() / before.mean() - 1.0)
        if len(before) and len(after) else 0.0, "fraction")
    return metrics


# ----------------------------------------------------------------------
def run(args) -> int:
    import provenance
    import workloads
    from tracer import Tracer, install_layers

    workload = workloads.WORKLOADS[args.workload]
    cpu_before = provenance.cpu_times()
    inputs = workloads.make_inputs(workload, args.seed)

    setup_tracer = Tracer()
    prep_fit = workloads.prep_fit_clock(setup_tracer) if args.trace else None
    setups = []
    service = None
    try:
        for _ in range(workload.setups):
            if service is not None:
                service.stop()
                service = None
                gc.collect()   # free the previous set-up before the next
            service, spec, timings = workloads.set_up(workload, inputs,
                                                      prep_fit)
            setups.append(timings)
        setup_tracer.restore()
        parity = workloads.Parity(spec, inputs)
        passes = [workloads.measure(workload, service, inputs, args.seconds,
                                    parity.check, light_only=bool(args.trace))]
        if args.trace:
            tracer = Tracer()

            def untraced_check(part):
                tracer.restore()
                parity.check(part)
                install_layers(tracer)

            install_layers(tracer)
            try:
                passes.append(workloads.measure(workload, service, inputs,
                                                args.seconds, untraced_check))
            finally:
                tracer.restore()
    finally:
        setup_tracer.restore()
        if service is not None:
            service.stop()

    mismatches = parity.mismatches
    if args.trace:
        metrics = per_layer(workload, setups, passes[0], passes[1], tracer)
    else:
        metrics = end_to_end(workload, setups, passes[0])

    attempted = sum(p.offered for phases in passes for p in phases.values())
    failed = mismatches + sum(p.not_served for phases in passes
                              for p in phases.values())
    stamp = provenance.stamp(ROOT, workloads.serve_config(workload))
    stamp.update(workload=workload.name, seed=args.seed,
                 seconds=args.seconds, trace=bool(args.trace),
                 parity_mismatches=mismatches,
                 cpu_steal_fraction=provenance.steal_fraction(
                     cpu_before, provenance.cpu_times()))

    for phases in passes:
        for phase in phases.values():
            print(f"phase {phase.name}: offered={phase.offered} "
                  f"served={len(phase.served)} rejected={phase.rejected} "
                  f"shed={phase.shed} failed={phase.failed} "
                  f"expired={phase.expired} "
                  f"duration={phase.duration_s:.2f}s")
            for line in phase.errors[:5]:
                print(f"  error: {line}")
    for name, (value, unit) in metrics.items():
        note = ("  (not observable: runs inside process workers)"
                if args.trace and workload.worker_kind == "process"
                and name in IN_WORKER else "")
        print(f"{name:32s} {value:14.4f} {unit}{note}")
    print(f"parity: {parity.checked} served maps checked against direct "
          f"predict_case, {mismatches} mismatches")
    print("provenance: " + json.dumps(stamp, sort_keys=True))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if mismatches == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # One BLAS thread unless the environment says otherwise: on a shared
    # 2-CPU host, two OpenBLAS threads wait on each other whenever the
    # host takes a CPU away, and a run's latencies double.  It must be
    # set before numpy loads.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        import repro  # noqa: F401  (the program under test)
    except ImportError as error:
        print(f"cannot import the program from {ROOT}/src: {error}",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
