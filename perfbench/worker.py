"""One fresh interpreter of the benchmark: a set-up sample, or a timed run.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS TRACE

Both roles time their own set-up from the first line of this file:
``import repro``, construction and warm-up, up to the first timed op.
``measure`` then runs the timed loop and prints its raw figures as one
JSON line; ``run.py`` turns them into the benchmark's metrics.
"""

import time

_T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reset_peak_rss() -> None:
    """Reset the kernel's peak-RSS mark (VmHWM) so that the peak read
    at the end belongs to the timed loop alone."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def layer_metrics(tracer, traced, plain, workload) -> tuple[dict, dict]:
    """Per-layer figures of the traced window, and a layer tree."""
    total, calls = tracer.total, tracer.calls
    submit_self = total("service.submit") - tracer.under(
        "service.flush", "service.submit"
    )
    flush_calls = calls("service.flush")
    depart_calls = calls("dynamic.depart")
    metrics = {
        "api.allocate_s": total("api.allocate"),
        "core.protocol_s": total("core.protocol"),
        "fastpath.sample_contacts_s": total("fastpath.sample_contacts"),
        "fastpath.group_and_accept_s": total("fastpath.group_and_accept"),
        "fastpath.commit_and_revoke_s": total("fastpath.commit_and_revoke"),
        "fastpath.round_calls": calls("fastpath.group_and_accept"),
        "fastpath.backend.grouped_accept_s": total("backend.grouped_accept"),
        "fastpath.backend.scatter_s": total("backend.scatter"),
        "dynamic.run_s": total("dynamic.run"),
        "dynamic.depart_s": total("dynamic.depart"),
        "dynamic.depart_calls": depart_calls,
        "dynamic.cohorts_mean": tracer.depart_cohorts / max(depart_calls, 1),
        "dynamic.add_cohort_s": total("dynamic.add_cohort"),
        "service.submit_s": submit_self,
        "service.submit_us_per_op": 1e6
        * submit_self
        / max(calls("service.submit"), 1),
        "service.queue.push_s": total("service.queue.push"),
        "service.admission.decide_s": total("service.admission.decide"),
        "service.batch_ops_mean": calls("service.submit") / max(flush_calls, 1),
        "service.flush_s": total("service.flush"),
        "service.flush_calls": flush_calls,
        "service.flush.self_s": total("service.flush")
        - tracer.under("dynamic.depart", "service.flush")
        - tracer.under("core.protocol", "service.flush"),
        "service.bytes_per_op": workload.bytes_per_op(),
        "runtime.gc_s": tracer.gc_s,
        "runtime.gc_gen2_count": tracer.gc_gen2,
        "trace.unattributed_share": 1.0 - tracer.top / traced.wall,
        "trace.overhead_ratio": (traced.scaled / traced.attempted)
        / (plain.scaled / plain.attempted),
    }
    tree = {
        name: {
            "total_s": round(total(name), 6),
            "self_s": round(tracer.self_time(name), 6),
            "calls": calls(name),
            "share_of_wall": round(total(name) / traced.wall, 4),
        }
        for name in sorted(tracer.spans)
        if calls(name)
    }
    groups = {
        "fastpath": total("fastpath.sample_contacts")
        + total("fastpath.group_and_accept")
        + total("fastpath.commit_and_revoke"),
        "dynamic.depart": total("dynamic.depart"),
        "service ingest + flush": total("service.submit"),
    }
    dominant = max(groups, key=groups.get)
    details = {
        "traced_wall_s": traced.wall,
        "traced_units": traced.attempted,
        "untraced_wall_s": plain.wall,
        "untraced_units": plain.attempted,
        "unattributed_us_per_unit": 1e6
        * (traced.wall - tracer.top)
        / traced.attempted,
        "layers": tree,
        "dominant_layer": dominant,
        "dominant_share": groups[dominant] / traced.wall,
        "dominant_as_expected": dominant == workload.dominant,
    }
    return metrics, details


def main(argv: list[str]) -> int:
    role, name, seed = argv[0], argv[1], int(argv[2])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    start = time.perf_counter()
    import repro  # noqa: F401

    import_s = time.perf_counter() - start
    import scenarios

    workload = scenarios.WORKLOADS[name](seed)
    workload.setup()
    setup = {"setup_s": time.perf_counter() - _T0, "import_s": import_s}
    if role == "setup":
        print(json.dumps(setup))
        return 0

    seconds, trace = float(argv[3]), argv[4] == "1"
    probe = scenarios.HostProbe(workload.probe_kind)
    probe.sample()
    workload.prepare(seconds)
    reset_peak_rss()
    plain = scenarios.Window()
    out = {"setup": setup}
    if not trace:
        workload.measure(seconds, plain, probe)
        out["peak_rss_mb"] = peak_rss_mb()
        groups = workload.latency_groups()
        q, beyond = scenarios.tail_percentile(groups)
        out.update(
            wall_s=plain.wall,
            scaled_wall_s=plain.scaled,
            ops=plain.ops,
            attempted=plain.attempted,
            ok=plain.ok,
            latency_p50_ms=workload.latency_ms(50.0),
            latency_tail_ms=workload.latency_ms(q),
            raw_latency_p50_ms=workload.latency_ms(50.0, raw=True),
            raw_latency_tail_ms=workload.latency_ms(q, raw=True),
            tail_percentile=q,
            tail_samples_beyond=beyond,
            tail_groups=groups,
            **plain.protocol(),
        )
    else:
        from tracer import Tracer, install

        # Half the window untraced, half traced: the ratio of their
        # per-unit wall times is the tracing overhead.
        workload.measure(seconds / 2, plain, probe)
        tracer = Tracer()
        workload.backend = install(tracer)
        traced = scenarios.Window()
        try:
            workload.measure(seconds / 2, traced, probe, tracer)
        finally:
            tracer.close()
        metrics, details = layer_metrics(tracer, traced, plain, workload)
        out.update(
            layers=metrics,
            details=details,
            attempted=plain.attempted + traced.attempted,
            ok=plain.ok + traced.ok,
        )
    out["probe_ms"] = probe.ms()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
