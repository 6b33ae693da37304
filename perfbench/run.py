"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload {oneshot,churn,service}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Every run takes ``SETUP_SAMPLES``
set-up samples, each in a fresh interpreter, and one timed run in
another (``worker.py``).  With ``--trace 0`` the last line of standard
output is the end-to-end result; with ``--trace 1`` the timed run is
split into an untraced half and a traced half, and the last line
carries the per-layer figures instead.  Lines before it are details:
percentile and sample counts, the host probe, the layer tree.  See
``perfbench/README.md`` for the workloads, metrics and noise figures.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("oneshot", "churn", "service")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 7
#: The whole run, set-ups included, ends within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _child(args: list[str], deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before " + " ".join(args[:2]))
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError("worker timed out: " + " ".join(args)) from None
    finally:
        # On every way out, a signal included, the worker has ended.
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {args}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"worker printed nothing: {args}")
    return json.loads(lines[-1])


def _check_checkout() -> None:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise BenchError(
            f"no program source under {ROOT}/src/repro: run from the root "
            "of a full checkout"
        )
    # The program is pure Python; building it means byte-compiling it
    # once, so no set-up sample pays for compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src"],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
    )


def _units(section: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    _check_checkout()

    def setup_sample() -> dict:
        return _child(["setup", workload, str(seed)], deadline)

    # Set-up samples sit on both sides of the timed run, so a short
    # burst of host load lands on a minority of them.
    before = (SETUP_SAMPLES - 1) // 2
    setups = [setup_sample() for _ in range(before)]
    raw = _child(
        ["measure", workload, str(seed), str(seconds), str(int(trace))],
        deadline,
    )
    setups.append(raw["setup"])
    setups += [
        setup_sample() for _ in range(SETUP_SAMPLES - 1 - before)
    ]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    import_s = statistics.median(s["import_s"] for s in setups)
    probe_ms = raw["probe_ms"]
    attempted = raw["attempted"]
    failed = attempted - raw["ok"]
    details = {
        "workload": workload,
        "seed": seed,
        "setup_samples_s": [s["setup_s"] for s in setups],
        "import_samples_s": [s["import_s"] for s in setups],
        "host.probe_ms": probe_ms,
    }
    if trace:
        metrics = dict(raw["layers"])
        metrics["setup.import_s"] = import_s
        metrics["host.probe_ms"] = probe_ms
        details.update(raw["details"])
    else:
        metrics = {
            "ops_per_s": raw["ops"] / raw["scaled_wall_s"],
            "latency_p50_ms": raw["latency_p50_ms"],
            "latency_tail_ms": raw["latency_tail_ms"],
            "peak_rss_mb": raw["peak_rss_mb"],
            "setup_s": setup_s,
            "ok_ratio": raw["ok"] / attempted,
            "gap_mean": raw["gap_mean"],
            "msgs_per_ball": raw["msgs_per_ball"],
            "rounds_mean": raw["rounds_mean"],
        }
        details.update(
            {
                k: raw[k]
                for k in (
                    "wall_s",
                    "scaled_wall_s",
                    "raw_latency_p50_ms",
                    "raw_latency_tail_ms",
                    "attempted",
                    "tail_percentile",
                    "tail_samples_beyond",
                    "tail_groups",
                )
            }
        )
        details["raw_ops_per_s"] = raw["ops"] / raw["wall_s"]
    units = _units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise BenchError(
            f"metrics {sorted(set(metrics) ^ set(units))} disagree with "
            "BENCHMARK.json"
        )
    print(json.dumps({"details": details}))
    return {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through _child, which stops its worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must lie in 1..60")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
