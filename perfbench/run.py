"""Benchmark for the tgiw toolkit.

    python3 perfbench/run.py --workload casestudy|library \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  One closed loop, one client, no worker
threads; BLAS is pinned to one thread.  Jobs run in whole rounds until the
timed work reaches ``--seconds`` and the workload's minimum job count, so the
tail percentile always has at least ten jobs above it.  Every job's output is
checked against the oracles outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every job
twice on the same input, untraced and traced, prints the per-layer metrics
from the traced runs and the tracing overhead from the pairs, and writes the
spans to ``.bench_work/spans-<workload>.csv``.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
WORKLOAD_NAMES = ("casestudy", "library")
# set-ups per run: this process, then fresh interpreters spread over the run,
# since the machine's speed drifts over seconds
SETUP_PROBES_AT = (0.25, 0.5, 0.75, 1.0)

END_TO_END_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cpu_ms_per_job": "ms",
    "fail_ratio": "ratio",
    "peak_rss_mb": "MB",
}

CALL_LAYERS = (
    "cli.main.fit", "cli.main.compare", "cli.main.sample", "cli.main.tabulate", "cli.main.reproduce-paper",
    "data.read_dataset_file", "data.Dataset",
    "distribution.sample", "distribution.cdf", "distribution.pdf", "distribution.log_pdf",
    "distribution.survival", "distribution.hazard", "distribution.quantile",
    "order_stats.os_density", "order_stats.joint_os_density", "order_stats.min_max_joint_density",
    "estimation.fit_mle", "estimation.fit_lse", "estimation.fit_wlse", "estimation.observed_information",
    "estimation.log_likelihood", "estimation.score",
    "model_selection.compare", "model_selection.ks_statistic", "model_selection.lr_test",
)
CALL_FIELDS = {"calls": "count", "busy_ms": "ms", "p50_us": "us", "failed": "count"}
VECTOR_FIELDS = {"ns_per_point": "ns", "bytes_computed": "bytes"}
FIT_COUNTERS = {
    "estimation.fit_mle.iterations": "count",
    "estimation.fit_mle.converged_ratio": "ratio",
    "estimation.fit_mle.boundary_ratio": "ratio",
    "estimation.fit_lse.iterations": "count",
    "estimation.fit_wlse.iterations": "count",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in CALL_LAYERS:
        for field, unit in CALL_FIELDS.items():
            units[f"{layer}.{field}"] = unit
        if layer.startswith("distribution."):
            for field, unit in VECTOR_FIELDS.items():
                units[f"{layer}.{field}"] = unit
    units.update(FIT_COUNTERS)
    units["trace.overhead_pct"] = "%"
    return units


@dataclass
class JobRecord:
    latency_s: float
    cpu_s: float
    failures: list
    traced: bool
    round: int = 0


def _release_memory() -> None:
    """Hand freed heap pages back to the OS between jobs (glibc only).

    The library job frees 8 MB arrays between small allocations, so without
    this the heap's high-water mark, and with it ``peak_rss_mb``, creeps up
    with the number of jobs a run gets through.
    """
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is not None:
        trim(0)


def _direct(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def run_job(wl, spec, call, traced: bool = False) -> JobRecord:
    from workloads import Failure

    c0, t0 = time.process_time(), time.perf_counter()
    try:
        out, error = call("job", wl.job, spec, call), None
    except Exception as exc:  # a failed job is counted, and the run goes on
        out, error = None, exc
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    if error is not None:
        failures = [Failure("exception", "job", "".join(traceback.format_exception_only(error)).strip())]
    else:
        try:
            failures = wl.check(spec, out)
        except Exception:
            failures = [Failure("check_error", "job", traceback.format_exc())]
    del out
    _release_memory()
    return JobRecord(latency, cpu, failures, traced)


def _traced_job(wl, spec, tracer, job_id: int) -> JobRecord:
    tracer.job_id = job_id
    tracer.install()
    try:
        return run_job(wl, spec, tracer.call, traced=True)
    finally:
        tracer.uninstall()


def run_loop(wl, seconds: float, min_jobs: int, tracer=None, after_round=None) -> list[JobRecord]:
    """Closed loop over whole rounds.

    With a tracer every job runs twice, untraced and traced, on the same
    input; which goes first alternates from job to job.  ``after_round`` gets
    the share of ``seconds`` done so far.
    """
    records: list[JobRecord] = []
    for index, rnd in enumerate(wl.rounds()):
        start = len(records)
        for spec in rnd:
            if tracer is None:
                records.append(run_job(wl, spec, _direct))
                continue
            pair = [lambda: run_job(wl, spec, _direct), lambda: _traced_job(wl, spec, tracer, len(records))]
            if len(records) % 4 == 2:
                pair.reverse()
            records.extend(run() for run in pair)
        for r in records[start:]:
            r.round = index
        busy = sum(r.latency_s for r in records)
        if after_round is not None:
            after_round(busy / seconds if seconds else 1.0)
        if busy >= seconds and sum(1 for r in records if not r.traced) >= min_jobs:
            return records


def end_to_end(records: list[JobRecord], setups: list[float], percentile: float) -> tuple[dict, str]:
    import numpy as np

    lat = [r.latency_s for r in records]
    n = len(lat)
    rounds: dict[int, list[float]] = {}
    for r in records:
        rounds.setdefault(r.round, []).append(r.latency_s)
    tail = float(np.percentile(lat, percentile))
    above = sum(1 for v in lat if v > tail)
    # medians, and the median round's rate: a rare 30-second fit would swamp a mean
    values = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": statistics.median(len(v) / sum(v) for v in rounds.values()),
        "job_p50_ms": statistics.median(lat) * 1e3,
        "job_tail_ms": tail * 1e3,
        "cpu_ms_per_job": statistics.median(r.cpu_s for r in records) * 1e3,
        "fail_ratio": sum(1 for r in records if r.failures) / n,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    note = (f"job_tail_ms is p{percentile:g} of {n} jobs ({above} above it); "
            f"setup_s is the median of {len(setups)} set-ups: {', '.join(f'{s:.4f}' for s in setups)}")
    return values, note


def result_line(records: list[JobRecord], values: dict, units: dict, known: set[str]) -> dict:
    """The result object.  ``failed`` counts jobs with a failed check that is
    not a known defect; ``fail_ratio`` counts the known defects as well."""
    failed = sum(1 for r in records if any(f.check not in known for f in r.failures))
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def per_layer(records: list[JobRecord], tracer) -> dict:
    summary = tracer.summary()
    failed: dict[str, int] = {}
    for r in records:
        if r.traced:
            for f in r.failures:
                failed[f.layer] = failed.get(f.layer, 0) + 1
    values = {}
    for layer in CALL_LAYERS:
        s = summary.get(layer, {})
        values[f"{layer}.calls"] = s.get("calls", 0)
        values[f"{layer}.busy_ms"] = s.get("busy_ms", 0.0)
        values[f"{layer}.p50_us"] = s.get("p50_us", 0.0)
        values[f"{layer}.failed"] = failed.get(layer, 0)
        if layer.startswith("distribution."):
            points = s.get("vector_points", 0)
            values[f"{layer}.ns_per_point"] = s["vector_ns"] / points if points else 0.0
            values[f"{layer}.bytes_computed"] = 16 * points
    for name in ("estimation.fit_mle", "estimation.fit_lse", "estimation.fit_wlse"):
        fits = tracer.fits[name]
        values[f"{name}.iterations"] = statistics.median(f[0] for f in fits) if fits else 0
        if name == "estimation.fit_mle":
            values[f"{name}.converged_ratio"] = sum(f[1] for f in fits) / len(fits) if fits else 0.0
            values[f"{name}.boundary_ratio"] = sum(f[2] for f in fits) / len(fits) if fits else 0.0
    plain = sum(r.latency_s for r in records if not r.traced)
    traced = sum(r.latency_s for r in records if r.traced)
    values["trace.overhead_pct"] = 100.0 * (traced / plain - 1.0)
    return values


def _caches() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "caches": _caches(),
        "blas": {"library": blas, **{v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "bytes_computed": "computed, not measured: 8 bytes read + 8 bytes written per float64 point",
    }


def _setup_probe(args) -> float:
    """Set-up time of a fresh interpreter, as measured by its own --setup-probe run."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def _print_failures(records: list[JobRecord], known: set[str]) -> None:
    seen: dict[tuple[str, str], int] = {}
    for r in records:
        for f in r.failures:
            key = (f.check, f.layer)
            if key not in seen:
                tag = "known defect" if f.check in known else "FAILED CHECK"
                print(f"{tag}: {f.check} [{f.layer}] {f.detail.splitlines()[0] if f.detail else ''}")
            seen[key] = seen.get(key, 0) + 1
    for (check, layer), count in seen.items():
        print(f"  {check} [{layer}]: {count} failed checks")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    for var in BLAS_THREAD_VARS:  # before numpy is imported; set-up probes inherit it
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "tgiw" / "__init__.py").is_file():
        print(f"perfbench: no tgiw package under {src}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import tgiw  # noqa: F401  (importing the package is part of set-up)
    from tracer import Tracer
    from workloads import KNOWN_DEFECTS, WORKLOADS

    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir)
        wl.warm_up(_direct)
        setup = time.perf_counter() - _T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0

        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("manifest:", json.dumps(manifest(args), sort_keys=True))
        if args.trace:
            tracer = Tracer()
            records = run_loop(wl, args.seconds, 1, tracer)
            values = per_layer(records, tracer)
            units = per_layer_units()
            tracer.write(WORK / f"spans-{args.workload}.csv")
            print(f"spans: {len(tracer.start)} written to {WORK / f'spans-{args.workload}.csv'}")
        else:
            setups = [setup]
            marks = list(SETUP_PROBES_AT)

            def probe(done: float) -> None:
                while marks and done >= marks[0]:
                    marks.pop(0)
                    setups.append(_setup_probe(args))

            records = run_loop(wl, args.seconds, wl.min_jobs, after_round=probe)
            probe(1.0)
            values, note = end_to_end(records, setups, wl.tail_percentile)
            units = END_TO_END_UNITS
            print(note)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    _print_failures(records, KNOWN_DEFECTS)
    for name, value in values.items():
        if value or not args.trace:
            print(f"{name:<44} {value:>16.6g} {units[name]}")
    print(json.dumps(result_line(records, values, units, KNOWN_DEFECTS)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
