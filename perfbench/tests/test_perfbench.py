"""Tests of the benchmark runner itself: failure counting, metric names, seeding."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import oracles  # noqa: E402
import run  # noqa: E402
import tgiw  # noqa: E402
import tgiw.cli  # noqa: E402,F401
from tracer import Tracer  # noqa: E402
from workloads import KNOWN_DEFECTS, WORKLOADS, Failure, ScalarQuad  # noqa: E402


class _Toy:
    """Workload stub: job 1 of each round fails its oracle, job 2 raises."""

    def rounds(self):
        while True:
            yield [0, 1, 2, 3]

    def job(self, spec, call):
        if spec == 2:
            raise OverflowError("boom")
        return spec

    def check(self, spec, out):
        return [Failure("toy_oracle", "distribution.cdf", "wrong")] if out == 1 else []


def test_failing_oracle_and_exception_are_counted():
    records = run.run_loop(_Toy(), seconds=0.0, min_jobs=8)
    assert len(records) == 8
    failed = [r for r in records if r.failures]
    assert [f.check for r in failed for f in r.failures] == ["toy_oracle", "exception"] * 2
    values, _ = run.end_to_end(records, [0.5], 50)
    assert values["fail_ratio"] == pytest.approx(0.5)


def test_result_counts_known_defects_only_in_fail_ratio():
    records = run.run_loop(_Toy(), seconds=0.0, min_jobs=8)
    values, _ = run.end_to_end(records, [0.5], 50)
    units = run.END_TO_END_UNITS
    plain = run.result_line(records, values, units, set())
    assert (plain["correct"], plain["attempted"], plain["failed"]) == (False, 8, 4)
    known = run.result_line(records, values, units, {"toy_oracle"})
    assert (known["correct"], known["failed"]) == (False, 2)
    assert known["metrics"]["fail_ratio"] == {"value": 0.5, "unit": "ratio"}
    both = run.result_line(records, values, units, {"toy_oracle", "exception"})
    assert (both["correct"], both["failed"]) == (True, 0)


def test_failed_normalisation_is_counted(tmp_path):
    # the x-coordinate quad result for beta = 1.5 on (0, Q(1 - 1e-8))
    wl = ScalarQuad(1, tmp_path)
    out = {"os": [0.99144, 1.0, 1.0, 1.0], "joint": 0.0, "min_max": 1.0, "roots": [], "tail": []}
    failures = wl.check((1.5, 0.0, 1.0), out)
    assert [(f.check, f.layer) for f in failures] == [
        ("os_normalisation", "order_stats.os_density"),
        ("joint_normalisation", "order_stats.joint_os_density"),
    ]
    assert not {f.check for f in failures} & KNOWN_DEFECTS


def test_traced_run_counts_failures_per_layer():
    tracer = Tracer()
    records = run.run_loop(_Toy(), seconds=0.0, min_jobs=4, tracer=tracer)
    values = run.per_layer(records, tracer)
    assert values["distribution.cdf.failed"] == 1
    assert sum(r.traced for r in records) == 4


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_lists_exactly_the_emitted_metrics():
    bench = _benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert len(bench["per_layer"]) <= 128


def test_every_metric_is_emitted():
    records = run.run_loop(_Toy(), seconds=0.0, min_jobs=4)
    values, _ = run.end_to_end(records, [1.0, 2.0, 3.0], 75)
    assert set(values) == set(run.END_TO_END_UNITS)
    assert values["setup_s"] == 2.0

    tracer = Tracer()
    tracer.install()
    try:
        d = tgiw.embedded_dataset()
        fit = tgiw.estimation.fit_mle(d)
        tgiw.distribution.cdf(fit.params, d.values)
    finally:
        tracer.uninstall()
    layer = run.per_layer([run.JobRecord(1.0, 1.0, [], False), run.JobRecord(1.0, 1.0, [], True)], tracer)
    assert set(layer) == set(run.per_layer_units())
    assert layer["estimation.fit_mle.calls"] == 1
    assert layer["estimation.observed_information.calls"] == 1
    assert layer["data.Dataset.calls"] == 1
    assert layer["distribution.cdf.bytes_computed"] == 16 * d.n
    assert layer["estimation.fit_mle.iterations"] == fit.iterations


def test_uninstall_restores_every_binding():
    before = (tgiw.cdf, tgiw.cli.fit_mle, tgiw.model_selection.fit_mle, tgiw.data.Dataset.__post_init__)
    tracer = Tracer()
    tracer.install()
    assert tgiw.cli.fit_mle is not before[1]
    tracer.uninstall()
    after = (tgiw.cdf, tgiw.cli.fit_mle, tgiw.model_selection.fit_mle, tgiw.data.Dataset.__post_init__)
    assert after == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_same_inputs(name, tmp_path):
    a = WORKLOADS[name](7, tmp_path).jobs(12)
    b = WORKLOADS[name](7, tmp_path).jobs(12)
    c = WORKLOADS[name](8, tmp_path).jobs(12)
    assert a == b
    assert a != c
    assert np.array_equal(oracles.sample(1.1, 0.5, 0.7, 100, 7), oracles.sample(1.1, 0.5, 0.7, 100, 7))


def test_oracles_agree_with_mpmath_and_the_program():
    theta, beta, lam = 1.3, 1.5, -0.4
    p = tgiw.TgiwParams(alpha=1.0, beta=beta, gamma=theta, lam=lam)
    x = np.geomspace(0.2, 50.0, 7)
    assert oracles.rel_err(oracles.cdf(theta, beta, lam, x), tgiw.cdf(p, x)) < 1e-13
    assert oracles.rel_err(oracles.pdf(theta, beta, lam, x), tgiw.pdf(p, x)) < 1e-12
    q = np.array([1e-6, 0.3, 0.5, 0.9, 1 - 1e-6])
    assert oracles.rel_err(oracles.cdf(theta, beta, lam, oracles.quantile(theta, beta, lam, q)), q) < 1e-9
    for xv in (3.0, 1e9):
        s, h = oracles.tail_mp(theta, beta, lam, xv)
        assert oracles.survival(theta, beta, lam, xv) == pytest.approx(s, rel=1e-13)
        assert oracles.hazard(theta, beta, lam, xv) == pytest.approx(h, rel=1e-12)
    data = oracles.sample(theta, beta, lam, 200, 1)
    g = oracles.score(theta, beta, lam, data)
    h = 1e-6
    for i in range(3):
        v = np.array([theta, beta, lam])
        v[i] += h
        up = -oracles.neg_log_lik(*v, data)
        v[i] -= 2 * h
        down = -oracles.neg_log_lik(*v, data)
        assert g[i] == pytest.approx((up - down) / (2 * h), rel=1e-5, abs=1e-5)
    assert math.isclose(tgiw.log_likelihood(p, tgiw.Dataset(data)), -oracles.neg_log_lik(theta, beta, lam, data),
                        rel_tol=1e-12)


def test_runner_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "casestudy", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
