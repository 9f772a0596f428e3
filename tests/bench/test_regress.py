"""The benchmark-regression harness: suite, comparison, tolerance bands."""

import json

import pytest

from repro.bench.regress import (
    RegressConfig,
    apply_inflation,
    compare,
    render_report,
    run_regress,
)

# The tiny suite optimizes 4-relation queries in ~5 ms, so the fixed
# per-plan verification cost looms much larger than on the real n=8
# workload the committed 10% cap governs; give it a proportionate cap.
SMALL = RegressConfig(
    sizes=(3, 4),
    queries_per_size=3,
    micro_repeats=3,
    batch_queries=4,
    verify_overhead_cap=0.75,
    # 4-relation searches finish in ~5 ms: kernel resolution and module
    # import are not amortized, so the paired speedup the committed
    # floor governs (n=8) is meaningless here — only parity is.
    kernel_speedup_floor=0.0,
)


@pytest.fixture(scope="module")
def results():
    return run_regress(SMALL)


def test_results_shape(results):
    assert results["schema"] == 1
    benches = results["benches"]
    assert set(benches) == {
        "figure4_n3",
        "figure4_n4",
        "memo_insert",
        "memo_merge",
        "feedback_loop",
        "batch_throughput",
        "mqo_sharing",
        "promise_ordering",
        "verify_overhead",
        "kernel_speedup",
        "server_throughput",
    }
    server = benches["server_throughput"]
    assert server["cold_misses"] == 8
    assert server["cold_shared_waits"] == 7
    assert server["cold_insertions"] == 1
    assert server["queries_per_second"] > 0
    kernel = benches["kernel_speedup"]
    assert kernel["plans_identical"] == SMALL.queries_per_size
    assert kernel["costings_delta"] == 0
    assert kernel["rule_firing_delta"] == 0
    assert kernel["audit_violations"] == 0
    ordering = benches["promise_ordering"]
    assert ordering["learned_costings"] <= ordering["static_costings"] < 490
    assert ordering["rule_firing_delta"] == 0
    assert ordering["min_promise_pruned"] == 4
    for metrics in benches.values():
        assert metrics["median_ms"] > 0
    for size in (3, 4):
        point = benches[f"figure4_n{size}"]
        assert point["p95_ms"] >= point["median_ms"]
        assert point["mean_groups"] > 0
        assert point["mean_expressions"] > 0
        assert point["audit_violations"] == 0
        assert 0.0 < point["moves_hit_rate"] <= 1.0
    assert json.loads(json.dumps(results)) == results  # JSON-clean


def test_self_comparison_passes(results):
    assert compare(results, results, SMALL) == []
    report = render_report(results, [])
    assert "PASS" in report


def test_synthetic_slowdown_fails(results):
    """The acceptance demo: a 3x slowdown must break the band."""
    inflated = apply_inflation(results, 3.0)
    failures = compare(inflated, results, SMALL)
    assert failures  # every *_ms metric is beyond the +150% default band
    assert any("median_ms" in failure for failure in failures)
    assert any("queries_per_second" in failure for failure in failures)
    assert "FAIL" in render_report(inflated, failures)
    # A mild wobble, by contrast, stays inside the band.
    wobble = apply_inflation(results, 1.3)
    assert compare(wobble, results, SMALL) == []


def test_count_drift_fails_tightly(results):
    """Deterministic metrics get a tight band: 10% drift is a failure."""
    drifted = json.loads(json.dumps(results))
    drifted["benches"]["figure4_n3"]["mean_groups"] *= 1.10
    failures = compare(drifted, results, SMALL)
    assert any("mean_groups" in failure for failure in failures)


def test_hit_rate_only_fails_downward(results):
    shifted = json.loads(json.dumps(results))
    shifted["benches"]["figure4_n3"]["moves_hit_rate"] = 0.0
    assert any(
        "moves_hit_rate" in failure
        for failure in compare(shifted, results, SMALL)
    )
    improved = json.loads(json.dumps(results))
    improved["benches"]["figure4_n3"]["moves_hit_rate"] = 1.0
    assert compare(improved, results, SMALL) == []


def test_missing_bench_or_metric_fails(results):
    partial = json.loads(json.dumps(results))
    del partial["benches"]["memo_merge"]
    del partial["benches"]["memo_insert"]["groups"]
    failures = compare(partial, results, SMALL)
    assert any("memo_merge" in failure for failure in failures)
    assert any("memo_insert.groups" in failure for failure in failures)


def test_audit_violations_fail(results):
    violated = json.loads(json.dumps(results))
    violated["benches"]["figure4_n3"]["audit_violations"] = 1
    assert any(
        "audit_violations" in failure
        for failure in compare(violated, results, SMALL)
    )


def test_feedback_loop_closes(results):
    """The new point: drift detected, one refresh, fresh beats stale."""
    point = results["benches"]["feedback_loop"]
    assert point["drift_q_error"] > 2.0
    assert point["refreshes"] == 1.0
    assert point["fresh_work"] < point["stale_work"]
    assert point["qerr_over_2"] >= 1.0


def test_feedback_counters_in_tight_band(results):
    """The loop's work counters are deterministic: 10% drift fails."""
    drifted = json.loads(json.dumps(results))
    drifted["benches"]["feedback_loop"]["fresh_work"] *= 1.10
    failures = compare(drifted, results, SMALL)
    assert any("fresh_work" in failure for failure in failures)


def test_verify_overhead_within_cap(results):
    """The certified pipeline's latency cost stays under the 10% cap."""
    point = results["benches"]["verify_overhead"]
    assert point["verified_ok"] == SMALL.queries_per_size
    assert point["verify_overhead"] <= SMALL.verify_overhead_cap


def test_verify_overhead_cap_is_enforced(results):
    blown = json.loads(json.dumps(results))
    blown["benches"]["verify_overhead"]["verify_overhead"] = 2.0
    failures = compare(blown, results, SMALL)
    assert any("overhead cap" in failure for failure in failures)


def test_failed_verification_breaks_the_band(results):
    broken = json.loads(json.dumps(results))
    broken["benches"]["verify_overhead"]["verified_ok"] = 0.0
    failures = compare(broken, results, SMALL)
    assert any("verified_ok" in failure for failure in failures)


def test_parallel_metrics_never_compared(results):
    noisy = json.loads(json.dumps(results))
    noisy["benches"]["batch_throughput"]["parallel_speedup"] = 0.01
    baseline = json.loads(json.dumps(results))
    baseline["benches"]["batch_throughput"]["parallel_speedup"] = 99.0
    assert compare(noisy, baseline, SMALL) == []
