//! Determinism regression tests: the parallel campaign runner must be
//! a pure optimisation — same seeds, same bytes, any thread count.

use wireless_networks::core::runner;
use wireless_networks::core::scenarios::wlan_saturation_full;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::stats::fnv1a;

/// The full campaign renders byte-identically on one worker and on
/// eight. This is the guarantee EXPERIMENTS.md regeneration relies on:
/// `par_map_with` returns results in registry order and every scenario
/// is deterministic from its baked seed.
#[test]
fn campaign_markdown_is_byte_identical_across_thread_counts() {
    let serial = runner::campaign_markdown(1);
    let parallel = runner::campaign_markdown(8);
    assert!(
        serial == parallel,
        "campaign output diverged between 1 and 8 threads"
    );
    // Sanity: the campaign actually rendered every section.
    for e in runner::experiments() {
        assert!(
            serial.contains(&format!("### {}", e.id)),
            "missing section {}",
            e.id
        );
    }
}

/// The observability exports (typed trace + metrics JSONL) are also
/// byte-identical for any worker count — the guarantee behind
/// `report --trace-json` / `--metrics-json`. Their FNV-1a fingerprints
/// are pinned too, so a format change that every thread count shares
/// still fails here.
#[test]
fn observability_jsonl_is_byte_identical_across_thread_counts() {
    let serial = runner::run_observability(1);
    let parallel = runner::run_observability(8);
    let trace = runner::observability_trace_jsonl(&serial);
    let metrics = runner::observability_metrics_jsonl(&serial);
    assert_eq!(
        trace,
        runner::observability_trace_jsonl(&parallel),
        "trace JSONL diverged between 1 and 8 threads"
    );
    assert_eq!(
        metrics,
        runner::observability_metrics_jsonl(&parallel),
        "metrics JSONL diverged between 1 and 8 threads"
    );
    assert!(!serial.is_empty(), "some experiments must be instrumented");
    assert_eq!(
        (trace.len(), fnv1a(trace.as_bytes())),
        (230_091, 0x30b4_548d_7e81_55b8),
        "trace JSONL bytes changed"
    );
    assert_eq!(
        (metrics.len(), fnv1a(metrics.as_bytes())),
        (15_421, 0x8982_758f_f5f8_61e6),
        "metrics JSONL bytes changed"
    );
}

/// The simulation fuzzer is deterministic the same way: a seed range's
/// digest — per-seed event counts, violation counts and full-trace
/// fingerprints — is byte-identical at `--threads 1` and `--threads 8`,
/// and stable across repeat runs in one process. The classic and the
/// EDCA/A-MPDU (`with_qos`) corpora are both covered, and each digest's
/// FNV-1a is pinned, so a behaviour change that every thread count
/// shares still fails here — on the legacy DCF path and on the
/// four-lane EDCA path alike.
#[test]
fn fuzzer_digest_is_byte_identical_across_thread_counts() {
    use wireless_networks::check::{range_digest, ScenarioGen};
    for (gen, pin) in [
        (ScenarioGen::default(), 0x99a9_e988_582f_90f1u64),
        (ScenarioGen::with_qos(), 0x107f_4daa_706a_9ba4u64),
    ] {
        let serial = range_digest(gen, 0, 32, 1);
        let parallel = range_digest(gen, 0, 32, 8);
        assert!(
            serial == parallel,
            "fuzzer digest diverged between 1 and 8 threads"
        );
        assert_eq!(serial.lines().count(), 32);
        assert_eq!(
            serial,
            range_digest(gen, 0, 32, 8),
            "fuzzer digest not stable across repeat runs"
        );
        assert_eq!(
            fnv1a(serial.as_bytes()),
            pin,
            "32-seed fuzz digest bytes changed"
        );
    }
}

/// Scheduler order over the fuzz corpus: every generated scenario is
/// free of oracle violations, and the oracle set includes
/// `scheduler-order`, which replays each run's recorded op stream
/// through the timer wheel and the reference binary heap and demands
/// the same pop order. (CI runs the 200-seed sweep via `fuzz`; this
/// in-tree slice keeps the guarantee under plain `cargo test`.)
#[test]
fn fuzz_corpus_passes_the_scheduler_order_oracle() {
    let reports = wireless_networks::check::check_range(0, 32, 1);
    assert_eq!(reports.len(), 32);
    for r in &reports {
        assert!(
            r.violations.is_empty(),
            "seed {} ({}) violated: {:?}",
            r.seed,
            r.summary,
            r.violations
        );
    }
    assert!(wireless_networks::check::oracles()
        .iter()
        .any(|o| o.name() == "scheduler-order"));
}

/// The SCALE-DCF saturation workload — the dense-timer stress case the
/// wheel exists for — drains its recorded op stream through the wheel
/// in exactly the reference heap's order.
#[test]
fn scale_dcf_op_stream_drains_in_reference_heap_order() {
    use wireless_networks::core::scenarios::scale_dcf_op_log;
    use wireless_networks::sim::{replay_ops, SchedulerKind};
    let (ops, events) = scale_dcf_op_log(20, 150, 7);
    let heap = replay_ops(SchedulerKind::BinaryHeap, &ops);
    let wheel = replay_ops(SchedulerKind::TimerWheel, &ops);
    assert_eq!(wheel, heap, "SCALE-DCF pop order diverged from the heap");
    assert_eq!(wheel.0, events, "op stream pops != events processed");
    assert!(wheel.0 >= 10_000, "workload too small to mean anything");
}

/// Two runs of the same seeded scenario give bit-equal results — the
/// saturation sim has no hidden global state.
#[test]
fn same_seed_same_throughput() {
    let a = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    let b = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    assert_eq!(a.to_bits(), b.to_bits());
}

/// Different seeds actually change the outcome (the seed is wired
/// through, not ignored).
#[test]
fn different_seed_different_schedule() {
    let a = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 99, false, false);
    let b = wlan_saturation_full(PhyStandard::Dot11g, 4, false, 100, false, false);
    assert_ne!(a.to_bits(), b.to_bits());
}
