//! The seed reaches the program and nothing else does: one seed gives
//! identical events and digests run after run, traced or not; another
//! seed changes them and still passes every output check. The traced
//! run reports every per-layer metric `BENCHMARK.json` names.
//!
//! Release-sized worlds: run with `cargo test --release`.

use simbench::{run, Outcome, Workload};

fn fingerprint(o: &Outcome) -> (u64, u64, u64, Vec<u64>) {
    (
        o.digest.events,
        o.digest.trace_fnv,
        o.digest.metrics_fnv,
        o.digest.per_shard_events.clone(),
    )
}

fn check_workload(w: Workload) {
    let shape = w.shape();
    let a = run(shape, 7, 2, false);
    let b = run(shape, 7, 2, false);
    let traced = run(shape, 7, 2, true);
    let other = run(shape, 8, 2, false);
    for (label, o) in [("a", &a), ("b", &b), ("traced", &traced), ("other", &other)] {
        assert!(o.ok(), "{} run {label}: checks {:?}", w.name(), o.checks);
    }
    assert_eq!(
        fingerprint(&a),
        fingerprint(&b),
        "{}: same seed differs",
        w.name()
    );
    assert_eq!(
        fingerprint(&a),
        fingerprint(&traced),
        "{}: tracing changed the output",
        w.name()
    );
    assert_ne!(
        a.digest.events,
        other.digest.events,
        "{}: seed ignored",
        w.name()
    );
    assert_ne!(a.digest.metrics_fnv, other.digest.metrics_fnv);
    assert!(a.layers.is_empty() && a.spans.is_empty());
    assert!(!traced.spans.is_empty());
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn saturated_bss_is_deterministic_per_seed() {
    check_workload(Workload::SaturatedBss);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn city_shards_is_deterministic_per_seed() {
    check_workload(Workload::CityShards);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn qos_obss_is_deterministic_per_seed() {
    check_workload(Workload::QosObss);
}

/// `run.py` adds these two from the untraced base; the binary reports
/// the rest.
const ADDED_BY_RUN_PY: [&str; 2] = ["bench.trace_overhead", "bench.trace_base_wall_s"];

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn traced_run_reports_exactly_the_declared_layer_metrics() {
    let manifest = include_str!("../../BENCHMARK.json");
    let per_layer = &manifest[manifest.find("\"per_layer\"").expect("per_layer key")..];
    let declared: Vec<&str> = per_layer
        .split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name"))
        .filter(|name| !ADDED_BY_RUN_PY.contains(name))
        .collect();
    for w in Workload::ALL {
        let out = run(w.shape(), 3, 2, true);
        let reported: Vec<&str> = out.layers.iter().map(|m| m.name).collect();
        assert_eq!(reported, declared, "{}", w.name());
        assert!(
            out.layers.iter().all(|m| m.value.is_finite()),
            "{:?}",
            out.layers
        );
    }
}
