//! The benchmark measures the experiments' program, not a look-alike:
//! with seed 42 its generators rebuild the worlds behind the recorded
//! SCALE-DCF, CITY-DCF and DENSE-OBSS fingerprints and reproduce them.
//!
//! Release-sized worlds: run with `cargo test --release`.

use simbench::{run, Shape, Workload};

fn hex(v: u64) -> String {
    format!("{v:016x}")
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn saturated_bss_is_the_scale_dcf_1000_station_point() {
    // The workload itself is SCALE-DCF n=1000 / 200 ms.
    let out = run(Workload::SaturatedBss.shape(), 42, 1, false);
    assert!(out.ok(), "checks: {:?}", out.checks);
    assert_eq!(hex(out.digest.metrics_fnv), "2fe575e2a8145409");
    assert_eq!(out.digest.events, 1_833_650);
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn city_generator_reproduces_the_city_dcf_flagship() {
    // The workload stages a deeper backlog (see README.md); at the
    // experiment's floor of 16 frames the generator rebuilds CITY-DCF.
    let Shape::City {
        rows,
        cols,
        senders,
        duration_ms,
        ..
    } = Workload::CityShards.shape()
    else {
        panic!("city-shards is a city");
    };
    let experiment = Shape::City {
        rows,
        cols,
        senders,
        duration_ms,
        backlog_floor: 16,
    };
    let out = run(experiment, 42, 2, false);
    assert_eq!(out.digest.shards, 108);
    assert_eq!(hex(out.digest.trace_fnv), "c76a620ba4f879ce");
    assert_eq!(hex(out.digest.metrics_fnv), "2761818b497c74f7");
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized; run with cargo test --release"
)]
fn obss_generator_reproduces_the_dense_obss_3x3_block() {
    let out = run(
        Shape::Obss {
            rows: 3,
            cols: 3,
            duration_ms: 120,
        },
        42,
        1,
        false,
    );
    assert!(out.ok(), "checks: {:?}", out.checks);
    let completed = out
        .outputs
        .iter()
        .find(|m| m.name == "completed_msdus")
        .expect("the block reports completions");
    assert_eq!(completed.value, 1837.0);
}
