//! CITY-DCF at full scale: the spatially-sharded city of saturated
//! BSSes, pinned to its recorded digest at 1 and 2 component-executor
//! workers (DESIGN.md §15), checked from the point observables rather
//! than the experiment harness's own claims.
//!
//! The flagship city is release-sized (108 BSSes, 10,476 stations);
//! the tier-1 debug suite skips this file and CI runs it in the
//! release job, like `scale_dcf.rs`.

use wireless_networks::core::scenarios::{
    city_dcf_collapse_sweep, city_dcf_point, city_dcf_size, CityDcfPoint,
};

fn dump(p: &CityDcfPoint) {
    eprintln!(
        "CITY-DCF cells={} stations={} senders/cell={} shards={} lookahead={}ns \
         jain={:.4} per_sender={:.1} kbps events={} trace_fnv={:016x} metrics_fnv={:016x}",
        p.cells,
        p.stations,
        p.senders_per_cell,
        p.shards,
        p.lookahead.as_nanos(),
        p.jain_cross_bss,
        p.per_station_kbps,
        p.run.events,
        p.run.trace_fnv,
        p.run.metrics_fnv,
    );
}

/// The seed-42 flagship's recorded digest: (events, trace FNV,
/// metrics FNV), as in `BENCH_campaign.json`.
const FLAGSHIP_DIGEST: (u64, u64, u64) = (6_363_916, 0xc76a_620b_a4f8_79ce, 0x2761_818b_497c_74f7);

/// The headline contract: ≥100 BSSes / ≥10k stations partition into
/// one shard per cell, complete under the component executor at 1
/// and 2 workers, and both runs digest to the recorded flagship
/// digest — with the cross-BSS load balanced (Jain ≥ 0.95) and every
/// sender saturated to the horizon.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized city (10k+ stations); run with --release (CI does)"
)]
fn flagship_city_is_byte_identical_under_the_shard_executor() {
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    for workers in [1, 2] {
        let p = city_dcf_point(rows, cols, senders, duration_ms, 42, workers);
        dump(&p);

        assert!(p.cells >= 100, "flagship must cover >=100 BSSes");
        assert!(p.stations >= 10_000, "flagship must cover >=10k stations");
        assert_eq!(p.shards, p.cells, "one interference shard per BSS");
        assert!(
            p.incoherence.is_none(),
            "plan failed validation: {:?}",
            p.incoherence
        );
        assert_eq!(
            (p.run.events, p.run.trace_fnv, p.run.metrics_fnv),
            FLAGSHIP_DIGEST,
            "{workers} worker(s) diverged from the recorded flagship digest"
        );
        assert!(
            p.jain_cross_bss >= 0.95,
            "cross-BSS Jain {:.4} < 0.95",
            p.jain_cross_bss
        );
        assert!(p.saturated, "a sender drained its queue before the horizon");
    }
}

/// Densifying the cells collapses per-sender goodput monotonically
/// while the partition stays one-shard-per-cell and every point
/// digests identically at 1 and 2 workers — contention is per-cell,
/// sharding is free.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized sweep; run with --release (CI does)"
)]
fn densification_collapses_per_sender_goodput_monotonically() {
    let (rows, cols, sweep, duration_ms) = city_dcf_collapse_sweep();
    let points: Vec<CityDcfPoint> = sweep
        .iter()
        .map(|&n| city_dcf_point(rows, cols, n, duration_ms, 42, 1))
        .collect();
    for p in &points {
        dump(p);
        assert_eq!(p.shards, p.cells);
        assert!(p.incoherence.is_none(), "{:?}", p.incoherence);
        let two = city_dcf_point(rows, cols, p.senders_per_cell, duration_ms, 42, 2);
        assert_eq!(
            two.run, p.run,
            "divergence at {} senders/cell",
            p.senders_per_cell
        );
        assert!(p.saturated);
    }
    for pair in points.windows(2) {
        assert!(
            pair[1].per_station_kbps <= pair[0].per_station_kbps,
            "goodput rose from {:.1} to {:.1} kbps as cells densified ({} -> {} senders)",
            pair[0].per_station_kbps,
            pair[1].per_station_kbps,
            pair[0].senders_per_cell,
            pair[1].senders_per_cell,
        );
    }
}
