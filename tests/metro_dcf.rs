//! METRO-DCF at full scale (DESIGN.md §17): the grid-indexed metro
//! must construct, plan and run at 100k+ stations — the size where the
//! dense O(n²) paths stop being an option — with one interference
//! shard per cell, a plan that re-validates coherent, and byte-
//! identical digests at 1 and 2 component-executor workers.
//!
//! Like `city_dcf.rs` and `scale_dcf.rs`, the flagship sizes are
//! release-only; the tier-1 debug suite runs the small sweep points.

use wireless_networks::core::scenarios::{metro_dcf_point, metro_dcf_sweep, MetroDcfPoint};

fn dump(p: &MetroDcfPoint) {
    eprintln!(
        "METRO-DCF cells={} stations={} shards={} plan={:.1}ms build={:?}ms \
         stored={:?} coherent={} events={} trace_fnv={:016x}",
        p.cells,
        p.stations,
        p.shards,
        p.plan_ms,
        p.build_ms,
        p.stored_entries,
        p.grid_coherent,
        p.run.events,
        p.run.trace_fnv,
    );
}

/// Runs the point at 1 and 2 workers, asserts both are sound and
/// digest identically, and returns the 1-worker run.
fn sound_point(rows: usize, cols: usize, senders: usize, duration_ms: u64) -> MetroDcfPoint {
    let one = metro_dcf_point(rows, cols, senders, duration_ms, 42, 1);
    let two = metro_dcf_point(rows, cols, senders, duration_ms, 42, 2);
    for p in [&one, &two] {
        dump(p);
        assert_point_sound(p);
    }
    assert_eq!(
        one.run, two.run,
        "2-worker execution diverged from the 1-worker composition"
    );
    one
}

fn assert_point_sound(p: &MetroDcfPoint) {
    assert_eq!(p.shards, p.cells, "one interference shard per cell");
    assert!(
        p.incoherence.is_none(),
        "plan failed re-validation: {:?}",
        p.incoherence
    );
    assert!(p.grid_coherent, "grid structure incoherent");
    assert!(p.run.events > 0, "the metro must actually run");
    if let Some(stored) = p.stored_entries {
        assert!(
            stored < p.dense_entries(),
            "sparse rows must store fewer pairs than the dense matrix"
        );
    }
}

/// Every sweep point — debug or release — plans one shard per cell,
/// re-validates, and digests byte-identically at 1 and 2 workers.
#[test]
fn every_sweep_point_is_sound() {
    for (rows, cols, senders, duration_ms) in metro_dcf_sweep() {
        sound_point(rows, cols, senders, duration_ms);
    }
}

/// The headline gate: the release flagship covers ≥100k stations and
/// still constructs, grid-plans and runs end to end. Grid planning
/// must stay in interactive territory (well under a minute — the
/// O(n²) scan would take hours here), which is the whole point of the
/// spatial index.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "release-sized metro (100k+ stations); run with --release (CI does)"
)]
fn flagship_metro_reaches_100k_stations() {
    let (rows, cols, senders, duration_ms) = *metro_dcf_sweep().last().expect("sweep non-empty");
    let p = sound_point(rows, cols, senders, duration_ms);
    assert!(
        p.stations >= 100_000,
        "flagship must cover >=100k stations, got {}",
        p.stations
    );
    assert!(
        p.plan_ms < 60_000.0,
        "grid planning took {:.0}ms at n={} — the spatial index is not doing its job",
        p.plan_ms,
        p.stations
    );
}
