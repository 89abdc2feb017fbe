//! Partition properties of the interference shard planner and the
//! byte-identity contract of the shard executor (DESIGN.md §15),
//! checked end to end through the public facade:
//!
//! - no audible co-channel pair ever straddles a shard boundary (the
//!   cached audible-neighbor lists are the witness);
//! - the plan's cross-shard lookahead never exceeds any cross-shard
//!   pair's actual propagation delay (the conservative-DES bound);
//! - stale plans are caught by `shard_plan_incoherence` after the
//!   world changes under them (the `shard-coherence` oracle's check);
//! - the component executor produces byte-identical digests at 1, 2
//!   and 4 workers, and a single-component composition bridges to a
//!   plain `run_until`.

use wireless_networks::mac80211::addr::MacAddr;
use wireless_networks::mac80211::shard::{
    component_seed, propagation_delay, run_components, ShardIncoherence,
};
use wireless_networks::mac80211::sim::{boot, inject_at, MacConfig, NullUpper, WlanWorld};
use wireless_networks::phy::geom::Point;
use wireless_networks::phy::modulation::PhyStandard;
use wireless_networks::sim::stats::fnv1a;
use wireless_networks::sim::{SimDuration, SimTime, Simulation};

/// A world of station clusters: each `(centre, channel, count)` entry
/// puts one station at the centre and the rest on an 8 m ring.
fn cluster_world(seed: u64, clusters: &[(Point, u8, usize)]) -> WlanWorld {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    let mut w = WlanWorld::new(cfg);
    let mut g = 0u32;
    for &(centre, ch, count) in clusters {
        for k in 0..count {
            let pos = if k == 0 {
                centre
            } else {
                let a = k as f64 / count as f64 * std::f64::consts::TAU;
                Point::new(centre.x + 8.0 * a.cos(), centre.y + 8.0 * a.sin())
            };
            let id = g as usize;
            w.add_station(MacAddr::station(g), pos, Box::new(NullUpper));
            w.set_channel(id, ch);
            g += 1;
        }
    }
    w
}

/// Deterministic xorshift for scatter placement — the test's own
/// stream, independent of the simulation RNG.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// Every audible pair shares a shard when all stations share one
/// channel: audibility implies spectral overlap implies coupling, so
/// the cached audible-neighbor lists are a direct witness against the
/// partition. Random scatters over a 600 m square, several seeds,
/// both a finite coupling radius and the unbounded one.
#[test]
fn audible_pairs_never_straddle_shards() {
    for seed in [1u64, 7, 42] {
        let mut rng = seed | 1;
        let mut cfg = MacConfig::new(PhyStandard::Dot11g);
        cfg.seed = seed;
        let mut w = WlanWorld::new(cfg);
        for g in 0..40u32 {
            let x = (xorshift(&mut rng) % 600_000) as f64 / 1_000.0;
            let y = (xorshift(&mut rng) % 600_000) as f64 / 1_000.0;
            w.add_station(MacAddr::station(g), Point::new(x, y), Box::new(NullUpper));
        }
        w.set_neighbor_cache(true);
        w.prime_neighbor_cache(SimTime::ZERO);
        for range in [Some(120.0), None] {
            let plan = w.shard_plan(SimTime::ZERO, range);
            assert_eq!(plan.station_count(), 40);
            for i in 0..40usize {
                for &j in w.neighbor_cache().audible_list(i).iter() {
                    assert_eq!(
                        plan.shard_of[i], plan.shard_of[j],
                        "seed {seed} range {range:?}: audible pair ({i}, {j}) straddles shards"
                    );
                }
            }
            assert!(
                w.shard_plan_incoherence(&plan, SimTime::ZERO).is_none(),
                "seed {seed} range {range:?}: fresh plan must validate"
            );
        }
    }
}

/// The plan's lookahead is a conservative bound: for every pair of
/// stations in different shards, the pair's actual propagation delay
/// is at least the plan's lookahead.
#[test]
fn cross_shard_lookahead_never_exceeds_any_pair_delay() {
    // Three co-channel islands far apart plus one orthogonal-channel
    // cluster sitting between them: four shards, mixed separations.
    let w = cluster_world(
        3,
        &[
            (Point::new(0.0, 0.0), 1, 5),
            (Point::new(400.0, 0.0), 1, 5),
            (Point::new(0.0, 500.0), 1, 5),
            (Point::new(200.0, 30.0), 6, 5),
        ],
    );
    let plan = w.shard_plan(SimTime::ZERO, Some(250.0));
    assert_eq!(plan.shard_count(), 4, "four decoupled islands expected");
    assert!(plan.lookahead > SimDuration::ZERO);
    let n = plan.station_count();
    for i in 0..n {
        for j in (i + 1)..n {
            if plan.shard_of[i] == plan.shard_of[j] {
                continue;
            }
            let d = w.position(i).distance_to(w.position(j));
            assert!(
                propagation_delay(d) >= plan.lookahead,
                "pair ({i}, {j}) at {d:.1} m beats the {} lookahead",
                plan.lookahead
            );
        }
    }
}

/// A plan computed against one deployment must fail validation once
/// the world contradicts it — the check behind the `shard-coherence`
/// oracle, which re-validates the partition after mobility patches.
#[test]
fn stale_plans_are_caught_by_the_coherence_check() {
    let far = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(500.0, 0.0), 1, 4)],
    );
    let plan = far.shard_plan(SimTime::ZERO, Some(250.0));
    assert_eq!(plan.shard_count(), 2);
    assert!(far.shard_plan_incoherence(&plan, SimTime::ZERO).is_none());

    // The same stations with the second island walked next door: the
    // old partition now splits a coupled pair.
    let near = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(30.0, 0.0), 1, 4)],
    );
    match near.shard_plan_incoherence(&plan, SimTime::ZERO) {
        Some(ShardIncoherence::CoupledAcrossShards { .. }) => {}
        other => panic!("expected CoupledAcrossShards, got {other:?}"),
    }

    // A world that gained a station invalidates the plan outright.
    let grown = cluster_world(
        5,
        &[(Point::new(0.0, 0.0), 1, 4), (Point::new(500.0, 0.0), 1, 5)],
    );
    match grown.shard_plan_incoherence(&plan, SimTime::ZERO) {
        Some(ShardIncoherence::StationCountChanged { planned, actual }) => {
            assert_eq!((planned, actual), (8, 9));
        }
        other => panic!("expected StationCountChanged, got {other:?}"),
    }
}

/// Builds one saturated component cell for the executor tests: a sink
/// and three senders, 30 frames each.
fn traffic_cell(seed: u64, k: usize, channel: u8) -> Simulation<WlanWorld> {
    let centre = Point::new(k as f64 * 300.0, 0.0);
    let mut w = cluster_world(component_seed(seed, k), &[(centre, channel, 4)]);
    w.set_neighbor_cache(true);
    let mut sim = Simulation::new(w);
    boot(&mut sim);
    for sender in 1..4usize {
        for f in 0..30u64 {
            inject_at(
                &mut sim,
                SimTime::from_micros(f * 700),
                sender,
                wireless_networks::mac80211::frame::Frame::data(
                    wireless_networks::mac80211::frame::DsBits::Ibss,
                    MacAddr::station(0),
                    MacAddr::station(sender as u32),
                    MacAddr::random_ibss_bssid(1),
                    wireless_networks::mac80211::frame::SequenceControl::default(),
                    vec![0xDA; 300],
                ),
            );
        }
    }
    sim
}

/// The executor differential at root level: three traffic-carrying
/// cells on channels 1/6/11 at 1, 2 and 4 workers, byte-identical
/// digests everywhere — the worker count never changes the answer.
#[test]
fn component_executor_is_byte_identical_across_worker_counts() {
    let horizon = SimTime::from_millis(30);
    let build = |k: usize| traffic_cell(11, k, [1u8, 6, 11][k]);
    let (sims, one) = run_components(3, horizon, 1, "shards", build);
    assert_eq!(sims.len(), 3);
    assert!(one.events > 0);
    assert!(one.per_shard_events.iter().all(|&e| e > 0));
    for workers in [2usize, 4] {
        let (_, many) = run_components(3, horizon, workers, "shards", build);
        assert_eq!(one, many, "{workers} workers diverged from 1 worker");
    }
}

/// A single-component composition is the classic engine: its digest
/// must equal a plain `run_until` over an identically built world —
/// the bridge that anchors the sharded harness to the unsharded one.
#[test]
fn single_component_composition_bridges_to_plain_run_until() {
    let horizon = SimTime::from_millis(30);
    let (_, report) = run_components(1, horizon, 1, "shards", |k| traffic_cell(11, k, 1));
    let mut sim = traffic_cell(11, 0, 1);
    let events = sim.run_until(horizon);
    let trace = fnv1a(sim.world().trace.to_jsonl("shards").as_bytes());
    let metrics = fnv1a(
        sim.world()
            .metrics_snapshot(horizon)
            .to_jsonl("shards")
            .as_bytes(),
    );
    assert_eq!(report.events, events);
    assert_eq!(report.trace_fnv, trace);
    assert_eq!(report.metrics_fnv, metrics);
}
