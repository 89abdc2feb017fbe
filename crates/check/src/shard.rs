//! The shard-executor worker-count differential (DESIGN.md §15).
//!
//! A fuzz scenario's deployment is partitioned into interference
//! shards ([`WlanWorld::shard_plan`]); each shard becomes its own
//! component world, built by the *same* construction code the classic
//! runner uses. The composition is then executed by
//! [`run_components`] at 1 worker (the serial reference) and again at
//! 2 and 4 workers, digesting traces and metrics in shard order; the
//! digests must be byte-identical — the same differential contract
//! `--dual` enforces across scheduler back ends and `--cache-diff`
//! across propagation paths. A single-component plan additionally
//! bridges to the classic engine: its composition is the very same
//! construction `run_scenario` executes, so the digests must equal
//! the classic fingerprints too (verified by a unit test here, which
//! also pins an ESS run in one `run_until` against the classic
//! runner's sliced run).
//!
//! ESS scenarios are always one component (see `build_ess_sim`), so
//! there is nothing to spread across workers, and non-WLAN kinds
//! (Bluetooth, ZigBee, WiMAX) have no shared medium to partition:
//! [`shard_diff_seed`] returns `None` for both.

use crate::run::{
    data_frame, wlan_ac_of, wlan_config, wlan_sink_of, wlan_station_pos, CheckUpper, TRACE_CAPACITY,
};
use crate::scenario::{Scenario, ScenarioGen, ScenarioKind, WlanScenario};
use std::sync::{Arc, Mutex};
use wn_mac80211::addr::MacAddr;
use wn_mac80211::shard::{run_components, ShardRunReport};
use wn_mac80211::sim::{boot as wlan_boot, inject_at, qos_inject_at, WlanWorld};
use wn_sim::par::par_map_with;
use wn_sim::trace::Trace;
use wn_sim::{SimTime, Simulation};

pub use wn_mac80211::shard::component_seed;

/// One seed's worker-count differential outcome.
pub struct ShardDiffReport {
    /// The seed.
    pub seed: u64,
    /// Scenario one-liner.
    pub summary: String,
    /// Scenario kind tag.
    pub kind: &'static str,
    /// Number of shards the deployment partitioned into.
    pub shards: usize,
    /// The composition run on 1 worker (the serial reference).
    pub reference: ShardRunReport,
    /// The same composition on 2 and 4 workers.
    pub parallel: Vec<(usize, ShardRunReport)>,
    /// A partition-soundness failure on the planning world, if any
    /// (`None` = the plan validates).
    pub incoherence: Option<String>,
}

impl ShardDiffReport {
    /// Whether any multi-worker execution diverged from the 1-worker
    /// reference, or the plan failed validation.
    pub fn divergent(&self) -> bool {
        self.incoherence.is_some() || self.parallel.iter().any(|(_, r)| *r != self.reference)
    }
}

/// Builds component `k` of a flat-WLAN scenario: the stations in
/// `members` (global ids, ascending), at their scenario positions,
/// with the scenario's traffic — exactly the classic construction
/// restricted to one shard. Injection targets keep their global
/// addresses; a sink outside this shard is simply a MAC address that
/// never answers, which is indistinguishable from the deaf-sink fault
/// the generator already exercises.
fn build_wlan_component(
    seed: u64,
    w: &WlanScenario,
    members: &[usize],
    k: usize,
) -> Simulation<WlanWorld> {
    let mut cfg = wlan_config(seed, w);
    cfg.seed = component_seed(seed, k);
    let delivered = Arc::new(Mutex::new(Vec::new()));
    let mut world = WlanWorld::new(cfg);
    world.set_neighbor_cache(true);
    world.trace = Trace::new(TRACE_CAPACITY);
    for &g in members {
        world.add_station(
            MacAddr::station(g as u32),
            wlan_station_pos(w, g),
            Box::new(CheckUpper {
                delivered: delivered.clone(),
            }),
        );
    }
    if w.deaf_sink {
        if let Some(local) = members.iter().position(|&g| g == 0) {
            world.set_channel(local, 11);
        }
    }
    let mut sim = Simulation::new(world);
    wlan_boot(&mut sim);
    for (local, &g) in members.iter().enumerate() {
        let Some(sink) = wlan_sink_of(w, g) else {
            continue;
        };
        for f in 0..u64::from(w.frames_per_sender) {
            let at = SimTime::from_micros(f * w.interval_us);
            let frame = data_frame(g as u32, sink as u32, w.payload);
            if w.edca {
                qos_inject_at(&mut sim, at, local, frame, wlan_ac_of(g, f));
            } else {
                inject_at(&mut sim, at, local, frame);
            }
        }
    }
    sim
}

fn shard_diff_wlan(sc: &Scenario, w: &WlanScenario) -> ShardDiffReport {
    // Planning world: the same deployment, no traffic. `None` for the
    // interference range couples every overlapping-channel pair, so
    // the only splits are exact channel-orthogonality splits — zero
    // spectral overlap means exactly zero leaked power, never a small
    // number (the cross-shard silence argument, DESIGN.md §15).
    let mut planning = WlanWorld::new(wlan_config(sc.seed, w));
    let log = Arc::new(Mutex::new(Vec::new()));
    for i in 0..w.total_stations() {
        planning.add_station(
            MacAddr::station(i as u32),
            wlan_station_pos(w, i),
            Box::new(CheckUpper {
                delivered: log.clone(),
            }),
        );
    }
    if w.deaf_sink {
        planning.set_channel(0, 11);
    }
    let plan = planning.shard_plan(SimTime::ZERO, None);
    let incoherence = planning
        .shard_plan_incoherence(&plan, SimTime::ZERO)
        .map(|i| i.to_string());

    let horizon = SimTime::from_millis(w.duration_ms);
    let run = |workers: usize| {
        run_components(plan.shard_count(), horizon, workers, "fuzz", |k| {
            build_wlan_component(sc.seed, w, &plan.shards[k], k)
        })
        .1
    };
    ShardDiffReport {
        seed: sc.seed,
        summary: sc.summary(),
        kind: sc.kind_tag(),
        shards: plan.shard_count(),
        reference: run(1),
        parallel: [2, 4].map(|workers| (workers, run(workers))).to_vec(),
        incoherence,
    }
}

/// Runs the worker-count differential for one explicit scenario;
/// `None` for kinds that are never more than one component.
pub fn shard_diff_scenario(sc: &Scenario) -> Option<ShardDiffReport> {
    match &sc.kind {
        ScenarioKind::Wlan(w) => Some(shard_diff_wlan(sc, w)),
        ScenarioKind::Ess(_)
        | ScenarioKind::Bluetooth(_)
        | ScenarioKind::Zigbee(_)
        | ScenarioKind::Wman(_) => None,
    }
}

/// Generates the scenario for `seed` and runs the worker-count
/// differential on it.
pub fn shard_diff_seed(seed: u64) -> Option<ShardDiffReport> {
    shard_diff_scenario(&ScenarioGen::default().scenario(seed))
}

/// [`shard_diff_seed`] over a seed range, fanned out over `threads`
/// workers (each seed's differential is self-contained, so reports
/// are identical for any worker count). `None` entries are skipped
/// kinds.
pub fn shard_diff_range(start: u64, count: u64, threads: usize) -> Vec<Option<ShardDiffReport>> {
    let seeds: Vec<u64> = (start..start + count).collect();
    par_map_with(threads, seeds, shard_diff_seed)
}

/// [`shard_diff_range`] under an explicit scenario generator — the
/// shard-executor leg of the `--qos` corpus.
pub fn shard_diff_range_gen(
    gen: ScenarioGen,
    start: u64,
    count: u64,
    threads: usize,
) -> Vec<Option<ShardDiffReport>> {
    let seeds: Vec<u64> = (start..start + count).collect();
    par_map_with(threads, seeds, move |seed| {
        shard_diff_scenario(&gen.scenario(seed))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{build_ess_sim, check_seed};
    use wn_sim::stats::fnv1a;
    use wn_sim::SchedulerKind;

    fn first_seed_of_kind(kind: &str, pred: impl Fn(&Scenario) -> bool) -> (u64, Scenario) {
        for seed in 0..500 {
            let sc = ScenarioGen::default().scenario(seed);
            if sc.kind_tag() == kind && pred(&sc) {
                return (seed, sc);
            }
        }
        panic!("no {kind} scenario in the first 500 seeds");
    }

    /// The bridge to the classic engine: a flat WLAN without the
    /// deaf-sink fault is one conflict component, so its "sharded"
    /// composition is the identical construction `run_scenario`
    /// executes — fingerprints must match exactly. ESS scenarios
    /// (with and without a walking station) bridge the same way, and
    /// pin slicing invariance on top: the classic runner advances in
    /// its ledger slices, the composition in one `run_until`.
    #[test]
    fn single_shard_composition_equals_classic_run() {
        let (seed, sc) = first_seed_of_kind("wlan", |sc| match &sc.kind {
            ScenarioKind::Wlan(w) => !w.deaf_sink,
            _ => false,
        });
        let diff = shard_diff_scenario(&sc).expect("wlan shards");
        assert_eq!(diff.shards, 1, "non-deaf flat WLAN must be one shard");
        let classic = check_seed(seed);
        assert_eq!(diff.reference.trace_fnv, classic.trace_fnv);
        assert_eq!(diff.reference.metrics_fnv, classic.metrics_fnv);
        assert!(!diff.divergent());

        for walker in [false, true] {
            let (seed, sc) = first_seed_of_kind("ess", |sc| match &sc.kind {
                ScenarioKind::Ess(e) => e.walker == walker,
                _ => false,
            });
            let ScenarioKind::Ess(e) = &sc.kind else {
                unreachable!("picked an ess scenario")
            };
            let horizon = SimTime::from_secs(e.duration_s);
            let (_, composed) = run_components(1, horizon, 1, "fuzz", |_| {
                build_ess_sim(seed, e, SchedulerKind::default(), true)
            });
            let classic = check_seed(seed);
            assert!(composed.events > 0, "ess seed {seed} must run");
            assert_eq!(
                (composed.trace_fnv, composed.metrics_fnv),
                (classic.trace_fnv, classic.metrics_fnv),
                "ess seed {seed} (walker {walker}): one run_until diverged from the sliced run"
            );
        }
    }

    /// The deaf-sink fault parks the sink on an orthogonal channel,
    /// which must split it into its own shard — and the 2- and
    /// 4-worker executions must still be byte-identical to 1 worker.
    #[test]
    fn deaf_sink_splits_and_stays_identical() {
        let (_seed, sc) = first_seed_of_kind("wlan", |sc| match &sc.kind {
            ScenarioKind::Wlan(w) => w.deaf_sink,
            _ => false,
        });
        let diff = shard_diff_scenario(&sc).expect("wlan shards");
        assert_eq!(diff.shards, 2, "deaf sink must shard off: {}", diff.summary);
        assert_eq!(
            diff.parallel.iter().map(|(w, _)| *w).collect::<Vec<_>>(),
            vec![2, 4]
        );
        assert!(!diff.divergent());
        // The digests are over non-empty content.
        assert!(diff.reference.events > 0);
        assert_ne!(diff.reference.trace_fnv, fnv1a(b""));
    }

    /// Single-component and non-medium kinds are skipped, not
    /// zero-filled.
    #[test]
    fn ess_and_non_wlan_kinds_are_skipped() {
        for kind in ["ess", "bt"] {
            let (_seed, sc) = first_seed_of_kind(kind, |_| true);
            assert!(shard_diff_scenario(&sc).is_none(), "{kind}");
        }
    }

    #[test]
    fn component_seed_zero_is_base() {
        assert_eq!(component_seed(0xDEAD_BEEF, 0), 0xDEAD_BEEF);
        assert_ne!(component_seed(0xDEAD_BEEF, 1), 0xDEAD_BEEF);
        assert_ne!(
            component_seed(0xDEAD_BEEF, 1),
            component_seed(0xDEAD_BEEF, 2)
        );
    }
}
