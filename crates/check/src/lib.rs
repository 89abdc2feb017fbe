//! `wn-check` — a FoundationDB-style deterministic simulation fuzzer
//! for the wireless-networks workspace.
//!
//! The pieces:
//!
//! - [`scenario::ScenarioGen`] maps a seed to a concrete [`Scenario`]:
//!   a random topology, PHY rates, traffic load, queue capacities,
//!   fragmentation thresholds, mobility schedule and fault toggles
//!   across the WLAN, WPAN (Bluetooth / ZigBee) and WMAN worlds.
//! - [`run::run_scenario`] executes it through the existing engines
//!   and collects [`run::Artifacts`]: the typed trace plus end-state
//!   counters and config bounds.
//! - [`oracle::oracles`] is the pluggable invariant set checked
//!   against those artifacts — NAV respected, retry limits honoured,
//!   frame conservation, no duplicate delivery, legal state-machine
//!   transitions, DCF fairness, per-world conservation ledgers, and
//!   scheduler order.
//! - [`shrink::shrink`] minimises a failing scenario (halve stations,
//!   traffic and duration while the violation reproduces).
//!
//! Because every engine is seeded and single-threaded per run, a
//! failing seed replays byte-for-byte: the `fuzz` binary in `wn-bench`
//! prints `fuzz --seed N --shrink` as the one-line repro command.
//!
//! Every run records its scheduler op stream, and the scheduler-order
//! oracle ([`oracle::SchedulerOrder`]) replays it through the timer
//! wheel and the reference binary heap, demanding the same pop order.
//! The world is deterministic, so equal pop order on the run's own
//! stream means a heap-driven run would be byte-identical — the
//! engine needs no second queue to prove its one queue right.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod run;
pub mod scenario;
pub mod shard;
pub mod shrink;

pub use oracle::{oracles, Invariant, Violation};
pub use run::{
    check_range, check_range_gen, check_seed, check_seed_gen, line_world_run, range_digest,
    run_oracles, run_scenario, run_scenario_opts, use_direct_propagation, LineRun, SeedReport,
    LINE_WORLD_SPACINGS,
};
pub use scenario::{Scenario, ScenarioGen, ScenarioKind};
pub use shard::{
    component_seed, shard_diff_range, shard_diff_range_gen, shard_diff_scenario, shard_diff_seed,
    ShardDiffReport,
};
pub use shrink::{shrink, station_count};

/// The one-line command that replays and minimises a failing seed of
/// `gen`'s corpus: the QoS corpus is only reachable through `--qos`.
pub fn repro_command(gen: &ScenarioGen, seed: u64) -> String {
    let corpus = if gen.qos { " --qos" } else { "" };
    format!("cargo run --release -p wn-bench --bin fuzz --{corpus} --seed {seed} --shrink")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repro_command_names_the_corpus() {
        assert_eq!(
            repro_command(&ScenarioGen::default(), 7),
            "cargo run --release -p wn-bench --bin fuzz -- --seed 7 --shrink"
        );
        assert_eq!(
            repro_command(&ScenarioGen::with_qos(), 7),
            "cargo run --release -p wn-bench --bin fuzz -- --qos --seed 7 --shrink"
        );
    }
}
