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
//!   transitions, DCF fairness, and per-world conservation ledgers.
//! - [`shrink::shrink`] minimises a failing scenario (halve stations,
//!   traffic and duration while the violation reproduces).
//!
//! Because every engine is seeded and single-threaded per run, a
//! failing seed replays byte-for-byte: the `fuzz` binary in `wn-bench`
//! prints `fuzz --seed N --shrink` as the one-line repro command.
//!
//! Every run can also execute on either scheduler back end
//! ([`run::run_scenario_with`]): the differential mode (`fuzz --dual`)
//! replays each seed through the binary heap and the timer wheel and
//! demands identical trace and metrics fingerprints, which is how the
//! wheel earns the right to be swapped in under big campaigns.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod oracle;
pub mod run;
pub mod scenario;
pub mod shard;
pub mod shrink;

pub use oracle::{oracles, Invariant, Violation};
pub use run::{
    check_range, check_range_gen, check_range_grid, check_range_opts, check_range_with, check_seed,
    check_seed_gen, check_seed_grid, check_seed_opts, check_seed_with, range_digest,
    range_digest_with, run_oracles, run_scenario, run_scenario_grid, run_scenario_opts,
    run_scenario_with, SeedReport,
};
pub use scenario::{Scenario, ScenarioGen, ScenarioKind};
pub use shard::{
    component_seed, shard_diff_range, shard_diff_range_gen, shard_diff_scenario, shard_diff_seed,
    ShardDiffReport,
};
pub use shrink::{shrink, station_count};

/// The one-line command that replays and minimises a failing seed.
pub fn repro_command(seed: u64) -> String {
    format!("cargo run --release -p wn-bench --bin fuzz -- --seed {seed} --shrink")
}
