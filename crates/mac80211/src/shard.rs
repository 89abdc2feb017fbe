//! Spatial interference shards: partitioning a deployment into
//! independently-advancing worlds (DESIGN.md §15).
//!
//! The conflict graph couples two stations when their channels
//! spectrally overlap **and** they are mutually relevant at RF level —
//! audible in either direction per the propagation model, or within
//! the caller's maximum interference range. Its connected components
//! are the *shards*: no MAC-level interaction can ever cross a shard
//! boundary, because cross-channel leakage with zero spectral overlap
//! is exactly zero (`leaked_power` returns `None`, not a small
//! number) and beyond-range co-channel stations never enter each
//! other's candidate lists.
//!
//! [`WlanWorld::shard_plan`](crate::sim::WlanWorld::shard_plan)
//! computes the partition; this module holds the plan type, the
//! coherence checks behind the `shard-coherence` oracle, and the
//! component executor ([`run_components`]) that builds and runs one
//! simulation per shard on a worker pool and digests the merged
//! output in shard order, so runs at different worker counts can be
//! compared byte-for-byte.

use crate::sim::WlanWorld;
use wn_sim::stats::fnv1a;
use wn_sim::{par_map_with, SimDuration, SimTime, Simulation};

/// Station index within a world (mirrors `sim::StationId`).
pub type StationId = usize;

/// Propagation speed, metres per nanosecond (vacuum light speed; the
/// same constant the medium uses for airtime propagation delay).
pub const METRES_PER_NANOSECOND: f64 = 0.299_792_458;

/// The propagation delay across `dist_m` metres, rounded **down** to
/// whole nanoseconds so it is a conservative (never optimistic) bound.
pub fn propagation_delay(dist_m: f64) -> SimDuration {
    SimDuration::from_nanos((dist_m / METRES_PER_NANOSECOND).floor() as u64)
}

/// A partition of a deployment's stations into interference shards.
///
/// Produced by [`WlanWorld::shard_plan`]; consumed by the component
/// builders in `wn-check`/`wn-core` (which construct one world per
/// shard) and re-validated by the `shard-coherence` oracle after
/// mobility patches.
#[derive(Clone, Debug)]
pub struct ShardPlan {
    /// Station → shard index.
    pub shard_of: Vec<usize>,
    /// Shard → member stations, ascending; shards are ordered by
    /// their smallest member id, so the partition (and everything
    /// merged in shard order) is deterministic.
    pub shards: Vec<Vec<StationId>>,
    /// The smallest propagation delay between any two stations in
    /// different shards (a lower bound computed from shard bounding
    /// boxes): the classic conservative-DES lookahead. `MAX` when
    /// there are fewer than two shards. A plan observable only: the
    /// shards exchange no events, so [`run_components`] needs no
    /// synchronization windows (DESIGN.md §15).
    pub lookahead: SimDuration,
    /// The co-channel coupling radius the plan was computed with
    /// (infinite when the caller passed `None`).
    pub max_interference_range_m: f64,
}

impl ShardPlan {
    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Stations covered by the plan.
    pub fn station_count(&self) -> usize {
        self.shard_of.len()
    }
}

/// A way the world can contradict a [`ShardPlan`]; `None` from the
/// checks below means coherent. Reported by the `shard-coherence`
/// oracle.
#[derive(Clone, Debug, PartialEq)]
pub enum ShardIncoherence {
    /// Two coupled stations (overlapping channels, audible or within
    /// range) are assigned to different shards.
    CoupledAcrossShards {
        /// First station of the offending pair.
        a: StationId,
        /// Second station of the offending pair.
        b: StationId,
        /// Their distance, metres.
        dist_m: f64,
    },
    /// The plan's lookahead exceeds some cross-shard pair's actual
    /// propagation delay (the conservative bound would be violated).
    LookaheadExceedsDelay {
        /// First station of the offending pair.
        a: StationId,
        /// Second station of the offending pair.
        b: StationId,
        /// That pair's propagation delay.
        delay: SimDuration,
    },
    /// The world gained or lost stations since the plan was computed.
    StationCountChanged {
        /// Stations the plan covers.
        planned: usize,
        /// Stations the world holds now.
        actual: usize,
    },
}

impl std::fmt::Display for ShardIncoherence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardIncoherence::CoupledAcrossShards { a, b, dist_m } => write!(
                f,
                "coupled stations {a} and {b} ({dist_m:.1} m apart) straddle shards"
            ),
            ShardIncoherence::LookaheadExceedsDelay { a, b, delay } => write!(
                f,
                "plan lookahead exceeds the {delay} propagation delay of cross-shard pair ({a}, {b})"
            ),
            ShardIncoherence::StationCountChanged { planned, actual } => write!(
                f,
                "plan covers {planned} stations but the world holds {actual}"
            ),
        }
    }
}

/// The digested output of a component run: everything the
/// worker-count differential contract compares.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardRunReport {
    /// Number of component worlds executed.
    pub shards: usize,
    /// Total events across all components.
    pub events: u64,
    /// Per-component event totals, in shard order.
    pub per_shard_events: Vec<u64>,
    /// FNV-1a over the per-shard trace JSONL, concatenated in shard
    /// order.
    pub trace_fnv: u64,
    /// FNV-1a over the per-shard metrics-snapshot JSONL, concatenated
    /// in shard order.
    pub metrics_fnv: u64,
}

/// Mixer for per-component RNG streams: component `k` of a plan seeds
/// its world with `base ^ (k · φ64)`, so component 0 keeps the base
/// seed (the bridge to the classic single-world engine) and every
/// further component gets an independent, reproducible stream.
pub fn component_seed(base: u64, k: usize) -> u64 {
    base ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Digests a slice of already-run component simulations into a
/// [`ShardRunReport`]: per-shard trace and metrics JSONL concatenated
/// in shard order, then FNV-1a'd. Public so callers that drive their
/// own component loop (the benchmark times each phase) still produce
/// the exact digest [`run_components`] returns.
pub fn digest_components(
    sims: &[Simulation<WlanWorld>],
    per_shard_events: Vec<u64>,
    horizon: SimTime,
    tag: &str,
) -> ShardRunReport {
    let mut trace_jsonl = String::new();
    let mut metrics_jsonl = String::new();
    for sim in sims {
        trace_jsonl.push_str(&sim.world().trace.to_jsonl(tag));
        metrics_jsonl.push_str(&sim.world().metrics_snapshot(horizon).to_jsonl(tag));
    }
    ShardRunReport {
        shards: sims.len(),
        events: per_shard_events.iter().sum(),
        trace_fnv: fnv1a(trace_jsonl.as_bytes()),
        metrics_fnv: fnv1a(metrics_jsonl.as_bytes()),
        per_shard_events,
    }
}

/// Builds and runs `count` component worlds on up to `workers`
/// threads: component `k` is built by `build(k)` and advanced straight
/// to `horizon` with one `run_until`, both on the worker that claims
/// it. Components never exchange state, so the worker count cannot
/// change any component's event execution; 1 worker is the serial
/// case. Returns the run worlds in shard order (for per-component
/// observables) and their [`digest_components`] digest.
///
/// # Panics
///
/// Propagates a panic raised while building or running a component.
pub fn run_components<B>(
    count: usize,
    horizon: SimTime,
    workers: usize,
    tag: &str,
    build: B,
) -> (Vec<Simulation<WlanWorld>>, ShardRunReport)
where
    B: Fn(usize) -> Simulation<WlanWorld> + Sync,
{
    let ran = par_map_with(workers, (0..count).collect(), |k| {
        let mut sim = build(k);
        let events = sim.run_until(horizon);
        (sim, events)
    });
    let (sims, per_shard_events): (Vec<_>, Vec<_>) = ran.into_iter().unzip();
    let report = digest_components(&sims, per_shard_events, horizon, tag);
    (sims, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::FrameId;
    use crate::neighbors::NeighborCache;

    /// Compile-time `Send` audit: the whole shard payload chain must
    /// stay `Send` so worlds can migrate onto executor threads. A
    /// reintroduced `Rc`/`RefCell` anywhere in these types fails this
    /// *at build time*.
    fn assert_send<T: Send>() {}

    #[test]
    fn shard_payload_types_are_send() {
        assert_send::<FrameId>();
        assert_send::<NeighborCache>();
        assert_send::<WlanWorld>();
        assert_send::<Simulation<WlanWorld>>();
        assert_send::<ShardPlan>();
        assert_send::<ShardRunReport>();
    }

    #[test]
    fn propagation_delay_rounds_down() {
        // 300 m ≈ 1000.69 ns of flight time → 1000 ns conservative.
        assert_eq!(propagation_delay(300.0), SimDuration::from_nanos(1000));
        assert_eq!(propagation_delay(0.0), SimDuration::ZERO);
    }
}
