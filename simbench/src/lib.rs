//! Host-time benchmark of the wireless-network simulator.
//!
//! Each workload is generated from a seed, handed to the simulator
//! through its public constructors (`WlanWorld::new`, `add_station(s)`,
//! `set_channel`, `boot`, `inject_at`, `qos_inject_at`), run to its
//! horizon on the default scheduler, exported with
//! `digest_components`, and checked. [`run`] returns the host-time
//! phases, the simulated-time model outputs, the check verdicts and —
//! in a traced run — the per-layer metrics read from spans the
//! benchmark records around its own calls into each layer.
//!
//! Every workload goes through one path: build a list of component
//! worlds, run them with `par_map_with`, digest them in component
//! order. The single-BSS workloads are one component run inline; the
//! city is one component per shard of its plan. See `README.md` for
//! why each workload exists and which layers it loads.

pub mod spans;

use spans::{durations_s, span, total_s, Span, Spans};
use std::hint::black_box;
use std::time::Instant;
use wn_core::scenarios::{
    metro_dcf_planning_world, CITY_DCF_CHANNELS, CITY_DCF_RANGE_M, CITY_DCF_RING_M,
    CITY_DCF_SPACING_M, DENSE_OBSS_CLIENT_M, DENSE_OBSS_FRAMES_PER_MS, DENSE_OBSS_MIX,
    DENSE_OBSS_PAYLOAD, DENSE_OBSS_SPACING_M, SCALE_DCF_PAYLOAD,
};
use wn_mac80211::shard::{component_seed, digest_components, ShardPlan, ShardRunReport};
use wn_mac80211::sim::{
    boot, inject_at, qos_inject_at, AccessCategory, MacConfig, NullUpper, WlanWorld,
};
use wn_mac80211::{DsBits, Frame, MacAddr, SequenceControl};
use wn_phy::geom::Point;
use wn_phy::modulation::PhyStandard;
use wn_sim::{par_map_with, replay_ops, SchedulerKind, SimTime, Simulation};

/// Host-time slices the traced run splits each component's event loop
/// into (equal simulated-time slices).
const SLICES: u64 = 100;

/// Cross-BSS Jain index the city must reach.
const CITY_MIN_JAIN: f64 = 0.95;

/// The benchmark's named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// SCALE-DCF shape: one 1000-sender saturated BSS.
    SaturatedBss,
    /// CITY-DCF shape: 108 BSSes planned into shards.
    CityShards,
    /// DENSE-OBSS shape: a 5×5 EDCA/A-MPDU apartment block.
    QosObss,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SaturatedBss,
        Workload::CityShards,
        Workload::QosObss,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SaturatedBss => "saturated-bss",
            Workload::CityShards => "city-shards",
            Workload::QosObss => "qos-obss",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The size the benchmark runs this workload at.
    pub fn shape(self) -> Shape {
        match self {
            Workload::SaturatedBss => Shape::Bss {
                senders: 1000,
                duration_ms: 200,
            },
            Workload::CityShards => Shape::City {
                rows: 9,
                cols: 12,
                senders: 96,
                duration_ms: 60,
                backlog_floor: 32,
            },
            Workload::QosObss => Shape::Obss {
                rows: 5,
                cols: 5,
                duration_ms: 5000,
            },
        }
    }
}

/// A workload's deployment and horizon. The workloads fix one size
/// each; the fidelity tests run other sizes of the same shapes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Shape {
    /// `senders` saturated DCF senders on an 8 m ring around a sink.
    Bss { senders: usize, duration_ms: u64 },
    /// A `rows × cols` street grid of saturated BSSes on channels
    /// 1/6/11, `senders` per cell, planned into shards. Each sender
    /// stages ≈1.25× its share of capacity plus `backlog_floor` frames.
    City {
        rows: usize,
        cols: usize,
        senders: usize,
        duration_ms: u64,
        backlog_floor: u64,
    },
    /// A `rows × cols` block of AP→client EDCA downlinks on channels
    /// 1/6/11 with A-MPDU capped at 16.
    Obss {
        rows: usize,
        cols: usize,
        duration_ms: u64,
    },
}

impl Shape {
    /// The experiment tag the export digests under.
    pub fn tag(self) -> &'static str {
        match self {
            Shape::Bss { .. } => "SCALE-DCF",
            Shape::City { .. } => "CITY-DCF",
            Shape::Obss { .. } => "DENSE-OBSS",
        }
    }

    /// Simulated horizon.
    pub fn horizon(self) -> SimTime {
        match self {
            Shape::Bss { duration_ms, .. }
            | Shape::City { duration_ms, .. }
            | Shape::Obss { duration_ms, .. } => SimTime::from_millis(duration_ms),
        }
    }
}

/// A named value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one run of one workload produced.
pub struct Outcome {
    /// First constructor call to exported digest [s].
    pub wall_s: f64,
    /// Host time before the first event [s].
    pub setup_s: f64,
    /// Event-loop phase [s].
    pub loop_s: f64,
    /// `VmHWM` right after the export [MB].
    pub peak_rss_mb: f64,
    /// The export: events, per-component events and digests.
    pub digest: ShardRunReport,
    /// Simulated-time model outputs, printed beside the metrics.
    pub outputs: Vec<Metric>,
    /// Output checks; the run failed if any is false.
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer metrics (traced run only).
    pub layers: Vec<Metric>,
    /// Recorded spans (traced run only).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every output check passed.
    pub fn ok(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

fn data_frame(from: u32, to: u32, len: usize) -> Frame {
    Frame::data(
        DsBits::Ibss,
        MacAddr::station(to),
        MacAddr::station(from),
        MacAddr::random_ibss_bssid(1),
        SequenceControl::default(),
        vec![0xDA; len],
    )
}

/// Fixed-rate 802.11g MAC config: ARF off, so the top rate is used
/// throughout and collapse measures contention, not rate drift.
fn fixed_rate_config(seed: u64, queue_limit: u64) -> MacConfig {
    let mut cfg = MacConfig::new(PhyStandard::Dot11g);
    cfg.seed = seed;
    cfg.arf = false;
    cfg.queue_limit = queue_limit as usize;
    cfg
}

// ----- saturated BSS -----

/// Backlog per sender: ≈1.25× the collision-free capacity plus a
/// floor, so every queue is still backlogged at the horizon.
fn bss_frames_per_sender(senders: usize, duration_ms: u64) -> u64 {
    duration_ms * 1_000 / (120 * senders as u64) + 64
}

fn bss_world(senders: usize, duration_ms: u64, seed: u64) -> WlanWorld {
    let mut w = WlanWorld::new(fixed_rate_config(
        seed,
        bss_frames_per_sender(senders, duration_ms),
    ));
    w.add_stations(
        senders + 1,
        |i| {
            if i == 0 {
                Point::new(0.0, 0.0)
            } else {
                let a = i as f64 / senders as f64 * std::f64::consts::TAU;
                Point::new(8.0 * a.cos(), 8.0 * a.sin())
            }
        },
        |_| Box::new(NullUpper),
    );
    w
}

/// Pre-stages the whole backlog round-robin across senders at a fixed
/// stride over the first 90 % of the horizon.
fn bss_stage(sim: &mut Simulation<WlanWorld>, senders: usize, duration_ms: u64) {
    let per_sender = bss_frames_per_sender(senders, duration_ms);
    let stride_ns = duration_ms * 900_000 / (per_sender * senders as u64);
    for i in 1..=senders {
        for k in 0..per_sender {
            let j = k * senders as u64 + (i as u64 - 1);
            inject_at(
                sim,
                SimTime::from_nanos(j * stride_ns),
                i,
                data_frame(i as u32, 0, SCALE_DCF_PAYLOAD),
            );
        }
    }
}

// ----- city -----

fn city_frames_per_sender(senders: usize, duration_ms: u64, floor: u64) -> u64 {
    duration_ms * 1_000 / (120 * senders as u64) + floor
}

fn grid_channel(cell: usize, cols: usize) -> u8 {
    CITY_DCF_CHANNELS[(2 * (cell / cols) + cell % cols) % 3]
}

fn city_pos(cell: usize, cols: usize, local: usize, senders: usize) -> Point {
    let cx = (cell % cols) as f64 * CITY_DCF_SPACING_M;
    let cy = (cell / cols) as f64 * CITY_DCF_SPACING_M;
    if local == 0 {
        Point::new(cx, cy)
    } else {
        let a = local as f64 / senders as f64 * std::f64::consts::TAU;
        Point::new(
            cx + CITY_DCF_RING_M * a.cos(),
            cy + CITY_DCF_RING_M * a.sin(),
        )
    }
}

/// Shard `k`'s world: its member stations (global ids, ascending) at
/// their street-grid positions on their cell channels.
fn city_world(
    members: &[usize],
    k: usize,
    cols: usize,
    (senders, duration_ms, floor): (usize, u64, u64),
    seed: u64,
) -> WlanWorld {
    let per_cell = senders + 1;
    let mut w = WlanWorld::new(fixed_rate_config(
        component_seed(seed, k),
        city_frames_per_sender(senders, duration_ms, floor),
    ));
    for &g in members {
        w.add_station(
            MacAddr::station(g as u32),
            city_pos(g / per_cell, cols, g % per_cell, senders),
            Box::new(NullUpper),
        );
    }
    for (local, &g) in members.iter().enumerate() {
        w.set_channel(local, grid_channel(g / per_cell, cols));
    }
    w
}

fn city_stage(
    sim: &mut Simulation<WlanWorld>,
    members: &[usize],
    (senders, duration_ms, floor): (usize, u64, u64),
) {
    let per_cell = senders + 1;
    let per_sender = city_frames_per_sender(senders, duration_ms, floor);
    let stride_ns = duration_ms * 900_000 / (per_sender * senders as u64);
    for (local, &g) in members.iter().enumerate() {
        let (cell, lid) = (g / per_cell, g % per_cell);
        if lid == 0 {
            continue;
        }
        let sink = (cell * per_cell) as u32;
        for f in 0..per_sender {
            let j = f * senders as u64 + (lid as u64 - 1);
            inject_at(
                sim,
                SimTime::from_nanos(j * stride_ns),
                local,
                data_frame(g as u32, sink, SCALE_DCF_PAYLOAD),
            );
        }
    }
}

// ----- QoS apartment block -----

/// MSDUs each AP offers per access category over the horizon.
fn obss_counts(duration_ms: u64) -> [u64; 4] {
    let total = DENSE_OBSS_FRAMES_PER_MS * duration_ms;
    DENSE_OBSS_MIX.map(|pct| (total * pct / 100).max(1))
}

fn obss_world(rows: usize, cols: usize, duration_ms: u64, seed: u64) -> WlanWorld {
    let mut cfg = fixed_rate_config(seed, obss_counts(duration_ms).iter().sum::<u64>() + 4);
    cfg.edca = true;
    cfg.ampdu_max_mpdus = 16;
    let mut w = WlanWorld::new(cfg);
    for cell in 0..rows * cols {
        let cx = (cell % cols) as f64 * DENSE_OBSS_SPACING_M;
        let cy = (cell / cols) as f64 * DENSE_OBSS_SPACING_M;
        let ap = w.add_station(
            MacAddr::station(2 * cell as u32),
            Point::new(cx, cy),
            Box::new(NullUpper),
        );
        let client = w.add_station(
            MacAddr::station(2 * cell as u32 + 1),
            Point::new(cx + DENSE_OBSS_CLIENT_M, cy),
            Box::new(NullUpper),
        );
        let ch = grid_channel(cell, cols);
        w.set_channel(ap, ch);
        w.set_channel(client, ch);
    }
    w
}

/// Stages every AP's per-AC downlink over 90 % of the horizon with a
/// per-AP/per-AC phase, so injections never synchronise block-wide.
fn obss_stage(sim: &mut Simulation<WlanWorld>, cells: usize, duration_ms: u64) {
    let horizon_ns = duration_ms * 900_000;
    for cell in 0..cells {
        for (aci, &n) in obss_counts(duration_ms).iter().enumerate() {
            let ac = AccessCategory::from_index(aci).expect("4 ACs");
            let stride = horizon_ns / n;
            let phase = (cell as u64 * 131 + aci as u64 * 37) * 1_000;
            for f in 0..n {
                qos_inject_at(
                    sim,
                    SimTime::from_nanos(f * stride + phase % stride.max(1)),
                    2 * cell,
                    data_frame(2 * cell as u32, 2 * cell as u32 + 1, DENSE_OBSS_PAYLOAD),
                    ac,
                );
            }
        }
    }
}

// ----- the run -----

/// Builds one component: world, staged traffic, primed neighbor cache.
/// Returns it with the frames its world staged. In a traced run the
/// scheduler records its op stream from the first push, so the stream
/// replays without a world.
fn build_component(
    tr: Option<&Spans>,
    parent: Option<usize>,
    world: impl FnOnce() -> WlanWorld,
    stage: impl FnOnce(&mut Simulation<WlanWorld>),
) -> (Simulation<WlanWorld>, u64) {
    span(tr, "component", parent, |p| {
        let w = span(tr, "world.build", p, |_| world());
        let mut sim = span(tr, "world.stage", p, |_| {
            let mut sim = Simulation::new(w);
            if tr.is_some() {
                sim.scheduler_mut().record_ops();
            }
            boot(&mut sim);
            stage(&mut sim);
            sim
        });
        // Nothing has run yet, so every arena reference is a staged frame.
        let staged = sim.world().frame_ledger().1;
        span(tr, "neighbors.prime", p, |_| {
            sim.world_mut().prime_neighbor_cache(SimTime::ZERO)
        });
        (sim, staged)
    })
}

/// Every component of `shape`, built in component order. The city's
/// components are the shards of `plan`.
fn build_components(
    tr: Option<&Spans>,
    parent: Option<usize>,
    shape: Shape,
    seed: u64,
    plan: Option<&ShardPlan>,
) -> Vec<(Simulation<WlanWorld>, u64)> {
    match shape {
        Shape::Bss {
            senders,
            duration_ms,
        } => vec![build_component(
            tr,
            parent,
            || bss_world(senders, duration_ms, seed),
            |sim| bss_stage(sim, senders, duration_ms),
        )],
        Shape::City {
            cols,
            senders,
            duration_ms,
            backlog_floor,
            ..
        } => plan
            .expect("the city is planned before it is built")
            .shards
            .iter()
            .enumerate()
            .map(|(k, members)| {
                build_component(
                    tr,
                    parent,
                    || {
                        city_world(
                            members,
                            k,
                            cols,
                            (senders, duration_ms, backlog_floor),
                            seed,
                        )
                    },
                    |sim| city_stage(sim, members, (senders, duration_ms, backlog_floor)),
                )
            })
            .collect(),
        Shape::Obss {
            rows,
            cols,
            duration_ms,
        } => vec![build_component(
            tr,
            parent,
            || obss_world(rows, cols, duration_ms, seed),
            |sim| obss_stage(sim, rows * cols, duration_ms),
        )],
    }
}

/// The whole deployment as one traffic-free world: what the shard
/// planner partitions. Only the city plans inside the measured run;
/// the traced run plans the other workloads' worlds as a probe.
fn planning_world(shape: Shape, seed: u64) -> WlanWorld {
    match shape {
        Shape::Bss {
            senders,
            duration_ms,
        } => bss_world(senders, duration_ms, seed),
        Shape::City {
            rows,
            cols,
            senders,
            duration_ms,
            ..
        } => metro_dcf_planning_world(rows, cols, senders, duration_ms, seed),
        Shape::Obss {
            rows,
            cols,
            duration_ms,
        } => obss_world(rows, cols, duration_ms, seed),
    }
}

/// Builds the planning world (under a span named `build_span`) and
/// partitions it with `shard_plan` at `CITY_DCF_RANGE_M`.
fn plan_world(
    tr: Option<&Spans>,
    parent: Option<usize>,
    build_span: &'static str,
    shape: Shape,
    seed: u64,
) -> (WlanWorld, ShardPlan) {
    let world = span(tr, build_span, parent, |_| planning_world(shape, seed));
    let plan = span(tr, "shard.plan", parent, |_| {
        world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M))
    });
    (world, plan)
}

/// One component's event loop. The traced run splits it into
/// [`SLICES`] equal simulated-time slices; `run_until` delivers the
/// same events in the same order either way.
struct Ran {
    sim: Simulation<WlanWorld>,
    events: u64,
    slices_s: Vec<f64>,
    pending_peak: usize,
}

fn run_component(mut sim: Simulation<WlanWorld>, horizon: SimTime, sliced: bool) -> Ran {
    if !sliced {
        let events = sim.run_until(horizon);
        return Ran {
            sim,
            events,
            slices_s: Vec::new(),
            pending_peak: 0,
        };
    }
    let mut pending_peak = sim.scheduler().pending();
    let mut slices_s = Vec::with_capacity(SLICES as usize);
    let mut events = 0;
    for k in 1..=SLICES {
        let deadline = SimTime::from_nanos(horizon.as_nanos() * k / SLICES);
        let t = Instant::now();
        events += sim.run_until(deadline);
        slices_s.push(t.elapsed().as_secs_f64());
        pending_peak = pending_peak.max(sim.scheduler().pending());
    }
    Ran {
        sim,
        events,
        slices_s,
        pending_peak,
    }
}

/// The process's peak resident set [MB], from `/proc/self/status`;
/// NaN where that file does not exist.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn jain(xs: &[u64]) -> f64 {
    let sum: f64 = xs.iter().map(|&x| x as f64).sum();
    let sum_sq: f64 = xs.iter().map(|&x| (x as f64) * (x as f64)).sum();
    if sum_sq == 0.0 {
        0.0
    } else {
        sum * sum / (xs.len() as f64 * sum_sq)
    }
}

/// Nearest-rank quantile; NaN on an empty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(f64::NAN)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// MSDUs still waiting in sender `id`'s queue at the horizon: the
/// sender was saturated to the end when this is positive.
fn backlog(w: &WlanWorld, id: usize) -> i64 {
    let s = w.stats(id);
    s.queued as i64 - (s.tx_completions + s.tx_failures + s.queue_drops) as i64
}

/// Goodput [Mbps] of `completions` MSDUs of `payload` bytes.
fn goodput_mbps(completions: u64, payload: usize, horizon: SimTime) -> f64 {
    (completions * payload as u64 * 8) as f64 / (horizon.as_nanos() as f64 / 1e9) / 1e6
}

/// Checks the run's outputs and reduces its model outputs.
fn check(
    tr: Option<&Spans>,
    shape: Shape,
    sims: &[Simulation<WlanWorld>],
    plan: Option<&(WlanWorld, ShardPlan)>,
    staged: u64,
) -> (Vec<Metric>, Vec<(&'static str, bool)>) {
    let horizon = shape.horizon();
    let mut outputs = Vec::new();
    let mut checks = vec![(
        "ledger_balanced",
        sims.iter().all(|s| {
            let (refs, held) = s.world().frame_ledger();
            refs == held
        }),
    )];
    match shape {
        Shape::Bss { senders, .. } => {
            let w = sims[0].world();
            let done: Vec<u64> = (1..=senders).map(|i| w.stats(i).tx_completions).collect();
            let total = done.iter().sum();
            let min_backlog = (1..=senders).map(|i| backlog(w, i)).min().unwrap_or(0);
            checks.push(("senders_saturated", min_backlog > 0));
            outputs.extend([
                metric(
                    "goodput_mbps",
                    goodput_mbps(total, SCALE_DCF_PAYLOAD, horizon),
                    "Mbps",
                ),
                metric("jain", jain(&done), "ratio"),
                metric("min_sender_backlog", min_backlog as f64, "count"),
                metric(
                    "access_delay_p50_us",
                    w.access_delay_quantile(0.5).unwrap_or(0) as f64,
                    "us",
                ),
                metric(
                    "access_delay_p99_us",
                    w.access_delay_quantile(0.99).unwrap_or(0) as f64,
                    "us",
                ),
            ]);
        }
        Shape::City {
            rows,
            cols,
            senders,
            ..
        } => {
            let (planning, plan) = plan.expect("the city is planned");
            let incoherence = span(tr, "shard.verify", None, |_| {
                planning.shard_plan_incoherence(plan, SimTime::ZERO)
            });
            let per_cell = senders + 1;
            let mut cell_done = vec![0u64; rows * cols];
            let mut min_backlog = i64::MAX;
            for (sim, members) in sims.iter().zip(&plan.shards) {
                for (local, &g) in members.iter().enumerate() {
                    if g % per_cell != 0 {
                        cell_done[g / per_cell] += sim.world().stats(local).tx_completions;
                        min_backlog = min_backlog.min(backlog(sim.world(), local));
                    }
                }
            }
            let jain_cross_bss = jain(&cell_done);
            let total = cell_done.iter().sum();
            checks.extend([
                ("plan_coherent", incoherence.is_none()),
                ("one_shard_per_cell", plan.shard_count() == rows * cols),
                ("senders_saturated", min_backlog > 0),
                ("jain_cross_bss_min", jain_cross_bss >= CITY_MIN_JAIN),
            ]);
            outputs.extend([
                metric("shards", plan.shard_count() as f64, "count"),
                metric("lookahead_ns", plan.lookahead.as_nanos() as f64, "ns"),
                metric(
                    "goodput_mbps",
                    goodput_mbps(total, SCALE_DCF_PAYLOAD, horizon),
                    "Mbps",
                ),
                metric("jain_cross_bss", jain_cross_bss, "ratio"),
                metric("min_sender_backlog", min_backlog as f64, "count"),
            ]);
        }
        Shape::Obss {
            rows,
            cols,
            duration_ms,
        } => {
            let cells = rows * cols;
            let w = sims[0].world();
            let offered = obss_counts(duration_ms).iter().sum::<u64>() * cells as u64;
            let completed: u64 = (0..cells).map(|c| w.stats(2 * c).tx_completions).sum();
            let p50 = |ac| w.ac_delay_quantile(ac, 0.5);
            checks.extend([
                ("offered_equals_staged", offered == staged),
                (
                    "vo_p50_le_bk_p50",
                    matches!(
                        (p50(AccessCategory::Vo), p50(AccessCategory::Bk)),
                        (Some(vo), Some(bk)) if vo <= bk
                    ),
                ),
            ]);
            outputs.extend([
                metric("offered_msdus", offered as f64, "count"),
                metric("completed_msdus", completed as f64, "count"),
                metric("delivered_frac", completed as f64 / offered as f64, "ratio"),
                metric(
                    "goodput_mbps",
                    goodput_mbps(completed, DENSE_OBSS_PAYLOAD, horizon),
                    "Mbps",
                ),
                metric(
                    "vo_p50_us",
                    p50(AccessCategory::Vo).unwrap_or(0) as f64,
                    "us",
                ),
                metric(
                    "vi_p50_us",
                    p50(AccessCategory::Vi).unwrap_or(0) as f64,
                    "us",
                ),
                metric(
                    "be_p50_us",
                    p50(AccessCategory::Be).unwrap_or(0) as f64,
                    "us",
                ),
                metric(
                    "bk_p50_us",
                    p50(AccessCategory::Bk).unwrap_or(0) as f64,
                    "us",
                ),
            ]);
        }
    }
    (outputs, checks)
}

/// Host nanoseconds per `RateStep::success_prob` call at the
/// workloads' fixed rate (802.11g top rung), over a fixed sweep of
/// SINR (−10…40 dB in 1/64 dB steps) × frame length (ACK and the
/// workload's data MPDU).
fn per_eval_ns(payload: usize) -> f64 {
    const ROUNDS: usize = 64;
    let rate = *PhyStandard::Dot11g
        .rate_ladder()
        .last()
        .expect("802.11g has a rate ladder");
    let bits = [14 * 8, (payload as u64 + 28) * 8];
    let sinrs: Vec<f64> = (0..=3200).map(|i| -10.0 + f64::from(i) / 64.0).collect();
    let t = Instant::now();
    let mut acc = 0.0;
    for _ in 0..ROUNDS {
        for &b in &bits {
            for &s in &sinrs {
                acc += black_box(rate).success_prob(black_box(s), black_box(b));
            }
        }
    }
    black_box(acc);
    t.elapsed().as_nanos() as f64 / (ROUNDS * bits.len() * sinrs.len()) as f64
}

/// What the traced run measures beyond the spans of the run itself.
struct Probes {
    plan_world_pairs: usize,
    shard_count: usize,
    sched_ops: usize,
    export_bytes: usize,
    trace_records: usize,
    trace_dropped: u64,
    mac: [u64; 5],
    per_eval_ns: f64,
}

/// The MAC counters summed into [`Probes::mac`], in order.
const MAC_COUNTERS: [&str; 5] = [
    "tx_frames",
    "retries",
    "tx_completions",
    "tx_failures",
    "rx_errors",
];

/// Measurements outside the timed run: prime the whole deployment's
/// neighbor cache; plan and verify it (the city did both in the run);
/// replay each component's recorded scheduler op stream payload-free
/// through the default scheduler; size the export and sum the MAC
/// counters from the metrics snapshots; time the PER kernel.
fn probe(
    tr: &Spans,
    shape: Shape,
    seed: u64,
    sims: &mut [Simulation<WlanWorld>],
    plan: Option<(WlanWorld, ShardPlan)>,
    checks: &mut Vec<(&'static str, bool)>,
) -> Probes {
    let tr = Some(tr);
    let root = spans::open(tr, "probes", None);
    let (mut world, plan) = match plan {
        Some(p) => p,
        None => {
            let (w, plan) = plan_world(tr, root, "probe.world", shape, seed);
            let incoherence = span(tr, "shard.verify", root, |_| {
                w.shard_plan_incoherence(&plan, SimTime::ZERO)
            });
            checks.push(("plan_coherent", incoherence.is_none()));
            (w, plan)
        }
    };
    span(tr, "neighbors.city_world_prime", root, |_| {
        world.prime_neighbor_cache(SimTime::ZERO)
    });
    let plan_world_pairs = world.neighbor_cache_stats().map_or(0, |(_, n)| n);
    drop(world);

    let mut sched_ops = 0;
    let mut replay_matches = true;
    for sim in sims.iter_mut() {
        let ops = sim.scheduler_mut().take_op_log();
        sched_ops += ops.len();
        let (pops, _) = span(tr, "sched.replay", root, |_| {
            replay_ops(SchedulerKind::default(), black_box(&ops))
        });
        replay_matches &= pops == sim.processed();
    }
    checks.push(("sched_replay_pops_equal_events", replay_matches));

    let horizon = shape.horizon();
    let (mut export_bytes, mut trace_records, mut trace_dropped) = (0, 0, 0);
    let mut mac = [0u64; 5];
    for sim in sims.iter() {
        let w = sim.world();
        let snap = w.metrics_snapshot(horizon);
        export_bytes += w.trace.to_jsonl(shape.tag()).len() + snap.to_jsonl(shape.tag()).len();
        trace_records += w.trace.len();
        trace_dropped += w.trace.dropped();
        for row in snap
            .rows
            .iter()
            .filter(|r| r.kind == "counter" && r.key.layer == "mac")
        {
            if let Some(i) = MAC_COUNTERS.iter().position(|&n| n == row.key.name) {
                mac[i] += row.fields.first().map_or(0, |&(_, v)| v as u64);
            }
        }
    }

    let payload = match shape {
        Shape::Obss { .. } => DENSE_OBSS_PAYLOAD,
        _ => SCALE_DCF_PAYLOAD,
    };
    let per_eval_ns = span(tr, "phy.per_eval", root, |_| per_eval_ns(payload));
    spans::close(tr, root);
    Probes {
        plan_world_pairs,
        shard_count: plan.shard_count(),
        sched_ops,
        export_bytes,
        trace_records,
        trace_dropped,
        mac,
        per_eval_ns,
    }
}

/// Per-layer metrics from the traced run's spans and probes.
fn layer_metrics(
    spans: &[Span],
    p: &Probes,
    sims: &[Simulation<WlanWorld>],
    staged: u64,
    slices_s: &[f64],
    pending_peak: usize,
    workers: usize,
) -> Vec<Metric> {
    let events: u64 = sims.iter().map(Simulation::processed).sum();
    let component_s = durations_s(spans, "engine.run");
    let engine_run_s: f64 = component_s.iter().sum();
    let exec_run_s = total_s(spans, "exec.run");
    let workers = workers.min(sims.len()).max(1);
    let replay_s = total_s(spans, "sched.replay");
    let [tx_frames, retries, completions, failures, rx_errors] = p.mac;
    let stored_pairs: usize = sims
        .iter()
        .filter_map(|s| s.world().neighbor_cache_stats())
        .map(|(_, n)| n)
        .sum();
    vec![
        metric("world.build_s", total_s(spans, "world.build"), "s"),
        metric("world.stage_s", total_s(spans, "world.stage"), "s"),
        metric("world.staged_frames", staged as f64, "count"),
        metric("neighbors.prime_s", total_s(spans, "neighbors.prime"), "s"),
        metric("neighbors.stored_pairs", stored_pairs as f64, "count"),
        metric(
            "neighbors.city_world_prime_s",
            total_s(spans, "neighbors.city_world_prime"),
            "s",
        ),
        metric(
            "neighbors.city_world_pairs",
            p.plan_world_pairs as f64,
            "count",
        ),
        metric("shard.plan_s", total_s(spans, "shard.plan"), "s"),
        metric("shard.count", p.shard_count as f64, "count"),
        metric("shard.verify_s", total_s(spans, "shard.verify"), "s"),
        metric("engine.events", events as f64, "count"),
        metric("engine.run_s", engine_run_s, "s"),
        metric("engine.pending_peak", pending_peak as f64, "count"),
        metric(
            "engine.scheduled_total",
            sims.iter()
                .map(|s| s.scheduler().scheduled_total())
                .sum::<u64>() as f64,
            "count",
        ),
        metric("engine.slice_s_p50", quantile(slices_s, 0.5), "s"),
        metric("engine.slice_s_p90", quantile(slices_s, 0.9), "s"),
        metric("sched.ops", p.sched_ops as f64, "count"),
        metric("sched.replay_s", replay_s, "s"),
        metric("sched.share", replay_s / engine_run_s, "ratio"),
        metric("mac.tx_frames", tx_frames as f64, "count"),
        metric("mac.retries", retries as f64, "count"),
        metric("mac.tx_completions", completions as f64, "count"),
        metric("mac.tx_failures", failures as f64, "count"),
        metric("mac.rx_errors", rx_errors as f64, "count"),
        metric(
            "mac.useful_tx_ratio",
            completions as f64 / tx_frames as f64,
            "ratio",
        ),
        metric(
            "mac.events_per_completion",
            events as f64 / completions as f64,
            "ratio",
        ),
        metric("phy.per_eval_ns", p.per_eval_ns, "ns"),
        metric("exec.workers", workers as f64, "count"),
        metric("exec.build_s", total_s(spans, "exec.build"), "s"),
        metric("exec.run_s", exec_run_s, "s"),
        metric("exec.component_s_p50", quantile(&component_s, 0.5), "s"),
        metric("exec.component_s_p90", quantile(&component_s, 0.9), "s"),
        metric("exec.component_s_max", quantile(&component_s, 1.0), "s"),
        metric(
            "exec.efficiency",
            engine_run_s / (workers as f64 * exec_run_s),
            "ratio",
        ),
        metric("export.s", total_s(spans, "export"), "s"),
        metric("export.bytes", p.export_bytes as f64, "bytes"),
        metric("export.trace_records", p.trace_records as f64, "count"),
        metric("export.trace_dropped", p.trace_dropped as f64, "count"),
    ]
}

/// Runs `shape` once with `seed`. `workers` caps the component
/// executor's threads (only the city has more than one component).
/// With `trace` on, spans are recorded and the per-layer metrics are
/// filled in; the end-to-end phase timings are taken either way.
pub fn run(shape: Shape, seed: u64, workers: usize, trace: bool) -> Outcome {
    let rec = trace.then(Spans::default);
    let tr = rec.as_ref();
    let horizon = shape.horizon();

    let t0 = Instant::now();
    let root = spans::open(tr, "run", None);
    let setup = spans::open(tr, "setup", root);
    let plan = matches!(shape, Shape::City { .. })
        .then(|| plan_world(tr, setup, "world.build", shape, seed));
    let built = span(tr, "exec.build", setup, |p| {
        build_components(tr, p, shape, seed, plan.as_ref().map(|(_, plan)| plan))
    });
    spans::close(tr, setup);
    let setup_s = t0.elapsed().as_secs_f64();

    let staged: u64 = built.iter().map(|&(_, n)| n).sum();
    let sims: Vec<Simulation<WlanWorld>> = built.into_iter().map(|(sim, _)| sim).collect();
    let t_loop = Instant::now();
    let ran: Vec<Ran> = span(tr, "exec.run", root, |p| {
        par_map_with(workers, sims, |sim| {
            span(tr, "engine.run", p, |_| run_component(sim, horizon, trace))
        })
    });
    let loop_s = t_loop.elapsed().as_secs_f64();

    let per_shard_events: Vec<u64> = ran.iter().map(|r| r.events).collect();
    let pending_peak = ran.iter().map(|r| r.pending_peak).max().unwrap_or(0);
    let slices_s: Vec<f64> = ran
        .iter()
        .flat_map(|r| r.slices_s.iter().copied())
        .collect();
    let mut sims: Vec<Simulation<WlanWorld>> = ran.into_iter().map(|r| r.sim).collect();
    let digest = span(tr, "export", root, |_| {
        digest_components(&sims, per_shard_events, horizon, shape.tag())
    });
    spans::close(tr, root);
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = peak_rss_mb();

    let (outputs, mut checks) = check(tr, shape, &sims, plan.as_ref(), staged);
    let (layers, spans) = match rec {
        None => (Vec::new(), Vec::new()),
        Some(rec) => {
            let probes = probe(&rec, shape, seed, &mut sims, plan, &mut checks);
            let spans = rec.into_spans();
            let layers = layer_metrics(
                &spans,
                &probes,
                &sims,
                staged,
                &slices_s,
                pending_peak,
                workers,
            );
            (layers, spans)
        }
    };
    Outcome {
        wall_s,
        setup_s,
        loop_s,
        peak_rss_mb,
        digest,
        outputs,
        checks,
        layers,
        spans,
    }
}
