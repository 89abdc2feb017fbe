//! perfsuite — times the full experiment campaign serial vs parallel
//! and records throughput to `BENCH_campaign.json`.
//!
//! Run with: `cargo run --release -p wn-bench --bin perfsuite`
//!
//! The serial pass runs the campaign on one worker; the parallel pass
//! uses `--threads N` (default: detected parallelism / `WN_THREADS`).
//! Both passes produce byte-identical reports — the suite asserts this
//! — so the speedup is measured on genuinely equivalent work. Events
//! per second comes from the simulation kernel's global processed-event
//! counter, not wall-clock guesswork.
//!
//! A third pass re-runs the parallel campaign with the observability
//! kill switch off ([`wn_sim::set_observability`]) to measure what the
//! typed trace/metrics layer costs; figures never read the trace, so
//! this pass must also render byte-identically.
//!
//! A final pair of sections benchmarks the hot paths in isolation on
//! the SCALE-DCF saturation workload: `neighbors` times the cached
//! propagation path against the direct O(n) fan-out (the same
//! log-distance model reinstalled through `set_loss_model`, which
//! evaluates every row per transmission) at 100 and 1000 stations,
//! alternating over several repeats (median and min/max; digests must
//! match bit-for-bit in every run), and `scheduler` replays
//! the recorded push/pop op stream of a 1000-station run payload-free
//! through the timer wheel and the reference binary heap, alternating
//! over several repeats (median and min/max) — the isolated queue
//! cost, since a full run is dominated by MAC/PHY compute.
//!
//! A `shards` section times the component executor on the CITY-DCF
//! flagship city (one interference shard per BSS) at 1 worker and at
//! the resolved worker count, interleaved, over several repeats each
//! (median and min/max). Digests must be byte-identical in every run;
//! the speedup verdict is recorded only when more than one worker is
//! available (DESIGN.md §15).
//!
//! A `qos` section races A-MPDU aggregation on vs off on the saturated
//! DENSE-OBSS flagship block: the same offered backlog through the
//! EDCA queues with the aggregation cap at the default 16 MPDUs and
//! clamped to 1 (one MPDU per TXOP), alternating over several repeats
//! (median and min/max). The offered load must match exactly and the
//! aggregated run must deliver at least as much — the deterministic
//! form of "aggregation amortises contention overhead".
//!
//! A `grid` section measures what the spatial hash grid buys on the
//! CITY-DCF flagship city (DESIGN.md §17): the grid-backed
//! neighbor-cache build and shard plan against the no-grid O(n²)
//! equivalents — the same world under an identical log-distance
//! closure the grid cannot index — alternating three times each in
//! the same process (median, min/max), plus a plan-only scaling row
//! at the METRO-DCF 100k+ flagship. The partitions must be identical
//! and the plan must re-validate coherent.
//!
//! `--section neighbors` (or `scheduler`, `shards`, `qos`, `grid`)
//! runs just that section and prints its JSON object — the CI
//! smoke path, which wants the section's equivalence assertions
//! without the full campaign cost.

use std::time::Instant;

use wn_core::runner;
use wn_core::scenarios::{
    city_dcf_run, city_dcf_size, dense_obss_point_opts, metro_dcf_planning_world, metro_dcf_sweep,
    scale_dcf_op_log, scale_dcf_run, scale_dcf_sim, DenseObssPoint, CITY_DCF_RANGE_M,
    DENSE_OBSS_MIX,
};
use wn_phy::propagation::{LogDistance, PathLoss};
use wn_sim::{
    global_events_processed, replay_ops, set_observability, worker_count, SchedulerKind, SimTime,
    OP_POP,
};

struct Pass {
    threads: usize,
    wall_s: f64,
    events: u64,
    markdown: String,
}

fn run_pass(threads: usize) -> Pass {
    let ev0 = global_events_processed();
    let t0 = Instant::now();
    let markdown = runner::campaign_markdown(threads);
    let wall_s = t0.elapsed().as_secs_f64();
    Pass {
        threads,
        wall_s,
        events: global_events_processed() - ev0,
        markdown,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut parallel_threads: Option<usize> = None;
    let mut out_path = String::from("BENCH_campaign.json");
    let mut section: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--section" => {
                i += 1;
                match args.get(i) {
                    Some(s) => section = Some(s.clone()),
                    None => {
                        eprintln!(
                            "--section needs a name (supported: neighbors, scheduler, shards, qos, grid)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                i += 1;
                parallel_threads = args.get(i).and_then(|v| v.parse().ok()).filter(|&n| n >= 1);
                if parallel_threads.is_none() {
                    eprintln!("--threads needs a count >= 1");
                    std::process::exit(2);
                }
            }
            "--out" => {
                i += 1;
                match args.get(i) {
                    Some(p) => out_path = p.clone(),
                    None => {
                        eprintln!("--out needs a path");
                        std::process::exit(2);
                    }
                }
            }
            other => {
                eprintln!(
                    "unknown flag '{other}' (supported: --threads N, --out PATH, --section NAME)"
                );
                std::process::exit(2);
            }
        }
        i += 1;
    }
    let parallel_threads = parallel_threads.unwrap_or_else(worker_count).max(1);

    // `--section NAME` runs one benchmark section in isolation — the CI
    // smoke path, which wants the section's equivalence assertions
    // without paying for the full campaign passes.
    if let Some(name) = section.as_deref() {
        let json = match name {
            "neighbors" => neighbors_section(),
            "scheduler" => scheduler_section(),
            "shards" => shards_section(),
            "qos" => qos_section(),
            "grid" => grid_section(),
            other => {
                eprintln!(
                    "unknown section '{other}' (supported: neighbors, scheduler, shards, qos, grid)"
                );
                std::process::exit(2);
            }
        };
        print!("{{\n{json}}}\n");
        return;
    }

    eprintln!("perfsuite: serial pass (1 thread)…");
    let serial = run_pass(1);
    eprintln!(
        "perfsuite: serial {:.2} s, {} events ({:.0} ev/s)",
        serial.wall_s,
        serial.events,
        serial.events as f64 / serial.wall_s
    );
    eprintln!("perfsuite: parallel pass ({parallel_threads} threads)…");
    let parallel = run_pass(parallel_threads);
    eprintln!(
        "perfsuite: parallel {:.2} s, {} events ({:.0} ev/s)",
        parallel.wall_s,
        parallel.events,
        parallel.events as f64 / parallel.wall_s
    );

    assert_eq!(
        serial.markdown, parallel.markdown,
        "campaign output must be byte-identical across thread counts"
    );
    assert_eq!(
        serial.events, parallel.events,
        "both passes must process the same simulated events"
    );

    eprintln!("perfsuite: tracing-off pass ({parallel_threads} threads)…");
    set_observability(false);
    let untraced = run_pass(parallel_threads);
    set_observability(true);
    eprintln!(
        "perfsuite: tracing-off {:.2} s, {} events ({:.0} ev/s)",
        untraced.wall_s,
        untraced.events,
        untraced.events as f64 / untraced.wall_s
    );
    assert_eq!(
        parallel.markdown, untraced.markdown,
        "figures must not depend on the trace (kill switch changed the output)"
    );
    // Overhead of the observability layer: >0 means tracing costs time.
    let tracing_overhead = parallel.wall_s / untraced.wall_s - 1.0;

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single-core host runs "parallel" on one worker by construction,
    // so serial/parallel wall clocks differ only by noise. Recording
    // that ratio as a speedup made healthy runs look like regressions
    // (speedup 0.95 on a 1-core box); skip the verdict instead.
    let (speedup_json, speedup_note) = if cores < 2 {
        (
            "\"speedup\": null,\n  \"speedup_verdict\": \"skipped: single-core host, parallel pass degenerates to serial\"".to_string(),
            "speedup n/a (1 core)".to_string(),
        )
    } else {
        let speedup = serial.wall_s / parallel.wall_s;
        (
            format!(
                "\"speedup\": {speedup:.2},\n  \"speedup_verdict\": \"parallel over serial campaign on {cores} cores\""
            ),
            format!("speedup {speedup:.2}x"),
        )
    };

    let neighbors = neighbors_section();
    let neighbors = neighbors.trim_end();
    let scheduler = scheduler_section();
    let scheduler = scheduler.trim_end();
    let shards = shards_section();
    let shards = shards.trim_end();
    let qos = qos_section();
    let qos = qos.trim_end();
    let grid = grid_section();

    let json = format!(
        "{{\n  \"campaign\": \"EXPERIMENTS.md full regeneration\",\n  \"host_cores\": {cores},\n  \"identical_output\": true,\n  \"serial\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n  \"parallel\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n  \"tracing_off\": {{\n    \"threads\": {},\n    \"wall_s\": {:.3},\n    \"events\": {},\n    \"events_per_s\": {:.0}\n  }},\n  \"tracing_overhead\": {:.3},\n  {speedup_json},\n{neighbors},\n{scheduler},\n{shards},\n{qos},\n{grid}}}\n",
        serial.threads,
        serial.wall_s,
        serial.events,
        serial.events as f64 / serial.wall_s,
        parallel.threads,
        parallel.wall_s,
        parallel.events,
        parallel.events as f64 / parallel.wall_s,
        untraced.threads,
        untraced.wall_s,
        untraced.events,
        untraced.events as f64 / untraced.wall_s,
        tracing_overhead,
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("perfsuite: cannot write '{out_path}': {e}");
        std::process::exit(2);
    }
    eprintln!("perfsuite: {speedup_note} on {cores} core(s) -> {out_path}");
    print!("{json}");
}

/// Replays the SCALE-DCF 1000-station op stream through the reference
/// binary heap and the timer wheel and returns the `"scheduler"` JSON
/// object (indented two spaces, trailing newline). The two queues
/// alternate over `REPEATS` runs each so host drift hits both alike.
/// Panics unless every replay pops the stream in the identical order.
fn scheduler_section() -> String {
    const STATIONS: usize = 1000;
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;
    const REPEATS: usize = 5;

    eprintln!("perfsuite: recording the SCALE-DCF n={STATIONS} dur={DURATION_MS}ms op stream…");
    let (ops, events) = scale_dcf_op_log(STATIONS, DURATION_MS, SEED);
    let pushes = ops.iter().filter(|&&o| o != OP_POP).count();
    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut reference = None;
    for rep in 1..=REPEATS {
        for (kind, wall_v) in SchedulerKind::ALL.into_iter().zip(walls.iter_mut()) {
            let t0 = Instant::now();
            let replay = replay_ops(kind, &ops);
            let wall = t0.elapsed().as_secs_f64();
            eprintln!(
                "perfsuite: op-stream replay on {}, run {rep}/{REPEATS}: {} pops in {wall:.3} s",
                kind.label(),
                replay.0
            );
            let reference = *reference.get_or_insert(replay);
            assert_eq!(
                replay,
                reference,
                "{} popped the op stream in a different order",
                kind.label()
            );
            wall_v.push(wall);
        }
    }
    let (pops, fnv) = reference.expect("at least one replay");
    assert_eq!(pops, events, "op stream pops != events the run processed");
    let [heap, wheel] = walls.map(|mut v| spread(&mut v));
    let speedup = heap.0 / wheel.0;
    eprintln!("perfsuite: timer wheel vs heap: {speedup:.2}x on queue ops (medians)");

    let side = |(med, lo, hi): (f64, f64, f64)| {
        format!(
            "\"wall_s_median\": {med:.4}, \"wall_s_min\": {lo:.4}, \"wall_s_max\": {hi:.4}, \"pops_per_s_median\": {:.0}",
            pops as f64 / med
        )
    };
    format!(
        "  \"scheduler\": {{\n    \"workload\": \"SCALE-DCF stations={STATIONS} duration_ms={DURATION_MS} seed={SEED}\",\n    \"queue_op_replay\": {{\n      \"note\": \"recorded push/pop stream of the run replayed payload-free through each queue, {REPEATS} alternating repeats each\",\n      \"repeats\": {REPEATS},\n      \"ops\": {},\n      \"pushes\": {pushes},\n      \"pops\": {pops},\n      \"heap\": {{ {} }},\n      \"wheel\": {{ {} }},\n      \"pop_order_fnv\": \"{fnv:016x}\",\n      \"identical_pop_order\": true,\n      \"wheel_speedup\": {speedup:.2}\n    }}\n  }}\n",
        ops.len(),
        side(heap),
        side(wheel),
    )
}

/// Benchmarks the component executor on the CITY-DCF flagship city
/// at 1 worker and at [`worker_count`] workers and returns the
/// `"shards"` JSON object (indented two spaces, trailing newline).
/// Each timed run plans, builds and runs the whole city; the two
/// worker counts alternate so host drift hits both alike. Every run
/// must produce byte-identical trace and metrics digests — that
/// assertion always runs; the speedup is recorded only when more than
/// one worker is available (otherwise `null`, with a verdict string
/// saying why).
fn shards_section() -> String {
    const SEED: u64 = 42;
    const REPEATS: usize = 5;
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    let cells = rows * cols;
    let stations = cells * (senders + 1);
    let workers = worker_count();
    let modes: Vec<usize> = if workers > 1 {
        vec![1, workers]
    } else {
        vec![1]
    };

    let mut walls: Vec<Vec<f64>> = vec![Vec::with_capacity(REPEATS); modes.len()];
    let mut reference = None;
    for rep in 1..=REPEATS {
        for (m, &w) in modes.iter().enumerate() {
            let t0 = Instant::now();
            let r = city_dcf_run(rows, cols, senders, duration_ms, SEED, w);
            let wall = t0.elapsed().as_secs_f64();
            eprintln!(
                "perfsuite: CITY-DCF {cells} cells / {stations} stations, {w} worker(s), run {rep}/{REPEATS}: {wall:.3} s"
            );
            let reference = reference.get_or_insert_with(|| r.clone());
            assert_eq!(
                &r, reference,
                "component executor at {w} worker(s) diverged from the first run"
            );
            walls[m].push(wall);
        }
    }
    let reference = reference.expect("at least one run");

    let medians: Vec<f64> = walls.iter_mut().map(|v| spread(v).0).collect();
    let speedup_json = if modes.len() < 2 {
        "\"speedup\": null,\n    \"speedup_verdict\": \"skipped: one worker available, nothing to compare\"".to_string()
    } else {
        format!(
            "\"speedup\": {:.2},\n    \"speedup_verdict\": \"median 1-worker over median {workers}-worker wall time\"",
            medians[0] / medians[1]
        )
    };

    let mut out = format!(
        "  \"shards\": {{\n    \"workload\": \"CITY-DCF rows={rows} cols={cols} senders_per_cell={senders} duration_ms={duration_ms} seed={SEED} ({cells} cells, {stations} stations, one shard per cell); each run plans, builds and runs the city\",\n    \"repeats\": {REPEATS},\n    \"events\": {},\n",
        reference.events,
    );
    for (w, v) in modes.iter().zip(walls.iter_mut()) {
        let (median, min, max) = spread(v);
        out.push_str(&format!(
            "    \"w{w}\": {{ \"workers\": {w}, \"wall_s_median\": {median:.3}, \"wall_s_min\": {min:.3}, \"wall_s_max\": {max:.3}, \"events_per_s_median\": {:.0} }},\n",
            reference.events as f64 / median,
        ));
    }
    out.push_str(&format!(
        "    \"trace_fnv\": \"{:016x}\",\n    \"metrics_fnv\": \"{:016x}\",\n    \"identical_output\": true,\n    {speedup_json}\n  }}\n",
        reference.trace_fnv, reference.metrics_fnv,
    ));
    out
}

/// `(median, min, max)` of a non-empty sample (sorts it in place; the
/// upper median for even lengths).
fn spread(v: &mut [f64]) -> (f64, f64, f64) {
    v.sort_by(f64::total_cmp);
    (v[v.len() / 2], v[0], v[v.len() - 1])
}

/// Benchmarks A-MPDU aggregation on the saturated DENSE-OBSS flagship
/// block and returns the `"qos"` JSON object (indented two spaces,
/// trailing newline): the identical per-AC offered backlog pushed
/// through the EDCA queues with the aggregation cap at the default
/// (16 MPDUs per A-MPDU) and clamped to 1. The two sides alternate
/// over `REPEATS` runs each (median, min/max) so host drift hits both
/// alike. Panics if any repeat of a side differs from its first run,
/// if the sides disagree on offered load, or if turning aggregation on
/// loses goodput — both runs are fully deterministic, so the
/// comparison is stable across hosts.
fn qos_section() -> String {
    const ROWS: usize = 3;
    const COLS: usize = 3;
    const DURATION_MS: u64 = 120;
    const SEED: u64 = 42;
    const CAPS: [usize; 2] = [1, 16];
    const REPEATS: usize = 5;

    let mut walls: [Vec<f64>; 2] = Default::default();
    let mut runs: [Option<(u64, DenseObssPoint)>; 2] = Default::default();
    for rep in 1..=REPEATS {
        for ((cap, wall_v), first) in CAPS.into_iter().zip(walls.iter_mut()).zip(runs.iter_mut()) {
            let ev0 = global_events_processed();
            let t0 = Instant::now();
            let p = dense_obss_point_opts(ROWS, COLS, DURATION_MS, SEED, DENSE_OBSS_MIX, cap);
            let wall = t0.elapsed().as_secs_f64();
            let events = global_events_processed() - ev0;
            eprintln!(
                "perfsuite: DENSE-OBSS {ROWS}x{COLS} dur={DURATION_MS}ms ampdu_max_mpdus={cap}, run {rep}/{REPEATS}: {wall:.3} s, {:.2} Mbps delivered",
                p.aggregate_mbps
            );
            match first {
                None => *first = Some((events, p)),
                Some((ev, q)) => assert!(
                    *ev == events && q.completed == p.completed && q.ac_p50_us == p.ac_p50_us,
                    "ampdu_max_mpdus={cap} diverged from its first run"
                ),
            }
            wall_v.push(wall);
        }
    }
    let [no_agg, agg] = runs.map(|r| r.expect("at least one run per side"));
    assert_eq!(
        no_agg.1.offered, agg.1.offered,
        "aggregation cap changed the offered backlog"
    );
    assert!(
        agg.1.completed >= no_agg.1.completed,
        "A-MPDU aggregation lost goodput on the saturated block: {} < {} MSDUs",
        agg.1.completed,
        no_agg.1.completed
    );
    let gain = agg.1.aggregate_mbps / no_agg.1.aggregate_mbps.max(f64::MIN_POSITIVE);
    eprintln!("perfsuite: A-MPDU aggregation: {gain:.2}x goodput vs one MPDU per TXOP");

    let mut out = format!(
        "  \"qos\": {{\n    \"workload\": \"DENSE-OBSS rows={ROWS} cols={COLS} duration_ms={DURATION_MS} seed={SEED}, EDCA queues, aggregation on vs off, {REPEATS} alternating repeats each\",\n    \"repeats\": {REPEATS},\n    \"offered_msdus\": {},\n",
        no_agg.1.offered,
    );
    for ((cap, wall_v), (events, p)) in CAPS.into_iter().zip(walls.iter_mut()).zip([&no_agg, &agg])
    {
        let label = if cap == 1 { "no_aggregation" } else { "ampdu" };
        let (median, min, max) = spread(wall_v);
        out.push_str(&format!(
            "    \"{label}\": {{ \"ampdu_max_mpdus\": {cap}, \"wall_s_median\": {median:.4}, \"wall_s_min\": {min:.4}, \"wall_s_max\": {max:.4}, \"events\": {events}, \"events_per_s_median\": {:.0}, \"completed_msdus\": {}, \"delivered_frac\": {:.3}, \"goodput_mbps\": {:.2}, \"vo_p50_us\": {}, \"be_p50_us\": {} }},\n",
            *events as f64 / median,
            p.completed,
            p.delivered_frac(),
            p.aggregate_mbps,
            p.ac_p50_us[0],
            p.ac_p50_us[2],
        ));
    }
    out.push_str(&format!(
        "    \"identical_offered_load\": true,\n    \"identical_repeats\": true,\n    \"aggregation_goodput_gain\": {gain:.2}\n  }}\n"
    ));
    out
}

/// Benchmarks the neighbor-cache hot path against the direct O(n)
/// propagation fan-out on SCALE-DCF at 100 and 1000 stations — the
/// direct side reinstalls the same log-distance model through
/// `set_loss_model` ([`wn_check::use_direct_propagation`]) — and
/// returns the `"neighbors"` JSON object (indented two spaces,
/// trailing newline). The two paths alternate over `REPEATS` runs
/// each (median, min/max). Panics unless every cached and direct run
/// at a size delivers the same event count and metrics digest.
fn neighbors_section() -> String {
    const DURATION_MS: u64 = 200;
    const SEED: u64 = 42;
    const SIZES: [usize; 2] = [100, 1000];
    const REPEATS: usize = 5;

    let mut rows = Vec::new();
    for stations in SIZES {
        let mut walls: [Vec<f64>; 2] = Default::default();
        let mut reference = None;
        for rep in 1..=REPEATS {
            for (cache, wall_v) in [true, false].into_iter().zip(walls.iter_mut()) {
                let label = if cache { "cached" } else { "direct" };
                let t0 = Instant::now();
                let mut sim = scale_dcf_sim(stations, DURATION_MS, SEED);
                if !cache {
                    wn_check::use_direct_propagation(sim.world_mut());
                }
                let p = scale_dcf_run(sim, DURATION_MS);
                let wall = t0.elapsed().as_secs_f64();
                eprintln!(
                    "perfsuite: SCALE-DCF n={stations} dur={DURATION_MS}ms {label} propagation, run {rep}/{REPEATS}: {wall:.3} s ({:.0} ev/s)",
                    p.events as f64 / wall
                );
                let (events, fnv) = *reference.get_or_insert((p.events, p.metrics_fnv));
                assert_eq!(
                    (p.events, p.metrics_fnv),
                    (events, fnv),
                    "{label} run diverged on SCALE-DCF n={stations}"
                );
                wall_v.push(wall);
            }
        }
        let [cached, direct] = walls.map(|mut v| spread(&mut v));
        let speedup = direct.0 / cached.0;
        eprintln!("perfsuite: neighbor cache at n={stations}: {speedup:.2}x vs direct (medians)");
        rows.push((
            stations,
            cached,
            direct,
            reference.expect("at least one run"),
            speedup,
        ));
    }

    let mut out = format!(
        "  \"neighbors\": {{\n    \"workload\": \"SCALE-DCF duration_ms={DURATION_MS} seed={SEED}, cached vs direct propagation (set_loss_model), {REPEATS} alternating repeats each\",\n    \"repeats\": {REPEATS},\n"
    );
    for (i, (stations, cached, direct, (events, fnv), speedup)) in rows.iter().enumerate() {
        let sep = if i + 1 < rows.len() { "," } else { "" };
        let side = |(med, lo, hi): (f64, f64, f64)| {
            format!(
                "\"wall_s_median\": {med:.3}, \"wall_s_min\": {lo:.3}, \"wall_s_max\": {hi:.3}, \"events_per_s_median\": {:.0}",
                *events as f64 / med
            )
        };
        out.push_str(&format!(
            "    \"n{stations}\": {{\n      \"cached\": {{ {} }},\n      \"direct\": {{ {} }},\n      \"events\": {events},\n      \"metrics_fnv\": \"{fnv:016x}\",\n      \"identical_output\": true,\n      \"cache_speedup\": {speedup:.2}\n    }}{sep}\n",
            side(*cached),
            side(*direct),
        ));
    }
    out.push_str("  }\n");
    out
}

/// Measures what the spatial hash grid buys on the CITY-DCF flagship
/// planning world (DESIGN.md §17) and returns the `"grid"` JSON object
/// (indented two spaces, trailing newline): the grid-backed
/// neighbor-cache build and grid shard plan against the no-grid path —
/// the same world with an identical log-distance closure installed
/// through `set_loss_model_static`, which the grid cannot index, so
/// every cached row covers the whole world and planning takes the
/// exhaustive O(n²) scan. Both sides run `GRID_REPEATS` times,
/// alternating, live in the same process (median, min/max), plus a
/// plan-only scaling row at the METRO-DCF flagship (100k+ stations in
/// release, where the no-grid paths are no longer feasible). Panics
/// unless both planners produce the identical partition and the plan
/// re-validates coherent; the speedup verdict is always recorded (the
/// section is single-threaded, so core count is irrelevant).
fn grid_section() -> String {
    const SEED: u64 = 42;
    const GRID_REPEATS: usize = 3;
    let (rows, cols, senders, duration_ms) = city_dcf_size();
    let stations = rows * cols * (senders + 1);

    // One timed side: cache build, then shard plan, on a fresh world.
    let run_side = |grid: bool| {
        let mut world = metro_dcf_planning_world(rows, cols, senders, duration_ms, SEED);
        if !grid {
            let model = LogDistance::indoor();
            world
                .set_loss_model_static(Box::new(move |a, b, f, _| model.loss(a.distance_to(b), f)));
        }
        let label = if grid { "grid" } else { "no-grid" };
        eprintln!("perfsuite: CITY-DCF n={stations}: {label} cache build + plan…");
        let t0 = Instant::now();
        world.prime_neighbor_cache(SimTime::ZERO);
        let build_s = t0.elapsed().as_secs_f64();
        let (indexed, stored) = world
            .neighbor_cache_stats()
            .expect("planning world primes its neighbor cache");
        assert_eq!(indexed, grid, "{label} world built the wrong cache shape");
        let t0 = Instant::now();
        let plan = world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
        let plan_s = t0.elapsed().as_secs_f64();
        if grid {
            let incoherent = world.grid_incoherence(SimTime::ZERO);
            assert!(incoherent.is_empty(), "grid incoherent: {incoherent:?}");
            assert!(
                world.shard_plan_incoherence(&plan, SimTime::ZERO).is_none(),
                "grid plan failed re-validation"
            );
        }
        (build_s, plan_s, stored, plan)
    };
    // Samples: grid build, grid plan, no-grid build, no-grid plan.
    let mut times: [Vec<f64>; 4] = Default::default();
    let (mut grid_stored, mut base_stored, mut shards) = (0, 0, 0);
    for _ in 0..GRID_REPEATS {
        let (gb, gp, gs, grid_plan) = run_side(true);
        let (bb, bp, bs, base_plan) = run_side(false);
        assert_eq!(
            grid_plan.shard_of, base_plan.shard_of,
            "grid and exhaustive planners disagree on the partition"
        );
        assert_eq!(grid_plan.lookahead, base_plan.lookahead);
        assert!(gs <= bs, "grid rows store more pairs than full rows");
        for (t, v) in times.iter_mut().zip([gb, gp, bb, bp]) {
            t.push(v);
        }
        (grid_stored, base_stored, shards) = (gs, bs, grid_plan.shards.len());
    }
    let [gb, gp, bb, bp] = times.map(|mut t| spread(&mut t));
    let build_speedup = bb.0 / gb.0.max(f64::MIN_POSITIVE);
    let plan_speedup = bp.0 / gp.0.max(f64::MIN_POSITIVE);
    eprintln!(
        "perfsuite: grid at n={stations}: {build_speedup:.1}x build, {plan_speedup:.1}x plan, {grid_stored}/{base_stored} stored pairs"
    );

    // The scaling row: plan-only at the METRO-DCF flagship, where
    // full rows (hundreds of GB) and the O(n²) pair scan are no longer
    // an option. The grid planner is the only way to get a partition
    // at this size; the row records that it stays tractable.
    let (mrows, mcols, msenders, mduration) = *metro_dcf_sweep().last().expect("sweep non-empty");
    let metro_stations = mrows * mcols * (msenders + 1);
    eprintln!("perfsuite: METRO-DCF n={metro_stations}: grid plan-only scaling row…");
    let metro_world = metro_dcf_planning_world(mrows, mcols, msenders, mduration, SEED);
    let t0 = Instant::now();
    let metro_plan = metro_world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let metro_plan_s = t0.elapsed().as_secs_f64();
    assert!(
        metro_world
            .shard_plan_incoherence(&metro_plan, SimTime::ZERO)
            .is_none(),
        "metro grid plan failed re-validation"
    );
    eprintln!(
        "perfsuite: METRO-DCF n={metro_stations}: {} shards in {metro_plan_s:.3} s",
        metro_plan.shards.len()
    );

    let side = |(med, lo, hi): (f64, f64, f64)| {
        format!("\"wall_s\": {med:.3}, \"min_s\": {lo:.3}, \"max_s\": {hi:.3}")
    };
    format!(
        "  \"grid\": {{\n    \"workload\": \"CITY-DCF planning world rows={rows} cols={cols} senders_per_cell={senders} seed={SEED} ({stations} stations), grid vs no-grid (identical log-distance closure via set_loss_model_static), live in-process\",\n    \"repeats\": {GRID_REPEATS},\n    \"cache_build\": {{\n      \"grid\": {{ {}, \"stored_pairs\": {grid_stored} }},\n      \"no_grid\": {{ {}, \"stored_pairs\": {base_stored} }},\n      \"speedup\": {build_speedup:.2}\n    }},\n    \"shard_plan\": {{\n      \"grid\": {{ {} }},\n      \"exhaustive\": {{ {} }},\n      \"shards\": {shards},\n      \"identical_partition\": true,\n      \"speedup\": {plan_speedup:.2}\n    }},\n    \"metro_plan_only\": {{\n      \"note\": \"grid planner at the METRO-DCF flagship; the no-grid paths are infeasible at this size\",\n      \"stations\": {metro_stations},\n      \"shards\": {},\n      \"wall_s\": {metro_plan_s:.3}\n    }},\n    \"speedup_verdict\": \"grid over no-grid medians of {GRID_REPEATS} alternating runs, single-threaded, measured live at n={stations}\"\n  }}\n",
        side(gb),
        side(bb),
        side(gp),
        side(bp),
        metro_plan.shards.len(),
    )
}
