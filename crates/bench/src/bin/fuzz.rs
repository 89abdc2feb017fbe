//! fuzz — the deterministic simulation fuzzer's command-line front end.
//!
//! Run with: `cargo run --release -p wn-bench --bin fuzz -- --seeds 500`
//!
//! Each seed maps to one generated scenario (`wn-check`'s
//! `ScenarioGen`), runs it through the engines single-threaded, and
//! checks the typed trace against every invariant oracle. Seeds are
//! independent, so ranges fan out across workers with identical
//! results for any worker count.
//!
//! Flags:
//! - `--seeds N` — fuzz seeds `start..start+N` (default 500).
//! - `--start S` — first seed of the range (default 0).
//! - `--seed N` — run exactly one seed (overrides `--seeds`/`--start`).
//! - `--shrink` — on violation, minimise the scenario (halve stations,
//!   traffic, duration while it still fails) and print the shrunk
//!   repro before exiting.
//! - `--threads T` — worker count for range runs (default: `WN_THREADS`
//!   env var, else detected parallelism).
//! - `--scheduler heap|wheel` — back end for the single-scheduler
//!   modes (default: the engine default, currently the timer wheel;
//!   `heap` selects the reference binary heap). Ignored by `--dual`,
//!   which always runs both.
//! - `--dual` — differential scheduler mode: replay every seed through
//!   both the binary-heap and timer-wheel back ends and fail unless
//!   the trace and metrics fingerprints are byte-identical.
//! - `--cache-diff` — differential propagation mode: replay every seed
//!   with the neighbor cache on and off and fail unless the trace and
//!   metrics fingerprints are byte-identical (the equivalence contract
//!   of the cached hot path, including under ESS mobility).
//! - `--shard-diff` — differential sharding mode: partition every
//!   seed's deployment into interference shards and run the
//!   composition through the component executor at 1 worker and again
//!   at 2 and 4 workers, demanding byte-identical trace and metrics
//!   digests (DESIGN.md §15). Range runs additionally verify a
//!   multi-shard CITY-DCF grid the generated scenarios cannot reach.
//!   Single-component ESS worlds and non-medium kinds
//!   (Bluetooth/ZigBee/WiMAX) are skipped.
//! - `--grid-diff` — differential spatial-index mode: replay every
//!   seed with the spatial grid index on (sparse neighbor rows,
//!   grid-backed shard planning) and off (exhaustive dense scans) and
//!   fail unless the trace and metrics fingerprints are byte-identical
//!   (the grid's equivalence contract, DESIGN.md §17). Range runs
//!   additionally plan a multi-cell CITY-DCF street grid through both
//!   `shard_plan` and `shard_plan_exhaustive` and demand identical
//!   partitions and lookaheads.
//! - `--qos` — the EDCA/A-MPDU corpus (DESIGN.md §16): every seed maps
//!   to a QoS WLAN world (mixed-AC traffic, aggregation on/off, OBSS
//!   twin cells), each run oracle-checked through both scheduler back
//!   ends, the neighbor cache on/off, and the component executor at 1
//!   vs 2 and 4 workers, demanding byte-identical fingerprints
//!   throughout. The leg then
//!   runs two gates: the AIFSN-swap fail-point self-test (the planted
//!   AC_VO/AC_BK parameter swap must be caught by the
//!   priority-inversion oracle and shrunk to a small repro) and the
//!   legacy-equivalence differential (the classic 200-seed digest must
//!   still hash to its recorded pre-QoS fingerprint, proving the QoS
//!   machinery is byte-invisible when off).
//!
//! On any violation the process prints one line per failing seed, the
//! one-line repro command, and exits 1.

use wn_check::{
    check_range_gen, check_range_grid, check_range_opts, check_range_with, check_seed_with,
    range_digest, repro_command, run, shard_diff_range, shard_diff_range_gen, shard_diff_seed,
    shrink, station_count, ScenarioGen, ShardDiffReport,
};
use wn_core::scenarios::{city_dcf_point, metro_dcf_planning_world, CITY_DCF_RANGE_M};
use wn_mac80211::shard::ShardRunReport;
use wn_sim::stats::fnv1a;
use wn_sim::{worker_count, SchedulerKind, SimTime};

/// FNV-1a of `range_digest(0, 200, _)` over the classic corpus as
/// recorded *before* the QoS machinery landed. The `--qos` leg
/// recomputes the digest and demands this exact fingerprint: with EDCA
/// off, every scenario, trace and metrics snapshot must remain
/// byte-identical to the pre-QoS engine.
const LEGACY_DIGEST_SEEDS: u64 = 200;
const LEGACY_DIGEST_FNV: u64 = 0x4a49_300b_696f_7708;

struct Options {
    start: u64,
    count: u64,
    single: Option<u64>,
    shrink: bool,
    threads: usize,
    dual: bool,
    cache_diff: bool,
    shard_diff: bool,
    grid_diff: bool,
    qos: bool,
    scheduler: SchedulerKind,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        start: 0,
        count: 500,
        single: None,
        shrink: false,
        threads: worker_count(),
        dual: false,
        cache_diff: false,
        shard_diff: false,
        grid_diff: false,
        qos: false,
        scheduler: SchedulerKind::default(),
    };
    let mut i = 0;
    while i < args.len() {
        let need = |i: usize| -> Result<&String, String> {
            args.get(i)
                .ok_or_else(|| format!("{} needs a value", args[i - 1]))
        };
        match args[i].as_str() {
            "--seeds" => {
                i += 1;
                opts.count = need(i)?
                    .parse()
                    .map_err(|_| "--seeds needs a count".to_string())?;
            }
            "--start" => {
                i += 1;
                opts.start = need(i)?
                    .parse()
                    .map_err(|_| "--start needs a seed".to_string())?;
            }
            "--seed" => {
                i += 1;
                opts.single = Some(
                    need(i)?
                        .parse()
                        .map_err(|_| "--seed needs a seed".to_string())?,
                );
            }
            "--shrink" => opts.shrink = true,
            "--dual" => opts.dual = true,
            "--cache-diff" => opts.cache_diff = true,
            "--shard-diff" => opts.shard_diff = true,
            "--grid-diff" => opts.grid_diff = true,
            "--qos" => opts.qos = true,
            "--scheduler" => {
                i += 1;
                opts.scheduler = need(i)?.parse::<SchedulerKind>()?;
            }
            "--threads" => {
                i += 1;
                opts.threads = need(i)?
                    .parse()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| "--threads needs a count >= 1".to_string())?;
            }
            other => return Err(format!("unknown flag {other}")),
        }
        i += 1;
    }
    Ok(opts)
}

/// Prints the violations for one failing seed; with `--shrink`, also
/// minimises the scenario and prints the shrunk repro.
fn report_failure(seed: u64, summary: &str, violations: &[wn_check::Violation], do_shrink: bool) {
    report_failure_gen(
        &ScenarioGen::default(),
        seed,
        summary,
        violations,
        do_shrink,
    );
}

/// [`report_failure`] under an explicit generator, so `--qos` failures
/// shrink the scenario the QoS corpus actually drew.
fn report_failure_gen(
    gen: &ScenarioGen,
    seed: u64,
    summary: &str,
    violations: &[wn_check::Violation],
    do_shrink: bool,
) {
    println!("seed {seed}: FAIL  {summary}");
    for v in violations {
        println!("  {v}");
    }
    println!("  repro: {}", repro_command(seed));
    if do_shrink {
        let sc = gen.scenario(seed);
        let still_fails = |c: &wn_check::Scenario| !run::check_scenario(c).is_empty();
        let min = shrink(&sc, still_fails);
        println!(
            "  shrunk to {} stations: {}",
            station_count(&min),
            min.summary()
        );
        for v in run::check_scenario(&min) {
            println!("    {v}");
        }
    }
}

/// Differential scheduler mode: the same seed range through both
/// queue back ends, seed by seed, demanding identical fingerprints.
/// Returns the number of disagreeing or violating seeds.
fn run_dual(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let heap = check_range_with(start, count, opts.threads, SchedulerKind::BinaryHeap);
    let wheel = check_range_with(start, count, opts.threads, SchedulerKind::TimerWheel);
    let mut failures = 0u64;
    for (h, w) in heap.iter().zip(&wheel) {
        let agree =
            h.events == w.events && h.trace_fnv == w.trace_fnv && h.metrics_fnv == w.metrics_fnv;
        if !agree {
            failures += 1;
            println!(
                "seed {}: SCHEDULER DIVERGENCE  {}\n  heap:  events={} trace_fnv={:016x} metrics_fnv={:016x}\n  wheel: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                h.seed, h.summary, h.events, h.trace_fnv, h.metrics_fnv, w.events, w.trace_fnv, w.metrics_fnv
            );
            println!("  repro: {} --dual", repro_command(h.seed));
        }
        if !h.violations.is_empty() {
            failures += 1;
            report_failure(h.seed, &h.summary, &h.violations, opts.shrink);
        }
    }
    println!(
        "dual-scheduler fuzz: {} seeds ({}..{}) x {{heap, wheel}} on {} workers in {:.2}s: {} failing",
        count,
        start,
        start + count,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures
    );
    failures
}

/// Differential propagation mode: the same seed range with the
/// neighbor cache on vs off, seed by seed, demanding identical
/// fingerprints. Returns the number of disagreeing or violating seeds.
fn run_cache_diff(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let kind = opts.scheduler;
    let cached = check_range_opts(start, count, opts.threads, kind, true);
    let direct = check_range_opts(start, count, opts.threads, kind, false);
    let mut failures = 0u64;
    for (c, d) in cached.iter().zip(&direct) {
        let agree =
            c.events == d.events && c.trace_fnv == d.trace_fnv && c.metrics_fnv == d.metrics_fnv;
        if !agree {
            failures += 1;
            println!(
                "seed {}: NEIGHBOR-CACHE DIVERGENCE  {}\n  cached: events={} trace_fnv={:016x} metrics_fnv={:016x}\n  direct: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                c.seed, c.summary, c.events, c.trace_fnv, c.metrics_fnv, d.events, d.trace_fnv, d.metrics_fnv
            );
            println!("  repro: {} --cache-diff", repro_command(c.seed));
        }
        if !c.violations.is_empty() {
            failures += 1;
            report_failure(c.seed, &c.summary, &c.violations, opts.shrink);
        }
    }
    println!(
        "cache-diff fuzz: {} seeds ({}..{}) x {{cached, direct}} on {} workers in {:.2}s: {} failing",
        count,
        start,
        start + count,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures
    );
    failures
}

/// Differential spatial-index mode: the same seed range with the grid
/// index on (sparse rows, grid shard planning) vs off (exhaustive
/// dense scans), demanding identical fingerprints, plus a fixed
/// multi-cell CITY-DCF planning world compared pair-for-pair through
/// the grid and exhaustive planners. Returns the number of failures.
fn run_grid_diff(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let gridded = check_range_grid(start, count, opts.threads, true);
    let exhaustive = check_range_grid(start, count, opts.threads, false);
    let mut failures = 0u64;
    for (g, e) in gridded.iter().zip(&exhaustive) {
        let agree =
            g.events == e.events && g.trace_fnv == e.trace_fnv && g.metrics_fnv == e.metrics_fnv;
        if !agree {
            failures += 1;
            println!(
                "seed {}: GRID DIVERGENCE  {}\n  grid:       events={} trace_fnv={:016x} metrics_fnv={:016x}\n  exhaustive: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                g.seed, g.summary, g.events, g.trace_fnv, g.metrics_fnv, e.events, e.trace_fnv, e.metrics_fnv
            );
            println!("  repro: {} --grid-diff", repro_command(g.seed));
        }
        if !g.violations.is_empty() {
            failures += 1;
            report_failure(g.seed, &g.summary, &g.violations, opts.shrink);
        }
    }

    // The planning leg: a street grid the scenario generator cannot
    // produce, planned through the grid index and the exhaustive O(n²)
    // scan. Both partitions, lookaheads and re-validation verdicts
    // must match exactly.
    let world = metro_dcf_planning_world(3, 4, 12, 60, 42);
    let grid_plan = world.shard_plan(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    let exhaustive_plan = world.shard_plan_exhaustive(SimTime::ZERO, Some(CITY_DCF_RANGE_M));
    if grid_plan.shard_of != exhaustive_plan.shard_of
        || grid_plan.lookahead != exhaustive_plan.lookahead
    {
        failures += 1;
        println!(
            "CITY-DCF planning: GRID DIVERGENCE  grid {} shards lookahead {:?} vs exhaustive {} shards lookahead {:?}",
            grid_plan.shards.len(),
            grid_plan.lookahead,
            exhaustive_plan.shards.len(),
            exhaustive_plan.lookahead
        );
    }
    let grid_verdict = world.shard_plan_incoherence(&grid_plan, SimTime::ZERO);
    let exhaustive_verdict = world.shard_plan_incoherence_exhaustive(&grid_plan, SimTime::ZERO);
    if grid_verdict.is_some() || exhaustive_verdict.is_some() {
        failures += 1;
        println!(
            "CITY-DCF planning: INCOHERENT PLAN  grid verdict {grid_verdict:?}, exhaustive verdict {exhaustive_verdict:?}"
        );
    }

    println!(
        "grid-diff fuzz: {} seeds ({}..{}) x {{grid, exhaustive}} + a {}-station CITY-DCF planning check on {} workers in {:.2}s: {} failing",
        count,
        start,
        start + count,
        grid_plan.shard_of.len(),
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures
    );
    failures
}

/// Prints a composition's 1-worker reference digest and every
/// multi-worker run that diverged from it.
fn print_worker_divergence(reference: &ShardRunReport, parallel: &[(usize, ShardRunReport)]) {
    println!(
        "  1 worker:   events={} trace_fnv={:016x} metrics_fnv={:016x}",
        reference.events, reference.trace_fnv, reference.metrics_fnv
    );
    for (workers, r) in parallel {
        if r != reference {
            println!(
                "  {workers} workers:  events={} trace_fnv={:016x} metrics_fnv={:016x}",
                r.events, r.trace_fnv, r.metrics_fnv
            );
        }
    }
}

/// Prints one failing shard differential, dual-style: the 1-worker
/// reference digests against every diverging multi-worker execution,
/// plus any partition-soundness failure.
fn report_shard_divergence(r: &ShardDiffReport) {
    println!(
        "seed {}: SHARD DIVERGENCE  {} ({} shards)",
        r.seed, r.summary, r.shards
    );
    if let Some(why) = &r.incoherence {
        println!("  plan incoherent: {why}");
    }
    print_worker_divergence(&r.reference, &r.parallel);
    println!("  repro: {} --shard-diff", repro_command(r.seed));
}

/// Differential sharding mode: every seed's deployment partitioned and
/// run at 1 vs 2 and 4 workers; range runs add a fixed multi-shard
/// CITY-DCF grid (12 cells on channels 1/6/11 — deeper than any
/// generated scenario shards). Returns the number of failing seeds.
fn run_shard_diff(opts: &Options) -> u64 {
    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    if let Some(seed) = opts.single {
        match shard_diff_seed(seed) {
            None => println!("seed {seed}: skip (single component or no shared medium)"),
            Some(r) if r.divergent() => {
                failures += 1;
                report_shard_divergence(&r);
            }
            Some(r) => println!(
                "seed {seed}: ok  {} ({} shards, {} events, trace_fnv={:016x})",
                r.summary, r.shards, r.reference.events, r.reference.trace_fnv
            ),
        }
        if failures > 0 {
            return failures;
        }
        println!("shard-diff: seed {seed} byte-identical across {{1, 2, 4 workers}}");
        return 0;
    }

    let reports = shard_diff_range(opts.start, opts.count, opts.threads);
    let (mut skipped, mut ran, mut multi) = (0u64, 0u64, 0u64);
    for r in &reports {
        match r {
            None => skipped += 1,
            Some(r) => {
                ran += 1;
                if r.shards > 1 {
                    multi += 1;
                }
                if r.divergent() {
                    failures += 1;
                    report_shard_divergence(r);
                }
            }
        }
    }

    // The city leg: a grid the scenario generator cannot produce —
    // every cell its own shard, all worker counts, byte-identical.
    let city = city_dcf_point(3, 4, 12, 60, 42, 1);
    let parallel = [2, 4].map(|workers| (workers, city_dcf_point(3, 4, 12, 60, 42, workers).run));
    if city.incoherence.is_some() || parallel.iter().any(|(_, r)| *r != city.run) {
        failures += 1;
        println!(
            "CITY-DCF grid: SHARD DIVERGENCE  {} cells -> {} shards{}",
            city.cells,
            city.shards,
            city.incoherence
                .as_deref()
                .map(|w| format!("  (plan incoherent: {w})"))
                .unwrap_or_default()
        );
        print_worker_divergence(&city.run, &parallel);
    }

    println!(
        "shard-diff fuzz: {} seeds ({}..{}) x {{1, 2, 4 workers}} + a {}-cell CITY-DCF grid on {} workers in {:.2}s: {} failing ({} run, {} multi-shard, {} skipped)",
        opts.count,
        opts.start,
        opts.start + opts.count,
        city.cells,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures,
        ran,
        multi,
        skipped
    );
    failures
}

/// The QoS corpus leg: oracle-checked EDCA/A-MPDU worlds across both
/// scheduler back ends, the neighbor cache on/off and the component
/// executor at 1 vs 2 and 4 workers, then the AIFSN-swap self-test and the
/// legacy-equivalence differential. Returns the number of failures.
fn run_qos(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let gen = ScenarioGen::with_qos();
    let mut failures = 0u64;

    // Leg 1: oracle sweep through both schedulers, fingerprints equal.
    let heap = check_range_gen(
        gen,
        start,
        count,
        opts.threads,
        SchedulerKind::BinaryHeap,
        true,
    );
    let wheel = check_range_gen(
        gen,
        start,
        count,
        opts.threads,
        SchedulerKind::TimerWheel,
        true,
    );
    for (h, w) in heap.iter().zip(&wheel) {
        if h.events != w.events || h.trace_fnv != w.trace_fnv || h.metrics_fnv != w.metrics_fnv {
            failures += 1;
            println!(
                "seed {}: SCHEDULER DIVERGENCE (qos)  {}\n  heap:  events={} trace_fnv={:016x} metrics_fnv={:016x}\n  wheel: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                h.seed, h.summary, h.events, h.trace_fnv, h.metrics_fnv, w.events, w.trace_fnv, w.metrics_fnv
            );
        }
        if !h.violations.is_empty() {
            failures += 1;
            report_failure_gen(&gen, h.seed, &h.summary, &h.violations, opts.shrink);
        }
    }

    // Leg 2: the cached propagation path against the direct one.
    let direct = check_range_gen(
        gen,
        start,
        count,
        opts.threads,
        SchedulerKind::TimerWheel,
        false,
    );
    for (c, d) in wheel.iter().zip(&direct) {
        if c.events != d.events || c.trace_fnv != d.trace_fnv || c.metrics_fnv != d.metrics_fnv {
            failures += 1;
            println!(
                "seed {}: NEIGHBOR-CACHE DIVERGENCE (qos)  {}\n  cached: events={} trace_fnv={:016x} metrics_fnv={:016x}\n  direct: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                c.seed, c.summary, c.events, c.trace_fnv, c.metrics_fnv, d.events, d.trace_fnv, d.metrics_fnv
            );
        }
    }

    // Leg 3: the component executor at 2 and 4 workers against 1.
    let mut multi = 0u64;
    for r in shard_diff_range_gen(gen, start, count, opts.threads)
        .iter()
        .flatten()
    {
        if r.shards > 1 {
            multi += 1;
        }
        if r.divergent() {
            failures += 1;
            report_shard_divergence(r);
        }
    }

    // Self-test: the planted AC_VO/AC_BK parameter swap must be caught
    // by the priority-inversion oracle somewhere in the range — and the
    // catching scenario must shrink to a small repro that still fails.
    let swap = ScenarioGen::with_qos_aifsn_swap();
    let fires = |sc: &wn_check::Scenario| {
        run::check_scenario(sc)
            .iter()
            .any(|v| v.oracle == "edca-priority")
    };
    let mut caught = None;
    for seed in start..start + count {
        let sc = swap.scenario(seed);
        if fires(&sc) {
            caught = Some((seed, shrink(&sc, fires)));
            break;
        }
    }
    match caught {
        Some((seed, min)) => {
            if !fires(&min) {
                failures += 1;
                println!("aifsn-swap self-test: shrunk repro no longer fails");
            }
            println!(
                "aifsn-swap self-test: caught at seed {seed}, shrunk to {} stations: {}",
                station_count(&min),
                min.summary()
            );
        }
        None => {
            failures += 1;
            println!(
                "aifsn-swap self-test: planted priority inversion never caught in seeds {start}..{}",
                start + count
            );
        }
    }

    // The legacy-equivalence differential: with QoS off, the classic
    // corpus must still produce its recorded pre-QoS digest, byte for
    // byte.
    let legacy = fnv1a(range_digest(0, LEGACY_DIGEST_SEEDS, opts.threads).as_bytes());
    if legacy != LEGACY_DIGEST_FNV {
        failures += 1;
        println!(
            "legacy-equivalence: classic {LEGACY_DIGEST_SEEDS}-seed digest hashed to \
             {legacy:016x}, expected {LEGACY_DIGEST_FNV:016x} — the QoS machinery leaked \
             into the EDCA-off path"
        );
    }

    println!(
        "qos fuzz: {} seeds ({}..{}) x {{heap, wheel, direct, shard executor}} + aifsn-swap self-test + {}-seed legacy digest on {} workers in {:.2}s: {} failing ({} multi-shard)",
        count,
        start,
        start + count,
        LEGACY_DIGEST_SEEDS,
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures,
        multi
    );
    failures
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("fuzz: {e}");
            std::process::exit(2);
        }
    };

    if opts.dual {
        if run_dual(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.cache_diff {
        if run_cache_diff(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.shard_diff {
        if run_shard_diff(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.grid_diff {
        if run_grid_diff(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }
    if opts.qos {
        if run_qos(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }

    let t0 = std::time::Instant::now();
    let mut failures = 0u64;

    if let Some(seed) = opts.single {
        let r = check_seed_with(seed, opts.scheduler);
        if r.violations.is_empty() {
            println!("seed {seed}: ok  {} ({} events)", r.summary, r.events);
        } else {
            failures += 1;
            report_failure(seed, &r.summary, &r.violations, opts.shrink);
        }
    } else {
        let reports = check_range_with(opts.start, opts.count, opts.threads, opts.scheduler);
        let total = reports.len();
        for r in &reports {
            if !r.violations.is_empty() {
                failures += 1;
                report_failure(r.seed, &r.summary, &r.violations, opts.shrink);
            }
        }
        println!(
            "fuzzed {} seeds ({}..{}) on {} workers in {:.2}s: {} failing",
            total,
            opts.start,
            opts.start + opts.count,
            opts.threads,
            t0.elapsed().as_secs_f64(),
            failures
        );
    }

    if failures > 0 {
        std::process::exit(1);
    }
}
