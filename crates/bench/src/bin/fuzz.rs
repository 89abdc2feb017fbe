//! fuzz — the deterministic simulation fuzzer's command-line front end.
//!
//! Run with: `cargo run --release -p wn-bench --bin fuzz -- --seeds 500`
//!
//! Each seed maps to one generated scenario (`wn-check`'s
//! `ScenarioGen`), runs it through the engines single-threaded, and
//! checks the typed trace against every invariant oracle — including
//! the scheduler-order oracle, which replays the run's recorded queue
//! op stream through the timer wheel and the reference binary heap and
//! demands the same pop order. Seeds are independent, so ranges fan
//! out across workers with identical results for any worker count.
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
//! - `--cache-diff` — differential propagation mode: replay every seed
//!   on the cached path and on the direct reference (the same
//!   log-distance model reinstalled through `set_loss_model`, which
//!   evaluates every row per transmission) and fail unless the trace
//!   and metrics fingerprints are byte-identical (the equivalence
//!   contract of the cached hot path, including under ESS mobility).
//!   Two fixed legs follow: the multi-cell line worlds (traffic
//!   spanning several grid neighborhoods, cached vs direct,
//!   byte-identical trace and metrics), and a multi-cell CITY-DCF
//!   street grid planned through both `shard_plan` and
//!   `shard_plan_exhaustive`, demanding identical partitions,
//!   lookaheads and clean re-validation verdicts.
//! - `--shard-diff` — differential sharding mode: partition every
//!   seed's deployment into interference shards and run the
//!   composition through the component executor at 1 worker and again
//!   at 2 and 4 workers, demanding byte-identical trace and metrics
//!   digests (DESIGN.md §15). Range runs additionally verify a
//!   multi-shard CITY-DCF grid the generated scenarios cannot reach.
//!   Single-component ESS worlds and non-medium kinds
//!   (Bluetooth/ZigBee/WiMAX) are skipped.
//! - `--qos` — the EDCA/A-MPDU corpus (DESIGN.md §16): every seed maps
//!   to a QoS WLAN world (mixed-AC traffic, aggregation on/off, OBSS
//!   twin cells), each run oracle-checked (scheduler order included)
//!   and replayed on the direct propagation reference and through the
//!   component executor at 1 vs 2 and 4 workers, demanding
//!   byte-identical fingerprints throughout. The leg then
//!   runs two gates: the AIFSN-swap fail-point self-test (the planted
//!   AC_VO/AC_BK parameter swap must be caught by the
//!   priority-inversion oracle and shrunk to a small repro) and two
//!   digest gates: the classic 200-seed digest must still hash to its
//!   recorded pre-QoS fingerprint (the QoS machinery is byte-invisible
//!   when off), and the 200-seed QoS digest to its own recorded
//!   fingerprint (the EDCA path itself has not drifted).
//!
//! On any violation the process prints one line per failing seed, the
//! one-line repro command, and exits 1.

use wn_check::{
    check_range, check_range_gen, check_seed, line_world_run, range_digest, repro_command, run,
    shard_diff_range, shard_diff_range_gen, shard_diff_seed, shrink, station_count, ScenarioGen,
    ShardDiffReport, LINE_WORLD_SPACINGS,
};
use wn_core::scenarios::{city_dcf_point, metro_dcf_planning_world, CITY_DCF_RANGE_M};
use wn_mac80211::shard::ShardRunReport;
use wn_sim::stats::fnv1a;
use wn_sim::{worker_count, SimTime};

/// FNV-1a of `range_digest(ScenarioGen::default(), 0, 200, _)` over
/// the classic corpus as recorded *before* the QoS machinery landed.
/// The `--qos` leg recomputes the digest and demands this exact
/// fingerprint: with EDCA off, every scenario, trace and metrics
/// snapshot must remain byte-identical to the pre-QoS engine.
const DIGEST_SEEDS: u64 = 200;
const LEGACY_DIGEST_FNV: u64 = 0x4a49_300b_696f_7708;

/// FNV-1a of `range_digest(ScenarioGen::with_qos(), 0, 200, _)`: the
/// EDCA/A-MPDU corpus's behaviour pin. The `--qos` leg demands it next
/// to the legacy digest, so a change to the four-lane contention path
/// (or to aggregation and block ack) cannot pass by comparing the QoS
/// corpus only with itself.
const QOS_DIGEST_FNV: u64 = 0xa405_0cbf_e8dc_0d37;

struct Options {
    start: u64,
    count: u64,
    single: Option<u64>,
    shrink: bool,
    threads: usize,
    cache_diff: bool,
    shard_diff: bool,
    qos: bool,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        start: 0,
        count: 500,
        single: None,
        shrink: false,
        threads: worker_count(),
        cache_diff: false,
        shard_diff: false,
        qos: false,
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
            "--cache-diff" => opts.cache_diff = true,
            "--shard-diff" => opts.shard_diff = true,
            "--qos" => opts.qos = true,
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

/// Prints the violations for one failing seed of `gen`'s corpus; with
/// `--shrink`, also minimises the scenario `gen` drew and prints the
/// shrunk repro.
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
    println!("  repro: {}", repro_command(gen, seed));
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

/// Differential propagation mode: the same seed range on the cached
/// path vs the direct reference, seed by seed, demanding identical
/// fingerprints, then the fixed multi-cell legs (line-world traffic
/// cached vs direct, CITY-DCF planning grid vs exhaustive). Returns
/// the number of disagreeing or violating seeds and legs.
fn run_cache_diff(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let classic = ScenarioGen::default();
    let cached = check_range_gen(classic, start, count, opts.threads, true);
    let direct = check_range_gen(classic, start, count, opts.threads, false);
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
            println!("  repro: {} --cache-diff", repro_command(&classic, c.seed));
        }
        if !c.violations.is_empty() {
            failures += 1;
            report_failure_gen(&classic, c.seed, &c.summary, &c.violations, opts.shrink);
        }
    }
    failures += multi_cell_legs();
    println!(
        "cache-diff fuzz: {} seeds ({}..{}) x {{cached, direct}} + {} multi-cell line worlds + a CITY-DCF planning check on {} workers in {:.2}s: {} failing",
        count,
        start,
        start + count,
        LINE_WORLD_SPACINGS.len(),
        opts.threads,
        t0.elapsed().as_secs_f64(),
        failures
    );
    failures
}

/// The fixed multi-cell legs of `--cache-diff`, covering world shapes
/// the scenario generator cannot produce. Returns the failure count.
fn multi_cell_legs() -> u64 {
    let mut failures = 0u64;
    // Traffic across several grid neighborhoods: interference from
    // outside a receiver's neighborhood must reach its SINR exactly as
    // on the direct path.
    for spacing in LINE_WORLD_SPACINGS {
        let cached = line_world_run(spacing, true);
        let direct = line_world_run(spacing, false);
        if cached.processed != direct.processed
            || cached.trace_jsonl != direct.trace_jsonl
            || cached.metrics_jsonl != direct.metrics_jsonl
        {
            failures += 1;
            println!(
                "line world {spacing}x: NEIGHBOR-CACHE DIVERGENCE  events {} cached vs {} direct",
                cached.processed, direct.processed
            );
        }
    }

    // The planning leg: a street grid planned through the grid index
    // and the exhaustive O(n²) scan. Both partitions, lookaheads and
    // re-validation verdicts must match exactly.
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

/// Prints one failing shard differential of `gen`'s corpus: the
/// 1-worker reference digests against every diverging multi-worker
/// execution, plus any partition-soundness failure.
fn report_shard_divergence(gen: &ScenarioGen, r: &ShardDiffReport) {
    println!(
        "seed {}: SHARD DIVERGENCE  {} ({} shards)",
        r.seed, r.summary, r.shards
    );
    if let Some(why) = &r.incoherence {
        println!("  plan incoherent: {why}");
    }
    print_worker_divergence(&r.reference, &r.parallel);
    // `--qos` already replays its corpus through the shard executor.
    let mode = if gen.qos { "" } else { " --shard-diff" };
    println!("  repro: {}{mode}", repro_command(gen, r.seed));
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
                report_shard_divergence(&ScenarioGen::default(), &r);
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
                    report_shard_divergence(&ScenarioGen::default(), r);
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

/// The QoS corpus leg: oracle-checked EDCA/A-MPDU worlds (scheduler
/// order included) across cached vs direct propagation and the component
/// executor at 1 vs 2 and 4 workers, then the AIFSN-swap self-test and
/// the two corpus-digest gates. Returns the number of failures.
fn run_qos(opts: &Options) -> u64 {
    let (start, count) = match opts.single {
        Some(seed) => (seed, 1),
        None => (opts.start, opts.count),
    };
    let t0 = std::time::Instant::now();
    let gen = ScenarioGen::with_qos();
    let mut failures = 0u64;

    // Leg 1: the oracle sweep, scheduler order included.
    let cached = check_range_gen(gen, start, count, opts.threads, true);
    for r in &cached {
        if !r.violations.is_empty() {
            failures += 1;
            report_failure_gen(&gen, r.seed, &r.summary, &r.violations, opts.shrink);
        }
    }

    // Leg 2: the cached propagation path against the direct reference.
    let direct = check_range_gen(gen, start, count, opts.threads, false);
    for (c, d) in cached.iter().zip(&direct) {
        if c.events != d.events || c.trace_fnv != d.trace_fnv || c.metrics_fnv != d.metrics_fnv {
            failures += 1;
            println!(
                "seed {}: NEIGHBOR-CACHE DIVERGENCE (qos)  {}\n  cached: events={} trace_fnv={:016x} metrics_fnv={:016x}\n  direct: events={} trace_fnv={:016x} metrics_fnv={:016x}",
                c.seed, c.summary, c.events, c.trace_fnv, c.metrics_fnv, d.events, d.trace_fnv, d.metrics_fnv
            );
            println!("  repro: {}", repro_command(&gen, c.seed));
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
            report_shard_divergence(&gen, r);
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

    // The digest gates: the classic corpus must still produce its
    // recorded pre-QoS digest, byte for byte (QoS off is invisible),
    // and the QoS corpus its own recorded digest.
    for (label, gen, expected) in [
        (
            "legacy-equivalence",
            ScenarioGen::default(),
            LEGACY_DIGEST_FNV,
        ),
        ("qos-digest", ScenarioGen::with_qos(), QOS_DIGEST_FNV),
    ] {
        let got = fnv1a(range_digest(gen, 0, DIGEST_SEEDS, opts.threads).as_bytes());
        if got != expected {
            failures += 1;
            println!(
                "{label}: {DIGEST_SEEDS}-seed corpus digest hashed to {got:016x}, expected \
                 {expected:016x}"
            );
        }
    }

    println!(
        "qos fuzz: {} seeds ({}..{}) x {{cached, direct, shard executor}} + aifsn-swap self-test + {}-seed legacy and qos digests on {} workers in {:.2}s: {} failing ({} multi-shard)",
        count,
        start,
        start + count,
        DIGEST_SEEDS,
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
    if opts.qos {
        if run_qos(&opts) > 0 {
            std::process::exit(1);
        }
        return;
    }

    let t0 = std::time::Instant::now();
    let mut failures = 0u64;
    let classic = ScenarioGen::default();

    if let Some(seed) = opts.single {
        let r = check_seed(seed);
        if r.violations.is_empty() {
            println!("seed {seed}: ok  {} ({} events)", r.summary, r.events);
        } else {
            failures += 1;
            report_failure_gen(&classic, seed, &r.summary, &r.violations, opts.shrink);
        }
    } else {
        let reports = check_range(opts.start, opts.count, opts.threads);
        let total = reports.len();
        for r in &reports {
            if !r.violations.is_empty() {
                failures += 1;
                report_failure_gen(&classic, r.seed, &r.summary, &r.violations, opts.shrink);
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
