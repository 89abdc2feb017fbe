//! `simbench --workload <name> --seed <n> [--trace 0|1] [--workers <n>]`
//!
//! Runs one workload once in this process and prints one JSON object
//! on stdout: host-time phases, events, digests, model outputs, check
//! verdicts and, with `--trace 1`, the per-layer metrics and spans.
//! Exits 1 when an output check fails, 2 on a usage error. `run.py`
//! calls this once per repetition, so each repetition has its own
//! process and its own peak resident set.

use simbench::spans::self_times_s;
use simbench::{run, Metric, Workload};
use std::fmt::Write as _;
use std::process::ExitCode;

/// A JSON number; non-finite values become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("simbench: {msg}");
    eprintln!("usage: simbench --workload <saturated-bss|city-shards|qos-obss> --seed <n> [--trace 0|1] [--workers <n>]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut trace = false;
    let mut workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload '{value}'")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(s) => seed = Some(s),
                Err(_) => return usage(&format!("bad --seed '{value}'")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad --trace '{value}' (0|1)")),
            },
            "--workers" => match value.parse::<usize>() {
                Ok(n) if n >= 1 => workers = n,
                _ => return usage(&format!("bad --workers '{value}'")),
            },
            _ => return usage(&format!("unknown flag '{flag}'")),
        }
    }
    let (Some(workload), Some(seed)) = (workload, seed) else {
        return usage("--workload and --seed are required");
    };

    let out = run(workload.shape(), seed, workers, trace);
    let d = &out.digest;
    let mut json = format!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"workers\":{workers},\"traced\":{trace},\"ok\":{},\
         \"wall_s\":{},\"setup_s\":{},\"loop_s\":{},\"peak_rss_mb\":{},\
         \"events\":{},\"shards\":{},\"trace_fnv\":\"{:016x}\",\"metrics_fnv\":\"{:016x}\",\
         \"outputs\":{},\"checks\":{{{}}}",
        workload.name(),
        out.ok(),
        num(out.wall_s),
        num(out.setup_s),
        num(out.loop_s),
        num(out.peak_rss_mb),
        d.events,
        d.shards,
        d.trace_fnv,
        d.metrics_fnv,
        metrics_json(&out.outputs),
        out.checks
            .iter()
            .map(|(name, ok)| format!("\"{name}\":{ok}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    if trace {
        let self_s = self_times_s(&out.spans);
        let spans: Vec<String> = out
            .spans
            .iter()
            .zip(self_s)
            .map(|(s, own)| {
                format!(
                    "{{\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"self_s\":{},\"parent\":{}}}",
                    s.name,
                    num(s.start_s),
                    num(s.end_s),
                    num(own),
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                )
            })
            .collect();
        let _ = write!(
            json,
            ",\"layers\":{},\"spans\":[{}]",
            metrics_json(&out.layers),
            spans.join(",")
        );
    }
    json.push('}');
    println!("{json}");
    if out.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
