//! End-to-end benchmark of the cached engine (`TreeifyEngine`) over three
//! seeded workloads, with a per-layer replica trace. See `README.md`.
//!
//! ```text
//! enginebench --workload <tree_warm|cyclic_warm|adhoc_churn>
//!             [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is the JSON result; the line before it
//! is a JSON record with provenance and sample counts.

mod alloc;
mod report;
mod run;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use gyo_core::query::TreeifyEngine;

use crate::report::{peak_rss_mb, Metric, Outcome, Provenance};
use crate::stats::median;
use crate::workload::{Kind, Tally, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// The end-to-end metrics of the result line, as `BENCHMARK.json` lists
/// them.
const END_TO_END: [&str; 8] = [
    "setup_s",
    "reduce_p05_us",
    "reduce_p99_us",
    "answer_p05_us",
    "answer_p99_us",
    "calls_per_s",
    "cold_call_p05_us",
    "peak_rss_mb",
];

/// The per-layer metrics of a traced run's result line, as
/// `BENCHMARK.json` lists them.
const PER_LAYER: [&str; 31] = [
    "engine.reduce_ns",
    "engine.answer_ns",
    "engine.cold_call_ns",
    "engine.plan_hit_ns",
    "engine.plan_compile_ns",
    "engine.plan_hit_ratio",
    "gyo.reduce_ns",
    "treeify.core_join_ns",
    "treeify.core_join_peak_rows",
    "treeify.w_rows",
    "treeify.w_arity",
    "exec.stage_ns",
    "exec.program_ns",
    "exec.steps",
    "exec.rows_in",
    "exec.rows_out",
    "exec.survivor_ratio",
    "exec.steps_key_w1",
    "exec.steps_key_w2",
    "exec.steps_key_wide",
    "exec.allocs_per_call",
    "exec.step_allocs_per_call",
    "relation.build_ns",
    "relation.rows_built",
    "relation.key_extract_ns",
    "joinup.ns",
    "joinup.rows_out",
    "trace.coverage_reduce",
    "trace.coverage_answer",
    "trace.overhead_ratio",
    "trace.replica_mismatches",
];

const USAGE: &str = "usage: enginebench --workload <tree_warm|cyclic_warm|adhoc_churn> \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut kind, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
            match flag.as_str() {
                "--workload" => {
                    kind = Some(Kind::parse(&value).ok_or_else(|| bad("unknown workload"))?)
                }
                "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    seconds = value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| bad("expected a positive number"))?
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Self {
            kind: kind.ok_or("--workload is required")?,
            seed,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("enginebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let provenance = Provenance::detect();

    // Set-up: generate the workload, compute the reference outputs, and
    // warm a fresh engine with one round of checked calls.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut ready = None;
    for _ in 0..SETUP_REPS {
        drop(ready.take());
        let start = Instant::now();
        let w = Workload::build(args.kind, args.seed);
        let engine = TreeifyEngine::new();
        let mut tally = Tally {
            inconsistencies: w.reference_disagreements,
            ..Tally::default()
        };
        for &call in &w.calls {
            let (out, _, _) = w.timed_call(&engine, call);
            tally.check(&w, call, &out);
        }
        setups.push(start.elapsed().as_secs_f64());
        ready = Some((w, engine, tally));
    }
    let (w, engine, mut tally) = ready.expect("at least one set-up");

    let mut metrics = vec![Metric::new("setup_s", median(&setups), "s", setups.len())];
    let mut notes = Vec::new();
    if args.trace {
        metrics.extend(trace::run(&w, &engine, args.seconds, &mut tally));
    } else {
        let (run_metrics, group_notes) = run::run(&w, &engine, args.seconds, &mut tally);
        metrics.extend(run_metrics);
        notes = group_notes;
    }
    let Some(rss) = peak_rss_mb() else {
        eprintln!("enginebench: cannot read the peak resident set size");
        return ExitCode::FAILURE;
    };
    metrics.push(Metric::new("peak_rss_mb", rss, "MiB", 1));
    metrics.push(Metric::new(
        "failed_share",
        tally.failed() as f64 / tally.attempted as f64,
        "ratio",
        tally.attempted as usize,
    ));
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!(
            "enginebench: {} is not a number (too few samples); run longer",
            m.name
        );
        return ExitCode::FAILURE;
    }

    Outcome {
        workload: args.kind.name(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        provenance: &provenance,
        metrics,
        notes,
        result_metrics: if args.trace { &PER_LAYER } else { &END_TO_END },
        correct: tally.all_correct(),
        attempted: tally.attempted,
        failed: tally.failed(),
    }
    .print();
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names the program reports are the ones `BENCHMARK.json`
    /// declares, in its order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let section = |key: &str| -> Vec<String> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| s[..s.find('"').expect("name closes")].to_string())
                .collect()
        };
        assert_eq!(section("end_to_end"), END_TO_END);
        assert_eq!(section("per_layer"), PER_LAYER);
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload cyclic_warm --seed 7 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (a.kind, a.seed, a.seconds, a.trace),
            (Kind::CyclicWarm, 7, 2.5, true)
        );
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload tree_warm --trace 2").is_err());
        assert!(parse("--workload tree_warm --seconds 0").is_err());
        assert!(parse("--workload tree_warm --seed").is_err());
    }
}
