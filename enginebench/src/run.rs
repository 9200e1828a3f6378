//! The untraced run: a closed loop of engine calls, one client on one
//! thread, timed call by call. Every output is checked after its call's
//! timer stops.

use std::time::{Duration, Instant};

use gyo_core::query::TreeifyEngine;

use crate::report::Metric;
use crate::stats::{by_group, group_median, group_percentile, median, percentile};
use crate::workload::{caches_match, Call, Op, Tally, Workload};

/// The loop runs past its `--seconds` until every percentile has enough
/// samples beyond it, but never past this.
const MAX_LOOP: Duration = Duration::from_secs(120);

/// Per-call latencies in µs, by group, and the time spent in calls.
#[derive(Default)]
struct Samples {
    reduce: Vec<(usize, f64)>,
    answer: Vec<(usize, f64)>,
    cold: Vec<(usize, f64)>,
    busy: Duration,
    calls: u64,
}

impl Samples {
    /// Makes one timed call, checks its output, and records its latency.
    fn timed(
        &mut self,
        w: &Workload,
        engine: &TreeifyEngine,
        call: Call,
        first: bool,
        tally: &mut Tally,
    ) {
        let (out, elapsed, built) = w.timed_call(engine, call);
        tally.check(w, call, &out);
        drop((out, built));
        self.busy += elapsed;
        self.calls += 1;
        let us = elapsed.as_secs_f64() * 1e6;
        match (first, call.op) {
            (true, _) => self.cold.push((w.cold_group(call), us)),
            (false, Op::Reduce) => self.reduce.push((w.group(call), us)),
            (false, Op::Answer(_)) => self.answer.push((w.group(call), us)),
        }
    }
}

impl Samples {
    /// The latency and throughput metrics; a percentile that lacks samples
    /// is NaN.
    fn metrics(&self) -> Vec<Metric> {
        let low = |s: &[(usize, f64)]| group_percentile(s, 0.05).unwrap_or(f64::NAN);
        let p99 = |s: &[(usize, f64)]| {
            let pooled: Vec<f64> = s.iter().map(|&(_, v)| v).collect();
            percentile(&pooled, 0.99).unwrap_or(f64::NAN)
        };
        let (r, a, c) = (&self.reduce, &self.answer, &self.cold);
        vec![
            Metric::new("reduce_p05_us", low(r), "us", r.len()),
            Metric::new("reduce_p50_us", group_median(r), "us", r.len()),
            Metric::new("reduce_p99_us", p99(r), "us", r.len()),
            Metric::new("answer_p05_us", low(a), "us", a.len()),
            Metric::new("answer_p50_us", group_median(a), "us", a.len()),
            Metric::new("answer_p99_us", p99(a), "us", a.len()),
            Metric::new(
                "calls_per_s",
                self.calls as f64 / self.busy.as_secs_f64(),
                "1/s",
                self.calls as usize,
            ),
            Metric::new("cold_call_p05_us", low(c), "us", c.len()),
            Metric::new("cold_call_p50_us", group_median(c), "us", c.len()),
        ]
    }
}

/// One line per group: its median and sample count.
fn group_lines(
    what: &str,
    samples: &[(usize, f64)],
    label: impl Fn(usize) -> String,
) -> Vec<String> {
    by_group(samples)
        .iter()
        .map(|(&g, v)| {
            format!(
                "{what} {:<14} {:>12.1} us n={}",
                label(g),
                median(v),
                v.len()
            )
        })
        .collect()
}

/// Runs the timed loop for `seconds`. Returns the end-to-end latency and
/// throughput metrics, and each group's median for the report.
pub fn run(
    w: &Workload,
    engine: &TreeifyEngine,
    seconds: f64,
    tally: &mut Tally,
) -> (Vec<Metric>, Vec<String>) {
    let (trees, cyclic) = w.kind_counts();
    let mut s = Samples::default();
    let start = Instant::now();
    let metrics = loop {
        if w.builds_state() {
            // One epoch: a cleared engine meets each schema twice.
            engine.clear_cache();
            let mut seen = vec![false; w.cases.len()];
            for &call in &w.calls {
                let first = !std::mem::replace(&mut seen[call.case], true);
                s.timed(w, engine, call, first, tally);
            }
        } else {
            // One round of warm calls, then a cold pass: every schema once
            // more, on a cleared plan cache.
            for &call in &w.calls {
                s.timed(w, engine, call, false, tally);
            }
            engine.clear_cache();
            for case in 0..w.cases.len() {
                s.timed(
                    w,
                    engine,
                    Call {
                        case,
                        op: Op::Reduce,
                    },
                    true,
                    tally,
                );
            }
        }
        if !caches_match(engine, trees, cyclic) {
            tally.inconsistencies += 1;
        }
        let elapsed = start.elapsed();
        if elapsed.as_secs_f64() >= seconds {
            let metrics = s.metrics();
            if elapsed >= MAX_LOOP || metrics.iter().all(|m| m.value.is_finite()) {
                break metrics;
            }
        }
    };
    let label = |g: usize| w.group_label(g);
    let mut notes = group_lines("reduce", &s.reduce, label);
    notes.extend(group_lines("answer", &s.answer, label));
    notes.extend(group_lines("cold  ", &s.cold, |g| w.cold_label(g)));
    (metrics, notes)
}
