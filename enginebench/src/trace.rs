//! The traced run: per-layer numbers taken from outside the library.
//!
//! Each engine call is made untraced, as in the timed run, and then made
//! again as a **replica**: the same phases the engine runs, called through
//! each layer's public functions on the same inputs, each phase timed on
//! its own. The replica's output must equal the engine's, and the sum of
//! its phase medians must explain the engine's own median (the coverage).
//!
//! The phases of a call, in order:
//!
//! | phase | replica |
//! |---|---|
//! | build (`adhoc_churn`) | `Relation::from_row_major` + `DbState::new` |
//! | plan | `FullReducerEngine::plan`, or `TreeifyEngine::treeified_plan` for a cyclic schema |
//! | core join (cyclic) | `state(W)` from `TreeifyPlan::join_order` and `w` with `natural_join` / `project` |
//! | stage | the state's relations copied into the program's slots |
//! | program | `semijoin_program_with` over the plan's steps, final gather included |
//! | finish (`reduce`) | `DbState::new` on the reduced slots |
//! | join-up (`answer`) | the join up the rooted tree with early projection, or `π_X` of the reduced `W` |

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use gyo_core::query::{EngineError, FullReducerPlan, TreeifyEngine, TreeifyPlan};
use gyo_core::reduce::gyo_reduce;
use gyo_core::relation::{semijoin_program_with, DbState, ExecScratch, Relation};
use gyo_core::schema::{AttrSet, DbSchema, RootedTree};

use crate::alloc::count_allocs;
use crate::report::Metric;
use crate::stats::{by_group, coverage, geomean, group_median, median};
use crate::workload::{caches_match, Call, Op, Output, Tally, Workload};

fn ns_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e9
}

/// A plan as the engine looks it up.
enum Plan {
    Tree(Arc<FullReducerPlan>),
    Cyclic(Arc<TreeifyPlan>),
}

impl Plan {
    /// The full-reducer plan the semijoin program runs: the schema's own,
    /// or that of the extended schema `D ∪ (W)`.
    fn tree(&self) -> &FullReducerPlan {
        match self {
            Plan::Tree(p) => p,
            Plan::Cyclic(p) => p.tree_plan(),
        }
    }
}

/// The survivors in core-join order, each with its projection onto
/// `Rᵢ ∩ W` when `Rᵢ ⊄ W`, as a treeified plan holds them.
type JoinOrder = Vec<(usize, Option<AttrSet>)>;

/// Phase times of one replica call, in nanoseconds, and what it saw.
#[derive(Default)]
struct Spans {
    build: f64,
    plan: f64,
    core_join: f64,
    stage: f64,
    /// The program over the call's own state: on `adhoc_churn` it also
    /// extracts the freshly built relations' key columns.
    program_first: f64,
    /// The program again over a copy sharing the now-filled key-column
    /// caches (equal to `program_first` on the warm workloads, whose
    /// states are warm already).
    program_warm: f64,
    key_extract: f64,
    /// `finish` for a reduce, the join-up for an answer.
    last: f64,
    /// From the first phase's start to the last phase's end.
    wall: f64,
    core_peak_rows: usize,
    w_rows: usize,
    w_arity: usize,
    rows_in: usize,
    rows_out: usize,
}

/// The replica's own engine (so that its plan lookups see the same
/// first sightings as the engine under test) and its own warm scratch.
struct Replica {
    engine: TreeifyEngine,
    scratch: ExecScratch,
    /// Per cyclic case, the cyclic verdict since the last clear.
    verdicts: Vec<Option<EngineError>>,
    /// Per cyclic case, its join order.
    orders: Vec<Option<JoinOrder>>,
}

impl Replica {
    fn new(cases: usize) -> Self {
        Self {
            engine: TreeifyEngine::new(),
            scratch: ExecScratch::new(),
            verdicts: vec![None; cases],
            orders: vec![None; cases],
        }
    }

    fn clear(&mut self) {
        self.engine.clear_cache();
        self.verdicts.fill(None);
    }

    /// Looks the plan up as the engine does, compiling at first sight;
    /// returns the plan and the lookup's time.
    fn plan(&mut self, w: &Workload, c: usize) -> (Plan, f64) {
        let d = &w.cases[c].schema;
        let start = Instant::now();
        let (plan, verdict) = if !w.cases[c].cyclic {
            let plan = self
                .engine
                .inner()
                .plan(d)
                .expect("a tree schema has a plan");
            (Plan::Tree(plan), None)
        } else if let Some(err) = &self.verdicts[c] {
            (Plan::Cyclic(self.engine.treeified_plan(d, err)), None)
        } else {
            let err = self
                .engine
                .inner()
                .plan(d)
                .expect_err("a cyclic schema has no tree plan");
            let plan = self.engine.treeified_plan(d, &err);
            (Plan::Cyclic(plan), Some(err))
        };
        let elapsed = ns_since(start);
        if verdict.is_some() {
            self.verdicts[c] = verdict;
        }
        if let (Plan::Cyclic(p), None) = (&plan, &self.orders[c]) {
            let order = p
                .join_order()
                .into_iter()
                .map(|i| {
                    let core = d.rel(i).intersect(p.w());
                    let proj = (&core != d.rel(i)).then_some(core);
                    (i, proj)
                })
                .collect();
            self.orders[c] = Some(order);
        }
        (plan, elapsed)
    }

    /// The state a call works on, and the relation slots its program runs
    /// over (`state(W)` appended on the cyclic path).
    fn stage(state: &DbState, w_state: &Option<Relation>) -> Vec<Relation> {
        let mut rels = state.rels().to_vec();
        rels.extend(w_state.iter().cloned());
        rels
    }

    /// Replays `call` phase by phase. The output is `None` when the
    /// program's second run on `adhoc_churn` disagrees with its first.
    fn call(&mut self, w: &Workload, call: Call) -> (Option<Output>, Spans) {
        let case = &w.cases[call.case];
        let d = &case.schema;
        let mut sp = Spans::default();
        let begin = Instant::now();

        // Every phase is timed, also where it has nothing to do (no build on
        // a warm workload, no core join on a tree schema): its span is then
        // the few nanoseconds of deciding so.
        let start = Instant::now();
        let built = w.builds_state().then(|| case.build_state());
        sp.build = ns_since(start);
        let state = built.as_ref().unwrap_or(&case.state);

        let (plan, plan_ns) = self.plan(w, call.case);
        sp.plan = plan_ns;

        let start = Instant::now();
        let w_state = match &plan {
            Plan::Cyclic(p) => {
                let order = self.orders[call.case].as_ref().expect("set by plan");
                let (w_state, peak) = core_join(state, order, p.w());
                sp.core_peak_rows = peak;
                sp.w_rows = w_state.len();
                sp.w_arity = p.w().len();
                Some(w_state)
            }
            Plan::Tree(_) => None,
        };
        sp.core_join = ns_since(start);

        let start = Instant::now();
        let mut rels = Self::stage(state, &w_state);
        sp.stage = ns_since(start);
        sp.rows_in = rels.iter().map(Relation::len).sum();

        let steps = plan.tree().steps();
        let start = Instant::now();
        semijoin_program_with(&mut rels, steps, &mut self.scratch);
        sp.program_first = ns_since(start);
        sp.rows_out = rels.iter().map(Relation::len).sum();
        // On `adhoc_churn` the program runs again over a copy sharing the
        // key-column caches the first run filled; the difference is the
        // key extraction. A warm workload's state is warm already, and the
        // skipped extraction is timed as the empty span it is.
        let mut consistent = true;
        let start = Instant::now();
        let again = w.builds_state().then(|| {
            let mut again = Self::stage(state, &w_state);
            let start = Instant::now();
            semijoin_program_with(&mut again, steps, &mut self.scratch);
            (again, ns_since(start))
        });
        let skipped = ns_since(start);
        match again {
            Some((again, warm)) => {
                sp.program_warm = warm;
                sp.key_extract = (sp.program_first - warm).max(0.0);
                consistent = again == rels;
            }
            None => {
                sp.program_warm = sp.program_first;
                sp.key_extract = skipped;
            }
        }

        let start = Instant::now();
        let out = match call.op {
            Op::Reduce => {
                rels.truncate(d.len());
                Output::Reduced(DbState::new(d, rels))
            }
            Op::Answer(t) => {
                let x = &case.targets[t];
                Output::Answered(match &plan {
                    Plan::Tree(p) => join_up(d, &DbState::new(d, rels), x, p.rooted()),
                    Plan::Cyclic(p) if x.is_subset(p.w()) => {
                        rels.last().expect("the W slot").project(x)
                    }
                    Plan::Cyclic(p) => {
                        let ext = p.extended();
                        join_up(ext, &DbState::new(ext, rels), x, p.tree_plan().rooted())
                    }
                })
            }
        };
        sp.last = ns_since(start);
        sp.wall = ns_since(begin);
        (consistent.then_some(out), sp)
    }

    /// Heap allocations of one warm program call over the case's state
    /// (final gather included), and of one over its already reduced
    /// output, where no row is dropped and nothing is gathered.
    fn count_program_allocs(&mut self, w: &Workload, c: usize) -> (u64, u64) {
        let case = &w.cases[c];
        let (plan, _) = self.plan(w, c);
        let state = if w.builds_state() {
            case.build_state()
        } else {
            case.state.clone()
        };
        let w_state = match &plan {
            Plan::Cyclic(p) => {
                let order = self.orders[c].as_ref().expect("set by plan");
                Some(core_join(&state, order, p.w()).0)
            }
            Plan::Tree(_) => None,
        };
        let steps = plan.tree().steps();
        // Warm the key-column caches and the scratch first.
        semijoin_program_with(&mut Self::stage(&state, &w_state), steps, &mut self.scratch);
        let mut rels = Self::stage(&state, &w_state);
        let ((), warm) =
            count_allocs(|| semijoin_program_with(&mut rels, steps, &mut self.scratch));
        semijoin_program_with(&mut rels.clone(), steps, &mut self.scratch);
        let ((), steps_only) =
            count_allocs(|| semijoin_program_with(&mut rels, steps, &mut self.scratch));
        (warm, steps_only)
    }
}

/// `state(W)` as the engine materializes it: the survivors joined in the
/// plan's order, each pre-projected onto `Rᵢ ∩ W`, stopping at the first
/// empty intermediate. Returns it with the largest intermediate's row
/// count.
fn core_join(state: &DbState, order: &JoinOrder, w: &AttrSet) -> (Relation, usize) {
    let mut acc = Relation::identity();
    let mut peak = 0;
    for (i, proj) in order {
        acc = match proj {
            Some(core) => acc.natural_join(&state.rel(*i).project(core)),
            None => acc.natural_join(state.rel(*i)),
        };
        peak = peak.max(acc.len());
        if acc.is_empty() {
            return (Relation::empty(w.clone()), peak);
        }
    }
    (acc, peak)
}

/// The join phase of a tree answer, as the engine runs it: join a fully
/// reduced state up the rooted tree, projecting each subtree's running
/// join onto the target attributes it holds plus those it shares with its
/// parent, then project onto `x`.
fn join_up(d: &DbSchema, reduced: &DbState, x: &AttrSet, rooted: &RootedTree) -> Relation {
    let n = d.len();
    let mut subtree_x: Vec<AttrSet> = (0..n).map(|v| d.rel(v).intersect(x)).collect();
    for &v in &rooted.post_order {
        if v != rooted.root {
            let parent = rooted.parent[v];
            subtree_x[parent] = subtree_x[parent].union(&subtree_x[v]);
        }
    }
    let mut acc: Vec<Option<Relation>> = reduced.rels().iter().cloned().map(Some).collect();
    for &v in &rooted.post_order {
        if v == rooted.root {
            continue;
        }
        let parent = rooted.parent[v];
        let keep = subtree_x[v].union(&d.rel(v).intersect(d.rel(parent)));
        let mine = acc[v].take().expect("each node joins its parent once");
        let pruned = mine.project(&keep.intersect(mine.attrs()));
        let parent_acc = acc[parent].take().expect("the parent is still open");
        acc[parent] = Some(parent_acc.natural_join(&pruned));
    }
    let root = acc[rooted.root]
        .take()
        .expect("the root holds the whole join");
    if root.is_empty() {
        Relation::empty(x.clone())
    } else {
        root.project(x)
    }
}

/// Samples and per-call counts collected over the traced loop.
#[derive(Default)]
struct Collected {
    series: BTreeMap<&'static str, Vec<(usize, f64)>>,
    sums: BTreeMap<&'static str, (f64, u64)>,
    /// Per op (reduce, answer): the engine's untraced times and the
    /// replica's phases `[build, plan, core_join, stage, program, last,
    /// wall]`, warm-plan calls only.
    engine: [Vec<(usize, f64)>; 2],
    phases: [Vec<(usize, [f64; 7])>; 2],
    engine_calls: u64,
    first_sightings: u64,
    mismatches: u64,
}

impl Collected {
    fn push(&mut self, name: &'static str, group: usize, value: f64) {
        self.series.entry(name).or_default().push((group, value));
    }

    fn add(&mut self, name: &'static str, value: f64) {
        let e = self.sums.entry(name).or_default();
        e.0 += value;
        e.1 += 1;
    }

    fn median_of(&self, name: &str) -> (f64, usize) {
        self.series
            .get(name)
            .map_or((0.0, 0), |s| (group_median(s), s.len()))
    }

    fn mean_of(&self, name: &str) -> (f64, usize) {
        self.sums
            .get(name)
            .map_or((0.0, 0), |&(sum, n)| (sum / n as f64, n as usize))
    }

    fn sum_of(&self, name: &str) -> f64 {
        self.sums.get(name).map_or(0.0, |&(sum, _)| sum)
    }

    /// Makes `call` untraced through `engine`; records and checks it.
    fn engine_call(
        &mut self,
        w: &Workload,
        engine: &TreeifyEngine,
        call: Call,
        first: bool,
        tally: &mut Tally,
    ) -> Result<Output, EngineError> {
        let g = w.group(call);
        let op = usize::from(call.op != Op::Reduce);
        let (out, elapsed, built) = w.timed_call(engine, call);
        let engine_ns = elapsed.as_secs_f64() * 1e9;
        drop(built);
        tally.check(w, call, &out);
        self.engine_calls += 1;
        if first {
            self.first_sightings += 1;
            self.push("engine.cold_call_ns", w.cold_group(call), engine_ns);
            let start = Instant::now();
            black_box(gyo_reduce(
                black_box(&w.cases[call.case].schema),
                &AttrSet::empty(),
            ));
            self.push("gyo.reduce_ns", g, ns_since(start));
        } else {
            self.engine[op].push((g, engine_ns));
        }
        out
    }

    /// Makes `call` as a replica, records its phases, and compares its
    /// output with the engine's.
    fn replica_call(
        &mut self,
        w: &Workload,
        replica: &mut Replica,
        call: Call,
        first: bool,
        engine_out: &Result<Output, EngineError>,
        tally: &mut Tally,
    ) {
        let g = w.group(call);
        let op = usize::from(call.op != Op::Reduce);
        let (replica_out, sp) = replica.call(w, call);
        if replica_out.is_none() || engine_out.as_ref().ok() != replica_out.as_ref() {
            self.mismatches += 1;
            tally.inconsistencies += 1;
        }
        if first {
            self.push("engine.plan_compile_ns", g, sp.plan);
        } else {
            self.push("engine.plan_hit_ns", g, sp.plan);
            self.phases[op].push((
                g,
                [
                    sp.build,
                    sp.plan,
                    sp.core_join,
                    sp.stage,
                    sp.program_first,
                    sp.last,
                    sp.wall,
                ],
            ));
        }
        self.push("relation.build_ns", g, sp.build);
        self.push("relation.key_extract_ns", g, sp.key_extract);
        if w.builds_state() {
            let rows: usize = w.cases[call.case]
                .state
                .rels()
                .iter()
                .map(Relation::len)
                .sum();
            self.add("relation.rows_built", rows as f64);
        }
        // On a workload with cyclic schemas, the core join's time is that
        // of its cyclic calls; on one without, the empty span.
        if w.cases[call.case].cyclic || w.kind_counts().1 == 0 {
            self.push("treeify.core_join_ns", g, sp.core_join);
        }
        if w.cases[call.case].cyclic {
            self.add("treeify.core_join_peak_rows", sp.core_peak_rows as f64);
            self.add("treeify.w_rows", sp.w_rows as f64);
            self.add("treeify.w_arity", sp.w_arity as f64);
        }
        self.push("exec.stage_ns", g, sp.stage);
        self.push("exec.program_ns", g, sp.program_warm);
        self.add("exec.rows_in", sp.rows_in as f64);
        self.add("exec.rows_out", sp.rows_out as f64);
        if op == 1 {
            self.push("joinup.ns", g, sp.last);
            if let Some(Output::Answered(r)) = &replica_out {
                self.add("joinup.rows_out", r.len() as f64);
            }
        }
    }
}

/// Per group of warm-plan calls: the replica's phase medians over the
/// engine's median (the coverage), and the replica's wall time over the
/// engine's (the tracing overhead); each the geometric mean over groups.
fn coverage_and_overhead(engine: &[(usize, f64)], phases: &[(usize, [f64; 7])]) -> (f64, f64) {
    let engine = by_group(engine);
    let mut per_group: BTreeMap<usize, Vec<[f64; 7]>> = BTreeMap::new();
    for &(g, p) in phases {
        per_group.entry(g).or_default().push(p);
    }
    let (mut covs, mut overheads) = (Vec::new(), Vec::new());
    for (g, rows) in &per_group {
        let Some(eng) = engine.get(g) else { continue };
        let col = |k: usize| median(&rows.iter().map(|r| r[k]).collect::<Vec<_>>());
        let whole = median(eng);
        covs.push(coverage(&(0..6).map(col).collect::<Vec<_>>(), whole));
        overheads.push(col(6) / whole);
    }
    (geomean(&covs), geomean(&overheads))
}

/// Runs the traced loop for `seconds` and returns the per-layer metrics.
pub fn run(w: &Workload, engine: &TreeifyEngine, seconds: f64, tally: &mut Tally) -> Vec<Metric> {
    let (trees, cyclic) = w.kind_counts();
    let mut replica = Replica::new(w.cases.len());
    let mut c = Collected::default();

    // Allocation counts are exact, so each case is counted once.
    for case in 0..w.cases.len() {
        let (warm, steps_only) = replica.count_program_allocs(w, case);
        c.add("exec.allocs_per_call", warm as f64);
        c.add("exec.step_allocs_per_call", steps_only as f64);
        let (plan, _) = replica.plan(w, case);
        let steps = plan.tree().steps();
        c.add("exec.steps", steps.len() as f64);
        for (name, width) in [("exec.steps_key_w1", 1), ("exec.steps_key_w2", 2)] {
            c.add(
                name,
                steps.iter().filter(|s| s.key().len() == width).count() as f64,
            );
        }
        c.add(
            "exec.steps_key_wide",
            steps.iter().filter(|s| s.key().len() > 2).count() as f64,
        );
    }

    // One round (an epoch on `adhoc_churn`), each call with whether it
    // is the engine's first sight of its schema.
    let mut seen = vec![false; w.cases.len()];
    let round: Vec<(Call, bool)> = w
        .calls
        .iter()
        .map(|&call| {
            let first = !std::mem::replace(&mut seen[call.case], true);
            (call, first && w.builds_state())
        })
        .collect();
    let start = Instant::now();
    loop {
        if w.builds_state() {
            engine.clear_cache();
            replica.clear();
        }
        // The engine's pass over the round, then the replica's: in either
        // pass a call follows one on another schema, so neither side runs
        // on caches the other has just warmed with the same inputs.
        let outs: Vec<Result<Output, EngineError>> = round
            .iter()
            .map(|&(call, first)| c.engine_call(w, engine, call, first, tally))
            .collect();
        for (&(call, first), out) in round.iter().zip(&outs) {
            c.replica_call(w, &mut replica, call, first, out, tally);
        }
        drop(outs);
        if !w.builds_state() {
            // The cold pass of the timed run, plus the compile on the
            // replica's cleared engine and a bare GYO reduction.
            engine.clear_cache();
            replica.clear();
            for case in 0..w.cases.len() {
                let call = Call {
                    case,
                    op: Op::Reduce,
                };
                let (out, elapsed, _) = w.timed_call(engine, call);
                tally.check(w, call, &out);
                c.engine_calls += 1;
                c.first_sightings += 1;
                c.push(
                    "engine.cold_call_ns",
                    w.cold_group(call),
                    elapsed.as_secs_f64() * 1e9,
                );
                let start = Instant::now();
                black_box(gyo_reduce(
                    black_box(&w.cases[case].schema),
                    &AttrSet::empty(),
                ));
                c.push("gyo.reduce_ns", case, ns_since(start));
                let (_, compile) = replica.plan(w, case);
                c.push("engine.plan_compile_ns", case, compile);
            }
        }
        if !caches_match(engine, trees, cyclic) || !caches_match(&replica.engine, trees, cyclic) {
            tally.inconsistencies += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    let (reduce_ns, reduce_n) = (group_median(&c.engine[0]), c.engine[0].len());
    let (answer_ns, answer_n) = (group_median(&c.engine[1]), c.engine[1].len());
    let (cov_reduce, overhead_reduce) = coverage_and_overhead(&c.engine[0], &c.phases[0]);
    let (cov_answer, overhead_answer) = coverage_and_overhead(&c.engine[1], &c.phases[1]);
    let median = |name: &'static str, unit: &'static str| {
        let (v, n) = c.median_of(name);
        Metric::new(name, v, unit, n)
    };
    let mean = |name: &'static str, unit: &'static str| {
        let (v, n) = c.mean_of(name);
        Metric::new(name, v, unit, n)
    };
    let rows_in = c.sum_of("exec.rows_in");
    vec![
        Metric::new("engine.reduce_ns", reduce_ns, "ns", reduce_n),
        Metric::new("engine.answer_ns", answer_ns, "ns", answer_n),
        median("engine.cold_call_ns", "ns"),
        median("engine.plan_hit_ns", "ns"),
        median("engine.plan_compile_ns", "ns"),
        Metric::new(
            "engine.plan_hit_ratio",
            1.0 - c.first_sightings as f64 / c.engine_calls as f64,
            "ratio",
            c.engine_calls as usize,
        ),
        median("gyo.reduce_ns", "ns"),
        median("treeify.core_join_ns", "ns"),
        mean("treeify.core_join_peak_rows", "rows"),
        mean("treeify.w_rows", "rows"),
        mean("treeify.w_arity", "count"),
        median("exec.stage_ns", "ns"),
        median("exec.program_ns", "ns"),
        mean("exec.steps", "count"),
        mean("exec.rows_in", "rows"),
        mean("exec.rows_out", "rows"),
        Metric::new(
            "exec.survivor_ratio",
            if rows_in > 0.0 {
                c.sum_of("exec.rows_out") / rows_in
            } else {
                0.0
            },
            "ratio",
            0,
        ),
        mean("exec.steps_key_w1", "count"),
        mean("exec.steps_key_w2", "count"),
        mean("exec.steps_key_wide", "count"),
        mean("exec.allocs_per_call", "count"),
        mean("exec.step_allocs_per_call", "count"),
        median("relation.build_ns", "ns"),
        mean("relation.rows_built", "rows"),
        median("relation.key_extract_ns", "ns"),
        median("joinup.ns", "ns"),
        mean("joinup.rows_out", "rows"),
        Metric::new(
            "trace.coverage_reduce",
            cov_reduce,
            "ratio",
            c.phases[0].len(),
        ),
        Metric::new(
            "trace.coverage_answer",
            cov_answer,
            "ratio",
            c.phases[1].len(),
        ),
        Metric::new(
            "trace.overhead_ratio",
            geomean(&[overhead_reduce, overhead_answer]),
            "ratio",
            c.phases[0].len() + c.phases[1].len(),
        ),
        Metric::new(
            "trace.replica_mismatches",
            c.mismatches as f64,
            "count",
            c.engine_calls as usize,
        ),
    ]
}
