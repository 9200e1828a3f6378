//! The three seeded workloads: schemas, states, call sequences, and the
//! reference outputs every engine call is checked against.
//!
//! The references come from other code paths than the engine under test:
//! the per-call Yannakakis engine for tree schemas, per-call
//! treeification for cyclic ones, and on the small `adhoc_churn` rings
//! also the definitional [`NaiveEngine`]. The naive engine joins in schema
//! order, so it is kept off the large schemas, where that join explodes.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use gyo_core::query::{
    reduce_via_treeification, solve_via_treeification, Engine, EngineError, IncrementalEngine,
    NaiveEngine, TreeifyEngine,
};
use gyo_core::reduce::{aring, gyo_reduce};
use gyo_core::relation::{DbState, Relation};
use gyo_core::schema::{AttrId, AttrSet, DbSchema};
use gyo_workloads::{
    aring_n, chain, family_state, grid, random_tree_schema, star, tpch_like, tpch_like_cyclic,
    wide_chain,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The named workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Tree schemas with pre-built states: every plan lookup hits.
    TreeWarm,
    /// Cyclic schemas with pre-built states: the treeified path.
    CyclicWarm,
    /// Small fresh schemas and states: plan compiles, state builds.
    AdhocChurn,
}

impl Kind {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Kind; 3] = [Kind::TreeWarm, Kind::CyclicWarm, Kind::AdhocChurn];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::TreeWarm => "tree_warm",
            Kind::CyclicWarm => "cyclic_warm",
            Kind::AdhocChurn => "adhoc_churn",
        }
    }

    /// The workload called `name`, if any.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// Value domain of the warm workloads' states.
const WARM_DOMAIN: u64 = 1 << 14;
/// Value domain of the `adhoc_churn` states.
const ADHOC_DOMAIN: u64 = 1 << 10;
/// Targets `X` per warm schema; each is answered as often as the schema is
/// reduced.
const TARGETS_PER_SCHEMA: usize = 2;
/// `tree_warm` draws its random tree from this fixed seed, so the
/// workload's shape, and with it each call's cost, is the same for every
/// run seed; the run seed varies the data.
const TREE_SHAPE_SEED: u64 = 0x7EE5;
/// Distinct schemas per `adhoc_churn` epoch. Each is called twice per
/// epoch, so half the calls meet a schema for the first time.
pub const ADHOC_SCHEMAS: usize = 128;

/// One schema with its state, targets and reference outputs.
pub struct Case {
    /// Family and size, e.g. `chain128`.
    pub label: String,
    pub schema: DbSchema,
    /// Whether GYO gets stuck, i.e. the engine takes the treeified path.
    pub cyclic: bool,
    pub targets: Vec<AttrSet>,
    /// The state warm calls use (on `adhoc_churn`, the state its calls
    /// build, kept for the references).
    pub state: DbState,
    /// `adhoc_churn` only: each relation's row count and row-major buffer,
    /// rows shuffled, as a client hands them over.
    raw: Vec<(usize, Vec<u64>)>,
    pub want_reduce: DbState,
    pub want_answers: Vec<Relation>,
}

impl Case {
    /// Computes the reference outputs; returns the case and how many of
    /// the naive cross-checks (when asked for) disagreed.
    fn new(
        label: String,
        schema: DbSchema,
        state: DbState,
        raw: Vec<(usize, Vec<u64>)>,
        targets: Vec<AttrSet>,
        naive_check: bool,
    ) -> (Self, u64) {
        let cyclic = !gyo_reduce(&schema, &AttrSet::empty()).is_total();
        let (want_reduce, want_answers): (DbState, Vec<Relation>) = if cyclic {
            (
                reduce_via_treeification(&schema, &state),
                targets
                    .iter()
                    .map(|x| solve_via_treeification(&schema, &state, x))
                    .collect(),
            )
        } else {
            let tree = "GYO reduced the schema totally, so it is a tree schema";
            (
                IncrementalEngine.reduce(&schema, &state).expect(tree),
                targets
                    .iter()
                    .map(|x| IncrementalEngine.answer(&schema, &state, x).expect(tree))
                    .collect(),
            )
        };
        let mut disagreements = 0;
        if naive_check {
            let naive = NaiveEngine.reduce(&schema, &state).expect("naive is total");
            disagreements += u64::from(naive != want_reduce);
            for (x, want) in targets.iter().zip(&want_answers) {
                let naive = NaiveEngine
                    .answer(&schema, &state, x)
                    .expect("naive is total");
                disagreements += u64::from(&naive != want);
            }
        }
        let case = Self {
            label,
            schema,
            cyclic,
            targets,
            state,
            raw,
            want_reduce,
            want_answers,
        };
        (case, disagreements)
    }

    /// The state an `adhoc_churn` call builds from the client's buffers.
    pub fn build_state(&self) -> DbState {
        let rels = self
            .schema
            .iter()
            .zip(&self.raw)
            .map(|(attrs, (rows, data))| {
                Relation::from_row_major(attrs.clone(), *rows, data.clone())
            })
            .collect();
        DbState::new(&self.schema, rels)
    }
}

/// What a call asks the engine for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Reduce,
    /// Answer the case's target with this index.
    Answer(usize),
}

/// One engine call of the workload's sequence.
#[derive(Clone, Copy, Debug)]
pub struct Call {
    pub case: usize,
    pub op: Op,
}

/// An engine call's output.
#[derive(Debug, PartialEq, Eq)]
pub enum Output {
    Reduced(DbState),
    Answered(Relation),
}

/// A workload: its cases and one round of calls.
pub struct Workload {
    pub kind: Kind,
    pub cases: Vec<Case>,
    /// One round (warm workloads) or one epoch (`adhoc_churn`) of calls,
    /// in seeded order.
    pub calls: Vec<Call>,
    /// Reference paths that disagreed with each other in setup.
    pub reference_disagreements: u64,
}

impl Workload {
    /// Generates the workload from `seed`; equal seeds give equal inputs.
    pub fn build(kind: Kind, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        match kind {
            Kind::TreeWarm => {
                let mut shape = StdRng::seed_from_u64(TREE_SHAPE_SEED);
                let specs = vec![
                    ("chain128", chain(128), 256, 32),
                    ("wide_chain32", wide_chain(32, 6, 3), 256, 32),
                    ("tpch", tpch_like(), 2048, 256),
                    (
                        "random_tree64",
                        random_tree_schema(&mut shape, 64, 128, 0.4),
                        256,
                        32,
                    ),
                    ("star64", star(64), 256, 32),
                ];
                warm(kind, specs, &mut rng)
            }
            Kind::CyclicWarm => {
                let specs = vec![
                    ("ring128", aring_n(128), 64, 16),
                    ("ring32", aring_n(32), 64, 16),
                    ("grid6x6", grid(6, 6), 64, 16),
                    ("tpch_cyclic", tpch_like_cyclic(), 2048, 256),
                ];
                warm(kind, specs, &mut rng)
            }
            Kind::AdhocChurn => adhoc(&mut rng),
        }
    }

    /// Whether each call builds its state itself.
    pub fn builds_state(&self) -> bool {
        self.kind == Kind::AdhocChurn
    }

    /// The group a call's latency is summarised in. On the warm workloads
    /// each schema's reduce, and each of its targets, is a group of its
    /// own, so no group mixes calls of different cost. On `adhoc_churn`,
    /// whose schemas are each called only twice per epoch, the group is
    /// the schema family: tree or ring.
    pub fn group(&self, call: Call) -> usize {
        if self.builds_state() {
            return usize::from(self.cases[call.case].cyclic);
        }
        let slot = match call.op {
            Op::Reduce => 0,
            Op::Answer(t) => 1 + t,
        };
        call.case * (TARGETS_PER_SCHEMA + 1) + slot
    }

    /// The group of a first-sight call: its [`group`](Self::group), split
    /// by call kind on `adhoc_churn`.
    pub fn cold_group(&self, call: Call) -> usize {
        if self.builds_state() {
            2 * self.group(call) + usize::from(call.op != Op::Reduce)
        } else {
            self.group(call)
        }
    }

    /// The name of a [`group`](Self::group).
    pub fn group_label(&self, group: usize) -> String {
        if self.builds_state() {
            return ["tree", "ring"][group].to_string();
        }
        let label = &self.cases[group / (TARGETS_PER_SCHEMA + 1)].label;
        match group % (TARGETS_PER_SCHEMA + 1) {
            0 => label.clone(),
            slot => format!("{label} x{}", slot - 1),
        }
    }

    /// The name of a [`cold_group`](Self::cold_group).
    pub fn cold_label(&self, group: usize) -> String {
        if self.builds_state() {
            let op = ["reduce", "answer"][group % 2];
            format!("{} {op}", self.group_label(group / 2))
        } else {
            self.group_label(group)
        }
    }

    /// Number of tree and of cyclic cases.
    pub fn kind_counts(&self) -> (usize, usize) {
        let cyclic = self.cases.iter().filter(|c| c.cyclic).count();
        (self.cases.len() - cyclic, cyclic)
    }

    /// Makes one call as a client does, timed: on `adhoc_churn` the call
    /// first builds its state from the raw buffers. The built state is
    /// handed back so that it is dropped outside the timed window.
    pub fn timed_call(
        &self,
        engine: &TreeifyEngine,
        call: Call,
    ) -> (Result<Output, EngineError>, Duration, Option<DbState>) {
        let case = &self.cases[call.case];
        let start = Instant::now();
        let built = self.builds_state().then(|| case.build_state());
        let state = built.as_ref().unwrap_or(&case.state);
        let out = match call.op {
            Op::Reduce => engine.reduce(&case.schema, state).map(Output::Reduced),
            Op::Answer(t) => engine
                .answer(&case.schema, state, &case.targets[t])
                .map(Output::Answered),
        };
        (out, start.elapsed(), built)
    }

    /// Whether `out` is the reference output of `call`.
    pub fn is_correct(&self, call: Call, out: &Output) -> bool {
        let case = &self.cases[call.case];
        match (call.op, out) {
            (Op::Reduce, Output::Reduced(s)) => s == &case.want_reduce,
            (Op::Answer(t), Output::Answered(r)) => r == &case.want_answers[t],
            _ => false,
        }
    }
}

/// Counts of checked calls and of failed consistency checks.
#[derive(Debug, Default)]
pub struct Tally {
    /// Engine calls made and checked.
    pub attempted: u64,
    /// Calls that returned `Err`.
    pub errors: u64,
    /// Calls whose output differs from the reference.
    pub wrong: u64,
    /// Other failed checks: reference paths that disagree, plan-cache
    /// counts that contradict the benchmark's bookkeeping, replica outputs
    /// that differ from the engine's.
    pub inconsistencies: u64,
}

impl Tally {
    /// Records one call's outcome.
    pub fn check(&mut self, w: &Workload, call: Call, out: &Result<Output, EngineError>) {
        self.attempted += 1;
        match out {
            Ok(out) => self.wrong += u64::from(!w.is_correct(call, out)),
            Err(_) => self.errors += 1,
        }
    }

    /// Calls that failed: errors plus wrong outputs.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong
    }

    /// Whether every call and every consistency check passed.
    pub fn all_correct(&self) -> bool {
        self.failed() == 0 && self.inconsistencies == 0
    }
}

/// Whether the engine's plan caches hold exactly what the benchmark's own
/// bookkeeping says it has shown the engine since the last clear: one
/// plan per tree schema; per cyclic schema, the cached cyclic verdict and
/// the extended schema's plan in the inner cache plus one treeified plan.
pub fn caches_match(engine: &TreeifyEngine, trees: usize, cyclic: usize) -> bool {
    engine.inner().cached_plan_count() == trees + 2 * cyclic
        && engine.cached_treeified_count() == cyclic
}

fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// `count` two-attribute targets inside the schema's largest connected
/// component: across components the answer is a cross product, whose size
/// says nothing about the engine. When the component has attributes
/// outside the treeifying relation `W` (as `tpch_cyclic` has), each target
/// takes one attribute from outside `W` and one from inside, so the answer
/// joins up the extended tree. Otherwise its two attributes lie half the
/// attribute order apart, which on the chains and rings is half the schema
/// apart. The targets are spread evenly and do not depend on the seed: the
/// queries are fixed, the data varies.
fn targets(schema: &DbSchema, count: usize) -> Vec<AttrSet> {
    let component = schema
        .connected_components()
        .into_iter()
        .max_by_key(Vec::len)
        .expect("the workload schemas are nonempty");
    let u = component
        .iter()
        .fold(AttrSet::empty(), |acc, &i| acc.union(schema.rel(i)));
    let w = gyo_reduce(schema, &AttrSet::empty()).result.attributes();
    let outside = u.difference(&w);
    let nth = |s: &AttrSet, t: usize| s.as_slice()[t * s.len() / count];
    (0..count)
        .map(|t| {
            if !w.is_empty() && !outside.is_empty() {
                AttrSet::from_iter([nth(&outside, t), nth(&w, t)])
            } else {
                let half = u.len() / 2;
                let i = t * half / count;
                AttrSet::from_iter([u.as_slice()[i], u.as_slice()[i + half]])
            }
        })
        .collect()
}

fn warm(kind: Kind, specs: Vec<(&str, DbSchema, usize, usize)>, rng: &mut StdRng) -> Workload {
    let cases: Vec<Case> = specs
        .into_iter()
        .map(|(label, schema, rows, noise)| {
            let state = family_state(rng, &schema, rows, WARM_DOMAIN, noise);
            let targets = targets(&schema, TARGETS_PER_SCHEMA);
            Case::new(label.into(), schema, state, Vec::new(), targets, false).0
        })
        .collect();
    let mut calls = Vec::new();
    for (case, c) in cases.iter().enumerate() {
        for t in 0..c.targets.len() {
            calls.push(Call {
                case,
                op: Op::Reduce,
            });
            calls.push(Call {
                case,
                op: Op::Answer(t),
            });
        }
    }
    shuffle(rng, &mut calls);
    Workload {
        kind,
        cases,
        calls,
        reference_disagreements: 0,
    }
}

fn adhoc(rng: &mut StdRng) -> Workload {
    // A quarter of the schemas are rings, their sizes spread evenly over
    // 8..=48, and within each family every other schema is first met by a
    // reduce, the rest by an answer: so each seed's pool, and each mix of
    // first and repeat calls, costs about the same. The order of the pool
    // and of the calls, the trees, and each ring's attribute window are
    // drawn from the seed.
    let rings = ADHOC_SCHEMAS / 4;
    let mut kinds: Vec<(Option<u32>, bool)> = (0..ADHOC_SCHEMAS)
        .map(|i| match i.checked_sub(rings) {
            None => (Some(8 + (40 * i / (rings - 1)) as u32), i % 2 == 0),
            Some(t) => (None, t % 2 == 0),
        })
        .collect();
    shuffle(rng, &mut kinds);
    let mut seen = HashSet::new();
    let mut cases = Vec::with_capacity(ADHOC_SCHEMAS);
    let mut reference_disagreements = 0;
    while cases.len() < ADHOC_SCHEMAS {
        // A ring on a random attribute window, so that rings of one size
        // are still distinct schemas.
        let (label, schema) = match kinds[cases.len()].0 {
            Some(n) => {
                let offset = rng.random_range(0..4096u32);
                let attrs: Vec<AttrId> = (offset..offset + n).map(AttrId).collect();
                (format!("ring{n}"), aring(&attrs))
            }
            None => (
                "random_tree48".to_string(),
                random_tree_schema(rng, 48, 96, 0.4),
            ),
        };
        if !seen.insert(schema.rels().to_vec()) {
            continue;
        }
        let state = family_state(rng, &schema, 32, ADHOC_DOMAIN, 8);
        let raw = state
            .rels()
            .iter()
            .map(|r| {
                let mut order: Vec<usize> = (0..r.len()).collect();
                shuffle(rng, &mut order);
                (
                    r.len(),
                    order.iter().flat_map(|&i| r.row(i)).copied().collect(),
                )
            })
            .collect();
        let targets = targets(&schema, 1);
        let naive_check = label.starts_with("ring");
        let (case, disagreements) = Case::new(label, schema, state, raw, targets, naive_check);
        reference_disagreements += disagreements;
        cases.push(case);
    }
    let mut order: Vec<usize> = (0..2 * cases.len()).map(|i| i / 2).collect();
    shuffle(rng, &mut order);
    let mut met = vec![false; cases.len()];
    let calls = order
        .into_iter()
        .map(|case| {
            let first = !std::mem::replace(&mut met[case], true);
            let op = if first == kinds[case].1 {
                Op::Reduce
            } else {
                Op::Answer(0)
            };
            Call { case, op }
        })
        .collect();
    Workload {
        kind: Kind::AdhocChurn,
        cases,
        calls,
        reference_disagreements,
    }
}
