//! Query/reduction engines behind one trait, and the cached full-reducer
//! engine.
//!
//! The paper's payoff for tree schemas is that a full reducer — `2·(n−1)`
//! semijoins along a join tree — achieves global consistency, after which
//! `(D, X)` is answered by joining up the tree with early projection
//! (Bernstein–Chiu \[5\], Yannakakis \[18\]). This module promotes that
//! pipeline from test support to a first-class [`Engine`], alongside the
//! two reference paths it must agree with:
//!
//! * [`NaiveEngine`] — the definitional engine: materialize `⋈D`, project.
//!   Works on *every* schema; serves as the ground truth and as the foil
//!   the semijoin engines are measured against.
//! * [`IncrementalEngine`] — the per-call Yannakakis path: re-derives the
//!   join tree with the incremental GYO engine on every call, then runs the
//!   full reducer. Correct, tree-only, no reuse across calls.
//! * [`FullReducerEngine`] — the cached engine: compiles the join tree and
//!   the semijoin program **once per schema** into a [`FullReducerPlan`]
//!   (precompiled [`SemijoinStep`]s — shared attributes and column
//!   positions resolved ahead of time), keyed by the schema's exact
//!   relation-list identity, and reuses it across calls.
//!
//! An answer works only on the part of the rooted join tree that `X`
//! needs, its *read set* (about `CC(D, X)`, Theorem 3.3(ii)): the whole
//! upward pass, then the downward steps into the read nodes and the path
//! down to them only ([`semijoin_select`]), a gather of the read slots
//! alone ([`semijoin_gather`]), and a join of those slots — lossless, as
//! the join of a connected subtree of a join tree (Corollary 5.2). A
//! reduce runs the whole program ([`semijoin_program_with`]).
//!
//! A fourth engine lives in [`crate::treeify_engine`]:
//! [`TreeifyEngine`](crate::TreeifyEngine), which delegates tree schemas
//! to a [`FullReducerEngine`] and answers cyclic ones through a cached
//! treeification plan — making the trait **total**. Declines carry an
//! [`EngineError`] naming the stuck GYO residue, never a bare `None`.
//!
//! All four implement [`Engine`]; the repo-level differential suite
//! (`tests/engine_differential.rs`) holds them to identical answers on
//! every workload family.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, TryLockError};

use gyo_reduce::Reduction;
use gyo_relation::{
    semijoin_gather, semijoin_program_with, semijoin_select, DbState, ExecScratch, Relation,
    SemijoinStep,
};
use gyo_schema::{AttrSet, Catalog, DbSchema, FxHashMap, RootedTree};

use crate::yannakakis::{
    derive_rooted_tree, full_reduce, join_up_tree, read_set, reducer_order, solve_tree_query,
    ReadSet,
};

/// Why an engine (or any tree-only entry point of this crate) could not
/// serve a schema.
///
/// The only failure mode the paper's machinery admits is **cyclicity**: the
/// GYO reduction got stuck before collapsing the schema, so no join tree —
/// and hence no full reducer — exists (Corollary 3.1). Rather than a bare
/// decline, the error carries the evidence: the non-reducible residue
/// `GR(D)` (every relation of which still overlaps its neighbors in a way
/// neither GYO operation can break) and the original indices of the
/// surviving relations, so callers can show *which* cycle blocked the
/// semijoin engines — and so [`TreeifyEngine`](crate::TreeifyEngine) can
/// treeify exactly that residue without re-running the reduction.
///
/// ```
/// use gyo_schema::{AttrSet, Catalog, DbSchema};
/// use gyo_relation::DbState;
/// use gyo_query::{Engine, EngineError, FullReducerEngine};
///
/// let mut cat = Catalog::alphabetic();
/// // A 3-ring with a pendant: GYO strips the pendant, the ring remains.
/// let d = DbSchema::parse("ab, bc, ca, ax", &mut cat).unwrap();
/// let state = DbState::new(&d, d.iter().map(|r| {
///     gyo_relation::Relation::empty(r.clone())
/// }).collect());
/// let err = FullReducerEngine::new().reduce(&d, &state).unwrap_err();
/// assert_eq!(err.residue().to_notation(&cat), "(ab, bc, ac)");
/// assert_eq!(err.survivors(), &[0, 1, 2], "the pendant ax was reduced away");
/// assert!(err.to_string().contains("cyclic"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// The schema is cyclic: the GYO reduction stalled on a non-trivial
    /// residue, so tree-schema machinery (join trees, full reducers) does
    /// not apply.
    Cyclic {
        /// `GR(D, ∅)` — the stuck residue: the relation schemas (with
        /// already-deleted attributes removed) on which neither isolated-
        /// attribute deletion nor subset elimination applies. This is the
        /// offending cyclic core.
        residue: DbSchema,
        /// Original indices into `D` of the residue's relations (parallel
        /// to `residue.rels()`).
        survivors: Vec<usize>,
    },
}

impl EngineError {
    /// Builds the cyclic-schema error from a stuck reduction.
    ///
    /// # Panics
    ///
    /// Panics if `red` is total (a total reduction is not an error).
    pub fn cyclic(red: &Reduction) -> Self {
        assert!(!red.is_total(), "total GYO reductions are not errors");
        EngineError::Cyclic {
            residue: red.result.clone(),
            survivors: red.survivors.clone(),
        }
    }

    /// The stuck GYO residue `GR(D)` — the offending cycle.
    pub fn residue(&self) -> &DbSchema {
        match self {
            EngineError::Cyclic { residue, .. } => residue,
        }
    }

    /// Original relation indices of the residue's members.
    pub fn survivors(&self) -> &[usize] {
        match self {
            EngineError::Cyclic { survivors, .. } => survivors,
        }
    }

    /// Renders the diagnostic with attribute names resolved through `cat`,
    /// e.g. `schema is cyclic: GYO stuck on R0, R1, R2 with residue
    /// (ab, bc, ac)`.
    pub fn display_with(&self, cat: &Catalog) -> String {
        match self {
            EngineError::Cyclic { residue, survivors } => {
                let rs: Vec<String> = survivors.iter().map(|i| format!("R{i}")).collect();
                format!(
                    "schema is cyclic: GYO stuck on {} with residue {}",
                    rs.join(", "),
                    residue.to_notation(cat)
                )
            }
        }
    }
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Cyclic { residue, survivors } => {
                write!(
                    f,
                    "schema is cyclic: GYO reduction stuck on {} residue relation(s) \
                     (original indices {:?})",
                    residue.len(),
                    survivors
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A query/reduction engine: one strategy for making states globally
/// consistent and answering natural-join queries `(D, X)`.
///
/// An `Err` means the engine does not support the schema, and says why:
/// the semijoin engines are tree-only (full reducers do not exist for
/// cyclic schemas), so their error is always [`EngineError::Cyclic`] with
/// the stuck residue attached. [`NaiveEngine`] and
/// [`TreeifyEngine`](crate::TreeifyEngine) are **total** — they never
/// return `Err`.
pub trait Engine {
    /// A stable identifier for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Full reduction: returns a state with
    /// `result[i] = π_{Rᵢ}(⋈ state)` for every `i`, or the reason the
    /// engine cannot reduce `d`.
    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError>;

    /// Answers the query `(D, X)`: `π_X(⋈ state)`, or the reason the
    /// engine cannot solve on `d`.
    ///
    /// # Panics
    ///
    /// Panics if `x ⊄ U(D)`.
    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError>;
}

/// The definitional engine: materializes the full join. Supports every
/// schema — tree or cyclic — at monolithic-join cost.
#[derive(Clone, Copy, Debug, Default)]
pub struct NaiveEngine;

impl Engine for NaiveEngine {
    fn name(&self) -> &'static str {
        "naive"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        let total = state.join_all();
        Ok(DbState::new(
            d,
            d.iter()
                .map(|r| {
                    if total.is_empty() {
                        Relation::empty(r.clone())
                    } else {
                        total.project(r)
                    }
                })
                .collect(),
        ))
    }

    fn answer(&self, _d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        Ok(state.eval_join_query(x))
    }
}

/// The per-call Yannakakis engine: re-runs the incremental GYO reduction to
/// rebuild the join tree on every call, then full-reduces and answers along
/// it. Tree schemas only; nothing is cached between calls — this is the
/// baseline that quantifies what [`FullReducerEngine`]'s plan cache buys.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalEngine;

impl Engine for IncrementalEngine {
    fn name(&self) -> &'static str {
        "incremental"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        full_reduce(d, state)
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        solve_tree_query(d, state, x)
    }
}

/// A compiled full-reducer plan for one tree schema: the rooted join tree
/// plus the `2·(n−1)` precompiled semijoin steps.
#[derive(Clone, Debug)]
pub struct FullReducerPlan {
    rooted: RootedTree,
    steps: Vec<SemijoinStep>,
}

impl FullReducerPlan {
    /// Compiles the plan for `d`; [`EngineError::Cyclic`] (with the stuck
    /// residue attached) when `d` is cyclic.
    fn compile(d: &DbSchema) -> Result<Self, EngineError> {
        let rooted = derive_rooted_tree(d)?;
        let steps = reducer_order(&rooted)
            .map(|(target, source)| SemijoinStep::new(d.rels(), target, source))
            .collect();
        Ok(Self { rooted, steps })
    }

    /// The compiled semijoin steps, upward pass then downward pass. The
    /// §6 [`full_reducer_program`](crate::full_reducer_program) of the same
    /// schema has one semijoin statement per step, in the same order.
    pub fn steps(&self) -> &[SemijoinStep] {
        &self.steps
    }

    /// The rooted join tree the plan reduces along.
    ///
    /// For the **empty schema** the tree has no nodes: `parent` and
    /// `post_order` are empty and `root` is a placeholder `0` that must
    /// not be used as an index.
    pub fn rooted(&self) -> &RootedTree {
        &self.rooted
    }

    /// The steps an answer over `read` runs: the whole upward pass, then
    /// the downward steps into the nodes `read` marks — the read nodes and
    /// the path from the root to `top`. Afterwards every read node is
    /// globally consistent; the others are not needed.
    pub(crate) fn steps_toward<'a>(
        &'a self,
        read: &'a ReadSet,
    ) -> impl Iterator<Item = &'a SemijoinStep> {
        let (up, down) = self.steps.split_at(self.steps.len() / 2);
        up.iter()
            .chain(down.iter().filter(|step| read.down[step.target()]))
    }
}

/// The one plan-cache policy of the cached engines: values keyed by a
/// schema's **exact relation list** (order and multiplicity included), not
/// [`DbSchema`]'s multiset equality — a plan's step indices refer to
/// relation positions, so two multiset-equal schemas with different
/// relation orders get distinct plans. Any change to the schema therefore
/// misses the cache and compiles afresh; stale plans are unreachable by
/// construction.
#[derive(Debug)]
pub(crate) struct PlanCache<V> {
    map: Mutex<FxHashMap<Vec<AttrSet>, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<V> Default for PlanCache<V> {
    fn default() -> Self {
        Self {
            map: Mutex::default(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl<V: Clone> PlanCache<V> {
    /// Locks the map. Every update is one `insert` or `clear` of immutable
    /// values, so a caller that panicked while holding the lock cannot
    /// have left it half-written: a poisoned lock is taken over.
    fn lock(&self) -> MutexGuard<'_, FxHashMap<Vec<AttrSet>, V>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The cached value for `d`, counting a hit when present.
    pub(crate) fn get(&self, d: &DbSchema) -> Option<V> {
        let value = self.lock().get(d.rels()).cloned();
        if value.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    /// The cached value for `d`, or — counting a miss — `compile()`'s,
    /// cached for next time. The lock is not held while compiling.
    pub(crate) fn get_or_compile(&self, d: &DbSchema, compile: impl FnOnce() -> V) -> V {
        if let Some(value) = self.get(d) {
            return value;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = compile();
        self.lock().insert(d.rels().to_vec(), value.clone());
        value
    }

    /// Number of cached schemas.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }

    /// Drops every cached value (the counters keep counting).
    pub(crate) fn clear(&self) {
        self.lock().clear();
    }

    /// `(hits, misses)` since construction.
    pub(crate) fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// The cached Yannakakis engine: full-reducer plans compiled once per
/// schema and reused across calls.
///
/// The cache key is the schema's **exact relation list** (order and
/// multiplicity included), not [`DbSchema`]'s multiset equality, so stale
/// plans are unreachable by construction. Cyclic outcomes are cached too — with the full
/// [`EngineError`] diagnostic (the stuck residue and its survivor
/// indices) — so repeatedly querying a cyclic schema costs one lookup, not
/// one GYO reduction per call, and every repeat reports *which* cycle
/// blocked it.
#[derive(Debug, Default)]
pub struct FullReducerEngine {
    plans: PlanCache<Result<Arc<FullReducerPlan>, EngineError>>,
    /// Reusable selection-vector execution state: after the first reduction
    /// at a given shape, program steps run with zero heap allocation (the
    /// `crates/relation/tests/alloc.rs` counter pins this down). Contended
    /// callers fall back to a per-call scratch rather than serialize.
    scratch: Mutex<ExecScratch>,
}

impl FullReducerEngine {
    /// A fresh engine with an empty plan cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cached plan for `d`, compiling on first sight.
    /// [`EngineError::Cyclic`] when `d` is cyclic — this negative outcome
    /// is cached as well, diagnostic included.
    pub fn plan(&self, d: &DbSchema) -> Result<Arc<FullReducerPlan>, EngineError> {
        self.plans
            .get_or_compile(d, || FullReducerPlan::compile(d).map(Arc::new))
    }

    /// Drops every cached plan (the cache never *needs* manual
    /// invalidation — keys are schema identities — but long-lived engines
    /// can reclaim memory).
    pub fn clear_cache(&self) {
        self.plans.clear();
    }

    /// Number of schemas with a cached outcome (including cached cyclic
    /// verdicts).
    pub fn cached_plan_count(&self) -> usize {
        self.plans.len()
    }

    /// `(hits, misses)` of the plan cache since construction: one count per
    /// [`FullReducerEngine::plan`] lookup, cyclic verdicts included.
    /// [`FullReducerEngine::clear_cache`] keeps the counts.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.plans.stats()
    }

    /// Runs `f` with the engine's reusable selection-vector scratch
    /// (falling back to a per-call scratch under contention). Shared by the
    /// reduce and answer paths of tree schemas and of the treeify engine's
    /// extended schemas.
    fn with_scratch<R>(&self, f: impl FnOnce(&mut ExecScratch) -> R) -> R {
        match self.scratch.try_lock() {
            Ok(mut scratch) => f(&mut scratch),
            // A run panicked while holding the scratch. Reusing it is sound:
            // every run resets each slot's selection and every step re-arms
            // its membership structure before reading it.
            Err(TryLockError::Poisoned(poisoned)) => f(&mut poisoned.into_inner()),
            // Another thread is mid-reduction on this engine: run with a
            // fresh scratch instead of serializing behind the lock.
            Err(TryLockError::WouldBlock) => f(&mut ExecScratch::new()),
        }
    }

    /// Runs a compiled semijoin program over `rels` in place.
    pub(crate) fn run_steps(&self, rels: &mut [Relation], steps: &[SemijoinStep]) {
        self.with_scratch(|scratch| semijoin_program_with(rels, steps, scratch));
    }

    pub(crate) fn reduce_with_plan(
        &self,
        d: &DbSchema,
        state: &DbState,
        plan: &FullReducerPlan,
    ) -> DbState {
        let mut rels = state.rels().to_vec();
        self.run_steps(&mut rels, plan.steps());
        DbState::new(d, rels)
    }

    /// The answer path over an already-compiled plan for `d`, whose
    /// relation states are `rels`: only the part of the join tree that `X`
    /// needs (its read set) is reduced toward, gathered and joined. Shared
    /// by [`Engine::answer`] and both routes of the treeify engine.
    pub(crate) fn answer_with_plan(
        &self,
        d: &DbSchema,
        mut rels: Vec<Relation>,
        x: &AttrSet,
        plan: &FullReducerPlan,
    ) -> Relation {
        let read = read_set(d, x, plan.rooted());
        self.with_scratch(|scratch| {
            semijoin_select(&rels, plan.steps_toward(&read), scratch);
            semijoin_gather(&mut rels, read.nodes.iter().copied(), scratch);
        });
        join_up_tree(&rels, x, plan.rooted(), &read)
    }
}

impl Engine for FullReducerEngine {
    fn name(&self) -> &'static str {
        "full_reducer_cached"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        let plan = self.plan(d)?;
        Ok(self.reduce_with_plan(d, state, &plan))
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        assert!(
            x.is_subset(&d.attributes()),
            "target X must be a subset of U(D)"
        );
        let plan = self.plan(d)?;
        Ok(self.answer_with_plan(d, state.rels().to_vec(), x, &plan))
    }
}

/// The four standard engines, boxed for differential harnesses: the three
/// tree-path strategies plus the treeification-backed total engine.
pub fn standard_engines() -> Vec<Box<dyn Engine + Send + Sync>> {
    vec![
        Box::new(NaiveEngine),
        Box::new(IncrementalEngine),
        Box::new(FullReducerEngine::new()),
        Box::new(crate::TreeifyEngine::new()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Statement;
    use gyo_schema::Catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(s: &str, cat: &mut Catalog) -> DbSchema {
        DbSchema::parse(s, cat).unwrap()
    }

    fn random_state(d: &DbSchema, seed: u64, rows: usize, domain: u64) -> DbState {
        let mut rng = StdRng::seed_from_u64(seed);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), rows, domain);
        DbState::from_universal(&i, d)
    }

    #[test]
    fn engines_agree_on_tree_schemas() {
        let mut cat = Catalog::alphabetic();
        let cached = FullReducerEngine::new();
        for s in ["ab, bc, cd", "abc, cde, ace, afe", "ab, cd", "abc"] {
            let d = db(s, &mut cat);
            let state = random_state(&d, 0xE1, 25, 4);
            let x = AttrSet::from_iter([
                d.attributes().iter().next().unwrap(),
                d.attributes().iter().last().unwrap(),
            ]);
            let naive = NaiveEngine;
            let incr = IncrementalEngine;
            let n_red = naive.reduce(&d, &state).unwrap();
            assert_eq!(incr.reduce(&d, &state).unwrap(), n_red, "{s}");
            assert_eq!(cached.reduce(&d, &state).unwrap(), n_red, "{s}");
            let n_ans = naive.answer(&d, &state, &x).unwrap();
            assert_eq!(incr.answer(&d, &state, &x).unwrap(), n_ans, "{s}");
            assert_eq!(cached.answer(&d, &state, &x).unwrap(), n_ans, "{s}");
        }
    }

    #[test]
    fn semijoin_engines_decline_cyclic_schemas_with_diagnostics() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let state = random_state(&d, 7, 10, 3);
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        let err = IncrementalEngine.reduce(&d, &state).unwrap_err();
        // The triangle is its own residue: nothing reduces.
        assert_eq!(err.residue(), &d);
        assert_eq!(err.survivors(), &[0, 1, 2]);
        let cached = FullReducerEngine::new();
        assert_eq!(cached.reduce(&d, &state).unwrap_err(), err);
        assert_eq!(cached.answer(&d, &state, &x).unwrap_err(), err);
        assert!(NaiveEngine.reduce(&d, &state).is_ok(), "naive always works");
        assert_eq!(
            err.display_with(&cat),
            "schema is cyclic: GYO stuck on R0, R1, R2 with residue (ab, bc, ac)"
        );
    }

    #[test]
    fn cyclic_diagnostic_names_only_the_stuck_core() {
        // Ring with pendants: GYO strips the pendants; the error must point
        // at the surviving ring, not the whole schema.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let state = random_state(&d, 8, 5, 3);
        let err = FullReducerEngine::new().reduce(&d, &state).unwrap_err();
        assert_eq!(err.survivors(), &[0, 1, 2, 3], "only the ring survives");
        assert_eq!(err.residue().to_notation(&cat), "(ab, bc, cd, ad)");
        assert!(err.to_string().contains("4 residue relation(s)"));
    }

    #[test]
    fn plan_cache_hits_and_misses() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let e = FullReducerEngine::new();
        assert_eq!(e.cache_stats(), (0, 0));
        assert!(e.plan(&d).is_ok());
        assert_eq!(e.cache_stats(), (0, 1), "first sight compiles");
        assert!(e.plan(&d).is_ok());
        assert!(e.plan(&d.clone()).is_ok());
        assert_eq!(e.cache_stats(), (2, 1), "repeats hit");
        assert_eq!(e.cached_plan_count(), 1);
    }

    #[test]
    fn cyclic_outcome_is_cached_too() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        let e = FullReducerEngine::new();
        let first = e.plan(&d).unwrap_err();
        let second = e.plan(&d).unwrap_err();
        assert_eq!(first, second, "cached verdicts keep the diagnostic");
        assert_eq!(first.residue(), &d, "the triangle is its own residue");
        assert_eq!(e.cache_stats(), (1, 1));
        assert_eq!(e.cached_plan_count(), 1);
    }

    #[test]
    fn schema_change_misses_the_cache() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let e = FullReducerEngine::new();
        assert!(e.plan(&d).is_ok());
        let mut grown = d.clone();
        grown.push(AttrSet::parse("cd", &mut cat).unwrap());
        assert!(e.plan(&grown).is_ok());
        assert_eq!(e.cache_stats(), (0, 2), "changed schema compiles afresh");
        assert_eq!(e.cached_plan_count(), 2);
        e.clear_cache();
        assert_eq!(e.cached_plan_count(), 0);
        assert!(e.plan(&d).is_ok());
        assert_eq!(e.cache_stats(), (0, 3), "cleared cache recompiles");
    }

    #[test]
    fn plans_are_keyed_by_relation_order_not_multiset_equality() {
        // (ab, bc, cd) and (cd, bc, ab) are equal as multisets — DbSchema's
        // own Eq/Hash would collide — but a plan's step indices are
        // positional, so the cache must treat them as distinct schemas.
        let mut cat = Catalog::alphabetic();
        let d1 = db("ab, bc, cd", &mut cat);
        let d2 = db("cd, bc, ab", &mut cat);
        assert!(d1 == d2, "precondition: multiset-equal");
        let e = FullReducerEngine::new();
        assert!(e.plan(&d1).is_ok());
        assert!(e.plan(&d2).is_ok());
        assert_eq!(
            e.cache_stats(),
            (0, 2),
            "reordered schema is a distinct plan"
        );
        assert_eq!(e.cached_plan_count(), 2);
        // ... and both plans answer their own schema correctly.
        for d in [&d1, &d2] {
            let state = random_state(d, 0xAB, 20, 3);
            let x = AttrSet::parse("ad", &mut cat).unwrap();
            assert_eq!(e.answer(d, &state, &x).unwrap(), state.eval_join_query(&x));
        }
    }

    #[test]
    fn cached_plan_has_2n_minus_2_steps_and_matches_program() {
        // On a chain, a star and a random tree, each §6 statement
        // `Semijoin { left, right }`, mapped back to the join-tree nodes
        // whose versions it reads, is the plan's step at the same position.
        let mut rng = StdRng::seed_from_u64(0x5E);
        let e = FullReducerEngine::new();
        for d in [
            gyo_workloads::chain(5),
            gyo_workloads::star(5),
            gyo_workloads::random_tree_schema(&mut rng, 9, 12, 0.5),
        ] {
            let plan = e.plan(&d).unwrap();
            let program = crate::yannakakis::full_reducer_program(&d).unwrap();
            assert_eq!(plan.steps().len(), 2 * (d.len() - 1));
            assert_eq!(program.len(), plan.steps().len());
            // node[r] = the join-tree node whose state program relation r holds
            let mut node: Vec<usize> = (0..d.len()).collect();
            for (stmt, step) in program.statements().iter().zip(plan.steps()) {
                let Statement::Semijoin { left, right } = *stmt else {
                    panic!("a full reducer has only semijoins");
                };
                assert_eq!((node[left], node[right]), (step.target(), step.source()));
                node.push(node[left]);
            }
        }
    }

    #[test]
    fn answer_steps_reach_only_the_read_set_and_its_path() {
        // chain(n) is rooted at its first relation; X = {a_i, a_j} reads
        // relations i..j, with top = i. The answer runs the whole upward
        // pass, then downward steps into nodes 1..j only: the path down to
        // top and the read nodes below it.
        let n = 10;
        let d = gyo_workloads::chain(n);
        let e = FullReducerEngine::new();
        let plan = e.plan(&d).unwrap();
        for i in 0..n as u32 {
            for j in i + 1..=n as u32 {
                let read = read_set(&d, &AttrSet::from_raw(&[i, j]), plan.rooted());
                let steps: Vec<&SemijoinStep> = plan.steps_toward(&read).collect();
                let (up, down) = steps.split_at(n - 1);
                assert!(
                    up.iter().copied().eq(&plan.steps()[..n - 1]),
                    "whole upward pass"
                );
                let mut into: Vec<usize> = down.iter().map(|step| step.target()).collect();
                into.sort_unstable();
                assert_eq!(
                    into,
                    (1..j as usize).collect::<Vec<_>>(),
                    "X = {{a{i}, a{j}}}"
                );
            }
        }
    }

    #[test]
    fn single_and_empty_schemas() {
        let mut cat = Catalog::alphabetic();
        let d1 = db("abc", &mut cat);
        let state = random_state(&d1, 3, 8, 3);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let d0 = DbSchema::empty();
        let empty_state = DbState::new(&d0, vec![]);
        for e in standard_engines() {
            let name = e.name();
            assert_eq!(e.reduce(&d1, &state).unwrap(), state, "{name}");
            assert_eq!(
                e.answer(&d1, &state, &x).unwrap(),
                state.eval_join_query(&x),
                "{name}"
            );
            assert!(e.reduce(&d0, &empty_state).unwrap().is_empty(), "{name}");
            assert_eq!(
                e.answer(&d0, &empty_state, &AttrSet::empty()).unwrap(),
                Relation::identity(),
                "{name}"
            );
        }
    }

    #[test]
    fn poisoned_locks_are_recovered() {
        // A caller that panics while holding the plan-cache lock or the
        // scratch lock must not break the engine for every later caller.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 0xB0, 25, 4);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        let e = FullReducerEngine::new();
        assert!(e.plan(&d).is_ok());
        let panics_holding = |f: &dyn Fn()| {
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            assert!(unwound.is_err(), "the closure panics");
        };
        panics_holding(&|| {
            let _held = e.plans.lock();
            panic!("caller panics holding the plan cache");
        });
        panics_holding(&|| {
            let _held = e.scratch.lock();
            panic!("caller panics holding the scratch");
        });
        assert!(e.plans.map.is_poisoned() && e.scratch.is_poisoned());
        for _ in 0..2 {
            assert_eq!(e.reduce(&d, &state), NaiveEngine.reduce(&d, &state));
            assert_eq!(e.answer(&d, &state, &x), NaiveEngine.answer(&d, &state, &x));
        }
        assert_eq!(e.cache_stats(), (4, 1), "the poisoned cache still hits");
    }

    #[test]
    fn standard_engines_cover_the_four_paths() {
        let names: Vec<&str> = standard_engines().iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            ["naive", "incremental", "full_reducer_cached", "treeify"]
        );
    }
}
