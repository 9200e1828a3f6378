//! The treeification-backed **total** engine: cyclic schemas answered
//! through a cached tree plan over `D ∪ (U(GR(D)))`.
//!
//! The paper's central move for cyclic schemas (§4, building on
//! Corollary 3.2) is that cyclicity is not a dead end: adding the single
//! relation `W = U(GR(D))` — the attributes of the stuck GYO residue —
//! turns *any* schema into a tree schema (Theorem 3.2(ii)), and `W` is the
//! least-cardinality relation that does so. The price is one data-dependent
//! join: `state(W) = π_W(⋈ of the residue's states)`. Everything before and
//! after that join is linear semijoin processing on a tree schema — exactly
//! what the cached full-reducer machinery already does well.
//!
//! [`TreeifyEngine`] packages that strategy as an [`Engine`] that **never
//! declines**:
//!
//! * **Tree schemas** delegate to an inner [`FullReducerEngine`] — same
//!   plan cache, same selection-vector kernels, zero overhead beyond the
//!   cache probes (one on the always-empty-for-trees treeified cache, one
//!   the full-reducer engine pays anyway).
//! * **Cyclic schemas** get a cached [`TreeifyPlan`]: the treeifying
//!   relation `W`, a connectivity-greedy join order over the GYO survivors
//!   (computed once at plan time, so per-call materialization avoids
//!   accidental cross products inside connected residues), and the
//!   compiled full-reducer plan for the extended schema `D ∪ (W)` — stored
//!   in the *shared* plan cache, compiled once, reused across calls.
//!   Per call, the engine materializes `state(W)` with one
//!   [`Relation::join_all`] — a left-deep join over `u32` row ids that
//!   probes each survivor's own cached build table, so no intermediate
//!   tuple is copied or sorted and `W`'s tuples are written once — then
//!   runs the extended plan's semijoin program through the reusable
//!   [`SelVec`](gyo_relation::SelVec) scratch. An answer takes the tree
//!   answer path on the extended schema: it reduces toward, gathers and
//!   joins only the part of the extended join tree that `X` needs — when
//!   `X ⊆ W` that is typically `W` alone.
//!
//! The cyclic verdict that routes a schema onto the treeify path is the
//! [`EngineError::Cyclic`] diagnostic the inner engine caches — the stuck
//! residue *is* the input to treeification, so nothing is recomputed.
//!
//! Correctness: `⋈(D ∪ (W)) = ⋈D`, because every tuple of `⋈D` restricted
//! to the survivors satisfies each survivor's relation, so its `W`
//! projection is in `state(W)` — the added relation filters nothing.
//! Full reduction of the extended tree state therefore leaves each original
//! relation at `π_{Rᵢ}(⋈D)` (global consistency), which is exactly
//! [`NaiveEngine`](crate::NaiveEngine)'s definitional reduce; the repo's
//! differential suite (`tests/engine_differential.rs`) holds the two
//! engines to identical results on every cyclic workload family.
//!
//! # Examples
//!
//! ```
//! use gyo_schema::{AttrSet, Catalog, DbSchema};
//! use gyo_relation::{DbState, Relation};
//! use gyo_query::{Engine, TreeifyEngine};
//!
//! let mut cat = Catalog::alphabetic();
//! let ring = DbSchema::parse("ab, bc, cd, da", &mut cat).unwrap();
//! let i = Relation::new(
//!     ring.attributes(),
//!     vec![vec![1, 1, 1, 1], vec![1, 2, 1, 2], vec![3, 3, 3, 3]],
//! );
//! let state = DbState::from_universal(&i, &ring);
//!
//! let engine = TreeifyEngine::new();
//! // The ring is cyclic — the semijoin engines decline it — yet the
//! // treeify engine answers, and agrees with the definitional evaluation.
//! let x = AttrSet::parse("ac", &mut cat).unwrap();
//! let answer = engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(answer, state.eval_join_query(&x));
//!
//! // One treeified plan was compiled and cached; repeats hit it.
//! assert_eq!(engine.cached_treeified_count(), 1);
//! engine.answer(&ring, &state, &x).unwrap();
//! assert_eq!(engine.cached_treeified_count(), 1);
//! assert_eq!(engine.treeified_cache_stats(), (1, 1)); // (hits, misses)
//! ```

use std::sync::Arc;

use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema};

use crate::engine::{Engine, EngineError, FullReducerEngine, FullReducerPlan, PlanCache};

/// A compiled treeification plan for one **cyclic** schema: everything
/// about `D ∪ (U(GR(D)))` that does not depend on data.
#[derive(Clone, Debug)]
pub struct TreeifyPlan {
    /// The extended tree schema `D ∪ (W)`; `W` is the last relation.
    extended: DbSchema,
    /// `W = U(GR(D))` — the treeifying relation (Corollary 3.2).
    w: AttrSet,
    /// GYO-survivor indices in a connectivity-greedy join order (each
    /// next survivor shares attributes with the already-joined prefix
    /// whenever the residue permits, so `state(W)` materializes without
    /// intermediate cross products on connected residues), each paired
    /// with its projection onto `Rᵢ ∩ W` — `None` when the relation lies
    /// entirely inside `W`. Projecting *before* joining is sound because
    /// an attribute shared by two survivors can never be GYO-deleted
    /// (deletion requires isolation), so every non-`W` attribute is
    /// private to one survivor and contributes nothing to `π_W` — it
    /// would only inflate the join's intermediates.
    join_order: Vec<(usize, Option<AttrSet>)>,
    /// The compiled full-reducer plan for `extended` — owned by the
    /// engine's shared plan cache, referenced here.
    inner: Arc<FullReducerPlan>,
}

impl TreeifyPlan {
    /// Compiles the plan from a cyclic verdict. The `err` diagnostic
    /// supplies the residue and survivors, so the GYO reduction is not
    /// re-run; the extended schema's full-reducer plan is compiled through
    /// (and cached in) `engine`'s plan cache.
    fn compile(d: &DbSchema, err: &EngineError, engine: &FullReducerEngine) -> Self {
        let w = err.residue().attributes();
        let join_order = connected_order(d, err.survivors())
            .into_iter()
            .map(|i| {
                let core = d.rel(i).intersect(&w);
                let proj = (&core != d.rel(i)).then_some(core);
                (i, proj)
            })
            .collect();
        let extended = d.with_rel(w.clone());
        let inner = engine
            .plan(&extended)
            .expect("Theorem 3.2(ii): D ∪ (U(GR(D))) is a tree schema");
        Self {
            extended,
            w,
            join_order,
            inner,
        }
    }

    /// The treeifying relation `W = U(GR(D))`.
    pub fn w(&self) -> &AttrSet {
        &self.w
    }

    /// The extended tree schema `D ∪ (W)` the plan reduces over.
    pub fn extended(&self) -> &DbSchema {
        &self.extended
    }

    /// Survivor indices in the order their states are joined into
    /// `state(W)`.
    pub fn join_order(&self) -> Vec<usize> {
        self.join_order.iter().map(|&(i, _)| i).collect()
    }

    /// The compiled full-reducer plan for the extended schema.
    pub fn tree_plan(&self) -> &FullReducerPlan {
        &self.inner
    }
}

/// Orders `survivors` greedily by connectivity: start from the first, and
/// repeatedly append a survivor sharing an attribute with the accumulated
/// attribute set, falling back to the next unvisited one when the residue
/// is disconnected (where a cross product is inherent to `W` anyway).
fn connected_order(d: &DbSchema, survivors: &[usize]) -> Vec<usize> {
    let mut order = Vec::with_capacity(survivors.len());
    let mut remaining: Vec<usize> = survivors.to_vec();
    let mut seen = AttrSet::empty();
    while !remaining.is_empty() {
        let pick = remaining
            .iter()
            .position(|&i| !d.rel(i).intersect(&seen).is_empty())
            .unwrap_or(0);
        let i = remaining.remove(pick);
        seen = seen.union(d.rel(i));
        order.push(i);
    }
    order
}

/// The treeification-backed engine: **total** over all schemas.
///
/// Tree schemas run on the inner [`FullReducerEngine`] (shared plan
/// cache); cyclic schemas run over a cached [`TreeifyPlan`] — one
/// data-dependent core join to materialize `state(W)`, then the compiled
/// semijoin program and tree-join machinery of the extended schema. See
/// the [module docs](self) for the construction and its correctness
/// argument.
#[derive(Debug, Default)]
pub struct TreeifyEngine {
    inner: FullReducerEngine,
    treeified: PlanCache<Arc<TreeifyPlan>>,
}

/// Which plan serves a schema: its own full-reducer plan, or the treeified
/// plan of a cyclic schema.
enum Route {
    Tree(Arc<FullReducerPlan>),
    Cyclic(Arc<TreeifyPlan>),
}

impl TreeifyEngine {
    /// A fresh engine with empty plan caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// The inner full-reducer engine (to share its plan cache, or to
    /// inspect it). Both the tree-schema plans *and* every treeified
    /// extended-schema plan live in this engine's cache.
    pub fn inner(&self) -> &FullReducerEngine {
        &self.inner
    }

    /// The cached treeify plan for a schema already known to be cyclic,
    /// compiling on first sight. `err` must be the cyclic verdict the
    /// inner engine produced for `d` — its residue drives the compilation.
    pub fn treeified_plan(&self, d: &DbSchema, err: &EngineError) -> Arc<TreeifyPlan> {
        self.treeified
            .get_or_compile(d, || Arc::new(TreeifyPlan::compile(d, err, &self.inner)))
    }

    /// The plan that serves `d`, compiling on first sight. The treeified
    /// cache is probed **before** the inner plan cache, so warm cyclic
    /// calls never touch (or clone) the cached `EngineError` verdict.
    fn route(&self, d: &DbSchema) -> Route {
        if let Some(plan) = self.treeified.get(d) {
            return Route::Cyclic(plan);
        }
        match self.inner.plan(d) {
            Ok(plan) => Route::Tree(plan),
            Err(err) => Route::Cyclic(self.treeified_plan(d, &err)),
        }
    }

    /// Number of cyclic schemas with a cached treeified plan.
    pub fn cached_treeified_count(&self) -> usize {
        self.treeified.len()
    }

    /// Drops every cached plan, treeified and tree alike.
    pub fn clear_cache(&self) {
        self.treeified.clear();
        self.inner.clear_cache();
    }

    /// `(hits, misses)` of the treeified-plan cache since construction: a
    /// hit per warm cyclic call, a miss per compiled treeify plan. Tree
    /// calls leave these counts alone; their plans (and the cyclic verdicts
    /// and extended-schema plans) are counted by
    /// [`FullReducerEngine::cache_stats`] on [`TreeifyEngine::inner`].
    /// [`TreeifyEngine::clear_cache`] keeps the counts.
    pub fn treeified_cache_stats(&self) -> (u64, u64) {
        self.treeified.stats()
    }

    /// `state(W) = π_W(⋈ of the survivors' states)` — the one
    /// data-dependent step cyclicity forces — as one
    /// [`Relation::join_all`] over the survivors in the plan's connectivity
    /// order, each pre-projected onto `Rᵢ ∩ W`. The join runs over row ids
    /// and probes each survivor's own cached build table, so on a warm
    /// state only the projected survivors build anything; `W`'s tuples are
    /// materialized and normalized once. The attributes end up exactly `W`
    /// (the residue relations cover it), so no final projection is needed.
    fn materialize_w(&self, plan: &TreeifyPlan, state: &DbState) -> Relation {
        let core: Vec<Relation> = plan
            .join_order
            .iter()
            .map(|(i, proj)| match proj {
                Some(core) => state.rel(*i).project(core),
                None => state.rel(*i).clone(),
            })
            .collect();
        let w = Relation::join_all(&core);
        debug_assert_eq!(w.attrs(), &plan.w, "residue relations cover W");
        w
    }

    /// The extended state `state ∪ (state(W))`: the original relations
    /// first, `W` last.
    fn extended_state(&self, plan: &TreeifyPlan, state: &DbState) -> Vec<Relation> {
        let mut rels = state.rels().to_vec();
        rels.push(self.materialize_w(plan, state));
        rels
    }
}

impl Engine for TreeifyEngine {
    fn name(&self) -> &'static str {
        "treeify"
    }

    fn reduce(&self, d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
        Ok(match self.route(d) {
            Route::Tree(plan) => self.inner.reduce_with_plan(d, state, &plan),
            Route::Cyclic(plan) => {
                let mut rels = self.extended_state(&plan, state);
                self.inner.run_steps(&mut rels, plan.inner.steps());
                rels.truncate(d.len());
                DbState::new(d, rels)
            }
        })
    }

    fn answer(&self, d: &DbSchema, state: &DbState, x: &AttrSet) -> Result<Relation, EngineError> {
        assert!(
            x.is_subset(&d.attributes()),
            "target X must be a subset of U(D)"
        );
        Ok(match self.route(d) {
            Route::Tree(plan) => self
                .inner
                .answer_with_plan(d, state.rels().to_vec(), x, &plan),
            // The extended schema is a tree: the same answer path.
            Route::Cyclic(plan) => self.inner.answer_with_plan(
                &plan.extended,
                self.extended_state(&plan, state),
                x,
                &plan.inner,
            ),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NaiveEngine;
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
    fn agrees_with_naive_on_cyclic_schemas() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        for (s, xs) in [
            ("ab, bc, ca", "ab"),
            ("ab, bc, cd, da", "ac"),
            ("bcd, acd, abd, abc", "ab"),
            ("ab, bc, cd, da, ax, cy", "xy"),
        ] {
            let d = db(s, &mut cat);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            for seed in 0..4 {
                let state = random_state(&d, 0xBEEF ^ seed, 25, 3);
                let n_red = NaiveEngine.reduce(&d, &state).unwrap();
                assert_eq!(engine.reduce(&d, &state).unwrap(), n_red, "{s} seed {seed}");
                assert_eq!(
                    engine.answer(&d, &state, &x).unwrap(),
                    NaiveEngine.answer(&d, &state, &x).unwrap(),
                    "{s} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn tree_schemas_delegate_to_the_inner_engine() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let d = db("ab, bc, cd", &mut cat);
        let state = random_state(&d, 11, 20, 4);
        let x = AttrSet::parse("ad", &mut cat).unwrap();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
        // No treeified plan was compiled; the tree plan sits in the shared
        // inner cache.
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 1);
        assert_eq!(engine.treeified_cache_stats(), (0, 0));
    }

    #[test]
    fn treeified_plan_cache_hits_and_misses() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        let ring = db("ab, bc, cd, da", &mut cat);
        let state = random_state(&ring, 5, 15, 3);

        engine.reduce(&ring, &state).unwrap();
        assert_eq!(
            engine.treeified_cache_stats(),
            (0, 1),
            "first sight compiles"
        );
        // Both the cyclic verdict for the ring AND the tree plan for the
        // extended schema live in the shared inner cache.
        assert_eq!(engine.inner().cached_plan_count(), 2);

        engine.reduce(&ring, &state).unwrap();
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        engine.answer(&ring, &state, &x).unwrap();
        assert_eq!(engine.treeified_cache_stats(), (2, 1), "repeats hit");
        assert_eq!(engine.cached_treeified_count(), 1);

        // A different cyclic schema compiles its own plan.
        let triangle = db("ab, bc, ca", &mut cat);
        let t_state = random_state(&triangle, 6, 10, 3);
        engine.reduce(&triangle, &t_state).unwrap();
        assert_eq!(engine.treeified_cache_stats(), (2, 2));
        assert_eq!(engine.cached_treeified_count(), 2);

        engine.clear_cache();
        assert_eq!(engine.cached_treeified_count(), 0);
        assert_eq!(engine.inner().cached_plan_count(), 0);
        engine.reduce(&ring, &state).unwrap();
        assert_eq!(
            engine.treeified_cache_stats(),
            (2, 3),
            "cleared cache recompiles"
        );
    }

    #[test]
    fn plan_exposes_the_treeification_structure() {
        let mut cat = Catalog::alphabetic();
        let engine = TreeifyEngine::new();
        // Ring with two pendants: survivors are the ring; W is its span.
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let err = engine.inner().plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        assert_eq!(plan.w().to_notation(&cat), "abcd");
        assert_eq!(plan.extended().len(), d.len() + 1);
        assert_eq!(plan.extended().rel(d.len()), plan.w());
        // The join order covers exactly the survivors, connectedly.
        let mut sorted = plan.join_order();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        let mut seen = AttrSet::empty();
        for (k, &i) in plan.join_order().iter().enumerate() {
            if k > 0 {
                assert!(
                    !d.rel(i).intersect(&seen).is_empty(),
                    "join order stays connected on a connected residue"
                );
            }
            seen = seen.union(d.rel(i));
        }
        // 2·(n−1) steps for the extended schema's full reducer.
        assert_eq!(plan.tree_plan().steps().len(), 2 * (d.len() + 1 - 1));
    }

    #[test]
    fn connected_order_handles_disconnected_residues() {
        let mut cat = Catalog::alphabetic();
        // Two disjoint triangles: the residue is disconnected; the order
        // must still cover every survivor once.
        let d = db("ab, bc, ca, xy, yz, zx", &mut cat);
        let engine = TreeifyEngine::new();
        let err = engine.inner().plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        let mut sorted = plan.join_order();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
        // And the engine still answers (the W-state is the cross product
        // of the two triangle joins — inherent to U(GR(D)) here).
        let state = random_state(&d, 21, 8, 2);
        let x = AttrSet::parse("az", &mut cat).unwrap();
        assert_eq!(
            engine.answer(&d, &state, &x).unwrap(),
            NaiveEngine.answer(&d, &state, &x).unwrap()
        );
    }

    #[test]
    fn empty_core_join_short_circuits() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, ca", &mut cat);
        // The parity instance: pairwise consistent, globally empty.
        let ab = AttrSet::parse("ab", &mut cat).unwrap();
        let bc = AttrSet::parse("bc", &mut cat).unwrap();
        let ca = AttrSet::parse("ac", &mut cat).unwrap();
        let state = DbState::new(
            &d,
            vec![
                Relation::new(ab, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(bc, vec![vec![0, 1], vec![1, 0]]),
                Relation::new(ca, vec![vec![0, 1], vec![1, 0]]),
            ],
        );
        let engine = TreeifyEngine::new();
        let reduced = engine.reduce(&d, &state).unwrap();
        for k in 0..d.len() {
            assert!(
                reduced.rel(k).is_empty(),
                "empty join ⟹ empty reduced relations (node {k})"
            );
        }
        let x = AttrSet::parse("ab", &mut cat).unwrap();
        assert!(engine.answer(&d, &state, &x).unwrap().is_empty());
    }

    #[test]
    fn targets_inside_w_read_w_alone() {
        // The extended join tree hangs every ring relation off W, so a
        // target inside W that no single ring relation holds reads W alone.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let engine = TreeifyEngine::new();
        let err = engine.inner().plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        for xs in ["ac", "bd", "abc"] {
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            let rooted = plan.tree_plan().rooted();
            let read = crate::yannakakis::read_set(plan.extended(), &x, rooted);
            assert_eq!(read.nodes, [d.len()], "X = {xs}");
        }
    }

    #[test]
    fn answers_targets_outside_w() {
        // Pendant attributes are GYO-deleted, so they sit outside W; the
        // answer path must join up the extended tree rather than project W.
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, da, ax, cy", &mut cat);
        let engine = TreeifyEngine::new();
        let x = AttrSet::parse("xy", &mut cat).unwrap();
        let err = engine.inner().plan(&d).unwrap_err();
        let plan = engine.treeified_plan(&d, &err);
        assert!(!x.is_subset(plan.w()), "precondition: X ⊄ W");
        for seed in 0..4 {
            let state = random_state(&d, 0xA11CE ^ seed, 30, 3);
            assert_eq!(
                engine.answer(&d, &state, &x).unwrap(),
                state.eval_join_query(&x),
                "seed {seed}"
            );
        }
    }
}
