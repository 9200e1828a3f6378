//! Compiled semijoin programs over relation vectors — selection-vector
//! execution.
//!
//! A full-reducer semijoin program applies `2·(n−1)` semijoins whose key
//! attributes depend only on the relation *schemas*, never on the data.
//! [`SemijoinStep`] precompiles the shared attribute set once per schema,
//! and [`semijoin_program_with`] executes a whole step sequence without
//! materializing intermediate relations: semijoins only ever *remove*
//! tuples, so the executor tracks one reusable [`SelVec`] per slot (the
//! surviving row indices plus a generation-stamped bitset) and runs every
//! step over the relations' cached flat key columns (keys of width ≤ 2
//! packed into scalars, wider keys in one packed side buffer).
//!
//! Every step is two columnar kernels:
//!
//! 1. **Build** a membership structure over the *selected* source keys —
//!    a [`StampTable`] (direct-map, one store per key) when the packed
//!    `u64` key range is small, a reused hash set otherwise, and a reused
//!    sorted `(hash, row)` spine for wide keys (probes re-compare the
//!    actual key slices through the packed side buffers — a chunked memcmp
//!    — so hash collisions cannot lie).
//! 2. **Probe** the target's key column through the one selection-vector
//!    kernel, [`SelVec::retain`]: fixed-size chunks, branchless mask
//!    accumulation, no per-row branching.
//!
//! `apply_step` holds the executor's only key-width dispatch: one match
//! over the two `KeyColumn`s picks the membership structure.
//!
//! All scratch state lives in an [`ExecScratch`] that is reused across
//! steps *and* across whole program runs, so after warm-up (first run at a
//! given shape) a full-reducer pass over k relations performs **zero heap
//! allocation per step** — the repo-level allocation-counter test
//! (`crates/relation/tests/alloc.rs`) pins this down. A run has two
//! halves: [`semijoin_select`] runs the steps over the selections, and
//! [`semijoin_gather`] materializes the surviving tuples once, at the end,
//! only for the slots the caller lists and only where tuples were lost.
//! [`semijoin_program_with`] is the two in a row over every step and slot;
//! the engine's answer path selects a subsequence of the program and
//! gathers only the relations its join-up reads.
//!
//! Because the key columns are cached *on the relations* (and shared by
//! clones), repeated executions over the same state — the plan-cache usage
//! pattern of the full-reducer engine — pay the column extraction only
//! once.

use std::hash::{Hash, Hasher};

use gyo_schema::{AttrSet, FxHashSet, FxHasher};

use crate::kernels::{SelVec, StampTable};
use crate::relation::{KeyColumn, Relation};

/// One precompiled semijoin statement
/// `rels[target] := rels[target] ⋉ rels[source]`, with the shared (key)
/// attribute set derived ahead of execution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemijoinStep {
    target: usize,
    source: usize,
    shared: AttrSet,
}

impl SemijoinStep {
    /// Compiles the step for fixed relation schemas (`schemas[i]` is the
    /// attribute set of slot `i`).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn new(schemas: &[AttrSet], target: usize, source: usize) -> Self {
        let shared = schemas[target].intersect(&schemas[source]);
        Self {
            target,
            source,
            shared,
        }
    }

    /// Slot of the relation being filtered (and overwritten).
    #[inline]
    pub fn target(&self) -> usize {
        self.target
    }

    /// Slot of the relation filtered against.
    #[inline]
    pub fn source(&self) -> usize {
        self.source
    }

    /// The semijoin key: `schema(target) ∩ schema(source)`.
    #[inline]
    pub fn key(&self) -> &AttrSet {
        &self.shared
    }
}

/// Reusable execution state for [`semijoin_program_with`]: one selection
/// vector per slot plus the per-step membership scratch (stamp table, hash
/// sets per packed key width, the wide-key hash spine). Everything is
/// grow-only — steps after warm-up allocate nothing.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// Per-slot liveness (index `i` tracks `rels[i]`).
    sel: Vec<SelVec>,
    /// Direct-map membership for small-range packed `u64` keys.
    stamp: StampTable,
    /// Hash-set fallback for packed `u64` keys with a large value range.
    one: FxHashSet<u64>,
    /// Membership for packed width-2 (`u128`) keys.
    two: FxHashSet<u128>,
    /// Wide-key membership spine: `(fxhash(key), source row)`, sorted by
    /// hash; probes binary-search the hash then memcmp the key slices.
    wide: Vec<(u64, u32)>,
}

impl ExecScratch {
    /// A fresh scratch (everything warms up on first use).
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure_slots(&mut self, n: usize) {
        if self.sel.len() < n {
            self.sel.resize_with(n, SelVec::default);
        }
    }
}

#[inline]
fn hash_wide(key: &[u64]) -> u64 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Executes a compiled semijoin program in place:
/// `rels[step.target] := rels[step.target] ⋉ rels[step.source]` for each
/// step, in order. Unlike §6 program semantics (every statement creates a
/// new relation), slots are overwritten — which is exactly the
/// Bernstein–Chiu reading where each site updates its own state.
///
/// This is [`semijoin_select`] over every step followed by
/// [`semijoin_gather`] of every slot.
///
/// The caller owns the scratch: selection vectors and membership buffers
/// are reused across calls, making every step allocation-free after the
/// first run at a given shape. A one-off run passes
/// `&mut ExecScratch::new()`.
///
/// # Panics
///
/// Panics if a step's indices are out of range; debug builds also check
/// that each step's compiled key matches the slot schemas.
pub fn semijoin_program_with(
    rels: &mut [Relation],
    steps: &[SemijoinStep],
    scratch: &mut ExecScratch,
) {
    semijoin_select(rels, steps, scratch);
    semijoin_gather(rels, 0..rels.len(), scratch);
}

/// The selection half of a program run: resets one [`SelVec`] per slot
/// of `rels` to "every row", then runs each step over the selections
/// alone — no tuple moves. Afterwards the scratch holds, per slot, the
/// rows that survive the steps; [`semijoin_gather`] materializes them.
///
/// Steps come as an iterator, so a caller can run a filtered subsequence
/// of a compiled program without collecting it.
///
/// # Panics
///
/// As [`semijoin_program_with`].
pub fn semijoin_select<'a>(
    rels: &[Relation],
    steps: impl IntoIterator<Item = &'a SemijoinStep>,
    scratch: &mut ExecScratch,
) {
    scratch.ensure_slots(rels.len());
    for (sel, rel) in scratch.sel.iter_mut().zip(rels) {
        sel.reset(rel.len());
    }
    for step in steps {
        debug_assert!(
            step.shared.is_subset(rels[step.target].attrs())
                && step.shared.is_subset(rels[step.source].attrs()),
            "step compiled for different schemas"
        );
        apply_step(rels, scratch, step);
    }
}

/// The gather half of a program run: overwrites each listed slot of
/// `rels` with its surviving rows, as the last [`semijoin_select`] over
/// the same `rels` left them in `scratch`. Only slots that lost rows are
/// rewritten; slots not listed keep their input state, so a caller that
/// needs a few reduced relations pays for those alone.
///
/// # Panics
///
/// Panics if a slot is out of range.
pub fn semijoin_gather(
    rels: &mut [Relation],
    slots: impl IntoIterator<Item = usize>,
    scratch: &ExecScratch,
) {
    for slot in slots {
        let sel = &scratch.sel[slot];
        if sel.len() < rels[slot].len() {
            rels[slot] = rels[slot].gather_selected(sel);
        }
    }
}

fn apply_step(rels: &[Relation], scratch: &mut ExecScratch, step: &SemijoinStep) {
    let target = &rels[step.target];
    let source = &rels[step.source];
    if step.target == step.source {
        return; // R ⋉ R = R
    }
    if scratch.sel[step.target].is_empty() {
        return; // ∅ ⋉ S = ∅
    }
    if scratch.sel[step.source].is_empty() {
        // R ⋉ ∅ = ∅: kill the whole target.
        scratch.sel[step.target].clear();
        return;
    }

    let source_col = source.key_column(&step.shared);
    if matches!(*source_col, KeyColumn::Empty) {
        return; // nonempty source, empty key: every target tuple matches
    }
    let target_col = target.key_column(&step.shared);

    // Split borrows: the target's SelVec is mutated by the probe while the
    // source's is only read during the build.
    let (sel_lo, sel_hi) = scratch.sel.split_at_mut(step.target.max(step.source));
    let (tsel, ssel): (&mut SelVec, &SelVec) = if step.target > step.source {
        (&mut sel_hi[0], &sel_lo[step.source])
    } else {
        (&mut sel_lo[step.target], &sel_hi[0])
    };

    // Build membership over the *selected* source keys, then probe the
    // target's key column through the chunked retain kernel.
    match (&*source_col, &*target_col) {
        (
            KeyColumn::One {
                vals: svals,
                min,
                max,
            },
            KeyColumn::One { vals: tvals, .. },
        ) => {
            // The column's precomputed range bounds the *selected* keys, so
            // a small span gets the direct-map table (one store per insert,
            // one load per probe) with no range rescan.
            if scratch.stamp.begin(*min, *max) {
                let stamp = &mut scratch.stamp;
                ssel.for_each(|i| stamp.insert(svals[i]));
                tsel.retain(|i| stamp.contains(tvals[i]));
            } else {
                hash_semijoin(&mut scratch.one, svals, ssel, tvals, tsel);
            }
        }
        (KeyColumn::Two(svals), KeyColumn::Two(tvals)) => {
            hash_semijoin(&mut scratch.two, svals, ssel, tvals, tsel);
        }
        (
            KeyColumn::Wide { width, keys: skeys },
            KeyColumn::Wide {
                width: twidth,
                keys: tkeys,
            },
        ) => {
            debug_assert_eq!(width, twidth, "key widths match across a step");
            let w = *width;
            scratch.wide.clear();
            let spine = &mut scratch.wide;
            ssel.for_each(|i| spine.push((hash_wide(&skeys[i * w..(i + 1) * w]), i as u32)));
            spine.sort_unstable_by_key(|&(h, _)| h);
            tsel.retain(|i| {
                let key = &tkeys[i * w..(i + 1) * w];
                let h = hash_wide(key);
                let mut at = spine.partition_point(|&(sh, _)| sh < h);
                // Collisions re-compare the actual key slices (chunked
                // memcmp under slice ==), so a hash match never lies.
                while let Some(&(sh, si)) = spine.get(at) {
                    if sh != h {
                        break;
                    }
                    let si = si as usize;
                    if &skeys[si * w..(si + 1) * w] == key {
                        return true;
                    }
                    at += 1;
                }
                false
            });
        }
        _ => unreachable!("key widths match across a step"),
    }
}

/// The hash-set membership step shared by the packed key widths: fills
/// the reused `set` with the selected source keys, then keeps the selected
/// target rows whose key is in it.
fn hash_semijoin<K: Copy + Eq + Hash>(
    set: &mut FxHashSet<K>,
    svals: &[K],
    ssel: &SelVec,
    tvals: &[K],
    tsel: &mut SelVec,
) {
    set.clear();
    ssel.for_each(|i| {
        set.insert(svals[i]);
    });
    tsel.retain(|i| set.contains(&tvals[i]));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One program run on a fresh scratch.
    fn run(rels: &mut [Relation], steps: &[SemijoinStep]) {
        semijoin_program_with(rels, steps, &mut ExecScratch::new());
    }

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    #[test]
    fn step_compiles_shared_attributes() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let step = SemijoinStep::new(&schemas, 0, 1);
        assert_eq!(step.target(), 0);
        assert_eq!(step.source(), 1);
        assert_eq!(step.key(), &attrs(&[1]));
    }

    #[test]
    fn program_matches_sequential_semijoins() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2]), attrs(&[2, 3])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 10], vec![2, 20], vec![3, 30]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![10, 100], vec![20, 200]]),
            Relation::new(schemas[2].clone(), vec![vec![100, 7]]),
        ];
        let expected = {
            let mut r = rels.clone();
            r[1] = r[1].semijoin(&r[2]);
            r[0] = r[0].semijoin(&r[1]);
            r
        };
        let steps = vec![
            SemijoinStep::new(&schemas, 1, 2),
            SemijoinStep::new(&schemas, 0, 1),
        ];
        run(&mut rels, &steps);
        assert_eq!(rels, expected);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 10]]);
    }

    #[test]
    fn masked_execution_respects_earlier_filtering() {
        // The same slot is filtered twice; the second step must see the
        // first step's surviving tuples, not the original relation.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1]), attrs(&[0])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 10], vec![2, 10], vec![2, 20]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![10]]),
            // After step 1, slot 0 = {(1,10), (2,10)}; its a-values {1, 2}
            // both hit slot 2, but slot 2 is then filtered by slot 0 too.
            Relation::new(schemas[2].clone(), vec![vec![1], vec![3]]),
        ];
        let steps = vec![
            SemijoinStep::new(&schemas, 0, 1), // drop (2,20)
            SemijoinStep::new(&schemas, 2, 0), // keep a=1, drop a=3
            SemijoinStep::new(&schemas, 0, 2), // keep only a=1 rows
        ];
        run(&mut rels, &steps);
        assert_eq!(rels[0].to_vecs(), vec![vec![1, 10]]);
        assert_eq!(rels[2].to_vecs(), vec![vec![1]]);
    }

    #[test]
    fn disjoint_step_keeps_or_empties() {
        let schemas = vec![attrs(&[0]), attrs(&[5])];
        let mut rels = vec![
            Relation::new(schemas[0].clone(), vec![vec![1]]),
            Relation::new(schemas[1].clone(), vec![vec![9]]),
        ];
        let step = SemijoinStep::new(&schemas, 0, 1);
        assert!(step.key().is_empty());
        run(&mut rels, std::slice::from_ref(&step));
        assert_eq!(rels[0].len(), 1, "disjoint nonempty source keeps tuples");

        rels[1] = Relation::empty(attrs(&[5]));
        run(&mut rels, std::slice::from_ref(&step));
        assert!(rels[0].is_empty(), "disjoint empty source annihilates");
    }

    #[test]
    fn wide_keys_fall_back_correctly() {
        let schemas = vec![attrs(&[0, 1, 2, 3]), attrs(&[0, 1, 2, 9])];
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 2, 3, 4], vec![1, 2, 9, 4], vec![5, 6, 7, 8]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![1, 2, 3, 0], vec![5, 6, 0, 0]]),
        ];
        let expected = rels[0].semijoin(&rels[1]);
        run(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0], expected);
        assert_eq!(rels[0].len(), 1);
    }

    #[test]
    fn empty_target_short_circuits() {
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let mut rels = vec![
            Relation::empty(schemas[0].clone()),
            Relation::new(schemas[1].clone(), vec![vec![1, 2]]),
        ];
        run(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert!(rels[0].is_empty());
    }

    #[test]
    fn large_key_range_uses_the_hash_fallback() {
        // Keys straddling the whole u64 range exceed StampTable::MAX_RANGE,
        // forcing the hash-set membership path; semantics must not move.
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2])];
        let huge = u64::MAX - 3;
        let mut rels = vec![
            Relation::new(
                schemas[0].clone(),
                vec![vec![1, 0], vec![2, huge], vec![3, 500]],
            ),
            Relation::new(schemas[1].clone(), vec![vec![huge, 9], vec![0, 9]]),
        ];
        let expected = rels[0].semijoin(&rels[1]);
        run(&mut rels, &[SemijoinStep::new(&schemas, 0, 1)]);
        assert_eq!(rels[0], expected);
        assert_eq!(rels[0].len(), 2);
    }

    #[test]
    fn scratch_reuse_across_programs_is_sound() {
        // Run two different programs through one scratch: stale selections
        // or stale membership from run 1 must not leak into run 2.
        let mut scratch = ExecScratch::new();
        let schemas = vec![attrs(&[0, 1]), attrs(&[1, 2]), attrs(&[2, 3])];
        let mk = |tuples: Vec<Vec<u64>>, k: usize| Relation::new(schemas[k].clone(), tuples);
        let mut rels = vec![
            mk(vec![vec![1, 10], vec![2, 20], vec![3, 30]], 0),
            mk(vec![vec![10, 100], vec![20, 200]], 1),
            mk(vec![vec![100, 7]], 2),
        ];
        let steps = vec![
            SemijoinStep::new(&schemas, 1, 2),
            SemijoinStep::new(&schemas, 0, 1),
        ];
        let mut expected = rels.clone();
        expected[1] = expected[1].semijoin(&expected[2]);
        expected[0] = expected[0].semijoin(&expected[1]);
        semijoin_program_with(&mut rels, &steps, &mut scratch);
        assert_eq!(rels, expected);

        // Second program: different shape, previously-dead slots revive.
        let mut rels2 = vec![
            mk(vec![vec![7, 70], vec![8, 80]], 0),
            mk(vec![vec![70, 1], vec![80, 1], vec![90, 1]], 1),
            mk(vec![vec![1, 1]], 2),
        ];
        let mut expected2 = rels2.clone();
        expected2[1] = expected2[1].semijoin(&expected2[0]);
        let steps2 = vec![SemijoinStep::new(&schemas, 1, 0)];
        semijoin_program_with(&mut rels2, &steps2, &mut scratch);
        assert_eq!(rels2, expected2);
        assert_eq!(rels2[1].len(), 2);
    }
}
