//! A small in-memory relational engine — the execution substrate for the
//! paper's queries.
//!
//! The paper reasons about *universal relation (UR) databases*: collections
//! `D = {π_R(I) | R ∈ D}` of projections of a single universal relation `I`,
//! queried with natural joins (`⋈`), projections (`π_X`) and semijoins
//! (`⋉`, where `R ⋉ S ≝ π_R(R ⋈ S)`). This crate implements exactly that
//! algebra:
//!
//! * [`Relation`] — a set of tuples over an attribute set, with `⋈`, `π`,
//!   `⋉`, set operations, and [`Relation::join_all`], the one-pass join of a
//!   whole relation list over row ids;
//! * [`DbState`] — a database state: one relation per relation schema of a
//!   [`DbSchema`](gyo_schema::DbSchema);
//! * [`universal`] — universal relations, the join-of-projections operator
//!   `m_D` (the chase for join dependencies), and join-dependency
//!   satisfaction `I ⊨ ⋈D`;
//! * [`exec`] — precompiled semijoin steps ([`SemijoinStep`]) and the
//!   selection-vector [`semijoin_program_with`] executor used by the cached
//!   full-reducer engine, in two halves: [`semijoin_select`] runs steps
//!   over selections alone, [`semijoin_gather`] materializes the slots a
//!   caller asks for;
//! * [`kernels`] — the columnar kernel layer: gather projection, the
//!   chunked branchless [`SelVec::retain`] probe kernel, the
//!   generation-stamped [`kernels::StampTable`], and packed row sorting.
//!
//! # Flat row-major storage
//!
//! Every [`Relation`] keeps its tuples in **one flat `Vec<u64>` buffer**
//! with stride = arity: row `i` lives at `data[i·arity..(i+1)·arity]` and
//! is read as a `&[u64]` slice ([`Relation::row`], [`Relation::rows`],
//! [`Relation::data`]). Normalization (sort + dedup) runs directly on the
//! flat buffer with stride-aware comparison, and every operator —
//! projection, hash join, semijoin, union, the batched mask executor —
//! both reads and writes flat buffers, so **no operator allocates per
//! row**. The buffer is `Arc`-shared: cloning a relation is O(1), and
//! clones share the storage *and* the lazily built derivation caches
//! (column positions, hash-join build tables, packed key columns).
//!
//! Nested tuple vectors appear in exactly two places, both boundaries: the
//! ergonomic constructor [`Relation::new`] (input conversion) and the test
//! shim [`Relation::to_vecs`] (assertion output). Use
//! [`Relation::from_row_major`] everywhere performance matters; the nested
//! forms are acceptable only in tests, doc examples, and one-off input
//! conversion — never inside operators, engines, or generators.
//!
//! # Columnar kernels and the SelVec execution model
//!
//! On top of the flat layout sits the [`kernels`] layer: projection moves
//! values in column-strided blocks ([`kernels::ColumnarView::gather_into`]),
//! join outputs are assembled column-at-a-time over a matched-pair list,
//! and compiled semijoin programs filter through reusable [`SelVec`]
//! **selection vectors** (`u32` survivor indices plus a generation-stamped
//! bitset). The [`semijoin_program_with`] executor threads one `SelVec` per
//! relation slot through an entire full-reducer program: no intermediate
//! relation is materialized (a caller that reads only some slots gathers
//! only those) and, with its caller-owned
//! [`exec::ExecScratch`] kept across calls, no step allocates after
//! warm-up. Every step, whatever its key width, filters through the one
//! kernel [`SelVec::retain`], in fixed-size chunks with branchless mask
//! accumulation.
//!
//! Row-at-a-time execution remains in exactly the places where a column
//! decomposition has nothing to offer: hash-*building* (`KeyIndex`
//! construction walks rows twice, counting then placing row ids), the one
//! hash-table probe `KeyIndex::probe` (it reads each probe row's key through
//! a caller's `(row, key col) → value` reader; `natural_join`, where match
//! fan-out is data-dependent, the one-shot [`Relation::semijoin`] filter,
//! [`Relation::is_subset`] and the row-id list join [`Relation::join_all`]
//! all call it), normalization of rows whose values are too wide to pack
//! into `u64`/`u128` scalars ([`kernels::sort_dedup_packed`] falls back to
//! an index-permutation sort), and the `Vec<Vec<u64>>` boundary shims.
//!
//! The hot paths are cache-assisted: every [`Relation`] lazily memoizes, per
//! key attribute set, its column positions and its hash-join build table, so
//! repeated joins and semijoins against the same relation (or clones of it)
//! skip the rebuild. A build table is laid out in compressed sparse rows:
//! a map from each distinct key to the `(start, len)` range of its bucket
//! in one `Vec<u32>` of row ids — two allocations per table, none per key
//! (wide keys are still boxed once per distinct key).
//!
//! Values are plain `u64`; the library's semantic oracles only need equality
//! on values, never arithmetic or ordering semantics.

#![warn(missing_docs)]

pub mod database;
pub mod exec;
pub mod kernels;
pub mod relation;
pub mod universal;

pub use database::DbState;
pub use exec::{
    semijoin_gather, semijoin_program_with, semijoin_select, ExecScratch, SemijoinStep,
};
pub use kernels::{ColumnarView, SelVec};
pub use relation::Relation;
pub use universal::{join_of_projections, satisfies_jd};
