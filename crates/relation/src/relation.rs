//! Relations (sets of tuples) and the natural-join algebra.
//!
//! # Storage layout
//!
//! A [`Relation`] stores its tuples in a **single flat row-major buffer**:
//! one `Vec<u64>` holding `len · arity` values, where row `i` occupies
//! `data[i·arity .. (i+1)·arity]` (the stride is the arity). There is no
//! per-tuple allocation anywhere on the operator paths — rows are read as
//! `&[u64]` slices straight out of the buffer ([`Relation::row`],
//! [`Relation::rows`]), and `project`/`natural_join`/`semijoin`/`union`
//! write their outputs into flat buffers, pre-sized wherever the output
//! size is bounded up front (joins grow theirs — the output size is not
//! knowable in advance).
//!
//! The buffer is normalized (rows strictly increasing in lexicographic
//! order, duplicates removed) at construction, so equality is set equality
//! and binary search works on row indices. Normalization itself is
//! stride-aware and allocation-free per row: width-1 rows sort as scalars,
//! wider rows pack into `u64`/`u128` scalars whenever their values fit
//! (always at width 2), and only rows too wide to pack sort through an
//! index permutation.
//!
//! The buffer sits behind an `Arc`, so cloning a relation is O(1) and all
//! clones share both the tuple storage and the lazily built derivation
//! caches (column positions, hash-join build tables, flat key columns).
//! Build tables (`KeyIndex`) are compressed sparse rows: each distinct key
//! maps to a range of one shared `u32` row-id array, so no key owns a
//! `Vec`. [`Relation::join_all`] joins a whole list over those row ids and
//! writes its tuples once, at the end.
//!
//! The only nested-vector conversions left are **boundaries**:
//! [`Relation::new`] accepts nested vectors for ergonomic construction, and
//! [`Relation::to_vecs`] materializes them for test assertions. Neither is
//! acceptable on a hot path — operators and engines must stay on the flat
//! buffer.

use std::fmt;
use std::hash::Hash;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use gyo_schema::{AttrId, AttrSet, Catalog, FxHashMap};

use crate::kernels::{self, ColumnarView, SelVec};

/// Packs a width-2 key into one scalar. The first column lands in the high
/// half, so `u128` ordering equals lexicographic key ordering — every
/// width-2 build and probe site must agree on this encoding.
#[inline]
fn pack2(a: u64, b: u64) -> u128 {
    (a as u128) << 64 | b as u128
}

/// Row ids (in build tables, join pair lists and [`Relation::join_all`]'s
/// accumulator) are `u32`: every relation they index must fit.
#[inline]
fn assert_row_ids_fit(len: usize) {
    assert!(
        len <= u32::MAX as usize,
        "pair indices are u32; row counts must fit (cf. SelVec::reset)"
    );
}

/// A hash index over one key-attribute set, in compressed-sparse-row
/// layout: a map from each distinct key (values in [`AttrSet`] column
/// order) to the `(start, len)` range of its bucket in one shared `u32`
/// row-id array. Buckets list their rows in ascending order. Keys of width
/// ≤ 2 pack exactly into scalars, so the whole table is two allocations
/// (map and row ids) for any row count; wider keys are boxed once per
/// *distinct* key, never per tuple.
#[derive(Debug)]
pub(crate) struct KeyIndex {
    map: KeyMap,
    /// Row ids grouped by key, each bucket ascending.
    rows: Vec<u32>,
}

/// A bucket of a [`KeyIndex`]: the `(start, len)` range of its row ids.
type Bucket = (u32, u32);

/// A [`KeyIndex`]'s key → bucket map, by key width.
#[derive(Debug)]
enum KeyMap {
    /// Width-0 key: every tuple carries the empty key (one bucket: all rows).
    Empty,
    /// Width-1 key.
    One(FxHashMap<u64, Bucket>),
    /// Width-2 key, packed into one `u128`.
    Two(FxHashMap<u128, Bucket>),
    /// Width ≥ 3 (rare in tree schemas): the width, and the map.
    Wide(usize, FxHashMap<Box<[u64]>, Bucket>),
}

/// Builds a CSR table in two passes over `n` rows: count each key's rows,
/// turn the counts into bucket starts, then drop every row id into its
/// bucket. Rows are visited in ascending order, so buckets come out sorted.
fn csr<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> K) -> (FxHashMap<K, Bucket>, Vec<u32>) {
    let mut map: FxHashMap<K, Bucket> = FxHashMap::default();
    for i in 0..n {
        map.entry(key(i)).or_insert((0, 0)).1 += 1;
    }
    let mut start = 0u32;
    for bucket in map.values_mut() {
        let count = bucket.1;
        *bucket = (start, 0);
        start += count;
    }
    let mut rows = vec![0u32; n];
    for i in 0..n {
        let bucket = map.get_mut(&key(i)).expect("counted in pass one");
        rows[(bucket.0 + bucket.1) as usize] = i as u32;
        bucket.1 += 1;
    }
    (map, rows)
}

impl KeyIndex {
    /// The build table over `rel`'s key columns `pos`.
    fn build(rel: &Relation, pos: &[usize]) -> Self {
        assert_row_ids_fit(rel.len);
        let (n, arity, data) = (rel.len, rel.arity, &rel.data[..]);
        let (map, rows) = match *pos {
            [] => (KeyMap::Empty, (0..n as u32).collect()),
            [p] => {
                let (map, rows) = csr(n, |i| data[i * arity + p]);
                (KeyMap::One(map), rows)
            }
            [p, q] => {
                let (map, rows) = csr(n, |i| pack2(data[i * arity + p], data[i * arity + q]));
                (KeyMap::Two(map), rows)
            }
            _ => {
                // Extract the keys flat first, so both passes hash borrowed
                // slices; only the distinct keys are boxed afterwards.
                let w = pos.len();
                let mut keys = Vec::with_capacity(n * w);
                for t in rel.rows() {
                    keys.extend(pos.iter().map(|&p| t[p]));
                }
                let (map, rows) = csr(n, |i| &keys[i * w..(i + 1) * w]);
                let map = map.into_iter().map(|(k, b)| (k.into(), b)).collect();
                (KeyMap::Wide(w, map), rows)
            }
        };
        KeyIndex { map, rows }
    }

    /// The one probe over a build table, and the only place its width is
    /// matched on the probe side. For each probe row `i` in `0..n`, reads
    /// its key through `key(i, k)` (the value of key column `k`, in the
    /// build key's column order) and calls `f(i, hit)`: `hit` is the bucket
    /// of build rows sharing that key ([`KeyIndex::rows`] lists them; the
    /// empty key's bucket holds every row), or `None` on a miss. Callers
    /// that only test membership never read the rows, so a miss or a hit
    /// costs one hash lookup. `f` is called from one place, so it inlines
    /// into the loop. Stops at the first `false` from `f`; returns whether
    /// every call returned `true`.
    fn probe(
        &self,
        n: usize,
        key: impl Fn(usize, usize) -> u64,
        mut f: impl FnMut(usize, Option<&Bucket>) -> bool,
    ) -> bool {
        let all = (0, self.rows.len() as u32);
        let mut wide: Vec<u64> = Vec::new();
        for i in 0..n {
            let hit = match &self.map {
                KeyMap::Empty => (!self.rows.is_empty()).then_some(&all),
                KeyMap::One(map) => map.get(&key(i, 0)),
                KeyMap::Two(map) => map.get(&pack2(key(i, 0), key(i, 1))),
                KeyMap::Wide(w, map) => {
                    wide.resize(*w, 0);
                    for (c, v) in wide.iter_mut().enumerate() {
                        *v = key(i, c);
                    }
                    map.get(wide.as_slice())
                }
            };
            if !f(i, hit) {
                return false;
            }
        }
        true
    }

    /// The build rows of a bucket [`KeyIndex::probe`] handed out, ascending.
    #[inline]
    fn rows(&self, &(start, len): &Bucket) -> &[u32] {
        &self.rows[start as usize..(start + len) as usize]
    }
}

/// Lazily built per-relation derivations, keyed by the [`AttrSet`] they were
/// derived for: column positions (for projections and semijoin probes),
/// hash-join build tables (for `⋈`/`⋉` against this relation) and flat key
/// columns (for the semijoin program executor).
///
/// A [`Relation`]'s attribute set and tuples never change after
/// construction, so cached derivations stay valid for the relation's whole
/// life; clones share the cache (same tuples ⟹ same derivations). The cache
/// is invisible to equality and never allocated until first use.
#[derive(Default)]
struct RelCache {
    slot: OnceLock<Arc<Mutex<CacheInner>>>,
}

#[derive(Default)]
struct CacheInner {
    positions: FxHashMap<AttrSet, Arc<Vec<usize>>>,
    builds: FxHashMap<AttrSet, Arc<KeyIndex>>,
    columns: FxHashMap<AttrSet, Arc<KeyColumn>>,
}

/// A relation's key values over one key-attribute set, extracted into flat,
/// cache-friendly storage (row `i` of the column is tuple `i`'s key). Keys
/// of width ≤ 2 pack exactly into scalars and wider keys live in one packed
/// side buffer (stride = key width), so the batched executor's inner loops
/// never chase per-tuple heap pointers — there is no `Vec<u64>` per row for
/// any key width.
#[derive(Debug)]
pub(crate) enum KeyColumn {
    /// Width-0 key: every tuple has the empty key.
    Empty,
    /// Width-1 key: the single key value per tuple, with the value range
    /// precomputed (the batched executor arms its stamp table from the
    /// range without rescanning the column).
    One {
        /// The key value per tuple.
        vals: Vec<u64>,
        /// Smallest key (0 for an empty relation).
        min: u64,
        /// Largest key (0 for an empty relation).
        max: u64,
    },
    /// Width-2 key: both values packed into one `u128` per tuple.
    Two(Vec<u128>),
    /// Width ≥ 3: keys packed row-major into one flat buffer
    /// (`keys[i·width .. (i+1)·width]` is tuple `i`'s key).
    Wide {
        /// Key width (≥ 3).
        width: usize,
        /// Packed key values, `len · width` of them.
        keys: Vec<u64>,
    },
}

impl KeyColumn {
    fn extract(rel: &Relation, pos: &[usize]) -> Self {
        match *pos {
            [] => KeyColumn::Empty,
            [p] => {
                let vals: Vec<u64> = rel.rows().map(|t| t[p]).collect();
                let min = vals.iter().copied().min().unwrap_or(0);
                let max = vals.iter().copied().max().unwrap_or(0);
                KeyColumn::One { vals, min, max }
            }
            [p, q] => KeyColumn::Two(rel.rows().map(|t| pack2(t[p], t[q])).collect()),
            _ => {
                let mut keys = Vec::with_capacity(rel.len * pos.len());
                for t in rel.rows() {
                    keys.extend(pos.iter().map(|&p| t[p]));
                }
                KeyColumn::Wide {
                    width: pos.len(),
                    keys,
                }
            }
        }
    }
}

impl RelCache {
    /// Locks the shared maps. A panic while the lock was held cannot leave
    /// a map half-written (each insert is one call), so a poisoned lock is
    /// simply taken over.
    fn lock(&self) -> MutexGuard<'_, CacheInner> {
        self.slot
            .get_or_init(Arc::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

impl Clone for RelCache {
    fn clone(&self) -> Self {
        // Force the slot into existence before sharing: a clone taken
        // *before* the first derivation must still share later fills with
        // the original (the engines clone state relations up front and
        // rely on the originals accumulating the key columns — an
        // uninitialized-slot clone would silently fork the cache and
        // rebuild every derivation on every call).
        let cache = RelCache::default();
        let _ = cache
            .slot
            .set(Arc::clone(self.slot.get_or_init(Arc::default)));
        cache
    }
}

/// A relation state: a *set* of tuples over an attribute set, stored
/// row-major in one flat buffer (see the [module docs](self) for the
/// layout).
///
/// Column order follows the sorted order of [`AttrSet`] ids; rows are kept
/// sorted and deduplicated, so equality is set equality and all operations
/// are deterministic.
///
/// The degenerate relations over the empty attribute set follow standard
/// convention: `{}` (the empty relation, a join annihilator) and `{()}` (the
/// single empty tuple, the join identity).
///
/// # Examples
///
/// ```
/// use gyo_schema::{AttrSet, Catalog};
/// use gyo_relation::Relation;
///
/// let mut cat = Catalog::alphabetic();
/// let ab = AttrSet::parse("ab", &mut cat).unwrap();
/// let bc = AttrSet::parse("bc", &mut cat).unwrap();
/// let r = Relation::new(ab, vec![vec![1, 10], vec![2, 20]]);
/// let s = Relation::new(bc, vec![vec![10, 100], vec![30, 300]]);
/// let j = r.natural_join(&s);
/// assert_eq!(j.len(), 1); // only b=10 matches
/// assert_eq!(j.row(0), &[1, 10, 100]);
/// ```
pub struct Relation {
    attrs: AttrSet,
    /// Tuple width (= `attrs.len()`), the buffer stride.
    arity: usize,
    /// Row count. Kept separately from the buffer because arity-0
    /// relations (`{}` vs `{()}`) have no data to count rows from.
    len: usize,
    /// Row-major tuple values, `len · arity` of them, rows strictly
    /// increasing. Shared by clones.
    data: Arc<Vec<u64>>,
    cache: RelCache,
}

impl Clone for Relation {
    fn clone(&self) -> Self {
        Self {
            attrs: self.attrs.clone(),
            arity: self.arity,
            len: self.len,
            data: Arc::clone(&self.data),
            cache: self.cache.clone(),
        }
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        self.attrs == other.attrs
            && self.len == other.len
            && (Arc::ptr_eq(&self.data, &other.data) || self.data == other.data)
    }
}

impl Eq for Relation {}

/// Iterator over a relation's rows as `&[u64]` slices of the flat buffer
/// (see [`Relation::rows`]).
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    data: &'a [u64],
    arity: usize,
    front: usize,
    back: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u64];

    #[inline]
    fn next(&mut self) -> Option<&'a [u64]> {
        if self.front == self.back {
            return None;
        }
        let i = self.front;
        self.front += 1;
        Some(if self.arity == 0 {
            &[]
        } else {
            &self.data[i * self.arity..(i + 1) * self.arity]
        })
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.back - self.front;
        (n, Some(n))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// Sorts and deduplicates a row-major buffer in place (stride-aware);
/// returns the surviving row count and buffer. Detects the already-sorted
/// common case with one linear scan, sorts width-1 rows as scalars, packs
/// wider rows into `u64`/`u128` scalars whenever the value bits fit (see
/// [`kernels::sort_dedup_packed`]; width-2 rows always fit), and only falls
/// back to an index permutation for genuinely wide rows — no per-row heap
/// allocation for any arity.
fn normalize(arity: usize, rows: usize, mut data: Vec<u64>) -> (usize, Vec<u64>) {
    if arity == 0 {
        // All empty tuples are equal: the set has at most one element.
        return (rows.min(1), data);
    }
    debug_assert_eq!(data.len(), rows * arity);
    let row = |i: usize| &data[i * arity..(i + 1) * arity];
    if (1..rows).all(|i| row(i - 1) < row(i)) {
        return (rows, data);
    }
    match arity {
        1 => {
            data.sort_unstable();
            data.dedup();
            (data.len(), data)
        }
        _ => {
            // Columnar fast path: rows whose values fit pack into scalars
            // and sort as machine words.
            let data = match kernels::sort_dedup_packed(arity, rows, data) {
                Ok(done) => return done,
                Err(data) => data,
            };
            // Row-at-a-time fallback (values too wide to pack): sort an
            // index permutation, then gather the surviving rows.
            let mut idx: Vec<usize> = (0..rows).collect();
            idx.sort_unstable_by(|&a, &b| {
                data[a * arity..(a + 1) * arity].cmp(&data[b * arity..(b + 1) * arity])
            });
            idx.dedup_by(|a, b| {
                data[*a * arity..(*a + 1) * arity] == data[*b * arity..(*b + 1) * arity]
            });
            let mut out = Vec::with_capacity(idx.len() * arity);
            for i in idx {
                out.extend_from_slice(&data[i * arity..(i + 1) * arity]);
            }
            (out.len() / arity, out)
        }
    }
}

impl Relation {
    /// Creates a relation from nested tuple vectors, validating arity and
    /// normalizing (sort + dedup). This is the ergonomic **boundary**
    /// constructor; hot paths should build flat buffers and use
    /// [`Relation::from_row_major`] instead.
    ///
    /// # Panics
    ///
    /// Panics if any tuple's arity differs from `attrs.len()`.
    pub fn new(attrs: AttrSet, tuples: Vec<Vec<u64>>) -> Self {
        let arity = attrs.len();
        let mut data = Vec::with_capacity(tuples.len() * arity);
        for t in &tuples {
            assert_eq!(
                t.len(),
                arity,
                "tuple arity {} does not match schema arity {}",
                t.len(),
                arity
            );
            data.extend_from_slice(t);
        }
        Self::from_row_major(attrs, tuples.len(), data)
    }

    /// Creates a relation from a flat row-major buffer of `rows · arity`
    /// values (row `i` at `data[i·arity..(i+1)·arity]`), normalizing
    /// (sort + dedup) with stride-aware comparison — the zero-per-row-
    /// allocation constructor every operator output goes through.
    ///
    /// For `attrs = ∅` the buffer is empty and `rows` alone distinguishes
    /// `{}` (`rows == 0`) from `{()}` (`rows ≥ 1`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * attrs.len()`.
    pub fn from_row_major(attrs: AttrSet, rows: usize, data: Vec<u64>) -> Self {
        assert_eq!(
            data.len(),
            rows * attrs.len(),
            "flat buffer length {} does not match {} rows of arity {}",
            data.len(),
            rows,
            attrs.len()
        );
        let (len, data) = normalize(attrs.len(), rows, data);
        Self {
            arity: attrs.len(),
            attrs,
            len,
            data: Arc::new(data),
            cache: RelCache::default(),
        }
    }

    /// Internal constructor for a buffer already sorted and deduplicated.
    fn from_normalized(attrs: AttrSet, len: usize, data: Vec<u64>) -> Self {
        let arity = attrs.len();
        debug_assert_eq!(data.len(), len * arity);
        debug_assert!(
            arity == 0
                || (1..len)
                    .all(|i| data[(i - 1) * arity..i * arity] < data[i * arity..(i + 1) * arity]),
            "not normalized"
        );
        debug_assert!(arity != 0 || len <= 1, "arity-0 relations hold ≤ 1 row");
        Self {
            arity,
            attrs,
            len,
            data: Arc::new(data),
            cache: RelCache::default(),
        }
    }

    /// The empty relation over `attrs` (no tuples).
    pub fn empty(attrs: AttrSet) -> Self {
        Self::from_normalized(attrs, 0, Vec::new())
    }

    /// The join identity: the relation over `∅` holding the single empty
    /// tuple.
    pub fn identity() -> Self {
        Self::from_normalized(AttrSet::empty(), 1, Vec::new())
    }

    /// The relation's attribute set.
    #[inline]
    pub fn attrs(&self) -> &AttrSet {
        &self.attrs
    }

    /// Tuple width — the number of columns, and the stride of the flat
    /// buffer.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Row `i` as a slice of the flat buffer (column order = sorted
    /// [`AttrSet`] order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u64] {
        assert!(i < self.len, "row {} out of range ({} rows)", i, self.len);
        if self.arity == 0 {
            &[]
        } else {
            &self.data[i * self.arity..(i + 1) * self.arity]
        }
    }

    /// Iterates the normalized rows as `&[u64]` slices — the zero-copy
    /// replacement for the old `&[Vec<u64>]` accessor.
    #[inline]
    pub fn rows(&self) -> Rows<'_> {
        Rows {
            data: &self.data,
            arity: self.arity,
            front: 0,
            back: self.len,
        }
    }

    /// The raw flat row-major buffer (`len() · arity()` values, rows
    /// strictly increasing). Useful for bulk transfers into new flat
    /// buffers without per-row indirection.
    #[inline]
    pub fn data(&self) -> &[u64] {
        &self.data
    }

    /// Materializes the rows as nested vectors. **Test/assert boundary
    /// shim only** — one heap allocation per row, exactly what the flat
    /// layout exists to avoid; never call this on an operator or engine
    /// path.
    pub fn to_vecs(&self) -> Vec<Vec<u64>> {
        self.rows().map(<[u64]>::to_vec).collect()
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation holds no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Membership test (`tuple` in column order): an allocation-free binary
    /// search over the sorted rows.
    pub fn contains(&self, tuple: &[u64]) -> bool {
        if self.arity == 0 {
            return tuple.is_empty() && self.len > 0;
        }
        if tuple.len() != self.arity {
            return false; // a tuple of the wrong width is never a member
        }
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.row(mid).cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return true,
            }
        }
        false
    }

    /// Positions (column indices) of `attrs` within this relation's columns.
    ///
    /// # Panics
    ///
    /// Panics if some attribute is not part of this relation.
    fn positions_of(&self, attrs: &AttrSet) -> Vec<usize> {
        attrs
            .iter()
            .map(|a| {
                self.attrs
                    .as_slice()
                    .binary_search(&a)
                    .expect("attribute not in relation schema")
            })
            .collect()
    }

    /// The one derivation-cache accessor: the value `map` holds for `key`,
    /// or `derive()`'s, cached for every later call on this relation and its
    /// clones. The derivation runs outside the lock: it is pure, so a racing
    /// caller at worst duplicates work, and the first insert wins.
    fn derived<T>(
        &self,
        key: &AttrSet,
        map: fn(&mut CacheInner) -> &mut FxHashMap<AttrSet, Arc<T>>,
        derive: impl FnOnce() -> T,
    ) -> Arc<T> {
        if let Some(hit) = map(&mut self.cache.lock()).get(key) {
            return Arc::clone(hit);
        }
        let value = Arc::new(derive());
        Arc::clone(
            map(&mut self.cache.lock())
                .entry(key.clone())
                .or_insert(value),
        )
    }

    /// Cached [`Self::positions_of`].
    pub(crate) fn positions_cached(&self, attrs: &AttrSet) -> Arc<Vec<usize>> {
        self.derived(attrs, |c| &mut c.positions, || self.positions_of(attrs))
    }

    /// The key reader [`KeyIndex::probe`] takes, over this relation's key
    /// columns `pos`: `(row, key col) → value`, straight off the flat buffer.
    /// The first two positions are copied by value, because the narrow
    /// probe arms read only those: the copy stays in registers, where the
    /// cached `pos` would be reloaded on every row (a probe callback writes
    /// memory the compiler cannot tell apart from it).
    #[inline]
    fn key_reader<'a>(&'a self, pos: &'a [usize]) -> impl Fn(usize, usize) -> u64 + 'a {
        let (data, arity) = (&self.data[..], self.arity);
        let head = [pos.first(), pos.get(1)].map(|p| p.copied().unwrap_or(0));
        move |i, k| data[i * arity + if k < 2 { head[k] } else { pos[k] }]
    }

    /// The cached hash-join build table over `key ⊆ attrs(self)` (see
    /// [`KeyIndex`]), reused by every join and semijoin against this
    /// relation or its clones.
    pub(crate) fn key_index(&self, key: &AttrSet) -> Arc<KeyIndex> {
        self.derived(
            key,
            |c| &mut c.builds,
            || KeyIndex::build(self, &self.positions_of(key)),
        )
    }

    /// The cached flat key column over `key ⊆ attrs(self)` (see
    /// [`KeyColumn`]) that the semijoin program executor reads.
    pub(crate) fn key_column(&self, key: &AttrSet) -> Arc<KeyColumn> {
        self.derived(
            key,
            |c| &mut c.columns,
            || KeyColumn::extract(self, &self.positions_of(key)),
        )
    }

    /// A columnar view of the flat buffer (the kernel layer's window onto
    /// this relation's storage).
    #[inline]
    pub fn columns_view(&self) -> ColumnarView<'_> {
        ColumnarView::new(&self.data, self.arity, self.len)
    }

    /// The relation restricted to the rows a [`SelVec`] selected. Returns a
    /// plain clone when everything survives. Surviving rows are gathered
    /// contiguously (selection order is ascending), so no re-normalization
    /// happens.
    pub(crate) fn gather_selected(&self, sel: &SelVec) -> Relation {
        debug_assert!(sel.len() <= self.len);
        if sel.len() == self.len {
            return self.clone();
        }
        let mut data = Vec::with_capacity(sel.len() * self.arity);
        kernels::gather_rows(&self.data, self.arity, sel, &mut data);
        Relation::from_normalized(self.attrs.clone(), sel.len(), data)
    }

    /// Projection `π_X(self)`, via the gather kernel: the column-index map
    /// is computed once (and cached per `AttrSet`), then values move in
    /// column-strided blocks — no per-row scatter loop.
    ///
    /// # Panics
    ///
    /// Panics if `x ⊄ attrs`; the paper always projects onto subsets.
    pub fn project(&self, x: &AttrSet) -> Relation {
        assert!(
            x.is_subset(&self.attrs),
            "projection target must be a subset of the relation schema"
        );
        if *x == self.attrs {
            return self.clone();
        }
        let pos = self.positions_cached(x);
        let mut data = Vec::with_capacity(self.len * pos.len());
        self.columns_view().gather_into(&pos, &mut data);
        Relation::from_row_major(x.clone(), self.len, data)
    }

    /// Natural join `self ⋈ other` (a cross product when the schemas are
    /// disjoint). Hash join on the shared attributes, building on the
    /// smaller side. The probe phase collects matching `(probe, build)` row
    /// pairs; the output buffer is then assembled **column-at-a-time** over
    /// the pair list (one tight gather loop per output column) instead of a
    /// per-value scatter inside the probe loop.
    pub fn natural_join(&self, other: &Relation) -> Relation {
        let (build, probe) = if self.len <= other.len {
            (self, other)
        } else {
            (other, self)
        };
        let shared = build.attrs.intersect(&probe.attrs);
        let out_attrs = build.attrs.union(&probe.attrs);
        let out_arity = out_attrs.len();

        // Output column map: each output column reads either from the probe
        // side or from the build side, at a fixed position.
        let mut probe_cols: Vec<(usize, usize)> = Vec::new(); // (out col, probe pos)
        let mut build_cols: Vec<(usize, usize)> = Vec::new(); // (out col, build pos)
        for (j, a) in out_attrs.iter().enumerate() {
            match probe.attrs.as_slice().binary_search(&a) {
                Ok(p) => probe_cols.push((j, p)),
                Err(_) => build_cols.push((
                    j,
                    build
                        .attrs
                        .as_slice()
                        .binary_search(&a)
                        .expect("output attr comes from one side"),
                )),
            }
        }

        let table = build.key_index(&shared);
        let probe_key = probe.positions_cached(&shared);

        // Probe phase: stream matching row pairs into a bounded block
        // buffer, flushing each full block through the column-at-a-time
        // assembly kernel. Probe keys are read straight off the flat buffer
        // in one streaming pass — extracting a key column here would cost an
        // extra pass over the probe side, which one-shot joins never earn
        // back. The block bound keeps huge join outputs from materializing a
        // full pair list before assembly.
        assert_row_ids_fit(probe.len);
        assert_row_ids_fit(build.len);
        const FLUSH: usize = kernels::CHUNK * 16;
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(FLUSH);
        let mut data: Vec<u64> = Vec::new();
        let mut rows = 0usize;
        let mut flush = |pairs: &mut Vec<(u32, u32)>, data: &mut Vec<u64>| {
            rows += pairs.len();
            kernels::gather_pairs(
                &probe.data,
                probe.arity,
                &build.data,
                build.arity,
                &probe_cols,
                &build_cols,
                pairs,
                out_arity,
                data,
            );
            pairs.clear();
        };
        table.probe(probe.len, probe.key_reader(&probe_key), |pi, hit| {
            if let Some(bucket) = hit {
                for &bi in table.rows(bucket) {
                    pairs.push((pi as u32, bi));
                }
                if pairs.len() >= FLUSH {
                    flush(&mut pairs, &mut data);
                }
            }
            true
        });
        flush(&mut pairs, &mut data);
        debug_assert_eq!(data.len(), rows * out_arity);
        Relation::from_row_major(out_attrs, rows, data)
    }

    /// The natural join of a whole list, `rels[0] ⋈ rels[1] ⋈ …` — equal to
    /// the left fold of [`Relation::natural_join`] from
    /// [`Relation::identity`], but computed over **row ids** in one
    /// left-deep pass.
    ///
    /// The accumulator holds, per partial result, one `u32` row id for each
    /// relation that contributed new attributes so far. Step `i` reads each
    /// partial result's key values through those ids and probes `rels[i]`'s
    /// own cached build table over `Rᵢ ∩ (earlier attributes)`, so on warm
    /// relations no table is rebuilt; a relation whose attributes are all
    /// earlier ones is a pure filter and adds no id. The tuples are
    /// materialized and normalized once, at the end. No duplicates can
    /// arise: every input is a set, so distinct id combinations give
    /// distinct joined tuples. An empty intermediate ends the pass early.
    ///
    /// # Panics
    ///
    /// Panics if some relation has more rows than a `u32` row id can name.
    pub fn join_all(rels: &[Relation]) -> Relation {
        for r in rels {
            assert_row_ids_fit(r.len);
        }
        // Where each joined attribute is read from: its slot in the id
        // rows, and the contributing relation's buffer, arity and column.
        let mut source: FxHashMap<AttrId, (usize, &[u64], usize, usize)> = FxHashMap::default();
        let mut seen = AttrSet::empty();
        let (mut ids, mut next): (Vec<u32>, Vec<u32>) = (Vec::new(), Vec::new());
        let (mut width, mut n) = (0usize, 1usize); // {()}: one empty partial result
        for r in rels {
            let key = r.attrs.intersect(&seen);
            let reads: Vec<_> = key.iter().map(|a| source[&a]).collect();
            let adds = key.len() < r.arity;
            let mut matched = 0usize;
            next.clear();
            let index = r.key_index(&key);
            index.probe(
                n,
                |i, k| {
                    let (slot, data, arity, col) = reads[k];
                    data[ids[i * width + slot] as usize * arity + col]
                },
                |i, hit| {
                    for &b in hit.map_or(&[][..], |bucket| index.rows(bucket)) {
                        next.extend_from_slice(&ids[i * width..(i + 1) * width]);
                        if adds {
                            next.push(b);
                        }
                        matched += 1;
                    }
                    true
                },
            );
            std::mem::swap(&mut ids, &mut next);
            n = matched;
            if n == 0 {
                let all = rels.iter().fold(seen, |acc, r| acc.union(&r.attrs));
                return Relation::empty(all);
            }
            if adds {
                for (col, a) in r.attrs.iter().enumerate() {
                    source.entry(a).or_insert((width, &r.data, r.arity, col));
                }
                width += 1;
            }
            seen = seen.union(&r.attrs);
        }
        let out_arity = seen.len();
        let mut data = vec![0u64; n * out_arity];
        for (j, a) in seen.iter().enumerate() {
            let (slot, src, arity, col) = source[&a];
            for (i, row) in ids.chunks_exact(width).enumerate() {
                data[i * out_arity + j] = src[row[slot] as usize * arity + col];
            }
        }
        Relation::from_row_major(seen, n, data)
    }

    /// Natural semijoin `self ⋉ other = π_self(self ⋈ other)`, computed
    /// directly by filtering (no join materialization): one row-at-a-time
    /// probe of `other`'s cached build table keeps the matching tuples,
    /// written contiguously into one pre-sized flat buffer (filtering
    /// preserves normalization). Repeated semijoins against the same
    /// relation reuse its build.
    pub fn semijoin(&self, other: &Relation) -> Relation {
        let shared = self.attrs.intersect(&other.attrs);
        if self.len == 0 || (shared.is_empty() && other.len > 0) {
            return self.clone(); // ∅ ⋉ S = ∅; R ⋉ S = R for a disjoint, nonempty S
        }
        let index = other.key_index(&shared);
        // The output is bounded by the input; reserving the bound up front
        // avoids doubling reallocations, and a highly selective filter
        // gives the excess back.
        let mut data: Vec<u64> = Vec::with_capacity(self.len * self.arity);
        let mut kept = 0usize;
        let pos = self.positions_cached(&shared);
        let (rows, arity) = (&self.data[..], self.arity);
        index.probe(self.len, self.key_reader(&pos), |i, hit| {
            if hit.is_some() {
                data.extend_from_slice(&rows[i * arity..(i + 1) * arity]);
                kept += 1;
            }
            true
        });
        if data.capacity() > 2 * data.len() {
            data.shrink_to_fit();
        }
        Relation::from_normalized(self.attrs.clone(), kept, data)
    }

    /// Set union of two relations over the same attribute set, computed as
    /// a sorted merge of the two flat buffers (both inputs are normalized).
    ///
    /// # Panics
    ///
    /// Panics if the attribute sets differ.
    pub fn union(&self, other: &Relation) -> Relation {
        assert_eq!(self.attrs, other.attrs, "union requires equal schemas");
        let mut data = Vec::with_capacity((self.len + other.len) * self.arity);
        let mut rows = 0usize;
        let mut a = self.rows().peekable();
        let mut b = other.rows().peekable();
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => match x.cmp(y) {
                    std::cmp::Ordering::Less => true,
                    std::cmp::Ordering::Greater => false,
                    std::cmp::Ordering::Equal => {
                        b.next();
                        true
                    }
                },
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let t = if take_a { a.next() } else { b.next() }.expect("peeked");
            data.extend_from_slice(t);
            rows += 1;
        }
        Relation::from_normalized(self.attrs.clone(), rows, data)
    }

    /// Whether `self ⊆ other` as tuple sets (same attribute set required).
    /// Builds (or reuses) `other`'s full-attribute `KeyIndex` once and
    /// probes it with every row of `self`, stopping at the first miss: this
    /// is the assert-heavy repeated-check pattern the cached index exists
    /// for — one hash lookup per tuple.
    pub fn is_subset(&self, other: &Relation) -> bool {
        assert_eq!(self.attrs, other.attrs, "comparison requires equal schemas");
        if self.arity == 0 || self.is_empty() {
            return self.is_empty() || other.len > 0;
        }
        let index = other.key_index(&other.attrs);
        let pos = self.positions_cached(&self.attrs);
        index.probe(self.len, self.key_reader(&pos), |_, hit| hit.is_some())
    }

    /// Renders a small relation as an ASCII table for diagnostics.
    pub fn to_table(&self, cat: &Catalog) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let header: Vec<&str> = self.attrs.iter().map(|a| cat.name(a)).collect();
        writeln!(out, "| {} |", header.join(" | ")).expect("write to string");
        for t in self.rows() {
            let row: Vec<String> = t.iter().map(|v| v.to_string()).collect();
            writeln!(out, "| {} |", row.join(" | ")).expect("write to string");
        }
        out
    }

    /// The attribute ids in column order (sorted).
    pub fn columns(&self) -> &[AttrId] {
        self.attrs.as_slice()
    }
}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Relation({:?}, {} tuples)", self.attrs, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(raw: &[u32]) -> AttrSet {
        AttrSet::from_raw(raw)
    }

    #[test]
    fn construction_normalizes() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![2, 2], vec![1, 1], vec![2, 2]]);
        assert_eq!(r.to_vecs(), vec![vec![1, 1], vec![2, 2]]);
        assert!(r.contains(&[2, 2]));
        assert!(!r.contains(&[3, 3]));
    }

    #[test]
    fn flat_construction_matches_nested() {
        let nested = Relation::new(
            attrs(&[0, 1, 2]),
            vec![vec![3, 1, 2], vec![1, 1, 1], vec![3, 1, 2]],
        );
        let flat = Relation::from_row_major(attrs(&[0, 1, 2]), 3, vec![3, 1, 2, 1, 1, 1, 3, 1, 2]);
        assert_eq!(nested, flat);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.data(), &[1, 1, 1, 3, 1, 2]);
        assert_eq!(flat.arity(), 3);
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn arity_mismatch_panics() {
        Relation::new(attrs(&[0, 1]), vec![vec![1]]);
    }

    #[test]
    #[should_panic(expected = "flat buffer length")]
    fn flat_length_mismatch_panics() {
        Relation::from_row_major(attrs(&[0, 1]), 2, vec![1, 2, 3]);
    }

    #[test]
    fn rows_iterator_is_exact_and_flat() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![2, 20], vec![1, 10]]);
        let rows: Vec<&[u64]> = r.rows().collect();
        assert_eq!(rows, vec![&[1u64, 10][..], &[2, 20]]);
        assert_eq!(r.rows().len(), 2);
        assert_eq!(r.row(1), &[2, 20]);
    }

    #[test]
    fn arity_zero_rows() {
        let id = Relation::identity();
        assert_eq!(id.len(), 1);
        assert_eq!(id.rows().collect::<Vec<_>>(), vec![&[] as &[u64]]);
        assert!(id.contains(&[]));
        let nothing = Relation::empty(AttrSet::empty());
        assert_eq!(nothing.rows().count(), 0);
        assert!(!nothing.contains(&[]));
        // Many empty tuples collapse to the identity.
        let collapsed = Relation::new(AttrSet::empty(), vec![vec![], vec![], vec![]]);
        assert_eq!(collapsed, id);
    }

    #[test]
    fn projection_dedups() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![1, 20], vec![2, 10]]);
        let p = r.project(&attrs(&[0]));
        assert_eq!(p.to_vecs(), vec![vec![1], vec![2]]);
    }

    #[test]
    fn projection_onto_empty_set() {
        let r = Relation::new(attrs(&[0]), vec![vec![7]]);
        let p = r.project(&AttrSet::empty());
        assert_eq!(p, Relation::identity());
        let e = Relation::empty(attrs(&[0]));
        assert!(e.project(&AttrSet::empty()).is_empty());
    }

    #[test]
    fn join_on_shared_attribute() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![10, 100], vec![10, 101]]);
        let j = r.natural_join(&s);
        assert_eq!(j.attrs(), &attrs(&[0, 1, 2]));
        assert_eq!(j.to_vecs(), vec![vec![1, 10, 100], vec![1, 10, 101]]);
    }

    #[test]
    fn join_is_commutative() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20], vec![3, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![20, 9], vec![10, 8]]);
        assert_eq!(r.natural_join(&s), s.natural_join(&r));
    }

    #[test]
    fn disjoint_join_is_cross_product() {
        let r = Relation::new(attrs(&[0]), vec![vec![1], vec![2]]);
        let s = Relation::new(attrs(&[1]), vec![vec![10], vec![20]]);
        let j = r.natural_join(&s);
        assert_eq!(j.len(), 4);
    }

    #[test]
    fn join_identities() {
        let r = Relation::new(attrs(&[0]), vec![vec![1], vec![2]]);
        assert_eq!(r.natural_join(&Relation::identity()), r);
        let annihilator = Relation::empty(AttrSet::empty());
        assert!(r.natural_join(&annihilator).is_empty());
    }

    #[test]
    fn self_join_is_idempotent() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        assert_eq!(r.natural_join(&r), r);
    }

    #[test]
    fn semijoin_filters_left_side() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let s = Relation::new(attrs(&[1, 2]), vec![vec![10, 5]]);
        let sj = r.semijoin(&s);
        assert_eq!(sj.attrs(), r.attrs());
        assert_eq!(sj.to_vecs(), vec![vec![1, 10]]);
        // definition check: R ⋉ S = π_R(R ⋈ S)
        assert_eq!(sj, r.natural_join(&s).project(r.attrs()));
    }

    #[test]
    fn semijoin_with_disjoint_nonempty_relation_is_identity() {
        let r = Relation::new(attrs(&[0]), vec![vec![1]]);
        let s = Relation::new(attrs(&[5]), vec![vec![9]]);
        assert_eq!(r.semijoin(&s), r);
        // ... and with an empty disjoint relation it empties out.
        let nothing = Relation::empty(attrs(&[5]));
        assert!(r.semijoin(&nothing).is_empty());
    }

    #[test]
    fn wide_key_join_and_semijoin() {
        // Shared attribute sets of width ≥ 3 exercise the packed wide-key
        // index paths.
        let r = Relation::new(
            attrs(&[0, 1, 2, 3]),
            vec![vec![1, 2, 3, 4], vec![1, 2, 9, 4], vec![5, 6, 7, 8]],
        );
        let s = Relation::new(
            attrs(&[0, 1, 2, 9]),
            vec![vec![1, 2, 3, 0], vec![5, 6, 0, 0]],
        );
        let sj = r.semijoin(&s);
        assert_eq!(sj.to_vecs(), vec![vec![1, 2, 3, 4]]);
        let j = r.natural_join(&s);
        assert_eq!(j.to_vecs(), vec![vec![1, 2, 3, 4, 0]]);
        assert_eq!(sj, j.project(r.attrs()));
    }

    /// The left fold of `natural_join` that `join_all` must equal.
    fn fold(rels: &[Relation]) -> Relation {
        rels.iter()
            .fold(Relation::identity(), |acc, r| acc.natural_join(r))
    }

    #[test]
    fn join_all_matches_the_natural_join_fold() {
        let ab = Relation::new(attrs(&[0, 1]), vec![vec![1, 2], vec![1, 3], vec![2, 2]]);
        let bc = Relation::new(attrs(&[1, 2]), vec![vec![2, 5], vec![3, 5], vec![3, 6]]);
        let ca = Relation::new(attrs(&[0, 2]), vec![vec![1, 5], vec![2, 6]]);
        let de = Relation::new(attrs(&[3, 4]), vec![vec![7, 8], vec![9, 9]]);
        let abcd = Relation::new(
            attrs(&[0, 1, 2, 3]),
            vec![vec![1, 2, 5, 7], vec![1, 3, 5, 9], vec![1, 3, 6, 7]],
        );
        let parity = |a, b| Relation::new(attrs(&[a, b]), vec![vec![0, 1], vec![1, 0]]);
        let nothing = Relation::empty(AttrSet::empty());
        let cases: Vec<Vec<Relation>> = vec![
            vec![],                                     // {()}
            vec![Relation::identity()],                 // {()} member
            vec![ab.clone(), nothing.clone()],          // {} member
            vec![ab.clone(), bc.clone()],               // width-1 key
            vec![ab.clone(), bc.clone(), ca.clone()],   // width-2 pure filter
            vec![ab.clone(), de.clone()],               // cross product
            vec![ab.clone(), bc.clone(), abcd.clone()], // width-3 key
            vec![abcd.clone(), bc.clone(), ab.clone()], // filters inside the prefix
            vec![ab.clone(), ab.clone(), Relation::identity(), de.clone()],
            vec![parity(0, 1), parity(1, 2), parity(0, 2)], // empty at the last step
            vec![ab.clone(), parity(0, 1), bc.clone(), de], // empty early
        ];
        for rels in &cases {
            let got = Relation::join_all(rels);
            assert_eq!(got, fold(rels), "{rels:?}");
        }
        let early = Relation::join_all(&cases[10]);
        assert!(early.is_empty());
        assert_eq!(early.attrs(), &attrs(&[0, 1, 2, 3, 4]), "all attributes");
    }

    #[test]
    fn join_all_reuses_each_relations_cached_build() {
        let ab = Relation::new(attrs(&[0, 1]), vec![vec![1, 2], vec![2, 3]]);
        let bc = Relation::new(attrs(&[1, 2]), vec![vec![2, 5], vec![3, 6]]);
        let rels = [ab, bc.clone()];
        let first = Relation::join_all(&rels);
        let idx = bc.key_index(&attrs(&[1]));
        assert_eq!(Relation::join_all(&rels), first);
        assert!(Arc::ptr_eq(&idx, &bc.key_index(&attrs(&[1]))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// With values drawn from `1..3`, keys repeat heavily: the CSR probe
        /// must hand every probe row exactly the build rows carrying its key,
        /// in ascending order, for every key width — checked against nested
        /// loops over the rows.
        #[test]
        fn csr_probe_returns_every_match_in_ascending_order(
            build in proptest::collection::vec(proptest::collection::vec(1u64..3, 4), 0..40),
            probe in proptest::collection::vec(proptest::collection::vec(1u64..3, 4), 0..20),
            key in proptest::collection::vec(0usize..4, 0..=4),
        ) {
            let build = Relation::new(attrs(&[0, 1, 2, 3]), build);
            let probe = Relation::new(attrs(&[0, 1, 2, 3]), probe);
            let mut pos = key;
            pos.sort_unstable();
            pos.dedup();
            let index = KeyIndex::build(&build, &pos);
            let mut seen = 0usize;
            index.probe(probe.len(), probe.key_reader(&pos), |i, hit| {
                let t = probe.row(i);
                let expect: Vec<u32> = (0..build.len() as u32)
                    .filter(|&b| pos.iter().all(|&p| build.row(b as usize)[p] == t[p]))
                    .collect();
                assert_eq!(hit.map_or(&[][..], |b| index.rows(b)), &expect[..], "probe row {i}");
                assert_eq!(hit.is_some(), !expect.is_empty(), "a hit is never empty");
                seen += 1;
                true
            });
            proptest::prop_assert_eq!(seen, probe.len());
        }
    }

    #[test]
    fn union_and_subset() {
        let r = Relation::new(attrs(&[0]), vec![vec![1]]);
        let s = Relation::new(attrs(&[0]), vec![vec![2]]);
        let u = r.union(&s);
        assert_eq!(u.len(), 2);
        assert!(r.is_subset(&u));
        assert!(!u.is_subset(&r));
    }

    #[test]
    fn union_merges_overlapping_sorted_inputs() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 1], vec![3, 3], vec![5, 5]]);
        let s = Relation::new(attrs(&[0, 1]), vec![vec![2, 2], vec![3, 3], vec![6, 6]]);
        let u = r.union(&s);
        assert_eq!(
            u.to_vecs(),
            vec![vec![1, 1], vec![2, 2], vec![3, 3], vec![5, 5], vec![6, 6]]
        );
        assert_eq!(Relation::identity().union(&Relation::identity()).len(), 1);
    }

    #[test]
    fn clones_share_storage_and_derivation_caches() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let key = attrs(&[1]);
        let idx = r.key_index(&key);
        let clone = r.clone();
        assert!(
            Arc::ptr_eq(&idx, &clone.key_index(&key)),
            "clone reuses the build"
        );
        assert!(Arc::ptr_eq(
            &r.positions_cached(&key),
            &clone.positions_cached(&key)
        ));
        assert_eq!(clone.data(), r.data(), "clones share the flat buffer");
    }

    #[test]
    fn equality_ignores_caches() {
        let a = Relation::new(attrs(&[0, 1]), vec![vec![1, 2]]);
        let b = Relation::new(attrs(&[0, 1]), vec![vec![1, 2]]);
        let _ = a.key_index(&attrs(&[0]));
        assert_eq!(a, b);
        assert_eq!(b, a);
    }

    #[test]
    fn cached_build_survives_repeated_semijoins() {
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let hub = Relation::new(attrs(&[1, 2]), vec![vec![10, 5], vec![30, 6]]);
        let first = r.semijoin(&hub);
        let second = r.semijoin(&hub); // hits hub's cached key index
        assert_eq!(first, second);
        assert_eq!(first.to_vecs(), vec![vec![1, 10]]);
    }

    #[test]
    fn poisoned_cache_lock_is_recovered() {
        // A caller that panics while holding a relation's derivation-cache
        // lock must not break the relation (or its clones) for later calls.
        let r = Relation::new(attrs(&[0, 1]), vec![vec![1, 10], vec![2, 20]]);
        let idx = r.key_index(&attrs(&[1]));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _held = r.cache.lock();
            panic!("caller panics holding the relation cache");
        }));
        assert!(unwound.is_err(), "the closure panics");
        assert!(Arc::ptr_eq(&idx, &r.clone().key_index(&attrs(&[1]))));
        let s = Relation::new(attrs(&[1, 2]), vec![vec![10, 5]]);
        assert_eq!(r.semijoin(&s).to_vecs(), vec![vec![1, 10]]);
    }

    #[test]
    fn table_rendering() {
        let mut cat = Catalog::alphabetic();
        let ab = AttrSet::parse("ab", &mut cat).unwrap();
        let r = Relation::new(ab, vec![vec![1, 2]]);
        let t = r.to_table(&cat);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
    }
}
