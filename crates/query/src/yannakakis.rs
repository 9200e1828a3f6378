//! Semijoin processing of tree queries (the "tree case" of §4, following
//! Bernstein–Chiu \[5\] and Yannakakis \[18\]).
//!
//! For a tree schema, a **full reducer** — one upward and one downward pass
//! of semijoins along a join tree, `2·(n−1)` semijoins total — makes every
//! relation state globally consistent (`Rᵢ = π_{Rᵢ}(⋈ D)`). The query
//! `(D, X)` is then answered by joining along the tree with early
//! projection, never materializing more columns than `X` plus the
//! attributes still needed by unjoined subtrees.
//!
//! Only part of the tree is joined: its *read set*, the connected
//! subtree that GYO leaf elimination with `X` sacred leaves behind. On a
//! tree schema only `CC(D, X) = GR(D, X)` matters for `(D, X)`
//! (Theorem 3.3(ii)), and the join of a connected subtree of a join tree is
//! lossless (Corollary 5.2), so joining the read set, rooted at its top
//! node, answers the query. The cached engine's answers use the same read
//! set to skip downward semijoins and gathers outside it.
//!
//! Execution here is deliberately **per-call and operator-at-a-time**
//! (each semijoin/join/projection runs through `gyo_relation`'s columnar
//! kernels, but every step materializes its result): this module is the
//! reference path the cached engine's batched selection-vector executor
//! ([`gyo_relation::semijoin_program_with`]) is differentially tested
//! against — two independent routes to the same reduced states and answers.

use gyo_reduce::{gyo_reduce, join_tree_from_trace};
use gyo_relation::{DbState, Relation};
use gyo_schema::{AttrSet, DbSchema, RootedTree};

use crate::engine::EngineError;
use crate::program::Program;

/// Builds a full-reducer semijoin [`Program`] for a tree schema: child→
/// parent semijoins in post-order, then parent→child in reverse. Returns
/// [`EngineError::Cyclic`] when `d` is cyclic (no join tree exists), with
/// the stuck GYO residue attached.
///
/// Note: semijoin statements create *new* relations (§6 semantics), so the
/// program threads the latest version of each node through the passes; the
/// final statements leave the root's and every node's reduced state as the
/// most recent versions.
pub fn full_reducer_program(d: &DbSchema) -> Result<Program, EngineError> {
    let rooted = derive_rooted_tree(d)?;
    let mut p = Program::new(d.clone());
    // current[v] = latest program relation holding node v's state
    let mut current: Vec<usize> = (0..d.len()).collect();
    for (target, source) in reducer_order(&rooted) {
        current[target] = p.semijoin(current[target], current[source]);
    }
    Ok(p)
}

/// The full reducer's step order along a rooted join tree, as
/// `(target, source)` pairs meaning `target := target ⋉ source`: child→
/// parent in post-order (the upward pass), then parent→child in reverse
/// (the downward pass) — `2·(n−1)` steps, none for one node or none. The
/// compiled [`FullReducerPlan`](crate::FullReducerPlan), the §6
/// [`full_reducer_program`] and the per-call [`full_reduce`] all walk it.
pub(crate) fn reducer_order(rooted: &RootedTree) -> impl Iterator<Item = (usize, usize)> + '_ {
    let children = rooted.post_order.iter().filter(|&&v| v != rooted.root);
    let up = children.clone().map(|&v| (rooted.parent[v], v));
    let down = children.rev().map(|&v| (v, rooted.parent[v]));
    up.chain(down)
}

/// Runs the GYO reduction and roots the derived join tree at node 0; the
/// shared decline path of every tree-only entry point — per-call solvers
/// here and [`FullReducerPlan`](crate::FullReducerPlan) compilation alike.
pub(crate) fn derive_rooted_tree(d: &DbSchema) -> Result<RootedTree, EngineError> {
    let red = gyo_reduce(d, &AttrSet::empty());
    if !red.is_total() {
        return Err(EngineError::cyclic(&red));
    }
    let tree = join_tree_from_trace(d, &red).expect("total GYO reduction yields a join tree");
    Ok(if d.is_empty() {
        RootedTree {
            root: 0,
            parent: Vec::new(),
            post_order: Vec::new(),
        }
    } else {
        tree.rooted_at(0)
    })
}

/// Fully reduces a state over a tree schema in place-ish (returns the
/// reduced state): after this, `state[i] = π_{Rᵢ}(⋈ D)` for every `i`.
/// Returns [`EngineError::Cyclic`] when `d` is cyclic.
pub fn full_reduce(d: &DbSchema, state: &DbState) -> Result<DbState, EngineError> {
    let rooted = derive_rooted_tree(d)?;
    Ok(full_reduce_on_rooted(d, state, &rooted))
}

/// Full reduction along an already-rooted join tree.
fn full_reduce_on_rooted(d: &DbSchema, state: &DbState, rooted: &RootedTree) -> DbState {
    let mut rels: Vec<Relation> = state.rels().to_vec();
    for (target, source) in reducer_order(rooted) {
        rels[target] = rels[target].semijoin(&rels[source]);
    }
    DbState::new(d, rels)
}

/// Solves `(D, X)` on a tree schema: full reduction, then joins the part
/// of the join tree that `X` needs (its read set) with early
/// projection onto `X ∪ (attributes shared with the not-yet-joined
/// part)`. Output-sensitive in the Yannakakis sense. Returns
/// [`EngineError::Cyclic`] when `d` is cyclic.
///
/// # Panics
///
/// Panics if `X ⊄ U(D)`.
pub fn solve_tree_query(
    d: &DbSchema,
    state: &DbState,
    x: &AttrSet,
) -> Result<Relation, EngineError> {
    assert!(
        x.is_subset(&d.attributes()),
        "target X must be a subset of U(D)"
    );
    let rooted = derive_rooted_tree(d)?;
    let reduced = full_reduce_on_rooted(d, state, &rooted);
    let read = read_set(d, x, &rooted);
    Ok(join_up_tree(reduced.rels(), x, &rooted, &read))
}

/// The part of a rooted join tree that answering `(D, X)` reads — see
/// [`read_set`].
pub(crate) struct ReadSet {
    /// The read nodes in post-order; the last one is `top`.
    pub(crate) nodes: Vec<usize>,
    /// Per node: whether the downward pass must reach it, because it is
    /// read or lies on the path from the root to `top`.
    pub(crate) down: Vec<bool>,
    /// Per node `v`: `X ∩ U(subtree of v)`.
    subtree_x: Vec<AttrSet>,
}

/// The relations of `d` that answering `(D, X)` joins, on the rooted join
/// tree `rooted`: GYO leaf elimination with `X` sacred.
///
/// `top` is the first node in post-order whose subtree holds all of `X`.
/// The read set is `top`, plus each child of a read node whose subtree's
/// `X`-attributes are not all in that parent: a child whose subtree adds
/// no `X`-attribute beyond its parent's is an ear, and dropping it loses
/// nothing of `π_X`. The set is connected and covers `X`, so on a globally
/// consistent state its join is lossless (Corollary 5.2) and projects onto
/// `π_X(⋈D)` — the canonical connection `CC(D, X) = GR(D, X)` of
/// Theorem 3.3(ii) is all a tree query needs. On the empty schema the set
/// is empty.
pub(crate) fn read_set(d: &DbSchema, x: &AttrSet, rooted: &RootedTree) -> ReadSet {
    let n = d.len();
    let mut subtree_x: Vec<AttrSet> = (0..n).map(|v| d.rel(v).intersect(x)).collect();
    for &v in &rooted.post_order {
        if v != rooted.root {
            let parent = rooted.parent[v];
            let merged = subtree_x[parent].union(&subtree_x[v]);
            subtree_x[parent] = merged;
        }
    }
    let mut read = vec![false; n];
    let mut down = vec![false; n];
    if let Some(&top) = rooted.post_order.iter().find(|&&v| subtree_x[v] == *x) {
        read[top] = true;
        // Reverse post-order visits every parent before its children.
        for &v in rooted.post_order.iter().rev() {
            let parent = rooted.parent[v];
            if v != rooted.root && read[parent] && !subtree_x[v].is_subset(d.rel(parent)) {
                read[v] = true;
            }
        }
        down.clone_from(&read);
        let mut v = top;
        while v != rooted.root {
            down[v] = true;
            v = rooted.parent[v];
        }
    }
    ReadSet {
        nodes: rooted
            .post_order
            .iter()
            .copied()
            .filter(|&v| read[v])
            .collect(),
        down,
        subtree_x,
    }
}

/// The join phase of the Yannakakis solver: joins the [`read_set`] slots
/// of `rels` up the join tree, rooted at `top`, projecting each subtree's
/// running join onto its `X`-attributes plus those it shares with its
/// parent, then projects onto `X`. Only the read slots are looked at, and
/// they must be globally consistent (`rels[v] = π_{Rᵥ}(⋈D)`); the other
/// slots may hold anything. The join of no relations is `{()}`.
pub(crate) fn join_up_tree(
    rels: &[Relation],
    x: &AttrSet,
    rooted: &RootedTree,
    read: &ReadSet,
) -> Relation {
    let Some((&top, below)) = read.nodes.split_last() else {
        // The empty schema: X ⊆ U(∅) = ∅.
        return Relation::identity();
    };
    // acc[v]: the running join of v's read subtree, once a child joined in.
    let mut acc: Vec<Option<Relation>> = vec![None; rels.len()];
    for &v in below {
        let parent = rooted.parent[v];
        let mine = acc[v].take().unwrap_or_else(|| rels[v].clone());
        let keep = read.subtree_x[v].union(&rels[v].attrs().intersect(rels[parent].attrs()));
        let pruned = mine.project(&keep);
        let parent_acc = acc[parent].take().unwrap_or_else(|| rels[parent].clone());
        acc[parent] = Some(parent_acc.natural_join(&pruned));
    }
    let top_acc = acc[top].take().unwrap_or_else(|| rels[top].clone());
    if top_acc.is_empty() {
        return Relation::empty(x.clone());
    }
    top_acc.project(x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gyo_schema::Catalog;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn db(s: &str, cat: &mut Catalog) -> DbSchema {
        DbSchema::parse(s, cat).unwrap()
    }

    #[test]
    fn full_reducer_program_has_2n_minus_2_semijoins() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd, de", &mut cat);
        let p = full_reducer_program(&d).expect("chain");
        assert_eq!(p.len(), 2 * (4 - 1));
    }

    #[test]
    fn reducer_order_is_up_then_down() {
        // Upward: each non-root node once, as the source of a step into its
        // parent, after every step out of its own children. Downward: the
        // upward pass reversed, parent into child.
        let mut rng = StdRng::seed_from_u64(80);
        for d in [
            gyo_workloads::chain(6),
            gyo_workloads::star(6),
            gyo_workloads::random_tree_schema(&mut rng, 10, 14, 0.5),
        ] {
            let rooted = derive_rooted_tree(&d).unwrap();
            let order: Vec<(usize, usize)> = reducer_order(&rooted).collect();
            let n = d.len();
            assert_eq!(order.len(), 2 * (n - 1));
            let (up, down) = order.split_at(n - 1);
            let mut done = vec![false; n];
            for &(parent, child) in up {
                assert!(child != rooted.root && !done[child], "node {child} once");
                assert_eq!(parent, rooted.parent[child]);
                assert!(
                    (0..n)
                        .filter(|&c| c != rooted.root && rooted.parent[c] == child)
                        .all(|c| done[c]),
                    "node {child}'s children go first"
                );
                done[child] = true;
            }
            let reversed: Vec<(usize, usize)> = up.iter().rev().map(|&(p, c)| (c, p)).collect();
            assert_eq!(down, reversed.as_slice());
        }
        let mut cat = Catalog::alphabetic();
        for d in [DbSchema::empty(), db("abc", &mut cat)] {
            let rooted = derive_rooted_tree(&d).unwrap();
            assert_eq!(reducer_order(&rooted).count(), 0, "one node or none");
        }
    }

    #[test]
    fn cyclic_schema_has_no_full_reducer() {
        let mut cat = Catalog::alphabetic();
        assert!(full_reducer_program(&db("ab, bc, ca", &mut cat)).is_err());
        assert!(full_reduce(
            &db("ab, bc, ca", &mut cat),
            &DbState::from_universal(
                &Relation::new(AttrSet::parse("abc", &mut cat).unwrap(), vec![]),
                &db("ab, bc, ca", &mut cat)
            )
        )
        .is_err());
    }

    #[test]
    fn full_reduce_reaches_global_consistency() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let mut rng = StdRng::seed_from_u64(77);
        for _ in 0..5 {
            let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 30, 4);
            let state = DbState::from_universal(&i, &d);
            let reduced = full_reduce(&d, &state).unwrap();
            let total = state.join_all();
            for (k, r) in d.iter().enumerate() {
                assert_eq!(reduced.rel(k), &total.project(r), "node {k}");
            }
        }
    }

    #[test]
    fn solve_tree_query_matches_naive() {
        let mut cat = Catalog::alphabetic();
        let mut rng = StdRng::seed_from_u64(78);
        for (s, xs) in [
            ("ab, bc, cd", "ad"),
            ("ab, bc, cd", "b"),
            ("abc, cde, ace, afe", "af"),
            ("abc, ab, bc", "ac"),
            ("ab, cd", "ad"),
        ] {
            let d = db(s, &mut cat);
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            for round in 0..5 {
                let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 25, 3);
                let state = DbState::from_universal(&i, &d);
                let fast = solve_tree_query(&d, &state, &x).expect("tree schema");
                let naive = state.eval_join_query(&x);
                assert_eq!(fast, naive, "case ({s}, {xs}), round {round}");
            }
        }
    }

    #[test]
    fn reducer_program_execution_matches_direct_reduction() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc, cd", &mut cat);
        let mut rng = StdRng::seed_from_u64(79);
        let i = gyo_workloads::random_universal(&mut rng, &d.attributes(), 20, 3);
        let state = DbState::from_universal(&i, &d);
        let p = full_reducer_program(&d).unwrap();
        let rels = p.execute(&state);
        let reduced = full_reduce(&d, &state).unwrap();
        // The last version of each node in the program equals the directly
        // reduced state; the root is fully reduced after the upward pass.
        // Check via schema-matched comparison of the final relations.
        for k in 0..d.len() {
            // find the last program relation with node k's schema whose
            // lineage is node k: by construction the downward pass's
            // semijoin for node k (or the upward-pass result for the root)
            // is the latest relation with that schema.
            let last = (0..rels.len())
                .rev()
                .find(|&r| p.schema_of(r) == d.rel(k) && rels[r].is_subset(state.rel(k)))
                .expect("node version exists");
            assert_eq!(&rels[last], reduced.rel(k), "node {k}");
        }
    }

    /// The read set of `(d, x)` on the plan's rooted join tree.
    fn read_of(d: &DbSchema, x: &AttrSet) -> ReadSet {
        read_set(d, x, &derive_rooted_tree(d).unwrap())
    }

    #[test]
    fn chain_reads_the_path_between_the_targets() {
        // chain(n) is a_k a_{k+1} for k < n; {a_i, a_j} needs exactly the
        // j − i relations from a_i a_{i+1} to a_{j−1} a_j.
        let n = 12;
        let d = gyo_workloads::chain(n);
        for i in 0..=n as u32 {
            for j in i + 1..=n as u32 {
                let read = read_of(&d, &AttrSet::from_raw(&[i, j]));
                let want: Vec<usize> = (i as usize..j as usize).collect();
                let mut got = read.nodes.clone();
                got.sort_unstable();
                assert_eq!(got, want, "X = {{a{i}, a{j}}}");
            }
        }
    }

    #[test]
    fn benchmark_tree_targets_read_their_canonical_connection() {
        // The tree_warm schemas with the benchmark's two targets each: two
        // attributes of the largest component, half its attribute order
        // apart. The read set has |GR(D, X)| relations — except for the
        // star's second target, whose two relations hang off a third, the
        // root, that holds no target attribute.
        let mut shape = StdRng::seed_from_u64(0x7EE5);
        let cases = [
            ("chain128", gyo_workloads::chain(128), [64, 64]),
            (
                "wide_chain32",
                gyo_workloads::wide_chain(32, 6, 3),
                [16, 16],
            ),
            ("tpch", gyo_workloads::tpch_like(), [2, 4]),
            (
                "random_tree64",
                gyo_workloads::random_tree_schema(&mut shape, 64, 128, 0.4),
                [5, 8],
            ),
            ("star64", gyo_workloads::star(64), [1, 3]),
        ];
        for (label, d, want) in cases {
            let component = d
                .connected_components()
                .into_iter()
                .max_by_key(Vec::len)
                .unwrap();
            let u = component
                .iter()
                .fold(AttrSet::empty(), |acc, &i| acc.union(d.rel(i)));
            let half = u.len() / 2;
            for (t, want) in want.into_iter().enumerate() {
                let i = t * half / 2;
                let x = AttrSet::from_iter([u.as_slice()[i], u.as_slice()[i + half]]);
                let read = read_of(&d, &x).nodes.len();
                let cc = gyo_reduce(&d, &x).survivors.len();
                assert_eq!(read, want, "{label} target {t}");
                if label != "star64" || t == 0 {
                    assert_eq!(read, cc, "{label} target {t}: |GR(D, X)|");
                } else {
                    assert_eq!(cc, 2, "{label} target {t}: |GR(D, X)|");
                }
            }
        }
    }

    #[test]
    fn read_set_edge_cases() {
        let mut cat = Catalog::alphabetic();
        // X = ∅ or inside one relation reads one relation; a target at
        // both ends of the chain reads all of it.
        let d = db("ab, bc, cd, de", &mut cat);
        for (xs, want) in [("", 1), ("bc", 1), ("c", 1), ("ae", 4)] {
            let x = AttrSet::parse(xs, &mut cat).unwrap();
            assert_eq!(read_of(&d, &x).nodes.len(), want, "X = {xs}");
        }
        // Two components joined by an empty-key tree edge: the read set
        // crosses it.
        let d = db("ab, bc, xy, yz", &mut cat);
        let x = AttrSet::parse("az", &mut cat).unwrap();
        let read = read_of(&d, &x);
        let covered = read
            .nodes
            .iter()
            .fold(AttrSet::empty(), |acc, &v| acc.union(d.rel(v)));
        assert!(x.is_subset(&covered));
        // The empty schema reads nothing.
        assert!(read_of(&DbSchema::empty(), &AttrSet::empty())
            .nodes
            .is_empty());
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// On random trees and random targets, the read set is connected
        /// in the join tree — every read node but the last, `top`, has a
        /// read parent — and covers X; the downward pass reaches every
        /// read node and every ancestor of `top`.
        #[test]
        fn read_set_is_connected_and_covers_x(
            n in 1usize..16,
            seed in proptest::prelude::any::<u64>(),
            picks in proptest::collection::vec(proptest::prelude::any::<u32>(), 0..4),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let d = gyo_workloads::random_tree_schema(&mut rng, n, 2 * n, 0.4);
            let u = d.attributes();
            let x = AttrSet::from_iter(picks.iter().map(|&p| u.as_slice()[p as usize % u.len()]));
            let rooted = derive_rooted_tree(&d).unwrap();
            let read = read_set(&d, &x, &rooted);
            let (&top, below) = read.nodes.split_last().expect("nonempty schema");
            for &v in below {
                let parent = rooted.parent[v];
                proptest::prop_assert!(read.nodes.contains(&parent), "node {} hangs off", v);
            }
            let covered = read.nodes.iter().fold(AttrSet::empty(), |acc, &v| acc.union(d.rel(v)));
            proptest::prop_assert!(x.is_subset(&covered));
            let mut v = top;
            while v != rooted.root {
                proptest::prop_assert!(read.down[v]);
                v = rooted.parent[v];
            }
            for &v in &read.nodes {
                proptest::prop_assert!(read.down[v] || v == rooted.root);
            }
        }
    }

    #[test]
    fn empty_state_answers_empty() {
        let mut cat = Catalog::alphabetic();
        let d = db("ab, bc", &mut cat);
        let empty = Relation::empty(d.attributes());
        let state = DbState::from_universal(&empty, &d);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        let ans = solve_tree_query(&d, &state, &x).unwrap();
        assert!(ans.is_empty());
    }

    #[test]
    fn single_relation_schema() {
        let mut cat = Catalog::alphabetic();
        let d = db("abc", &mut cat);
        let i = Relation::new(d.attributes(), vec![vec![1, 2, 3], vec![4, 5, 6]]);
        let state = DbState::from_universal(&i, &d);
        let x = AttrSet::parse("ac", &mut cat).unwrap();
        assert_eq!(
            solve_tree_query(&d, &state, &x).unwrap(),
            state.eval_join_query(&x)
        );
    }
}
