//! Interval-labeled reachability over the is-a DAG.
//!
//! The old closure store kept one dense reflexive-ancestor bitset and one
//! descendant bitset per concept — `O(n²)` bits, ≈125 GB for a 10⁶-concept
//! ontology. This module replaces it with the classic tree-cover labeling:
//!
//! * A **spanning forest** is extracted from the DAG (each concept's first
//!   declared parent becomes its tree parent), and a DFS over that forest
//!   assigns every concept a half-open preorder interval `[pre, post)`.
//!   `a` is a *tree* ancestor of `d` iff `pre[a] <= pre[d] < post[a]` —
//!   one comparison pair, O(1), cache-resident.
//! * **Cross-links** (second and later parents, the DAG part) are folded
//!   into a small per-concept set of *extra interval roots*: concept ids
//!   `r` such that the full ancestor set decomposes as
//!   `Anc(v) = TreeAnc(v) ∪ ⋃_r TreeAnc(r)`. The sets are kept minimal
//!   (no member tree-subsumes another) and are stored flat in a CSR
//!   (bitmask + popcount rank) — a pure tree stores nothing at all.
//!
//! Storage is `O(n + cross-links·affected-depth)` instead of `O(n²)`;
//! `is_ancestor` is O(1) on the tree path and O(|extra|) otherwise.
//! Full closures ([`Closure`]) are materialized on each call by walking
//! tree parent chains. Nothing is cached: their callers (TAcGM, the
//! reference miner, datagen) run as fast without a cache.

// tsg-lint: allow(index) — CSR offsets and interval labels are built consistent with the concept count, and traversals index only by ids the structure itself issued

use std::collections::HashMap;
use std::sync::Arc;
use tsg_graph::NodeLabel;

/// Sentinel for "no tree parent / absent concept" in the u32 arrays.
const NONE: u32 = u32::MAX;

/// A lazily materialized, immutable closure (ancestor or descendant) set:
/// sorted concept ids behind an `Arc`, so clones are free.
///
/// This is the value type [`crate::Taxonomy::ancestors`] and
/// [`crate::Taxonomy::descendants`] return; iteration order is ascending
/// concept id, exactly the order the old dense bitsets iterated in.
#[derive(Clone)]
pub struct Closure {
    ids: Arc<[u32]>,
}

impl Closure {
    /// Wraps an already-sorted, deduplicated id list.
    pub(crate) fn from_sorted(ids: Vec<u32>) -> Closure {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "closure ids must be strictly sorted");
        Closure { ids: ids.into() }
    }

    /// The empty closure.
    pub(crate) fn empty() -> Closure {
        Closure { ids: Arc::from([]) }
    }

    /// Number of concepts in the closure.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` iff the closure is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Membership test by binary search.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        u32::try_from(id).is_ok_and(|id| self.ids.binary_search(&id).is_ok())
    }

    /// Iterates member concept ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.ids.iter().map(|&i| i as usize)
    }

    /// Iterates members as [`NodeLabel`]s in ascending order.
    pub fn labels(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        self.ids.iter().map(|&i| NodeLabel(i))
    }

    /// The member ids as a sorted slice.
    #[inline]
    pub fn as_ids(&self) -> &[u32] {
        &self.ids
    }

    /// The members as a sorted `Vec<usize>` (the old bitset debug shape).
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }
}

impl PartialEq for Closure {
    fn eq(&self, other: &Closure) -> bool {
        self.ids == other.ids
    }
}

impl Eq for Closure {}

impl std::fmt::Debug for Closure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.ids.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a Closure {
    type Item = usize;
    type IntoIter = std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> usize>;
    fn into_iter(self) -> Self::IntoIter {
        self.ids.iter().map(|&i| i as usize)
    }
}

/// Compressed sparse rows of [`NodeLabel`] adjacency (parents or
/// children). Replaces `Vec<Vec<NodeLabel>>` — two flat allocations
/// instead of one heap vector per concept, which matters at 10⁶ concepts.
#[derive(Clone, Debug, Default)]
pub(crate) struct Csr {
    off: Vec<u32>,
    dat: Vec<NodeLabel>,
}

impl Csr {
    pub(crate) fn from_rows(rows: &[Vec<NodeLabel>]) -> Csr {
        let mut off = Vec::with_capacity(rows.len() + 1);
        let total: usize = rows.iter().map(Vec::len).sum();
        let mut dat = Vec::with_capacity(total);
        off.push(0);
        for row in rows {
            dat.extend_from_slice(row);
            off.push(dat.len() as u32);
        }
        Csr { off, dat }
    }

    #[inline]
    pub(crate) fn row(&self, i: usize) -> &[NodeLabel] {
        &self.dat[self.off[i] as usize..self.off[i + 1] as usize]
    }

    pub(crate) fn len(&self) -> usize {
        self.off.len() - 1
    }

    pub(crate) fn item_count(&self) -> usize {
        self.dat.len()
    }

    /// Expands back into per-concept rows (for the rebuild paths:
    /// `restrict`, `unify_most_general`).
    pub(crate) fn to_rows(&self) -> Vec<Vec<NodeLabel>> {
        (0..self.len()).map(|i| self.row(i).to_vec()).collect()
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        self.off.len() * 4 + self.dat.len() * std::mem::size_of::<NodeLabel>()
    }
}

/// The interval labeling plus cross-link fallback for one taxonomy.
#[derive(Clone, Debug)]
pub(crate) struct Reachability {
    /// DFS preorder number per concept (`NONE` for absent concepts).
    pre: Vec<u32>,
    /// Exclusive end of the concept's subtree interval (`0` for absent).
    post: Vec<u32>,
    /// Preorder number → concept id; a concept's tree descendants are the
    /// contiguous slice `order_by_pre[pre[v]..post[v]]`.
    order_by_pre: Vec<u32>,
    /// Spanning-forest parent (`NONE` for roots and absent concepts).
    tree_parent: Vec<u32>,
    /// Depth along the spanning tree (roots are 0).
    tree_depth: Vec<u32>,
    /// The forest root above each concept (`NONE` for absent).
    tree_root: Vec<u32>,
    /// Extra-ancestor interval roots, flattened CSR-style: the members of
    /// the `i`-th cross-linked concept (in `extra_keys` order) are
    /// `extra_dat[extra_off[i]..extra_off[i + 1]]`. Concepts whose
    /// ancestors are purely tree-covered have no entry — a pure tree
    /// stores nothing here at all. Flat storage matters: at 10⁶ concepts
    /// with ~50% cross-linked, a per-concept heap set costs ~200 bytes of
    /// container overhead per entry (~100 MB); this layout is 8 + 4·|set|.
    extra_off: Vec<u32>,
    extra_dat: Vec<u32>,
    /// Sorted keys (concept ids) owning an extra set, for descendant scans.
    extra_keys: Vec<u32>,
    /// One bit per concept: set iff the concept has an extra set. Checked
    /// before anything else so negative `is_ancestor` probes on
    /// tree-covered concepts cost one word read.
    has_extra: Vec<u64>,
    /// Number of `has_extra` bits set strictly before each word — turns
    /// the bitmask into an O(1) rank index into `extra_off`.
    extra_rank: Vec<u32>,
}

impl Reachability {
    /// Builds the labeling. `order` must be a topological order of the
    /// present concepts (parents before children); parent/child rows of
    /// present concepts must reference present concepts only.
    pub(crate) fn build(
        parents: &Csr,
        children: &Csr,
        present: &[bool],
        order: &[usize],
    ) -> Reachability {
        let n = present.len();
        let mut tree_parent = vec![NONE; n];
        for &v in order {
            if let Some(&p) = parents.row(v).first() {
                tree_parent[v] = p.0;
            }
        }

        // Tree-children adjacency (CSR over the spanning forest), in the
        // declared child order so DFS numbering is deterministic.
        let mut tcount = vec![0u32; n];
        for &v in order {
            for &c in children.row(v) {
                if tree_parent[c.index()] == v as u32 {
                    tcount[v] += 1;
                }
            }
        }
        let mut toff = vec![0u32; n + 1];
        for i in 0..n {
            toff[i + 1] = toff[i] + tcount[i];
        }
        let mut tdat = vec![0u32; toff[n] as usize];
        let mut fill = toff.clone();
        for &v in order {
            for &c in children.row(v) {
                if tree_parent[c.index()] == v as u32 {
                    tdat[fill[v] as usize] = c.0;
                    fill[v] += 1;
                }
            }
        }

        // Iterative DFS over each root (ascending id), assigning pre on
        // entry and post on exit. An explicit stack keeps 10⁶-deep chains
        // from overflowing the call stack.
        let mut pre = vec![NONE; n];
        let mut post = vec![0u32; n];
        let mut tree_depth = vec![0u32; n];
        let mut tree_root = vec![NONE; n];
        let present_count = order.len();
        let mut order_by_pre = Vec::with_capacity(present_count);
        let mut counter = 0u32;
        let mut stack: Vec<(u32, u32)> = Vec::new(); // (node, next child offset)
        for root in 0..n {
            if !present[root] || tree_parent[root] != NONE {
                continue;
            }
            pre[root] = counter;
            order_by_pre.push(root as u32);
            counter += 1;
            tree_depth[root] = 0;
            tree_root[root] = root as u32;
            stack.push((root as u32, toff[root]));
            while let Some(&mut (v, ref mut next)) = stack.last_mut() {
                if *next < toff[v as usize + 1] {
                    let c = tdat[*next as usize];
                    *next += 1;
                    pre[c as usize] = counter;
                    order_by_pre.push(c);
                    counter += 1;
                    tree_depth[c as usize] = tree_depth[v as usize] + 1;
                    tree_root[c as usize] = tree_root[v as usize];
                    stack.push((c, toff[c as usize]));
                } else {
                    post[v as usize] = counter;
                    stack.pop();
                }
            }
        }
        debug_assert_eq!(order_by_pre.len(), present_count);

        // Cross-link fallback, in topological order: a concept's interval
        // roots are itself plus every parent's roots, minimized by
        // dropping any member whose subtree holds another member (the
        // deeper member's tree chain covers the shallower's). Built into
        // a map keyed by concept (the topo pass needs parent lookups),
        // then flattened into CSR arrays.
        let mut extra: HashMap<u32, Vec<u32>> = HashMap::new();
        let mut cand: Vec<u32> = Vec::new();
        for &v in order {
            let prow = parents.row(v);
            if prow.is_empty() {
                continue;
            }
            cand.clear();
            cand.push(v as u32);
            for &p in prow {
                cand.push(p.0);
                if let Some(set) = extra.get(&p.0) {
                    cand.extend_from_slice(set);
                }
            }
            cand.sort_unstable_by_key(|&c| pre[c as usize]);
            cand.dedup();
            // Keep a member iff no other member sits in its subtree; the
            // candidates are sorted by pre, so the only possible inhabitant
            // starts at the immediately following distinct member.
            let members: Vec<u32> = cand
                .iter()
                .enumerate()
                .filter(|&(i, &m)| {
                    m != v as u32
                        && cand.get(i + 1).is_none_or(|&next| {
                            pre[next as usize] >= post[m as usize]
                        })
                })
                .map(|(_, &m)| m)
                .collect();
            if !members.is_empty() {
                extra.insert(v as u32, members);
            }
        }
        let mut extra_keys: Vec<u32> = extra.keys().copied().collect();
        extra_keys.sort_unstable();
        let mut extra_off = Vec::with_capacity(extra_keys.len() + 1);
        let mut extra_dat = Vec::new();
        extra_off.push(0u32);
        for &k in &extra_keys {
            let mut members = extra.remove(&k).expect("key came from this map"); // tsg-lint: allow(panic) — key came from iterating this map
            members.sort_unstable();
            extra_dat.extend_from_slice(&members);
            extra_off.push(extra_dat.len() as u32);
        }
        let mut has_extra = vec![0u64; n.div_ceil(64)];
        for &k in &extra_keys {
            has_extra[(k / 64) as usize] |= 1u64 << (k % 64);
        }
        let mut extra_rank = Vec::with_capacity(has_extra.len());
        let mut running = 0u32;
        for &w in &has_extra {
            extra_rank.push(running);
            running += w.count_ones();
        }

        Reachability {
            pre,
            post,
            order_by_pre,
            tree_parent,
            tree_depth,
            tree_root,
            extra_off,
            extra_dat,
            extra_keys,
            has_extra,
            extra_rank,
        }
    }

    /// O(1) spanning-tree ancestorship (reflexive): `a`'s interval
    /// contains `d`'s preorder number. Absent concepts never contain and
    /// are never contained (their sentinel interval is empty).
    #[inline]
    pub(crate) fn tree_contains(&self, a: usize, d: usize) -> bool {
        let ap = self.pre[a];
        let dp = self.pre[d];
        ap <= dp && dp < self.post[a]
    }

    /// The extra interval roots of `v` (sorted concept ids), if any:
    /// bitmask probe, then popcount rank into the flat member storage.
    #[inline]
    pub(crate) fn extra_of(&self, v: usize) -> Option<&[u32]> {
        let word = self.has_extra[v / 64];
        let bit = 1u64 << (v % 64);
        if word & bit == 0 {
            return None;
        }
        let rank =
            (self.extra_rank[v / 64] + (word & (bit - 1)).count_ones()) as usize;
        Some(&self.extra_dat
            [self.extra_off[rank] as usize..self.extra_off[rank + 1] as usize])
    }

    /// The members of the `i`-th extra set, in `extra_keys` order.
    fn extra_members(&self, i: usize) -> &[u32] {
        &self.extra_dat[self.extra_off[i] as usize..self.extra_off[i + 1] as usize]
    }

    #[inline]
    pub(crate) fn tree_depth(&self, v: usize) -> u32 {
        self.tree_depth[v]
    }

    #[inline]
    pub(crate) fn tree_root(&self, v: usize) -> u32 {
        self.tree_root[v]
    }

    /// Pushes `v`'s spanning-tree ancestor chain (reflexive) onto `out`.
    fn push_tree_chain(&self, v: usize, out: &mut Vec<u32>) {
        let mut cur = v as u32;
        loop {
            out.push(cur);
            cur = self.tree_parent[cur as usize];
            if cur == NONE {
                return;
            }
        }
    }

    /// Materializes the reflexive ancestor closure of a present concept:
    /// the union of the tree chains of `v` and its extra interval roots.
    pub(crate) fn ancestors_of(&self, v: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(self.tree_depth[v] as usize + 1);
        self.push_tree_chain(v, &mut out);
        if let Some(set) = self.extra_of(v) {
            for &r in set {
                self.push_tree_chain(r as usize, &mut out);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Materializes the reflexive descendant closure of a present
    /// concept: the contiguous subtree slice plus every cross-linked
    /// concept with an extra interval root inside the subtree.
    pub(crate) fn descendants_of(&self, v: usize) -> Vec<u32> {
        let (lo, hi) = (self.pre[v], self.post[v]);
        let mut out: Vec<u32> =
            self.order_by_pre[lo as usize..hi as usize].to_vec();
        for (i, &u) in self.extra_keys.iter().enumerate() {
            let inside = |&r: &u32| {
                let rp = self.pre[r as usize];
                lo <= rp && rp < hi
            };
            if self.extra_members(i).iter().any(inside) {
                out.push(u);
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of concepts carrying a cross-link fallback set.
    pub(crate) fn extra_count(&self) -> usize {
        self.extra_keys.len()
    }

    /// Resident bytes of the interval labeling plus the cross-link
    /// fallback sets (the `taxonomy_scale` bench's "closure bytes").
    pub(crate) fn closure_bytes(&self) -> usize {
        (self.pre.len()
            + self.post.len()
            + self.order_by_pre.len()
            + self.tree_parent.len()
            + self.tree_depth.len()
            + self.tree_root.len()
            + self.extra_keys.len()
            + self.extra_off.len()
            + self.extra_dat.len()
            + self.extra_rank.len())
            * 4
            + self.has_extra.len() * 8
    }
}
