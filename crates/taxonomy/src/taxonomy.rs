//! The immutable taxonomy with interval-labeled reachability.

// tsg-lint: allow(index) — closure, depth, and relation tables are all sized to the concept count, and concept ids are validated at the builder boundary

use crate::reach::{Closure, ClosureMemo, Csr, Reachability, NONE};
use crate::TaxonomyError;
use std::sync::atomic::{AtomicU64, Ordering}; // tsg-lint: allow(facade) — crate layering: tsg-taxonomy sits below the facade crate; the id counter is a process-wide ticket with no cross-thread protocol
use tsg_bitset::BitSet;
use tsg_graph::{GraphDatabase, NodeLabel};

/// An immutable is-a DAG over concepts `0..concept_count()` with
/// O(1) interval-labeled ancestorship and lazily materialized closures.
///
/// Built via [`crate::TaxonomyBuilder`]. A spanning forest of the DAG
/// carries DFS pre/post intervals, so `is_ancestor` is a pair of integer
/// comparisons on the tree path and a short sparse-set probe across
/// cross-links; storage is `O(n + cross-links)` instead of the old dense
/// `O(n²)`-bit closure matrix, which is what lets a 10⁶-concept ontology
/// fit in tens of megabytes. [`Taxonomy::ancestors`] and
/// [`Taxonomy::descendants`] materialize sorted [`Closure`] views on
/// demand, memoized per taxonomy under a fixed byte budget.
#[derive(Debug)]
pub struct Taxonomy {
    parents: Csr,
    children: Csr,
    reach: Reachability,
    /// Longest-path depth from a root (roots have depth 0).
    depth: Vec<u32>,
    roots: Vec<NodeLabel>,
    /// Concepts with ids `>= artificial_from` were introduced by
    /// [`Taxonomy::unify_most_general`] rather than declared by the user.
    artificial_from: usize,
    /// Presence mask for [`Taxonomy::restrict`]; absent concepts keep their
    /// ids but have no relations.
    present: Vec<bool>,
    /// Bounded cache of materialized closures (not part of the value:
    /// clones start with an empty memo).
    memo: ClosureMemo,
    /// Process-unique identity, fresh on construction and on clone; see
    /// [`Taxonomy::id`].
    id: u64,
}

/// Source of [`Taxonomy::id`] values.
static NEXT_ID: AtomicU64 = AtomicU64::new(0);

fn next_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed) // tsg-lint: ordering(ORD-21)
}

impl Clone for Taxonomy {
    fn clone(&self) -> Taxonomy {
        Taxonomy {
            parents: self.parents.clone(),
            children: self.children.clone(),
            reach: self.reach.clone(),
            depth: self.depth.clone(),
            roots: self.roots.clone(),
            artificial_from: self.artificial_from,
            present: self.present.clone(),
            memo: ClosureMemo::new(),
            id: next_id(),
        }
    }
}

impl Taxonomy {
    pub(crate) fn from_relations(
        parents: &[Vec<NodeLabel>],
        children: &[Vec<NodeLabel>],
    ) -> Result<Taxonomy, TaxonomyError> {
        let n = parents.len();
        if n == 0 {
            return Err(TaxonomyError::Empty);
        }
        let present = vec![true; n];
        Self::from_relations_masked(parents, children, present, n)
    }

    /// Core constructor: validates acyclicity over present concepts and
    /// builds the interval labeling. `artificial_from` marks where
    /// artificial ids begin.
    fn from_relations_masked(
        parents: &[Vec<NodeLabel>],
        children: &[Vec<NodeLabel>],
        present: Vec<bool>,
        artificial_from: usize,
    ) -> Result<Taxonomy, TaxonomyError> {
        let n = parents.len();
        // Kahn's algorithm from roots downward: a concept is ready once all
        // its parents are processed.
        let mut remaining: Vec<usize> = parents.iter().map(Vec::len).collect();
        let mut queue: Vec<usize> = (0..n)
            .filter(|&i| present[i] && remaining[i] == 0)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(v) = queue.pop() {
            order.push(v);
            for &c in &children[v] {
                remaining[c.index()] -= 1;
                if remaining[c.index()] == 0 {
                    queue.push(c.index());
                }
            }
        }
        let present_count = present.iter().filter(|&&p| p).count();
        if order.len() != present_count {
            let on = (0..n)
                .find(|&i| present[i] && remaining[i] > 0)
                .expect("some concept must remain on a cycle"); // tsg-lint: allow(panic) — a short toposort means some present concept stayed on a cycle
            return Err(TaxonomyError::Cycle { on: NodeLabel(on as u32) });
        }

        let mut depth = vec![0u32; n];
        for &v in &order {
            let mut d = 0;
            for p in &parents[v] {
                d = d.max(depth[p.index()] + 1);
            }
            depth[v] = d;
        }
        let parents = Csr::from_rows(parents);
        let children = Csr::from_rows(children);
        let reach = Reachability::build(&parents, &children, &present, &order);
        let roots = (0..n)
            .filter(|&i| present[i] && parents.row(i).is_empty())
            .map(|i| NodeLabel(i as u32))
            .collect();
        Ok(Taxonomy {
            parents,
            children,
            reach,
            depth,
            roots,
            artificial_from,
            present,
            memo: ClosureMemo::new(),
            id: next_id(),
        })
    }

    /// A process-unique identity: fresh on every construction and every
    /// clone, never reused. A taxonomy has no mutating API, so two reads
    /// of the same id always see the same relations — which lets callers
    /// key per-taxonomy caches by it (the occurrence-index builder's
    /// frontier memo does).
    #[inline]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Number of concept ids (including absent ones after
    /// [`Taxonomy::restrict`] and artificial ones after
    /// [`Taxonomy::unify_most_general`]).
    #[inline]
    pub fn concept_count(&self) -> usize {
        self.parents.len()
    }

    /// Number of concepts actually present.
    pub fn present_count(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }

    /// `true` iff the concept id is present (not pruned).
    #[inline]
    pub fn contains(&self, l: NodeLabel) -> bool {
        self.present.get(l.index()).copied().unwrap_or(false)
    }

    /// `true` iff the concept was introduced by
    /// [`Taxonomy::unify_most_general`].
    #[inline]
    pub fn is_artificial(&self, l: NodeLabel) -> bool {
        l.index() >= self.artificial_from
    }

    /// Direct parents (one-step generalizations).
    #[inline]
    pub fn parents(&self, l: NodeLabel) -> &[NodeLabel] {
        self.parents.row(l.index())
    }

    /// Direct children (one-step specializations).
    #[inline]
    pub fn children(&self, l: NodeLabel) -> &[NodeLabel] {
        self.children.row(l.index())
    }

    /// The reflexive ancestor closure of `l` as a sorted [`Closure`] view,
    /// materialized lazily and memoized for hot labels.
    pub fn ancestors(&self, l: NodeLabel) -> Closure {
        if !self.contains(l) {
            return Closure::empty();
        }
        let id = l.0;
        if let Some(c) = self.memo.get(false, id) {
            return c;
        }
        let c = Closure::from_sorted(self.reach.ancestors_of(l.index()));
        self.memo.put(false, id, &c);
        c
    }

    /// The reflexive descendant closure of `l` as a sorted [`Closure`]
    /// view: the contiguous spanning-tree interval plus cross-linked
    /// concepts reaching into it.
    pub fn descendants(&self, l: NodeLabel) -> Closure {
        if !self.contains(l) {
            return Closure::empty();
        }
        let id = l.0;
        if let Some(c) = self.memo.get(true, id) {
            return c;
        }
        let c = Closure::from_sorted(self.reach.descendants_of(l.index()));
        self.memo.put(true, id, &c);
        c
    }

    /// `true` iff `anc` is an ancestor of `desc` (reflexively, per the
    /// paper: every label is an ancestor of itself). O(1) interval
    /// containment on the spanning tree; cross-link ancestry falls back to
    /// probing `desc`'s extra interval roots.
    #[inline]
    pub fn is_ancestor(&self, anc: NodeLabel, desc: NodeLabel) -> bool {
        let (a, d) = (anc.index(), desc.index());
        if self.reach.tree_contains(a, d) {
            return true;
        }
        match self.reach.extra_of(d) {
            None => false,
            Some(extra) => extra.iter().any(|&r| self.reach.tree_contains(a, r as usize)),
        }
    }

    /// `true` iff a pattern vertex labeled `pattern` may match a database
    /// vertex labeled `db` under generalized isomorphism (paper §2:
    /// `λ₁(υ) = λ₂(φ(υ))` or `λ₁(υ) ∈ Anc(λ₂(φ(υ)))`).
    #[inline]
    pub fn matches_generalized(&self, pattern: NodeLabel, db: NodeLabel) -> bool {
        self.is_ancestor(pattern, db)
    }

    /// Longest-path depth of `l` from a root (roots are depth 0).
    #[inline]
    pub fn depth(&self, l: NodeLabel) -> u32 {
        self.depth[l.index()]
    }

    /// The maximum depth over present concepts; a tree of `k` levels has
    /// `max_depth() == k - 1`.
    pub fn max_depth(&self) -> u32 {
        (0..self.concept_count())
            .filter(|&i| self.present[i])
            .map(|i| self.depth[i])
            .max()
            .unwrap_or(0)
    }

    /// The present concepts with no parents.
    #[inline]
    pub fn roots(&self) -> &[NodeLabel] {
        &self.roots
    }

    /// Iterates all present concept ids.
    pub fn concepts(&self) -> impl Iterator<Item = NodeLabel> + '_ {
        (0..self.concept_count())
            .filter(|&i| self.present[i])
            .map(|i| NodeLabel(i as u32))
    }

    /// Size of the reflexive ancestor closure of `l` without materializing
    /// it: O(1) on extra-free concepts (tree depth plus one), closure
    /// length otherwise.
    pub fn ancestor_count(&self, l: NodeLabel) -> usize {
        if !self.contains(l) {
            return 0;
        }
        let v = l.index();
        match self.reach.extra_of(v) {
            None => self.reach.tree_depth(v) as usize + 1,
            Some(_) => self.ancestors(l).len(),
        }
    }

    /// Number of strict ancestors of `l` (closure minus itself).
    pub fn strict_ancestor_count(&self, l: NodeLabel) -> usize {
        self.ancestor_count(l) - 1
    }

    /// Mean strict-ancestor count over present concepts — the `d` of the
    /// paper's Lemma 1 (`O(dⁿ)` generalized patterns).
    pub fn avg_ancestor_count(&self) -> f64 {
        let n = self.present_count();
        if n == 0 {
            return 0.0;
        }
        let total: usize = self.concepts().map(|l| self.strict_ancestor_count(l)).sum();
        total as f64 / n as f64
    }

    /// The common reflexive ancestors of `a` and `b` as a sorted
    /// [`Closure`]. When both concepts are tree-covered this is the tree
    /// chain above their lowest common ancestor (no materialized closures
    /// touched); otherwise it is the sorted-merge intersection of the two
    /// ancestor closures.
    pub fn common_ancestors(&self, a: NodeLabel, b: NodeLabel) -> Closure {
        if !self.contains(a) || !self.contains(b) {
            return Closure::empty();
        }
        let (ai, bi) = (a.index(), b.index());
        if self.reach.extra_of(ai).is_none() && self.reach.extra_of(bi).is_none() {
            if self.reach.tree_root(ai) != self.reach.tree_root(bi) {
                return Closure::empty();
            }
            let (mut x, mut y) = (ai, bi);
            while self.reach.tree_depth(x) > self.reach.tree_depth(y) {
                x = self.reach.tree_parent(x) as usize;
            }
            while self.reach.tree_depth(y) > self.reach.tree_depth(x) {
                y = self.reach.tree_parent(y) as usize;
            }
            while x != y {
                x = self.reach.tree_parent(x) as usize;
                y = self.reach.tree_parent(y) as usize;
            }
            debug_assert_ne!(x as u32, NONE);
            // The LCA of extra-free concepts is itself extra-free, so its
            // ancestor closure is exactly the tree chain.
            return Closure::from_sorted(self.reach.ancestors_of(x));
        }
        self.ancestors(a).intersection(&self.ancestors(b))
    }

    /// The most general ancestors of `l`: the roots in its ancestor
    /// closure. Each ancestor chain ends at exactly one forest root, so
    /// this is the deduplicated set of tree roots over `l` and its extra
    /// interval roots — no closure materialization.
    pub fn most_general_ancestors(&self, l: NodeLabel) -> Vec<NodeLabel> {
        if !self.contains(l) {
            return Vec::new();
        }
        let v = l.index();
        let mut out = vec![self.reach.tree_root(v)];
        if let Some(extra) = self.reach.extra_of(v) {
            for &r in extra {
                out.push(self.reach.tree_root(r as usize));
            }
        }
        out.sort_unstable();
        out.dedup();
        out.into_iter().map(NodeLabel).collect()
    }

    /// The unique most general ancestor of `l`, or `None` if there are
    /// several (run [`Taxonomy::unify_most_general`] first in that case).
    pub fn most_general_ancestor(&self, l: NodeLabel) -> Option<NodeLabel> {
        let mga = self.most_general_ancestors(l);
        match mga.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

    /// Ensures every concept has a unique most general ancestor by adding
    /// artificial root concepts, as prescribed in §3 Step 1 of the paper
    /// ("an artificial node with a unique label l_r is introduced as the
    /// common ancestor of nodes in Ancs(l)").
    ///
    /// Roots are grouped by co-reachability: if any label reaches two roots,
    /// those roots must end up under the same artificial ancestor (grouping
    /// transitively, so the result is well defined). Returns `self`
    /// unchanged (cloned) when every concept already has a unique root.
    pub fn unify_most_general(&self) -> Taxonomy {
        let n = self.concept_count();
        // Union-find over root ids.
        let mut uf: Vec<usize> = (0..n).collect();
        fn find(uf: &mut [usize], x: usize) -> usize {
            let mut r = x;
            while uf[r] != r {
                r = uf[r];
            }
            let mut c = x;
            while uf[c] != r {
                let next = uf[c];
                uf[c] = r;
                c = next;
            }
            r
        }
        for l in self.concepts() {
            let mga = self.most_general_ancestors(l);
            for w in mga.windows(2) {
                let (a, b) = (find(&mut uf, w[0].index()), find(&mut uf, w[1].index()));
                if a != b {
                    uf[a] = b;
                }
            }
        }
        // Collect groups with more than one root.
        let mut groups: std::collections::HashMap<usize, Vec<NodeLabel>> =
            std::collections::HashMap::new();
        for &r in &self.roots {
            let rep = find(&mut uf, r.index());
            groups.entry(rep).or_default().push(r);
        }
        let mut multi: Vec<Vec<NodeLabel>> = groups.into_values().filter(|g| g.len() > 1).collect();
        if multi.is_empty() {
            return self.clone();
        }
        multi.sort_by_key(|g| g[0]); // deterministic id assignment
        let mut parents = self.parents.to_rows();
        let mut children = self.children.to_rows();
        let mut present = self.present.clone();
        for group in multi {
            let new_id = NodeLabel(parents.len() as u32);
            parents.push(Vec::new());
            children.push(Vec::new());
            present.push(true);
            for root in group {
                parents[root.index()].push(new_id);
                children[new_id.index()].push(root);
            }
        }
        Self::from_relations_masked(&parents, &children, present, n)
            .expect("adding fresh roots cannot create a cycle") // tsg-lint: allow(panic) — adding fresh roots cannot create a cycle
    }

    /// Restricts the taxonomy to the concepts in `keep` (a bitset over
    /// concept ids), implementing enhancement *b* of §3: pruning
    /// generalized-infrequent concepts.
    ///
    /// # Panics
    /// Panics if `keep` is not upward-closed (a kept concept with a pruned
    /// parent): generalized frequency is monotone upward, so a correct
    /// caller can never produce that shape, and silently reconnecting would
    /// hide a support-computation bug.
    pub fn restrict(&self, keep: &BitSet) -> Taxonomy {
        let n = self.concept_count();
        assert_eq!(keep.universe(), n, "keep mask universe mismatch");
        let mut parents = vec![Vec::new(); n];
        let mut children = vec![Vec::new(); n];
        let mut present = vec![false; n];
        for i in 0..n {
            if !self.present[i] || !keep.contains(i) {
                continue;
            }
            present[i] = true;
            for &p in self.parents.row(i) {
                assert!(
                    keep.contains(p.index()) && self.present[p.index()],
                    "restrict: kept concept {i} has pruned parent {p} — keep set must be upward-closed"
                );
                parents[i].push(p);
                children[p.index()].push(NodeLabel(i as u32));
            }
        }
        Self::from_relations_masked(&parents, &children, present, self.artificial_from)
            .expect("restriction of a DAG is a DAG") // tsg-lint: allow(panic) — restriction of a DAG is a DAG
    }

    /// For every concept, the number of **distinct database graphs**
    /// containing a vertex whose label is a (reflexive) descendant of that
    /// concept — i.e. the generalized support count of the size-1 pattern
    /// with that label.
    ///
    /// This drives enhancement *b* (pruning concepts below the support
    /// threshold) and the Apriori filter of Step 3 ("labels that do not
    /// appear in at least θ·|D| distinct graphs are not considered during
    /// the construction of OI(n)").
    pub fn generalized_label_frequencies(&self, db: &GraphDatabase) -> Vec<usize> {
        let n = self.concept_count();
        let mut counts = vec![0usize; n];
        // Per-graph dedup via an epoch-stamped scratch array: each graph
        // walks parent edges upward from its labels and stops at concepts
        // already stamped for it, so every ancestor is counted once per
        // graph without materializing a closure.
        let mut stamp = vec![0u32; n];
        let mut epoch = 0u32;
        let mut stack: Vec<usize> = Vec::new();
        for (_, g) in db.iter() {
            epoch += 1;
            for &l in g.labels() {
                let v = l.index();
                if v >= n || !self.present[v] || stamp[v] == epoch {
                    continue;
                }
                stamp[v] = epoch;
                stack.push(v);
                while let Some(c) = stack.pop() {
                    counts[c] += 1;
                    for &p in self.parents.row(c) {
                        if stamp[p.index()] != epoch {
                            stamp[p.index()] = epoch;
                            stack.push(p.index());
                        }
                    }
                }
            }
        }
        counts
    }

    /// The is-a edges as `(child, parent)` pairs (for serialization and
    /// round-tripping through text formats).
    pub fn edge_list(&self) -> Vec<(NodeLabel, NodeLabel)> {
        let mut edges = Vec::new();
        for i in 0..self.concept_count() {
            for &p in self.parents.row(i) {
                edges.push((NodeLabel(i as u32), p));
            }
        }
        edges
    }

    /// Total number of is-a edges (the paper's "relationship count").
    pub fn relationship_count(&self) -> usize {
        self.parents.item_count()
    }

    /// Resident bytes of the reachability labeling plus cross-link
    /// fallback sets — the structure that replaced the dense `O(n²)`-bit
    /// closure matrix. Excludes the adjacency lists and the closure memo
    /// (see [`Taxonomy::memo_bytes`]).
    pub fn closure_bytes(&self) -> usize {
        self.reach.closure_bytes()
    }

    /// Current resident bytes of memoized [`Closure`] materializations.
    pub fn memo_bytes(&self) -> usize {
        self.memo.bytes()
    }

    /// Resident bytes of the parent/child adjacency lists.
    pub fn adjacency_bytes(&self) -> usize {
        self.parents.heap_bytes() + self.children.heap_bytes()
    }

    /// Number of concepts whose ancestry needs a cross-link fallback set
    /// (zero for a pure tree such as NCBI).
    pub fn cross_link_concepts(&self) -> usize {
        self.reach.extra_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::taxonomy_from_edges;
    use tsg_graph::{EdgeLabel, LabeledGraph};

    fn l(v: u32) -> NodeLabel {
        NodeLabel(v)
    }

    /// A 3-level tree: 0 root; 1, 2 under 0; 3, 4 under 1; 5 under 2.
    fn tree() -> Taxonomy {
        taxonomy_from_edges(6, [(1, 0), (2, 0), (3, 1), (4, 1), (5, 2)]).unwrap()
    }

    #[test]
    fn closures_and_depth() {
        let t = tree();
        assert_eq!(t.concept_count(), 6);
        assert_eq!(t.roots(), &[l(0)]);
        assert_eq!(t.ancestors(l(3)).to_vec(), vec![0, 1, 3]);
        assert_eq!(t.descendants(l(0)).to_vec(), vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(t.descendants(l(1)).to_vec(), vec![1, 3, 4]);
        assert_eq!(t.depth(l(0)), 0);
        assert_eq!(t.depth(l(5)), 2);
        assert_eq!(t.max_depth(), 2);
        assert!(t.is_ancestor(l(0), l(5)));
        assert!(t.is_ancestor(l(5), l(5)), "reflexive");
        assert!(!t.is_ancestor(l(5), l(0)));
        assert_eq!(t.strict_ancestor_count(l(3)), 2);
        assert_eq!(t.cross_link_concepts(), 0, "a tree needs no fallback sets");
    }

    #[test]
    fn diamond_depth_is_longest_path() {
        // 0 -> 1 -> 3 and 0 -> 2 -> 4 -> 3 (3 has parents 1 and 4).
        let t = taxonomy_from_edges(5, [(1, 0), (2, 0), (3, 1), (4, 2), (3, 4)]).unwrap();
        assert_eq!(t.depth(l(3)), 3, "longest path wins");
        assert_eq!(t.ancestors(l(3)).to_vec(), vec![0, 1, 2, 3, 4]);
        assert!(t.cross_link_concepts() > 0, "diamond needs a fallback set");
        assert_eq!(t.ancestor_count(l(3)), 5);
        assert_eq!(t.strict_ancestor_count(l(3)), 4);
    }

    #[test]
    fn cross_link_reachability_through_second_parent() {
        // 0 -> 1, 0 -> 2, 2 -> 3; cross-link 3 is-a 1 as second parent.
        let t = taxonomy_from_edges(4, [(1, 0), (2, 0), (3, 2), (3, 1)]).unwrap();
        assert!(t.is_ancestor(l(1), l(3)), "cross-link parent reachable");
        assert!(t.is_ancestor(l(2), l(3)), "tree parent reachable");
        assert!(t.is_ancestor(l(0), l(3)));
        assert!(!t.is_ancestor(l(3), l(1)));
        assert_eq!(t.descendants(l(1)).to_vec(), vec![1, 3]);
        assert_eq!(t.descendants(l(2)).to_vec(), vec![2, 3]);
        assert_eq!(t.ancestors(l(3)).to_vec(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn common_ancestors_tree_and_dag_paths() {
        let t = tree();
        assert_eq!(t.common_ancestors(l(3), l(4)).to_vec(), vec![0, 1]);
        assert_eq!(t.common_ancestors(l(3), l(5)).to_vec(), vec![0]);
        assert_eq!(t.common_ancestors(l(3), l(3)).to_vec(), vec![0, 1, 3]);
        // Multi-root: no shared root means no common ancestors.
        let two = taxonomy_from_edges(4, [(2, 0), (3, 1)]).unwrap();
        assert!(two.common_ancestors(l(2), l(3)).is_empty());
        // DAG path: diamond 0->1->3, 0->2->3.
        let d = taxonomy_from_edges(4, [(1, 0), (2, 0), (3, 1), (3, 2)]).unwrap();
        assert_eq!(d.common_ancestors(l(1), l(3)).to_vec(), vec![0, 1]);
        assert_eq!(d.common_ancestors(l(1), l(2)).to_vec(), vec![0]);
    }

    #[test]
    fn most_general_ancestor_unique_in_single_root() {
        let t = tree();
        for c in t.concepts() {
            assert_eq!(t.most_general_ancestor(c), Some(l(0)));
        }
    }

    #[test]
    fn unify_most_general_adds_artificial_root_for_shared_descendants() {
        // Two roots 0 and 1 sharing child 2; root 3 isolated with child 4.
        let t = taxonomy_from_edges(5, [(2, 0), (2, 1), (4, 3)]).unwrap();
        assert_eq!(t.most_general_ancestor(l(2)), None, "ambiguous before unify");
        let u = t.unify_most_general();
        assert_eq!(u.concept_count(), 6);
        let art = l(5);
        assert!(u.is_artificial(art));
        assert!(!u.is_artificial(l(4)));
        assert_eq!(u.most_general_ancestor(l(2)), Some(art));
        assert_eq!(u.most_general_ancestor(l(0)), Some(art));
        assert_eq!(
            u.most_general_ancestor(l(4)),
            Some(l(3)),
            "independent root untouched"
        );
        assert_eq!(u.roots().len(), 2);
    }

    #[test]
    fn unify_is_identity_when_unambiguous() {
        let t = tree();
        let u = t.unify_most_general();
        assert_eq!(u.concept_count(), t.concept_count());
        assert_eq!(u.roots(), t.roots());
    }

    #[test]
    fn unify_groups_transitively() {
        // Roots 0,1,2; label 3 reaches 0,1; label 4 reaches 1,2.
        // All three roots must share one artificial ancestor.
        let t = taxonomy_from_edges(5, [(3, 0), (3, 1), (4, 1), (4, 2)]).unwrap();
        let u = t.unify_most_general();
        assert_eq!(u.concept_count(), 6);
        let mga3 = u.most_general_ancestor(l(3)).unwrap();
        let mga4 = u.most_general_ancestor(l(4)).unwrap();
        assert_eq!(mga3, mga4);
        assert!(u.is_artificial(mga3));
    }

    #[test]
    fn restrict_drops_downward_closed_complement() {
        let t = tree();
        // Keep 0, 1, 3 (prune 2, 4, 5) — upward closed.
        let keep = BitSet::from_iter_with_universe(6, [0usize, 1, 3]);
        let r = t.restrict(&keep);
        assert_eq!(r.present_count(), 3);
        assert!(r.contains(l(1)));
        assert!(!r.contains(l(2)));
        assert_eq!(r.children(l(1)), &[l(3)]);
        assert_eq!(r.children(l(0)), &[l(1)]);
        assert_eq!(r.roots(), &[l(0)]);
        assert_eq!(r.max_depth(), 2);
        assert_eq!(r.concept_count(), 6, "id space preserved");
        // Absent concepts have empty closures and no ancestry at all.
        assert!(r.ancestors(l(5)).is_empty());
        assert!(r.descendants(l(5)).is_empty());
        assert!(!r.is_ancestor(l(5), l(5)), "absent is not its own ancestor");
        assert!(!r.is_ancestor(l(0), l(5)));
        assert!(r.most_general_ancestors(l(5)).is_empty());
    }

    #[test]
    #[should_panic(expected = "upward-closed")]
    fn restrict_rejects_non_upward_closed_keep() {
        let keep = BitSet::from_iter_with_universe(6, [0usize, 3]); // 3 kept, parent 1 pruned
        tree().restrict(&keep);
    }

    #[test]
    fn generalized_label_frequencies_count_ancestor_hits() {
        let t = tree();
        // G1 has labels {3}, G2 has {4, 5}, G3 has {3, 3}.
        let mk = |labels: &[u32]| {
            let mut g = LabeledGraph::with_nodes(labels.iter().map(|&x| l(x)));
            for i in 1..labels.len() {
                g.add_edge(i - 1, i, EdgeLabel(0)).unwrap();
            }
            g
        };
        let db = GraphDatabase::from_graphs(vec![mk(&[3]), mk(&[4, 5]), mk(&[3, 3])]);
        let f = t.generalized_label_frequencies(&db);
        assert_eq!(f[0], 3, "root covers everything");
        assert_eq!(f[1], 3, "1 covers 3 and 4");
        assert_eq!(f[2], 1, "2 covers only 5");
        assert_eq!(f[3], 2);
        assert_eq!(f[4], 1);
        assert_eq!(f[5], 1);
    }

    #[test]
    fn avg_ancestor_count_matches_hand_computation() {
        let t = tree();
        // strict ancestors: 0:0, 1:1, 2:1, 3:2, 4:2, 5:2 → mean 8/6.
        assert!((t.avg_ancestor_count() - 8.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn edge_list_roundtrips() {
        let t = tree();
        let edges: Vec<(u32, u32)> = t.edge_list().iter().map(|&(c, p)| (c.0, p.0)).collect();
        let t2 = taxonomy_from_edges(6, edges).unwrap();
        assert_eq!(t2.relationship_count(), t.relationship_count());
        for c in t.concepts() {
            assert_eq!(t2.ancestors(c).to_vec(), t.ancestors(c).to_vec());
        }
    }

    #[test]
    fn closure_memo_returns_identical_views() {
        let t = tree();
        let a1 = t.ancestors(l(3));
        let a2 = t.ancestors(l(3));
        assert_eq!(a1, a2);
        assert!(t.memo_bytes() > 0, "second query served from the memo");
        // Clones start with a cold memo but identical answers.
        let c = t.clone();
        assert_eq!(c.memo_bytes(), 0);
        assert_eq!(c.ancestors(l(3)), a1);
    }

    #[test]
    fn closure_bytes_are_linear_not_quadratic() {
        let t = tree();
        // 6 concepts: the labeling is a handful of u32 arrays, nowhere near
        // the 6×6-bit dense matrix ballpark once n grows; just pin that the
        // accessor reports something sane and small here.
        assert!(t.closure_bytes() < 1024, "got {}", t.closure_bytes());
    }
}
