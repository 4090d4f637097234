//! Information-content semantic similarity over a taxonomy.
//!
//! The paper's bibliography includes Resnik's IJCAI'95 measure
//! ("Using Information Content to Evaluate Semantic Similarity in a
//! Taxonomy", reference \[16\]); this module implements it — plus Lin's
//! normalized variant — so mined patterns can be compared, clustered, or
//! ranked by how semantically specific their labels are.
//!
//! * The **information content** of concept `c` is
//!   `IC(c) = -ln(freq(c) / freq(root))`, where `freq` is the generalized
//!   occurrence frequency (a concept "occurs" whenever any of its
//!   reflexive descendants does — exactly
//!   [`Taxonomy::generalized_label_frequencies`]).
//! * `sim_resnik(a, b) = max IC(c)` over common ancestors `c` of `a` and
//!   `b` (the *most informative common ancestor*, MICA).
//! * `sim_lin(a, b) = 2·IC(mica) / (IC(a) + IC(b))`, in `[0, 1]`.

use crate::Taxonomy;
use tsg_graph::{GraphDatabase, NodeLabel};

/// Precomputed information content per concept, over a given corpus.
#[derive(Clone, Debug)]
pub struct InformationContent {
    ic: Vec<f64>,
}

impl InformationContent {
    /// Computes IC values from corpus frequencies: `freq[c]` must be the
    /// generalized occurrence count of concept `c` (any descendant
    /// counts). Concepts with zero frequency get `IC = +∞` — they are
    /// maximally specific with respect to this corpus.
    ///
    /// # Panics
    /// Panics if `freq.len() != taxonomy.concept_count()` or if every
    /// frequency is zero.
    pub fn from_frequencies(taxonomy: &Taxonomy, freq: &[usize]) -> Self {
        assert_eq!(freq.len(), taxonomy.concept_count(), "frequency vector length");
        // The corpus total is the largest root frequency: with a unified
        // root it is exactly freq(root); with several roots each subtree
        // is normalized against the overall maximum, keeping IC ≥ 0.
        let total = taxonomy
            .roots()
            .iter()
            .map(|r| freq[r.index()]) // tsg-lint: allow(index) — roots index a frequency table sized to the concept count (documented contract)
            .max()
            .unwrap_or(0);
        assert!(total > 0, "corpus contains no occurrences of any root concept");
        let ic = freq
            .iter()
            .map(|&f| {
                if f == 0 {
                    f64::INFINITY
                } else {
                    -((f as f64 / total as f64).ln())
                }
            })
            .collect();
        InformationContent { ic }
    }

    /// Convenience: IC from a database's generalized label frequencies.
    pub fn from_database(taxonomy: &Taxonomy, db: &GraphDatabase) -> Self {
        Self::from_frequencies(taxonomy, &taxonomy.generalized_label_frequencies(db))
    }

    /// The information content of a concept.
    pub fn ic(&self, c: NodeLabel) -> f64 {
        self.ic[c.index()] // tsg-lint: allow(index) — the NodeLabel is a concept id of the originating taxonomy (documented contract)
    }

    /// The most informative common ancestor of `a` and `b` under this
    /// corpus, if the two concepts share any ancestor.
    pub fn mica(&self, taxonomy: &Taxonomy, a: NodeLabel, b: NodeLabel) -> Option<NodeLabel> {
        let common = taxonomy.common_ancestors(a, b);
        common
            .iter()
            .map(|i| NodeLabel(i as u32))
            .filter(|&c| self.ic(c).is_finite())
            .max_by(|&x, &y| {
                self.ic(x)
                    .partial_cmp(&self.ic(y))
                    .expect("finite ICs compare") // tsg-lint: allow(panic) — information contents are finite logs of positive counts
                    // Deterministic tie-break by id.
                    .then_with(|| y.cmp(&x))
            })
    }

    /// Resnik similarity: IC of the MICA (0 when the only shared ancestor
    /// is corpus-universal, `None` when no ancestor is shared — a
    /// multi-root taxonomy without unification).
    pub fn sim_resnik(&self, taxonomy: &Taxonomy, a: NodeLabel, b: NodeLabel) -> Option<f64> {
        self.mica(taxonomy, a, b).map(|c| self.ic(c))
    }

    /// Lin similarity in `[0, 1]`: `2·IC(mica) / (IC(a) + IC(b))`.
    /// Returns 1.0 when `a == b` (even for zero-frequency concepts) and
    /// `None` when the concepts share no ancestor.
    pub fn sim_lin(&self, taxonomy: &Taxonomy, a: NodeLabel, b: NodeLabel) -> Option<f64> {
        if a == b {
            return Some(1.0);
        }
        let mica = self.sim_resnik(taxonomy, a, b)?;
        let denom = self.ic(a) + self.ic(b);
        if denom == 0.0 {
            // Both are corpus-universal: identical in information terms.
            return Some(1.0);
        }
        if !denom.is_finite() {
            return Some(0.0);
        }
        Some((2.0 * mica / denom).clamp(0.0, 1.0))
    }
}

/// Mean pairwise Lin similarity between the label multisets of two
/// patterns — a simple semantic distance for clustering mined patterns.
/// Returns `None` if any cross-pair shares no ancestor.
pub fn pattern_label_similarity(
    ic: &InformationContent,
    taxonomy: &Taxonomy,
    a: &[NodeLabel],
    b: &[NodeLabel],
) -> Option<f64> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for &x in a {
        for &y in b {
            total += ic.sim_lin(taxonomy, x, y)?;
            n += 1;
        }
    }
    Some(total / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::taxonomy_from_edges;
    use tsg_graph::{EdgeLabel, LabeledGraph};

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }

    /// Chain 0 > 1 > 2 plus sibling 3 under 0; corpus where 2 occurs in 2
    /// graphs, 3 in 6 graphs.
    fn setup() -> (Taxonomy, InformationContent) {
        let t = taxonomy_from_edges(4, [(1, 0), (2, 1), (3, 0)]).unwrap();
        let mut graphs = vec![];
        let mk = |l: u32| {
            let mut g = LabeledGraph::with_nodes([nl(l), nl(l)]);
            g.add_edge(0, 1, EdgeLabel(0)).unwrap();
            g
        };
        for _ in 0..2 {
            graphs.push(mk(2));
        }
        for _ in 0..6 {
            graphs.push(mk(3));
        }
        let db = GraphDatabase::from_graphs(graphs);
        let ic = InformationContent::from_database(&t, &db);
        (t, ic)
    }

    #[test]
    fn ic_decreases_toward_the_root() {
        let (t, ic) = setup();
        assert_eq!(ic.ic(nl(0)), 0.0, "root is corpus-universal");
        assert!(ic.ic(nl(1)) > 0.0);
        assert!(ic.ic(nl(2)) >= ic.ic(nl(1)), "specific ≥ general");
        let _ = t;
    }

    #[test]
    fn mica_picks_the_deepest_shared_ancestor() {
        let (t, ic) = setup();
        // 2 and 1 share {0, 1}; MICA = 1.
        assert_eq!(ic.mica(&t, nl(2), nl(1)), Some(nl(1)));
        // 2 and 3 share only the root.
        assert_eq!(ic.mica(&t, nl(2), nl(3)), Some(nl(0)));
    }

    #[test]
    fn resnik_orders_relatedness() {
        let (t, ic) = setup();
        let close = ic.sim_resnik(&t, nl(2), nl(1)).unwrap();
        let far = ic.sim_resnik(&t, nl(2), nl(3)).unwrap();
        assert!(close > far, "{close} vs {far}");
        assert_eq!(far, 0.0, "root-only overlap carries no information");
    }

    #[test]
    fn lin_is_normalized() {
        let (t, ic) = setup();
        assert_eq!(ic.sim_lin(&t, nl(2), nl(2)), Some(1.0));
        let v = ic.sim_lin(&t, nl(2), nl(1)).unwrap();
        assert!(v > 0.0 && v <= 1.0);
        assert_eq!(ic.sim_lin(&t, nl(2), nl(3)), Some(0.0), "root-only overlap");
        assert_eq!(ic.sim_lin(&t, nl(0), nl(0)), Some(1.0));
    }

    #[test]
    fn zero_frequency_concepts_are_infinitely_specific() {
        let t = taxonomy_from_edges(3, [(1, 0), (2, 0)]).unwrap();
        // Corpus mentions only concept 1.
        let mut g = LabeledGraph::with_nodes([nl(1)]);
        let _ = &mut g;
        let db = GraphDatabase::from_graphs(vec![g]);
        let ic = InformationContent::from_database(&t, &db);
        assert!(ic.ic(nl(2)).is_infinite());
        assert_eq!(ic.sim_lin(&t, nl(2), nl(1)), Some(0.0));
        assert_eq!(ic.sim_lin(&t, nl(2), nl(2)), Some(1.0));
    }

    #[test]
    fn pattern_similarity_groups_related_labels() {
        // Letter fixture: b-branch (d, k) vs c-branch (f, w), over a
        // corpus where every concept appears with distinct frequency.
        let (c, t) = samples::sample_taxonomy();
        let mk = |l: NodeLabel, n: usize| {
            (0..n)
                .map(|_| {
                    let mut g = LabeledGraph::with_nodes([l, l]);
                    g.add_edge(0, 1, EdgeLabel(0)).unwrap();
                    g
                })
                .collect::<Vec<_>>()
        };
        let mut graphs = vec![];
        graphs.extend(mk(c.k, 1)); // deep b-branch, rare
        graphs.extend(mk(c.d, 2));
        graphs.extend(mk(c.f, 3)); // c-branch
        graphs.extend(mk(c.w, 4));
        let db = GraphDatabase::from_graphs(graphs);
        let ic = InformationContent::from_database(&t, &db);
        // Within-branch labels are more similar than cross-branch ones.
        let within_b = ic.sim_lin(&t, c.d, c.k).unwrap();
        let cross = ic.sim_lin(&t, c.d, c.f).unwrap();
        assert!(within_b > cross, "{within_b} vs {cross}");
        // Pattern-level aggregation agrees.
        let same = pattern_label_similarity(&ic, &t, &[c.d, c.k], &[c.d]).unwrap();
        let far = pattern_label_similarity(&ic, &t, &[c.d, c.k], &[c.f, c.w]).unwrap();
        assert!(same > far, "{same} vs {far}");
    }
}
