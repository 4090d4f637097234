//! Expected-support interestingness for taxonomy patterns.
//!
//! The paper's related work (§5) credits Srikant & Agrawal (VLDB'95) with
//! the first taxonomy-aware mining and with "an interest measure based on
//! expected support … employed to prune out redundant patterns". This
//! module ports that *R-interestingness* measure from generalized
//! association rules to taxonomy-superimposed graph patterns:
//!
//! For a pattern `P` with vertex `i` labeled `l`, let `P↑i` be `P` with
//! `l` replaced by one of its taxonomy parents `l′`. If labels specialized
//! independently of structure, one would expect
//!
//! ```text
//! E[sup(P)] = sup(P↑i) · f(l) / f(l′)
//! ```
//!
//! where `f` is the per-concept generalized document frequency (the
//! fraction of graphs containing any descendant of the concept). A pattern
//! is **R-interesting** when its actual support is at least `R` times the
//! expected support for *every* one-step generalization — i.e. the pattern
//! says something its generalizations plus label statistics do not.
//!
//! This complements, not replaces, the paper's over-generalization filter:
//! minimality removes patterns that are *redundant given a specialization*;
//! R-interestingness removes patterns that are *predictable given a
//! generalization*.

use crate::miner::Pattern;
use tsg_graph::GraphDatabase;
use tsg_iso::{support_count, GeneralizedMatcher};
use tsg_taxonomy::Taxonomy;

/// The interest analysis of one pattern.
#[derive(Clone, Debug)]
pub struct InterestScore {
    /// The minimum actual/expected support ratio over all one-step
    /// generalizations; `None` when the pattern has no generalization
    /// (every label is a root), in which case it is vacuously interesting.
    pub min_ratio: Option<f64>,
}

impl InterestScore {
    /// `true` iff the pattern is R-interesting at the given factor.
    pub fn is_interesting(&self, r: f64) -> bool {
        self.min_ratio.is_none_or(|m| m >= r)
    }
}

/// Scores one pattern. `label_freq[c]` must be the generalized
/// document frequency count of concept `c` (see
/// [`Taxonomy::generalized_label_frequencies`]); supports of the
/// generalizations are counted directly against `db`.
pub fn score_pattern(
    pattern: &Pattern,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    label_freq: &[usize],
) -> InterestScore {
    let matcher = GeneralizedMatcher::new(taxonomy);
    let mut min_ratio: Option<f64> = None;
    for (i, &l) in pattern.graph.labels().iter().enumerate() {
        for &parent in taxonomy.parents(l) {
            if taxonomy.is_artificial(parent) {
                continue;
            }
            let f_l = label_freq[l.index()] as f64; // tsg-lint: allow(index) — concept ids are dense indices into the frequency table
            let f_p = label_freq[parent.index()] as f64; // tsg-lint: allow(index) — concept ids are dense indices into the frequency table
            if f_l == 0.0 || f_p == 0.0 {
                continue;
            }
            let mut gen = pattern.graph.clone();
            gen.set_label(i, parent);
            let gen_sup = support_count(&gen, db, &matcher) as f64;
            if gen_sup == 0.0 {
                continue;
            }
            let expected = gen_sup * f_l / f_p;
            let ratio = pattern.support_count as f64 / expected;
            min_ratio = Some(min_ratio.map_or(ratio, |m: f64| m.min(ratio)));
        }
    }
    InterestScore { min_ratio }
}

/// Filters a mined pattern set down to the R-interesting ones, preserving
/// order. `r = 1.0` keeps patterns at least as frequent as label
/// statistics predict; Srikant & Agrawal suggest `r > 1` (e.g. 1.1) to
/// keep only those that beat the prediction.
pub fn r_interesting<'a>(
    patterns: &'a [Pattern],
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    r: f64,
) -> Vec<(&'a Pattern, InterestScore)> {
    let label_freq = taxonomy.generalized_label_frequencies(db);
    patterns
        .iter()
        .filter_map(|p| {
            let score = score_pattern(p, db, taxonomy, &label_freq);
            score.is_interesting(r).then_some((p, score))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Taxogram, TaxogramConfig};
    use tsg_graph::{EdgeLabel, LabeledGraph, NodeLabel};
    use tsg_taxonomy::taxonomy_from_edges;

    fn edge(a: u32, b: u32) -> LabeledGraph {
        let mut g = LabeledGraph::with_nodes([NodeLabel(a), NodeLabel(b)]);
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g
    }

    /// Taxonomy 0 > {1, 2}; labels 1 and 2 equally frequent, but edges
    /// 1—1 appear far more often than independence predicts.
    fn skewed_db() -> (Taxonomy, GraphDatabase) {
        let t = taxonomy_from_edges(3, [(1, 0), (2, 0)]).unwrap();
        // 4 graphs with a 1—1 edge, 4 graphs holding 2s but paired 2—1.
        let mut graphs = vec![];
        for _ in 0..4 {
            graphs.push(edge(1, 1));
        }
        for _ in 0..4 {
            graphs.push(edge(2, 2));
        }
        (t, GraphDatabase::from_graphs(graphs))
    }

    #[test]
    fn root_only_patterns_are_vacuously_interesting() {
        let (t, db) = skewed_db();
        let p = Pattern {
            graph: edge(0, 0),
            support_count: 8,
            support: 1.0,
        };
        let freq = t.generalized_label_frequencies(&db);
        let s = score_pattern(&p, &db, &t, &freq);
        assert!(s.min_ratio.is_none());
        assert!(s.is_interesting(10.0));
    }

    #[test]
    fn concentrated_specializations_score_above_one() {
        let (t, db) = skewed_db();
        // sup(1—1) = 4; generalizations 0—1 (sup 4) and 1—0 (sup 4).
        // f(1) = 4, f(0) = 8 → expected = 4 · 4/8 = 2 → ratio = 2.
        let p = Pattern {
            graph: edge(1, 1),
            support_count: 4,
            support: 0.5,
        };
        let freq = t.generalized_label_frequencies(&db);
        let s = score_pattern(&p, &db, &t, &freq);
        let r = s.min_ratio.unwrap();
        assert!((r - 2.0).abs() < 1e-9, "ratio {r}");
        assert!(s.is_interesting(1.5));
        assert!(!s.is_interesting(2.5));
    }

    #[test]
    fn filter_runs_on_mined_output() {
        // 3×(1—1), 3×(2—2), 2×(1—2): the mixed edge 1—2 occurs exactly as
        // often as label statistics predict would be 3.1 graphs — it is
        // *under*-represented (ratio ≈ 0.64) and must be filtered at
        // r = 1.5, while the vacuously-interesting root pattern stays.
        let t = taxonomy_from_edges(3, [(1, 0), (2, 0)]).unwrap();
        let mut graphs = vec![];
        graphs.extend((0..3).map(|_| edge(1, 1)));
        graphs.extend((0..3).map(|_| edge(2, 2)));
        graphs.extend((0..2).map(|_| edge(1, 2)));
        let db = GraphDatabase::from_graphs(graphs);
        let result = Taxogram::new(TaxogramConfig::with_threshold(0.25))
            .mine(&db, &t)
            .unwrap();
        let all = r_interesting(&result.patterns, &db, &t, 0.0);
        assert_eq!(all.len(), result.patterns.len(), "r=0 keeps everything");
        let strict = r_interesting(&result.patterns, &db, &t, 1.5);
        assert!(strict.len() < all.len(), "r=1.5 filters the predictable");
        let has = |set: &[(&Pattern, InterestScore)], g: &LabeledGraph| {
            set.iter().any(|(p, _)| tsg_iso::is_isomorphic(&p.graph, g))
        };
        assert!(has(&all, &edge(1, 2)), "1—2 is frequent");
        assert!(!has(&strict, &edge(1, 2)), "…but predictable, so filtered");
        assert!(has(&strict, &edge(0, 0)), "root pattern is vacuous");
        for (p, score) in &strict {
            assert!(score.is_interesting(1.5));
            assert!(p.support_count >= result.min_support_count);
        }
    }

    #[test]
    fn uniform_data_scores_near_one() {
        // Labels 1 and 2 used interchangeably: ratios hover around 1.
        let t = taxonomy_from_edges(3, [(1, 0), (2, 0)]).unwrap();
        let db = GraphDatabase::from_graphs(vec![
            edge(1, 1),
            edge(1, 2),
            edge(2, 1),
            edge(2, 2),
        ]);
        let p = Pattern {
            graph: edge(1, 1),
            support_count: 1,
            support: 0.25,
        };
        let freq = t.generalized_label_frequencies(&db);
        let s = score_pattern(&p, &db, &t, &freq);
        // f(1) = 3 graphs, f(0) = 4; sup(0—1) = 3 → expected 2.25,
        // ratio ≈ 0.44 — below 1, not interesting at r = 1.
        assert!(!s.is_interesting(1.0));
    }
}
