//! Mining configuration: threshold, caps, and the paper's efficiency
//! enhancements as independent toggles.

/// The four efficiency enhancements of §3 ("Additional Efficiency
/// Enhancements and Pruning Methods"), each independently switchable so
/// the benchmark suite can reproduce the paper's *baseline* (all off) and
/// run per-enhancement ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Enhancements {
    /// *(a)* During specialized-pattern enumeration, once replacing a node
    /// label with child `c` yields insufficient support, skip every
    /// descendant of `c` at that position (support is antitone along
    /// specialization, so this pruning is exact). When off, the enumerator
    /// keeps probing descendants with non-empty occurrence sets — the
    /// paper's baseline behavior.
    pub apriori_child_prune: bool,
    /// *(b)* Remove taxonomy concepts whose generalized size-1 support is
    /// below the threshold before mining, shrinking every occurrence
    /// index. (Also covers Step 2's note (ii): infrequent labels are not
    /// inserted into occurrence-index entries.)
    pub prune_infrequent_labels: bool,
    /// *(c)* Before enumerating a class, descend each root-position label
    /// along children whose occurrence set equals the parent's — those
    /// parents can only yield over-generalized patterns.
    pub predescend_roots: bool,
    /// *(d)* Contract occurrence-index nodes whose occurrence set equals a
    /// child's, rewiring the child to the removed node's parents; every
    /// pattern using the removed label is necessarily over-generalized.
    pub contract_equal_sets: bool,
}

impl Enhancements {
    /// Every enhancement on — the configuration the paper calls
    /// "Taxogram".
    pub fn all() -> Self {
        Enhancements {
            apriori_child_prune: true,
            prune_infrequent_labels: true,
            predescend_roots: true,
            contract_equal_sets: true,
        }
    }

    /// Every enhancement off — the configuration the paper calls the
    /// "baseline algorithm" (§4.1: "the same as Taxogram except that the
    /// baseline algorithm does not utilize efficiency enhancements").
    pub fn none() -> Self {
        Enhancements {
            apriori_child_prune: false,
            prune_infrequent_labels: false,
            predescend_roots: false,
            contract_equal_sets: false,
        }
    }
}

impl Default for Enhancements {
    fn default() -> Self {
        Enhancements::all()
    }
}

/// Full mining configuration.
#[derive(Clone, Copy, Debug)]
pub struct TaxogramConfig {
    /// Fractional support threshold `θ ∈ [0, 1]`; a pattern must occur in
    /// at least `⌈θ·|D|⌉` distinct graphs (and always at least one).
    pub threshold: f64,
    /// Optional cap on pattern size in edges (unlimited when `None`).
    /// The 1-edge seeds are always reported, so `Some(0)` mines as
    /// `Some(1)`; the CLI and serve reject 0.
    pub max_edges: Option<usize>,
    /// Enhancement toggles.
    pub enhancements: Enhancements,
    /// Emit over-generalized patterns too (skipping the paper's
    /// minimality filter), i.e. every generalized-frequent pattern.
    /// Off by default.
    pub keep_overgeneralized: bool,
}

impl TaxogramConfig {
    /// Standard configuration (all enhancements) at the given threshold.
    pub fn with_threshold(threshold: f64) -> Self {
        TaxogramConfig {
            threshold,
            max_edges: None,
            enhancements: Enhancements::all(),
            keep_overgeneralized: false,
        }
    }

    /// The paper's baseline: identical pipeline, no enhancements.
    pub fn baseline(threshold: f64) -> Self {
        TaxogramConfig {
            threshold,
            max_edges: None,
            enhancements: Enhancements::none(),
            keep_overgeneralized: false,
        }
    }

    /// Returns a copy with a pattern-size cap.
    pub fn max_edges(mut self, cap: usize) -> Self {
        self.max_edges = Some(cap);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        let t = TaxogramConfig::with_threshold(0.2);
        assert_eq!(t.enhancements, Enhancements::all());
        assert!(t.max_edges.is_none());
        let b = TaxogramConfig::baseline(0.2);
        assert_eq!(b.enhancements, Enhancements::none());
        assert!(!b.enhancements.apriori_child_prune);
        let capped = t.max_edges(5);
        assert_eq!(capped.max_edges, Some(5));
        assert_eq!(Enhancements::default(), Enhancements::all());
    }
}
