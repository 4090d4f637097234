//! Order-sensitive digest of a pattern list, the output check every
//! timed mine is held to.

use taxogram_core::Pattern;

/// FNV-1a over each pattern's support count, node labels and edges, in
/// emission order, plus the pattern count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest {
    /// Number of patterns.
    pub patterns: usize,
    /// 64-bit FNV-1a hash.
    pub hash: u64,
}

/// FNV-1a's initial state.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a hash `h` over `bytes`.
pub fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn mix(h: &mut u64, word: u64) {
    *h = fnv1a(*h, &word.to_le_bytes());
}

impl Digest {
    /// Digests `patterns`.
    pub fn of(patterns: &[Pattern]) -> Digest {
        let mut h = FNV_OFFSET;
        for p in patterns {
            mix(&mut h, p.support_count as u64);
            let labels = p.graph.labels();
            mix(&mut h, labels.len() as u64);
            for l in labels {
                mix(&mut h, u64::from(l.0));
            }
            let edges = p.graph.edges();
            mix(&mut h, edges.len() as u64);
            for e in edges {
                mix(&mut h, e.u as u64);
                mix(&mut h, e.v as u64);
                mix(&mut h, u64::from(e.label.0));
            }
        }
        Digest {
            patterns: patterns.len(),
            hash: h,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, LabeledGraph, NodeLabel};

    fn pattern(labels: [u32; 2], edge: u32, support: usize) -> Pattern {
        let mut g = LabeledGraph::with_nodes(labels.map(NodeLabel));
        g.add_edge(0, 1, EdgeLabel(edge)).unwrap();
        Pattern {
            graph: g,
            support_count: support,
            support: 0.5,
        }
    }

    #[test]
    fn digest_sees_support_labels_edges_and_order() {
        let a = pattern([1, 2], 0, 3);
        let b = pattern([1, 3], 0, 3);
        let base = Digest::of(&[a.clone(), b.clone()]);
        assert_eq!(base, Digest::of(&[a.clone(), b.clone()]));
        assert_eq!(base.patterns, 2);
        assert_ne!(base, Digest::of(&[b.clone(), a.clone()]), "order");
        assert_ne!(base, Digest::of(std::slice::from_ref(&a)), "count");
        assert_ne!(
            base,
            Digest::of(&[a.clone(), pattern([1, 3], 0, 4)]),
            "support"
        );
        assert_ne!(
            base,
            Digest::of(&[a.clone(), pattern([1, 4], 0, 3)]),
            "label"
        );
        assert_ne!(base, Digest::of(&[a, pattern([1, 3], 1, 3)]), "edge label");
        assert_ne!(Digest::of(&[]), base);
    }
}
