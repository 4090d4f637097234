//! Embeddings and rightmost-path extension enumeration.
//!
//! gSpan grows a pattern only along its rightmost path: backward edges from
//! the rightmost vertex to another rightmost-path vertex, and forward edges
//! from any rightmost-path vertex to a fresh vertex. Enumerating the legal
//! extensions of every current embedding, grouped by the DFS edge they
//! induce, is the workhorse shared by the miner and by the minimality
//! check.
//!
//! The miner walks the candidates twice. [`count_extensions`] counts each
//! key's distinct graphs without materializing anything; the miner then
//! drops infrequent and non-minimal keys, and [`grow_extensions`] builds
//! embeddings for the surviving keys only. Most candidate keys fail one of
//! the two tests, so most embeddings are never built.

// tsg-lint: allow(index) — frame vectors are sized to next_id and DFS ids are dense below it

use crate::dfs_code::{dfs_edge_cmp, ArcDir, DfsCode, DfsEdge};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use tsg_graph::{EdgeId, GraphDatabase, GraphId, NodeId, NodeLabel};

/// One embedding of a DFS code into a database graph: `map[dfs_id]` is the
/// database vertex, `edges[k]` the database edge realizing code edge `k`.
///
/// Full maps (rather than gSpan's shared-prefix chains) cost more memory
/// but give Taxogram's occurrence-index sink direct access to every mapped
/// vertex, which it needs anyway to read original labels.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Embedding {
    /// The database graph containing this embedding.
    pub gid: GraphId,
    /// DFS id → database vertex.
    pub map: Vec<NodeId>,
    /// Code edge index → database edge id.
    pub edges: Vec<EdgeId>,
}

impl Embedding {
    #[inline]
    fn uses_edge(&self, e: EdgeId) -> bool {
        self.edges.contains(&e)
    }

    #[inline]
    fn maps_vertex(&self, v: NodeId) -> bool {
        self.map.contains(&v)
    }
}

/// The FxHash multiply-rotate scheme, for extension keys. A key is a few
/// small integers hashed once per candidate; on D1000 the count pass
/// hashes ~230k candidates per mine, and SipHash made the gSpan search
/// ~30% slower. The labels in a key come from the database being mined,
/// so a database crafted to collide can slow only its own mine: the serve
/// daemon mines just the database it was started with, and clients send
/// no labels.
#[derive(Default)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn add(&mut self, x: u64) {
        self.0 = (self.0.rotate_left(5) ^ x).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    fn write_u32(&mut self, x: u32) {
        self.add(u64::from(x));
    }
    fn write_usize(&mut self, x: usize) {
        self.add(x as u64);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Distinct-graph count per extension key, for candidates arriving in
/// ascending graph-id order: each key keeps the last graph id it saw, so
/// a repeat within one graph costs one comparison and no set.
#[derive(Default)]
struct KeyCounts {
    slot: HashMap<DfsEdge, usize, BuildHasherDefault<KeyHasher>>,
    /// `(key, support, last graph id)` in first-seen order.
    counts: Vec<(DfsEdge, usize, GraphId)>,
}

impl KeyCounts {
    #[inline]
    fn see(&mut self, key: DfsEdge, gid: GraphId) {
        let counts = &mut self.counts;
        let slot = *self.slot.entry(key).or_insert_with(|| {
            counts.push((key, 0, GraphId::MAX));
            counts.len() - 1
        });
        let (_, count, last) = &mut counts[slot];
        debug_assert!(
            *last == GraphId::MAX || gid >= *last,
            "candidates out of gid order"
        );
        if *last != gid {
            *count += 1;
            *last = gid;
        }
    }

    /// `(key, support)` pairs in canonical key order.
    fn into_vec(self) -> Vec<(DfsEdge, usize)> {
        let mut out: Vec<(DfsEdge, usize)> = self
            .counts
            .into_iter()
            .map(|(key, count, _)| (key, count))
            .collect();
        out.sort_unstable_by(|a, b| dfs_edge_cmp(&a.0, &b.0));
        out
    }
}

/// Calls `f` with every seed candidate of `db`, in database order: the
/// 1-edge DFS key plus the two database vertices realizing it (code
/// vertex 0 ↦ `a`, 1 ↦ `b`) and the database edge id.
///
/// Every database edge yields candidates for the orientation(s) whose
/// `from_label ≤ to_label` — the other orientation can never start a
/// minimal code. When both endpoint labels are equal, both orientations
/// are candidates of the same seed.
fn for_each_seed_candidate(
    db: &GraphDatabase,
    mut f: impl FnMut(DfsEdge, GraphId, NodeId, NodeId, EdgeId),
) {
    for (gid, g) in db.iter() {
        let directed = g.is_directed();
        for (eid, e) in g.edges().iter().enumerate() {
            let (lu, lv) = (g.label(e.u), g.label(e.v));
            // Orientation (a, b): code vertex 0 ↦ a, 1 ↦ b. Keep only
            // orientations that can start a minimal code: the smaller
            // endpoint label first; on a label tie in a directed graph,
            // only the arc-source-first variant (FromTo < ToFrom).
            let both = [(e.u, e.v), (e.v, e.u)];
            let orientations = match lu.cmp(&lv) {
                Ordering::Less => &both[..1],
                Ordering::Greater => &both[1..],
                Ordering::Equal if directed => &both[..1],
                Ordering::Equal => &both[..],
            };
            for &(a, b) in orientations {
                let arc = if !directed {
                    ArcDir::Undirected
                } else if a == e.u {
                    ArcDir::FromTo
                } else {
                    ArcDir::ToFrom
                };
                let key = DfsEdge {
                    from: 0,
                    to: 1,
                    from_label: g.label(a),
                    elabel: e.label,
                    arc,
                    to_label: g.label(b),
                };
                f(key, gid, a, b, eid);
            }
        }
    }
}

/// Every single-edge seed key of `db`, in canonical order, with its
/// support: the number of distinct graphs realizing it. Nothing is
/// materialized.
pub fn seed_counts(db: &GraphDatabase) -> Vec<(DfsEdge, usize)> {
    let mut counts = KeyCounts::default();
    for_each_seed_candidate(db, |key, gid, _, _, _| counts.see(key, gid));
    counts.into_vec()
}

/// The single-edge seed codes of `db` supported by at least
/// `min_support` distinct graphs, in canonical order, each with its
/// embeddings in database order. Seeds are counted first and only the
/// frequent ones are materialized.
pub fn seed_extensions(
    db: &GraphDatabase,
    min_support: usize,
) -> Vec<(DfsEdge, Vec<Embedding>)> {
    let keys: Vec<DfsEdge> = seed_counts(db)
        .into_iter()
        .filter(|&(_, support)| support >= min_support)
        .map(|(key, _)| key)
        .collect();
    let grown = seed_embeddings(db, &keys);
    keys.into_iter().zip(grown).collect()
}

/// The embeddings of each seed key in `keys` (sorted canonically, without
/// duplicates), parallel to `keys`, each list in database order. A key
/// that no seed candidate of `db` realizes gets an empty list.
pub(crate) fn seed_embeddings(db: &GraphDatabase, keys: &[DfsEdge]) -> Vec<Vec<Embedding>> {
    let mut grown: Vec<Vec<Embedding>> = vec![Vec::new(); keys.len()];
    if !keys.is_empty() {
        for_each_seed_candidate(db, |key, gid, a, b, eid| {
            if let Ok(slot) = keys.binary_search_by(|k| dfs_edge_cmp(k, &key)) {
                grown[slot].push(Embedding {
                    gid,
                    map: vec![a, b],
                    edges: vec![eid],
                });
            }
        });
    }
    grown
}

/// The smallest seed key of `db` with its embedding list written into
/// `out` (reusing `out`'s allocation), or `None` for an edgeless database.
///
/// Equivalent to `seed_extensions(db, 1)`'s first entry, but allocation-free
/// apart from the embeddings themselves: candidates are scanned twice —
/// once to find the minimum key, once to materialize only its embeddings —
/// so losing orientations are never cloned and no map is built. This is
/// the seed step of the minimality check, which runs once per mined node.
pub fn min_seed(db: &GraphDatabase, out: &mut Vec<Embedding>) -> Option<DfsEdge> {
    out.clear();
    let mut best: Option<DfsEdge> = None;
    for_each_seed_candidate(db, |key, _, _, _, _| match &best {
        None => best = Some(key),
        Some(b) => {
            if dfs_edge_cmp(&key, b) == Ordering::Less {
                best = Some(key);
            }
        }
    });
    let min = best?;
    for_each_seed_candidate(db, |key, gid, a, b, eid| {
        if key == min {
            out.push(Embedding {
                gid,
                map: vec![a, b],
                edges: vec![eid],
            });
        }
    });
    Some(min)
}

/// Per-code context shared by every embedding while enumerating that
/// code's rightmost-path extension candidates.
struct ExtFrame {
    /// Rightmost path, root first, rightmost vertex last.
    path: Vec<usize>,
    /// The rightmost vertex (last element of `path`).
    rmost: usize,
    rmost_label: NodeLabel,
    /// DFS id a forward extension would assign (`code.node_count()`).
    next_id: usize,
    /// Vertex label per DFS id.
    vlabels: Vec<NodeLabel>,
}

impl ExtFrame {
    fn of(code: &DfsCode) -> ExtFrame {
        let path = code.rightmost_path();
        let &rmost = path.last().expect("nonempty code has a rightmost path"); // tsg-lint: allow(panic) — a nonempty code always has a rightmost path
        let next_id = code.node_count();
        let mut vlabels = vec![NodeLabel(0); next_id];
        for e in code.edges() {
            vlabels[e.from] = e.from_label;
            vlabels[e.to] = e.to_label;
        }
        ExtFrame {
            rmost_label: vlabels[rmost],
            path,
            rmost,
            next_id,
            vlabels,
        }
    }
}

/// The arc direction of a DFS edge realized by adjacency entry `a`.
#[inline]
fn arc_of(directed: bool, a: &tsg_graph::Adjacency) -> ArcDir {
    if !directed {
        ArcDir::Undirected
    } else if a.outgoing {
        ArcDir::FromTo
    } else {
        ArcDir::ToFrom
    }
}

/// Calls `f` with every legal rightmost-path extension candidate of one
/// embedding: the induced DFS key, the database edge realizing it, and
/// the newly discovered database vertex for forward extensions (`None`
/// for backward ones). Candidate order is fixed — backward extensions
/// off the rightmost vertex first (adjacency-major), then forward
/// extensions along the path (path-major) — so callers grouping by key
/// reproduce identical per-key embedding orders.
fn for_each_candidate(
    frame: &ExtFrame,
    emb: &Embedding,
    g: &tsg_graph::LabeledGraph,
    mut f: impl FnMut(DfsEdge, EdgeId, Option<NodeId>),
) {
    for_each_backward(frame, emb, g, &mut f);
    for &v in frame.path.iter() {
        for_each_forward(frame, emb, g, v, &mut f);
    }
}

/// The backward candidates of one embedding: rightmost vertex → earlier
/// rightmost-path vertex, via an unused database edge, in adjacency
/// order. With antiparallel arcs both adjacency entries produce
/// (direction-distinct) extensions.
fn for_each_backward(
    frame: &ExtFrame,
    emb: &Embedding,
    g: &tsg_graph::LabeledGraph,
    mut f: impl FnMut(DfsEdge, EdgeId, Option<NodeId>),
) {
    let (_, spine) = frame
        .path
        .split_last()
        .expect("frame path is never empty"); // tsg-lint: allow(panic) — frame path built from a nonempty code is never empty
    for a in g.neighbors(emb.map[frame.rmost]) {
        if emb.uses_edge(a.edge) {
            continue;
        }
        for &v in spine {
            if emb.map[v] == a.to {
                let key = DfsEdge {
                    from: frame.rmost,
                    to: v,
                    from_label: frame.rmost_label,
                    elabel: a.elabel,
                    arc: arc_of(g.is_directed(), a),
                    to_label: frame.vlabels[v],
                };
                f(key, a.edge, None);
            }
        }
    }
}

/// The forward candidates of one embedding off rightmost-path vertex
/// `v`: an edge to a database vertex the embedding does not map yet, in
/// adjacency order.
fn for_each_forward(
    frame: &ExtFrame,
    emb: &Embedding,
    g: &tsg_graph::LabeledGraph,
    v: usize,
    mut f: impl FnMut(DfsEdge, EdgeId, Option<NodeId>),
) {
    for a in g.neighbors(emb.map[v]) {
        if emb.maps_vertex(a.to) {
            continue;
        }
        let key = DfsEdge {
            from: v,
            to: frame.next_id,
            from_label: frame.vlabels[v],
            elabel: a.elabel,
            arc: arc_of(g.is_directed(), a),
            to_label: g.label(a.to),
        };
        f(key, a.edge, Some(a.to));
    }
}

/// The embedding of `emb` grown by one candidate extension, each vector
/// allocated once at its final length.
fn grow(emb: &Embedding, eid: EdgeId, fresh: Option<NodeId>) -> Embedding {
    let mut map = Vec::with_capacity(emb.map.len() + usize::from(fresh.is_some()));
    map.extend_from_slice(&emb.map);
    map.extend(fresh);
    let mut edges = Vec::with_capacity(emb.edges.len() + 1);
    edges.extend_from_slice(&emb.edges);
    edges.push(eid);
    Embedding {
        gid: emb.gid,
        map,
        edges,
    }
}

/// Every legal rightmost-path extension key of `code` across
/// `embeddings`, in canonical order, with its support: the number of
/// distinct database graphs among the embeddings it would grow.
///
/// Nothing is materialized. `embeddings` must be in ascending graph-id
/// order (as gSpan produces them), which lets each key count distinct
/// graphs with a last-seen graph id instead of a set.
pub fn count_extensions(
    code: &DfsCode,
    embeddings: &[Embedding],
    db: &GraphDatabase,
) -> Vec<(DfsEdge, usize)> {
    let frame = ExtFrame::of(code);
    let mut counts = KeyCounts::default();
    for emb in embeddings {
        let g = db.graph(emb.gid);
        for_each_candidate(&frame, emb, g, |key, _, _| counts.see(key, emb.gid));
    }
    counts.into_vec()
}

/// The grown embeddings of `code` for each of `keys` (extension keys of
/// `code`, such as [`count_extensions`] returns), parallel to `keys`.
///
/// Only each key's own candidates are walked: a forward key's among the
/// neighbours of its source vertex, a backward key's among the rightmost
/// vertex's. Each list therefore holds its key's embeddings in the order
/// a full enumeration would produce them — ascending graph id, then
/// adjacency order within an embedding — and no other key's embedding is
/// ever built.
pub fn grow_extensions(
    code: &DfsCode,
    embeddings: &[Embedding],
    db: &GraphDatabase,
    keys: &[DfsEdge],
) -> Vec<Vec<Embedding>> {
    let mut grown: Vec<Vec<Embedding>> = vec![Vec::new(); keys.len()];
    if keys.is_empty() {
        return grown;
    }
    let frame = ExtFrame::of(code);
    for emb in embeddings {
        let g = db.graph(emb.gid);
        for (key, list) in keys.iter().zip(grown.iter_mut()) {
            let push = |k: DfsEdge, eid, fresh| {
                if k == *key {
                    list.push(grow(emb, eid, fresh));
                }
            };
            if key.is_forward() {
                for_each_forward(&frame, emb, g, key.from, push);
            } else {
                for_each_backward(&frame, emb, g, push);
            }
        }
    }
    grown
}

/// The smallest rightmost-path extension of `code` across `embeddings`,
/// with the grown embeddings of that (and only that) extension written
/// into `out`, reusing `out`'s allocation. `None` if no extension exists.
///
/// The minimality check only ever consumes the smallest extension, so it
/// skips counting: candidates are scanned twice — minimum first, then
/// materialize — and the resulting embedding list is byte-identical to
/// [`grow_extensions`]' list for that key.
pub fn min_extension(
    code: &DfsCode,
    embeddings: &[Embedding],
    db: &GraphDatabase,
    out: &mut Vec<Embedding>,
) -> Option<DfsEdge> {
    out.clear();
    let frame = ExtFrame::of(code);
    let mut best: Option<DfsEdge> = None;
    for emb in embeddings {
        let g = db.graph(emb.gid);
        for_each_candidate(&frame, emb, g, |key, _, _| match &best {
            None => best = Some(key),
            Some(b) => {
                if dfs_edge_cmp(&key, b) == Ordering::Less {
                    best = Some(key);
                }
            }
        });
    }
    let min = best?;
    for emb in embeddings {
        let g = db.graph(emb.gid);
        for_each_candidate(&frame, emb, g, |key, eid, fresh| {
            if key == min {
                out.push(grow(emb, eid, fresh));
            }
        });
    }
    Some(min)
}

/// Approximate heap footprint of an embedding list in bytes: the spine
/// plus each embedding's vertex map and edge list.
pub fn embedding_list_bytes(embeddings: &[Embedding]) -> usize {
    let spine = std::mem::size_of_val(embeddings);
    let inner: usize = embeddings
        .iter()
        .map(|e| std::mem::size_of_val(&e.map[..]) + std::mem::size_of_val(&e.edges[..]))
        .sum();
    spine + inner
}

/// The number of distinct database graphs among `embeddings` — gSpan's
/// support count. Embeddings are produced in ascending `gid` order, which
/// this exploits.
pub fn distinct_graph_count(embeddings: &[Embedding]) -> usize {
    let mut n = 0;
    let mut last = usize::MAX;
    for e in embeddings {
        debug_assert!(last == usize::MAX || e.gid >= last, "embeddings out of gid order");
        if e.gid != last {
            n += 1;
            last = e.gid;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, LabeledGraph, NodeLabel};

    fn nl(v: u32) -> NodeLabel {
        NodeLabel(v)
    }
    fn el(v: u32) -> EdgeLabel {
        EdgeLabel(v)
    }

    /// The label triple of a seed key.
    fn seed_labels(key: &DfsEdge) -> (NodeLabel, EdgeLabel, NodeLabel) {
        (key.from_label, key.elabel, key.to_label)
    }

    fn path_graph(labels: &[u32]) -> LabeledGraph {
        let mut g = LabeledGraph::with_nodes(labels.iter().map(|&x| nl(x)));
        for i in 1..labels.len() {
            g.add_edge(i - 1, i, el(0)).unwrap();
        }
        g
    }

    /// Every extension of `code`, counted and grown.
    fn all_extensions(
        code: &DfsCode,
        embs: &[Embedding],
        db: &GraphDatabase,
    ) -> Vec<(DfsEdge, Vec<Embedding>)> {
        let keys: Vec<DfsEdge> = count_extensions(code, embs, db)
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        let grown = grow_extensions(code, embs, db, &keys);
        keys.into_iter().zip(grown).collect()
    }

    #[test]
    fn seeds_orient_smaller_label_first() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[2, 1])]);
        let seeds = seed_extensions(&db, 1);
        assert_eq!(seeds.len(), 1);
        let (key, embs) = &seeds[0];
        assert_eq!(seed_labels(key), (nl(1), el(0), nl(2)));
        assert_eq!(embs.len(), 1);
        assert_eq!(embs[0].map, vec![1, 0], "map starts at the label-1 vertex");
    }

    #[test]
    fn equal_labels_produce_both_orientations() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 1])]);
        let seeds = seed_extensions(&db, 1);
        assert_eq!(seeds.len(), 1);
        assert_eq!(seeds[0].1.len(), 2);
    }

    #[test]
    fn forward_extension_from_rightmost_path() {
        // DB: path 1-2-3. Code: (0,1,1,0,2). Extensions: forward (1,2,2,0,3).
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2, 3])]);
        let seeds = seed_extensions(&db, 1);
        let (key, embs) = seeds
            .iter()
            .find(|(k, _)| seed_labels(k) == (nl(1), el(0), nl(2)))
            .unwrap();
        let code = DfsCode::from_edges(vec![*key]);
        let exts = all_extensions(&code, embs, &db);
        assert_eq!(exts.len(), 1);
        let (ek, eembs) = &exts[0];
        assert_eq!(ek.from, 1);
        assert_eq!(ek.to, 2);
        assert_eq!(ek.to_label, nl(3));
        assert_eq!(eembs[0].map, vec![0, 1, 2]);
        assert_eq!(eembs[0].edges.len(), 2);
    }

    #[test]
    fn backward_extension_closes_triangle() {
        let mut g = LabeledGraph::with_nodes([nl(1), nl(2), nl(3)]);
        g.add_edge(0, 1, el(0)).unwrap();
        g.add_edge(1, 2, el(0)).unwrap();
        g.add_edge(2, 0, el(0)).unwrap();
        let db = GraphDatabase::from_graphs(vec![g]);
        // Grow code (0,1,1,0,2)(1,2,2,0,3); expect backward (2,0).
        let seeds = seed_extensions(&db, 1);
        let (k1, e1) = seeds
            .iter()
            .find(|(k, _)| seed_labels(k) == (nl(1), el(0), nl(2)))
            .unwrap();
        let code1 = DfsCode::from_edges(vec![*k1]);
        let exts1 = all_extensions(&code1, e1, &db);
        let (k2, e2) = exts1
            .iter()
            .find(|(k, _)| k.to_label == nl(3) && k.from == 1)
            .unwrap();
        let mut code2 = code1.clone();
        code2.push(*k2);
        let exts2 = all_extensions(&code2, e2, &db);
        let back: Vec<_> = exts2.iter().filter(|(k, _)| !k.is_forward()).collect();
        assert_eq!(back.len(), 1);
        assert_eq!((back[0].0.from, back[0].0.to), (2, 0));
        // The backward-extended embedding reuses no edge.
        assert_eq!(back[0].1[0].edges.len(), 3);
    }

    #[test]
    fn used_edges_are_not_reused() {
        // Single edge graph: after the seed, no extensions at all.
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2])]);
        let seeds = seed_extensions(&db, 1);
        let (k, embs) = &seeds[0];
        let code = DfsCode::from_edges(vec![*k]);
        assert!(count_extensions(&code, embs, &db).is_empty());
    }

    #[test]
    fn counts_are_distinct_graphs_and_growth_is_selective() {
        // Path 1-2-1 twice plus 1-2-3 once: from seed 1-2 the forward
        // extension to label 1 occurs in two graphs (twice in each, once
        // per orientation of the seed), the one to label 3 in one.
        let db = GraphDatabase::from_graphs(vec![
            path_graph(&[1, 2, 1]),
            path_graph(&[1, 2, 1]),
            path_graph(&[1, 2, 3]),
        ]);
        let seeds = seed_extensions(&db, 1);
        let (key, embs) = &seeds[0];
        assert_eq!(seed_labels(key), (nl(1), el(0), nl(2)));
        let code = DfsCode::from_edges(vec![*key]);
        let counts = count_extensions(&code, embs, &db);
        let support_of = |label: u32| {
            counts
                .iter()
                .find(|(k, _)| k.to_label == nl(label))
                .map(|&(_, s)| s)
        };
        assert_eq!(support_of(1), Some(2));
        assert_eq!(support_of(3), Some(1));
        // Growing one key builds that key's embeddings and nothing else.
        let (only, _) = *counts.iter().find(|(k, _)| k.to_label == nl(1)).unwrap();
        let grown = grow_extensions(&code, embs, &db, &[only]);
        assert_eq!(grown.len(), 1);
        assert_eq!(grown[0].len(), 4);
        assert_eq!(distinct_graph_count(&grown[0]), 2);
        assert!(grow_extensions(&code, embs, &db, &[]).is_empty());
    }

    #[test]
    fn distinct_graph_count_collapses_same_gid() {
        let mk = |gid| Embedding {
            gid,
            map: vec![0, 1],
            edges: vec![0],
        };
        assert_eq!(distinct_graph_count(&[mk(0), mk(0), mk(2)]), 2);
        assert_eq!(distinct_graph_count(&[]), 0);
    }

    #[test]
    fn infrequent_seeds_are_never_grown() {
        let db = GraphDatabase::from_graphs(vec![path_graph(&[1, 2]), path_graph(&[1, 2])]);
        assert_eq!(seed_extensions(&db, 2).len(), 1);
        assert!(seed_extensions(&db, 3).is_empty());
    }
}
