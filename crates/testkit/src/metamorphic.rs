//! Metamorphic relations for taxonomy-superimposed mining.
//!
//! A metamorphic relation states how the *output* must respond to a
//! known transformation of the *input*, giving an oracle where no
//! ground truth is available. The relations here are theorems of the
//! problem definition (paper §2), so any violation is a bug:
//!
//! 1. **Taxonomy flattening** — with no is-a edges, generalization is
//!    vacuous: relabeling is the identity and every pattern class has
//!    exactly one member (itself), so the output must be *byte-identical*
//!    to plain gSpan on the same database.
//! 2. **Engine agreement** — the serial and pipelined engines must
//!    produce byte-identical results and do the same work: equal
//!    occurrence, occurrence-index update, Step 2 and Step 3 counters.
//! 3. **θ-monotonicity** — raising the threshold can only shrink the
//!    pattern set: `patterns(θ₂) ⊆ patterns(θ₁)` for `θ₁ ≤ θ₂`. This
//!    survives the minimality filter because an over-generalization
//!    witness has *equal* support, so witness and victim cross any
//!    threshold together.
//! 4. **Duplication invariance** — doubling the database doubles every
//!    support count and changes nothing else: `2s ≥ ⌈θ·2n⌉ ⇔ s ≥ ⌈θn⌉`.
//! 5. **Isolated-vertex invariance** — an isolated vertex joins no edge,
//!    so it can appear in no embedding of any (edge-based) pattern.
//! 6. **Label-permutation equivariance** — consistently renaming concept
//!    ids in the taxonomy *and* the database renames them in the output
//!    and does nothing else (the result set is isomorphic).
//! 7. **Specialization anti-monotonicity** — specializing any pattern
//!    label to a taxonomy child can only lose occurrences; reported
//!    supports must agree with direct generalized-isomorphism recounts.
//! 8. **Reference agreement** — the full output matches the brute-force
//!    reference miner ([`taxogram_core::reference`]), in particular
//!    containing no over-generalized pattern.
//! 9. **Shard-count invariance** — the sharded out-of-core SON miner
//!    ([`taxogram_core::shard`]) is byte-identical to the serial engine
//!    at *every* shard count and thread count: the candidate superset is
//!    complete (SON pigeonhole), supports are recounted exactly, and
//!    Pass 2b re-enumerates each class in serial order on global data,
//!    with the serial engine's occurrence, occurrence-index update and
//!    Step 3 counters.
//!
//! All relations are driven by [`run_suite`]; individual relations are
//! public for targeted tests.

use crate::gen::{Case, THETAS};
use taxogram_core::reference::{compare_with_reference, reference_mine};
use taxogram_core::{
    mine_pipelined_faulted, mine_sharded, MiningResult, MiningStats, Pattern, PipelineFaults,
    PipelineOptions, ShardOptions, Taxogram, TaxogramConfig, TaxogramError,
};
use tsg_graph::{GraphDatabase, LabeledGraph, NodeLabel};
use tsg_iso::{is_isomorphic, support_count, GeneralizedMatcher};
use tsg_taxonomy::{Taxonomy, TaxonomyBuilder};

/// Edge cap for all metamorphic mining runs: keeps the brute-force
/// reference oracle (exponential in pattern size) tractable.
pub const MAX_EDGES: usize = 3;

/// Which mining engine executes a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// `Taxogram::mine`, the serial three-step pipeline.
    Serial,
    /// `mine_pipelined_faulted` with no faults and no governance:
    /// streaming channel at three threads and a tiny capacity.
    Pipelined,
}

/// Every engine, serial first (the comparison baseline).
pub const ENGINES: [Engine; 2] = [Engine::Serial, Engine::Pipelined];

impl Engine {
    /// Short name for failure messages.
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Serial => "serial",
            Engine::Pipelined => "pipelined",
        }
    }

    /// Runs this engine on the given input.
    pub fn mine(
        &self,
        config: &TaxogramConfig,
        db: &GraphDatabase,
        taxonomy: &Taxonomy,
    ) -> Result<MiningResult, TaxogramError> {
        match self {
            Engine::Serial => Taxogram::new(*config).mine(db, taxonomy),
            Engine::Pipelined => Ok(mine_pipelined_faulted(
                config,
                db,
                taxonomy,
                PipelineOptions {
                    threads: 3,
                    channel_capacity: 2,
                },
                None,
                PipelineFaults::default(),
            )?
            .result),
        }
    }
}

fn config(theta: f64) -> TaxogramConfig {
    TaxogramConfig::with_threshold(theta).max_edges(MAX_EDGES)
}

fn edge_tuples(g: &LabeledGraph) -> Vec<(usize, usize, u32)> {
    g.edges().iter().map(|e| (e.u, e.v, e.label.0)).collect()
}

/// Order-sensitive byte comparison of two pattern sequences, with
/// per-pattern support scaling (`scale` = 2 for the duplication
/// relation, 1 otherwise).
pub(crate) fn assert_same_sequence(
    what: &str,
    base: &[Pattern],
    other: &[Pattern],
    scale: usize,
) -> Result<(), String> {
    if base.len() != other.len() {
        return Err(format!(
            "{what}: {} patterns vs {}",
            base.len(),
            other.len()
        ));
    }
    for (i, (a, b)) in base.iter().zip(other).enumerate() {
        if a.graph.labels() != b.graph.labels() || edge_tuples(&a.graph) != edge_tuples(&b.graph) {
            return Err(format!(
                "{what}: pattern {i} differs: {:?} vs {:?}",
                a.graph.labels(),
                b.graph.labels()
            ));
        }
        if a.support_count * scale != b.support_count {
            return Err(format!(
                "{what}: pattern {i} support {}×{scale} ≠ {}",
                a.support_count, b.support_count
            ));
        }
    }
    Ok(())
}

/// Byte-identity of two full mining results: same patterns in the same
/// order with the same supports, and the same class count. The
/// equivalence check every engine/fault comparison bottoms out in.
pub fn assert_engines_identical(a: &MiningResult, b: &MiningResult) -> Result<(), String> {
    assert_same_sequence("results", &a.patterns, &b.patterns, 1)?;
    if a.stats.classes != b.stats.classes {
        return Err(format!(
            "results: {} classes vs {}",
            a.stats.classes, b.stats.classes
        ));
    }
    Ok(())
}

/// Equal work counters of two results of the same input: occurrences,
/// occurrence-index updates and the four Step 3 counters, plus Step 2's
/// counters when `gspan` is set (the sharded miner's Pass 1 mines shards,
/// so it reports none).
pub fn assert_same_work(a: &MiningResult, b: &MiningResult, gspan: bool) -> Result<(), String> {
    let (a, b) = (&a.stats, &b.stats);
    let counters = |s: &MiningStats| (s.occurrences, s.oi_updates, s.enumeration);
    if counters(a) != counters(b) {
        return Err(format!(
            "work: (occurrences, oi_updates, enumeration) {:?} vs {:?}",
            counters(a),
            counters(b)
        ));
    }
    if gspan && a.gspan != b.gspan {
        return Err(format!("work: gspan {:?} vs {:?}", a.gspan, b.gspan));
    }
    Ok(())
}

/// Checks `sub ⊆ sup` as an (isomorphism, support)-matched multiset.
fn assert_iso_subset(what: &str, sub: &[Pattern], sup: &[Pattern]) -> Result<(), String> {
    let mut used = vec![false; sup.len()];
    for p in sub {
        match sup.iter().enumerate().find(|(i, q)| {
            !used[*i] && q.support_count == p.support_count && is_isomorphic(&p.graph, &q.graph)
        }) {
            Some((i, _)) => used[i] = true,
            None => {
                return Err(format!(
                    "{what}: pattern {:?} (sup {}) has no counterpart",
                    p.graph.labels(),
                    p.support_count
                ))
            }
        }
    }
    Ok(())
}

/// Relation 1: a taxonomy with no is-a edges reduces Taxogram to plain
/// gSpan, byte for byte (same patterns, same order, same supports).
pub fn flattening_matches_gspan(case: &Case, engine: Engine) -> Result<(), String> {
    let flat = TaxonomyBuilder::with_concepts(case.taxonomy.concept_count())
        .build()
        .expect("edgeless taxonomy is trivially acyclic");
    let mined = engine
        .mine(&config(case.theta), &case.db, &flat)
        .map_err(|e| format!("flat {}: {e}", engine.name()))?;
    let plain = tsg_gspan::mine_frequent(
        &case.db,
        case.db.min_support_count(case.theta),
        Some(MAX_EDGES),
    );
    if mined.patterns.len() != plain.len() {
        return Err(format!(
            "flatten[{}]: taxogram found {}, gspan found {}",
            engine.name(),
            mined.patterns.len(),
            plain.len()
        ));
    }
    for (i, (a, b)) in mined.patterns.iter().zip(&plain).enumerate() {
        if a.graph.labels() != b.graph.labels()
            || edge_tuples(&a.graph) != edge_tuples(&b.graph)
            || a.support_count != b.support
        {
            return Err(format!(
                "flatten[{}]: pattern {i}: {:?}/sup {} vs gspan {:?}/sup {}",
                engine.name(),
                a.graph.labels(),
                a.support_count,
                b.graph.labels(),
                b.support
            ));
        }
    }
    Ok(())
}

/// Relation 2: every engine reproduces the serial result byte for byte,
/// with the serial engine's work counters.
pub fn engines_agree(case: &Case) -> Result<(), String> {
    let cfg = config(case.theta);
    let serial = Engine::Serial
        .mine(&cfg, &case.db, &case.taxonomy)
        .map_err(|e| format!("serial: {e}"))?;
    for engine in &ENGINES[1..] {
        let other = engine
            .mine(&cfg, &case.db, &case.taxonomy)
            .map_err(|e| format!("{}: {e}", engine.name()))?;
        assert_same_sequence(
            &format!("engines[{}]", engine.name()),
            &serial.patterns,
            &other.patterns,
            1,
        )?;
        if serial.stats.classes != other.stats.classes {
            return Err(format!(
                "engines[{}]: {} classes vs serial {}",
                engine.name(),
                other.stats.classes,
                serial.stats.classes
            ));
        }
        assert_same_work(&serial, &other, true)
            .map_err(|msg| format!("engines[{}]: {msg}", engine.name()))?;
    }
    Ok(())
}

/// Relation 3: raising θ only shrinks the pattern set.
pub fn theta_monotonicity(case: &Case, engine: Engine) -> Result<(), String> {
    let mut thetas = THETAS;
    thetas.sort_by(|a, b| a.partial_cmp(b).expect("thetas are finite"));
    let mut results = Vec::new();
    for &theta in &thetas {
        results.push(
            engine
                .mine(&config(theta), &case.db, &case.taxonomy)
                .map_err(|e| format!("θ={theta} {}: {e}", engine.name()))?,
        );
    }
    for w in results.windows(2) {
        assert_iso_subset(
            &format!("θ-monotone[{}]", engine.name()),
            &w[1].patterns,
            &w[0].patterns,
        )?;
    }
    Ok(())
}

/// Relation 4: concatenating the database with itself doubles supports
/// and changes nothing else.
pub fn duplication_invariance(case: &Case, engine: Engine) -> Result<(), String> {
    let cfg = config(case.theta);
    let base = engine
        .mine(&cfg, &case.db, &case.taxonomy)
        .map_err(|e| format!("dup base {}: {e}", engine.name()))?;
    let mut graphs: Vec<LabeledGraph> = case.db.graphs().to_vec();
    graphs.extend(case.db.graphs().iter().cloned());
    let doubled = GraphDatabase::from_graphs(graphs);
    let dup = engine
        .mine(&cfg, &doubled, &case.taxonomy)
        .map_err(|e| format!("dup {}: {e}", engine.name()))?;
    assert_same_sequence(
        &format!("duplication[{}]", engine.name()),
        &base.patterns,
        &dup.patterns,
        2,
    )
}

/// Relation 5: an isolated vertex participates in no edge pattern, so
/// inserting one changes nothing.
pub fn isolated_vertex_invariance(case: &Case, engine: Engine) -> Result<(), String> {
    let cfg = config(case.theta);
    let base = engine
        .mine(&cfg, &case.db, &case.taxonomy)
        .map_err(|e| format!("iso-vertex base {}: {e}", engine.name()))?;
    let mut graphs: Vec<LabeledGraph> = case.db.graphs().to_vec();
    let root = case.taxonomy.roots()[0];
    graphs[0].add_node(root);
    let extended = GraphDatabase::from_graphs(graphs);
    let ext = engine
        .mine(&cfg, &extended, &case.taxonomy)
        .map_err(|e| format!("iso-vertex {}: {e}", engine.name()))?;
    assert_same_sequence(
        &format!("isolated-vertex[{}]", engine.name()),
        &base.patterns,
        &ext.patterns,
        1,
    )
}

/// Relation 6: renaming concept ids consistently in taxonomy and
/// database renames them in the output (results isomorphic under π).
pub fn label_permutation_equivariance(case: &Case, engine: Engine) -> Result<(), String> {
    let n = case.taxonomy.concept_count();
    let pi = |l: NodeLabel| NodeLabel((l.0 + 1) % n as u32);
    let mut b = TaxonomyBuilder::with_concepts(n);
    for (child, parent) in case.taxonomy.edge_list() {
        b.is_a(pi(child), pi(parent))
            .expect("permutation preserves validity");
    }
    let perm_taxonomy = b.build().expect("permutation preserves acyclicity");
    let perm_graphs: Vec<LabeledGraph> = case
        .db
        .graphs()
        .iter()
        .map(|g| {
            let mut pg = g.clone();
            for v in 0..g.node_count() {
                pg.set_label(v, pi(g.label(v)));
            }
            pg
        })
        .collect();
    let perm_db = GraphDatabase::from_graphs(perm_graphs);

    let cfg = config(case.theta);
    let base = engine
        .mine(&cfg, &case.db, &case.taxonomy)
        .map_err(|e| format!("perm base {}: {e}", engine.name()))?;
    let perm = engine
        .mine(&cfg, &perm_db, &perm_taxonomy)
        .map_err(|e| format!("perm {}: {e}", engine.name()))?;

    // Map the base result through π, then compare as multisets (the
    // output *order* tracks label ids, so it may legitimately change).
    let mapped: Vec<Pattern> = base
        .patterns
        .iter()
        .map(|p| {
            let mut g = p.graph.clone();
            for v in 0..g.node_count() {
                g.set_label(v, pi(p.graph.label(v)));
            }
            Pattern {
                graph: g,
                support_count: p.support_count,
                support: p.support,
            }
        })
        .collect();
    let what = format!("permutation[{}]", engine.name());
    if mapped.len() != perm.patterns.len() {
        return Err(format!(
            "{what}: {} patterns vs {}",
            mapped.len(),
            perm.patterns.len()
        ));
    }
    assert_iso_subset(&what, &mapped, &perm.patterns)
}

/// Relation 7: reported supports match direct generalized-isomorphism
/// recounts, and specializing any label to a child never gains support.
pub fn specialization_anti_monotone(case: &Case, engine: Engine) -> Result<(), String> {
    let result = engine
        .mine(&config(case.theta), &case.db, &case.taxonomy)
        .map_err(|e| format!("anti-monotone {}: {e}", engine.name()))?;
    let matcher = GeneralizedMatcher::new(&case.taxonomy);
    let what = format!("anti-monotone[{}]", engine.name());
    for p in &result.patterns {
        let recount = support_count(&p.graph, &case.db, &matcher);
        if recount != p.support_count {
            return Err(format!(
                "{what}: {:?} reports support {}, recount {}",
                p.graph.labels(),
                p.support_count,
                recount
            ));
        }
        for (v, &l) in p.graph.labels().iter().enumerate() {
            for &child in case.taxonomy.children(l) {
                let mut spec = p.graph.clone();
                spec.set_label(v, child);
                let s = support_count(&spec, &case.db, &matcher);
                if s > p.support_count {
                    return Err(format!(
                        "{what}: specializing vertex {v} of {:?} to {child:?} \
                         raised support {} → {s}",
                        p.graph.labels(),
                        p.support_count
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Relation 8: full agreement with the brute-force reference miner — in
/// particular, no over-generalized pattern survives. The reference set
/// can be shared across engines via `precomputed`.
pub fn matches_reference(
    case: &Case,
    engine: Engine,
    precomputed: Option<&[(LabeledGraph, usize)]>,
) -> Result<(), String> {
    let owned;
    let want = match precomputed {
        Some(w) => w,
        None => {
            owned = reference_mine(&case.db, &case.taxonomy, case.theta, MAX_EDGES);
            &owned
        }
    };
    let result = engine
        .mine(&config(case.theta), &case.db, &case.taxonomy)
        .map_err(|e| format!("reference {}: {e}", engine.name()))?;
    compare_with_reference(&result.patterns, want)
        .map_or(Ok(()), |msg| Err(format!("reference[{}]: {msg}", engine.name())))
}

/// Shard counts exercised by relation 9: the degenerate single shard,
/// small counts that split candidate discovery across partitions, and a
/// count larger than any generated database (forcing one-graph shards).
pub const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Relation 9: the sharded out-of-core miner reproduces the serial
/// result byte for byte at every shard count, single- and multi-threaded,
/// with the serial engine's occurrence, index-update and Step 3 counters,
/// and always reports a complete (ungoverned) termination.
pub fn shard_count_invariance(case: &Case) -> Result<(), String> {
    let cfg = config(case.theta);
    let serial = Engine::Serial
        .mine(&cfg, &case.db, &case.taxonomy)
        .map_err(|e| format!("serial: {e}"))?;
    for shards in SHARD_COUNTS {
        for threads in [1, 2] {
            let opts = ShardOptions {
                shards,
                threads,
                // Batch size 2 makes multi-batch Pass 2b runs common on
                // the small generated cases.
                class_batch: 2,
                ..ShardOptions::default()
            };
            let outcome = mine_sharded(&cfg, &case.db, &case.taxonomy, &opts)
                .map_err(|e| format!("sharded[P={shards},t={threads}]: {e}"))?;
            if !outcome.termination.is_complete() {
                return Err(format!(
                    "sharded[P={shards},t={threads}]: ungoverned run did not complete: {:?}",
                    outcome.termination
                ));
            }
            assert_engines_identical(&serial, &outcome.result)
                .and_then(|()| assert_same_work(&serial, &outcome.result, false))
                .map_err(|msg| format!("shard-invariance[P={shards},t={threads}]: {msg}"))?;
        }
    }
    Ok(())
}

/// Runs every relation for every engine in `engines` on one case,
/// computing the shared reference oracle once. Failure messages carry
/// the case seed for standalone reproduction.
pub fn run_suite(case: &Case, engines: &[Engine]) -> Result<(), String> {
    let tag = |msg: String| format!("seed {:#x} (θ={}): {msg}", case.seed, case.theta);
    engines_agree(case).map_err(&tag)?;
    shard_count_invariance(case).map_err(&tag)?;
    let reference = reference_mine(&case.db, &case.taxonomy, case.theta, MAX_EDGES);
    for &engine in engines {
        flattening_matches_gspan(case, engine).map_err(&tag)?;
        theta_monotonicity(case, engine).map_err(&tag)?;
        duplication_invariance(case, engine).map_err(&tag)?;
        isolated_vertex_invariance(case, engine).map_err(&tag)?;
        label_permutation_equivariance(case, engine).map_err(&tag)?;
        specialization_anti_monotone(case, engine).map_err(&tag)?;
        matches_reference(case, engine, Some(&reference)).map_err(&tag)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::case;

    #[test]
    fn suite_passes_on_a_handful_of_seeds() {
        // The full 256-case sweeps live in the consuming crates' test
        // suites; this is the smoke check that the harness itself works.
        for seed in [1u64, 2, 3] {
            let c = case(seed);
            run_suite(&c, &ENGINES).unwrap();
        }
    }

    #[test]
    fn relations_catch_a_seeded_violation() {
        // Sanity: a deliberately wrong "engine result" comparison fails.
        let c = case(5);
        let base = Engine::Serial
            .mine(
                &TaxogramConfig::with_threshold(c.theta).max_edges(MAX_EDGES),
                &c.db,
                &c.taxonomy,
            )
            .unwrap();
        if base.patterns.is_empty() {
            return; // nothing to corrupt on this seed
        }
        let mut wrong = base.patterns.clone();
        wrong[0].support_count += 1;
        assert!(assert_same_sequence("sanity", &base.patterns, &wrong, 1).is_err());
    }
}
