//! The Taxogram pipeline: Step 1 → Step 2 → Step 3, and the per-class
//! path every engine shares: [`enumerate_class`] per class, folded in by
//! [`MiningResult::add_class`]. The in-memory engines start from
//! [`prepare`].

use crate::config::TaxogramConfig;
use crate::enumerate::{EnumScratch, EnumerationStats};
use crate::error::TaxogramError;
use crate::gauge::MemoryGauge;
use crate::govern::{GovernOptions, Governor, MiningOutcome, Termination};
use crate::oi::{OccurrenceIndex, OiOptions, OiScratch};
use crate::relabel::{relabel, Relabeled};
use tsg_bitset::BitSet;
use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_gspan::{Embedding, GSpan, GSpanConfig, GSpanStats, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::Taxonomy;

/// A mined taxonomy-superimposed pattern.
#[derive(Clone, Debug)]
pub struct Pattern {
    /// The pattern graph (labels are taxonomy concepts, possibly interior
    /// ones that never appear verbatim in the database).
    pub graph: LabeledGraph,
    /// Number of distinct database graphs generalized-containing it.
    pub support_count: usize,
    /// `support_count / |D|`.
    pub support: f64,
}

/// Aggregate counters for a mining run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MiningStats {
    /// Pattern classes mined from the relabeled database (Step 2).
    pub classes: usize,
    /// Step 2's extension counters: keys counted, dropped as infrequent
    /// or non-minimal, and embeddings grown. Identical for the serial,
    /// pipelined and sharded engines (the sharded one sums each key's
    /// count over the shards).
    pub gspan: GSpanStats,
    /// Occurrence-index update operations (Lemma 5's cost unit).
    pub oi_updates: usize,
    /// Peak approximate heap footprint of *concurrently resident*
    /// occurrence indices, in bytes. Serially one class is resident at a
    /// time (gSpan's depth-first discipline — the paper's Step 2 space
    /// argument), so this is the largest single index; the pipelined and
    /// sharded engines track a true high-water mark across workers.
    pub peak_oi_bytes: usize,
    /// Peak heap footprint of pattern-class embedding lists resident at
    /// once, in bytes. Zero for the serial miner (embeddings live only
    /// inside gSpan's own recursion). The pipelined engine's value is
    /// bounded by its channel capacity.
    pub peak_embedding_bytes: usize,
    /// Total occurrences (embeddings) across classes.
    pub occurrences: usize,
    /// Step 3 counters summed over classes.
    pub enumeration: EnumerationStats,
    /// Backpressure steals: queued classes the pipelined engine's gSpan
    /// producer took back from a full channel and enumerated itself
    /// instead of blocking ([`crate::mine_pipelined`]). Zero for the
    /// serial and sharded miners.
    pub steals: usize,
}

/// The result of a mining run.
#[derive(Clone, Debug)]
pub struct MiningResult {
    /// All frequent, non-over-generalized patterns.
    pub patterns: Vec<Pattern>,
    /// Run counters.
    pub stats: MiningStats,
    /// The absolute support floor used (`⌈θ·|D|⌉`, min 1).
    pub min_support_count: usize,
    /// Database size, for interpreting support fractions.
    pub database_size: usize,
}

impl MiningResult {
    /// A result with no class mined yet.
    pub(crate) fn empty(min_support_count: usize, database_size: usize) -> Self {
        MiningResult {
            patterns: Vec::new(),
            stats: MiningStats::default(),
            min_support_count,
            database_size,
        }
    }

    /// Appends one class's patterns and folds in its counters: each is
    /// summed, except `peak_oi_bytes`, which keeps the largest single
    /// index (the engines with gauges overwrite it with their concurrent
    /// peak).
    pub(crate) fn add_class(&mut self, class: ClassOutput) {
        self.patterns.extend(class.patterns);
        let (s, c) = (&mut self.stats, &class.stats);
        s.classes += 1;
        s.occurrences += c.occurrences;
        s.oi_updates += c.oi_updates;
        s.peak_oi_bytes = s.peak_oi_bytes.max(c.peak_oi_bytes);
        s.enumeration.vectors_visited += c.enumeration.vectors_visited;
        s.enumeration.intersections += c.enumeration.intersections;
        s.enumeration.emitted += c.enumeration.emitted;
        s.enumeration.overgeneralized += c.enumeration.overgeneralized;
    }

    /// Finds a pattern isomorphic to `g`, if present.
    pub fn find_isomorphic(&self, g: &LabeledGraph) -> Option<&Pattern> {
        self.patterns.iter().find(|p| tsg_iso::is_isomorphic(&p.graph, g))
    }

    /// Patterns sorted by descending support, then ascending size — a
    /// stable presentation order for reports.
    pub fn sorted_patterns(&self) -> Vec<&Pattern> {
        let mut v: Vec<&Pattern> = self.patterns.iter().collect();
        v.sort_by(|a, b| {
            b.support_count
                .cmp(&a.support_count)
                .then(a.graph.edge_count().cmp(&b.graph.edge_count()))
        });
        v
    }
}

/// The Taxogram miner (paper §3). See the crate docs for the three-step
/// pipeline.
#[derive(Clone, Debug)]
pub struct Taxogram {
    config: TaxogramConfig,
}

impl Taxogram {
    /// Creates a miner with the given configuration.
    pub fn new(config: TaxogramConfig) -> Self {
        Taxogram { config }
    }

    /// Mines `db` over `taxonomy`.
    ///
    /// # Errors
    /// Fails if the threshold is outside `[0, 1]` or some vertex label is
    /// not a taxonomy concept.
    pub fn mine(
        &self,
        db: &GraphDatabase,
        taxonomy: &Taxonomy,
    ) -> Result<MiningResult, TaxogramError> {
        Ok(self.mine_with(db, taxonomy, &Governor::disabled())?.0)
    }

    /// [`Taxogram::mine`] under governance: the run polls `govern`'s
    /// cancel token and budget at every class admission and, on an early
    /// stop, returns the patterns of the classes finished so far — a
    /// byte-identical prefix of the full run's output — together with a
    /// truthful [`Termination`] report.
    ///
    /// # Errors
    /// Same conditions as [`Taxogram::mine`]; early termination is *not*
    /// an error.
    pub fn mine_governed(
        &self,
        db: &GraphDatabase,
        taxonomy: &Taxonomy,
        govern: &GovernOptions,
    ) -> Result<MiningOutcome, TaxogramError> {
        let governor = Governor::new(govern);
        let (result, termination) = self.mine_with(db, taxonomy, &governor)?;
        Ok(MiningOutcome {
            result,
            termination,
        })
    }

    pub(crate) fn mine_with(
        &self,
        db: &GraphDatabase,
        taxonomy: &Taxonomy,
        governor: &Governor,
    ) -> Result<(MiningResult, Termination), TaxogramError> {
        let prepared = match prepare(&self.config, db, taxonomy)? {
            Prologue::Done(result) => return Ok((result, Termination::completed(0))),
            Prologue::Ready(p) => p,
        };

        // Steps 2+3 interleaved: each class reported by gSpan is indexed
        // and enumerated immediately, so only one occurrence index is
        // resident at a time.
        let mut sink = ClassSink {
            prepared: &prepared,
            config: &self.config,
            governor,
            result: MiningResult::empty(prepared.min_support, prepared.db_len),
            rejected: None,
            oi_scratch: OiScratch::new(),
            enum_scratch: EnumScratch::new(),
        };
        let gspan = GSpan::new(
            &prepared.rel.dmg,
            GSpanConfig {
                min_support: prepared.min_support,
                max_edges: self.config.max_edges,
            },
        )
        .mine(&mut sink);
        sink.result.stats.gspan = gspan;

        // Classes are admitted in canonical pre-order on this one thread,
        // so at most one class — the rejected one — is ever abandoned,
        // and the output is exactly the first `classes` classes.
        let rejected = sink.rejected;
        let termination = governor.finish(
            sink.result.stats.classes,
            usize::from(rejected.is_some()),
            rejected.into_iter().collect(),
        );
        Ok((sink.result, termination))
    }
}

struct ClassSink<'a> {
    prepared: &'a Prepared,
    config: &'a TaxogramConfig,
    governor: &'a Governor,
    result: MiningResult,
    /// DFS code of the class rejected at admission, if the run stopped.
    rejected: Option<String>,
    /// Index-construction scratch, reused by every class of the run.
    oi_scratch: OiScratch,
    /// Step 3 scratch, reused by every class of the run.
    enum_scratch: EnumScratch,
}

impl PatternSink for ClassSink<'_> {
    fn report(&mut self, class: &MinedPattern<'_>) -> Grow {
        // Governance poll point: serially one occurrence index is
        // resident at a time, so the running `peak_oi_bytes` maximum is
        // this engine's true memory high-water mark.
        if !self.governor.admit_class(self.result.stats.peak_oi_bytes) {
            self.rejected = Some(class.code.to_string());
            return Grow::Stop;
        }
        let out = enumerate_class(
            class.graph,
            class.embeddings,
            self.prepared,
            self.config,
            None,
            &mut self.enum_scratch,
            &mut self.oi_scratch,
        );
        self.governor.add_patterns(out.patterns.len());
        self.result.add_class(out);
        Grow::Continue
    }
}

/// The Step 0/1 prologue every in-memory engine starts from.
pub(crate) enum Prologue {
    /// The run is already over (empty database).
    Done(MiningResult),
    Ready(Prepared),
}

/// Everything Step 2 and Step 3 need, computed once per run.
pub(crate) struct Prepared {
    pub rel: Relabeled,
    pub frequent_mask: Option<BitSet>,
    pub min_support: usize,
    pub db_len: usize,
}

/// Validates the threshold and returns the absolute support floor
/// `⌈θ·|D|⌉` (min 1).
pub(crate) fn support_floor(
    config: &TaxogramConfig,
    db: &GraphDatabase,
) -> Result<usize, TaxogramError> {
    let theta = config.threshold;
    if !(0.0..=1.0).contains(&theta) || theta.is_nan() {
        return Err(TaxogramError::InvalidThreshold { theta });
    }
    Ok(db.min_support_count(theta))
}

/// Enhancement (b): the concepts whose generalized frequency reaches the
/// support floor.
pub(crate) fn frequent_mask(freqs: &[usize], concepts: usize, min_support: usize) -> BitSet {
    let frequent = freqs.iter().enumerate().filter(|&(_, &f)| f >= min_support);
    BitSet::from_iter_with_universe(concepts, frequent.map(|(i, _)| i))
}

/// Threshold check, empty-database short-circuit, Step 1 relabeling and
/// the generalized-frequent mask.
pub(crate) fn prepare(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
) -> Result<Prologue, TaxogramError> {
    let min_support = support_floor(config, db)?;
    if db.is_empty() {
        return Ok(Prologue::Done(MiningResult::empty(min_support, 0)));
    }
    let rel = relabel(db, taxonomy)?;
    let frequent_mask = config.enhancements.prune_infrequent_labels.then(|| {
        let freqs = rel.taxonomy.generalized_label_frequencies(db);
        frequent_mask(&freqs, rel.taxonomy.concept_count(), min_support)
    });
    Ok(Prologue::Ready(Prepared {
        rel,
        frequent_mask,
        min_support,
        db_len: db.len(),
    }))
}

/// One class's output, folded into the run's result in class order by
/// [`MiningResult::add_class`].
#[derive(Default)]
pub(crate) struct ClassOutput {
    pub patterns: Vec<Pattern>,
    pub stats: MiningStats,
}

/// Builds one class's occurrence index and enumerates its
/// specializations, reusing the caller's scratch arenas. When `oi_gauge`
/// is given, the index's heap bytes are charged to it for the duration
/// of the enumeration (true concurrent-residency accounting).
pub(crate) fn enumerate_class(
    skeleton: &LabeledGraph,
    embeddings: &[Embedding],
    prepared: &Prepared,
    config: &TaxogramConfig,
    oi_gauge: Option<&MemoryGauge>,
    enum_scratch: &mut EnumScratch,
    oi_scratch: &mut OiScratch,
) -> ClassOutput {
    let mut out = ClassOutput::default();
    out.stats.occurrences = embeddings.len();
    let oi = OccurrenceIndex::build_with_scratch(
        embeddings,
        &prepared.rel.originals,
        skeleton.labels(),
        &prepared.rel.taxonomy,
        OiOptions {
            frequent: prepared.frequent_mask.as_ref(),
            contract_equal_sets: config.enhancements.contract_equal_sets,
            predescend_roots: config.enhancements.predescend_roots,
        },
        oi_scratch,
    );
    out.stats.oi_updates = oi.updates;
    let oi_bytes = oi.heap_bytes();
    out.stats.peak_oi_bytes = oi_bytes;
    if let Some(g) = oi_gauge {
        g.add(oi_bytes);
    }
    let db_len = prepared.db_len;
    let stats = crate::enumerate::enumerate_class_scratch(
        skeleton,
        &oi,
        &prepared.rel.taxonomy,
        prepared.min_support,
        db_len,
        &config.enhancements,
        config.keep_overgeneralized,
        enum_scratch,
        |p| {
            let mut g = skeleton.clone();
            for (i, &l) in p.labels.iter().enumerate() {
                g.set_label(i, l);
            }
            out.patterns.push(Pattern {
                graph: g,
                support_count: p.support,
                support: p.support as f64 / db_len as f64,
            });
        },
    );
    out.stats.enumeration = stats;
    drop(oi);
    if let Some(g) = oi_gauge {
        g.sub(oi_bytes);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsg_graph::{EdgeLabel, NodeLabel};
    use tsg_taxonomy::{samples, taxonomy_from_edges};

    #[test]
    fn rejects_bad_threshold() {
        let (_, t) = samples::sample_taxonomy();
        let db = GraphDatabase::new();
        for theta in [-0.1, 1.5, f64::NAN] {
            let err = Taxogram::new(TaxogramConfig::with_threshold(theta))
                .mine(&db, &t)
                .unwrap_err();
            assert!(matches!(err, TaxogramError::InvalidThreshold { .. }));
        }
    }

    #[test]
    fn empty_database_yields_no_patterns() {
        let (_, t) = samples::sample_taxonomy();
        let r = Taxogram::new(TaxogramConfig::with_threshold(0.5))
            .mine(&GraphDatabase::new(), &t)
            .unwrap();
        assert!(r.patterns.is_empty());
        assert_eq!(r.database_size, 0);
    }

    #[test]
    fn example_1_1_go_pathways() {
        // Paper Example 1.1: traditional mining finds nothing shared
        // between Pathway 1 and Pathway 2, but taxonomy-superimposed
        // mining discovers implicit patterns like
        // Transporter—Helicase (P1).
        let (names, t, db) = samples::go_excerpt();
        // Traditional (exact) mining at θ = 1: no shared edge patterns.
        let exact = tsg_gspan::mine_frequent(&db, 2, None);
        assert!(
            exact.is_empty(),
            "no explicit pattern appears in both pathways"
        );
        // Taxogram at θ = 1 finds generalized patterns.
        let r = Taxogram::new(TaxogramConfig::with_threshold(1.0))
            .mine(&db, &t)
            .unwrap();
        assert!(!r.patterns.is_empty(), "implicit patterns exist");
        for p in &r.patterns {
            assert_eq!(p.support_count, 2);
            assert!((p.support - 1.0).abs() < 1e-12);
        }
        // P1 from Figure 1.3: Transporter—Helicase — or a specialization
        // of its endpoints with the same support — must be found. In this
        // database Pathway 1 pairs Protein Carrier (under Transporter)
        // with DNA Helicase (under Helicase); Pathway 2 pairs Cation
        // Transp. with Helicase. The most specific common generalization
        // is exactly Transporter—Helicase.
        let transporter = names.get("transporter").unwrap();
        let helicase = names.get("helicase").unwrap();
        let mut want = LabeledGraph::with_nodes([transporter, helicase]);
        want.add_edge(0, 1, EdgeLabel(0)).unwrap();
        assert!(
            r.find_isomorphic(&want).is_some(),
            "Transporter—Helicase missing; got {:?}",
            r.patterns
                .iter()
                .map(|p| p.graph.labels().to_vec())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn no_over_generalized_pattern_in_output() {
        // Minimality (Lemma 8) checked directly on the sample fixture:
        // no output pattern has an output specialization with equal
        // support (checking positionwise under both edge orientations).
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = Taxogram::new(TaxogramConfig::with_threshold(1.0 / 3.0))
            .mine(&db, &t)
            .unwrap();
        for p in &r.patterns {
            for q in &r.patterns {
                if std::ptr::eq(p, q) || p.support_count != q.support_count {
                    continue;
                }
                if p.graph.node_count() != q.graph.node_count()
                    || p.graph.edge_count() != q.graph.edge_count()
                {
                    continue;
                }
                let strictly_gen = tsg_iso::is_gen_iso(&p.graph, &q.graph, &t)
                    && !tsg_iso::is_isomorphic(&p.graph, &q.graph);
                assert!(
                    !strictly_gen,
                    "{:?} over-generalizes {:?} at equal support {}",
                    p.graph.labels(),
                    q.graph.labels(),
                    p.support_count
                );
            }
        }
        assert!(!r.patterns.is_empty());
    }

    #[test]
    fn baseline_and_enhanced_agree() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        for theta in [1.0, 2.0 / 3.0, 1.0 / 3.0] {
            let full = Taxogram::new(TaxogramConfig::with_threshold(theta))
                .mine(&db, &t)
                .unwrap();
            let base = Taxogram::new(TaxogramConfig::baseline(theta))
                .mine(&db, &t)
                .unwrap();
            assert_eq!(full.patterns.len(), base.patterns.len(), "θ = {theta}");
            for p in &full.patterns {
                let q = base.find_isomorphic(&p.graph).unwrap_or_else(|| {
                    panic!("baseline missing {:?}", p.graph.labels())
                });
                assert_eq!(p.support_count, q.support_count);
            }
        }
    }

    #[test]
    fn multi_root_taxonomy_artificial_labels_never_emitted() {
        // Roots 0 and 1 share child 2; child 3 under 2.
        let t = taxonomy_from_edges(4, [(2, 0), (2, 1), (3, 2)]).unwrap();
        let mk = |l: u32| {
            let mut g = LabeledGraph::with_nodes([NodeLabel(l), NodeLabel(l)]);
            g.add_edge(0, 1, EdgeLabel(0)).unwrap();
            g
        };
        let db = GraphDatabase::from_graphs(vec![mk(2), mk(3)]);
        let r = Taxogram::new(TaxogramConfig::with_threshold(1.0))
            .mine(&db, &t)
            .unwrap();
        for p in &r.patterns {
            for &l in p.graph.labels() {
                assert!(l.index() < 4, "artificial label {l} leaked into output");
            }
        }
        // 2—2 occurs in both graphs (3 is-a 2): it must be found.
        assert!(r.find_isomorphic(&mk(2)).is_some());
    }

    #[test]
    fn max_edges_caps_pattern_size() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = Taxogram::new(TaxogramConfig::with_threshold(1.0 / 3.0).max_edges(1))
            .mine(&db, &t)
            .unwrap();
        assert!(r.patterns.iter().all(|p| p.graph.edge_count() == 1));
    }

    #[test]
    fn stats_are_populated() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = Taxogram::new(TaxogramConfig::with_threshold(2.0 / 3.0))
            .mine(&db, &t)
            .unwrap();
        assert!(r.stats.classes >= 1);
        assert!(r.stats.oi_updates > 0);
        assert!(r.stats.occurrences > 0);
        assert!(r.stats.enumeration.intersections > 0);
        assert_eq!(r.stats.enumeration.emitted, r.patterns.len());
        assert_eq!(r.min_support_count, 2);
        assert_eq!(r.database_size, 3);
    }

    #[test]
    fn sorted_patterns_order() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let r = Taxogram::new(TaxogramConfig::with_threshold(1.0 / 3.0))
            .mine(&db, &t)
            .unwrap();
        let sorted = r.sorted_patterns();
        for w in sorted.windows(2) {
            assert!(w[0].support_count >= w[1].support_count);
        }
    }
}
