//! The one engine adapter every timed mine goes through, and the traced
//! replica of the serial pipeline built from public layer calls.

use crate::trace::Recorder;
use std::path::PathBuf;
use taxogram_core::enumerate::{enumerate_class_full, EnumerationStats};
use taxogram_core::oi::{OccurrenceIndex, OiOptions};
use taxogram_core::{MiningResult, Pattern, ShardOptions, ShardStats, TaxogramConfig};
use tsg_bitset::BitSet;
use tsg_graph::GraphDatabase;
use tsg_gspan::{GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::Taxonomy;

/// Which engine family a workload mines with.
#[derive(Debug)]
pub enum Engine {
    /// In memory: the serial miner at one thread, otherwise the engine
    /// `taxogram mine --threads N` dispatches to.
    InMemory,
    /// Out of core: `mine_sharded`, spilling under `spill_dir` with at
    /// most `cap` bytes per shard file.
    Sharded {
        /// Per-shard resident cap (`None` = one shard).
        cap: Option<u64>,
        /// Benchmark-owned spill directory.
        spill_dir: PathBuf,
    },
}

/// A finished mine.
pub struct Mined {
    /// Patterns and run counters.
    pub result: MiningResult,
    /// Sharding counters (sharded engine only).
    pub shard: Option<ShardStats>,
}

/// Mines `db` on `engine` with `threads` workers. Every engine call of
/// the benchmark goes through here, so an engine change edits one place.
pub fn mine(
    engine: &Engine,
    cfg: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    threads: usize,
) -> Result<Mined, String> {
    let in_memory = |result: Result<MiningResult, taxogram_core::TaxogramError>| {
        result
            .map(|result| Mined {
                result,
                shard: None,
            })
            .map_err(|e| e.to_string())
    };
    match engine {
        Engine::InMemory if threads <= 1 => {
            in_memory(taxogram_core::Taxogram::new(*cfg).mine(db, taxonomy))
        }
        Engine::InMemory => in_memory(taxogram_core::mine_pipelined(cfg, db, taxonomy, threads)),
        Engine::Sharded { cap, spill_dir } => {
            let opts = ShardOptions {
                shards: 1,
                threads: threads.max(1),
                spill_dir: Some(spill_dir.clone()),
                resident_cap_bytes: *cap,
                ..ShardOptions::default()
            };
            let out =
                taxogram_core::mine_sharded(cfg, db, taxonomy, &opts).map_err(|e| e.to_string())?;
            Ok(Mined {
                result: out.result,
                shard: Some(out.shard_stats),
            })
        }
    }
}

/// Deterministic counters of one replica run, taken at the layer
/// boundaries the spans wrap.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaCounts {
    /// Pattern classes gSpan reported.
    pub classes: usize,
    /// Embeddings across those classes.
    pub embeddings: usize,
    /// Occurrence-index updates (Lemma 5's unit).
    pub oi_updates: usize,
    /// Largest single occurrence index, bytes.
    pub oi_peak_bytes: usize,
    /// Step 3 counters summed over classes.
    pub enumeration: EnumerationStats,
}

/// The serial pipeline rebuilt from public calls: `relabel` →
/// `generalized_label_frequencies` → `GSpan::mine` with a sink that calls
/// `OccurrenceIndex::build` and `enumerate_class_full` per class, each
/// wrapped in a span. Its patterns must equal `Taxogram::mine`'s.
pub fn replica(
    cfg: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    rec: &mut Recorder,
) -> Result<(Vec<Pattern>, ReplicaCounts), String> {
    rec.next_op();
    let root = rec.begin("mine");
    let min_support = db.min_support_count(cfg.threshold);
    let rel = rec
        .span("relabel", |_| taxogram_core::relabel::relabel(db, taxonomy))
        .map_err(|e| e.to_string())?;
    let frequent = cfg.enhancements.prune_infrequent_labels.then(|| {
        rec.span("taxonomy.label_freq", |_| {
            let freqs = rel.taxonomy.generalized_label_frequencies(db);
            let mut mask = BitSet::new(rel.taxonomy.concept_count());
            for (i, &f) in freqs.iter().enumerate() {
                if f >= min_support {
                    mask.insert(i);
                }
            }
            mask
        })
    });
    let gspan = rec.begin("gspan");
    let mut sink = ReplicaSink {
        rel: &rel,
        db_len: db.len(),
        min_support,
        cfg,
        frequent: frequent.as_ref(),
        rec: &mut *rec,
        patterns: Vec::new(),
        counts: ReplicaCounts::default(),
    };
    GSpan::new(
        &rel.dmg,
        GSpanConfig {
            min_support,
            max_edges: cfg.max_edges,
        },
    )
    .mine(&mut sink);
    let (patterns, counts) = (sink.patterns, sink.counts);
    rec.end(gspan);
    rec.end(root);
    Ok((patterns, counts))
}

struct ReplicaSink<'a> {
    rel: &'a taxogram_core::relabel::Relabeled,
    db_len: usize,
    min_support: usize,
    cfg: &'a TaxogramConfig,
    frequent: Option<&'a BitSet>,
    rec: &'a mut Recorder,
    patterns: Vec<Pattern>,
    counts: ReplicaCounts,
}

impl PatternSink for ReplicaSink<'_> {
    fn report(&mut self, class: &MinedPattern<'_>) -> Grow {
        self.counts.classes += 1;
        self.counts.embeddings += class.embeddings.len();
        let (rel, cfg, frequent) = (self.rel, self.cfg, self.frequent);
        let oi = self.rec.span("oi.build", |_| {
            OccurrenceIndex::build(
                class.embeddings,
                &rel.originals,
                class.graph.labels(),
                &rel.taxonomy,
                OiOptions {
                    frequent,
                    contract_equal_sets: cfg.enhancements.contract_equal_sets,
                    predescend_roots: cfg.enhancements.predescend_roots,
                },
            )
        });
        self.counts.oi_updates += oi.updates;
        self.counts.oi_peak_bytes = self.counts.oi_peak_bytes.max(oi.heap_bytes());
        let (db_len, min_support, skeleton) = (self.db_len, self.min_support, class.graph);
        let patterns = &mut self.patterns;
        let stats = self.rec.span("enumerate", |_| {
            enumerate_class_full(
                skeleton,
                &oi,
                &rel.taxonomy,
                min_support,
                db_len,
                &cfg.enhancements,
                cfg.keep_overgeneralized,
                |p| {
                    let mut g = skeleton.clone();
                    for (i, &l) in p.labels.iter().enumerate() {
                        g.set_label(i, l);
                    }
                    patterns.push(Pattern {
                        graph: g,
                        support_count: p.support,
                        support: p.support as f64 / db_len as f64,
                    });
                },
            )
        });
        let e = &mut self.counts.enumeration;
        e.vectors_visited += stats.vectors_visited;
        e.intersections += stats.intersections;
        e.emitted += stats.emitted;
        e.overgeneralized += stats.overgeneralized;
        Grow::Continue
    }
}
