//! Parallel out-of-core sharded mining (DESIGN.md §15).
//!
//! The database is spilled to disk and mined in streaming passes over
//! the shard files, each worker holding one shard resident at a time:
//!
//! 1. **Spill.** The database is split into contiguous graph-id ranges
//!    and written to disk as length-prefixed binary shard files
//!    ([`tsg_graph::binary`]), validating labels in global order along
//!    the way. [`ShardOptions::resident_cap_bytes`] raises the shard
//!    count until each file fits the cap, so the resident working set is
//!    one shard per worker regardless of database size.
//! 2. **Pass 1 — Step 2's class search, one edge level per stream**
//!    (`levels`): the first stream sums every shard's seed-key counts,
//!    and each later one walks the current level's codes in every
//!    relabeled shard ([`tsg_gspan::walk_codes`]) and sums their
//!    extension counts ([`tsg_gspan::count_extensions`]) over the
//!    shards. The sums are whole-database distinct-graph counts, so a
//!    child is kept exactly when serial gSpan keeps it: its count reaches
//!    the global floor `⌈θ·|D|⌉` and its code is minimal. The loop stops
//!    at an empty level or at the edge cap. No shard is ever judged on
//!    its own, so the kept codes are the serial engine's classes and the
//!    summed counts its Step 2 counters ([`crate::MiningStats::gspan`]).
//! 3. **Pass 2 — global Step 3** (`pass2`): each class, taken in
//!    canonical (= serial) order in batches of
//!    [`ShardOptions::class_batch`], has its embeddings re-grown along
//!    its code over the shard stream — the serial gSpan lists, shard by
//!    shard — and is then enumerated by the class path of
//!    [`crate::Taxogram::mine`] against the global database size, so
//!    specialization supports, the minimality filter and the emission
//!    order are *byte-identical* to the single-pass serial miner.
//!
//! The taxonomy is unified ([`Taxonomy::unify_most_general`]) once per
//! run, before Pass 1: unification does not depend on the database, so
//! every shard read of every pass relabels against that one copy, and
//! Step 3 uses it too.
//!
//! Governance threads through end to end: the cancel token and deadline
//! are polled at every shard claim, budgets gate each Pass 2 class
//! admission in serial class order, and an early stop yields a truthful
//! [`Termination`] whose finished classes form a byte-identical prefix
//! of the serial pattern stream. Spill files are removed when the run
//! ends — success, error, or early termination.

mod levels;
mod pass2;
mod spill;

use crate::channel::recover;
use crate::config::TaxogramConfig;
use crate::enumerate::EnumScratch;
use crate::error::TaxogramError;
use crate::gauge::MemoryGauge;
use crate::govern::{GovernOptions, Governor, Termination, FRONTIER_CAP};
use crate::miner::{enumerate_class, frequent_mask, support_floor, MiningResult, Prepared};
use crate::oi::OiScratch;
use crate::pipeline::panic_message;
use crate::relabel::Relabeled;
use crate::sync::{thread, Arc, AtomicBool, AtomicUsize, Mutex, Ordering};
use spill::{read_shard, spill, SpillSet};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use tsg_gspan::{DfsCode, GSpanStats};
use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_taxonomy::Taxonomy;

/// Tuning knobs for the sharded out-of-core miner.
#[derive(Clone, Debug)]
pub struct ShardOptions {
    /// Minimum shard count. Raised automatically when
    /// [`ShardOptions::resident_cap_bytes`] demands smaller shards.
    pub shards: usize,
    /// Worker threads for the shard-parallel passes. Each worker holds
    /// at most one shard resident at a time.
    pub threads: usize,
    /// Directory for spill files; defaults to the system temp dir. A
    /// unique per-run subdirectory is always created beneath it.
    pub spill_dir: Option<PathBuf>,
    /// Pass 2 classes whose embeddings are collected per shard stream;
    /// larger batches trade resident embedding memory for fewer passes
    /// over the spill files.
    pub class_batch: usize,
    /// Approximate ceiling on a single shard file's size: the shard
    /// count grows until the encoded database splits into files no
    /// larger than this, making the per-worker resident set independent
    /// of the database size.
    pub resident_cap_bytes: Option<u64>,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            threads: 1,
            spill_dir: None,
            class_batch: 8,
            resident_cap_bytes: None,
        }
    }
}

/// Deterministic spill-I/O fault injector. Test-only plumbing (driven by
/// `tsg-testkit`); every field defaults to "no fault".
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardFaults {
    /// Fail the spill write at this global record index.
    pub write_error_at_record: Option<usize>,
    /// After spilling, truncate this shard's file mid-stream.
    pub truncate_shard: Option<usize>,
    /// After spilling, overwrite this shard's first record length prefix
    /// with an absurd value.
    pub corrupt_prefix: Option<usize>,
    /// After spilling, delete this shard's file.
    pub delete_shard: Option<usize>,
}

/// Counters specific to a sharded run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShardStats {
    /// Shards the database was split into (after the resident-cap raise).
    pub shards: usize,
    /// Extension keys Pass 1 counted: Step 2's `keys_counted`
    /// ([`crate::MiningStats::gspan`]).
    pub candidates: usize,
    /// Counted keys whose summed count missed the global floor: Step 2's
    /// `infrequent`.
    pub globally_infrequent: usize,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
    /// Largest single shard file — the per-worker resident-set unit.
    pub largest_shard_bytes: u64,
    /// Full streaming passes over the shard files: one per Pass 1 edge
    /// level and one per Pass 2 class batch.
    pub db_streams: usize,
}

/// The result of a sharded run: the mining result (byte-identical to the
/// serial engine's, or a prefix of it under governance), its termination
/// report, and the sharding counters.
#[derive(Clone, Debug)]
pub struct ShardedOutcome {
    /// The (possibly partial) mining result.
    pub result: MiningResult,
    /// Why and where the run stopped.
    pub termination: Termination,
    /// Sharding counters.
    pub shard_stats: ShardStats,
}

/// Mines `db` over `taxonomy` sharded out-of-core, spilling shards to
/// disk; see the module docs for the pass structure. Output is
/// byte-identical to [`crate::Taxogram::mine`].
///
/// # Errors
/// Same conditions as the serial miner, plus
/// [`TaxogramError::ShardIo`] if a spill file cannot be written or read
/// back intact.
pub fn mine_sharded(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: &ShardOptions,
) -> Result<ShardedOutcome, TaxogramError> {
    mine_sharded_faulted(config, db, taxonomy, options, None, ShardFaults::default())
}

/// [`mine_sharded`] under governance: budgets and cancellation gate
/// Pass 2 class admission in serial class order, and shard claims poll
/// the cancel token and deadline, so an early stop yields a sound
/// serial-prefix partial result.
///
/// # Errors
/// Same conditions as [`mine_sharded`]; early termination is not an
/// error.
pub fn mine_sharded_governed(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: &ShardOptions,
    govern: &GovernOptions,
) -> Result<ShardedOutcome, TaxogramError> {
    mine_sharded_faulted(
        config,
        db,
        taxonomy,
        options,
        Some(govern),
        ShardFaults::default(),
    )
}

/// [`mine_sharded`] / [`mine_sharded_governed`] plus the deterministic
/// spill-fault injector. Test-only plumbing (driven by `tsg-testkit`).
#[doc(hidden)]
pub fn mine_sharded_faulted(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: &ShardOptions,
    govern: Option<&GovernOptions>,
    faults: ShardFaults,
) -> Result<ShardedOutcome, TaxogramError> {
    let governor = govern.map_or_else(Governor::disabled, Governor::new);
    mine_impl(config, db, taxonomy, options, &governor, &faults)
}

/// Splits `0..db.len()` into contiguous shard ranges: at least
/// `options.shards` of them, more when the resident cap demands smaller
/// files (shard size estimated from the binary encoding's exact
/// per-record arithmetic).
fn plan_shards(db: &GraphDatabase, options: &ShardOptions) -> Vec<(usize, usize)> {
    let mut shards = options.shards.max(1);
    let sizes: Vec<u64> = db.graphs().iter().map(encoded_record_bytes).collect();
    let total: u64 = sizes.iter().sum();
    if let Some(cap) = options.resident_cap_bytes {
        shards = shards.max((16 + total).div_ceil(cap.max(1)) as usize);
    }
    // Partition by cumulative encoded bytes, not graph count: with
    // skewed graph sizes a count split makes one shard carry most of
    // the resident footprint, defeating the cap. Boundary k sits at the
    // first record whose running prefix reaches k/shards of the total —
    // each shard's byte weight lands within one record of total/shards,
    // which is the best any contiguous split can do. Shard-count
    // invariance (metamorphic relation 9) is untouched: per-shard counts
    // sum to the global ones over *any* contiguous partition.
    let shards = shards.min(db.len().max(1)) as u64;
    let mut boundaries = Vec::with_capacity(shards as usize);
    let mut prefix = 0u64;
    let mut start = 0usize;
    let mut next_target = 1u64;
    for (i, sz) in sizes.iter().enumerate() {
        prefix += sz;
        // Close every shard whose byte target this record crossed; a
        // single record spanning several targets consumes them without
        // emitting empty ranges (the plan then has fewer, fuller shards).
        while next_target < shards && prefix * shards >= next_target * total {
            if i + 1 > start {
                boundaries.push((start, i + 1));
                start = i + 1;
            }
            next_target += 1;
        }
    }
    if start < db.len() {
        boundaries.push((start, db.len()));
    }
    boundaries
}

/// Exact encoded size of one graph record in the `TSGB` spill format:
/// length prefix + body prefix + labels + edge triples.
fn encoded_record_bytes(g: &LabeledGraph) -> u64 {
    4 + 9 + 4 * g.node_count() as u64 + 12 * g.edge_count() as u64
}

/// Runs `f` once per shard across `threads` claiming workers, each
/// holding one shard resident at a time. Claims poll the governor (a
/// tripped cancel token or deadline stops further claims within one
/// shard); the first shard read error — lowest shard index on a tie —
/// aborts the scan and is returned after every worker has unwound.
/// Worker panics surface as [`TaxogramError::WorkerPanicked`], never as
/// an abort or a deadlock. Returns the per-shard results plus whether the scan was
/// stopped early by governance.
fn scan_shards<T: Send>(
    set: &SpillSet,
    threads: usize,
    governor: &Governor,
    f: impl Fn(usize, GraphDatabase) -> T + Sync,
) -> Result<(Vec<Option<T>>, bool), TaxogramError> {
    let n = set.shard_count();
    let slots: Mutex<Vec<Option<T>>> = Mutex::new((0..n).map(|_| None).collect());
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_error: Mutex<Option<(usize, TaxogramError)>> = Mutex::new(None);
    let workers = threads.min(n).max(1);
    let worker = || loop {
        if stop.load(Ordering::Acquire) { // tsg-lint: ordering(ORD-12)
            break;
        }
        if governor.should_stop() {
            stop.store(true, Ordering::Release); // tsg-lint: ordering(ORD-12)
            break;
        }
        let shard = next.fetch_add(1, Ordering::Relaxed); // tsg-lint: ordering(ORD-13)
        if shard >= n {
            break;
        }
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            read_shard(set, shard).map(|shard_db| f(shard, shard_db))
        }));
        let err = match outcome {
            Ok(Ok(v)) => {
                recover(slots.lock())[shard] = Some(v); // tsg-lint: allow(index) — shard < shard_count and slots is sized to shard_count
                continue;
            }
            Ok(Err(e)) => e,
            Err(payload) => TaxogramError::WorkerPanicked {
                message: panic_message(payload.as_ref()),
            },
        };
        let mut guard = recover(first_error.lock());
        let replace = match guard.as_ref() {
            Some((held, _)) => *held > shard,
            None => true,
        };
        if replace {
            *guard = Some((shard, err));
        }
        drop(guard);
        stop.store(true, Ordering::Release); // tsg-lint: ordering(ORD-12)
        break;
    };
    // The calling thread is one of the workers, so a single-worker scan
    // spawns no thread: each short-lived thread leaves a glibc allocator
    // arena behind, and a fresh pair per pass raised peak RSS measurably.
    // The spawned workers are joined, not only awaited: `scope` returns
    // once their closures finish, before the OS threads exit and hand
    // their arenas back, so the next pass's worker could find none free,
    // open one more, and leave RSS a few MiB higher from then on,
    // depending on timing alone.
    thread::scope(|scope| {
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        worker();
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    if let Some((_, e)) = recover(first_error.lock()).take() {
        return Err(e);
    }
    let stopped = stop.load(Ordering::Acquire); // tsg-lint: ordering(ORD-12)
    let slots = {
        let mut guard = recover(slots.lock());
        std::mem::take(&mut *guard)
    };
    Ok((slots, stopped))
}

fn mine_impl(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: &ShardOptions,
    governor: &Governor,
    faults: &ShardFaults,
) -> Result<ShardedOutcome, TaxogramError> {
    let min_support = support_floor(config, db)?;
    let db_len = db.len();
    if db.is_empty() {
        return Ok(ShardedOutcome {
            result: MiningResult::empty(min_support, 0),
            termination: Termination::completed(0),
            shard_stats: ShardStats::default(),
        });
    }

    let boundaries = plan_shards(db, options);
    let parent = options
        .spill_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let set = spill(db, taxonomy, &boundaries, &parent, faults)?;
    let mut shard_stats = ShardStats {
        shards: set.shard_count(),
        spilled_bytes: set.spilled_bytes,
        largest_shard_bytes: set.largest_shard_bytes,
        ..ShardStats::default()
    };
    let threads = options.threads.max(1);
    // Unification does not depend on the database: one per run, shared by
    // every shard read of every pass and by Step 3.
    let unified = Arc::new(taxonomy.unify_most_general());
    // A governance stop during Pass 1: nothing finished, so the sound
    // serial prefix is empty. The abandoned count is at least 1 (the run
    // lost work) and the frontier lists the class codes known so far.
    let early_stop = |mut known: Vec<DfsCode>, shard_stats| {
        known.sort_by(DfsCode::cmp_code);
        let frontier = known.iter().take(FRONTIER_CAP).map(|c| c.to_string());
        Ok(ShardedOutcome {
            result: MiningResult::empty(min_support, db_len),
            termination: governor.finish(0, known.len().max(1), frontier.collect()),
            shard_stats,
        })
    };

    // Pass 1, level 0: seed-key counts and label frequencies.
    let (slots, stopped) = scan_shards(&set, threads, governor, |_, shard_db| {
        levels::count_seeds(shard_db, &unified)
    })?;
    shard_stats.db_streams += 1;
    if stopped {
        return early_stop(Vec::new(), shard_stats);
    }
    let mut freq_sums = vec![0; unified.concept_count()];
    let mut seeds = Vec::with_capacity(slots.len());
    for (shard_seeds, label_frequencies) in slots.into_iter().flatten() {
        for (acc, f) in freq_sums.iter_mut().zip(label_frequencies) {
            *acc += f;
        }
        seeds.push(shard_seeds);
    }
    // Seeds are not extensions: serial gSpan counts none of them in
    // Step 2's counters, so neither does this throwaway.
    let root = [DfsCode::new()];
    let mut level = levels::next_level(&root, seeds, min_support, &mut GSpanStats::default());

    // Pass 1, level k: one stream per level of k-edge codes, until a
    // level is empty or reaches the edge cap.
    let mut gspan = GSpanStats::default();
    let mut classes: Vec<DfsCode> = Vec::new();
    while level
        .first()
        .is_some_and(|c| config.max_edges.is_none_or(|m| c.len() < m))
    {
        let (slots, stopped) = scan_shards(&set, threads, governor, |_, shard_db| {
            levels::count_level(shard_db, &unified, &level)
        })?;
        shard_stats.db_streams += 1;
        if stopped {
            classes.append(&mut level);
            return early_stop(classes, shard_stats);
        }
        let next = levels::next_level(&level, slots.into_iter().flatten(), min_support, &mut gspan);
        classes.append(&mut level);
        level = next;
    }
    classes.append(&mut level);
    // Serial gSpan reports its classes in canonical pre-order.
    classes.sort_by(DfsCode::cmp_code);
    shard_stats.candidates = gspan.keys_counted;
    shard_stats.globally_infrequent = gspan.infrequent;

    // Step 3 scaffold on *global* data: the unified taxonomy, the summed
    // frequent-label mask, and an originals table filled lazily per batch
    // with the rows the occurrence indices actually touch.
    let mut prepared = Prepared {
        rel: Relabeled {
            dmg: GraphDatabase::new(),
            originals: vec![Vec::new(); db_len],
            taxonomy: Arc::clone(&unified),
        },
        frequent_mask: config
            .enhancements
            .prune_infrequent_labels
            .then(|| frequent_mask(&freq_sums, unified.concept_count(), min_support)),
        min_support,
        db_len,
    };

    // Pass 2: batched global re-enumeration in canonical class order.
    let emb_gauge = MemoryGauge::new();
    let oi_gauge = MemoryGauge::new();
    let mut enum_scratch = EnumScratch::new();
    let mut oi_scratch = OiScratch::new();
    let mut result = MiningResult::empty(min_support, db_len);
    let batch_size = options.class_batch.max(1);
    'batches: for batch in classes.chunks(batch_size) {
        let (slots, stopped) = scan_shards(&set, threads, governor, |shard, shard_db| {
            pass2::collect_shard_embeddings(shard_db, &unified, batch, set.range(shard).0)
        })?;
        shard_stats.db_streams += 1;
        if stopped {
            break 'batches;
        }
        let mut per_class: Vec<Vec<tsg_gspan::Embedding>> = vec![Vec::new(); batch.len()];
        for slot in slots {
            let shard_out = slot.expect("unstopped scan fills every slot"); // tsg-lint: allow(panic) — unstopped scan fills every slot; stop was checked above
            for (gid, labels) in shard_out.originals {
                prepared.rel.originals[gid] = labels; // tsg-lint: allow(index) — graph ids in shard output index the originals they were scanned from
            }
            // Shard order = ascending graph-id order, the single-pass
            // engines' embedding order.
            for (acc, embeddings) in per_class.iter_mut().zip(shard_out.per_class) {
                acc.extend(embeddings);
            }
        }
        for (code, embeddings) in batch.iter().zip(per_class) {
            // Serial gSpan grows every class but the seeds from its parent.
            if code.len() > 1 {
                gspan.embeddings_grown += embeddings.len();
            }
            let emb_bytes = tsg_gspan::embedding_list_bytes(&embeddings);
            emb_gauge.add(emb_bytes);
            // Admission in serial class order — the same gate, in the
            // same order, as the single-pass engines, so budget and
            // cancel-after trip points line up exactly.
            if !governor.admit_class(emb_gauge.peak() + oi_gauge.peak()) {
                emb_gauge.sub(emb_bytes);
                break 'batches;
            }
            let skeleton = code.to_graph().expect("mined codes denote valid graphs"); // tsg-lint: allow(panic) — codes grown edge by edge from database edges denote valid graphs
            let out = enumerate_class(
                &skeleton,
                &embeddings,
                &prepared,
                config,
                Some(&oi_gauge),
                &mut enum_scratch,
                &mut oi_scratch,
            );
            drop(embeddings);
            emb_gauge.sub(emb_bytes);
            governor.add_patterns(out.patterns.len());
            result.add_class(out);
            if governor.should_stop_class_boundary() {
                break 'batches;
            }
        }
    }

    let finished = result.stats.classes;
    let abandoned = classes.len() - finished;
    let frontier: Vec<String> = classes[finished..] // tsg-lint: allow(index) — finished <= classes.len(): one class finishes per admitted code
        .iter()
        .take(FRONTIER_CAP)
        .map(|c| c.to_string())
        .collect();
    let termination = governor.finish(finished, abandoned, frontier);
    result.stats.gspan = gspan;
    result.stats.peak_oi_bytes = oi_gauge.peak();
    result.stats.peak_embedding_bytes = emb_gauge.peak();
    Ok(ShardedOutcome {
        result,
        termination,
        shard_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Taxogram;
    use tsg_taxonomy::samples;

    fn options(shards: usize, threads: usize) -> ShardOptions {
        ShardOptions {
            shards,
            threads,
            ..ShardOptions::default()
        }
    }

    /// Mines serially and sharded, and asserts the sharded run complete
    /// with the serial pattern stream, class count and Step 2 counters.
    fn assert_matches_serial(
        cfg: &TaxogramConfig,
        db: &GraphDatabase,
        t: &Taxonomy,
        opts: &ShardOptions,
    ) -> ShardedOutcome {
        let serial = Taxogram::new(*cfg).mine(db, t).unwrap();
        let sharded = mine_sharded(cfg, db, t, opts).unwrap();
        assert!(sharded.termination.is_complete());
        assert_eq!(serial.patterns.len(), sharded.result.patterns.len());
        for (a, b) in serial.patterns.iter().zip(&sharded.result.patterns) {
            assert_eq!(a.graph.labels(), b.graph.labels());
            assert_eq!(a.graph.edges(), b.graph.edges());
            assert_eq!(a.support_count, b.support_count);
        }
        assert_eq!(serial.stats.classes, sharded.result.stats.classes);
        assert_eq!(serial.stats.gspan, sharded.result.stats.gspan);
        sharded
    }

    #[test]
    fn sharded_matches_serial_exactly() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        for theta in [1.0, 2.0 / 3.0, 1.0 / 3.0] {
            let cfg = TaxogramConfig::with_threshold(theta);
            for shards in [1, 2, 3, 8] {
                for threads in [1, 4] {
                    assert_matches_serial(&cfg, &db, &t, &options(shards, threads));
                }
            }
        }
    }

    /// Five vertices labeled 0, 1, 2, 2, 3 in two components: the edge
    /// 0—1 (edge label 0) and the path 2—2—3 whose 2—2 edge has label
    /// `l`. Every such graph encodes to the same size, so shard plans
    /// split them evenly.
    fn two_component_graph(l: u32) -> LabeledGraph {
        use tsg_graph::{EdgeLabel, NodeLabel};
        let mut g = LabeledGraph::with_nodes([0, 1, 2, 2, 3].map(NodeLabel));
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g.add_edge(2, 3, EdgeLabel(l)).unwrap();
        g.add_edge(3, 4, EdgeLabel(0)).unwrap();
        g
    }

    /// A database of `two_component_graph`s, one per edge label given.
    fn two_component_db(labels: &[u32]) -> GraphDatabase {
        GraphDatabase::from_graphs(labels.iter().map(|&l| two_component_graph(l)).collect())
    }

    fn flat_taxonomy() -> Taxonomy {
        tsg_taxonomy::taxonomy_from_edges(4, std::iter::empty()).unwrap()
    }

    #[test]
    fn class_at_the_global_floor_is_kept_however_it_spreads() {
        use tsg_graph::EdgeLabel;
        // Eight shards of four graphs, θ = 0.3: global floor ⌈9.6⌉ = 10,
        // local fraction ⌈1.2⌉ = 2. Edge label 1 sits in exactly 10
        // graphs: three in shard 0 and one in each other shard, so seven
        // shards hold it below 2 and none anywhere near 10. Label 2 sits
        // in 9 graphs, at most two per shard, and must be dropped.
        let labels = [
            [1, 1, 1, 2],
            [1, 2, 2, 0],
            [1, 2, 0, 0],
            [1, 2, 0, 0],
            [1, 2, 0, 0],
            [1, 2, 0, 0],
            [1, 2, 0, 0],
            [1, 2, 0, 0],
        ];
        let db = two_component_db(labels.as_flattened());
        let t = flat_taxonomy();
        let plan = plan_shards(&db, &options(8, 1));
        assert!(plan.iter().all(|&(lo, hi)| hi - lo == 4), "{plan:?}");
        let cfg = TaxogramConfig::with_threshold(0.3);
        assert_eq!(db.min_support_count(cfg.threshold), 10);
        let sharded = assert_matches_serial(&cfg, &db, &t, &options(8, 2));
        let with_label = |l: u32| -> Vec<usize> {
            let patterns = sharded.result.patterns.iter();
            let with = patterns.filter(|p| p.graph.edges().iter().any(|e| e.label == EdgeLabel(l)));
            with.map(|p| p.support_count).collect()
        };
        // The 2—2 edge and the 2—2—3 path, both at the floor exactly.
        assert_eq!(with_label(1), vec![10, 10]);
        assert!(with_label(2).is_empty());
        let g = sharded.result.stats.gspan;
        assert!(
            g.infrequent > 0 && g.non_minimal > 0 && g.embeddings_grown > 0,
            "{g:?}"
        );
        assert_eq!(sharded.shard_stats.candidates, g.keys_counted);
        assert_eq!(sharded.shard_stats.globally_infrequent, g.infrequent);
    }

    #[test]
    fn shard_plan_balances_bytes_not_counts() {
        use tsg_graph::NodeLabel;
        // Four heavyweight graphs up front, then a tail of tiny ones: a
        // count split would stack every heavy record into shard 0.
        let mut graphs = Vec::new();
        for _ in 0..4 {
            graphs.push(LabeledGraph::with_nodes((0..120).map(|_| NodeLabel(0))));
        }
        for _ in 0..60 {
            graphs.push(LabeledGraph::with_nodes([NodeLabel(0), NodeLabel(1)]));
        }
        let db = GraphDatabase::from_graphs(graphs);
        let sizes: Vec<u64> = db.graphs().iter().map(encoded_record_bytes).collect();
        let total: u64 = sizes.iter().sum();
        let heaviest = *sizes.iter().max().unwrap();

        for shards in [2usize, 3, 4, 7] {
            let plan = plan_shards(&db, &options(shards, 1));
            // Exact contiguous partition, no empty ranges.
            assert!(!plan.is_empty() && plan.len() <= shards);
            assert_eq!(plan[0].0, 0);
            assert_eq!(plan.last().unwrap().1, db.len());
            for w in plan.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            // Every shard's byte weight lands within one record of the
            // ideal total/shards — the bound a contiguous split admits.
            for &(lo, hi) in &plan {
                assert!(lo < hi, "no empty shard ranges");
                let weight: u64 = sizes[lo..hi].iter().sum();
                assert!(
                    weight <= total / shards as u64 + heaviest,
                    "shard {lo}..{hi} weighs {weight} bytes against a \
                     {total}/{shards} target"
                );
            }
        }
    }

    #[test]
    fn shard_plan_never_emits_empty_ranges_under_extreme_skew() {
        use tsg_graph::NodeLabel;
        // One record holding ~all the bytes: it crosses several byte
        // targets at once, which must collapse into fewer, fuller
        // shards rather than zero-width ones.
        let mut graphs = vec![LabeledGraph::with_nodes(
            (0..400).map(|_| NodeLabel(0)),
        )];
        for _ in 0..3 {
            graphs.push(LabeledGraph::with_nodes([NodeLabel(0)]));
        }
        let db = GraphDatabase::from_graphs(graphs);
        let plan = plan_shards(&db, &options(4, 1));
        assert_eq!(plan[0].0, 0);
        assert_eq!(plan.last().unwrap().1, db.len());
        for &(lo, hi) in &plan {
            assert!(lo < hi, "empty range in {plan:?}");
        }
    }

    #[test]
    fn resident_cap_raises_the_shard_count() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let cfg = TaxogramConfig::with_threshold(1.0 / 3.0);
        let opts = ShardOptions {
            resident_cap_bytes: Some(64),
            ..ShardOptions::default()
        };
        let out = mine_sharded(&cfg, &db, &t, &opts).unwrap();
        assert!(out.shard_stats.shards > 1, "a 64-byte cap must split");
        assert!(out.shard_stats.largest_shard_bytes > 0);
        assert!(out.shard_stats.spilled_bytes >= out.shard_stats.largest_shard_bytes);
    }

    #[test]
    fn spill_directory_is_removed_on_success() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let cfg = TaxogramConfig::with_threshold(1.0 / 3.0);
        let root = std::env::temp_dir().join(format!("tsg-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&root).unwrap();
        let opts = ShardOptions {
            shards: 3,
            spill_dir: Some(root.clone()),
            ..ShardOptions::default()
        };
        mine_sharded(&cfg, &db, &t, &opts).unwrap();
        let leftovers = std::fs::read_dir(&root).unwrap().count();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(leftovers, 0, "spill subdirectory must be cleaned up");
    }

    #[test]
    fn sharded_handles_empty_database() {
        let (_, t) = samples::sample_taxonomy();
        let cfg = TaxogramConfig::with_threshold(0.5);
        let out = mine_sharded(&cfg, &GraphDatabase::new(), &t, &ShardOptions::default()).unwrap();
        assert!(out.result.patterns.is_empty());
        assert!(out.termination.is_complete());
        assert_eq!(out.shard_stats.spilled_bytes, 0);
    }

    #[test]
    fn sharded_rejects_bad_threshold() {
        let (_, t) = samples::sample_taxonomy();
        let cfg = TaxogramConfig::with_threshold(1.5);
        assert!(matches!(
            mine_sharded(&cfg, &GraphDatabase::new(), &t, &ShardOptions::default()),
            Err(TaxogramError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn unknown_label_reports_the_serial_error() {
        use tsg_graph::NodeLabel;
        let t = tsg_taxonomy::taxonomy_from_edges(2, [(1, 0)]).unwrap();
        let good = LabeledGraph::with_nodes([NodeLabel(0), NodeLabel(1)]);
        let bad = LabeledGraph::with_nodes([NodeLabel(0), NodeLabel(9)]);
        let db = GraphDatabase::from_graphs(vec![good, bad]);
        let cfg = TaxogramConfig::with_threshold(0.5);
        let err = mine_sharded(&cfg, &db, &t, &options(2, 1)).unwrap_err();
        assert_eq!(
            err,
            TaxogramError::LabelNotInTaxonomy {
                graph: 1,
                node: 1,
                label: NodeLabel(9)
            }
        );
    }
}
