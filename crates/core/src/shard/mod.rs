//! Parallel out-of-core sharded mining — the industrialized SON path
//! (DESIGN.md §15).
//!
//! The SON two-pass partition algorithm (Savasere, Omiecinski and
//! Navathe, VLDB'95), made exact for taxonomy-superimposed patterns and
//! run out of core:
//!
//! 1. **Spill.** The database is split into contiguous graph-id ranges
//!    and written to disk as length-prefixed binary shard files
//!    ([`tsg_graph::binary`]), validating labels in global order along
//!    the way. [`ShardOptions::resident_cap_bytes`] raises the shard
//!    count until each file fits the cap, so the resident working set is
//!    one shard per worker regardless of database size.
//! 2. **Pass 1 — local class discovery** (`pass1`): workers claim
//!    shards from a shared counter, each reading its shard back,
//!    relabeling it, and mining locally frequent pattern *classes* with
//!    the serial gSpan search. Each (canonical DFS code,
//!    skeleton) pair survives with its local support, and each shard
//!    reports its local floor `⌈θ·nᵢ⌉`; by the SON pigeonhole the union
//!    of the classes is a complete candidate superset of the globally
//!    frequent classes.
//! 3. **Pass 2a — exact global supports** (`pass2`): first, with no
//!    shard read, the partition bound drops every candidate whose known
//!    local supports plus `⌈θ·nᵢ⌉ − 1` for each unreporting shard cannot
//!    reach the global floor. The shards are then streamed again and
//!    each survivor is recounted, with batched candidate-cache matching,
//!    only in the shards where its support is unknown; per-shard counts
//!    sum to exactly the serial engine's class supports.
//! 4. **Pass 2b — global Step 3**: each globally frequent class, taken
//!    in canonical (= serial) order in batches of
//!    [`ShardOptions::class_batch`], has its embeddings re-enumerated
//!    over the shard stream and is then enumerated by the ordinary
//!    class pipeline ([`crate::pipeline`]) against the global database
//!    size — so specialization supports, the minimality filter, and the
//!    emission order are *byte-identical* to the single-pass serial
//!    miner. (This sidesteps the locally-over-generalized corner of
//!    partitioned mining entirely: a pattern can be over-generalized in
//!    every shard yet globally minimal, so class membership is re-derived
//!    globally, never reconstructed from local verdicts.)
//!
//! The taxonomy is unified ([`Taxonomy::unify_most_general`]) once per
//! run, before Pass 1: unification does not depend on the database, so
//! every shard read of every pass relabels against that one copy, and
//! Step 3 uses it too.
//!
//! Governance threads through end to end: the cancel token and deadline
//! are polled at every shard claim, budgets gate each Pass 2b class
//! admission in serial class order, and an early stop yields a truthful
//! [`Termination`] whose finished classes form a byte-identical prefix
//! of the serial pattern stream. Spill files are removed when the run
//! ends — success, error, or early termination — unless
//! [`ShardOptions::keep_spill`] asks otherwise.

mod pass1;
mod pass2;
mod spill;

use crate::channel::recover;
use crate::config::TaxogramConfig;
use crate::enumerate::EnumScratch;
use crate::error::TaxogramError;
use crate::gauge::MemoryGauge;
use crate::govern::{GovernOptions, Governor, Termination, FRONTIER_CAP};
use crate::miner::{MiningResult, MiningStats};
use crate::oi::OiScratch;
use crate::pipeline::{
    embedding_heap_bytes, enumerate_class, merge_outputs, panic_message, ClassOutput, Prepared,
};
use crate::relabel::Relabeled;
use crate::sync::{thread, Arc, AtomicBool, AtomicUsize, Mutex, Ordering};
use spill::{read_shard, spill, SpillSet};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use tsg_bitset::BitSet;
use tsg_gspan::DfsCode;
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
    /// Pass 2b classes whose embeddings are collected per shard stream;
    /// larger batches trade resident embedding memory for fewer passes
    /// over the spill files.
    pub class_batch: usize,
    /// Keep the spill directory after the run instead of deleting it.
    pub keep_spill: bool,
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
            keep_spill: false,
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
    /// Candidate classes after Pass 1 (union of local frequent sets).
    pub candidates: usize,
    /// Candidates found globally infrequent: those the partition bound
    /// dropped plus those Pass 2a's exact supports rejected.
    pub globally_infrequent: usize,
    /// Candidates the partition bound dropped before Pass 2a, without any
    /// recount (a subset of `globally_infrequent`).
    pub bound_pruned: usize,
    /// Candidate × shard support counts Pass 2a actually ran: each
    /// survivor is recounted only in shards where Pass 1 did not report it.
    pub recounts: usize,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
    /// Largest single shard file — the per-worker resident-set unit.
    pub largest_shard_bytes: u64,
    /// Full streaming passes over the shard files (Pass 1 + Pass 2a +
    /// one per Pass 2b class batch).
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
/// Pass 2b class admission in serial class order, and shard claims poll
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
    // invariance (metamorphic relation 9) is untouched: pass 2b
    // re-derives global supports from the union of local candidates for
    // *any* contiguous partition.
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
    thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(worker);
        }
        worker();
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

/// A governance stop during Pass 1 or Pass 2a: nothing finished, so the
/// sound serial prefix is empty. The abandoned count is at least 1 (the
/// run lost work) and the frontier lists the candidate codes known so
/// far.
fn early_stop<'a>(
    governor: &Governor,
    codes: impl Iterator<Item = &'a DfsCode>,
    known: usize,
    min_support: usize,
    db_len: usize,
    shard_stats: ShardStats,
) -> ShardedOutcome {
    let frontier: Vec<String> = codes.take(FRONTIER_CAP).map(|c| c.to_string()).collect();
    ShardedOutcome {
        result: MiningResult {
            patterns: Vec::new(),
            stats: MiningStats::default(),
            min_support_count: min_support,
            database_size: db_len,
        },
        termination: governor.finish(0, known.max(1), frontier),
        shard_stats,
    }
}

fn mine_impl(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: &ShardOptions,
    governor: &Governor,
    faults: &ShardFaults,
) -> Result<ShardedOutcome, TaxogramError> {
    let theta = config.threshold;
    if !(0.0..=1.0).contains(&theta) || theta.is_nan() {
        return Err(TaxogramError::InvalidThreshold { theta });
    }
    let min_support = db.min_support_count(theta);
    let db_len = db.len();
    if db.is_empty() {
        return Ok(ShardedOutcome {
            result: MiningResult {
                patterns: Vec::new(),
                stats: MiningStats::default(),
                min_support_count: min_support,
                database_size: 0,
            },
            termination: Termination::completed(0),
            shard_stats: ShardStats::default(),
        });
    }

    let boundaries = plan_shards(db, options);
    let parent = options
        .spill_dir
        .clone()
        .unwrap_or_else(std::env::temp_dir);
    let set = spill(db, taxonomy, &boundaries, &parent, options.keep_spill, faults)?;
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

    // Pass 1: local class discovery, one resident shard per worker.
    let (slots, stopped) = scan_shards(&set, threads, governor, |_, shard_db| {
        pass1::mine_shard(shard_db, &unified, config)
    })?;
    shard_stats.db_streams += 1;
    if stopped {
        let partial = pass1::merge_candidates(
            slots
                .into_iter()
                .map(|s| s.map(|s| s.classes).unwrap_or_default())
                .collect(),
        );
        shard_stats.candidates = partial.len();
        return Ok(early_stop(
            governor,
            partial.iter().map(|c| &c.code),
            partial.len(),
            min_support,
            db_len,
            shard_stats,
        ));
    }
    let mut freq_sums: Vec<usize> = Vec::new();
    let mut local_mins = Vec::with_capacity(set.shard_count());
    let mut per_shard_classes = Vec::with_capacity(set.shard_count());
    for slot in slots {
        let s = slot.expect("unstopped scan fills every slot"); // tsg-lint: allow(panic) — unstopped scan fills every slot; stop was checked above
        if freq_sums.len() < s.label_frequencies.len() {
            freq_sums.resize(s.label_frequencies.len(), 0);
        }
        for (acc, f) in freq_sums.iter_mut().zip(&s.label_frequencies) {
            *acc += f;
        }
        local_mins.push(s.local_min);
        per_shard_classes.push(s.classes);
    }
    let candidates = pass1::merge_candidates(per_shard_classes);
    shard_stats.candidates = candidates.len();

    // The partition bound drops candidates that cannot reach the global
    // floor before any shard is read again.
    let (survivors, pruned) = pass2::bound_prune(candidates, &local_mins, min_support);
    shard_stats.bound_pruned = pruned.len();
    drop(pruned);

    // Pass 2a: exact global supports of the survivors across a second
    // shard stream, recounting only where Pass 1 left them unknown.
    let (slots, stopped) = scan_shards(&set, threads, governor, |shard, shard_db| {
        pass2::shard_supports(shard_db, &unified, &survivors, shard)
    })?;
    shard_stats.db_streams += 1;
    if stopped {
        return Ok(early_stop(
            governor,
            survivors.iter().map(|c| &c.code),
            shard_stats.candidates,
            min_support,
            db_len,
            shard_stats,
        ));
    }
    let mut supports = vec![0usize; survivors.len()];
    for (shard_counts, recounts) in slots.into_iter().flatten() {
        shard_stats.recounts += recounts;
        for (acc, c) in supports.iter_mut().zip(&shard_counts) {
            *acc += c;
        }
    }
    let frequent: Vec<pass1::Candidate> = survivors
        .into_iter()
        .zip(&supports)
        .filter(|&(_, &sup)| sup >= min_support)
        .map(|(cand, _)| cand)
        .collect();
    shard_stats.globally_infrequent = shard_stats.candidates - frequent.len();

    // Step 3 scaffold on *global* data: the unified taxonomy, the summed
    // frequent-label mask, and an originals table filled lazily per batch
    // with the rows the occurrence indices actually touch.
    let frequent_mask = if config.enhancements.prune_infrequent_labels {
        let mut mask = BitSet::new(unified.concept_count());
        for (i, &f) in freq_sums.iter().enumerate() {
            if f >= min_support {
                mask.insert(i);
            }
        }
        Some(mask)
    } else {
        None
    };
    let mut prepared = Prepared {
        rel: Relabeled {
            dmg: GraphDatabase::new(),
            originals: vec![Vec::new(); db_len],
            taxonomy: Arc::clone(&unified),
        },
        frequent_mask,
        min_support,
        db_len,
    };

    // Pass 2b: batched global re-enumeration in canonical class order.
    let emb_gauge = MemoryGauge::new();
    let oi_gauge = MemoryGauge::new();
    let mut enum_scratch = EnumScratch::new();
    let mut oi_scratch = OiScratch::new();
    let mut outputs: Vec<ClassOutput> = Vec::new();
    let mut finished = 0usize;
    let batch_size = options.class_batch.max(1);
    'batches: for batch in frequent.chunks(batch_size) {
        let (slots, stopped) = scan_shards(&set, threads, governor, |shard, shard_db| {
            pass2::collect_shard_embeddings(&shard_db, &unified, batch, set.range(shard).0)
        })?;
        shard_stats.db_streams += 1;
        if stopped {
            break 'batches;
        }
        let mut per_class: Vec<Vec<tsg_gspan::Embedding>> =
            (0..batch.len()).map(|_| Vec::new()).collect();
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
        for (class, embeddings) in batch.iter().zip(per_class) {
            let emb_bytes = embedding_heap_bytes(&embeddings);
            emb_gauge.add(emb_bytes);
            // Admission in serial class order — the same gate, in the
            // same order, as the single-pass engines, so budget and
            // cancel-after trip points line up exactly.
            if !governor.admit_class(emb_gauge.peak() + oi_gauge.peak()) {
                emb_gauge.sub(emb_bytes);
                break 'batches;
            }
            let out = enumerate_class(
                &class.skeleton,
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
            outputs.push(out);
            finished += 1;
            if governor.should_stop_class_boundary() {
                break 'batches;
            }
        }
    }

    let abandoned = frequent.len() - finished;
    let frontier: Vec<String> = frequent[finished..] // tsg-lint: allow(index) — finished <= frequent.len() by take_while
        .iter()
        .take(FRONTIER_CAP)
        .map(|c| c.code.to_string())
        .collect();
    let termination = governor.finish(finished, abandoned, frontier);
    let mut result = merge_outputs(outputs.into_iter(), finished, &prepared);
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

    #[test]
    fn sharded_matches_serial_exactly() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        for theta in [1.0, 2.0 / 3.0, 1.0 / 3.0] {
            let cfg = TaxogramConfig::with_threshold(theta);
            let serial = Taxogram::new(cfg).mine(&db, &t).unwrap();
            for shards in [1, 2, 3, 8] {
                for threads in [1, 4] {
                    let sharded = mine_sharded(&cfg, &db, &t, &options(shards, threads)).unwrap();
                    assert!(sharded.termination.is_complete());
                    assert_eq!(serial.patterns.len(), sharded.result.patterns.len());
                    for (a, b) in serial.patterns.iter().zip(&sharded.result.patterns) {
                        assert_eq!(a.graph.labels(), b.graph.labels());
                        assert_eq!(a.graph.edges(), b.graph.edges());
                        assert_eq!(a.support_count, b.support_count);
                    }
                    assert_eq!(serial.stats.classes, sharded.result.stats.classes);
                }
            }
        }
    }

    /// Mines sharded and serially, asserts byte-identical pattern
    /// streams, and returns the sharding counters.
    fn sharded_stats(
        cfg: &TaxogramConfig,
        db: &GraphDatabase,
        t: &Taxonomy,
        shards: usize,
    ) -> ShardStats {
        let serial = Taxogram::new(*cfg).mine(db, t).unwrap();
        let sharded = mine_sharded(cfg, db, t, &options(shards, 2)).unwrap();
        assert!(sharded.termination.is_complete());
        assert_eq!(serial.patterns.len(), sharded.result.patterns.len());
        for (a, b) in serial.patterns.iter().zip(&sharded.result.patterns) {
            assert_eq!(a.graph.labels(), b.graph.labels());
            assert_eq!(a.graph.edges(), b.graph.edges());
            assert_eq!(a.support_count, b.support_count);
        }
        sharded.shard_stats
    }

    /// Four vertices labeled 0, 1, 2, 2 in two components: the edge 0—1
    /// (edge label 0) and the edge 2—2 with edge label `l`. Every such
    /// graph encodes to the same size, so shard plans split them evenly.
    fn two_component_graph(l: u32) -> LabeledGraph {
        use tsg_graph::{EdgeLabel, NodeLabel};
        let mut g = LabeledGraph::with_nodes([0, 1, 2, 2].map(NodeLabel));
        g.add_edge(0, 1, EdgeLabel(0)).unwrap();
        g.add_edge(2, 3, EdgeLabel(l)).unwrap();
        g
    }

    /// A database of `two_component_graph`s, one per edge label given.
    fn two_component_db(labels: &[u32]) -> GraphDatabase {
        GraphDatabase::from_graphs(labels.iter().map(|&l| two_component_graph(l)).collect())
    }

    fn flat_taxonomy() -> Taxonomy {
        tsg_taxonomy::taxonomy_from_edges(3, std::iter::empty()).unwrap()
    }

    /// Pass 1 and the bound on in-memory copies of the planned shards:
    /// returns the surviving and the pruned candidates plus the global
    /// floor.
    fn pass1_and_bound(
        cfg: &TaxogramConfig,
        db: &GraphDatabase,
        t: &Taxonomy,
        shards: usize,
    ) -> (Vec<pass1::Candidate>, Vec<pass1::Candidate>, usize) {
        let unified = Arc::new(t.unify_most_general());
        let mut local_mins = Vec::new();
        let mut per_shard = Vec::new();
        for (lo, hi) in plan_shards(db, &options(shards, 1)) {
            let shard_db = GraphDatabase::from_graphs(db.graphs()[lo..hi].to_vec());
            let s = pass1::mine_shard(shard_db, &unified, cfg);
            local_mins.push(s.local_min);
            per_shard.push(s.classes);
        }
        let min_support = db.min_support_count(cfg.threshold);
        let candidates = pass1::merge_candidates(per_shard);
        let (survivors, pruned) = pass2::bound_prune(candidates, &local_mins, min_support);
        (survivors, pruned, min_support)
    }

    /// Exact whole-database class support of each candidate.
    fn full_supports(db: &GraphDatabase, t: &Taxonomy, cands: &[pass1::Candidate]) -> Vec<usize> {
        let rel = crate::relabel::relabel(db, t).unwrap();
        let matcher = tsg_iso::ExactMatcher;
        let batched = tsg_iso::BatchedMatcher::new(&rel.dmg, &matcher);
        cands.iter().map(|c| batched.support_count(&c.skeleton)).collect()
    }

    #[test]
    fn class_frequent_in_one_of_many_shards_is_pruned_without_recounts() {
        // Eight shards of four graphs, θ = 1/2: global floor 16, local
        // floor 2, so each unreporting shard adds a slack of 1. The 2—2
        // class with edge label 1 fills shard 0 only: its bound is
        // 4 + 7·1 = 11 < 16. The label-0 twin fills shards 1–7 and needs
        // one recount (in shard 0); the 0—1 class is known everywhere.
        let mut labels = vec![1; 4];
        labels.extend([0; 28]);
        let db = two_component_db(&labels);
        let t = flat_taxonomy();
        let plan = plan_shards(&db, &options(8, 1));
        assert!(plan.iter().all(|&(lo, hi)| hi - lo == 4), "{plan:?}");
        let cfg = TaxogramConfig::with_threshold(0.5);
        let stats = sharded_stats(&cfg, &db, &t, 8);
        assert_eq!(stats.candidates, 3);
        assert_eq!(stats.bound_pruned, 1);
        assert_eq!(stats.globally_infrequent, 1);
        assert_eq!(stats.recounts, 1, "only the label-0 class, only in shard 0");
    }

    #[test]
    fn bound_equal_to_min_support_is_kept() {
        // Four shards of four graphs, θ = 1/2: global floor 8, local
        // floor 2. Edge label 0 fills three graphs of shards 0–1 and one
        // of shards 2–3 (unreported there): bound 3 + 3 + 1 + 1 = 8, the
        // floor exactly, and the exact support is 8 too. Label 1 mirrors
        // it. Dropping a bound equal to the floor would lose both.
        let db = two_component_db(&[0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]);
        let t = flat_taxonomy();
        let cfg = TaxogramConfig::with_threshold(0.5);
        let (survivors, pruned, min_support) = pass1_and_bound(&cfg, &db, &t, 4);
        assert_eq!(min_support, 8);
        assert!(pruned.is_empty());
        assert_eq!(full_supports(&db, &t, &survivors), vec![16, 8, 8]);
        let stats = sharded_stats(&cfg, &db, &t, 4);
        assert_eq!(stats.bound_pruned, 0);
        assert_eq!(stats.globally_infrequent, 0);
        assert_eq!(stats.recounts, 4, "each 2—2 class in its two unreporting shards");
    }

    #[test]
    fn small_theta_has_no_slack_so_the_bound_is_exact() {
        // θ = 1/10 over four-graph shards: local floor 1, so an
        // unreporting shard holds the class in no graph at all and the
        // bound is the exact support. Every globally infrequent candidate
        // (the edge-label-2 class, in one graph) falls to the bound, and
        // every recount finds nothing.
        let db = two_component_db(&[0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 1, 1, 0, 1, 1, 1]);
        let t = flat_taxonomy();
        let cfg = TaxogramConfig::with_threshold(0.1);
        let (survivors, pruned, min_support) = pass1_and_bound(&cfg, &db, &t, 4);
        assert_eq!(min_support, 2);
        assert_eq!(full_supports(&db, &t, &pruned), vec![1]);
        for (c, full) in survivors.iter().zip(full_supports(&db, &t, &survivors)) {
            let known: usize = c.known.iter().map(|&(_, sup)| sup).sum();
            assert_eq!(known, full, "no support hides in an unreporting shard");
        }
        let stats = sharded_stats(&cfg, &db, &t, 4);
        assert_eq!(stats.bound_pruned, 1);
        assert_eq!(stats.globally_infrequent, stats.bound_pruned);
    }

    #[test]
    fn bound_respects_uneven_shard_sizes() {
        use tsg_graph::{EdgeLabel, NodeLabel};
        // Two 40-vertex paths, then twelve single edges 1—2: the byte
        // planner gives each path a shard of its own (local floor 1, no
        // slack) and the twelve edges one shard (θ = 0.4: local floor 5,
        // slack 4). Global floor 6.
        let mut graphs = Vec::new();
        for _ in 0..2 {
            let mut g = LabeledGraph::with_nodes((0..40).map(|_| NodeLabel(0)));
            for v in 1..40 {
                g.add_edge(v - 1, v, EdgeLabel(0)).unwrap();
            }
            graphs.push(g);
        }
        for l in [0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1] {
            let mut g = LabeledGraph::with_nodes([NodeLabel(1), NodeLabel(2)]);
            g.add_edge(0, 1, EdgeLabel(l)).unwrap();
            graphs.push(g);
        }
        let db = GraphDatabase::from_graphs(graphs);
        let t = flat_taxonomy();
        assert_eq!(plan_shards(&db, &options(4, 1)), vec![(0, 1), (1, 2), (2, 14)]);
        let cfg = TaxogramConfig::with_threshold(0.4).max_edges(2);
        let (survivors, pruned, min_support) = pass1_and_bound(&cfg, &db, &t, 4);
        assert_eq!(min_support, 6);
        // The 1—2 edge with label 0 (5 graphs, all in the big shard):
        // bound 5 + 0 + 0 < 6. The path classes (one graph per small
        // shard): bound 1 + 1 + 4 = 6, kept, yet only 2 graphs hold them.
        assert_eq!(full_supports(&db, &t, &pruned), vec![5]);
        assert_eq!(full_supports(&db, &t, &survivors), vec![2, 2, 7]);
        let stats = sharded_stats(&cfg, &db, &t, 4);
        assert_eq!(stats.candidates, 4);
        assert_eq!(stats.bound_pruned, 1);
        assert_eq!(stats.globally_infrequent, 3);
        assert_eq!(stats.recounts, 4, "two paths in the big shard, label 1 in both small ones");
    }

    #[test]
    fn every_pruned_candidate_is_globally_infrequent() {
        let n = tsg_testkit::gen::case_count(64);
        let mut pruned_total = 0;
        for case in tsg_testkit::gen::cases(0xb0_0d, n) {
            let (db, t) = (&case.db, &case.taxonomy);
            let cfg = TaxogramConfig::with_threshold(case.theta).max_edges(3);
            for shards in [2, 3, 5, 8] {
                let (_, pruned, min_support) = pass1_and_bound(&cfg, db, t, shards);
                for (c, sup) in pruned.iter().zip(full_supports(db, t, &pruned)) {
                    assert!(
                        sup < min_support,
                        "seed {:#x}, {shards} shards: pruned {} has support {sup} ≥ {min_support}",
                        case.seed,
                        c.code
                    );
                }
                pruned_total += pruned.len();
            }
        }
        assert!(pruned_total > 0, "the generated cases must exercise the bound");
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
