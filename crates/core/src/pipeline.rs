//! Streaming pipelined mining: Step 2 and Step 3 overlapped.
//!
//! Running gSpan to completion before any Step 3 work starts would cost
//! twice: wall-clock (workers idle while mining runs, the miner idles
//! while workers drain) and memory (every class's embedding list resident
//! at once, forfeiting the paper's Step 2 space argument entirely).
//!
//! [`mine_pipelined`] has no such barrier. The gSpan producer pushes each
//! completed pattern class — skeleton plus embeddings, **moved, not
//! cloned** via [`tsg_gspan::PatternSink::complete`] — into a bounded
//! channel the moment its DFS-code subtree closes. A worker pool builds
//! occurrence indices and enumerates specializations *while mining is
//! still running*. Three properties make this safe and fast:
//!
//! - **Determinism.** `complete` fires in report (pre-order DFS) order,
//!   so the sink stamps each class with a sequence number equal to its
//!   serial class index. Workers process classes in whatever order the
//!   channel hands them out, but the merge sorts per-class outputs by
//!   sequence number — a reorder buffer — so the pattern list is
//!   byte-for-byte identical to the serial miner's.
//! - **Bounded memory.** The channel holds at most `channel_capacity`
//!   classes; a full channel blocks the producer. Peak resident embedding
//!   bytes are therefore bounded by the classes in flight (queued plus
//!   one per worker plus the one the producer holds), not by the class
//!   count. [`crate::MiningStats::peak_embedding_bytes`] records the
//!   observed high-water mark.
//! - **Zero steady-state allocation.** Each worker owns a reusable
//!   scratch arena ([`crate::enumerate::EnumScratch`] +
//!   [`crate::oi::OiScratch`]): dense bitset pools, interning tables, and
//!   specialization work stacks are recycled across classes, so the hot
//!   loop stops allocating once warm.

use crate::channel::{recover, Bounded};
use crate::config::TaxogramConfig;
use crate::enumerate::EnumScratch;
use crate::error::TaxogramError;
use crate::gauge::MemoryGauge;
use crate::govern::{GovernOptions, Governor, MiningOutcome, Termination};
use crate::miner::{MiningResult, MiningStats, Pattern};
use crate::oi::{OccurrenceIndex, OiOptions, OiScratch};
use crate::relabel::{relabel, Relabeled};
use tsg_bitset::BitSet;
use tsg_graph::{GraphDatabase, LabeledGraph};
use crate::sync::thread;
use crate::sync::Mutex;
use std::panic::AssertUnwindSafe;
use tsg_gspan::{ClassHandoff, Embedding, GSpan, GSpanConfig, Grow, MinedPattern, PatternSink};
use tsg_taxonomy::Taxonomy;

/// Tuning knobs for [`mine_pipelined_governed`].
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Total mining threads: the gSpan producer (which steals Step 3
    /// work whenever the channel backs up) plus `threads - 1` dedicated
    /// workers. `0` or `1` falls back to the serial miner.
    pub threads: usize,
    /// Bounded channel capacity in pattern classes; `0` means
    /// `2 × threads`. Smaller values bound resident embedding memory
    /// tighter at the cost of more producer stalls.
    pub channel_capacity: usize,
    /// Clamp `threads` to the machine's available parallelism (default).
    /// When the clamp leaves no dedicated worker (a single-core host),
    /// classes are streamed *inline* on the producer thread — same
    /// move-handoff, scratch reuse, and memory accounting, zero
    /// synchronization. Disable to force the channel machinery at any
    /// thread count (used by the determinism tests).
    pub clamp_to_cores: bool,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 2,
            channel_capacity: 0,
            clamp_to_cores: true,
        }
    }
}

/// Deterministic fault injector for the pipelined engine. Test-only
/// plumbing (driven by `tsg-testkit`); every field defaults to "no
/// fault", in which case [`mine_pipelined_faulted`] behaves exactly like
/// the unfaulted engine.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, Default)]
pub struct PipelineFaults {
    /// Panic while enumerating the class with this 1-based *serial class
    /// index*. Sequence numbers are assigned in serial (pre-order) class
    /// order, so the faulting class is fixed regardless of which thread —
    /// dedicated worker or stealing producer — happens to process it.
    pub panic_at_class: Option<usize>,
    /// Simulate a dropped `PipeSink` receiver: each dedicated worker stops
    /// receiving (returns, dropping its end of the channel loop) after
    /// processing this many items. Queued classes stay in the channel and
    /// are drained by the producer after close, so the run still succeeds
    /// with byte-identical output.
    pub drop_receiver_after: Option<usize>,
}

/// Renders a caught panic payload as text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Records the first panic; later panics are dropped (first-wins, like
/// the search scheduler's recorder).
fn record_panic(slot: &Mutex<Option<String>>, message: String) {
    let mut guard = recover(slot.lock());
    if guard.is_none() {
        *guard = Some(message);
    }
}

/// Trips the injected panic for class `seq` (0-based) if armed.
fn maybe_injected_panic(faults: &PipelineFaults, seq: usize) {
    if faults.panic_at_class == Some(seq + 1) {
        panic!("injected fault: pipeline worker panicked at class {}", seq + 1); // tsg-lint: allow(panic) — deliberate fault-injection trip point, armed only by tests
    }
}

/// Mines like [`crate::Taxogram::mine`] with Step 2 and Step 3 overlapped
/// on `threads` workers. Output is exactly the serial result (same
/// patterns, same order, same supports).
///
/// # Errors
/// Same conditions as the serial miner, plus
/// [`TaxogramError::WorkerPanicked`] if an enumeration thread panicked
/// (the panic is caught, every thread unwinds cleanly, and the run
/// surfaces the first panic instead of aborting or deadlocking).
pub fn mine_pipelined(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    threads: usize,
) -> Result<MiningResult, TaxogramError> {
    let options = PipelineOptions {
        threads,
        ..PipelineOptions::default()
    };
    Ok(mine_pipelined_faulted(
        config,
        db,
        taxonomy,
        options,
        None,
        PipelineFaults::default(),
    )?
    .result)
}

/// [`mine_pipelined`] with explicit [`PipelineOptions`], under
/// governance: the producer gates class admission (in serial class
/// order) on `govern`'s cancel token and budget; on an early stop the
/// channel closes and drains cleanly, every *admitted* class is still
/// enumerated, and the output is exactly the admitted prefix of the
/// serial class stream — byte-identical to a prefix of the full serial
/// output.
///
/// # Errors
/// Same conditions as [`mine_pipelined`]; early termination is not an
/// error.
pub fn mine_pipelined_governed(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: PipelineOptions,
    govern: &GovernOptions,
) -> Result<MiningOutcome, TaxogramError> {
    mine_pipelined_faulted(
        config,
        db,
        taxonomy,
        options,
        Some(govern),
        PipelineFaults::default(),
    )
}

/// The pipelined engine with explicit options, optional governance
/// (`None` runs ungoverned, exactly as [`mine_pipelined`]) and the
/// deterministic fault injector. Test-only plumbing (driven by
/// `tsg-testkit`).
#[doc(hidden)]
pub fn mine_pipelined_faulted(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: PipelineOptions,
    govern: Option<&GovernOptions>,
    faults: PipelineFaults,
) -> Result<MiningOutcome, TaxogramError> {
    let governor = govern.map_or_else(Governor::disabled, Governor::new);
    if options.threads <= 1 {
        let (result, termination) =
            crate::Taxogram::new(*config).mine_with(db, taxonomy, &governor)?;
        return Ok(MiningOutcome {
            result,
            termination,
        });
    }
    mine_pipelined_impl(config, db, taxonomy, options, faults, &governor)
}

fn mine_pipelined_impl(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    options: PipelineOptions,
    faults: PipelineFaults,
    governor: &Governor,
) -> Result<MiningOutcome, TaxogramError> {
    let threads = options.threads;
    let prepared = match prepare(config, db, taxonomy)? {
        Prologue::Done(result) => {
            return Ok(MiningOutcome {
                result,
                termination: Termination::completed(0),
            })
        }
        Prologue::Ready(p) => p,
    };
    let effective = if options.clamp_to_cores {
        thread::available_parallelism()
            .map(|n| threads.min(n.get()))
            .unwrap_or(threads)
    } else {
        threads
    };
    if effective <= 1 {
        // No dedicated worker to be had: stream inline. Still the
        // pipelined engine — classes hand off by move and scratch arenas
        // persist — just with the channel optimized away.
        return Ok(mine_inline(config, &prepared, governor));
    }
    let threads = effective;
    let capacity = if options.channel_capacity == 0 {
        2 * threads
    } else {
        options.channel_capacity
    };

    let channel: Bounded<WorkItem> = Bounded::new(capacity);
    let emb_gauge = MemoryGauge::new();
    let oi_gauge = MemoryGauge::new();
    // First panic from any enumeration thread; a set slot turns the whole
    // run into `Err(WorkerPanicked)` after every thread has unwound.
    let panic_slot: Mutex<Option<String>> = Mutex::new(None);

    let mut classes = 0usize;
    let mut steals = 0usize;
    let mut rejected: Option<String> = None;
    let mut outputs: Vec<(usize, ClassOutput)> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads - 1)
            .map(|_| {
                let channel = &channel;
                let emb_gauge = &emb_gauge;
                let oi_gauge = &oi_gauge;
                let prepared = &prepared;
                let panic_slot = &panic_slot;
                scope.spawn(move || {
                    let mut local: Vec<(usize, ClassOutput)> = Vec::new();
                    let mut enum_scratch = EnumScratch::new();
                    let mut oi_scratch = OiScratch::new();
                    let mut received = 0usize;
                    while let Some(item) = channel.recv() {
                        received += 1;
                        let (seq, emb_bytes) = (item.seq, item.emb_bytes);
                        // Catch panics per item: a dead worker must not
                        // leave the producer blocked or the process
                        // aborted. The item unwinding mid-enumeration is
                        // lost, which is exactly why a recorded panic
                        // fails the whole run below.
                        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
                            maybe_injected_panic(&faults, item.seq);
                            let out = enumerate_class(
                                &item.skeleton,
                                &item.embeddings,
                                prepared,
                                config,
                                Some(oi_gauge),
                                &mut enum_scratch,
                                &mut oi_scratch,
                            );
                            // Embeddings die here (with the item).
                            drop(item.embeddings);
                            out
                        }));
                        // Release the reservation on *both* paths: an item
                        // destroyed by an unwinding worker is just as dead
                        // as an enumerated one, and leaking it would leave
                        // the gauge's running total permanently inflated.
                        emb_gauge.sub(emb_bytes);
                        match caught {
                            Ok(out) => {
                                governor.add_patterns(out.patterns.len());
                                local.push((seq, out));
                            }
                            Err(payload) => {
                                record_panic(panic_slot, panic_message(payload.as_ref()));
                                return local;
                            }
                        }
                        // Simulated receiver drop: stop pulling from the
                        // channel; the producer's post-close drain picks
                        // up whatever this worker abandons.
                        if faults.drop_receiver_after == Some(received) {
                            return local;
                        }
                    }
                    local
                })
            })
            .collect();

        // Producer: gSpan on the calling thread, streaming into the
        // channel with backpressure. On a full channel the producer
        // steals an item and enumerates it itself rather than sleeping.
        let mut sink = PipeSink {
            channel: &channel,
            emb_gauge: &emb_gauge,
            oi_gauge: &oi_gauge,
            prepared: &prepared,
            config,
            faults,
            governor,
            rejected: None,
            enum_scratch: EnumScratch::new(),
            oi_scratch: OiScratch::new(),
            outputs: Vec::new(),
            next_seq: 0,
            steals: 0,
        };
        // The producer can panic too — the injected class may land on it
        // via a backpressure steal. Catch so the channel still closes:
        // an unclosed channel would park every worker on `recv` forever.
        let mined = std::panic::catch_unwind(AssertUnwindSafe(|| {
            GSpan::new(
                &prepared.rel.dmg,
                GSpanConfig {
                    min_support: prepared.min_support,
                    max_edges: config.max_edges,
                },
            )
            .mine(&mut sink);
        }));
        classes = sink.next_seq;
        steals = sink.steals;
        rejected = sink.rejected.take();
        channel.close();
        if let Err(payload) = mined {
            record_panic(&panic_slot, panic_message(payload.as_ref()));
        }
        // Mining is done; the producer joins the drain instead of idling.
        // This drain is also what rescues classes abandoned by a dropped
        // receiver, so no item is ever lost to a worker that quit early.
        while let Some(item) = channel.try_recv() {
            let emb_bytes = item.emb_bytes;
            if let Err(payload) =
                std::panic::catch_unwind(AssertUnwindSafe(|| sink.process(item)))
            {
                // `process` panicked before its own release; the item died
                // in the unwind, so release its reservation here.
                emb_gauge.sub(emb_bytes);
                record_panic(&panic_slot, panic_message(payload.as_ref()));
            }
        }
        outputs = sink.outputs;

        for h in handles {
            // A panic that somehow escaped the per-item catch (e.g. from
            // the channel itself) still surfaces as an error, not an
            // abort-on-join.
            match h.join() {
                Ok(local) => outputs.extend(local),
                Err(payload) => record_panic(&panic_slot, panic_message(payload.as_ref())),
            }
        }
    });

    if let Some(message) = recover(panic_slot.lock()).take() {
        return Err(TaxogramError::WorkerPanicked { message });
    }
    // Gauge balance: every enqueued reservation was released — by
    // `process`, by a displaced-item steal, or by the post-close drain —
    // even when the run stopped early. (The governance tests' partial
    // runs exercise this; a leak here was the original abandoned-class
    // accounting bug.)
    debug_assert_eq!(emb_gauge.current(), 0, "embedding reservations leaked");

    // Reorder buffer: sequence numbers are serial class indices, so
    // sorting restores exactly the serial output order. On an early stop
    // every admitted class was still drained and enumerated (admission
    // is the only gate), so the output is the exact admitted prefix and
    // nothing needs cutting.
    outputs.sort_unstable_by_key(|(seq, _)| *seq);
    let termination = governor.finish(
        classes,
        usize::from(rejected.is_some()),
        rejected.into_iter().collect(),
    );
    let mut result = merge_outputs(outputs.into_iter().map(|(_, out)| out), classes, &prepared);
    result.stats.peak_oi_bytes = oi_gauge.peak();
    result.stats.peak_embedding_bytes = emb_gauge.peak();
    result.stats.steals = steals;
    Ok(MiningOutcome {
        result,
        termination,
    })
}

/// Single-thread streaming: each class is enumerated the moment gSpan
/// completes it, on the mining thread, with persistent scratch arenas.
/// Used when the core clamp leaves no dedicated worker; also the
/// fairest possible single-core baseline for the channel pipeline.
fn mine_inline(
    config: &TaxogramConfig,
    prepared: &Prepared,
    governor: &Governor,
) -> MiningOutcome {
    struct InlineSink<'a> {
        prepared: &'a Prepared,
        config: &'a TaxogramConfig,
        emb_gauge: &'a MemoryGauge,
        oi_gauge: &'a MemoryGauge,
        governor: &'a Governor,
        rejected: Option<String>,
        enum_scratch: EnumScratch,
        oi_scratch: OiScratch,
        outputs: Vec<ClassOutput>,
    }
    impl PatternSink for InlineSink<'_> {
        fn report(&mut self, class: &MinedPattern<'_>) -> Grow {
            // Governance poll point (same contract as the channel path's
            // producer sink): admission in serial class order.
            if !self
                .governor
                .admit_class(self.emb_gauge.peak() + self.oi_gauge.peak())
            {
                self.rejected = Some(class.code.to_string());
                return Grow::Stop;
            }
            Grow::Continue
        }
        fn complete(&mut self, class: ClassHandoff) {
            let emb_bytes = embedding_heap_bytes(&class.embeddings);
            self.emb_gauge.add(emb_bytes);
            let out = enumerate_class(
                &class.graph,
                &class.embeddings,
                self.prepared,
                self.config,
                Some(self.oi_gauge),
                &mut self.enum_scratch,
                &mut self.oi_scratch,
            );
            drop(class);
            self.emb_gauge.sub(emb_bytes);
            self.governor.add_patterns(out.patterns.len());
            self.outputs.push(out);
        }
    }
    let emb_gauge = MemoryGauge::new();
    let oi_gauge = MemoryGauge::new();
    let mut sink = InlineSink {
        prepared,
        config,
        emb_gauge: &emb_gauge,
        oi_gauge: &oi_gauge,
        governor,
        rejected: None,
        enum_scratch: EnumScratch::new(),
        oi_scratch: OiScratch::new(),
        outputs: Vec::new(),
    };
    GSpan::new(
        &prepared.rel.dmg,
        GSpanConfig {
            min_support: prepared.min_support,
            max_edges: config.max_edges,
        },
    )
    .mine(&mut sink);
    let classes = sink.outputs.len();
    let rejected = sink.rejected;
    let termination = governor.finish(
        classes,
        usize::from(rejected.is_some()),
        rejected.into_iter().collect(),
    );
    let mut result = merge_outputs(sink.outputs.into_iter(), classes, prepared);
    result.stats.peak_oi_bytes = oi_gauge.peak();
    result.stats.peak_embedding_bytes = emb_gauge.peak();
    MiningOutcome {
        result,
        termination,
    }
}

/// A pattern class in flight from the gSpan producer to a worker.
struct WorkItem {
    /// Serial class index (assigned in report order).
    seq: usize,
    skeleton: LabeledGraph,
    embeddings: Vec<Embedding>,
    /// Heap bytes of `embeddings`, precomputed for the gauge.
    emb_bytes: usize,
}

struct PipeSink<'a> {
    channel: &'a Bounded<WorkItem>,
    emb_gauge: &'a MemoryGauge,
    oi_gauge: &'a MemoryGauge,
    prepared: &'a Prepared,
    config: &'a TaxogramConfig,
    faults: PipelineFaults,
    governor: &'a Governor,
    /// DFS code of the class rejected at admission, if the run stopped.
    rejected: Option<String>,
    /// Scratch arenas for classes the producer enumerates itself when
    /// the channel is full (work stealing instead of blocking).
    enum_scratch: EnumScratch,
    oi_scratch: OiScratch,
    outputs: Vec<(usize, ClassOutput)>,
    next_seq: usize,
    /// Queued classes the producer took back and enumerated itself
    /// because the channel was full.
    steals: usize,
}

impl PipeSink<'_> {
    fn process(&mut self, item: WorkItem) {
        maybe_injected_panic(&self.faults, item.seq);
        let out = enumerate_class(
            &item.skeleton,
            &item.embeddings,
            self.prepared,
            self.config,
            Some(self.oi_gauge),
            &mut self.enum_scratch,
            &mut self.oi_scratch,
        );
        drop(item.embeddings);
        self.emb_gauge.sub(item.emb_bytes);
        self.governor.add_patterns(out.patterns.len());
        self.outputs.push((item.seq, out));
    }
}

impl PatternSink for PipeSink<'_> {
    fn report(&mut self, class: &MinedPattern<'_>) -> Grow {
        // Governance poll point: report fires in serial (pre-order) class
        // order on the producer, so admissions form an exact serial
        // prefix. The tracked high-water mark is in-flight embeddings
        // plus resident occurrence indices.
        if !self
            .governor
            .admit_class(self.emb_gauge.peak() + self.oi_gauge.peak())
        {
            self.rejected = Some(class.code.to_string());
            return Grow::Stop;
        }
        Grow::Continue
    }

    fn complete(&mut self, class: ClassHandoff) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let emb_bytes = embedding_heap_bytes(&class.embeddings);
        // Account before send: the bytes are resident from this moment
        // until a worker (or the producer itself) finishes with them.
        self.emb_gauge.add(emb_bytes);
        let item = WorkItem {
            seq,
            skeleton: class.graph,
            embeddings: class.embeddings,
            emb_bytes,
        };
        // Backpressure as work stealing: a full channel means the
        // workers are saturated, so this class displaces the oldest
        // queued one — a single-lock exchange — and the producer
        // enumerates the displaced class itself. Resident embedding
        // memory stays bounded by capacity + threads + 1 items, no
        // thread ever sleeps while there is work to do, and (unlike the
        // old try_send/try_recv pairing) the producer cannot spin when
        // workers race it for queue slots.
        if let Some(stolen) = self.channel.send_or_swap(item) {
            self.steals += 1;
            self.process(stolen);
        }
    }
}

/// Approximate heap footprint of an embedding list (the miner crate owns
/// the canonical accounting; re-exported here for the engines).
pub(crate) fn embedding_heap_bytes(embeddings: &[Embedding]) -> usize {
    tsg_gspan::embedding_list_bytes(embeddings)
}

/// Shared Step 0/1 prologue: threshold validation, support floor, empty
/// database short-circuit, relabeling, and the generalized-frequent mask.
pub(crate) enum Prologue {
    /// The run is already over (empty database).
    Done(MiningResult),
    Ready(Prepared),
}

/// Everything Step 3 workers need, computed once per run.
pub(crate) struct Prepared {
    pub rel: Relabeled,
    pub frequent_mask: Option<BitSet>,
    pub min_support: usize,
    pub db_len: usize,
}

pub(crate) fn prepare(
    config: &TaxogramConfig,
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
) -> Result<Prologue, TaxogramError> {
    let theta = config.threshold;
    if !(0.0..=1.0).contains(&theta) || theta.is_nan() {
        return Err(TaxogramError::InvalidThreshold { theta });
    }
    let min_support = db.min_support_count(theta);
    if db.is_empty() {
        return Ok(Prologue::Done(MiningResult {
            patterns: Vec::new(),
            stats: MiningStats::default(),
            min_support_count: min_support,
            database_size: 0,
        }));
    }
    let rel = relabel(db, taxonomy)?;
    let frequent_mask = if config.enhancements.prune_infrequent_labels {
        let freqs = rel.taxonomy.generalized_label_frequencies(db);
        let mut mask = BitSet::new(rel.taxonomy.concept_count());
        for (i, &f) in freqs.iter().enumerate() {
            if f >= min_support {
                mask.insert(i);
            }
        }
        Some(mask)
    } else {
        None
    };
    Ok(Prologue::Ready(Prepared {
        rel,
        frequent_mask,
        min_support,
        db_len: db.len(),
    }))
}

/// Per-class enumeration output, merged in class order at the end.
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
    let t_oi = std::time::Instant::now();
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
    out.stats.oi_build_ms = t_oi.elapsed().as_secs_f64() * 1000.0;
    out.stats.oi_updates = oi.updates;
    let oi_bytes = oi.heap_bytes();
    out.stats.peak_oi_bytes = oi_bytes;
    if let Some(g) = oi_gauge {
        g.add(oi_bytes);
    }
    let db_len = prepared.db_len;
    let t_enum = std::time::Instant::now();
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
    out.stats.enumerate_ms = t_enum.elapsed().as_secs_f64() * 1000.0;
    out.stats.enumeration = stats;
    drop(oi);
    if let Some(g) = oi_gauge {
        g.sub(oi_bytes);
    }
    out
}

/// Sums per-class outputs (already in class order) into a result.
/// `peak_oi_bytes`/`peak_embedding_bytes` are left as max-over-classes /
/// zero; engines with gauge-based accounting overwrite them.
pub(crate) fn merge_outputs(
    outputs: impl Iterator<Item = ClassOutput>,
    classes: usize,
    prepared: &Prepared,
) -> MiningResult {
    let mut patterns = Vec::new();
    let mut stats = MiningStats {
        classes,
        ..MiningStats::default()
    };
    for out in outputs {
        patterns.extend(out.patterns);
        stats.oi_updates += out.stats.oi_updates;
        stats.occurrences += out.stats.occurrences;
        stats.peak_oi_bytes = stats.peak_oi_bytes.max(out.stats.peak_oi_bytes);
        stats.oi_build_ms += out.stats.oi_build_ms;
        stats.enumerate_ms += out.stats.enumerate_ms;
        stats.enumeration.vectors_visited += out.stats.enumeration.vectors_visited;
        stats.enumeration.intersections += out.stats.enumeration.intersections;
        stats.enumeration.emitted += out.stats.enumeration.emitted;
        stats.enumeration.overgeneralized += out.stats.enumeration.overgeneralized;
    }
    MiningResult {
        patterns,
        stats,
        min_support_count: prepared.min_support,
        database_size: prepared.db_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxogramConfig;
    use tsg_taxonomy::samples;

    fn serial_and_pipelined(threads: usize, capacity: usize) -> (MiningResult, MiningResult) {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let cfg = TaxogramConfig::with_threshold(1.0 / 3.0);
        let serial = crate::Taxogram::new(cfg).mine(&db, &t).unwrap();
        // clamp_to_cores off: always exercise the channel machinery,
        // even when the test host has a single core.
        let options = PipelineOptions {
            threads,
            channel_capacity: capacity,
            clamp_to_cores: false,
        };
        let piped = mine_pipelined_faulted(&cfg, &db, &t, options, None, PipelineFaults::default())
            .unwrap()
            .result;
        (serial, piped)
    }

    fn assert_identical(serial: &MiningResult, piped: &MiningResult) {
        assert_eq!(serial.patterns.len(), piped.patterns.len());
        for (a, b) in serial.patterns.iter().zip(&piped.patterns) {
            assert_eq!(a.graph.labels(), b.graph.labels(), "order preserved");
            assert_eq!(a.graph.edges(), b.graph.edges());
            assert_eq!(a.support_count, b.support_count);
        }
        assert_eq!(serial.stats.classes, piped.stats.classes);
        assert_eq!(
            serial.stats.enumeration.emitted,
            piped.stats.enumeration.emitted
        );
        assert_eq!(
            serial.stats.enumeration.intersections,
            piped.stats.enumeration.intersections
        );
    }

    #[test]
    fn pipelined_matches_serial_exactly() {
        for threads in [2, 4, 8] {
            let (serial, piped) = serial_and_pipelined(threads, 0);
            assert_identical(&serial, &piped);
        }
    }

    #[test]
    fn tiny_channel_forces_backpressure_and_stays_correct() {
        // Capacity 1: the producer blocks after every class until a
        // worker drains it — maximum reordering pressure on the merge.
        let (serial, piped) = serial_and_pipelined(4, 1);
        assert_identical(&serial, &piped);
        assert!(piped.stats.peak_embedding_bytes > 0);
        // Each class is taken back from the channel at most once.
        assert_eq!(serial.stats.steals, 0, "the serial miner never steals");
        assert!(
            piped.stats.steals <= piped.stats.classes,
            "{} steals for {} classes",
            piped.stats.steals,
            piped.stats.classes
        );
    }

    #[test]
    fn one_thread_falls_back_to_serial() {
        let (serial, piped) = serial_and_pipelined(1, 0);
        assert_eq!(serial.patterns.len(), piped.patterns.len());
    }

    #[test]
    fn pipelined_handles_empty_database() {
        let (_, t) = samples::sample_taxonomy();
        let cfg = TaxogramConfig::with_threshold(0.5);
        let r = mine_pipelined(&cfg, &GraphDatabase::new(), &t, 4).unwrap();
        assert!(r.patterns.is_empty());
    }

    #[test]
    fn pipelined_rejects_bad_threshold() {
        let (_, t) = samples::sample_taxonomy();
        let cfg = TaxogramConfig::with_threshold(-0.5);
        assert!(matches!(
            mine_pipelined(&cfg, &GraphDatabase::new(), &t, 4),
            Err(TaxogramError::InvalidThreshold { .. })
        ));
    }

    #[test]
    fn pipelined_reports_memory_gauges() {
        let (c, t) = samples::sample_taxonomy();
        let db = samples::figure_1_4_database(&c);
        let cfg = TaxogramConfig::with_threshold(1.0 / 3.0);
        let r = mine_pipelined(&cfg, &db, &t, 2).unwrap();
        assert!(r.stats.peak_oi_bytes > 0);
        assert!(r.stats.peak_embedding_bytes > 0);
    }
}
