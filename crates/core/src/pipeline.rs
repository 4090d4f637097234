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
//! channel the moment its DFS-code subtree closes. A worker pool runs
//! the per-class path of [`crate::Taxogram::mine`] (index build, then
//! Step 3) *while mining is still running*. The thread count
//! is taken as given: `threads ≤ 1` is the serial miner, any other count
//! runs the channel with exactly that many threads, even past the cores
//! there are. Three properties make this safe and fast:
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
use crate::miner::{enumerate_class, prepare, ClassOutput, MiningResult, Prepared, Prologue};
use crate::oi::OiScratch;
use crate::sync::thread;
use crate::sync::Mutex;
use std::panic::AssertUnwindSafe;
use tsg_graph::{GraphDatabase, LabeledGraph};
use tsg_gspan::{
    ClassHandoff, Embedding, GSpan, GSpanConfig, GSpanStats, Grow, MinedPattern, PatternSink,
};
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
}

impl Default for PipelineOptions {
    fn default() -> Self {
        PipelineOptions {
            threads: 2,
            channel_capacity: 0,
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
    let governor = &govern.map_or_else(Governor::disabled, Governor::new);
    if options.threads <= 1 {
        let (result, termination) =
            crate::Taxogram::new(*config).mine_with(db, taxonomy, governor)?;
        return Ok(MiningOutcome {
            result,
            termination,
        });
    }
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
    let producer = Stage {
        prepared: &prepared,
        config,
        emb_gauge: &emb_gauge,
        oi_gauge: &oi_gauge,
        governor,
        panic_slot: &panic_slot,
        faults,
        enum_scratch: EnumScratch::new(),
        oi_scratch: OiScratch::new(),
        outputs: Vec::new(),
    };

    let mut steals = 0usize;
    let mut gspan = GSpanStats::default();
    let mut rejected: Option<String> = None;
    let mut outputs: Vec<(usize, ClassOutput)> = Vec::new();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..threads - 1)
            .map(|_| {
                let channel = &channel;
                let mut stage = producer.fork();
                scope.spawn(move || {
                    let mut received = 0usize;
                    while let Some(item) = channel.recv() {
                        received += 1;
                        // A worker that panicked stops. A simulated
                        // receiver drop stops pulling from the channel;
                        // the producer's post-close drain picks up
                        // whatever this worker abandons.
                        if !stage.process(item) || faults.drop_receiver_after == Some(received) {
                            break;
                        }
                    }
                    stage.outputs
                })
            })
            .collect();

        // Producer: gSpan on the calling thread, streaming into the
        // channel with backpressure. On a full channel the producer
        // steals an item and enumerates it itself rather than sleeping.
        let mut sink = PipeSink {
            channel: &channel,
            stage: producer,
            rejected: None,
            next_seq: 0,
            steals: 0,
        };
        // gSpan itself can panic too. Catch so the channel still closes:
        // an unclosed channel would park every worker on `recv` forever.
        let mined = std::panic::catch_unwind(AssertUnwindSafe(|| {
            GSpan::new(
                &prepared.rel.dmg,
                GSpanConfig {
                    min_support: prepared.min_support,
                    max_edges: config.max_edges,
                },
            )
            .mine(&mut sink)
        }));
        steals = sink.steals;
        rejected = sink.rejected.take();
        channel.close();
        match mined {
            Ok(stats) => gspan = stats,
            Err(payload) => record_panic(&panic_slot, panic_message(payload.as_ref())),
        }
        // Mining is done; the producer joins the drain instead of idling.
        // This drain is also what rescues classes abandoned by a dropped
        // receiver, so no item is ever lost to a worker that quit early.
        while let Some(item) = channel.try_recv() {
            sink.stage.process(item);
        }
        outputs = sink.stage.outputs;

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
    // Gauge balance: every enqueued reservation was released — by a
    // worker, by a displaced-item steal, or by the post-close drain —
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
    let mut result = MiningResult::empty(prepared.min_support, prepared.db_len);
    for (_, out) in outputs {
        result.add_class(out);
    }
    result.stats.peak_oi_bytes = oi_gauge.peak();
    result.stats.peak_embedding_bytes = emb_gauge.peak();
    result.stats.steals = steals;
    result.stats.gspan = gspan;
    let termination = governor.finish(
        result.stats.classes,
        usize::from(rejected.is_some()),
        rejected.into_iter().collect(),
    );
    Ok(MiningOutcome {
        result,
        termination,
    })
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

/// Step 3 on one thread — a dedicated worker, or the producer for the
/// classes it steals and drains — with that thread's scratch arenas and
/// finished classes.
struct Stage<'a> {
    prepared: &'a Prepared,
    config: &'a TaxogramConfig,
    emb_gauge: &'a MemoryGauge,
    oi_gauge: &'a MemoryGauge,
    governor: &'a Governor,
    panic_slot: &'a Mutex<Option<String>>,
    faults: PipelineFaults,
    enum_scratch: EnumScratch,
    oi_scratch: OiScratch,
    outputs: Vec<(usize, ClassOutput)>,
}

impl<'a> Stage<'a> {
    /// A stage for another thread: same run, fresh scratch and outputs.
    fn fork(&self) -> Stage<'a> {
        Stage {
            enum_scratch: EnumScratch::new(),
            oi_scratch: OiScratch::new(),
            outputs: Vec::new(),
            ..*self
        }
    }

    /// Enumerates `item` and releases its embedding reservation. Returns
    /// false if the enumeration panicked: the panic is caught — a dead
    /// worker must not leave the producer blocked or the process aborted
    /// — and recorded, and since the class it was enumerating is lost,
    /// the recorded panic fails the whole run.
    fn process(&mut self, item: WorkItem) -> bool {
        let (seq, emb_bytes) = (item.seq, item.emb_bytes);
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            maybe_injected_panic(&self.faults, seq);
            let out = enumerate_class(
                &item.skeleton,
                &item.embeddings,
                self.prepared,
                self.config,
                Some(self.oi_gauge),
                &mut self.enum_scratch,
                &mut self.oi_scratch,
            );
            // Embeddings die here (with the item).
            drop(item.embeddings);
            out
        }));
        // Release the reservation on *both* paths: an item destroyed by
        // an unwinding enumeration is just as dead as an enumerated one,
        // and leaking it would leave the gauge's running total
        // permanently inflated.
        self.emb_gauge.sub(emb_bytes);
        match caught {
            Ok(out) => {
                self.governor.add_patterns(out.patterns.len());
                self.outputs.push((seq, out));
                true
            }
            Err(payload) => {
                record_panic(self.panic_slot, panic_message(payload.as_ref()));
                false
            }
        }
    }
}

struct PipeSink<'a> {
    channel: &'a Bounded<WorkItem>,
    /// Step 3 for classes the producer enumerates itself: stolen when
    /// the channel is full, and drained after mining.
    stage: Stage<'a>,
    /// DFS code of the class rejected at admission, if the run stopped.
    rejected: Option<String>,
    next_seq: usize,
    /// Queued classes the producer took back and enumerated itself
    /// because the channel was full.
    steals: usize,
}

impl PatternSink for PipeSink<'_> {
    fn report(&mut self, class: &MinedPattern<'_>) -> Grow {
        // Governance poll point: report fires in serial (pre-order) class
        // order on the producer, so admissions form an exact serial
        // prefix. The tracked high-water mark is in-flight embeddings
        // plus resident occurrence indices.
        let stage = &self.stage;
        if !stage
            .governor
            .admit_class(stage.emb_gauge.peak() + stage.oi_gauge.peak())
        {
            self.rejected = Some(class.code.to_string());
            return Grow::Stop;
        }
        Grow::Continue
    }

    fn complete(&mut self, class: ClassHandoff) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let emb_bytes = tsg_gspan::embedding_list_bytes(&class.embeddings);
        // Account before send: the bytes are resident from this moment
        // until a worker (or the producer itself) finishes with them.
        self.stage.emb_gauge.add(emb_bytes);
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
            self.stage.process(stolen);
        }
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
        let options = PipelineOptions {
            threads,
            channel_capacity: capacity,
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
        assert_identical(&serial, &piped);
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
