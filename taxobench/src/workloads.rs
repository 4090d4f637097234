//! The four workloads and the measurement loops that run them.
//!
//! Each workload loads a different layer (see `BENCHMARK.json` for the
//! one-line reasons):
//!
//! * `go-d1000` — Fig 4.2's shape on the wide GO-like taxonomy: Step 2
//!   (gSpan) and occurrence-index build dominate, Step 3 is tiny.
//! * `deep-taxonomy` — Fig 4.5's pattern explosion on a depth-15
//!   taxonomy: Step 3 enumeration dominates, gSpan is tiny.
//! * `sharded-capped` — the out-of-core SON miner under a resident cap
//!   of 1/40 of the spill footprint: the pass-1 candidate blow-up.
//! * `serve-mix` — the resident daemon under a closed loop of `nproc`
//!   clients sending three cache hits per fresh mine.
//!
//! Every workload answers the same kind of seeded request mix, so every
//! metric exists everywhere: the mining workloads answer it in process
//! through the serve layer's calls (misses mine on the workload's
//! engine), `serve-mix` over TCP.

use crate::digest::Digest;
use crate::inputs::{self, Files, Loaded};
use crate::mine::{self, Engine, ReplicaCounts};
use crate::query::{self, Answerer, Expected, Query};
use crate::stats::{centre, median, tail, trimmed_mean, Ledger, Outcome};
use crate::trace::{self, Recorder};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};
use taxogram_core::{MiningResult, TaxogramConfig};
use tsg_datagen::registry::DatasetId;
use tsg_serve::{MineRequest, ServeOptions, Server, ServerHandle};

/// How a workload runs.
#[derive(Clone, Copy, Debug)]
pub enum Kind {
    /// Timed mines on an engine family, plus the in-process request mix.
    Mining {
        /// Out-of-core sharded engine instead of the in-memory one.
        sharded: bool,
    },
    /// A resident daemon under closed-loop TCP load.
    Serve,
}

/// One workload: dataset, mining parameters, and kind.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name as passed to `--workload`.
    pub name: &'static str,
    /// Registry dataset.
    pub dataset: DatasetId,
    /// Registry scale in `(0, 1]`.
    pub scale: f64,
    /// Support threshold θ (for `serve-mix`, the warm-up θ and the floor
    /// of the request mix).
    pub theta: f64,
    /// Pattern-size cap in edges.
    pub max_edges: Option<usize>,
    /// How it runs.
    pub kind: Kind,
}

impl Spec {
    fn config(&self) -> TaxogramConfig {
        let mut cfg = TaxogramConfig::with_threshold(self.theta);
        cfg.max_edges = self.max_edges;
        cfg
    }
}

/// The benchmark's workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "go-d1000",
        dataset: DatasetId::D(1000),
        scale: 1.0,
        theta: 0.2,
        max_edges: Some(5),
        kind: Kind::Mining { sharded: false },
    },
    Spec {
        name: "deep-taxonomy",
        dataset: DatasetId::TD(15),
        scale: 0.05,
        theta: 0.3,
        max_edges: Some(6),
        kind: Kind::Mining { sharded: false },
    },
    Spec {
        name: "sharded-capped",
        dataset: DatasetId::D(1000),
        scale: 1.0,
        theta: 0.2,
        max_edges: Some(5),
        kind: Kind::Mining { sharded: true },
    },
    Spec {
        name: "serve-mix",
        dataset: DatasetId::D(1000),
        scale: 0.2,
        theta: 0.1,
        max_edges: Some(5),
        kind: Kind::Serve,
    },
];

/// Share of the samples dropped at each end before `setup_s`, `mine_s`
/// and `serial_mine_s` are averaged (see [`trimmed_mean`]).
const TRIM: f64 = 0.1;
/// The sharded workload's resident cap is the uncapped spill footprint
/// divided by this.
const SHARD_SPLIT: u64 = 40;
/// Share of a `serve-mix` run spent on set-ups and in-process mines
/// (`setup_s`, `mine_s`, `serial_mine_s`); the rest is the TCP load.
const SERVE_MINE_SHARE: f64 = 0.5;
/// Slices a `serve-mix` run alternates its mines and its load in, so
/// both span the whole run and see the same host conditions.
const SERVE_SLICES: u32 = 4;
/// Requests generated per run; the mix is replayed cyclically.
const MIX_LEN: usize = 4096;
/// Fewest untraced mining rounds, so the averaged times always have a
/// few samples even on a short budget.
const MIN_ROUNDS: usize = 4;
/// How often the serve load phase samples the resident-set peak.
const RSS_INTERVAL: Duration = Duration::from_millis(250);

/// What a run measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted and failed.
    pub ledger: Ledger,
    metrics: Vec<(&'static str, f64)>,
    /// Informational `key: json-value` pairs for the info line.
    pub notes: Vec<(&'static str, String)>,
}

impl Report {
    /// A measured metric by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn note(&mut self, key: &'static str, value: impl ToString) {
        self.notes.push((key, value.to_string()));
    }
}

/// Named sample lists, reduced to medians or trimmed means at the end.
#[derive(Default)]
struct Samples(HashMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, v: f64) {
        self.0.entry(name).or_default().push(v);
    }

    fn get(&self, name: &str) -> &[f64] {
        self.0.get(name).map_or(&[], Vec::as_slice)
    }

    fn median(&self, name: &str) -> f64 {
        median(self.get(name)).unwrap_or(0.0)
    }

    fn trimmed_mean(&self, name: &str) -> f64 {
        trimmed_mean(self.get(name), TRIM).unwrap_or(0.0)
    }
}

/// Runs `spec` for about `budget` of measurement. With `trace` set the
/// run is traced and reports per-layer metrics, writing its spans there;
/// otherwise it reports end-to-end metrics.
pub fn run(
    spec: &Spec,
    seed: u64,
    budget: Duration,
    trace: Option<&Path>,
    work: &Path,
) -> Result<Report, String> {
    let files = inputs::generate(spec.dataset, spec.scale, seed, &work.join("inputs"))
        .map_err(|e| format!("writing inputs: {e}"))?;
    let mut bench = Bench::new(spec, seed, files, work, trace.is_some())?;
    let report = match spec.kind {
        Kind::Mining { .. } => bench.run_mining(budget)?,
        Kind::Serve => bench.run_serve(budget)?,
    };
    if let Some(path) = trace {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        }
        bench
            .rec
            .write_chrome(path)
            .map_err(|e| format!("writing trace: {e}"))?;
    }
    Ok(report)
}

/// One workload's loaded state.
struct Bench<'s> {
    spec: &'s Spec,
    cfg: TaxogramConfig,
    threads: usize,
    engine: Engine,
    files: Files,
    loaded: Loaded,
    digest: Digest,
    expected: Expected,
    queries: Vec<(Query, usize)>,
    next_query: usize,
    ledger: Ledger,
    samples: Samples,
    rec: Recorder,
    traced: bool,
    /// Reference rendering the traced replica must reproduce byte for byte.
    reference_render: String,
    last_parallel: Option<mine::Mined>,
    replica_counts: ReplicaCounts,
}

impl<'s> Bench<'s> {
    /// Ingests the inputs (untimed: the first touch of a fresh heap is
    /// warm-up), picks the engine, and mines the serial reference every
    /// later output is checked against.
    fn new(
        spec: &'s Spec,
        seed: u64,
        files: Files,
        work: &Path,
        traced: bool,
    ) -> Result<Self, String> {
        let loaded = inputs::ingest(&files)?;
        let cfg = spec.config();
        let threads = inputs::nproc();
        let engine = match spec.kind {
            Kind::Mining { sharded: true } => {
                let spill_dir = work.join("spill");
                std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
                // The uncapped footprint is the database in the spill
                // format, which `write_binary` produces byte for byte.
                let mut encoded = Vec::new();
                tsg_graph::binary::write_binary(&mut encoded, &loaded.db)
                    .map_err(|e| e.to_string())?;
                Engine::Sharded {
                    cap: Some((encoded.len() as u64 / SHARD_SPLIT).max(1)),
                    spill_dir,
                }
            }
            _ => Engine::InMemory,
        };
        let reference =
            mine::mine(&Engine::InMemory, &cfg, &loaded.db, &loaded.taxonomy, 1)?.result;
        let digest = Digest::of(&reference.patterns);
        let reference_render = if traced {
            tsg_serve::render_patterns(&reference.patterns)
        } else {
            String::new()
        };
        let db_len = loaded.db.len();
        let mut expected = Expected::new(reference, db_len);
        let queries: Vec<(Query, usize)> = query::mix(seed, MIX_LEN, spec.theta, spec.max_edges)
            .into_iter()
            .map(|q| {
                let floor = loaded.db.min_support_count(q.theta);
                expected.prepare(floor);
                (q, floor)
            })
            .collect();
        Ok(Bench {
            spec,
            cfg,
            threads,
            engine,
            files,
            loaded,
            digest,
            expected,
            queries,
            next_query: 0,
            ledger: Ledger::default(),
            samples: Samples::default(),
            rec: Recorder::new(traced),
            traced,
            reference_render,
            last_parallel: None,
            replica_counts: ReplicaCounts::default(),
        })
    }

    /// One mine on the workload's engine, timed into `sample` and checked
    /// against the reference digest.
    fn timed_mine(&mut self, threads: usize, sample: &'static str) -> Result<mine::Mined, String> {
        let start = Instant::now();
        let mined = mine::mine(
            &self.engine,
            &self.cfg,
            &self.loaded.db,
            &self.loaded.taxonomy,
            threads,
        )?;
        self.samples.push(sample, start.elapsed().as_secs_f64());
        self.ledger
            .check(Digest::of(&mined.result.patterns) == self.digest);
        Ok(mined)
    }

    /// One timed set-up: ingest, and with `serve` also `Server::bind`
    /// until the first `ping` is answered (that daemon is then shut down,
    /// untimed). Set-ups are spread through the whole run, between the
    /// mines, so `setup_s` sees the same host conditions as the mine
    /// times.
    fn timed_setup(&mut self, serve: Option<&ServeOptions>) -> Result<(), String> {
        let start = Instant::now();
        let l = inputs::ingest(&self.files)?;
        self.samples.push("taxonomy.read_s", l.taxonomy_read_s);
        self.samples.push("graph.read_s", l.graph_read_s);
        let daemon = match serve {
            Some(opts) => {
                let h = Server::bind("127.0.0.1:0", l.db, l.taxonomy, opts.clone())
                    .map_err(|e| format!("bind: {e}"))?;
                ping(h.addr())?;
                Some(h)
            }
            None => None,
        };
        self.samples.push("setup_s", start.elapsed().as_secs_f64());
        if let Some(h) = daemon {
            let _ = h.shutdown();
        }
        Ok(())
    }

    /// Records the resident-set high-water mark since the last sample and
    /// starts a new interval. `peak_rss_bytes` is the median interval
    /// peak, which one-off allocator spikes do not move.
    fn sample_peak_rss(&mut self) {
        if let Some(b) = inputs::peak_rss_bytes() {
            self.samples.push("peak_rss_bytes", b as f64);
        }
        inputs::reset_peak_rss();
    }

    /// The traced replica, checked byte for byte against the reference;
    /// its span times become per-layer samples.
    fn traced_replica(&mut self) -> Result<(), String> {
        let mark = self.rec.spans().len();
        let (patterns, counts) = mine::replica(
            &self.cfg,
            &self.loaded.db,
            &self.loaded.taxonomy,
            &mut self.rec,
        )?;
        self.ledger
            .check(tsg_serve::render_patterns(&patterns) == self.reference_render);
        let times = trace::times_by_name(self.rec.since(mark), mark);
        for (span, metric, own) in [
            ("mine", "replica_s", false),
            ("relabel", "relabel.s", false),
            ("taxonomy.label_freq", "taxonomy.label_freq_s", false),
            ("gspan", "gspan.self_s", true),
            ("oi.build", "oi.build_s", false),
            ("enumerate", "enumerate.s", false),
        ] {
            let (total, self_s) = trace::lookup(&times, span);
            self.samples.push(metric, if own { self_s } else { total });
        }
        self.replica_counts = counts;
        Ok(())
    }

    /// Answers the next `n` requests of the mix in process; misses mine
    /// on the workload's engine with `threads` workers.
    fn answer_in_process(
        &mut self,
        answerer: &mut Answerer,
        n: usize,
        threads: usize,
    ) -> Result<(), String> {
        for _ in 0..n {
            let (q, floor) = self.queries[self.next_query % self.queries.len()].clone();
            self.next_query += 1;
            let (engine, db, tax) = (&self.engine, &self.loaded.db, &self.loaded.taxonomy);
            let base = self.cfg;
            let mut mine_s = 0.0;
            let mut fresh = |m: &MineRequest, rec: &mut Recorder| -> Result<MiningResult, String> {
                let mut cfg = base;
                cfg.threshold = m.theta;
                cfg.max_edges = m.max_edges;
                let start = Instant::now();
                let mined = rec.span("engine.mine", |_| {
                    mine::mine(engine, &cfg, db, tax, threads)
                })?;
                mine_s = start.elapsed().as_secs_f64();
                Ok(mined.result)
            };
            self.rec.next_op();
            let start = Instant::now();
            let (response, run) = answerer.answer(&q.frame, db, &mut self.rec, &mut fresh)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let hit = run.is_none();
            if let Some(result) = run {
                self.samples.push("serve.mine_ms", mine_s * 1e3);
                self.ledger.check(
                    q.theta != self.spec.theta || Digest::of(&result.patterns) == self.digest,
                );
            }
            self.samples.push("req_ms", ms);
            self.samples
                .push(if hit { "hit_ms" } else { "miss_ms" }, ms);
            self.samples
                .push("serve.response_bytes", response.len() as f64);
            self.ledger.check(self.expected.matches(&response, floor));
        }
        Ok(())
    }

    /// The mining workloads. A round is one serial mine, one mine at
    /// `nproc` threads and one whole cycle of the request mix (three
    /// cache hits per fresh mine at `nproc` threads), so every round asks
    /// for the same requests; rounds repeat until the budget is spent,
    /// and at least `MIN_ROUNDS` run. A timed set-up precedes each of the
    /// three; a traced round starts with the traced replica.
    fn run_mining(&mut self, budget: Duration) -> Result<Report, String> {
        let warm = self.timed_mine(self.threads, "warm_s")?;
        let mut answerer = Answerer::new();
        answerer.warm(self.spec.theta, self.spec.max_edges, warm.result);
        let deadline = Instant::now() + budget;
        for round in 1.. {
            inputs::reset_peak_rss();
            if self.traced {
                self.traced_replica()?;
                if let Engine::Sharded { .. } = self.engine {
                    let start = Instant::now();
                    let oracle = mine::mine(
                        &Engine::InMemory,
                        &self.cfg,
                        &self.loaded.db,
                        &self.loaded.taxonomy,
                        1,
                    )?;
                    self.samples.push("oracle_s", start.elapsed().as_secs_f64());
                    self.ledger
                        .check(Digest::of(&oracle.result.patterns) == self.digest);
                }
            }
            self.timed_setup(None)?;
            self.timed_mine(1, "serial_mine_s")?;
            self.timed_setup(None)?;
            let mined = self.timed_mine(self.threads, "mine_s")?;
            self.last_parallel = Some(mined);
            self.timed_setup(None)?;
            self.answer_in_process(&mut answerer, query::CYCLE, self.threads)?;
            self.sample_peak_rss();
            if Instant::now() >= deadline && (self.traced || round >= MIN_ROUNDS) {
                break;
            }
        }
        let mut report = self.report_common();
        report.note("requests", self.samples.get("req_ms").len());
        if self.traced {
            self.set_layers(
                &mut report,
                answerer.hits,
                answerer.misses,
                0,
                "serve.mine_ms",
            );
        } else {
            let req_s: f64 = self.samples.get("req_ms").iter().sum::<f64>() / 1e3;
            self.set_requests(&mut report, self.samples.get("req_ms").len() as f64 / req_s);
        }
        Ok(report)
    }

    /// `serve-mix`: binds the daemon under load, then in each of
    /// `SERVE_SLICES` slices alternates timed set-ups (ingest plus bind
    /// until the first ping is answered, each on a daemon of its own) with
    /// in-process mines, then runs the closed-loop TCP load.
    fn run_serve(&mut self, budget: Duration) -> Result<Report, String> {
        let opts = ServeOptions {
            workers: self.threads,
            ..ServeOptions::default()
        };
        let l = inputs::ingest(&self.files)?;
        let handle = Server::bind("127.0.0.1:0", l.db, l.taxonomy, opts.clone())
            .map_err(|e| format!("bind: {e}"))?;
        let report = self.serve_phases(&handle, &opts, budget);
        let drain = handle.shutdown();
        let mut report = report?;
        report.note("drain_clean", drain.clean);
        Ok(report)
    }

    fn serve_phases(
        &mut self,
        handle: &ServerHandle,
        opts: &ServeOptions,
        budget: Duration,
    ) -> Result<Report, String> {
        // Warm the daemon's cache with one cache-eligible mine at θ.
        let warm = query::frame(usize::MAX, self.spec.theta, self.spec.max_edges, false);
        let floor = self.expected.reference().min_support_count;
        let mut conn = Conn::open(handle.addr())?;
        let response = conn.request(&warm)?;
        self.ledger.check(self.expected.matches(&response, floor));
        drop(conn);

        let mut answerer = Answerer::new();
        if self.traced {
            answerer.warm(
                self.spec.theta,
                self.spec.max_edges,
                self.expected.reference().clone(),
            );
        }
        let slice = budget.div_f64(SERVE_SLICES as f64);
        let (mut wall_s, mut answered) = (0.0, 0);
        for _ in 0..SERVE_SLICES {
            let mine_deadline = Instant::now() + slice.mul_f64(SERVE_MINE_SHARE);
            loop {
                if self.traced {
                    self.traced_replica()?;
                    // Replay the load's mix in process, misses mined
                    // serially as the daemon's workers do, for the serve.*
                    // layer times.
                    self.answer_in_process(&mut answerer, 4, 1)?;
                }
                self.timed_setup(Some(opts))?;
                let mined = self.timed_mine(self.threads, "mine_s")?;
                self.last_parallel = Some(mined);
                self.timed_setup(Some(opts))?;
                self.timed_mine(1, "serial_mine_s")?;
                if Instant::now() >= mine_deadline {
                    break;
                }
            }
            // `peak_rss_bytes` covers the serving state only: the load.
            inputs::reset_peak_rss();
            let (w, a) = self.closed_loop(handle.addr(), slice.mul_f64(1.0 - SERVE_MINE_SHARE))?;
            wall_s += w;
            answered += a;
        }
        let stats = handle.stats();
        let mut report = self.report_common();
        report.note("requests", answered);
        report.note("clients", self.threads);
        if self.traced {
            let hits = stats.cache_hits;
            let misses = stats.requests.saturating_sub(stats.cache_hits);
            self.samples.push("serve.avg_mine_ms", stats.avg_mine_ms);
            self.set_layers(&mut report, hits, misses, stats.shed, "serve.avg_mine_ms");
        } else {
            self.set_requests(&mut report, answered as f64 / wall_s);
        }
        Ok(report)
    }

    /// `nproc` clients, each sending its next request of the mix only
    /// after the previous reply, until `budget` runs out. Returns the
    /// load phase's wall seconds and the answered request count.
    fn closed_loop(&mut self, addr: SocketAddr, budget: Duration) -> Result<(f64, usize), String> {
        let clients = self.threads;
        let start = Instant::now();
        let deadline = start + budget;
        let expected = &self.expected;
        let queries = &self.queries;
        let offset = self.next_query;
        type ClientLog = Result<(Vec<(f64, bool, Outcome)>, Instant), String>;
        let (results, peaks): (Vec<ClientLog>, Vec<u64>) = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    s.spawn(move || {
                        let mut conn = Conn::open(addr)?;
                        let mut out = Vec::new();
                        let mine = queries.iter().skip(offset + c).step_by(clients).cycle();
                        for (q, floor) in mine {
                            if Instant::now() >= deadline {
                                break;
                            }
                            let t = Instant::now();
                            let Ok(response) = conn.request(&q.frame) else {
                                out.push((t.elapsed().as_secs_f64() * 1e3, false, Outcome::Lost));
                                break;
                            };
                            let ms = t.elapsed().as_secs_f64() * 1e3;
                            let outcome = classify(&response, expected, *floor);
                            out.push((ms, query::cache_status(&response) == Some("hit"), outcome));
                        }
                        Ok((out, Instant::now()))
                    })
                })
                .collect();
            let mut peaks = Vec::new();
            while !handles.iter().all(|h| h.is_finished()) {
                std::thread::sleep(RSS_INTERVAL);
                peaks.extend(inputs::peak_rss_bytes());
                inputs::reset_peak_rss();
            }
            let results: Vec<_> = handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect();
            (results, peaks)
        });
        for b in peaks {
            self.samples.push("peak_rss_bytes", b as f64);
        }
        let mut answered = 0;
        let mut end = start;
        for r in results {
            let (log, finished) = r?;
            end = end.max(finished);
            for (ms, hit, outcome) in log {
                self.ledger.record(outcome);
                if outcome != Outcome::Lost {
                    answered += 1;
                }
                self.samples.push("req_ms", ms);
                self.samples
                    .push(if hit { "hit_ms" } else { "miss_ms" }, ms);
            }
        }
        Ok(((end - start).as_secs_f64(), answered))
    }

    /// Metrics every run reports: set-up, mine times, peak RSS. The times
    /// are trimmed means, which follow a host whose speed shifts between
    /// levels smoothly where a median would jump from one level to the
    /// other.
    fn report_common(&mut self) -> Report {
        let mut r = Report::default();
        r.set("setup_s", self.samples.trimmed_mean("setup_s"));
        r.set("mine_s", self.samples.trimmed_mean("mine_s"));
        r.set("serial_mine_s", self.samples.trimmed_mean("serial_mine_s"));
        r.set("peak_rss_bytes", self.samples.median("peak_rss_bytes"));
        r.note("threads", self.threads);
        r.note("patterns", self.digest.patterns);
        r.note("setups_timed", self.samples.get("setup_s").len());
        r.note("mines_timed", self.samples.get("mine_s").len());
        r.note(
            "serial_mines_timed",
            self.samples.get("serial_mine_s").len(),
        );
        r
    }

    /// The request-latency metrics; each p50 is the [`centre`] of its samples.
    fn set_requests(&mut self, r: &mut Report, throughput: f64) {
        let all = self.samples.get("req_ms");
        let (p95, rank) = tail(all).unwrap_or((0.0, 0.0));
        let centre = |v: &[f64]| centre(v).unwrap_or(0.0);
        r.set("req_p50_ms", centre(all));
        r.set("req_p95_ms", p95);
        r.set("hit_p50_ms", centre(self.samples.get("hit_ms")));
        r.set("miss_p50_ms", centre(self.samples.get("miss_ms")));
        r.set("throughput_rps", throughput);
        r.note("req_p95_rank", rank);
        r.note("hits", self.samples.get("hit_ms").len());
        r.note("misses", self.samples.get("miss_ms").len());
        r.ledger = self.ledger;
    }

    /// The per-layer metrics of a traced run.
    fn set_layers(&mut self, r: &mut Report, hits: u64, misses: u64, shed: u64, mine_ms: &str) {
        r.set("taxonomy.read_s", self.samples.median("taxonomy.read_s"));
        r.set("graph.read_s", self.samples.median("graph.read_s"));
        for name in [
            "relabel.s",
            "taxonomy.label_freq_s",
            "gspan.self_s",
            "oi.build_s",
            "enumerate.s",
        ] {
            r.set(name, self.samples.median(name));
        }
        let c = self.replica_counts;
        let e = c.enumeration;
        r.set("gspan.classes", c.classes as f64);
        r.set("gspan.embeddings", c.embeddings as f64);
        r.set("oi.updates", c.oi_updates as f64);
        r.set("oi.peak_bytes", c.oi_peak_bytes as f64);
        r.set("enumerate.intersections", e.intersections as f64);
        r.set("enumerate.vectors_visited", e.vectors_visited as f64);
        r.set("enumerate.emitted", e.emitted as f64);
        r.set("enumerate.overgeneralized", e.overgeneralized as f64);
        r.set(
            "enumerate.yield",
            ratio(e.emitted as f64, e.intersections as f64),
        );
        let (stats, shard) = self
            .last_parallel
            .as_ref()
            .map(|m| (m.result.stats, m.shard.unwrap_or_default()))
            .unwrap_or_default();
        r.set(
            "engine.peak_embedding_bytes",
            stats.peak_embedding_bytes as f64,
        );
        r.set("engine.steals", stats.steals as f64);
        let serial = self.samples.trimmed_mean("serial_mine_s");
        r.set(
            "engine.speedup",
            ratio(serial, self.samples.trimmed_mean("mine_s")),
        );
        r.set("shard.count", shard.shards as f64);
        r.set("shard.candidates", shard.candidates as f64);
        r.set(
            "shard.globally_infrequent",
            shard.globally_infrequent as f64,
        );
        r.set(
            "shard.candidate_precision",
            if shard.candidates == 0 {
                0.0
            } else {
                1.0 - shard.globally_infrequent as f64 / shard.candidates as f64
            },
        );
        r.set("shard.spilled_bytes", shard.spilled_bytes as f64);
        r.set("shard.largest_bytes", shard.largest_shard_bytes as f64);
        r.set("shard.db_streams", shard.db_streams as f64);
        let spans = self.rec.spans();
        for (span, metric) in [
            ("serve.parse", "serve.parse_s"),
            ("serve.cache_lookup", "serve.cache_lookup_s"),
            ("serve.filter", "serve.filter_s"),
            ("serve.render", "serve.render_s"),
        ] {
            let secs: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == span)
                .map(trace::Span::secs)
                .collect();
            r.set(metric, median(&secs).unwrap_or(0.0));
        }
        r.set(
            "serve.response_bytes",
            self.samples.median("serve.response_bytes"),
        );
        r.set("serve.cache_hits", hits as f64);
        r.set("serve.cache_misses", misses as f64);
        r.set(
            "serve.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
        );
        r.set("serve.shed", shed as f64);
        let mine_ms = self.samples.get(mine_ms);
        r.set(
            "serve.avg_mine_ms",
            ratio(mine_ms.iter().sum(), mine_ms.len() as f64),
        );
        // The replica is the in-memory serial pipeline, so its overhead is
        // taken against `Taxogram::mine`, which on the sharded workload is
        // not the engine behind `serial_mine_s`.
        let oracle = match self.engine {
            Engine::Sharded { .. } => self.samples.trimmed_mean("oracle_s"),
            Engine::InMemory => serial,
        };
        r.set(
            "trace.overhead_frac",
            ratio(self.samples.trimmed_mean("replica_s") - oracle, oracle),
        );
        r.set("failed_frac", self.ledger.failed_frac());
        r.ledger = self.ledger;
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Sorts one daemon response into the failure ledger's outcomes.
fn classify(response: &str, expected: &Expected, floor: usize) -> Outcome {
    if response.contains("\"type\":\"shed\"") {
        Outcome::Shed
    } else if !response.contains("\"type\":\"result\"") {
        Outcome::Lost
    } else if !response.contains("\"complete\":true") {
        Outcome::Degraded
    } else if expected.matches(response, floor) {
        Outcome::Ok
    } else {
        Outcome::Wrong
    }
}

/// One client connection speaking JSON lines.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    line: String,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            line: String::new(),
        })
    }

    fn request(&mut self, frame: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{frame}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => Err("connection closed".to_owned()),
            Ok(_) => Ok(self.line.trim_end().to_owned()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// Sends `ping` until the daemon answers `pong`.
fn ping(addr: SocketAddr) -> Result<(), String> {
    let response = Conn::open(addr)?.request("{\"op\":\"ping\"}")?;
    if response.contains("\"type\":\"pong\"") {
        Ok(())
    } else {
        Err(format!("ping answered {response}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_responses_classify_into_ledger_outcomes() {
        let (c, t) = tsg_taxonomy::samples::sample_taxonomy();
        let db = tsg_taxonomy::samples::figure_1_4_database(&c);
        let run = taxogram_core::Taxogram::new(TaxogramConfig::with_threshold(1.0 / 3.0))
            .mine(&db, &t)
            .unwrap();
        let floor = run.min_support_count;
        let done = query::completed(run.stats.classes);
        let ok = tsg_serve::result_response(
            None,
            &run.patterns,
            &done,
            floor,
            db.len(),
            tsg_serve::CacheStatus::Miss,
            1.0,
        );
        let mut partial = done.clone();
        partial.reason = taxogram_core::TerminationReason::Cancelled;
        let degraded = tsg_serve::result_response(
            None,
            &run.patterns[..1],
            &partial,
            floor,
            db.len(),
            tsg_serve::CacheStatus::Miss,
            1.0,
        );
        let wrong = tsg_serve::result_response(
            None,
            &run.patterns[1..],
            &done,
            floor,
            db.len(),
            tsg_serve::CacheStatus::Miss,
            1.0,
        );
        let mut expected = Expected::new(run, db.len());
        expected.prepare(floor);
        let shed = tsg_serve::shed_response(Some("q"), 100);
        let error = tsg_serve::error_response(None, tsg_serve::ErrorCode::Internal, "boom");
        assert_eq!(classify(&ok, &expected, floor), Outcome::Ok);
        assert_eq!(classify(&degraded, &expected, floor), Outcome::Degraded);
        assert_eq!(classify(&wrong, &expected, floor), Outcome::Wrong);
        assert_eq!(classify(&shed, &expected, floor), Outcome::Shed);
        assert_eq!(classify(&error, &expected, floor), Outcome::Lost);
    }

    /// Every workload at a tiny scale, untraced and traced: all output
    /// checks pass and every metric of both lists is measured.
    #[test]
    fn tiny_smoke_run_of_every_workload() {
        for spec in WORKLOADS {
            let tiny = Spec {
                scale: match spec.dataset {
                    // At 0.005 a fresh mine at some θ′ lists the patterns
                    // of the cached run filtered to θ′ in another order.
                    DatasetId::TD(_) => 0.01,
                    _ => 0.02,
                },
                ..spec
            };
            let work =
                Path::new(".taxobench").join(format!("test-{}-{}", spec.name, std::process::id()));
            for traced in [false, true] {
                let trace_file = work.join("trace.json");
                let report = run(
                    &tiny,
                    7,
                    Duration::from_millis(200),
                    traced.then_some(trace_file.as_path()),
                    &work,
                )
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
                assert!(report.ledger.attempted > 0, "{}", spec.name);
                assert_eq!(report.ledger.failed(), 0, "{} traced={traced}", spec.name);
                let names: &[(&str, &str)] = if traced {
                    &crate::PER_LAYER
                } else {
                    &crate::END_TO_END
                };
                for (name, _) in names {
                    let v = report
                        .metric(name)
                        .unwrap_or_else(|| panic!("{}: no {name}", spec.name));
                    assert!(v.is_finite(), "{}: {name} = {v}", spec.name);
                }
                assert_eq!(trace_file.exists(), traced);
            }
            std::fs::remove_dir_all(&work).unwrap();
        }
    }
}
