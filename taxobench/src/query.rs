//! Mine requests answered through the serve layer's public calls, and
//! the reference every answer is checked against.
//!
//! The in-process path makes the calls the daemon makes for one request
//! (`parse_request` → `ResultCache::lookup` → `filter_run` →
//! `result_response`, or a fresh mine on a miss), each inside a span.

use crate::digest::{fnv1a, FNV_OFFSET};
use crate::inputs::Rng;
use crate::trace::Recorder;
use std::collections::HashMap;
use std::sync::Arc;
use taxogram_core::{MiningResult, Termination, TerminationReason};
use tsg_graph::GraphDatabase;
use tsg_serve::{filter_run, parse_request, render_patterns, result_response};
use tsg_serve::{CacheStatus, ConfigKey, MineRequest, Request, ResultCache};

/// One request of a workload's mix.
#[derive(Clone, Debug)]
pub struct Query {
    /// The wire frame, without the newline.
    pub frame: String,
    /// Requested θ′.
    pub theta: f64,
}

/// Blocks of four requests per cycle of the mix.
const CYCLE_BLOCKS: usize = 4;
/// Requests per cycle of the mix.
pub const CYCLE: usize = 4 * CYCLE_BLOCKS;

/// `count` requests in cycles of `CYCLE_BLOCKS` blocks of four. Each
/// block is one `no_cache` fresh mine and three cache-eligible requests
/// (served from a cached run at `lo`, filtered and rendered). Over a
/// cycle the fresh mines take θ′ from an even grid of `CYCLE_BLOCKS`
/// steps on `[lo, 0.5)` and the cached requests from one three times as
/// fine; the seed only orders each cycle. So every cycle is the same
/// work, for every seed, and each kind of request spans a wide range of
/// costs, whose centre moves smoothly with the host's speed instead of
/// jumping between the levels a run of identical requests shows.
pub fn mix(seed: u64, count: usize, lo: f64, max_edges: Option<usize>) -> Vec<Query> {
    let mut rng = Rng::new(seed);
    let grid = |i: usize, steps: usize| {
        let theta = lo + (0.5 - lo).max(0.0) * i as f64 / steps as f64;
        (theta * 1e4).round() / 1e4
    };
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut fresh: Vec<f64> = (0..CYCLE_BLOCKS).map(|i| grid(i, CYCLE_BLOCKS)).collect();
        let mut cached: Vec<f64> = (0..3 * CYCLE_BLOCKS)
            .map(|i| grid(i, 3 * CYCLE_BLOCKS))
            .collect();
        rng.shuffle(&mut fresh);
        rng.shuffle(&mut cached);
        for (b, &f) in fresh.iter().enumerate() {
            let c = &cached[3 * b..3 * b + 3];
            let mut block = [(f, true), (c[0], false), (c[1], false), (c[2], false)];
            rng.shuffle(&mut block);
            for (theta, no_cache) in block {
                let n = out.len();
                out.push(Query {
                    frame: frame(n, theta, max_edges, no_cache),
                    theta,
                });
            }
        }
    }
    out.truncate(count);
    out
}

/// A `mine` request frame.
pub fn frame(id: usize, theta: f64, max_edges: Option<usize>, no_cache: bool) -> String {
    let mut f = format!("{{\"op\":\"mine\",\"id\":\"q{id}\",\"theta\":{theta}");
    if let Some(m) = max_edges {
        f.push_str(&format!(",\"max_edges\":{m}"));
    }
    if no_cache {
        f.push_str(",\"no_cache\":true");
    }
    f.push('}');
    f
}

/// Expected `patterns` renderings of a reference run, per support floor:
/// `render_patterns(filter_run(reference, floor))`, kept as length and
/// hash so deep workloads need not hold every rendering.
pub struct Expected {
    reference: MiningResult,
    db_len: usize,
    by_floor: HashMap<usize, (usize, u64)>,
}

impl Expected {
    /// Expectations against `reference`, a complete serial run at or
    /// below every θ′ that will be checked.
    pub fn new(reference: MiningResult, db_len: usize) -> Self {
        Expected {
            reference,
            db_len,
            by_floor: HashMap::new(),
        }
    }

    /// Computes (and remembers) the expectation for `floor`.
    pub fn prepare(&mut self, floor: usize) {
        let reference = &self.reference;
        self.by_floor.entry(floor).or_insert_with(|| {
            let r = render_patterns(&filter_run(reference, floor));
            (r.len(), fnv1a(FNV_OFFSET, r.as_bytes()))
        });
    }

    /// The reference run.
    pub fn reference(&self) -> &MiningResult {
        &self.reference
    }

    /// Whether `response` is a complete `result` whose patterns render
    /// exactly as the reference filtered at `floor` (which must have been
    /// prepared).
    pub fn matches(&self, response: &str, floor: usize) -> bool {
        let Some(&(len, hash)) = self.by_floor.get(&floor) else {
            return false;
        };
        let head = format!(
            ",\"min_support_count\":{floor},\"database_size\":{},\"patterns\":",
            self.db_len
        );
        let Some(start) = response.find(&head).map(|i| i + head.len()) else {
            return false;
        };
        let Some(end) = response.rfind(",\"termination\":") else {
            return false;
        };
        let patterns = &response.as_bytes()[start..end.max(start)];
        response.contains("\"type\":\"result\"")
            && response.contains("\"complete\":true")
            && patterns.len() == len
            && fnv1a(FNV_OFFSET, patterns) == hash
    }
}

/// The cache status a response reports.
pub fn cache_status(response: &str) -> Option<&'static str> {
    ["hit", "miss", "bypass"]
        .into_iter()
        .find(|s| response.contains(&format!("\"cache\":\"{s}\"")))
}

/// A complete-run termination report for results of ungoverned mines.
pub fn completed(classes: usize) -> Termination {
    Termination {
        reason: TerminationReason::Completed,
        classes_finished: classes,
        classes_abandoned: 0,
        frontier: Vec::new(),
    }
}

/// An in-process answerer: one θ-keyed cache and its hit/miss tallies.
pub struct Answerer {
    cache: ResultCache,
    /// Requests answered from the cache.
    pub hits: u64,
    /// Requests that mined (cache miss or `no_cache`).
    pub misses: u64,
}

impl Answerer {
    /// An answerer with an empty cache.
    pub fn new() -> Self {
        Answerer {
            cache: ResultCache::new(8),
            hits: 0,
            misses: 0,
        }
    }

    /// Caches `run`, a complete mine at `theta`.
    pub fn warm(&self, theta: f64, max_edges: Option<usize>, run: MiningResult) {
        let classes = run.stats.classes;
        self.cache.insert(
            ConfigKey {
                max_edges,
                baseline: false,
            },
            theta,
            Arc::new(run),
            completed(classes),
        );
    }

    /// Answers one frame over `db`; `fresh` mines at the requested θ′ on
    /// a miss. Returns the response line and, on a miss, the fresh run
    /// (handed back so the caller can check it outside the timed span).
    pub fn answer(
        &mut self,
        frame: &str,
        db: &GraphDatabase,
        rec: &mut Recorder,
        fresh: &mut dyn FnMut(&MineRequest, &mut Recorder) -> Result<MiningResult, String>,
    ) -> Result<(String, Option<MiningResult>), String> {
        let req = rec.span("serve.parse", |_| parse_request(frame));
        let Ok(Request::Mine(m)) = req else {
            return Err(format!("not a mine request: {frame}"));
        };
        let key = ConfigKey {
            max_edges: m.max_edges,
            baseline: m.baseline,
        };
        let cached = if m.no_cache {
            None
        } else {
            rec.span("serve.cache_lookup", |_| self.cache.lookup(&key, m.theta))
        };
        if let Some(hit) = cached {
            self.hits += 1;
            let floor = db.min_support_count(m.theta);
            let patterns = rec.span("serve.filter", |_| filter_run(&hit.run, floor));
            let id = m.id.as_deref();
            let response = rec.span("serve.render", |_| {
                result_response(
                    id,
                    &patterns,
                    &hit.termination,
                    floor,
                    db.len(),
                    CacheStatus::Hit,
                    0.0,
                )
            });
            return Ok((response, None));
        }
        self.misses += 1;
        let run = fresh(&m, rec)?;
        let status = if m.no_cache {
            CacheStatus::Bypass
        } else {
            CacheStatus::Miss
        };
        let done = completed(run.stats.classes);
        let response = rec.span("serve.render", |_| {
            result_response(
                m.id.as_deref(),
                &run.patterns,
                &done,
                run.min_support_count,
                run.database_size,
                status,
                0.0,
            )
        });
        Ok((response, Some(run)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_seeded_three_to_one_and_the_same_work_for_every_seed() {
        let cycle = CYCLE;
        let a = mix(5, 2 * cycle, 0.2, Some(5));
        let b = mix(5, 2 * cycle, 0.2, Some(5));
        assert_eq!(
            a.iter().map(|q| &q.frame).collect::<Vec<_>>(),
            b.iter().map(|q| &q.frame).collect::<Vec<_>>()
        );
        let parsed = |qs: &[Query]| -> Vec<(u64, bool)> {
            qs.iter()
                .map(|q| {
                    let Ok(Request::Mine(m)) = parse_request(&q.frame) else {
                        panic!("{}", q.frame)
                    };
                    assert_eq!((m.theta, m.max_edges), (q.theta, Some(5)));
                    assert!((0.2..0.5).contains(&q.theta), "{}", q.theta);
                    ((q.theta * 1e4).round() as u64, m.no_cache)
                })
                .collect()
        };
        let (pa, pc) = (parsed(&a), parsed(&mix(6, 2 * cycle, 0.2, Some(5))));
        assert_ne!(pa, pc, "the seed orders the mix");
        for block in pa.chunks(4) {
            assert_eq!(block.iter().filter(|&&(_, f)| f).count(), 1);
        }
        let sorted = |c: &[(u64, bool)]| {
            let mut c = c.to_vec();
            c.sort_unstable();
            c
        };
        for (x, y) in pa.chunks(cycle).zip(pc.chunks(cycle)) {
            assert_eq!(sorted(x), sorted(y), "every cycle holds the same requests");
        }
        let fresh: Vec<u64> = sorted(&pa[..cycle])
            .into_iter()
            .filter(|&(_, f)| f)
            .map(|(t, _)| t)
            .collect();
        assert_eq!(fresh, [2000, 2750, 3500, 4250]);
        assert_eq!(sorted(&pa[..cycle]), sorted(&pa[cycle..]));
    }

    #[test]
    fn expected_rejects_tampered_responses() {
        let (c, t) = tsg_taxonomy::samples::sample_taxonomy();
        let db = tsg_taxonomy::samples::figure_1_4_database(&c);
        let run =
            taxogram_core::Taxogram::new(taxogram_core::TaxogramConfig::with_threshold(1.0 / 3.0))
                .mine(&db, &t)
                .unwrap();
        let floor = db.min_support_count(2.0 / 3.0);
        let mut exp = Expected::new(run.clone(), db.len());
        exp.prepare(floor);
        let mut answerer = Answerer::new();
        answerer.warm(1.0 / 3.0, None, run);
        let mut rec = Recorder::new(false);
        let mut no_mine = |_: &MineRequest, _: &mut Recorder| Err("unexpected miss".to_owned());
        let (good, run) = answerer
            .answer(
                &frame(1, 2.0 / 3.0, None, false),
                &db,
                &mut rec,
                &mut no_mine,
            )
            .unwrap();
        assert!(run.is_none());
        assert_eq!(cache_status(&good), Some("hit"));
        assert_eq!(answerer.hits, 1);
        assert!(exp.matches(&good, floor));
        assert!(!exp.matches(&good, floor + 1), "unprepared floor");
        assert!(!exp.matches(
            &good.replacen("\"support_count\":", "\"support_count\":9", 1),
            floor
        ));
        assert!(!exp.matches(
            &good.replace("\"complete\":true", "\"complete\":false"),
            floor
        ));
        assert!(!exp.matches("{\"type\":\"shed\"}", floor));
    }
}
