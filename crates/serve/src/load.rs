//! Synthetic many-client load driver.
//!
//! Spawns `clients` threads, each opening one connection and issuing
//! `requests_per_client` mine requests back-to-back, honoring shed
//! backoff hints (capped, so a misbehaving server cannot stall the
//! driver). Records per-request latency and response classification,
//! and reduces them to a percentile summary. The `scripts/ci.sh` serve
//! stage runs it as a smoke test; serve latency and throughput are
//! measured by the benchmark's `serve-mix` workload (`taxobench/`).
//!
//! The driver is deliberately protocol-level — plain sockets and the
//! serve crate's own JSON reader — so it measures exactly what a real
//! client sees, queue wait and framing included.

use crate::json::{self, Json};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Load-run shape.
#[derive(Clone, Debug)]
pub struct LoadOptions {
    /// Concurrent client connections.
    pub clients: usize,
    /// Mine requests issued per client.
    pub requests_per_client: usize,
    /// θ for every request.
    pub theta: f64,
    /// Optional per-request deadline forwarded on the wire (ms).
    pub time_limit_ms: Option<u64>,
    /// Send `"no_cache":true` so every request actually mines.
    pub no_cache: bool,
    /// Socket connect/read/write timeout.
    pub io_timeout: Duration,
    /// Cap on honored shed backoff sleeps.
    pub max_backoff: Duration,
}

impl Default for LoadOptions {
    fn default() -> Self {
        LoadOptions {
            clients: 4,
            requests_per_client: 8,
            theta: 0.4,
            time_limit_ms: None,
            no_cache: false,
            io_timeout: Duration::from_secs(10),
            max_backoff: Duration::from_millis(50),
        }
    }
}

/// What the load run observed, reduced for reporting.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadReport {
    /// Requests written to sockets.
    pub sent: usize,
    /// `result` responses (complete terminations).
    pub ok: usize,
    /// `result` responses with a non-complete termination (truthful
    /// partials under deadline/budget/cancel).
    pub degraded: usize,
    /// `shed` responses.
    pub shed: usize,
    /// Typed `error` responses.
    pub errors: usize,
    /// Requests with no parseable response (disconnect / timeout).
    pub lost: usize,
    /// Latency percentiles over answered requests, milliseconds.
    pub p50_ms: f64,
    /// 95th percentile latency, ms.
    pub p95_ms: f64,
    /// 99th percentile latency, ms.
    pub p99_ms: f64,
    /// Worst observed latency, ms.
    pub max_ms: f64,
    /// `shed / sent` (0 when nothing was sent).
    pub shed_rate: f64,
    /// Wall-clock duration of the whole run, ms.
    pub wall_ms: f64,
}

/// One client's raw observations.
#[derive(Default)]
struct ClientTally {
    sent: usize,
    ok: usize,
    degraded: usize,
    shed: usize,
    errors: usize,
    lost: usize,
    latencies_ms: Vec<f64>,
}

/// Runs the load shape against a live server and reduces the results.
pub fn run_load(addr: SocketAddr, opts: &LoadOptions) -> LoadReport {
    let started = Instant::now();
    let handles: Vec<_> = (0..opts.clients.max(1))
        .map(|i| {
            let opts = opts.clone();
            std::thread::Builder::new() // tsg-lint: allow(facade) — synthetic load driver: real client threads against real sockets, not engine concurrency
                .name(format!("tsg-load-client-{i}"))
                .spawn(move || client_loop(addr, &opts))
                .expect("spawn load client") // tsg-lint: allow(panic) — spawn failure at load-driver startup is a fatal harness error
        })
        .collect();
    let mut tallies = Vec::with_capacity(handles.len());
    for h in handles {
        if let Ok(t) = h.join() {
            tallies.push(t);
        }
    }
    reduce(&tallies, started.elapsed())
}

fn client_loop(addr: SocketAddr, opts: &LoadOptions) -> ClientTally {
    let mut tally = ClientTally::default();
    let Ok(stream) = TcpStream::connect_timeout(&addr, opts.io_timeout) else {
        tally.lost = opts.requests_per_client;
        return tally;
    };
    let _ = stream.set_read_timeout(Some(opts.io_timeout));
    let _ = stream.set_write_timeout(Some(opts.io_timeout));
    let Ok(read_half) = stream.try_clone() else {
        tally.lost = opts.requests_per_client;
        return tally;
    };
    let mut writer = stream;
    let mut reader = BufReader::new(read_half);
    let frame = mine_frame(opts);
    for _ in 0..opts.requests_per_client {
        let sent_at = Instant::now();
        if writer.write_all(frame.as_bytes()).is_err() {
            tally.lost += 1;
            break;
        }
        tally.sent += 1;
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => {
                tally.lost += 1;
                break;
            }
        }
        let elapsed_ms = sent_at.elapsed().as_secs_f64() * 1000.0;
        match classify(&line) {
            Response::Ok => {
                tally.ok += 1;
                tally.latencies_ms.push(elapsed_ms);
            }
            Response::Degraded => {
                tally.degraded += 1;
                tally.latencies_ms.push(elapsed_ms);
            }
            Response::Shed { retry_after_ms } => {
                tally.shed += 1;
                let backoff =
                    Duration::from_millis(retry_after_ms).min(opts.max_backoff);
                std::thread::sleep(backoff); // tsg-lint: allow(facade) — client-side shed backoff sleep in the load driver
            }
            Response::Error => tally.errors += 1,
            Response::Unparseable => {
                tally.lost += 1;
                break;
            }
        }
    }
    tally
}

enum Response {
    Ok,
    Degraded,
    Shed { retry_after_ms: u64 },
    Error,
    Unparseable,
}

fn classify(line: &str) -> Response {
    let Ok(v) = json::parse(line.trim_end()) else {
        return Response::Unparseable;
    };
    match v.get("type").and_then(Json::as_str) {
        Some("result") => {
            let complete = v
                .get("termination")
                .and_then(|t| t.get("complete"))
                .and_then(Json::as_bool)
                .unwrap_or(false);
            if complete {
                Response::Ok
            } else {
                Response::Degraded
            }
        }
        Some("shed") => Response::Shed {
            retry_after_ms: v
                .get("retry_after_ms")
                .and_then(Json::as_u64)
                .unwrap_or(0),
        },
        Some("error") => Response::Error,
        _ => Response::Unparseable,
    }
}

fn mine_frame(opts: &LoadOptions) -> String {
    let mut f = format!("{{\"op\":\"mine\",\"theta\":{}", opts.theta);
    if let Some(ms) = opts.time_limit_ms {
        f.push_str(&format!(",\"time_limit_ms\":{ms}"));
    }
    if opts.no_cache {
        f.push_str(",\"no_cache\":true");
    }
    f.push_str("}\n");
    f
}

fn reduce(tallies: &[ClientTally], wall: Duration) -> LoadReport {
    let mut report = LoadReport {
        wall_ms: wall.as_secs_f64() * 1000.0,
        ..LoadReport::default()
    };
    let mut latencies: Vec<f64> = Vec::new();
    for t in tallies {
        report.sent += t.sent;
        report.ok += t.ok;
        report.degraded += t.degraded;
        report.shed += t.shed;
        report.errors += t.errors;
        report.lost += t.lost;
        latencies.extend_from_slice(&t.latencies_ms);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency")); // tsg-lint: allow(panic) — latencies are measured finite durations
    report.p50_ms = percentile(&latencies, 50.0);
    report.p95_ms = percentile(&latencies, 95.0);
    report.p99_ms = percentile(&latencies, 99.0);
    report.max_ms = latencies.last().copied().unwrap_or(0.0);
    if report.sent > 0 {
        report.shed_rate = report.shed as f64 / report.sent as f64;
    }
    report
}

/// Nearest-rank percentile over an already-sorted slice (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)] // tsg-lint: allow(index) — empty slice returned early above; rank clamped to last index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
    }

    #[test]
    fn classify_reads_the_wire_shapes() {
        assert!(matches!(
            classify("{\"type\":\"result\",\"termination\":{\"complete\":true}}"),
            Response::Ok
        ));
        assert!(matches!(
            classify("{\"type\":\"result\",\"termination\":{\"complete\":false}}"),
            Response::Degraded
        ));
        assert!(matches!(
            classify("{\"type\":\"shed\",\"retry_after_ms\":120}"),
            Response::Shed {
                retry_after_ms: 120
            }
        ));
        assert!(matches!(classify("{\"type\":\"error\"}"), Response::Error));
        assert!(matches!(classify("not json"), Response::Unparseable));
    }
}
