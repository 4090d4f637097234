//! The synthetic load driver against a live daemon: every request must
//! come back as exactly one of ok / degraded / shed / typed error —
//! never lost — and the drain afterwards must reclaim every worker and
//! connection. This is the `scripts/ci.sh` serve-stage smoke; serve
//! latency percentiles are measured by the benchmark's `serve-mix`
//! workload (`taxobench/`), not here.

use std::time::Duration;
use tsg_serve::{run_load, LoadOptions, ServeOptions, Server};

fn serve_opts(workers: usize, queue_depth: usize) -> ServeOptions {
    ServeOptions {
        workers,
        queue_depth,
        read_timeout: Duration::from_millis(500),
        write_timeout: Duration::from_secs(2),
        drain_deadline: Duration::from_secs(3),
        shed_retry_ms: 25,
        ..ServeOptions::default()
    }
}

#[test]
fn load_sweep_loses_nothing_and_drains_clean() {
    let case = tsg_testkit::case(7);
    let h = Server::bind(
        "127.0.0.1:0",
        case.db.clone(),
        case.taxonomy.clone(),
        serve_opts(2, 8),
    )
    .unwrap();
    let report = run_load(
        h.addr(),
        &LoadOptions {
            clients: 4,
            requests_per_client: 6,
            theta: 0.4,
            no_cache: true,
            ..LoadOptions::default()
        },
    );
    assert_eq!(report.sent, 24);
    assert_eq!(report.lost, 0, "no request may vanish over loopback");
    assert_eq!(
        report.ok + report.degraded + report.shed + report.errors,
        report.sent,
        "every request resolves to exactly one typed outcome"
    );
    assert!(report.ok > 0, "an unloaded tiny case must mostly succeed");
    assert!(report.p50_ms <= report.p95_ms && report.p95_ms <= report.p99_ms);

    let stats = h.stats();
    assert_eq!(stats.in_flight, 0, "no job may outlive the load run");
    let drain = h.shutdown();
    assert!(drain.clean, "idle daemon must drain clean: {drain:?}");
    assert_eq!(drain.leaked_connections, 0);
}

#[test]
fn saturated_load_sheds_but_still_loses_nothing() {
    let case = tsg_testkit::case(11);
    // One worker, a one-slot queue: most of an 8-client burst must shed.
    let h = Server::bind(
        "127.0.0.1:0",
        case.db.clone(),
        case.taxonomy.clone(),
        serve_opts(1, 1),
    )
    .unwrap();
    let report = run_load(
        h.addr(),
        &LoadOptions {
            clients: 8,
            requests_per_client: 3,
            theta: 0.4,
            no_cache: true,
            max_backoff: Duration::from_millis(5),
            ..LoadOptions::default()
        },
    );
    assert_eq!(report.lost, 0, "shedding must stay typed, never a hang");
    assert_eq!(
        report.ok + report.degraded + report.shed + report.errors,
        report.sent
    );
    let drain = h.shutdown();
    assert_eq!(drain.leaked_connections, 0, "{drain:?}");
}
