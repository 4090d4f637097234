//! Taxogram's benchmark: seeded inputs, four workloads, every output
//! checked, every metric printed by name with its unit.
//!
//! ```text
//! cargo run --release --manifest-path taxobench/Cargo.toml -- \
//!     --workload go-d1000 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end
//! metrics; `--trace 1` runs the traced replica of the serial pipeline
//! and prints the per-layer metrics, writing the spans as Chrome
//! trace-event JSON to `.taxobench/trace-<workload>-seed<n>.json`.
//! Scratch inputs and spill files live in `.taxobench/run-<pid>/` and are
//! removed on exit. The last stdout line is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! records the host, the per-crate line counts and the request counts.
//! A failed output check prints `"correct": false` and exits 1.

mod digest;
mod inputs;
mod mine;
mod query;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use workloads::{Report, WORKLOADS};

/// End-to-end metrics (tracing off), in output order, with units.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("mine_s", "s"),
    ("serial_mine_s", "s"),
    ("peak_rss_bytes", "B"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Per-layer metrics (traced run), in output order, with units.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("taxonomy.read_s", "s"),
    ("graph.read_s", "s"),
    ("relabel.s", "s"),
    ("taxonomy.label_freq_s", "s"),
    ("gspan.self_s", "s"),
    ("gspan.classes", "count"),
    ("gspan.embeddings", "count"),
    ("oi.build_s", "s"),
    ("oi.updates", "count"),
    ("oi.peak_bytes", "B"),
    ("enumerate.s", "s"),
    ("enumerate.intersections", "count"),
    ("enumerate.vectors_visited", "count"),
    ("enumerate.emitted", "count"),
    ("enumerate.overgeneralized", "count"),
    ("enumerate.yield", "ratio"),
    ("engine.peak_embedding_bytes", "B"),
    ("engine.steals", "count"),
    ("engine.speedup", "ratio"),
    ("shard.count", "count"),
    ("shard.candidates", "count"),
    ("shard.globally_infrequent", "count"),
    ("shard.candidate_precision", "ratio"),
    ("shard.spilled_bytes", "B"),
    ("shard.largest_bytes", "B"),
    ("shard.db_streams", "count"),
    ("serve.parse_s", "s"),
    ("serve.cache_lookup_s", "s"),
    ("serve.filter_s", "s"),
    ("serve.render_s", "s"),
    ("serve.response_bytes", "B"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.shed", "count"),
    ("serve.avg_mine_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag}"))
    };
    let workload = get("--workload")?.to_owned();
    let seed = get("--seed")?
        .parse()
        .map_err(|_| "--seed must be an integer")?;
    let seconds = get("--seconds")?
        .parse()
        .ok()
        .filter(|&s| s > 0)
        .ok_or("--seconds must be a positive integer")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        _ => return Err("--trace must be 0 or 1".to_owned()),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Renders the result object for `report`, whose metrics must be exactly
/// `names` in order.
fn result_line(report: &Report, names: &[(&str, &str)]) -> Result<String, String> {
    let mut metrics = Vec::with_capacity(names.len());
    for &(name, unit) in names {
        let value = report
            .metric(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.ledger.failed() == 0,
        report.ledger.attempted,
        report.ledger.failed(),
        metrics.join(", ")
    ))
}

fn info_line(args: &Args, report: &Report) -> String {
    let (model, load) = inputs::host_facts();
    let loc: Vec<String> = inputs::loc_per_crate(Path::new("."))
        .into_iter()
        .map(|(name, n)| format!("\"{name}\": {n}"))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!(
        "{{\"info\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"host\": {{\"nproc\": {}, \"cpu_model\": \"{}\", \"loadavg_1m\": {load}}}, \"rust_loc\": {{{}}}, {}}}}}",
        args.workload,
        args.seed,
        args.trace,
        inputs::nproc(),
        model.replace(['"', '\\'], ""),
        loc.join(", "),
        notes.join(", ")
    )
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("taxobench: {e}");
            eprintln!(
                "usage: taxobench --workload <{}> --seed N --seconds S --trace 0|1",
                WORKLOADS.map(|w| w.name).join("|")
            );
            std::process::exit(2);
        }
    };
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("taxobench: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let out_dir = PathBuf::from(".taxobench");
    let work = out_dir.join(format!("run-{}", std::process::id()));
    let trace_file = args
        .trace
        .then(|| out_dir.join(format!("trace-{}-seed{}.json", spec.name, args.seed)));
    let budget = std::time::Duration::from_secs(args.seconds);
    let run = workloads::run(spec, args.seed, budget, trace_file.as_deref(), &work);
    let _ = std::fs::remove_dir_all(&work);
    let report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("taxobench: {e}");
            std::process::exit(1);
        }
    };
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    match result_line(&report, names) {
        Ok(line) => {
            println!("{}", info_line(&args, &report));
            println!("{line}");
        }
        Err(e) => {
            eprintln!("taxobench: {e}");
            std::process::exit(1);
        }
    }
    if report.ledger.failed() > 0 {
        eprintln!(
            "taxobench: {} of {} operations failed their output check",
            report.ledger.failed(),
            report.ledger.attempted
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn args_are_validated() {
        let argv = |s: &str| -> Vec<String> { s.split(' ').map(str::to_owned).collect() };
        let a = parse_args(&argv(
            "b --workload go-d1000 --seed 3 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("go-d1000", 3, 10, true)
        );
        assert!(parse_args(&argv("b --workload x --seed 3 --seconds 0 --trace 0")).is_err());
        assert!(parse_args(&argv("b --workload x --seed 3 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&argv("b --workload x --seconds 1 --trace 0")).is_err());
    }

    #[test]
    fn benchmark_json_lists_every_metric_and_workload() {
        let text =
            std::fs::read_to_string("../BENCHMARK.json").expect("BENCHMARK.json at the repo root");
        let v = tsg_serve::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let Some(tsg_serve::json::Json::Arr(items)) = v.get(key) else {
                panic!("{key}")
            };
            items
                .iter()
                .map(|m| {
                    let s = |k: &str| {
                        m.get(k)
                            .and_then(|x| x.as_str())
                            .unwrap_or_default()
                            .to_owned()
                    };
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|&(n, u)| (n.to_owned(), u.to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS.map(|w| w.name.to_owned()));
    }
}
