//! The `taxogram` command-line interface.
//!
//! Three subcommands, all file-driven (formats documented in
//! [`tsg_graph::io`] and [`tsg_taxonomy::io`]):
//!
//! ```text
//! taxogram mine --taxonomy t.txt --database d.txt --support 0.2
//!               [--max-edges N] [--baseline true] [--algorithm taxogram|tacgm]
//! taxogram stats --database d.txt
//! taxogram generate --dataset D1000 --scale 0.05 --out DIR
//! ```
//!
//! The logic lives here (unit-testable, writes to any `io::Write`); the
//! binary in `src/bin/taxogram.rs` is a thin wrapper.

// tsg-lint: allow(index) — suffix slicing is guarded by the match on the last byte, and flag positions enumerate raw's own indices

use std::io::Write;
use tsg_graph::{DatabaseStats, GraphDatabase, LabelTable};
use tsg_taxonomy::Taxonomy;

/// A fatal CLI error with an exit-worthy message.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Minimal flag parser: `--flag value` pairs plus a leading subcommand.
pub struct Args {
    subcommand: String,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    /// Fails on a missing subcommand or a flag without a value.
    pub fn parse(raw: &[String]) -> Result<Args, CliError> {
        let subcommand = raw
            .first()
            .ok_or_else(|| err(USAGE))?
            .clone();
        let mut flags = Vec::new();
        let mut i = 1;
        while i < raw.len() {
            let name = raw[i]
                .strip_prefix("--")
                .ok_or_else(|| err(format!("expected --flag, got {:?}", raw[i])))?;
            let value = raw
                .get(i + 1)
                .ok_or_else(|| err(format!("--{name} needs a value")))?;
            flags.push((name.to_owned(), value.clone()));
            i += 2;
        }
        Ok(Args { subcommand, flags })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn require(&self, name: &str) -> Result<&str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required flag --{name}")))
    }

    /// Fails naming the first flag that is not in `known`, so a typo is
    /// an error rather than a silently ignored option.
    fn only(&self, known: &[&str]) -> Result<(), CliError> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !known.contains(&n.as_str()))
        {
            Some((name, _)) => Err(err(format!("{} does not take --{name}", self.subcommand))),
            None => Ok(()),
        }
    }
}

/// The flags `mine` takes.
const MINE_FLAGS: &[&str] = &[
    "taxonomy",
    "database",
    "support",
    "max-edges",
    "baseline",
    "algorithm",
    "threads",
    "dot-dir",
    "shards",
    "spill-dir",
    "filter",
    "time-limit",
    "memory-limit",
    "max-patterns",
];

/// The flags `serve` takes.
const SERVE_FLAGS: &[&str] = &[
    "taxonomy",
    "database",
    "addr",
    "workers",
    "queue",
    "max-connections",
    "cache",
    "max-time-limit",
    "default-time-limit",
    "port-file",
    "max-runtime-ms",
];

/// Usage text.
pub const USAGE: &str = "usage: taxogram <mine|serve|stats|generate> [flags]
  mine      --taxonomy FILE --database FILE --support θ
            [--max-edges N] [--baseline true] [--algorithm taxogram|tacgm]
            [--threads N] [--dot-dir DIR]
            [--shards N] [--spill-dir DIR]   (out-of-core sharded mining;
              composes with --threads and the governance flags)
            [--filter closed|maximal|interesting:R]
            [--time-limit SECONDS] [--memory-limit BYTES[K|M|G]]
            [--max-patterns N]   (budgeted runs report '# termination:')
  serve     --taxonomy FILE --database FILE [--addr HOST:PORT]
            [--workers N] [--queue N] [--max-connections N] [--cache N]
            [--max-time-limit SECONDS] [--default-time-limit SECONDS]
            [--port-file PATH] [--max-runtime-ms N]
            (resident mining daemon, JSON lines over TCP; stop with a
             client {\"op\":\"shutdown\"}, a 'shutdown' line on stdin
             (EOF too when stdin is a terminal), or the runtime bound
             — all drain gracefully)
  stats     --database FILE
  generate  --dataset ID --out DIR [--scale S]   (ID per Table 1, e.g. D1000, NC20, TD8, PTE)";

/// Runs the CLI against the given output stream. Returns the process exit
/// code.
pub fn run(raw: &[String], out: &mut dyn Write) -> i32 {
    match dispatch(raw, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn dispatch(raw: &[String], out: &mut dyn Write) -> Result<(), CliError> {
    let args = Args::parse(raw)?;
    match args.subcommand.as_str() {
        "mine" => args.only(MINE_FLAGS).and_then(|()| mine(&args, out)),
        "serve" => args.only(SERVE_FLAGS).and_then(|()| serve(&args, out)),
        "stats" => args.only(&["database"]).and_then(|()| stats(&args, out)),
        "generate" => args
            .only(&["dataset", "out", "scale"])
            .and_then(|()| generate(&args, out)),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        other => Err(err(format!("unknown subcommand {other:?}\n{USAGE}"))),
    }
}

fn load_inputs(args: &Args) -> Result<(LabelTable, Taxonomy, GraphDatabase), CliError> {
    let tax_text = std::fs::read_to_string(args.require("taxonomy")?)?;
    let (names, taxonomy) =
        tsg_taxonomy::io::read_taxonomy(&tax_text).map_err(|e| err(e.to_string()))?;
    let db_text = std::fs::read_to_string(args.require("database")?)?;
    let db = tsg_graph::io::read_database(&db_text).map_err(|e| err(e.to_string()))?;
    Ok((names, taxonomy, db))
}

/// Parses a byte count with an optional `K`/`M`/`G` suffix (powers of
/// 1024), e.g. `512`, `64K`, `8M`, `1G`.
fn parse_bytes(s: &str) -> Option<usize> {
    let (digits, shift) = match s.as_bytes().last()? {
        b'K' | b'k' => (&s[..s.len() - 1], 10),
        b'M' | b'm' => (&s[..s.len() - 1], 20),
        b'G' | b'g' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let n: usize = digits.parse().ok()?;
    n.checked_shl(shift)
}

/// Collects the governance flags into [`taxogram_core::GovernOptions`];
/// `None` when no governance flag was given (run ungoverned).
fn govern_flags(args: &Args) -> Result<Option<taxogram_core::GovernOptions>, CliError> {
    let mut budget = taxogram_core::Budget::unlimited();
    if let Some(s) = args.get("time-limit") {
        let secs = s
            .parse::<f64>()
            .ok()
            .filter(|v| *v >= 0.0 && v.is_finite())
            .ok_or_else(|| err("--time-limit must be a non-negative number of seconds"))?;
        budget = budget.deadline(std::time::Duration::from_secs_f64(secs));
    }
    if let Some(s) = args.get("memory-limit") {
        budget = budget.max_peak_bytes(
            parse_bytes(s).ok_or_else(|| err("--memory-limit must be BYTES with optional K/M/G"))?,
        );
    }
    if let Some(s) = args.get("max-patterns") {
        budget = budget.max_patterns(
            s.parse()
                .map_err(|_| err("--max-patterns must be an integer"))?,
        );
    }
    if budget.is_unlimited() {
        return Ok(None);
    }
    Ok(Some(taxogram_core::GovernOptions::with_budget(budget)))
}

/// The largest `--threads` value `mine` accepts. Each thread past the
/// first is an OS thread the engine spawns outright, so a mistyped count
/// would exhaust the process's threads or memory before mining a graph.
const MAX_THREADS: usize = 1024;

fn mine(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    // Checked before any input is read, so a bad count fails fast.
    let threads: usize = match args.get("threads") {
        Some(s) => s
            .parse()
            .ok()
            .filter(|&n| n <= MAX_THREADS)
            .ok_or_else(|| err(format!("--threads must be an integer of at most {MAX_THREADS}")))?,
        None => 1,
    };
    let (names, taxonomy, db) = load_inputs(args)?;
    let theta: f64 = args
        .require("support")?
        .parse()
        .map_err(|_| err("--support must be a number in [0, 1]"))?;
    let max_edges: Option<usize> = match args.get("max-edges") {
        Some(s) => Some(s.parse().map_err(|_| err("--max-edges must be an integer"))?),
        None => None,
    };
    let algorithm = args.get("algorithm").unwrap_or("taxogram");
    let name_of = |l: tsg_graph::NodeLabel| {
        names
            .name(l)
            .map(str::to_owned)
            .unwrap_or_else(|| l.to_string())
    };
    let shards: usize = match args.get("shards") {
        Some(s) => s.parse().map_err(|_| err("--shards must be an integer"))?,
        None => 0,
    };
    let started = std::time::Instant::now();
    let printed = match algorithm {
        "taxogram" => {
            let mut cfg = if args.get("baseline") == Some("true") {
                taxogram_core::TaxogramConfig::baseline(theta)
            } else {
                taxogram_core::TaxogramConfig::with_threshold(theta)
            };
            cfg.max_edges = max_edges;
            // --shards > 0 spills the database and mines it out of core;
            // otherwise threads > 1 uses the streaming pipelined engine
            // (Step 2 and Step 3 overlapped) and threads <= 1 the serial
            // miner. Governance flags route through the governed entry
            // points and surface the termination report as a comment
            // line; a sharded run always reports it.
            let govern = govern_flags(args)?;
            let (r, termination, shard_stats) = if shards > 0 {
                let opts = taxogram_core::ShardOptions {
                    shards,
                    threads: threads.max(1),
                    spill_dir: args.get("spill-dir").map(std::path::PathBuf::from),
                    ..Default::default()
                };
                let outcome = match &govern {
                    Some(govern) => {
                        taxogram_core::mine_sharded_governed(&cfg, &db, &taxonomy, &opts, govern)
                    }
                    None => taxogram_core::mine_sharded(&cfg, &db, &taxonomy, &opts),
                }
                .map_err(|e| err(e.to_string()))?;
                (
                    outcome.result,
                    Some(outcome.termination),
                    Some(outcome.shard_stats),
                )
            } else if let Some(govern) = &govern {
                let outcome = taxogram_core::mine_pipelined_governed(
                    &cfg,
                    &db,
                    &taxonomy,
                    taxogram_core::PipelineOptions {
                        threads,
                        ..Default::default()
                    },
                    govern,
                )
                .map_err(|e| err(e.to_string()))?;
                (outcome.result, Some(outcome.termination), None)
            } else {
                let r = taxogram_core::mine_pipelined(&cfg, &db, &taxonomy, threads)
                    .map_err(|e| err(e.to_string()))?;
                (r, None, None)
            };
            // Optional post-filters on the minimal pattern set.
            let selected: Vec<&taxogram_core::Pattern> = match args.get("filter") {
                None => r.sorted_patterns(),
                Some("closed") => {
                    taxogram_core::postprocess::closed_patterns(&r.patterns, &taxonomy)
                }
                Some("maximal") => {
                    taxogram_core::postprocess::maximal_patterns(&r.patterns, &taxonomy)
                }
                Some(f) => {
                    let factor: f64 = f
                        .strip_prefix("interesting:")
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| err("--filter must be closed, maximal, or interesting:R"))?;
                    taxogram_core::interest::r_interesting(&r.patterns, &db, &taxonomy, factor)
                        .into_iter()
                        .map(|(p, _)| p)
                        .collect()
                }
            };
            if let Some(dir) = args.get("dot-dir") {
                let dir = std::path::Path::new(dir);
                std::fs::create_dir_all(dir)?;
                for (i, p) in selected.iter().enumerate().take(100) {
                    let dot =
                        tsg_graph::dot::to_dot(&p.graph, &format!("pattern_{i}"), Some(&names));
                    std::fs::write(dir.join(format!("pattern_{i:03}.dot")), dot)?;
                }
            }
            for p in &selected {
                print_pattern(out, &p.graph, p.support_count, db.len(), &name_of)?;
            }
            writeln!(
                out,
                "# {} of {} patterns after filter, {} classes, {} occurrence-index updates",
                selected.len(),
                r.patterns.len(),
                r.stats.classes,
                r.stats.oi_updates
            )?;
            // Counts only, no times: the step 2 line is identical across
            // runs and across the serial and pipelined engines (the sharded
            // miner's Pass 1 mines shards, not the database, so it has no
            // such line); the step 3 line also holds for the sharded one.
            if shard_stats.is_none() {
                let g = &r.stats.gspan;
                writeln!(
                    out,
                    "# step 2: {} extension keys, {} infrequent, {} non-minimal, {} embeddings grown",
                    g.keys_counted, g.infrequent, g.non_minimal, g.embeddings_grown
                )?;
            }
            let e = &r.stats.enumeration;
            writeln!(
                out,
                "# step 3: {} vectors, {} intersections, {} over-generalized",
                e.vectors_visited, e.intersections, e.overgeneralized
            )?;
            if let Some(s) = &shard_stats {
                writeln!(
                    out,
                    "# {} patterns from {} shards ({} candidates, {} globally infrequent, \
                     {} bound-pruned, {} recounts, \
                     {} bytes spilled / largest shard {}, {} db streams)",
                    r.patterns.len(),
                    s.shards,
                    s.candidates,
                    s.globally_infrequent,
                    s.bound_pruned,
                    s.recounts,
                    s.spilled_bytes,
                    s.largest_shard_bytes,
                    s.db_streams
                )?;
            }
            if let Some(t) = &termination {
                writeln!(
                    out,
                    "# termination: {} ({} classes finished, {} abandoned)",
                    t.reason, t.classes_finished, t.classes_abandoned
                )?;
            }
            selected.len()
        }
        "tacgm" => {
            if govern_flags(args)?.is_some() {
                return Err(err(
                    "--time-limit/--memory-limit/--max-patterns are not supported with --algorithm tacgm",
                ));
            }
            let unsupported = [
                ("threads", threads > 1),
                ("shards", shards > 0),
                ("filter", args.get("filter").is_some()),
            ];
            if let Some((flag, _)) = unsupported.iter().find(|(_, given)| *given) {
                return Err(err(format!("--{flag} is not supported with --algorithm tacgm")));
            }
            let mut cfg = tsg_tacgm::TacgmConfig::with_threshold(theta);
            cfg.max_edges = max_edges;
            let r = tsg_tacgm::mine(&db, &taxonomy, &cfg).map_err(|e| err(e.to_string()))?;
            for p in &r.patterns {
                print_pattern(out, &p.graph, p.support_count, db.len(), &name_of)?;
            }
            writeln!(
                out,
                "# {} patterns, {} candidates generated",
                r.patterns.len(),
                r.stats.candidates
            )?;
            r.patterns.len()
        }
        other => return Err(err(format!("unknown --algorithm {other:?}"))),
    };
    writeln!(
        out,
        "# mined {} patterns in {:.1}ms",
        printed,
        started.elapsed().as_secs_f64() * 1000.0
    )?;
    Ok(())
}

/// The `serve` subcommand: load once, bind, and answer mining queries
/// until a shutdown arrives. With no signal handling available
/// (`unsafe` is forbidden workspace-wide), the stop channels are: a
/// client `{"op":"shutdown"}`, a `shutdown` line on stdin (the SIGTERM
/// stand-in under a process supervisor; EOF also stops the daemon when
/// stdin is a terminal — ctrl-d — but a daemonized server whose stdin
/// is `/dev/null` keeps running), or `--max-runtime-ms`.
fn serve(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let (_names, taxonomy, db) = load_inputs(args)?;
    let (graphs, concepts) = (db.len(), taxonomy.concept_count());
    let mut opts = tsg_serve::ServeOptions::default();
    let parse_count = |name: &str, dflt: usize| -> Result<usize, CliError> {
        match args.get(name) {
            Some(s) => s
                .parse()
                .map_err(|_| err(format!("--{name} must be a positive integer"))),
            None => Ok(dflt),
        }
    };
    let parse_secs = |name: &str| -> Result<Option<std::time::Duration>, CliError> {
        match args.get(name) {
            Some(s) => s
                .parse::<f64>()
                .ok()
                .filter(|v| *v >= 0.0 && v.is_finite())
                .map(|v| Some(std::time::Duration::from_secs_f64(v)))
                .ok_or_else(|| err(format!("--{name} must be a non-negative number of seconds"))),
            None => Ok(None),
        }
    };
    opts.workers = parse_count("workers", opts.workers)?.max(1);
    opts.queue_depth = parse_count("queue", opts.queue_depth)?.max(1);
    opts.max_connections = parse_count("max-connections", opts.max_connections)?.max(1);
    opts.cache_entries = parse_count("cache", opts.cache_entries)?;
    if let Some(d) = parse_secs("max-time-limit")? {
        opts.max_time_limit = d;
    }
    if let Some(d) = parse_secs("default-time-limit")? {
        opts.default_time_limit = Some(d);
    }
    let max_runtime: Option<std::time::Duration> = match args.get("max-runtime-ms") {
        Some(s) => Some(std::time::Duration::from_millis(
            s.parse()
                .map_err(|_| err("--max-runtime-ms must be an integer"))?,
        )),
        None => None,
    };
    let addr = args.get("addr").unwrap_or("127.0.0.1:7878");
    let handle =
        tsg_serve::Server::bind(addr, db, taxonomy, opts.clone()).map_err(|e| err(e.to_string()))?;
    writeln!(
        out,
        "listening on {} ({graphs} graphs, {concepts} concepts; {} workers, queue {}, cache {})",
        handle.addr(),
        opts.workers,
        opts.queue_depth,
        opts.cache_entries
    )?;
    out.flush()?;
    if let Some(path) = args.get("port-file") {
        std::fs::write(path, handle.addr().to_string())?;
    }
    if max_runtime.is_none() {
        // Interactive/supervised mode: watch stdin for an explicit
        // `shutdown` line (and, on a terminal, ctrl-d). EOF on a
        // non-terminal stdin is *not* a shutdown — a daemonized server
        // (`nohup … </dev/null`, most supervisors) sees EOF instantly
        // and must keep serving. The watcher speaks the wire protocol
        // to itself — no shared state with the server.
        let eof_shuts_down = std::io::IsTerminal::is_terminal(&std::io::stdin());
        let peer = handle.addr();
        let _watcher = std::thread::Builder::new() // tsg-lint: allow(facade) — CLI stdin watcher at the process boundary; never runs inside a mining engine
            .name("taxogram-serve-stdin".into())
            .spawn(move || stdin_shutdown_watcher(peer, eof_shuts_down));
    }
    let _ = handle.wait_shutdown_requested(max_runtime);
    let stats = handle.stats();
    let report = handle.shutdown();
    writeln!(
        out,
        "drained {} in {:.1}ms (forced_cancels {}); served {} requests: {} ok, {} shed, {} errors, {} cache hits",
        if report.clean { "clean" } else { "forced" },
        report.drain_ms,
        report.forced_cancels,
        stats.requests,
        stats.results_ok,
        stats.shed,
        stats.errors,
        stats.cache_hits
    )?;
    Ok(())
}

/// Blocks on stdin; a `shutdown` line — or EOF, when `eof_shuts_down`
/// (stdin is a terminal) — triggers a protocol-level shutdown request
/// against the server's own address. EOF on a non-terminal stdin just
/// ends the watcher so a daemonized server keeps running.
fn stdin_shutdown_watcher(addr: std::net::SocketAddr, eof_shuts_down: bool) {
    let mut line = String::new();
    loop {
        line.clear();
        match std::io::stdin().read_line(&mut line) {
            Ok(0) | Err(_) => {
                if !eof_shuts_down {
                    return;
                }
                break;
            }
            Ok(_) if line.trim() == "shutdown" => break,
            Ok(_) => {}
        }
    }
    if let Ok(mut s) = std::net::TcpStream::connect_timeout(&addr, std::time::Duration::from_secs(1))
    {
        let _ = s.write_all(b"{\"op\":\"shutdown\"}\n");
        let _ = s.set_read_timeout(Some(std::time::Duration::from_millis(500)));
        let mut ack = [0u8; 128];
        let _ = std::io::Read::read(&mut s, &mut ack);
    }
}

fn print_pattern(
    out: &mut dyn Write,
    g: &tsg_graph::LabeledGraph,
    support_count: usize,
    db_len: usize,
    name_of: &dyn Fn(tsg_graph::NodeLabel) -> String,
) -> Result<(), CliError> {
    let nodes: Vec<String> = g.labels().iter().map(|&l| name_of(l)).collect();
    let edges: Vec<String> = g
        .edges()
        .iter()
        .map(|e| format!("{}-{}({})", e.u, e.v, e.label))
        .collect();
    writeln!(
        out,
        "{:.3}  [{}]  {}",
        support_count as f64 / db_len as f64,
        nodes.join(", "),
        edges.join(" ")
    )?;
    Ok(())
}

fn stats(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let db_text = std::fs::read_to_string(args.require("database")?)?;
    let db = tsg_graph::io::read_database(&db_text).map_err(|e| err(e.to_string()))?;
    let s = db.stats();
    writeln!(out, "{}", DatabaseStats::table_header())?;
    writeln!(out, "{}", s.table_row("-"))?;
    Ok(())
}

fn generate(args: &Args, out: &mut dyn Write) -> Result<(), CliError> {
    let id = parse_dataset_id(args.require("dataset")?)?;
    let scale: f64 = args
        .get("scale")
        .unwrap_or("0.05")
        .parse()
        .map_err(|_| err("--scale must be a number in (0, 1]"))?;
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(err("--scale must be in (0, 1]"));
    }
    let dir = std::path::Path::new(args.require("out")?);
    std::fs::create_dir_all(dir)?;
    let ds = tsg_datagen::registry::build(id, scale);
    std::fs::write(
        dir.join("taxonomy.txt"),
        tsg_taxonomy::io::write_taxonomy(&ds.taxonomy, None),
    )?;
    std::fs::write(
        dir.join("database.txt"),
        tsg_graph::io::write_database(&ds.database),
    )?;
    let s = ds.database.stats();
    writeln!(
        out,
        "wrote {} ({} graphs, {} concepts) to {}",
        id,
        s.graph_count,
        ds.taxonomy.present_count(),
        dir.display()
    )?;
    Ok(())
}

/// Parses a Table 1 dataset id like `D1000`, `NC20`, `ED09`, `TD8`,
/// `TS400`, `PTE`.
pub fn parse_dataset_id(s: &str) -> Result<tsg_datagen::registry::DatasetId, CliError> {
    use tsg_datagen::registry::DatasetId;
    let bad = || err(format!("unknown dataset id {s:?} (see Table 1: D1000…D5000, NC10…NC40, ED06…ED11, TD5…TD15, TS25…TS3200, PTE)"));
    if s == "PTE" {
        return Ok(DatasetId::PTE);
    }
    if let Some(rest) = s.strip_prefix("NC") {
        return rest.parse().map(DatasetId::NC).map_err(|_| bad());
    }
    if let Some(rest) = s.strip_prefix("ED") {
        let pct: u32 = rest.parse().map_err(|_| bad())?;
        return Ok(DatasetId::ED(pct as f64 / 100.0));
    }
    if let Some(rest) = s.strip_prefix("TD") {
        return rest.parse().map(DatasetId::TD).map_err(|_| bad());
    }
    if let Some(rest) = s.strip_prefix("TS") {
        return rest.parse().map(DatasetId::TS).map_err(|_| bad());
    }
    if let Some(rest) = s.strip_prefix("D") {
        return rest.parse().map(DatasetId::D).map_err(|_| bad());
    }
    Err(bad())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> (i32, String) {
        let raw: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&raw, &mut buf);
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn help_prints_usage() {
        let (code, out) = run_capture(&["help"]);
        assert_eq!(code, 0);
        assert!(out.contains("usage"));
    }

    #[test]
    fn unknown_subcommand_fails() {
        let (code, out) = run_capture(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown subcommand"));
    }

    #[test]
    fn missing_flags_fail() {
        let (code, out) = run_capture(&["mine", "--support", "0.5"]);
        assert_eq!(code, 2);
        assert!(out.contains("--taxonomy"));
        let (code, _) = run_capture(&["mine", "--support"]);
        assert_eq!(code, 2);
    }

    #[test]
    fn parse_dataset_ids() {
        use tsg_datagen::registry::DatasetId;
        assert_eq!(parse_dataset_id("D1000").unwrap(), DatasetId::D(1000));
        assert_eq!(parse_dataset_id("NC20").unwrap(), DatasetId::NC(20));
        assert_eq!(parse_dataset_id("ED09").unwrap(), DatasetId::ED(0.09));
        assert_eq!(parse_dataset_id("TD8").unwrap(), DatasetId::TD(8));
        assert_eq!(parse_dataset_id("TS400").unwrap(), DatasetId::TS(400));
        assert_eq!(parse_dataset_id("PTE").unwrap(), DatasetId::PTE);
        assert!(parse_dataset_id("X9").is_err());
        assert!(parse_dataset_id("Dxx").is_err());
    }

    #[test]
    fn generate_stats_mine_round_trip() {
        let dir = std::env::temp_dir().join(format!("taxogram-cli-test-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let (code, out) = run_capture(&[
            "generate", "--dataset", "TS25", "--scale", "0.01", "--out", &dirs,
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("wrote TS25"));
        let taxf = dir.join("taxonomy.txt").to_string_lossy().to_string();
        let dbf = dir.join("database.txt").to_string_lossy().to_string();

        let (code, out) = run_capture(&["stats", "--database", &dbf]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("Graphs"));

        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# mined"), "{out}");

        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--algorithm", "tacgm",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("candidates generated"), "{out}");

        // Parallel and sharded modes produce the same pattern count.
        let (code, serial_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3",
        ]);
        assert_eq!(code, 0);
        let (code, par_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--threads", "4",
        ]);
        assert_eq!(code, 0);
        let count = |s: &str| s.lines().filter(|l| !l.starts_with('#')).count();
        assert_eq!(count(&serial_out), count(&par_out));
        let (code, son_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--shards", "3",
        ]);
        assert_eq!(code, 0, "{son_out}");
        assert!(son_out.contains("shards"), "{son_out}");
        assert_eq!(count(&serial_out), count(&son_out), "same pattern count either way");

        // DOT export writes pattern files.
        let dotdir = dir.join("dots").to_string_lossy().to_string();
        let (code, _) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--dot-dir", &dotdir,
        ]);
        assert_eq!(code, 0);
        let wrote = std::fs::read_dir(&dotdir).unwrap().count();
        assert!(wrote > 0, "dot files written");

        // Post-filters never grow the set and parse their arguments.
        for filter in ["closed", "maximal", "interesting:1.0"] {
            let (code, fout) = run_capture(&[
                "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
                "--max-edges", "3", "--filter", filter,
            ]);
            assert_eq!(code, 0, "{fout}");
            assert!(fout.contains("after filter"), "{fout}");
            assert!(count(&fout) <= count(&serial_out), "{filter} filtered up?");
        }
        let (code, fout) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--filter", "bogus",
        ]);
        assert_eq!(code, 2);
        assert!(fout.contains("--filter"), "{fout}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_mine_matches_serial_and_cleans_spill() {
        let dir = std::env::temp_dir().join(format!("taxogram-cli-shard-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let (code, out) = run_capture(&[
            "generate", "--dataset", "TS25", "--scale", "0.01", "--out", &dirs,
        ]);
        assert_eq!(code, 0, "{out}");
        let taxf = dir.join("taxonomy.txt").to_string_lossy().to_string();
        let dbf = dir.join("database.txt").to_string_lossy().to_string();
        let spilldir = dir.join("spill");
        std::fs::create_dir_all(&spilldir).unwrap();
        let spills = spilldir.to_string_lossy().to_string();
        let pattern_lines = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };

        let (code, serial_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3",
        ]);
        assert_eq!(code, 0, "{serial_out}");

        // Sharded multi-threaded mining emits the same patterns and
        // leaves no spill files behind.
        let (code, shard_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--shards", "4", "--threads", "2",
            "--spill-dir", &spills,
        ]);
        assert_eq!(code, 0, "{shard_out}");
        assert!(shard_out.contains("shards"), "{shard_out}");
        assert!(shard_out.contains("bound-pruned"), "{shard_out}");
        assert!(shard_out.contains("recounts"), "{shard_out}");
        assert!(shard_out.contains("# termination: completed"), "{shard_out}");
        assert_eq!(
            pattern_lines(&serial_out),
            pattern_lines(&shard_out),
            "sharded pattern listing must match the serial listing line-for-line"
        );
        assert_eq!(
            std::fs::read_dir(&spilldir).unwrap().count(),
            0,
            "spill files must be cleaned up"
        );

        // Sharding composes with governance: an expired deadline reports
        // truthfully and still cleans up.
        let (code, gov_out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--shards", "4", "--time-limit", "0",
            "--spill-dir", &spills,
        ]);
        assert_eq!(code, 0, "{gov_out}");
        assert!(gov_out.contains("# termination: deadline exceeded"), "{gov_out}");
        assert_eq!(std::fs::read_dir(&spilldir).unwrap().count(), 0);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Generates TS25 at scale 0.01 into a fresh temp dir named after
    /// `tag`; returns the dir and the taxonomy and database paths.
    fn ts25(tag: &str) -> (std::path::PathBuf, String, String) {
        let dir = std::env::temp_dir().join(format!("taxogram-cli-{tag}-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let (code, out) = run_capture(&[
            "generate", "--dataset", "TS25", "--scale", "0.01", "--out", &dirs,
        ]);
        assert_eq!(code, 0, "{out}");
        let taxf = dir.join("taxonomy.txt").to_string_lossy().to_string();
        let dbf = dir.join("database.txt").to_string_lossy().to_string();
        (dir, taxf, dbf)
    }

    #[test]
    fn sharded_mine_applies_filters() {
        let (dir, taxf, dbf) = ts25("shard-filter");
        let spills = dir.to_string_lossy().to_string();
        let pattern_lines = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| !l.starts_with('#'))
                .map(str::to_string)
                .collect()
        };
        let base = [
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3",
        ];
        let (_, all) = run_capture(&base);
        for filter in ["maximal", "closed"] {
            let mut plain = base.to_vec();
            plain.extend(["--filter", filter]);
            let mut sharded = plain.clone();
            sharded.extend(["--shards", "3", "--spill-dir", &spills]);
            let (code, plain_out) = run_capture(&plain);
            assert_eq!(code, 0, "{plain_out}");
            let (code, shard_out) = run_capture(&sharded);
            assert_eq!(code, 0, "{shard_out}");
            if filter == "maximal" {
                assert!(
                    pattern_lines(&plain_out).len() < pattern_lines(&all).len(),
                    "--filter maximal must drop patterns on this input"
                );
            }
            assert_eq!(
                pattern_lines(&plain_out),
                pattern_lines(&shard_out),
                "--filter {filter}: sharded listing must match the unsharded one"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn step3_counters_agree_across_engines() {
        let (dir, taxf, dbf) = ts25("step3");
        let spills = dir.to_string_lossy().to_string();
        let base = [
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3",
        ];
        let step_line = |step: &str, extra: &[&str]| -> Option<String> {
            let mut args = base.to_vec();
            args.extend(extra);
            let (code, out) = run_capture(&args);
            assert_eq!(code, 0, "{out}");
            out.lines()
                .find(|l| l.starts_with(&format!("# step {step}: ")))
                .map(str::to_string)
        };
        let serial = step_line("3", &[]).expect("serial step 3 line");
        assert!(!serial.contains("# step 3: 0 vectors"), "{serial}");
        assert_eq!(step_line("3", &["--threads", "2"]), Some(serial.clone()));
        let sharded = ["--shards", "3", "--spill-dir", &spills];
        assert_eq!(step_line("3", &sharded), Some(serial));
        let serial = step_line("2", &[]).expect("serial step 2 line");
        assert!(!serial.contains("# step 2: 0 extension keys"), "{serial}");
        assert_eq!(step_line("2", &["--threads", "2"]), Some(serial));
        assert_eq!(step_line("2", &sharded), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mine_rejects_unknown_flag() {
        let (dir, taxf, dbf) = ts25("unknown-flag");
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edge", "1",
        ]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--max-edge"), "{out}");
        let (code, out) = run_capture(&["stats", "--database", &dbf, "--support", "0.4"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--support"), "{out}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs `mine --algorithm tacgm` on TS25 with `extra` flags.
    fn tacgm_with(tag: &str, extra: &[&str]) -> (i32, String) {
        let (dir, taxf, dbf) = ts25(tag);
        let mut args = vec![
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "2", "--algorithm", "tacgm",
        ];
        args.extend(extra);
        let result = run_capture(&args);
        let _ = std::fs::remove_dir_all(&dir);
        result
    }

    #[test]
    fn tacgm_rejects_threads() {
        let (code, out) = tacgm_with("tacgm-threads", &["--threads", "2"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--threads"), "{out}");
        let (code, out) = tacgm_with("tacgm-one-thread", &["--threads", "1"]);
        assert_eq!(code, 0, "{out}");
    }

    #[test]
    fn mine_rejects_threads_above_the_ceiling() {
        // The count is checked before the inputs are read, so nothing is
        // mined and no thread is started.
        let huge = (MAX_THREADS + 1).to_string();
        for bad in [huge.as_str(), "18446744073709551615", "many"] {
            let (code, out) = run_capture(&[
                "mine", "--taxonomy", "no-such-taxonomy", "--database", "no-such-database",
                "--support", "0.4", "--threads", bad,
            ]);
            assert_eq!(code, 2, "{out}");
            assert!(out.contains("--threads"), "{out}");
        }
    }

    #[test]
    fn tacgm_rejects_shards() {
        let (code, out) = tacgm_with("tacgm-shards", &["--shards", "2"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--shards"), "{out}");
    }

    #[test]
    fn tacgm_rejects_filter() {
        let (code, out) = tacgm_with("tacgm-filter", &["--filter", "closed"]);
        assert_eq!(code, 2, "{out}");
        assert!(out.contains("--filter"), "{out}");
    }

    #[test]
    fn parse_bytes_accepts_suffixes() {
        assert_eq!(parse_bytes("512"), Some(512));
        assert_eq!(parse_bytes("64K"), Some(64 << 10));
        assert_eq!(parse_bytes("8M"), Some(8 << 20));
        assert_eq!(parse_bytes("1g"), Some(1 << 30));
        assert_eq!(parse_bytes(""), None);
        assert_eq!(parse_bytes("x"), None);
        assert_eq!(parse_bytes("-1"), None);
        assert_eq!(parse_bytes("3.5M"), None);
    }

    #[test]
    fn governed_mine_reports_termination() {
        let dir = std::env::temp_dir().join(format!("taxogram-cli-gov-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let (code, out) = run_capture(&[
            "generate", "--dataset", "TS25", "--scale", "0.01", "--out", &dirs,
        ]);
        assert_eq!(code, 0, "{out}");
        let taxf = dir.join("taxonomy.txt").to_string_lossy().to_string();
        let dbf = dir.join("database.txt").to_string_lossy().to_string();

        // A generous pattern budget completes; the report says so.
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--max-patterns", "100000",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# termination: completed"), "{out}");

        // An expired deadline yields a truthful early-stop report, not
        // an error.
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-edges", "3", "--time-limit", "0",
        ]);
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("# termination: deadline exceeded"), "{out}");

        // Bad flag values and unsupported combinations fail cleanly.
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--memory-limit", "lots",
        ]);
        assert_eq!(code, 2);
        assert!(out.contains("--memory-limit"), "{out}");
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", &taxf, "--database", &dbf, "--support", "0.4",
            "--max-patterns", "5", "--algorithm", "tacgm",
        ]);
        assert_eq!(code, 2);
        assert!(out.contains("tacgm"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_round_trip_over_the_wire() {
        use std::io::{BufRead, BufReader, Write as _};

        let dir = std::env::temp_dir().join(format!("taxogram-cli-serve-{}", std::process::id()));
        let dirs = dir.to_string_lossy().to_string();
        let (code, out) = run_capture(&[
            "generate", "--dataset", "TS25", "--scale", "0.01", "--out", &dirs,
        ]);
        assert_eq!(code, 0, "{out}");
        let taxf = dir.join("taxonomy.txt").to_string_lossy().to_string();
        let dbf = dir.join("database.txt").to_string_lossy().to_string();
        let port_file = dir.join("port");
        let pf = port_file.to_string_lossy().to_string();

        // The daemon runs on its own thread with a runtime bound as the
        // backstop; the test stops it sooner via the shutdown op.
        let server = std::thread::spawn({
            let (taxf, dbf, pf) = (taxf.clone(), dbf.clone(), pf.clone());
            move || {
                run_capture(&[
                    "serve", "--taxonomy", &taxf, "--database", &dbf,
                    "--addr", "127.0.0.1:0", "--workers", "1",
                    "--max-runtime-ms", "30000", "--port-file", &pf,
                ])
            }
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let addr: std::net::SocketAddr = loop {
            if let Ok(s) = std::fs::read_to_string(&port_file) {
                if let Ok(a) = s.trim().parse() {
                    break a;
                }
            }
            assert!(std::time::Instant::now() < deadline, "port file never appeared");
            std::thread::sleep(std::time::Duration::from_millis(20));
        };

        let stream = std::net::TcpStream::connect(addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        let mut ask = |frame: &str| -> String {
            writer.write_all(frame.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            line
        };
        assert!(ask(r#"{"op":"ping"}"#).contains("\"pong\""));
        let mined = ask(r#"{"op":"mine","id":"cli","theta":1.0}"#);
        assert!(mined.contains("\"result\""), "{mined}");
        assert!(mined.contains("\"cli\""), "{mined}");
        assert!(ask(r#"{"op":"shutdown"}"#).contains("shutdown-ack"));

        let (code, out) = server.join().expect("server thread");
        assert_eq!(code, 0, "{out}");
        assert!(out.contains("listening on"), "{out}");
        assert!(out.contains("drained clean"), "{out}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mine_rejects_bad_support() {
        let (code, out) = run_capture(&[
            "mine", "--taxonomy", "/nonexistent", "--database", "/nonexistent",
            "--support", "abc",
        ]);
        assert_eq!(code, 2);
        assert!(!out.is_empty());
    }
}
