//! Regenerates every table and figure of the paper's evaluation (§4).
//!
//! ```text
//! cargo run --release -p tsg-bench --bin experiments -- --exp all --scale quick
//! cargo run --release -p tsg-bench --bin experiments -- --exp fig4_2 --scale medium
//! cargo run --release -p tsg-bench --bin experiments -- --exp fig4_7 --threads 4
//! ```
//!
//! `--threads N` (default 1) runs the Taxogram columns of `fig4_2` and
//! `fig4_7` on the streaming pipelined engine with N workers; 1 keeps the
//! paper-faithful serial miner.
//!
//! Experiments: `table1`, `fig4_2`, `fig4_3`, `fig4_4`, `fig4_5`,
//! `fig4_6`, `fig4_7`, `table2`, `fig4_8`, `ablation`, `parallel`,
//! `governed`, `all`.
//!
//! The `governed` experiment runs the serial and pipelined engines on
//! D1000/θ=0.2 under a resource budget and reports the truthful
//! termination of each, next to the serial engine with governance off
//! and the governed serial run's overhead over it (median ratio of
//! back-to-back pairs; with no budget flags this is the pure cost of
//! governance):
//!
//! ```text
//! cargo run --release -p tsg-bench --bin experiments -- --exp governed --time-limit 0.5
//! cargo run --release -p tsg-bench --bin experiments -- --exp governed --memory-limit 64K --max-patterns 100
//! ```
//!
//! `--time-limit SECONDS` (fractional ok), `--memory-limit BYTES[K|M|G]`,
//! and `--max-patterns N` shape the budget; with none given the budget is
//! unlimited and every engine must complete untouched.

use tsg_bench::report::{ms, render_table};
use tsg_bench::{experiments as exp, Profile};

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };
    let which = get("--exp", "all");
    let profile = match Profile::by_name(&get("--scale", "quick")) {
        Some(p) => p,
        None => {
            eprintln!("unknown scale; use quick | medium | full");
            std::process::exit(2);
        }
    };
    let threads: usize = match get("--threads", "1").parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("--threads must be an integer");
            std::process::exit(2);
        }
    };
    println!(
        "# Taxogram experiment suite — profile {} (scale {}, TAcGM budget {} MiB, {} thread{})\n",
        profile.name,
        profile.scale,
        profile.tacgm_budget_bytes >> 20,
        threads,
        if threads == 1 { "" } else { "s" }
    );

    let mut budget = taxogram_core::Budget::unlimited();
    let time_limit = get("--time-limit", "");
    if !time_limit.is_empty() {
        match time_limit.parse::<f64>() {
            Ok(secs) if secs >= 0.0 && secs.is_finite() => {
                budget = budget.deadline(std::time::Duration::from_secs_f64(secs));
            }
            _ => {
                eprintln!("--time-limit must be a non-negative number of seconds");
                std::process::exit(2);
            }
        }
    }
    let memory_limit = get("--memory-limit", "");
    if !memory_limit.is_empty() {
        match parse_bytes(&memory_limit) {
            Some(bytes) => budget = budget.max_peak_bytes(bytes),
            None => {
                eprintln!("--memory-limit must be BYTES with an optional K/M/G suffix");
                std::process::exit(2);
            }
        }
    }
    let max_patterns = get("--max-patterns", "");
    if !max_patterns.is_empty() {
        match max_patterns.parse::<usize>() {
            Ok(n) => budget = budget.max_patterns(n),
            Err(_) => {
                eprintln!("--max-patterns must be an integer");
                std::process::exit(2);
            }
        }
    }
    let govern = taxogram_core::GovernOptions::with_budget(budget);

    let known = [
        "table1", "fig4_2", "fig4_3", "fig4_4", "fig4_5", "fig4_6", "fig4_7", "table2", "fig4_8",
        "ablation", "parallel", "governed",
    ];
    let run_all = which == "all";
    if !run_all && !known.contains(&which.as_str()) {
        eprintln!("unknown experiment {which:?}; one of {known:?} or all");
        std::process::exit(2);
    }
    let want = |name: &str| run_all || which == name;

    if want("table1") {
        section("Table 1 — dataset properties");
        let rows: Vec<Vec<String>> = exp::table1(&profile)
            .into_iter()
            .map(|(id, s)| {
                vec![
                    id,
                    s.graph_count.to_string(),
                    format!("{:.1}", s.avg_nodes),
                    format!("{:.1}", s.avg_edges),
                    s.distinct_node_labels.to_string(),
                    format!("{:.2}", s.avg_edge_density),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["DB Id", "Graphs", "AvgNodes", "AvgEdges", "DistLabels", "AvgDensity"],
                &rows
            )
        );
    }

    if want("fig4_2") {
        section("Figure 4.2 — running time vs database size (θ = 0.2)");
        print_algo_rows(&exp::fig4_2(&profile, threads));
    }
    if want("fig4_3") {
        section("Figure 4.3 — running time vs max graph size (θ = 0.2)");
        print_algo_rows(&exp::fig4_3(&profile));
    }
    if want("fig4_4") {
        section("Figure 4.4 — running time / pattern count vs edge density");
        print_count_rows("density", &exp::fig4_4(&profile));
    }
    if want("fig4_5") {
        section("Figure 4.5 — running time / pattern count vs taxonomy depth");
        print_count_rows("depth", &exp::fig4_5(&profile));
    }
    if want("fig4_6") {
        section("Figure 4.6 — running time / pattern count vs taxonomy size");
        print_count_rows("concepts", &exp::fig4_6(&profile));
    }
    if want("fig4_7") {
        section("Figure 4.7 — Taxogram vs TAcGM across support thresholds (D4000)");
        let rows: Vec<Vec<String>> = exp::fig4_7(&profile, threads)
            .into_iter()
            .map(|r| {
                vec![
                    format!("{:.2}", r.theta),
                    ms(r.taxogram_ms),
                    r.tacgm.map(ms).unwrap_or_else(|e| e),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["support", "Taxogram", "TAcGM", "patterns"], &rows)
        );
    }
    if want("table2") {
        section("Table 2 — 25 metabolic pathways × 30 organisms (θ = 0.2)");
        let rows: Vec<Vec<String>> = exp::table2(&profile)
            .into_iter()
            .map(|r| {
                vec![
                    r.name.to_string(),
                    ms(r.time_ms),
                    r.patterns.to_string(),
                    format!("{:.2}", r.avg_nodes),
                    format!("{:.2}", r.avg_edges),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["Pathway", "Time", "Patterns", "AvgNodes", "AvgEdges"],
                &rows
            )
        );
    }
    if want("fig4_8") {
        section("Figure 4.8 — PTE data across support thresholds");
        print_count_rows("support×100", &exp::fig4_8(&profile));
    }
    if want("parallel") {
        section("Parallel scaling (beyond the paper) — pipelined engine on D3000");
        let rows: Vec<Vec<String>> = exp::parallel_scaling(&profile)
            .into_iter()
            .map(|r| {
                vec![
                    r.threads.to_string(),
                    ms(r.pipelined_ms),
                    r.steals.to_string(),
                    format!("{}KiB", r.pipelined_emb_bytes >> 10),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["threads", "pipelined", "steals", "piped emb", "patterns"],
                &rows
            )
        );
    }
    if want("governed") {
        section(
            "Governed runs (beyond the paper) — serial and pipelined under one budget on D1000",
        );
        let (rows, overhead_pct) = exp::governed(&profile, threads, &govern);
        let rows: Vec<Vec<String>> = rows
            .into_iter()
            .map(|r| {
                vec![
                    r.engine.to_string(),
                    ms(r.time_ms),
                    r.patterns.to_string(),
                    r.reason,
                    r.finished.to_string(),
                    r.abandoned.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["engine", "time", "patterns", "termination", "finished", "abandoned"],
                &rows
            )
        );
        match overhead_pct {
            Some(pct) => {
                println!("governance overhead (serial, governed vs ungoverned): {pct:+.2}%");
            }
            None => println!("governance overhead: n/a (the budget stopped the serial run)"),
        }
    }
    if want("ablation") {
        section("Ablation (beyond the paper) — per-enhancement cost on D2000");
        let rows: Vec<Vec<String>> = exp::ablation(&profile)
            .into_iter()
            .map(|r| {
                vec![
                    r.config.to_string(),
                    ms(r.time_ms),
                    r.intersections.to_string(),
                    r.vectors.to_string(),
                    format!("{}KiB", r.peak_oi_bytes >> 10),
                    r.patterns.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(
                &["config", "time", "intersections", "vectors", "peak OI", "patterns"],
                &rows
            )
        );
    }
}

fn section(title: &str) {
    println!("\n## {title}\n");
}

/// Byte counts with an optional K/M/G (binary) suffix, as in the CLI's
/// `--memory-limit`.
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

fn print_algo_rows(rows: &[exp::AlgoRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.label.clone(),
                ms(r.taxogram_ms),
                ms(r.baseline_ms),
                r.tacgm.as_ref().map(|&t| ms(t)).unwrap_or_else(|e| e.clone()),
                r.patterns.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(&["dataset", "Taxogram", "Baseline", "TAcGM", "patterns"], &table)
    );
}

fn print_count_rows(xlabel: &str, rows: &[exp::CountRow]) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.label.clone(), ms(r.time_ms), r.patterns.to_string()])
        .collect();
    println!("{}", render_table(&[xlabel, "time", "patterns"], &table));
}
