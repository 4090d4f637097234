//! Taxonomy scaling report and CI smoke gate for the interval-labeled
//! reachability layer.
//!
//! ```text
//! cargo run --release -p tsg-bench --bin taxonomy_scale           # full report: 10⁵ and 10⁶
//! cargo run --release -p tsg-bench --bin taxonomy_scale -- --smoke
//! ```
//!
//! `--smoke` builds a 10⁵-concept generated taxonomy and **fails** with
//! exit code 1 if the build takes ≥ 2 s or the closure storage exceeds
//! 50 MB — the `scripts/ci.sh` tripwire against reintroducing quadratic
//! closure state. The full report also measures 10⁶ concepts at two
//! cross-link densities and prints a JSON array of rows.

use tsg_bench::taxscale::{dense_equivalent_bytes, measure, spot_check};
use tsg_datagen::{generate_scaled_taxonomy, ScaledTaxonomyConfig};

const SMOKE_CONCEPTS: usize = 100_000;
const SMOKE_BUILD_MS_LIMIT: f64 = 2_000.0;
const SMOKE_CLOSURE_BYTES_LIMIT: usize = 50 << 20;

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    if smoke {
        let row = measure(SMOKE_CONCEPTS, 50, 42);
        spot_check(&generate_scaled_taxonomy(&ScaledTaxonomyConfig {
            concepts: SMOKE_CONCEPTS,
            cross_links_per_mille: 50,
            seed: 42,
        }));
        println!(
            "taxonomy_scale smoke: {} concepts built in {:.1} ms, closure bytes {} ({:.2} MB), is_ancestor {:.2} ns",
            row.concepts,
            row.build_ms,
            row.closure_bytes,
            row.closure_bytes as f64 / (1 << 20) as f64,
            row.is_ancestor_ns,
        );
        let mut failed = false;
        if row.build_ms >= SMOKE_BUILD_MS_LIMIT {
            eprintln!(
                "FAIL: build took {:.1} ms (limit {SMOKE_BUILD_MS_LIMIT} ms)",
                row.build_ms
            );
            failed = true;
        }
        if row.closure_bytes >= SMOKE_CLOSURE_BYTES_LIMIT {
            eprintln!(
                "FAIL: closure storage {} bytes (limit {SMOKE_CLOSURE_BYTES_LIMIT})",
                row.closure_bytes
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
        println!("taxonomy_scale smoke: OK");
        return;
    }

    let rows = [
        measure(100_000, 0, 42),
        measure(100_000, 50, 42),
        measure(1_000_000, 0, 42),
        measure(1_000_000, 50, 42),
    ];
    println!("[");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        println!("{}{comma}", row.to_json(2));
    }
    println!("]");
    for row in &rows {
        eprintln!(
            "# {} concepts, {}‰ cross-links: build {:.1} ms, closures {:.2} MB (dense equivalent {:.1} GB), is_ancestor {:.2} ns (chain {:.2} ns), closure query {:.1} ns",
            row.concepts,
            row.cross_links_per_mille,
            row.build_ms,
            row.closure_bytes as f64 / (1 << 20) as f64,
            dense_equivalent_bytes(row.concepts) as f64 / (1u64 << 30) as f64,
            row.is_ancestor_ns,
            row.is_ancestor_chain_ns,
            row.closure_query_ns,
        );
    }
}
