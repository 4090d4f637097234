//! Byte identity of the result renderer against a `core::fmt` oracle.
//!
//! `render_patterns` and `result_response` measure each response first
//! and write it into one buffer with their own digit writer. The oracle
//! below is the straightforward `write!`-based renderer they replaced,
//! kept verbatim: every byte must match it, every response must parse
//! back, and each buffer must be exactly as large as the size pass
//! predicted (`String::with_capacity` records the requested capacity,
//! so an exact prediction leaves `capacity == len`, plus the one byte
//! reserved for the daemon's `\n` in a `result` line).

use proptest::prelude::*;
use std::borrow::Borrow;
use std::fmt::Write as _;
use taxogram_core::{
    BudgetKind, Pattern, Taxogram, TaxogramConfig, Termination, TerminationReason,
};
use tsg_graph::{EdgeLabel, LabeledGraph, NodeLabel};
use tsg_serve::json::{escape_into, parse, Json};
use tsg_serve::{filter_run, render_patterns, result_response, CacheStatus};

fn oracle_patterns<P: Borrow<Pattern>>(patterns: &[P]) -> String {
    let mut out = String::from("[");
    for (i, p) in patterns.iter().enumerate() {
        let p = p.borrow();
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"support_count\":{},\"labels\":[", p.support_count);
        for (j, l) in p.graph.labels().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", l.0);
        }
        out.push_str("],\"edges\":[");
        for (j, e) in p.graph.edges().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{},{},{}]", e.u, e.v, e.label.0);
        }
        out.push_str("]}");
    }
    out.push(']');
    out
}

fn oracle_reason(reason: &TerminationReason) -> String {
    match reason {
        TerminationReason::Completed => "completed".to_owned(),
        TerminationReason::Cancelled => "cancelled".to_owned(),
        TerminationReason::DeadlineExceeded => "deadline-exceeded".to_owned(),
        TerminationReason::BudgetExceeded { which } => format!("budget-exceeded:{which}"),
    }
}

fn oracle_result<P: Borrow<Pattern>>(
    id: Option<&str>,
    patterns: &[P],
    termination: &Termination,
    min_support_count: usize,
    database_size: usize,
    cache: CacheStatus,
    elapsed_ms: f64,
) -> String {
    let mut out = String::from("{");
    out.push_str("\"id\":");
    match id {
        Some(id) => escape_into(id, &mut out),
        None => out.push_str("null"),
    }
    let _ = write!(
        out,
        ",\"type\":\"result\",\"cache\":\"{}\",\"min_support_count\":{min_support_count},\"database_size\":{database_size},\"patterns\":",
        cache.as_str()
    );
    out.push_str(&oracle_patterns(patterns));
    let _ = write!(
        out,
        ",\"termination\":{{\"reason\":\"{}\",\"complete\":{},\"classes_finished\":{},\"classes_abandoned\":{}}}",
        oracle_reason(&termination.reason),
        termination.is_complete(),
        termination.classes_finished,
        termination.classes_abandoned,
    );
    let _ = write!(out, ",\"elapsed_ms\":{elapsed_ms:.3}}}");
    out
}

/// Checks one rendering of `patterns` against the oracle, its JSON
/// round trip, and its exact size.
fn check_patterns<P: Borrow<Pattern>>(patterns: &[P]) -> Result<(), String> {
    let got = render_patterns(patterns);
    if got != oracle_patterns(patterns) {
        return Err(format!("patterns differ from the oracle: {got}"));
    }
    if got.capacity() != got.len() {
        return Err(format!(
            "patterns buffer {} for {} bytes",
            got.capacity(),
            got.len()
        ));
    }
    let Json::Arr(items) = parse(&got).map_err(|e| e.to_string())? else {
        return Err("patterns are not an array".to_owned());
    };
    if items.len() != patterns.len() {
        return Err(format!(
            "{} items for {} patterns",
            items.len(),
            patterns.len()
        ));
    }
    Ok(())
}

/// As [`check_patterns`], for a whole `result` line.
#[allow(clippy::too_many_arguments)]
fn check_result<P: Borrow<Pattern>>(
    id: Option<&str>,
    patterns: &[P],
    termination: &Termination,
    min_support_count: usize,
    database_size: usize,
    cache: CacheStatus,
    elapsed_ms: f64,
) -> Result<(), String> {
    let got = result_response(
        id,
        patterns,
        termination,
        min_support_count,
        database_size,
        cache,
        elapsed_ms,
    );
    let want = oracle_result(
        id,
        patterns,
        termination,
        min_support_count,
        database_size,
        cache,
        elapsed_ms,
    );
    if got != want {
        return Err(format!(
            "result differs from the oracle:\n got {got}\nwant {want}"
        ));
    }
    if got.capacity() != got.len() + 1 {
        return Err(format!(
            "result buffer {} for {} bytes + newline",
            got.capacity(),
            got.len()
        ));
    }
    let v = parse(&got).map_err(|e| e.to_string())?;
    if v.get("id").and_then(Json::as_str) != id {
        return Err(format!("id did not round-trip: {got}"));
    }
    match v.get("patterns") {
        Some(Json::Arr(items)) if items.len() == patterns.len() => Ok(()),
        _ => Err(format!("patterns did not round-trip: {got}")),
    }
}

/// A `u64` of at most `k` digits for a uniform `k` in 1–20, or `u64::MAX`.
fn arb_u64() -> impl Strategy<Value = u64> {
    (0u32..21, 0u64..u64::MAX).prop_map(|(k, x)| match k {
        0 => u64::MAX,
        20 => x,
        k => x % 10u64.pow(k),
    })
}

/// A `u32` of at most `k` digits for a uniform `k` in 1–10, or `u32::MAX`.
fn arb_u32() -> impl Strategy<Value = u32> {
    (0u32..11, 0u32..u32::MAX).prop_map(|(k, x)| match k {
        0 => u32::MAX,
        10 => x,
        k => x % 10u32.pow(k),
    })
}

fn arb_usize() -> impl Strategy<Value = usize> {
    arb_u64().prop_map(|n| usize::try_from(n).unwrap_or(usize::MAX))
}

/// Patterns with 0–5 nodes and whatever of the drawn edges are legal,
/// so node-only patterns are common.
fn arb_pattern() -> impl Strategy<Value = Pattern> {
    (0usize..6).prop_flat_map(|n| {
        (
            prop::collection::vec(arb_u32(), n),
            prop::collection::vec((0usize..n.max(1), 0usize..n.max(1), arb_u32()), 0..7),
            arb_usize(),
        )
            .prop_map(|(labels, edges, support_count)| {
                let mut graph = LabeledGraph::new();
                for l in labels {
                    graph.add_node(NodeLabel(l));
                }
                for (u, v, l) in edges {
                    let _ = graph.add_edge(u, v, EdgeLabel(l));
                }
                Pattern {
                    graph,
                    support_count,
                    support: 0.5,
                }
            })
    })
}

/// Ids over characters that need every kind of JSON escape, plus
/// multi-byte ones that need none.
fn arb_id() -> impl Strategy<Value = Option<String>> {
    let chars = vec![
        'a', 'Z', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'é',
        '→', '𝄞', '/',
    ];
    (
        prop::bool::ANY,
        prop::collection::vec(prop::sample::select(chars), 0..10),
    )
        .prop_map(|(some, cs)| some.then(|| cs.into_iter().collect()))
}

fn arb_termination() -> impl Strategy<Value = Termination> {
    let reasons = vec![
        TerminationReason::Completed,
        TerminationReason::Cancelled,
        TerminationReason::DeadlineExceeded,
        TerminationReason::BudgetExceeded {
            which: BudgetKind::Memory,
        },
        TerminationReason::BudgetExceeded {
            which: BudgetKind::Patterns,
        },
        TerminationReason::BudgetExceeded {
            which: BudgetKind::Classes,
        },
    ];
    (prop::sample::select(reasons), arb_usize(), arb_usize()).prop_map(
        |(reason, classes_finished, classes_abandoned)| Termination {
            reason,
            classes_finished,
            classes_abandoned,
            frontier: Vec::new(),
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Generated pattern lists (the empty one included) render exactly
    /// as the oracle does, in a buffer of exactly their size.
    #[test]
    fn generated_patterns_render_like_the_oracle(
        patterns in prop::collection::vec(arb_pattern(), 0..6),
    ) {
        prop_assert_eq!(check_patterns(&patterns), Ok(()));
        let borrowed: Vec<&Pattern> = patterns.iter().collect();
        prop_assert_eq!(check_patterns(&borrowed), Ok(()));
    }

    /// Whole `result` lines match the oracle for every id, termination,
    /// count and elapsed time.
    #[test]
    fn generated_results_render_like_the_oracle(
        patterns in prop::collection::vec(arb_pattern(), 0..4),
        id in arb_id(),
        termination in arb_termination(),
        (min_support_count, database_size) in (arb_usize(), arb_usize()),
        cache in prop::sample::select(vec![CacheStatus::Miss, CacheStatus::Hit, CacheStatus::Bypass]),
        elapsed_ms in prop::sample::select(vec![0.0, 0.0005, 1.25, 14.0625, 999.9996, 1.0e12]),
    ) {
        prop_assert_eq!(
            check_result(
                id.as_deref(),
                &patterns,
                &termination,
                min_support_count,
                database_size,
                cache,
                elapsed_ms,
            ),
            Ok(())
        );
    }
}

/// TD15 at scale 0.05 (θ 0.3, ≤ 6 edges): the pattern explosion the
/// `deep-taxonomy` benchmark serves, filtered at four support floors as
/// cache hits filter it.
#[test]
fn td15_filtered_at_four_floors_renders_like_the_oracle() {
    let ds = tsg_datagen::registry::build(tsg_datagen::registry::DatasetId::TD(15), 0.05);
    let cfg = TaxogramConfig::with_threshold(0.3).max_edges(6);
    let run = Taxogram::new(cfg)
        .mine(&ds.database, &ds.taxonomy)
        .expect("TD15 mines");
    assert!(
        run.patterns.len() > 100_000,
        "{} patterns",
        run.patterns.len()
    );
    let done = Termination {
        reason: TerminationReason::Completed,
        classes_finished: run.stats.classes,
        classes_abandoned: 0,
        frontier: Vec::new(),
    };
    for theta in [0.3, 0.4, 0.6, 0.8] {
        let floor = ds.database.min_support_count(theta);
        let patterns = filter_run(&run, floor);
        assert!(!patterns.is_empty(), "θ {theta} keeps no pattern");
        check_patterns(&patterns).unwrap();
        check_result(
            Some("td15"),
            &patterns,
            &done,
            floor,
            ds.database.len(),
            CacheStatus::Hit,
            0.0,
        )
        .unwrap();
    }
}
