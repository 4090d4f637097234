//! A line-oriented text format for taxonomies, mirroring the graph
//! database format of [`tsg_graph::io`]:
//!
//! ```text
//! # a taxonomy with 3 concepts
//! c 0 molecular-function     # concept 0, optional name
//! c 1 transporter
//! c 2 carrier
//! p 1 0                      # 1 is-a 0
//! p 2 1
//! ```
//!
//! Concept ids must be dense and ascending from 0. Names are optional and
//! returned through a [`LabelTable`]; unnamed concepts get the name
//! `concept-<id>`.

use crate::{Taxonomy, TaxonomyBuilder, TaxonomyError};
use std::fmt::Write as _;
use tsg_graph::{GraphError, LabelTable, NodeLabel};

/// Serializes a taxonomy (with optional names) to the `c`/`p` format.
pub fn write_taxonomy(taxonomy: &Taxonomy, names: Option<&LabelTable>) -> String {
    let mut out = String::new();
    for c in taxonomy.concepts() {
        match names.and_then(|n| n.name(c)) {
            Some(name) => {
                let _ = writeln!(out, "c {c} {name}");
            }
            None => {
                let _ = writeln!(out, "c {c}");
            }
        }
    }
    for (child, parent) in taxonomy.edge_list() {
        let _ = writeln!(out, "p {child} {parent}");
    }
    out
}

/// Parses a taxonomy from the `c`/`p` format.
///
/// # Errors
/// Returns [`GraphError::Parse`] for malformed records; taxonomy-level
/// problems (cycles, duplicate edges) surface as a parse error carrying
/// the underlying [`TaxonomyError`] message.
pub fn read_taxonomy(text: &str) -> Result<(LabelTable, Taxonomy), GraphError> {
    let mut names = LabelTable::new();
    let mut builder = TaxonomyBuilder::new();
    let mut edges: Vec<(NodeLabel, NodeLabel, usize)> = Vec::new();

    let parse = |line: usize, msg: &str| GraphError::Parse {
        line,
        msg: msg.to_owned(),
    };

    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        // Allow trailing comments.
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_ascii_whitespace();
        match parts.next() {
            Some("c") => {
                let id: usize = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| parse(lineno, "bad concept id"))?;
                if id != builder.concept_count() {
                    return Err(parse(
                        lineno,
                        &format!(
                            "concept ids must be dense: expected {}, got {id}",
                            builder.concept_count()
                        ),
                    ));
                }
                // The name is the rest of the line (spaces allowed), not
                // just the next token — truncating "molecular function"
                // to "molecular" both loses data and manufactures bogus
                // duplicate-name collisions.
                let rest: Vec<&str> = parts.collect();
                let name = (!rest.is_empty()).then(|| rest.join(" "));
                let declared = builder.add_concept();
                let interned =
                    names.intern(&name.unwrap_or_else(|| format!("concept-{id}")));
                if declared != interned {
                    return Err(parse(lineno, "duplicate concept name"));
                }
            }
            Some("p") => {
                let mut int = || -> Result<u32, GraphError> {
                    parts
                        .next()
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| parse(lineno, "bad is-a field"))
                };
                let child = NodeLabel(int()?);
                let parent = NodeLabel(int()?);
                if parts.next().is_some() {
                    return Err(parse(lineno, "trailing tokens after is-a record"));
                }
                edges.push((child, parent, lineno));
            }
            Some(other) => return Err(parse(lineno, &format!("unknown record type {other:?}"))),
            None => unreachable!("empty lines filtered above"), // tsg-lint: allow(panic) — empty lines are filtered before the match
        }
    }
    for (child, parent, lineno) in edges {
        builder.is_a(child, parent).map_err(|e| GraphError::Parse {
            line: lineno,
            msg: e.to_string(),
        })?;
    }
    let taxonomy = builder.build().map_err(|e: TaxonomyError| GraphError::Parse {
        line: 0,
        msg: e.to_string(),
    })?;
    Ok((names, taxonomy))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    #[test]
    fn roundtrip_with_names() {
        let (names, taxonomy, _) = samples::go_excerpt();
        let text = write_taxonomy(&taxonomy, Some(&names));
        let (names2, t2) = read_taxonomy(&text).unwrap();
        assert_eq!(t2.concept_count(), taxonomy.concept_count());
        assert_eq!(t2.relationship_count(), taxonomy.relationship_count());
        for c in taxonomy.concepts() {
            assert_eq!(t2.ancestors(c).to_vec(), taxonomy.ancestors(c).to_vec());
            // Names survive verbatim, spaces included.
            assert_eq!(names2.name(c), names.name(c));
        }
    }

    #[test]
    fn roundtrip_without_names() {
        let (_, taxonomy) = samples::sample_taxonomy();
        let text = write_taxonomy(&taxonomy, None);
        let (names, t2) = read_taxonomy(&text).unwrap();
        assert_eq!(t2.concept_count(), taxonomy.concept_count());
        assert_eq!(names.name(tsg_graph::NodeLabel(0)), Some("concept-0"));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\nc 0 root\n\nc 1 kid # trailing\np 1 0\n";
        let (names, t) = read_taxonomy(text).unwrap();
        assert_eq!(t.concept_count(), 2);
        assert_eq!(names.get("kid"), Some(tsg_graph::NodeLabel(1)));
        assert!(t.is_ancestor(tsg_graph::NodeLabel(0), tsg_graph::NodeLabel(1)));
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = read_taxonomy("c 5 x\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
        let err = read_taxonomy("c 0 x\np 0 0\n").unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("own parent"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
        // Cycle is reported at build time (line 0).
        let err = read_taxonomy("c 0 x\nc 1 y\np 0 1\np 1 0\n").unwrap_err();
        match err {
            GraphError::Parse { msg, .. } => assert!(msg.contains("cycle"), "{msg}"),
            other => panic!("unexpected {other:?}"),
        }
        let err = read_taxonomy("z 1\n").unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }));
    }

    #[test]
    fn forward_references_in_is_a_are_fine() {
        // `p` lines may appear before all `c` lines… they are deferred.
        let text = "c 0 r\np 1 0\nc 1 k\n";
        let (_, t) = read_taxonomy(text).unwrap();
        assert_eq!(t.concept_count(), 2);
    }
}

