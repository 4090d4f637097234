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

/// Renders a taxonomy as a directed DOT document (edges point child →
/// parent, the paper's is-a direction).
pub fn to_dot(taxonomy: &Taxonomy, name: &str, names: Option<&LabelTable>) -> String {
    use std::fmt::Write as _;
    let ident: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    let mut out = String::new();
    let _ = writeln!(out, "digraph {ident} {{");
    let _ = writeln!(out, "  rankdir=BT;");
    let _ = writeln!(out, "  node [shape=box, fontsize=11];");
    for c in taxonomy.concepts() {
        let label = names
            .and_then(|n| n.name(c))
            .map(str::to_owned)
            .unwrap_or_else(|| c.to_string());
        let style = if taxonomy.is_artificial(c) { ", style=dashed" } else { "" };
        let _ = writeln!(
            out,
            "  c{c} [label=\"{}\"{style}];",
            label.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    for (child, parent) in taxonomy.edge_list() {
        let _ = writeln!(out, "  c{child} -> c{parent};");
    }
    out.push_str("}\n");
    out
}

/// An NCBI taxonomy loaded from `nodes.dmp`: the is-a structure plus the
/// original NCBI tax-ids and ranks, with a lookup index from tax-id to
/// dense concept id.
#[derive(Clone, Debug)]
pub struct NcbiTaxonomy {
    /// The parsed taxonomy; concept ids are dense in file order.
    pub taxonomy: Taxonomy,
    /// NCBI tax-id per concept id.
    pub tax_ids: Vec<u64>,
    /// Rank string per concept id (e.g. `species`, `genus`, `no rank`).
    pub ranks: Vec<String>,
    /// Lookup from NCBI tax-id to dense concept id.
    pub index: std::collections::HashMap<u64, NodeLabel>,
}

/// Parses the NCBI taxonomy `nodes.dmp` format: one node per line, fields
/// separated by `\t|\t` and lines terminated with `\t|`. Only the first
/// three fields are read — `tax_id | parent tax_id | rank` — and the
/// parser is tolerant of plain `|` separators and missing trailing
/// terminators. The root node is self-parented in the dump (`1 | 1`) and
/// becomes a taxonomy root rather than a self-is-a error.
///
/// Concept ids are assigned densely in file order, so a round-trip
/// through [`NcbiTaxonomy::index`] recovers the original tax-ids.
///
/// # Errors
/// Returns [`GraphError::Parse`] with a line number for short records,
/// non-numeric ids, duplicate tax-ids, parents that never appear in the
/// file, or is-a cycles.
pub fn read_ncbi_nodes(text: &str) -> Result<NcbiTaxonomy, GraphError> {
    let parse = |line: usize, msg: String| GraphError::Parse { line, msg };

    let mut tax_ids: Vec<u64> = Vec::new();
    // (parent tax_id, source line) per record, for errors found after the scan.
    let mut parents: Vec<(u64, usize)> = Vec::new();
    let mut ranks: Vec<String> = Vec::new();
    let mut index: std::collections::HashMap<u64, NodeLabel> =
        std::collections::HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut fields = raw.split('|').map(str::trim);
        let mut int = |what: &str| -> Result<u64, GraphError> {
            let field = fields
                .next()
                .ok_or_else(|| parse(lineno, format!("missing {what} field")))?;
            field
                .parse()
                .map_err(|_| parse(lineno, format!("bad {what} {field:?}")))
        };
        let tax_id = int("tax_id")?;
        let parent = int("parent tax_id")?;
        let rank = fields.next().unwrap_or("no rank").to_owned();
        let concept = NodeLabel(tax_ids.len() as u32);
        if index.insert(tax_id, concept).is_some() {
            return Err(parse(lineno, format!("duplicate tax_id {tax_id}")));
        }
        tax_ids.push(tax_id);
        parents.push((parent, lineno));
        ranks.push(rank);
    }

    let mut builder = TaxonomyBuilder::with_concepts(tax_ids.len());
    for (i, &(parent, lineno)) in parents.iter().enumerate() {
        if parent == tax_ids[i] { // tsg-lint: allow(index) — i enumerates parents, built in lockstep with tax_ids
            continue; // the dump's self-parented root
        }
        let Some(&p) = index.get(&parent) else {
            return Err(parse(
                lineno,
                format!("parent tax_id {parent} never declared"),
            ));
        };
        builder
            .is_a(NodeLabel(i as u32), p)
            .map_err(|e| parse(lineno, e.to_string()))?;
    }
    let taxonomy = builder
        .build()
        .map_err(|e| parse(0, e.to_string()))?;
    Ok(NcbiTaxonomy { taxonomy, tax_ids, ranks, index })
}

/// Parses the NCBI `names.dmp` format and returns a [`LabelTable`] whose
/// entries line up with the dense concept ids of a taxonomy previously
/// loaded via [`read_ncbi_nodes`] — `table.name(concept)` is the display
/// name of that concept.
///
/// The format is one name record per line, `tax_id | name_txt |
/// unique name | name class`, with the same `\t|\t` separators and `\t|`
/// terminator as `nodes.dmp` (plain `|` separators are tolerated too).
/// A tax-id usually carries several records — synonyms, common names,
/// authorities — of which exactly one per id has the class
/// `scientific name`; that one is chosen, falling back to the first
/// record seen when a trimmed dump carries no scientific name.
///
/// [`LabelTable`] requires names to be unique, while NCBI scientific
/// names occasionally collide across tax-ids. Collisions are resolved in
/// concept order: the first holder keeps the plain name, later ones use
/// the record's `unique name` field when it is present and itself
/// unused, else `"<name> (<tax_id>)"`. Concepts with no record at all
/// (again, trimmed dumps) are named `taxid-<id>`. Records for tax-ids
/// absent from `ncbi` are skipped, so a names dump may be a superset of
/// the nodes dump.
///
/// # Errors
/// Returns [`GraphError::Parse`] with a line number for records missing
/// the name field, an empty `name_txt`, or a non-numeric tax-id, and a
/// line-0 error if disambiguation still cannot make a name unique.
pub fn read_ncbi_names(text: &str, ncbi: &NcbiTaxonomy) -> Result<LabelTable, GraphError> {
    let parse = |line: usize, msg: String| GraphError::Parse { line, msg };

    // tax_id → (name, unique name, saw-scientific-class).
    let mut chosen: std::collections::HashMap<u64, (String, String, bool)> =
        std::collections::HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let lineno = idx + 1;
        if raw.trim().is_empty() {
            continue;
        }
        let mut fields = raw.split('|').map(str::trim);
        let tax_field = fields.next().unwrap_or("");
        let tax_id: u64 = tax_field
            .parse()
            .map_err(|_| parse(lineno, format!("bad tax_id {tax_field:?}")))?;
        let name_txt = fields
            .next()
            .ok_or_else(|| parse(lineno, "missing name_txt field".to_owned()))?;
        if name_txt.is_empty() {
            return Err(parse(lineno, "empty name_txt".to_owned()));
        }
        let unique = fields.next().unwrap_or("");
        let class = fields.next().unwrap_or("");
        if !ncbi.index.contains_key(&tax_id) {
            continue;
        }
        let scientific = class == "scientific name";
        match chosen.entry(tax_id) {
            std::collections::hash_map::Entry::Occupied(mut e) => {
                if scientific && !e.get().2 {
                    e.insert((name_txt.to_owned(), unique.to_owned(), true));
                }
            }
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert((name_txt.to_owned(), unique.to_owned(), scientific));
            }
        }
    }

    let mut names = LabelTable::new();
    for (i, &tax_id) in ncbi.tax_ids.iter().enumerate() {
        let (mut name, unique, _) = chosen
            .remove(&tax_id)
            .unwrap_or_else(|| (format!("taxid-{tax_id}"), String::new(), false));
        if names.get(&name).is_some() {
            name = if !unique.is_empty() && names.get(unique.as_str()).is_none() {
                unique
            } else {
                format!("{name} ({tax_id})")
            };
        }
        let interned = names.intern(&name);
        if interned != NodeLabel(i as u32) {
            return Err(parse(
                0,
                format!("cannot disambiguate name {name:?} for tax_id {tax_id}"),
            ));
        }
    }
    Ok(names)
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

    /// A hand-trimmed `nodes.dmp` excerpt in the real NCBI shape:
    /// `tax_id \t|\t parent \t|\t rank \t|\t ...trailing fields... \t|`.
    const NODES_DMP: &str = "\
1\t|\t1\t|\tno rank\t|\t\t|\t8\t|\t0\t|\t1\t|\t0\t|\t0\t|\t0\t|\t0\t|\t0\t|\t\t|
131567\t|\t1\t|\tno rank\t|\t\t|\t8\t|\t1\t|\t1\t|\t0\t|\t0\t|\t0\t|\t0\t|\t0\t|\t\t|
2\t|\t131567\t|\tsuperkingdom\t|\t\t|\t0\t|\t0\t|\t11\t|\t0\t|\t0\t|\t0\t|\t0\t|\t0\t|\t\t|
9606\t|\t131567\t|\tspecies\t|\tHS\t|\t5\t|\t1\t|\t1\t|\t1\t|\t2\t|\t1\t|\t1\t|\t0\t|\t\t|
";

    #[test]
    fn ncbi_nodes_reader_builds_a_rooted_tree() {
        let ncbi = read_ncbi_nodes(NODES_DMP).unwrap();
        let t = &ncbi.taxonomy;
        assert_eq!(t.concept_count(), 4);
        assert_eq!(ncbi.tax_ids, vec![1, 131567, 2, 9606]);
        assert_eq!(ncbi.ranks[2], "superkingdom");
        assert_eq!(ncbi.ranks[3], "species");
        let root = ncbi.index[&1];
        let cellular = ncbi.index[&131567];
        let human = ncbi.index[&9606];
        assert_eq!(t.roots(), &[root], "self-parented node 1 is the root");
        assert!(t.is_ancestor(root, human));
        assert!(t.is_ancestor(cellular, human));
        assert!(!t.is_ancestor(human, cellular));
        assert_eq!(t.cross_link_concepts(), 0, "NCBI is a pure tree");
        assert_eq!(t.depth(human), 2);
    }

    #[test]
    fn ncbi_nodes_reader_tolerates_bare_pipes_and_rejects_garbage() {
        // Plain `|` separators without tabs also parse.
        let ncbi = read_ncbi_nodes("1|1|no rank\n7|1|genus\n").unwrap();
        assert_eq!(ncbi.taxonomy.concept_count(), 2);
        assert_eq!(ncbi.index[&7], tsg_graph::NodeLabel(1));
        // Missing fields, bad numbers, duplicates, unknown parents.
        assert!(matches!(
            read_ncbi_nodes("1\t|\n").unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_ncbi_nodes("x\t|\t1\t|\trank\t|\n").unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_ncbi_nodes("1|1|r\n1|1|r\n").unwrap_err(),
            GraphError::Parse { line: 2, .. }
        ));
        // The reported line is the record's own, past any blank line.
        for (text, want) in [("1|1|r\n5|99|r\n", 2), ("1|1|r\n\n5|99|r\n", 3)] {
            match read_ncbi_nodes(text).unwrap_err() {
                GraphError::Parse { line, msg } => {
                    assert_eq!(line, want, "{text:?}");
                    assert!(msg.contains("never declared"), "{msg}");
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A hand-trimmed `names.dmp` excerpt matching [`NODES_DMP`]'s
    /// tax-ids, in the real shape: several records per id, one of them
    /// class `scientific name`.
    const NAMES_DMP: &str = "\
1\t|\tall\t|\t\t|\tsynonym\t|
1\t|\troot\t|\t\t|\tscientific name\t|
131567\t|\tcellular organisms\t|\t\t|\tscientific name\t|
2\t|\teubacteria\t|\t\t|\tgenbank common name\t|
2\t|\tBacteria\t|\tBacteria <bacteria>\t|\tscientific name\t|
9606\t|\thuman\t|\t\t|\tgenbank common name\t|
9606\t|\tHomo sapiens\t|\t\t|\tscientific name\t|
9606\t|\tLOTTE\t|\t\t|\tauthority\t|
";

    #[test]
    fn ncbi_names_reader_picks_scientific_names_in_concept_order() {
        let ncbi = read_ncbi_nodes(NODES_DMP).unwrap();
        let names = read_ncbi_names(NAMES_DMP, &ncbi).unwrap();
        assert_eq!(names.len(), 4);
        // Dense concept order: file order of nodes.dmp, not names.dmp.
        assert_eq!(names.name(ncbi.index[&1]), Some("root"));
        assert_eq!(names.name(ncbi.index[&131567]), Some("cellular organisms"));
        assert_eq!(names.name(ncbi.index[&2]), Some("Bacteria"));
        assert_eq!(names.name(ncbi.index[&9606]), Some("Homo sapiens"));
        // And the reverse lookup resolves to the right concept.
        assert_eq!(names.get("Homo sapiens"), Some(ncbi.index[&9606]));
    }

    #[test]
    fn ncbi_names_reader_tolerates_trimmed_dumps() {
        let ncbi = read_ncbi_nodes(NODES_DMP).unwrap();
        // 131567 has only a synonym (first record wins), 9606 has no
        // record at all, and tax-id 424242 is not in the nodes dump.
        let trimmed = "\
1|root|  |scientific name
131567|biota|  |synonym
424242|ghost|  |scientific name
2|Bacteria|  |scientific name
";
        let names = read_ncbi_names(trimmed, &ncbi).unwrap();
        assert_eq!(names.name(ncbi.index[&131567]), Some("biota"));
        assert_eq!(names.name(ncbi.index[&9606]), Some("taxid-9606"));
        assert_eq!(names.get("ghost"), None, "unknown tax-ids are skipped");
    }

    #[test]
    fn ncbi_names_reader_disambiguates_collisions() {
        // Three taxa all named "Ambiguous": the first keeps the plain
        // name, the second has a unique-name field to fall back on, the
        // third gets the tax-id suffix.
        let nodes = "1|1|no rank\n10|1|genus\n20|1|genus\n30|1|genus\n";
        let names_text = "\
1|root|  |scientific name
10|Ambiguous|  |scientific name
20|Ambiguous|Ambiguous <plant>|scientific name
30|Ambiguous|  |scientific name
";
        let ncbi = read_ncbi_nodes(nodes).unwrap();
        let names = read_ncbi_names(names_text, &ncbi).unwrap();
        assert_eq!(names.name(ncbi.index[&10]), Some("Ambiguous"));
        assert_eq!(names.name(ncbi.index[&20]), Some("Ambiguous <plant>"));
        assert_eq!(names.name(ncbi.index[&30]), Some("Ambiguous (30)"));
    }

    #[test]
    fn ncbi_names_reader_rejects_malformed_records() {
        let ncbi = read_ncbi_nodes("1|1|no rank\n").unwrap();
        assert!(matches!(
            read_ncbi_names("x|name|  |scientific name\n", &ncbi).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        assert!(matches!(
            read_ncbi_names("1\n", &ncbi).unwrap_err(),
            GraphError::Parse { line: 1, .. }
        ));
        let err = read_ncbi_names("1|root|  |scientific name\n1\t|\t\t|\t\t|\tsynonym\t|\n", &ncbi)
            .unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("empty name_txt"), "{msg}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forward_references_in_is_a_are_fine() {
        // `p` lines may appear before all `c` lines… they are deferred.
        let text = "c 0 r\np 1 0\nc 1 k\n";
        let (_, t) = read_taxonomy(text).unwrap();
        assert_eq!(t.concept_count(), 2);
    }
}

#[cfg(test)]
mod dot_tests {
    use super::*;
    use crate::samples;
    use crate::taxonomy_from_edges;

    #[test]
    fn taxonomy_dot_renders_concepts_and_is_a() {
        let (names, t, _) = samples::go_excerpt();
        let dot = to_dot(&t, "go excerpt", Some(&names));
        assert!(dot.starts_with("digraph go_excerpt {"));
        assert!(dot.contains("rankdir=BT"));
        assert!(dot.contains("label=\"molecular function\""));
        assert!(dot.contains("->"));
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn artificial_roots_are_dashed() {
        let t = taxonomy_from_edges(3, [(2, 0), (2, 1)]).unwrap().unify_most_general();
        let dot = to_dot(&t, "multi", None);
        assert!(dot.contains("style=dashed"), "{dot}");
    }
}
