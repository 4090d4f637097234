//! Spill files: writing partitions to disk and reading them back.
//!
//! The sharded miner materializes the input database as one length-
//! prefixed binary file per shard ([`tsg_graph::binary`], the `TSGB`
//! format), so each pass holds exactly one shard resident per worker.
//! A [`SpillSet`] owns the files for the duration of the run and removes
//! them on drop — on success, on error, and on early termination alike.
//!
//! Vertex labels are validated against the input taxonomy *while
//! spilling*, in global database order, so a bad label surfaces as the
//! exact [`TaxogramError::LabelNotInTaxonomy`] the serial miner would
//! report, before any mining work starts. Everything that goes wrong at
//! the file layer — a failed write, a truncated or corrupt file on
//! read-back, a missing shard — surfaces as [`TaxogramError::ShardIo`];
//! a damaged shard can never produce a silently short mining result.

// tsg-lint: allow(index) — spill buffers are indexed by offsets the writer itself recorded

use super::ShardFaults;
use crate::error::TaxogramError;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering}; // tsg-lint: allow(facade) — AtomicU64 name ticket; the facade exports no AtomicU64 and a spill-dir suffix needs no model coverage
use tsg_graph::binary::{write_binary_graph, write_binary_header};
use tsg_graph::binary::ShardReader;
use tsg_graph::GraphDatabase;
use tsg_taxonomy::Taxonomy;

/// Distinguishes spill directories of concurrent runs in one process.
static SPILL_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Wraps a shard-level failure as the typed mining error.
pub(crate) fn shard_io(shard: usize, message: impl Into<String>) -> TaxogramError {
    TaxogramError::ShardIo {
        shard,
        message: message.into(),
    }
}

/// The on-disk shard files of one sharded run. Owns a unique directory
/// under the configured spill root; dropping the set deletes the
/// directory.
#[derive(Debug)]
pub(crate) struct SpillSet {
    dir: PathBuf,
    files: Vec<PathBuf>,
    /// `[start, end)` global graph-id range of each shard, in shard order.
    ranges: Vec<(usize, usize)>,
    /// Total bytes written across all shard files.
    pub spilled_bytes: u64,
    /// Size of the largest single shard file — the resident-set unit.
    pub largest_shard_bytes: u64,
}

impl SpillSet {
    pub(crate) fn shard_count(&self) -> usize {
        self.files.len()
    }

    pub(crate) fn range(&self, shard: usize) -> (usize, usize) {
        self.ranges[shard]
    }
}

impl Drop for SpillSet {
    fn drop(&mut self) {
        // Best-effort: a cleanup failure must not panic in a drop
        // (possibly during unwinding from a mining error).
        let _ = fs::remove_dir_all(&self.dir);
    }
}

/// Writes `db` to one binary file per shard under a fresh unique
/// directory inside `parent`, validating every vertex label against
/// `taxonomy` in global database order. `boundaries` are the shards'
/// `[start, end)` graph-id ranges. Injected faults (test-only) fire
/// during the write (`write_error_at_record`) or damage the finished
/// files afterwards.
pub(crate) fn spill(
    db: &GraphDatabase,
    taxonomy: &Taxonomy,
    boundaries: &[(usize, usize)],
    parent: &Path,
    faults: &ShardFaults,
) -> Result<SpillSet, TaxogramError> {
    let dir = parent.join(format!(
        "tsg-spill-{}-{}",
        std::process::id(),
        SPILL_COUNTER.fetch_add(1, Ordering::Relaxed) // tsg-lint: ordering(ORD-14)
    ));
    fs::create_dir_all(&dir).map_err(|e| shard_io(0, format!("create {}: {e}", dir.display())))?;
    // Construct the owning set before the first write so a mid-spill
    // error still cleans up the partial files on the error return path.
    let mut set = SpillSet {
        dir,
        files: Vec::with_capacity(boundaries.len()),
        ranges: boundaries.to_vec(),
        spilled_bytes: 0,
        largest_shard_bytes: 0,
    };
    for (shard, &(start, end)) in boundaries.iter().enumerate() {
        let path = set.dir.join(format!("shard-{shard:04}.tsgb"));
        set.files.push(path.clone());
        let io = |e: std::io::Error| shard_io(shard, format!("write {}: {e}", path.display()));
        let file = fs::File::create(&path).map_err(io)?;
        let mut w = BufWriter::new(file);
        write_binary_header(&mut w, (end - start) as u64).map_err(io)?;
        for gid in start..end {
            if faults.write_error_at_record == Some(gid) {
                return Err(shard_io(
                    shard,
                    format!("injected fault: write error at record {gid}"),
                ));
            }
            let g = &db.graphs()[gid];
            for (node, &label) in g.labels().iter().enumerate() {
                if !taxonomy.contains(label) {
                    return Err(TaxogramError::LabelNotInTaxonomy {
                        graph: gid,
                        node,
                        label,
                    });
                }
            }
            write_binary_graph(&mut w, g).map_err(io)?;
        }
        w.flush().map_err(io)?;
        let bytes = fs::metadata(&path).map_err(io)?.len();
        set.spilled_bytes += bytes;
        set.largest_shard_bytes = set.largest_shard_bytes.max(bytes);
    }
    apply_post_write_faults(&set, faults)?;
    Ok(set)
}

/// Damages finished shard files per the injected fault plan: truncation
/// mid-stream, an absurd length prefix on the first record, or outright
/// deletion. Applied after the spill so the write path itself stays
/// honest — these model external corruption, not writer bugs.
fn apply_post_write_faults(set: &SpillSet, faults: &ShardFaults) -> Result<(), TaxogramError> {
    let io = |shard: usize, e: std::io::Error| shard_io(shard, format!("injecting fault: {e}"));
    if let Some(shard) = faults.truncate_shard {
        let path = &set.files[shard];
        let len = fs::metadata(path).map_err(|e| io(shard, e))?.len();
        let cut = len.saturating_sub((len / 3).max(1));
        fs::OpenOptions::new()
            .write(true)
            .open(path)
            .and_then(|f| f.set_len(cut))
            .map_err(|e| io(shard, e))?;
    }
    if let Some(shard) = faults.corrupt_prefix {
        let path = &set.files[shard];
        let mut bytes = fs::read(path).map_err(|e| io(shard, e))?;
        if bytes.len() >= 20 {
            // Offset 16 is the first record's length prefix (after the
            // 16-byte header): an absurd declared size.
            bytes[16..20].copy_from_slice(&u32::MAX.to_le_bytes());
        } else {
            // An empty shard has no record prefix; break the header.
            bytes.truncate(8);
        }
        fs::write(path, bytes).map_err(|e| io(shard, e))?;
    }
    if let Some(shard) = faults.delete_shard {
        fs::remove_file(&set.files[shard]).map_err(|e| io(shard, e))?;
    }
    Ok(())
}

/// Reads one shard back into memory, mapping every failure — a missing
/// file, a malformed header, a truncated or corrupt record — to
/// [`TaxogramError::ShardIo`]. Defensively cross-checks the declared
/// graph count against the shard's planned range so a swapped or
/// rewritten file cannot smuggle in the wrong partition size.
pub(crate) fn read_shard(set: &SpillSet, shard: usize) -> Result<GraphDatabase, TaxogramError> {
    let path = &set.files[shard];
    let file = fs::File::open(path)
        .map_err(|e| shard_io(shard, format!("open {}: {e}", path.display())))?;
    let reader = ShardReader::new(BufReader::new(file))
        .map_err(|e| shard_io(shard, e.to_string()))?;
    let (start, end) = set.ranges[shard];
    let expected = end - start;
    if reader.graph_count() != expected as u64 {
        return Err(shard_io(
            shard,
            format!(
                "shard declares {} graphs, expected {expected}",
                reader.graph_count()
            ),
        ));
    }
    let mut graphs = Vec::with_capacity(expected);
    for g in reader {
        graphs.push(g.map_err(|e| shard_io(shard, e.to_string()))?);
    }
    Ok(GraphDatabase::from_graphs(graphs))
}
