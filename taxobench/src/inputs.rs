//! Seeded on-disk inputs, their timed ingestion, and host facts.

use std::path::{Path, PathBuf};
use std::time::Instant;
use tsg_datagen::registry::{build, DatasetId};
use tsg_graph::GraphDatabase;
use tsg_taxonomy::Taxonomy;

/// SplitMix64: a tiny seeded generator for input shuffles and request
/// mixes (the same seed always yields the same stream).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5EED_7A60_6A4A_0001)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// The two text files a workload ingests.
#[derive(Debug)]
pub struct Files {
    /// `c`/`p` taxonomy file.
    pub taxonomy: PathBuf,
    /// `t`/`v`/`e` graph database file.
    pub database: PathBuf,
}

/// Builds `id` at `scale` with the dataset registry, shuffles the graph
/// order with `seed`, and writes both files into `dir`.
///
/// The registry fixes each dataset's content, so the seed permutes
/// graph ids: every seed gives different input bytes and a different
/// shard partition, but the same mining work, which keeps runs with
/// different seeds comparable.
pub fn generate(id: DatasetId, scale: f64, seed: u64, dir: &Path) -> std::io::Result<Files> {
    let ds = build(id, scale);
    let mut graphs = ds.database.graphs().to_vec();
    Rng::new(seed).shuffle(&mut graphs);
    let db = GraphDatabase::from_graphs(graphs);
    std::fs::create_dir_all(dir)?;
    let files = Files {
        taxonomy: dir.join("taxonomy.txt"),
        database: dir.join("database.txt"),
    };
    std::fs::write(
        &files.taxonomy,
        tsg_taxonomy::io::write_taxonomy(&ds.taxonomy, None),
    )?;
    std::fs::write(&files.database, tsg_graph::io::write_database(&db))?;
    Ok(files)
}

/// Inputs parsed from disk and ready to mine.
pub struct Loaded {
    /// The taxonomy, reachability index built.
    pub taxonomy: Taxonomy,
    /// The graph database.
    pub db: GraphDatabase,
    /// Seconds reading and parsing the taxonomy file.
    pub taxonomy_read_s: f64,
    /// Seconds reading and parsing the database file.
    pub graph_read_s: f64,
}

/// Reads both files with the public text readers, timing each.
pub fn ingest(files: &Files) -> Result<Loaded, String> {
    let t0 = Instant::now();
    let text = std::fs::read_to_string(&files.taxonomy).map_err(|e| e.to_string())?;
    let (_, taxonomy) = tsg_taxonomy::io::read_taxonomy(&text).map_err(|e| e.to_string())?;
    let t1 = Instant::now();
    let text = std::fs::read_to_string(&files.database).map_err(|e| e.to_string())?;
    let db = tsg_graph::io::read_database(&text).map_err(|e| e.to_string())?;
    let t2 = Instant::now();
    Ok(Loaded {
        taxonomy,
        db,
        taxonomy_read_s: (t1 - t0).as_secs_f64(),
        graph_read_s: (t2 - t1).as_secs_f64(),
    })
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// CPU model name and 1-minute load average, for noise attribution.
pub fn host_facts() -> (String, f64) {
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':').map(|(_, v)| v.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(-1.0);
    (model, load)
}

/// Resets the process's resident-set high-water mark (Linux
/// `clear_refs` code 5), so `VmHWM` covers only what follows.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Non-blank lines of Rust per crate of the repository rooted at `root`:
/// the root package (`src/`, `tests/`, `examples/`) as `taxogram`, then
/// each `crates/<name>/`, sorted by name. Informational only.
pub fn loc_per_crate(root: &Path) -> Vec<(String, usize)> {
    fn count(path: &Path) -> usize {
        if path.is_dir() {
            let Ok(entries) = std::fs::read_dir(path) else {
                return 0;
            };
            entries.flatten().map(|e| count(&e.path())).sum()
        } else if path.extension().is_some_and(|x| x == "rs") {
            std::fs::read_to_string(path)
                .map_or(0, |s| s.lines().filter(|l| !l.trim().is_empty()).count())
        } else {
            0
        }
    }
    let mut out: Vec<(String, usize)> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.path().is_dir())
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                count(&e.path()),
            )
        })
        .collect();
    out.push((
        "taxogram".to_owned(),
        ["src", "tests", "examples"]
            .iter()
            .map(|d| count(&root.join(d)))
            .sum(),
    ));
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_is_a_permutation() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
        let mut v: Vec<u32> = (0..100).collect();
        Rng::new(3).shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted);
    }
}
