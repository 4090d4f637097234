//! In-memory span recorder, written out as Chrome trace-event JSON
//! (opens in Perfetto or `chrome://tracing`).
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer; nothing inside the program is instrumented. A disabled recorder
//! keeps no spans, so untraced runs pay one branch per call site.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name, e.g. `"gspan"`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in [`Recorder::spans`], if any.
    pub parent: Option<usize>,
    /// Spans of one operation (one mine, one request) share this id.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Recorder {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts a new operation: later root spans carry a fresh id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (which must be the innermost open span).
    pub fn end(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let now = self.now_ns();
            self.spans[idx].end_ns = now;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans must close innermost first");
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    /// All closed spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans opened since `mark` (a previous `spans().len()`).
    pub fn since(&self, mark: usize) -> &[Span] {
        &self.spans[mark..]
    }

    /// Writes every span as a Chrome trace-event JSON array of complete
    /// (`"ph":"X"`) events, microsecond timestamps.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        out.push_str("\n]\n");
        std::fs::write(path, out)
    }
}

/// Total and self seconds per span name over `spans`. A span's self time
/// is its duration minus the time covered by its direct children (which
/// never overlap: one thread records them, innermost-first).
pub fn times_by_name(spans: &[Span], base: usize) -> Vec<(&'static str, f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            if let Some(c) = p.checked_sub(base).and_then(|i| child_ns.get_mut(i)) {
                *c += s.end_ns - s.start_ns;
            }
        }
    }
    let mut out: Vec<(&'static str, f64, f64)> = Vec::new();
    for (s, &c) in spans.iter().zip(&child_ns) {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(c);
        match out.iter_mut().find(|(n, _, _)| *n == s.name) {
            Some(e) => {
                e.1 += total as f64 / 1e9;
                e.2 += own as f64 / 1e9;
            }
            None => out.push((s.name, total as f64 / 1e9, own as f64 / 1e9)),
        }
    }
    out
}

/// Total and self seconds of `name` in the output of [`times_by_name`].
pub fn lookup(times: &[(&'static str, f64, f64)], name: &str) -> (f64, f64) {
    times
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or((0.0, 0.0), |&(_, t, s)| (t, s))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
                op: 1,
            },
            Span {
                name: "leaf",
                start_ns: 15,
                end_ns: 25,
                parent: Some(1),
                op: 1,
            },
            Span {
                name: "a",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
                op: 1,
            },
        ];
        let t = times_by_name(&spans, 0);
        let close = |x: f64, y: f64| (x - y).abs() < 1e-15;
        let (root_total, root_self) = lookup(&t, "root");
        assert!(close(root_total, 100e-9) && close(root_self, 60e-9));
        let (a_total, a_self) = lookup(&t, "a");
        assert!(close(a_total, 40e-9) && close(a_self, 30e-9));
        assert_eq!(lookup(&t, "missing"), (0.0, 0.0));
        // A window starting mid-list keeps parent links relative to `base`.
        let t = times_by_name(&spans[1..3], 1);
        let (a_total, a_self) = lookup(&t, "a");
        assert!(close(a_total, 30e-9) && close(a_self, 20e-9));
    }

    #[test]
    fn recorder_nests_and_writes_chrome_json() {
        let mut r = Recorder::new(true);
        r.next_op();
        r.span("outer", |r| r.span("inner", |_| ()));
        assert_eq!(r.spans().len(), 2);
        assert_eq!(r.spans()[1].parent, Some(0));
        assert_eq!(r.spans()[0].op, 1);
        let dir = Path::new(".taxobench").join(format!("test-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        r.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = tsg_serve::json::parse(&text).unwrap();
        let tsg_serve::json::Json::Arr(events) = v else {
            panic!("not an array")
        };
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("inner")
        );

        let mut off = Recorder::new(false);
        off.span("outer", |r| r.span("inner", |_| ()));
        assert!(off.spans().is_empty());
    }
}
