//! In-memory spans and counters for the traced run.
//!
//! Every span carries a name, start, end, parent span and request id; spans
//! are recorded by the benchmark around its calls into each layer's public
//! functions, kept in memory and written out once the run ends. A layer's
//! self time is its span's duration minus the part its child spans cover
//! (children never overlap: one tracer belongs to one thread).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: u64,
}

/// Handle of an open span.
#[must_use = "an opened span must be closed"]
pub struct SpanId(usize);

/// A single thread's span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<(&'static str, u64, f64)>,
}

impl Tracer {
    /// Empty recorder; span times are nanoseconds since `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, req: u64) -> SpanId {
        let start_ns = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        SpanId(id)
    }

    /// Close the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<R>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Record a count observed at a span boundary.
    pub fn count(&mut self, name: &'static str, req: u64, value: f64) {
        self.counters.push((name, req, value));
    }

    /// Append another thread's spans and counters.
    pub fn merge(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "merging a tracer with open spans");
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            start_ns: s.start_ns + shift,
            end_ns: s.end_ns + shift,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
        self.counters.extend(other.counters);
    }

    /// Self time in microseconds of every span, grouped by name.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(&covered) {
            let own = (s.end_ns - s.start_ns).saturating_sub(*c);
            out.entry(s.name).or_default().push(own as f64 / 1e3);
        }
        out
    }

    /// Whole duration in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Every value recorded for counter `name`.
    pub fn counter(&self, name: &str) -> Vec<f64> {
        self.counters
            .iter()
            .filter(|c| c.0 == name)
            .map(|c| c.2)
            .collect()
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write spans and counters as one JSON document.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"req\": {}}}{sep}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        writeln!(out, "], \"counters\": [")?;
        for (i, (name, req, value)) in self.counters.iter().enumerate() {
            let sep = if i + 1 == self.counters.len() {
                ""
            } else {
                ","
            };
            writeln!(
                out,
                "{{\"name\": \"{name}\", \"req\": {req}, \"value\": {value}}}{sep}"
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("root", 1);
        t.time("leaf", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.close(root);
        let selfs = t.self_times_us();
        let whole = t.durations_us("root")[0];
        let leaf = selfs["leaf"][0];
        assert!(leaf >= 2000.0);
        assert!((selfs["root"][0] - (whole - leaf)).abs() < 1e-6);
    }
}
