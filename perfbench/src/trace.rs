//! In-memory spans around the benchmark's own calls into the system,
//! written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

/// One timed call: what it was, which operation it belonged to (the
/// submission tag or cycle number), and when it ran (ns from the
/// owning round's start).
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span buffer; recording is a no-op when tracing is off.
#[derive(Default)]
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn record(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                name,
                id,
                start_ns,
                end_ns,
            });
        }
    }

    pub fn absorb(&mut self, other: Spans) {
        self.spans.extend(other.spans);
    }

    /// Median duration per span name, microseconds.
    pub fn median_us(&self) -> BTreeMap<&'static str, f64> {
        let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            by.entry(s.name)
                .or_default()
                .push(s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3);
        }
        by.into_iter()
            .map(|(k, v)| (k, crate::common::median(&v)))
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as `name id start_ns end_ns` lines.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tid\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(out, "{}\t{}\t{}\t{}", s.name, s.id, s.start_ns, s.end_ns)?;
        }
        out.flush()
    }
}
