//! Spans recorded from the benchmark's own code around calls into each
//! layer: name, start, end, and the span that caused it. Spans of one
//! request share its root's id. They stay in memory during the run and are
//! written out when it ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static ORIGIN: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span (0 for a root).
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Calls into the layer the span covers (probe spans time a chunk).
    pub calls: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span buffer.
#[derive(Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        parent: u64,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        calls: u32,
    ) -> u64 {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        self.0.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            calls,
        });
        id
    }

    /// Time `calls` calls of `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, calls: u32, f: impl FnOnce() -> R) -> R {
        let start = now_ns();
        let out = f();
        self.record(0, name, start, now_ns(), calls);
        out
    }

    pub fn extend(&mut self, other: Spans) {
        self.0.extend(other.0);
    }

    /// Per-call microseconds of every span named `name`.
    pub fn per_call_us(&self, name: &str) -> Vec<f64> {
        self.0
            .iter()
            .filter(|s| s.name == name && s.calls > 0)
            .map(|s| s.dur_ns() as f64 / 1e3 / s.calls as f64)
            .collect()
    }

    /// Self time of every span named `name`, in microseconds: its duration
    /// minus the part its child spans cover.
    pub fn self_us(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<u64, u64> = HashMap::new();
        for s in &self.0 {
            if s.parent != 0 {
                *children.entry(s.parent).or_default() += s.dur_ns();
            }
        }
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let covered = children.get(&s.id).copied().unwrap_or(0);
                s.dur_ns().saturating_sub(covered) as f64 / 1e3
            })
            .collect()
    }

    /// Write every span as tab-separated lines.
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns\tcalls")?;
        for s in &self.0 {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut spans = Spans::default();
        let root = spans.record(0, "event", 0, 10_000, 1);
        spans.record(root, "ingest", 2_000, 5_000, 1);
        spans.record(root, "refetch", 5_000, 9_000, 1);
        assert_eq!(spans.self_us("event"), vec![3.0]);
        assert_eq!(spans.self_us("ingest"), vec![3.0]);
        assert_eq!(spans.per_call_us("refetch"), vec![4.0]);
    }
}
