//! The traced run's instruments, all on the benchmark's side of the API:
//! an in-memory span recorder, a delegating timing [`SourceAdapter`]
//! around the mSEED adapter, and the self-time arithmetic.
//!
//! Spans carry {id, parent, name, start, end, query id, value}. Real
//! spans are timed around calls the benchmark makes (or the adapter
//! calls the engine makes). Engine-reported phases (`ExecStats`,
//! `PassTrace`, `DmdOutcome`, `PrepReport`) come back as durations
//! only; they become *synthetic* child spans laid end to end from the
//! start of the call that reported them, so only their durations are
//! measured, not their positions.

use sommelier_core::chunks::FileEntry;
use sommelier_core::source::RawChunk;
use sommelier_core::{SourceAdapter, SourceDescriptor};
use sommelier_engine::Relation;
use sommelier_storage::Database;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Position of the query in the pass's sequence, when the span
    /// belongs to one query (adapter calls on shared workers during
    /// concurrent traffic belong to the workload, not to a query).
    pub query: Option<u32>,
    /// Bytes fetched or rows decoded, for adapter spans.
    pub value: u64,
    pub synthetic: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans in memory; written out once, at exit.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU32,
    /// The span adapter calls attach to, and its query: set by the
    /// driving thread around the call it is timing. Packed as
    /// `(query + 1) << 32 | span id`; query bits 0 mean "no query".
    current: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            current: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Allocate a span id ahead of recording, so children can name
    /// their parent before it ends.
    pub fn reserve(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Make `span` (of `query`) the parent of adapter calls from now on.
    pub fn enter(&self, span: u32, query: Option<u32>) {
        let q = query.map_or(0, |q| u64::from(q) + 1);
        self.current.store(q << 32 | u64::from(span), Ordering::Release);
    }

    fn current(&self) -> (Option<u32>, Option<u32>) {
        let v = self.current.load(Ordering::Acquire);
        let span = (v as u32 != 0).then_some(v as u32);
        let query = ((v >> 32) != 0).then(|| (v >> 32) as u32 - 1);
        (span, query)
    }

    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        id: u32,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        query: Option<u32>,
        value: u64,
        synthetic: bool,
    ) {
        let span = Span { id, parent, name, start_ns, end_ns, query, value, synthetic };
        self.spans.lock().expect("span lock").push(span);
    }

    /// Record engine-reported phase durations as synthetic children of
    /// `parent`, laid end to end from `start_ns`.
    pub fn phases(
        &self,
        parent: u32,
        start_ns: u64,
        query: Option<u32>,
        phases: &[(&'static str, Duration)],
    ) {
        let mut at = start_ns;
        for &(name, d) in phases {
            let end = at + d.as_nanos() as u64;
            self.record(self.reserve(), Some(parent), name, at, end, query, 0, true);
            at = end;
        }
    }

    /// Time an adapter call, attached to the current span.
    fn time<R>(
        &self,
        name: &'static str,
        f: impl FnOnce() -> R,
        value: impl Fn(&R) -> u64,
    ) -> R {
        let (parent, query) = self.current();
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.record(self.reserve(), parent, name, start, end, query, value(&out), false);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }

    /// Write every span as one JSON object per line.
    pub fn dump(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans = self.spans();
        let selfs = self_times(&spans);
        for s in &spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"self_ns\":{},\"query\":{},\"value\":{},\"synthetic\":{}}}",
                s.id,
                s.parent.map_or("null".into(), |p| p.to_string()),
                s.name,
                s.start_ns,
                s.end_ns,
                selfs.get(&s.id).copied().unwrap_or(0),
                s.query.map_or("null".into(), |q| q.to_string()),
                s.value,
                s.synthetic
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children's intervals cover (overlapping children count once).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .into_iter()
                .flatten()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

/// Per span name: (count, total ns, self ns), sorted by self time.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times(spans);
    let mut by: HashMap<&'static str, (u64, u64, u64)> = HashMap::new();
    for s in spans {
        let e = by.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += selfs.get(&s.id).copied().unwrap_or(0);
    }
    let mut rows: Vec<_> = by.into_iter().map(|(n, (c, t, s))| (n, c, t, s)).collect();
    rows.sort_by(|a, b| b.3.cmp(&a.3).then(a.0.cmp(b.0)));
    rows
}

/// A delegating adapter that times every call the engine makes into
/// the wrapped one. `descriptor`, `chunk_units` and `source_bytes` are
/// forwarded unchanged.
pub struct TimedAdapter<A> {
    inner: A,
    rec: Arc<Recorder>,
}

impl<A> TimedAdapter<A> {
    pub fn new(inner: A, rec: Arc<Recorder>) -> Self {
        TimedAdapter { inner, rec }
    }
}

impl<A: SourceAdapter> SourceAdapter for TimedAdapter<A> {
    fn descriptor(&self) -> &SourceDescriptor {
        self.inner.descriptor()
    }

    fn register(
        &self,
        db: &Database,
        max_threads: usize,
    ) -> sommelier_core::Result<Vec<FileEntry>> {
        self.rec.time(
            "mseed.register",
            || self.inner.register(db, max_threads),
            |r| r.as_ref().map_or(0, |e| e.len() as u64),
        )
    }

    fn decode(
        &self,
        entry: &FileEntry,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        self.rec.time("mseed.decode", || self.inner.decode(entry, projection), rows)
    }

    fn fetch_bytes(&self, entry: &FileEntry) -> sommelier_engine::Result<RawChunk> {
        self.rec.time(
            "mseed.fetch_bytes",
            || self.inner.fetch_bytes(entry),
            |r| r.as_ref().map_or(0, |c| c.len() as u64),
        )
    }

    fn decode_bytes(
        &self,
        entry: &FileEntry,
        raw: RawChunk,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Relation> {
        self.rec.time(
            "mseed.decode_bytes",
            || self.inner.decode_bytes(entry, raw, projection),
            rows,
        )
    }

    fn chunk_units<'s>(
        &'s self,
        entry: &FileEntry,
        projection: Option<&[String]>,
    ) -> sommelier_engine::Result<Vec<sommelier_engine::twostage::ChunkUnit<'s>>> {
        self.inner.chunk_units(entry, projection)
    }

    fn source_bytes(&self) -> sommelier_core::Result<u64> {
        self.inner.source_bytes()
    }
}

fn rows(r: &sommelier_engine::Result<Relation>) -> u64 {
    r.as_ref().map_or(0, |rel| rel.rows() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            start_ns: start,
            end_ns: end,
            query: None,
            value: 0,
            synthetic: false,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120), // clipped to the parent
            span(5, Some(2), 10, 20),
        ];
        let s = self_times(&spans);
        assert_eq!(s[&1], 100 - 40 - 10);
        assert_eq!(s[&2], 20);
        assert_eq!(s[&3], 20);
        assert_eq!(s[&5], 10);
    }

    #[test]
    fn adapter_spans_attach_to_the_entered_span() {
        let rec = Recorder::new();
        let parent = rec.reserve();
        rec.enter(parent, Some(4));
        rec.time("x", || 7u64, |v| *v);
        let spans = rec.spans();
        assert_eq!(spans[0].parent, Some(parent));
        assert_eq!(spans[0].query, Some(4));
        assert_eq!(spans[0].value, 7);
    }
}
