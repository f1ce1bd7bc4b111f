//! Spans recorded by the benchmark around its own calls into each layer.
//! They stay in memory while the run measures and are written out as JSON
//! lines when it ends; per-layer numbers are computed from them.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One timed call: `parent` is the id of the span that caused it (0 for
/// an op's root span) and `op` groups the spans of one client operation.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A client thread's span buffer. Ids carry the thread in their high bits
/// so they are unique across threads.
pub struct SpanBuf {
    epoch: Instant,
    thread: u64,
    next: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    pub fn new(epoch: Instant, thread: usize) -> Self {
        SpanBuf {
            epoch,
            thread: thread as u64 + 1,
            next: 0,
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        self.next += 1;
        let id = self.thread << 40 | self.next;
        self.spans.push(Span {
            name,
            id,
            parent,
            op,
            start_ns,
            end_ns,
        });
        id
    }

    /// Starts a span now; its end is set by [`SpanBuf::close`]. Returns
    /// its index in the buffer and its id, which children name as parent.
    pub fn open(&mut self, name: &'static str, op: u64, parent: u64) -> (usize, u64) {
        let now = self.now();
        (self.spans.len(), self.push(name, op, parent, now, now))
    }

    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.now();
    }

    /// Times `f` as a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.now();
        let r = f();
        let end = self.now();
        self.push(name, op, parent, start, end);
        r
    }
}

/// Durations in nanoseconds of every span, by name.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by.entry(s.name).or_default().push(s.ns());
    }
    by
}

/// Writes `spans` as one JSON object per line.
pub fn write_jsonl(path: &std::path::Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{header}")?;
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}
