//! In-memory span recorder for the traced run.
//!
//! The benchmark records a span around each call it makes into a layer's
//! public functions: name, start, end, parent span and op id. Spans stay in
//! memory while the run measures and are written out once it ends.

use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The workload operation this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open span.
    pub fn begin(&mut self, name: impl Into<String>, op: u64) -> usize {
        let parent = self.open.last().copied();
        self.begin_under(name, op, parent)
    }

    /// Open a span under an explicit parent. The service replay uses this
    /// to link a deeper layer's span to the same op's span one depth up,
    /// although the two ran in separate replays.
    pub fn begin_under(
        &mut self,
        name: impl Into<String>,
        op: u64,
        parent: Option<usize>,
    ) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one) and return its duration in
    /// milliseconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].ms()
    }

    /// Run `f` inside a span; returns its result and the span duration.
    pub fn span<T>(&mut self, name: impl Into<String>, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name, op);
        let out = f();
        let ms = self.end(id);
        (out, ms)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}
