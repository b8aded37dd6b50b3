//! In-memory spans for the traced run, and the self-time arithmetic over
//! them.
//!
//! A span is a named interval with an optional parent and a trace id (the
//! manifest hash of the cell it belongs to). Spans live in memory while the
//! run executes and are written out as JSON lines when it ends. A span's
//! *self time* is its duration minus the part of its interval that its
//! children cover; children may overlap (two harness workers), so the
//! covered part is the length of the union of their intervals.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Layer boundary the span times (`store.append`, `driver.run`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The cell's manifest hash, for spans inside one cell.
    pub trace: Option<String>,
}

impl SpanRecord {
    /// `end − start`.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one monotonic epoch, nesting them by an explicit
/// stack of open spans.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose epoch is now.
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds since the epoch.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open span. With `trace` `None` the
    /// span inherits its parent's trace id.
    pub fn enter(&mut self, name: &'static str, trace: Option<&str>) -> usize {
        let parent = self.open.last().copied();
        let trace = trace
            .map(str::to_string)
            .or_else(|| parent.and_then(|p| self.spans[p].trace.clone()));
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            trace,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not the innermost open span (a nesting bug in the
    /// caller).
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span under the innermost open span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, None);
        let value = f();
        self.exit(id);
        value
    }

    /// Adds an already-finished span (timed elsewhere, e.g. by an engine
    /// wrapper) under `parent`. With `trace` `None` it inherits the
    /// parent's trace id.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: usize,
        trace: Option<&str>,
    ) {
        let trace = trace
            .map(str::to_string)
            .or_else(|| self.spans[parent].trace.clone());
        self.spans.push(SpanRecord {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            trace,
        });
    }

    /// Converts an instant into ns since the epoch (0 if it predates it).
    #[must_use]
    pub fn ns_of(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every span recorded so far, in opening order.
    #[must_use]
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes every span as one JSON line:
    /// `{"id","name","start_ns","end_ns","self_ns","parent","trace"}`.
    ///
    /// # Errors
    ///
    /// Any I/O error from writing the file.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (id, (span, own)) in self.spans.iter().zip(&self_ns).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let trace = span
                .trace
                .as_ref()
                .map_or("null".to_string(), |t| format!("\"{t}\""));
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\
                 \"parent\":{parent},\"trace\":{trace}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span.
#[must_use]
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns,
            end_ns,
            parent,
            trace: None,
        }
    }

    #[test]
    fn overlapping_children_from_two_workers_count_once() {
        // A cell span [0, 100] whose two workers ran [10, 50] and [30, 80]:
        // together they cover [10, 80], so the cell's own time is 30.
        let spans = [
            span("cell", 0, 100, None),
            span("worker", 10, 50, Some(0)),
            span("worker", 30, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 50]);
    }

    #[test]
    fn nested_and_disjoint_children() {
        // One child inside another child's interval is that child's
        // grandchild, not a second cover of the root.
        let spans = [
            span("sweep", 0, 1_000, None),
            span("cell", 100, 600, Some(0)),
            span("driver.run", 200, 500, Some(1)),
            span("store.append", 700, 800, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![400, 200, 300, 100]);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [span("p", 50, 100, None), span("c", 0, 75, Some(0))];
        assert_eq!(self_times(&spans)[0], 25);
    }

    #[test]
    fn tracer_nests_and_inherits_trace_ids() {
        let mut tracer = Tracer::new();
        let root = tracer.enter("sweep", None);
        let cell = tracer.enter("cell", Some("abc"));
        tracer.time("driver.run", || ());
        let start = tracer.now_ns();
        tracer.record("engine.agent.chunk", start, tracer.now_ns(), cell, None);
        tracer.exit(cell);
        tracer.exit(root);
        let spans = tracer.spans();
        assert_eq!(spans[2].parent, Some(cell));
        assert_eq!(spans[2].trace.as_deref(), Some("abc"));
        assert_eq!(spans[3].trace.as_deref(), Some("abc"));
        assert_eq!(spans[0].trace, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
