//! In-memory spans around the harness's calls into each layer.
//!
//! Only the traced pass records; the end-to-end pass runs with the
//! recorder off, so its numbers carry no tracing cost. Spans live in
//! memory and are written once, when the run ends. Spans *inside* the
//! engines are a later change — these are drawn at the public-call
//! boundary, from the benchmark's own files.

use crate::json::quote;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle returned by [`Recorder::enter`], consumed by [`Recorder::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// Span recorder for one workload run.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; its parent is the innermost span still open.
    pub fn enter(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Close a span opened by [`Recorder::enter`].
    pub fn exit(&mut self, id: SpanId) {
        if let Some(id) = id.0 {
            self.spans[id].end_ns = self.now_ns();
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name);
        let out = f();
        self.exit(id);
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// All spans as one JSON document. A span's `self_ns` is its duration
    /// minus the part its child spans cover.
    pub fn to_json(&self, workload: &str) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "{{\"workload\": {}, \"spans\": [", quote(workload));
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "  {{\"id\": {i}, \"name\": {}, \"workload\": {}, \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}{comma}",
                quote(&s.name),
                quote(workload),
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i]),
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_sets_parents_and_self_time() {
        let mut r = Recorder::new(true);
        let outer = r.enter("outer");
        r.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        r.exit(outer);
        assert_eq!(r.len(), 2);
        let doc = crate::json::parse(&r.to_json("w")).unwrap();
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        let outer_self = spans[0].get("self_ns").unwrap().as_f64().unwrap();
        let outer_dur = spans[0].get("end_ns").unwrap().as_f64().unwrap()
            - spans[0].get("start_ns").unwrap().as_f64().unwrap();
        assert!(outer_self < outer_dur, "child time is subtracted");
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        r.span("x", || ());
        assert!(r.is_empty());
    }
}
