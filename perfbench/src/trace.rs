//! In-memory span recorder for the traced run, with Chrome trace-event
//! export.
//!
//! Spans are recorded by the benchmark around calls into each layer's
//! public API; nothing inside the program is instrumented. They stay in
//! memory until the process writes them out at exit, so recording costs
//! one clock read and one push per boundary.

use serde_json::{json, Value};
use std::time::Instant;

/// One closed span. Times are seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer the span belongs to (`population`, `measure`, ...); the
    /// trace-event category.
    pub cat: &'static str,
    /// Span name, `<layer>.<call>` (per-layer metrics sum spans by name).
    pub name: String,
    /// Start, seconds since the tracer's origin.
    pub start: f64,
    /// End, seconds since the tracer's origin.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span nested in the innermost open one; returns its id.
    pub fn begin(&mut self, cat: &'static str, name: &str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            cat,
            name: name.to_string(),
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open span.
    pub fn end(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, cat: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(cat, name);
        let out = f();
        self.end(id);
        out
    }

    /// Recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans called `name`, or `name:<detail>`.
    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| {
            s.name
                .strip_prefix(name)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with(':'))
        })
    }

    /// Busy time: the summed duration of every span called `name` (or
    /// `name:<detail>`).
    pub fn busy(&self, name: &str) -> f64 {
        self.named(name).map(Span::duration).sum()
    }

    /// Number of spans called `name` (or `name:<detail>`).
    pub fn count(&self, name: &str) -> usize {
        self.named(name).count()
    }

    /// Length of the union of `id`'s direct children's intervals.
    fn children_cover(&self, id: usize) -> f64 {
        let mut kids: Vec<(f64, f64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start, s.end))
            .collect();
        kids.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut covered = 0.0;
        let mut reach = f64::NEG_INFINITY;
        for (start, end) in kids {
            let from = start.max(reach);
            if end > from {
                covered += end - from;
            }
            reach = reach.max(end);
        }
        covered
    }

    /// Self time: the span's duration minus the time its children cover.
    pub fn self_time(&self, id: usize) -> f64 {
        self.spans[id].duration() - self.children_cover(id)
    }

    /// Share of span `id` that its direct children cover.
    pub fn coverage(&self, id: usize) -> f64 {
        let d = self.spans[id].duration();
        if d > 0.0 {
            self.children_cover(id) / d
        } else {
            0.0
        }
    }

    /// Chrome trace-event "complete" events (`ph: "X"`, microseconds) for
    /// process `pid`; `run` tags every event with the run identifier.
    pub fn trace_events(&self, pid: u32, process: &str, run: &str) -> Vec<Value> {
        let mut events = vec![json!({
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 1,
            "args": { "name": process }
        })];
        for (id, s) in self.spans.iter().enumerate() {
            events.push(json!({
                "name": s.name.as_str(),
                "cat": s.cat,
                "ph": "X",
                "ts": s.start * 1e6,
                "dur": s.duration() * 1e6,
                "pid": pid,
                "tid": 1,
                "args": {
                    "id": id,
                    "parent": s.parent.map_or(Value::Null, |p| json!(p)),
                    "run": run,
                    "self_us": self.self_time(id) * 1e6
                }
            }));
        }
        events
    }
}
