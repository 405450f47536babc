//! In-memory wall-clock spans recorded around the benchmark's calls
//! into each layer's public functions.
//!
//! A span holds a name, a start and an end (nanoseconds since the
//! tracer was created) and the id of the span that was open when it
//! started. Spans nest strictly (the benchmark is single-threaded at
//! every span boundary), so a span's self time is its duration minus
//! the durations of its direct children. A disabled tracer records
//! nothing and costs one branch per span.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `arith.gemm_f32`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall-clock duration, nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans and named counters; interior mutability lets shared
/// references (e.g. an arithmetic backend called through `&dyn`) record.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    counters: RefCell<BTreeMap<&'static str, f64>>,
}

/// Closes its span when dropped.
#[must_use = "the span closes when the guard is dropped"]
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: Option<usize>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            self.tracer.close(id);
        }
    }
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span named `name`, child of the innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let id = spans.len();
        spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: open.last().copied(),
        });
        open.push(id);
        Guard {
            tracer: self,
            id: Some(id),
        }
    }

    fn close(&self, id: usize) {
        let end = self.now_ns();
        let popped = self.open.borrow_mut().pop();
        assert_eq!(
            popped,
            Some(id),
            "spans must close in reverse order of opening"
        );
        self.spans.borrow_mut()[id].end_ns = end;
    }

    /// Adds `by` to counter `name` (recorded only when enabled).
    pub fn count(&self, name: &'static str, by: f64) {
        if self.enabled {
            *self.counters.borrow_mut().entry(name).or_insert(0.0) += by;
        }
    }

    /// Number of spans recorded so far; pass it to [`Tracer::self_ns_since`]
    /// to restrict attention to the spans recorded after this point.
    pub fn mark(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Every counter, resetting them all to zero.
    pub fn take_counters(&self) -> BTreeMap<&'static str, f64> {
        std::mem::take(&mut *self.counters.borrow_mut())
    }

    /// Drops the spans recorded at or after `mark` (all closed), so a
    /// long traced run keeps only the spans it still needs.
    pub fn truncate(&self, mark: usize) {
        assert!(
            self.open.borrow().iter().all(|&id| id < mark),
            "cannot drop open spans"
        );
        self.spans.borrow_mut().truncate(mark);
    }

    /// A snapshot of every recorded span.
    #[cfg(test)]
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time per span name, nanoseconds, over the spans recorded at
    /// or after `mark` (whose children are all recorded after it too).
    pub fn self_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        self_ns_by_name(&self.spans.borrow()[mark..], mark)
    }

    /// Total duration per span name, nanoseconds, over the spans
    /// recorded at or after `mark`.
    pub fn total_ns_since(&self, mark: usize) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for s in &self.spans.borrow()[mark..] {
            *out.entry(s.name).or_insert(0) += s.duration_ns();
        }
        out
    }

    /// Writes every span as Chrome-trace "complete" events (viewable in
    /// Perfetto), as one JSON document.
    pub fn to_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
            ));
        }
        out.push_str("]}\n");
        out
    }
}

/// Self time per name for `spans`, whose ids start at `first_id`: each
/// span's duration minus the durations of its direct children.
fn self_ns_by_name(spans: &[Span], first_id: usize) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first_id)) {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // run [0, 100) ⊃ trainer [10, 90) ⊃ gemm [20, 40) + gemm [50, 60),
        // and a second root probe [100, 130).
        let spans = [
            span("run", 0, 100, None),
            span("trainer", 10, 90, Some(0)),
            span("gemm", 20, 40, Some(1)),
            span("gemm", 50, 60, Some(1)),
            span("probe", 100, 130, None),
        ];
        let s = self_ns_by_name(&spans, 0);
        assert_eq!(s["run"], 20);
        assert_eq!(s["trainer"], 50);
        assert_eq!(s["gemm"], 30);
        assert_eq!(s["probe"], 30);
        // Self times of one tree add up to its root's duration.
        assert_eq!(s["run"] + s["trainer"] + s["gemm"], 100);
    }

    #[test]
    fn self_time_respects_the_mark_offset() {
        // Ids 7 and 8: `inner` is a child of `outer`; `late` is a child of
        // a span before the mark, so it is subtracted from nothing here.
        let spans = [
            span("outer", 0, 50, None),
            span("inner", 5, 15, Some(7)),
            span("late", 60, 70, Some(3)),
        ];
        let s = self_ns_by_name(&spans, 7);
        assert_eq!(s["outer"], 40);
        assert_eq!(s["inner"], 10);
        assert_eq!(s["late"], 10);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        let t = Tracer::new(true);
        {
            let _a = t.span("a");
            let _b = t.span("b");
            t.count("n", 2.0);
        }
        let _c = t.span("c");
        drop(_c);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(t.take_counters()["n"], 2.0);
        assert!(t.take_counters().is_empty());
        let s = t.self_ns_since(0);
        assert_eq!(s["a"] + s["b"], spans[0].duration_ns());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let _a = t.span("a");
        t.count("n", 1.0);
        assert!(t.spans().is_empty());
        assert!(t.take_counters().is_empty());
    }
}
