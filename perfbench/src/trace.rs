//! In-memory span recorder for the traced runs.
//!
//! Coarse calls (submit, step, optimize, graft, one batch's ATC, …) become
//! spans with a name, start, end, parent and the batch or query id they
//! served. Hot calls made hundreds of thousands of times per pass
//! (`stream_bounds`, `read_stream_governed`, `maintain`, `choose_read`)
//! are folded into per-name `(ns, calls)` totals on the enclosing span, so
//! recording one costs two `Instant` reads and no allocation.
//! Self time is a span's duration minus the time of its children.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The batch or query this span served (`u64::MAX` when neither).
    pub id: u64,
    /// Time spent in child spans and folded hot calls.
    pub child_ns: u64,
    /// The hot calls made directly under this span, by name.
    pub hot: Vec<(&'static str, Hot)>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
    pub fn self_ns(&self) -> u64 {
        self.dur_ns().saturating_sub(self.child_ns)
    }
}

/// Aggregate of one hot call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Hot {
    pub ns: u64,
    pub calls: u64,
}

pub const NO_ID: u64 = u64::MAX;

/// One thread's recorder. Lanes run on one thread at a time, so each lane
/// owns a tracer and the results are merged by lane index afterwards.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, id: u64) {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            id,
            child_ns: 0,
            hot: Vec::new(),
        });
        self.stack.push(idx);
    }

    pub fn exit(&mut self) {
        let end = self.now_ns();
        let idx = self.stack.pop().expect("exit matches an enter");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        let dur = span.dur_ns();
        if let Some(parent) = span.parent {
            self.spans[parent].child_ns += dur;
        }
    }

    /// Time `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.enter(name, id);
        let r = f();
        self.exit();
        r
    }

    /// Time `f` as one hot call charged to the enclosing span.
    #[inline]
    pub fn hot<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let parent = *self.stack.last().expect("hot calls happen inside a span");
        let span = &mut self.spans[parent];
        span.child_ns += ns;
        match span.hot.iter_mut().find(|(n, _)| *n == name) {
            Some((_, h)) => {
                h.ns += ns;
                h.calls += 1;
            }
            None => span.hot.push((name, Hot { ns, calls: 1 })),
        }
        r
    }

    /// Every hot call's totals over the whole trace, by name.
    pub fn hot_totals(&self) -> BTreeMap<&'static str, Hot> {
        let mut out: BTreeMap<&'static str, Hot> = BTreeMap::new();
        for (name, h) in self.spans.iter().flat_map(|s| &s.hot) {
            let e = out.entry(name).or_default();
            e.ns += h.ns;
            e.calls += h.calls;
        }
        out
    }

    /// Total self time per span name, plus every hot call's time.
    pub fn self_ns_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.self_ns();
        }
        for (name, h) in self.hot_totals() {
            *out.entry(name).or_default() += h.ns;
        }
        out
    }

    /// Inclusive time per span name (nested same-name spans counted once
    /// per span).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Spans as JSON lines: `{"lane", "idx", "name", "start_ns", "end_ns",
    /// "parent", "id", "hot": {name: [ns, calls]}}`.
    pub fn write_jsonl(&self, out: &mut String, lane: Option<usize>) {
        use std::fmt::Write;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let id = if s.id == NO_ID {
                "null".to_string()
            } else {
                s.id.to_string()
            };
            let lane = lane.map_or("null".to_string(), |l| l.to_string());
            let hot: Vec<String> = s
                .hot
                .iter()
                .map(|(n, h)| format!("\"{n}\":[{},{}]", h.ns, h.calls))
                .collect();
            let _ = writeln!(
                out,
                "{{\"lane\":{lane},\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{id},\"hot\":{{{}}}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                hot.join(",")
            );
        }
    }
}
