//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's own files. Spans inside the crates are a later change.
//!
//! A span is `(name, start, end, parent, op_id)`; the spans of one
//! operation share its `op_id`. Nothing is written until the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<usize>,
    pub op_id: u64,
    /// Chrome-trace lane: 0 for the nested spans of the client thread,
    /// another lane for spans that overlap them (requests in flight).
    pub lane: u32,
}

/// Handle of an open span; `None` while tracing is off.
pub type SpanId = Option<usize>;

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, op_id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_us = self.us(Instant::now());
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            op_id,
            lane: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.open.last().copied()
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        self.spans[id].end_us = self.us(Instant::now());
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Turns the stage breakdown a layer returned (`CompileReport`,
    /// `InferReport`, a child's stage line) into child spans of
    /// `parent`, laid end to end from the parent's start: the report
    /// gives durations, not start times.
    pub fn stages(&mut self, parent: SpanId, stages: &[(&'static str, Duration)]) {
        let Some(parent) = parent else { return };
        let mut at = self.spans[parent].start_us;
        let op_id = self.spans[parent].op_id;
        for &(name, dur) in stages {
            let end = at + dur.as_secs_f64() * 1e6;
            self.spans.push(Span {
                name,
                start_us: at,
                end_us: end,
                parent: Some(parent),
                op_id,
                lane: 0,
            });
            at = end;
        }
    }

    /// Records a finished span that overlaps the client thread's own,
    /// such as a request between its due time and its answer.
    pub fn record(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent: None,
            op_id,
            lane: 1 + (op_id % 32) as u32,
        });
    }

    /// Summed milliseconds of the spans called `name` recorded at or
    /// after `since`.
    pub fn total_ms(&self, name: &str, since: usize) -> f64 {
        let named = self.spans[since..].iter().filter(|s| s.name == name);
        named.map(|s| s.end_us - s.start_us).sum::<f64>() / 1e3
    }

    /// Number of spans so far: a position to read later spans from.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Self time in ms of every span called `name`, recorded at or after
    /// `since`, that has children: what its stages leave unaccounted.
    pub fn unaccounted_ms(&self, name: &str, since: usize) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_us, s.end_us));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .skip(since)
            .filter(|(s, c)| s.name == name && !c.is_empty())
            .map(|(s, c)| self_time_us(s.start_us, s.end_us, c) / 1e3)
            .collect()
    }

    /// The spans as Chrome-trace JSON (`chrome://tracing`, Perfetto).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.lane,
                s.start_us,
                s.end_us - s.start_us,
                s.op_id,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A span's duration minus the part of it that its children cover
/// (their union, clipped to the span).
pub fn self_time_us(start: f64, end: f64, mut children: Vec<(f64, f64)>) -> f64 {
    children.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut at = start;
    for (s, e) in children {
        let s = s.max(at);
        let e = e.min(end);
        if e > s {
            covered += e - s;
            at = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_the_union_of_children() {
        assert_eq!(self_time_us(0.0, 100.0, vec![]), 100.0);
        assert_eq!(
            self_time_us(0.0, 100.0, vec![(10.0, 30.0), (50.0, 60.0)]),
            70.0
        );
        // Overlapping children are counted once, and only inside the span.
        assert_eq!(
            self_time_us(0.0, 100.0, vec![(10.0, 50.0), (40.0, 60.0)]),
            50.0
        );
        assert_eq!(self_time_us(0.0, 100.0, vec![(90.0, 150.0)]), 90.0);
    }

    #[test]
    fn stages_plus_unaccounted_equal_the_parent() {
        let mut t = Tracer::new(true);
        let id = t.begin("compile", 7);
        std::thread::sleep(Duration::from_millis(5));
        t.end(id);
        t.stages(
            id,
            &[
                ("rewrite", Duration::from_millis(1)),
                ("select", Duration::from_millis(2)),
            ],
        );
        let total = (t.spans()[0].end_us - t.spans()[0].start_us) / 1e3;
        let residual = t.unaccounted_ms("compile", 0)[0];
        assert!((total - 3.0 - residual).abs() < 1e-6);
        assert!(residual >= 2.0);
        let kids: Vec<_> = t.spans().iter().filter(|s| s.parent == id).collect();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|s| s.op_id == 7));
        assert_eq!(kids[0].end_us, kids[1].start_us);
    }

    #[test]
    fn spans_nest_and_a_disabled_tracer_records_nothing() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.unaccounted_ms("inner", 0).is_empty());
        assert_eq!(t.unaccounted_ms("outer", 0).len(), 1);
        assert!(t.unaccounted_ms("outer", t.mark()).is_empty());
        let whole = t.spans()[0].end_us - t.spans()[0].start_us;
        assert_eq!(t.total_ms("outer", 0), whole / 1e3);
        assert_eq!(t.total_ms("outer", t.mark()), 0.0);
        assert!(t.chrome_json().contains("\"name\":\"inner\""));

        let mut off = Tracer::new(false);
        let id = off.begin("x", 0);
        off.end(id);
        off.record("y", 0, Instant::now(), Instant::now());
        assert!(off.spans().is_empty());
    }
}
