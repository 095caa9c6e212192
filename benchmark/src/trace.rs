//! Outside-in spans: the benchmark stamps each call it makes into a
//! layer, keeps the spans in a pre-allocated buffer, and derives a
//! layer's self time as its span minus the spans it caused.
//!
//! Nothing here reaches into the program: a span is two clock reads in
//! the benchmark's own thread around a public call. Where a request is
//! attributed by replaying it (`rtt → handle_line → {parse, exec}`),
//! the children ran as separate calls, so they are charged to the
//! parent by duration rather than by position.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its buffer; `NONE` for "no parent" and for spans
/// dropped because tracing is off or the buffer is full.
pub type SpanId = u32;
pub const NONE: SpanId = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by the spans of one request (its index in the
    /// pass), or the batch/pass number for bulk calls.
    pub req: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
}

pub struct Trace {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

/// Totals of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Trace {
    /// A buffer for `capacity` spans sharing `origin` as time zero.
    /// Starts switched off; passes switch it on with [`Trace::set_on`].
    pub fn new(origin: Instant, capacity: usize) -> Trace {
        Trace {
            on: false,
            origin,
            spans: Vec::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Trace::end`].
    pub fn begin(&mut self, name: &'static str, req: u32, parent: SpanId) -> SpanId {
        if !self.on {
            return NONE;
        }
        let now = self.now_ns();
        self.record(name, req, parent, now, 0)
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NONE {
            let now = self.now_ns();
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Stores a span whose endpoints the caller already measured.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u32,
        parent: SpanId,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        if !self.on {
            return NONE;
        }
        if self.spans.len() >= self.capacity {
            self.dropped += 1;
            return NONE;
        }
        self.spans.push(Span {
            name,
            req,
            start_ns,
            end_ns,
            parent,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Times `f` as one span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u32,
        parent: SpanId,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, req, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Appends another thread's buffer (same origin), re-basing its
    /// parent links; spans whose parent was `NONE` hang under `parent`.
    pub fn absorb(&mut self, other: Trace, parent: SpanId) {
        let base = self.spans.len() as u32;
        self.dropped += other.dropped;
        for mut s in other.spans {
            if self.spans.len() >= self.capacity {
                self.dropped += 1;
                continue;
            }
            s.parent = if s.parent == NONE {
                parent
            } else {
                s.parent + base
            };
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Per-name totals; self time = own duration minus the durations
    /// of direct children (never below zero).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                if let Some(slot) = child_ns.get_mut(s.parent as usize) {
                    *slot += s.end_ns.saturating_sub(s.start_ns);
                }
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(*kids);
        }
        out
    }

    /// Writes `{workload, dropped, layers[], spans[]}` as JSON.
    pub fn write_json(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"dropped\":{},\"layers\":[",
            self.dropped
        );
        for (i, (name, l)) in self.layers().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                l.count, l.total_ns, l.self_ns
            );
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.req, s.start_ns, s.end_ns
            );
            if s.parent == NONE {
                out.push_str("null}");
            } else {
                let _ = write!(out, "{}}}", s.parent);
            }
        }
        out.push_str("]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Trace::new(Instant::now(), 16);
        t.set_on(true);
        let rtt = t.record("rtt", 0, NONE, 0, 1000);
        let handle = t.record("handle", 0, rtt, 100, 400);
        t.record("parse", 0, handle, 0, 120);
        t.record("exec", 0, handle, 0, 80);
        let l = t.layers();
        assert_eq!(l["rtt"].self_ns, 700);
        assert_eq!(l["handle"].self_ns, 100);
        assert_eq!(l["parse"].self_ns, 120);
        assert_eq!(l["exec"].total_ns, 80);
    }

    #[test]
    fn off_and_full_buffers_drop_without_growing() {
        let mut t = Trace::new(Instant::now(), 1);
        assert_eq!(t.begin("x", 0, NONE), NONE);
        t.set_on(true);
        let a = t.begin("x", 0, NONE);
        t.end(a);
        assert_eq!(t.begin("x", 1, NONE), NONE);
        assert_eq!((t.spans().len(), t.dropped()), (1, 1));
    }

    #[test]
    fn absorb_rebases_parents() {
        let origin = Instant::now();
        let mut main = Trace::new(origin, 8);
        main.set_on(true);
        let pass = main.record("pass", 0, NONE, 0, 100);
        let mut thread = Trace::new(origin, 8);
        thread.set_on(true);
        let r = thread.record("rtt", 0, NONE, 10, 30);
        thread.record("handle", 0, r, 0, 5);
        main.absorb(thread, pass);
        assert_eq!(main.spans()[1].parent, pass);
        assert_eq!(main.spans()[2].parent, 1);
        assert_eq!(main.layers()["pass"].self_ns, 80);
    }
}
