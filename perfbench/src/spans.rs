//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around each call it makes into a layer:
//! name, start, end, parent span and the id of the item (artifact,
//! query or batch) the call serves. Spans stay in a `Vec` and are
//! written out once the run ends. With tracing off every method is a
//! branch on a bool, and no clock is read.

use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

/// One closed span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer call, e.g. `cache.evaluate`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span, or `None` at top level.
    pub parent: Option<u32>,
    /// Item the span belongs to.
    pub item: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to
/// [`Recorder::end`].
#[must_use]
pub struct Open(u32);

/// The span store.
pub struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    /// A recorder; `on = false` records nothing.
    pub fn new(on: bool) -> Self {
        Recorder { on, origin: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, item: u64) -> Open {
        if !self.on {
            return Open(NO_PARENT);
        }
        let idx = self.spans.len() as u32;
        let parent = self.stack.last().copied();
        let start = self.now();
        self.spans.push(Span { name, start, end: start, parent, item });
        self.stack.push(idx);
        Open(idx)
    }

    /// Close the span `open`; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        let now = self.now();
        self.spans[open.0 as usize].end = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, item: u64, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name, item);
        let r = f();
        self.end(s);
        r
    }

    /// Recorder-relative now, ns (0 with tracing off).
    pub fn mark(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the time its
    /// children cover (children of one span never overlap here — the
    /// benchmark is single-threaded).
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur());
            }
        }
        own
    }

    /// Total duration of top-level spans that lie inside `[from, to)`.
    pub fn top_level_ns(&self, from: u64, to: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start >= from && s.end <= to)
            .map(Span::dur)
            .sum()
    }

    /// Number of spans opened in `[from, to)`.
    pub fn count_in(&self, from: u64, to: u64) -> usize {
        self.spans.iter().filter(|s| s.start >= from && s.start < to).count()
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::dur).collect()
    }

    /// The spans as CSV: `id,parent,item,name,start_ns,end_ns,self_ns`.
    pub fn to_csv(&self) -> String {
        let own = self.self_times();
        let mut out = String::from("id,parent,item,name,start_ns,end_ns,self_ns\n");
        for (i, (s, o)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            let _ = writeln!(out, "{i},{parent},{},{},{},{},{o}", s.item, s.name, s.start, s.end);
        }
        out
    }
}

/// Cost of one begin/end pair on a live recorder, ns — measured, so
/// the ledger can say how much of a traced run the tracing itself took.
pub fn span_cost_ns() -> f64 {
    const N: u32 = 100_000;
    let mut r = Recorder::new(true);
    r.spans.reserve(N as usize);
    let t = Instant::now();
    for i in 0..N {
        let s = r.begin("calibrate", u64::from(i));
        r.end(s);
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut r = Recorder::new(true);
        let outer = r.begin("outer", 1);
        r.span("inner", 1, || std::thread::sleep(std::time::Duration::from_millis(2)));
        r.end(outer);
        let own = r.self_times();
        let s = r.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(own[0], s[0].dur() - s[1].dur());
        assert_eq!(own[1], s[1].dur());
        assert!(r.top_level_ns(0, u64::MAX) >= 2_000_000);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false);
        let s = r.begin("x", 0);
        r.end(s);
        assert!(r.spans().is_empty());
        assert_eq!(r.mark(), 0);
    }
}
