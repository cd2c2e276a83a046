//! The ring-buffered recorder: the enabled [`Tracer`] instantiation.

use crate::{GaugeId, SpanEvent, SpanKind, Tracer, GAUGE_COUNT};
use hpcsim_engine::SimTime;

/// Default span capacity: enough for every quick-scale scenario in the
/// battery; past it the ring overwrites oldest-first and counts drops.
pub const DEFAULT_SPAN_CAPACITY: usize = 1 << 20;

/// Ring-buffered span recorder with link-delta and gauge side channels.
///
/// Spans land in a bounded ring (oldest overwritten past capacity, so a
/// runaway scenario degrades to a sliding window instead of OOM). Link
/// deltas are kept raw and unsorted — rank-local clocks run ahead of the
/// global event clock, so ordering is deferred to [`RingRecorder::link_usage`].
/// Gauges fold with `max`.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    cap: usize,
    spans: Vec<SpanEvent>,
    /// Next overwrite slot once the ring is full.
    write: usize,
    total_spans: u64,
    unexpected: u64,
    link_deltas: Vec<(SimTime, u32, i8)>,
    gauges: [u64; GAUGE_COUNT],
}

impl Default for RingRecorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-category totals over a recorder's spans (summed across ranks).
///
/// The first four fields partition processor time: per rank, their
/// per-rank restriction sums exactly to that rank's finish time. The
/// last four decompose network behaviour and overlap the cpu categories
/// (a `wait` usually *is* wire + contention + handshake seen from the
/// blocked side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeBreakdown {
    /// Kernel execution + fixed delays.
    pub compute: SimTime,
    /// NIC send/receive overheads.
    pub overhead: SimTime,
    /// Blocked on point-to-point requests.
    pub wait: SimTime,
    /// Blocked in collectives.
    pub collective: SimTime,
    /// Contention-free wire occupancy of all messages.
    pub wire: SimTime,
    /// Wire stretch due to link/endpoint contention.
    pub contention: SimTime,
    /// Rendezvous handshake round-trips.
    pub handshake: SimTime,
    /// Unexpected-message copies.
    pub copy: SimTime,
    /// Retransmit timeout + backoff under fault injection. Not part of
    /// [`TimeBreakdown::fields`]: the report table keeps its pristine
    /// eight columns, and this is zero unless faults are active.
    pub retransmit: SimTime,
}

impl TimeBreakdown {
    /// All-zero breakdown.
    pub const ZERO: TimeBreakdown = TimeBreakdown {
        compute: SimTime::ZERO,
        overhead: SimTime::ZERO,
        wait: SimTime::ZERO,
        collective: SimTime::ZERO,
        wire: SimTime::ZERO,
        contention: SimTime::ZERO,
        handshake: SimTime::ZERO,
        copy: SimTime::ZERO,
        retransmit: SimTime::ZERO,
    };

    /// Total processor time (equals the sum of per-rank finish times
    /// when the recorder saw a whole run).
    pub fn cpu_total(&self) -> SimTime {
        self.compute + self.overhead + self.wait + self.collective
    }

    /// `(label, value)` pairs in report order.
    pub fn fields(&self) -> [(&'static str, SimTime); 8] {
        [
            ("compute", self.compute),
            ("overhead", self.overhead),
            ("wait", self.wait),
            ("collective", self.collective),
            ("wire", self.wire),
            ("contention", self.contention),
            ("handshake", self.handshake),
            ("copy", self.copy),
        ]
    }
}

/// Per-link utilization summary derived from the raw ±1 deltas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkUse {
    /// Linear link id (`node * 6 + direction`).
    pub link: u32,
    /// Peak concurrent flows observed on the link.
    pub peak: u32,
    /// Time-average concurrent flows over `[0, horizon]`.
    pub mean: f64,
}

impl RingRecorder {
    /// Recorder with the default span capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_SPAN_CAPACITY)
    }

    /// Recorder with an explicit span capacity (`cap >= 1`).
    pub fn with_capacity(cap: usize) -> Self {
        RingRecorder {
            cap: cap.max(1),
            spans: Vec::new(),
            write: 0,
            total_spans: 0,
            unexpected: 0,
            link_deltas: Vec::new(),
            gauges: [0; GAUGE_COUNT],
        }
    }

    fn push_span(&mut self, ev: SpanEvent) {
        if self.spans.len() < self.cap {
            self.spans.push(ev);
        } else {
            self.spans[self.write] = ev;
            self.write = (self.write + 1) % self.cap;
        }
    }

    /// Retained spans. Not chronological once the ring has wrapped;
    /// consumers sort by their own keys.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// Total spans offered (including any overwritten).
    pub fn total_spans(&self) -> u64 {
        self.total_spans
    }

    /// Spans lost to ring overwrite.
    pub fn dropped(&self) -> u64 {
        self.total_spans - self.spans.len() as u64
    }

    /// Unexpected-message copies observed (counted outside the ring, so
    /// overwrite cannot lose them).
    pub fn unexpected(&self) -> u64 {
        self.unexpected
    }

    /// Current value of a gauge.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize]
    }

    /// Raw link deltas `(time, link, ±1)`, unsorted.
    pub fn link_deltas(&self) -> &[(SimTime, u32, i8)] {
        &self.link_deltas
    }

    /// Fold another recorder in (deterministic: preserves `other`'s
    /// internal order after `self`'s). Used to merge per-worker
    /// recorders from a parmap fan-out in input order.
    pub fn merge(&mut self, other: &RingRecorder) {
        for ev in &other.spans {
            self.push_span(*ev);
        }
        self.total_spans += other.total_spans;
        self.unexpected += other.unexpected;
        self.link_deltas.extend_from_slice(&other.link_deltas);
        for i in 0..GAUGE_COUNT {
            self.gauges[i] = self.gauges[i].max(other.gauges[i]);
        }
    }

    /// Sum retained spans into per-category totals.
    pub fn breakdown(&self) -> TimeBreakdown {
        let mut b = TimeBreakdown::ZERO;
        for ev in &self.spans {
            let d = ev.dur();
            match ev.kind {
                SpanKind::Compute | SpanKind::Delay => b.compute += d,
                SpanKind::SendOverhead | SpanKind::RecvOverhead => b.overhead += d,
                SpanKind::Wait => b.wait += d,
                SpanKind::CollectiveWait => b.collective += d,
                SpanKind::MsgWire => {
                    b.wire += ev.aux.min(d);
                    b.contention += d.saturating_sub(ev.aux);
                }
                SpanKind::Rendezvous => b.handshake += d,
                SpanKind::UnexpectedCopy => b.copy += d,
                SpanKind::Retransmit => b.retransmit += d,
            }
        }
        b
    }

    /// Per-rank sums of cpu-track spans, indexed by rank. When the ring
    /// has not dropped anything, entry `r` equals rank `r`'s finish time
    /// exactly (the cpu track tiles `[0, finish]`).
    pub fn cpu_sums(&self) -> Vec<SimTime> {
        let ranks = self.spans.iter().map(|e| e.rank as usize + 1).max().unwrap_or(0);
        let mut sums = vec![SimTime::ZERO; ranks];
        for ev in &self.spans {
            if ev.kind.is_cpu() {
                sums[ev.rank as usize] += ev.dur();
            }
        }
        sums
    }

    /// Integrate the link deltas into per-link peak and mean loads over
    /// `[0, horizon]`. Only links with at least one delta appear, in
    /// ascending link order. Releases sort before acquires at equal
    /// timestamps so back-to-back reuse does not fake a peak.
    pub fn link_usage(&self, horizon: SimTime) -> Vec<LinkUse> {
        let mut deltas = self.link_deltas.clone();
        deltas.sort_unstable_by_key(|&(t, link, d)| (link, t, d));
        let mut out = Vec::new();
        let mut i = 0;
        while i < deltas.len() {
            let link = deltas[i].1;
            let mut load: i64 = 0;
            let mut peak: i64 = 0;
            let mut last_t = SimTime::ZERO;
            let mut integral: u128 = 0; // load × picoseconds
            while i < deltas.len() && deltas[i].1 == link {
                let (t, _, d) = deltas[i];
                if load > 0 {
                    integral += load as u128 * (t.saturating_sub(last_t)).as_ps() as u128;
                }
                last_t = t;
                load += d as i64;
                peak = peak.max(load);
                i += 1;
            }
            // any flow still open integrates to the horizon
            if load > 0 && horizon > last_t {
                integral += load as u128 * (horizon.saturating_sub(last_t)).as_ps() as u128;
            }
            let mean =
                if horizon.as_ps() == 0 { 0.0 } else { integral as f64 / horizon.as_ps() as f64 };
            out.push(LinkUse { link, peak: peak.max(0) as u32, mean });
        }
        out
    }
}

impl Tracer for RingRecorder {
    const ENABLED: bool = true;

    #[inline]
    fn span(&mut self, ev: SpanEvent) {
        debug_assert!(ev.t1 >= ev.t0, "span ends before it starts: {ev:?}");
        self.total_spans += 1;
        if ev.kind == SpanKind::UnexpectedCopy {
            self.unexpected += 1;
        }
        self.push_span(ev);
    }

    #[inline]
    fn link_delta(&mut self, link: u32, t: SimTime, delta: i8) {
        self.link_deltas.push((t, link, delta));
    }

    #[inline]
    fn gauge(&mut self, id: GaugeId, value: u64) {
        let g = &mut self.gauges[id as usize];
        *g = (*g).max(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(rank: u32, kind: SpanKind, t0: u64, t1: u64) -> SpanEvent {
        SpanEvent::new(rank, kind, SimTime::from_us(t0), SimTime::from_us(t1))
    }

    #[test]
    fn ring_overwrites_oldest_past_capacity() {
        let mut r = RingRecorder::with_capacity(3);
        for i in 0..5u64 {
            r.span(span(0, SpanKind::Compute, i, i + 1));
        }
        assert_eq!(r.total_spans(), 5);
        assert_eq!(r.dropped(), 2);
        let starts: Vec<u64> = r.spans().iter().map(|e| e.t0.as_us() as u64).collect();
        // slots hold {3, 4, 2} after overwriting 0 and 1
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![2, 3, 4]);
    }

    #[test]
    fn breakdown_buckets_by_kind() {
        let mut r = RingRecorder::new();
        r.span(span(0, SpanKind::Compute, 0, 10));
        r.span(span(0, SpanKind::SendOverhead, 10, 12));
        r.span(span(0, SpanKind::Wait, 12, 20));
        r.span(span(1, SpanKind::CollectiveWait, 0, 5));
        r.span(span(0, SpanKind::MsgWire, 12, 20).with_msg(1, 0, 64).with_aux(SimTime::from_us(6)));
        r.span(span(0, SpanKind::Rendezvous, 10, 12));
        r.span(span(1, SpanKind::UnexpectedCopy, 5, 6));
        let b = r.breakdown();
        assert_eq!(b.compute, SimTime::from_us(10));
        assert_eq!(b.overhead, SimTime::from_us(2));
        assert_eq!(b.wait, SimTime::from_us(8));
        assert_eq!(b.collective, SimTime::from_us(5));
        assert_eq!(b.wire, SimTime::from_us(6));
        assert_eq!(b.contention, SimTime::from_us(2));
        assert_eq!(b.handshake, SimTime::from_us(2));
        assert_eq!(b.copy, SimTime::from_us(1));
        assert_eq!(b.cpu_total(), SimTime::from_us(25));
        assert_eq!(r.unexpected(), 1);
    }

    #[test]
    fn cpu_sums_ignore_net_spans() {
        let mut r = RingRecorder::new();
        r.span(span(0, SpanKind::Compute, 0, 4));
        r.span(span(0, SpanKind::Wait, 4, 9));
        r.span(span(0, SpanKind::MsgWire, 0, 100));
        r.span(span(2, SpanKind::Delay, 0, 7));
        let sums = r.cpu_sums();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0], SimTime::from_us(9));
        assert_eq!(sums[1], SimTime::ZERO);
        assert_eq!(sums[2], SimTime::from_us(7));
    }

    #[test]
    fn link_usage_integrates_and_peaks() {
        let mut r = RingRecorder::new();
        // link 5: two overlapping flows over [0,4] and [2,6]
        r.link_delta(5, SimTime::from_us(0), 1);
        r.link_delta(5, SimTime::from_us(2), 1);
        r.link_delta(5, SimTime::from_us(4), -1);
        r.link_delta(5, SimTime::from_us(6), -1);
        // link 2: release and acquire at the same instant must not peak at 2
        r.link_delta(2, SimTime::from_us(0), 1);
        r.link_delta(2, SimTime::from_us(3), -1);
        r.link_delta(2, SimTime::from_us(3), 1);
        r.link_delta(2, SimTime::from_us(5), -1);
        let usage = r.link_usage(SimTime::from_us(10));
        assert_eq!(usage.len(), 2);
        assert_eq!(usage[0].link, 2);
        assert_eq!(usage[0].peak, 1);
        assert!((usage[0].mean - 0.5).abs() < 1e-12);
        assert_eq!(usage[1].link, 5);
        assert_eq!(usage[1].peak, 2);
        // ∫ load = 2 + 2·2 + 2 = 8 flow·µs over 10 µs
        assert!((usage[1].mean - 0.8).abs() < 1e-12);
    }

    #[test]
    fn link_usage_out_of_order_input_is_fine() {
        let mut a = RingRecorder::new();
        a.link_delta(1, SimTime::from_us(7), -1);
        a.link_delta(1, SimTime::from_us(1), 1);
        let u = a.link_usage(SimTime::from_us(10));
        assert_eq!(u[0].peak, 1);
        assert!((u[0].mean - 0.6).abs() < 1e-12);
    }

    #[test]
    fn merge_is_deterministic_and_sums() {
        let mut a = RingRecorder::new();
        a.span(span(0, SpanKind::Compute, 0, 1));
        a.gauge(GaugeId::EventQueueDepth, 4);
        let mut b = RingRecorder::new();
        b.span(span(1, SpanKind::Wait, 0, 2));
        b.span(span(1, SpanKind::UnexpectedCopy, 0, 1));
        b.gauge(GaugeId::EventQueueDepth, 9);
        b.link_delta(0, SimTime::ZERO, 1);
        let mut m1 = RingRecorder::new();
        m1.merge(&a);
        m1.merge(&b);
        let mut m2 = RingRecorder::new();
        m2.merge(&a);
        m2.merge(&b);
        assert_eq!(m1.spans(), m2.spans());
        assert_eq!(m1.total_spans(), 3);
        assert_eq!(m1.unexpected(), 1);
        assert_eq!(m1.gauge_value(GaugeId::EventQueueDepth), 9);
        assert_eq!(m1.link_deltas().len(), 1);
    }

    #[test]
    fn retransmit_spans_bucket_separately() {
        let mut r = RingRecorder::new();
        r.span(span(0, SpanKind::Retransmit, 0, 3));
        let b = r.breakdown();
        assert_eq!(b.retransmit, SimTime::from_us(3));
        assert_eq!(b.cpu_total(), SimTime::ZERO, "retransmit is net-track time");
        // the pristine report table keeps its eight columns
        assert_eq!(b.fields().len(), 8);
        assert!(b.fields().iter().all(|(name, _)| *name != "retransmit"));
    }

    #[test]
    fn gauges_keep_running_max() {
        let mut r = RingRecorder::new();
        r.gauge(GaugeId::PostedMatchDepth, 3);
        r.gauge(GaugeId::PostedMatchDepth, 1);
        assert_eq!(r.gauge_value(GaugeId::PostedMatchDepth), 3);
        assert_eq!(r.gauge_value(GaugeId::ArrivedMatchDepth), 0);
    }
}
