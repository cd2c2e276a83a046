//! Chrome `trace_event` export and validation.
//!
//! The exporter writes the JSON object format (`{"traceEvents": [...]}`)
//! that `chrome://tracing` and Perfetto load directly. Each scenario
//! becomes one *process* (pid = scenario index); each rank owns two
//! *threads*: tid `2r` is the cpu track (B/E duration pairs that tile
//! the rank clock) and tid `2r+1` is the net track (X complete events
//! for in-flight message state, which may overlap).
//!
//! Timestamps are microseconds of *simulated* time. Everything is
//! emitted in a deterministic sort order, so traces are byte-identical
//! across runs and worker counts.
//!
//! [`validate_trace`] re-parses the JSON with a dependency-free
//! recursive-descent parser and checks the structural invariants the
//! golden tests pin: well-formedness, non-decreasing `ts` per track,
//! and matched B/E pairs.

use crate::metrics::escape;
use crate::recorder::RingRecorder;
use crate::{SpanEvent, SpanKind, NO_PEER};
use hpcsim_engine::SimTime;
use std::collections::HashMap;
use std::fmt::Write as _;

fn ts_us(t: SimTime) -> String {
    format!("{:.6}", t.as_ps() as f64 / 1e6)
}

/// Deterministic per-track sort key: spans on one track never overlap
/// (cpu) or are disambiguated by message identity (net).
fn sort_key(ev: &SpanEvent) -> (u32, SimTime, SimTime, u32, u32) {
    (ev.rank, ev.t0, ev.t1, ev.tag, ev.peer)
}

fn msg_args(ev: &SpanEvent) -> String {
    let mut s = format!("{{\"peer\":{},\"tag\":{},\"bytes\":{}", ev.peer, ev.tag, ev.bytes);
    if ev.kind == SpanKind::MsgWire {
        let _ = write!(s, ",\"base_us\":{}", ts_us(ev.aux));
    }
    s.push('}');
    s
}

/// Render scenarios as Chrome `trace_event` JSON. `scenarios` pairs a
/// display label with its recorder; order fixes the pid assignment.
pub fn chrome_trace(scenarios: &[(String, &RingRecorder)]) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !std::mem::take(&mut first) {
            out.push_str(",\n");
        }
        out.push_str(&line);
    };
    for (pid, (label, rec)) in scenarios.iter().enumerate() {
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape(label)
            ),
        );
        let mut cpu: Vec<&SpanEvent> = rec.spans().iter().filter(|e| e.kind.is_cpu()).collect();
        let mut net: Vec<&SpanEvent> = rec.spans().iter().filter(|e| !e.kind.is_cpu()).collect();
        cpu.sort_unstable_by_key(|e| sort_key(e));
        net.sort_unstable_by_key(|e| sort_key(e));
        let mut ranks: Vec<u32> = rec.spans().iter().map(|e| e.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        for &r in &ranks {
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {r} cpu\"}}}}",
                    2 * r
                ),
            );
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"rank {r} net\"}}}}",
                    2 * r + 1
                ),
            );
        }
        for ev in cpu {
            let tid = 2 * ev.rank;
            let name = ev.kind.label();
            if ev.peer == NO_PEER {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\"}}",
                        ts_us(ev.t0)
                    ),
                );
            } else {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"B\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\",\"args\":{}}}",
                        ts_us(ev.t0),
                        msg_args(ev)
                    ),
                );
            }
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"E\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"name\":\"{name}\"}}",
                    ts_us(ev.t1)
                ),
            );
        }
        for ev in net {
            let tid = 2 * ev.rank + 1;
            push(
                &mut out,
                format!(
                    "{{\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"name\":\"{}\",\"args\":{}}}",
                    ts_us(ev.t0),
                    ts_us(ev.dur()),
                    ev.kind.label(),
                    msg_args(ev)
                ),
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Render scenarios as a compact CSV (same deterministic order as the
/// Chrome export).
pub fn trace_csv(scenarios: &[(String, &RingRecorder)]) -> String {
    let mut out = String::from("scenario,rank,track,kind,peer,tag,bytes,t0_us,t1_us,base_us\n");
    for (label, rec) in scenarios {
        let mut spans: Vec<&SpanEvent> = rec.spans().iter().collect();
        spans.sort_unstable_by_key(|e| (u32::from(!e.kind.is_cpu()), sort_key(e)));
        for ev in spans {
            let track = if ev.kind.is_cpu() { "cpu" } else { "net" };
            let peer = if ev.peer == NO_PEER { String::new() } else { ev.peer.to_string() };
            let _ = writeln!(
                out,
                "{},{},{track},{},{peer},{},{},{},{},{}",
                escape(label),
                ev.rank,
                ev.kind.label(),
                ev.tag,
                ev.bytes,
                ts_us(ev.t0),
                ts_us(ev.t1),
                ts_us(ev.aux),
            );
        }
    }
    out
}

/// Summary of a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// All events, metadata included.
    pub events: usize,
    /// Duration spans: matched B/E pairs plus X complete events.
    pub spans: usize,
    /// Distinct `(pid, tid)` tracks carrying timed events.
    pub tracks: usize,
}

// ---------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (the workspace's serde
// is a no-op shim, so validation parses by hand).
// ---------------------------------------------------------------------

/// Maximum container nesting depth [`parse_json`] accepts. The traces
/// this crate emits nest three levels deep; the limit exists so
/// adversarial input exhausts the error path, not the call stack.
pub const MAX_JSON_DEPTH: usize = 64;

/// A parsed JSON value (the dependency-free validation parser's output).
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    Obj(Vec<(String, JsonValue)>),
    Arr(Vec<JsonValue>),
    Str(String),
    Num(f64),
    Bool(bool),
    Null,
}

impl JsonValue {
    /// Field lookup on an object; `None` for other variants.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsonValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a complete JSON document. Rejects trailing bytes, nesting past
/// [`MAX_JSON_DEPTH`], and every malformation with `Err` — never a
/// panic (a fuzz suite in `tests/fuzz_chrome.rs` pins this).
pub fn parse_json(json: &str) -> Result<JsonValue, String> {
    let mut p = Parser::new(json);
    let root = p.value()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes after JSON value at byte {}", p.i));
    }
    Ok(root)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser { b: s.as_bytes(), i: 0, depth: 0 }
    }

    fn err<T>(&self, msg: &str) -> Result<T, String> {
        Err(format!("JSON error at byte {}: {msg}", self.i))
    }

    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.b.get(self.i).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            self.err(&format!("expected '{}'", c as char))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') | Some(b'[') => {
                self.depth += 1;
                if self.depth > MAX_JSON_DEPTH {
                    return self.err(&format!("nesting deeper than {MAX_JSON_DEPTH}"));
                }
                let v = if self.b[self.i] == b'{' { self.object() } else { self.array() };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => self.err("expected a value"),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.b[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(v)
        } else {
            self.err(&format!("expected '{lit}'"))
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Obj(fields));
                }
                _ => return self.err("expected ',' or '}'"),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return self.err("expected ',' or ']'"),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return self.err("unterminated string");
            };
            self.i += 1;
            match c {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return self.err("bad escape");
                    };
                    self.i += 1;
                    match e {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            if self.i + 4 > self.b.len() {
                                return self.err("bad \\u escape");
                            }
                            let hex = std::str::from_utf8(&self.b[self.i..self.i + 4])
                                .map_err(|_| "bad \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "bad \\u escape".to_string())?;
                            self.i += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return self.err("unknown escape"),
                    }
                }
                _ => {
                    // copy the raw UTF-8 byte run starting here
                    let start = self.i - 1;
                    let mut end = self.i;
                    while end < self.b.len() && self.b[end] != b'"' && self.b[end] != b'\\' {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.b[start..end])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    s.push_str(chunk);
                    self.i = end;
                }
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.i;
        if self.b.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self
            .b
            .get(self.i)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.i += 1;
        }
        let txt = std::str::from_utf8(&self.b[start..self.i]).map_err(|_| "bad number")?;
        txt.parse::<f64>().map(JsonValue::Num).or_else(|_| self.err("bad number"))
    }
}

/// Parse `json` and check the trace-structure invariants:
///
/// * well-formed JSON with a top-level `traceEvents` array;
/// * every event has a known `ph` (`M`/`B`/`E`/`X`) and the fields that
///   phase requires;
/// * per `(pid, tid)` track, `ts` is non-decreasing in array order;
/// * `B`/`E` events nest and match by name, with no stack left open;
/// * `X` durations are non-negative.
pub fn validate_trace(json: &str) -> Result<TraceStats, String> {
    let root = parse_json(json)?;
    let Some(JsonValue::Arr(events)) = root.get("traceEvents") else {
        return Err("missing traceEvents array".into());
    };

    struct Track {
        last_ts: f64,
        stack: Vec<String>,
    }
    let mut tracks: HashMap<(i64, i64), Track> = HashMap::new();
    let mut spans = 0usize;
    for (idx, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {idx}: missing ph"))?;
        if ph == "M" {
            ev.get("name").and_then(JsonValue::as_str).ok_or(format!("event {idx}: M without name"))?;
            continue;
        }
        if !matches!(ph, "B" | "E" | "X") {
            return Err(format!("event {idx}: unsupported ph {ph:?}"));
        }
        let num = |key: &str| {
            ev.get(key).and_then(JsonValue::as_num).ok_or(format!("event {idx}: missing {key}"))
        };
        let pid = num("pid")? as i64;
        let tid = num("tid")? as i64;
        let ts = num("ts")?;
        if !ts.is_finite() || ts < 0.0 {
            return Err(format!("event {idx}: bad ts {ts}"));
        }
        let name = ev
            .get("name")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| format!("event {idx}: missing name"))?;
        let track = tracks
            .entry((pid, tid))
            .or_insert_with(|| Track { last_ts: 0.0, stack: Vec::new() });
        if ts < track.last_ts {
            return Err(format!(
                "event {idx}: ts {ts} goes backwards on track ({pid},{tid}) after {}",
                track.last_ts
            ));
        }
        track.last_ts = ts;
        match ph {
            "B" => track.stack.push(name.to_string()),
            "E" => {
                let open = track
                    .stack
                    .pop()
                    .ok_or_else(|| format!("event {idx}: E without open B on ({pid},{tid})"))?;
                if open != name {
                    return Err(format!("event {idx}: E {name:?} closes B {open:?}"));
                }
                spans += 1;
            }
            _ => {
                let dur = num("dur")?;
                if !dur.is_finite() || dur < 0.0 {
                    return Err(format!("event {idx}: bad dur {dur}"));
                }
                spans += 1;
            }
        }
    }
    for ((pid, tid), t) in &tracks {
        if !t.stack.is_empty() {
            return Err(format!(
                "track ({pid},{tid}): {} unclosed B event(s), e.g. {:?}",
                t.stack.len(),
                t.stack.last().unwrap()
            ));
        }
    }
    Ok(TraceStats { events: events.len(), spans, tracks: tracks.len() })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_recorder() -> RingRecorder {
        let mut r = RingRecorder::new();
        let us = SimTime::from_us;
        r.span(SpanEvent::new(0, SpanKind::Compute, us(0), us(10)));
        r.span(SpanEvent::new(0, SpanKind::SendOverhead, us(10), us(11)).with_msg(1, 5, 256));
        r.span(SpanEvent::new(0, SpanKind::Wait, us(11), us(20)));
        r.span(
            SpanEvent::new(0, SpanKind::MsgWire, us(11), us(19))
                .with_msg(1, 5, 256)
                .with_aux(us(6)),
        );
        r.span(SpanEvent::new(1, SpanKind::Delay, us(0), us(4)));
        r.span(SpanEvent::new(1, SpanKind::UnexpectedCopy, us(4), us(5)).with_msg(0, 5, 256));
        r
    }

    #[test]
    fn export_validates_and_counts() {
        let rec = sample_recorder();
        let json = chrome_trace(&[("unit".to_string(), &rec)]);
        let stats = validate_trace(&json).expect("valid trace");
        // 4 cpu B/E pairs + 2 net X events, 1 process + 4 thread metadata
        assert_eq!(stats.spans, 6);
        assert_eq!(stats.tracks, 4);
        assert_eq!(stats.events, 5 + 2 * 4 + 2);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("rank 1 net"));
        assert!(json.contains("\"base_us\":6.000000"));
    }

    #[test]
    fn export_is_deterministic() {
        let rec = sample_recorder();
        let scenarios = vec![("unit".to_string(), &rec)];
        assert_eq!(chrome_trace(&scenarios), chrome_trace(&scenarios));
        assert_eq!(trace_csv(&scenarios), trace_csv(&scenarios));
    }

    #[test]
    fn csv_has_all_spans() {
        let rec = sample_recorder();
        let csv = trace_csv(&[("unit".to_string(), &rec)]);
        assert_eq!(csv.lines().count(), 1 + rec.spans().len());
        assert!(csv.starts_with("scenario,rank,track,kind"));
        assert!(csv.contains("unit,0,net,msg_wire,1,5,256,"));
    }

    #[test]
    fn validator_rejects_backwards_ts() {
        let bad = r#"{"traceEvents":[
            {"ph":"B","pid":0,"tid":0,"ts":5.0,"name":"a"},
            {"ph":"E","pid":0,"tid":0,"ts":4.0,"name":"a"}
        ]}"#;
        let err = validate_trace(bad).unwrap_err();
        assert!(err.contains("backwards"), "{err}");
    }

    #[test]
    fn validator_rejects_unmatched_spans() {
        let open = r#"{"traceEvents":[{"ph":"B","pid":0,"tid":0,"ts":1.0,"name":"a"}]}"#;
        assert!(validate_trace(open).unwrap_err().contains("unclosed"));
        let cross = r#"{"traceEvents":[
            {"ph":"B","pid":0,"tid":0,"ts":1.0,"name":"a"},
            {"ph":"E","pid":0,"tid":0,"ts":2.0,"name":"b"}
        ]}"#;
        assert!(validate_trace(cross).unwrap_err().contains("closes"));
        let bare = r#"{"traceEvents":[{"ph":"E","pid":0,"tid":0,"ts":1.0,"name":"a"}]}"#;
        assert!(validate_trace(bare).unwrap_err().contains("without open"));
    }

    #[test]
    fn validator_rejects_malformed_json() {
        assert!(validate_trace("{\"traceEvents\":[").is_err());
        assert!(validate_trace("[]").is_err());
        assert!(validate_trace("{\"traceEvents\":[]} trailing").is_err());
        assert!(validate_trace("{\"traceEvents\":[{\"ph\":\"Q\",\"name\":\"x\"}]}").is_err());
    }

    #[test]
    fn validator_accepts_escapes_and_numbers() {
        let json = r#"{"traceEvents":[
            {"ph":"M","pid":0,"tid":0,"name":"process_name","args":{"name":"a\"b\\cé"}},
            {"ph":"X","pid":0,"tid":1,"ts":1.5e2,"dur":0.0,"name":"n"}
        ]}"#;
        let stats = validate_trace(json).expect("valid");
        assert_eq!(stats.events, 2);
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.tracks, 1);
    }
}
