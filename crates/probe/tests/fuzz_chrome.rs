//! Fuzz-style robustness tests for the hand-rolled JSON parser behind
//! `validate_trace`: whatever bytes arrive, the parser returns `Err` —
//! it never panics, never overflows the stack, and round-trips every
//! value it can itself represent.

use hpcsim_engine::rng::DetRng;
use hpcsim_engine::SimTime;
use hpcsim_probe::{
    chrome_trace, parse_json, JsonValue, RingRecorder, SpanEvent, SpanKind, Tracer, MAX_JSON_DEPTH,
};
use proptest::prelude::*;

fn sample_trace_json() -> String {
    let mut r = RingRecorder::new();
    let us = SimTime::from_us;
    r.span(SpanEvent::new(0, SpanKind::Compute, us(0), us(10)));
    r.span(SpanEvent::new(0, SpanKind::SendOverhead, us(10), us(11)).with_msg(1, 5, 256));
    r.span(SpanEvent::new(0, SpanKind::Wait, us(11), us(20)));
    r.span(
        SpanEvent::new(0, SpanKind::MsgWire, us(11), us(19)).with_msg(1, 5, 256).with_aux(us(6)),
    );
    chrome_trace(&[("fuzz".to_string(), &r)])
}

#[test]
fn truncated_input_errs_never_panics() {
    let json = sample_trace_json();
    assert!(json.is_ascii(), "sample must be ASCII so every cut is a char boundary");
    let mut errors = 0usize;
    for cut in 0..json.len() {
        if parse_json(&json[..cut]).is_err() {
            errors += 1;
        }
    }
    // every cut except those that only drop trailing whitespace must fail
    let trailing_ws = json.len() - json.trim_end().len();
    assert!(errors >= json.len() - trailing_ws, "{errors} errors over {} cuts", json.len());
}

#[test]
fn deep_nesting_errs_instead_of_overflowing_the_stack() {
    for open in ["[", "{\"k\":"] {
        let bomb = open.repeat(100_000);
        let err = parse_json(&bomb).expect_err("nesting bomb must be rejected");
        assert!(err.contains("nesting"), "unexpected error: {err}");
    }
}

#[test]
fn nesting_limit_is_exact() {
    let ok = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH), "]".repeat(MAX_JSON_DEPTH));
    assert!(parse_json(&ok).is_ok(), "depth {MAX_JSON_DEPTH} must parse");
    let too_deep = format!("{}1{}", "[".repeat(MAX_JSON_DEPTH + 1), "]".repeat(MAX_JSON_DEPTH + 1));
    assert!(parse_json(&too_deep).is_err(), "depth {} must be rejected", MAX_JSON_DEPTH + 1);
}

#[test]
fn invalid_escapes_err() {
    for bad in [
        r#""\u12""#,   // truncated \u
        r#""\u""#,     // empty \u
        r#""\uZZZZ""#, // non-hex \u
        r#""\q""#,     // unknown escape
        r#""\"#,       // escape at EOF
        r#""abc"#,     // unterminated string
        "\"\\u00g0\"", // non-hex digit mid-escape
    ] {
        assert!(parse_json(bad).is_err(), "input {bad:?} must be rejected");
    }
    // a lone surrogate is *representable garbage*: it decodes to U+FFFD
    // rather than panicking inside char::from_u32
    assert_eq!(parse_json(r#""\ud800""#), Ok(JsonValue::Str("\u{fffd}".to_string())));
}

#[test]
fn random_garbage_never_panics() {
    let mut rng = DetRng::new(0xFA57, 0);
    for _ in 0..2000 {
        let len = rng.next_below(200) as usize;
        let bytes: Vec<u8> = (0..len).map(|_| rng.next_below(256) as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_json(&text); // any Result is fine; a panic is not
    }
}

#[test]
fn mutated_valid_traces_never_panic() {
    let json = sample_trace_json();
    let mut rng = DetRng::new(0xBEEF, 1);
    for _ in 0..500 {
        let mut bytes = json.clone().into_bytes();
        for _ in 0..1 + rng.next_below(4) {
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_below(128) as u8; // keep it ASCII/UTF-8-valid
        }
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = parse_json(&text);
        }
    }
}

// -------------------------------------------------------------------
// parse(serialize(x)) round-trip over randomly generated values
// -------------------------------------------------------------------

fn escape_into(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn serialize(v: &JsonValue, out: &mut String) {
    use std::fmt::Write as _;
    match v {
        JsonValue::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('"');
                escape_into(k, out);
                out.push_str("\":");
                serialize(v, out);
            }
            out.push('}');
        }
        JsonValue::Arr(items) => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                serialize(v, out);
            }
            out.push(']');
        }
        JsonValue::Str(s) => {
            out.push('"');
            escape_into(s, out);
            out.push('"');
        }
        JsonValue::Num(n) => {
            let _ = write!(out, "{n}");
        }
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        JsonValue::Null => out.push_str("null"),
    }
}

fn gen_string(rng: &mut DetRng) -> String {
    const ALPHABET: &[char] =
        &['a', 'Z', '0', ' ', '"', '\\', '\n', '\t', 'é', '💡', '\u{1}', ':', ',', '{', ']'];
    let len = rng.next_below(12) as usize;
    (0..len).map(|_| ALPHABET[rng.next_below(ALPHABET.len() as u64) as usize]).collect()
}

fn gen_value(rng: &mut DetRng, depth: usize) -> JsonValue {
    let pick = if depth >= 5 { 2 + rng.next_below(4) } else { rng.next_below(6) };
    match pick {
        0 => {
            let n = rng.next_below(4) as usize;
            JsonValue::Obj((0..n).map(|_| (gen_string(rng), gen_value(rng, depth + 1))).collect())
        }
        1 => {
            let n = rng.next_below(4) as usize;
            JsonValue::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        2 => JsonValue::Str(gen_string(rng)),
        3 => {
            // mix of integers, fractions, negatives, and large magnitudes
            let raw = rng.next_u64();
            let n = match raw % 4 {
                0 => (raw >> 32) as f64,
                1 => -((raw >> 40) as f64),
                2 => (raw >> 16) as f64 / 1024.0,
                _ => (raw >> 50) as f64 * 1e12,
            };
            JsonValue::Num(n)
        }
        4 => JsonValue::Bool(raw_bool(rng)),
        _ => JsonValue::Null,
    }
}

fn raw_bool(rng: &mut DetRng) -> bool {
    rng.next_below(2) == 1
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Serializing any representable value and re-parsing it yields the
    /// same value (f64 `Display` round-trips exactly in Rust).
    #[test]
    fn parse_serialize_round_trips(seed: u64) {
        let mut rng = DetRng::new(seed, 0);
        let v = gen_value(&mut rng, 0);
        let mut text = String::new();
        serialize(&v, &mut text);
        let back = parse_json(&text);
        prop_assert_eq!(back, Ok(v), "serialized form: {}", text);
    }
}
