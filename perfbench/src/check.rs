//! Reference answers captured from the seed code, and the check every
//! item goes through.
//!
//! Each workload's reference lives in `expected/<workload>.txt`, one
//! `key value` line per item key, the value as hex bits. The references
//! depend on the item, never on the workload seed, so any seed's run is
//! checked against the same file. `perfbench --capture DIR` rewrites
//! them; that is only right when a change is meant to alter output,
//! which this repository's byte-identity rule forbids.

use std::collections::HashMap;
use std::fmt::Write as _;

/// Reference bits by item key.
#[derive(Debug, Default, Clone)]
pub struct Expected(HashMap<String, u128>);

impl Expected {
    /// Parse `key hex` lines; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let mut map = HashMap::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, hex) = line
                .split_once(' ')
                .ok_or_else(|| format!("line {}: expected `key hex`", i + 1))?;
            let bits =
                u128::from_str_radix(hex.trim(), 16).map_err(|e| format!("line {}: {e}", i + 1))?;
            if map.insert(key.to_string(), bits).is_some() {
                return Err(format!("line {}: duplicate key {key}", i + 1));
            }
        }
        Ok(Expected(map))
    }

    /// Render in the file format, keys in the given order.
    pub fn render(header: &str, entries: &[(String, u128)]) -> String {
        let mut out = format!("# {header}\n");
        for (k, v) in entries {
            let _ = writeln!(out, "{k} {v:x}");
        }
        out
    }

    /// True when `key` has a reference equal to `bits`. A key without a
    /// reference fails: an unchecked answer is not a correct one.
    pub fn matches(&self, key: &str, bits: u128) -> bool {
        self.0.get(key) == Some(&bits)
    }

    /// Reference entries.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// Items attempted and failed.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Items timed.
    pub attempted: u64,
    /// Items that errored or failed their check.
    pub failed: u64,
}

impl Tally {
    /// Count one item; `ok = false` marks it failed.
    pub fn item(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Mark `n` already-counted items failed (a later check caught them).
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }
}

/// FNV-1a over 64-bit words: order-sensitive digest of a result stream.
pub fn fold(digest: u64, word: u64) -> u64 {
    let mut h = if digest == 0 { 0xcbf2_9ce4_8422_2325 } else { digest };
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_flipped_bit_is_caught_and_counted_failed() {
        let answer = 1.234_567e-5_f64.to_bits();
        let text = Expected::render("test", &[("p0".into(), u128::from(answer))]);
        let expected = Expected::parse(&text).unwrap();
        let mut tally = Tally::default();
        tally.item(expected.matches("p0", u128::from(answer)));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        for bit in [0, 17, 52, 63] {
            let corrupt = answer ^ (1u64 << bit);
            tally.item(expected.matches("p0", u128::from(corrupt)));
        }
        assert_eq!((tally.attempted, tally.failed), (5, 4));
        tally.item(expected.matches("unknown", u128::from(answer)));
        assert_eq!(tally.failed, 5, "an item without a reference fails");
    }

    #[test]
    fn parse_rejects_malformed_and_duplicate_lines() {
        assert!(Expected::parse("a 1\na 2\n").is_err());
        assert!(Expected::parse("a zz\n").is_err());
        assert!(Expected::parse("justkey\n").is_err());
        assert_eq!(Expected::parse("# c\n\na ff\n").unwrap().len(), 1);
    }

    #[test]
    fn fold_is_order_sensitive() {
        assert_ne!(fold(fold(0, 1), 2), fold(fold(0, 2), 1));
        assert_eq!(fold(fold(0, 1), 2), fold(fold(0, 1), 2));
    }
}
