//! Stable text serialization of recorded traces: the one writer and the
//! one parser of op lines in the workspace.
//!
//! Two stores keep traces in this form. The scenario cache's tier-2
//! store writes recorded traces to disk so a later process can replay
//! (or DAG-compile) them without re-recording, and every fuzz scenario
//! (`hpcsim-fuzz-scenario/2`) embeds this block verbatim after its
//! machine/mode/mapping/faults header. The format is line-oriented and
//! exact: every float is written as its IEEE-754 bit pattern in hex, so
//! serialize → parse is the identity on the trace and replaying a loaded
//! trace is bit-identical to replaying the original.
//!
//! ```text
//! hpcsim-trace/1 <ranks>
//! rank <index> <op-count>
//! c dgemm 2000 1            (compute: workload args, threads)
//! s 5 3 4096 0              (isend: dst tag bytes req)
//! k 0 allreduce 512 f64     (collective: comm op args)
//! ...
//! ```
//!
//! The parser is strict, because its input may be a corrupted cache
//! file: every integer is parsed at its field's own width, every peer
//! must be a rank of the world, and a count is trusted for allocation
//! only as far as the remaining text could back it. Malformed input is
//! a [`ParseError`] naming its line, never a truncated value, a replay
//! panic or an aborted allocation.

use crate::ops::{CommId, Op, Req};
use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_net::{CollectiveOp, DType};
use std::fmt::Write as _;

/// Format-identifying first token of a serialized trace.
pub const TRACE_MAGIC: &str = "hpcsim-trace/1";

fn push_f64(out: &mut String, v: f64) {
    let _ = write!(out, " 0x{:016x}", v.to_bits());
}

fn write_workload(out: &mut String, w: &Workload) {
    match *w {
        Workload::Dgemm { n } => {
            let _ = write!(out, "dgemm {n}");
        }
        Workload::LuUpdate { m, n, k } => {
            let _ = write!(out, "lu {m} {n} {k}");
        }
        Workload::StreamCopy { n } => {
            let _ = write!(out, "scopy {n}");
        }
        Workload::StreamScale { n } => {
            let _ = write!(out, "sscale {n}");
        }
        Workload::StreamAdd { n } => {
            let _ = write!(out, "sadd {n}");
        }
        Workload::StreamTriad { n } => {
            let _ = write!(out, "striad {n}");
        }
        Workload::Fft1d { n } => {
            let _ = write!(out, "fft {n}");
        }
        Workload::RandomAccess { updates, table_bytes } => {
            let _ = write!(out, "ra {updates} {table_bytes}");
        }
        Workload::Stencil { points, flops_per_point, bytes_per_point } => {
            let _ = write!(out, "stencil {points}");
            push_f64(out, flops_per_point);
            push_f64(out, bytes_per_point);
        }
        Workload::Chemistry { points, flops_per_point } => {
            let _ = write!(out, "chem {points}");
            push_f64(out, flops_per_point);
        }
        Workload::MdForce { pairs, flops_per_pair } => {
            let _ = write!(out, "mdforce {pairs}");
            push_f64(out, flops_per_pair);
        }
        Workload::Custom { flops, dram_bytes, simd_eff, serial_frac } => {
            let _ = write!(out, "custom");
            push_f64(out, flops);
            push_f64(out, dram_bytes);
            push_f64(out, simd_eff);
            push_f64(out, serial_frac);
        }
    }
}

fn write_collective(out: &mut String, op: &CollectiveOp) {
    match *op {
        CollectiveOp::Barrier => {
            let _ = write!(out, "barrier");
        }
        CollectiveOp::Bcast { bytes } => {
            let _ = write!(out, "bcast {bytes}");
        }
        CollectiveOp::Reduce { bytes, dtype } => {
            let _ = write!(out, "reduce {bytes} {}", dtype.name());
        }
        CollectiveOp::Allreduce { bytes, dtype } => {
            let _ = write!(out, "allreduce {bytes} {}", dtype.name());
        }
        CollectiveOp::Allgather { bytes_per_rank } => {
            let _ = write!(out, "allgather {bytes_per_rank}");
        }
        CollectiveOp::Alltoall { bytes_per_pair } => {
            let _ = write!(out, "alltoall {bytes_per_pair}");
        }
    }
}

fn write_op(out: &mut String, op: &Op) {
    match op {
        Op::Compute { work, threads } => {
            out.push_str("c ");
            write_workload(out, work);
            let _ = write!(out, " {threads}");
        }
        Op::Delay { time } => {
            let _ = write!(out, "d {}", time.0);
        }
        Op::Isend { dst, tag, bytes, req } => {
            let _ = write!(out, "s {dst} {tag} {bytes} {}", req.0);
        }
        Op::Irecv { src, tag, bytes, req } => {
            let _ = write!(out, "r {src} {tag} {bytes} {}", req.0);
        }
        Op::Wait { req } => {
            let _ = write!(out, "w {}", req.0);
        }
        Op::Collective { comm, op } => {
            let _ = write!(out, "k {} ", comm.0);
            write_collective(out, op);
        }
        Op::Mark { id } => {
            let _ = write!(out, "m {id}");
        }
    }
    out.push('\n');
}

/// Serialize a whole world of per-rank traces.
pub fn write_traces(traces: &[Vec<Op>]) -> String {
    let total: usize = traces.iter().map(Vec::len).sum();
    // ~16 bytes per op plus headers is a comfortable overestimate
    let mut out = String::with_capacity(32 * total + 16 * traces.len() + 32);
    let _ = writeln!(out, "{TRACE_MAGIC} {}", traces.len());
    for (i, trace) in traces.iter().enumerate() {
        let _ = writeln!(out, "rank {i} {}", trace.len());
        for op in trace {
            write_op(&mut out, op);
        }
    }
    out
}

/// One-line parse diagnostic: what was malformed and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.message)
    }
}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError { line, message: message.into() })
}

/// Parse an integer at its field's own width: a value that does not fit
/// is an error, never a silent truncation.
fn parse_num<T: std::str::FromStr>(
    line: usize,
    tok: Option<&str>,
    what: &str,
) -> Result<T, ParseError> {
    match tok {
        None => err(line, format!("missing {what}")),
        Some(t) => t.parse().or_else(|_| err(line, format!("bad {what} {t:?}"))),
    }
}

/// A send/receive peer, which must name a rank inside the world.
fn parse_peer(
    line: usize,
    tok: Option<&str>,
    what: &str,
    ranks: usize,
) -> Result<usize, ParseError> {
    let peer: usize = parse_num(line, tok, what)?;
    if peer >= ranks {
        return err(line, format!("{what} {peer} outside world of {ranks}"));
    }
    Ok(peer)
}

fn parse_f64(line: usize, tok: Option<&str>, what: &str) -> Result<f64, ParseError> {
    let Some(t) = tok else { return err(line, format!("missing {what}")) };
    let Some(hex) = t.strip_prefix("0x") else {
        return err(line, format!("{what} must be 0x-prefixed bits, got {t:?}"));
    };
    match u64::from_str_radix(hex, 16) {
        Ok(bits) => Ok(f64::from_bits(bits)),
        Err(_) => err(line, format!("bad {what} bits {t:?}")),
    }
}

fn parse_dtype(line: usize, tok: Option<&str>) -> Result<DType, ParseError> {
    match tok.and_then(DType::parse) {
        Some(d) => Ok(d),
        None => err(line, format!("bad dtype {tok:?}")),
    }
}

fn finish<'a>(line: usize, mut toks: impl Iterator<Item = &'a str>) -> Result<(), ParseError> {
    match toks.next() {
        None => Ok(()),
        Some(extra) => err(line, format!("trailing token {extra:?}")),
    }
}

fn parse_workload<'a>(
    line: usize,
    toks: &mut impl Iterator<Item = &'a str>,
) -> Result<Workload, ParseError> {
    let Some(kind) = toks.next() else { return err(line, "missing workload") };
    Ok(match kind {
        "dgemm" => Workload::Dgemm { n: parse_num(line, toks.next(), "n")? },
        "lu" => Workload::LuUpdate {
            m: parse_num(line, toks.next(), "m")?,
            n: parse_num(line, toks.next(), "n")?,
            k: parse_num(line, toks.next(), "k")?,
        },
        "scopy" => Workload::StreamCopy { n: parse_num(line, toks.next(), "n")? },
        "sscale" => Workload::StreamScale { n: parse_num(line, toks.next(), "n")? },
        "sadd" => Workload::StreamAdd { n: parse_num(line, toks.next(), "n")? },
        "striad" => Workload::StreamTriad { n: parse_num(line, toks.next(), "n")? },
        "fft" => Workload::Fft1d { n: parse_num(line, toks.next(), "n")? },
        "ra" => Workload::RandomAccess {
            updates: parse_num(line, toks.next(), "updates")?,
            table_bytes: parse_num(line, toks.next(), "table_bytes")?,
        },
        "stencil" => Workload::Stencil {
            points: parse_num(line, toks.next(), "points")?,
            flops_per_point: parse_f64(line, toks.next(), "flops_per_point")?,
            bytes_per_point: parse_f64(line, toks.next(), "bytes_per_point")?,
        },
        "chem" => Workload::Chemistry {
            points: parse_num(line, toks.next(), "points")?,
            flops_per_point: parse_f64(line, toks.next(), "flops_per_point")?,
        },
        "mdforce" => Workload::MdForce {
            pairs: parse_num(line, toks.next(), "pairs")?,
            flops_per_pair: parse_f64(line, toks.next(), "flops_per_pair")?,
        },
        "custom" => Workload::Custom {
            flops: parse_f64(line, toks.next(), "flops")?,
            dram_bytes: parse_f64(line, toks.next(), "dram_bytes")?,
            simd_eff: parse_f64(line, toks.next(), "simd_eff")?,
            serial_frac: parse_f64(line, toks.next(), "serial_frac")?,
        },
        other => return err(line, format!("unknown workload {other:?}")),
    })
}

fn parse_collective<'a>(
    line: usize,
    toks: &mut impl Iterator<Item = &'a str>,
) -> Result<CollectiveOp, ParseError> {
    let Some(kind) = toks.next() else { return err(line, "missing collective") };
    Ok(match kind {
        "barrier" => CollectiveOp::Barrier,
        "bcast" => CollectiveOp::Bcast { bytes: parse_num(line, toks.next(), "bytes")? },
        "reduce" => CollectiveOp::Reduce {
            bytes: parse_num(line, toks.next(), "bytes")?,
            dtype: parse_dtype(line, toks.next())?,
        },
        "allreduce" => CollectiveOp::Allreduce {
            bytes: parse_num(line, toks.next(), "bytes")?,
            dtype: parse_dtype(line, toks.next())?,
        },
        "allgather" => {
            CollectiveOp::Allgather { bytes_per_rank: parse_num(line, toks.next(), "bytes")? }
        }
        "alltoall" => {
            CollectiveOp::Alltoall { bytes_per_pair: parse_num(line, toks.next(), "bytes")? }
        }
        other => return err(line, format!("unknown collective {other:?}")),
    })
}

/// Parse one op line of a world of `ranks` ranks.
fn parse_op(line: usize, text: &str, ranks: usize) -> Result<Op, ParseError> {
    let mut toks = text.split_ascii_whitespace();
    let Some(tag) = toks.next() else { return err(line, "empty op line") };
    let op = match tag {
        "c" => {
            let work = parse_workload(line, &mut toks)?;
            Op::Compute { work, threads: parse_num(line, toks.next(), "threads")? }
        }
        "d" => Op::Delay { time: SimTime(parse_num(line, toks.next(), "picos")?) },
        "s" => Op::Isend {
            dst: parse_peer(line, toks.next(), "dst", ranks)?,
            tag: parse_num(line, toks.next(), "tag")?,
            bytes: parse_num(line, toks.next(), "bytes")?,
            req: Req(parse_num(line, toks.next(), "req")?),
        },
        "r" => Op::Irecv {
            src: parse_peer(line, toks.next(), "src", ranks)?,
            tag: parse_num(line, toks.next(), "tag")?,
            bytes: parse_num(line, toks.next(), "bytes")?,
            req: Req(parse_num(line, toks.next(), "req")?),
        },
        "w" => Op::Wait { req: Req(parse_num(line, toks.next(), "req")?) },
        "k" => {
            let comm = CommId(parse_num(line, toks.next(), "comm")?);
            Op::Collective { comm, op: parse_collective(line, &mut toks)? }
        }
        "m" => Op::Mark { id: parse_num(line, toks.next(), "id")? },
        other => return err(line, format!("unknown op tag {other:?}")),
    };
    finish(line, toks)?;
    Ok(op)
}

/// Shortest line the format holds, newline included (`w 0\n`). A rank
/// or op count read from the text reserves at most as many slots as the
/// unread text could hold lines, so a corrupt count cannot allocate
/// more than its input spells out.
const MIN_LINE_BYTES: usize = 4;

/// Line cursor over the unread text; line numbers are 1-based.
struct Lines<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Lines<'a> {
    fn next(&mut self) -> Option<(usize, &'a str)> {
        if self.rest.is_empty() {
            return None;
        }
        let (text, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        self.line += 1;
        Some((self.line, text))
    }

    /// The next line, or a diagnostic at the line where it is missing.
    fn expect(&mut self, what: impl FnOnce() -> String) -> Result<(usize, &'a str), ParseError> {
        match self.next() {
            Some(next) => Ok(next),
            None => err(self.line + 1, format!("missing {}", what())),
        }
    }

    /// `count`, capped by how many lines the unread text could hold.
    fn capacity(&self, count: usize) -> usize {
        count.min(self.rest.len() / MIN_LINE_BYTES + 1)
    }
}

/// Parse a serialized world of traces back into per-rank op vectors.
/// Replaying the parsed traces is bit-identical to replaying the
/// originals ([`write_traces`] round-trips exactly). Malformed input —
/// an integer too wide for its field, a peer outside the world, a count
/// the text does not back up — is a [`ParseError`] naming its line.
pub fn parse_traces(text: &str) -> Result<Vec<Vec<Op>>, ParseError> {
    let mut lines = Lines { rest: text, line: 0 };
    let (line, header) = lines.expect(|| "trace header".into())?;
    let mut toks = header.split_ascii_whitespace();
    match toks.next() {
        Some(TRACE_MAGIC) => {}
        other => return err(line, format!("bad magic {other:?}")),
    }
    let ranks: usize = parse_num(line, toks.next(), "rank count")?;
    finish(line, toks)?;
    let mut traces = Vec::with_capacity(lines.capacity(ranks));
    for want in 0..ranks {
        let (line, header) = lines.expect(|| format!("rank {want} header"))?;
        let mut toks = header.split_ascii_whitespace();
        if toks.next() != Some("rank") {
            return err(line, format!("expected rank header, got {header:?}"));
        }
        let idx: usize = parse_num(line, toks.next(), "rank index")?;
        if idx != want {
            return err(line, format!("rank {idx} out of order (expected {want})"));
        }
        let nops: usize = parse_num(line, toks.next(), "op count")?;
        finish(line, toks)?;
        let mut ops = Vec::with_capacity(lines.capacity(nops));
        for i in 0..nops {
            let (line, text) = lines.expect(|| format!("rank {idx} op {i} of {nops}"))?;
            ops.push(parse_op(line, text, ranks)?);
        }
        traces.push(ops);
    }
    while let Some((line, extra)) = lines.next() {
        if !extra.trim().is_empty() {
            return err(line, format!("trailing content {extra:?}"));
        }
    }
    Ok(traces)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_traces() -> Vec<Vec<Op>> {
        vec![
            vec![
                Op::Compute { work: Workload::Dgemm { n: 2000 }, threads: 1 },
                Op::Compute {
                    work: Workload::Stencil {
                        points: 99,
                        flops_per_point: 51.25,
                        bytes_per_point: 0.1, // not exactly representable: bit-exactness matters
                    },
                    threads: 4,
                },
                Op::Isend { dst: 1, tag: 7, bytes: 4096, req: Req(0) },
                Op::Wait { req: Req(0) },
                Op::Collective {
                    comm: CommId::WORLD,
                    op: CollectiveOp::Allreduce { bytes: 512, dtype: DType::F64 },
                },
                Op::Mark { id: 3 },
            ],
            vec![
                Op::Irecv { src: 0, tag: 7, bytes: 4096, req: Req(0) },
                Op::Wait { req: Req(0) },
                Op::Delay { time: SimTime(123_456_789) },
                Op::Collective {
                    comm: CommId::WORLD,
                    op: CollectiveOp::Allreduce { bytes: 512, dtype: DType::F64 },
                },
                Op::Compute {
                    work: Workload::Custom {
                        flops: 1e9,
                        dram_bytes: 0.3,
                        simd_eff: 0.9,
                        serial_frac: 0.01,
                    },
                    threads: 2,
                },
            ],
        ]
    }

    #[test]
    fn round_trips_exactly() {
        let traces = sample_traces();
        let text = write_traces(&traces);
        let parsed = parse_traces(&text).expect("round trip");
        assert_eq!(parsed, traces);
        // serialization of the parse equals the original text, too
        assert_eq!(write_traces(&parsed), text);
    }

    #[test]
    fn every_collective_and_workload_round_trips() {
        let ops: Vec<Op> = [
            CollectiveOp::Barrier,
            CollectiveOp::Bcast { bytes: 1 },
            CollectiveOp::Reduce { bytes: 8, dtype: DType::Int },
            CollectiveOp::Allreduce { bytes: 64, dtype: DType::F32 },
            CollectiveOp::Allgather { bytes_per_rank: 32 },
            CollectiveOp::Alltoall { bytes_per_pair: 16 },
        ]
        .into_iter()
        .map(|op| Op::Collective { comm: CommId(5), op })
        .chain(
            [
                Workload::LuUpdate { m: 1, n: 2, k: 3 },
                Workload::StreamCopy { n: 4 },
                Workload::StreamScale { n: 5 },
                Workload::StreamAdd { n: 6 },
                Workload::StreamTriad { n: 7 },
                Workload::Fft1d { n: 8 },
                Workload::RandomAccess { updates: 9, table_bytes: 10 },
                Workload::Chemistry { points: 11, flops_per_point: 2.5 },
                Workload::MdForce { pairs: 12, flops_per_pair: 220.0 },
            ]
            .into_iter()
            .map(|work| Op::Compute { work, threads: 3 }),
        )
        .collect();
        let traces = vec![ops];
        assert_eq!(parse_traces(&write_traces(&traces)).unwrap(), traces);
    }

    #[test]
    fn malformed_input_is_diagnosed_with_line_numbers() {
        assert!(parse_traces("").is_err());
        assert!(parse_traces("wrong/1 1\n").is_err());
        let e = parse_traces("hpcsim-trace/1 1\nrank 0 1\nz 1\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.to_string().contains("unknown op tag"), "{e}");
        // truncated op list
        assert!(parse_traces("hpcsim-trace/1 1\nrank 0 2\nm 1\n").is_err());
        // out-of-order rank header
        assert!(parse_traces("hpcsim-trace/1 2\nrank 1 0\nrank 0 0\n").is_err());
        // float fields must be exact bit patterns, not decimals
        let e = parse_traces("hpcsim-trace/1 1\nrank 0 1\nc chem 1 2.5 1\n").unwrap_err();
        assert!(e.to_string().contains("0x-prefixed"), "{e}");
    }

    #[test]
    fn real_halo_sized_trace_round_trips() {
        // a trace with the real recorder's shape: interleaved sends,
        // receives and waits across many ranks
        let mut traces = Vec::new();
        for r in 0..16usize {
            let mut ops = Vec::new();
            for round in 0..3u32 {
                ops.push(Op::Irecv { src: (r + 1) % 16, tag: round, bytes: 64, req: Req(round) });
                ops.push(Op::Isend { dst: (r + 15) % 16, tag: round, bytes: 64, req: Req(round + 8) });
                ops.push(Op::Wait { req: Req(round) });
                ops.push(Op::Wait { req: Req(round + 8) });
            }
            traces.push(ops);
        }
        assert_eq!(parse_traces(&write_traces(&traces)).unwrap(), traces);
    }

    #[test]
    fn tag_wider_than_its_field_is_rejected() {
        // 2^32 + 1 would truncate to tag 1 if parsed as u64 and cast
        let e =
            parse_traces("hpcsim-trace/1 2\nrank 0 1\ns 1 4294967297 8 0\nrank 1 0\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("bad tag"), "{e}");
        let e = parse_traces("hpcsim-trace/1 1\nrank 0 1\nw 4294967296\n").unwrap_err();
        assert!(e.message.contains("bad req"), "{e}");
    }

    #[test]
    fn out_of_world_peer_is_rejected_at_its_line() {
        let text = "hpcsim-trace/1 2\nrank 0 2\nm 0\ns 7 0 8 0\nrank 1 0\n";
        let e = parse_traces(text).unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("dst 7 outside world of 2"), "{e}");
        let e = parse_traces("hpcsim-trace/1 2\nrank 0 0\nrank 1 1\nr 2 0 8 0\n").unwrap_err();
        assert_eq!(e.line, 4);
        assert!(e.message.contains("src 2 outside world"), "{e}");
    }

    #[test]
    fn huge_counts_err_without_allocating() {
        // 10^11 ops or ranks would reserve terabytes if the counts were
        // trusted; the text backs none of them, so each is a clean Err
        let e = parse_traces("hpcsim-trace/1 1\nrank 0 100000000000\n").unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("missing rank 0 op 0"), "{e}");
        let e = parse_traces("hpcsim-trace/1 100000000000\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("missing rank 0 header"), "{e}");
    }
}
