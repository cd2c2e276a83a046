//! The workspace's one text layer: the writer and parser of recorded
//! traces, and the line/field reader and f64 codec every canonical text
//! format parses with.
//!
//! Four formats persist as text: tier-2 trace files (`hpcsim-trace/1`,
//! below), scenario canon texts (`hpcsim-scenario/1`, `hpcsim-cache`'s
//! `spec` module), fuzz scenarios (`hpcsim-fuzz-scenario/2`, which embed
//! a trace block verbatim after their machine/mode/mapping/faults
//! header) and result entries (`hpcsim-result/2`, `hpcsim-cache`'s
//! `store` module). All of them are line-oriented, read through
//! [`Lines`] and [`Fields`], write every float as its IEEE-754 bit
//! pattern ([`Bits`]) and report malformed input as one [`ParseError`]
//! naming its line in the enclosing file. Serialize → parse is the
//! identity, so replaying a loaded trace is bit-identical to replaying
//! the original.
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
//! The reader is strict, because its input may be a corrupted cache
//! file: every integer is parsed at its field's own width, every trace
//! peer must be a rank of the world, and a count is never trusted for
//! allocation: ops are appended to the recording as they parse.
//! Malformed input is a [`ParseError`] naming its line, never a
//! truncated value, a replay panic or an aborted allocation.

use crate::ops::{CommId, Op, Req};
use crate::traces::{TraceBuilder, Traces, PEER_LIMIT};
use hpcsim_engine::SimTime;
use hpcsim_machine::Workload;
use hpcsim_net::{CollectiveOp, DType};
use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

/// Format-identifying first token of a serialized trace.
pub const TRACE_MAGIC: &str = "hpcsim-trace/1";

/// An f64 written as its IEEE-754 bit pattern, `0x` and 16 hex digits:
/// the one float codec of every text format ([`Fields::bits`] reads it).
pub struct Bits(pub f64);

impl Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:016x}", self.0.to_bits())
    }
}

/// One-line parse diagnostic: what was malformed and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line in the enclosing file.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// Line cursor over the unread text. Line numbers are 1-based from the
/// start of the text. A block embedded in a larger file (or read after a
/// header) is read through the file's own cursor, so it reports where it
/// sits in that file.
pub struct Lines<'a> {
    rest: &'a str,
    line: usize,
}

impl<'a> Lines<'a> {
    /// A cursor at line 1 of `text`.
    pub fn new(text: &'a str) -> Self {
        Lines { rest: text, line: 0 }
    }

    /// The next line's fields, or a diagnostic at the line where it is
    /// missing (`missing <what>`).
    pub fn expect(&mut self, what: impl Display) -> Result<Fields<'a>, ParseError> {
        if self.rest.is_empty() {
            return Err(ParseError { line: self.line + 1, message: format!("missing {what}") });
        }
        let (text, rest) = self.rest.split_once('\n').unwrap_or((self.rest, ""));
        self.rest = rest;
        self.line += 1;
        Ok(Fields { line: self.line, toks: text.split_ascii_whitespace() })
    }

    /// Read the next line, which must start with `key`, whole: `parse`
    /// reads the fields after the key and no token may follow them.
    pub fn keyed<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&mut Fields<'a>) -> Result<T, ParseError>,
    ) -> Result<T, ParseError> {
        let mut c = self.expect(format_args!("{key} line"))?;
        c.keyword(key)?;
        let value = parse(&mut c)?;
        c.finish()?;
        Ok(value)
    }

    /// End of input: anything but blank lines left is an error.
    pub fn finish(self) -> Result<(), ParseError> {
        for (line, extra) in (self.line + 1..).zip(self.rest.split('\n')) {
            if !extra.trim().is_empty() {
                return Err(ParseError { line, message: format!("trailing content {extra:?}") });
            }
        }
        Ok(())
    }
}

/// Field cursor over one line's whitespace-separated tokens. Each reader
/// names its field (`what`) for the diagnostic.
pub struct Fields<'a> {
    line: usize,
    toks: std::str::SplitAsciiWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// A diagnostic at this line.
    pub fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError { line: self.line, message: message.into() })
    }

    /// The next token.
    pub fn tok(&mut self, what: &str) -> Result<&'a str, ParseError> {
        match self.toks.next() {
            Some(t) => Ok(t),
            None => self.err(format!("missing {what}")),
        }
    }

    /// The next token, which must be `key`.
    fn keyword(&mut self, key: &str) -> Result<(), ParseError> {
        match self.tok(key)? {
            t if t == key => Ok(()),
            t => self.err(format!("expected {key:?}, got {t:?}")),
        }
    }

    /// A value read from the next token by `parse`.
    pub fn parse_with<T>(
        &mut self,
        what: &str,
        parse: impl FnOnce(&str) -> Option<T>,
    ) -> Result<T, ParseError> {
        let t = self.tok(what)?;
        parse(t).map_or_else(|| self.err(format!("bad {what} {t:?}")), Ok)
    }

    /// The one of `variants` whose `name` is the next token.
    pub fn one_of<T: Copy>(
        &mut self,
        what: &str,
        variants: &[T],
        name: impl Fn(T) -> &'static str,
    ) -> Result<T, ParseError> {
        self.parse_with(what, |t| variants.iter().copied().find(|&v| name(v) == t))
    }

    /// An integer parsed at its field's own width: a value that does not
    /// fit is an error, never a silent truncation.
    pub fn num<T: FromStr>(&mut self, what: &str) -> Result<T, ParseError> {
        self.parse_with(what, |t| t.parse().ok())
    }

    /// An f64 written as [`Bits`].
    pub fn bits(&mut self, what: &str) -> Result<f64, ParseError> {
        let t = self.tok(what)?;
        self.bits_of(what, t)
    }

    /// `none`, or an f64 written as [`Bits`].
    pub fn opt_bits(&mut self, what: &str) -> Result<Option<f64>, ParseError> {
        match self.tok(what)? {
            "none" => Ok(None),
            t => self.bits_of(what, t).map(Some),
        }
    }

    fn bits_of(&self, what: &str, t: &str) -> Result<f64, ParseError> {
        let Some(hex) = t.strip_prefix("0x") else {
            return self.err(format!("{what} must be 0x-prefixed bits, got {t:?}"));
        };
        match u64::from_str_radix(hex, 16) {
            Ok(bits) => Ok(f64::from_bits(bits)),
            Err(_) => self.err(format!("bad {what} bits {t:?}")),
        }
    }

    /// A flag written `0` or `1`.
    pub fn bool01(&mut self, what: &str) -> Result<bool, ParseError> {
        match self.tok(what)? {
            "0" => Ok(false),
            "1" => Ok(true),
            t => self.err(format!("bad {what} {t:?} (want 0/1)")),
        }
    }

    /// End of the line: a further token is an error.
    pub fn finish(mut self) -> Result<(), ParseError> {
        match self.toks.next() {
            None => Ok(()),
            Some(extra) => self.err(format!("trailing token {extra:?}")),
        }
    }
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
            let (f, b) = (Bits(flops_per_point), Bits(bytes_per_point));
            let _ = write!(out, "stencil {points} {f} {b}");
        }
        Workload::Chemistry { points, flops_per_point } => {
            let _ = write!(out, "chem {points} {}", Bits(flops_per_point));
        }
        Workload::MdForce { pairs, flops_per_pair } => {
            let _ = write!(out, "mdforce {pairs} {}", Bits(flops_per_pair));
        }
        Workload::Custom { flops, dram_bytes, simd_eff, serial_frac } => {
            let (f, d, s, p) = (Bits(flops), Bits(dram_bytes), Bits(simd_eff), Bits(serial_frac));
            let _ = write!(out, "custom {f} {d} {s} {p}");
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

/// Serialize a whole recording's ops. Sub-communicators are not part
/// of the format, so the text of a recording that has them does not
/// parse back into it: the scenario cache keeps such a recording in
/// memory only, and fuzz scenarios are WORLD-only.
pub fn write_traces(traces: &Traces) -> String {
    // ~16 bytes per op plus headers is a comfortable overestimate
    let mut out = String::with_capacity(32 * traces.op_count() + 16 * traces.ranks() + 32);
    let _ = writeln!(out, "{TRACE_MAGIC} {}", traces.ranks());
    for r in 0..traces.ranks() {
        let _ = writeln!(out, "rank {r} {}", traces.rank_len(r));
        for op in traces.rank_ops(r) {
            write_op(&mut out, &op);
        }
    }
    out
}

/// A send/receive peer, which must name a rank inside the world and
/// fit the packed op.
fn parse_peer(c: &mut Fields<'_>, what: &str, ranks: usize) -> Result<usize, ParseError> {
    let peer: usize = c.num(what)?;
    if peer >= ranks {
        return c.err(format!("{what} {peer} outside world of {ranks}"));
    }
    if peer >= PEER_LIMIT {
        return c.err(format!("{what} {peer} at or past the packed-op limit {PEER_LIMIT}"));
    }
    Ok(peer)
}

fn parse_workload(c: &mut Fields<'_>) -> Result<Workload, ParseError> {
    Ok(match c.tok("workload")? {
        "dgemm" => Workload::Dgemm { n: c.num("n")? },
        "lu" => Workload::LuUpdate { m: c.num("m")?, n: c.num("n")?, k: c.num("k")? },
        "scopy" => Workload::StreamCopy { n: c.num("n")? },
        "sscale" => Workload::StreamScale { n: c.num("n")? },
        "sadd" => Workload::StreamAdd { n: c.num("n")? },
        "striad" => Workload::StreamTriad { n: c.num("n")? },
        "fft" => Workload::Fft1d { n: c.num("n")? },
        "ra" => Workload::RandomAccess {
            updates: c.num("updates")?,
            table_bytes: c.num("table_bytes")?,
        },
        "stencil" => Workload::Stencil {
            points: c.num("points")?,
            flops_per_point: c.bits("flops_per_point")?,
            bytes_per_point: c.bits("bytes_per_point")?,
        },
        "chem" => Workload::Chemistry {
            points: c.num("points")?,
            flops_per_point: c.bits("flops_per_point")?,
        },
        "mdforce" => {
            Workload::MdForce { pairs: c.num("pairs")?, flops_per_pair: c.bits("flops_per_pair")? }
        }
        "custom" => Workload::Custom {
            flops: c.bits("flops")?,
            dram_bytes: c.bits("dram_bytes")?,
            simd_eff: c.bits("simd_eff")?,
            serial_frac: c.bits("serial_frac")?,
        },
        other => return c.err(format!("unknown workload {other:?}")),
    })
}

fn parse_collective(c: &mut Fields<'_>) -> Result<CollectiveOp, ParseError> {
    Ok(match c.tok("collective")? {
        "barrier" => CollectiveOp::Barrier,
        "bcast" => CollectiveOp::Bcast { bytes: c.num("bytes")? },
        "reduce" => CollectiveOp::Reduce {
            bytes: c.num("bytes")?,
            dtype: c.parse_with("dtype", DType::parse)?,
        },
        "allreduce" => CollectiveOp::Allreduce {
            bytes: c.num("bytes")?,
            dtype: c.parse_with("dtype", DType::parse)?,
        },
        "allgather" => CollectiveOp::Allgather { bytes_per_rank: c.num("bytes")? },
        "alltoall" => CollectiveOp::Alltoall { bytes_per_pair: c.num("bytes")? },
        other => return c.err(format!("unknown collective {other:?}")),
    })
}

/// Parse one op line of a world of `ranks` ranks.
fn parse_op(c: &mut Fields<'_>, ranks: usize) -> Result<Op, ParseError> {
    Ok(match c.tok("op tag")? {
        "c" => {
            let work = parse_workload(c)?;
            Op::Compute { work, threads: c.num("threads")? }
        }
        "d" => Op::Delay { time: SimTime(c.num("picos")?) },
        "s" => Op::Isend {
            dst: parse_peer(c, "dst", ranks)?,
            tag: c.num("tag")?,
            bytes: c.num("bytes")?,
            req: Req(c.num("req")?),
        },
        "r" => Op::Irecv {
            src: parse_peer(c, "src", ranks)?,
            tag: c.num("tag")?,
            bytes: c.num("bytes")?,
            req: Req(c.num("req")?),
        },
        "w" => Op::Wait { req: Req(c.num("req")?) },
        "k" => {
            let comm = CommId(c.num("comm")?);
            Op::Collective { comm, op: parse_collective(c)? }
        }
        "m" => Op::Mark { id: c.num("id")? },
        other => return c.err(format!("unknown op tag {other:?}")),
    })
}

/// Parse a serialized world of traces back into a recording. Replaying
/// the parsed recording is bit-identical to replaying the original
/// ([`write_traces`] round-trips exactly). Malformed input —
/// an integer too wide for its field, a peer outside the world, a count
/// the text does not back up, trailing content — is a [`ParseError`]
/// naming its line.
pub fn parse_traces(text: &str) -> Result<Traces, ParseError> {
    let mut lines = Lines::new(text);
    let traces = read_traces(&mut lines)?;
    lines.finish()?;
    Ok(traces)
}

/// Read one serialized world of traces at the cursor, which is left on
/// the line after its last op: the reader of a trace block embedded in
/// a larger file.
pub fn read_traces(lines: &mut Lines<'_>) -> Result<Traces, ParseError> {
    let mut c = lines.expect("trace header")?;
    c.keyword(TRACE_MAGIC)?;
    let ranks: usize = c.num("rank count")?;
    c.finish()?;
    let mut traces = TraceBuilder::new();
    for want in 0..ranks {
        let mut c = lines.expect(format_args!("rank {want} header"))?;
        c.keyword("rank")?;
        let idx: usize = c.num("rank index")?;
        if idx != want {
            return c.err(format!("rank {idx} out of order (expected {want})"));
        }
        let nops: usize = c.num("op count")?;
        c.finish()?;
        for i in 0..nops {
            let mut c = lines.expect(format_args!("rank {idx} op {i} of {nops}"))?;
            traces.push(parse_op(&mut c, ranks)?);
            c.finish()?;
        }
        traces.end_rank();
    }
    Ok(traces.finish())
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
        let traces = Traces::from_rank_vecs(&sample_traces());
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
        let traces = Traces::from_rank_vecs(&[ops]);
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
                ops.push(Op::Isend {
                    dst: (r + 15) % 16,
                    tag: round,
                    bytes: 64,
                    req: Req(round + 8),
                });
                ops.push(Op::Wait { req: Req(round) });
                ops.push(Op::Wait { req: Req(round + 8) });
            }
            traces.push(ops);
        }
        let traces = Traces::from_rank_vecs(&traces);
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
