//! Golden-file validation of the Chrome trace exporter on a small HALO
//! run: the JSON is well-formed, timestamps are monotone per track,
//! every `B` has its matching `E`, and the export is byte-stable.

use hpcsim_hpcc::{halo_try_run, HaloConfig, HaloProtocol};
use hpcsim_machine::registry::bluegene_p;
use hpcsim_machine::ExecMode;
use hpcsim_probe::{chrome_trace, trace_csv, validate_trace, RingRecorder, SpanKind};
use hpcsim_topo::{Grid2D, Mapping};

fn small_halo() -> RingRecorder {
    let cfg = HaloConfig {
        grid: Grid2D::new(4, 4),
        words: 2048,
        protocol: HaloProtocol::IrecvIsend,
        reps: 2,
    };
    let mut rec = RingRecorder::new();
    halo_try_run(&bluegene_p(), ExecMode::Vn, Mapping::txyz(), &cfg, None, &mut rec).unwrap();
    rec
}

#[test]
fn small_halo_trace_validates() {
    let rec = small_halo();
    let json = chrome_trace(&[("halo 4x4".to_string(), &rec)]);
    // the validator enforces: parseable JSON, a traceEvents array,
    // non-decreasing ts per (pid, tid) track, and matched B/E pairs
    let stats = validate_trace(&json).expect("well-formed Chrome trace");
    assert_eq!(stats.spans as u64, rec.total_spans());
    // one cpu and one net track per rank, 16 ranks
    assert_eq!(stats.tracks, 32);
    // Perfetto needs these top-level fields
    assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
    assert!(json.contains("\"ph\":\"M\""));
    assert!(json.contains("\"process_name\""));
    assert!(json.contains("\"thread_name\""));
}

#[test]
fn trace_export_is_byte_stable_across_runs() {
    let a = small_halo();
    let b = small_halo();
    let name = "halo 4x4".to_string();
    assert_eq!(
        chrome_trace(&[(name.clone(), &a)]),
        chrome_trace(&[(name.clone(), &b)]),
        "identical runs must export identical traces"
    );
    assert_eq!(trace_csv(&[(name.clone(), &a)]), trace_csv(&[(name, &b)]));
}

#[test]
fn span_csv_covers_every_retained_span() {
    let rec = small_halo();
    let csv = trace_csv(&[("halo 4x4".to_string(), &rec)]);
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("scenario,rank,track,kind,peer,tag,bytes,t0_us,t1_us,base_us"));
    assert_eq!(lines.count() as u64, rec.total_spans());
    for kind in [SpanKind::MsgWire, SpanKind::SendOverhead, SpanKind::Wait] {
        assert!(csv.contains(kind.label()), "CSV must contain {:?} spans", kind);
    }
}
