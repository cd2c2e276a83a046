//! Property tests for the network models: wire times are monotone and
//! metric-like, flow tracking conserves, collective models are monotone
//! in payload and sane in scale.

use hpcsim_engine::SimTime;
use hpcsim_machine::registry::{all_machines, bluegene_p, xt4_qc};
use hpcsim_machine::MachineSpec;
use hpcsim_net::{CollectiveModel, CollectiveOp, DType, FlowTracker, P2pModel};
use hpcsim_topo::Torus3D;
use proptest::prelude::*;

fn machine_strategy() -> impl Strategy<Value = MachineSpec> {
    (0usize..5).prop_map(|i| all_machines().swap_remove(i))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Wire time is monotone in payload for any machine and node pair.
    #[test]
    fn wire_time_monotone_in_bytes(
        m in machine_strategy(),
        src: usize, dst: usize,
        b1 in 0u64..1 << 24, b2 in 0u64..1 << 24
    ) {
        let t = Torus3D::new([4, 4, 4]);
        let model = P2pModel::new(&m, t);
        let (src, dst) = (src % t.nodes(), dst % t.nodes());
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(model.wire_time(src, dst, lo) <= model.wire_time(src, dst, hi));
    }

    /// Acquire/release always returns the tracker to quiescence, for any
    /// interleaving of flows.
    #[test]
    fn tracker_conserves(flows in prop::collection::vec((0usize..64, 0usize..64), 1..40)) {
        let t = Torus3D::new([4, 4, 4]);
        let mut tracker = FlowTracker::new(&t);
        let mut handles = Vec::new();
        for &(a, b) in &flows {
            let (a, b) = (a % t.nodes(), b % t.nodes());
            if a == b { continue; }
            let segs = t.route_segs(t.coord(a), t.coord(b));
            let (h, load) = tracker.acquire(segs, a, b);
            prop_assert!(load >= 1);
            handles.push(h);
        }
        for h in handles {
            tracker.release(h);
        }
        prop_assert!(tracker.is_quiescent());
    }

    /// More concurrent flows never make a new flow faster.
    #[test]
    fn contention_monotone(n_existing in 0usize..6) {
        let m = P2pModel::new(&xt4_qc(), Torus3D::new([4, 4, 4]));
        let t = *m.torus();
        let mut tracker = FlowTracker::new(&t);
        let mut handles = Vec::new();
        let mut prev = SimTime::ZERO;
        for i in 0..=n_existing {
            let (dur, h) = m.wire_time_contended(&mut tracker, 0, 1, 1 << 20);
            prop_assert!(dur >= prev, "flow {i} got faster under load");
            prev = dur;
            if let Some(h) = h { handles.push(h); }
        }
        for h in handles { tracker.release(h); }
    }

    /// Collective time is monotone in payload for every op and machine.
    #[test]
    fn collectives_monotone_in_payload(
        m in machine_strategy(),
        ranks in 2usize..4096,
        b1 in 1u64..1 << 22, b2 in 1u64..1 << 22
    ) {
        let model = CollectiveModel::new(&m, ranks, 4);
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        for op in [
            |b| CollectiveOp::Bcast { bytes: b },
            |b| CollectiveOp::Allreduce { bytes: b, dtype: DType::F64 },
            |b| CollectiveOp::Reduce { bytes: b, dtype: DType::F64 },
            |b| CollectiveOp::Allgather { bytes_per_rank: b },
        ] {
            prop_assert!(model.time(op(lo)) <= model.time(op(hi)));
        }
    }

    /// Collective times are strictly positive and finite for any size.
    #[test]
    fn collectives_finite(ranks in 1usize..40_000, bytes in 0u64..1 << 26) {
        let model = CollectiveModel::new(&bluegene_p(), ranks, 4);
        for op in [
            CollectiveOp::Barrier,
            CollectiveOp::Bcast { bytes },
            CollectiveOp::Allreduce { bytes, dtype: DType::F64 },
            CollectiveOp::Allreduce { bytes, dtype: DType::F32 },
            CollectiveOp::Alltoall { bytes_per_pair: bytes >> 10 },
        ] {
            let t = model.time(op);
            prop_assert!(t > SimTime::ZERO);
            prop_assert!(!t.is_never());
        }
    }

    /// Sub-linear growth in ranks: doubling the communicator at fixed
    /// payload never more than triples a barrier/allreduce.
    #[test]
    fn collectives_scale_gracefully(m in machine_strategy(), ranks in 2usize..8192) {
        let small = CollectiveModel::new(&m, ranks, 4);
        let big = CollectiveModel::new(&m, ranks * 2, 4);
        let op = CollectiveOp::Allreduce { bytes: 1024, dtype: DType::F64 };
        prop_assert!(big.time(op) <= small.time(op).scale(3.0) + SimTime::from_us(2));
    }
}
