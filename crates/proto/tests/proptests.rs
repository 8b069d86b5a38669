//! Property tests for the wire protocols: encode/decode identities, fuzzed
//! decoders that never panic, and workload generator guarantees.

use bytes::Bytes;
use proptest::prelude::*;
use ys_proto::{block, file, plan_stream, BlockCmd, FileOp, Workload};

fn arb_block_cmd() -> impl Strategy<Value = BlockCmd> {
    prop_oneof![
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(lun, lba, sectors)| BlockCmd::Read { lun, lba, sectors }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(lun, lba, sectors)| BlockCmd::Write { lun, lba, sectors }),
        (any::<u32>(), any::<u64>(), any::<u32>()).prop_map(|(lun, lba, sectors)| BlockCmd::Unmap { lun, lba, sectors }),
        Just(BlockCmd::ReportLuns),
        Just(BlockCmd::Inquiry),
    ]
}

fn arb_path() -> impl Strategy<Value = String> {
    "[a-z0-9/._-]{0,64}"
}

fn arb_file_op() -> impl Strategy<Value = FileOp> {
    prop_oneof![
        arb_path().prop_map(|path| FileOp::Lookup { path }),
        arb_path().prop_map(|path| FileOp::Create { path }),
        arb_path().prop_map(|path| FileOp::Mkdir { path }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(ino, offset, len)| FileOp::Read { ino, offset, len }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(ino, offset, len)| FileOp::Write { ino, offset, len }),
        arb_path().prop_map(|path| FileOp::Remove { path }),
        (arb_path(), arb_path()).prop_map(|(from, to)| FileOp::Rename { from, to }),
        arb_path().prop_map(|path| FileOp::GetAttr { path }),
        (arb_path(), arb_path()).prop_map(|(path, preset)| FileOp::SetPolicy { path, preset }),
        arb_path().prop_map(|path| FileOp::ReadDir { path }),
    ]
}

proptest! {
    /// decode(encode(cmd)) == cmd for every block command.
    #[test]
    fn block_roundtrip(cmd in arb_block_cmd()) {
        prop_assert_eq!(block::decode(block::encode(&cmd)).unwrap(), cmd);
    }

    /// decode(encode(op)) == op for every file op.
    #[test]
    fn file_roundtrip(op in arb_file_op()) {
        prop_assert_eq!(file::decode(file::encode(&op)).unwrap(), op);
    }

    /// The decoders never panic on arbitrary bytes — they return errors.
    #[test]
    fn decoders_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = block::decode(Bytes::from(data.clone()));
        let _ = file::decode(Bytes::from(data));
    }

    /// Every truncation of a valid block frame fails to parse as the same
    /// command (no silent misparse of the payload-carrying commands).
    #[test]
    fn block_truncations_never_misparse(cmd in arb_block_cmd()) {
        let full = block::encode(&cmd);
        for cut in 1..full.len() {
            if let Ok(parsed) = block::decode(full.slice(..cut)) {
                prop_assert_ne!(parsed, cmd.clone(), "truncated frame parsed as the original");
            }
        }
    }

    /// Stream plans tile their range exactly with round-robin blades, for
    /// any geometry.
    #[test]
    fn stream_plans_tile(object in 0u64..1_000_000_000, seg in 1u64..10_000_000, blades in 1usize..16,
                         range in proptest::option::of((0u64..1_000_000_000, 0u64..1_000_000_000))) {
        let plan = plan_stream(object, range, seg, blades);
        let mut pos: Option<u64> = None;
        for s in &plan.segments {
            if let Some(p) = pos {
                prop_assert_eq!(s.offset, p, "segments contiguous");
            }
            prop_assert!(s.len > 0 && s.len <= seg);
            prop_assert!(s.blade < blades);
            pos = Some(s.offset + s.len);
        }
        let total: u64 = plan.segments.iter().map(|s| s.len).sum();
        prop_assert_eq!(total, plan.total_bytes);
    }

    /// Workloads always stay in their extent and honour alignment for any
    /// seed and pattern.
    #[test]
    fn workloads_stay_in_bounds(seed in any::<u64>(), theta in 0.0f64..1.5, wf in 0.0f64..1.0) {
        let extent = 1u64 << 26;
        let io = 4096u64;
        for mut wl in [Workload::random(extent, io, wf, seed), Workload::zipf(extent, io, theta, wf, seed)] {
            for op in (0..200).map(|_| wl.next_op()) {
                prop_assert!(op.offset + op.len <= extent);
                prop_assert_eq!(op.offset % io, 0);
            }
        }
    }
}
