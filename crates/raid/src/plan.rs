//! I/O planning: translate a logical read/write against a RAID group into
//! the member-disk operations it costs, including read-modify-write for
//! partial-stripe writes and degraded-mode reconstruction reads.
//!
//! Plans are *descriptions*; `ys-core` charges them to simulated disks and
//! links. Keeping planning pure makes the RAID arithmetic exhaustively
//! testable without a simulator in the loop.

use crate::layout::{Geometry, RaidLevel};

/// One operation against one member disk.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemberIo {
    pub member: usize,
    pub offset: u64,
    pub bytes: u64,
    pub write: bool,
}

/// A planned logical operation: reads happen (conceptually) before writes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IoPlan {
    pub reads: Vec<MemberIo>,
    pub writes: Vec<MemberIo>,
}

impl IoPlan {
    pub fn total_read_bytes(&self) -> u64 {
        self.reads.iter().map(|io| io.bytes).sum()
    }

    pub fn total_write_bytes(&self) -> u64 {
        self.writes.iter().map(|io| io.bytes).sum()
    }

    pub fn touches_member(&self, m: usize) -> bool {
        self.reads.iter().chain(&self.writes).any(|io| io.member == m)
    }

    /// Empty both lists, keeping their capacity.
    fn clear(&mut self) {
        self.reads.clear();
        self.writes.clear();
    }
}

/// Planning failure: the group has lost more members than the level tolerates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DataLoss {
    pub failed: usize,
    pub tolerated: usize,
}

impl std::fmt::Display for DataLoss {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "data loss: {} members failed, level tolerates {}", self.failed, self.tolerated)
    }
}

impl std::error::Error for DataLoss {}

fn check_tolerance(geo: &Geometry, failed: &[bool]) -> Result<(), DataLoss> {
    let n = failed.iter().filter(|&&f| f).count();
    // RAID1 tolerates copies-1 failures *per mirror set*; the coarse global
    // check still catches total loss, and per-set checks happen at plan time.
    if n > geo.level.fault_tolerance() && !matches!(geo.level, RaidLevel::Raid1 { .. }) {
        return Err(DataLoss { failed: n, tolerated: geo.level.fault_tolerance() });
    }
    Ok(())
}

/// Plan a logical read of `[offset, offset+len)`.
pub fn read_plan(geo: &Geometry, offset: u64, len: u64, failed: &[bool]) -> Result<IoPlan, DataLoss> {
    let mut plan = IoPlan::default();
    read_plan_into(geo, offset, len, failed, &mut plan)?;
    Ok(plan)
}

/// [`read_plan`] into a caller-owned plan, for a caller that plans page
/// after page: whatever `plan` held is discarded, its capacity is kept.
/// On `Err` its contents are unspecified.
pub fn read_plan_into(geo: &Geometry, offset: u64, len: u64, failed: &[bool], plan: &mut IoPlan) -> Result<(), DataLoss> {
    assert_eq!(failed.len(), geo.members);
    plan.clear();
    check_tolerance(geo, failed)?;
    for (piece_off, piece_len) in geo.split_range(offset, len) {
        let p = geo.locate(piece_off);
        match geo.level {
            RaidLevel::Raid1 { .. } => {
                // Read any healthy replica; prefer the primary.
                let mut reps = geo.replica_members(p.stripe, p.chunk);
                let copies = reps.len();
                match reps.find(|&m| !failed[m]) {
                    Some(m) => plan.reads.push(MemberIo { member: m, offset: p.offset, bytes: piece_len, write: false }),
                    None => return Err(DataLoss { failed: copies, tolerated: geo.level.fault_tolerance() }),
                }
            }
            _ if !failed[p.member] => {
                plan.reads.push(MemberIo { member: p.member, offset: p.offset, bytes: piece_len, write: false });
            }
            RaidLevel::Raid0 => {
                return Err(DataLoss { failed: 1, tolerated: 0 });
            }
            RaidLevel::Raid5 | RaidLevel::Raid6 => {
                // Degraded read: reconstruct from every surviving member of
                // the stripe row (data peers + enough parity).
                let chunk_start = p.offset - (p.offset % geo.chunk_size);
                for (m, _) in failed.iter().enumerate().filter(|&(m, &f)| m != p.member && !f) {
                    plan.reads.push(MemberIo { member: m, offset: chunk_start, bytes: geo.chunk_size, write: false });
                }
            }
        }
    }
    Ok(())
}

/// Plan a logical write of `[offset, offset+len)`.
pub fn write_plan(geo: &Geometry, offset: u64, len: u64, failed: &[bool]) -> Result<IoPlan, DataLoss> {
    let mut plan = IoPlan::default();
    write_plan_into(geo, offset, len, failed, &mut plan)?;
    Ok(plan)
}

/// [`write_plan`] into a caller-owned plan (see [`read_plan_into`]).
pub fn write_plan_into(geo: &Geometry, offset: u64, len: u64, failed: &[bool], plan: &mut IoPlan) -> Result<(), DataLoss> {
    assert_eq!(failed.len(), geo.members);
    plan.clear();
    check_tolerance(geo, failed)?;
    match geo.level {
        RaidLevel::Raid0 => {
            for (piece_off, piece_len) in geo.split_range(offset, len) {
                let p = geo.locate(piece_off);
                if failed[p.member] {
                    return Err(DataLoss { failed: 1, tolerated: 0 });
                }
                plan.writes.push(MemberIo { member: p.member, offset: p.offset, bytes: piece_len, write: true });
            }
        }
        RaidLevel::Raid1 { .. } => {
            for (piece_off, piece_len) in geo.split_range(offset, len) {
                let p = geo.locate(piece_off);
                let reps = geo.replica_members(p.stripe, p.chunk);
                let copies = reps.len();
                let planned = plan.writes.len();
                for m in reps.filter(|&m| !failed[m]) {
                    plan.writes.push(MemberIo { member: m, offset: p.offset, bytes: piece_len, write: true });
                }
                if plan.writes.len() == planned {
                    return Err(DataLoss { failed: copies, tolerated: copies - 1 });
                }
            }
        }
        RaidLevel::Raid5 | RaidLevel::Raid6 => parity_write_plan(geo, offset, len, failed, plan),
    }
    Ok(())
}

/// Plan the reconstruction of `[offset, offset+bytes)` *on member disk
/// `member`* from the group's redundancy — the scrub repair path for a
/// latent media error. The rotten member is readable but untrustworthy, so
/// the plan treats it exactly like a failed one: read enough surviving
/// peers to recompute the span, then write the recovered bytes back over
/// it. RAID0 has no redundancy and always reports loss.
///
/// `offset`/`bytes` are member-local (the address a checksum mismatch is
/// reported at), mirroring [`crate::rebuild::rebuild_batch_plan`].
pub fn repair_plan(
    geo: &Geometry,
    member: usize,
    offset: u64,
    bytes: u64,
    failed: &[bool],
) -> Result<IoPlan, DataLoss> {
    assert_eq!(failed.len(), geo.members);
    assert!(member < geo.members && bytes > 0);
    // Writing the recovered bytes needs the member itself online.
    if failed[member] {
        return Err(DataLoss { failed: 1, tolerated: 0 });
    }
    let mut plan = IoPlan::default();
    match geo.level {
        RaidLevel::Raid0 => return Err(DataLoss { failed: 1, tolerated: 0 }),
        RaidLevel::Raid1 { copies } => {
            // Mirror peers hold the same bytes at the same member-local
            // offset; copy from any healthy one.
            let set = member / copies;
            let peer = (set * copies..(set + 1) * copies)
                .find(|&m| m != member && !failed[m]);
            match peer {
                Some(m) => plan.reads.push(MemberIo { member: m, offset, bytes, write: false }),
                None => return Err(DataLoss { failed: copies, tolerated: copies - 1 }),
            }
        }
        RaidLevel::Raid5 | RaidLevel::Raid6 => {
            // The rotten span counts as one more erasure on top of any
            // failed members; reconstruction reads every survivor's
            // chunk-aligned covering span.
            let down = failed.iter().filter(|&&f| f).count();
            if down + 1 > geo.level.fault_tolerance() {
                return Err(DataLoss { failed: down + 1, tolerated: geo.level.fault_tolerance() });
            }
            let span_start = offset - (offset % geo.chunk_size);
            let span_end = offset + bytes;
            let span_end = span_end.div_ceil(geo.chunk_size) * geo.chunk_size;
            for (m, _) in failed.iter().enumerate().filter(|&(m, &f)| m != member && !f) {
                plan.reads.push(MemberIo {
                    member: m,
                    offset: span_start,
                    bytes: span_end - span_start,
                    write: false,
                });
            }
        }
    }
    plan.writes.push(MemberIo { member, offset, bytes, write: true });
    Ok(plan)
}

/// RAID-5/6 write planning, stripe row by stripe row, appended to `plan`.
fn parity_write_plan(geo: &Geometry, offset: u64, len: u64, failed: &[bool], plan: &mut IoPlan) {
    let row_bytes = geo.stripe_data_bytes();
    let mut pos = offset;
    let end = offset + len;
    while pos < end {
        let stripe = pos / row_bytes;
        let row_start = stripe * row_bytes;
        let row_end = row_start + row_bytes;
        let seg_start = pos;
        let seg_end = end.min(row_end);
        let full_row = seg_start == row_start && seg_end == row_end;
        let (pq, n) = geo.parity_pq(stripe);
        let parity = &pq[..n];

        if full_row {
            // Full-stripe write: compute parity from the new data alone.
            for c in 0..geo.data_chunks() {
                let m = geo.data_member(stripe, c);
                if !failed[m] {
                    plan.writes.push(MemberIo { member: m, offset: stripe * geo.chunk_size, bytes: geo.chunk_size, write: true });
                }
            }
            for &pm in parity {
                if !failed[pm] {
                    plan.writes.push(MemberIo { member: pm, offset: stripe * geo.chunk_size, bytes: geo.chunk_size, write: true });
                }
            }
        } else {
            // Partial-stripe: read-modify-write with parity updates
            // coalesced to ONE read/write per parity member per row —
            // per-piece parity RMW would hammer the parity disk with
            // same-offset re-reads (a head-thrash disaster in practice).
            let row_chunk_off = stripe * geo.chunk_size;
            let pieces = geo.split_range(seg_start, seg_end - seg_start);
            let row_has_reconstruct =
                pieces.clone().any(|(off, _)| failed[geo.locate(off).member]);
            // Parity-update span within the row's chunk (sub-chunk offsets).
            let mut span_lo = u64::MAX;
            let mut span_hi = 0u64;
            for (piece_off, piece_len) in pieces {
                let p = geo.locate(piece_off);
                let sub = p.offset % geo.chunk_size;
                span_lo = span_lo.min(sub);
                span_hi = span_hi.max(sub + piece_len);
                if !failed[p.member] {
                    if !row_has_reconstruct {
                        // Classic RMW needs the old data.
                        plan.reads.push(MemberIo { member: p.member, offset: p.offset, bytes: piece_len, write: false });
                    }
                    plan.writes.push(MemberIo { member: p.member, offset: p.offset, bytes: piece_len, write: true });
                }
            }
            if row_has_reconstruct {
                // Parity recompute path: read every healthy data member's
                // chunk once, then write parity (no parity read needed).
                for (m, _) in failed.iter().enumerate().filter(|&(m, &f)| !f && !parity.contains(&m)) {
                    plan.reads.push(MemberIo { member: m, offset: row_chunk_off, bytes: geo.chunk_size, write: false });
                }
                for &pm in parity {
                    if !failed[pm] {
                        plan.writes.push(MemberIo { member: pm, offset: row_chunk_off, bytes: geo.chunk_size, write: true });
                    }
                }
            } else {
                for &pm in parity {
                    if !failed[pm] {
                        plan.reads.push(MemberIo { member: pm, offset: row_chunk_off + span_lo, bytes: span_hi - span_lo, write: false });
                        plan.writes.push(MemberIo { member: pm, offset: row_chunk_off + span_lo, bytes: span_hi - span_lo, write: true });
                    }
                }
            }
        }
        pos = seg_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{Geometry, RaidLevel};

    const CHUNK: u64 = 64 * 1024;

    fn no_failures(n: usize) -> Vec<bool> {
        vec![false; n]
    }

    #[test]
    fn raid0_read_is_one_io_per_piece() {
        let g = Geometry::new(RaidLevel::Raid0, 4, CHUNK);
        let plan = read_plan(&g, 0, 3 * CHUNK, &no_failures(4)).unwrap();
        assert_eq!(plan.reads.len(), 3);
        assert!(plan.writes.is_empty());
        assert_eq!(plan.total_read_bytes(), 3 * CHUNK);
    }

    #[test]
    fn raid0_fails_hard_on_any_member_loss() {
        let g = Geometry::new(RaidLevel::Raid0, 4, CHUNK);
        let mut failed = no_failures(4);
        failed[1] = true;
        assert!(read_plan(&g, 0, 4 * CHUNK, &failed).is_err());
    }

    #[test]
    fn raid5_full_stripe_write_has_no_reads() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        // full row = 3 data chunks
        let plan = write_plan(&g, 0, 3 * CHUNK, &no_failures(4)).unwrap();
        assert!(plan.reads.is_empty(), "full-stripe write computes parity from new data");
        assert_eq!(plan.writes.len(), 4, "3 data + 1 parity");
    }

    #[test]
    fn raid5_small_write_is_classic_rmw() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let plan = write_plan(&g, 0, 4096, &no_failures(4)).unwrap();
        // read old data + old parity, write new data + new parity
        assert_eq!(plan.reads.len(), 2);
        assert_eq!(plan.writes.len(), 2);
        assert_eq!(plan.total_write_bytes(), 2 * 4096);
    }

    #[test]
    fn raid6_small_write_touches_both_parities() {
        let g = Geometry::new(RaidLevel::Raid6, 6, CHUNK);
        let plan = write_plan(&g, 0, 4096, &no_failures(6)).unwrap();
        assert_eq!(plan.reads.len(), 3, "old data, old P, old Q");
        assert_eq!(plan.writes.len(), 3);
    }

    #[test]
    fn raid5_degraded_read_reconstructs_from_survivors() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let target = g.locate(0);
        let mut failed = no_failures(4);
        failed[target.member] = true;
        let plan = read_plan(&g, 0, 4096, &failed).unwrap();
        assert_eq!(plan.reads.len(), 3, "reads the 3 surviving members");
        assert!(!plan.touches_member(target.member));
        assert_eq!(plan.total_read_bytes(), 3 * CHUNK);
    }

    #[test]
    fn raid6_survives_two_failures_for_reads() {
        let g = Geometry::new(RaidLevel::Raid6, 6, CHUNK);
        let mut failed = no_failures(6);
        failed[0] = true;
        failed[1] = true;
        let plan = read_plan(&g, 0, CHUNK * 4, &failed).unwrap();
        assert!(plan.reads.iter().all(|io| !failed[io.member]));
        let mut failed3 = failed.clone();
        failed3[2] = true;
        assert!(read_plan(&g, 0, CHUNK, &failed3).is_err(), "3 failures exceed RAID6");
    }

    #[test]
    fn raid5_degraded_write_to_failed_member_updates_parity_only() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let target = g.locate(0);
        let mut failed = no_failures(4);
        failed[target.member] = true;
        let plan = write_plan(&g, 0, 4096, &failed).unwrap();
        assert!(plan.writes.iter().all(|io| io.member != target.member));
        assert!(!plan.writes.is_empty(), "parity must absorb the write");
    }

    #[test]
    fn raid1_write_fans_out_to_all_replicas() {
        let g = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 4, CHUNK);
        let plan = write_plan(&g, 0, 4096, &no_failures(4)).unwrap();
        assert_eq!(plan.writes.len(), 2);
        let members: Vec<usize> = plan.writes.iter().map(|io| io.member).collect();
        assert_ne!(members[0], members[1]);
    }

    #[test]
    fn raid1_read_falls_over_to_surviving_replica() {
        let g = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 2, CHUNK);
        let mut failed = no_failures(2);
        failed[0] = true;
        let plan = read_plan(&g, 0, 4096, &failed).unwrap();
        assert_eq!(plan.reads.len(), 1);
        assert_eq!(plan.reads[0].member, 1);
        // Both replicas gone → loss.
        failed[1] = true;
        assert!(read_plan(&g, 0, 4096, &failed).is_err());
    }

    #[test]
    fn writes_never_target_failed_members() {
        let g = Geometry::new(RaidLevel::Raid6, 6, CHUNK);
        let mut failed = no_failures(6);
        failed[2] = true;
        failed[4] = true;
        let plan = write_plan(&g, 0, 10 * CHUNK, &failed).unwrap();
        for io in plan.reads.iter().chain(&plan.writes) {
            assert!(!failed[io.member], "planned I/O to failed member {}", io.member);
        }
    }

    #[test]
    fn raid5_repair_reads_peers_and_rewrites_the_rotten_span() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let plan = repair_plan(&g, 1, 5 * CHUNK + 100, 4096, &no_failures(4)).unwrap();
        assert_eq!(plan.reads.len(), 3, "every peer of the row");
        assert!(plan.reads.iter().all(|io| io.member != 1));
        assert!(plan.reads.iter().all(|io| io.offset == 5 * CHUNK && io.bytes == CHUNK));
        assert_eq!(plan.writes, vec![MemberIo { member: 1, offset: 5 * CHUNK + 100, bytes: 4096, write: true }]);
    }

    #[test]
    fn raid5_repair_fails_once_a_member_is_already_down() {
        let g = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let mut failed = no_failures(4);
        failed[3] = true;
        // Rot + one dead member = two erasures; RAID5 tolerates one.
        assert!(repair_plan(&g, 1, 0, 4096, &failed).is_err());
        // RAID6 absorbs the same combination.
        let g6 = Geometry::new(RaidLevel::Raid6, 6, CHUNK);
        let mut failed6 = no_failures(6);
        failed6[3] = true;
        let plan = repair_plan(&g6, 1, 0, 4096, &failed6).unwrap();
        assert_eq!(plan.reads.len(), 4, "survivors minus target and dead member");
    }

    #[test]
    fn raid1_repair_copies_from_a_mirror_peer() {
        let g = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 4, CHUNK);
        let plan = repair_plan(&g, 2, 7 * CHUNK, 4096, &no_failures(4)).unwrap();
        assert_eq!(plan.reads, vec![MemberIo { member: 3, offset: 7 * CHUNK, bytes: 4096, write: false }]);
        assert_eq!(plan.writes[0].member, 2);
        // Peer dead → the mirror set has no clean source.
        let mut failed = no_failures(4);
        failed[3] = true;
        assert!(repair_plan(&g, 2, 0, 4096, &failed).is_err());
    }

    #[test]
    fn raid0_repair_is_always_loss() {
        let g = Geometry::new(RaidLevel::Raid0, 4, CHUNK);
        assert!(repair_plan(&g, 0, 0, 4096, &no_failures(4)).is_err());
    }

    #[test]
    fn write_amplification_ordering_holds() {
        // Small-write cost: RAID1 (2 writes) < RAID5 RMW (2R+2W) < RAID6 (3R+3W).
        let g1 = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 4, CHUNK);
        let g5 = Geometry::new(RaidLevel::Raid5, 4, CHUNK);
        let g6 = Geometry::new(RaidLevel::Raid6, 6, CHUNK);
        let n = no_failures(4);
        let n6 = no_failures(6);
        let ios = |p: &IoPlan| p.reads.len() + p.writes.len();
        let p1 = write_plan(&g1, 0, 4096, &n).unwrap();
        let p5 = write_plan(&g5, 0, 4096, &n).unwrap();
        let p6 = write_plan(&g6, 0, 4096, &n6).unwrap();
        assert!(ios(&p1) < ios(&p5));
        assert!(ios(&p5) < ios(&p6));
    }
}
