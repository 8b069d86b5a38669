//! Stripe geometry: mapping a RAID group's logical address space onto its
//! member disks, with rotating (left-symmetric) parity for RAID-5/6.
//!
//! The paper lets the file system override "the automatic selection of RAID
//! type on a file-by-file basis" (§4), so geometry is a value, not a global.

/// RAID personality of a group.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum RaidLevel {
    /// Striping, no redundancy.
    Raid0,
    /// Mirroring: every member holds a full copy.
    Raid1 { copies: usize },
    /// Rotating single parity.
    Raid5,
    /// Rotating P+Q parity.
    Raid6,
}

impl RaidLevel {
    /// Member-disk failures the level tolerates without data loss.
    pub fn fault_tolerance(self) -> usize {
        match self {
            RaidLevel::Raid0 => 0,
            RaidLevel::Raid1 { copies } => copies - 1,
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }

    fn min_members(self) -> usize {
        match self {
            RaidLevel::Raid0 => 1,
            RaidLevel::Raid1 { copies } => copies,
            RaidLevel::Raid5 => 3,
            RaidLevel::Raid6 => 4,
        }
    }
}

/// Where a logical chunk lives.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Member index within the group.
    pub member: usize,
    /// Byte offset on that member.
    pub offset: u64,
    /// Stripe row index.
    pub stripe: u64,
    /// Data-chunk index within the stripe (0-based).
    pub chunk: usize,
}

/// Geometry of one RAID group.
#[derive(Clone, Copy, Debug)]
pub struct Geometry {
    pub level: RaidLevel,
    pub members: usize,
    pub chunk_size: u64,
}

impl Geometry {
    pub fn new(level: RaidLevel, members: usize, chunk_size: u64) -> Geometry {
        assert!(members >= level.min_members(), "{level:?} needs ≥{} members", level.min_members());
        assert!(chunk_size > 0 && chunk_size.is_power_of_two(), "chunk size must be a power of two");
        if let RaidLevel::Raid1 { copies } = level {
            assert!(copies >= 2 && copies <= members, "RAID1 copies must fit in members");
        }
        Geometry { level, members, chunk_size }
    }

    /// Data chunks per stripe row.
    pub fn data_chunks(&self) -> usize {
        match self.level {
            RaidLevel::Raid0 => self.members,
            RaidLevel::Raid1 { .. } => 1,
            RaidLevel::Raid5 => self.members - 1,
            RaidLevel::Raid6 => self.members - 2,
        }
    }

    /// Parity chunks per stripe row.
    fn parity_chunks(&self) -> usize {
        match self.level {
            RaidLevel::Raid0 | RaidLevel::Raid1 { .. } => 0,
            RaidLevel::Raid5 => 1,
            RaidLevel::Raid6 => 2,
        }
    }

    /// Logical bytes per stripe row.
    pub fn stripe_data_bytes(&self) -> u64 {
        self.data_chunks() as u64 * self.chunk_size
    }

    /// Usable capacity given per-member capacity.
    pub fn usable_capacity(&self, member_capacity: u64) -> u64 {
        let rows = member_capacity / self.chunk_size;
        match self.level {
            RaidLevel::Raid1 { copies } => {
                // members/copies independent mirror sets striped RAID10-style.
                let sets = (self.members / copies) as u64;
                rows * self.chunk_size * sets
            }
            _ => rows * self.stripe_data_bytes(),
        }
    }

    /// Members holding parity for stripe row `stripe`, without allocating:
    /// `[P, Q]` and how many of them the level has. Left-symmetric
    /// rotation: P walks backwards one member per row, and Q follows P,
    /// wrapping to member 0.
    pub fn parity_pq(&self, stripe: u64) -> ([usize; 2], usize) {
        let m = self.members as u64;
        let p = (m - 1 - (stripe % m)) as usize;
        ([p, (p + 1) % self.members], self.parity_chunks())
    }

    /// Member index that holds data-chunk `chunk` of stripe row `stripe`,
    /// skipping over that row's parity members.
    pub fn data_member(&self, stripe: u64, chunk: usize) -> usize {
        debug_assert!(chunk < self.data_chunks());
        match self.level {
            RaidLevel::Raid0 => chunk,
            RaidLevel::Raid1 { copies } => {
                // Mirror sets: row's set = stripe % sets; primary member of set.
                let sets = self.members / copies;
                ((stripe as usize) % sets) * copies
            }
            RaidLevel::Raid5 | RaidLevel::Raid6 => {
                // The row's parity is one block of `n` members starting at
                // P: data below it keeps its index, data above it is pushed
                // up by `n`. Only RAID6 with P on the last member wraps (Q
                // on member 0), leaving the data on 1..members-1.
                let ([p, _], n) = self.parity_pq(stripe);
                if p + n > self.members {
                    chunk + 1
                } else if chunk < p {
                    chunk
                } else {
                    chunk + n
                }
            }
        }
    }

    /// All members holding a copy of data-chunk `chunk` in row `stripe`
    /// (meaningful for RAID1; singleton otherwise).
    pub fn replica_members(&self, stripe: u64, chunk: usize) -> std::ops::Range<usize> {
        let primary = self.data_member(stripe, chunk);
        match self.level {
            RaidLevel::Raid1 { copies } => primary..primary + copies,
            _ => primary..primary + 1,
        }
    }

    /// Map a logical byte address to its placement.
    pub fn locate(&self, logical: u64) -> Placement {
        let row_bytes = self.stripe_data_bytes();
        let stripe = logical / row_bytes;
        let in_row = logical % row_bytes;
        let chunk = (in_row / self.chunk_size) as usize;
        let in_chunk = in_row % self.chunk_size;
        let member = self.data_member(stripe, chunk);
        let member_row_offset = match self.level {
            RaidLevel::Raid1 { copies } => {
                // Each mirror set advances one row every `sets` stripes.
                let sets = (self.members / copies) as u64;
                stripe / sets
            }
            _ => stripe,
        };
        Placement {
            member,
            offset: member_row_offset * self.chunk_size + in_chunk,
            stripe,
            chunk,
        }
    }

    /// Split a logical `[offset, offset+len)` range into per-chunk pieces
    /// `(offset, len)` that never cross a chunk boundary.
    pub fn split_range(&self, offset: u64, len: u64) -> impl Iterator<Item = (u64, u64)> + Clone {
        let chunk_size = self.chunk_size;
        let end = offset + len;
        let mut pos = offset;
        std::iter::from_fn(move || {
            (pos < end).then(|| {
                let take = (chunk_size - pos % chunk_size).min(end - pos);
                let piece = (pos, take);
                pos += take;
                piece
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raid0_round_robins_members() {
        let g = Geometry::new(RaidLevel::Raid0, 4, 64 * 1024);
        let p0 = g.locate(0);
        let p1 = g.locate(64 * 1024);
        let p4 = g.locate(4 * 64 * 1024);
        assert_eq!((p0.member, p0.offset), (0, 0));
        assert_eq!((p1.member, p1.offset), (1, 0));
        assert_eq!((p4.member, p4.offset), (0, 64 * 1024), "wraps to next row");
    }

    #[test]
    fn raid5_parity_rotates_left_symmetric() {
        let g = Geometry::new(RaidLevel::Raid5, 4, 64 * 1024);
        let p = |row| g.parity_pq(row).0[0];
        assert_eq!([p(0), p(1), p(2), p(3), p(4)], [3, 2, 1, 0, 3]);
    }

    #[test]
    fn raid5_data_members_skip_parity() {
        let g = Geometry::new(RaidLevel::Raid5, 4, 64 * 1024);
        // Row 1: parity on member 2 → data chunks on 0,1,3.
        assert_eq!(g.data_member(1, 0), 0);
        assert_eq!(g.data_member(1, 1), 1);
        assert_eq!(g.data_member(1, 2), 3);
    }

    #[test]
    fn raid6_has_two_rotating_parities() {
        let g = Geometry::new(RaidLevel::Raid6, 6, 64 * 1024);
        for row in 0..12 {
            let (pq, n) = g.parity_pq(row);
            assert_eq!(n, 2);
            assert_ne!(pq[0], pq[1]);
            // Data members + parity members cover a subset of 0..6 with no overlap.
            for c in 0..g.data_chunks() {
                let m = g.data_member(row, c);
                assert!(!pq.contains(&m), "row {row} chunk {c}");
            }
        }
    }

    #[test]
    fn every_member_gets_parity_evenly() {
        let g = Geometry::new(RaidLevel::Raid5, 5, 4096);
        let mut counts = vec![0u32; 5];
        for row in 0..100 {
            counts[g.parity_pq(row).0[0]] += 1;
        }
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
    }

    #[test]
    fn usable_capacity_matches_level() {
        let member = 1_000_000u64;
        let g0 = Geometry::new(RaidLevel::Raid0, 4, 4096);
        let g5 = Geometry::new(RaidLevel::Raid5, 4, 4096);
        let g6 = Geometry::new(RaidLevel::Raid6, 4, 4096);
        let g1 = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 4, 4096);
        let rows = member / 4096;
        assert_eq!(g0.usable_capacity(member), rows * 4096 * 4);
        assert_eq!(g5.usable_capacity(member), rows * 4096 * 3);
        assert_eq!(g6.usable_capacity(member), rows * 4096 * 2);
        assert_eq!(g1.usable_capacity(member), rows * 4096 * 2);
    }

    #[test]
    fn locate_is_injective_per_member() {
        // Distinct logical chunks never collide on (member, offset).
        use std::collections::HashSet;
        for level in [RaidLevel::Raid0, RaidLevel::Raid5, RaidLevel::Raid6] {
            let g = Geometry::new(level, 5, 4096);
            let mut seen = HashSet::new();
            for chunk in 0..1000u64 {
                let p = g.locate(chunk * 4096);
                assert!(seen.insert((p.member, p.offset)), "{level:?} collision at chunk {chunk}");
            }
        }
    }

    #[test]
    fn raid1_replicas_are_distinct_members() {
        let g = Geometry::new(RaidLevel::Raid1 { copies: 2 }, 4, 4096);
        for stripe in 0..8 {
            let reps: Vec<usize> = g.replica_members(stripe, 0).collect();
            assert_eq!(reps.len(), 2);
            assert_ne!(reps[0], reps[1]);
            assert!(reps.iter().all(|&m| m < 4));
        }
        // Two mirror sets alternate rows.
        assert_ne!(g.locate(0).member, g.locate(4096).member);
    }

    #[test]
    fn split_range_respects_chunk_boundaries() {
        let g = Geometry::new(RaidLevel::Raid0, 2, 4096);
        let pieces: Vec<(u64, u64)> = g.split_range(1000, 8000).collect();
        let total: u64 = pieces.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 8000);
        for &(off, len) in &pieces {
            assert_eq!(off / 4096, (off + len - 1) / 4096, "piece crosses chunk boundary");
        }
        assert_eq!(pieces[0], (1000, 3096));
    }

    #[test]
    #[should_panic(expected = "members")]
    fn too_few_members_panics() {
        Geometry::new(RaidLevel::Raid6, 3, 4096);
    }
}
