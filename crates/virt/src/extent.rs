//! Run-length extent maps: the virtual→physical translation at the heart of
//! storage virtualization (§3).
//!
//! A map holds non-overlapping runs `(vstart, pstart, len)` keyed by
//! `vstart`, meaning virtual extents `vstart..vstart+len` map to physical
//! extents `pstart..pstart+len`. Adjacent compatible runs coalesce; partial
//! unmaps split runs.

use std::collections::BTreeMap;

/// One mapped run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Run {
    pub vstart: u64,
    pub pstart: u64,
    pub len: u64,
}

impl Run {
    pub fn vend(&self) -> u64 {
        self.vstart + self.len
    }
}

/// Result of looking up a virtual range: mapped pieces and holes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Segment {
    /// `len` extents starting at physical `pstart`.
    Mapped { vstart: u64, pstart: u64, len: u64 },
    /// `len` unmapped extents (read as zeroes).
    Hole { vstart: u64, len: u64 },
}

impl Segment {
    pub fn len(&self) -> u64 {
        match *self {
            Segment::Mapped { len, .. } | Segment::Hole { len, .. } => len,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn is_mapped(&self) -> bool {
        matches!(self, Segment::Mapped { .. })
    }
}

/// The virtual→physical run map for one volume.
#[derive(Clone, Debug, Default)]
pub struct ExtentMap {
    /// Keyed by vstart; values are (pstart, len).
    runs: BTreeMap<u64, (u64, u64)>,
    mapped: u64,
}

impl ExtentMap {
    pub fn new() -> ExtentMap {
        ExtentMap::default()
    }

    /// Total mapped extents.
    pub fn mapped_extents(&self) -> u64 {
        self.mapped
    }

    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The run containing virtual extent `v`, if any.
    pub fn lookup(&self, v: u64) -> Option<Run> {
        let (&vstart, &(pstart, len)) = self.runs.range(..=v).next_back()?;
        if v < vstart + len {
            Some(Run { vstart, pstart, len })
        } else {
            None
        }
    }

    /// Physical extent backing virtual extent `v`, if mapped.
    pub fn translate(&self, v: u64) -> Option<u64> {
        self.lookup(v).map(|r| r.pstart + (v - r.vstart))
    }

    /// Decompose `[vstart, vstart+len)` into mapped segments and holes, in
    /// virtual order.
    pub fn segments(&self, vstart: u64, len: u64) -> Vec<Segment> {
        self.segments_iter(vstart, len).collect()
    }

    /// [`Self::segments`] borrowed from the map, one segment at a time.
    pub fn segments_iter(&self, vstart: u64, len: u64) -> impl Iterator<Item = Segment> + '_ {
        let mut pos = vstart;
        let end = vstart + len;
        std::iter::from_fn(move || {
            if pos >= end {
                return None;
            }
            let seg = match self.lookup(pos) {
                Some(run) => {
                    let take = (run.vend() - pos).min(end - pos);
                    Segment::Mapped { vstart: pos, pstart: run.pstart + (pos - run.vstart), len: take }
                }
                None => {
                    // Hole until the next run or range end.
                    let next_run_start = self
                        .runs
                        .range(pos..)
                        .next()
                        .map(|(&v, _)| v)
                        .unwrap_or(end)
                        .min(end);
                    Segment::Hole { vstart: pos, len: next_run_start - pos }
                }
            };
            pos += seg.len();
            Some(seg)
        })
    }

    /// Map `[vstart, vstart+len)` to physical extents starting at `pstart`.
    /// The range must currently be unmapped (callers map only holes).
    pub fn map(&mut self, vstart: u64, pstart: u64, len: u64) {
        assert!(len > 0);
        debug_assert!(
            self.segments_iter(vstart, len).all(|s| !s.is_mapped()),
            "mapping over an existing mapping"
        );
        // Try to coalesce with the predecessor run.
        let mut new_v = vstart;
        let mut new_p = pstart;
        let mut new_len = len;
        if let Some((&pv, &(pp, pl))) = self.runs.range(..vstart).next_back() {
            if pv + pl == vstart && pp + pl == pstart {
                self.runs.remove(&pv);
                new_v = pv;
                new_p = pp;
                new_len += pl;
            }
        }
        // And with the successor.
        if let Some((&sv, &(sp, sl))) = self.runs.range(vstart..).next() {
            if new_v + new_len == sv && new_p + new_len == sp {
                self.runs.remove(&sv);
                new_len += sl;
            }
        }
        self.runs.insert(new_v, (new_p, new_len));
        self.mapped += len;
    }

    /// Unmap `[vstart, vstart+len)`. Returns the physical runs released
    /// (for the pool to reclaim). Holes inside the range are skipped.
    pub fn unmap(&mut self, vstart: u64, len: u64) -> Vec<(u64, u64)> {
        let end = vstart + len;
        let mut released = Vec::new();
        // Collect affected runs first (can't mutate while iterating).
        let affected: Vec<Run> = {
            let mut v = Vec::new();
            if let Some(r) = self.lookup(vstart) {
                v.push(r);
            }
            for (&rv, &(rp, rl)) in self.runs.range(vstart..end) {
                if v.last().map(|r: &Run| r.vstart) != Some(rv) {
                    v.push(Run { vstart: rv, pstart: rp, len: rl });
                }
            }
            v
        };
        for run in affected {
            let cut_start = run.vstart.max(vstart);
            let cut_end = run.vend().min(end);
            if cut_start >= cut_end {
                continue;
            }
            self.runs.remove(&run.vstart);
            // Left remainder.
            if run.vstart < cut_start {
                self.runs.insert(run.vstart, (run.pstart, cut_start - run.vstart));
            }
            // Right remainder.
            if cut_end < run.vend() {
                self.runs
                    .insert(cut_end, (run.pstart + (cut_end - run.vstart), run.vend() - cut_end));
            }
            released.push((run.pstart + (cut_start - run.vstart), cut_end - cut_start));
            self.mapped -= cut_end - cut_start;
        }
        released
    }

    /// All runs in virtual order.
    pub fn runs(&self) -> impl Iterator<Item = Run> + '_ {
        self.runs.iter().map(|(&vstart, &(pstart, len))| Run { vstart, pstart, len })
    }

    /// Validate internal consistency (for tests): runs sorted, disjoint,
    /// non-empty, and the mapped counter matches.
    pub fn check(&self) -> Result<(), String> {
        let mut prev_end = 0u64;
        let mut total = 0u64;
        let mut first = true;
        for r in self.runs() {
            if r.len == 0 {
                return Err(format!("empty run at {}", r.vstart));
            }
            if !first && r.vstart < prev_end {
                return Err(format!("overlapping runs at {}", r.vstart));
            }
            first = false;
            prev_end = r.vend();
            total += r.len;
        }
        if total != self.mapped {
            return Err(format!("mapped counter {} != actual {}", self.mapped, total));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate() {
        let mut m = ExtentMap::new();
        m.map(10, 100, 5);
        assert_eq!(m.translate(10), Some(100));
        assert_eq!(m.translate(14), Some(104));
        assert_eq!(m.translate(15), None);
        assert_eq!(m.translate(9), None);
        assert_eq!(m.mapped_extents(), 5);
        m.check().unwrap();
    }

    #[test]
    fn adjacent_contiguous_runs_coalesce() {
        let mut m = ExtentMap::new();
        m.map(0, 50, 4);
        m.map(4, 54, 4);
        assert_eq!(m.run_count(), 1, "runs coalesced");
        assert_eq!(m.translate(7), Some(57));
        // Non-contiguous physical does not coalesce.
        m.map(8, 100, 2);
        assert_eq!(m.run_count(), 2);
        m.check().unwrap();
    }

    #[test]
    fn coalesce_bridges_predecessor_and_successor() {
        let mut m = ExtentMap::new();
        m.map(0, 10, 2);
        m.map(4, 14, 2);
        m.map(2, 12, 2); // exactly bridges
        assert_eq!(m.run_count(), 1);
        assert_eq!(m.translate(5), Some(15));
        m.check().unwrap();
    }

    #[test]
    fn segments_interleave_mapped_and_holes() {
        let mut m = ExtentMap::new();
        m.map(2, 20, 3); // virtual 2..5
        m.map(8, 80, 2); // virtual 8..10
        let segs = m.segments(0, 12);
        assert_eq!(
            segs,
            vec![
                Segment::Hole { vstart: 0, len: 2 },
                Segment::Mapped { vstart: 2, pstart: 20, len: 3 },
                Segment::Hole { vstart: 5, len: 3 },
                Segment::Mapped { vstart: 8, pstart: 80, len: 2 },
                Segment::Hole { vstart: 10, len: 2 },
            ]
        );
        let total: u64 = segs.iter().map(|s| s.len()).sum();
        assert_eq!(total, 12);
    }

    #[test]
    fn unmap_middle_splits_run() {
        let mut m = ExtentMap::new();
        m.map(0, 100, 10);
        let released = m.unmap(3, 4);
        assert_eq!(released, vec![(103, 4)]);
        assert_eq!(m.run_count(), 2);
        assert_eq!(m.translate(2), Some(102));
        assert_eq!(m.translate(3), None);
        assert_eq!(m.translate(6), None);
        assert_eq!(m.translate(7), Some(107));
        assert_eq!(m.mapped_extents(), 6);
        m.check().unwrap();
    }

    #[test]
    fn unmap_spanning_multiple_runs() {
        let mut m = ExtentMap::new();
        m.map(0, 100, 4);
        m.map(6, 200, 4);
        m.map(12, 300, 4);
        let released = m.unmap(2, 12); // clips run1 tail, all of run2, run3 head
        assert_eq!(released, vec![(102, 2), (200, 4), (300, 2)]);
        assert_eq!(m.mapped_extents(), 4);
        assert_eq!(m.translate(0), Some(100));
        assert_eq!(m.translate(1), Some(101));
        assert_eq!(m.translate(14), Some(302));
        m.check().unwrap();
    }

    #[test]
    fn unmap_unmapped_range_is_noop() {
        let mut m = ExtentMap::new();
        m.map(10, 0, 2);
        assert!(m.unmap(0, 10).is_empty());
        assert_eq!(m.mapped_extents(), 2);
        m.check().unwrap();
    }

    #[test]
    fn unmap_exact_run_removes_it() {
        let mut m = ExtentMap::new();
        m.map(5, 500, 3);
        let rel = m.unmap(5, 3);
        assert_eq!(rel, vec![(500, 3)]);
        assert_eq!(m.run_count(), 0);
        assert_eq!(m.mapped_extents(), 0);
        m.check().unwrap();
    }
}
