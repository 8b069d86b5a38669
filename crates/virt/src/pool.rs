//! The shared physical extent pool with reference counting.
//!
//! §3: slack space "can be amortized across multiple DMSDs"; snapshots
//! (§7.2) share physical extents between the live volume and the frozen
//! image, so extents carry refcounts and are reclaimed at zero.
//!
//! The pool's own books are demand-mapped too: it keeps a refcount for the
//! extents below a watermark and a list of the ones released since, never
//! an entry per extent it could one day hand out — a 1 M-extent pool that
//! maps a hundred costs a hundred entries.

/// Allocator over `total` physical extents with per-extent refcounts.
#[derive(Clone, Debug)]
pub struct PhysicalPool {
    extent_bytes: u64,
    total: u64,
    /// The watermark: lowest never-allocated extent. Everything at or
    /// above it is free and has no entry in `refs` or `free`.
    fresh: u64,
    /// Refcounts of the extents below the watermark.
    refs: Vec<u32>,
    /// Released extents, LIFO: recycled before any fresh extent is taken —
    /// the order a free list of all `total` extents, seeded in reverse so
    /// allocation walks upward, would hand them out in.
    free: Vec<u64>,
    used: u64,
    /// Extents whose refcount hit zero since the last [`Self::take_reclaimed`]
    /// drain — the controller above must discard their media bytes before
    /// any reuse can surface a previous owner's data.
    reclaimed: Vec<u64>,
}

/// Pool exhaustion.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct OutOfSpace {
    pub requested: u64,
    pub available: u64,
}

impl std::fmt::Display for OutOfSpace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pool exhausted: requested {} extents, {} available", self.requested, self.available)
    }
}

impl std::error::Error for OutOfSpace {}

impl PhysicalPool {
    pub fn new(total_extents: u64, extent_bytes: u64) -> PhysicalPool {
        assert!(extent_bytes > 0);
        PhysicalPool {
            extent_bytes,
            total: total_extents,
            fresh: 0,
            refs: Vec::new(),
            free: Vec::new(),
            used: 0,
            reclaimed: Vec::new(),
        }
    }

    pub fn extent_bytes(&self) -> u64 {
        self.extent_bytes
    }

    pub fn total_extents(&self) -> u64 {
        self.total
    }

    pub fn used_extents(&self) -> u64 {
        self.used
    }

    // lint: allow(dead-pub) — (b) the free count the pool_matches differential compares with its model
    pub fn free_extents(&self) -> u64 {
        self.free.len() as u64 + (self.total - self.fresh)
    }

    pub fn used_bytes(&self) -> u64 {
        self.used * self.extent_bytes
    }

    /// Allocate `count` extents (refcount 1 each). Returns them as
    /// coalesced (start, len) runs for compact mapping.
    pub fn allocate(&mut self, count: u64) -> Result<Vec<(u64, u64)>, OutOfSpace> {
        let available = self.free_extents();
        if count > available {
            return Err(OutOfSpace { requested: count, available });
        }
        let recycled = count.min(self.free.len() as u64);
        let mut picked: Vec<u64> = self.free.split_off(self.free.len() - recycled as usize);
        picked.sort_unstable();
        // Coalesce into runs: the recycled extents, then one fresh run —
        // ascending as a whole, every recycled extent being below the
        // watermark.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for e in picked {
            debug_assert_eq!(self.refs[e as usize], 0);
            self.refs[e as usize] = 1;
            match runs.last_mut() {
                Some((start, len)) if *start + *len == e => *len += 1,
                _ => runs.push((e, 1)),
            }
        }
        let rest = count - recycled;
        if rest > 0 {
            match runs.last_mut() {
                Some((start, len)) if *start + *len == self.fresh => *len += rest,
                _ => runs.push((self.fresh, rest)),
            }
            self.fresh += rest;
            self.refs.resize(self.fresh as usize, 1);
        }
        self.used += count;
        Ok(runs)
    }

    /// Increment the refcount of every extent in `[start, start+len)`
    /// (snapshot sharing).
    pub fn add_ref(&mut self, start: u64, len: u64) {
        for e in start..start + len {
            assert!(self.count(e) > 0, "add_ref on free extent {e}");
            self.refs[e as usize] += 1;
        }
    }

    /// Decrement refcounts; extents reaching zero return to the free list.
    /// Returns how many were actually freed.
    pub fn release(&mut self, start: u64, len: u64) -> u64 {
        let mut freed = 0;
        for e in start..start + len {
            assert!(self.count(e) > 0, "release of free extent {e}");
            let r = &mut self.refs[e as usize];
            *r -= 1;
            if *r == 0 {
                self.free.push(e);
                self.reclaimed.push(e);
                self.used -= 1;
                freed += 1;
            }
        }
        freed
    }

    /// Drain the extents reclaimed (refcount → zero) since the last call.
    /// The caller owns the data-plane consequence: a reclaimed extent's
    /// media bytes must be discarded before the extent is reused, or a
    /// later tenant reads the previous owner's (stale) bytes.
    pub fn take_reclaimed(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.reclaimed)
    }

    pub fn refcount(&self, extent: u64) -> u32 {
        assert!(extent < self.total, "extent {extent} outside a pool of {}", self.total);
        self.count(extent)
    }

    /// Refcount by the books: an extent without an entry was never
    /// allocated.
    fn count(&self, extent: u64) -> u32 {
        self.refs.get(extent as usize).copied().unwrap_or(0)
    }

    /// Consistency check: used + free == total; refcounts agree with lists
    /// — the counter with the live refcounts, and every free-list entry
    /// below the watermark, unreferenced and listed once.
    pub fn check(&self) -> Result<(), String> {
        if self.fresh > self.total || self.refs.len() as u64 != self.fresh {
            return Err(format!(
                "watermark {} with {} refcounts over {} extents",
                self.fresh,
                self.refs.len(),
                self.total
            ));
        }
        let counted_used = self.refs.iter().filter(|&&r| r > 0).count() as u64;
        if counted_used != self.used {
            return Err(format!("used counter {} != counted {}", self.used, counted_used));
        }
        let mut listed = vec![false; self.refs.len()];
        for &e in &self.free {
            if e >= self.fresh {
                return Err(format!("free list names extent {e} at or above the watermark {}", self.fresh));
            }
            if self.refs[e as usize] > 0 {
                return Err(format!("free list names extent {e} with refcount {}", self.refs[e as usize]));
            }
            if std::mem::replace(&mut listed[e as usize], true) {
                return Err(format!("free list names extent {e} twice"));
            }
        }
        if self.used + self.free_extents() != self.total {
            return Err("used + free != total".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release_round_trip() {
        let mut p = PhysicalPool::new(100, 1 << 20);
        let runs = p.allocate(10).unwrap();
        let total: u64 = runs.iter().map(|&(_, l)| l).sum();
        assert_eq!(total, 10);
        assert_eq!(p.used_extents(), 10);
        assert_eq!(p.used_bytes(), 10 << 20);
        for &(s, l) in &runs {
            p.release(s, l);
        }
        assert_eq!(p.used_extents(), 0);
        assert_eq!(p.free_extents(), 100);
        p.check().unwrap();
    }

    #[test]
    fn fresh_pool_allocates_contiguously() {
        let mut p = PhysicalPool::new(64, 1 << 20);
        let runs = p.allocate(16).unwrap();
        assert_eq!(runs, vec![(0, 16)], "fresh pool yields one contiguous run");
    }

    #[test]
    fn exhaustion_is_reported() {
        let mut p = PhysicalPool::new(5, 1 << 20);
        p.allocate(3).unwrap();
        let err = p.allocate(3).unwrap_err();
        assert_eq!(err, OutOfSpace { requested: 3, available: 2 });
        // Failed allocation leaves the pool untouched.
        assert_eq!(p.free_extents(), 2);
        p.check().unwrap();
    }

    #[test]
    fn refcounted_sharing_delays_reclaim() {
        let mut p = PhysicalPool::new(10, 1 << 20);
        let runs = p.allocate(4).unwrap();
        let (s, l) = runs[0];
        p.add_ref(s, l); // snapshot now shares them
        assert_eq!(p.refcount(s), 2);
        assert_eq!(p.release(s, l), 0, "volume unmap frees nothing while snapshot lives");
        assert_eq!(p.used_extents(), 4);
        assert_eq!(p.release(s, l), l, "snapshot delete reclaims");
        assert_eq!(p.used_extents(), 0);
        p.check().unwrap();
    }

    #[test]
    fn reclaimed_extents_are_reported_exactly_once() {
        let mut p = PhysicalPool::new(10, 1 << 20);
        let runs = p.allocate(4).unwrap();
        let (s, l) = runs[0];
        // Sharing means a release that frees nothing reclaims nothing.
        p.add_ref(s, 2);
        p.release(s, 2);
        assert_eq!(p.take_reclaimed(), Vec::<u64>::new());
        // The refcount-zero releases surface, once each, in free order.
        p.release(s, l);
        assert_eq!(p.take_reclaimed(), (s..s + l).collect::<Vec<_>>());
        assert_eq!(p.take_reclaimed(), Vec::<u64>::new(), "drain is destructive");
        p.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "release of free extent")]
    fn double_free_panics() {
        let mut p = PhysicalPool::new(4, 1 << 20);
        let runs = p.allocate(1).unwrap();
        let (s, l) = runs[0];
        p.release(s, l);
        p.release(s, l);
    }

    #[test]
    fn an_untouched_pool_keeps_no_per_extent_books() {
        let mut p = PhysicalPool::new(1 << 40, 1 << 20);
        assert_eq!(p.allocate(3).unwrap(), vec![(0, 3)]);
        p.release(1, 1);
        assert_eq!((p.refs.len(), p.free.len()), (3, 1), "books cover what was handed out, nothing else");
        assert_eq!(p.free_extents(), (1 << 40) - 2);
        assert_eq!(p.allocate(2).unwrap(), vec![(1, 1), (3, 1)], "the released extent first, then a fresh one");
        p.check().unwrap();
    }

    #[test]
    fn extents_above_the_watermark_read_as_free() {
        let mut p = PhysicalPool::new(8, 1 << 20);
        p.allocate(2).unwrap();
        assert_eq!((p.refcount(1), p.refcount(2), p.refcount(7)), (1, 0, 0));
    }

    #[test]
    #[should_panic(expected = "outside a pool of 8")]
    fn refcount_past_the_pool_panics() {
        PhysicalPool::new(8, 1 << 20).refcount(8);
    }

    #[test]
    #[should_panic(expected = "add_ref on free extent 5")]
    fn add_ref_above_the_watermark_panics_as_on_any_free_extent() {
        let mut p = PhysicalPool::new(8, 1 << 20);
        p.allocate(2).unwrap();
        p.add_ref(5, 1);
    }

    #[test]
    #[should_panic(expected = "release of free extent 5")]
    fn release_above_the_watermark_panics_as_on_any_free_extent() {
        let mut p = PhysicalPool::new(8, 1 << 20);
        p.allocate(2).unwrap();
        p.release(5, 1);
    }

    /// A pool with extents 0..4 handed out and 1, 2 released again.
    fn recycled() -> PhysicalPool {
        let mut p = PhysicalPool::new(8, 1 << 20);
        p.allocate(4).unwrap();
        p.release(1, 2);
        p.check().unwrap();
        p
    }

    #[test]
    fn check_reports_a_free_entry_that_is_still_referenced() {
        let mut p = recycled();
        p.free[0] = 3;
        assert_eq!(p.check().unwrap_err(), "free list names extent 3 with refcount 1");
    }

    #[test]
    fn check_reports_a_free_entry_listed_twice() {
        let mut p = recycled();
        p.free[1] = 1;
        assert_eq!(p.check().unwrap_err(), "free list names extent 1 twice");
    }

    #[test]
    fn check_reports_a_free_entry_above_the_watermark() {
        let mut p = recycled();
        p.free[0] = 4;
        assert_eq!(p.check().unwrap_err(), "free list names extent 4 at or above the watermark 4");
    }

    #[test]
    fn check_reports_an_extent_on_neither_side_of_the_books() {
        let mut p = recycled();
        p.free.pop();
        assert_eq!(p.check().unwrap_err(), "used + free != total");
    }
}
