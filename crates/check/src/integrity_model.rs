//! Model-checker harness for the end-to-end integrity protocol — the
//! checksum plane of a real [`ys_simdisk::Disk`] plus the scrubber's
//! repair-or-declare state machine (`ys-scrub`).
//!
//! The scope drives every interleaving of silent corruption, repair-source
//! loss, scrub passes, foreground reads, and rewrites over a small set of
//! pages, auditing after each step:
//!
//! * a verified read over a rotten page **always** reports the mismatch —
//!   corrupt bytes never come back looking clean (the paper's "no silent
//!   wrong bytes" promise);
//! * a verified read over a clean page never false-positives;
//! * a scrub with any live repair source (RAID parity, cached replica,
//!   geo copy) leaves the page clean;
//! * a scrub with no source declares an explicit loss — and the page stays
//!   visibly rotten (every later read errors) until new data overwrites it;
//! * the disk's checksum plane and the shadow agree on exactly which pages
//!   are rotten, and the observed-mismatch counter is monotone.

use crate::explore::{violations_header, Counterexample, Model};
use crate::summary::StandardModel;
use crate::hash::StateHasher;
use ys_simcore::time::SimTime;
use ys_simdisk::{DiskFarm, DiskId, DiskOp, DiskSpec, CHECKSUM_PAGE_BYTES};

/// A repair source the scrubber may draw on, in preference order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// RAID redundancy on the local group.
    Parity,
    /// A surviving N-way cached replica.
    Replica,
    /// A geographic remote copy.
    Geo,
}

const SOURCES: [Source; 3] = [Source::Parity, Source::Replica, Source::Geo];

/// One operation in the bounded integrity scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IntegrityOp {
    /// Latent media error: `page` rots silently.
    Corrupt { page: u64 },
    /// A repair source for `page` becomes unavailable (parity lost to a
    /// degraded group, replica evicted, geo copy partitioned away).
    DropSource { page: u64, source: Source },
    /// The background scrubber verifies `page` and, on mismatch, repairs
    /// from the best live source or declares an explicit loss.
    Scrub { page: u64 },
    /// A foreground verified read of `page`.
    Read { page: u64 },
    /// New data overwrites `page`: fresh checksums, full protection.
    Rewrite { page: u64 },
}

/// Exploration bounds for the integrity model.
#[derive(Clone, Copy, Debug)]
pub struct IntegrityScope {
    /// Distinct pages in scope.
    pub pages: u64,
}

impl IntegrityScope {
    pub fn small() -> IntegrityScope {
        IntegrityScope { pages: 2 }
    }
}

/// Shadow protection state of one page.
#[derive(Clone, Copy, Debug)]
struct PageShadow {
    /// Whether the page is currently rotten (mirrors the checksum plane).
    rotten: bool,
    /// Declared unrepairable: the explicit tombstone a scrub leaves when
    /// every source is gone.
    lost: bool,
    /// Which repair sources are still live.
    sources: [bool; 3],
}

impl PageShadow {
    fn fresh() -> PageShadow {
        PageShadow { rotten: false, lost: false, sources: [true; 3] }
    }

    fn any_source(&self) -> bool {
        self.sources.iter().any(|&s| s)
    }
}

/// A real disk's checksum plane plus the shadow the invariants are
/// checked against.
#[derive(Clone)]
pub struct IntegrityModel {
    scope: IntegrityScope,
    farm: DiskFarm,
    shadow: Vec<PageShadow>,
    clock: SimTime,
    /// Last observed mismatch counter, for monotonicity.
    prev_mismatches: u64,
}

impl IntegrityModel {
    pub fn new(scope: IntegrityScope) -> IntegrityModel {
        IntegrityModel {
            scope,
            farm: DiskFarm::new(1, DiskSpec::cheetah_73()),
            shadow: vec![PageShadow::fresh(); scope.pages as usize],
            clock: SimTime::ZERO,
            prev_mismatches: 0,
        }
    }

    fn offset(page: u64) -> u64 {
        page * CHECKSUM_PAGE_BYTES
    }

    /// Verified read of one page; returns whether a mismatch was observed
    /// and pushes never-silent / never-false-positive violations.
    fn verified_read(&mut self, page: u64, out: &mut Vec<String>) -> bool {
        let op = DiskOp::Read { offset: Self::offset(page), bytes: CHECKSUM_PAGE_BYTES };
        match self.farm.submit_verified(DiskId(0), self.clock, op) {
            Ok((done, v)) => {
                self.clock = self.clock.max(done);
                let rotten = self.shadow[page as usize].rotten;
                if rotten && v.is_verified() {
                    out.push(format!("page {page}: rotten page read back as Verified (silent wrong bytes)"));
                }
                if !rotten && !v.is_verified() {
                    out.push(format!("page {page}: clean page failed verification (false positive)"));
                }
                !v.is_verified()
            }
            Err(e) => {
                out.push(format!("page {page}: verified read failed: {e:?}"));
                false
            }
        }
    }

    /// Overwrite one page: the disk lays down fresh checksums.
    fn rewrite(&mut self, page: u64, out: &mut Vec<String>) {
        let op = DiskOp::Write { offset: Self::offset(page), bytes: CHECKSUM_PAGE_BYTES };
        match self.farm.submit(DiskId(0), self.clock, op) {
            Ok(done) => self.clock = self.clock.max(done),
            Err(e) => out.push(format!("page {page}: rewrite failed: {e:?}")),
        }
    }

    /// Cross-check the checksum plane against the shadow.
    fn audit(&mut self) -> Vec<String> {
        let mut violations = Vec::new();
        for page in 0..self.scope.pages {
            let s = self.shadow[page as usize];
            let plane = self.farm.is_page_corrupt(DiskId(0), Self::offset(page));
            if plane != s.rotten {
                violations.push(format!(
                    "page {page}: checksum plane says rotten={plane}, shadow says rotten={}",
                    s.rotten
                ));
            }
            if s.lost && !s.rotten {
                violations.push(format!(
                    "page {page}: declared lost but reads back clean (loss must stay explicit)"
                ));
            }
        }
        let mismatches = self.farm.checksum_mismatches();
        if mismatches < self.prev_mismatches {
            violations.push(format!(
                "observed-mismatch counter went backwards ({} -> {mismatches})",
                self.prev_mismatches
            ));
        }
        self.prev_mismatches = mismatches;
        violations
    }
}

impl Model for IntegrityModel {
    type Op = IntegrityOp;

    fn enumerate_ops(&self) -> Vec<IntegrityOp> {
        let mut ops = Vec::new();
        for page in 0..self.scope.pages {
            let s = self.shadow[page as usize];
            if !s.rotten {
                ops.push(IntegrityOp::Corrupt { page });
            }
            for (i, source) in SOURCES.iter().enumerate() {
                if s.sources[i] {
                    ops.push(IntegrityOp::DropSource { page, source: *source });
                }
            }
            ops.push(IntegrityOp::Scrub { page });
            ops.push(IntegrityOp::Read { page });
            ops.push(IntegrityOp::Rewrite { page });
        }
        ops
    }

    fn apply(&mut self, op: IntegrityOp) -> Vec<String> {
        let mut violations = Vec::new();
        match op {
            IntegrityOp::Corrupt { page } => {
                self.farm.corrupt_page(DiskId(0), Self::offset(page));
                self.shadow[page as usize].rotten = true;
            }
            IntegrityOp::DropSource { page, source } => {
                let i = SOURCES.iter().position(|&s| s == source).unwrap_or(0);
                self.shadow[page as usize].sources[i] = false;
            }
            IntegrityOp::Read { page } => {
                // The observation itself is the check: `verified_read`
                // rejects silent wrong bytes and false positives.
                self.verified_read(page, &mut violations);
            }
            IntegrityOp::Scrub { page } => {
                let mismatch = self.verified_read(page, &mut violations);
                if mismatch {
                    if self.shadow[page as usize].any_source() {
                        // Best live source rebuilds the page; the rewrite
                        // lays down fresh checksums.
                        self.rewrite(page, &mut violations);
                        self.shadow[page as usize].rotten = false;
                        self.shadow[page as usize].lost = false;
                        if self.farm.is_page_corrupt(DiskId(0), Self::offset(page)) {
                            violations.push(format!(
                                "page {page}: still rotten after a sourced repair"
                            ));
                        }
                    } else {
                        // No source anywhere: explicit loss, page stays
                        // visibly rotten.
                        self.shadow[page as usize].lost = true;
                    }
                }
            }
            IntegrityOp::Rewrite { page } => {
                self.rewrite(page, &mut violations);
                // Fresh data is fully protected again.
                self.shadow[page as usize] = PageShadow::fresh();
            }
        }
        violations.extend(self.audit());
        violations
    }

    fn canonical_hash(&self) -> u128 {
        // Deliberately excludes the clock and I/O counters: verification
        // verdicts depend only on the checksum plane and the shadow, so
        // states equal modulo timing explore identically.
        let mut h = StateHasher::new();
        for page in 0..self.scope.pages {
            let s = self.shadow[page as usize];
            h.write_bool(self.farm.is_page_corrupt(DiskId(0), Self::offset(page)));
            h.write_bool(s.rotten);
            h.write_bool(s.lost);
            for live in s.sources {
                h.write_bool(live);
            }
            h.boundary();
        }
        h.finish()
    }
}

impl StandardModel for IntegrityModel {
    fn describe(&self, depth: usize) -> String {
        format!("integrity model, {} pages × 3 repair sources, depth {depth}", self.scope.pages)
    }

    fn render_counterexample(&self, cx: &Counterexample<IntegrityOp>) -> String {
        render_integrity_trace(&cx.trace, self.scope, &cx.violations)
    }
}

/// Render an integrity counterexample trace as a ready-to-paste
/// regression test.
fn render_integrity_trace(
    trace: &[IntegrityOp],
    scope: IntegrityScope,
    violations: &[String],
) -> String {
    let mut out = violations_header(violations);
    out.push_str(&format!(
        "let mut m = IntegrityModel::new(IntegrityScope {{ pages: {} }});\n",
        scope.pages
    ));
    for op in trace {
        out.push_str(&format!("assert!(m.apply(IntegrityOp::{op:?}).is_empty());\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explore::{explore_timed, Limits};

    #[test]
    fn initial_state_is_clean() {
        let mut m = IntegrityModel::new(IntegrityScope::small());
        assert_eq!(m.audit(), Vec::<String>::new());
    }

    #[test]
    fn corrupt_is_silent_until_read_then_never_silent() {
        let mut m = IntegrityModel::new(IntegrityScope::small());
        assert!(m.apply(IntegrityOp::Corrupt { page: 0 }).is_empty());
        // The read observes the mismatch (explicitly), which is correct
        // behavior — no violation.
        assert!(m.apply(IntegrityOp::Read { page: 0 }).is_empty());
        assert!(m.farm.checksum_mismatches() > 0);
    }

    #[test]
    fn scrub_with_a_source_repairs() {
        let mut m = IntegrityModel::new(IntegrityScope::small());
        assert!(m.apply(IntegrityOp::Corrupt { page: 1 }).is_empty());
        assert!(m.apply(IntegrityOp::DropSource { page: 1, source: Source::Parity }).is_empty());
        assert!(m.apply(IntegrityOp::Scrub { page: 1 }).is_empty());
        assert!(!m.shadow[1].rotten && !m.shadow[1].lost);
        assert!(m.apply(IntegrityOp::Read { page: 1 }).is_empty());
    }

    #[test]
    fn scrub_without_sources_declares_and_stays_explicit() {
        let mut m = IntegrityModel::new(IntegrityScope::small());
        for source in SOURCES {
            assert!(m.apply(IntegrityOp::DropSource { page: 0, source }).is_empty());
        }
        assert!(m.apply(IntegrityOp::Corrupt { page: 0 }).is_empty());
        assert!(m.apply(IntegrityOp::Scrub { page: 0 }).is_empty());
        assert!(m.shadow[0].lost, "sourceless scrub must declare the loss");
        // Still explicit on every later read; a rewrite finally clears it.
        assert!(m.apply(IntegrityOp::Read { page: 0 }).is_empty());
        assert!(m.apply(IntegrityOp::Rewrite { page: 0 }).is_empty());
        assert!(!m.shadow[0].lost && !m.shadow[0].rotten);
    }

    #[test]
    fn tiny_exploration_is_clean() {
        let scope = IntegrityScope::small();
        let result = explore_timed(
            IntegrityModel::new(scope),
            Limits { max_depth: 5, max_states: 200_000 },
            || 0.0,
        );
        if let Some(cx) = &result.counterexample {
            panic!("violation:\n{}", render_integrity_trace(&cx.trace, scope, &cx.violations));
        }
        assert!(result.states_visited > 50);
    }
}
