//! The §6.1 durability promise, stated once: a write acked with N dirty
//! copies survives the failure of any N−1 of them, and a page lost beyond
//! that is lost *loudly* — it reads back as [`CacheError::DataLost`].
//!
//! [`LossLedger`] holds one [`Budget`] per protected dirty page and judges
//! every loss a crash reports against it, under the rule names below.
//! ys-check's cache model and ys-chaos's recovery oracle both judge every
//! crash through it, so the exhaustive checker and the sampled campaigns
//! apply one definition.

use crate::{CacheCluster, CacheError, Directory, FixedHash, PageKey};
use std::collections::HashMap; // lint: allow(unordered-iteration) — fixed hasher, and no walk's order reaches a verdict (see `budgets`)

/// Lost after fewer failures than copies: a protocol bug.
pub const LOSS_WITHIN_BUDGET: &str = "loss-within-budget";
/// Lost at the Nth copy failure: the accepted limit, still surfaced.
pub const ACKED_WRITE_LOST: &str = "acked-write-lost";
/// Lost without ever having had a budget.
pub const UNTRACKED_LOSS: &str = "untracked-loss";
/// Lost, but read back as anything but `DataLost` ([`check_loss_is_loud`]).
pub const SILENT_LOSS: &str = "silent-loss";

/// Protection promised to one dirty page when its write was acked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Budget {
    /// The version the promise was made for.
    pub version: u64,
    /// Dirty copies at the ack (owner + pinned replicas).
    pub copies: u32,
    /// Failures since then that removed one of those copies.
    pub failures: u32,
}

/// What one lost page's budget says about its loss.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Acked with fewer than the protected copies: an internal single-copy
    /// install (a first-reference migration, a shipped geo batch) whose
    /// source survives, so no client promise breaks.
    Benign,
    /// Lost after fewer failures than copies.
    WithinBudget(Budget),
    /// Lost at (or past) its Nth copy failure.
    AtLimit(Budget),
    /// Lost without a budget.
    Untracked,
}

impl Verdict {
    /// The rule the loss is reported under; `None` for a benign one.
    pub fn rule(&self) -> Option<&'static str> {
        match self {
            Verdict::Benign => None,
            Verdict::WithinBudget(_) => Some(LOSS_WITHIN_BUDGET),
            Verdict::AtLimit(_) => Some(ACKED_WRITE_LOST),
            Verdict::Untracked => Some(UNTRACKED_LOSS),
        }
    }

    /// The verdict on lost page `key`, in the words every report uses.
    pub fn detail(&self, key: PageKey) -> String {
        match self {
            Verdict::Benign => format!("{key:?} was an internal cache install; its source survives"),
            Verdict::WithinBudget(b) => {
                format!("{key:?} written {}-way lost after only {} of its copies failed", b.copies, b.failures)
            }
            Verdict::AtLimit(b) => format!(
                "{key:?} lost at copy failure #{} (N={}): the accepted limit, surfaced explicitly",
                b.failures, b.copies
            ),
            Verdict::Untracked => format!("{key:?} lost but never had a durability budget"),
        }
    }
}

/// The outstanding durability budgets of one cluster. Nothing reads them
/// in any order: verdicts follow a crash's `lost` list, and counting a
/// crash or dropping budgets touches each one independently.
#[derive(Debug, Default)]
pub struct LossLedger {
    budgets: HashMap<PageKey, Budget, FixedHash>, // lint: allow(unordered-iteration) — walks touch each budget independently; `iter` callers sort
}

/// `clone_from` refills the map in its own buffer: the model checker
/// refills one scratch state per explored transition.
impl Clone for LossLedger {
    fn clone(&self) -> Self {
        LossLedger { budgets: self.budgets.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.budgets.clone_from(&source.budgets);
    }
}

impl LossLedger {
    /// Promise `copies` dirty copies of `key` at `version`. A new version
    /// (a re-write) starts a fresh budget; the same version keeps the one
    /// it has — the copies promised at the ack and the failures counted
    /// since, which a promotion does not undo.
    pub fn open(&mut self, key: PageKey, version: u64, copies: usize) {
        if self.budgets.get(&key).map(|b| b.version) != Some(version) {
            self.budgets.insert(key, Budget { version, copies: copies as u32, failures: 0 });
        }
    }

    /// End `key`'s promise: its data is on disk, or deliberately dropped.
    pub fn close(&mut self, key: PageKey) {
        self.budgets.remove(&key);
    }

    /// Keep only the budgets of the pages `keep` names.
    pub fn retain(&mut self, mut keep: impl FnMut(&PageKey) -> bool) {
        self.budgets.retain(|key, _| keep(key));
    }

    /// Every outstanding budget, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&PageKey, &Budget)> {
        self.budgets.iter()
    }

    /// Account blade `blade`'s crash *before* it happens: every budgeted
    /// page `dir` gives a copy on it (owner or replica) loses one of its
    /// promised copies.
    pub fn pre_crash(&mut self, dir: &Directory, blade: usize) {
        for (key, b) in self.budgets.iter_mut() {
            if dir.get(key).is_some_and(|e| e.owner == Some(blade) || e.replicas.contains(&blade)) {
                b.failures += 1;
            }
        }
    }

    /// Judge the loss of `key` and end its budget. A page acked with fewer
    /// than `protected_copies` copies is [`Verdict::Benign`]; a protected
    /// one is lost within budget while fewer of its copies have failed than
    /// it was written with, and at the limit after that.
    pub fn judge(&mut self, key: PageKey, protected_copies: usize) -> Verdict {
        match self.budgets.remove(&key) {
            Some(b) if (b.copies as usize) < protected_copies => Verdict::Benign,
            Some(b) if b.failures < b.copies => Verdict::WithinBudget(b),
            Some(b) => Verdict::AtLimit(b),
            None => Verdict::Untracked,
        }
    }
}

/// Loud loss: `key`, lost when blade `failed` crashed and not yet
/// acknowledged, reads as [`CacheError::DataLost`] from the first surviving
/// blade. `Err` carries the [`SILENT_LOSS`] detail. The read of a lost page
/// returns before it touches any recency list or counter, so a loud loss
/// leaves the cluster as it found it.
pub fn check_loss_is_loud(cluster: &mut CacheCluster, failed: usize, key: PageKey) -> Result<(), String> {
    let Some(reader) = (0..cluster.blade_count()).find(|&b| b != failed && cluster.blade_up(b)) else {
        return Ok(());
    };
    match cluster.read(reader, key) {
        Err(CacheError::DataLost(_)) => Ok(()),
        other => Err(format!("read of lost {key:?} returned {other:?}, not DataLost")),
    }
}
