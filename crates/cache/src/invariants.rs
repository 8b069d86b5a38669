//! Structured coherence-protocol invariants for [`CacheCluster`].
//!
//! Every rule the cluster must uphold between operations lives here, named,
//! so both the property tests and the `ys-check` bounded model checker can
//! report *which* protocol obligation broke and *where*. The rules encode
//! the paper's claims: a single coherent pooled cache (§2.2), and dirty
//! data that survives any N−1 blade failures when written N-way (§6.1).
//!
//! Each rule has one body, reached two ways. [`audit`] — the full scan —
//! walks every directory entry, every resident page and every blade; it is
//! the specification and the only reporter. It walks each table in slab
//! order and sorts what it finds into page-key order, so a clean scan pays
//! for no sort. `audit_touched` runs the same bodies over just the pages a
//! cluster's change journal names, plus the O(blades) structural rules:
//! what [`CacheCluster::audit_checkpoint`] asks first, so a caller that
//! audits after every step pays for what changed.
//! Anything it finds — or a journal that is closed — sends the checkpoint
//! back to the full scan, whose answer is returned verbatim.

use crate::cluster::{BladeSlot, BladeState, CacheCluster, PageMeta, Residency};
use crate::directory::{DirEntry, PageKey};
use std::fmt;

/// The individual protocol obligations audited by [`audit`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Invariant {
    /// A page's owner never appears in its own sharer list, and the owner,
    /// sharer, and replica sets are pairwise disjoint.
    HolderSetsDisjoint,
    /// The directory owner holds a dirty `Modified` copy at the directory's
    /// current version.
    OwnerDirtyCopy,
    /// Every directory sharer holds a clean `Shared` copy at the current
    /// version.
    SharerCleanCopy,
    /// Every directory replica blade holds a pinned replica at the current
    /// version, and replicas never exist without an owner to protect.
    ReplicaIntegrity,
    /// Every resident page is reflected in the directory with the matching
    /// role (dirty ⇒ owner, clean ⇒ sharer, replica ⇒ replica set).
    ResidencyBacklink,
    /// A blade's held list (outside the eviction bands, and what
    /// `dirty_ratio` counts) is exactly its dirty owner copies and replicas:
    /// index ≡ the residency scan it replaced.
    HeldAgreement,
    /// The heal queue is exactly the pages with an owner and fewer replicas
    /// than their protection target, with the missing count: index ≡ the
    /// directory scan it replaced.
    DeficitIndex,
    /// No blade holds more pages than its configured capacity.
    Capacity,
    /// A failed blade holds nothing, and the directory never points at a
    /// down blade.
    DownBladeConsistency,
    /// An acknowledged (dirty, replicated-as-requested) write was lost —
    /// the owner and every replica failed before destage — and nobody has
    /// acknowledged the loss. Unlike the other rules this one reports an
    /// *unhandled event*, not corrupted bookkeeping: the cluster records it
    /// so the loss can never degrade into a silent stale read.
    DataLoss,
}

impl fmt::Display for Invariant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Invariant::HolderSetsDisjoint => "holder-sets-disjoint",
            Invariant::OwnerDirtyCopy => "owner-dirty-copy",
            Invariant::SharerCleanCopy => "sharer-clean-copy",
            Invariant::ReplicaIntegrity => "replica-integrity",
            Invariant::ResidencyBacklink => "residency-backlink",
            Invariant::HeldAgreement => "held-agreement",
            Invariant::DeficitIndex => "deficit-index",
            Invariant::Capacity => "capacity",
            Invariant::DownBladeConsistency => "down-blade-consistency",
            Invariant::DataLoss => "data-loss",
        };
        f.write_str(name)
    }
}

/// One broken obligation: which rule, where, and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    pub invariant: Invariant,
    /// The page involved, when the rule is per-page.
    pub key: Option<PageKey>,
    /// The blade involved, when the rule points at one.
    pub blade: Option<usize>,
    pub detail: String,
}

impl Violation {
    fn page(invariant: Invariant, key: PageKey, blade: usize, detail: String) -> Violation {
        Violation { invariant, key: Some(key), blade: Some(blade), detail }
    }

    fn blade(invariant: Invariant, blade: usize, detail: String) -> Violation {
        Violation { invariant, key: None, blade: Some(blade), detail }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}]", self.invariant)?;
        if let Some(k) = self.key {
            write!(f, " page {k:?}")?;
        }
        if let Some(b) = self.blade {
            write!(f, " blade {b}")?;
        }
        write!(f, ": {}", self.detail)
    }
}

/// Audit every invariant and return all violations found (empty = healthy).
/// Runs once per explored model-checker state, so a healthy cluster costs
/// no allocation: the indices are compared in place, not materialised.
pub fn audit(cluster: &CacheCluster) -> Vec<Violation> {
    let mut out = Vec::new();
    audit_directory(cluster, &mut out);
    audit_residency(cluster, &mut out);
    audit_blades(cluster, &mut out);
    audit_losses(cluster, &mut out);
    out
}

/// Unacknowledged data losses: every tombstone is a broken durability
/// promise until something accepts it (see
/// [`CacheCluster::acknowledge_loss`]).
fn audit_losses(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (key, version) in cluster.lost_pages() {
        out.push(Violation {
            invariant: Invariant::DataLoss,
            key: Some(key),
            blade: None,
            detail: format!("dirty v{version} lost with its owner and every replica; loss unacknowledged"),
        });
    }
}

/// A heal-queue entry for a page the directory does not hold.
fn stale_queue_entry(key: PageKey, missing: usize) -> Violation {
    Violation {
        invariant: Invariant::DeficitIndex,
        key: Some(key),
        blade: None,
        detail: format!("heal queue lists {missing} missing replica(s) for a page the directory does not hold"),
    }
}

/// Run the per-page rules `check` pushes, over a table walked in slab
/// order (which costs no sort), and report what they found in page-key
/// order. Each violation names its page, and one page's violations come
/// from one visit, so a stable sort by page is the order a key-order walk
/// would have reported them in.
fn in_key_order(out: &mut Vec<Violation>, check: impl FnOnce(&mut Vec<Violation>)) {
    let start = out.len();
    check(out);
    out[start..].sort_by_key(|v| v.key);
}

/// Directory-side rules: each entry's holder sets against blade contents,
/// and the heal queue against the entries.
fn audit_directory(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    in_key_order(out, |out| {
        for (key, e) in cluster.directory.iter_unordered() {
            let queued = cluster.deficit.get(key).copied().unwrap_or(0);
            audit_entry(cluster, *key, e, queued, out);
        }
        for (&key, &missing) in &cluster.deficit {
            if cluster.directory.get(&key).is_none() {
                out.push(stale_queue_entry(key, missing));
            }
        }
    });
}

/// One directory entry: its heal-queue count (`queued`, 0 when absent)
/// against its margin, and its holder sets against the blades' contents.
fn audit_entry(cluster: &CacheCluster, key: PageKey, e: &DirEntry, queued: usize, out: &mut Vec<Violation>) {
    // The specification: the scan `under_target_pages` used to be.
    let missing = if e.owner.is_some() && e.protect > 1 + e.replicas.len() {
        e.protect - 1 - e.replicas.len()
    } else {
        0
    };
    if queued != missing {
        out.push(Violation {
            invariant: Invariant::DeficitIndex,
            key: Some(key),
            blade: None,
            detail: format!("heal queue says {queued} replica(s) missing, directory says {missing}"),
        });
    }
    if let Some(o) = e.owner {
        if e.sharers.contains(&o) {
            out.push(Violation::page(
                Invariant::HolderSetsDisjoint,
                key,
                o,
                "owner also listed as sharer".into(),
            ));
        }
        if e.replicas.contains(&o) {
            out.push(Violation::page(
                Invariant::HolderSetsDisjoint,
                key,
                o,
                "owner also listed as replica".into(),
            ));
        }
    }
    for &s in &e.sharers {
        if e.replicas.contains(&s) {
            out.push(Violation::page(
                Invariant::HolderSetsDisjoint,
                key,
                s,
                "sharer also listed as replica".into(),
            ));
        }
    }

    if let Some(o) = e.owner {
        match cluster.blades.get(o).and_then(|b| b.lru.get(&key)) {
            Some(m) if matches!(m.residency, Residency::Cached { dirty: true, .. }) => {
                if m.version != e.version {
                    out.push(Violation::page(
                        Invariant::OwnerDirtyCopy,
                        key,
                        o,
                        format!("owner copy at v{} but directory at v{}", m.version, e.version),
                    ));
                }
            }
            Some(_) => out.push(Violation::page(
                Invariant::OwnerDirtyCopy,
                key,
                o,
                "owner's resident copy is not dirty".into(),
            )),
            None => out.push(Violation::page(
                Invariant::OwnerDirtyCopy,
                key,
                o,
                "directory owner holds no copy".into(),
            )),
        }
    }

    for &s in &e.sharers {
        match cluster.blades.get(s).and_then(|b| b.lru.get(&key)) {
            Some(m) if matches!(m.residency, Residency::Cached { dirty: false, .. }) => {
                if m.version != e.version {
                    out.push(Violation::page(
                        Invariant::SharerCleanCopy,
                        key,
                        s,
                        format!("sharer copy at v{} but directory at v{}", m.version, e.version),
                    ));
                }
            }
            Some(_) => out.push(Violation::page(
                Invariant::SharerCleanCopy,
                key,
                s,
                "sharer's resident copy is not clean".into(),
            )),
            None => out.push(Violation::page(
                Invariant::SharerCleanCopy,
                key,
                s,
                "directory sharer holds no copy".into(),
            )),
        }
    }

    if !e.replicas.is_empty() && e.owner.is_none() {
        out.push(Violation {
            invariant: Invariant::ReplicaIntegrity,
            key: Some(key),
            blade: None,
            detail: "pinned replicas exist with no owner to protect".into(),
        });
    }
    for &r in &e.replicas {
        match cluster.blades.get(r).and_then(|b| b.lru.get(&key)) {
            Some(m) if matches!(m.residency, Residency::Replica) => {
                if m.version != e.version {
                    out.push(Violation::page(
                        Invariant::ReplicaIntegrity,
                        key,
                        r,
                        format!("replica at v{} but directory at v{}", m.version, e.version),
                    ));
                }
            }
            Some(_) => out.push(Violation::page(
                Invariant::ReplicaIntegrity,
                key,
                r,
                "replica blade's copy is not a pinned replica".into(),
            )),
            None => out.push(Violation::page(
                Invariant::ReplicaIntegrity,
                key,
                r,
                "directory replica blade holds no copy".into(),
            )),
        }
    }

    for &b in e.owner.iter().chain(&e.sharers).chain(&e.replicas) {
        if !cluster.blade_up(b) {
            out.push(Violation::page(
                Invariant::DownBladeConsistency,
                key,
                b,
                "directory references a down blade".into(),
            ));
        }
    }
}

/// Blade-side rules: every resident page maps back to the directory role
/// that justifies its residency.
fn audit_residency(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        in_key_order(out, |out| {
            for (key, meta) in slot.lru.iter_unordered() {
                audit_resident(cluster, b, *key, meta, out);
            }
        });
    }
}

/// One resident page against the directory role that justifies it.
fn audit_resident(cluster: &CacheCluster, b: usize, key: PageKey, meta: &PageMeta, out: &mut Vec<Violation>) {
    let role_ok = match (meta.residency, cluster.directory.get(&key)) {
        (Residency::Cached { dirty: true, .. }, Some(e)) => e.owner == Some(b),
        (Residency::Cached { dirty: false, .. }, Some(e)) => e.sharers.contains(&b),
        (Residency::Replica, Some(e)) => e.replicas.contains(&b),
        (_, None) => false,
    };
    if !role_ok {
        out.push(Violation::page(
            Invariant::ResidencyBacklink,
            key,
            b,
            format!("resident as {:?} but directory disagrees", meta.residency),
        ));
    }
}

/// Per-blade structural rules: held-list bookkeeping, capacity, down-blade
/// state.
fn audit_blades(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        let mut held = 0;
        in_key_order(out, |out| {
            for (key, meta) in slot.lru.iter_unordered() {
                held += usize::from(audit_held(slot, b, *key, meta, out));
            }
        });
        audit_blade_totals(slot, b, held, out);
    }
}

/// One resident page against the blade's held list: held exactly when its
/// residency says so. Returns whether it should be held.
fn audit_held(slot: &BladeSlot, b: usize, key: PageKey, meta: &PageMeta, out: &mut Vec<Violation>) -> bool {
    // The specification: the filter `dirty_ratio` used to count by.
    let expect = meta.residency.held();
    let is = slot.lru.is_held(&key) == Some(true);
    if is != expect {
        out.push(Violation::page(
            Invariant::HeldAgreement,
            key,
            b,
            format!("resident as {:?} but {}", meta.residency, if is { "held" } else { "evictable" }),
        ));
    }
    expect
}

/// A blade's totals: `held` (its dirty and replica pages, however counted)
/// against the held list's length, occupancy against capacity, and nothing
/// resident on a down blade.
fn audit_blade_totals(slot: &BladeSlot, b: usize, held: usize, out: &mut Vec<Violation>) {
    if slot.lru.held_len() != held {
        out.push(Violation::blade(
            Invariant::HeldAgreement,
            b,
            format!("held list counts {} keys but {held} pages are dirty or replicas", slot.lru.held_len()),
        ));
    }
    if slot.lru.len() > slot.capacity_pages {
        out.push(Violation::blade(
            Invariant::Capacity,
            b,
            format!("{} pages resident, capacity {}", slot.lru.len(), slot.capacity_pages),
        ));
    }
    if slot.state == BladeState::Down && !slot.lru.is_empty() {
        out.push(Violation::blade(
            Invariant::DownBladeConsistency,
            b,
            format!("down blade still holds {} pages", slot.lru.len()),
        ));
    }
}

/// The checkpoint's first pass: every rule [`audit`] applies, restricted to
/// the pages in `touched` (sorted, de-duplicated) and the per-blade totals.
/// Clean here means clean under [`audit`] *provided* `touched` names every
/// page whose directory entry, heal-queue entry, residency or held-list
/// membership changed since a state [`audit`] found clean, and no blade
/// changed lifecycle state since — the change journal's contract. The
/// violations themselves are not for reporting: order and multiplicity
/// differ from the full scan's, which is why the checkpoint falls back to it.
pub(crate) fn audit_touched(cluster: &CacheCluster, touched: &[PageKey]) -> Vec<Violation> {
    let mut out = Vec::new();
    for &key in touched {
        let queued = cluster.deficit.get(&key).copied();
        match cluster.directory.get(&key) {
            Some(e) => audit_entry(cluster, key, e, queued.unwrap_or(0), &mut out),
            None => out.extend(queued.map(|missing| stale_queue_entry(key, missing))),
        }
        for (b, slot) in cluster.blades.iter().enumerate() {
            if let Some(meta) = slot.lru.get(&key) {
                audit_resident(cluster, b, key, meta, &mut out);
                audit_held(slot, b, key, meta, &mut out);
            }
        }
    }
    for (b, slot) in cluster.blades.iter().enumerate() {
        // Counted from the list's side: a held key that is not a dirty or
        // replica page leaves the count short, touched or not.
        let held = slot.lru.held_iter().filter(|(_, m)| m.residency.held()).count();
        audit_blade_totals(slot, b, held, &mut out);
    }
    audit_losses(cluster, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lru::Retention;

    fn key(p: u64) -> PageKey {
        PageKey::new(0, p)
    }

    #[test]
    fn healthy_cluster_audits_clean() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(1), 3, Retention::Normal).unwrap();
        c.fill(2, key(9), Retention::High).unwrap();
        c.destage(key(1)).unwrap();
        assert_eq!(audit(&c), vec![]);
    }

    #[test]
    fn corrupted_directory_is_reported_with_names() {
        let mut c = CacheCluster::new(4, 16);
        c.write(0, key(1), 2, Retention::Normal).unwrap();
        // Simulate a protocol bug: directory claims a sharer that holds
        // nothing.
        c.directory.entry(key(1)).sharers.push(3);
        let violations = audit(&c);
        assert!(violations.iter().any(|v| v.invariant == Invariant::SharerCleanCopy
            && v.key == Some(key(1))
            && v.blade == Some(3)));
    }

    #[test]
    fn a_directory_entry_on_a_crashed_blade_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(1), 2, Retention::Normal).unwrap();
        let replica = w.replicas[0];
        c.fail_blade(replica);
        assert_eq!(audit(&c), vec![]);
        // Simulate a protocol bug: the crash left the dead blade in the
        // surviving page's replica set.
        c.directory.entry(key(1)).replicas.push(replica);
        let violations = audit(&c);
        assert!(
            violations.iter().any(|v| v.invariant == Invariant::DownBladeConsistency
                && v.key == Some(key(1))
                && v.blade == Some(replica)),
            "{violations:?}"
        );
    }

    #[test]
    fn stale_replica_version_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        let replica = w.replicas[0];
        c.blades[replica].lru.get_mut(&key(5)).unwrap().version = 0;
        let violations = audit(&c);
        assert!(violations.iter().any(|v| v.invariant == Invariant::ReplicaIntegrity));
    }

    #[test]
    fn a_transition_that_skips_its_margin_note_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        c.skip_change_notes = true;
        // The replica's blade fails: the page is one replica short, and the
        // sabotaged transition does not queue it for the healer.
        c.fail_blade(w.replicas[0]);
        assert!(c.under_target_pages().is_empty());
        let violations = audit(&c);
        assert!(
            violations.iter().any(|v| v.invariant == Invariant::DeficitIndex && v.key == Some(key(5))),
            "{violations:?}"
        );
        // The other direction: a queue entry that outlives its page.
        c.destage(key(5)).unwrap();
        c.skip_change_notes = false;
        c.deficit.insert(key(6), 1);
        let violations = audit(&c);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].to_string().starts_with("[deficit-index]"), "{}", violations[0]);
    }

    /// The differential's teeth: the checkpoint sees a page only through
    /// its change note. Without the sabotage the checkpoint reports a later
    /// bug on the page exactly as the full scan does; with `install_shared`'s
    /// note skipped the same bug escapes the incremental pass — which is
    /// what `tests/indices.rs` catches, by name, as an unjournalled change.
    #[test]
    fn a_transition_that_skips_its_change_note_hides_the_page_from_the_checkpoint() {
        for skip in [false, true] {
            let mut c = CacheCluster::new(4, 16);
            assert_eq!(c.audit_checkpoint(), vec![]);
            c.skip_change_notes = skip;
            c.fill(1, key(3), Retention::Normal).unwrap();
            c.skip_change_notes = false;
            let journal = c.journal.clone().expect("a clean checkpoint opens the journal");
            assert_eq!(journal.contains(&key(3)), !skip);
            // A protocol bug on that page, later.
            c.blades[1].lru.get_mut(&key(3)).unwrap().version = 9;
            let full = audit(&c);
            assert!(full.iter().any(|v| v.invariant == Invariant::SharerCleanCopy), "{full:?}");
            assert_eq!(audit_touched(&c, &journal).is_empty(), skip, "skip = {skip}");
            if !skip {
                assert_eq!(c.audit_checkpoint(), full);
                assert_eq!(c.journal, None, "a violation leaves the journal closed");
            }
        }
    }

    /// The same escape seen from outside: debug builds run the differential
    /// inside every checkpoint.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "checkpoint audit of [] missed these")]
    fn debug_checkpoints_assert_incremental_clean_implies_full_clean() {
        let mut c = CacheCluster::new(2, 16);
        c.write(0, key(5), 3, Retention::Normal).unwrap();
        assert_eq!(c.under_target_pages(), vec![(key(5), 1)]);
        assert_eq!(c.audit_checkpoint(), vec![]);
        c.skip_change_notes = true;
        // Neither journalled nor dequeued: the heal queue keeps a clean page.
        c.destage(key(5)).unwrap();
        c.audit_checkpoint();
    }

    #[test]
    fn checkpoints_fall_back_to_the_full_scan_and_report_it_verbatim() {
        let mut c = CacheCluster::new(4, 16);
        let count = |c: &CacheCluster| (c.stats().audits_full, c.stats().audits_incremental, c.stats().audit_keys_checked);
        // Nobody has checkpointed: closed, so the first answer is a full scan.
        c.write(0, key(1), 2, Retention::Normal).unwrap();
        assert_eq!(c.journal, None);
        assert_eq!(c.audit_checkpoint(), vec![]);
        assert_eq!(count(&c), (1, 0, 0));
        // Open: two transitions on one page are one page to re-audit.
        c.write(0, key(1), 2, Retention::Normal).unwrap();
        c.destage(key(1)).unwrap();
        c.fill(2, key(7), Retention::Normal).unwrap();
        assert_eq!(c.audit_checkpoint(), vec![]);
        assert_eq!(count(&c), (1, 1, 2));
        // A lifecycle transition closes it; so does acknowledging a loss.
        c.write(0, key(2), 1, Retention::Normal).unwrap();
        c.fail_blade(0);
        assert_eq!(c.journal, None);
        let reported = c.audit_checkpoint();
        assert_eq!(reported, audit(&c));
        assert!(reported.iter().any(|v| v.invariant == Invariant::DataLoss), "{reported:?}");
        assert_eq!(c.journal, None, "the previous checkpoint was not clean");
        c.acknowledge_loss(key(2));
        assert_eq!(c.audit_checkpoint(), vec![]);
        assert_eq!(count(&c), (3, 1, 2));
        // More notes than the journal holds: closed, not grown.
        for p in 0..300 {
            c.write(1, key(100 + p % 8), 1, Retention::Normal).unwrap();
        }
        assert_eq!(c.journal, None);
        assert_eq!(c.audit_checkpoint(), vec![]);
        assert_eq!(count(&c), (4, 1, 2));
    }

    #[test]
    fn a_held_list_out_of_step_with_residency_is_reported() {
        let mut c = CacheCluster::new(2, 4);
        c.write(0, key(1), 1, Retention::Normal).unwrap();
        c.fill(0, key(2), Retention::Normal).unwrap();
        assert_eq!(audit(&c), vec![]);
        // A dirty page back in an eviction band, a clean one held.
        let table = &mut c.blades[0].lru;
        table.release(&key(1), Retention::Normal);
        let clean = table.get(&key(2)).unwrap().clone();
        table.put_held(key(2), clean);
        let violations = audit(&c);
        let held: Vec<_> = violations.iter().filter(|v| v.invariant == Invariant::HeldAgreement).collect();
        assert_eq!(held.len(), 2, "{violations:?}");
        assert_eq!(violations.len(), 2, "the count still agrees: {violations:?}");
        // The checkpoint's held-list walk finds the clean page without a note.
        let walked = audit_touched(&c, &[]);
        assert!(walked.iter().any(|v| v.invariant == Invariant::HeldAgreement && v.blade == Some(0)), "{walked:?}");
    }

    /// The slow definition `audit`'s slab-order walks replace: every table
    /// walked in key order, the heal queue merged alongside the directory.
    fn audit_by_key_order(cluster: &CacheCluster) -> Vec<Violation> {
        let mut out = Vec::new();
        let mut queue = cluster.deficit.iter().peekable();
        for (&key, e) in cluster.directory.iter() {
            while let Some((&k, &missing)) = queue.next_if(|(&k, _)| k < key) {
                out.push(stale_queue_entry(k, missing));
            }
            let queued = queue.next_if(|(&k, _)| k == key).map_or(0, |(_, &missing)| missing);
            audit_entry(cluster, key, e, queued, &mut out);
        }
        out.extend(queue.map(|(&k, &missing)| stale_queue_entry(k, missing)));
        for (b, slot) in cluster.blades.iter().enumerate() {
            for (key, meta) in slot.lru.iter() {
                audit_resident(cluster, b, *key, meta, &mut out);
            }
        }
        for (b, slot) in cluster.blades.iter().enumerate() {
            let held = slot.lru.iter().filter(|&(key, meta)| audit_held(slot, b, *key, meta, &mut out)).count();
            audit_blade_totals(slot, b, held, &mut out);
        }
        audit_losses(cluster, &mut out);
        out
    }

    /// `audit` reports what the key-order scan reports, in its order, on
    /// clusters broken in many places at once: directory entries, page
    /// metadata, held lists and the heal queue, on tables large enough
    /// (up to 40 pages a blade) that slab order is far from key order.
    #[test]
    fn the_slab_order_audit_reports_in_key_order() {
        let mut several = 0;
        for seed in 0..64u64 {
            let mut rng = ys_simcore::Rng::new(seed);
            let mut c = CacheCluster::new(3, 40);
            for _ in 0..120 {
                let (blade, page) = (rng.next_below(3) as usize, rng.next_below(60));
                let _ = match rng.next_below(3) {
                    0 => c.write(blade, key(page), 2, Retention::Normal).map(drop),
                    1 => c.fill(blade, key(page), Retention::Normal).map(drop),
                    _ => c.destage(key(page)),
                };
            }
            assert_eq!(audit(&c), vec![], "seed {seed}: the protocol alone breaks nothing");
            for _ in 0..1 + rng.next_below(12) {
                let (blade, page) = (rng.next_below(3) as usize, rng.next_below(60));
                match rng.next_below(5) {
                    0 => c.directory.entry(key(page)).sharers.push(blade),
                    1 => c.directory.entry(key(page)).version += 1,
                    2 => {
                        if let Some(meta) = c.blades[blade].lru.get_mut(&key(page)) {
                            meta.version += 1;
                        }
                    }
                    3 => {
                        c.blades[blade].lru.release(&key(page), Retention::Low);
                    }
                    _ => {
                        c.deficit.insert(key(page), 1);
                    }
                }
            }
            let (fast, slow) = (audit(&c), audit_by_key_order(&c));
            assert_eq!(fast, slow, "seed {seed}");
            several += usize::from(fast.len() > 1);
        }
        assert!(several >= 48, "only {several} of 64 clusters broke in more than one place");
    }

    #[test]
    fn violation_display_names_the_invariant() {
        let v = Violation::page(Invariant::OwnerDirtyCopy, key(7), 2, "x".into());
        let text = v.to_string();
        assert!(text.contains("owner-dirty-copy"));
        assert!(text.contains("blade 2"));
    }
}
