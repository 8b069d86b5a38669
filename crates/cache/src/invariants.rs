//! Structured coherence-protocol invariants for [`CacheCluster`].
//!
//! Every rule the cluster must uphold between operations lives here, named,
//! so both the property tests and the `ys-check` bounded model checker can
//! report *which* protocol obligation broke and *where*. The rules encode
//! the paper's claims: a single coherent pooled cache (§2.2), and dirty
//! data that survives any N−1 blade failures when written N-way (§6.1).

use crate::cluster::{BladeState, CacheCluster, Residency};
use crate::directory::PageKey;
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
    /// A blade's recency list tracks exactly its resident pages.
    LruAgreement,
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
            Invariant::LruAgreement => "lru-agreement",
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

/// Directory-side rules: each entry's holder sets against blade contents.
fn audit_directory(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    // Both maps are key-ordered: the heal queue is checked by walking it
    // alongside the directory.
    let mut queue = cluster.deficit.iter().peekable();
    let stale = |key: PageKey, missing: usize| Violation {
        invariant: Invariant::DeficitIndex,
        key: Some(key),
        blade: None,
        detail: format!("heal queue lists {missing} missing replica(s) for a page the directory does not hold"),
    };
    for (key, e) in cluster.directory.iter() {
        let key = *key;
        while let Some((&k, &missing)) = queue.next_if(|(&k, _)| k < key) {
            out.push(stale(k, missing));
        }
        let queued = queue.next_if(|(&k, _)| k == key).map_or(0, |(_, &missing)| missing);
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
            match cluster.blades.get(o).and_then(|b| b.pages.get(&key)) {
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
            match cluster.blades.get(s).and_then(|b| b.pages.get(&key)) {
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
            match cluster.blades.get(r).and_then(|b| b.pages.get(&key)) {
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
    out.extend(queue.map(|(&k, &missing)| stale(k, missing)));
}

/// Blade-side rules: every resident page maps back to the directory role
/// that justifies its residency.
fn audit_residency(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        for (key, meta) in &slot.pages {
            let entry = cluster.directory.get(key);
            let role_ok = match (meta.residency, entry) {
                (Residency::Cached { dirty: true, .. }, Some(e)) => e.owner == Some(b),
                (Residency::Cached { dirty: false, .. }, Some(e)) => e.sharers.contains(&b),
                (Residency::Replica, Some(e)) => e.replicas.contains(&b),
                (_, None) => false,
            };
            if !role_ok {
                out.push(Violation::page(
                    Invariant::ResidencyBacklink,
                    *key,
                    b,
                    format!("resident as {:?} but directory disagrees", meta.residency),
                ));
            }
        }
    }
}

/// Per-blade structural rules: LRU bookkeeping, capacity, down-blade state.
fn audit_blades(cluster: &CacheCluster, out: &mut Vec<Violation>) {
    for (b, slot) in cluster.blades.iter().enumerate() {
        if slot.lru.len() != slot.pages.len() {
            out.push(Violation::blade(
                Invariant::LruAgreement,
                b,
                format!("lru tracks {} keys but {} pages resident", slot.lru.len(), slot.pages.len()),
            ));
        }
        let mut held = 0;
        for (key, meta) in &slot.pages {
            // The specification: the filter `dirty_ratio` used to count by.
            let expect = meta.residency.held();
            held += usize::from(expect);
            match slot.lru.is_held(key) {
                None => out.push(Violation::page(
                    Invariant::LruAgreement,
                    *key,
                    b,
                    "resident page missing from recency list".into(),
                )),
                Some(is) if is != expect => out.push(Violation::page(
                    Invariant::HeldAgreement,
                    *key,
                    b,
                    format!("resident as {:?} but {}", meta.residency, if is { "held" } else { "evictable" }),
                )),
                Some(_) => {}
            }
        }
        if slot.lru.held_len() != held {
            out.push(Violation::blade(
                Invariant::HeldAgreement,
                b,
                format!("held list counts {} keys but {held} pages are dirty or replicas", slot.lru.held_len()),
            ));
        }
        if slot.pages.len() > slot.capacity_pages {
            out.push(Violation::blade(
                Invariant::Capacity,
                b,
                format!("{} pages resident, capacity {}", slot.pages.len(), slot.capacity_pages),
            ));
        }
        if slot.state == BladeState::Down && !slot.pages.is_empty() {
            out.push(Violation::blade(
                Invariant::DownBladeConsistency,
                b,
                format!("down blade still holds {} pages", slot.pages.len()),
            ));
        }
    }
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
    fn stale_replica_version_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        let replica = w.replicas[0];
        c.blades[replica].pages.get_mut(&key(5)).unwrap().version = 0;
        let violations = audit(&c);
        assert!(violations.iter().any(|v| v.invariant == Invariant::ReplicaIntegrity));
    }

    #[test]
    fn a_transition_that_skips_its_margin_note_is_reported() {
        let mut c = CacheCluster::new(4, 16);
        let w = c.write(0, key(5), 2, Retention::Normal).unwrap();
        c.skip_margin_notes = true;
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
        c.skip_margin_notes = false;
        c.deficit.insert(key(6), 1);
        let violations = audit(&c);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].to_string().starts_with("[deficit-index]"), "{}", violations[0]);
    }

    #[test]
    fn a_held_list_out_of_step_with_residency_is_reported() {
        let mut c = CacheCluster::new(2, 4);
        c.write(0, key(1), 1, Retention::Normal).unwrap();
        c.fill(0, key(2), Retention::Normal).unwrap();
        assert_eq!(audit(&c), vec![]);
        // A dirty page back in an eviction band, a clean one held.
        c.blades[0].lru.insert(key(1), Retention::Normal);
        c.blades[0].lru.hold(key(2));
        let violations = audit(&c);
        let held: Vec<_> = violations.iter().filter(|v| v.invariant == Invariant::HeldAgreement).collect();
        assert_eq!(held.len(), 2, "{violations:?}");
        assert_eq!(violations.len(), 2, "the count still agrees: {violations:?}");
    }

    #[test]
    fn violation_display_names_the_invariant() {
        let v = Violation::page(Invariant::OwnerDirtyCopy, key(7), 2, "x".into());
        let text = v.to_string();
        assert!(text.contains("owner-dirty-copy"));
        assert!(text.contains("blade 2"));
    }
}
