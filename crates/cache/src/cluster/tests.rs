//! Unit tests of [`CacheCluster`]'s transitions, lifecycle and books.

use super::*;

fn key(p: u64) -> PageKey {
    PageKey::new(0, p)
}

#[test]
fn miss_then_fill_then_local_hit() {
    let mut c = CacheCluster::new(4, 16);
    assert_eq!(c.read(0, key(1)).unwrap(), ReadOutcome::Miss);
    c.fill(0, key(1), Retention::Normal).unwrap();
    assert_eq!(c.read(0, key(1)).unwrap(), ReadOutcome::LocalHit);
    c.check_invariants().unwrap();
}

#[test]
fn remote_hit_supplies_from_peer_cache() {
    let mut c = CacheCluster::new(4, 16);
    c.fill(2, key(9), Retention::Normal).unwrap();
    match c.read(0, key(9)).unwrap() {
        ReadOutcome::RemoteHit { from } => assert_eq!(from, 2),
        other => panic!("expected remote hit, got {other:?}"),
    }
    // Now both hold it; a third blade can be supplied by either.
    assert!(matches!(c.read(3, key(9)).unwrap(), ReadOutcome::RemoteHit { .. }));
    c.check_invariants().unwrap();
}

#[test]
fn write_invalidates_sharers() {
    let mut c = CacheCluster::new(4, 16);
    c.fill(1, key(5), Retention::Normal).unwrap();
    c.fill(2, key(5), Retention::Normal).unwrap();
    let out = c.write(0, key(5), 1, Retention::Normal).unwrap();
    let mut inv = out.invalidated.clone();
    inv.sort_unstable();
    assert_eq!(inv, vec![1, 2]);
    assert_eq!(c.read(1, key(5)).unwrap(), ReadOutcome::RemoteHit { from: 0 });
    c.check_invariants().unwrap();
}

#[test]
fn n_way_write_places_replicas() {
    let mut c = CacheCluster::new(6, 16);
    let out = c.write(0, key(3), 3, Retention::Normal).unwrap();
    assert_eq!(out.replicas.len(), 2);
    assert!(!out.replicas.contains(&0));
    assert_eq!(c.stats().replica_placements, 2);
    c.check_invariants().unwrap();
}

#[test]
fn a_saturated_first_peer_costs_the_write_a_replica() {
    // The write's peers, in placement order, are the page's home and
    // the two blades after it; the writer sits just before the home.
    let mut c = CacheCluster::new(4, 2);
    let page = key(3);
    let home = page.home(4);
    let writer = (home + 3) % 4;
    // Fill the first peer with dirty pages: it cannot make room.
    c.write(home, key(100), 1, Retention::Normal).unwrap();
    c.write(home, key(101), 1, Retention::Normal).unwrap();
    let out = c.write(writer, page, 3, Retention::Normal).unwrap();
    // The write takes the first N−1 peers and skips the saturated one
    // without going on to a third.
    assert_eq!(out.replicas, vec![(home + 1) % 4]);
    assert_eq!(c.under_target_pages(), vec![(page, 1)]);
    c.check_invariants().unwrap();
}

#[test]
fn dirty_ratio_tracks_undestaged_state() {
    let mut c = CacheCluster::new(4, 16);
    assert_eq!(c.dirty_ratio(), 0.0);
    // Clean fills don't count.
    c.fill(0, key(1), Retention::Normal).unwrap();
    assert_eq!(c.dirty_ratio(), 0.0);
    // A 2-way write pins one dirty owner + one replica: 2 / 64 pages.
    c.write(0, key(2), 2, Retention::Normal).unwrap();
    assert!((c.dirty_ratio() - 2.0 / 64.0).abs() < 1e-12, "{}", c.dirty_ratio());
    // Destage cleans both.
    c.destage(key(2)).unwrap();
    assert_eq!(c.dirty_ratio(), 0.0);
    c.check_invariants().unwrap();
}

#[test]
fn destage_unpins_replicas_and_cleans_owner() {
    let mut c = CacheCluster::new(4, 16);
    let out = c.write(0, key(3), 3, Retention::Normal).unwrap();
    for &r in &out.replicas {
        assert_eq!(c.resident_pages_iter(r).count(), 1);
    }
    c.destage(key(3)).unwrap();
    for &r in &out.replicas {
        assert_eq!(c.resident_pages_iter(r).count(), 0, "replica freed after destage");
    }
    assert!(c.dirty_pages(0).is_empty());
    assert_eq!(c.read(0, key(3)).unwrap(), ReadOutcome::LocalHit);
    c.check_invariants().unwrap();
}

#[test]
fn blade_failure_with_replicas_preserves_dirty_data() {
    let mut c = CacheCluster::new(4, 16);
    c.write(0, key(7), 2, Retention::Normal).unwrap();
    let report = c.fail_blade(0);
    assert_eq!(report.promoted, vec![key(7)]);
    assert!(report.lost.is_empty());
    // The promoted copy is readable from the survivor.
    assert!(matches!(c.read(1, key(7)), Ok(ReadOutcome::LocalHit) | Ok(ReadOutcome::RemoteHit { .. })));
    c.check_invariants().unwrap();
}

#[test]
fn blade_failure_without_replicas_loses_dirty_data() {
    let mut c = CacheCluster::new(4, 16);
    let w = c.write(0, key(7), 1, Retention::Normal).unwrap();
    let report = c.fail_blade(0);
    assert_eq!(report.lost, vec![key(7)]);
    assert!(report.promoted.is_empty());
    // The loss is explicit, not a silent miss serving stale disk data.
    assert_eq!(c.read(1, key(7)), Err(CacheError::DataLost(key(7))));
    assert_eq!(c.fill(1, key(7), Retention::Normal), Err(CacheError::DataLost(key(7))));
    let violations = c.audit_invariants();
    assert!(
        violations.iter().any(|v| v.invariant == crate::invariants::Invariant::DataLoss
            && v.key == Some(key(7))),
        "loss must surface in the invariant audit: {violations:?}"
    );
    // Acknowledging the loss restores normal (miss-to-disk) service.
    assert_eq!(c.acknowledge_loss(key(7)), Some(w.version));
    assert_eq!(c.read(1, key(7)).unwrap(), ReadOutcome::Miss);
    c.check_invariants().unwrap();
}

#[test]
fn rewrite_clears_a_loss_tombstone() {
    let mut c = CacheCluster::new(4, 16);
    c.write(0, key(3), 1, Retention::Normal).unwrap();
    c.fail_blade(0);
    assert!(c.is_lost(key(3)));
    // The application redefines the page: the old version is moot.
    c.write(1, key(3), 2, Retention::Normal).unwrap();
    assert!(!c.is_lost(key(3)));
    assert_eq!(c.read(1, key(3)).unwrap(), ReadOutcome::LocalHit);
    c.check_invariants().unwrap();
}

#[test]
fn n_way_survives_n_minus_1_failures() {
    let mut c = CacheCluster::new(5, 16);
    let out = c.write(0, key(11), 3, Retention::Normal).unwrap();
    // Kill owner, then the first promoted replica: 2 failures, N=3.
    let r1 = c.fail_blade(0);
    assert_eq!(r1.promoted.len(), 1);
    let owner1 = out.replicas[0];
    let r2 = c.fail_blade(owner1);
    assert_eq!(r2.promoted.len(), 1, "second replica takes over");
    assert!(r2.lost.is_empty());
    // A third failure exceeds N−1 and loses the page — which the audit
    // must report until the loss is acknowledged.
    let owner2 = out.replicas[1];
    let r3 = c.fail_blade(owner2);
    assert_eq!(r3.lost.len(), 1);
    assert!(c
        .audit_invariants()
        .iter()
        .any(|v| v.invariant == crate::invariants::Invariant::DataLoss));
    c.acknowledge_loss(key(11));
    c.check_invariants().unwrap();
}

#[test]
fn eviction_prefers_clean_pages_and_stalls_when_all_dirty() {
    let mut c = CacheCluster::new(2, 2);
    c.write(0, key(1), 1, Retention::Normal).unwrap();
    c.write(0, key(2), 1, Retention::Normal).unwrap();
    // Cache full of dirty pages: a third write stalls.
    assert_eq!(c.write(0, key(3), 1, Retention::Normal), Err(CacheError::EvictionStall(0)));
    // Destage one; the write now succeeds by evicting the clean page.
    c.destage(key(1)).unwrap();
    c.write(0, key(3), 1, Retention::Normal).unwrap();
    c.check_invariants().unwrap();
}

#[test]
fn pooled_capacity_grows_with_blades() {
    let small = CacheCluster::new(2, 100);
    let big = CacheCluster::new(8, 100);
    assert_eq!(small.pooled_capacity(), 200);
    assert_eq!(big.pooled_capacity(), 800);
}

#[test]
fn reads_to_down_blade_fail() {
    let mut c = CacheCluster::new(2, 4);
    c.fail_blade(1);
    assert_eq!(c.read(1, key(1)), Err(CacheError::BladeDown(1)));
    c.repair_blade(1);
    assert!(c.read(1, key(1)).is_ok());
}

#[test]
fn failed_holder_does_not_serve_remote_hits() {
    let mut c = CacheCluster::new(3, 8);
    c.fill(1, key(4), Retention::Normal).unwrap();
    c.fail_blade(1);
    assert_eq!(c.read(0, key(4)).unwrap(), ReadOutcome::Miss, "holder is down; must go to disk");
}

#[test]
fn stats_account_hits_and_misses() {
    let mut c = CacheCluster::new(2, 8);
    c.read(0, key(1)).unwrap(); // miss
    c.fill(0, key(1), Retention::Normal).unwrap();
    c.read(0, key(1)).unwrap(); // local
    c.read(1, key(1)).unwrap(); // remote
    let s = c.stats();
    assert_eq!((s.misses, s.local_hits, s.remote_hits), (1, 1, 1));
}

#[test]
fn drain_evacuates_dirty_pages_with_zero_loss() {
    let mut c = CacheCluster::new(4, 16);
    // One 2-way page (will promote) and one unreplicated page (will move).
    c.write(0, key(7), 2, Retention::Normal).unwrap();
    c.write(0, key(8), 1, Retention::Normal).unwrap();
    c.fill(0, key(9), Retention::Normal).unwrap();
    let report = c.drain_blade(0).unwrap();
    assert!(report.completed);
    assert_eq!(report.promoted, vec![key(7)]);
    assert_eq!(report.moved, vec![key(8)]);
    assert_eq!(report.clean_dropped, 1);
    assert!(c.lost_pages().is_empty(), "drain must never lose an acked write");
    assert_eq!(c.blade_state(0), BladeState::Down);
    assert_eq!(c.resident_pages_iter(0).count(), 0);
    // Both dirty pages still readable from their new homes.
    assert!(c.read(1, key(7)).is_ok());
    assert!(c.read(1, key(8)).is_ok());
    c.check_invariants().unwrap();
}

#[test]
fn drain_replaces_hosted_replicas() {
    let mut c = CacheCluster::new(4, 16);
    let w = c.write(0, key(3), 2, Retention::Normal).unwrap();
    let replica_blade = w.replicas[0];
    let report = c.drain_blade(replica_blade).unwrap();
    assert!(report.completed);
    assert_eq!(report.replicas_moved, vec![key(3)]);
    // Protection margin intact: still one replica, on a different blade.
    let e = c.directory().get(&key(3)).unwrap();
    assert_eq!(e.replicas.len(), 1);
    assert_ne!(e.replicas[0], replica_blade);
    c.check_invariants().unwrap();
}

#[test]
fn incomplete_drain_stays_draining_and_retries_after_destage() {
    // 2 blades, tiny caches, peer saturated with dirty data: the dirty
    // page on blade 0 has nowhere to go.
    let mut c = CacheCluster::new(2, 2);
    c.write(1, key(1), 1, Retention::Normal).unwrap();
    c.write(1, key(2), 1, Retention::Normal).unwrap();
    c.write(0, key(3), 1, Retention::Normal).unwrap();
    let report = c.drain_blade(0).unwrap();
    assert!(!report.completed);
    assert_eq!(c.blade_state(0), BladeState::Draining);
    assert!(c.lost_pages().is_empty());
    // Destage frees the peer; the retried drain completes.
    c.destage(key(1)).unwrap();
    let report = c.drain_blade(0).unwrap();
    assert!(report.completed);
    assert_eq!(report.moved, vec![key(3)]);
    assert!(c.lost_pages().is_empty());
    c.check_invariants().unwrap();
}

#[test]
fn revive_and_finish_rejoin_lifecycle() {
    let mut c = CacheCluster::new(3, 8);
    assert_eq!(c.blade_state(1), BladeState::Up);
    assert_eq!(c.revive_blade(1), Err(CacheError::BadState), "can't revive an up blade");
    c.fail_blade(1);
    assert_eq!(c.blade_state(1), BladeState::Down);
    c.revive_blade(1).unwrap();
    assert_eq!(c.blade_state(1), BladeState::Rejoining);
    assert!(c.blade_up(1), "rejoining blades serve");
    assert!(c.finish_rejoin(1));
    assert_eq!(c.blade_state(1), BladeState::Up);
    assert!(!c.finish_rejoin(1), "no-op on an already-up blade");
}

#[test]
fn health_transitions_and_heal_restores_margin() {
    let mut c = CacheCluster::new(4, 16);
    assert_eq!(c.health(), Health::Healthy);
    let w = c.write(0, key(2), 3, Retention::Normal).unwrap();
    assert_eq!(c.health(), Health::Healthy);
    // Lose one replica: under target but a margin survives → Degraded.
    c.fail_blade(w.replicas[0]);
    assert_eq!(c.health(), Health::Degraded);
    // Lose the other: zero surviving replicas → Critical.
    c.fail_blade(w.replicas[1]);
    assert_eq!(c.health(), Health::Critical);
    // Heal back to target: one revived blade plus the untouched fourth
    // blade give the healer two placement targets.
    c.revive_blade(w.replicas[0]).unwrap();
    c.add_replica(key(2)).unwrap();
    assert_eq!(c.health(), Health::Degraded, "one deficit left + rejoining blade");
    c.add_replica(key(2)).unwrap();
    assert!(c.under_target_pages().is_empty());
    assert_eq!(c.health(), Health::Degraded, "rejoining blade keeps it degraded");
    c.revive_blade(w.replicas[1]).unwrap();
    c.finish_rejoin(w.replicas[0]);
    c.finish_rejoin(w.replicas[1]);
    assert_eq!(c.health(), Health::Healthy);
    // The restored margin is real: the owner can fail with zero loss.
    let report = c.fail_blade(0);
    assert!(report.lost.is_empty());
    assert_eq!(report.promoted, vec![key(2)]);
    c.check_invariants().unwrap();
}

#[test]
fn governor_refuses_writes_when_read_only() {
    let mut c = CacheCluster::new(3, 8);
    c.fail_blade(1);
    assert_eq!(c.health(), Health::Healthy, "nothing was at risk: no deficit");
    c.fail_blade(2);
    assert_eq!(c.health(), Health::ReadOnly);
    assert_eq!(
        c.governed_write(0, key(1), 2, Retention::Normal),
        Err(CacheError::ReadOnly)
    );
    // The ungoverned path still works (policy decision, not a mechanism
    // limitation) and a revive lifts the refusal.
    c.write(0, key(1), 2, Retention::Normal).unwrap();
    c.revive_blade(1).unwrap();
    assert!(c.governed_write(0, key(2), 2, Retention::Normal).is_ok());
    c.check_invariants().unwrap();
}

#[test]
fn destage_clears_protection_target() {
    let mut c = CacheCluster::new(4, 16);
    c.write(0, key(6), 3, Retention::Normal).unwrap();
    assert_eq!(c.directory().get(&key(6)).unwrap().protect, 3);
    c.destage(key(6)).unwrap();
    assert_eq!(c.directory().get(&key(6)).unwrap().protect, 0);
    // A destaged page is not heal work even after failures.
    c.fail_blade(0);
    assert!(c.under_target_pages().is_empty());
    c.check_invariants().unwrap();
}

#[test]
fn rewrite_same_page_refreshes_replicas() {
    let mut c = CacheCluster::new(4, 16);
    let w1 = c.write(0, key(6), 2, Retention::Normal).unwrap();
    let w2 = c.write(0, key(6), 2, Retention::Normal).unwrap();
    assert_eq!(w2.version, w1.version + 1);
    c.check_invariants().unwrap();
    // Still exactly one replica set.
    let e = c.directory().get(&key(6)).unwrap();
    assert_eq!(e.replicas.len(), 1);
    assert_eq!(e.version, w2.version);
}
