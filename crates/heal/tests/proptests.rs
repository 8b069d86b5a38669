//! Property tests for `ys-heal`: seeded fail → heal → fail interleavings
//! never lose acknowledged data while concurrent failures stay within the
//! N−1 margin, and the cluster always returns to `Healthy` once healing
//! converges and failed blades rejoin.

use proptest::prelude::*;
use ys_cache::{CacheCluster, Health, PageKey, Retention};
use ys_core::harness::Campaign;
use ys_heal::CampaignConfig;
use ys_simcore::Rng;

const BLADES: usize = 4;
const CAP: usize = 8;

/// Administrative heal loop at the cache level: place replicas for every
/// under-target page; when no placement sticks (peers saturated), destage a
/// deficient page — clean pages need no cache redundancy — and retry.
fn heal_to_convergence(c: &mut CacheCluster) {
    let mut guard = 0;
    while !c.under_target_pages().is_empty() && guard < 200 {
        guard += 1;
        let work = c.under_target_pages();
        let mut placed = false;
        for &(k, _) in &work {
            if c.add_replica(k).is_ok() {
                placed = true;
            }
        }
        if !placed {
            if let Some(&(k, _)) = work.first() {
                let _ = c.destage(k);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random interleavings of 2-way writes, destages, single-blade
    /// failures (only ever one blade down at a time, and only after the
    /// healer has restored every page to target), and revive/rejoin. No
    /// acknowledged write may ever be lost, and the final state is Healthy.
    #[test]
    fn fail_heal_fail_never_loses_within_margin(seed in 0u64..1000) {
        let mut rng = Rng::new(seed ^ 0xf41e_4ea1);
        let mut c = CacheCluster::new(BLADES, CAP);
        let mut down: Option<usize> = None;

        for step in 0..40 {
            match rng.next_below(6) {
                0..=2 => {
                    let up: Vec<usize> = (0..BLADES).filter(|&b| c.blade_up(b)).collect();
                    let blade = up[rng.next_below(up.len() as u64) as usize];
                    let key = PageKey::new(0, rng.next_below(6));
                    if c.write(blade, key, 2, Retention::Normal).is_err() {
                        // Dirty-saturated: emulate the core backpressure
                        // path — destage one dirty page, retry once.
                        let dirty: Vec<PageKey> =
                            (0..BLADES).flat_map(|b| c.dirty_pages(b)).collect();
                        if let Some(&k) = dirty.first() {
                            let _ = c.destage(k);
                        }
                        let _ = c.write(blade, key, 2, Retention::Normal);
                    }
                }
                3 => {
                    let dirty: Vec<PageKey> =
                        (0..BLADES).flat_map(|b| c.dirty_pages(b)).collect();
                    if !dirty.is_empty() {
                        let k = dirty[rng.next_below(dirty.len() as u64) as usize];
                        let _ = c.destage(k);
                    }
                }
                4 => {
                    if down.is_none() {
                        // Heal first: failures are only safe inside the
                        // restored margin — which is exactly the property.
                        heal_to_convergence(&mut c);
                        let b = rng.next_below(BLADES as u64) as usize;
                        let rep = c.fail_blade(b);
                        prop_assert!(
                            rep.lost.is_empty(),
                            "seed {seed} step {step}: failing blade {b} in a healed cluster lost {:?}",
                            rep.lost
                        );
                        down = Some(b);
                    }
                }
                _ => {
                    if let Some(b) = down.take() {
                        prop_assert!(c.revive_blade(b).is_ok());
                        heal_to_convergence(&mut c);
                        c.finish_rejoin(b);
                    }
                }
            }
            prop_assert!(
                c.lost_pages().is_empty(),
                "seed {seed} step {step}: lost {:?}",
                c.lost_pages()
            );
            let audit = c.audit_invariants();
            prop_assert!(audit.is_empty(), "seed {seed} step {step}: {audit:?}");
        }

        // Converge: revive the straggler, heal, rejoin — must end Healthy.
        if let Some(b) = down.take() {
            prop_assert!(c.revive_blade(b).is_ok());
        }
        heal_to_convergence(&mut c);
        for b in 0..BLADES {
            c.finish_rejoin(b);
        }
        prop_assert!(c.under_target_pages().is_empty(), "seed {seed}: heal did not converge");
        prop_assert_eq!(c.health(), Health::Healthy, "seed {}", seed);
        prop_assert!(c.lost_pages().is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The end-to-end campaign passes and replays byte-identically for
    /// arbitrary seeds.
    #[test]
    fn campaign_replays_byte_identical(seed in 0u64..1000) {
        let cfg = CampaignConfig { seed };
        let a = cfg.run();
        let b = cfg.run();
        prop_assert_eq!(&a.transcript, &b.transcript, "seed {} transcripts diverge", seed);
        prop_assert!(a.ok, "seed {} failed:\n{}", seed, a.transcript);
    }
}
