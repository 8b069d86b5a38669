//! The loss ledger against the real `CacheCluster`: each verdict of the
//! §6.1 budget, how a budget opens, counts and ends, and the loud-loss
//! read-back. The rule names are spelled out here as an independent spec.

use ys_cache::durability::{check_loss_is_loud, Budget, LossLedger, Verdict};
use ys_cache::{CacheCluster, PageKey, Retention};

const KEY: PageKey = PageKey { volume: 0, page: 7 };

/// A cluster of `blades` blades holding `KEY` written `n_way`, and a
/// ledger holding its budget: `(cluster, ledger, owner, replicas)`.
fn written(blades: usize, n_way: usize) -> (CacheCluster, LossLedger, usize, Vec<usize>) {
    let mut c = CacheCluster::new(blades, 8);
    let out = c.write(0, KEY, n_way, Retention::Normal).unwrap();
    let mut ledger = LossLedger::default();
    ledger.open(KEY, out.version, 1 + out.replicas.len());
    (c, ledger, 0, out.replicas)
}

fn budget(ledger: &LossLedger) -> Option<Budget> {
    ledger.iter().find(|(k, _)| **k == KEY).map(|(_, b)| *b)
}

#[test]
fn a_loss_inside_the_budget_is_a_bug() {
    let (c, mut ledger, owner, _) = written(4, 2);
    // One failure against a 2-way page: a loss the budget says cannot
    // happen yet.
    ledger.pre_crash(c.directory(), owner);
    let verdict = ledger.judge(KEY, 2);
    assert_eq!(verdict, Verdict::WithinBudget(Budget { version: 1, copies: 2, failures: 1 }));
    assert_eq!(verdict.rule(), Some("loss-within-budget"));
    assert_eq!(
        verdict.detail(KEY),
        "PageKey { volume: 0, page: 7 } written 2-way lost after only 1 of its copies failed"
    );
}

#[test]
fn the_nth_failure_is_the_accepted_limit() {
    let (c, mut ledger, owner, replicas) = written(4, 2);
    ledger.pre_crash(c.directory(), owner);
    ledger.pre_crash(c.directory(), replicas[0]);
    let verdict = ledger.judge(KEY, 2);
    assert_eq!(verdict, Verdict::AtLimit(Budget { version: 1, copies: 2, failures: 2 }));
    assert_eq!(verdict.rule(), Some("acked-write-lost"));
    assert_eq!(
        verdict.detail(KEY),
        "PageKey { volume: 0, page: 7 } lost at copy failure #2 (N=2): the accepted limit, surfaced explicitly"
    );
    assert_eq!(ledger.iter().count(), 0, "a judged loss ends its budget");
}

#[test]
fn a_single_copy_install_loses_benignly() {
    // A 1-way install (read migration, geo ship apply): its loss is not
    // charged as a broken write promise.
    let (c, mut ledger, owner, replicas) = written(4, 1);
    assert!(replicas.is_empty());
    ledger.pre_crash(c.directory(), owner);
    let verdict = ledger.judge(KEY, 2);
    assert_eq!(verdict, Verdict::Benign);
    assert_eq!(verdict.rule(), None);
}

#[test]
fn destage_ends_the_protection_promise() {
    let (mut c, mut ledger, owner, replicas) = written(4, 2);
    c.destage(KEY).unwrap();
    ledger.close(KEY);
    assert_eq!(budget(&ledger), None, "clean pages carry no promise");
    // Crashing every former holder now loses nothing and counts nothing.
    for blade in [owner, replicas[0]] {
        ledger.pre_crash(c.directory(), blade);
        assert!(c.fail_blade(blade).lost.is_empty());
    }
    assert_eq!(ledger.iter().count(), 0);
}

#[test]
fn a_loss_without_a_budget_is_untracked() {
    let mut ledger = LossLedger::default();
    let verdict = ledger.judge(KEY, 2);
    assert_eq!(verdict, Verdict::Untracked);
    assert_eq!(verdict.rule(), Some("untracked-loss"));
    assert_eq!(verdict.detail(KEY), "PageKey { volume: 0, page: 7 } lost but never had a durability budget");
}

#[test]
fn a_crash_counts_only_the_pages_it_holds_a_copy_of() {
    let mut c = CacheCluster::new(4, 8);
    let mut ledger = LossLedger::default();
    let out = c.write(0, KEY, 2, Retention::Normal).unwrap();
    ledger.open(KEY, out.version, 1 + out.replicas.len());
    let bystander = (1..4).find(|b| !out.replicas.contains(b)).unwrap();
    ledger.pre_crash(c.directory(), bystander);
    assert_eq!(budget(&ledger).map(|b| b.failures), Some(0));
}

#[test]
fn a_promotion_keeps_the_failures_and_a_rewrite_resets_them() {
    let (mut c, mut ledger, owner, _) = written(4, 2);
    ledger.pre_crash(c.directory(), owner);
    let report = c.fail_blade(owner);
    assert_eq!(report.promoted, vec![KEY]);
    // Re-open from the directory, as a campaign's refresh does: the
    // promoted page kept its version, so it keeps its budget.
    let e = c.directory().get(&KEY).unwrap().clone();
    ledger.open(KEY, e.version, 1 + e.replicas.len());
    assert_eq!(budget(&ledger), Some(Budget { version: 1, copies: 2, failures: 1 }));
    // A re-write is a new promise.
    let out = c.write(e.owner.unwrap(), KEY, 2, Retention::Normal).unwrap();
    ledger.open(KEY, out.version, 1 + out.replicas.len());
    assert_eq!(budget(&ledger), Some(Budget { version: 2, copies: 2, failures: 0 }));
}

#[test]
fn a_refilled_ledger_equals_a_fresh_clone() {
    let (_, ledger, _, _) = written(4, 2);
    let mut refilled = LossLedger::default();
    refilled.open(PageKey::new(0, 1), 9, 3);
    refilled.clone_from(&ledger);
    let rows = |l: &LossLedger| l.iter().map(|(k, b)| (*k, *b)).collect::<Vec<_>>();
    assert_eq!(rows(&refilled), rows(&ledger.clone()));
}

#[test]
fn a_real_loss_reads_back_loudly() {
    let (mut c, _, owner, replicas) = written(4, 2);
    c.fail_blade(owner);
    let lost = c.fail_blade(replicas[0]).lost;
    assert_eq!(lost, vec![KEY]);
    assert_eq!(check_loss_is_loud(&mut c, replicas[0], KEY), Ok(()));
}

#[test]
fn a_forged_loss_that_still_reads_is_silent() {
    // Claim a loss the cluster never minted: the page still reads, so the
    // read-back names it.
    let (mut c, _, owner, _) = written(4, 2);
    let err = check_loss_is_loud(&mut c, owner, KEY).unwrap_err();
    assert!(err.starts_with("read of lost PageKey { volume: 0, page: 7 } returned Ok("), "{err}");
    assert!(err.ends_with(", not DataLost"), "{err}");
}
