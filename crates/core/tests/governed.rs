//! The governed-batch driver on a tiny QoS-enabled cluster: shed and
//! wake-up, backoff doubling and reset, the forced trickle, administrative
//! passes, and the error path's in-flight accounting.

use ys_core::governed::{
    run, step, tick, GovernedCounters, GovernedWork, Governor, BASE_BACKOFF, MAX_BACKOFF,
    MAX_CONSECUTIVE_SHEDS, MAX_STALLED_BATCHES,
};
use ys_core::{BladeCluster, ClusterConfig, ClusterError};
use ys_simcore::time::{SimDuration, SimTime};
use ys_qos::{Decision, QosClass, QosConfig, ShedReason, TenantSpec};

const SCAVENGER: u32 = 9;
const BATCH_TIME: SimDuration = SimDuration::from_millis(1);

/// A Scavenger tenant with one in-flight slot: holding that slot (see
/// `hold_slot`) makes every governed admission shed.
fn cluster() -> BladeCluster {
    let qos = QosConfig::new()
        .with_tenant(TenantSpec::new(SCAVENGER, "maintenance", QosClass::Scavenger).inflight_cap(1));
    BladeCluster::new(ClusterConfig::default().with_blades(2).with_disks(6).with_qos(qos))
}

fn hold_slot(c: &mut BladeCluster) {
    c.qos_admit_as(SimTime::ZERO, SCAVENGER, 1).expect("first admission takes the only slot");
}

/// Scavenger requests in flight at `at`: with one slot, a probe admission
/// on a copy of the controller sheds for the cap exactly when it is held.
fn inflight(c: &BladeCluster, at: SimTime) -> u32 {
    let probe = c.qos().clone().admit(at, SCAVENGER, 1);
    u32::from(probe == Decision::Shed { reason: ShedReason::InflightCap })
}

/// `left` pages of pretend work, one millisecond per batch.
struct Pages {
    gov: Governor,
    left: usize,
    progresses: bool,
    fails: bool,
}

impl Pages {
    fn new(gov: Governor, left: usize) -> Pages {
        Pages { gov, left, progresses: true, fails: false }
    }
}

impl GovernedWork<BladeCluster> for Pages {
    fn governor(&mut self) -> &mut Governor {
        &mut self.gov
    }
    fn cluster(ctx: &mut BladeCluster) -> &mut BladeCluster {
        ctx
    }
    fn plan(&mut self, _: &BladeCluster) -> usize {
        self.left
    }
    fn execute(&mut self, _: &mut BladeCluster, pages: usize, start: SimTime) -> Result<SimTime, ClusterError> {
        if self.fails {
            return Err(ClusterError::NoBladesUp);
        }
        if self.progresses {
            self.left -= pages;
        }
        Ok(start + BATCH_TIME)
    }
}

#[test]
fn shed_returns_now_and_step_schedules_the_wake_up() {
    let mut c = cluster();
    hold_slot(&mut c);
    let mut w = Pages::new(Governor::new(Some(SCAVENGER), MAX_BACKOFF), 16);
    let now = SimTime::ZERO + SimDuration::from_millis(5);
    assert_eq!(tick(&mut w, &mut c, now).unwrap(), now);
    assert_eq!(w.gov.counters(), GovernedCounters { shed_ticks: 1, ..Default::default() });
    assert_eq!(step(&mut w, &mut c, now).unwrap(), now + BASE_BACKOFF);
    assert_eq!(step(&mut w, &mut c, now).unwrap(), now + BASE_BACKOFF * 2);
    assert_eq!(
        w.gov.counters(),
        GovernedCounters { shed_ticks: 3, backoff_events: 2, ..Default::default() }
    );
    assert_eq!(w.left, 16, "a shed batch does no work");
}

#[test]
fn backoff_doubles_to_the_cap_resets_on_progress_and_batch_65_is_forced_uncharged() {
    // Two 8-page batches, each reached only by exhausting the shed
    // streak: 10+20+…+320 ms, then 58 waits at the 640 ms cap.
    let streak = SimDuration::from_millis(630 + 58 * 640);
    for (cap, round) in [(MAX_BACKOFF, streak), (BASE_BACKOFF, BASE_BACKOFF * MAX_CONSECUTIVE_SHEDS)] {
        let mut c = cluster();
        hold_slot(&mut c);
        let mut w = Pages::new(Governor::new(Some(SCAVENGER), cap), 16);
        let end = run(&mut w, &mut c, SimTime::ZERO).unwrap();
        // Had progress not reset the backoff, round two would cost
        // 64 × cap instead.
        assert_eq!(end, SimTime::ZERO + (round + BATCH_TIME) * 2);
        assert_eq!(w.left, 0);
        assert_eq!(
            w.gov.counters(),
            GovernedCounters { ticks: 2, shed_ticks: 128, forced_ticks: 2, backoff_events: 128 }
        );
        // A forced batch was never admitted, so it must not complete:
        // that would release the slot someone else holds.
        assert_eq!(inflight(&c, SimTime::FAR_FUTURE), 1);
        assert_eq!(c.qos().latency(SCAVENGER).map(|h| h.count()), Some(0));
        assert_eq!(c.qos().stats(SCAVENGER).map(|s| (s.admitted, s.shed)), Some((1, 128)));
    }
}

#[test]
fn administrative_pass_never_touches_admission() {
    let mut c = cluster();
    hold_slot(&mut c);
    let before = c.qos().stats(SCAVENGER);
    let mut w = Pages::new(Governor::new(None, MAX_BACKOFF), 20);
    let end = run(&mut w, &mut c, SimTime::ZERO).unwrap();
    assert_eq!(end, SimTime::ZERO + BATCH_TIME * 3);
    assert_eq!(w.gov.counters(), GovernedCounters { ticks: 3, ..Default::default() });
    assert_eq!(c.qos().stats(SCAVENGER), before);
}

#[test]
fn failed_batch_gives_its_inflight_slot_back() {
    let mut c = cluster();
    let mut w = Pages::new(Governor::new(Some(SCAVENGER), MAX_BACKOFF), 16);
    w.fails = true;
    // With one slot, a leak would shed the second attempt.
    for _ in 0..3 {
        assert!(matches!(tick(&mut w, &mut c, SimTime::ZERO), Err(ClusterError::NoBladesUp)));
        assert_eq!(inflight(&c, SimTime::FAR_FUTURE), 0);
    }
    assert_eq!(c.qos().audit(), Vec::<String>::new());
    assert_eq!(w.gov.counters(), GovernedCounters::default(), "a failed batch is not a tick");
    w.fails = false;
    run(&mut w, &mut c, SimTime::ZERO).unwrap();
    assert_eq!(c.qos().stats(SCAVENGER).map(|s| (s.admitted, s.shed)), Some((5, 0)));
}

#[test]
fn run_gives_up_after_the_stall_limit() {
    let mut c = cluster();
    let mut w = Pages::new(Governor::new(None, MAX_BACKOFF), 16);
    w.progresses = false;
    let end = run(&mut w, &mut c, SimTime::ZERO).unwrap();
    // Eight batches, a doubling wait between each pair.
    let waits = SimDuration::from_millis(10 + 20 + 40 + 80 + 160 + 320 + 640);
    assert_eq!(end, SimTime::ZERO + BATCH_TIME * MAX_STALLED_BATCHES + waits);
    assert_eq!(w.left, 16);
    assert_eq!(
        w.gov.counters(),
        GovernedCounters { ticks: MAX_STALLED_BATCHES, backoff_events: 7, ..Default::default() }
    );
}
