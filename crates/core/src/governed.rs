//! Governed background work: the one policy by which Scavenger-class
//! maintenance (re-replication, scrubbing) shares the machine with
//! foreground I/O (§2.4, §6.3).
//!
//! A maintenance pass is a sequence of bounded batches. Each batch:
//!
//! 1. passes **QoS admission** as the pass's tenant
//!    ([`BladeCluster::qos_admit_as`]) before touching the cluster;
//! 2. when admission **sheds** it, costs nothing — the pass sleeps in
//!    virtual time ([`BASE_BACKOFF`], doubling per consecutive wait up to the
//!    pass's cap, reset by progress) and tries again;
//! 3. after [`MAX_CONSECUTIVE_SHEDS`] sheds in a row is **forced** through
//!    without admission, so maintenance degrades to a trickle under
//!    sustained load, never to zero;
//! 4. when admitted, is **completed** against the tenant's SLO ledger
//!    ([`BladeCluster::qos_complete_as`]) — also when the work itself
//!    fails, so an error never leaks an in-flight slot.
//!
//! A pass supplies its unit of work through [`GovernedWork`] and embeds a
//! [`Governor`] for the state; [`tick`], [`step`] and [`run`] are the state
//! machine. A pass with `tenant: None` runs administratively and never
//! touches admission — the mode fault campaigns use to converge.
//!
//! The values below were per-pass configuration fields that nothing in the
//! repository ever set; they are the policy, so they live here.

use crate::cluster::{BladeCluster, ClusterError};
use ys_simcore::time::{SimDuration, SimTime};

/// Pages per batch: the in-flight budget one admission covers.
pub const PAGES_PER_BATCH: u64 = 8;
/// Consecutive sheds after which one batch runs without admission.
pub const MAX_CONSECUTIVE_SHEDS: u64 = 64;
/// First (and, for a fixed-wait pass, every) virtual-time wait after a shed
/// or zero-progress batch.
pub const BASE_BACKOFF: SimDuration = SimDuration::from_millis(10);
/// Cap of an exponentially backing-off pass: doubling stops here.
pub const MAX_BACKOFF: SimDuration = SimDuration::from_millis(640);
/// Consecutive executed batches without progress after which [`run`] gives
/// up; the pass reports what is left, loudly.
pub const MAX_STALLED_BATCHES: u64 = 8;

/// What the governor did over a pass so far.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GovernedCounters {
    /// Batches executed (admitted, forced, or administrative).
    pub ticks: u64,
    /// Batches refused by QoS admission.
    pub shed_ticks: u64,
    /// Batches forced through after [`MAX_CONSECUTIVE_SHEDS`].
    pub forced_ticks: u64,
    /// Virtual-time waits taken (after a shed or a zero-progress batch).
    pub backoff_events: u64,
}

/// Per-pass governor state: the admission tenant, the shed streak, the
/// backoff clock and the shared counters.
#[derive(Clone, Debug)]
pub struct Governor {
    tenant: Option<u32>,
    max_backoff: SimDuration,
    backoff: SimDuration,
    consecutive_sheds: u64,
    counters: GovernedCounters,
}

impl Governor {
    /// Governor for a pass admitted as `tenant` (`None` = administrative),
    /// whose waits double from [`BASE_BACKOFF`] up to `max_backoff`. A cap
    /// equal to the base is a fixed wait.
    pub fn new(tenant: Option<u32>, max_backoff: SimDuration) -> Governor {
        Governor {
            tenant,
            max_backoff,
            backoff: BASE_BACKOFF,
            consecutive_sheds: 0,
            counters: GovernedCounters::default(),
        }
    }

    /// The counters so far.
    pub fn counters(&self) -> GovernedCounters {
        self.counters
    }

    /// Take one wait and double the next one (capped).
    fn wait(&mut self) -> SimDuration {
        self.counters.backoff_events += 1;
        let w = self.backoff;
        self.backoff = (w * 2).min(self.max_backoff);
        w
    }
}

/// A maintenance pass's unit of work over a context `C` (the cluster, or
/// something that contains it).
pub trait GovernedWork<C> {
    /// The pass's governor.
    fn governor(&mut self) -> &mut Governor;
    /// The cluster whose admission controller governs the batches.
    fn cluster(ctx: &mut C) -> &mut BladeCluster;
    /// Work left, in pages; 0 ends the pass. [`run`] treats a batch after
    /// which this did not shrink as zero progress.
    fn remaining(&self, ctx: &C) -> usize;
    /// Choose the next batch — at most [`PAGES_PER_BATCH`] pages — and
    /// return its size; 0 when there is nothing to do.
    fn plan(&mut self, ctx: &C) -> u64;
    /// Execute the planned batch from `start`; returns its completion time.
    fn execute(&mut self, ctx: &mut C, start: SimTime) -> Result<SimTime, ClusterError>;
}

/// One governed batch. `None` = shed.
fn batch<C, W: GovernedWork<C>>(
    work: &mut W,
    ctx: &mut C,
    now: SimTime,
) -> Result<Option<SimTime>, ClusterError> {
    let pages = work.plan(ctx);
    if pages == 0 {
        return Ok(Some(now));
    }
    let bytes = pages * W::cluster(ctx).config().page_bytes;
    let gov = work.governor();
    let forced = gov.tenant.is_some() && gov.consecutive_sheds >= MAX_CONSECUTIVE_SHEDS;
    let admitted = gov.tenant.filter(|_| !forced);
    let start = match admitted {
        Some(t) => match W::cluster(ctx).qos_admit_as(now, t, bytes) {
            Ok(start) => start,
            Err(ClusterError::QosShed { .. }) => {
                let gov = work.governor();
                gov.counters.shed_ticks += 1;
                gov.consecutive_sheds += 1;
                return Ok(None);
            }
            Err(e) => return Err(e),
        },
        None => now,
    };
    let result = work.execute(ctx, start);
    if let Some(t) = admitted {
        // On the error path too: an admitted batch always gives its
        // in-flight slot back. A forced batch was never admitted.
        let done = *result.as_ref().unwrap_or(&start);
        W::cluster(ctx).qos_complete_as(t, now, done, bytes);
    }
    let done = result?;
    let gov = work.governor();
    gov.counters.ticks += 1;
    gov.counters.forced_ticks += u64::from(forced);
    gov.consecutive_sheds = 0;
    Ok(Some(done))
}

/// Run one batch at `now`. Returns its completion time — `now` itself when
/// the batch was shed or there was no work.
pub fn tick<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, now: SimTime) -> Result<SimTime, ClusterError> {
    Ok(batch(work, ctx, now)?.unwrap_or(now))
}

/// Run one batch at `now` and return when the pass should next wake: the
/// batch's completion time, or — when it was shed — `now` plus one backoff
/// wait. For callers that interleave a pass with other work.
pub fn step<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, now: SimTime) -> Result<SimTime, ClusterError> {
    Ok(match batch(work, ctx, now)? {
        Some(done) => done,
        None => now + work.governor().wait(),
    })
}

/// Drive the pass until no work remains or [`MAX_STALLED_BATCHES`]
/// executed batches in a row made no progress, waiting in virtual time
/// after every shed and every zero-progress batch (waiting is productive:
/// pending destages land and free peer space meanwhile). Returns the
/// completion time; the caller reads `remaining` to tell the two endings
/// apart.
pub fn run<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, mut now: SimTime) -> Result<SimTime, ClusterError> {
    let mut stalled = 0;
    loop {
        let before = work.remaining(ctx);
        if before == 0 {
            return Ok(now);
        }
        let Some(done) = batch(work, ctx, now)? else {
            now += work.governor().wait();
            continue;
        };
        now = done;
        if work.remaining(ctx) < before {
            stalled = 0;
            work.governor().backoff = BASE_BACKOFF;
        } else {
            stalled += 1;
            if stalled >= MAX_STALLED_BATCHES {
                return Ok(now);
            }
            now += work.governor().wait();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use ys_qos::{QosClass, QosConfig, TenantSpec};

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

    fn inflight(c: &BladeCluster, at: SimTime) -> u32 {
        c.qos().clone().inflight(at, SCAVENGER)
    }

    /// `left` pages of pretend work, one millisecond per batch.
    struct Pages {
        gov: Governor,
        left: usize,
        planned: usize,
        progresses: bool,
        fails: bool,
    }

    impl Pages {
        fn new(gov: Governor, left: usize) -> Pages {
            Pages { gov, left, planned: 0, progresses: true, fails: false }
        }
    }

    impl GovernedWork<BladeCluster> for Pages {
        fn governor(&mut self) -> &mut Governor {
            &mut self.gov
        }
        fn cluster(ctx: &mut BladeCluster) -> &mut BladeCluster {
            ctx
        }
        fn remaining(&self, _: &BladeCluster) -> usize {
            self.left
        }
        fn plan(&mut self, _: &BladeCluster) -> u64 {
            self.planned = self.left.min(PAGES_PER_BATCH as usize);
            self.planned as u64
        }
        fn execute(&mut self, _: &mut BladeCluster, start: SimTime) -> Result<SimTime, ClusterError> {
            if self.fails {
                return Err(ClusterError::NoBladesUp);
            }
            if self.progresses {
                self.left -= self.planned;
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
}
