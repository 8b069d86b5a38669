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
use crate::config::PAGE_BYTES;
use ys_simcore::time::{SimDuration, SimTime};

/// Pages per batch: the in-flight budget one admission covers.
pub const PAGES_PER_BATCH: usize = 8;
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
    backoff_cap: SimDuration,
    backoff: SimDuration,
    consecutive_sheds: u64,
    counters: GovernedCounters,
}

impl Governor {
    /// Governor for a pass admitted as `tenant` (`None` = administrative),
    /// whose waits double from [`BASE_BACKOFF`] up to `backoff_cap`. A cap
    /// equal to the base is a fixed wait.
    pub fn new(tenant: Option<u32>, backoff_cap: SimDuration) -> Governor {
        Governor {
            tenant,
            backoff_cap,
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
        self.backoff = (w * 2).min(self.backoff_cap);
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
    /// Work left, in pages, most urgent first; 0 ends the pass. The next
    /// batch is the first [`PAGES_PER_BATCH`] of them, and [`run`] treats a
    /// batch after which this did not shrink as zero progress.
    fn plan(&mut self, ctx: &C) -> usize;
    /// Execute the first `pages` planned pages from `start`; returns the
    /// batch completion time.
    fn execute(&mut self, ctx: &mut C, pages: usize, start: SimTime) -> Result<SimTime, ClusterError>;
}

/// One governed batch out of `remaining > 0` planned pages. `None` = shed.
fn batch<C, W: GovernedWork<C>>(
    work: &mut W,
    ctx: &mut C,
    now: SimTime,
    remaining: usize,
) -> Result<Option<SimTime>, ClusterError> {
    let pages = remaining.min(PAGES_PER_BATCH);
    let bytes = pages as u64 * PAGE_BYTES;
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
    let result = work.execute(ctx, pages, start);
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

/// Run one batch at `now`; `None` when it was shed.
fn attempt<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, now: SimTime) -> Result<Option<SimTime>, ClusterError> {
    match work.plan(ctx) {
        0 => Ok(Some(now)),
        remaining => batch(work, ctx, now, remaining),
    }
}

/// Run one batch at `now`. Returns its completion time — `now` itself when
/// the batch was shed or there was no work.
pub fn tick<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, now: SimTime) -> Result<SimTime, ClusterError> {
    Ok(attempt(work, ctx, now)?.unwrap_or(now))
}

/// Run one batch at `now` and return when the pass should next wake: the
/// batch's completion time, or — when it was shed — `now` plus one backoff
/// wait. For callers that interleave a pass with other work.
pub fn step<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, now: SimTime) -> Result<SimTime, ClusterError> {
    Ok(match attempt(work, ctx, now)? {
        Some(done) => done,
        None => now + work.governor().wait(),
    })
}

/// Drive the pass until no work remains or [`MAX_STALLED_BATCHES`]
/// executed batches in a row made no progress, waiting in virtual time
/// after every shed and every zero-progress batch (waiting is productive:
/// pending destages land and free peer space meanwhile). Returns the
/// completion time; the caller reads what is left to tell the two endings
/// apart.
pub fn run<C, W: GovernedWork<C>>(work: &mut W, ctx: &mut C, mut now: SimTime) -> Result<SimTime, ClusterError> {
    let mut stalled = 0;
    let mut remaining = work.plan(ctx);
    while remaining > 0 {
        // A shed batch changed nothing, so the plan stands.
        let Some(done) = batch(work, ctx, now, remaining)? else {
            now += work.governor().wait();
            continue;
        };
        now = done;
        let before = remaining;
        remaining = work.plan(ctx);
        if remaining < before {
            stalled = 0;
            work.governor().backoff = BASE_BACKOFF;
        } else {
            stalled += 1;
            if stalled >= MAX_STALLED_BATCHES {
                break;
            }
            now += work.governor().wait();
        }
    }
    Ok(now)
}
