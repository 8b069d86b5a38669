//! Failure-injection plans.
//!
//! A [`FaultPlan`] is an ordered schedule of component failures and repairs
//! that an experiment replays into its event queue, so fault scenarios are
//! part of the deterministic configuration rather than ad-hoc test code.

use crate::time::SimTime;

/// What kind of component fails.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultTarget {
    /// A controller blade, by cluster-wide index.
    Blade(usize),
    /// A physical disk, by farm-wide index.
    Disk(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Component stops responding permanently (until an explicit repair).
    Fail,
    /// Component comes back (replacement disk, restored site...).
    Repair,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    pub at: SimTime,
    pub target: FaultTarget,
    pub kind: FaultKind,
}

/// A deterministic fault schedule: a time-sorted list of fault events.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    pub fn fail(mut self, at: SimTime, target: FaultTarget) -> FaultPlan {
        self.events.push(FaultEvent { at, target, kind: FaultKind::Fail });
        self
    }

    pub fn repair(mut self, at: SimTime, target: FaultTarget) -> FaultPlan {
        self.events.push(FaultEvent { at, target, kind: FaultKind::Repair });
        self
    }

    /// Events sorted by time (stable for ties, preserving build order).
    pub fn sorted(&self) -> Vec<FaultEvent> {
        let mut evs = self.events.clone();
        evs.sort_by_key(|e| e.at);
        evs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_sorts_by_time() {
        let p = FaultPlan::new()
            .fail(SimTime(300), FaultTarget::Blade(1))
            .fail(SimTime(100), FaultTarget::Disk(0))
            .repair(SimTime(200), FaultTarget::Disk(0));
        let evs = p.sorted();
        assert_eq!(evs[0].at, SimTime(100));
        assert_eq!(evs[1].at, SimTime(200));
        assert_eq!(evs[2].at, SimTime(300));
        assert_eq!(evs.len(), 3);
    }
}
