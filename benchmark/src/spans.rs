//! Host-time spans around the calls the benchmark makes into the program.
//!
//! A traced repetition records one [`Span`] per call — what was called, when
//! it started and ended on the host clock, which span it ran inside, and the
//! request it belongs to. Spans stay in memory until the run ends. A layer's
//! *self time* is its spans' duration minus what their children cover, so
//! the self times of a trace sum to the root span exactly.
//!
//! The tracer is a plain value threaded through the drivers; switched off it
//! costs one predictable branch per call, and end-to-end metrics are only
//! ever taken with it off.

use std::time::Instant;

/// Every call site the benchmark wraps. The name is what the trace file and
/// the `trace.*_self_s` metrics use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// The measured phase of one repetition — the root.
    Measure,
    /// A closed-loop driver body: client heap, op dispatch, bookkeeping.
    Driver,
    /// `Workload::next_op`.
    ProtoNextOp,
    /// `BladeCluster::read` / `read_as`.
    CoreRead,
    /// `BladeCluster::write` / `write_as`.
    CoreWrite,
    /// `BladeCluster::drain`.
    CoreDrain,
    /// `BladeCluster::{fail_blade, revive_blade, finish_rejoin}`.
    Lifecycle,
    /// `Healer::tick`.
    HealTick,
    /// `Healer::run`.
    HealRun,
    /// `Scrubber::new` + `Scrubber::run`.
    ScrubRun,
    /// `Rebuilder::new` + `Rebuilder::run`.
    RebuildRun,
    /// `ys_chaos::run_campaign`.
    ChaosRun,
    /// `ys_check::run_standard`.
    CheckRun,
}

impl Kind {
    pub const ALL: [Kind; 13] = [
        Kind::Measure,
        Kind::Driver,
        Kind::ProtoNextOp,
        Kind::CoreRead,
        Kind::CoreWrite,
        Kind::CoreDrain,
        Kind::Lifecycle,
        Kind::HealTick,
        Kind::HealRun,
        Kind::ScrubRun,
        Kind::RebuildRun,
        Kind::ChaosRun,
        Kind::CheckRun,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Measure => "measure",
            Kind::Driver => "driver",
            Kind::ProtoNextOp => "proto_next_op",
            Kind::CoreRead => "core_read",
            Kind::CoreWrite => "core_write",
            Kind::CoreDrain => "core_drain",
            Kind::Lifecycle => "lifecycle",
            Kind::HealTick => "heal_tick",
            Kind::HealRun => "heal_run",
            Kind::ScrubRun => "scrub_run",
            Kind::RebuildRun => "rebuild_run",
            Kind::ChaosRun => "chaos_run",
            Kind::CheckRun => "check_run",
        }
    }
}

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Span {
    pub kind: Kind,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Request identifier shared by the spans of one client operation
    /// (0 for work that belongs to no single request).
    pub request: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(u32);

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    /// Indices of the spans currently open, innermost last.
    stack: Vec<u32>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { enabled: false, t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }

    pub fn on() -> Tracer {
        Tracer { enabled: true, ..Tracer::off() }
    }

    #[inline]
    pub fn enter(&mut self, kind: Kind, request: u32) -> Open {
        if !self.enabled {
            return Open(NO_PARENT);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        self.stack.push(id);
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span { kind, start_ns, end_ns: start_ns, parent, request });
        Open(id)
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end_ns = self.t0.elapsed().as_nanos() as u64;
        let top = self.stack.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0 as usize].end_ns = end_ns;
    }

    /// Time one call that makes no nested traced calls.
    #[inline]
    pub fn leaf<R>(&mut self, kind: Kind, request: u32, f: impl FnOnce() -> R) -> R {
        let open = self.enter(kind, request);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time in nanoseconds per span: duration minus the children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if s.parent != NO_PARENT {
            let p = s.parent as usize;
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// What all spans of one kind add up to.
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct KindTotal {
    pub spans: u64,
    pub self_ns: u64,
}

impl KindTotal {
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 / 1e9
    }
}

/// Span count and total self time per kind, indexed by `kind as usize`
/// (the order of [`Kind::ALL`]). One pass, however many spans.
pub fn totals_by_kind(spans: &[Span]) -> [KindTotal; Kind::ALL.len()] {
    let mut totals = [KindTotal::default(); Kind::ALL.len()];
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let t = &mut totals[s.kind as usize];
        t.spans += 1;
        t.self_ns += own;
    }
    totals
}

/// Durations in nanoseconds of every span of `kind`, ascending (saturating
/// at `u32`, 4.29 s — far above any single call timed this way).
pub fn sorted_durations_ns(spans: &[Span], kind: Kind) -> Vec<u32> {
    let mut d: Vec<u32> =
        spans.iter().filter(|s| s.kind == kind).map(|s| u32::try_from(s.dur_ns()).unwrap_or(u32::MAX)).collect();
    d.sort_unstable();
    d
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: Kind, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { kind, start_ns, end_ns, parent, request: 0 }
    }

    #[test]
    fn self_time_is_span_minus_children_on_a_hand_built_tree() {
        // measure [0,100) ── driver [10,90) ─┬─ next_op [12,20)
        //                                    ├─ read    [20,50)
        //                                    └─ read    [55,85)
        //                 └─ drain  [90,98)
        let spans = [
            span(Kind::Measure, 0, 100, NO_PARENT),
            span(Kind::Driver, 10, 90, 0),
            span(Kind::ProtoNextOp, 12, 20, 1),
            span(Kind::CoreRead, 20, 50, 1),
            span(Kind::CoreRead, 55, 85, 1),
            span(Kind::CoreDrain, 90, 98, 0),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![12, 12, 8, 30, 30, 8]);
        // Self times partition the root exactly.
        assert_eq!(own.iter().sum::<u64>(), spans[0].dur_ns());
        let totals = totals_by_kind(&spans);
        assert_eq!(totals[Kind::CoreRead as usize], KindTotal { spans: 2, self_ns: 60 });
        assert_eq!(totals[Kind::HealRun as usize], KindTotal::default());
        assert_eq!(totals.iter().map(|t| t.self_ns).sum::<u64>(), spans[0].dur_ns());
        assert_eq!(sorted_durations_ns(&spans, Kind::CoreRead), vec![30, 30]);
    }

    #[test]
    fn tracer_records_nesting_and_request_ids() {
        let mut tr = Tracer::on();
        let root = tr.enter(Kind::Measure, 0);
        let drv = tr.enter(Kind::Driver, 0);
        let got = tr.leaf(Kind::CoreRead, 7, || 41 + 1);
        tr.exit(drv);
        tr.exit(root);
        assert_eq!(got, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, 0, 1));
        assert_eq!(s[2].request, 7);
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[1].end_ns && s[1].end_ns <= s[0].end_ns);
    }

    #[test]
    fn a_tracer_switched_off_records_nothing() {
        let mut tr = Tracer::off();
        let o = tr.enter(Kind::Measure, 0);
        assert_eq!(tr.leaf(Kind::CoreRead, 1, || 5), 5);
        tr.exit(o);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn kind_names_are_unique_and_contract_safe() {
        assert!(Kind::ALL.iter().enumerate().all(|(i, &k)| k as usize == i), "ALL is in discriminant order");
        let names: std::collections::BTreeSet<_> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), Kind::ALL.len());
        assert!(names.iter().all(|n| crate::json::valid_name(n)));
    }
}
