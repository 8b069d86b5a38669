//! The claim registry: every paper claim this repo measures, each with one
//! body that runs its one sweep and returns one [`RunReport`].
//!
//! `report` and `ys-report` are two renderers of this table. `report`
//! prints the claims that carry an `id` as banner-titled sections in
//! registry order (and EXPERIMENTS.md quotes them); `ys-report` runs the
//! claims that carry a `name` and prints their tables, checkpoints,
//! metrics and Chrome trace. A claim reachable by both doors is measured
//! once and rendered twice.

use crate::{ablations, experiments, scenarios};
use crate::report::RunReport;

/// One measured claim.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// The `report` id (`E1`–`E12`, `A1`–`A3`), if `report` prints it.
    pub id: Option<&'static str>,
    /// The `ys-report` scenario name, if `ys-report` runs it.
    pub name: Option<&'static str>,
    /// One line: the `report` banner after the id, the `ys-report --list`
    /// entry after the name.
    pub what: &'static str,
    /// The body.
    pub run: fn() -> RunReport,
}

/// Every claim, in `report` order; the `ys-report`-only claims follow.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: Some("E1"),
        name: Some("stripe4x2"),
        what: "Figure 1 fast path: blades x 2 FC ports stripe one stream up to the ~10 Gb/s port (§2.3, §8)",
        run: experiments::e1_striping,
    },
    Claim {
        id: Some("E2"),
        name: Some("secure-tenants"),
        what: "Figure 2 secure multi-tenant pool: the cipher's throughput cost; zoning + LUN masking deny every cross-tenant frame, denials audited, media bytes are ciphertext (§5)",
        run: experiments::e2_secure_pool,
    },
    Claim { id: Some("E3"), name: None, what: "Figure-3 geographic deployment", run: experiments::e3_geo_deploy },
    Claim { id: Some("E4"), name: None, what: "throughput scaling vs blades", run: experiments::e4_scaling },
    Claim {
        id: Some("E5"),
        name: Some("hotspot"),
        what: "hot-data skew over the load-balanced cache pool vs pinned islands (§2.2, §6.3)",
        run: experiments::e5_hotspot,
    },
    Claim { id: Some("E6"), name: None, what: "DMSD thin provisioning", run: experiments::e6_dmsd },
    Claim {
        id: Some("E7"),
        name: Some("nway"),
        what: "N-way dirty replication survives N-1 blade failures (§6.1)",
        run: experiments::e7_nway,
    },
    Claim {
        id: Some("E8"),
        name: Some("rebuild"),
        what: "distributed RAID rebuild scales with worker blades and outlives a worker (§2.4, §6.3)",
        run: experiments::e8_rebuild,
    },
    Claim {
        id: Some("E9"),
        name: Some("georep"),
        what: "sync vs async geographic replication, the async loss window, file-level WAN cost (§6.2, §7)",
        run: experiments::e9_georep,
    },
    Claim { id: Some("E10"), name: None, what: "distributed data access", run: experiments::e10_remote_access },
    Claim {
        id: Some("E11"),
        name: Some("wire-speed-crypt"),
        what: "wire-speed encryption: the hardware-assist cipher streams within 5% of crypt-off while software crypt measurably degrades (§5.1)",
        run: experiments::e11_encryption,
    },
    Claim { id: Some("E12"), name: None, what: "storage services offload", run: experiments::e12_services },
    Claim { id: Some("A1"), name: None, what: "prefetch ablation", run: ablations::a1_prefetch },
    Claim { id: Some("A2"), name: None, what: "rebuild batch-size ablation", run: ablations::a2_rebuild_batch },
    Claim { id: Some("A3"), name: None, what: "coherent-peer-supply ablation", run: ablations::a3_remote_supply },
    Claim {
        id: None,
        name: Some("noisy-neighbor"),
        what: "ys-qos admission control isolates a premium tenant from a scavenger flood",
        run: scenarios::noisy_neighbor,
    },
    Claim {
        id: None,
        name: Some("rolling-restart"),
        what: "ys-heal rolling maintenance: drain + rejoin every blade under premium load with zero loss, bounded p99 impact, and health returning to Healthy",
        run: scenarios::rolling_restart,
    },
    Claim {
        id: None,
        name: Some("bitrot-scrub"),
        what: "ys-scrub background pass repairs latent rot under foreground load inside the Scavenger isolation bound",
        run: scenarios::bitrot_scrub,
    },
    Claim {
        id: None,
        name: Some("crash-nway"),
        what: "ys-chaos campaign: blade crashes at adversarial instants recover clean; a deliberate N-failure shrinks to a replayable counterexample (§6.1)",
        run: scenarios::crash_nway,
    },
    Claim {
        id: None,
        name: Some("partition-heal"),
        what: "ys-chaos campaign: WAN trunks cut mid-geo-ship heal gapless — the async backlog drains with no prefix gap (§7)",
        run: scenarios::partition_heal,
    },
    Claim {
        id: None,
        name: Some("national-lab"),
        what: "the national-lab deployment serves every request through a blade failure, its repair and a disk failure (§6.3)",
        run: scenarios::national_lab,
    },
    Claim {
        id: None,
        name: Some("fortified-ring"),
        what: "the fortified ring: authentication, zoning, in-band disabling and LUN masking gate the management plane, the block target and the NAS head; every refusal audited once (§5, §5.2, §8)",
        run: scenarios::fortified_ring,
    },
];

/// The claim `report` prints under `id`.
pub fn by_id(id: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.id == Some(id))
}

/// The claim `ys-report` runs under `name`.
pub fn by_name(name: &str) -> Option<&'static Claim> {
    CLAIMS.iter().find(|c| c.name == Some(name))
}
