//! Distributed storage services (§2.4): point-in-time copies and backup
//! streams "load-balanced and distributed across controller blades" so they
//! "go faster and not impede active I/O rates being delivered to servers".

use crate::cluster::{BladeCluster, ClusterError};
use ys_simcore::time::SimTime;

/// A bulk-copy service job (PIT copy, backup stream, mirror creation).
#[derive(Clone, Copy, Debug)]
pub struct ServiceJob {
    /// Source region in RAID-logical bytes.
    pub src_offset: u64,
    /// Destination region in RAID-logical bytes (PIT copy) — `None` for a
    /// backup stream that only reads.
    pub dst_offset: Option<u64>,
    pub bytes: u64,
    /// Copy unit.
    pub chunk: u64,
}

/// Outcome of a service run.
#[derive(Clone, Copy, Debug)]
pub struct ServiceResult {
    pub finished: SimTime,
    pub chunks: u64,
}

/// Execute `job` spread over `blades` (round-robin chunk assignment, each
/// blade a sequential worker). Returns when the last chunk lands.
pub fn run_service(
    cluster: &mut BladeCluster,
    now: SimTime,
    job: ServiceJob,
    blades: &[usize],
) -> Result<ServiceResult, ClusterError> {
    assert!(!blades.is_empty());
    assert!(job.chunk > 0);
    let failed = cluster.failed_disks().to_vec();
    let geo = *cluster.raid_geometry();
    let mut worker_time = vec![now; blades.len()];
    let mut chunks = 0u64;
    let mut pos = 0u64;
    while pos < job.bytes {
        let take = job.chunk.min(job.bytes - pos);
        let w = (chunks % blades.len() as u64) as usize;
        let blade = blades[w];
        // Read the source chunk…
        let read = ys_raid::read_plan(&geo, job.src_offset + pos, take, &failed)?;
        let mut t = cluster.charge(0, blade, worker_time[w], &read, None)?;
        // …and write the destination (if copying, not just backing up).
        if let Some(dst) = job.dst_offset {
            let write = ys_raid::write_plan(&geo, dst + pos, take, &failed)?;
            t = cluster.charge(0, blade, t, &write, None)?;
        }
        worker_time[w] = t;
        pos += take;
        chunks += 1;
    }
    let finished = worker_time.into_iter().max().unwrap_or(now);
    Ok(ServiceResult { finished, chunks })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;

    fn cluster() -> BladeCluster {
        BladeCluster::new(ClusterConfig::default().with_blades(8).with_disks(12))
    }

    const MB: u64 = 1 << 20;

    #[test]
    fn pit_copy_completes() {
        let mut c = cluster();
        let job = ServiceJob { src_offset: 0, dst_offset: Some(1 << 30), bytes: 64 * MB, chunk: MB };
        let r = run_service(&mut c, SimTime::ZERO, job, &[0]).unwrap();
        assert_eq!(r.chunks, 64);
        assert!(r.finished > SimTime::ZERO);
    }

    #[test]
    fn distributing_across_blades_speeds_up_service() {
        let job = ServiceJob { src_offset: 0, dst_offset: Some(4 << 30), bytes: 128 * MB, chunk: MB };
        let mut one = cluster();
        let t1 = run_service(&mut one, SimTime::ZERO, job, &[0]).unwrap().finished;
        let mut four = cluster();
        let t4 = run_service(&mut four, SimTime::ZERO, job, &[0, 1, 2, 3]).unwrap().finished;
        assert!(t4 < t1, "4 blades {t4:?} !< 1 blade {t1:?}");
    }

    #[test]
    fn backup_stream_reads_only() {
        let mut c = cluster();
        let before_writes: u64 = (0..12).map(|i| c.farm.disk(ys_simdisk::DiskId(i)).writes()).sum();
        let job = ServiceJob { src_offset: 0, dst_offset: None, bytes: 16 * MB, chunk: MB };
        run_service(&mut c, SimTime::ZERO, job, &[0, 1]).unwrap();
        let after_writes: u64 = (0..12).map(|i| c.farm.disk(ys_simdisk::DiskId(i)).writes()).sum();
        assert_eq!(before_writes, after_writes, "backup never writes");
    }
}
