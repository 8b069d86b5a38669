//! Content-streaming exports (§8): HTTP, FTP, RTSP (and segment-specific
//! protocols like DICOM) served directly off the storage pool — "the
//! storage system would be capable of streaming data directly from the
//! storage devices to the network".

/// Which layer-7 personality serves the stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamProtocol {
    Http,
    Ftp,
    Rtsp,
    Dicom,
}

/// A client's stream request: a path and an optional byte range.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StreamRequest {
    pub protocol: StreamProtocol,
    pub path: String,
    /// `None` = whole object.
    pub range: Option<(u64, u64)>,
}

/// The delivery schedule for one stream: fixed-size segments the blades
/// push in order, each taggable to a different blade for §2.3 striping.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StreamPlan {
    pub total_bytes: u64,
    pub segment_bytes: u64,
    pub segments: Vec<StreamSegment>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StreamSegment {
    pub index: u64,
    pub offset: u64,
    pub len: u64,
    /// Blade elected to push this segment (round-robin striping, Fig. 1).
    pub blade: usize,
}

/// Build the striped delivery plan: segments round-robin across `blades`.
pub fn plan_stream(object_len: u64, range: Option<(u64, u64)>, segment_bytes: u64, blades: usize) -> StreamPlan {
    assert!(segment_bytes > 0 && blades > 0);
    let (start, len) = match range {
        Some((s, l)) => (s.min(object_len), l.min(object_len.saturating_sub(s.min(object_len)))),
        None => (0, object_len),
    };
    let mut segments = Vec::new();
    let mut pos = start;
    let end = start + len;
    let mut idx = 0u64;
    while pos < end {
        let take = segment_bytes.min(end - pos);
        segments.push(StreamSegment {
            index: idx,
            offset: pos,
            len: take,
            blade: (idx % blades as u64) as usize,
        });
        pos += take;
        idx += 1;
    }
    StreamPlan { total_bytes: len, segment_bytes, segments }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_range_exactly_and_round_robins() {
        let plan = plan_stream(10_000_000, None, 1 << 20, 4);
        let total: u64 = plan.segments.iter().map(|s| s.len).sum();
        assert_eq!(total, 10_000_000);
        // Segments round-robin across the 4 blades.
        for (i, seg) in plan.segments.iter().enumerate() {
            assert_eq!(seg.blade, i % 4);
        }
        // Offsets are contiguous.
        let mut pos = 0;
        for seg in &plan.segments {
            assert_eq!(seg.offset, pos);
            pos += seg.len;
        }
    }

    #[test]
    fn range_request_clamps_to_object() {
        let plan = plan_stream(1000, Some((900, 500)), 256, 2);
        assert_eq!(plan.total_bytes, 100);
        assert_eq!(plan.segments.len(), 1);
        assert_eq!(plan.segments[0].offset, 900);
        // Range fully past the end → empty plan.
        let empty = plan_stream(1000, Some((2000, 10)), 256, 2);
        assert!(empty.segments.is_empty());
    }
}
