//! Content streaming straight off the pool (§2.3, §8, Figure 1): a large
//! dataset is served as a 10 Gb/s stream by striping the read round-robin
//! over controller blades, while other clients fetch the same content over
//! different protocols without any replication of the data.
//!
//! ```text
//! cargo run --release -p ys-core --example content_streaming
//! ```

use ys_core::{deliver_stream, FastPathConfig};
use ys_proto::{plan_stream, StreamProtocol, StreamRequest};

const GB: u64 = 1 << 30;

fn main() {
    // --- 1. Figure 1: the striped high-speed path, blade by blade ---
    println!("== striped stream delivery of a 2 GiB dataset (Figure 1) ==");
    println!("{:>8} {:>12} {:>14} {:>14}", "blades", "Gb/s", "bus util", "port util");
    for blades in 1..=6 {
        let cfg = FastPathConfig { blades, ..FastPathConfig::default() };
        let (r, _, _) = deliver_stream(&cfg, 2 * GB);
        println!(
            "{:>8} {:>12.2} {:>14.2} {:>14.2}",
            blades, r.gbit_per_sec, r.bus_utilization, r.port_utilization
        );
    }
    println!("-> four blades saturate the 10 GbE port, as the paper claims.\n");

    // --- 2. The same content, many protocols, one copy (§8) ---
    println!("== multi-protocol export of /pub/sky-survey.tar (no replication) ==");
    let object_len = 2 * GB;
    let requests = [
        StreamRequest { protocol: StreamProtocol::Http, path: "/pub/sky-survey.tar".into(), range: None },
        StreamRequest { protocol: StreamProtocol::Ftp, path: "/pub/sky-survey.tar".into(), range: Some((0, GB)) },
        StreamRequest {
            protocol: StreamProtocol::Rtsp,
            path: "/pub/sky-survey.tar".into(),
            range: Some((GB, 256 << 20)),
        },
        StreamRequest { protocol: StreamProtocol::Dicom, path: "/pub/sky-survey.tar".into(), range: Some((0, 64 << 20)) },
    ];
    for req in &requests {
        // Each request becomes a striped delivery plan over 4 blades; the
        // encoded frame is what would cross the wire.
        let frame = ys_proto::stream::encode(req);
        let decoded = ys_proto::stream::decode(frame.clone()).expect("round-trips");
        assert_eq!(&decoded, req);
        let plan = plan_stream(object_len, req.range, 1 << 20, 4);
        println!(
            "  {:?} {} bytes in {} segments over 4 blades ({} wire-frame bytes)",
            req.protocol,
            plan.total_bytes,
            plan.segments.len(),
            frame.len()
        );
    }
    println!("-> every protocol reads the same physical blocks; nothing was copied.");
}
