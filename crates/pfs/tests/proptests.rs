//! Property tests for the PFS: the namespace behaves like a model map of
//! paths, and extent allocation never double-books backing space.

use proptest::prelude::*;
use std::collections::HashMap;
use ys_pfs::{FileSystem, FsError};
use ys_virt::VolumeId;

const UNIT: u64 = 1 << 20;

fn fs() -> FileSystem {
    FileSystem::new(vec![VolumeId(0), VolumeId(1), VolumeId(2)], UNIT)
}

#[derive(Clone, Debug)]
enum NsOp {
    Create(u8),
    Remove(u8),
    Rename(u8, u8),
}

fn ns_op() -> impl Strategy<Value = NsOp> {
    prop_oneof![
        any::<u8>().prop_map(NsOp::Create),
        any::<u8>().prop_map(NsOp::Remove),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| NsOp::Rename(a, b)),
    ]
}

fn path(n: u8) -> String {
    format!("/f{}", n % 24)
}

proptest! {
    /// The namespace under create/remove/rename matches a model HashMap for
    /// every operation outcome and final state.
    #[test]
    fn namespace_matches_model(ops in proptest::collection::vec(ns_op(), 1..120)) {
        let mut f = fs();
        let mut model: HashMap<String, ()> = HashMap::new();
        for op in ops {
            match op {
                NsOp::Create(n) => {
                    let p = path(n);
                    let r = f.create(&p, None);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(p) {
                        prop_assert!(r.is_ok());
                        e.insert(());
                    } else {
                        prop_assert!(matches!(r, Err(FsError::AlreadyExists(_))));
                    }
                }
                NsOp::Remove(n) => {
                    let p = path(n);
                    let r = f.unlink(&p);
                    prop_assert_eq!(r.is_ok(), model.remove(&p).is_some());
                }
                NsOp::Rename(a, b) => {
                    let (pa, pb) = (path(a), path(b));
                    let r = f.rename(&pa, &pb);
                    let ok = model.contains_key(&pa) && !model.contains_key(&pb) && pa != pb;
                    prop_assert_eq!(r.is_ok(), ok, "rename {} -> {}", pa, pb);
                    if ok {
                        model.remove(&pa);
                        model.insert(pb, ());
                    }
                }
            }
        }
        // Final listing agrees.
        let mut listed = f.readdir("/").unwrap();
        listed.sort();
        let mut expect: Vec<String> = model.keys().map(|p| p.trim_start_matches('/').to_string()).collect();
        expect.sort();
        prop_assert_eq!(listed, expect);
    }

    /// Backing extents never overlap across files or within a file: every
    /// (volume, offset) byte is owned by at most one file chunk.
    #[test]
    fn extents_never_double_book(
        writes in proptest::collection::vec((0u8..6, 0u64..64, 1u64..4), 1..60),
    ) {
        let mut f = fs();
        let mut inos = HashMap::new();
        let mut owned: HashMap<(u32, u64), (u8, u64)> = HashMap::new(); // (vol, voff-chunk) -> (file, chunk)
        for (file, chunk, nchunks) in writes {
            let ino = *inos.entry(file).or_insert_with(|| f.create(&format!("/file{file}"), None).unwrap());
            let extents = f.write(ino, chunk * UNIT, nchunks * UNIT).unwrap();
            for e in extents {
                prop_assert_eq!(e.voff % UNIT, 0, "allocation is unit-aligned");
                let fchunk = e.voff / UNIT;
                let key = (e.vol.0, fchunk);
                let claim = (file, chunk);
                if let Some(&prev) = owned.get(&key) {
                    // Re-writing the same file chunk must reuse the same backing.
                    prop_assert_eq!(prev.0, claim.0, "backing shared across files");
                } else {
                    owned.insert(key, claim);
                }
            }
        }
    }

    /// size is the high-water mark of writes, and reads resolve exactly the
    /// written backing.
    #[test]
    fn size_is_high_water_mark(writes in proptest::collection::vec((0u64..100_000_000, 1u64..5_000_000), 1..30)) {
        let mut f = fs();
        let ino = f.create("/w", None).unwrap();
        let mut hwm = 0u64;
        for (off, len) in writes {
            let w = f.write(ino, off, len).unwrap();
            hwm = hwm.max(off + len);
            prop_assert_eq!(f.size_of(ino), Some(hwm));
            let r = f.read(ino, off, len).unwrap();
            prop_assert_eq!(w, r, "read must resolve to the written backing");
        }
    }
}
