//! The parallel file system: a POSIX-ish namespace whose files stripe
//! across the pool's virtual volumes and carry per-file policies (§4).
//!
//! The PFS maps file byte ranges to (volume, offset) ranges; actual block
//! I/O, caching, and replication happen in the layers below. Backing
//! volumes are DMSDs, so the simple bump allocator per volume costs nothing
//! until data is written, and deleting a file UNMAPs its ranges (the
//! integration point with §3's free-on-unuse).

use crate::policy::FilePolicy;
use std::collections::{BTreeMap, HashMap};
use ys_virt::VolumeId;

/// Inode number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Ino(pub u64);

/// A file extent: `len` bytes at `voff` within volume `vol`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FileExtent {
    pub vol: VolumeId,
    pub voff: u64,
    pub len: u64,
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum NodeKind {
    File {
        size: u64,
        /// file offset → extent
        extents: BTreeMap<u64, FileExtent>,
    },
    Dir {
        children: HashMap<String, Ino>,
    },
}

#[derive(Clone, Debug)]
struct Node {
    kind: NodeKind,
    policy: FilePolicy,
    parent: Ino,
}

/// File-system errors.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FsError {
    NotFound(String),
    AlreadyExists(String),
    NotADirectory(String),
    NotAFile(String),
    DirectoryNotEmpty(String),
    InvalidPath(String),
}

impl std::fmt::Display for FsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsError::NotFound(p) => write!(f, "not found: {p}"),
            FsError::AlreadyExists(p) => write!(f, "already exists: {p}"),
            FsError::NotADirectory(p) => write!(f, "not a directory: {p}"),
            FsError::NotAFile(p) => write!(f, "not a file: {p}"),
            FsError::DirectoryNotEmpty(p) => write!(f, "directory not empty: {p}"),
            FsError::InvalidPath(p) => write!(f, "invalid path: {p}"),
        }
    }
}

impl std::error::Error for FsError {}

/// Metadata returned by [`FileSystem::stat`].
#[derive(Clone, Debug, PartialEq)]
pub struct Stat {
    pub ino: Ino,
    pub is_dir: bool,
    pub size: u64,
    pub policy: FilePolicy,
}

/// A storage class: volumes of one RAID personality that files whose
/// policy requests that personality stripe across (§4's "override the
/// automatic selection of RAID type").
#[derive(Clone, Debug)]
struct StorageClass {
    raid: Option<ys_raid::RaidLevel>,
    volumes: Vec<VolumeId>,
    /// Bump cursor per volume (DMSD virtual space is effectively infinite).
    cursors: Vec<u64>,
}

/// The file system.
#[derive(Clone, Debug)]
pub struct FileSystem {
    nodes: HashMap<Ino, Node>,
    next_ino: u64,
    /// Storage classes; class 0 is the default (policy `raid: None`).
    classes: Vec<StorageClass>,
    /// Stripe unit for large files.
    stripe_unit: u64,
}

pub const ROOT: Ino = Ino(0);

impl FileSystem {
    pub fn new(volumes: Vec<VolumeId>, stripe_unit: u64) -> FileSystem {
        assert!(!volumes.is_empty(), "need at least one backing volume");
        assert!(stripe_unit > 0);
        let mut nodes = HashMap::new();
        nodes.insert(
            ROOT,
            Node { kind: NodeKind::Dir { children: HashMap::new() }, policy: FilePolicy::default(), parent: ROOT },
        );
        let n = volumes.len();
        FileSystem {
            nodes,
            next_ino: 1,
            classes: vec![StorageClass { raid: None, volumes, cursors: vec![0; n] }],
            stripe_unit,
        }
    }

    /// Register a storage class backed by `volumes` for files whose policy
    /// demands `raid`. Files without an override stay in class 0.
    pub fn add_storage_class(&mut self, raid: ys_raid::RaidLevel, volumes: Vec<VolumeId>) {
        assert!(!volumes.is_empty());
        let n = volumes.len();
        self.classes.push(StorageClass { raid: Some(raid), volumes, cursors: vec![0; n] });
    }

    /// The class index serving a given RAID request.
    fn class_for(&self, raid: Option<ys_raid::RaidLevel>) -> usize {
        match raid {
            Some(level) => self
                .classes
                .iter()
                .position(|c| c.raid == Some(level))
                .unwrap_or(0),
            None => 0,
        }
    }

    /// The child table of directory `dir`; `None` when `dir` is a file or
    /// gone.
    fn children_mut(&mut self, dir: Ino) -> Option<&mut HashMap<String, Ino>> {
        match &mut self.nodes.get_mut(&dir)?.kind {
            NodeKind::Dir { children } => Some(children),
            NodeKind::File { .. } => None,
        }
    }

    fn components(path: &str) -> Result<Vec<&str>, FsError> {
        if !path.starts_with('/') {
            return Err(FsError::InvalidPath(path.into()));
        }
        Ok(path.split('/').filter(|c| !c.is_empty()).collect())
    }

    /// Resolve a path to an inode.
    pub fn lookup(&self, path: &str) -> Result<Ino, FsError> {
        let mut cur = ROOT;
        for comp in Self::components(path)? {
            let node = &self.nodes[&cur];
            match &node.kind {
                NodeKind::Dir { children } => {
                    cur = *children.get(comp).ok_or_else(|| FsError::NotFound(path.into()))?;
                }
                NodeKind::File { .. } => return Err(FsError::NotADirectory(path.into())),
            }
        }
        Ok(cur)
    }

    fn split_parent(path: &str) -> Result<(String, String), FsError> {
        let comps = Self::components(path)?;
        let (name, dirs) = comps.split_last().ok_or_else(|| FsError::InvalidPath(path.into()))?;
        Ok((format!("/{}", dirs.join("/")), name.to_string()))
    }

    fn create_node(&mut self, path: &str, kind: NodeKind, policy: Option<FilePolicy>) -> Result<Ino, FsError> {
        let (parent_path, name) = Self::split_parent(path)?;
        let parent = self.lookup(&parent_path)?;
        // Children inherit the parent directory's policy unless overridden.
        let inherited = self.nodes[&parent].policy.clone();
        let ino = Ino(self.next_ino);
        match self.children_mut(parent) {
            None => return Err(FsError::NotADirectory(parent_path)),
            Some(children) if children.contains_key(&name) => {
                return Err(FsError::AlreadyExists(path.into()))
            }
            Some(children) => children.insert(name, ino),
        };
        self.next_ino += 1;
        self.nodes.insert(ino, Node { kind, policy: policy.unwrap_or(inherited), parent });
        Ok(ino)
    }

    /// Create an empty file. Policy defaults to the parent directory's.
    pub fn create(&mut self, path: &str, policy: Option<FilePolicy>) -> Result<Ino, FsError> {
        self.create_node(path, NodeKind::File { size: 0, extents: BTreeMap::new() }, policy)
    }

    /// Create a directory.
    pub fn mkdir(&mut self, path: &str, policy: Option<FilePolicy>) -> Result<Ino, FsError> {
        self.create_node(path, NodeKind::Dir { children: HashMap::new() }, policy)
    }

    pub fn stat(&self, path: &str) -> Result<Stat, FsError> {
        let ino = self.lookup(path)?;
        let node = &self.nodes[&ino];
        Ok(match &node.kind {
            NodeKind::File { size, .. } => Stat { ino, is_dir: false, size: *size, policy: node.policy.clone() },
            NodeKind::Dir { .. } => Stat { ino, is_dir: true, size: 0, policy: node.policy.clone() },
        })
    }

    pub fn policy(&self, ino: Ino) -> &FilePolicy {
        &self.nodes[&ino].policy
    }

    /// Change a file's policy at any time — "the file behavior can easily
    /// be changed at any time" (§7.2).
    pub fn set_policy(&mut self, path: &str, policy: FilePolicy) -> Result<(), FsError> {
        let ino = self.lookup(path)?;
        self.nodes.get_mut(&ino).ok_or_else(|| FsError::NotFound(path.into()))?.policy = policy;
        Ok(())
    }

    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        let ino = self.lookup(path)?;
        match &self.nodes[&ino].kind {
            NodeKind::Dir { children } => {
                let mut names: Vec<String> = children.keys().cloned().collect();
                names.sort();
                Ok(names)
            }
            NodeKind::File { .. } => Err(FsError::NotADirectory(path.into())),
        }
    }

    /// Extend/locate backing for a write of `[offset, offset+len)`; returns
    /// the (volume, offset, len) pieces the orchestrator must write.
    ///
    /// New file space stripes round-robin across backing volumes in
    /// `stripe_unit` chunks, so large files enjoy parallel volume bandwidth.
    pub fn write(&mut self, ino: Ino, offset: u64, len: u64) -> Result<Vec<FileExtent>, FsError> {
        assert!(len > 0);
        let unit = self.stripe_unit;
        let class_idx = {
            let node = self.nodes.get(&ino).ok_or_else(|| FsError::NotFound(format!("ino {ino:?}")))?;
            self.class_for(node.policy.raid)
        };
        let node = self.nodes.get_mut(&ino).ok_or_else(|| FsError::NotFound(format!("ino {ino:?}")))?;
        let (size, extents) = match &mut node.kind {
            NodeKind::File { size, extents } => (size, extents),
            NodeKind::Dir { .. } => return Err(FsError::NotAFile(format!("ino {ino:?}"))),
        };
        let class = &mut self.classes[class_idx];
        let nvols = class.volumes.len() as u64;
        let mut out = Vec::new();
        // Walk stripe-unit-aligned pieces of the write range.
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let chunk_index = pos / unit;
            let chunk_start = chunk_index * unit;
            let in_chunk = pos - chunk_start;
            let take = (unit - in_chunk).min(end - pos);
            // Ensure the chunk has backing.
            let ext = match extents.get(&chunk_start) {
                Some(e) => *e,
                None => {
                    let vol_idx = (chunk_index % nvols) as usize;
                    let voff = class.cursors[vol_idx];
                    class.cursors[vol_idx] += unit;
                    let e = FileExtent { vol: class.volumes[vol_idx], voff, len: unit };
                    extents.insert(chunk_start, e);
                    e
                }
            };
            out.push(FileExtent { vol: ext.vol, voff: ext.voff + in_chunk, len: take });
            pos += take;
        }
        *size = (*size).max(end);
        Ok(out)
    }

    /// Locate the backing for a read; unbacked holes read as zeroes and are
    /// simply absent from the result.
    pub fn read(&self, ino: Ino, offset: u64, len: u64) -> Result<Vec<FileExtent>, FsError> {
        let node = self.nodes.get(&ino).ok_or_else(|| FsError::NotFound(format!("ino {ino:?}")))?;
        let extents = match &node.kind {
            NodeKind::File { extents, .. } => extents,
            NodeKind::Dir { .. } => return Err(FsError::NotAFile(format!("ino {ino:?}"))),
        };
        let unit = self.stripe_unit;
        let mut out = Vec::new();
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let chunk_start = (pos / unit) * unit;
            let in_chunk = pos - chunk_start;
            let take = (unit - in_chunk).min(end - pos);
            if let Some(e) = extents.get(&chunk_start) {
                out.push(FileExtent { vol: e.vol, voff: e.voff + in_chunk, len: take });
            }
            pos += take;
        }
        Ok(out)
    }

    /// Remove a file; returns its extents so the caller can UNMAP them from
    /// the volumes (returning physical space to the pool, §3).
    pub fn unlink(&mut self, path: &str) -> Result<Vec<FileExtent>, FsError> {
        let ino = self.lookup(path)?;
        if ino == ROOT {
            return Err(FsError::InvalidPath(path.into()));
        }
        match &self.nodes[&ino].kind {
            NodeKind::Dir { children } => {
                if !children.is_empty() {
                    return Err(FsError::DirectoryNotEmpty(path.into()));
                }
            }
            NodeKind::File { .. } => {}
        }
        let parent = self.nodes[&ino].parent;
        let (_, name) = Self::split_parent(path)?;
        if let Some(children) = self.children_mut(parent) {
            children.remove(&name);
        }
        let node = self.nodes.remove(&ino).ok_or_else(|| FsError::NotFound(path.into()))?;
        Ok(match node.kind {
            NodeKind::File { extents, .. } => extents.into_values().collect(),
            NodeKind::Dir { .. } => vec![],
        })
    }

    /// Rename/move. Fails if the destination exists.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let ino = self.lookup(from)?;
        if self.lookup(to).is_ok() {
            return Err(FsError::AlreadyExists(to.into()));
        }
        let (to_parent_path, to_name) = Self::split_parent(to)?;
        let to_parent = self.lookup(&to_parent_path)?;
        if !matches!(self.nodes[&to_parent].kind, NodeKind::Dir { .. }) {
            return Err(FsError::NotADirectory(to_parent_path));
        }
        let (_, from_name) = Self::split_parent(from)?;
        let from_parent = self.nodes[&ino].parent;
        if let Some(children) = self.children_mut(from_parent) {
            children.remove(&from_name);
        }
        if let Some(children) = self.children_mut(to_parent) {
            children.insert(to_name, ino);
        }
        self.nodes.get_mut(&ino).ok_or_else(|| FsError::NotFound(from.into()))?.parent = to_parent;
        Ok(())
    }

    /// Current size of a file by inode; `None` for directories or unknown
    /// inodes.
    pub fn size_of(&self, ino: Ino) -> Option<u64> {
        match &self.nodes.get(&ino)?.kind {
            NodeKind::File { size, .. } => Some(*size),
            NodeKind::Dir { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ys_cache::Retention;

    const UNIT: u64 = 1 << 20;

    fn fs() -> FileSystem {
        FileSystem::new(vec![VolumeId(0), VolumeId(1), VolumeId(2), VolumeId(3)], UNIT)
    }

    #[test]
    fn create_lookup_stat() {
        let mut f = fs();
        f.mkdir("/projects", None).unwrap();
        let ino = f.create("/projects/data.bin", None).unwrap();
        assert_eq!(f.lookup("/projects/data.bin").unwrap(), ino);
        let st = f.stat("/projects/data.bin").unwrap();
        assert!(!st.is_dir);
        assert_eq!(st.size, 0);
        assert!(matches!(f.lookup("/nope"), Err(FsError::NotFound(_))));
    }

    #[test]
    fn writes_grow_size_and_stripe_across_volumes() {
        let mut f = fs();
        let ino = f.create("/big", None).unwrap();
        let pieces = f.write(ino, 0, 4 * UNIT).unwrap();
        let vols: std::collections::HashSet<_> = pieces.iter().map(|e| e.vol).collect();
        assert_eq!(vols.len(), 4, "4 stripe units land on 4 volumes");
        assert_eq!(f.stat("/big").unwrap().size, 4 * UNIT);
    }

    #[test]
    fn unaligned_write_spans_chunks() {
        let mut f = fs();
        let ino = f.create("/x", None).unwrap();
        let pieces = f.write(ino, UNIT - 100, 200).unwrap();
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].len, 100);
        assert_eq!(pieces[1].len, 100);
        let total: u64 = pieces.iter().map(|e| e.len).sum();
        assert_eq!(total, 200);
    }

    #[test]
    fn read_after_write_hits_same_backing() {
        let mut f = fs();
        let ino = f.create("/x", None).unwrap();
        let w = f.write(ino, 12345, 1000).unwrap();
        let r = f.read(ino, 12345, 1000).unwrap();
        assert_eq!(w, r, "reads resolve to the written backing");
    }

    #[test]
    fn read_of_hole_is_empty() {
        let mut f = fs();
        let ino = f.create("/x", None).unwrap();
        f.write(ino, 0, 100).unwrap();
        let r = f.read(ino, 10 << 20, 1000).unwrap();
        assert!(r.is_empty(), "hole reads have no backing");
    }

    #[test]
    fn rewrite_reuses_backing() {
        let mut f = fs();
        let ino = f.create("/x", None).unwrap();
        let w1 = f.write(ino, 0, 1000).unwrap();
        let w2 = f.write(ino, 0, 1000).unwrap();
        assert_eq!(w1, w2, "overwrite does not reallocate");
    }

    #[test]
    fn policy_inherits_from_parent_dir() {
        let mut f = fs();
        let dir_policy = FilePolicy { retention: Retention::High, ..FilePolicy::default() };
        f.mkdir("/hot", Some(dir_policy.clone())).unwrap();
        f.create("/hot/a", None).unwrap();
        assert_eq!(f.stat("/hot/a").unwrap().policy.retention, Retention::High);
        // Explicit policy wins.
        f.create("/hot/b", Some(FilePolicy::scratch())).unwrap();
        assert_eq!(f.stat("/hot/b").unwrap().policy.retention, Retention::Low);
    }

    #[test]
    fn set_policy_changes_behavior_at_any_time() {
        let mut f = fs();
        f.create("/f", None).unwrap();
        f.set_policy("/f", FilePolicy::critical()).unwrap();
        assert_eq!(f.stat("/f").unwrap().policy, FilePolicy::critical());
    }

    #[test]
    fn unlink_returns_extents_for_unmap() {
        let mut f = fs();
        let ino = f.create("/x", None).unwrap();
        f.write(ino, 0, 3 * UNIT).unwrap();
        let extents = f.unlink("/x").unwrap();
        assert_eq!(extents.len(), 3);
        assert!(f.lookup("/x").is_err());
    }

    #[test]
    fn unlink_nonempty_dir_fails() {
        let mut f = fs();
        f.mkdir("/d", None).unwrap();
        f.create("/d/child", None).unwrap();
        assert!(matches!(f.unlink("/d"), Err(FsError::DirectoryNotEmpty(_))));
        f.unlink("/d/child").unwrap();
        f.unlink("/d").unwrap();
    }

    #[test]
    fn rename_moves_between_directories() {
        let mut f = fs();
        f.mkdir("/a", None).unwrap();
        f.mkdir("/b", None).unwrap();
        let ino = f.create("/a/file", None).unwrap();
        f.rename("/a/file", "/b/moved").unwrap();
        assert_eq!(f.lookup("/b/moved").unwrap(), ino);
        assert!(f.lookup("/a/file").is_err());
        assert_eq!(f.readdir("/a").unwrap(), Vec::<String>::new());
        assert_eq!(f.readdir("/b").unwrap(), vec!["moved"]);
    }

    #[test]
    fn rename_onto_existing_fails() {
        let mut f = fs();
        f.create("/a", None).unwrap();
        f.create("/b", None).unwrap();
        assert!(matches!(f.rename("/a", "/b"), Err(FsError::AlreadyExists(_))));
    }

    #[test]
    fn relative_paths_rejected() {
        let mut f = fs();
        assert!(matches!(f.create("relative", None), Err(FsError::InvalidPath(_))));
    }

    #[test]
    fn readdir_sorted() {
        let mut f = fs();
        f.create("/c", None).unwrap();
        f.create("/a", None).unwrap();
        f.create("/b", None).unwrap();
        assert_eq!(f.readdir("/").unwrap(), vec!["a", "b", "c"]);
    }
}
