//! The storage virtual filesystem: every byte `taco_store` puts on (or
//! reads off) a disk goes through a [`Vfs`], so the persistence stack
//! has exactly one seam where I/O can fail — and one place to inject
//! those failures deterministically.
//!
//! Two implementations:
//!
//! - [`StdVfs`] — production: thin forwarding to `std::fs`, with one
//!   deliberate strengthening: [`Vfs::sync_parent_dir`] really fsyncs
//!   the directory, so a snapshot rename or a fresh WAL file is durable
//!   across power loss (POSIX makes no such promise until the parent
//!   directory entry is synced);
//! - [`FaultVfs`] — a fully in-memory simulated disk with a seeded
//!   [`FaultPlan`]: short writes, failed fsyncs, ENOSPC after a byte
//!   budget, failed renames, and **crash points** — freeze the durable
//!   image at the n-th I/O operation and reopen from exactly what a
//!   real machine would have found after power loss.
//!
//! ## The simulated durability model
//!
//! `FaultVfs` tracks two views of every file: the **live** bytes (what
//! the running process reads back) and the **durable** bytes (what
//! survives a crash). A file `sync` copies live → durable for that
//! file. Namespace operations — `rename` and `remove` — take effect in
//! the live view immediately but join a *pending* list that only
//! commits to the durable view on [`Vfs::sync_parent_dir`]: exactly the
//! lost-rename window the parent-directory fsync exists to close. At a
//! crash point the durable image is frozen, except that a seeded prefix
//! of each file's unsynced appended tail is retained — the classic torn
//! WAL tail. [`FaultVfs::reopen_from_crash`] then yields a fresh vfs
//! whose live view *is* that frozen image, so recovery code runs
//! against precisely the post-crash disk.
//!
//! Every injected fault is counted ([`FaultVfs::hits`]), logged
//! ([`FaultVfs::fault_log`]), and optionally exported as
//! `taco_vfs_faults_total{kind="…"}` counters via
//! [`FaultVfs::attach_obs`].

use crate::StoreError;
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// An open writable file. Writes always append at the current end of
/// the file; [`VfsFile::set_len`] truncates and subsequent writes
/// append at the new end — the only two shapes the WAL and snapshot
/// writers need, and a model under which "torn tail" has an exact
/// meaning.
pub trait VfsFile: Send {
    /// Appends `buf` at the end of the file.
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError>;
    /// Truncates (or extends with zeroes) to `len` bytes.
    fn set_len(&mut self, len: u64) -> Result<(), StoreError>;
    /// Durably flushes the file's content (fsync).
    fn sync(&mut self) -> Result<(), StoreError>;
}

/// A filesystem namespace: the seam between the persistence stack and
/// the disk. All paths are interpreted by the implementation —
/// [`FaultVfs`] never touches the real filesystem.
pub trait Vfs: Send + Sync {
    /// Reads a whole file.
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError>;
    /// Creates (or truncates) a file for writing.
    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError>;
    /// Opens an existing file for appending (position at end).
    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
    /// Atomically renames `from` over `to`. Durable only after
    /// [`Vfs::sync_parent_dir`].
    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError>;
    /// Removes a file. Durable only after [`Vfs::sync_parent_dir`].
    fn remove(&self, path: &Path) -> Result<(), StoreError>;
    /// Fsyncs the directory containing `path`, making pending renames,
    /// removals, and creations of entries in it durable.
    fn sync_parent_dir(&self, path: &Path) -> Result<(), StoreError>;
}

/// A shared production vfs handle.
pub fn std_vfs() -> Arc<dyn Vfs> {
    Arc::new(StdVfs)
}

// ---- production ---------------------------------------------------------

/// The production vfs: `std::fs`, plus a real parent-directory fsync.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdVfs;

struct StdVfsFile {
    file: std::fs::File,
}

impl VfsFile for StdVfsFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        Ok(self.file.write_all(buf)?)
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        self.file.set_len(len)?;
        use std::io::Seek;
        self.file.seek(std::io::SeekFrom::End(0))?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.file.sync_all()?)
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        Ok(std::fs::read(path)?)
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError> {
        let file =
            std::fs::OpenOptions::new().write(true).create(true).truncate(true).open(path)?;
        Ok(Box::new(StdVfsFile { file }))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError> {
        let mut file = std::fs::OpenOptions::new().read(true).write(true).open(path)?;
        use std::io::Seek;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(Box::new(StdVfsFile { file }))
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        Ok(std::fs::rename(from, to)?)
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        Ok(std::fs::remove_file(path)?)
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<(), StoreError> {
        let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) else {
            return Ok(());
        };
        #[cfg(unix)]
        {
            std::fs::File::open(dir)?.sync_all()?;
        }
        #[cfg(not(unix))]
        {
            // Directories cannot be opened/fsynced portably elsewhere;
            // the rename itself is the best available barrier.
            let _ = dir;
        }
        Ok(())
    }
}

// ---- fault injection ----------------------------------------------------

/// A seeded fault schedule for a [`FaultVfs`]. `*_every` fields arm a
/// fault class: `0` disables it, `n` makes roughly every n-th candidate
/// operation fail, chosen by a seeded hash of the global operation
/// counter — deterministic for a given `(seed, plan)` but spread
/// pseudo-randomly through the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for every pseudo-random decision (fault placement and torn
    /// crash tails).
    pub seed: u64,
    /// Roughly every n-th write appends only a seeded prefix and fails
    /// with `ErrorKind::WriteZero` (0 = off).
    pub short_write_every: u64,
    /// Roughly every n-th fsync fails with `ErrorKind::Other`, leaving
    /// the durable bytes unchanged (0 = off).
    pub fail_fsync_every: u64,
    /// Roughly every n-th rename fails with `ErrorKind::Other`, leaving
    /// the live namespace unchanged (0 = off).
    pub fail_rename_every: u64,
    /// Total write budget in bytes; once exhausted every write fails
    /// with `ErrorKind::StorageFull` (`None` = unlimited).
    pub disk_capacity: Option<u64>,
    /// Crash at the operation with this zero-based index: it and every
    /// later operation fail with `ErrorKind::BrokenPipe`, and the
    /// durable image freezes as of the operations before it.
    pub crash_at_op: Option<u64>,
}

impl FaultPlan {
    /// A plan with every fault disabled (a plain in-memory disk).
    pub fn none(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            short_write_every: 0,
            fail_fsync_every: 0,
            fail_rename_every: 0,
            disk_capacity: None,
            crash_at_op: None,
        }
    }
}

/// Injected-fault hit counts, by class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultHits {
    /// Writes that appended only a prefix.
    pub short_writes: u64,
    /// Fsyncs that failed without flushing.
    pub failed_fsyncs: u64,
    /// Renames that failed in place.
    pub failed_renames: u64,
    /// Writes refused for an exhausted byte budget.
    pub enospc: u64,
    /// Operations refused because the disk crashed.
    pub crashes: u64,
}

impl FaultHits {
    /// Total injected faults across every class.
    pub fn total(&self) -> u64 {
        self.short_writes + self.failed_fsyncs + self.failed_renames + self.enospc + self.crashes
    }
}

/// Obs counter handles for injected faults (`taco_vfs_faults_total`).
struct VfsObs {
    short_writes: taco_obs::Counter,
    failed_fsyncs: taco_obs::Counter,
    failed_renames: taco_obs::Counter,
    enospc: taco_obs::Counter,
    crashes: taco_obs::Counter,
}

#[derive(Debug, Clone)]
enum NsOp {
    Rename { from: PathBuf, to: PathBuf },
    Remove { path: PathBuf },
}

struct Inner {
    /// The live namespace and content: what the running process sees.
    live: HashMap<PathBuf, Vec<u8>>,
    /// The durable image: entries and their last-synced content. A file
    /// `sync` commits content (and, for a new file, the entry); `rename`
    /// and `remove` only reach this map via `sync_parent_dir`.
    durable: HashMap<PathBuf, Vec<u8>>,
    /// Namespace ops applied live but not yet made durable by a
    /// parent-directory fsync.
    pending: Vec<NsOp>,
    plan: FaultPlan,
    ops: u64,
    written: u64,
    crashed: bool,
    hits: FaultHits,
    log: Vec<String>,
    obs: Option<VfsObs>,
}

/// The operation classes the fault scheduler distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Read,
    Create,
    Write,
    SetLen,
    Sync,
    Rename,
    Remove,
    SyncDir,
}

/// splitmix64: the repo's standard cheap deterministic mixer.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Inner {
    /// Counts the operation, fires a pending crash point, and returns
    /// the op's decision hash for fault placement.
    fn begin_op(&mut self, kind: OpKind, path: &Path) -> Result<u64, StoreError> {
        if self.crashed {
            self.hits.crashes += 1;
            return Err(StoreError::Io { kind: std::io::ErrorKind::BrokenPipe });
        }
        let op = self.ops;
        self.ops += 1;
        if self.plan.crash_at_op == Some(op) {
            self.crashed = true;
            self.hits.crashes += 1;
            self.note(op, "crash", kind, path);
            if let Some(o) = &self.obs {
                o.crashes.inc();
            }
            return Err(StoreError::Io { kind: std::io::ErrorKind::BrokenPipe });
        }
        Ok(mix(self.plan.seed ^ mix(op)))
    }

    fn note(&mut self, op: u64, fault: &str, kind: OpKind, path: &Path) {
        if self.log.len() < 10_000 {
            self.log.push(format!("op {op}: {fault} during {kind:?} of {}", path.display()));
        }
    }

    fn fires(h: u64, every: u64, salt: u64) -> bool {
        every > 0 && mix(h ^ salt).is_multiple_of(every)
    }

    /// The crash-surviving bytes for every durable entry: last-synced
    /// content plus a seeded prefix of any unsynced appended tail.
    fn crash_image(&self) -> HashMap<PathBuf, Vec<u8>> {
        let mut out = HashMap::new();
        for (path, durable) in &self.durable {
            let mut bytes = durable.clone();
            // An unsynced append may partially land: keep a seeded
            // prefix of the tail. Unsynced truncates/rewrites are lost.
            if let Some(live) = self.live.get(path) {
                if live.len() > durable.len() && live[..durable.len()] == durable[..] {
                    let extra = live.len() - durable.len();
                    let keep = (mix(self.plan.seed ^ 0xD15C ^ mix(path_hash(path)))
                        % (extra as u64 + 1)) as usize;
                    bytes.extend_from_slice(&live[durable.len()..durable.len() + keep]);
                }
            }
            out.insert(path.clone(), bytes);
        }
        out
    }
}

fn path_hash(p: &Path) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in p.as_os_str().as_encoded_bytes() {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A deterministic in-memory fault-injecting disk. Clones share the
/// same simulated disk.
#[derive(Clone)]
pub struct FaultVfs {
    inner: Arc<Mutex<Inner>>,
}

impl FaultVfs {
    /// An empty simulated disk running `plan`.
    pub fn new(plan: FaultPlan) -> FaultVfs {
        FaultVfs {
            inner: Arc::new(Mutex::new(Inner {
                live: HashMap::new(),
                durable: HashMap::new(),
                pending: Vec::new(),
                plan,
                ops: 0,
                written: 0,
                crashed: false,
                hits: FaultHits::default(),
                log: Vec::new(),
                obs: None,
            })),
        }
    }

    /// An empty fault-free in-memory disk.
    pub fn pristine(seed: u64) -> FaultVfs {
        FaultVfs::new(FaultPlan::none(seed))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Re-arms the schedule mid-run (e.g. arm a crash point after a
    /// clean build phase). The op counter keeps running.
    pub fn set_plan(&self, plan: FaultPlan) {
        self.lock().plan = plan;
    }

    /// Arms a crash at the operation with zero-based index `op` (ops
    /// before it proceed normally).
    pub fn set_crash_at(&self, op: u64) {
        self.lock().plan.crash_at_op = Some(op);
    }

    /// Total operations performed so far — the sweep bound for
    /// crash-point enumeration.
    pub fn op_count(&self) -> u64 {
        self.lock().ops
    }

    /// Whether a crash point has fired.
    pub fn crashed(&self) -> bool {
        self.lock().crashed
    }

    /// Injected-fault hit counts so far.
    pub fn hits(&self) -> FaultHits {
        self.lock().hits
    }

    /// Human-readable log of every injected fault, in order.
    pub fn fault_log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    /// A fresh fault-free disk holding exactly what this disk's durable
    /// image holds — what a reopen after power loss would find. Works
    /// whether or not a crash point has fired.
    pub fn reopen_from_crash(&self) -> FaultVfs {
        let (image, seed) = {
            let inner = self.lock();
            (inner.crash_image(), inner.plan.seed)
        };
        let fresh = FaultVfs::pristine(mix(seed));
        {
            let mut inner = fresh.lock();
            for (path, bytes) in image {
                inner.live.insert(path.clone(), bytes.clone());
                inner.durable.insert(path, bytes);
            }
        }
        fresh
    }

    /// Registers `taco_vfs_faults_total{kind="…"}` counters; every
    /// subsequently injected fault bumps its class counter.
    pub fn attach_obs(&self, obs: &taco_obs::Obs) {
        let m = &obs.metrics;
        self.lock().obs = Some(VfsObs {
            short_writes: m.counter_with("taco_vfs_faults_total", "kind=\"short_write\""),
            failed_fsyncs: m.counter_with("taco_vfs_faults_total", "kind=\"fsync\""),
            failed_renames: m.counter_with("taco_vfs_faults_total", "kind=\"rename\""),
            enospc: m.counter_with("taco_vfs_faults_total", "kind=\"enospc\""),
            crashes: m.counter_with("taco_vfs_faults_total", "kind=\"crash\""),
        });
    }
}

struct FaultVfsFile {
    inner: Arc<Mutex<Inner>>,
    path: PathBuf,
}

impl FaultVfsFile {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl VfsFile for FaultVfsFile {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        let mut g = self.lock();
        let h = g.begin_op(OpKind::Write, &self.path)?;
        if let Some(cap) = g.plan.disk_capacity {
            if g.written.saturating_add(buf.len() as u64) > cap {
                g.hits.enospc += 1;
                let op = g.ops - 1;
                g.note(op, "enospc", OpKind::Write, &self.path);
                if let Some(o) = &g.obs {
                    o.enospc.inc();
                }
                return Err(StoreError::Io { kind: std::io::ErrorKind::StorageFull });
            }
        }
        let short = Inner::fires(h, g.plan.short_write_every, 0x5707) && !buf.is_empty();
        let take = if short { (mix(h) % buf.len() as u64) as usize } else { buf.len() };
        g.written += take as u64;
        let file = g.live.entry(self.path.clone()).or_default();
        file.extend_from_slice(&buf[..take]);
        if short {
            g.hits.short_writes += 1;
            let op = g.ops - 1;
            g.note(op, "short write", OpKind::Write, &self.path);
            if let Some(o) = &g.obs {
                o.short_writes.inc();
            }
            return Err(StoreError::Io { kind: std::io::ErrorKind::WriteZero });
        }
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> Result<(), StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::SetLen, &self.path)?;
        let file = g.live.entry(self.path.clone()).or_default();
        file.resize(len as usize, 0);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        let mut g = self.lock();
        let h = g.begin_op(OpKind::Sync, &self.path)?;
        if Inner::fires(h, g.plan.fail_fsync_every, 0xF5BC) {
            g.hits.failed_fsyncs += 1;
            let op = g.ops - 1;
            g.note(op, "failed fsync", OpKind::Sync, &self.path);
            if let Some(o) = &g.obs {
                o.failed_fsyncs.inc();
            }
            return Err(StoreError::Io { kind: std::io::ErrorKind::Other });
        }
        if let Some(live) = g.live.get(&self.path) {
            let bytes = live.clone();
            g.durable.insert(self.path.clone(), bytes);
        }
        Ok(())
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> Result<Vec<u8>, StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::Read, path)?;
        g.live.get(path).cloned().ok_or(StoreError::Io { kind: std::io::ErrorKind::NotFound })
    }

    fn create(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::Create, path)?;
        // A truncating create only touches the live view: the durable
        // image keeps the old content until the next successful file
        // sync — a crash right after the create still finds the old
        // bytes, exactly like an unsynced truncate.
        g.live.insert(path.to_path_buf(), Vec::new());
        drop(g);
        Ok(Box::new(FaultVfsFile { inner: Arc::clone(&self.inner), path: path.to_path_buf() }))
    }

    fn open_append(&self, path: &Path) -> Result<Box<dyn VfsFile>, StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::Read, path)?;
        if !g.live.contains_key(path) {
            return Err(StoreError::Io { kind: std::io::ErrorKind::NotFound });
        }
        drop(g);
        Ok(Box::new(FaultVfsFile { inner: Arc::clone(&self.inner), path: path.to_path_buf() }))
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().live.contains_key(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), StoreError> {
        let mut g = self.lock();
        let h = g.begin_op(OpKind::Rename, from)?;
        if Inner::fires(h, g.plan.fail_rename_every, 0x4EAE) {
            g.hits.failed_renames += 1;
            let op = g.ops - 1;
            g.note(op, "failed rename", OpKind::Rename, from);
            if let Some(o) = &g.obs {
                o.failed_renames.inc();
            }
            return Err(StoreError::Io { kind: std::io::ErrorKind::Other });
        }
        let Some(bytes) = g.live.remove(from) else {
            return Err(StoreError::Io { kind: std::io::ErrorKind::NotFound });
        };
        // Live view: the rename happens now. Durable view: only at the
        // next `sync_parent_dir` — until then a crash still shows the
        // old entries under the old names.
        g.live.insert(to.to_path_buf(), bytes);
        g.pending.push(NsOp::Rename { from: from.to_path_buf(), to: to.to_path_buf() });
        Ok(())
    }

    fn remove(&self, path: &Path) -> Result<(), StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::Remove, path)?;
        if g.live.remove(path).is_none() {
            return Err(StoreError::Io { kind: std::io::ErrorKind::NotFound });
        }
        g.pending.push(NsOp::Remove { path: path.to_path_buf() });
        Ok(())
    }

    fn sync_parent_dir(&self, path: &Path) -> Result<(), StoreError> {
        let mut g = self.lock();
        g.begin_op(OpKind::SyncDir, path)?;
        let dir = path.parent().map(Path::to_path_buf);
        let pending = std::mem::take(&mut g.pending);
        let mut kept = Vec::new();
        for op in pending {
            let in_dir = |p: &Path| p.parent().map(Path::to_path_buf) == dir;
            match op {
                NsOp::Rename { from, to } if in_dir(&from) || in_dir(&to) => {
                    // The renamed inode's durable *content* is whatever
                    // its last file sync committed (under the old name).
                    if let Some(bytes) = g.durable.remove(&from) {
                        g.durable.insert(to, bytes);
                    } else {
                        g.durable.remove(&to);
                    }
                }
                NsOp::Remove { path } if in_dir(&path) => {
                    g.durable.remove(&path);
                }
                other => kept.push(other),
            }
        }
        g.pending = kept;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    fn write_sync(vfs: &FaultVfs, path: &Path, bytes: &[u8]) {
        let mut f = vfs.create(path).unwrap();
        f.write_all(bytes).unwrap();
        f.sync().unwrap();
    }

    #[test]
    fn synced_bytes_survive_a_crash_unsynced_tails_may_tear() {
        let vfs = FaultVfs::pristine(7);
        let mut f = vfs.create(&p("a")).unwrap();
        f.write_all(b"durable").unwrap();
        f.sync().unwrap();
        f.write_all(b"-unsynced-tail").unwrap();
        drop(f);
        let back = vfs.reopen_from_crash();
        let bytes = back.read(&p("a")).unwrap();
        assert!(bytes.starts_with(b"durable"));
        assert!(bytes.len() <= b"durable-unsynced-tail".len());
        assert_eq!(&bytes[..], &b"durable-unsynced-tail"[..bytes.len()]);
    }

    #[test]
    fn rename_is_lost_without_a_directory_sync() {
        let vfs = FaultVfs::pristine(3);
        write_sync(&vfs, &p("snap"), b"old");
        vfs.sync_parent_dir(&p("snap")).unwrap();
        write_sync(&vfs, &p("snap.tmp"), b"new-longer");
        vfs.rename(&p("snap.tmp"), &p("snap")).unwrap();
        // Live view sees the rename immediately.
        assert_eq!(vfs.read(&p("snap")).unwrap(), b"new-longer");
        assert!(!vfs.exists(&p("snap.tmp")));
        // ...but a crash before the dir sync reveals the old entry.
        let crashed = vfs.reopen_from_crash();
        assert_eq!(crashed.read(&p("snap")).unwrap(), b"old");
        assert_eq!(crashed.read(&p("snap.tmp")).unwrap(), b"new-longer");
        // After the dir sync the rename is durable.
        vfs.sync_parent_dir(&p("snap")).unwrap();
        let synced = vfs.reopen_from_crash();
        assert_eq!(synced.read(&p("snap")).unwrap(), b"new-longer");
        assert!(!synced.exists(&p("snap.tmp")));
    }

    #[test]
    fn failed_fsync_leaves_durable_bytes_unchanged() {
        let plan = FaultPlan { fail_fsync_every: 1, ..FaultPlan::none(11) };
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create(&p("w")).unwrap();
        f.write_all(b"data").unwrap();
        assert!(matches!(f.sync(), Err(StoreError::Io { .. })));
        assert_eq!(vfs.hits().failed_fsyncs, 1);
        // Nothing was ever durably synced: the entry does not survive.
        assert!(vfs.reopen_from_crash().read(&p("w")).is_err());
    }

    #[test]
    fn crash_point_freezes_the_disk_and_poisons_later_ops() {
        let vfs = FaultVfs::pristine(5);
        write_sync(&vfs, &p("x"), b"one");
        vfs.sync_parent_dir(&p("x")).unwrap();
        let before = vfs.op_count();
        vfs.set_crash_at(before);
        assert!(matches!(vfs.read(&p("x")), Err(StoreError::Io { .. })));
        assert!(vfs.crashed());
        assert!(vfs.create(&p("y")).is_err());
        assert_eq!(vfs.reopen_from_crash().read(&p("x")).unwrap(), b"one");
    }

    #[test]
    fn enospc_fires_after_the_byte_budget() {
        let plan = FaultPlan { disk_capacity: Some(6), ..FaultPlan::none(1) };
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create(&p("z")).unwrap();
        f.write_all(b"1234").unwrap();
        let err = f.write_all(b"567").unwrap_err();
        assert_eq!(err, StoreError::Io { kind: std::io::ErrorKind::StorageFull });
        assert_eq!(vfs.hits().enospc, 1);
        assert!(!vfs.fault_log().is_empty());
    }

    #[test]
    fn short_writes_keep_a_prefix_and_are_typed() {
        let plan = FaultPlan { short_write_every: 1, ..FaultPlan::none(42) };
        let vfs = FaultVfs::new(plan);
        let mut f = vfs.create(&p("s")).unwrap();
        let err = f.write_all(b"abcdefgh").unwrap_err();
        assert_eq!(err, StoreError::Io { kind: std::io::ErrorKind::WriteZero });
        assert_eq!(vfs.hits().short_writes, 1);
        vfs.set_plan(FaultPlan::none(42));
        let live = {
            let mut f2 = vfs.open_append(&p("s")).unwrap();
            f2.sync().unwrap();
            vfs.read(&p("s")).unwrap()
        };
        assert!(live.len() < 8);
        assert_eq!(&live[..], &b"abcdefgh"[..live.len()]);
    }

    #[test]
    fn unsynced_truncate_is_lost_on_crash() {
        let vfs = FaultVfs::pristine(9);
        write_sync(&vfs, &p("t"), b"full-content");
        vfs.sync_parent_dir(&p("t")).unwrap();
        let mut f = vfs.open_append(&p("t")).unwrap();
        f.set_len(4).unwrap();
        drop(f);
        assert_eq!(vfs.read(&p("t")).unwrap(), b"full");
        // The truncate never synced: the crash image has the old bytes.
        assert_eq!(vfs.reopen_from_crash().read(&p("t")).unwrap(), b"full-content");
    }

    #[test]
    fn determinism_same_seed_same_outcome() {
        let run = |seed| {
            let plan = FaultPlan { short_write_every: 3, ..FaultPlan::none(seed) };
            let vfs = FaultVfs::new(plan);
            let mut out = Vec::new();
            for i in 0..20u8 {
                let path = p(&format!("f{}", i % 4));
                let mut f = vfs.create(&path).unwrap();
                let r = f.write_all(&[i; 16]);
                let _ = f.sync();
                out.push(r.is_ok());
            }
            (out, vfs.hits())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, run(78).0);
    }
}
