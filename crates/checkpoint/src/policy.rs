//! Checkpoint cadence, atomic persistence, and keep-K rotation.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::codec::DecodeError;
use crate::snapshot::Snapshot;

/// Environment variable naming the checkpoint run directory, consistent with
/// `SPARSETRAIN_ENGINE` / `SPARSETRAIN_PLAN`.
pub const CHECKPOINT_DIR_ENV: &str = "SPARSETRAIN_CHECKPOINT_DIR";

/// File extension for snapshot files.
pub const SNAPSHOT_EXT: &str = "stck";

/// When and where to write checkpoints.
///
/// Cadence is expressed in optimizer steps and/or completed epochs; either (or both) may be
/// set. `keep` bounds how many snapshot files survive rotation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Run directory snapshots are written into (created on first use).
    pub dir: PathBuf,
    /// Write a snapshot every N optimizer steps.
    pub every_steps: Option<u64>,
    /// Write a snapshot every N completed epochs.
    pub every_epochs: Option<u64>,
    /// Keep at most this many snapshot files (oldest deleted first). 0 means keep all.
    pub keep: usize,
}

impl CheckpointPolicy {
    /// Snapshot after every `n` completed epochs into `dir`, keeping the 3 most recent files.
    pub fn every_epochs(dir: impl Into<PathBuf>, n: u64) -> Self {
        assert!(n > 0, "epoch cadence must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps: None,
            every_epochs: Some(n),
            keep: 3,
        }
    }

    /// Snapshot after every `n` optimizer steps into `dir`, keeping the 3 most recent files.
    pub fn every_steps(dir: impl Into<PathBuf>, n: u64) -> Self {
        assert!(n > 0, "step cadence must be positive");
        CheckpointPolicy {
            dir: dir.into(),
            every_steps: Some(n),
            every_epochs: None,
            keep: 3,
        }
    }

    /// Override the keep-K rotation bound.
    pub fn with_keep(mut self, keep: usize) -> Self {
        self.keep = keep;
        self
    }

    /// Build a per-epoch policy from [`CHECKPOINT_DIR_ENV`], if set (empty value = unset).
    pub fn from_env() -> Option<Self> {
        match std::env::var(CHECKPOINT_DIR_ENV) {
            Ok(dir) if !dir.is_empty() => Some(CheckpointPolicy::every_epochs(dir, 1)),
            _ => None,
        }
    }

    /// Whether a snapshot is due after `steps` total optimizer steps.
    pub fn step_due(&self, steps: u64) -> bool {
        matches!(self.every_steps, Some(n) if steps > 0 && steps.is_multiple_of(n))
    }

    /// Whether a snapshot is due after `epochs` completed epochs.
    pub fn epoch_due(&self, epochs: u64) -> bool {
        matches!(self.every_epochs, Some(n) if epochs > 0 && epochs.is_multiple_of(n))
    }
}

/// Errors raised while loading a snapshot file. Both variants name the
/// offending file, so a recovery scan can report exactly which snapshot it
/// skipped and why.
#[derive(Debug)]
pub enum LoadError {
    /// The file could not be read.
    Io {
        /// The snapshot file that failed to read.
        path: PathBuf,
        /// The underlying I/O error.
        error: io::Error,
    },
    /// The bytes did not parse as a snapshot.
    Decode {
        /// The snapshot file that failed to decode.
        path: PathBuf,
        /// The typed decode failure.
        error: DecodeError,
    },
}

impl LoadError {
    /// The snapshot file this error is about.
    pub fn path(&self) -> &Path {
        match self {
            LoadError::Io { path, .. } | LoadError::Decode { path, .. } => path,
        }
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io { path, error } => {
                write!(f, "checkpoint read failed for {}: {error}", path.display())
            }
            LoadError::Decode { path, error } => {
                write!(f, "checkpoint decode failed for {}: {error}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadError {}

/// Writes snapshots atomically (write `.tmp`, fsync, rename) and rotates old files.
///
/// ```
/// use sparsetrain_checkpoint::{
///     CheckpointManager, CheckpointPolicy, OptimizerState, RunPosition, Snapshot,
/// };
///
/// let dir = std::env::temp_dir().join(format!("stck-doctest-{}", std::process::id()));
/// let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(2))?;
/// let snap = Snapshot {
///     position: RunPosition { seed: 1, epoch: 0, step: 0, steps_into_epoch: 0 },
///     shuffle_rng: [0; 4],
///     plan: None,
///     optimizer: OptimizerState { lr: 0.1, velocities: vec![] },
///     layers: vec![],
/// };
/// let path = mgr.save(&snap)?;
/// assert_eq!(sparsetrain_checkpoint::load(&path)?.position.seed, 1);
/// # std::fs::remove_dir_all(&dir).ok();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CheckpointManager {
    policy: CheckpointPolicy,
    written: Vec<PathBuf>,
}

impl CheckpointManager {
    /// Create the run directory if needed, sweep any `.tmp` files a crashed predecessor left
    /// between write and rename, and adopt the snapshot files already present (so rotation
    /// keeps working across resumed processes).
    pub fn new(policy: CheckpointPolicy) -> io::Result<Self> {
        fs::create_dir_all(&policy.dir)?;
        sweep_orphaned_tmp(&policy.dir)?;
        let mut written = snapshot_files(&policy.dir)?;
        sort_chronologically(&mut written);
        Ok(CheckpointManager { policy, written })
    }

    /// The policy this manager enforces.
    pub fn policy(&self) -> &CheckpointPolicy {
        &self.policy
    }

    /// Encode and persist `snap` atomically, then rotate down to `keep` files.
    /// Returns the final snapshot path.
    pub fn save(&mut self, snap: &Snapshot) -> io::Result<PathBuf> {
        let mut bytes = snap
            .encode()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        // Fault seams: a write-error fault fails the save before anything hits
        // disk (an ENOSPC-style transient); a torn-write fault persists only a
        // prefix but still completes the rename, leaving a corrupt final file
        // for recovery scans to detect and skip.
        match sparsetrain_faults::on_checkpoint_write() {
            Some(sparsetrain_faults::WriteFault::Error) => {
                return Err(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected checkpoint write failure (ENOSPC)",
                ));
            }
            Some(sparsetrain_faults::WriteFault::Torn) => {
                let half = bytes.len() / 2;
                bytes.truncate(half);
            }
            None => {}
        }
        let name = format!(
            "ckpt-e{:05}-s{:09}.{SNAPSHOT_EXT}",
            snap.position.epoch, snap.position.step
        );
        let path = self.policy.dir.join(&name);
        let tmp = self.policy.dir.join(format!("{name}.tmp"));
        {
            let mut file = fs::File::create(&tmp)?;
            io::Write::write_all(&mut file, &bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &path)?;
        // The rename is only durable once the directory entry itself is on disk.
        sync_dir(&self.policy.dir)?;
        if !self.written.contains(&path) {
            self.written.push(path.clone());
        }
        self.rotate()?;
        Ok(path)
    }

    fn rotate(&mut self) -> io::Result<()> {
        if self.policy.keep == 0 {
            return Ok(());
        }
        while self.written.len() > self.policy.keep {
            let old = self.written.remove(0);
            match fs::remove_file(&old) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Paths of the snapshot files this manager currently tracks, oldest first.
    pub fn files(&self) -> &[PathBuf] {
        &self.written
    }
}

/// Most recent snapshot file in `dir`, by numeric `(epoch, step)` position, if any.
pub fn latest_in(dir: &Path) -> io::Result<Option<PathBuf>> {
    let mut files = snapshot_files(dir)?;
    sort_chronologically(&mut files);
    Ok(files.pop())
}

/// Read and decode a snapshot file.
pub fn load(path: &Path) -> Result<Snapshot, LoadError> {
    let mut bytes = fs::read(path).map_err(|error| LoadError::Io {
        path: path.to_path_buf(),
        error,
    })?;
    // Fault seams: a short-read fault drops the second half of the bytes; a
    // bit-flip fault corrupts one seeded bit. Both must surface as typed
    // decode errors, never panics.
    match sparsetrain_faults::on_checkpoint_read() {
        Some(sparsetrain_faults::ReadFault::Short) => {
            let half = bytes.len() / 2;
            bytes.truncate(half);
        }
        Some(sparsetrain_faults::ReadFault::BitFlip { salt }) => {
            sparsetrain_faults::flip_bit(&mut bytes, salt);
        }
        None => {}
    }
    Snapshot::decode(&bytes).map_err(|error| LoadError::Decode {
        path: path.to_path_buf(),
        error,
    })
}

/// Result of [`scan_latest_valid`]: the newest snapshot that actually
/// decodes, plus a typed record of every newer file the scan had to skip.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Newest decodable snapshot, with its path; `None` when the directory
    /// holds no valid snapshot at all.
    pub latest_valid: Option<(PathBuf, Snapshot)>,
    /// Load failures for the newer files skipped on the way (newest first),
    /// each naming its file.
    pub skipped: Vec<LoadError>,
}

/// Scan `dir` newest-first for a snapshot that loads, skipping corrupt,
/// truncated, or unreadable files instead of aborting — a crashed run's
/// torn final write must not block resuming from the older valid snapshot
/// behind it. Only directory enumeration itself can fail.
pub fn scan_latest_valid(dir: &Path) -> io::Result<ScanOutcome> {
    let mut skipped = Vec::new();
    for path in snapshot_files_in(dir)?.into_iter().rev() {
        match load(&path) {
            Ok(snap) => {
                return Ok(ScanOutcome {
                    latest_valid: Some((path, snap)),
                    skipped,
                })
            }
            Err(e) => skipped.push(e),
        }
    }
    Ok(ScanOutcome {
        latest_valid: None,
        skipped,
    })
}

/// Numeric `(epoch, step)` of a `ckpt-e{epoch}-s{step}.stck` path, if it matches the scheme.
fn parse_position(path: &Path) -> Option<(u64, u64)> {
    let stem = path.file_stem()?.to_str()?;
    let rest = stem.strip_prefix("ckpt-e")?;
    let (epoch, step) = rest.split_once("-s")?;
    Some((epoch.parse().ok()?, step.parse().ok()?))
}

/// Oldest-first by numeric `(epoch, step)` — NOT lexicographically: once a step outgrows the
/// zero-padded `{:09}` width, `1_000_000_000` sorts before `999_999_999` as a string. Files
/// outside the naming scheme sort first (no position), ties fall back to the path.
fn sort_chronologically(files: &mut [PathBuf]) {
    files.sort_by(|a, b| (parse_position(a), a).cmp(&(parse_position(b), b)));
}

/// Remove `*.{SNAPSHOT_EXT}.tmp` files a crashed process left between write and rename. Only
/// this manager's own naming scheme is touched; a concurrent writer renaming a swept file away
/// is tolerated.
fn sweep_orphaned_tmp(dir: &Path) -> io::Result<()> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    let suffix = format!(".{SNAPSHOT_EXT}.tmp");
    for entry in entries {
        let path = entry?.path();
        let is_orphan = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.ends_with(&suffix));
        if is_orphan {
            match fs::remove_file(&path) {
                Ok(()) => {}
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => return Err(e),
            }
        }
    }
    Ok(())
}

/// Flush a directory's entry table so a preceding rename survives power loss.
#[cfg(unix)]
fn sync_dir(dir: &Path) -> io::Result<()> {
    fs::File::open(dir)?.sync_all()
}

/// Directories cannot be opened for syncing on this platform; renames stay
/// atomic-but-not-durable, as before.
#[cfg(not(unix))]
fn sync_dir(_dir: &Path) -> io::Result<()> {
    Ok(())
}

/// Snapshot files in `dir`, oldest first by numeric `(epoch, step)`.
pub fn snapshot_files_in(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = snapshot_files(dir)?;
    sort_chronologically(&mut files);
    Ok(files)
}

fn snapshot_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    for entry in entries {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) == Some(SNAPSHOT_EXT) {
            out.push(path);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{OptimizerState, RunPosition};

    fn tiny_snapshot(epoch: u64, step: u64) -> Snapshot {
        Snapshot {
            position: RunPosition {
                seed: 1,
                epoch,
                step,
                steps_into_epoch: 0,
            },
            shuffle_rng: [1, 2, 3, 4],
            plan: None,
            optimizer: OptimizerState {
                lr: 0.1,
                velocities: vec![],
            },
            layers: vec![],
        }
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sparsetrain-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// The fault plan is process-global: a test that installs one and any
    /// test that saves or loads (and would consume its triggers) must not
    /// overlap. Every such test holds this guard (tolerating poison from an
    /// unrelated panic).
    fn fault_test_guard() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn cadence_checks() {
        let p = CheckpointPolicy::every_steps("/tmp/x", 10);
        assert!(!p.step_due(0));
        assert!(!p.step_due(9));
        assert!(p.step_due(10));
        assert!(p.step_due(20));
        assert!(!p.epoch_due(1));

        let p = CheckpointPolicy::every_epochs("/tmp/x", 2);
        assert!(!p.epoch_due(0));
        assert!(!p.epoch_due(1));
        assert!(p.epoch_due(2));
        assert!(!p.step_due(2));
    }

    #[test]
    #[should_panic(expected = "cadence must be positive")]
    fn zero_cadence_panics() {
        let _ = CheckpointPolicy::every_epochs("/tmp/x", 0);
    }

    #[test]
    fn save_rotate_and_reload() {
        let _g = fault_test_guard();
        let dir = temp_dir("rotate");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        for epoch in 1..=4 {
            mgr.save(&tiny_snapshot(epoch, epoch * 10)).unwrap();
        }
        assert_eq!(mgr.files().len(), 2, "rotation should keep only 2 files");
        let latest = latest_in(&dir).unwrap().expect("a snapshot should exist");
        assert!(latest.to_string_lossy().contains("e00004"));
        let snap = load(&latest).unwrap();
        assert_eq!(snap.position.epoch, 4);
        // No .tmp leftovers after atomic renames.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("tmp"))
            .collect();
        assert!(leftovers.is_empty(), "tmp files left behind: {leftovers:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manager_adopts_existing_files() {
        let _g = fault_test_guard();
        let dir = temp_dir("adopt");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        mgr.save(&tiny_snapshot(2, 20)).unwrap();
        drop(mgr);
        // A fresh manager (simulating a resumed process) must rotate the old files too.
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1).with_keep(2)).unwrap();
        assert_eq!(mgr.files().len(), 2);
        mgr.save(&tiny_snapshot(3, 30)).unwrap();
        assert_eq!(mgr.files().len(), 2);
        let names: Vec<_> = mgr
            .files()
            .iter()
            .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
            .collect();
        assert!(
            names[0].contains("e00002") && names[1].contains("e00003"),
            "kept: {names:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn latest_in_orders_numerically_across_padding_overflow() {
        let _g = fault_test_guard();
        // Regression: step 1_000_000_000 outgrows the `{:09}` zero padding, so a
        // lexicographic sort ranked it *before* 999_999_999 and resume picked the older file.
        let dir = temp_dir("overflow");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 999_999_999)).unwrap();
        mgr.save(&tiny_snapshot(1, 1_000_000_000)).unwrap();
        let latest = latest_in(&dir).unwrap().expect("snapshots exist");
        assert_eq!(load(&latest).unwrap().position.step, 1_000_000_000);

        // Epoch overflow across the `{:05}` width, same story.
        mgr.save(&tiny_snapshot(99_999, 5)).unwrap();
        mgr.save(&tiny_snapshot(100_000, 1)).unwrap();
        let latest = latest_in(&dir).unwrap().expect("snapshots exist");
        assert_eq!(load(&latest).unwrap().position.epoch, 100_000);

        // Rotation on a fresh manager must also drop the numerically-oldest file first.
        let mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(2)).unwrap();
        let first = mgr.files().first().and_then(|p| parse_position(p)).unwrap();
        assert_eq!(
            first,
            (1, 999_999_999),
            "oldest must sort first: {:?}",
            mgr.files()
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manager_sweeps_orphaned_tmp_files() {
        // Regression: a crash between write and rename stranded `*.stck.tmp` files forever.
        let dir = temp_dir("sweep");
        fs::create_dir_all(&dir).unwrap();
        let orphan = dir.join(format!("ckpt-e00001-s000000010.{SNAPSHOT_EXT}.tmp"));
        fs::write(&orphan, b"half-written").unwrap();
        let unrelated = dir.join("notes.tmp");
        fs::write(&unrelated, b"keep me").unwrap();

        let mgr = CheckpointManager::new(CheckpointPolicy::every_epochs(&dir, 1)).unwrap();
        assert!(!orphan.exists(), "orphaned snapshot tmp must be swept");
        assert!(unrelated.exists(), "files outside the naming scheme must survive");
        assert!(mgr.files().is_empty(), "a tmp file is not a snapshot");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_reports_typed_errors_naming_the_file() {
        let _g = fault_test_guard();
        let dir = temp_dir("load-errors");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.stck");
        fs::write(&path, b"not a checkpoint").unwrap();
        match load(&path) {
            Err(
                e @ LoadError::Decode {
                    error: DecodeError::BadMagic,
                    ..
                },
            ) => {
                assert_eq!(e.path(), path.as_path());
                assert!(e.to_string().contains("bad.stck"), "{e}");
            }
            other => panic!("expected BadMagic, got {other:?}"),
        }
        match load(&dir.join("absent.stck")) {
            Err(e @ LoadError::Io { .. }) => {
                assert!(e.to_string().contains("absent.stck"), "{e}");
            }
            other => panic!("expected Io error, got {other:?}"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_truncated_newest_and_resumes_from_older_valid() {
        let _g = fault_test_guard();
        // Regression: a torn final write must not block recovery — the scan
        // has to report the corrupt newest file by name and fall back to the
        // valid snapshot behind it.
        let dir = temp_dir("scan-truncated");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        let newest = mgr.save(&tiny_snapshot(2, 20)).unwrap();
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();

        let outcome = scan_latest_valid(&dir).unwrap();
        let (path, snap) = outcome.latest_valid.expect("older snapshot is valid");
        assert_eq!(snap.position.epoch, 1);
        assert!(path.to_string_lossy().contains("e00001"));
        assert_eq!(outcome.skipped.len(), 1);
        assert_eq!(outcome.skipped[0].path(), newest.as_path());
        assert!(
            matches!(outcome.skipped[0], LoadError::Decode { .. }),
            "truncation must surface as a typed decode error: {:?}",
            outcome.skipped[0]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_skips_zero_length_newest() {
        let _g = fault_test_guard();
        let dir = temp_dir("scan-empty");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        mgr.save(&tiny_snapshot(1, 10)).unwrap();
        fs::write(dir.join("ckpt-e00002-s000000020.stck"), b"").unwrap();

        let outcome = scan_latest_valid(&dir).unwrap();
        let (_, snap) = outcome.latest_valid.expect("older snapshot is valid");
        assert_eq!(snap.position.epoch, 1);
        assert_eq!(outcome.skipped.len(), 1);
        assert!(outcome.skipped[0].path().to_string_lossy().contains("e00002"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_with_no_valid_snapshot_reports_every_skip() {
        let _g = fault_test_guard();
        let dir = temp_dir("scan-none");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-e00001-s000000010.stck"), b"garbage").unwrap();
        fs::write(dir.join("ckpt-e00002-s000000020.stck"), b"").unwrap();
        let outcome = scan_latest_valid(&dir).unwrap();
        assert!(outcome.latest_valid.is_none());
        assert_eq!(outcome.skipped.len(), 2, "{:?}", outcome.skipped);
        // An empty directory scans clean.
        let empty = temp_dir("scan-void");
        let outcome = scan_latest_valid(&empty).unwrap();
        assert!(outcome.latest_valid.is_none() && outcome.skipped.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_write_faults_tear_and_fail_saves() {
        let _g = fault_test_guard();
        let dir = temp_dir("fault-write");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        sparsetrain_faults::install(
            sparsetrain_faults::FaultPlan::new(5)
                .with(
                    sparsetrain_faults::Site::CkptWriteError,
                    sparsetrain_faults::Trigger::At(0),
                )
                .with(
                    sparsetrain_faults::Site::CkptWriteTorn,
                    sparsetrain_faults::Trigger::At(1),
                ),
        );
        let err = mgr
            .save(&tiny_snapshot(1, 10))
            .expect_err("write-error fault fails the save");
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(latest_in(&dir).unwrap().is_none(), "nothing hit disk");

        let torn = mgr
            .save(&tiny_snapshot(2, 20))
            .expect("torn write still renames into place");
        assert!(matches!(load(&torn), Err(LoadError::Decode { .. })));

        let good = mgr.save(&tiny_snapshot(3, 30)).expect("faults exhausted");
        sparsetrain_faults::clear();
        assert_eq!(load(&good).unwrap().position.epoch, 3);
        // The recovery scan rides over the torn file.
        let outcome = scan_latest_valid(&dir).unwrap();
        assert_eq!(outcome.latest_valid.unwrap().1.position.epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_read_faults_surface_as_decode_errors() {
        let _g = fault_test_guard();
        let dir = temp_dir("fault-read");
        let mut mgr = CheckpointManager::new(CheckpointPolicy::every_steps(&dir, 1).with_keep(0)).unwrap();
        let path = mgr.save(&tiny_snapshot(1, 10)).unwrap();
        sparsetrain_faults::install(
            sparsetrain_faults::FaultPlan::new(6)
                .with(
                    sparsetrain_faults::Site::CkptReadShort,
                    sparsetrain_faults::Trigger::At(0),
                )
                .with(
                    sparsetrain_faults::Site::CkptReadFlip,
                    sparsetrain_faults::Trigger::At(1),
                ),
        );
        assert!(matches!(load(&path), Err(LoadError::Decode { .. })), "short read");
        // The format has no checksum, so a flipped bit either fails to decode
        // or decodes to a *different* snapshot — never silently round-trips.
        match load(&path) {
            Err(LoadError::Decode { .. }) => {}
            Ok(snap) => assert_ne!(snap, tiny_snapshot(1, 10), "flip must corrupt something"),
            other => panic!("unexpected: {other:?}"),
        }
        sparsetrain_faults::clear();
        assert_eq!(load(&path).unwrap().position.epoch, 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
