//! # Crash-safe persistent rule store
//!
//! The analyze-once/distribute-many deployment story made durable: rules
//! are computed once per module build and served to every later run from
//! an on-disk, content-addressed store keyed by the JRUL v2 module
//! fingerprint. The store's contract is the robustness invariant of the
//! whole service layer:
//!
//! * **never wrong bytes** — every entry is wrapped in a checksummed
//!   envelope ([`StoreEntry`]) verified on every load; a corrupt entry is
//!   quarantined and reported as a miss (the caller transparently
//!   re-analyzes), never served;
//! * **never a torn commit** — every write goes through the atomic
//!   temp+rename writer ([`atomic::write_atomic`]) under a single-record
//!   write journal; an interrupted commit is detected at the next
//!   [`RuleStore::open`] and rolled back;
//! * **never a crash** — all failures surface as typed [`StoreError`]s;
//!   transient I/O errors are absorbed by a bounded number of immediate
//!   retries ([`RetryPolicy`]).
//!
//! On-disk layout:
//!
//! ```text
//! <root>/
//!   journal                 # JJRN intent record, present only mid-commit
//!   entries/<addr16>.jse    # JSTE envelopes, content-addressed by key hash
//!   quarantine/<name>.<n>   # corrupt entries, kept for forensics
//! ```
//!
//! Every failure path is observable: [`StoreStats`] counts hits,
//! misses, corrupt entries, recoveries and retries (`janitizer-eval`
//! prints them on its `store:` line), quarantined bytes are kept for
//! forensics, and quarantines and recoveries are recorded by the flight
//! recorder handed to [`RuleStore::open_with`].

use janitizer_telemetry::flight::Flight;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub use janitizer_obj::FormatError;

pub mod atomic;
mod format;

pub use format::{
    JournalRecord, StoreEntry, StoreKey, ENTRY_MAGIC, ENTRY_VERSION, JOURNAL_MAGIC, JOURNAL_VERSION,
};

/// Every way a store operation can fail. Corrupt *content* is not an
/// error at the [`RuleStore::load`] API: it is quarantined and reported
/// as a miss, because the caller can always re-analyze — only I/O the
/// retry schedule could not absorb surfaces here.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StoreError {
    /// An I/O operation failed after exhausting the retry schedule.
    Io {
        /// Which store operation failed.
        op: &'static str,
        /// The underlying error kind.
        kind: io::ErrorKind,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, kind } => write!(f, "store {op} failed: {kind:?}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Bounded, immediate retry for transient store I/O.
///
/// The schedule is wall-clock-free: a failed attempt is retried at once,
/// so tests and replay runs are exact. `attempts` bounds the *extra*
/// tries after the first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (0 = fail fast).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy { attempts: 3 }
    }
}

/// Injectable failure plan, the store-level analogue of the evaluation's
/// `--inject-faults`: deterministic I/O failures for tests and the CI
/// crash-recovery smoke. [`FailurePlan::default`] injects nothing.
#[derive(Clone, Copy, Debug, Default)]
pub struct FailurePlan {
    /// Fail this many physical write attempts (across all operations)
    /// with a transient error before letting writes succeed — exercises
    /// the retry schedule.
    pub transient_write_failures: u64,
    /// After this many successful entry commits, simulate a crash
    /// mid-commit: the journal intent and a torn entry file are left on
    /// disk and every later write fails. The next [`RuleStore::open`] of
    /// the directory must detect and roll the torn commit back.
    pub crash_after_commits: Option<u64>,
}

/// Counters of one store instance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries served after full verification.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries that failed verification and were quarantined.
    pub corrupt: u64,
    /// Interrupted or torn commits detected and repaired at open time.
    pub recovered: u64,
    /// Transient I/O failures absorbed by the retry schedule.
    pub retries: u64,
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    recovered: AtomicU64,
    retries: AtomicU64,
}

/// The crash-safe, content-addressed rule store. `Sync`: concurrent
/// loads and saves from many threads are safe; a per-store commit lock
/// serializes the journal protocol so at most one entry commit is in
/// flight at a time (which is what makes the single-record journal
/// sufficient).
pub struct RuleStore {
    root: PathBuf,
    retry: RetryPolicy,
    stats: Counters,
    /// Serializes the begin-journal / write-entry / commit sequence.
    commit_lock: Mutex<()>,
    /// Remaining injected transient write failures.
    transient_left: AtomicU64,
    /// Successful commits until the simulated crash (`u64::MAX` = never).
    commits_until_crash: AtomicU64,
    /// Set after the simulated crash: all writes fail, loads miss.
    poisoned: std::sync::atomic::AtomicBool,
    /// Records recoveries and trips `store-quarantine`.
    flight: Flight,
}

impl fmt::Debug for RuleStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RuleStore")
            .field("root", &self.root)
            .field("stats", &self.stats())
            .finish()
    }
}

impl RuleStore {
    /// Opens (creating if needed) the store at `root` and runs crash
    /// recovery: a pending journal record means the previous process
    /// died mid-commit, so the named entry is verified and rolled back
    /// if torn; an unreadable (torn) journal triggers a full verify
    /// scan. Either path counts into `store.recovered`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if the directory layout cannot be
    /// created or recovery I/O fails persistently.
    pub fn open(root: impl Into<PathBuf>) -> Result<RuleStore, StoreError> {
        RuleStore::open_with(
            root,
            RetryPolicy::default(),
            FailurePlan::default(),
            Flight::default(),
        )
    }

    /// [`RuleStore::open`] with an explicit retry policy and failure
    /// plan (tests, CI smokes, the `--store-kill-after` evaluation flag),
    /// recording recoveries and quarantines into `flight`.
    pub fn open_with(
        root: impl Into<PathBuf>,
        retry: RetryPolicy,
        failures: FailurePlan,
        flight: Flight,
    ) -> Result<RuleStore, StoreError> {
        let root = root.into();
        let store = RuleStore {
            root,
            retry,
            stats: Counters::default(),
            commit_lock: Mutex::new(()),
            transient_left: AtomicU64::new(failures.transient_write_failures),
            commits_until_crash: AtomicU64::new(failures.crash_after_commits.unwrap_or(u64::MAX)),
            poisoned: std::sync::atomic::AtomicBool::new(false),
            flight,
        };
        store.io_op("create-layout", || {
            std::fs::create_dir_all(store.entries_dir())?;
            std::fs::create_dir_all(store.quarantine_dir())
        })?;
        store.recover()?;
        Ok(store)
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Directory holding the content-addressed entries.
    pub fn entries_dir(&self) -> PathBuf {
        self.root.join("entries")
    }

    /// Directory holding quarantined (corrupt) entries.
    pub fn quarantine_dir(&self) -> PathBuf {
        self.root.join("quarantine")
    }

    /// Path of the write journal.
    pub fn journal_path(&self) -> PathBuf {
        self.root.join("journal")
    }

    /// Counter snapshot.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            corrupt: self.stats.corrupt.load(Ordering::Relaxed),
            recovered: self.stats.recovered.load(Ordering::Relaxed),
            retries: self.stats.retries.load(Ordering::Relaxed),
        }
    }

    /// Number of committed entries currently on disk.
    pub fn entry_count(&self) -> usize {
        std::fs::read_dir(self.entries_dir())
            .map(|it| it.filter_map(Result::ok).count())
            .unwrap_or(0)
    }

    /// On-disk quarantine usage: `(files, total bytes)`. Quarantined
    /// entries are kept for forensics, so unlike `entries/` this
    /// directory only ever grows between prunes.
    pub fn quarantine_usage(&self) -> (u64, u64) {
        let mut files = 0u64;
        let mut bytes = 0u64;
        if let Ok(it) = std::fs::read_dir(self.quarantine_dir()) {
            for e in it.filter_map(Result::ok) {
                files += 1;
                bytes += e.metadata().map(|m| m.len()).unwrap_or(0);
            }
        }
        (files, bytes)
    }

    /// Caps `quarantine/` growth: removes the oldest quarantined files
    /// until at most `limit` remain, returning how many were deleted.
    /// Age is modification time with the file name as a deterministic
    /// tie-break. Only the quarantine directory is touched — live
    /// entries under `entries/` are never candidates.
    pub fn prune_quarantine(&self, limit: usize) -> u64 {
        let Ok(it) = std::fs::read_dir(self.quarantine_dir()) else {
            return 0;
        };
        let mut files: Vec<(std::time::SystemTime, String, PathBuf)> = it
            .filter_map(Result::ok)
            .map(|e| {
                let age = e
                    .metadata()
                    .and_then(|m| m.modified())
                    .unwrap_or(std::time::SystemTime::UNIX_EPOCH);
                (age, e.file_name().to_string_lossy().into_owned(), e.path())
            })
            .collect();
        if files.len() <= limit {
            return 0;
        }
        files.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
        let excess = files.len() - limit;
        let mut removed = 0u64;
        for (_, _, path) in files.into_iter().take(excess) {
            if std::fs::remove_file(&path).is_ok() {
                removed += 1;
            }
        }
        removed
    }

    /// Runs `f` under the bounded deterministic retry schedule,
    /// counting absorbed failures into [`StoreStats::retries`].
    fn io_op<T>(
        &self,
        op: &'static str,
        mut f: impl FnMut() -> io::Result<T>,
    ) -> Result<T, StoreError> {
        let mut attempt = 0u32;
        loop {
            match f() {
                Ok(v) => return Ok(v),
                Err(_) if attempt < self.retry.attempts => {
                    attempt += 1;
                    self.stats.retries.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => {
                    return Err(StoreError::Io { op, kind: e.kind() });
                }
            }
        }
    }

    /// One physical write attempt, honouring the injected failure plan.
    fn raw_write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(io::Error::other("store crashed"));
        }
        if self
            .transient_left
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            .is_ok()
        {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected transient write failure",
            ));
        }
        atomic::write_atomic(path, bytes)
    }

    /// Looks up the verified rule bytes for `key`.
    ///
    /// `Ok(Some(bytes))` is a fully verified entry (envelope checksum and
    /// key match); `Ok(None)` is a miss — including the case where an
    /// entry existed but failed verification, in which case it has been
    /// quarantined and counted so the caller transparently re-analyzes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] only for persistent read failures.
    pub fn load(&self, key: &StoreKey) -> Result<Option<Vec<u8>>, StoreError> {
        if self.poisoned.load(Ordering::Relaxed) {
            self.stats.misses.fetch_add(1, Ordering::Relaxed);
            return Ok(None);
        }
        let name = key.entry_name();
        let path = self.entries_dir().join(&name);
        let bytes = match self.io_op("read-entry", || match std::fs::read(&path) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        })? {
            Some(b) => b,
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                return Ok(None);
            }
        };
        match StoreEntry::from_bytes(&bytes) {
            Ok(entry) if entry.key == *key => {
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Ok(Some(entry.rule_bytes))
            }
            _ => {
                // Corrupt envelope or an entry keyed for something else
                // (a store-level collision or tamper): quarantine it and
                // report a miss so the caller re-analyzes.
                self.quarantine(&name);
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                Ok(None)
            }
        }
    }

    /// Commits `rule_bytes` under `key` using the journal protocol:
    ///
    /// 1. write the journal intent record (atomic temp+rename);
    /// 2. write the entry envelope (atomic temp+rename);
    /// 3. remove the journal (the commit point).
    ///
    /// A crash anywhere in the sequence leaves a state the next
    /// [`RuleStore::open`] repairs: intent-without-entry or a torn entry
    /// rolls back; intent-with-valid-entry completes.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] if writes fail past the retry budget;
    /// the destination entry is left absent or fully valid, never torn.
    pub fn save(&self, key: &StoreKey, rule_bytes: &[u8]) -> Result<(), StoreError> {
        let name = key.entry_name();
        let entry = StoreEntry {
            key: key.clone(),
            rule_bytes: rule_bytes.to_vec(),
        };
        let entry_bytes = entry.to_bytes();
        let journal_bytes = JournalRecord {
            entry_name: name.clone(),
        }
        .to_bytes();

        let _commit = self.commit_lock.lock().unwrap_or_else(|e| e.into_inner());
        if self.poisoned.load(Ordering::Relaxed) {
            return Err(StoreError::Io {
                op: "begin-journal",
                kind: io::ErrorKind::Other,
            });
        }
        // Simulated crash: leave the journal intent plus a torn entry on
        // disk — exactly the state the recovery protocol must repair —
        // and fail every write from here on.
        // `fetch_update` yields `Err(0)` once the budget of successful
        // commits is spent: this attempt is the one that "crashes".
        if self
            .commits_until_crash
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
            == Err(0)
        {
            let _ = std::fs::write(self.journal_path(), &journal_bytes);
            let torn = &entry_bytes[..entry_bytes.len() / 2];
            let _ = std::fs::write(self.entries_dir().join(&name), torn);
            self.poisoned.store(true, Ordering::Relaxed);
            return Err(StoreError::Io {
                op: "write-entry",
                kind: io::ErrorKind::Other,
            });
        }
        self.io_op("begin-journal", || {
            self.raw_write(&self.journal_path(), &journal_bytes)
        })?;
        self.io_op("write-entry", || {
            self.raw_write(&self.entries_dir().join(&name), &entry_bytes)
        })?;
        self.io_op("commit-journal", || {
            match std::fs::remove_file(self.journal_path()) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            }
        })?;
        Ok(())
    }

    /// Moves a corrupt entry into `quarantine/` (unique numeric suffix)
    /// and counts it. Keeping the bytes makes store corruption
    /// diagnosable after the fact instead of silently destroyed.
    fn quarantine(&self, name: &str) {
        self.stats.corrupt.fetch_add(1, Ordering::Relaxed);
        self.flight.trip("store-quarantine", Some(name), 0, 0);
        let src = self.entries_dir().join(name);
        for n in 0u32.. {
            let dst = self.quarantine_dir().join(format!("{name}.{n}"));
            if dst.exists() {
                continue;
            }
            if std::fs::rename(&src, &dst).is_ok() {
                return;
            }
            break;
        }
        // Rename failed (e.g. quarantine dir unlinked): last resort is
        // removal, so the corrupt bytes can never be served.
        let _ = std::fs::remove_file(&src);
    }

    /// Verifies one on-disk entry file: readable, envelope checksum
    /// valid, and stored under its own content address.
    fn entry_valid(&self, name: &str) -> bool {
        let Ok(bytes) = std::fs::read(self.entries_dir().join(name)) else {
            return false;
        };
        match StoreEntry::from_bytes(&bytes) {
            Ok(e) => e.key.entry_name() == name,
            Err(_) => false,
        }
    }

    /// Crash recovery at open time (see [`RuleStore::open`]).
    fn recover(&self) -> Result<(), StoreError> {
        let journal = match std::fs::read(self.journal_path()) {
            Ok(b) => b,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()), // clean
            Err(e) => {
                return Err(StoreError::Io {
                    op: "read-journal",
                    kind: e.kind(),
                })
            }
        };
        match JournalRecord::from_bytes(&journal) {
            Ok(rec) => {
                // Interrupted commit: the named entry is suspect. A valid
                // entry means the crash hit between entry write and
                // journal removal — the commit is complete, keep it.
                // Anything else rolls back.
                if !self.entry_valid(&rec.entry_name) {
                    let path = self.entries_dir().join(&rec.entry_name);
                    if path.exists() {
                        self.quarantine(&rec.entry_name);
                    }
                }
                self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                self.flight.record("store.recovered", None, 0, 0);
            }
            Err(_) => {
                // Torn journal: the in-flight entry name is unknown, so
                // verify everything and quarantine what fails.
                let names: Vec<String> = std::fs::read_dir(self.entries_dir())
                    .map(|it| {
                        it.filter_map(Result::ok)
                            .map(|e| e.file_name().to_string_lossy().into_owned())
                            .collect()
                    })
                    .unwrap_or_default();
                for name in names {
                    if !self.entry_valid(&name) {
                        self.quarantine(&name);
                    }
                }
                self.stats.recovered.fetch_add(1, Ordering::Relaxed);
                self.flight.record("store.recovered", None, 1, 0);
            }
        }
        self.io_op("clear-journal", || {
            match std::fs::remove_file(self.journal_path()) {
                Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
                _ => Ok(()),
            }
        })
    }

    /// Verifies every committed entry, returning `(valid, quarantined)`
    /// counts — the `janitizer-eval serve --fsck`-style integrity sweep
    /// and the recovery fallback for torn journals.
    pub fn verify_all(&self) -> (usize, usize) {
        let names: Vec<String> = std::fs::read_dir(self.entries_dir())
            .map(|it| {
                it.filter_map(Result::ok)
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default();
        let mut valid = 0;
        let mut bad = 0;
        for name in names {
            if self.entry_valid(&name) {
                valid += 1;
            } else {
                self.quarantine(&name);
                bad += 1;
            }
        }
        (valid, bad)
    }
}

/// A unique scratch directory under the system temp dir, for tests and
/// the fault-injection harness. The caller owns cleanup.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "janitizer-store-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[cfg(test)]
pub(crate) use scratch_dir as test_dir;

/// Renders store statistics as a stable one-line summary (stderr
/// reporting in the evaluation harness).
pub fn stats_line(stats: &StoreStats) -> String {
    format!(
        "store: hits={} misses={} corrupt={} recovered={} retries={}",
        stats.hits, stats.misses, stats.corrupt, stats.recovered, stats.retries
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> StoreKey {
        StoreKey {
            module: format!("mod{tag}"),
            fingerprint: 0x1000 + tag,
            plugin: "plug".into(),
            noop: true,
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = test_dir("roundtrip");
        let store = RuleStore::open(&dir).unwrap();
        let k = key(1);
        assert_eq!(store.load(&k).unwrap(), None);
        store.save(&k, b"rule-bytes").unwrap();
        assert_eq!(store.load(&k).unwrap().unwrap(), b"rule-bytes");
        let s = store.stats();
        assert_eq!((s.hits, s.misses, s.corrupt, s.recovered), (1, 1, 0, 0));
        // Reopen: still served, no recovery needed.
        let store2 = RuleStore::open(&dir).unwrap();
        assert_eq!(store2.load(&k).unwrap().unwrap(), b"rule-bytes");
        assert_eq!(store2.stats().recovered, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entry_is_quarantined_and_misses() {
        let dir = test_dir("corrupt");
        let store = RuleStore::open(&dir).unwrap();
        let k = key(2);
        store.save(&k, b"payload").unwrap();
        let path = store.entries_dir().join(k.entry_name());
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() - 2;
        bytes[at] ^= 0x80;
        std::fs::write(&path, &bytes).unwrap();

        assert_eq!(store.load(&k).unwrap(), None, "corrupt entry is a miss");
        assert_eq!(store.stats().corrupt, 1);
        assert!(!path.exists(), "corrupt entry removed from entries/");
        assert_eq!(
            std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
            1,
            "…and kept in quarantine/"
        );
        // Re-save over the quarantined address works.
        store.save(&k, b"payload").unwrap();
        assert_eq!(store.load(&k).unwrap().unwrap(), b"payload");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn quarantine_prune_caps_growth_without_touching_live_entries() {
        let dir = test_dir("prune");
        let store = RuleStore::open(&dir).unwrap();
        // Three live entries and four quarantined corpses (corrupted one
        // at a time, oldest first by mtime order of quarantining).
        for t in 0..3 {
            store.save(&key(10 + t), b"live").unwrap();
        }
        for t in 0..4u64 {
            let k = key(20 + t);
            store.save(&k, b"doomed").unwrap();
            let path = store.entries_dir().join(k.entry_name());
            let mut bytes = std::fs::read(&path).unwrap();
            let at = bytes.len() - 2;
            bytes[at] ^= 0x80;
            std::fs::write(&path, &bytes).unwrap();
            assert_eq!(store.load(&k).unwrap(), None);
        }
        let (files, bytes) = store.quarantine_usage();
        assert_eq!(files, 4);
        assert!(bytes > 0, "quarantined corpses have bytes");

        // Under the limit: nothing to do.
        assert_eq!(store.prune_quarantine(4), 0);
        assert_eq!(store.quarantine_usage().0, 4);

        // Past the limit: the excess (oldest) corpses go, the rest stay.
        assert_eq!(store.prune_quarantine(2), 2);
        let (files, _) = store.quarantine_usage();
        assert_eq!(files, 2);

        // Live entries were never candidates: all still served intact.
        assert_eq!(store.entry_count(), 3);
        for t in 0..3 {
            assert_eq!(
                store.load(&key(10 + t)).unwrap().unwrap(),
                b"live",
                "live entry survived the prune"
            );
        }

        // Prune-to-zero empties the directory but the store stays usable.
        assert_eq!(store.prune_quarantine(0), 2);
        assert_eq!(store.quarantine_usage(), (0, 0));
        store.save(&key(30), b"after").unwrap();
        assert_eq!(store.load(&key(30)).unwrap().unwrap(), b"after");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn interrupted_commit_rolls_back_on_open() {
        let dir = test_dir("rollback");
        let k = key(3);
        {
            let store = RuleStore::open(&dir).unwrap();
            store.save(&k, b"good").unwrap();
            // Simulate dying mid-commit of a second entry: journal intent
            // present, entry torn.
            let k2 = key(4);
            let entry = StoreEntry {
                key: k2.clone(),
                rule_bytes: b"half".to_vec(),
            }
            .to_bytes();
            std::fs::write(
                store.journal_path(),
                JournalRecord {
                    entry_name: k2.entry_name(),
                }
                .to_bytes(),
            )
            .unwrap();
            std::fs::write(
                store.entries_dir().join(k2.entry_name()),
                &entry[..entry.len() / 2],
            )
            .unwrap();
        }
        let store = RuleStore::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1, "rollback counted");
        assert!(!store.journal_path().exists(), "journal cleared");
        assert_eq!(store.load(&key(4)).unwrap(), None, "torn entry gone");
        assert_eq!(store.load(&k).unwrap().unwrap(), b"good", "survivor intact");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_commit_with_stale_journal_is_kept() {
        let dir = test_dir("stale-journal");
        let k = key(5);
        {
            let store = RuleStore::open(&dir).unwrap();
            store.save(&k, b"done").unwrap();
            // Crash between entry write and journal removal: intent
            // present but the entry is complete and valid.
            std::fs::write(
                store.journal_path(),
                JournalRecord {
                    entry_name: k.entry_name(),
                }
                .to_bytes(),
            )
            .unwrap();
        }
        let store = RuleStore::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1);
        assert_eq!(store.load(&k).unwrap().unwrap(), b"done", "commit survives");
        assert_eq!(store.stats().corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_journal_triggers_verify_scan() {
        let dir = test_dir("torn-journal");
        let k = key(6);
        {
            let store = RuleStore::open(&dir).unwrap();
            store.save(&k, b"keep").unwrap();
            // Plant a corrupt entry plus an unreadable journal.
            std::fs::write(store.entries_dir().join("feedfeedfeedfeed.jse"), b"junk").unwrap();
            std::fs::write(store.journal_path(), b"JJRN\x01").unwrap();
        }
        let store = RuleStore::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1);
        assert!(store.stats().corrupt >= 1, "scan quarantined the junk");
        assert_eq!(store.load(&k).unwrap().unwrap(), b"keep");
        assert!(!store.journal_path().exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_failures_are_retried() {
        let dir = test_dir("transient");
        let store = RuleStore::open_with(
            &dir,
            RetryPolicy { attempts: 3 },
            FailurePlan {
                transient_write_failures: 2,
                crash_after_commits: None,
            },
            Flight::default(),
        )
        .unwrap();
        let k = key(7);
        store.save(&k, b"eventually").unwrap();
        assert_eq!(store.load(&k).unwrap().unwrap(), b"eventually");
        assert_eq!(store.stats().retries, 2, "both injected failures absorbed");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn exhausted_retries_surface_typed_io_error() {
        let dir = test_dir("exhausted");
        let store = RuleStore::open_with(
            &dir,
            RetryPolicy { attempts: 1 },
            FailurePlan {
                transient_write_failures: 100,
                crash_after_commits: None,
            },
            Flight::default(),
        )
        .unwrap();
        let err = store.save(&key(8), b"never").unwrap_err();
        assert!(matches!(
            err,
            StoreError::Io {
                op: "begin-journal",
                ..
            }
        ));
        assert_eq!(store.load(&key(8)).unwrap(), None, "nothing half-written");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_crash_leaves_recoverable_state() {
        let dir = test_dir("crash");
        let k1 = key(9);
        let k2 = key(10);
        {
            let store = RuleStore::open_with(
                &dir,
                RetryPolicy::default(),
                FailurePlan {
                    transient_write_failures: 0,
                    crash_after_commits: Some(1),
                },
                Flight::default(),
            )
            .unwrap();
            store.save(&k1, b"first").unwrap();
            let err = store.save(&k2, b"second").unwrap_err();
            assert!(matches!(err, StoreError::Io { .. }));
            // Post-crash the store acts dead: saves fail, loads miss.
            assert!(store.save(&k1, b"again").is_err());
            assert_eq!(store.load(&k1).unwrap(), None);
            assert!(store.journal_path().exists(), "crash left the intent");
        }
        let store = RuleStore::open(&dir).unwrap();
        assert_eq!(store.stats().recovered, 1, "torn commit detected");
        assert_eq!(store.load(&k2).unwrap(), None, "torn entry rolled back");
        assert_eq!(store.load(&k1).unwrap().unwrap(), b"first");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_all_counts() {
        let dir = test_dir("verify");
        let store = RuleStore::open(&dir).unwrap();
        store.save(&key(11), b"a").unwrap();
        store.save(&key(12), b"b").unwrap();
        std::fs::write(store.entries_dir().join("baadf00dbaadf00d.jse"), b"?").unwrap();
        assert_eq!(store.verify_all(), (2, 1));
        assert_eq!(store.entry_count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
