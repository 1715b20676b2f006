//! Cooperative inter-process locking of a [`DesignStore`](crate::DesignStore)
//! directory.
//!
//! Two *processes* writing the same store directory can interleave cache-file
//! saves and corrupt each other's winner indexes, so every open store holds
//! an exclusive **kernel file lock** (`File::try_lock`, flock-style) on the
//! directory's `store.lock`.  The kernel gives the two properties a
//! hand-rolled PID-file protocol cannot: acquisition is atomic (no window
//! where two contenders both conclude they won), and the lock dies with the
//! process (a crashed daemon's lock is released instantly — no stale-PID
//! heuristics, no false `Locked` errors when the PID gets recycled).
//!
//! Within one process the lock is **cooperative**: opening the same
//! directory several times is explicitly allowed (the store is internally
//! synchronised — this is what tests and multi-service processes do),
//! tracked by a reference count over one shared lock handle.  A lock held
//! by a different process surfaces as the typed
//! [`StoreError::Locked`](crate::StoreError) error.  A lock that names this
//! process although none of its stores holds it is a child's that another
//! thread spawned and that has not exec'd yet (it inherited the handle's
//! file description): a re-open waits that out, up to one second.
//!
//! The lock file's *content* (the holder's PID) is informational only — it
//! makes the `Locked` error actionable.  The file itself is left in place
//! on release: unlinking a lock file opens a classic race where a contender
//! locks the doomed inode while another creates a fresh file, so the inode
//! stays put and only the kernel lock state changes.

use std::collections::HashMap;
use std::fs::{File, TryLockError};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// File name of the lock marker inside a store directory.
pub const LOCK_FILE_NAME: &str = "store.lock";

/// How long a re-acquisition waits out a lock that names this process: a
/// child another thread spawned holds it only until it execs.
const INHERITED_LOCK_WAIT: Duration = Duration::from_secs(1);

struct HeldEntry {
    /// Open stores of this process sharing the lock.
    count: usize,
    /// The handle owning the kernel lock — never read, held purely so that
    /// dropping the entry releases the lock.
    _file: File,
}

/// The kernel locks held by *this* process, keyed by the canonicalised
/// store directory.
fn held_locks() -> &'static Mutex<HashMap<PathBuf, HeldEntry>> {
    static HELD: OnceLock<Mutex<HashMap<PathBuf, HeldEntry>>> = OnceLock::new();
    HELD.get_or_init(|| Mutex::new(HashMap::new()))
}

/// A held cooperative lock on one store directory.  Dropping the last
/// instance for a directory (within this process) releases the kernel lock.
#[derive(Debug)]
pub struct StoreLock {
    /// Canonicalised directory key in [`held_locks`].
    key: PathBuf,
}

/// Outcome of a failed acquisition: the foreign holder, as recorded in the
/// lock file.
pub(crate) struct LockHeld {
    /// PID the holder wrote into the lock file (0 when unreadable — e.g.
    /// read in the instant between the holder locking and writing).
    pub pid: u32,
}

impl StoreLock {
    /// Acquires the cooperative lock for the store rooted at `root` (which
    /// must already exist).  Same-process re-acquisition succeeds and bumps
    /// a reference count; a lock held by another process is reported via a
    /// [`LockHeld`]-carrying error for the caller to wrap in its typed
    /// error.  There is no stale-lock handling to get wrong: a dead
    /// holder's lock was already released by the kernel.
    pub(crate) fn acquire(root: &Path) -> Result<StoreLock, std::io::Error> {
        let key = root.canonicalize()?;
        let lock_path = root.join(LOCK_FILE_NAME);
        let mut held = held_locks().lock().expect("lock registry poisoned");
        if let Some(entry) = held.get_mut(&key) {
            entry.count += 1;
            return Ok(StoreLock { key });
        }

        let mut file = File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&lock_path)?;
        let recorded_pid = || {
            std::fs::read_to_string(&lock_path)
                .ok()
                .and_then(|s| s.trim().parse::<u32>().ok())
                .unwrap_or(0)
        };
        // A lock that names this process while none of its stores holds it
        // is held by a child spawned between fork and exec, which inherited
        // our lock's file description: it lets go when it execs, so wait.
        let deadline = Instant::now() + INHERITED_LOCK_WAIT;
        let mut attempt = file.try_lock();
        while matches!(attempt, Err(TryLockError::WouldBlock))
            && Instant::now() < deadline
            && recorded_pid() == std::process::id()
        {
            std::thread::sleep(Duration::from_millis(2));
            attempt = file.try_lock();
        }
        match attempt {
            Ok(()) => {
                // Lock won: record our PID for the *other* side's error
                // message (best-effort — the lock itself is the kernel's).
                let _ = file.set_len(0);
                let _ = file.write_all(format!("{}\n", std::process::id()).as_bytes());
                let _ = file.flush();
                held.insert(
                    key.clone(),
                    HeldEntry {
                        count: 1,
                        _file: file,
                    },
                );
                Ok(StoreLock { key })
            }
            Err(TryLockError::WouldBlock) => Err(std::io::Error::other(LockOwner(recorded_pid()))),
            Err(TryLockError::Error(e)) => Err(e),
        }
    }

    /// The holder a foreign-lock error carries, when `e` is one.
    pub(crate) fn foreign_holder(e: &std::io::Error) -> Option<LockHeld> {
        e.get_ref()
            .and_then(|inner| inner.downcast_ref::<LockOwner>())
            .map(|owner| LockHeld { pid: owner.0 })
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let mut held = held_locks().lock().expect("lock registry poisoned");
        if let Some(entry) = held.get_mut(&self.key) {
            entry.count -= 1;
            if entry.count == 0 {
                // Dropping the entry drops the File, which releases the
                // kernel lock.  The lock file itself stays (see module docs).
                held.remove(&self.key);
            }
        }
    }
}

/// Error payload recording the foreign PID that holds a lock.
#[derive(Debug)]
struct LockOwner(u32);

impl std::fmt::Display for LockOwner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "store is locked by process {}", self.0)
    }
}

impl std::error::Error for LockOwner {}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("alpha_lock_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A stand-in for "another process": kernel file locks are held per
    /// open-file-description, so a second `File` conflicts even within one
    /// process.
    fn foreign_handle(root: &Path) -> File {
        File::options()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(root.join(LOCK_FILE_NAME))
            .unwrap()
    }

    fn is_kernel_locked(root: &Path) -> bool {
        let probe = foreign_handle(root);
        match probe.try_lock() {
            Ok(()) => {
                probe.unlock().unwrap();
                false
            }
            Err(TryLockError::WouldBlock) => true,
            Err(TryLockError::Error(e)) => panic!("probe failed: {e}"),
        }
    }

    #[test]
    fn lock_is_held_for_the_lock_objects_lifetime() {
        let root = temp_root("lifecycle");
        let lock = StoreLock::acquire(&root).unwrap();
        assert!(is_kernel_locked(&root), "kernel lock held while alive");
        assert_eq!(
            std::fs::read_to_string(root.join(LOCK_FILE_NAME))
                .unwrap()
                .trim(),
            std::process::id().to_string(),
            "holder PID recorded for diagnostics"
        );
        drop(lock);
        assert!(!is_kernel_locked(&root), "dropping releases the lock");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn same_process_reacquisition_is_reference_counted() {
        let root = temp_root("refcount");
        let a = StoreLock::acquire(&root).unwrap();
        let b = StoreLock::acquire(&root).unwrap();
        drop(a);
        assert!(is_kernel_locked(&root), "still held by the second instance");
        drop(b);
        assert!(!is_kernel_locked(&root), "last drop releases the lock");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn foreign_holder_is_reported_with_its_recorded_pid() {
        let root = temp_root("foreign");
        let mut foreign = foreign_handle(&root);
        foreign.try_lock().unwrap();
        foreign.write_all(b"41\n").unwrap();
        foreign.flush().unwrap();

        let err = StoreLock::acquire(&root).expect_err("must refuse a held lock");
        let held = StoreLock::foreign_holder(&err).expect("typed holder payload");
        assert_eq!(held.pid, 41);

        // The moment the "other process" lets go, acquisition succeeds.
        drop(foreign);
        let _lock = StoreLock::acquire(&root).expect("released lock is acquirable");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn a_lock_our_own_child_still_inherits_is_waited_out() {
        // A child spawned between fork and exec shares the lock's file
        // description; a clone of the held handle stands in for it.
        let root = temp_root("inherited");
        let lock = StoreLock::acquire(&root).unwrap();
        let inherited = {
            let held = held_locks().lock().unwrap();
            held[&lock.key]._file.try_clone().unwrap()
        };
        drop(lock);
        assert!(is_kernel_locked(&root), "the child still holds it");
        let child = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            drop(inherited);
        });
        let _lock = StoreLock::acquire(&root).expect("our own lock is waited out");
        child.join().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn leftover_lock_files_from_dead_processes_do_not_block() {
        // A crashed process leaves the file but the kernel already released
        // its lock — acquisition must just work, no staleness heuristics.
        let root = temp_root("leftover");
        std::fs::write(root.join(LOCK_FILE_NAME), "999999\n").unwrap();
        let _lock = StoreLock::acquire(&root).expect("unlocked leftover is harmless");
        assert_eq!(
            std::fs::read_to_string(root.join(LOCK_FILE_NAME))
                .unwrap()
                .trim(),
            std::process::id().to_string()
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn garbage_lock_file_content_is_irrelevant() {
        let root = temp_root("garbage");
        std::fs::write(root.join(LOCK_FILE_NAME), "not a pid at all").unwrap();
        let _lock = StoreLock::acquire(&root).expect("content does not gate the lock");
        let _ = std::fs::remove_dir_all(&root);
    }
}
