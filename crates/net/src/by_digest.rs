//! The daemon's by-digest table: which resident program answers a tune that
//! names its matrix by content digest ([`Request::SubmitTuneRef`]) instead
//! of sending it.
//!
//! An entry is filed when a tuning worker finishes a job whose matrix was
//! *uploaded*, under the uploading tenant, the matrix's BLAKE2b-256
//! [`CsrMatrix::digest`] (computed from the uploaded bytes, never taken from
//! the client) and the device.  It holds the program weakly: the jobs in the
//! daemon's table own it, and an entry is useful exactly as long as one of
//! them does.  Dead entries are swept whenever one is filed, so the table
//! never outgrows the set of live programs.
//!
//! A hit is answered without any content to compare.  That is safe because
//! the digest is cryptographic: answering a request with another matrix's
//! program takes two matrices with one BLAKE2b-256, accidental or crafted
//! (about 2¹²⁸ work).  (The 64-bit
//! [`CsrMatrix::fingerprint`] could not carry this: a crafted pair collides
//! on it cheaply.)  The key also carries the tenant, so the table answers
//! only what the asking tenant uploaded itself — it does not tell one
//! tenant whether another tuned a given matrix.
//!
//! The tuning service keeps a resident map of its own
//! (`alpha_serve::TuningService`), and the two stay apart on purpose.  The
//! service's map is keyed by store context, shared by every caller, and
//! proves identity by comparing the full matrix; it serves in-process
//! callers and the daemon's uploads.  This table is keyed by what the wire
//! carries — tenant and digest — answers on the event loop without touching
//! the service, and knows nothing the service could use: the service has
//! no tenants and never sees a digest.
//!
//! A repeat hit on an entry gets back the job an earlier hit filed, while
//! the job table still has it: a burst of hits then costs one terminal job
//! slot, so it cannot push other tenants' finished jobs out of the table.
//!
//! [`Request::SubmitTuneRef`]: crate::proto::Request::SubmitTuneRef

use crate::proto::JobSummary;
use alpha_matrix::CsrMatrix;
use alphasparse::TunedSpmv;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};

/// What an entry is filed under.
#[derive(PartialEq, Eq, Hash)]
struct Key {
    tenant: u64,
    digest: [u8; 32],
    /// The device profile's name.
    device: &'static str,
}

/// A program some job may still hold, with what a request must match to be
/// answered with it and what its job summary reports.
struct Entry {
    program: Weak<TunedSpmv>,
    rows: u64,
    cols: u64,
    nnz: u64,
    /// The uploading job's summary; a hit reports its design fields.
    summary: JobSummary,
    /// The job the latest hit on this entry filed.
    hit_job: Option<u64>,
}

/// A by-reference request the table can answer.
pub(crate) struct Hit {
    /// The program the tenant's upload built.
    pub(crate) program: Arc<TunedSpmv>,
    /// The summary of the job that built it.
    pub(crate) summary: JobSummary,
    /// The job an earlier hit on the same entry filed, if any; the caller
    /// answers with it when the job table still has it.
    pub(crate) job: Option<u64>,
}

/// Resident programs by `(tenant, digest, device)`.
#[derive(Default)]
pub(crate) struct DigestTable {
    entries: Mutex<HashMap<Key, Entry>>,
}

impl DigestTable {
    /// Files `program`, just finished for `tenant`'s upload of `matrix` on
    /// `device`, and sweeps the entries no job holds any more.  Hashes the
    /// matrix (once per value: the digest is memoised in it) before taking
    /// the lock.
    pub(crate) fn file(
        &self,
        tenant: u64,
        matrix: &CsrMatrix,
        device: &'static str,
        program: &Arc<TunedSpmv>,
        summary: &JobSummary,
    ) {
        let key = Key {
            tenant,
            digest: matrix.digest(),
            device,
        };
        let entry = Entry {
            program: Arc::downgrade(program),
            rows: matrix.rows() as u64,
            cols: matrix.cols() as u64,
            nnz: matrix.nnz() as u64,
            summary: summary.clone(),
            hit_job: None,
        };
        let mut entries = self.entries.lock().expect("digest table poisoned");
        entries.retain(|_, entry| entry.program.strong_count() > 0);
        entries.insert(key, entry);
    }

    /// The live program `tenant` uploaded on `device` with this digest and
    /// these dimensions.  `None` — the caller asks for the matrix — when
    /// there is no entry, its shape disagrees, or no job holds its program
    /// any more.
    pub(crate) fn lookup(
        &self,
        tenant: u64,
        digest: [u8; 32],
        device: &'static str,
        [rows, cols, nnz]: [u64; 3],
    ) -> Option<Hit> {
        let key = Key {
            tenant,
            digest,
            device,
        };
        let entries = self.entries.lock().expect("digest table poisoned");
        let entry = entries.get(&key)?;
        if [entry.rows, entry.cols, entry.nnz] != [rows, cols, nnz] {
            return None;
        }
        Some(Hit {
            program: entry.program.upgrade()?,
            summary: entry.summary.clone(),
            job: entry.hit_job,
        })
    }

    /// Records `job_id` as the job that answers the next hits on the entry
    /// [`DigestTable::lookup`] found under the same key.
    pub(crate) fn answered_by(
        &self,
        tenant: u64,
        digest: [u8; 32],
        device: &'static str,
        job_id: u64,
    ) {
        let key = Key {
            tenant,
            digest,
            device,
        };
        let mut entries = self.entries.lock().expect("digest table poisoned");
        if let Some(entry) = entries.get_mut(&key) {
            entry.hit_job = Some(job_id);
        }
    }
}
