//! The daemon's tenant view of the tuning service's live programs: which
//! tune that names its matrix by content digest ([`Request::SubmitTuneRef`])
//! instead of sending it may be answered, and with which job.
//!
//! The programs themselves are the service's: its resident map
//! ([`TuningService::resident`]) is the one record of live programs by
//! content, keyed by the matrix's BLAKE2b-256 [`CsrMatrix::digest`] and the
//! device, and it holds them weakly while the daemon's jobs own them.  This
//! view adds only what the wire needs on top of it.
//!
//! * **The tenant.**  An entry is filed when a tuning worker finishes a job
//!   whose matrix was *uploaded*, under the uploading tenant, the digest
//!   (the service computed it from the uploaded bytes, never taken from the
//!   client) and the device.  The view answers only what the asking tenant
//!   uploaded itself — it does not tell one tenant whether another tuned a
//!   given matrix.
//! * **The hit job.**  A repeat hit on an entry gets back the job an earlier
//!   hit filed, while the job table still has it: a burst of hits then costs
//!   one terminal job slot, so it cannot push other tenants' finished jobs
//!   out of the table.
//!
//! A hit is answered without any content to compare.  That is safe because
//! the digest is cryptographic: answering a request with another matrix's
//! program takes two matrices with one BLAKE2b-256, accidental or crafted
//! (about 2¹²⁸ work).  (The 64-bit [`CsrMatrix::fingerprint`] could not
//! carry this: a crafted pair collides on it cheaply.)
//!
//! Entries the service no longer holds a program for are swept whenever one
//! is filed, so the view never outgrows the set of live programs.  Locks are
//! taken view first, service second; the service never calls the daemon.
//!
//! [`Request::SubmitTuneRef`]: crate::proto::Request::SubmitTuneRef
//! [`CsrMatrix::digest`]: alpha_matrix::CsrMatrix::digest
//! [`CsrMatrix::fingerprint`]: alpha_matrix::CsrMatrix::fingerprint

use crate::server::device_by_name;
use alpha_gpu::DeviceProfile;
use alpha_serve::TuningService;
use alphasparse::TunedSpmv;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What an entry is filed under.
#[derive(PartialEq, Eq, Hash)]
struct Key {
    tenant: u64,
    digest: [u8; 32],
    /// The device profile's name.
    device: &'static str,
}

/// A by-reference request the view can answer.
pub(crate) struct Hit {
    /// The program the tenant's upload built.
    pub(crate) program: Arc<TunedSpmv>,
    /// Whether the request that built it was warm-started.
    pub(crate) warm_started: bool,
    /// The job an earlier hit on the same entry filed, if any; the caller
    /// answers with it when the job table still has it.
    pub(crate) job: Option<u64>,
}

/// `(tenant, digest, device)` → the job the latest hit filed.
#[derive(Default)]
pub(crate) struct DigestView {
    entries: Mutex<HashMap<Key, Option<u64>>>,
}

impl DigestView {
    /// Files `tenant`'s upload of the matrix with `digest` on `device`, just
    /// tuned by `service`, and sweeps the entries whose program the service
    /// no longer holds.
    pub(crate) fn file(
        &self,
        service: &TuningService,
        tenant: u64,
        digest: [u8; 32],
        device: &DeviceProfile,
    ) {
        let mut entries = self.entries.lock().expect("digest view poisoned");
        entries.retain(|key, _| {
            device_by_name(key.device)
                .is_some_and(|device| service.resident(key.digest, &device).is_some())
        });
        entries.insert(
            Key {
                tenant,
                digest,
                device: device.name,
            },
            None,
        );
    }

    /// The live program `tenant` uploaded on `device` with this digest.
    /// `None` — the caller asks for the matrix — when the tenant filed no
    /// such upload, or the service no longer holds its program.
    pub(crate) fn lookup(
        &self,
        service: &TuningService,
        tenant: u64,
        digest: [u8; 32],
        device: &DeviceProfile,
    ) -> Option<Hit> {
        let key = Key {
            tenant,
            digest,
            device: device.name,
        };
        let entries = self.entries.lock().expect("digest view poisoned");
        let job = *entries.get(&key)?;
        let (program, warm_started) = service.resident(digest, device)?;
        Some(Hit {
            program,
            warm_started,
            job,
        })
    }

    /// Records `job_id` as the job that answers the next hits on the entry
    /// [`DigestView::lookup`] found under the same key.
    pub(crate) fn answered_by(
        &self,
        tenant: u64,
        digest: [u8; 32],
        device: &DeviceProfile,
        job_id: u64,
    ) {
        let key = Key {
            tenant,
            digest,
            device: device.name,
        };
        let mut entries = self.entries.lock().expect("digest view poisoned");
        if let Some(job) = entries.get_mut(&key) {
            *job = Some(job_id);
        }
    }
}
