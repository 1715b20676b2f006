//! The tune lane: admission into the bounded queue, the tuning workers that
//! drain it, and tunes answered by reference on the loop.

use super::queue::PushError;
use super::*;

impl Shared {
    /// The daemon's estimate of when a shed submission is worth retrying:
    /// measured tuning EWMA scaled by the queue backlog per worker, clamped
    /// to [1 ms, 10 s].  Before any job has finished the estimate is a flat
    /// 50 ms.
    fn retry_after_ms(&self) -> u64 {
        let ewma_us = self.tune_ewma_us.load(Ordering::Relaxed);
        if ewma_us == 0 {
            return 50;
        }
        let backlog = (self.queue.len() as u64).max(1);
        let per_worker = backlog.div_ceil(self.worker_count.max(1) as u64);
        (ewma_us / 1000).saturating_mul(per_worker).clamp(1, 10_000)
    }

    /// What a [`Request::PollJob`] of `job_id` answers.
    pub(super) fn job_state(&self, job_id: u64) -> JobState {
        match self.jobs.lock().expect("job table poisoned").get(&job_id) {
            None => JobState::Unknown,
            Some(Job::Queued { .. }) => JobState::Queued,
            Some(Job::Running) => JobState::Running,
            Some(Job::Done { summary, .. }) => JobState::Done(summary.clone()),
            Some(Job::Failed { error }) => JobState::Failed {
                error: error.clone(),
            },
        }
    }
}

/// One tuning worker: drains job ids from the admission queue until it is
/// closed and empty, tuning each through the shared service.
pub(super) fn worker_loop(shared: &Shared) {
    while let Some(job_id) = shared.queue.pop() {
        let (request, queue_wait_secs, req) = {
            let mut table = shared.jobs.lock().expect("job table poisoned");
            match table.remove(&job_id) {
                Some(Job::Queued {
                    request,
                    enqueued,
                    req,
                }) => {
                    table.insert(job_id, Job::Running);
                    (request, enqueued.elapsed().as_secs_f64(), req)
                }
                // The entry must exist and be queued — submission inserted
                // it before pushing the id.  Anything else is a logic bug;
                // recover by dropping the phantom id.
                other => {
                    if let Some(job) = other {
                        table.insert(job_id, job);
                    }
                    continue;
                }
            }
        };
        // The request's trace id follows the job onto this thread: every
        // span below (including the search engine's own `search.l*` spans)
        // tags itself with it, and the queue wait becomes a retroactive
        // span bracketing [enqueue, pop].
        let prev_trace = alpha_telemetry::set_current_trace_id(req.trace_id);
        let wait_us = (queue_wait_secs * 1e6) as u64;
        shared.record(req, "net.queue_wait", wait_us);
        let started = Instant::now();
        // A hostile or degenerate matrix must cost its own job, never the
        // worker: a panicking search is caught and reported as a failed
        // job, keeping the worker pool at full strength.
        let work = std::panic::AssertUnwindSafe(|| {
            shared.service.tune_batch(std::slice::from_ref(&*request))
        });
        shared.tunes_executing.fetch_add(1, Ordering::Relaxed);
        let mut served = {
            let _span = alpha_telemetry::span!("net.tune_exec", job = job_id);
            match std::panic::catch_unwind(work) {
                Ok(served) => served,
                Err(payload) => {
                    let what = panic_message(payload.as_ref());
                    vec![Err(format!("tuning panicked: {what}"))]
                }
            }
        };
        shared.tunes_executing.fetch_sub(1, Ordering::Relaxed);
        let exec_us = elapsed_us(started);
        shared.record(req, "net.tune_exec", exec_us);
        // EWMA (α = 1/4) of tuning time feeds the Busy retry-after hint;
        // racy read-modify-write is fine for an estimate.
        let prev = shared.tune_ewma_us.load(Ordering::Relaxed);
        let next = if prev == 0 {
            exec_us
        } else {
            prev - prev / 4 + exec_us / 4
        };
        shared.tune_ewma_us.store(next.max(1), Ordering::Relaxed);
        let outcome = match served.pop().expect("one request yields one result") {
            Ok(tune) => {
                let summary = job_summary(
                    &tune.tuned,
                    tune.fresh_evaluations as u64,
                    tune.warm_started,
                    tune.wall_secs,
                    queue_wait_secs,
                );
                // Filed before the job turns `Done`, so a client that saw
                // it finish finds the program by digest.  The service hashed
                // the uploaded bytes (the digest is memoised in the
                // request's matrix): the cold path pays for the digest, a
                // hit never does.
                shared
                    .by_digest
                    .file(&shared.service, request.matrix.digest(), &request.device);
                // The service's own handle: while this job is in the table,
                // repeat tunes of its matrix get this program back.
                Job::Done {
                    tuned: tune.tuned,
                    summary,
                }
            }
            Err(error) => {
                shared.record(req, "net.tune_failed", 0);
                Job::Failed { error }
            }
        };
        shared.finish_job(job_id, outcome);
        // The job's total in-server latency: admission to terminal state.
        shared.record(req, "net.request", wait_us.saturating_add(exec_us));
        alpha_telemetry::set_current_trace_id(prev_trace);
    }
}

/// What a `Done` job reports about `tuned`: the design fields, read off the
/// program, and what this job cost.
fn job_summary(
    tuned: &TunedSpmv,
    fresh_evaluations: u64,
    warm_started: bool,
    wall_secs: f64,
    queue_wait_secs: f64,
) -> JobSummary {
    JobSummary {
        gflops: tuned.gflops(),
        operator_graph: tuned.operator_graph(),
        fresh_evaluations,
        warm_started,
        wall_secs,
        queue_wait_secs,
        // Lowers the native kernel eagerly: Spmv requests for the job then
        // hit a pre-resolved specialized loop.
        kernel_shape: tuned.kernel_shape(),
    }
}

/// What a daemon that is shutting down answers a tune submission.
fn shutting_down() -> Response {
    Response::Error {
        kind: ErrorKind::ShuttingDown,
        message: "daemon is shutting down; no new work accepted".to_string(),
    }
}

/// The profile a tune submission's device names, or the typed error a
/// daemon that is shutting down, or does not know the device, answers.
fn submission_device(shared: &Shared, device: &str) -> Result<DeviceProfile, Response> {
    if shared.shutdown.load(Ordering::SeqCst) {
        return Err(shutting_down());
    }
    device_by_name(device).ok_or_else(|| Response::Error {
        kind: ErrorKind::UnknownDevice,
        message: format!("unknown device {device:?} (try A100, RTX2080 or TestGPU)"),
    })
}

/// Admission + job-table insert for one tune submission: the job is filed,
/// then pushed onto the queue, whose bound is the whole admission policy.
pub(super) fn submit_tune(
    shared: &Shared,
    trace_id: u64,
    matrix: alpha_matrix::CsrMatrix,
    device: String,
) -> Response {
    let profile = match submission_device(shared, &device) {
        Ok(profile) => profile,
        Err(refused) => return refused,
    };
    let request = TuneRequest::new(matrix, profile);
    let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
    let req = RequestTag {
        lane: Lane::Tune,
        trace_id,
        job_id,
    };
    // Counted before the push, so no reader sees a job completed that was
    // never submitted.
    shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    shared.jobs.lock().expect("job table poisoned").insert(
        job_id,
        Job::Queued {
            request: Box::new(request),
            enqueued: Instant::now(),
            req,
        },
    );
    match shared.queue.try_push(job_id) {
        Ok(()) => {
            shared.record(req, "net.admitted", 0);
            Response::Submitted { job_id }
        }
        Err(push_error) => {
            // Admission failed: nothing must remain of the job.
            shared
                .jobs
                .lock()
                .expect("job table poisoned")
                .remove(&job_id);
            shared.jobs_submitted.fetch_sub(1, Ordering::Relaxed);
            match push_error {
                PushError::Full(_) => {
                    shared.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    let busy = Response::Busy {
                        queue_capacity: shared.queue.capacity() as u64,
                        retry_after_ms: shared.retry_after_ms(),
                    };
                    // The job is gone: the shed names none.
                    shared.shed(RequestTag { job_id: 0, ..req }, busy)
                }
                PushError::Closed(_) => shutting_down(),
            }
        }
    }
}

/// Answers a tune that names its matrix by digest, on the event loop: a
/// lookup in the daemon's view and the service's resident map, then either
/// [`Response::NeedMatrix`] or the `Done` status of a job that holds the
/// program an upload built, if its shape is the one named — the
/// reply a [`Request::PollJob`] of that job gives, so a warm tune is one
/// round trip.  That job is the one an earlier hit on the same upload
/// filed, while the job table still has it (its summary is read under the
/// lock that finds it), else a new one: a burst of hits takes one terminal
/// slot.  Nothing is queued, so admission is not consulted.
pub(super) fn submit_tune_ref(
    shared: &Shared,
    trace_id: u64,
    digest: [u8; 32],
    shape: [u64; 3],
    device: &str,
) -> Response {
    let started = Instant::now();
    let profile = match submission_device(shared, device) {
        Ok(profile) => profile,
        Err(refused) => return refused,
    };
    let hit = shared
        .by_digest
        .lookup(&shared.service, digest, &profile)
        .filter(|hit| {
            let stats = hit.program.matrix_stats();
            [stats.rows, stats.cols, stats.nnz].map(|n| n as u64) == shape
        });
    let Some(hit) = hit else {
        shared.by_reference_need_matrix.inc();
        return Response::NeedMatrix;
    };
    shared.by_reference_hit.inc();
    let live = hit.job.and_then(|job_id| {
        match shared.jobs.lock().expect("job table poisoned").get(&job_id) {
            Some(Job::Done { summary, .. }) => Some((job_id, summary.clone())),
            _ => None,
        }
    });
    let (job_id, summary) = match live {
        Some(live) => live,
        None => {
            let job_id = shared.next_job_id.fetch_add(1, Ordering::Relaxed);
            shared.jobs_submitted.fetch_add(1, Ordering::Relaxed);
            let tuned = hit.program;
            let wall_secs = started.elapsed().as_secs_f64();
            let summary = job_summary(&tuned, 0, hit.warm_started, wall_secs, 0.0);
            shared.finish_job(
                job_id,
                Job::Done {
                    tuned,
                    summary: summary.clone(),
                },
            );
            shared.by_digest.answered_by(digest, &profile, job_id);
            (job_id, summary)
        }
    };
    let req = RequestTag {
        lane: Lane::TuneRef,
        trace_id,
        job_id,
    };
    shared.record(req, "net.admitted", 0);
    shared.record(req, "net.request", elapsed_us(started));
    Response::Status {
        job_id,
        state: JobState::Done(summary),
    }
}
