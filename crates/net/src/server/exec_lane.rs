//! The exec lane: remote SpMVs offloaded off the event loop to exec
//! workers, whose response frames come back through the completion list.

use super::*;

/// A remote SpMV offloaded off the event loop.
pub(super) struct ExecTask {
    token: usize,
    tuned: Arc<TunedSpmv>,
    x: Vec<Scalar>,
    /// When the event loop received the request — start of the
    /// `net_spmv_latency_us` window, so the histogram covers exec-queue
    /// wait plus kernel time, the latency the client actually eats.
    received: Instant,
    req: RequestTag,
}

/// One exec worker: runs offloaded SpMVs and posts the encoded response
/// frame back to the event loop.  As in the tuning lane, a panicking kernel
/// costs its own request, not the worker.
///
/// Where an SpMV runs follows what the daemon is doing when the worker picks
/// it up.  Alone — the only SpMV in flight and no tune executing — it fans
/// out over [`Shared::exec_pool`].  Otherwise it runs on this thread through
/// a private `Pool::new(1)`, which spawns nothing: the exec pool runs one job
/// at a time, so a second request would wait out the first on its submit
/// lock, and during a tune a fork-join waits for a worker that competes with
/// the tuning threads for the cores.  Both paths split the work into the
/// kernel's own `workers_for(0)` shares (a function of the kernel and the
/// host, never of load) and run them in the same order, so `y` is bitwise
/// the same either way.
pub(super) fn exec_loop(shared: &Shared) {
    let inline = alpha_parallel::Pool::new(1);
    while let Some(task) = shared.exec_queue.pop() {
        let alone = shared.exec_inflight.load(Ordering::Relaxed) == 1
            && shared.tunes_executing.load(Ordering::Relaxed) == 0;
        let pool = if alone {
            shared.spmv_exec_pool.inc();
            &shared.exec_pool
        } else {
            shared.spmv_exec_inline.inc();
            &inline
        };
        let prev_trace = alpha_telemetry::set_current_trace_id(task.req.trace_id);
        let started = Instant::now();
        let run = std::panic::AssertUnwindSafe(|| task.tuned.run_with_pool(&task.x, pool));
        let outcome = std::panic::catch_unwind(run).unwrap_or_else(|payload| {
            Err(format!(
                "SpMV panicked: {}",
                panic_message(payload.as_ref())
            ))
        });
        shared.record(task.req, "net.exec", elapsed_us(started));
        let response = match outcome {
            Ok(y) => Response::SpmvResult { y },
            Err(e) => {
                shared.record(task.req, "net.spmv_failed", 0);
                Response::Error {
                    kind: ErrorKind::InvalidInput,
                    message: e,
                }
            }
        };
        // The latency the client eats: exec-queue wait plus kernel time.
        shared.record(task.req, "net.request", elapsed_us(task.received));
        alpha_telemetry::set_current_trace_id(prev_trace);
        shared
            .completions
            .lock()
            .expect("completions poisoned")
            .push((task.token, frame_bytes(&response)));
        shared.waker.wake();
    }
}

/// Offloads a remote SpMV of job `req.job_id` to the exec lane: the kernel
/// must not run on the loop.  `Ok` means the task is queued and its
/// response frame will come back through [`Shared::completions`] for
/// `token`; `Err` is the answer to send now — the job is unknown, not
/// `Done`, or the exec queue is full.
pub(super) fn offload_spmv(
    shared: &Shared,
    token: usize,
    req: RequestTag,
    x: Vec<Scalar>,
) -> Result<(), Response> {
    let job_id = req.job_id;
    let tuned = match shared.jobs.lock().expect("job table poisoned").get(&job_id) {
        Some(Job::Done { tuned, .. }) => tuned.clone(),
        job => {
            let (kind, message) = match job {
                None => (
                    ErrorKind::UnknownJob,
                    format!("job {job_id} was never issued or has been garbage-collected"),
                ),
                Some(Job::Failed { error }) => (
                    ErrorKind::JobNotReady,
                    format!("job {job_id} failed: {error}"),
                ),
                _ => (
                    ErrorKind::JobNotReady,
                    format!("job {job_id} is still tuning; poll until Done"),
                ),
            };
            return Err(Response::Error { kind, message });
        }
    };
    shared.exec_inflight.fetch_add(1, Ordering::Relaxed);
    let task = ExecTask {
        token,
        tuned,
        x,
        received: Instant::now(),
        req,
    };
    match shared.exec_queue.try_push(task) {
        Ok(()) => {
            shared.record(req, "net.admitted", 0);
            Ok(())
        }
        Err(_) => {
            shared.exec_inflight.fetch_sub(1, Ordering::Relaxed);
            let busy = Response::Busy {
                queue_capacity: shared.exec_queue.capacity() as u64,
                retry_after_ms: 1,
            };
            Err(shared.shed(req, busy))
        }
    }
}
