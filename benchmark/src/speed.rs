//! The host-speed probe every timing of the benchmark is normalised with.
//!
//! The host this benchmark was sized on is a 2-vCPU microVM whose cores change
//! speed, independently of each other, in plateaus that last from seconds to
//! minutes: a fixed dependent multiply-add chain reads anything from 27 to
//! 61 ms.  Every raw timing moves with it by 10-30 %, whatever the sample
//! count, while a ratio of two timings taken side by side
//! (`spmv_speedup_vs_best_baseline`) holds within 5 %.  So the benchmark
//! reports every timing as such a ratio: the time measured, times
//! `reference / probe`, where `probe` is how long a fixed piece of std-only
//! work (a gather-dot that streams from the shared cache plus a dependent
//! multiply-add chain, on as many threads as the kernels use, the slowest
//! thread counting) took right before, and `reference` is what it takes on this host when quiet
//! ([`crate::scale::SPEED_REFERENCE_US`]).  A quiet host reads factor 1 and
//! the metrics are the raw times; a slowed host reads what the program would
//! have taken at the reference speed.
//!
//! The probe shares no code with the program under test, so no change to the
//! repo can move it.  Its threads are started once and parked between
//! readings, so that the scheduler wakes each where it last ran instead of
//! placing fresh threads (two fresh threads often start on one core and read
//! half speed); a refresh takes the best of three readings, so that neither a
//! scheduler hiccup nor what ran before (cold caches) counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Non-zeros each probe thread gathers over per reading: 4 MB of indices and
/// values, twice an L2, so the gather streams from the shared cache the way
/// the kernels do and slows down when a neighbour saturates it.
const GATHER_NNZ: usize = 1 << 19;
/// Columns gathered from (64 KB of `x`).
const GATHER_COLS: usize = 1 << 14;
/// Dependent multiply-adds each probe thread chains per reading: the part
/// that only the core's own speed moves.
const CHAIN_STEPS: usize = 100_000;

/// What the probe threads and the reader share.
#[derive(Default)]
struct Shared {
    state: Mutex<State>,
    /// Wakes the probe threads for a reading (or to exit).
    start: Condvar,
    /// Wakes the reader when the last thread has reported.
    done: Condvar,
}

#[derive(Default)]
struct State {
    /// Readings asked for so far; a thread works when it is behind.
    generation: u64,
    /// Seconds each thread's work took in the current generation.
    reported: Vec<f64>,
    shutdown: bool,
}

pub struct SpeedProbe {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    reference_secs: f64,
    /// `f64` bits of the current factor (`reference / last reading`).
    factor: AtomicU64,
    readings: Mutex<Vec<f64>>,
}

fn probe_work(cols: &[u32], values: &[f32], x: &[f32]) -> f64 {
    let mut dot = 0.0f32;
    for (&col, &value) in cols.iter().zip(values) {
        dot += value * x[col as usize];
    }
    let mut chain = 1.000_000_1f64;
    for _ in 0..CHAIN_STEPS {
        chain = std::hint::black_box(chain) * 1.000_000_1 + 1e-9;
    }
    dot as f64 + chain
}

fn probe_thread(shared: &Shared, seed: u32) {
    // xorshift32: scattered, repeatable column indices.
    let mut state = seed;
    let cols: Vec<u32> = (0..GATHER_NNZ)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 17;
            state ^= state << 5;
            state % GATHER_COLS as u32
        })
        .collect();
    let values = vec![1.0f32; GATHER_NNZ];
    let x = vec![0.5f32; GATHER_COLS];
    let mut seen = 0;
    loop {
        {
            let mut state = shared.state.lock().expect("probe state poisoned");
            while state.generation == seen && !state.shutdown {
                state = shared.start.wait(state).expect("probe state poisoned");
            }
            if state.shutdown {
                return;
            }
            seen = state.generation;
        }
        let start = Instant::now();
        std::hint::black_box(probe_work(&cols, &values, &x));
        let secs = start.elapsed().as_secs_f64();
        let mut state = shared.state.lock().expect("probe state poisoned");
        state.reported.push(secs);
        shared.done.notify_one();
    }
}

impl SpeedProbe {
    /// A probe over `threads` threads whose quiet-host reading is
    /// `reference_secs`.  `None` gives a probe that never measures and always
    /// reads factor 1 (unit tests of the recorder).
    pub fn new(threads: usize, reference_secs: Option<f64>) -> SpeedProbe {
        let shared = Arc::new(Shared::default());
        let threads = match reference_secs {
            None => Vec::new(),
            Some(_) => (0..threads.max(1))
                .map(|index| {
                    let shared = shared.clone();
                    let seed = 0x9E37_79B9u32.wrapping_mul(index as u32 + 1);
                    std::thread::Builder::new()
                        .name(format!("speed-probe-{index}"))
                        .spawn(move || probe_thread(&shared, seed))
                        .expect("probe thread spawns")
                })
                .collect(),
        };
        SpeedProbe {
            shared,
            threads,
            reference_secs: reference_secs.unwrap_or(1.0),
            factor: AtomicU64::new(1.0f64.to_bits()),
            readings: Mutex::new(Vec::new()),
        }
    }

    /// Seconds the probe work takes right now on the slowest thread.
    fn read(&self) -> f64 {
        let mut state = self.shared.state.lock().expect("probe state poisoned");
        state.reported.clear();
        state.generation += 1;
        self.shared.start.notify_all();
        while state.reported.len() < self.threads.len() {
            state = self.shared.done.wait(state).expect("probe state poisoned");
        }
        state.reported.iter().copied().fold(0.0, f64::max)
    }

    /// Measures the host's speed (the best of three readings, so that a
    /// scheduler hiccup does not count) and makes it the current factor.
    pub fn refresh(&self) {
        if self.threads.is_empty() {
            return;
        }
        let reading = self.read().min(self.read()).min(self.read());
        self.factor
            .store((self.reference_secs / reading).to_bits(), Ordering::Relaxed);
        self.readings
            .lock()
            .expect("probe readings poisoned")
            .push(reading);
    }

    /// What a raw duration is multiplied with: `reference / last reading`.
    pub fn factor(&self) -> f64 {
        f64::from_bits(self.factor.load(Ordering::Relaxed))
    }

    /// Every reading taken so far, in seconds.
    pub fn readings(&self) -> Vec<f64> {
        self.readings
            .lock()
            .expect("probe readings poisoned")
            .clone()
    }
}

impl Drop for SpeedProbe {
    fn drop(&mut self) {
        // A poisoned state means a probe thread panicked and is gone already.
        if let Ok(mut state) = self.shared.state.lock() {
            state.shutdown = true;
        }
        self.shared.start.notify_all();
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_reading() {
        let probe = SpeedProbe::new(2, Some(1.0));
        assert_eq!(probe.factor(), 1.0);
        probe.refresh();
        probe.refresh();
        let readings = probe.readings();
        assert_eq!(readings.len(), 2);
        assert!(readings.iter().all(|r| *r > 0.0));
        assert!((probe.factor() - 1.0 / readings[1]).abs() < 1e-9 * probe.factor());
    }

    #[test]
    fn a_disabled_probe_always_reads_one() {
        let probe = SpeedProbe::new(2, None);
        probe.refresh();
        assert_eq!(probe.factor(), 1.0);
        assert!(probe.readings().is_empty());
    }
}
