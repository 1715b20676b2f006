//! Facts about the host a run is measured on, and the bandwidth probe the
//! kernel layer is reported against.

use crate::scale::{Sizes, TRIAD_LLC_MULTIPLE, TRIAD_MEMORY_SHARE, TRIAD_PASSES};
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Parses a sysfs cache size such as `2048K` or `260M`.
fn parse_cache_size(text: &str) -> Option<usize> {
    let text = text.trim();
    let (digits, unit) = match text.as_bytes().last()? {
        b'K' => (&text[..text.len() - 1], 1 << 10),
        b'M' => (&text[..text.len() - 1], 1 << 20),
        b'G' => (&text[..text.len() - 1], 1 << 30),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|n| n * unit)
}

/// The largest cache cpu0 reports, in bytes (0 when sysfs has none).
pub fn llc_bytes() -> usize {
    (0..8)
        .filter_map(|index| {
            let path = format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size");
            parse_cache_size(&std::fs::read_to_string(path).ok()?)
        })
        .max()
        .unwrap_or(0)
}

/// A `kB` field of a `/proc` status file, in bytes.
fn proc_kb_field(path: &str, field: &str) -> Option<usize> {
    let text = std::fs::read_to_string(path).ok()?;
    let line = text.lines().find(|line| line.starts_with(field))?;
    let kb: usize = line[field.len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

pub fn mem_available_bytes() -> usize {
    proc_kb_field("/proc/meminfo", "MemAvailable:").unwrap_or(0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    proc_kb_field("/proc/self/status", "VmHWM:").unwrap_or(0) as f64 / 1e6
}

/// Current resident set of this process, in MB.
pub fn rss_mb() -> f64 {
    proc_kb_field("/proc/self/status", "VmRSS:").unwrap_or(0) as f64 / 1e6
}

/// `git describe` of the checkout, when the working directory is one.  The
/// driver's checkout is not a git repository; git is not started there, so
/// it cannot wander into a parent directory.
pub fn git_describe() -> String {
    if !std::path::Path::new(".git").exists() {
        return "not-a-git-checkout".to_string();
    }
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The result of the STREAM-triad probe.
#[derive(Clone, Copy, Debug)]
pub struct Triad {
    /// Best pass, computed bytes (three arrays touched once) over wall time.
    pub gbps: f64,
    /// Bytes of one of the three arrays.
    pub array_bytes: usize,
    /// Whether each array is at least four times the reported LLC.
    pub beyond_llc: bool,
}

/// Bytes of one triad array: four times the LLC, shrunk so that three arrays
/// fit in a quarter of the available memory (and to the scale's own cap).
fn triad_array_bytes(llc: usize, available: usize, cap: usize) -> usize {
    let wanted = (TRIAD_LLC_MULTIPLE * llc).max(1 << 20);
    let fits = (available as f64 * TRIAD_MEMORY_SHARE / 3.0) as usize;
    wanted.min(fits.max(1 << 20)).min(cap)
}

/// `a[i] = b[i] + s * c[i]` over `f64` arrays on `threads` threads, the
/// sustainable-bandwidth probe the kernels' computed bytes are set against.
/// Taken in the same run as the kernel timings it is compared with.
pub fn stream_triad(sizes: &Sizes, threads: usize) -> Triad {
    let llc = llc_bytes();
    let array_bytes = triad_array_bytes(llc, mem_available_bytes(), sizes.triad_cap_bytes);
    let len = array_bytes / 8;
    let chunk = len.div_ceil(threads.max(1));
    // Filled, and so faulted in, on this thread: on this kind of VM two
    // threads faulting pages of one address space at once are several times
    // slower than one thread faulting all of them.
    let mut a = vec![0.0f64; len];
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    a.fill(0.5);
    let mut best = f64::INFINITY;
    for _ in 0..TRIAD_PASSES {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                scope.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = *b + 3.0 * *c;
                    }
                });
            }
        });
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert_eq!(std::hint::black_box(&a)[len / 2], 7.0, "triad result");
    Triad {
        gbps: (3 * len * 8) as f64 / best / 1e9,
        array_bytes: len * 8,
        beyond_llc: len * 8 >= TRIAD_LLC_MULTIPLE * llc,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_sizes_parse_with_units() {
        assert_eq!(parse_cache_size("48K\n"), Some(48 << 10));
        assert_eq!(parse_cache_size("260M"), Some(260 << 20));
        assert_eq!(parse_cache_size("512"), Some(512));
        assert_eq!(parse_cache_size("big"), None);
        assert_eq!(parse_cache_size(""), None);
    }

    #[test]
    fn triad_arrays_follow_the_llc_unless_memory_is_short() {
        let gib = 1 << 30;
        // Plenty of memory: four times the LLC.
        assert_eq!(triad_array_bytes(32 << 20, 16 * gib, usize::MAX), 128 << 20);
        // Three arrays must fit in a quarter of what is available.
        assert_eq!(triad_array_bytes(256 << 20, 6 * gib, usize::MAX), gib / 2);
        // The smoke scale caps it.
        assert_eq!(triad_array_bytes(32 << 20, 16 * gib, 1 << 20), 1 << 20);
    }

    #[test]
    fn triad_reports_a_positive_bandwidth() {
        let triad = stream_triad(&crate::scale::SMOKE, 2);
        assert!(triad.gbps > 0.0);
        assert_eq!(triad.array_bytes, 1 << 20);
    }
}
