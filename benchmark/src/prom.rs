//! Reads one histogram out of a Prometheus text exposition
//! (`Client::metrics()`), so the daemon's own view of a request — e.g.
//! `net_spmv_latency_us` — can be set against the client-observed latency.

/// A histogram as exposed: cumulative counts per upper bound, ascending, the
/// `+Inf` bucket last.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    pub buckets: Vec<(f64, u64)>,
    pub sum: f64,
    pub count: u64,
}

/// The value of the `le="..."` label in a label block.
fn le_label(labels: &str) -> Option<f64> {
    let start = labels.find("le=\"")? + 4;
    let end = start + labels[start..].find('"')?;
    match &labels[start..end] {
        "+Inf" => Some(f64::INFINITY),
        bound => bound.parse().ok(),
    }
}

/// Parses the histogram family `name`; series with different labels are
/// summed.  `None` when the family is absent or has no observations' buckets.
pub fn histogram(text: &str, name: &str) -> Option<Histogram> {
    let bucket_prefix = format!("{name}_bucket{{");
    let mut buckets: Vec<(f64, u64)> = Vec::new();
    let (mut sum, mut count) = (0.0, 0u64);
    for line in text.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(labels) = series.strip_prefix(&bucket_prefix) {
            let (le, value) = (le_label(labels)?, value.parse::<u64>().ok()?);
            match buckets.iter_mut().find(|(bound, _)| *bound == le) {
                Some(bucket) => bucket.1 += value,
                None => buckets.push((le, value)),
            }
        } else if series == format!("{name}_sum") || series.starts_with(&format!("{name}_sum{{")) {
            sum += value.parse::<f64>().ok()?;
        } else if series == format!("{name}_count")
            || series.starts_with(&format!("{name}_count{{"))
        {
            count += value.parse::<u64>().ok()?;
        }
    }
    if buckets.is_empty() {
        return None;
    }
    buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    Some(Histogram {
        buckets,
        sum,
        count,
    })
}

impl Histogram {
    /// Quantile `q` in `[0, 1]`, interpolated linearly inside the bucket the
    /// rank falls in.  The `+Inf` bucket reports its lower bound.  0 for an
    /// empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * self.count as f64;
        let (mut lower, mut below) = (0.0, 0u64);
        for &(upper, cumulative) in &self.buckets {
            if cumulative as f64 >= rank && cumulative > below {
                if upper.is_infinite() {
                    return lower;
                }
                let inside = (rank - below as f64) / (cumulative - below) as f64;
                return lower + (upper - lower) * inside.clamp(0.0, 1.0);
            }
            lower = upper;
            below = cumulative;
        }
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
net_requests_total{kind=\"spmv\"} 12
net_spmv_latency_us_bucket{le=\"64\"} 0
net_spmv_latency_us_bucket{le=\"128\"} 10
net_spmv_latency_us_bucket{le=\"256\"} 30
net_spmv_latency_us_bucket{le=\"+Inf\"} 40
net_spmv_latency_us_sum 7000
net_spmv_latency_us_count 40
net_spmv_latency_us_other_bucket{le=\"1\"} 99
cpu_kernel_run_us_bucket{simd=\"avx2\",le=\"8\"} 3
cpu_kernel_run_us_bucket{simd=\"avx2\",le=\"+Inf\"} 3
cpu_kernel_run_us_bucket{simd=\"scalar\",le=\"8\"} 1
cpu_kernel_run_us_bucket{simd=\"scalar\",le=\"+Inf\"} 2
cpu_kernel_run_us_sum{simd=\"avx2\"} 12
cpu_kernel_run_us_sum{simd=\"scalar\"} 30
cpu_kernel_run_us_count{simd=\"avx2\"} 3
cpu_kernel_run_us_count{simd=\"scalar\"} 2
";

    #[test]
    fn parses_buckets_sum_and_count() {
        let h = histogram(TEXT, "net_spmv_latency_us").expect("family present");
        assert_eq!(
            h.buckets,
            [(64.0, 0), (128.0, 10), (256.0, 30), (f64::INFINITY, 40)]
        );
        assert_eq!(h.sum, 7000.0);
        assert_eq!(h.count, 40);
        assert!(histogram(TEXT, "absent").is_none());
    }

    #[test]
    fn sums_series_that_differ_in_labels() {
        let h = histogram(TEXT, "cpu_kernel_run_us").expect("family present");
        assert_eq!(h.buckets, [(8.0, 4), (f64::INFINITY, 5)]);
        assert_eq!((h.sum, h.count), (42.0, 5));
    }

    #[test]
    fn quantile_interpolates_inside_the_bucket() {
        let h = histogram(TEXT, "net_spmv_latency_us").expect("family present");
        // Rank 20 of 40: halfway through the (128, 256] bucket's 20 samples.
        assert_eq!(h.quantile(0.5), 192.0);
        // Rank 10 is the last sample of the (64, 128] bucket.
        assert_eq!(h.quantile(0.25), 128.0);
        // The tail beyond the last finite bound reports that bound.
        assert_eq!(h.quantile(1.0), 256.0);
        let empty = Histogram {
            buckets: vec![(1.0, 0)],
            sum: 0.0,
            count: 0,
        };
        assert_eq!(empty.quantile(0.5), 0.0);
    }
}
