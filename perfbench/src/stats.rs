//! Order statistics and the process's peak resident memory.

/// Median of a sample (mean of the middle pair for even sizes); `NaN` for
/// an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        len if len % 2 == 1 => sorted[len / 2],
        len => 0.5 * (sorted[len / 2 - 1] + sorted[len / 2]),
    }
}

/// Percentiles offered as the tail, in tenths of a percent, highest first.
const TAIL_LADDER: [usize; 6] = [999, 995, 990, 980, 950, 900];

/// The highest ladder percentile with at least ten samples beyond its
/// nearest-rank value, as `(percentile, value)`; `None` when the sample
/// supports no tail at p90 or above.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    TAIL_LADDER.into_iter().find_map(|tenths| {
        let rank = (tenths * len).div_ceil(1000);
        (rank >= 1 && len - rank >= 10).then(|| (tenths as f64 / 10.0, sorted[rank - 1]))
    })
}

/// Peak resident set size of this process, in MB (`getrusage`'s
/// `ru_maxrss`, which Linux reports in KiB).
pub fn peak_rss_mb() -> f64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (2 × i64 each)
    // followed by fourteen `long`s, the first of which is `ru_maxrss`.  The
    // buffer is larger than the struct, so the kernel never writes past it.
    #[repr(C)]
    struct RUsage {
        words: [i64; 32],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = RUsage { words: [0; 32] };
    // SAFETY: `usage` is a live, writable buffer larger than `struct
    // rusage`, and `getrusage` writes only that struct into it.
    let status = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(status, 0, "getrusage(RUSAGE_SELF) cannot fail");
    usage.words[4] as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((90.0, 90.0)));
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((99.0, 990.0)));
        assert_eq!(tail(&samples[..50]), None);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb() > 0.0);
    }
}
