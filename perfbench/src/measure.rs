//! Order statistics, path-set digests and peak-memory readings.

use c9_vm::{PathChoice, TestCase};

/// Median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile that has at least ten samples beyond it, as
/// `(percentile, value)`: the 11th-largest sample. Below 20 samples that
/// percentile falls under the median (or does not exist), so the median
/// stands in and the percentile reads 50.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 20 {
        return (50.0, median(values));
    }
    (100.0 * (n - 10) as f64 / n as f64, sorted(values)[n - 11])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// FNV-1a digest of a set of decision paths, independent of the order in
/// which the workers reported them. Each path is length-prefixed so no two
/// distinct sets encode to the same byte stream.
pub fn path_set_digest(cases: &[TestCase]) -> u64 {
    let mut paths: Vec<&Vec<PathChoice>> = cases.iter().map(|tc| &tc.path).collect();
    paths.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for path in paths {
        feed(&(path.len() as u64).to_le_bytes());
        for choice in path {
            match *choice {
                PathChoice::Branch(taken) => feed(&[0, taken as u8]),
                PathChoice::Alt { chosen, total } => {
                    feed(&[1]);
                    feed(&chosen.to_le_bytes());
                    feed(&total.to_le_bytes());
                }
            }
        }
    }
    hash
}

/// Resets the kernel's peak-RSS mark (`VmHWM`) to the current RSS, so the
/// next [`peak_rss_mb`] covers only what ran in between. Returns whether
/// the kernel allowed it; without it the reading is the process-wide peak.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory of this process in MiB, from `VmHWM`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_eleventh_largest_sample() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&values), (90.0, 90.0));
        assert_eq!(tail(&values[..20]), (50.0, 10.0));
        assert_eq!(tail(&values[..19]), (50.0, 10.0));
        assert_eq!(median(&values[..5]), 3.0);
        assert_eq!(median(&values[..4]), 2.5);
    }
}
