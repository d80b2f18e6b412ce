//! Small numeric helpers shared by every workload: percentiles, seed
//! mixing, digests and the process's peak resident set.

/// Nearest-rank percentile: the element at rank `ceil(q·n)` of the
/// sorted sample (0 when empty).
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// How many samples lie strictly above the `q`-percentile.
pub fn beyond(xs: &[f64], q: f64) -> usize {
    let p = percentile(xs, q);
    xs.iter().filter(|&&x| x > p).count()
}

/// Median (the 0.5 nearest-rank percentile).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// SplitMix64 finalizer: a well-mixed 64-bit function of its input.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Derive a child seed from a parent seed and a stream index.
pub fn mix(seed: u64, stream: u64) -> u64 {
    splitmix(seed ^ splitmix(stream))
}

/// FNV-1a over bytes.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01B3);
    }
    h
}

/// Fold one value into a running digest (order-sensitive).
pub fn fold(digest: u64, value: u64) -> u64 {
    splitmix(digest ^ value)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 100.0);
        assert_eq!(percentile(&xs, 0.95), 190.0);
        assert_eq!(beyond(&xs, 0.95), 10);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn mixing_separates_streams() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
