//! Small measurement helpers: quantiles, process counters.

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable (the benchmark needs Linux).
pub fn peak_rss_mib() -> Result<f64, String> {
    status_kib("VmHWM:")
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "cannot read VmHWM from /proc/self/status".to_owned())
}

/// Resident set size of this process now (`VmRSS`) in MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable.
pub fn rss_mib() -> Result<f64, String> {
    status_kib("VmRSS:")
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "cannot read VmRSS from /proc/self/status".to_owned())
}

extern "C" {
    /// glibc: returns free heap memory to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns freed heap memory to the kernel, so that memory a previous cell
/// freed but the allocator kept does not count toward the next
/// [`peak_rss_mib`] reading.
pub fn trim_heap() {
    // SAFETY: malloc_trim only releases memory the allocator holds free;
    // it takes no pointers and is safe to call at any time.
    unsafe {
        malloc_trim(0);
    }
}

/// Resets this process's peak-RSS high-water mark (`VmHWM`) to its current
/// RSS, so the next [`peak_rss_mib`] covers only what follows.
///
/// # Errors
///
/// When the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM via /proc/self/clear_refs: {e}"))
}

/// Minor page faults of this process so far (`/proc/self/stat` field 10).
pub fn minor_faults() -> u64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name, which may
            // itself contain spaces.
            let tail = &s[s.rfind(')')? + 2..];
            tail.split_whitespace().nth(7)?.parse().ok()
        })
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }
}
