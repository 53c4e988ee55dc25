//! Host facts, `/proc` readings and the small statistics the report uses.

use std::time::Duration;

/// Clock ticks per second of `/proc/<pid>/stat` times (`CLK_TCK`, 100 on
/// every Linux this runs on).
const CLK_TCK: f64 = 100.0;

/// Cores the machine offers this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process CPU time (user + system, every thread) in milliseconds; `pid` is
/// `"self"` or a child's pid.
pub fn cpu_ms(pid: &str) -> Option<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the whole line
    let rest = stat.rsplit_once(") ")?.1;
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / CLK_TCK)
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// `(steal, total)` clock ticks of all CPUs from `/proc/stat`: time the
/// hypervisor ran something else while this machine wanted to run.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_ascii_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Arithmetic mean (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// fnv1a-64 over the bit patterns of `values` — the workspace's golden-hash
/// currency for forecast rows and parameter tensors.
pub fn bits_hash(values: &[f32]) -> u64 {
    let mut bytes = Vec::with_capacity(values.len() * 4);
    for v in values {
        bytes.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    lip_serve::fnv1a(&bytes)
}
