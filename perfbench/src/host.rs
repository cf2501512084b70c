//! The host and build a result came from, and the process's memory.

use std::fs;

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The build profile this binary was compiled with.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

fn status_kb(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Resets the kernel's peak-RSS mark to the current RSS and returns that
/// RSS in kB (`None` where `/proc` is unavailable).
pub fn reset_peak_rss_kb() -> Option<u64> {
    // Writing 5 to clear_refs resets VmHWM (Linux ≥ 4.0); if the kernel
    // refuses, the peak keeps counting from process start.
    let _ = fs::write("/proc/self/clear_refs", "5");
    status_kb("VmRSS:")
}

/// Peak resident set size in kB.
pub fn peak_rss_kb() -> Option<u64> {
    status_kb("VmHWM:")
}

/// Host CPU time so far as (steal, total) clock ticks, from `/proc/stat`:
/// steal is time this machine's vCPUs were ready but the hypervisor ran
/// someone else.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}
