//! Peak resident-memory growth of this process, from `/proc/self`.
//!
//! Writing `5` to `/proc/self/clear_refs` resets the kernel's high-water
//! mark (`VmHWM`) to the current resident size, so a measured section's
//! peak growth is `VmHWM` after it minus `VmRSS` at the reset.

fn status_kb(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with(field))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()
}

/// Reset the high-water mark; returns the resident bytes at the reset.
pub fn reset_peak() -> Result<u64, String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))?;
    let rss = status_kb("VmRSS:").ok_or("no VmRSS in /proc/self/status")?;
    Ok(rss * 1024)
}

/// Peak resident growth since `reset_peak` returned `base`, bytes.
pub fn peak_growth(base: u64) -> Result<u64, String> {
    let hwm = status_kb("VmHWM:").ok_or("no VmHWM in /proc/self/status")?;
    Ok((hwm * 1024).saturating_sub(base))
}
