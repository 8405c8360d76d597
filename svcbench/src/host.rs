//! Host readings: core count, peak memory, CPU time, TIME_WAIT sockets and
//! build provenance. Every reading degrades to a neutral value when its
//! source is unavailable.

use std::path::Path;

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Peak resident set size (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU seconds this process has used so far.
pub fn cpu_seconds() -> f64 {
    // Clock ticks per second; 100 on every Linux configuration in use.
    const TICKS: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // utime and stime are fields 14 and 15 of the line; counted from the
    // first field after the parenthesised command name (field 3), they
    // sit at indices 11 and 12.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / TICKS
}

/// Host-wide `(steal, total)` CPU ticks from `/proc/stat`: time this
/// machine's virtual CPUs wanted to run but the hypervisor ran others.
pub fn steal_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Percentage of the CPU ticks between two [`steal_ticks`] readings that
/// the hypervisor stole.
pub fn stolen_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    100.0 * (after.0 - before.0) as f64 / (after.1 - before.1).max(1) as f64
}

/// Sockets in TIME_WAIT in this network namespace (IPv4 and IPv6).
pub fn time_wait_sockets() -> u64 {
    ["/proc/net/tcp", "/proc/net/tcp6"]
        .iter()
        .map(|path| {
            std::fs::read_to_string(path)
                .unwrap_or_default()
                .lines()
                .skip(1)
                .filter(|l| l.split_whitespace().nth(3) == Some("06"))
                .count() as u64
        })
        .sum()
}

/// `rustc -V` of the toolchain on `PATH`.
pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The commit checked out in the current directory, read from `.git`
/// without running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(".git");
    let head = match std::fs::read_to_string(git.join("HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        .unwrap_or_else(|| "unknown".to_string())
}
