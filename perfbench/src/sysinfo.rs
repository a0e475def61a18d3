//! Process and host counters read from `/proc` (Linux). Each reader
//! returns 0 when the file is missing, so the benchmark still runs
//! elsewhere, only without these figures.

use std::fs;

/// Kernel clock ticks per second for `/proc` CPU times (`USER_HZ`,
/// 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) consumed by this process so far, all
/// threads included.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, starting at field 3
    // (`state`); utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Host-wide CPU time stolen by the hypervisor so far, in seconds
/// summed over all CPUs (the `steal` column of `/proc/stat`).
pub fn steal_seconds() -> f64 {
    fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / USER_HZ)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
