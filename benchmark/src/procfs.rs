//! Process CPU time and peak memory, read from Linux procfs.

use std::fs;

/// Clock ticks per second of `/proc/self/stat` times (`USER_HZ`, 100 on
/// every Linux architecture this benchmark targets).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds used by this process so far, exited
/// threads included.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?.1;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64)
            .ok_or_else(|| format!("no field {i} in /proc/self/stat"))
    };
    Ok((ticks(11)? + ticks(12)?) / TICKS_PER_S)
}

/// Peak resident set size so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}
