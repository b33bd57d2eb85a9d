//! What the kernel says about this process and this host (`/proc`).

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/<pid>/stat`: `USER_HZ`, a Linux ABI constant.
const USER_HZ: f64 = 100.0;

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    parse_vm_hwm_kb(&status).map_or(0.0, |kb| kb as f64 / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU seconds consumed by every thread of this process.
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    parse_cpu_ticks(&stat).map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

fn parse_cpu_ticks(stat: &str) -> Option<u64> {
    // The command name (field 2) may hold spaces and parentheses; the
    // numeric fields start after the last ')'. utime and stime are
    // fields 14 and 15, i.e. the 12th and 13th after the command.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    let info = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |m| m.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
    }

    #[test]
    fn parses_cpu_ticks_past_an_awkward_command_name() {
        let stat = "42 (a b) c) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 3 0 100 1000 50";
        assert_eq!(parse_cpu_ticks(stat), Some(175));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn live_readings_are_sane() {
        assert!(peak_rss_mb() > 0.0);
        assert!(cpu_seconds() >= 0.0);
        assert!(nproc() >= 1);
    }
}
