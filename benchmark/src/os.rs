//! What the kernel says about this process (`/proc/self`). One
//! workload runs per process, so these are per-workload figures.

use std::fs;

/// Peak resident set (`VmHWM`) in MiB; 0 where `/proc` is absent.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds and page faults charged to the process so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
    pub minor_faults: u64,
}

impl CpuTimes {
    /// Read `/proc/self/stat`. Ticks are converted at the 100 Hz every
    /// Linux ABI reports to user space (`USER_HZ`).
    pub fn now() -> CpuTimes {
        const USER_HZ: f64 = 100.0;
        let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // Fields after the parenthesised command name, which may itself
        // contain spaces: state is field 3, minflt 10, utime 14, stime 15.
        let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let num = |i: usize| {
            fields
                .get(i)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        CpuTimes {
            minor_faults: num(7),
            user_s: num(11) as f64 / USER_HZ,
            sys_s: num(12) as f64 / USER_HZ,
        }
    }
}
