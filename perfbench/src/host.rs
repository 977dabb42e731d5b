//! The host fingerprint and the noise guard: a number means little
//! without the machine it was taken on, and a noisy run should be
//! recognisable as one.

use std::process::Command;

/// Environment variables that change what the kernels and the thread
/// pools do. A run with one of them set measures another configuration.
pub const GUARDED_ENV: [&str; 4] = [
    "GCD2_THREADS",
    "GCD2_FORCE_SCALAR",
    "GCD2_AUTOTUNE",
    "GCD2_AMX",
];

/// The guarded variables that are set, as `NAME=value`.
pub fn guarded_env_set() -> Vec<String> {
    GUARDED_ENV
        .iter()
        .filter_map(|name| Some(format!("{name}={}", std::env::var(name).ok()?)))
        .collect()
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `(steal, total)` jiffies since boot from the first line of
/// `/proc/stat`; zeros where there is no such file.
pub fn cpu_jiffies() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal; guest time is
    // already counted in user.
    let total = fields.iter().take(8).sum();
    (fields.get(7).copied().unwrap_or(0), total)
}

/// Share of CPU time the hypervisor gave to someone else between two
/// readings of [`cpu_jiffies`].
pub fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The fingerprint stamped into a results file, as JSON.
pub fn fingerprint_json() -> String {
    let env: Vec<String> = guarded_env_set()
        .iter()
        .map(|e| format!("\"{e}\""))
        .collect();
    format!(
        "{{\"cores\": {}, \"isa\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \"env\": [{}]}}",
        cores(),
        gcd2_kernels::detected_isa().name(),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
        env.join(", "),
    )
}
