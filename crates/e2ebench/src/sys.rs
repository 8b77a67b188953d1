//! What the kernel knows about a process: peak memory and CPU time,
//! read from `/proc` (the benchmark runs on Linux only).

use std::fs;

/// Clock ticks per second of `/proc/<pid>/stat` times.  `USER_HZ` is
/// 100 on every Linux ABI; reading it properly needs `sysconf`, which
/// needs `unsafe` and a libc the workspace does not carry.
const USER_HZ: f64 = 100.0;

fn proc_path(pid: Option<u32>, file: &str) -> String {
    match pid {
        Some(pid) => format!("/proc/{pid}/{file}"),
        None => format!("/proc/self/{file}"),
    }
}

/// Peak resident set (`VmHWM`) in MB of `pid`, or of this process.
pub fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "status");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let kb = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|n| n.parse::<f64>().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))?;
    Ok(kb / 1024.0)
}

/// User + system CPU seconds consumed so far by every thread (live or
/// joined) of `pid`, or of this process.
pub fn cpu_seconds(pid: Option<u32>) -> Result<f64, String> {
    let path = proc_path(pid, "stat");
    let text = fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    // the command name (field 2) may hold spaces; fields resume after
    // its closing parenthesis, so utime and stime (fields 14 and 15)
    // are the 12th and 13th from there
    let (_, rest) = text
        .rsplit_once(')')
        .ok_or_else(|| format!("{path}: malformed"))?;
    let mut fields = rest.split_whitespace().skip(11);
    let mut tick = || fields.next().and_then(|f| f.parse::<f64>().ok());
    match (tick(), tick()) {
        (Some(utime), Some(stime)) => Ok((utime + stime) / USER_HZ),
        _ => Err(format!("{path}: malformed")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_process_has_memory_and_a_clock() {
        assert!(peak_rss_mb(None).unwrap() > 0.5);
        let before = cpu_seconds(None).unwrap();
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(cpu_seconds(None).unwrap() >= before);
        assert!(cpu_seconds(Some(std::process::id())).is_ok());
    }
}
