//! What the operating system says about this process: peak resident
//! memory and CPU time, read from `/proc`.

use std::fs;

/// `VmHWM` — the process's resident-set high-water mark, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// User plus system CPU time of the whole process so far, in µs.
pub fn cpu_us() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    // the command name may hold spaces; fields are counted after its `)`
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux this runs on
    Some((utime + stime) * 1e6 / 100.0)
}

/// Hardware threads the scheduler gives this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_plausible() {
        let rss = peak_rss_mib().expect("VmHWM readable");
        assert!(rss > 0.5 && rss < 1e6, "{rss}");
        let before = cpu_us().expect("stat readable");
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us().expect("stat readable") >= before);
        assert!(nproc() >= 1);
    }
}
