//! Process and host facts: peak memory, CPU time, run metadata.

use std::path::Path;
use std::time::Duration;

/// Peak resident set of this process in MiB (`VmHWM`), or `None` where
/// `/proc` does not report it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time consumed so far by every thread of this process.
///
/// # Panics
///
/// Panics if the clock is unavailable, which Linux never reports for
/// this clock id.
pub fn process_cpu_time() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id
    // is a constant the kernel accepts.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Logical CPUs this process may run on.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Whether the CPU offers AVX2 (the mlkit frontier walk's fast path).
pub fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// The checked-out commit, when the working directory is a git
/// checkout; benchmark checkouts without `.git` report `"unavailable"`.
pub fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unavailable".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unavailable".into(), |s| s.trim().to_string())
}

/// FNV-1a over byte slices — the corpus digest.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bit patterns of `values`.
    pub fn write_f64s(&mut self, values: &[f64]) {
        for v in values {
            self.write(&v.to_bits().to_le_bytes());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// splitmix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(stream.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = process_cpu_time();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(process_cpu_time() > t0, "{x}");
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.0);
        }
    }

    #[test]
    fn fnv_and_mix_are_deterministic() {
        let mut a = Fnv::default();
        a.write_f64s(&[1.0, 2.0]);
        let mut b = Fnv::default();
        b.write_f64s(&[1.0, 2.0]);
        assert_eq!(a.finish(), b.finish());
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_eq!(mix(7, 3), mix(7, 3));
    }
}
