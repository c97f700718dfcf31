//! Host fingerprint and the host-level measurements (peak RSS, bandwidth
//! ceiling) that every `*_gbps` and thread-scaling number is read against.

use std::path::Path;
use std::process::Command;
use std::time::Instant;

/// What ran the numbers. Printed with every output and embedded in the
/// trace file, so two results are only compared when these agree.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// CPUs this process may run on.
    pub nproc: usize,
    /// Pool size used for every measured run: `min(nproc, 4)`.
    pub threads: usize,
    /// cgroup CPU quota in cores, `None` when unlimited or unreadable.
    pub cpu_quota: Option<f64>,
    pub simd_tier: &'static str,
    pub rustc: String,
    pub git_commit: String,
    pub seed: u64,
}

impl Fingerprint {
    pub fn collect(seed: u64) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self {
            nproc,
            threads: nproc.min(4),
            cpu_quota: cgroup_cpu_quota(),
            simd_tier: harpgbdt::kernels::simd_tier().name(),
            rustc: command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into()),
            git_commit: git_commit(),
            seed,
        }
    }

    /// Cores the run can actually occupy at once.
    pub fn cores(&self) -> f64 {
        self.cpu_quota.map_or(self.nproc as f64, |q| q.min(self.nproc as f64))
    }

    /// Whether a parallel-efficiency figure means anything for `threads`
    /// workers: with more workers than cores it measures time slicing.
    pub fn efficiency_is_meaningful(&self, threads: usize) -> bool {
        threads as f64 <= self.cores()
    }

    pub fn pairs(&self) -> Vec<(String, String)> {
        let quota = self.cpu_quota.map_or("unlimited".to_string(), |q| format!("{q:.2}"));
        [
            ("nproc", self.nproc.to_string()),
            ("threads", self.threads.to_string()),
            ("cpu_quota", quota),
            ("simd_tier", self.simd_tier.to_string()),
            ("rustc", self.rustc.clone()),
            ("git_commit", self.git_commit.clone()),
            ("seed", self.seed.to_string()),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect()
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The checkout's commit, or `unknown` where the package is not directly
/// inside a git work tree (a bare file copy must not pick up whatever
/// repository happens to enclose it).
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    if !root.join(".git").exists() {
        return "unknown".into();
    }
    let root = root.to_string_lossy().into_owned();
    command_line("git", &["-C", &root, "rev-parse", "--short", "HEAD"])
        .unwrap_or_else(|| "unknown".into())
}

fn parse_quota(quota: &str, period: &str) -> Option<f64> {
    let q: f64 = quota.trim().parse().ok()?;
    let p: f64 = period.trim().parse().ok()?;
    (q > 0.0 && p > 0.0).then_some(q / p)
}

fn cgroup_cpu_quota() -> Option<f64> {
    if let Ok(text) = std::fs::read_to_string("/sys/fs/cgroup/cpu.max") {
        let mut it = text.split_whitespace();
        return parse_quota(it.next()?, it.next()?);
    }
    let quota = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").ok()?;
    let period = std::fs::read_to_string("/sys/fs/cgroup/cpu/cpu.cfs_period_us").ok()?;
    parse_quota(&quota, &period)
}

/// Resets `VmHWM` to the current resident set, so that a later
/// [`peak_rss_mb`] leaves out what the process held before (the generator's
/// population). Where the kernel refuses, the peak covers the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// `VmHWM` of this process in MB: the resident-set high-water mark.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Size of the largest CPU cache the kernel reports, in bytes.
fn last_level_cache_bytes() -> Option<usize> {
    let dir = std::fs::read_dir("/sys/devices/system/cpu/cpu0/cache").ok()?;
    dir.filter_map(|e| {
        let text = std::fs::read_to_string(e.ok()?.path().join("size")).ok()?;
        let text = text.trim();
        let (digits, unit) = text.split_at(text.find(|c: char| !c.is_ascii_digit())?);
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            _ => return None,
        };
        Some(digits.parse::<usize>().ok()? * scale)
    })
    .max()
}

/// Result of the STREAM-style triad.
pub struct Triad {
    pub gbps: f64,
    pub array_bytes: usize,
    pub llc_bytes: usize,
}

/// Largest array the triad allocates (three of them are live). A VM that
/// reports its host's whole shared L3 would otherwise ask for gigabytes.
const TRIAD_MAX_ARRAY_BYTES: usize = 128 << 20;

/// `a[i] = b[i] + s * c[i]` over arrays of four times the last-level cache
/// (capped at [`TRIAD_MAX_ARRAY_BYTES`]), split across `threads` threads;
/// best of three passes. The bandwidth counts the three streams the loop
/// names (24 B per element), not write-allocate traffic.
pub fn triad(threads: usize) -> Triad {
    let llc_bytes = last_level_cache_bytes().unwrap_or(32 << 20);
    let array_bytes = (4 * llc_bytes).clamp(32 << 20, TRIAD_MAX_ARRAY_BYTES);
    let n = array_bytes / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.5f64; n];
    let c = vec![0.25f64; n];
    let per = n.div_ceil(threads.max(1));
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(per).zip(b.chunks(per)).zip(c.chunks(per)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(&a);
    }
    Triad { gbps: (24 * n) as f64 / best / 1e9, array_bytes, llc_bytes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_parses_limited_and_unlimited_forms() {
        assert_eq!(parse_quota("200000", "100000"), Some(2.0));
        assert_eq!(parse_quota("50000", "100000\n"), Some(0.5));
        assert_eq!(parse_quota("max", "100000"), None);
        assert_eq!(parse_quota("-1", "100000"), None);
    }

    #[test]
    fn efficiency_is_refused_above_the_core_count() {
        let mut fp = Fingerprint {
            nproc: 4,
            threads: 4,
            cpu_quota: None,
            simd_tier: "scalar",
            rustc: String::new(),
            git_commit: String::new(),
            seed: 0,
        };
        assert!(fp.efficiency_is_meaningful(4));
        assert!(!fp.efficiency_is_meaningful(16));
        fp.cpu_quota = Some(1.5);
        assert!(!fp.efficiency_is_meaningful(2));
        assert!(fp.efficiency_is_meaningful(1));
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
        }
    }
}
