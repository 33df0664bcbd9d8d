//! Small helpers: seeded randomness, hashing, process memory and the
//! per-run scratch directory.

use nda_core::Variant;
use std::path::{Path, PathBuf};

/// SplitMix64: a tiny seeded generator, so a schedule depends on nothing
/// but the benchmark's seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// FNV-1a 64 of `data`.
pub fn fnv64(data: &[u8]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Metric-name slug of a variant: lower case, `+` and spaces to `-`.
pub fn slug(v: Variant) -> String {
    v.name().to_ascii_lowercase().replace(['+', ' '], "-")
}

/// Peak resident set of this process in MB (`VmHWM`), or 0 when the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU seconds this process has used (user + system), from
/// `/proc/self/stat` in USER_HZ (100 Hz) ticks; 0 when unavailable.
pub fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and
            // stime are fields 14 and 15 of the whole line.
            let rest = s.get(s.rfind(')')? + 2..)?;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Bytes under `dir`, recursively.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Where a run writes its traces and scratch stores, relative to the
/// checkout root the benchmark is started from.
pub const OUT_DIR: &str = ".bench_out";

/// A fresh, empty scratch directory under [`OUT_DIR`], unique to this
/// process and `tag`. The caller measures and removes it.
pub fn fresh_dir(tag: &str) -> PathBuf {
    let dir = Path::new(OUT_DIR).join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Size `dir` in MB, then delete it.
pub fn measure_and_remove(dir: &Path) -> f64 {
    let mb = dir_bytes(dir) as f64 / 1e6;
    let _ = std::fs::remove_dir_all(dir);
    mb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_and_seed_sensitive() {
        let a: Vec<u64> = (0..8)
            .scan(Rng::new(5), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..8)
            .scan(Rng::new(5), |r, _| Some(r.next_u64()))
            .collect();
        let c: Vec<u64> = (0..8)
            .scan(Rng::new(6), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_seconds();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 300 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let used = cpu_seconds() - before;
        assert!(used > 0.1 && used < 5.0, "{used}");
    }

    #[test]
    fn fresh_dir_is_measured_then_removed() {
        let d = fresh_dir("util-test");
        std::fs::write(d.join("x"), [0u8; 1000]).unwrap();
        assert_eq!(dir_bytes(&d), 1000);
        assert!((measure_and_remove(&d) - 0.001).abs() < 1e-12);
        assert!(!d.exists());
    }
}
