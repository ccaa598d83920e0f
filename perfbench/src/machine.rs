//! The machine the host clock runs on: an in-run triad roof, the CPU
//! and build provenance behind every host number, and peak memory.

use std::hint::black_box;
use std::time::Instant;

use crate::Report;

/// Last-level cache assumed when the OS does not report one (105 MiB,
/// the L3 the ROADMAP's host measurements quote).
const DEFAULT_LLC_BYTES: usize = 105 << 20;

/// Last-level cache size in bytes, from sysfs when available.
pub fn llc_bytes() -> usize {
    (0..8)
        .rev()
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let size = std::fs::read_to_string(format!("{dir}/size")).ok()?;
            parse_cache_size(size.trim())
        })
        .next()
        .unwrap_or(DEFAULT_LLC_BYTES)
}

fn parse_cache_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.strip_suffix('K') {
        Some(n) => (n, 1 << 10),
        None => match s.strip_suffix('M') {
            Some(n) => (n, 1 << 20),
            None => (s, 1),
        },
    };
    num.parse::<usize>().ok().map(|v| v * mult)
}

/// Single-thread STREAM triad `a = b + s c`, each array at least
/// `4 x llc`, best of three passes; returns `(GB/s, bytes per array)`.
/// Counts 24 bytes per element (two reads, one write).
pub fn triad_gbs(llc: usize) -> (f64, usize) {
    let n = (4 * llc).div_ceil(8);
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let mut a = vec![0.0f64; n];
    let s = black_box(3.0f64);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        black_box(&mut a);
        best = best.min(t.elapsed().as_secs_f64());
    }
    assert!(a[n - 1] == 7.0, "triad result");
    ((24 * n) as f64 / best / 1e9, 8 * n)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU model and the FMA/F16C flags the OS reports.
fn cpu() -> (String, bool, bool) {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = info
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".into());
    let flags: Vec<&str> = info
        .lines()
        .find_map(|l| l.strip_prefix("flags"))
        .map(|v| v.split_whitespace().collect())
        .unwrap_or_default();
    (model, flags.contains(&"fma"), flags.contains(&"f16c"))
}

/// Target features this build was compiled with (the ones that change
/// kernel code: a libm `fma` call versus one instruction, software
/// versus hardware half conversion).
fn build_features() -> String {
    let feats = [
        ("fma", cfg!(target_feature = "fma")),
        ("f16c", cfg!(target_feature = "f16c")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("avx512f", cfg!(target_feature = "avx512f")),
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("neon", cfg!(target_feature = "neon")),
    ];
    let on: Vec<&str> = feats.iter().filter(|f| f.1).map(|f| f.0).collect();
    if on.is_empty() {
        "baseline".into()
    } else {
        on.join(",")
    }
}

/// Print the provenance lines and, for traced runs, measure the triad
/// roof (reported as `machine.triad_gbs`). Returns the roof in GB/s.
pub fn provenance(report: &mut Report, backend: &str, triad: bool) -> f64 {
    let (model, fma, f16c) = cpu();
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    report.line(format!(
        "machine: cpu \"{model}\" (fma {fma}, f16c {f16c}), {threads} hw threads; \
         build target features: {} ({}); backend {backend}, 1 thread per kernel",
        build_features(),
        std::env::consts::ARCH
    ));
    if !triad {
        return f64::NAN;
    }
    let llc = llc_bytes();
    let (gbs, bytes) = triad_gbs(llc);
    report.line(format!(
        "machine: single-thread triad {gbs:.2} GB/s over 3 arrays of {:.0} MiB each \
         (LLC {:.0} MiB)",
        bytes as f64 / (1 << 20) as f64,
        llc as f64 / (1 << 20) as f64
    ));
    report.layer("machine.triad_gbs", gbs, "GB/s", "");
    gbs
}
