//! Machine-speed calibration.
//!
//! Shared hosts drift: the same build runs the same pass 15–30% slower
//! for minutes at a time while a neighbour is busy, which would swamp
//! any regression bound. For the `xnf-tool` workloads a fixed job in the
//! benchmark's own code — no program code, so no change under test can
//! speed it up — is timed before every pass, and each wall time that
//! follows is scaled by `KERNEL_REF_MS / kernel time`: timings read as
//! milliseconds on the reference host in its quiet state. (The service
//! workload reports raw times; see `serve.rs`.)

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Median time of [`kernel`] on the reference host (2-vCPU 2.1 GHz
/// Xeon VM, quiet). Changing it rescales every calibrated timing.
pub const KERNEL_REF_MS: f64 = 1.5;

/// Times the calibration job: ordered-map inserts, string formatting
/// and a sort — the allocation-, branch- and pointer-heavy mix the
/// engine itself runs.
fn kernel() -> Duration {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    for i in 0..4_000u64 {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 24, i);
    }
    let mut keys: Vec<String> = map.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    keys.sort_unstable();
    std::hint::black_box(&keys);
    t0.elapsed()
}

/// The factor mapping wall times measured next to the kernel onto the
/// reference host, from the median of `runs` kernel runs.
pub fn scale(runs: usize) -> f64 {
    let mut times: Vec<Duration> = (0..runs).map(|_| kernel()).collect();
    times.sort_unstable();
    KERNEL_REF_MS / (times[runs / 2].as_secs_f64() * 1e3)
}
