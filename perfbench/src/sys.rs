//! Process-level measurements: CPU time, peak RSS, and the host
//! reference kernel.

use std::hint::black_box;
use std::time::Instant;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// Linux `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the
/// process, user plus system.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// Process CPU time (user + sys, all threads) in seconds, at nanosecond
/// resolution (`/proc/self/stat` only has clock ticks).
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark runs on), and
    // clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set (VmHWM) of this process, MiB.
pub fn peak_rss_mib() -> f64 {
    let bytes = geotopo::core::telemetry::peak_rss_bytes()
        .expect("VmHWM is readable from /proc/self/status");
    bytes as f64 / (1024.0 * 1024.0)
}

/// Wall and CPU clocks read together, for timing one segment.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    wall: Instant,
    cpu: f64,
}

impl Clock {
    /// Starts both clocks.
    pub fn start() -> Self {
        Clock {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// (wall, cpu) seconds since `start`.
    pub fn stop(&self) -> (f64, f64) {
        (self.wall.elapsed().as_secs_f64(), cpu_seconds() - self.cpu)
    }
}

/// Iterations of the reference kernel (about 50 ms per pass on a 2020s
/// x86 core).
const REF_ITERS: u64 = 12_000_000;

/// Times a fixed, benchmark-owned pure-CPU kernel (a dependent
/// multiply-xorshift chain, no memory traffic) and returns its wall
/// seconds: the median of three passes. Diagnostic only, never used to
/// normalise a metric: it tells a slow host from a slow change.
pub fn host_ref_s() -> f64 {
    let mut samples: Vec<f64> = (0..3)
        .map(|pass| {
            let t = Instant::now();
            let mut x = black_box(0x9E37_79B9_7F4A_7C15_u64 ^ pass);
            for _ in 0..black_box(REF_ITERS) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_mul(0x2545_F491_4F6C_DD1D);
            }
            black_box(x);
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[1]
}
