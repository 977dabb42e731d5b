//! Host-speed calibration. The recording host is a shared VM that flips,
//! for tens of seconds at a time, between a quiet state and one in which
//! a neighbour slows SIMD-heavy code by half (README.md, "Host noise").
//! Raw wall-clock medians of ten runs then spread by 10 % to 40 %, which
//! no bound could gate.
//!
//! So every timed sample is paired with a run of a fixed kernel that
//! lives in this file and calls nothing outside it — a naive
//! `u8 × i8 → i32` matrix product whose working set sits in L2 — and is
//! scaled by `REFERENCE_MS / <kernel time next to the sample>`. The
//! result is the time the operation would have taken had the kernel run
//! at its reference speed. A change to the repository cannot move the
//! kernel, so a change in a scaled metric is a change in the code under
//! test. The raw medians and the kernel's own time are reported as
//! per-layer metrics, so nothing is hidden.

use std::time::Instant;

/// The kernel's time on the recording host in its quiet state. Only a
/// unit: it turns ratios back into milliseconds of that host.
pub const REFERENCE_MS: f64 = 6.0;

const M: usize = 32;
const K: usize = 1024;
const N: usize = 1024;

pub struct Calibrator {
    a: Vec<u8>,
    w: Vec<i8>,
    out: Vec<i32>,
    samples: Vec<Sample>,
}

/// One run of the kernel: when it ended, how long it took, and how much
/// CPU time of its thread it used (the same, where the platform does
/// not tell).
struct Sample {
    at: Instant,
    wall_ms: f64,
    cpu_ms: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        Calibrator {
            a: (0..M * K).map(|i| (i % 16) as u8).collect(),
            w: (0..K * N).map(|i| (i % 7) as i8 - 3).collect(),
            out: vec![0; M * N],
            samples: Vec::new(),
        }
    }

    /// Runs the kernel once and returns its wall time in ms.
    pub fn sample_ms(&mut self) -> f64 {
        let cpu0 = thread_cpu_ms();
        let t0 = Instant::now();
        for i in 0..M {
            let row = &mut self.out[i * N..(i + 1) * N];
            row.fill(0);
            for k in 0..K {
                let a = i32::from(self.a[i * K + k]);
                let w = &self.w[k * N..(k + 1) * N];
                for (o, &w) in row.iter_mut().zip(w) {
                    *o += a * i32::from(w);
                }
            }
        }
        std::hint::black_box(&self.out);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let cpu_ms = match (cpu0, thread_cpu_ms()) {
            (Some(from), Some(to)) => to - from,
            _ => wall_ms,
        };
        self.samples.push(Sample {
            at: Instant::now(),
            wall_ms,
            cpu_ms,
        });
        wall_ms
    }

    /// Every sample so far, for the `host.calibration_ms` metric.
    pub fn samples_ms(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.wall_ms).collect()
    }

    /// When the kernel last ran.
    pub fn last_run(&self) -> Option<Instant> {
        self.samples.last().map(|s| s.at)
    }

    /// Number of samples so far: a position to read later samples from.
    pub fn mark(&self) -> usize {
        self.samples.len()
    }

    /// Runs the kernel and returns what a duration measured between its
    /// previous run and this one is multiplied by.
    pub fn factor_to_here(&mut self) -> f64 {
        let previous = self.mark().saturating_sub(1);
        self.sample_ms();
        self.factor_since(previous)
    }

    /// What a duration is multiplied by when the kernel ran `since` that
    /// mark, before, during and after it.
    pub fn factor_since(&self, since: usize) -> f64 {
        factor_of(self.samples[since..].iter().map(|s| s.wall_ms))
    }

    /// The same for runs taken beside busy threads of this process,
    /// where wall time counts how long the kernel waited for a core: the
    /// kernel's CPU time, which says how fast a core executes, stretched
    /// by the share of CPU time the hypervisor gave away meanwhile
    /// (`steal_share`, which CPU time does not see).
    pub fn busy_factor_since(&self, since: usize, steal_share: f64) -> f64 {
        factor_of(self.samples[since..].iter().map(|s| s.cpu_ms)) * (1.0 - steal_share)
    }
}

/// CPU time this thread has used, in ms.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn thread_cpu_ms() -> Option<f64> {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `struct timespec` through the
    // pointer and keeps nothing; on 64-bit Linux that struct is two
    // 64-bit integers, which `Timespec` is, and `ts` lives across the call.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    (rc == 0).then(|| ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn thread_cpu_ms() -> Option<f64> {
    None
}

/// The reference time over the mean of `kernel_ms`; 1 with no sample.
fn factor_of(kernel_ms: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = kernel_ms.fold((0.0, 0usize), |(sum, n), ms| (sum + ms, n + 1));
    if n == 0 {
        1.0
    } else {
        REFERENCE_MS / (sum / n as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_scales_to_the_reference_speed() {
        let factor = |before_ms, after_ms| factor_of([before_ms, after_ms].into_iter());
        assert_eq!(factor(REFERENCE_MS, REFERENCE_MS), 1.0);
        // A host running the kernel at half speed halves every scaled time.
        assert_eq!(factor(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS), 0.5);
        assert_eq!(factor(4.0, 8.0), 1.0);
    }

    #[test]
    fn the_kernel_computes_the_product() {
        let mut c = Calibrator::new();
        assert!(c.sample_ms() > 0.0);
        // One run so far: the factor to the next one spans both.
        let f = c.factor_to_here();
        assert_eq!(f, c.factor_since(0));
        let expect: i32 = (0..K)
            .map(|k| ((k % 16) as i32) * ((k * N % 7) as i32 - 3))
            .sum();
        assert_eq!(c.out[0], expect);
        assert_eq!(c.mark(), 2);
    }

    #[test]
    fn a_stretch_is_scaled_by_the_mean_of_the_runs_since_its_mark() {
        let mut c = Calibrator::new();
        let t = Instant::now();
        let at = |ms: u64| t + std::time::Duration::from_millis(ms);
        c.samples = [(0, 3.0), (1000, 9.0), (2000, 12.0), (5000, 24.0)]
            .into_iter()
            .map(|(ms, wall_ms)| Sample {
                at: at(ms),
                wall_ms,
                cpu_ms: wall_ms / 2.0,
            })
            .collect();
        assert_eq!(c.factor_since(0), 0.5);
        assert_eq!(c.factor_since(2), 1.0 / 3.0);
        assert_eq!(c.last_run(), Some(at(5000)));
        // Half the wall time on the CPU, a quarter of the CPU stolen.
        assert_eq!(c.busy_factor_since(0, 0.25), 0.75);
    }
}
