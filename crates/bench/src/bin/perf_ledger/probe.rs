//! The host-speed probe.
//!
//! On a shared host the speed of the same code drifts by 15–35 % for a
//! minute or more at a time (other tenants on the same cores and caches),
//! so raw sweep times measured a few minutes apart disagree by more than
//! any useful regression bound. The parent therefore times this fixed
//! probe on `jobs` threads right before and right after each child sweep,
//! and scales that sweep's durations by [`REFERENCE_NS`] ÷ the geometric
//! mean of the two: a sweep run while the host is 20 % slow is reported at
//! the speed of the reference host. The probe is the benchmark's own code,
//! identical at every commit, so a faster simulator still shows as a
//! faster sweep.
//!
//! Measured on a 2-vCPU container in three sets of ten to twelve 20-second
//! runs per workload, the spread (interquartile range over median) of the
//! median sweep on bodiag-boot, fig4-interp, server-sched and corpus-fleet
//! was 0.02–0.33 raw and 0.03–0.11 scaled. Timing the probe on both sides
//! of the sweep instead of before it alone narrowed it in the one set that
//! compared the two (server-sched 0.040 → 0.028, corpus-fleet 0.051 →
//! 0.023). Probes built from other kernels (a 256 KiB or 2 MiB working
//! set, a small interpreter loop, file reads, process spawns, or the
//! geometric mean of several) were no better across workloads and sets.

use std::time::Instant;

/// The probe's time on the reference host while it is quiet (2 threads on
/// a 2-vCPU container; the tenth percentile of 2,250 probes, whose median
/// was 15.4 ms): scaled durations read as seconds on that host.
pub const REFERENCE_NS: f64 = 12e6;

/// 8-byte words per probe thread: 8 MiB, beyond a core's private caches,
/// so the probe feels cache and memory contention as the simulator does.
const WORDS: usize = 1 << 20;
const STEPS: u32 = 2_000_000;

/// One buffer per thread, touched once up front so that timing the probe
/// never times page faults.
pub struct Probe {
    buffers: Vec<Vec<u64>>,
}

impl Probe {
    /// A probe for `threads` threads.
    pub fn new(threads: usize) -> Probe {
        Probe {
            buffers: (0..threads.max(1)).map(|_| vec![1; WORDS]).collect(),
        }
    }

    /// Nanoseconds of random read-modify-writes over every buffer at once.
    pub fn time_ns(&mut self) -> u64 {
        let start = Instant::now();
        let sum = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .zip(1u64..)
                .map(|(buf, seed)| scope.spawn(move || work(buf, seed)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe threads do not panic"))
                .fold(0, u64::wrapping_add)
        });
        std::hint::black_box(sum);
        start.elapsed().as_nanos() as u64
    }
}

fn work(buf: &mut [u64], seed: u64) -> u64 {
    let (mut x, mut acc) = (seed, 0u64);
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize % WORDS;
        buf[i] = buf[i].wrapping_add(x);
        acc = acc.wrapping_add(buf[i.wrapping_mul(7) % WORDS]);
    }
    acc
}
