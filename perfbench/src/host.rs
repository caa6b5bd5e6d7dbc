//! Host-independent timing: the process CPU clock and a host-speed
//! reference.
//!
//! A shared host disturbs wall-clock times in two ways.  The hypervisor
//! takes the vCPUs away for a while ("steal"; 4–18% of the time in some
//! ten-minute stretches), which stretches whichever calls it hits; and
//! other tenants load the machine, so the same build runs up to 1.5×
//! slower for minutes at a time with no stolen time to show for it.  The
//! benchmark therefore times serial work on the process CPU clock
//! ([`cpu_s`]), which runs only while one of the process's threads holds a
//! CPU and so leaves steal out, and divides each time by the host's
//! [`Reference::slowdown`] read at the same moment.  The reference pass
//! does the same kind of work as the program's hot path — hash every key
//! with a salt, sample it by PPS, insert the sampled keys into a hash map,
//! reduce over two instances — so the neighbours slow it by about the same
//! factor.  On a 2-vCPU guest, raw wall-clock medians of a 1-thread
//! `Pipeline::run` call of 77–119 ms over six runs read 101–107 ms so
//! divided.

use std::collections::HashMap;
use std::hint::black_box;

use crate::fixtures::{mix, SplitMix};
use crate::stats::median;

/// Keys per instance of the reference data.
const KEYS: usize = 1 << 15;
/// PPS threshold: samples about a tenth of the keys.
const TAU: f64 = 40.0;
/// Nominal host speed: one reference pass in this many milliseconds (a
/// quiet 2-vCPU x86-64 guest with AVX-512 takes 0.38–0.56 ms).
pub const NOMINAL_MS: f64 = 0.5;
/// Reference passes per speed reading; the reading is their median.
const PASSES: u64 = 3;

/// The reference data: two instances over the same keys with heavy-tailed
/// weights, fixed for every seed.
pub struct Reference {
    keys: Vec<u64>,
    weights: [Vec<f64>; 2],
}

impl Reference {
    /// Builds the reference data and warms it up with one pass.
    pub fn new() -> Self {
        let mut rng = SplitMix(0x5eed_f00d);
        let keys: Vec<u64> = (0..KEYS).map(|_| rng.next_u64()).collect();
        let mut weight = || 1.0 / (1.0 - rng.next_f64()).powf(0.8);
        let a: Vec<f64> = (0..KEYS).map(|_| weight()).collect();
        let b: Vec<f64> = (0..KEYS).map(|_| weight()).collect();
        let reference = Self {
            keys,
            weights: [a, b],
        };
        black_box(reference.pass(0));
        reference
    }

    /// One pass: PPS-sample both instances under `salt` into a hash map and
    /// sum the Horvitz–Thompson max-dominance estimate over the sampled keys.
    fn pass(&self, salt: u64) -> f64 {
        let mut sampled: HashMap<u64, [f64; 2]> = HashMap::with_capacity(KEYS / 4);
        for (i, weights) in self.weights.iter().enumerate() {
            let salt = mix(salt ^ i as u64);
            for (&key, &w) in self.keys.iter().zip(weights) {
                let u = (mix(key ^ salt) >> 11) as f64 / (1u64 << 53) as f64;
                if w >= u * TAU {
                    sampled.entry(key).or_insert([0.0; 2])[i] = w;
                }
            }
        }
        sampled
            .values()
            .map(|w| {
                let max = w[0].max(w[1]);
                let p = (w[0] / TAU).min(1.0).max((w[1] / TAU).min(1.0));
                max / p
            })
            .sum()
    }

    /// How many times slower than nominal the host runs now: the median
    /// CPU time of [`PASSES`] reference passes over [`NOMINAL_MS`].
    pub fn slowdown(&self) -> f64 {
        let passes: Vec<f64> = (0..PASSES)
            .map(|salt| {
                let started = cpu_s();
                black_box(self.pass(black_box(salt)));
                (cpu_s() - started) * 1e3
            })
            .collect();
        median(&passes) / NOMINAL_MS
    }
}

/// Seconds of CPU time the whole process has used (`CLOCK_PROCESS_CPUTIME_ID`):
/// every thread's time on a CPU, including threads that have exited, and
/// none of the time the hypervisor held the vCPU ("steal").  For work that
/// runs on one thread at a time, such as one `Pipeline::run` call on one
/// thread or one request on one connection, it is the wall time the work
/// would take on a dedicated host.
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields
    // on 64-bit Linux) for the duration of the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the process CPU clock is read through 64-bit Linux's clock_gettime");

#[cfg(test)]
mod tests {
    use super::*;

    /// The clock counts every thread of the test binary, so only its
    /// advance over known work is checked here, not its stillness in sleep.
    #[test]
    fn cpu_clock_advances_with_work() {
        let reference = Reference::new();
        let before = cpu_s();
        let slowdown = reference.slowdown();
        let after = cpu_s();
        assert!(slowdown.is_finite() && slowdown > 0.0);
        // The median pass ran on this thread between the readings.
        assert!(after - before >= slowdown * NOMINAL_MS * 1e-3);
    }
}
