//! Host-speed reference for the end-to-end times.
//!
//! The development and CI hosts give the benchmark two vCPUs of a
//! shared machine, and how fast the same code runs there drifts with
//! what the neighbours do. On the development host (2-vCPU Intel Xeon,
//! KVM), back-to-back repetitions of one 50-phone campaign took
//! 0.52-1.05 s, in spells lasting from seconds to minutes; medians of
//! 20 s of repetitions still spread 20% between their quartiles. A
//! medium-sized run cannot average that away.
//!
//! So the benchmark also times a fixed kernel of its own code before
//! and after every repetition, and reports each repetition's times in
//! reference-host seconds: measured seconds × [`REFERENCE_HOST_S`] ÷
//! the kernel's time around that repetition. The kernel slows down with
//! the host but never with the program, so a change to the program
//! still moves the normalised times by its full effect. On a 5-minute
//! recording of the same campaign the quartile spread of 20 s medians
//! fell from 20% (raw) to 8% (normalised); over 11 `fleet_clean` runs
//! of 25 s, from 10.6% to 7.8%. The raw times are reported
//! too (`fleet.wall_s`, `fleet.cpu_s`), with the kernel's own median
//! (`host.ref_s`).

use std::hint::black_box;
use std::time::Instant;

/// The kernel's median time on the development host (2-vCPU Intel
/// Xeon, KVM): 82 timings spread over 11 runs and 8 minutes.
pub const REFERENCE_HOST_S: f64 = 0.0431;

/// Words of the kernel's buffer: 8 MiB, past the private caches.
const WORDS: usize = 1 << 20;

/// Write-then-read passes over the buffer per timing.
const PASSES: u64 = 32;

/// The host-speed kernel: streaming writes and reads over an 8 MiB
/// buffer. Of the kernels tried (an integer multiply-xorshift chain on
/// one and on two threads, a random pointer chase on one and on two
/// threads, hash-map inserts with small allocations), this one tracked
/// the campaign's slow spells best.
///
/// The buffer is allocated and touched once, before the program first
/// runs, and lives until the process ends. Freeing it would perturb the
/// program: glibc raises its mmap threshold to the size of a freed
/// mmapped block, which moved the simulator's per-phone flash buffers
/// from mmap to the heap and changed both wall time and peak memory.
/// Held for the whole run, it adds exactly its own size to the resident
/// set at every moment, which [`Kernel::resident_mb`] lets the peak
/// memory figure take off again.
pub struct Kernel {
    buf: Vec<u64>,
}

impl Kernel {
    pub fn new() -> Self {
        let mut buf = vec![0u64; WORDS];
        // Touch every page now, so page faults are never timed and the
        // whole buffer is resident from here on.
        buf.iter_mut().for_each(|v| *v = 1);
        black_box(&mut buf);
        Self { buf }
    }

    /// Resident MiB the buffer adds to the process.
    pub fn resident_mb(&self) -> f64 {
        (self.buf.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Seconds one run of the kernel takes.
    pub fn seconds(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for pass in 0..PASSES {
            for (i, v) in self.buf.iter_mut().enumerate() {
                *v = (i as u64 ^ pass).wrapping_add(acc);
            }
            black_box(&mut self.buf);
            acc = self.buf.iter().fold(acc, |a, v| a.rotate_left(1) ^ v);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }
}

/// `seconds` measured on this host, in reference-host seconds, given
/// the kernel's time `kernel_s` around the measurement.
pub fn normalise(seconds: f64, kernel_s: f64) -> f64 {
    seconds * REFERENCE_HOST_S / kernel_s
}
