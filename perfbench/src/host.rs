//! Host-speed calibration.
//!
//! The reference host is a 2-vCPU VM on a shared machine whose speed
//! moves in phases of minutes: everything — `s4e` launches, the analysis
//! tools, this kernel — ran up to twice as slow in some phases as in
//! others, far beyond any regression bound. Each timed launch or batch is
//! followed by one run of a fixed kernel that shares no code with the
//! program under test, and the end-to-end metrics are scaled by the run's
//! median kernel time against [`REFERENCE_S`]. A change to the program
//! moves the metrics; a change in host speed mostly cancels.

use std::hint::black_box;
use std::time::Instant;

/// Seconds [`calibrate`] takes on the reference host (2-vCPU `Intel(R)
/// Xeon(R) Processor` VM) in its fast phase. The end-to-end metrics read
/// as measured on that host at that speed.
pub const REFERENCE_S: f64 = 0.031;

/// Words of the kernel's data memory (1 MiB, beyond the L2 cache).
const MEM_WORDS: usize = 1 << 18;

/// Kernel steps (about 30 ms on the reference host).
const STEPS: u32 = 6_000_000;

/// Runs the calibration kernel once and returns its host seconds. The
/// kernel is a small bytecode interpreter — fetch, dispatch, data loads
/// and stores scattered over 1 MiB — so host contention slows it much
/// as it slows the simulator.
pub fn calibrate() -> f64 {
    let start = Instant::now();
    let code: Vec<u8> = (0..4096u32)
        .map(|i| ((i.wrapping_mul(2_654_435_761) >> 13) % 6) as u8)
        .collect();
    let mut mem = vec![0u32; MEM_WORDS];
    let mask = MEM_WORDS - 1;
    let mut acc: u32 = 1;
    let mut pc = 0usize;
    for _ in 0..STEPS {
        match code[pc] {
            0 => acc = acc.wrapping_mul(1_664_525).wrapping_add(1_013_904_223),
            1 => {
                let a = acc as usize & mask;
                mem[a] = mem[a].wrapping_add(acc);
            }
            2 => acc ^= mem[(acc >> 7) as usize & mask],
            3 => acc = acc.rotate_left(5) ^ 0x9e37_79b9,
            4 => pc = (pc + (acc as usize & 63)) % code.len(),
            _ => acc = acc.wrapping_add(pc as u32),
        }
        pc = (pc + 1) % code.len();
    }
    black_box((acc, &mem));
    start.elapsed().as_secs_f64()
}

/// How much slower than the reference the host ran, from a run's
/// calibration samples: above 1 when slower.
pub fn slowdown(samples: &[f64]) -> f64 {
    crate::stats::Summary::of(samples).median / REFERENCE_S
}
