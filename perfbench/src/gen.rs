//! Seeded workload generators.
//!
//! The seed picks the guest programs' input data (matrix entries, CRC
//! message bytes, array contents, torture-program choices); program shapes
//! and sizes are fixed per workload, so seeds change only data-dependent
//! paths. The program under test only ever sees the generated assembly
//! source and command-line flags.

use s4e_faultsim::GeneratorConfig;
use s4e_isa::IsaConfig;
use s4e_torture::{torture_program, TortureConfig};
use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed, dependency-free seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// An independent stream for one named input of a workload, so adding
    /// an input never shifts the data of another.
    pub fn fork(seed: u64, stream: u64) -> Rng {
        let mut mixer = Rng::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93));
        Rng::new(mixer.next_u64())
    }
}

/// `n` seeded 28-bit data words as `.word` directives, eight per line.
fn data_words(rng: &mut Rng, n: usize) -> String {
    let mut out = String::new();
    for i in 0..n {
        let sep = match i % 8 {
            0 if i == 0 => ".word ",
            0 => "\n.word ",
            _ => ", ",
        };
        let _ = write!(out, "{sep}{}", rng.next_u64() >> 36);
    }
    out
}

/// Dense `n × n` integer matrix multiply over seeded matrices.
pub fn matmul(n: u32, seed: u64) -> String {
    let mut rng = Rng::fork(seed, 1);
    let a = data_words(&mut rng, (n * n) as usize);
    let b = data_words(&mut rng, (n * n) as usize);
    format!(
        "_start:
    li   s0, {n}
    la   s4, c
iloop:
    li   s1, {n}
jloop:
    li   s2, {n}
    li   s3, 0
    la   s5, a
    la   s6, b
kloop:
    lw   t0, 0(s5)
    lw   t1, 0(s6)
    mul  t2, t0, t1
    add  s3, s3, t2
    addi s5, s5, 4
    addi s6, s6, {row}
    addi s2, s2, -1
    bnez s2, kloop
    sw   s3, 0(s4)
    addi s4, s4, 4
    addi s1, s1, -1
    bnez s1, jloop
    addi s0, s0, -1
    bnez s0, iloop
    la   t3, c
    lw   a0, 0(t3)
    ebreak
.align 4
a:
{a}
b:
{b}
c: .space {csize}
",
        row = n * 4,
        csize = n * n * 4,
    )
}

/// Bitwise CRC-32 over a seeded `len`-byte message (`len` a multiple of 4).
pub fn crc32(len: u32, seed: u64) -> String {
    let mut rng = Rng::fork(seed, 2);
    let msg = data_words(&mut rng, len.div_ceil(4) as usize);
    format!(
        "_start:
    li   s0, {len}
    la   s1, msg
    li   a0, -1
    li   s2, 0xedb88320
byte_loop:
    lbu  t0, 0(s1)
    xor  a0, a0, t0
    li   s3, 8
bit_loop:
    andi t1, a0, 1
    srli a0, a0, 1
    beqz t1, no_poly
    xor  a0, a0, s2
no_poly:
    addi s3, s3, -1
    bnez s3, bit_loop
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, byte_loop
    not  a0, a0
    ebreak
.align 4
msg:
{msg}
"
    )
}

/// Bubble sort over `n` seeded words: the executed path (swap or not)
/// depends on the data, so QTA cycles fall below the static bound.
pub fn bubble_sort(n: u32, seed: u64) -> String {
    let mut rng = Rng::fork(seed, 3);
    let data = data_words(&mut rng, n as usize);
    format!(
        "_start:
    li   s0, {n}
outer:
    la   s1, data
    li   s2, {inner}
inner:
    lw   t0, 0(s1)
    lw   t1, 4(s1)
    ble  t0, t1, no_swap
    sw   t1, 0(s1)
    sw   t0, 4(s1)
no_swap:
    addi s1, s1, 4
    addi s2, s2, -1
    bnez s2, inner
    addi s0, s0, -1
    bnez s0, outer
    la   t2, data
    lw   a0, 0(t2)
    ebreak
.align 4
data:
{data}
",
        inner = n - 1,
    )
}

/// The QTA kernels of the `qta-coverage` workload: scaled-up versions of
/// the WCET benchmark kernels over seeded data.
pub fn qta_kernels(seed: u64) -> Vec<(&'static str, String)> {
    vec![
        ("bubble_sort", bubble_sort(128, seed)),
        ("matmul", matmul(24, seed)),
        ("crc32", crc32(2048, seed)),
    ]
}

/// Number of torture programs one coverage batch runs.
pub const COVERAGE_PROGRAMS: usize = 64;

/// The ISA the coverage programs are generated for and measured against.
pub fn coverage_isa() -> IsaConfig {
    IsaConfig::rv32imfc()
}

/// The seeded `s4e-torture` programs of one coverage batch.
pub fn coverage_programs(seed: u64) -> Vec<String> {
    let mut rng = Rng::fork(seed, 4);
    (0..COVERAGE_PROGRAMS)
        .map(|_| {
            let cfg = TortureConfig::new(rng.next_u64())
                .insns(250)
                .isa(coverage_isa())
                .with_loops(true);
            torture_program(&cfg).source
        })
        .collect()
}

/// The mutant generator configuration `s4e campaign --mutants <n>` uses
/// (the CLI scales every category by `n` and always seeds with 1).
pub fn cli_generator(mutants: usize) -> GeneratorConfig {
    GeneratorConfig {
        stuck_per_gpr: mutants,
        transient_per_gpr: mutants,
        transient_per_fpr: mutants.div_ceil(2),
        opcode_mutants: mutants * 16,
        data_mutants: mutants * 8,
        seed: 1,
    }
}
