//! Equivalence pruning: classification identity against the executing
//! paths, the def-use dead-bit rules per target kind, the post-injection
//! state dedupe, and the `--no-prune` A/B counters.

use proptest::prelude::*;
use s4e_asm::assemble;
use s4e_faultsim::{
    generate_mutants, Campaign, CampaignConfig, CampaignProgress, FaultKind, FaultOutcome,
    FaultSpec, FaultTarget, GeneratorConfig,
};
use s4e_isa::{Fpr, Gpr, IsaConfig};
use s4e_torture::{torture_program, TortureConfig};
use std::sync::Arc;

fn campaign(src: &str, cfg: &CampaignConfig) -> Campaign {
    let img = assemble(src).expect("assembles");
    Campaign::prepare(img.base(), img.bytes(), img.entry(), cfg).expect("prepares")
}

/// Runs one sweep with progress attached; returns the report and the
/// (pruned_dead, pruned_dedup, snapshot_restores) counters.
fn sweep(
    src: &str,
    cfg: &CampaignConfig,
    specs: &[FaultSpec],
) -> (Vec<FaultOutcome>, u64, u64, u64) {
    let mut c = campaign(src, cfg);
    let progress = Arc::new(CampaignProgress::new());
    c.set_progress(Arc::clone(&progress));
    let report = c.run_all(specs);
    let snap = progress.snapshot();
    (
        report.results().iter().map(|r| r.outcome).collect(),
        snap.counter("campaign_pruned_dead").unwrap_or(0),
        snap.counter("campaign_pruned_dedup").unwrap_or(0),
        snap.counter("campaign_snapshot_restores").unwrap_or(0),
    )
}

fn flip_gpr(reg: Gpr, bit: u8, at_insn: u64) -> FaultSpec {
    FaultSpec {
        target: FaultTarget::GprBit { reg, bit },
        kind: FaultKind::Transient { at_insn },
    }
}

/// `a0` is written at instructions 1 and 2 and never read.
const DEAD_WRITE_PROGRAM: &str = r#"
    li a0, 1
    li a0, 2
    ebreak
"#;

#[test]
fn overwritten_flip_classifies_masked_without_executing() {
    // Flip a0 after the first write: the second `li` erases it before
    // any read, so the def-use sweep proves Masked — no restore, no run.
    let spec = flip_gpr(Gpr::A0, 3, 1);
    let (outcomes, dead, dedup, restores) =
        sweep(DEAD_WRITE_PROGRAM, &CampaignConfig::new(), &[spec]);
    assert_eq!(outcomes, [FaultOutcome::Masked]);
    assert_eq!((dead, dedup, restores), (1, 0, 0));

    // And the executing path agrees.
    let (executed, dead, _, _) = sweep(
        DEAD_WRITE_PROGRAM,
        &CampaignConfig::new().prune(false),
        &[spec],
    );
    assert_eq!(executed, outcomes);
    assert_eq!(dead, 0, "--no-prune executes everything");
}

#[test]
fn never_read_flip_classifies_silent_corruption_without_executing() {
    // Flip a0 after its last write: the register is never accessed
    // again, the run terminates exactly like the golden run, and the
    // final-register compare sees the diverged bit.
    let spec = flip_gpr(Gpr::A0, 7, 2);
    let (outcomes, dead, _, restores) = sweep(DEAD_WRITE_PROGRAM, &CampaignConfig::new(), &[spec]);
    assert_eq!(outcomes, [FaultOutcome::SilentCorruption]);
    assert_eq!((dead, restores), (1, 0));

    let (executed, _, _, _) = sweep(
        DEAD_WRITE_PROGRAM,
        &CampaignConfig::new().prune(false),
        &[spec],
    );
    assert_eq!(executed, outcomes);
}

#[test]
fn read_flip_still_executes() {
    // a0 is read at instruction 2: the flip is observed, so pruning must
    // leave the mutant to the executing path.
    let src = r#"
        li a0, 5
        add a1, a0, a0
        ebreak
    "#;
    let spec = flip_gpr(Gpr::A0, 0, 1);
    let (outcomes, dead, dedup, restores) = sweep(src, &CampaignConfig::new(), &[spec]);
    assert_eq!(outcomes, [FaultOutcome::SilentCorruption]);
    assert_eq!((dead, dedup), (0, 0));
    assert_eq!(restores, 1, "the mutant actually ran");
}

#[test]
fn x0_stuck_at_zero_classifies_masked_without_executing() {
    // x0 reads 0 on every path, so forcing one of its bits to 0 replays
    // the golden run: Masked by the plan, no restore, no run. Forcing
    // the bit to 1 changes every `li` and still executes.
    let src = r#"
        li a0, 5
        add a1, a0, zero
        ebreak
    "#;
    let stuck = |value| FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::ZERO,
            bit: 3,
        },
        kind: FaultKind::StuckAt { value },
    };
    let (outcomes, dead, dedup, restores) = sweep(src, &CampaignConfig::new(), &[stuck(false)]);
    assert_eq!(outcomes, [FaultOutcome::Masked]);
    assert_eq!((dead, dedup, restores), (1, 0, 0));

    let (outcomes, dead, dedup, restores) = sweep(src, &CampaignConfig::new(), &[stuck(true)]);
    assert_eq!(outcomes, [FaultOutcome::SilentCorruption]);
    assert_eq!(
        (dead, dedup, restores),
        (0, 0, 1),
        "stuck-at-1 on x0 executes"
    );

    // The executing path agrees on both.
    let (executed, _, _, _) = sweep(
        src,
        &CampaignConfig::new().prune(false),
        &[stuck(false), stuck(true)],
    );
    assert_eq!(
        executed,
        [FaultOutcome::Masked, FaultOutcome::SilentCorruption]
    );
}

#[test]
fn fpr_flips_prune_like_gprs() {
    let src = r#"
        la t0, data
        flw f1, 0(t0)
        fadd.s f2, f1, f1
        ebreak
        data: .word 0x3f800000
    "#;
    let cfg = CampaignConfig::new().isa(IsaConfig::rv32imfc());
    let f1 = Fpr::new(1).unwrap();
    let f2 = Fpr::new(2).unwrap();
    let golden_len = campaign(src, &cfg).golden().instret();
    let specs = [
        // Flipped before the `flw` write: erased, Masked.
        FaultSpec {
            target: FaultTarget::FprBit { reg: f1, bit: 4 },
            kind: FaultKind::Transient { at_insn: 0 },
        },
        // Flipped after `fadd.s` wrote f2 (its last access): silent.
        FaultSpec {
            target: FaultTarget::FprBit { reg: f2, bit: 9 },
            kind: FaultKind::Transient {
                at_insn: golden_len - 1,
            },
        },
    ];
    let (outcomes, dead, _, restores) = sweep(src, &cfg, &specs);
    assert_eq!(
        outcomes,
        [FaultOutcome::Masked, FaultOutcome::SilentCorruption]
    );
    assert_eq!((dead, restores), (2, 0));

    let (executed, _, _, _) = sweep(src, &cfg.clone().prune(false), &specs);
    assert_eq!(executed, outcomes);
}

#[test]
fn memory_flip_overwritten_by_store_is_masked() {
    let src = r#"
        la t0, buf
        li t1, 42
        sw t1, 0(t0)
        lw t2, 0(t0)
        ebreak
        buf: .word 7
    "#;
    let img = assemble(src).expect("assembles");
    let buf = img.symbol("buf").expect("buf symbol");
    // Flipped at time zero, overwritten by the `sw` before the `lw`
    // reads it back: Masked without executing.
    let spec = FaultSpec {
        target: FaultTarget::MemBit { addr: buf, bit: 0 },
        kind: FaultKind::Transient { at_insn: 0 },
    };
    let (outcomes, dead, _, restores) = sweep(src, &CampaignConfig::new(), &[spec]);
    assert_eq!(outcomes, [FaultOutcome::Masked]);
    assert_eq!((dead, restores), (1, 0));

    // A stuck-at forcing the opposite of the loaded bit is the same
    // time-zero flip and prunes identically.
    let stuck = FaultSpec {
        target: FaultTarget::MemBit { addr: buf, bit: 0 },
        kind: FaultKind::StuckAt { value: false }, // buf bit 0 loads as 1
    };
    let (outcomes, dead, _, _) = sweep(src, &CampaignConfig::new(), &[stuck]);
    assert_eq!(outcomes, [FaultOutcome::Masked]);
    assert_eq!(dead, 1);

    // While a stuck-at forcing the value the byte already holds is a
    // no-op proved without even the replay.
    let noop = FaultSpec {
        target: FaultTarget::MemBit { addr: buf, bit: 1 },
        kind: FaultKind::StuckAt { value: true }, // buf bit 1 loads as 1
    };
    let (outcomes, dead, _, _) = sweep(src, &CampaignConfig::new(), &[noop]);
    assert_eq!(outcomes, [FaultOutcome::Masked]);
    assert_eq!(dead, 1);

    for spec in [spec, stuck, noop] {
        let (executed, _, _, _) = sweep(src, &CampaignConfig::new().prune(false), &[spec]);
        assert_eq!(executed, outcomes, "{spec}");
    }
}

#[test]
fn code_fetch_counts_as_a_read() {
    // Flipping an executed instruction byte must never be pruned as
    // "never read": the fetch of that instruction reads it.
    let src = r#"
        li a0, 5
        add a1, a0, a0
        ebreak
    "#;
    let img = assemble(src).expect("assembles");
    let spec = FaultSpec {
        // Bit 5 of the first byte of `li a0, 5` — mutates the opcode.
        target: FaultTarget::MemBit {
            addr: img.base(),
            bit: 5,
        },
        kind: FaultKind::Transient { at_insn: 0 },
    };
    let (outcomes, dead, _, restores) = sweep(src, &CampaignConfig::new(), &[spec]);
    assert_eq!((dead, restores), (0, 1), "executed, not pruned");
    let (executed, _, _, _) = sweep(src, &CampaignConfig::new().prune(false), &[spec]);
    assert_eq!(executed, outcomes);
}

#[test]
fn identical_mutants_share_one_execution() {
    // Three copies of a mutant that must execute (a0 is read after the
    // flip), plus a stuck-at pair: the first of each runs, the rest
    // share its classification via the (fingerprint, delta) dedupe.
    let src = r#"
        li t0, 6
        li a0, 0
        loop: add a0, a0, t0
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let observed = flip_gpr(Gpr::A0, 1, 4);
    let stuck = FaultSpec {
        target: FaultTarget::GprBit {
            reg: Gpr::A0,
            bit: 30,
        },
        kind: FaultKind::StuckAt { value: true },
    };
    let specs = [observed, observed, observed, stuck, stuck];
    let (outcomes, dead, dedup, restores) = sweep(src, &CampaignConfig::new(), &specs);
    assert_eq!(outcomes[0], outcomes[1]);
    assert_eq!(outcomes[1], outcomes[2]);
    assert_eq!(outcomes[3], outcomes[4]);
    assert_eq!(dead, 0);
    assert_eq!(dedup, 3, "two flip copies and one stuck-at copy shared");
    assert_eq!(restores, 2, "one execution per distinct mutant");

    let (executed, _, _, _) = sweep(src, &CampaignConfig::new().prune(false), &specs);
    assert_eq!(executed, outcomes);
}

/// The fast-forward suite's program: loops, stores, and a memory-compared
/// result buffer.
const WORK_PROGRAM: &str = r#"
    li t0, 60
    li a0, 0
    la t1, table
    loop: add a0, a0, t0
    sw a0, 0(t1)
    addi t1, t1, 4
    addi t0, t0, -1
    bnez t0, loop
    la t2, result
    sw a0, 0(t2)
    ebreak
    result: .word 0
    table: .space 256
"#;

/// An acceptance-shaped grid over every fault flavour: register and
/// memory transients (code and data), stuck-ats, past-the-end times.
fn acceptance_specs(c: &Campaign) -> Vec<FaultSpec> {
    let golden_len = c.golden().instret();
    let mut specs = Vec::new();
    for bit in 0..24u8 {
        for t in 0..12u64 {
            specs.push(flip_gpr(Gpr::A0, bit, t * golden_len / 10));
        }
    }
    let base = 0x8000_0000u32;
    for i in 0..12u32 {
        for bit in 0..4u8 {
            specs.push(FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + i * 2,
                    bit,
                },
                kind: FaultKind::Transient {
                    at_insn: u64::from(i) * 7,
                },
            });
            specs.push(FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + 0x100 + i,
                    bit,
                },
                kind: FaultKind::Transient { at_insn: 0 },
            });
            specs.push(FaultSpec {
                target: FaultTarget::MemBit {
                    addr: base + 0x100 + i,
                    bit,
                },
                kind: FaultKind::StuckAt {
                    value: bit % 2 == 0,
                },
            });
        }
    }
    for bit in 0..16u8 {
        for (reg, value) in [(Gpr::A0, false), (Gpr::new(5).unwrap(), true)] {
            specs.push(FaultSpec {
                target: FaultTarget::GprBit { reg, bit },
                kind: FaultKind::StuckAt { value },
            });
        }
    }
    specs
}

#[test]
fn pruned_sweep_is_classification_identical() {
    let pruned = campaign(WORK_PROGRAM, &CampaignConfig::new().threads(4));
    let executed = campaign(WORK_PROGRAM, &CampaignConfig::new().threads(4).prune(false));
    let specs = acceptance_specs(&pruned);

    let mut progress = Arc::new(CampaignProgress::new());
    let mut c = pruned;
    c.set_progress(Arc::clone(&progress));
    let a = c.run_all(&specs);
    let pruned_count = progress
        .snapshot()
        .counter("campaign_pruned_dead")
        .unwrap_or(0)
        + progress
            .snapshot()
            .counter("campaign_pruned_dedup")
            .unwrap_or(0);

    progress = Arc::new(CampaignProgress::new());
    let mut c = executed;
    c.set_progress(Arc::clone(&progress));
    let b = c.run_all(&specs);

    assert_eq!(a.results(), b.results(), "classification-identical");
    assert_eq!(a.counts(), b.counts());
    assert!(pruned_count > 0, "the grid contains prunable mutants");
    assert_eq!(
        progress.snapshot().counter("campaign_pruned_dead"),
        Some(0),
        "--no-prune executes everything"
    );
    // The identity claim is only interesting if the sweep spans classes.
    assert!(a.counts().len() >= 3, "{:?}", a.counts());
}

#[test]
fn pruning_composes_with_legacy_dispatch() {
    // Pruning must also agree when the executing baseline is the legacy
    // full-rerun path (fast-forward off disables dedupe but not the
    // def-use verdicts).
    let pruned = campaign(WORK_PROGRAM, &CampaignConfig::new().fast_forward(false));
    let specs: Vec<FaultSpec> = acceptance_specs(&pruned).into_iter().step_by(5).collect();
    let a = pruned.run_all(&specs);
    let legacy = campaign(
        WORK_PROGRAM,
        &CampaignConfig::new().fast_forward(false).prune(false),
    );
    assert_eq!(a.results(), legacy.run_all(&specs).results());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every point of the campaign configuration lattice — {`prune`,
    /// `fast_forward`, `jit`} on/off × threads {1, 2} — classifies
    /// generated mutants of generated torture programs exactly like the
    /// all-off, single-thread baseline (every mutant re-run from reset
    /// on the micro-op engine), spec for spec. This is the acceptance
    /// property behind each of `--no-prune`, fast-forward and `--no-jit`
    /// as an A/B switch, and behind their composition. Sharded runs are
    /// covered by the CLI and chaos suites.
    #[test]
    fn pruned_matches_executed_on_torture_programs(seed in 0u64..1024) {
        let isa = IsaConfig::rv32imfc();
        let program = torture_program(&TortureConfig::new(seed).insns(40).isa(isa));
        let config = |prune: bool, fast_forward: bool, jit: bool, threads: usize| {
            CampaignConfig::new()
                .isa(isa)
                .prune(prune)
                .fast_forward(fast_forward)
                .jit(jit)
                .threads(threads)
        };
        let baseline = campaign(&program.source, &config(false, false, false, 1));
        let specs = generate_mutants(
            baseline.golden().trace(),
            &GeneratorConfig::new(seed ^ 0x5eed),
        );
        let expected = baseline.run_all(&specs);
        for bits in 1..16u8 {
            let (prune, fast_forward, jit) = (bits & 1 != 0, bits & 2 != 0, bits & 4 != 0);
            let threads = if bits & 8 != 0 { 2 } else { 1 };
            let cfg = config(prune, fast_forward, jit, threads);
            let report = campaign(&program.source, &cfg).run_all(&specs);
            prop_assert_eq!(report.results(), expected.results(), "{:?}", cfg);
        }
    }
}
