//! Dispatch-engine tests: direct-mapped jump-cache slot aliasing, direct
//! block chaining, link severing on invalidation (self-modifying code
//! and snapshot restore), and warm translation seeding.

use s4e_asm::assemble;
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{Cpu, RunOutcome, Vp};
use std::sync::Arc;

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

fn cpu_state(cpu: &Cpu) -> String {
    format!("{cpu:?}")
}

/// Two hot blocks exactly 4096 bytes apart: the 2048-slot direct-mapped
/// jump cache indexes with `(pc >> 1) & 2047`, so `loop` (base + 0x8)
/// and `far` (base + 0x1008) collide in the same slot. Each iteration
/// ping-pongs between them through `jal`, which chaining can follow.
const ALIASED_PINGPONG: &str = r#"
    li t0, 300
    li a0, 0
loop:
    addi a0, a0, 1
    jal x0, far
back:
    addi t0, t0, -1
    bnez t0, loop
    ebreak
    .org 0x80001008
far:
    addi a0, a0, 2
    jal x0, back
"#;

/// The same ping-pong reached only through `jalr`: an indirect jump has
/// no static successor, so no chain link forms and every entry to
/// `loop` (base + 0x20) and `far` (base + 0x1020) probes their shared
/// jump-cache slot.
const ALIASED_PINGPONG_INDIRECT: &str = r#"
    li t0, 300
    li a0, 0
    la s1, far
    la s2, back
    la s3, loop
loop:
    addi a0, a0, 1
    jalr x0, 0(s1)
back:
    addi t0, t0, -1
    beqz t0, done
    jalr x0, 0(s3)
done:
    ebreak
    .org 0x80001020
far:
    addi a0, a0, 2
    jalr x0, 0(s2)
"#;

#[test]
fn aliased_jump_cache_slots_stay_correct() {
    // Production engine, JIT off: `loop` and `far` evict each other
    // from the shared slot every iteration, so misses accumulate well
    // past the translation count — correctness must not depend on slot
    // residency.
    let mut indirect = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut indirect, ALIASED_PINGPONG_INDIRECT);
    assert_eq!(indirect.run(), RunOutcome::Break);
    assert_eq!(gpr(&indirect, 10), 300 * 3);
    let stats = indirect.dispatch_stats();
    assert!(
        stats.jmp_cache_misses > 300,
        "aliasing blocks must keep missing the shared slot: {stats:?}"
    );

    // The oracle and the JIT (hot blocks native, threshold 1) end in
    // identical architectural state, cycles and instret included.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    load_src(&mut oracle, ALIASED_PINGPONG_INDIRECT);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(indirect.cpu()));
    let mut jit = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .jit_threshold(1)
        .build();
    load_src(&mut jit, ALIASED_PINGPONG_INDIRECT);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(jit.cpu()), cpu_state(indirect.cpu()));
    let stats = jit.dispatch_stats();
    assert!(stats.jit_blocks > 0, "{stats:?}");
    assert!(stats.jit_exec > 500, "{stats:?}");

    // Through `jal`, chaining bypasses the contended slot (each block
    // links its successor directly; JIT pinned off so the
    // *interpreter's* chaining is what's measured), and the result
    // matches the oracle.
    let mut chained = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut chained, ALIASED_PINGPONG);
    assert_eq!(chained.run(), RunOutcome::Break);
    assert_eq!(gpr(&chained, 10), 300 * 3);
    let stats = chained.dispatch_stats();
    assert!(stats.chain_hits > 500, "{stats:?}");
    assert!(
        stats.jmp_cache_misses < 300,
        "chaining must absorb the aliasing traffic: {stats:?}"
    );
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    load_src(&mut oracle, ALIASED_PINGPONG);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(chained.cpu()));
}

/// A self-chained hot loop whose body is patched (store + `fence.i`)
/// after the first pass. The second pass must execute the patched
/// instruction: the loop block's self-link was severed on invalidation,
/// forcing a retranslation instead of a stale chained dispatch.
const PATCHED_LOOP: &str = r#"
    li t0, 100
    li a0, 0
    li s0, 0
loop:
    addi a0, a0, 1
    addi t0, t0, -1
    bnez t0, loop
    bnez s0, done
    li s0, 1
    la t1, loop
    la t2, secret
    lw t3, 0(t2)
    sw t3, 0(t1)
    fence.i
    li t0, 100
    jal x0, loop
done:
    ebreak
secret:
    .word 0x00550513    # addi a0, a0, 5
"#;

#[test]
fn chained_successors_are_severed_on_smc_invalidation() {
    // JIT pinned off: this test asserts the *interpreter's* chain
    // counters around invalidation (the JIT/SMC edge is covered by
    // tests/jit.rs), and the default promotion threshold is low enough
    // that the hot loop would otherwise go native and stop chaining.
    let mut vp = Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build();
    load_src(&mut vp, PATCHED_LOOP);
    assert_eq!(vp.run(), RunOutcome::Break);
    // First pass adds 1 per iteration, second (patched) pass adds 5.
    assert_eq!(gpr(&vp, 10), 100 + 5 * 100);
    let stats = vp.dispatch_stats();
    assert!(stats.chain_links > 0, "{stats:?}");
    assert!(stats.chain_hits > 100, "{stats:?}");

    // The oracle agrees.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32imc())
        .block_cache(false)
        .build();
    load_src(&mut oracle, PATCHED_LOOP);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(vp.cpu()));
}

#[test]
fn chained_successors_are_severed_on_snapshot_restore() {
    // The snapshot is taken while `patch:` holds the original insn; the
    // flag decides whether the program patches itself before running the
    // hot loop. Alternating runs from the same snapshot force the VP to
    // drop chained blocks on every restore — a stale link would replay
    // the other variant's code.
    let src = r#"
        la t0, patch
        la t2, secret
        lw t1, 0(t2)
        la t3, flag
        lw t4, 0(t3)
        beqz t4, run
        sw t1, 0(t0)
        fence.i
run:
        li t5, 50
        li a0, 0
loop:
patch:
        addi a0, a0, 1      # patched variant: addi a0, a0, 5
        addi t5, t5, -1
        bnez t5, loop
        ebreak
flag:
        .word 0
secret:
        .word 0x00550513    # addi a0, a0, 5
    "#;
    let flag_addr = assemble(src).unwrap().symbol("flag").expect("symbol");
    let mut vp = Vp::new(IsaConfig::rv32imc());
    load_src(&mut vp, src);
    let snap = vp.snapshot();

    for round in 0..3 {
        // Unpatched pass: the loop block chains to itself, +1 each turn.
        assert_eq!(vp.run(), RunOutcome::Break);
        assert_eq!(gpr(&vp, 10), 50, "round {round}");
        assert!(vp.dispatch_stats().chain_hits > 0);

        // Restore and flip the flag: the patched loop must add 5.
        vp.restore(&snap);
        vp.bus_mut().write32(flag_addr, 1, 0).unwrap();
        assert_eq!(vp.run(), RunOutcome::Break);
        assert_eq!(gpr(&vp, 10), 250, "round {round}");

        vp.restore(&snap);
    }
}

#[test]
fn fusion_counters_flow_for_fusable_idioms() {
    // `li a0, 0x12345678` expands to lui+addi — the ConstLui pattern —
    // and the loop makes the fused op execute many times.
    let src = r#"
        li t0, 64
loop:
        li a0, 0x12345678
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let mut vp = Vp::new(IsaConfig::rv32i());
    load_src(&mut vp, src);
    assert_eq!(vp.run(), RunOutcome::Break);
    assert_eq!(gpr(&vp, 10), 0x12345678);
    let stats = vp.dispatch_stats();
    assert!(stats.fused_lowered > 0, "{stats:?}");
    assert!(stats.fused_exec >= 64, "{stats:?}");

    // Identical architectural state on the oracle.
    let mut oracle = Vp::builder()
        .isa(IsaConfig::rv32i())
        .block_cache(false)
        .build();
    load_src(&mut oracle, src);
    assert_eq!(oracle.run(), RunOutcome::Break);
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(vp.cpu()));
}

#[test]
fn oracle_declines_a_warm_translation_set() {
    // A set exported from a production VP seeds other production VPs;
    // the oracle decodes every step and must neither adopt it nor end
    // in a different state.
    let isa = IsaConfig::rv32imc();
    let mut exporter = Vp::new(isa);
    load_src(&mut exporter, ALIASED_PINGPONG);
    assert_eq!(exporter.run(), RunOutcome::Break);
    let warm = Arc::new(exporter.export_translations());
    assert!(!warm.is_empty());

    let mut seeded = Vp::new(isa);
    seeded.set_warm_translations(Some(Arc::clone(&warm)));
    load_src(&mut seeded, ALIASED_PINGPONG);
    assert_eq!(seeded.run(), RunOutcome::Break);
    let stats = seeded.dispatch_stats();
    assert!(stats.warm_translations > 0, "{stats:?}");

    let mut oracle = Vp::builder().isa(isa).block_cache(false).build();
    oracle.set_warm_translations(Some(warm));
    load_src(&mut oracle, ALIASED_PINGPONG);
    assert_eq!(oracle.run(), RunOutcome::Break);
    let stats = oracle.dispatch_stats();
    assert_eq!(stats.warm_translations, 0, "{stats:?}");
    assert_eq!(cpu_state(oracle.cpu()), cpu_state(seeded.cpu()));
    let base = assemble(ALIASED_PINGPONG).unwrap().base();
    assert_eq!(
        oracle.bus().dump(base, 0x1010).unwrap(),
        seeded.bus().dump(base, 0x1010).unwrap()
    );
}
