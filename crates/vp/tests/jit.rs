//! Template-JIT teardown edges: the places where native code must hand
//! control back to the interpreter without leaking any architectural
//! difference — self-modifying stores invalidating compiled code
//! mid-chain, snapshot restore retaining the arena (and dropping
//! exactly the entries whose code pages the restore rewrote), interrupt
//! delivery while a hot loop runs natively, and an instruction budget
//! expiring inside a compiled block. Every test is a differential
//! against the identical program with the JIT pinned off.

use s4e_asm::assemble;
use s4e_isa::{Gpr, IsaConfig};
use s4e_vp::{DispatchStats, RunOutcome, Vp};

/// Threshold 1: every block is compiled on its first execution, so the
/// edge under test is guaranteed to involve native code.
fn jit_vp() -> Vp {
    Vp::builder()
        .isa(IsaConfig::rv32imc())
        .jit_threshold(1)
        .build()
}

fn nojit_vp() -> Vp {
    Vp::builder().isa(IsaConfig::rv32imc()).jit(false).build()
}

fn load_src(vp: &mut Vp, src: &str) {
    let img = assemble(src).expect("assembles");
    vp.load(img.base(), img.bytes()).expect("loads");
    vp.cpu_mut().set_pc(img.entry());
}

/// The full architectural fingerprint: pc, counters and every register
/// ride along in `Cpu`'s Debug output.
fn cpu_state(vp: &Vp) -> String {
    format!("{:?}", vp.cpu())
}

fn x(index: u8) -> Gpr {
    Gpr::new(index).unwrap()
}

fn gpr(vp: &Vp, name: u8) -> u32 {
    vp.cpu().gpr(Gpr::new(name).unwrap())
}

/// A hot self-chaining loop whose body is patched by a store into the
/// code range, from code that is itself compiled (no `fence.i`: the
/// VP's SMC detection on the store is the edge under test, and a
/// `fence.i` would make the patcher block JIT-ineligible). The store
/// must bail out of native execution *before* writing, the deferred
/// invalidation must drop the arena, and the patched loop must be
/// re-promoted and produce the patched semantics.
const SELF_PATCHING: &str = r#"
    li t0, 200
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
    li t0, 200
    jal x0, loop
done:
    ebreak
secret:
    .word 0x00550513    # addi a0, a0, 5
"#;

#[test]
fn smc_invalidation_mid_chain_is_exact() {
    let mut jit = jit_vp();
    load_src(&mut jit, SELF_PATCHING);
    assert_eq!(jit.run(), RunOutcome::Break);
    // First pass +1 per iteration, patched pass +5.
    assert_eq!(gpr(&jit, 10), 200 + 5 * 200);

    let mut nojit = nojit_vp();
    load_src(&mut nojit, SELF_PATCHING);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), cpu_state(&nojit));

    let stats = jit.dispatch_stats();
    assert!(
        stats.jit_exec > 200,
        "loop must have run natively: {stats:?}"
    );
    assert!(
        stats.jit_bailouts >= 1,
        "the code-range store must bail, not write natively: {stats:?}"
    );
    assert!(stats.invalidations >= 1, "{stats:?}");
    // The loop block was compiled once per code version: the arena was
    // really discarded and the patched loop re-promoted.
    assert!(stats.jit_blocks >= 2, "{stats:?}");
}

/// A plain hot loop for the restore and budget edges.
const HOT_LOOP: &str = r#"
    li t0, 500
    li a0, 0
loop:
    addi a0, a0, 3
    xor a1, a0, t0
    addi t0, t0, -1
    bnez t0, loop
    ebreak
"#;

#[test]
fn snapshot_restore_retains_native_code() {
    let mut jit = jit_vp();
    load_src(&mut jit, HOT_LOOP);
    let snap = jit.snapshot();
    assert_eq!(jit.run(), RunOutcome::Break);
    let first = cpu_state(&jit);
    let stats = jit.take_dispatch_stats();
    assert!(stats.jit_blocks > 0 && stats.jit_exec > 400, "{stats:?}");

    // Restore drops the block cache but *retains* the arena: the loop
    // never wrote its own code pages, so the second run re-adopts the
    // compiled blocks (after hash revalidation) instead of recompiling,
    // and still agrees exactly.
    jit.restore(&snap);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), first);
    let stats = jit.take_dispatch_stats();
    assert_eq!(
        stats.jit_blocks, 0,
        "post-restore run must re-adopt retained code, not recompile: {stats:?}"
    );
    assert!(
        stats.jit_retained > 0 && stats.jit_retained == stats.jit_revalidations,
        "every adoption must have revalidated the code bytes: {stats:?}"
    );
    assert!(stats.jit_exec > 400, "retained code must run: {stats:?}");

    let mut nojit = nojit_vp();
    load_src(&mut nojit, HOT_LOOP);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&nojit), first);
}

#[test]
fn restore_drops_native_code_on_rewritten_pages() {
    // Run the self-patching program to completion: the loop's code page
    // now differs from the snapshot image. Restoring must copy that
    // page back and drop the (patched) native loop — re-running from
    // the snapshot recompiles the *original* code and produces the full
    // self-patching result again, not a stale-arena artifact.
    let mut jit = jit_vp();
    load_src(&mut jit, SELF_PATCHING);
    let snap = jit.snapshot();
    assert_eq!(jit.run(), RunOutcome::Break);
    let first = cpu_state(&jit);
    jit.take_dispatch_stats();

    jit.restore(&snap);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), first);
    assert_eq!(gpr(&jit, 10), 200 + 5 * 200);
    let stats = jit.take_dispatch_stats();
    assert!(
        stats.jit_blocks >= 2,
        "rewritten code pages must recompile, not reuse stale code: {stats:?}"
    );
}

/// A timer interrupt armed to fire while the spin loop is executing
/// natively: the JIT's deadline stops native chains at exactly the
/// block boundary where the interpreter would poll `mip`, so iteration
/// count, cycle count and the interrupt's architectural timing are
/// identical with and without the JIT.
const TIMED_SPIN: &str = r#"
    .equ CLINT, 0x02000000
    la t0, handler
    csrw mtvec, t0
    li t1, CLINT + 0x4000
    csrr t2, mcycle
    addi t2, t2, 2000
    sw zero, 4(t1)      # mtimecmp hi = 0 first (reset value is MAX)
    sw t2, 0(t1)        # mtimecmp lo
    li t3, 128
    csrw mie, t3
    csrsi mstatus, 8
    li a0, 0
    li a1, 0
spin:
    addi a1, a1, 1
    beqz a0, spin
    ebreak
handler:
    li a0, 1
    csrr a2, mcause
    li t4, CLINT + 0x4000
    li t5, -1
    sw t5, 4(t4)
    mret
"#;

#[test]
fn interrupt_delivery_during_native_loop_is_exact() {
    let mut jit = jit_vp();
    load_src(&mut jit, TIMED_SPIN);
    assert_eq!(jit.run(), RunOutcome::Break);
    assert_eq!(gpr(&jit, 10), 1, "handler must have run");
    assert_eq!(gpr(&jit, 12), 0x8000_0007, "machine timer interrupt");
    assert!(gpr(&jit, 11) > 100, "the spin loop must actually spin");
    let stats = jit.dispatch_stats();
    assert!(
        stats.jit_exec > 100,
        "the spin loop must run natively: {stats:?}"
    );

    let mut nojit = nojit_vp();
    load_src(&mut nojit, TIMED_SPIN);
    assert_eq!(nojit.run(), RunOutcome::Break);
    assert_eq!(cpu_state(&jit), cpu_state(&nojit));
}

#[test]
fn insn_budget_expiry_inside_native_block_is_exact() {
    // Budgets ending at every offset through the first few hundred
    // instructions land both at native block boundaries and in the
    // middle of compiled blocks (the loop body is four instructions):
    // the JIT must stop at the exact instruction either way.
    for budget in [1u64, 7, 50, 101, 102, 103, 104, 333] {
        let mut jit = jit_vp();
        load_src(&mut jit, HOT_LOOP);
        let jit_outcome = jit.run_for(budget);

        let mut nojit = nojit_vp();
        load_src(&mut nojit, HOT_LOOP);
        let nojit_outcome = nojit.run_for(budget);

        assert_eq!(jit_outcome, nojit_outcome, "budget {budget}");
        assert_eq!(jit.cpu().instret(), budget, "budget {budget}");
        assert_eq!(cpu_state(&jit), cpu_state(&nojit), "budget {budget}");

        // Resuming both to completion stays in lockstep.
        assert_eq!(jit.run(), RunOutcome::Break, "budget {budget}");
        assert_eq!(nojit.run(), RunOutcome::Break, "budget {budget}");
        assert_eq!(cpu_state(&jit), cpu_state(&nojit), "budget {budget}");
    }
}

#[test]
fn jit_is_a_pure_performance_feature_on_stats() {
    // With the JIT off (or on a non-x86-64 host, where the builder flag
    // is a no-op), no jit counters may move.
    let mut nojit = nojit_vp();
    load_src(&mut nojit, HOT_LOOP);
    assert_eq!(nojit.run(), RunOutcome::Break);
    let stats = nojit.dispatch_stats();
    assert_eq!(stats.jit_blocks, 0, "{stats:?}");
    assert_eq!(stats.jit_exec, 0, "{stats:?}");
    assert_eq!(stats.jit_bailouts, 0, "{stats:?}");
}

/// Runs `src` from reset with stuck-at `faults` planted on a JIT VP
/// (every block compiled, so the masked variant runs) and on a JIT-off
/// VP, asserts both reach `ebreak` in the identical state, and returns
/// the JIT VP's counters.
fn stuck_differential(src: &str, faults: &[(Gpr, u8, bool)]) -> (Vp, DispatchStats) {
    let [mut jit, nojit] = [jit_vp(), nojit_vp()].map(|mut vp| {
        load_src(&mut vp, src);
        for &(reg, bit, value) in faults {
            vp.cpu_mut().plant_gpr_fault(reg, bit, value);
        }
        assert_eq!(vp.run_for(1_000_000), RunOutcome::Break, "{faults:?}");
        vp
    });
    assert_eq!(cpu_state(&jit), cpu_state(&nojit), "{faults:?}");
    let stats = jit.take_dispatch_stats();
    (jit, stats)
}

/// The fused op ran natively in the masked variant: the micro-op engine
/// replays fused pairs per instruction while masks are armed, so only
/// native code counts them.
fn assert_fused_native(stats: &DispatchStats) {
    assert!(stats.jit_exec > 0, "{stats:?}");
    assert!(
        stats.fused_exec > 0,
        "fused op must run natively: {stats:?}"
    );
    assert_eq!(stats.jit_bail_mask, 0, "{stats:?}");
}

#[test]
fn masked_add_bne_rereads_its_counter() {
    // `addi t0, t0, -1; bnez t0` fuses to AddBne. With t0's bit 0 stuck
    // at 0 the branch sees only even values: the loop exits after 32
    // iterations, when the raw 1 reads as 0.
    let src = r#"
        li t0, 64
        li a0, 0
    loop:
        addi a0, a0, 1
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let (jit, stats) = stuck_differential(src, &[(x(5), 0, false)]);
    assert_eq!(gpr(&jit, 10), 32);
    assert_fused_native(&stats);
}

#[test]
fn masked_add_beq_rereads_its_result() {
    // AddBeq on t0 with bit 0 stuck at 1: the raw values stay even, the
    // compare sees them odd, so the exit comes at raw 40 (read as 41).
    let src = r#"
        li t0, 0
        li t2, 41
    loop:
        addi t0, t0, 1
        beq t0, t2, done
        j loop
    done:
        ebreak
    "#;
    let (jit, stats) = stuck_differential(src, &[(x(5), 0, true)]);
    assert_eq!(jit.cpu().gpr(x(5)), 41);
    assert_fused_native(&stats);
}

#[test]
fn masked_shift_pair_rereads_its_intermediate() {
    // `slli a1, a0, 16; srli a1, a1, 16` with a1's bit 31 stuck at 1:
    // the `srli` half shifts the forced bit down to bit 15.
    let src = r#"
        li t0, 50
        li a0, 0x12345
        li a2, 0
    loop:
        slli a1, a0, 16
        srli a1, a1, 16
        add a2, a2, a1
        addi a0, a0, 7
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    let (_, stats) = stuck_differential(src, &[(Gpr::A1, 31, true)]);
    assert_fused_native(&stats);
}

#[test]
fn masked_load_const_rereads_its_upper_half() {
    // `li a1, 0x12345678` is `lui` + `addi`, `la a3, data` is `auipc` +
    // `addi`. A stuck-at-1 on bit 9 lands on the upper half before the
    // `addi` carries into it.
    let src = r#"
        li t0, 20
        li a2, 0
    loop:
        li a1, 0x12345678
        add a2, a2, a1
        la a3, data
        add a2, a2, a3
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    data:
        .word 0
    "#;
    for reg in [Gpr::A1, x(13)] {
        let (_, stats) = stuck_differential(src, &[(reg, 9, true)]);
        assert_fused_native(&stats);
    }
}

#[test]
fn masked_compare_branch_rereads_rd_and_x0() {
    // `slt t1, a0, a1; beqz t1` fuses to SltBrz; the branch compares t1
    // against x0, so a fault on either changes the path.
    let src = r#"
        li t0, 30
        li a0, 0
        li a1, 100
        li a2, 0
    loop:
        addi a2, a2, 1
        slt t1, a0, a1
        beqz t1, skip
        addi a0, a0, 5
    skip:
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    "#;
    for fault in [(x(6), 0, false), (Gpr::ZERO, 0, true), (Gpr::A1, 6, false)] {
        let (_, stats) = stuck_differential(src, &[fault]);
        assert_fused_native(&stats);
    }
}

#[test]
fn masked_pc_relative_access_bails_only_when_its_base_moves() {
    // `auipc a1, 0; lw a1, off(a1)` fuses to AbsLw: the fused op loads
    // a static address, which the masked variant keeps only while the
    // base register's masks leave the `auipc` value intact.
    let src = r#"
        li t0, 40
        li a2, 0
    loop:
        auipc a1, 0
        lw a1, data - loop(a1)
        add a2, a2, a1
        addi t0, t0, -1
        bnez t0, loop
        ebreak
    data:
        .word 7
    "#;
    // The `auipc` value is `loop` = RAM base + 8: bit 3 is already set,
    // so a stuck-at-1 there only changes the loaded value's reads.
    let (_, stats) = stuck_differential(src, &[(Gpr::A1, 3, true)]);
    assert_fused_native(&stats);
    // Bit 2 is clear: a stuck-at-1 moves the access, so the fused op
    // bails to the per-instruction replay on every iteration.
    let (_, stats) = stuck_differential(src, &[(Gpr::A1, 2, true)]);
    assert_eq!(stats.jit_bail_mask, 40, "{stats:?}");
    assert_eq!(stats.jit_bailouts, 40, "{stats:?}");
}

#[test]
fn clear_faults_mid_life_runs_plain_code() {
    // Run the hot loop part-way with a mask armed (compiling masked
    // blocks), clear the masks and finish: the rest runs through freshly
    // compiled plain entries, never a retained masked one, and matches
    // the JIT-off engine.
    let states = [jit_vp(), nojit_vp()].map(|mut vp| {
        load_src(&mut vp, HOT_LOOP);
        vp.cpu_mut().plant_gpr_fault(Gpr::A1, 4, true);
        assert_eq!(vp.run_for(300), RunOutcome::InsnLimit);
        let masked = vp.take_dispatch_stats();
        vp.cpu_mut().clear_faults();
        assert_eq!(vp.run(), RunOutcome::Break);
        (cpu_state(&vp), masked, vp.take_dispatch_stats())
    });
    let [(jit_state, masked, plain), (nojit_state, _, _)] = states;
    assert_eq!(jit_state, nojit_state);
    assert!(masked.jit_blocks > 0 && masked.jit_exec > 0, "{masked:?}");
    assert!(plain.jit_blocks > 0, "plain code must compile: {plain:?}");
    assert_eq!(plain.jit_retained, 0, "{plain:?}");
    assert!(plain.jit_exec > 400, "{plain:?}");
}

#[test]
fn masked_blocks_survive_restore_under_different_masks() {
    // One masked compile serves every stuck-at mutant: after a restore,
    // a different mask re-adopts the retained masked blocks (masks are
    // read at run time) without recompiling, and stays exact.
    let states = [jit_vp(), nojit_vp()].map(|mut vp| {
        load_src(&mut vp, HOT_LOOP);
        let snap = vp.snapshot();
        vp.cpu_mut().plant_gpr_fault(Gpr::A1, 5, true);
        assert_eq!(vp.run(), RunOutcome::Break);
        let first = (cpu_state(&vp), vp.take_dispatch_stats());
        vp.restore(&snap);
        vp.cpu_mut().plant_gpr_fault(Gpr::A0, 1, false);
        assert_eq!(vp.run(), RunOutcome::Break);
        (first, cpu_state(&vp), vp.take_dispatch_stats())
    });
    let [(jit_first, jit_state, stats), (nojit_first, nojit_state, _)] = states;
    assert_eq!(jit_first.0, nojit_first.0);
    assert_eq!(jit_state, nojit_state);
    assert!(jit_first.1.jit_blocks > 0, "{:?}", jit_first.1);
    assert_eq!(
        stats.jit_blocks, 0,
        "must re-adopt, not recompile: {stats:?}"
    );
    assert!(stats.jit_retained > 0, "{stats:?}");
    assert!(stats.jit_exec > 400, "{stats:?}");
}
