//! Property-based cross-crate invariants, driven by randomly generated
//! torture programs.

use proptest::prelude::*;
use s4e_vp::{FlightEvent, FlightRecorder};
use scale4edge::prelude::*;

fn run_to_break(image: &Image, isa: IsaConfig, cache: bool) -> Vp {
    let mut vp = Vp::builder().isa(isa).block_cache(cache).build();
    boot(&mut vp, image).expect("boots");
    let outcome = vp.run_for(10_000_000);
    assert_eq!(outcome, RunOutcome::Break);
    vp
}

/// What the stuck-at differential compares after one faulted run.
#[derive(Debug, PartialEq)]
struct StuckRun {
    outcome: RunOutcome,
    pc: u32,
    cycles: u64,
    instret: u64,
    gprs: Vec<u32>,
    fprs: Vec<u32>,
    ram: Vec<u8>,
    flight: Vec<(FlightEvent, Option<&'static str>)>,
}

/// Plants `masks` (register, bit, stuck value) on a freshly restored
/// VP, runs it to a budget that bounds faulted programs which never
/// reach their `ebreak`, and records the observable state.
fn stuck_run(vp: &mut Vp, masks: &[(u8, u8, bool)], ram_base: u32) -> StuckRun {
    vp.flight_recorder_mut().expect("armed").clear();
    for &(reg, bit, value) in masks {
        vp.cpu_mut()
            .plant_gpr_fault(Gpr::new(reg).expect("index"), bit, value);
    }
    let outcome = vp.run_for(50_000);
    let cpu = vp.cpu();
    StuckRun {
        outcome,
        pc: cpu.pc(),
        cycles: cpu.cycles(),
        instret: cpu.instret(),
        gprs: (0..32u8)
            .map(|i| cpu.gpr(Gpr::new(i).expect("index")))
            .collect(),
        fprs: (0..32u8)
            .map(|i| cpu.fpr(s4e_isa::Fpr::new(i).expect("index")))
            .collect(),
        ram: vp.bus().dump(ram_base, 4096).expect("ram").to_vec(),
        flight: vp.flight_recorder().expect("armed").tail(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The block cache is a pure performance feature: architectural
    /// results, cycle counts and instruction counts are identical with and
    /// without it, for arbitrary generated programs.
    #[test]
    fn block_cache_is_transparent(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(120).isa(isa));
        let image = assemble(&p.source).expect("generated programs assemble");
        let cached = run_to_break(&image, isa, true);
        let uncached = run_to_break(&image, isa, false);
        prop_assert_eq!(cached.cpu().cycles(), uncached.cpu().cycles());
        prop_assert_eq!(cached.cpu().instret(), uncached.cpu().instret());
        for i in 0..32u8 {
            let r = Gpr::new(i).expect("index");
            prop_assert_eq!(cached.cpu().gpr(r), uncached.cpu().gpr(r));
        }
    }

    /// Snapshot/restore is architecturally invisible: running to an
    /// arbitrary split point, snapshotting, restoring onto a *different*
    /// VP and finishing there produces exactly the state of an
    /// uninterrupted run — registers, counters, RAM and plugin-visible
    /// retirement counts.
    #[test]
    fn snapshot_round_trip_is_transparent(seed in any::<u64>(), split in 1u64..400) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(120).isa(isa));
        let image = assemble(&p.source).expect("generated programs assemble");

        let mut straight = Vp::new(isa);
        boot(&mut straight, &image).expect("boots");
        prop_assert_eq!(straight.run_for(10_000_000), RunOutcome::Break);

        let mut golden = Vp::new(isa);
        boot(&mut golden, &image).expect("boots");
        let at_split = golden.run_for(split);
        let snap = golden.snapshot();

        if at_split == RunOutcome::Break {
            // The program was shorter than the split: the snapshot *is*
            // the final state (re-running a terminated VP would re-execute
            // the ebreak, so a fast-forward consumer must not resume it).
            prop_assert_eq!(snap.instret(), straight.cpu().instret());
            prop_assert_eq!(snap.cycles(), straight.cpu().cycles());
        } else {
            prop_assert_eq!(at_split, RunOutcome::InsnLimit);
            let mut worker = Vp::new(isa);
            worker.restore(&snap);
            prop_assert_eq!(worker.cpu().instret(), snap.instret());
            prop_assert_eq!(worker.run_for(10_000_000), RunOutcome::Break);
            prop_assert_eq!(worker.cpu().cycles(), straight.cpu().cycles());
            prop_assert_eq!(worker.cpu().instret(), straight.cpu().instret());
            for i in 0..32u8 {
                let r = Gpr::new(i).expect("index");
                prop_assert_eq!(worker.cpu().gpr(r), straight.cpu().gpr(r));
            }
            let base = image.base();
            prop_assert_eq!(
                worker.bus().dump(base, 4096).expect("ram"),
                straight.bus().dump(base, 4096).expect("ram")
            );
        }
    }

    /// The execution engines are architecturally invisible: for
    /// arbitrary generated programs — including memory-heavy ones, where
    /// roughly half the body is scratch-buffer loads/stores — all three
    /// finish in exactly the same CPU and memory state: the
    /// decode-per-step oracle (`block_cache(false)`), the production
    /// engine with the JIT off (micro-ops + fusion + chaining + RAM fast
    /// path) and the production engine with the JIT on (promotion
    /// threshold pinned to 1 so every block goes native immediately).
    #[test]
    fn lowered_execution_matches_the_oracle(seed in any::<u64>(), mem_heavy in any::<bool>()) {
        let isa = IsaConfig::rv32imfc();
        let cfg = TortureConfig::new(seed).insns(120).isa(isa).mem_heavy(mem_heavy);
        let p = torture_program(&cfg);
        let image = assemble(&p.source).expect("generated programs assemble");

        let mut full = Vp::builder().isa(isa).jit(false).build();
        boot(&mut full, &image).expect("boots");
        prop_assert_eq!(full.run_for(10_000_000), RunOutcome::Break);
        let mut jit = Vp::builder().isa(isa).jit_threshold(1).build();
        boot(&mut jit, &image).expect("boots");
        prop_assert_eq!(jit.run_for(10_000_000), RunOutcome::Break);
        let mut oracle = Vp::builder().isa(isa).block_cache(false).build();
        boot(&mut oracle, &image).expect("boots");
        prop_assert_eq!(oracle.run_for(10_000_000), RunOutcome::Break);

        for other in [&jit, &oracle] {
            prop_assert_eq!(full.cpu().pc(), other.cpu().pc());
            prop_assert_eq!(full.cpu().cycles(), other.cpu().cycles());
            prop_assert_eq!(full.cpu().instret(), other.cpu().instret());
            for i in 0..32u8 {
                let r = Gpr::new(i).expect("index");
                prop_assert_eq!(full.cpu().gpr(r), other.cpu().gpr(r));
                let f = s4e_isa::Fpr::new(i).expect("index");
                prop_assert_eq!(full.cpu().fpr(f), other.cpu().fpr(f));
            }
            let base = image.base();
            prop_assert_eq!(
                full.bus().dump(base, 4096).expect("ram"),
                other.bus().dump(base, 4096).expect("ram")
            );
        }
        // Memory-heavy programs must actually exercise the fast path on
        // the production engine (otherwise this differential proves
        // little).
        if mem_heavy {
            prop_assert!(full.dispatch_stats().mem_fast_hits > 0);
        }
    }

    /// The QTA invariant chain `dynamic ≤ qta ≤ static` holds for
    /// arbitrary loop-free generated programs.
    #[test]
    fn qta_invariant_on_random_programs(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(100).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let session = QtaSession::prepare(
            image.base(), image.bytes(), image.entry(), isa, &WcetOptions::new(),
        ).expect("loop-free programs analyze");
        let run = session.run().expect("runs");
        prop_assert!(run.dynamic_cycles <= run.qta_cycles,
            "dynamic {} > qta {}", run.dynamic_cycles, run.qta_cycles);
        prop_assert!(run.qta_cycles <= run.static_wcet,
            "qta {} > static {}", run.qta_cycles, run.static_wcet);
        prop_assert!(run.violations.is_empty());
    }

    /// Coverage merging is monotone and idempotent on identical reports.
    #[test]
    fn coverage_merge_properties(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(80).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let mut vp = Vp::new(isa);
        boot(&mut vp, &image).expect("boots");
        vp.add_plugin(Box::new(CoveragePlugin::new(isa)));
        vp.run_for(10_000_000);
        let single = vp.plugin::<CoveragePlugin>().unwrap().report();
        let mut doubled = single.clone();
        doubled.merge(&single);
        // Coverage ratios are invariant under self-merge (counts double,
        // coverage does not).
        prop_assert_eq!(doubled.insn_type_coverage(), single.insn_type_coverage());
        prop_assert_eq!(doubled.gpr_coverage(), single.gpr_coverage());
        prop_assert_eq!(doubled.total_insns(), 2 * single.total_insns());
    }

    /// A mutant campaign never panics and classifies every mutant, for
    /// arbitrary generated programs and fault lists.
    #[test]
    fn campaign_total_on_random_programs(seed in 0u64..500) {
        let isa = IsaConfig::rv32imc();
        let p = torture_program(&TortureConfig::new(seed).insns(60).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let campaign = Campaign::prepare(
            image.base(), image.bytes(), image.entry(),
            &CampaignConfig::new().isa(isa),
        ).expect("golden runs terminate");
        let gen = GeneratorConfig {
            stuck_per_gpr: 1,
            transient_per_gpr: 1,
            transient_per_fpr: 0,
            opcode_mutants: 4,
            data_mutants: 2,
            seed,
        };
        let mutants = generate_mutants(campaign.golden().trace(), &gen);
        let report = campaign.run_all(&mutants);
        prop_assert_eq!(report.total(), mutants.len());
        let classified: usize = report.counts().values().sum();
        prop_assert_eq!(classified, mutants.len());
    }

    /// Register-coverage of a torture program includes every register the
    /// generator initialized (the generator writes all writable GPRs).
    #[test]
    fn torture_touches_initialized_registers(seed in any::<u64>()) {
        let isa = IsaConfig::rv32imfc();
        let p = torture_program(&TortureConfig::new(seed).insns(40).isa(isa));
        let image = assemble(&p.source).expect("assembles");
        let mut vp = Vp::new(isa);
        boot(&mut vp, &image).expect("boots");
        vp.add_plugin(Box::new(CoveragePlugin::new(isa)));
        vp.run_for(10_000_000);
        let report = vp.plugin::<CoveragePlugin>().unwrap().report();
        // All 32 GPRs: initialization writes + signature reads + x0/sp use.
        prop_assert!(report.gpr_coverage().is_full(),
            "uncovered: {:?}", report.uncovered_gprs());
    }
}

proptest! {
    // Short loop-free programs: cheap enough for a wider sweep of
    // register, bit and polarity combinations.
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Stuck-at faults run natively through the template JIT's masked
    /// variant without an architectural trace: random masks (any GPR
    /// including `x0`, any bit, either polarity, sometimes on two
    /// registers) planted at reset, and again with flipped polarity
    /// after restoring a mid-run snapshot (so the JIT re-adopts its
    /// retained masked blocks under different masks), leave the
    /// per-instruction oracle, the production engine with the JIT off
    /// and the production engine with every block compiled in exactly
    /// the same state — pc, counters, registers, RAM and flight tail.
    #[test]
    fn stuck_at_masks_match_the_oracle_with_the_jit_on(
        seed in any::<u64>(),
        mem_heavy in any::<bool>(),
        reg in 0u8..32,
        bit in 0u8..32,
        value in any::<bool>(),
        two in any::<bool>(),
        reg2 in 0u8..32,
        bit2 in 0u8..32,
        value2 in any::<bool>(),
        split in 1u64..300,
    ) {
        let isa = IsaConfig::rv32imfc();
        let cfg = TortureConfig::new(seed).insns(120).isa(isa).mem_heavy(mem_heavy);
        let image = assemble(&torture_program(&cfg).source).expect("generated programs assemble");
        let mut masks = vec![(reg, bit, value)];
        if two {
            masks.push((reg2, bit2, value2));
        }
        let flipped: Vec<_> = masks.iter().map(|&(r, b, v)| (r, b, !v)).collect();
        let engines = [
            Vp::builder().isa(isa).block_cache(false),
            Vp::builder().isa(isa).jit(false),
            Vp::builder().isa(isa).jit_threshold(1),
        ];
        let runs: Vec<_> = engines
            .into_iter()
            .map(|builder| {
                let mut vp = builder.build();
                boot(&mut vp, &image).expect("boots");
                vp.set_flight_recorder(Some(FlightRecorder::new(64)));
                let reset = vp.snapshot();
                vp.run_for(split);
                let mid = vp.snapshot();
                vp.restore(&reset);
                let at_reset = stuck_run(&mut vp, &masks, image.base());
                vp.restore(&mid);
                let after_restore = stuck_run(&mut vp, &flipped, image.base());
                (at_reset, after_restore, vp.dispatch_stats())
            })
            .collect();
        for other in &runs[1..] {
            prop_assert_eq!(&runs[0].0, &other.0);
            prop_assert_eq!(&runs[0].1, &other.1);
        }
        // The JIT engine really ran stuck-at code natively.
        prop_assert!(runs[2].2.jit_exec > 0, "{:?}", runs[2].2);
    }
}
