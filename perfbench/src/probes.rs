//! Layer probes: timed calls into the `vp`, `wcet`, `core` and
//! `coverage` public functions on a workload's own program.

use crate::report::Ledger;
use crate::stats::Summary;
use s4e_asm::Image;
use s4e_core::QtaSession;
use s4e_coverage::{CoveragePlugin, CoverageReport};
use s4e_isa::IsaConfig;
use s4e_vp::{RunOutcome, TimingModel, Vp, VpBuilder};
use s4e_wcet::WcetOptions;
use std::hint::black_box;
use std::time::Instant;

/// Instruction limit of one probe or tool run.
pub const RUN_LIMIT: u64 = 50_000_000;

/// Host time one rate probe samples for.
const PROBE_SECONDS: f64 = 0.25;

/// The VP recipe `Campaign::prepare` uses for its golden run and mutants.
pub fn campaign_vp(isa: IsaConfig, image: &Image) -> VpBuilder {
    Vp::builder()
        .isa(isa)
        .ram(image.base() & !0xfff, 256 * 1024)
        .timing(TimingModel::flat())
        .jit_threshold(2)
}

/// Builds a VP from `builder` with `image` loaded at its entry point.
///
/// # Panics
///
/// Panics if the image does not fit the VP's RAM (workload programs are
/// generated to fit).
pub fn boot(builder: &VpBuilder, image: &Image) -> Vp {
    let mut vp = builder.clone().build();
    vp.load(image.base(), image.bytes())
        .expect("workload image fits RAM");
    vp.cpu_mut().set_pc(image.entry());
    vp
}

/// Repeats `f` (which returns the guest instructions it retired) for at
/// least three runs and [`PROBE_SECONDS`], and returns the median rate in
/// millions of instructions per host second.
fn median_mips(mut f: impl FnMut() -> u64) -> f64 {
    let start = Instant::now();
    let mut rates = Vec::new();
    while rates.len() < 3 || start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let t = Instant::now();
        let insns = f();
        rates.push(insns as f64 / t.elapsed().as_secs_f64() / 1e6);
    }
    Summary::of(&rates).median
}

/// Median host seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    Summary::of(&samples).median
}

/// Runs `image` on a fresh VP from `builder` with a coverage plugin and
/// returns the report and retired instructions.
pub fn coverage_run(builder: &VpBuilder, image: &Image, isa: IsaConfig) -> (CoverageReport, u64) {
    let mut vp = boot(builder, image);
    vp.add_plugin(Box::new(CoveragePlugin::new(isa)));
    let outcome = vp.run_for(RUN_LIMIT);
    debug_assert_eq!(outcome, RunOutcome::Break);
    let report = vp
        .plugin::<CoveragePlugin>()
        .expect("coverage plugin attached above")
        .report();
    (report, vp.cpu().instret())
}

/// The engine probes: VP construction, the golden run at the campaign's
/// engine settings, a snapshot restore, and a run with a
/// per-instruction plugin.
pub fn vp_probes(layers: &mut Ledger, image: &Image, isa: IsaConfig) {
    let campaign = campaign_vp(isa, image);
    let boot_s = median_secs(50, || {
        black_box(boot(&campaign, image));
    });
    layers.set("vp.boot_us", boot_s * 1e6, "us");
    layers.set(
        "vp.golden_mips",
        median_mips(|| {
            let mut vp = boot(&campaign, image);
            black_box(vp.run_for(RUN_LIMIT));
            vp.cpu().instret()
        }),
        "MIPS",
    );

    // Restore probe: snapshot half-way through the golden run, run on a
    // little, and time the restore back.
    let mut golden = boot(&campaign, image);
    golden.run_for(RUN_LIMIT);
    let half = golden.cpu().instret() / 2;
    let mut vp = boot(&campaign, image);
    vp.run_for(half);
    let snap = vp.snapshot();
    let restores: Vec<f64> = (0..100)
        .map(|_| {
            vp.run_for(1000);
            let t = Instant::now();
            vp.restore(&snap);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    layers.set("vp.restore_us", Summary::of(&restores).median, "us");

    let plain = Vp::builder().isa(isa);
    layers.set(
        "vp.plugin_mips",
        median_mips(|| coverage_run(&plain, image, isa).1),
        "MIPS",
    );
}

/// The analysis-tool probes on one program: WCET analysis, a QTA
/// co-simulation and a coverage run.
///
/// # Errors
///
/// Fails when the program is not statically analyzable.
pub fn tool_probes(layers: &mut Ledger, image: &Image, isa: IsaConfig) -> Result<(), String> {
    let prepare = || {
        QtaSession::prepare(
            image.base(),
            image.bytes(),
            image.entry(),
            isa,
            &WcetOptions::new(),
        )
        .map_err(|e| format!("WCET analysis failed: {e}"))
    };
    let session = prepare()?;
    layers.set(
        "wcet.analyze_s",
        median_secs(3, || {
            black_box(prepare().ok());
        }),
        "s",
    );
    layers.set(
        "core.qta_run_s",
        median_secs(3, || {
            black_box(session.run().ok());
        }),
        "s",
    );
    let plain = Vp::builder().isa(isa);
    layers.set(
        "coverage.run_s",
        median_secs(3, || {
            black_box(coverage_run(&plain, image, isa));
        }),
        "s",
    );
    Ok(())
}
