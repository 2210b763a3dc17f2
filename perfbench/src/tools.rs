//! The `qta-coverage` workload: QTA co-simulation of seeded kernels and
//! coverage runs over seeded torture programs, checked against the
//! decode-per-step oracle interpreter (`block_cache(false)`).

use crate::gen::{coverage_isa, coverage_programs, qta_kernels};
use crate::probes::{boot, coverage_run, RUN_LIMIT};
use crate::report::{E2e, Ledger};
use crate::stats::{Summary, BEST_OF};
use s4e_asm::{assemble_with, AsmOptions, Image};
use s4e_core::{QtaPlugin, QtaRun, QtaSession};
use s4e_coverage::CoverageReport;
use s4e_isa::IsaConfig;
use s4e_vp::Vp;
use s4e_wcet::WcetOptions;
use std::time::Instant;

/// The ISA the QTA kernels are assembled and analyzed for.
pub fn qta_isa() -> IsaConfig {
    IsaConfig::full()
}

/// The prepared inputs of one run.
#[derive(Debug, Clone)]
pub struct ToolInputs {
    /// One assembled kernel and its analyzed QTA session per kernel.
    pub sessions: Vec<(Image, QtaSession)>,
    /// The assembled coverage programs.
    pub coverage: Vec<Image>,
}

/// Time spent in each set-up step, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Generating the assembly sources.
    pub generate_s: f64,
    /// Assembling them.
    pub assemble_s: f64,
    /// WCET analysis and graph annotation (`QtaSession::prepare`).
    pub analyze_s: f64,
}

impl SetupTimes {
    /// The whole set-up.
    pub fn total(&self) -> f64 {
        self.generate_s + self.assemble_s + self.analyze_s
    }
}

fn assemble(source: &str, isa: IsaConfig) -> Result<Image, String> {
    assemble_with(source, &AsmOptions::new().isa(isa))
        .map_err(|e| format!("tool program does not assemble: {e}"))
}

/// Generates, assembles and analyzes the inputs for `seed`.
///
/// # Errors
///
/// Fails when a generated program does not assemble or analyze.
pub fn setup(seed: u64) -> Result<(ToolInputs, SetupTimes), String> {
    let t0 = Instant::now();
    let kernels = qta_kernels(seed);
    let programs = coverage_programs(seed);
    let t1 = Instant::now();
    let kernel_images = kernels
        .iter()
        .map(|(_, src)| assemble(src, qta_isa()))
        .collect::<Result<Vec<_>, _>>()?;
    let coverage = programs
        .iter()
        .map(|src| assemble(src, coverage_isa()))
        .collect::<Result<Vec<_>, _>>()?;
    let t2 = Instant::now();
    let sessions = kernel_images
        .iter()
        .map(|img| {
            QtaSession::prepare(
                img.base(),
                img.bytes(),
                img.entry(),
                qta_isa(),
                &WcetOptions::new(),
            )
            .map(|session| (img.clone(), session))
            .map_err(|e| format!("WCET analysis failed: {e}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t3 = Instant::now();
    let times = SetupTimes {
        generate_s: (t1 - t0).as_secs_f64(),
        assemble_s: (t2 - t1).as_secs_f64(),
        analyze_s: (t3 - t2).as_secs_f64(),
    };
    Ok((ToolInputs { sessions, coverage }, times))
}

/// What one batch (or the oracle) computed: the values checked.
#[derive(Debug, Clone, PartialEq)]
pub struct ToolResults {
    /// One QTA run per session.
    pub qta: Vec<QtaRun>,
    /// One coverage report per coverage program.
    pub coverage: Vec<CoverageReport>,
}

/// One timed batch.
#[derive(Debug, Clone)]
pub struct Batch {
    /// The batch's results.
    pub results: ToolResults,
    /// Host seconds in QTA co-simulation.
    pub qta_s: f64,
    /// Host seconds in coverage runs (VP construction included).
    pub coverage_s: f64,
    /// Guest instructions retired by the QTA runs.
    pub qta_insns: u64,
    /// Guest instructions retired by the coverage runs.
    pub coverage_insns: u64,
}

impl Batch {
    /// Guest instructions per host second over the whole batch.
    pub fn guest_ips(&self) -> f64 {
        (self.qta_insns + self.coverage_insns) as f64 / (self.qta_s + self.coverage_s)
    }
}

/// Host seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Runs every QTA session and coverage program once on the production
/// engine. With `per_call`, each run is timed on its own and the phase
/// times are the sums; otherwise each phase is timed as a whole.
///
/// # Errors
///
/// Fails when a QTA VP cannot be built.
pub fn run_batch(inputs: &ToolInputs, per_call: bool) -> Result<Batch, String> {
    let builder = Vp::builder().isa(coverage_isa());
    let mut call_s = [0.0f64; 2];
    let (qta, qta_s) = timed(|| {
        inputs
            .sessions
            .iter()
            .map(|(_, s)| {
                if per_call {
                    let (run, secs) = timed(|| s.run());
                    call_s[0] += secs;
                    run
                } else {
                    s.run()
                }
                .map_err(|e| format!("QTA run failed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()
    });
    let qta = qta?;
    let ((coverage, coverage_insns), coverage_s) = timed(|| {
        let mut insns = 0;
        let reports = inputs
            .coverage
            .iter()
            .map(|img| {
                let ((report, n), secs) = timed(|| coverage_run(&builder, img, coverage_isa()));
                call_s[1] += secs;
                insns += n;
                report
            })
            .collect();
        (reports, insns)
    });
    let (qta_s, coverage_s) = if per_call {
        (call_s[0], call_s[1])
    } else {
        (qta_s, coverage_s)
    };
    Ok(Batch {
        qta_insns: qta.iter().map(|r| r.instret).sum(),
        results: ToolResults { qta, coverage },
        qta_s,
        coverage_s,
        coverage_insns,
    })
}

/// The oracle: the same runs on the decode-per-step interpreter.
pub fn oracle(inputs: &ToolInputs) -> ToolResults {
    let qta_vp = Vp::builder()
        .isa(qta_isa())
        .timing(WcetOptions::new().timing)
        .block_cache(false);
    let qta = inputs
        .sessions
        .iter()
        .map(|(img, session)| {
            let mut vp = boot(&qta_vp, img);
            vp.add_plugin(Box::new(QtaPlugin::new(session.timed_cfg().clone())));
            let outcome = vp.run_for(RUN_LIMIT);
            session.collect(&mut vp, outcome)
        })
        .collect();
    let coverage_vp = Vp::builder().isa(coverage_isa()).block_cache(false);
    let coverage = inputs
        .coverage
        .iter()
        .map(|img| coverage_run(&coverage_vp, img, coverage_isa()).0)
        .collect();
    ToolResults { qta, coverage }
}

/// Counts the failed tool runs of one batch: a QTA run fails when its
/// outcome, dynamic cycles, QTA cycles, static WCET, retired instructions
/// or block visits differ from the oracle's, or when the invariant chain
/// `dynamic ≤ qta ≤ static` breaks; a coverage run fails when any count
/// differs from the oracle's.
pub fn count_tool_failures(got: &ToolResults, oracle: &ToolResults) -> u64 {
    let qta_failed = got
        .qta
        .iter()
        .zip(&oracle.qta)
        .filter(|(g, o)| {
            g.outcome != o.outcome
                || g.dynamic_cycles != o.dynamic_cycles
                || g.qta_cycles != o.qta_cycles
                || g.static_wcet != o.static_wcet
                || g.instret != o.instret
                || g.visits != o.visits
                || !g.invariant_holds()
        })
        .count();
    let coverage_failed = got
        .coverage
        .iter()
        .zip(&oracle.coverage)
        .filter(|(g, o)| g != o)
        .count();
    let missing = oracle.qta.len().abs_diff(got.qta.len())
        + oracle.coverage.len().abs_diff(got.coverage.len());
    (qta_failed + coverage_failed + missing) as u64
}

/// Tool runs per batch.
pub fn runs_per_batch(inputs: &ToolInputs) -> u64 {
    (inputs.sessions.len() + inputs.coverage.len()) as u64
}

/// Runs the workload end to end for about `seconds`: every iteration
/// sets the inputs up afresh and runs one batch over them.
///
/// # Errors
///
/// Fails when the inputs cannot be set up.
pub fn run_e2e(seed: u64, seconds: f64) -> Result<E2e, String> {
    let mut e2e = E2e::default();
    let (inputs, _) = setup(seed)?;
    let oracle = oracle(&inputs);
    // One untimed, checked batch warms caches and the allocator.
    let warm = run_batch(&inputs, false)?;
    e2e.attempted += runs_per_batch(&inputs);
    e2e.failed += count_tool_failures(&warm.results, &oracle);
    let start = Instant::now();
    while e2e.throughput.len() < 2 * BEST_OF
        || e2e.throughput.len() % BEST_OF != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        let (inputs, times) = setup(seed)?;
        e2e.setup_s.push(times.total());
        let batch = run_batch(&inputs, false)?;
        e2e.throughput.push(batch.guest_ips());
        e2e.calibration_s.push(crate::host::calibrate());
        e2e.attempted += runs_per_batch(&inputs);
        e2e.failed += count_tool_failures(&batch.results, &oracle);
    }
    // The tools run in this process, so its own peak is theirs.
    e2e.rss_mib
        .push(crate::proc::self_maxrss_kib() as f64 / 1024.0);
    Ok(e2e)
}

/// Traced layers of the tools workload: set-up steps, then batches
/// alternating between one timed as a whole and one timed per call.
/// Returns the ledger with `(attempted, failed)`.
///
/// # Errors
///
/// Fails when the inputs cannot be set up.
pub fn run_traced(seed: u64, pairs: usize) -> Result<(Ledger, u64, u64), String> {
    let (inputs, times) = setup(seed)?;
    let oracle = oracle(&inputs);
    let mut attempted = 0;
    let mut failed = 0;
    let mut whole = Vec::new();
    let mut split = Vec::new();
    let mut qta_s = Vec::new();
    let mut coverage_s = Vec::new();
    let mut plugin_mips = Vec::new();
    for _ in 0..pairs {
        let t = Instant::now();
        let plain = run_batch(&inputs, false)?;
        whole.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let traced = run_batch(&inputs, true)?;
        split.push(t.elapsed().as_secs_f64());
        qta_s.push(traced.qta_s);
        coverage_s.push(traced.coverage_s);
        plugin_mips.push(traced.coverage_insns as f64 / traced.coverage_s / 1e6);
        for batch in [&plain, &traced] {
            attempted += runs_per_batch(&inputs);
            failed += count_tool_failures(&batch.results, &oracle);
        }
    }
    let med = |v: &[f64]| Summary::of(v).median;
    let mut layers = Ledger::new();
    layers.set("asm.assemble_s", times.assemble_s, "s");
    layers.set("wcet.analyze_s", times.analyze_s, "s");
    layers.set("core.qta_run_s", med(&qta_s), "s");
    layers.set("coverage.run_s", med(&coverage_s), "s");
    layers.set("vp.plugin_mips", med(&plugin_mips), "MIPS");
    let wall = times.total() + med(&split);
    layers.set("wall_s", wall, "s");
    layers.set(
        "obs.trace_overhead",
        med(&split) / med(&whole) - 1.0,
        "ratio",
    );
    let covered = times.total() + med(&qta_s) + med(&coverage_s);
    layers.set("residual_s", wall - covered, "s");
    Ok((layers, attempted, failed))
}
