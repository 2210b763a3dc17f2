//! The campaign workloads.
//!
//! End to end, a workload is a series of `s4e campaign` launches timed
//! from spawn to reaped exit; every launch's checkpoint is checked
//! against a reference configuration. The traced run mirrors the CLI's
//! call sequence through the library (same `CampaignConfig`, same
//! generator configuration) with a `Tracer` and a `CampaignProgress`
//! attached, and drives the sharded path through the CLI's
//! `--trace-out`/`--metrics-out`.

use crate::gen::cli_generator;
use crate::proc::{launch_relayed, Launch};
use crate::report::{E2e, Ledger};
use crate::stats::{percentile, Summary, BEST_OF};
use s4e_asm::{assemble_with, AsmOptions, Image};
use s4e_faultsim::{
    generate_mutants, read_checkpoint, Campaign, CampaignConfig, CampaignProgress, CampaignSink,
    FaultOutcome, FaultResult, FaultSpec, JsonlSink,
};
use s4e_isa::IsaConfig;
use s4e_obs::{from_chrome_json, Snapshot, TraceEvent, Tracer};
use s4e_vp::CancelToken;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Guest instructions the reference check may spend per run: the
/// deterministic subsample is sized so that its worst case (every sampled
/// mutant running to the timeout budget) stays within this.
const REFERENCE_INSN_BUDGET: u64 = 200_000_000;

/// `--mutants 0` launches before every sweep launch (one takes a few
/// milliseconds, too short to time alone; the run reports the median of
/// each iteration's best, one group of [`BEST_OF`]).
const SETUP_LAUNCHES: usize = BEST_OF;

/// Host seconds of untimed warm-up launches before timing starts.
const WARMUP_SECONDS: f64 = 3.0;

/// Timed launches per run, at least (the loop runs on until the run's
/// time is used up and the last group of [`BEST_OF`] is complete).
const MIN_LAUNCHES: usize = 2 * BEST_OF;

/// One campaign workload: the program and the `s4e campaign` flags.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// The generated assembly source.
    pub source: String,
    /// The `--mutants` scale.
    pub mutants: usize,
    /// `--threads`.
    pub threads: usize,
    /// `--shards` (0: in-process).
    pub shards: usize,
}

impl CampaignSpec {
    /// The `s4e` argument vector of this workload at `mutants` scale.
    pub fn cli_args(&self, program: &Path, checkpoint: &Path, mutants: usize) -> Vec<OsString> {
        let mut args: Vec<OsString> = vec![
            "campaign".into(),
            program.into(),
            "--mutants".into(),
            mutants.to_string().into(),
            "--threads".into(),
            self.threads.to_string().into(),
            "--checkpoint".into(),
            checkpoint.into(),
        ];
        if self.shards > 0 {
            args.extend(["--shards".into(), self.shards.to_string().into()]);
        }
        args
    }
}

/// The ISA `s4e campaign` assembles and simulates for by default.
fn cli_isa() -> IsaConfig {
    IsaConfig::full()
}

/// Assembles `source` the way the CLI does.
///
/// # Errors
///
/// Returns the assembler diagnostic.
pub fn assemble(source: &str) -> Result<Image, String> {
    assemble_with(source, &AsmOptions::new().isa(cli_isa()))
        .map_err(|e| format!("workload program does not assemble: {e}"))
}

/// The `CampaignConfig` `s4e campaign --threads <threads>` builds.
pub fn cli_config(threads: usize) -> CampaignConfig {
    CampaignConfig::new().isa(cli_isa()).threads(threads)
}

/// The reference configuration: golden-prefix fast-forward, equivalence
/// pruning and the JIT all off, so every mutant re-runs from reset on
/// the interpreter.
pub fn reference_config(threads: usize) -> CampaignConfig {
    cli_config(threads)
        .fast_forward(false)
        .prune(false)
        .jit(false)
}

fn prepare(image: &Image, config: &CampaignConfig) -> Result<Campaign, String> {
    Campaign::prepare(image.base(), image.bytes(), image.entry(), config)
        .map_err(|e| format!("campaign preparation failed: {e}"))
}

/// The mutant list `s4e campaign --mutants <mutants>` sweeps over `image`.
///
/// # Errors
///
/// Fails when the golden run does not terminate normally.
pub fn cli_mutants(image: &Image, mutants: usize) -> Result<Vec<FaultSpec>, String> {
    let campaign = prepare(image, &cli_config(1))?;
    Ok(generate_mutants(
        campaign.golden().trace(),
        &cli_generator(mutants),
    ))
}

/// `specs` without repeats, in first-seen order.
pub fn unique_specs(specs: &[FaultSpec]) -> Vec<FaultSpec> {
    let mut seen = HashSet::with_capacity(specs.len());
    specs.iter().copied().filter(|s| seen.insert(*s)).collect()
}

/// Classifies a deterministic subsample of `unique` under the reference
/// configuration: every `stride`-th spec, with the stride chosen so the
/// sample's worst-case instruction count fits the reference budget.
///
/// # Errors
///
/// Fails when the reference campaign cannot be prepared.
pub fn reference_outcomes(
    image: &Image,
    unique: &[FaultSpec],
) -> Result<Vec<(FaultSpec, FaultOutcome)>, String> {
    let campaign = prepare(image, &reference_config(2))?;
    let limit = (REFERENCE_INSN_BUDGET / campaign.budget().max(1)).max(1) as usize;
    let stride = unique.len().div_ceil(limit).max(1);
    let sample: Vec<FaultSpec> = unique.iter().copied().step_by(stride).collect();
    let report = campaign.run_all(&sample);
    Ok(report
        .results()
        .iter()
        .map(|r| (r.spec, r.outcome))
        .collect())
}

/// A checkpoint read back as one outcome per spec.
#[derive(Debug, Clone, Default)]
pub struct CheckpointOutcomes {
    /// The recorded outcome of each spec.
    pub outcomes: HashMap<FaultSpec, FaultOutcome>,
    /// Specs recorded more than once with different outcomes.
    pub conflicts: HashSet<FaultSpec>,
    /// Lines that did not decode.
    pub skipped_lines: usize,
}

impl CheckpointOutcomes {
    /// Folds checkpoint entries into per-spec outcomes.
    pub fn from_results<'a>(results: impl IntoIterator<Item = &'a FaultResult>) -> Self {
        let mut out = CheckpointOutcomes::default();
        for r in results {
            if let Some(prev) = out.outcomes.insert(r.spec, r.outcome) {
                if prev != r.outcome {
                    out.conflicts.insert(r.spec);
                }
            }
        }
        out
    }

    /// Reads a JSONL checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates read errors.
    pub fn load(path: &Path) -> io::Result<Self> {
        let load = read_checkpoint(path)?;
        let mut out = Self::from_results(load.entries.iter().map(|(r, _)| r));
        out.skipped_lines = load.skipped_lines;
        Ok(out)
    }
}

/// Whether an outcome is a harness failure rather than a classification.
pub fn is_failure_class(outcome: &FaultOutcome) -> bool {
    matches!(
        outcome,
        FaultOutcome::HarnessError | FaultOutcome::Quarantined | FaultOutcome::Cancelled
    )
}

/// Counts the failed specs of one checked sweep: a spec fails when it is
/// missing from the checkpoint, recorded with conflicting outcomes, ended
/// in a harness failure class, differs from the reference subsample, or
/// differs from `baseline` (an earlier launch of the same inputs). Specs
/// the sweep did not ask for, and undecodable lines, fail too.
pub fn count_failures(
    got: &CheckpointOutcomes,
    unique: &[FaultSpec],
    reference: &[(FaultSpec, FaultOutcome)],
    baseline: Option<&HashMap<FaultSpec, FaultOutcome>>,
) -> u64 {
    let mut failed: HashSet<FaultSpec> = got.conflicts.clone();
    for spec in unique {
        let Some(outcome) = got.outcomes.get(spec) else {
            failed.insert(*spec);
            continue;
        };
        let drifted = baseline.is_some_and(|b| b.get(spec) != Some(outcome));
        if is_failure_class(outcome) || drifted {
            failed.insert(*spec);
        }
    }
    for (spec, expected) in reference {
        if got.outcomes.get(spec) != Some(expected) {
            failed.insert(*spec);
        }
    }
    let extra = got.outcomes.len().saturating_sub(unique.len()) as u64;
    failed.len() as u64 + extra + got.skipped_lines as u64
}

/// Outcome counts per class over `specs` (duplicates counted each time).
pub fn class_counts(
    specs: &[FaultSpec],
    outcomes: &HashMap<FaultSpec, FaultOutcome>,
) -> BTreeMap<&'static str, u64> {
    let mut counts = BTreeMap::new();
    for spec in specs {
        let class = outcomes
            .get(spec)
            .map_or("missing", FaultOutcome::class_name);
        *counts.entry(class).or_insert(0) += 1;
    }
    counts
}

/// Scratch files of one workload run.
struct Files {
    program: PathBuf,
    checkpoint: PathBuf,
}

impl Files {
    fn new(work: &Path, source: &str) -> Result<Files, String> {
        let program = work.join("program.s");
        std::fs::write(&program, source).map_err(|e| format!("writing program: {e}"))?;
        Ok(Files {
            program,
            checkpoint: work.join("checkpoint.jsonl"),
        })
    }

    /// Removes the previous launch's checkpoint and shard directory.
    fn clear_checkpoint(&self) {
        let _ = std::fs::remove_file(&self.checkpoint);
        let _ = std::fs::remove_dir_all(shard_dir(&self.checkpoint));
    }
}

fn shard_dir(checkpoint: &Path) -> PathBuf {
    let mut dir = checkpoint.as_os_str().to_owned();
    dir.push(".shards");
    PathBuf::from(dir)
}

fn run_s4e(s4e: &Path, args: &[OsString]) -> Result<Launch, String> {
    launch_relayed(s4e, args).map_err(|e| format!("cannot run s4e: {e}"))
}

/// The inputs and reference of one campaign run, prepared before any
/// timing starts.
struct Checked {
    mutants: Vec<FaultSpec>,
    unique: Vec<FaultSpec>,
    reference: Vec<(FaultSpec, FaultOutcome)>,
    baseline: Option<HashMap<FaultSpec, FaultOutcome>>,
}

impl Checked {
    fn new(source: &str, mutants: usize) -> Result<Checked, String> {
        let image = assemble(source)?;
        let mutants = cli_mutants(&image, mutants)?;
        let unique = unique_specs(&mutants);
        let reference = reference_outcomes(&image, &unique)?;
        Ok(Checked {
            mutants,
            unique,
            reference,
            baseline: None,
        })
    }

    /// Checks one finished launch; returns `(attempted, failed)`. The
    /// first successful launch becomes the baseline later ones must match.
    fn check(&mut self, run: &Launch, checkpoint: &Path) -> (u64, u64) {
        let attempted = self.unique.len() as u64;
        if run.code != 0 {
            eprintln!("s4e exited with {}: {}", run.code, run.stdout.trim());
            return (attempted, attempted);
        }
        let got = match CheckpointOutcomes::load(checkpoint) {
            Ok(got) => got,
            Err(e) => {
                eprintln!("unreadable checkpoint: {e}");
                return (attempted, attempted);
            }
        };
        let failed = count_failures(&got, &self.unique, &self.reference, self.baseline.as_ref());
        if self.baseline.is_none() {
            self.baseline = Some(got.outcomes);
        }
        (attempted, failed)
    }
}

/// Runs one campaign workload end to end for about `seconds`; returns
/// the samples and the number of generated mutants per launch.
///
/// # Errors
///
/// Fails when the workload cannot be set up (file I/O, a golden run that
/// does not terminate, an `s4e` that cannot be spawned).
pub fn run_e2e(
    s4e: &Path,
    spec: &CampaignSpec,
    work: &Path,
    seconds: f64,
) -> Result<(E2e, usize), String> {
    let files = Files::new(work, &spec.source)?;
    let mut checked = Checked::new(&spec.source, spec.mutants)?;
    let mutants = checked.mutants.len();
    let mut e2e = E2e::default();

    let setup_args = spec.cli_args(&files.program, &files.checkpoint, 0);
    let args = spec.cli_args(&files.program, &files.checkpoint, spec.mutants);
    // Set-up launches interleave with the sweeps so both see the same
    // host conditions.
    let setup = |samples: &mut Vec<f64>| -> Result<(), String> {
        for _ in 0..SETUP_LAUNCHES {
            files.clear_checkpoint();
            let run = run_s4e(s4e, &setup_args)?;
            if run.code != 0 {
                return Err(format!("`s4e campaign --mutants 0` exited {}", run.code));
            }
            samples.push(run.wall_s);
        }
        Ok(())
    };
    // Untimed launches warm the page cache, the allocator and the host's
    // caches (the first timed launches of a cold run were up to 40%
    // slower); they are checked like the others, and the first becomes
    // the cross-launch baseline.
    let warm_start = Instant::now();
    while warm_start.elapsed().as_secs_f64() < WARMUP_SECONDS {
        setup(&mut Vec::new())?;
        files.clear_checkpoint();
        let warm = run_s4e(s4e, &args)?;
        let (a, f) = checked.check(&warm, &files.checkpoint);
        e2e.attempted += a;
        e2e.failed += f;
    }

    let start = Instant::now();
    while e2e.throughput.len() < MIN_LAUNCHES
        || e2e.throughput.len() % BEST_OF != 0
        || start.elapsed().as_secs_f64() < seconds
    {
        setup(&mut e2e.setup_s)?;
        files.clear_checkpoint();
        let run = run_s4e(s4e, &args)?;
        e2e.throughput.push(mutants as f64 / run.wall_s);
        e2e.rss_mib.push(run.maxrss_kib as f64 / 1024.0);
        e2e.calibration_s.push(crate::host::calibrate());
        let (a, f) = checked.check(&run, &files.checkpoint);
        e2e.attempted += a;
        e2e.failed += f;
    }
    files.clear_checkpoint();
    Ok((e2e, mutants))
}

/// A `CampaignSink` that times every record of the wrapped sink.
struct TimedSink<S> {
    inner: S,
    record_us: Vec<f64>,
}

impl<S: CampaignSink> CampaignSink for TimedSink<S> {
    fn record(&mut self, result: &FaultResult, panic: Option<&str>) -> io::Result<()> {
        let start = Instant::now();
        let r = self.inner.record(result, panic);
        self.record_us.push(start.elapsed().as_secs_f64() * 1e6);
        r
    }
}

/// One library run of the CLI's call sequence.
struct LibRun {
    wall_s: f64,
    outcomes: HashMap<FaultSpec, FaultOutcome>,
    mutants: Vec<FaultSpec>,
    layers: Ledger,
}

/// Ring capacity that holds every event of a sweep over `mutants` specs
/// on one thread: a span per mutant, at most one golden advance per
/// mutant, and headroom for instants.
fn ring_capacity(mutants: usize) -> usize {
    2 * mutants + 1024
}

/// Wall-clock microseconds since the Unix epoch (the trace clock's base).
fn epoch_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

fn span_s(e: &TraceEvent) -> f64 {
    e.dur_us as f64 / 1e6
}

fn arg<'a>(e: &'a TraceEvent, key: &str) -> Option<&'a str> {
    e.args
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
}

/// Runs assemble → prepare → generate → checkpointed sweep through the
/// library exactly as `s4e campaign --checkpoint` does. With `traced`,
/// a `Tracer` (sized so nothing drops) and a `CampaignProgress` are
/// attached and the per-layer ledger is filled from their spans and
/// counters; untraced, only the phase wall clocks are kept.
fn library_run(
    source: &str,
    mutants: usize,
    threads: usize,
    checkpoint: &Path,
    traced: bool,
) -> Result<LibRun, String> {
    let t0 = Instant::now();
    let image = assemble(source)?;
    let t1 = Instant::now();
    let mut campaign = prepare(&image, &cli_config(threads))?;
    let t2 = Instant::now();
    let specs = generate_mutants(campaign.golden().trace(), &cli_generator(mutants));
    let t3 = Instant::now();
    let tracer = traced.then(|| Arc::new(Tracer::new(ring_capacity(specs.len()))));
    let progress = traced.then(|| Arc::new(CampaignProgress::new()));
    if let (Some(t), Some(p)) = (&tracer, &progress) {
        campaign.set_tracer(Arc::clone(t));
        campaign.set_progress(Arc::clone(p));
    }
    let mut sink = TimedSink {
        inner: JsonlSink::create(checkpoint).map_err(|e| format!("creating checkpoint: {e}"))?,
        record_us: Vec::with_capacity(specs.len()),
    };
    let call_us = tracer.as_ref().map(|t| t.now_us());
    let t4 = Instant::now();
    let report = campaign
        .run_all_checkpointed(&specs, &mut sink, &CancelToken::new())
        .map_err(|e| format!("campaign failed: {e}"))?;
    let t5 = Instant::now();
    let outcomes = report
        .results()
        .iter()
        .map(|r| (r.spec, r.outcome))
        .collect();

    let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
    let mut layers = Ledger::new();
    layers.set("asm.assemble_s", secs(t0, t1), "s");
    layers.set("faultsim.prepare_s", secs(t1, t2), "s");
    layers.set("faultsim.generate_s", secs(t2, t3), "s");
    if let (Some(tracer), Some(progress), Some(call_us)) = (tracer, progress, call_us) {
        fill_sweep_layers(
            &mut layers,
            &tracer,
            &progress.snapshot(),
            call_us,
            specs.len(),
        );
        layers.set(
            "faultsim.checkpoint.record_s",
            sink.record_us.iter().sum::<f64>() / 1e6,
            "s",
        );
        layers.set(
            "faultsim.checkpoint.records",
            sink.record_us.len() as f64,
            "count",
        );
        layers.set(
            "faultsim.checkpoint.record_us_p99",
            percentile(&sink.record_us, 99.0),
            "us",
        );
    }
    layers.set("faultsim.run_all_s", secs(t4, t5), "s");
    Ok(LibRun {
        wall_s: secs(t0, t5),
        outcomes,
        mutants: specs,
        layers,
    })
}

/// The prefix tags the runner puts on each `mutant` span.
const PREFIX_TAGS: [&str; 4] = ["pruned", "dedup", "snapshot", "rerun"];

fn counter(snap: &Snapshot, name: &str) -> f64 {
    snap.counter(name).unwrap_or(0) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fills the sweep's layers from the tracer's spans and the progress
/// counters of one traced in-process sweep.
fn fill_sweep_layers(
    layers: &mut Ledger,
    tracer: &Tracer,
    snap: &Snapshot,
    call_us: u64,
    generated: usize,
) {
    let events = tracer.drain();
    let mut mutant_s: BTreeMap<&str, (f64, f64)> =
        PREFIX_TAGS.iter().map(|t| (*t, (0.0, 0.0))).collect();
    let mut advance_s = 0.0;
    let mut sweep = None;
    for e in &events {
        match e.name.as_str() {
            "mutant" => {
                let tag = arg(e, "prefix").unwrap_or("rerun");
                let slot = mutant_s.entry(tag).or_insert((0.0, 0.0));
                slot.0 += span_s(e);
                slot.1 += 1.0;
            }
            "golden_advance" => advance_s += span_s(e),
            "sweep" => sweep = Some(e),
            _ => {}
        }
    }
    // The runner opens its `sweep` span after building the prune plan and
    // the prefix cache, so the gap from the call is that set-up.
    if let Some(sweep) = sweep {
        layers.set(
            "faultsim.prune_s",
            sweep.ts_us.saturating_sub(call_us) as f64 / 1e6,
            "s",
        );
        layers.set("faultsim.sweep_s", span_s(sweep), "s");
    }
    for (tag, (secs, n)) in &mutant_s {
        layers.set(format!("faultsim.mutant_s.{tag}"), *secs, "s");
        layers.set(format!("faultsim.mutants.{tag}"), *n, "count");
    }
    let decided = mutant_s["pruned"].1 + mutant_s["dedup"].1;
    layers.set(
        "faultsim.pruned_share",
        ratio(decided, generated as f64),
        "ratio",
    );
    layers.set("faultsim.prefix.advance_s", advance_s, "s");
    let restores = counter(snap, "campaign_snapshot_restores");
    layers.set(
        "faultsim.prefix.snapshots",
        counter(snap, "campaign_snapshots_taken"),
        "count",
    );
    layers.set("faultsim.prefix.restores", restores, "count");
    layers.set(
        "faultsim.prefix.pages_per_restore",
        ratio(counter(snap, "campaign_dirty_pages_restored"), restores),
        "count",
    );
    layers.set(
        "faultsim.prefix.lock_waits",
        counter(snap, "campaign_lock_waits"),
        "count",
    );
    layers.set(
        "faultsim.prefix.lock_wait_s",
        counter(snap, "campaign_lock_wait_us") / 1e6,
        "s",
    );
    layers.set(
        "faultsim.runner.queue_steals",
        counter(snap, "campaign_queue_steals"),
        "count",
    );
    let translations = counter(snap, "campaign_translations");
    let warm = counter(snap, "campaign_warm_translations");
    layers.set("vp.translations", translations, "count");
    layers.set(
        "vp.warm_adoption",
        ratio(warm, warm + translations),
        "ratio",
    );
    layers.set(
        "vp.jit_compiled",
        counter(snap, "campaign_jit_blocks_compiled"),
        "count",
    );
    layers.set(
        "vp.jit_executed",
        counter(snap, "campaign_jit_blocks_executed"),
        "count",
    );
    for reason in [
        "mem_slow_path",
        "budget_expiry",
        "smc_store",
        "mask_armed",
        "revalidation_miss",
    ] {
        layers.set(
            format!("vp.jit_bail.{reason}"),
            counter(snap, &format!("campaign_jit_bail_{reason}")),
            "count",
        );
    }
    let chain = counter(snap, "campaign_chain_hits");
    let lookups =
        counter(snap, "campaign_jmp_cache_hits") + counter(snap, "campaign_jmp_cache_misses");
    layers.set("vp.chain_hit_rate", ratio(chain, chain + lookups), "ratio");
    let fast = counter(snap, "campaign_mem_fast_hits");
    let slow = counter(snap, "campaign_mem_slow_hits");
    layers.set("vp.mem_fast_hit_rate", ratio(fast, fast + slow), "ratio");
    layers.set("obs.trace_dropped", tracer.dropped() as f64, "count");
}

/// The outcome classes reported as `faultsim.outcome.<class>`.
pub const OUTCOME_CLASSES: [&str; 9] = [
    "masked",
    "silent corruption",
    "detected",
    "self-reported",
    "timeout",
    "hang",
    "cancelled",
    "harness error",
    "quarantined",
];

/// The metric-name form of an outcome class name.
pub fn class_metric(class: &str) -> String {
    format!("faultsim.outcome.{}", class.replace([' ', '-'], "_"))
}

/// Result of a traced campaign run: the layer ledger plus its checks.
#[derive(Debug, Clone, Default)]
pub struct Traced {
    /// Per-layer metrics.
    pub layers: Ledger,
    /// Specs checked.
    pub attempted: u64,
    /// Specs that failed a check.
    pub failed: u64,
    /// Whether the traced run's outcome counts equal the untraced CLI
    /// run's, and nothing was dropped.
    pub consistent: bool,
}

/// Per-metric medians over several ledgers with the same names.
fn median_ledger(runs: &[Ledger]) -> Ledger {
    let mut out = Ledger::new();
    if let Some(first) = runs.first() {
        for m in first.metrics() {
            let values: Vec<f64> = runs.iter().filter_map(|l| l.get(&m.name)).collect();
            out.set(m.name.clone(), Summary::of(&values).median, m.unit);
        }
    }
    out
}

/// Traced runs of one campaign workload: untraced CLI launches for the
/// wall clock the layers must explain, then alternating untraced and
/// traced library runs (in-process workloads) or traced CLI launches
/// (sharded workloads), plus a sharded probe so `supervise` is measured
/// on every workload.
///
/// # Errors
///
/// Fails when the workload cannot be set up or `s4e` cannot be spawned.
pub fn run_traced(
    s4e: &Path,
    spec: &CampaignSpec,
    work: &Path,
    pairs: usize,
) -> Result<Traced, String> {
    let files = Files::new(work, &spec.source)?;
    let mut checked = Checked::new(&spec.source, spec.mutants)?;
    let mut out = Traced {
        consistent: true,
        ..Traced::default()
    };

    // Untraced CLI launches: the end-to-end wall clock and the outcome
    // counts every traced run must reproduce.
    let args = spec.cli_args(&files.program, &files.checkpoint, spec.mutants);
    let mut cli_walls = Vec::new();
    for _ in 0..pairs {
        files.clear_checkpoint();
        let run = run_s4e(s4e, &args)?;
        let (a, f) = checked.check(&run, &files.checkpoint);
        out.attempted += a;
        out.failed += f;
        cli_walls.push(run.wall_s);
    }
    let cli_wall = Summary::of(&cli_walls).median;
    let cli_counts = class_counts(
        &checked.mutants,
        checked.baseline.as_ref().unwrap_or(&HashMap::new()),
    );

    // The in-process layers: untraced and traced library runs alternate
    // so drift hits both sides alike.
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut ledgers = Vec::new();
    for _ in 0..pairs {
        let plain = library_run(
            &spec.source,
            spec.mutants,
            spec.threads,
            &files.checkpoint,
            false,
        )?;
        untraced_walls.push(plain.wall_s);
        let traced = library_run(
            &spec.source,
            spec.mutants,
            spec.threads,
            &files.checkpoint,
            true,
        )?;
        traced_walls.push(traced.wall_s);
        if class_counts(&traced.mutants, &traced.outcomes) != cli_counts {
            eprintln!("traced library run's outcome counts differ from the CLI run's");
            out.consistent = false;
        }
        ledgers.push(traced.layers);
    }
    let mut layers = median_ledger(&ledgers);
    for class in OUTCOME_CLASSES {
        layers.set(
            class_metric(class),
            cli_counts.get(class).copied().unwrap_or(0) as f64,
            "count",
        );
    }

    // The sharded path through the CLI: the real workload when sharded,
    // a small probe otherwise.
    let probe_mutants = if spec.shards > 0 { spec.mutants } else { 2 };
    let sharded = CampaignSpec {
        shards: spec.shards.max(2),
        threads: 1,
        mutants: probe_mutants,
        source: spec.source.clone(),
    };
    let shard_layers = sharded_traced(s4e, &sharded, &files, work)?;
    layers.extend(&shard_layers.layers);
    let dropped = layers.get("obs.trace_dropped").unwrap_or(0.0) + shard_layers.dropped;
    layers.set("obs.trace_dropped", dropped, "count");

    let lib_untraced = Summary::of(&untraced_walls).median;
    let lib_traced = Summary::of(&traced_walls).median;
    let phases = [
        "asm.assemble_s",
        "faultsim.prepare_s",
        "faultsim.generate_s",
    ];
    let (wall, overhead, sweep) = if spec.shards > 0 {
        if shard_layers.counts != cli_counts {
            eprintln!("traced sharded run's outcome counts differ from the untraced run's");
            out.consistent = false;
        }
        let wall = shard_layers.wall_s;
        let sweep = vec!["supervise.sharded_sweep_s", "obs.trace_export_s"];
        (wall, wall / cli_wall - 1.0, sweep)
    } else {
        let overhead = lib_traced / lib_untraced - 1.0;
        (
            lib_traced,
            overhead,
            vec!["faultsim.prune_s", "faultsim.sweep_s"],
        )
    };
    let covered: f64 = phases
        .iter()
        .chain(&sweep)
        .filter_map(|n| layers.get(n))
        .sum();
    layers.set("wall_s", wall, "s");
    layers.set("residual_s", wall - covered, "s");
    layers.set("obs.trace_overhead", overhead, "ratio");
    layers.set("e2e.cli_wall_s", cli_wall, "s");
    if dropped > 0.0 {
        eprintln!("the tracer dropped events");
        out.consistent = false;
    }
    files.clear_checkpoint();
    out.layers = layers;
    Ok(out)
}

/// A traced sharded CLI launch, read back from `--trace-out` and
/// `--metrics-out`.
struct ShardTrace {
    wall_s: f64,
    counts: BTreeMap<&'static str, u64>,
    dropped: f64,
    layers: Ledger,
}

fn sharded_traced(
    s4e: &Path,
    spec: &CampaignSpec,
    files: &Files,
    work: &Path,
) -> Result<ShardTrace, String> {
    let image = assemble(&spec.source)?;
    let mutants = cli_mutants(&image, spec.mutants)?;
    let trace_path = work.join("sharded.trace.json");
    let metrics_path = work.join("sharded.metrics.json");
    let mut args = spec.cli_args(&files.program, &files.checkpoint, spec.mutants);
    args.extend([
        "--trace-out".into(),
        trace_path.clone().into(),
        "--metrics-out".into(),
        metrics_path.clone().into(),
    ]);
    files.clear_checkpoint();
    let run = run_s4e(s4e, &args)?;
    let exit_us = epoch_us();
    if run.code != 0 {
        return Err(format!("traced sharded campaign exited {}", run.code));
    }
    let got = CheckpointOutcomes::load(&files.checkpoint)
        .map_err(|e| format!("reading sharded checkpoint: {e}"))?;
    let counts = class_counts(&mutants, &got.outcomes);
    let text = std::fs::read_to_string(&trace_path).map_err(|e| format!("reading trace: {e}"))?;
    let events = from_chrome_json(&text).map_err(|e| format!("parsing trace: {e}"))?;
    let metrics = std::fs::read_to_string(&metrics_path)
        .map_err(|e| format!("reading metrics: {e}"))
        .and_then(|t| Snapshot::from_json(&t).map_err(|e| format!("parsing metrics: {e}")))?;

    let mut sweep_s = 0.0;
    let mut sweep_end_us = exit_us;
    let mut per_shard: BTreeMap<&str, f64> = BTreeMap::new();
    let mut mutant_spans = 0usize;
    for e in &events {
        match (e.cat.as_str(), e.name.as_str()) {
            ("supervisor", "sharded_sweep") => {
                sweep_s = span_s(e);
                sweep_end_us = e.ts_us + e.dur_us;
            }
            ("supervisor", "shard_attempt") => {
                *per_shard
                    .entry(arg(e, "shard").unwrap_or("?"))
                    .or_insert(0.0) += span_s(e);
            }
            (_, "mutant") => mutant_spans += 1,
            _ => {}
        }
    }
    let attempt_max = per_shard.values().copied().fold(0.0, f64::max);
    let mut layers = Ledger::new();
    layers.set("supervise.sharded_sweep_s", sweep_s, "s");
    layers.set("supervise.shard_attempt_max_s", attempt_max, "s");
    layers.set(
        "supervise.shard_attempt_sum_s",
        per_shard.values().sum::<f64>(),
        "s",
    );
    layers.set("supervise.merge_residual_s", sweep_s - attempt_max, "s");
    // After the sweep the CLI merges the shard trace chunks and writes
    // the trace: that export is tracing cost, not campaign work.
    layers.set(
        "obs.trace_export_s",
        exit_us.saturating_sub(sweep_end_us) as f64 / 1e6,
        "s",
    );
    layers.set(
        "supervise.restarts",
        counter(&metrics, "campaign_shard_restarts"),
        "count",
    );
    layers.set(
        "supervise.crashes",
        counter(&metrics, "campaign_shard_crashes"),
        "count",
    );
    // Each worker records one `mutant` span per mutant of its range into
    // a fixed-size ring; any shortfall is events the rings dropped.
    Ok(ShardTrace {
        wall_s: run.wall_s,
        counts,
        dropped: mutants.len().saturating_sub(mutant_spans) as f64,
        layers,
    })
}
