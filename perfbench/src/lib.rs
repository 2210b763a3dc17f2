//! # s4e-perfbench — the repository's end-to-end benchmark
//!
//! One command runs a seeded workload through the surfaces users touch —
//! the `s4e campaign` binary for fault campaigns, `QtaSession` and
//! `CoveragePlugin` for the analysis tools — checks every output against
//! a slow reference, and prints the end-to-end metrics (`--trace 0`) or
//! the per-layer ledger (`--trace 1`). See `README.md` for the workloads,
//! the metric glossary and the layer → end-to-end map.

pub mod campaign;
pub mod gen;
pub mod host;
pub mod probes;
pub mod proc;
pub mod report;
pub mod stats;
pub mod tools;

use campaign::CampaignSpec;
use report::{json_line, summary_line, Metric, Provenance};
use stats::{best_of_groups, Summary, BEST_OF};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "sweep-pruned",
    "sweep-executed",
    "sweep-shards",
    "qta-coverage",
];

/// End-to-end metrics and units, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 3] = [
    ("throughput", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics and units, in `BENCHMARK.json` order. Every
/// workload's traced run reports each of them.
pub const PER_LAYER: [(&str, &str); 62] = [
    ("wall_s", "s"),
    ("residual_s", "s"),
    ("asm.assemble_s", "s"),
    ("faultsim.prepare_s", "s"),
    ("faultsim.generate_s", "s"),
    ("faultsim.prune_s", "s"),
    ("faultsim.sweep_s", "s"),
    ("faultsim.mutant_s.pruned", "s"),
    ("faultsim.mutant_s.dedup", "s"),
    ("faultsim.mutant_s.snapshot", "s"),
    ("faultsim.mutant_s.rerun", "s"),
    ("faultsim.mutants.pruned", "count"),
    ("faultsim.mutants.dedup", "count"),
    ("faultsim.mutants.snapshot", "count"),
    ("faultsim.mutants.rerun", "count"),
    ("faultsim.pruned_share", "ratio"),
    ("faultsim.prefix.advance_s", "s"),
    ("faultsim.prefix.snapshots", "count"),
    ("faultsim.prefix.restores", "count"),
    ("faultsim.prefix.pages_per_restore", "count"),
    ("faultsim.prefix.lock_waits", "count"),
    ("faultsim.prefix.lock_wait_s", "s"),
    ("faultsim.runner.queue_steals", "count"),
    ("faultsim.checkpoint.record_s", "s"),
    ("faultsim.checkpoint.records", "count"),
    ("faultsim.checkpoint.record_us_p99", "us"),
    ("faultsim.outcome.masked", "count"),
    ("faultsim.outcome.silent_corruption", "count"),
    ("faultsim.outcome.detected", "count"),
    ("faultsim.outcome.self_reported", "count"),
    ("faultsim.outcome.timeout", "count"),
    ("faultsim.outcome.hang", "count"),
    ("faultsim.outcome.cancelled", "count"),
    ("faultsim.outcome.harness_error", "count"),
    ("faultsim.outcome.quarantined", "count"),
    ("vp.golden_mips", "MIPS"),
    ("vp.restore_us", "us"),
    ("vp.boot_us", "us"),
    ("vp.plugin_mips", "MIPS"),
    ("vp.translations", "count"),
    ("vp.warm_adoption", "ratio"),
    ("vp.jit_compiled", "count"),
    ("vp.jit_executed", "count"),
    ("vp.jit_bail.mem_slow_path", "count"),
    ("vp.jit_bail.budget_expiry", "count"),
    ("vp.jit_bail.smc_store", "count"),
    ("vp.jit_bail.mask_armed", "count"),
    ("vp.jit_bail.revalidation_miss", "count"),
    ("vp.chain_hit_rate", "ratio"),
    ("vp.mem_fast_hit_rate", "ratio"),
    ("supervise.sharded_sweep_s", "s"),
    ("supervise.shard_attempt_max_s", "s"),
    ("supervise.shard_attempt_sum_s", "s"),
    ("supervise.merge_residual_s", "s"),
    ("supervise.restarts", "count"),
    ("supervise.crashes", "count"),
    ("wcet.analyze_s", "s"),
    ("core.qta_run_s", "s"),
    ("coverage.run_s", "s"),
    ("obs.trace_overhead", "ratio"),
    ("obs.trace_dropped", "count"),
    ("faultsim.run_all_s", "s"),
];

/// Library runs per side in a traced campaign run (untraced and traced
/// alternate).
const TRACE_PAIRS: usize = 3;

/// Tool batches per side in the traced `qta-coverage` run (a batch takes
/// tens of milliseconds).
const TOOL_TRACE_PAIRS: usize = 25;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time of one run.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    ///
    /// # Errors
    ///
    /// Returns a usage message for unknown, missing or malformed flags.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .as_str();
            match flag.as_str() {
                "--workload" => workload = Some(value.to_string()),
                "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| "bad --seconds")?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err("--seconds must be in (0, 600]".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload `{workload}` (one of {})",
                WORKLOADS.join(", ")
            ));
        }
        Ok(Args {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// The campaign flags and program of a campaign workload.
pub fn campaign_spec(workload: &str, seed: u64) -> Option<CampaignSpec> {
    let (source, mutants, threads, shards) = match workload {
        "sweep-pruned" => (gen::matmul(16, seed), 2000, 2, 0),
        "sweep-executed" => (gen::crc32(4096, seed), 200, 2, 0),
        "sweep-shards" => (gen::matmul(16, seed), 2000, 1, 2),
        _ => return None,
    };
    Some(CampaignSpec {
        source,
        mutants,
        threads,
        shards,
    })
}

/// The result of one benchmark run.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Human-readable report lines.
    pub text: String,
    /// The contract's JSON line.
    pub json: String,
}

/// A scratch directory inside the checkout, removed when dropped.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(args: &Args) -> Result<WorkDir, String> {
        let dir = Path::new(".perfbench_work").join(format!(
            "{}-{}-{}",
            args.workload,
            args.seed,
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leaves the parent only when no concurrent run still uses it.
        let _ = std::fs::remove_dir(".perfbench_work");
    }
}

fn failed_share(attempted: u64, failed: u64) -> f64 {
    failed as f64 / attempted.max(1) as f64
}

/// Runs one benchmark invocation from the root of a checkout.
///
/// # Errors
///
/// Fails when the program cannot be built or a workload cannot be set up.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let prov = Provenance::collect();
    let mut text = String::new();
    let _ = writeln!(
        text,
        "s4e-perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let _ = writeln!(
        text,
        "provenance: revision {} | nproc {} | cpu {}",
        prov.revision, prov.nproc, prov.cpu
    );
    let s4e = proc::build_s4e()?;
    let work = WorkDir::create(args)?;
    let spec = campaign_spec(&args.workload, args.seed);
    if args.trace {
        traced(args, &s4e, &work.0, spec.as_ref(), text)
    } else {
        end_to_end(args, &s4e, &work.0, spec.as_ref(), text)
    }
}

fn end_to_end(
    args: &Args,
    s4e: &Path,
    work: &Path,
    spec: Option<&CampaignSpec>,
    mut text: String,
) -> Result<Outcome, String> {
    let (e, rate_name, rate_unit, scale) = match spec {
        Some(spec) => {
            let (e, mutants) = campaign::run_e2e(s4e, spec, work, args.seconds)?;
            let _ = writeln!(
                text,
                "campaign: {mutants} generated mutants per launch, {} launches timed",
                e.throughput.len()
            );
            (e, "mutants_per_s", "1/s", 1.0)
        }
        None => {
            let e = tools::run_e2e(args.seed, args.seconds)?;
            let _ = writeln!(text, "tools: {} batches timed", e.throughput.len());
            (e, "guest_mips", "MIPS", 1e-6)
        }
    };
    let (attempted, failed) = (e.attempted, e.failed);
    let slowdown = host::slowdown(&e.calibration_s);
    let throughput = best_of_groups(&e.throughput, true);
    let setup = best_of_groups(&e.setup_s, false);
    let map = |v: &[f64], f: f64| -> Vec<f64> { v.iter().map(|x| x * f).collect() };
    let _ = writeln!(
        text,
        "end-to-end (tracing off), median with quartiles; throughput and setup_s \
         over the best of each {BEST_OF} consecutive samples."
    );
    let _ = writeln!(text, "as measured:");
    let _ = writeln!(
        text,
        "{}",
        summary_line(rate_name, rate_unit, &Summary::of(&map(&throughput, scale)))
    );
    let _ = writeln!(
        text,
        "{}",
        summary_line(
            &format!("{rate_name} (every sample)"),
            rate_unit,
            &Summary::of(&map(&e.throughput, scale))
        )
    );
    let _ = writeln!(
        text,
        "{}",
        summary_line("setup_s", "s", &Summary::of(&setup))
    );
    let _ = writeln!(
        text,
        "{}",
        summary_line("host calibration", "s", &Summary::of(&e.calibration_s))
    );
    let _ = writeln!(
        text,
        "at reference host speed (reference calibration {} s, host {slowdown:.4}x slower; \
         these are the JSON metrics):",
        host::REFERENCE_S
    );
    let t = Summary::of(&map(&throughput, slowdown));
    let s = Summary::of(&map(&setup, 1.0 / slowdown));
    let r = Summary::of(&e.rss_mib);
    let _ = writeln!(
        text,
        "{}",
        summary_line(
            rate_name,
            rate_unit,
            &Summary::of(&map(&throughput, slowdown * scale))
        )
    );
    let _ = writeln!(text, "{}", summary_line("setup_s", "s", &s));
    let _ = writeln!(text, "{}", summary_line("peak_rss_mib", "MiB", &r));
    let _ = writeln!(
        text,
        "  {:<28} {:>14.6} {:<6} ({failed} of {attempted} checked operations failed)",
        "failed_share",
        failed_share(attempted, failed),
        "ratio"
    );
    let metrics: Vec<Metric> = END_TO_END
        .iter()
        .zip([t.median, s.median, r.median])
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            value,
            unit,
        })
        .collect();
    Ok(Outcome {
        text,
        json: json_line(failed == 0, attempted, failed, &metrics),
    })
}

fn traced(
    args: &Args,
    s4e: &Path,
    work: &Path,
    spec: Option<&CampaignSpec>,
    mut text: String,
) -> Result<Outcome, String> {
    let (layers, attempted, failed, consistent) = match spec {
        Some(spec) => {
            let t = campaign::run_traced(s4e, spec, work, TRACE_PAIRS)?;
            let mut layers = t.layers;
            let image = campaign::assemble(&spec.source)?;
            probes::vp_probes(&mut layers, &image, s4e_isa::IsaConfig::full());
            probes::tool_probes(&mut layers, &image, s4e_isa::IsaConfig::full())?;
            (layers, t.attempted, t.failed, t.consistent)
        }
        None => {
            // The campaign layers are measured on a small campaign over the
            // first QTA kernel; the tools' own layers then take precedence.
            let kernel = gen::qta_kernels(args.seed).remove(0).1;
            let probe = CampaignSpec {
                source: kernel,
                mutants: 2,
                threads: 2,
                shards: 0,
            };
            let t = campaign::run_traced(s4e, &probe, work, TRACE_PAIRS)?;
            let mut layers = t.layers;
            let image = campaign::assemble(&probe.source)?;
            probes::vp_probes(&mut layers, &image, tools::qta_isa());
            let (tool_layers, a, f) = tools::run_traced(args.seed, TOOL_TRACE_PAIRS)?;
            layers.extend(&tool_layers);
            (layers, t.attempted + a, t.failed + f, t.consistent)
        }
    };
    let _ = writeln!(text, "per-layer ledger (traced run):");
    for m in layers.metrics() {
        let _ = writeln!(text, "  {:<36} {:>16.6} {}", m.name, m.value, m.unit);
    }
    let _ = writeln!(
        text,
        "checks: {failed} of {attempted} operations failed; traced run consistent: {consistent}"
    );
    let mut metrics = Vec::with_capacity(PER_LAYER.len());
    let mut complete = true;
    for (name, unit) in PER_LAYER {
        let value = layers.get(name).unwrap_or_else(|| {
            eprintln!("per-layer metric {name} was not measured");
            complete = false;
            0.0
        });
        metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }
    Ok(Outcome {
        text,
        json: json_line(
            failed == 0 && consistent && complete,
            attempted,
            failed,
            &metrics,
        ),
    })
}
