//! The workload generators are deterministic in their seed, and the
//! set-up command the benchmark times succeeds.

use s4e_perfbench::campaign::{assemble, cli_mutants};
use s4e_perfbench::gen::{coverage_programs, qta_kernels};
use s4e_perfbench::{campaign_spec, WORKLOADS};

/// Every generated source of a workload for `seed`.
fn sources(workload: &str, seed: u64) -> Vec<String> {
    match campaign_spec(workload, seed) {
        Some(spec) => vec![spec.source],
        None => qta_kernels(seed)
            .into_iter()
            .map(|(_, src)| src)
            .chain(coverage_programs(seed))
            .collect(),
    }
}

#[test]
fn same_seed_gives_identical_programs() {
    for workload in WORKLOADS {
        assert_eq!(sources(workload, 7), sources(workload, 7), "{workload}");
    }
}

#[test]
fn other_seed_gives_other_data() {
    for workload in WORKLOADS {
        let a = sources(workload, 7);
        let b = sources(workload, 8);
        assert_eq!(a.len(), b.len(), "{workload}: same number of programs");
        assert_ne!(a, b, "{workload}: the seed must change the input data");
    }
}

#[test]
fn campaign_programs_keep_their_shape_across_seeds() {
    // The seed picks data only: the code before the data section is the
    // same, so every seed does the same guest work per mutant.
    for workload in ["sweep-pruned", "sweep-executed", "sweep-shards"] {
        let code = |seed| {
            let src = campaign_spec(workload, seed)
                .expect("campaign workload")
                .source;
            src.split(".align")
                .next()
                .expect("code section")
                .to_string()
        };
        assert_eq!(code(1), code(2), "{workload}");
    }
}

#[test]
fn same_seed_gives_identical_mutant_lists() {
    let spec = campaign_spec("sweep-executed", 3).expect("campaign workload");
    let image = assemble(&spec.source).expect("assembles");
    let a = cli_mutants(&image, 4).expect("golden run terminates");
    let again =
        assemble(&campaign_spec("sweep-executed", 3).expect("workload").source).expect("assembles");
    let b = cli_mutants(&again, 4).expect("golden run terminates");
    assert!(!a.is_empty());
    assert_eq!(a, b);
}

#[test]
fn setup_command_exits_zero() {
    // The set-up measurement launches `s4e campaign ... --mutants 0`; the
    // binary exits with the code `run_cli_full` returns.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("s4e-perfbench-setup-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let program = dir.join("program.s");
    let spec = campaign_spec("sweep-pruned", 5).expect("campaign workload");
    std::fs::write(&program, &spec.source).expect("write program");
    let checkpoint = dir.join("ck.jsonl");
    let args: Vec<String> = spec
        .cli_args(&program, &checkpoint, 0)
        .into_iter()
        .map(|a| a.to_string_lossy().into_owned())
        .collect();
    let outcome = scale4edge::cli::run_cli_full(&args).expect("set-up command succeeds");
    assert_eq!(outcome.code, 0);
    assert!(outcome.output.contains("mutants: 0"), "{}", outcome.output);
    std::fs::remove_dir_all(&dir).expect("clean up");
}
