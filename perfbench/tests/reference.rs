//! The reference checks pass on the committed program and fire on a
//! doctored reference.

use s4e_faultsim::{FaultOutcome, FaultResult};
use s4e_perfbench::campaign::{
    assemble, cli_config, count_failures, reference_outcomes, unique_specs, CheckpointOutcomes,
};
use s4e_perfbench::gen::{cli_generator, crc32};
use s4e_perfbench::tools::{count_tool_failures, oracle, run_batch, runs_per_batch, setup};

fn share(failed: u64, attempted: u64) -> f64 {
    failed as f64 / attempted as f64
}

/// A different outcome than `o`.
fn doctor(o: FaultOutcome) -> FaultOutcome {
    if o == FaultOutcome::Masked {
        FaultOutcome::SilentCorruption
    } else {
        FaultOutcome::Masked
    }
}

#[test]
fn campaign_reference_check_fires_on_a_doctored_reference() {
    let image = assemble(&crc32(64, 11)).expect("assembles");
    let campaign =
        s4e_faultsim::Campaign::prepare(image.base(), image.bytes(), image.entry(), &cli_config(2))
            .expect("golden run terminates");
    let specs = s4e_faultsim::generate_mutants(campaign.golden().trace(), &cli_generator(2));
    let unique = unique_specs(&specs);
    let report = campaign.run_all(&specs);
    let got = CheckpointOutcomes::from_results(report.results());
    let reference = reference_outcomes(&image, &unique).expect("reference campaign");
    assert!(!reference.is_empty());
    let attempted = unique.len() as u64;

    let clean = count_failures(&got, &unique, &reference, None);
    assert_eq!(clean, 0, "the production sweep matches the reference");

    let mut doctored = reference.clone();
    doctored[0].1 = doctor(doctored[0].1);
    let last = doctored.len() - 1;
    doctored[last].1 = doctor(doctored[last].1);
    let failed = count_failures(&got, &unique, &doctored, None);
    assert!(share(failed, attempted) > share(clean, attempted));
    assert_eq!(failed, if last == 0 { 1 } else { 2 });
}

#[test]
fn campaign_check_counts_missing_drifted_and_harness_failures() {
    let image = assemble(&crc32(64, 12)).expect("assembles");
    let campaign =
        s4e_faultsim::Campaign::prepare(image.base(), image.bytes(), image.entry(), &cli_config(1))
            .expect("golden run terminates");
    let specs = s4e_faultsim::generate_mutants(campaign.golden().trace(), &cli_generator(1));
    let unique = unique_specs(&specs);
    let report = campaign.run_all(&specs);
    let baseline = CheckpointOutcomes::from_results(report.results()).outcomes;

    let mut results: Vec<FaultResult> = report.results().to_vec();
    results.retain(|r| r.spec != unique[0]);
    results
        .iter_mut()
        .find(|r| r.spec == unique[1])
        .expect("present")
        .outcome = FaultOutcome::HarnessError;
    for r in results.iter_mut().filter(|r| r.spec == unique[2]) {
        r.outcome = doctor(r.outcome);
    }
    let got = CheckpointOutcomes::from_results(&results);
    assert_eq!(count_failures(&got, &unique, &[], Some(&baseline)), 3);
}

#[test]
fn tools_reference_check_fires_on_a_doctored_oracle() {
    let (inputs, _) = setup(21).expect("inputs set up");
    let reference = oracle(&inputs);
    let batch = run_batch(&inputs, false).expect("batch runs");
    let attempted = runs_per_batch(&inputs);
    let clean = count_tool_failures(&batch.results, &reference);
    assert_eq!(clean, 0, "the production engine matches the oracle");

    let mut doctored = reference.clone();
    doctored.qta[0].qta_cycles += 1;
    doctored.coverage.swap(0, 1);
    let failed = count_tool_failures(&batch.results, &doctored);
    assert_eq!(failed, 3, "one QTA run and two coverage runs now differ");
    assert!(share(failed, attempted) > share(clean, attempted));
}
