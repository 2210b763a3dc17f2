//! The relay mode launches a program and reports its wall time, peak
//! resident set and exit code ahead of the program's own stdout.

use std::process::Command;

#[test]
fn relay_reports_the_program_and_passes_its_stdout_through() {
    let out = Command::new(env!("CARGO_BIN_EXE_s4e-perfbench"))
        .args(["--relay", "sh", "-c", "printf 'line 1\\nline 2\\n'; exit 3"])
        .output()
        .expect("relay runs");
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let (header, stdout) = text.split_once('\n').expect("header line");
    let fields: Vec<&str> = header.split(' ').collect();
    assert_eq!(fields.len(), 3, "{header}");
    assert!(fields[0].parse::<f64>().expect("wall seconds") > 0.0);
    assert!(fields[1].parse::<u64>().expect("peak KiB") > 0);
    assert_eq!(fields[2], "3");
    assert_eq!(stdout, "line 1\nline 2\n");
}
