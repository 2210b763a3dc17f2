//! `s4e-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Run from the root of a scale4edge checkout. Prints a human-readable
//! report followed, as the last line of stdout, by one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

fn main() {
    let raw: Vec<std::ffi::OsString> = std::env::args_os().skip(1).collect();
    if raw
        .first()
        .is_some_and(|a| a == s4e_perfbench::proc::RELAY_FLAG)
    {
        std::process::exit(s4e_perfbench::proc::relay(&raw[1..]));
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = s4e_perfbench::Args::parse(&argv).and_then(|args| s4e_perfbench::run(&args));
    match result {
        Ok(outcome) => {
            print!("{}", outcome.text);
            println!("{}", outcome.json);
        }
        Err(e) => {
            eprintln!("s4e-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
