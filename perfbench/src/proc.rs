//! Building the `s4e` binary and timing its launches.

use std::ffi::OsString;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Builds the `s4e` binary from the checkout in the current directory
/// (release profile, honouring `CARGO_TARGET_DIR`) and returns its path.
///
/// # Errors
///
/// Fails when cargo cannot be run or the build fails — for example in a
/// directory that holds the benchmark but not the program's sources.
pub fn build_s4e() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("src/bin/s4e.rs").is_file() {
        return Err("run from the root of a scale4edge checkout (no src/bin/s4e.rs here)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "s4e"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building s4e failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = Path::new(&target).join("release").join("s4e");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("built s4e not found at {}", bin.display()))
    }
}

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Launch {
    /// Host seconds from spawn to reaped exit.
    pub wall_s: f64,
    /// Largest resident set of the child and every descendant it reaped
    /// (shard workers), in KiB, as `wait4` reports it.
    pub maxrss_kib: u64,
    /// Exit code (`-1` when killed by a signal).
    pub code: i32,
    /// Everything the child wrote to stdout.
    pub stdout: String,
}

/// `struct rusage` of Linux (x86-64 and aarch64 share this layout).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// Spawns `cmd` with stdout captured, waits for it with `wait4` and
/// times it from spawn to exit.
///
/// # Errors
///
/// Propagates spawn and wait failures.
pub fn launch(cmd: &mut Command) -> io::Result<Launch> {
    cmd.stdout(Stdio::piped());
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let mut stdout = String::new();
    if let Some(mut pipe) = child.stdout.take() {
        pipe.read_to_string(&mut stdout)?;
    }
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage::default();
    // SAFETY: `status` and `usage` are live, writable, correctly sized
    // locals; `pid` is our own unreaped child (std never waited for it).
    let reaped = unsafe { wait4(pid, &mut status, 0, &mut usage) };
    let wall_s = start.elapsed().as_secs_f64();
    if reaped != pid {
        return Err(io::Error::last_os_error());
    }
    // The child is reaped; `Child` has no `Drop` that waits, so letting
    // it go is safe.
    drop(child);
    let code = if status & 0x7f == 0 {
        (status >> 8) & 0xff
    } else {
        -1
    };
    Ok(Launch {
        wall_s,
        maxrss_kib: usage.maxrss.max(0) as u64,
        code,
        stdout,
    })
}

/// Largest resident set of this process's own memory so far, in KiB
/// (`VmHWM`). Unlike `getrusage`, it leaves out the parent's peak that
/// Linux carries into a process across `execve` (under `cargo run`,
/// cargo's own).
pub fn self_maxrss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// First argument of the relay mode: `s4e-perfbench --relay <program>
/// <args…>` launches the program with [`launch`] and prints
/// `<wall_s> <maxrss_kib> <code>` on one line, then the program's stdout.
pub const RELAY_FLAG: &str = "--relay";

/// Runs `program` through a fresh copy of this executable in relay mode
/// and returns the relay's measurement of it.
///
/// Linux folds the spawning process's peak resident set into the child's
/// `wait4` peak when the child calls `execve`. Spawned from the benchmark,
/// which holds every run's reference outcomes, a small `s4e` would report
/// the benchmark's peak; spawned from the relay, which holds almost
/// nothing, it reports its own.
///
/// # Errors
///
/// Propagates spawn failures of the relay and malformed relay output.
pub fn launch_relayed(program: &Path, args: &[OsString]) -> io::Result<Launch> {
    let out = Command::new(std::env::current_exe()?)
        .arg(RELAY_FLAG)
        .arg(program)
        .args(args)
        .stderr(Stdio::inherit())
        .output()?;
    let text = String::from_utf8_lossy(&out.stdout);
    let (header, stdout) = text.split_once('\n').unwrap_or((&text, ""));
    let bad = || io::Error::other(format!("relay printed `{header}` ({})", out.status));
    let mut fields = header.split(' ');
    let mut next = || fields.next().ok_or_else(bad);
    Ok(Launch {
        wall_s: next()?.parse().map_err(|_| bad())?,
        maxrss_kib: next()?.parse().map_err(|_| bad())?,
        code: next()?.parse().map_err(|_| bad())?,
        stdout: stdout.to_string(),
    })
}

/// The relay mode: `argv` is the program and its arguments. Returns the
/// relay's exit code (0 once the program ran, whatever its own code).
pub fn relay(argv: &[OsString]) -> i32 {
    let Some((program, args)) = argv.split_first() else {
        eprintln!("{RELAY_FLAG} needs a program");
        return 2;
    };
    match launch(Command::new(program).args(args)) {
        Ok(run) => {
            let mut out = io::stdout().lock();
            let written = writeln!(out, "{} {} {}", run.wall_s, run.maxrss_kib, run.code)
                .and_then(|()| out.write_all(run.stdout.as_bytes()));
            i32::from(written.is_err())
        }
        Err(e) => {
            eprintln!("cannot run {}: {e}", Path::new(program).display());
            1
        }
    }
}
