//! `setup_s`: the time from process start to the first timed request.
//!
//! A process sets up only once, so the metric times several fresh
//! processes. Each runs this benchmark with `--setup-only 1`, which does
//! the workload's whole set-up (generation, the warm-up request or the
//! cluster start and key priming) and prints `ready` where a measuring
//! run would send its first timed request. The clock runs from spawning
//! the process to reading that line, so it includes process start.

use std::io::{self, BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::Args;

/// The set-up times (s) of `count` fresh processes, one after another.
pub fn time_setups(args: &Args, count: usize) -> io::Result<Vec<f64>> {
    (0..count).map(|_| time_one(args)).collect()
}

/// The set-up time (s) of one fresh process.
pub fn time_one(args: &Args) -> io::Result<f64> {
    let exe = std::env::current_exe()?;
    let start = Instant::now();
    let mut child = Command::new(exe)
        .args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--setup-only", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()?;
    let result = read_ready(&mut child).map(|()| start.elapsed().as_secs_f64());
    if result.is_err() {
        let _ = child.kill();
    }
    let status = child.wait()?;
    let elapsed = result?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "a set-up process exited with {status}"
        )));
    }
    Ok(elapsed)
}

fn read_ready(child: &mut Child) -> io::Result<()> {
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line)?;
    if line.trim_end() == "ready" {
        Ok(())
    } else {
        Err(io::Error::other(
            "a set-up process ended before it was ready",
        ))
    }
}
