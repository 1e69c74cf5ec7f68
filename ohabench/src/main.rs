//! One benchmark for OHA analysis requests.
//!
//! ```text
//! ohabench --workload <optft-java|optslice-c|serve-mix> --seed N --seconds S --trace 0|1
//!          [--tree-hash H] [--setup-only 1]
//! ```
//!
//! With `--trace 0` it sends the workload's fixed, seeded request list
//! and reports the end-to-end metrics; with `--trace 1` it runs the same
//! kind of list untraced and then rebuilt layer by layer (`layers.rs`),
//! and reports the per-layer metrics. Either way it checks every answer.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! a report with sample counts and provenance. Time metrics are scaled
//! to a reference host by a probe timed in the same run (`calib.rs`);
//! the report holds their raw values. The exit code is non-zero
//! when any answer was wrong or the run could not complete.
//! With `--setup-only 1` it only does the workload's set-up, prints
//! `ready` when it would send its first timed request, tears down and
//! exits; `setup.rs` times such processes for `setup_s`.
//! `METRICS.md` maps each per-layer metric to the end-to-end metric and
//! workload it should move.

mod calib;
mod cluster;
mod gen;
mod inproc;
mod layers;
mod report;
mod setup;

use std::process::exit;
use std::time::Instant;

use report::{json_num, json_str, Outcome};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    OptFtJava,
    OptSliceC,
    ServeMix,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "optft-java" => Some(Workload::OptFtJava),
            "optslice-c" => Some(Workload::OptSliceC),
            "serve-mix" => Some(Workload::ServeMix),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::OptFtJava => "optft-java",
            Workload::OptSliceC => "optslice-c",
            Workload::ServeMix => "serve-mix",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub tree_hash: String,
    /// Do the set-up, print `ready`, tear down and exit.
    pub setup_only: bool,
    /// When the process started (its own set-up is timed from here).
    pub started: Instant,
}

const USAGE: &str = "usage: ohabench --workload <optft-java|optslice-c|serve-mix> \
                     --seed N --seconds S --trace 0|1 [--tree-hash H] [--setup-only 1]";

fn parse_args(started: Instant) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut tree_hash = "unknown".to_string();
    let mut setup_only = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|_| bad("not a number of seconds"))?;
                if !(1..=120).contains(&s) {
                    return Err(bad("out of range 1..=120"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--tree-hash" => tree_hash = value,
            "--setup-only" => {
                setup_only = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        tree_hash,
        setup_only,
        started,
    })
}

/// Removes every `OHA_*` variable before any work starts, so a stray
/// override (reference dynamic path, solver cutoffs, faults, tracing,
/// store directory, smoke sizes, thread count) cannot silently measure a
/// different program. Returns what was cleared, for the report.
fn clear_oha_env() -> Vec<(String, String)> {
    let cleared: Vec<(String, String)> = std::env::vars_os()
        .filter_map(|(k, v)| {
            let k = k.into_string().ok()?;
            k.starts_with("OHA_")
                .then(|| (k, v.to_string_lossy().into_owned()))
        })
        .collect();
    for (k, _) in &cleared {
        std::env::remove_var(k);
    }
    cleared
}

fn main() {
    let started = Instant::now();
    let cleared = clear_oha_env();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            exit(2);
        }
    };
    if args.setup_only {
        let ready = match args.workload {
            Workload::OptFtJava => inproc::setup_only(inproc::Tool::OptFt, &args),
            Workload::OptSliceC => inproc::setup_only(inproc::Tool::OptSlice, &args),
            Workload::ServeMix => cluster::setup_only(&args),
        };
        if let Err(e) = ready {
            eprintln!("error: set-up failed: {e}");
            exit(1);
        }
        return;
    }
    let outcome = match args.workload {
        Workload::OptFtJava => inproc::run(inproc::Tool::OptFt, &args),
        Workload::OptSliceC => inproc::run(inproc::Tool::OptSlice, &args),
        Workload::ServeMix => cluster::run(&args),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("error: {} could not run: {e}", args.workload.name());
            exit(1);
        }
    };
    print_result(&args, &cleared, &outcome);
    if outcome.failed > 0 {
        eprintln!(
            "error: {} of {} requests failed their correctness check",
            outcome.failed, outcome.attempted
        );
        exit(1);
    }
}

fn print_result(args: &Args, cleared: &[(String, String)], outcome: &Outcome) {
    let threads = oha_par::hardware_threads();
    let cleared_json: Vec<String> = cleared
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    let mut fields = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), u8::from(args.trace).to_string()),
        ("crates_tree".to_string(), json_str(&args.tree_hash)),
        (
            "host".to_string(),
            oha_bench::host_json().to_string_compact(),
        ),
        ("hardware_threads".to_string(), threads.to_string()),
        (
            "cleared_env".to_string(),
            format!("{{{}}}", cleared_json.join(",")),
        ),
        (
            "fastpath".to_string(),
            oha_interp::fastpath::enabled().to_string(),
        ),
        (
            "elapsed_s".to_string(),
            json_num(args.started.elapsed().as_secs_f64()),
        ),
    ];
    fields.extend(outcome.report.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    println!("{{\"report\":{{{}}}}}", body.join(","));
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        report::metrics_json(&outcome.metrics)
    );
}
