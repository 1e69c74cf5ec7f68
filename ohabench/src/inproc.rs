//! The in-process workloads: `optft-java` and `optslice-c`.
//!
//! One closed-loop caller sends a fixed, seeded list of requests through
//! `Pipeline::run_optft` / `Pipeline::run_optslice`. Each request's clock
//! runs from `Pipeline` construction to the returned outcome.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::{self, Write as _};
use std::time::{Duration, Instant};

use oha_core::Pipeline;
use oha_ir::InstId;
use oha_workloads::Workload;

use crate::calib::HostSpeed;
use crate::gen::{self, Gen};
use crate::layers::{self, Ledger};
use crate::report::{self, Outcome};
use crate::{setup, Args};

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Tool {
    OptFt,
    OptSlice,
}

impl Tool {
    fn suite(self) -> &'static [(&'static str, Gen)] {
        match self {
            Tool::OptFt => &gen::JAVA,
            Tool::OptSlice => &gen::C,
        }
    }

    /// The suite's cheapest program, which set-up analyzes once so lazy
    /// initialization is paid before the clock starts.
    fn warm_up(self) -> usize {
        let name = match self {
            Tool::OptFt => "xalan",
            Tool::OptSlice => "zlib",
        };
        self.suite()
            .iter()
            .position(|&(n, _)| n == name)
            .expect("warm-up program is in the suite")
    }

    /// Suite passes per measured second, sized on a 2-core host so a run
    /// lasts about `--seconds` there. The list length depends on
    /// `--seconds` alone, never on a clock.
    fn passes_per_second(self) -> f64 {
        match self {
            Tool::OptFt => 0.67,
            Tool::OptSlice => 1.07,
        }
    }
}

/// One answered request of the untraced pass.
struct Answer {
    latency: Duration,
    correct: bool,
    /// Summed uninstrumented run time over the testing corpus.
    baseline: Duration,
    /// Summed speculative + rollback time over the testing corpus.
    dynamic: Duration,
    /// OptFT only: the elidable-lock set the pipeline validated.
    elidable: BTreeSet<InstId>,
    /// OptFT only: the pipeline's own `optft/elide` span.
    elide_span_ms: f64,
    /// Each testing run's outcome, as `layers::ft_run_json` /
    /// `layers::slice_run_json` render it.
    runs: Vec<String>,
}

fn analyze(tool: Tool, w: &Workload, threads: usize) -> Answer {
    let program = w.program.clone();
    let start = Instant::now();
    let pipeline = Pipeline::new(program).with_config(layers::config(threads));
    match tool {
        Tool::OptFt => {
            let o = pipeline.run_optft(&w.profiling_inputs, &w.testing_inputs);
            let latency = start.elapsed();
            Answer {
                latency,
                correct: o.optimistic_races == o.baseline_races,
                baseline: o.runs.iter().map(|r| r.baseline).sum(),
                dynamic: o.runs.iter().map(|r| r.optimistic + r.rollback).sum(),
                elide_span_ms: o
                    .report
                    .spans
                    .get("optft/elide")
                    .map_or(0.0, |s| s.total().as_secs_f64() * 1e3),
                runs: o
                    .runs
                    .iter()
                    .map(|r| {
                        layers::ft_run_json(
                            r.rolled_back,
                            r.violations,
                            &r.races_full,
                            &r.races_hybrid,
                            &r.races_opt,
                        )
                    })
                    .collect(),
                elidable: o.invariants.elidable_locks,
            }
        }
        Tool::OptSlice => {
            let o = pipeline.run_optslice(&w.profiling_inputs, &w.testing_inputs, &w.endpoints);
            let latency = start.elapsed();
            Answer {
                latency,
                correct: !o.runs.is_empty() && o.all_slices_equal(),
                baseline: o.runs.iter().map(|r| r.baseline).sum(),
                dynamic: o.runs.iter().map(|r| r.optimistic + r.rollback).sum(),
                elidable: BTreeSet::new(),
                elide_span_ms: 0.0,
                runs: o
                    .runs
                    .iter()
                    .map(|r| {
                        layers::slice_run_json(
                            r.rolled_back,
                            r.hybrid_slice_len,
                            r.opt_slice_len,
                            r.slices_equal,
                        )
                    })
                    .collect(),
            }
        }
    }
}

/// Fresh processes whose set-up times give the median `setup_s`.
const SETUPS: usize = 31;

/// Host-speed probes after each request (`calib.rs`).
const PROBES_PER_REQUEST: usize = 1;

/// Set-up: plan the request list and analyze one warm-up request, so
/// lazy initialization is paid before the first timed request.
fn setup(tool: Tool, args: &Args, passes: usize, threads: usize) -> Vec<gen::Planned> {
    let plan = gen::suite_plan(tool.suite().len(), args.seed, passes);
    let warm = gen::Planned {
        program: tool.warm_up(),
        seed: gen::SETUP_SEED,
    };
    black_box(analyze(tool, &gen::build(tool.suite(), warm), threads));
    plan
}

fn passes(tool: Tool, args: &Args) -> usize {
    (args.seconds as f64 * tool.passes_per_second())
        .round()
        .max(1.0) as usize
}

/// `--setup-only`: set up, report readiness, exit.
pub fn setup_only(tool: Tool, args: &Args) -> io::Result<()> {
    black_box(setup(
        tool,
        args,
        passes(tool, args),
        oha_par::hardware_threads(),
    ));
    let mut out = io::stdout().lock();
    writeln!(out, "ready")?;
    out.flush()
}

pub fn run(tool: Tool, args: &Args) -> io::Result<Outcome> {
    let threads = oha_par::hardware_threads();
    let passes = passes(tool, args);
    if args.trace {
        return Ok(traced(tool, args, threads, passes.div_ceil(3)));
    }

    let plan = setup(tool, args, passes, threads);
    let own_setup = args.started.elapsed().as_secs_f64();

    // Each request's inputs are generated just before it is sent, outside
    // its clock. A host-speed probe follows every request, and the set-up
    // processes run spread over the list, between requests, so their
    // medians average the host over the whole run as the other metrics
    // do; the time both take is left out of the wall time.
    let stride = (plan.len() / SETUPS).max(1);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut speed = HostSpeed::default();
    let mut paused = Duration::ZERO;
    let mut answers = Vec::with_capacity(plan.len());
    let start = Instant::now();
    for (i, &p) in plan.iter().enumerate() {
        answers.push(analyze(tool, &gen::build(tool.suite(), p), threads));
        let t = Instant::now();
        speed.sample(PROBES_PER_REQUEST);
        if setups.len() < SETUPS && i % stride == stride - 1 {
            setups.push(setup::time_one(args)?);
        }
        paused += t.elapsed();
    }
    let wall = (start.elapsed() - paused).as_secs_f64();
    while setups.len() < SETUPS {
        setups.push(setup::time_one(args)?);
    }

    let correct = answers.iter().filter(|a| a.correct).count();
    let mut lat: Vec<f64> = answers
        .iter()
        .map(|a| a.latency.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let baseline: f64 = answers.iter().map(|a| a.baseline.as_secs_f64()).sum();
    let dynamic: f64 = answers.iter().map(|a| a.dynamic.as_secs_f64()).sum();
    let failed = (answers.len() - correct) as u64;
    let (metrics, host) = report::end_to_end(
        &speed,
        report::median(&mut setups),
        correct as f64 / wall,
        &lat,
        dynamic / baseline,
        report::peak_rss_mib(None).unwrap_or(0.0),
    );
    Ok(Outcome {
        attempted: answers.len() as u64,
        failed,
        metrics,
        report: [
            host,
            vec![
                ("requests".into(), answers.len().to_string()),
                ("suite_passes".into(), passes.to_string()),
                (
                    "samples_beyond_p90".into(),
                    report::beyond(&lat, 0.9).to_string(),
                ),
                (
                    "failed_frac".into(),
                    report::json_num(failed as f64 / answers.len() as f64),
                ),
                ("timed_wall_s".into(), report::json_num(wall)),
                ("setup_processes".into(), SETUPS.to_string()),
                ("own_setup_s".into(), report::json_num(own_setup)),
                ("pipeline_threads".into(), threads.to_string()),
            ],
        ]
        .concat(),
    })
}

/// `profile_until_stable` time (ms) at pool width 1.
fn serial_profile_ms(program: &oha_ir::Program, profiling: &[Vec<i64>]) -> f64 {
    let pipeline = Pipeline::new(program.clone()).with_config(layers::config(1));
    let start = Instant::now();
    black_box(pipeline.profile_until_stable(profiling, layers::PATIENCE));
    start.elapsed().as_secs_f64() * 1e3
}

fn traced(tool: Tool, args: &Args, threads: usize, passes: usize) -> Outcome {
    let plan = gen::suite_plan(tool.suite().len(), args.seed, passes);

    // Each request runs untraced through the pipeline, then rebuilt from
    // public calls, so both see the same process state.
    let mut answers = Vec::with_capacity(plan.len());
    let mut serial = 0.0;
    let mut led = Ledger::default();
    let mut traced_ms = 0.0;
    let mut failed = 0u64;
    let mut elide_mismatch = 0u64;
    let mut run_mismatch = 0u64;
    let mut rollbacks = 0usize;
    for &p in &plan {
        let w = &gen::build(tool.suite(), p);
        let a = analyze(tool, w, threads);
        let program = w.program.clone();
        let start = Instant::now();
        let pipeline = Pipeline::new(program).with_config(layers::config(threads));
        let (invariants, runs_used) = layers::profile(&pipeline, &w.profiling_inputs, &mut led);
        let (dynamic, same_elided) = match tool {
            Tool::OptFt => {
                let statics = layers::ft_statics(
                    &pipeline,
                    invariants,
                    runs_used,
                    &w.profiling_inputs,
                    &mut led,
                );
                let dynamic = layers::ft_dynamic(&pipeline, &statics, &w.testing_inputs, &mut led);
                (dynamic, statics.invariants.elidable_locks == a.elidable)
            }
            Tool::OptSlice => {
                let statics =
                    layers::slice_statics(&pipeline, invariants, runs_used, &w.endpoints, &mut led);
                // Like the pipeline, keep only the slices past the static
                // phase.
                let (invariants, sound, pred) =
                    (statics.invariants, statics.sound.slice, statics.pred.slice);
                let dynamic = layers::slice_dynamic(
                    &pipeline,
                    &invariants,
                    &sound,
                    &pred,
                    &w.testing_inputs,
                    &w.endpoints,
                    &mut led,
                );
                (dynamic, true)
            }
        };
        traced_ms += start.elapsed().as_secs_f64() * 1e3;
        // Self-checks against the untraced outcome of the same request:
        // the rebuilt validation pass elides exactly the locks the
        // pipeline elided, and every rebuilt testing run (rollback
        // decision, violations, races or slice sizes) is the pipeline's.
        let same_runs = dynamic.runs == a.runs;
        elide_mismatch += u64::from(!same_elided);
        run_mismatch += u64::from(!same_runs);
        rollbacks += dynamic.rollbacks;
        failed += u64::from(!(dynamic.sound && same_elided && same_runs && a.correct));
        answers.push(a);
        serial += serial_profile_ms(&w.program, &w.profiling_inputs);
    }

    let untraced_ms: f64 = answers.iter().map(|a| a.latency.as_secs_f64() * 1e3).sum();
    let n = plan.len();
    let mut values = led.values(n);
    values.insert(
        "par.profile_speedup_x",
        serial / led.get("invariants.profile_ms").max(f64::MIN_POSITIVE),
    );
    values.insert("par.fanout_us", layers::fanout_us(threads));
    values.insert(
        "elide.span_ms",
        answers.iter().map(|a| a.elide_span_ms).sum::<f64>() / n as f64,
    );
    values.insert("core.request_ms", untraced_ms / n as f64);
    values.insert(
        "core.unattributed_frac",
        1.0 - led.request_layers_ms() / untraced_ms,
    );
    values.insert(
        "obs.bench_trace_overhead_frac",
        traced_ms / untraced_ms - 1.0,
    );
    Outcome {
        attempted: n as u64,
        failed,
        metrics: report::per_layer(&values),
        report: vec![
            ("requests".into(), n.to_string()),
            ("elide_set_mismatches".into(), elide_mismatch.to_string()),
            ("run_mismatches".into(), run_mismatch.to_string()),
            ("rollbacks".into(), rollbacks.to_string()),
            ("pipeline_threads".into(), threads.to_string()),
        ],
    }
}
