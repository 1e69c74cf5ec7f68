//! The traced run: one analysis request rebuilt from each crate's public
//! functions, with a clock around every call into a layer.
//!
//! The functions here follow `Pipeline::run_optft` / `run_optslice` step
//! for step (same pool, same plans, same tools, same rollback rule), so
//! the summed layer times can be held against the untraced wall time of
//! the same requests. The program's own spans are never read for layer
//! times. A parallel section (the sound ∥ predicated static join) is
//! charged by wall time, split between its layers in proportion to the
//! time each branch spent in them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

use oha_core::{Pipeline, PipelineConfig};
use oha_dataflow::BitSet;
use oha_fasttrack::FastTrackTool;
use oha_giri::{DynamicSlice, GiriTool};
use oha_interp::{fastpath, InstrPlan, Machine, MultiTracer, NoopTracer};
use oha_invariants::{ChecksEnabled, InvariantChecker, InvariantSet};
use oha_ir::{InstId, InstKind, Program};
use oha_obs::MetricsRegistry;
use oha_par::Pool;
use oha_pointsto::{analyze, PointsTo, PointsToConfig, PtStats, Sensitivity};
use oha_races::{detect, MustLocksets, StaticRaces};
use oha_slicing::{slice, SliceConfig, StaticSlice};

use crate::report;

/// The profiling stopping rule both pipelines use (§6.1).
pub const PATIENCE: usize = 6;

/// Layer times that are part of a request's blocking path; their sum is
/// held against the request's untraced wall time.
pub const REQUEST_LAYERS: [&str; 17] = [
    "ir.parse_ms",
    "store.load_ms",
    "store.save_ms",
    "invariants.profile_ms",
    "pointsto.solve_ms.sound",
    "pointsto.solve_ms.pred",
    "races.detect_ms",
    "slicing.slice_ms",
    "elide.validate_ms",
    "interp.baseline_ms",
    "fasttrack.full_ms",
    "fasttrack.hybrid_ms",
    "fasttrack.opt_ms",
    "invariants.check_ms",
    "giri.hybrid_ms",
    "giri.opt_ms",
    "rollback.ms",
];

/// Sums of layer times (ms) and counts over the traced requests.
#[derive(Default)]
pub struct Ledger {
    sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    pub fn add(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_insert(0.0) += value;
    }

    pub fn ms(&mut self, key: &'static str, d: Duration) {
        self.add(key, d.as_secs_f64() * 1e3);
    }

    /// Charges `wall` to `parts` in proportion to their own durations.
    fn split(&mut self, wall: Duration, parts: &[(&'static str, Duration)]) {
        let total: f64 = parts.iter().map(|(_, d)| d.as_secs_f64()).sum();
        for &(key, d) in parts {
            let share = if total > 0.0 {
                d.as_secs_f64() / total
            } else {
                1.0 / parts.len() as f64
            };
            self.add(key, wall.as_secs_f64() * 1e3 * share);
        }
    }

    pub fn get(&self, key: &str) -> f64 {
        self.sums.get(key).copied().unwrap_or(0.0)
    }

    /// The summed time of every request layer, in ms.
    pub fn request_layers_ms(&self) -> f64 {
        REQUEST_LAYERS.iter().map(|k| self.get(k)).sum()
    }

    /// The per-layer metric values over `n` traced requests: times and
    /// counts become per-request means, counter pairs become ratios.
    pub fn values(&self, n: usize) -> BTreeMap<&'static str, f64> {
        let ratio = |a: &str, b: &str| {
            let d = self.get(b);
            if d > 0.0 {
                self.get(a) / d
            } else {
                0.0
            }
        };
        let mut v: BTreeMap<&'static str, f64> = report::PER_LAYER
            .iter()
            .map(|&(name, _)| (name, self.get(name) / n.max(1) as f64))
            .collect();
        v.insert(
            "invariants.misspec_frac",
            ratio("invariants.rollbacks", "invariants.testing_runs"),
        );
        v.insert(
            "interp.steps_per_s",
            ratio("interp.steps", "interp.baseline_ms") * 1e3,
        );
        v.insert(
            "fasttrack.elided_frac",
            ratio("fasttrack.elided_accesses", "fasttrack.accesses"),
        );
        v.insert(
            "giri.traced_frac",
            ratio("giri.traced_events", "giri.events"),
        );
        v
    }

    fn pt_stats(&mut self, s: &PtStats) {
        self.add("pointsto.worklist_pops", s.worklist_pops as f64);
        self.add("pointsto.words_unioned", s.words_unioned as f64);
    }
}

/// Median wall time of one `Pool::par_map` over `threads` trivial items:
/// the pool's fixed fan-out cost.
pub fn fanout_us(threads: usize) -> f64 {
    let pool = Pool::new(threads);
    let items: Vec<u64> = (0..threads as u64).collect();
    let mut samples: Vec<f64> = (0..301)
        .map(|_| {
            let start = Instant::now();
            black_box(pool.par_map(black_box(&items), |x| x + 1));
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report::median(&mut samples)
}

/// The configuration every benchmark pipeline runs with: the defaults,
/// at an explicit pool width.
pub fn config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        threads,
        ..PipelineConfig::default()
    }
}

fn pt_config<'i>(
    cfg: &PipelineConfig,
    pool: Pool,
    sensitivity: Sensitivity,
    invariants: Option<&'i InvariantSet>,
) -> PointsToConfig<'i> {
    PointsToConfig {
        sensitivity,
        invariants,
        clone_budget: cfg.ctx_budget,
        solver_budget: cfg.solver_budget,
        pool,
        serial_cutoff: oha_pointsto::serial_cutoff_from_env(),
        dense_cutoff: oha_pointsto::dense_cutoff_from_env(),
    }
}

/// Profiling until stable, timed as the `invariants` layer.
pub fn profile(
    pipeline: &Pipeline,
    profiling: &[Vec<i64>],
    led: &mut Ledger,
) -> (InvariantSet, usize) {
    let start = Instant::now();
    let (invariants, _, used) = pipeline.profile_until_stable(profiling, PATIENCE);
    led.ms("invariants.profile_ms", start.elapsed());
    led.add("invariants.profile_runs", used as f64);
    led.add("invariants.facts", invariants.fact_count() as f64);
    (invariants, used)
}

/// What OptFT's dynamic phase needs from profiling and static analysis.
pub struct FtStatics {
    /// The profiled set with the validated elidable-lock set filled in.
    pub invariants: InvariantSet,
    pub runs_used: usize,
    pub races_sound: StaticRaces,
    pub races_pred: StaticRaces,
    pub pt_sound_stats: PtStats,
    pub pt_pred: PointsTo,
}

struct FtSide {
    pt: PointsTo,
    races: StaticRaces,
    pt_time: Duration,
    detect_time: Duration,
}

fn ft_side(program: &Program, cfg: &PointsToConfig<'_>) -> FtSide {
    let start = Instant::now();
    let pt = analyze(program, cfg).expect("context-insensitive points-to always completes");
    let pt_time = start.elapsed();
    let start = Instant::now();
    let races = detect(program, &pt, cfg.invariants);
    FtSide {
        pt,
        races,
        pt_time,
        detect_time: start.elapsed(),
    }
}

/// OptFT phase 2 on the profiled `invariants`: sound ∥ predicated
/// points-to and race detection, then lock-elision validation over the
/// profiling corpus.
pub fn ft_statics(
    pipeline: &Pipeline,
    mut invariants: InvariantSet,
    runs_used: usize,
    profiling: &[Vec<i64>],
    led: &mut Ledger,
) -> FtStatics {
    let program = pipeline.program();
    let machine = Machine::new(program, pipeline.config().machine);

    let pool = pipeline.pool();
    let cfg = pipeline.config();
    let sound_cfg = pt_config(cfg, pool, Sensitivity::ContextInsensitive, None);
    let pred_cfg = pt_config(
        cfg,
        pool,
        Sensitivity::ContextInsensitive,
        Some(&invariants),
    );
    let start = Instant::now();
    let (sound, pred) = pool.join(
        || ft_side(program, &sound_cfg),
        || ft_side(program, &pred_cfg),
    );
    led.split(
        start.elapsed(),
        &[
            ("pointsto.solve_ms.sound", sound.pt_time),
            ("pointsto.solve_ms.pred", pred.pt_time),
            ("races.detect_ms", sound.detect_time + pred.detect_time),
        ],
    );
    led.pt_stats(&sound.pt.stats());
    led.pt_stats(&pred.pt.stats());
    led.add(
        "races.racy_sites.sound",
        sound.races.stats().racy_accesses as f64,
    );
    led.add(
        "races.racy_sites.pred",
        pred.races.stats().racy_accesses as f64,
    );

    let start = Instant::now();
    let (elidable, runs) = validate_elidable_locks(
        program,
        &machine,
        &pred.pt,
        &pred.races,
        sound.races.racy_sites(),
        profiling,
    );
    led.ms("elide.validate_ms", start.elapsed());
    led.add("elide.validate_runs", runs as f64);

    invariants.elidable_locks = elidable;
    FtStatics {
        invariants,
        runs_used,
        races_sound: sound.races,
        races_pred: pred.races,
        pt_sound_stats: sound.pt.stats(),
        pt_pred: pred.pt,
    }
}

/// The lock-elision validation pass of §4.2.4, rebuilt from public calls:
/// alias classes of lock sites from the predicated points-to sets,
/// candidates from `MustLocksets`, then rounds of sound-hybrid vs. elided
/// FastTrack over the profiling corpus. Returns the elided sites and the
/// number of interpreter runs the rounds made.
fn validate_elidable_locks(
    program: &Program,
    machine: &Machine<'_>,
    pt_pred: &PointsTo,
    races_pred: &StaticRaces,
    sound_racy: &BitSet,
    profiling: &[Vec<i64>],
) -> (BTreeSet<InstId>, u64) {
    let sites: Vec<InstId> = program
        .insts()
        .filter(|i| matches!(i.kind, InstKind::Lock { .. } | InstKind::Unlock { .. }))
        .map(|i| i.id)
        .collect();
    let mut runs = 0u64;
    if sites.is_empty() {
        return (BTreeSet::new(), runs);
    }
    let mut class_of: HashMap<InstId, usize> = HashMap::new();
    let mut classes: Vec<Vec<InstId>> = Vec::new();
    let mut class_cells: Vec<BitSet> = Vec::new();
    for &s in &sites {
        let cells = pt_pred.lock_cells(s);
        match class_cells.iter().position(|c| c.intersects(cells)) {
            Some(k) => {
                classes[k].push(s);
                class_cells[k].union_with(cells);
                class_of.insert(s, k);
            }
            None => {
                class_of.insert(s, classes.len());
                classes.push(vec![s]);
                class_cells.push(cells.clone());
            }
        }
    }
    let locksets = MustLocksets::new(program, pt_pred);
    let mut candidate = vec![true; classes.len()];
    for inst in program.insts() {
        if inst.kind.is_memory_access() && races_pred.is_racy(inst.id) {
            for &l in locksets.held_at(inst.id) {
                if let Some(&k) = class_of.get(&l) {
                    candidate[k] = false;
                }
            }
        }
    }
    let fast = fastpath::enabled();
    let hybrid_plan = fast.then(|| FastTrackTool::plan_for(program, Some(sound_racy), None));
    loop {
        let elided: BTreeSet<InstId> = classes
            .iter()
            .enumerate()
            .filter(|&(k, _)| candidate[k])
            .flat_map(|(_, c)| c.iter().copied())
            .collect();
        if elided.is_empty() {
            return (elided, runs);
        }
        let opt_plan = fast.then(|| {
            FastTrackTool::plan_for(program, Some(races_pred.racy_sites()), Some(&elided))
        });
        let mut false_race = false;
        for input in profiling {
            let mut sound = FastTrackTool::hybrid(sound_racy);
            machine.run_with_plan(input, &mut sound, hybrid_plan.as_ref());
            let mut opt = FastTrackTool::optimistic(races_pred.racy_sites(), &elided);
            machine.run_with_plan(input, &mut opt, opt_plan.as_ref());
            runs += 2;
            if let Some(p) = &hybrid_plan {
                p.take_elisions();
            }
            if let Some(p) = &opt_plan {
                p.take_elisions();
            }
            if !opt.race_pairs().is_subset(&sound.race_pairs()) {
                false_race = true;
                break;
            }
        }
        if !false_race {
            return (elided, runs);
        }
        candidate.iter_mut().for_each(|c| *c = false);
    }
}

/// What a rebuilt dynamic phase produced.
pub struct Dynamic {
    /// OptFT: the final races equal full FastTrack's; OptSlice: every
    /// final slice equals the hybrid slicer's.
    pub sound: bool,
    /// Each testing run's deterministic outcome, rendered as the
    /// pipeline's canonical JSON renders a run ([`ft_run_json`],
    /// [`slice_run_json`]), to hold against what the program returned.
    pub runs: Vec<String>,
    pub rollbacks: usize,
}

fn push_pairs(out: &mut String, pairs: &BTreeSet<(InstId, InstId)>) {
    out.push('[');
    for (i, (a, b)) in pairs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{},{}]", a.raw(), b.raw());
    }
    out.push(']');
}

/// One OptFT testing run as `optft_canonical_json` renders it.
pub fn ft_run_json(
    rolled_back: bool,
    violations: usize,
    full: &BTreeSet<(InstId, InstId)>,
    hybrid: &BTreeSet<(InstId, InstId)>,
    opt: &BTreeSet<(InstId, InstId)>,
) -> String {
    let mut out =
        format!("{{\"rolled_back\":{rolled_back},\"violations\":{violations},\"races_full\":");
    push_pairs(&mut out, full);
    out.push_str(",\"races_hybrid\":");
    push_pairs(&mut out, hybrid);
    out.push_str(",\"races_opt\":");
    push_pairs(&mut out, opt);
    out.push('}');
    out
}

/// One OptSlice testing run as `optslice_canonical_json` renders it.
pub fn slice_run_json(rolled_back: bool, hybrid_len: usize, opt_len: usize, equal: bool) -> String {
    format!(
        "{{\"rolled_back\":{rolled_back},\"hybrid_slice_len\":{hybrid_len},\
         \"opt_slice_len\":{opt_len},\"slices_equal\":{equal}}}"
    )
}

struct FtPlans {
    full: InstrPlan,
    hybrid: InstrPlan,
    checker: InstrPlan,
    optimistic: InstrPlan,
}

/// Times the uninstrumented baseline run, as the `interp` layer.
fn baseline(machine: &Machine<'_>, input: &[i64], led: &mut Ledger) {
    let start = Instant::now();
    let result = machine.run(input, &mut NoopTracer);
    led.ms("interp.baseline_ms", start.elapsed());
    led.add("interp.steps", result.steps as f64);
}

/// OptFT phase 3 over the testing corpus.
pub fn ft_dynamic(
    pipeline: &Pipeline,
    statics: &FtStatics,
    testing: &[Vec<i64>],
    led: &mut Ledger,
) -> Dynamic {
    let program = pipeline.program();
    let registry = MetricsRegistry::new();
    let machine = Machine::new(program, pipeline.config().machine);
    let spec_machine =
        Machine::new(program, pipeline.config().machine).with_metrics(&registry, "optft.spec");
    let invariants = &statics.invariants;
    let (sound_racy, pred_racy) = (
        statics.races_sound.racy_sites(),
        statics.races_pred.racy_sites(),
    );
    let plans = fastpath::enabled().then(|| {
        let checker = InvariantChecker::plan_for(program, invariants, ChecksEnabled::for_optft());
        let mut optimistic =
            FastTrackTool::plan_for(program, Some(pred_racy), Some(&invariants.elidable_locks));
        optimistic.union_with(&checker);
        FtPlans {
            full: FastTrackTool::plan_for(program, None, None),
            hybrid: FastTrackTool::plan_for(program, Some(sound_racy), None),
            checker,
            optimistic,
        }
    });
    let plans = plans.as_ref();
    let mut full_races = BTreeSet::new();
    let mut final_races = BTreeSet::new();
    let mut runs = Vec::with_capacity(testing.len());
    let mut rollbacks = 0;
    for input in testing {
        baseline(&machine, input, led);

        let start = Instant::now();
        let mut full = FastTrackTool::full();
        machine.run_with_plan(input, &mut full, plans.map(|p| &p.full));
        if let Some(p) = plans {
            full.absorb_plan_elisions(&p.full.take_elisions());
        }
        led.ms("fasttrack.full_ms", start.elapsed());

        let start = Instant::now();
        let mut hybrid = FastTrackTool::hybrid(sound_racy);
        machine.run_with_plan(input, &mut hybrid, plans.map(|p| &p.hybrid));
        if let Some(p) = plans {
            hybrid.absorb_plan_elisions(&p.hybrid.take_elisions());
        }
        led.ms("fasttrack.hybrid_ms", start.elapsed());

        let start = Instant::now();
        let mut checker_only =
            InvariantChecker::new(program, invariants, ChecksEnabled::for_optft());
        machine.run_with_plan(input, &mut checker_only, plans.map(|p| &p.checker));
        if let Some(p) = plans {
            p.checker.take_elisions();
        }
        led.ms("invariants.check_ms", start.elapsed());

        let start = Instant::now();
        let opt_tool = FastTrackTool::optimistic(pred_racy, &invariants.elidable_locks);
        let checker = InvariantChecker::new(program, invariants, ChecksEnabled::for_optft());
        let mut combined = MultiTracer::new(opt_tool, checker);
        let (_, schedule) = spec_machine.run_recording_with_plan(
            input,
            &mut combined,
            plans.map(|p| &p.optimistic),
        );
        if let Some(p) = plans {
            combined
                .first
                .absorb_plan_elisions(&p.optimistic.take_elisions());
        }
        combined.first.record_metrics(&registry, "optft.ft");
        combined.second.record_metrics(&registry, "optft.check");
        led.ms("fasttrack.opt_ms", start.elapsed());
        let elided = combined.first.counters().elided_accesses;
        let executed = combined.first.detector().counters();
        led.add("fasttrack.elided_accesses", elided as f64);
        led.add(
            "fasttrack.accesses",
            (elided + executed.reads + executed.writes) as f64,
        );

        let opt_races = combined.first.race_pairs();
        let violations = combined.second.violations().count();
        let rolled_back = combined.second.is_violated()
            || (!invariants.elidable_locks.is_empty() && !opt_races.is_empty());
        led.add("invariants.testing_runs", 1.0);
        let races = if rolled_back {
            rollbacks += 1;
            led.add("invariants.rollbacks", 1.0);
            let start = Instant::now();
            let mut redo = FastTrackTool::hybrid(sound_racy);
            machine.run_replay_with_plan(input, &schedule, &mut redo, plans.map(|p| &p.hybrid));
            if let Some(p) = plans {
                redo.absorb_plan_elisions(&p.hybrid.take_elisions());
            }
            led.ms("rollback.ms", start.elapsed());
            redo.race_pairs()
        } else {
            opt_races
        };
        let full = full.race_pairs();
        runs.push(ft_run_json(
            rolled_back,
            violations,
            &full,
            &hybrid.race_pairs(),
            &races,
        ));
        full_races.extend(full);
        final_races.extend(races);
    }
    Dynamic {
        sound: full_races == final_races,
        runs,
        rollbacks,
    }
}

/// What OptSlice's dynamic phase needs from profiling and static analysis.
pub struct SliceStatics {
    pub invariants: InvariantSet,
    pub runs_used: usize,
    pub sound: SliceSide,
    pub pred: SliceSide,
}

pub struct SliceSide {
    pub pt: PointsTo,
    pub pt_at: Sensitivity,
    pub pt_time: Duration,
    pub slice: StaticSlice,
    pub slice_at: Sensitivity,
    pub slice_time: Duration,
}

/// One static side: the most accurate points-to and slicer that complete
/// (context-sensitive, else context-insensitive).
fn slice_side(
    program: &Program,
    endpoints: &[InstId],
    cfg: &PipelineConfig,
    pool: Pool,
    invariants: Option<&InvariantSet>,
) -> SliceSide {
    let start = Instant::now();
    let (pt, pt_at) = match analyze(
        program,
        &pt_config(cfg, pool, Sensitivity::ContextSensitive, invariants),
    ) {
        Ok(pt) => (pt, Sensitivity::ContextSensitive),
        Err(_) => (
            analyze(
                program,
                &pt_config(cfg, pool, Sensitivity::ContextInsensitive, invariants),
            )
            .expect("context-insensitive points-to always completes"),
            Sensitivity::ContextInsensitive,
        ),
    };
    let pt_time = start.elapsed();
    let sl_cfg = |sensitivity| SliceConfig {
        sensitivity,
        invariants,
        ctx_budget: cfg.ctx_budget,
        visit_budget: cfg.visit_budget,
        pool,
    };
    let start = Instant::now();
    let (slice, slice_at) = match slice(
        program,
        &pt,
        endpoints,
        &sl_cfg(Sensitivity::ContextSensitive),
    ) {
        Ok(s) => (s, Sensitivity::ContextSensitive),
        Err(_) => (
            slice(
                program,
                &pt,
                endpoints,
                &sl_cfg(Sensitivity::ContextInsensitive),
            )
            .expect("context-insensitive slicing always completes"),
            Sensitivity::ContextInsensitive,
        ),
    };
    SliceSide {
        pt,
        pt_at,
        pt_time,
        slice,
        slice_at,
        slice_time: start.elapsed(),
    }
}

/// OptSlice phase 2 on the profiled `invariants`: sound ∥ predicated
/// points-to and static slicing.
pub fn slice_statics(
    pipeline: &Pipeline,
    invariants: InvariantSet,
    runs_used: usize,
    endpoints: &[InstId],
    led: &mut Ledger,
) -> SliceStatics {
    let program = pipeline.program();
    let pool = pipeline.pool();
    let cfg = pipeline.config();
    let start = Instant::now();
    let (sound, pred) = pool.join(
        || slice_side(program, endpoints, cfg, pool, None),
        || slice_side(program, endpoints, cfg, pool, Some(&invariants)),
    );
    led.split(
        start.elapsed(),
        &[
            ("pointsto.solve_ms.sound", sound.pt_time),
            ("pointsto.solve_ms.pred", pred.pt_time),
            ("slicing.slice_ms", sound.slice_time + pred.slice_time),
        ],
    );
    led.pt_stats(&sound.pt.stats());
    led.pt_stats(&pred.pt.stats());
    led.add("slicing.slice_size.sound", sound.slice.len() as f64);
    led.add("slicing.slice_size.pred", pred.slice.len() as f64);
    SliceStatics {
        invariants,
        runs_used,
        sound,
        pred,
    }
}

fn slice_endpoints(tool: &GiriTool<'_>, endpoints: &[InstId]) -> DynamicSlice {
    let mut acc = DynamicSlice::default();
    for &e in endpoints {
        acc.union_with(&tool.slice_of(e));
    }
    acc
}

/// OptSlice phase 3 over the testing corpus.
pub fn slice_dynamic(
    pipeline: &Pipeline,
    invariants: &InvariantSet,
    sound_slice: &StaticSlice,
    pred_slice: &StaticSlice,
    testing: &[Vec<i64>],
    endpoints: &[InstId],
    led: &mut Ledger,
) -> Dynamic {
    let program = pipeline.program();
    let registry = MetricsRegistry::new();
    let machine = Machine::new(program, pipeline.config().machine);
    let spec_machine =
        Machine::new(program, pipeline.config().machine).with_metrics(&registry, "optslice.spec");
    let plans = fastpath::enabled().then(|| {
        let checker =
            InvariantChecker::plan_for(program, invariants, ChecksEnabled::for_optslice());
        let mut optimistic = GiriTool::plan_for(program, Some(pred_slice.sites()));
        optimistic.union_with(&checker);
        (
            GiriTool::plan_for(program, Some(sound_slice.sites())),
            checker,
            optimistic,
        )
    });
    let hybrid_plan = plans.as_ref().map(|p| &p.0);
    let checker_plan = plans.as_ref().map(|p| &p.1);
    let opt_plan = plans.as_ref().map(|p| &p.2);
    let mut all_equal = !testing.is_empty();
    let mut runs = Vec::with_capacity(testing.len());
    let mut rollbacks = 0;
    for input in testing {
        baseline(&machine, input, led);

        let start = Instant::now();
        let mut hybrid = GiriTool::hybrid(program, sound_slice.sites());
        machine.run_with_plan(input, &mut hybrid, hybrid_plan);
        if let Some(p) = hybrid_plan {
            hybrid.absorb_plan_elisions(&p.take_elisions());
        }
        let hybrid_slice = slice_endpoints(&hybrid, endpoints);
        led.ms("giri.hybrid_ms", start.elapsed());

        let start = Instant::now();
        let mut checker_only =
            InvariantChecker::new(program, invariants, ChecksEnabled::for_optslice());
        machine.run_with_plan(input, &mut checker_only, checker_plan);
        if let Some(p) = checker_plan {
            p.take_elisions();
        }
        led.ms("invariants.check_ms", start.elapsed());

        let start = Instant::now();
        let opt_tool = GiriTool::hybrid(program, pred_slice.sites());
        let checker = InvariantChecker::new(program, invariants, ChecksEnabled::for_optslice());
        let mut combined = MultiTracer::new(opt_tool, checker);
        let (_, schedule) = spec_machine.run_recording_with_plan(input, &mut combined, opt_plan);
        if let Some(p) = opt_plan {
            combined.first.absorb_plan_elisions(&p.take_elisions());
        }
        combined.first.record_metrics(&registry, "optslice.giri");
        combined.second.record_metrics(&registry, "optslice.check");
        let counters = combined.first.counters();
        led.add("giri.traced_events", counters.traced_events as f64);
        led.add(
            "giri.events",
            (counters.traced_events + counters.elided_events) as f64,
        );
        let rolled_back = combined.second.is_violated();
        let opt_slice = (!rolled_back).then(|| slice_endpoints(&combined.first, endpoints));
        led.ms("giri.opt_ms", start.elapsed());
        led.add("invariants.testing_runs", 1.0);

        let final_slice = match opt_slice {
            Some(s) => s,
            None => {
                rollbacks += 1;
                led.add("invariants.rollbacks", 1.0);
                let start = Instant::now();
                let mut redo = GiriTool::hybrid(program, sound_slice.sites());
                machine.run_replay_with_plan(input, &schedule, &mut redo, hybrid_plan);
                if let Some(p) = hybrid_plan {
                    redo.absorb_plan_elisions(&p.take_elisions());
                }
                let s = slice_endpoints(&redo, endpoints);
                led.ms("rollback.ms", start.elapsed());
                s
            }
        };
        let equal = final_slice == hybrid_slice;
        runs.push(slice_run_json(
            rolled_back,
            hybrid_slice.len(),
            final_slice.len(),
            equal,
        ));
        all_equal &= equal;
    }
    Dynamic {
        sound: all_equal,
        runs,
        rollbacks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oha_core::{optft_canonical_json, optslice_canonical_json};
    use oha_obs::Json;
    use oha_workloads::{c_suite, java_suite, WorkloadParams};

    /// The `runs` array of a canonical outcome, each run re-printed.
    fn canonical_runs(canonical: &str) -> Vec<String> {
        let json = Json::parse(canonical).expect("canonical JSON parses");
        let runs = json
            .get("runs")
            .and_then(Json::as_arr)
            .expect("runs array")
            .iter()
            .map(Json::to_string_compact)
            .collect::<Vec<_>>();
        assert!(!runs.is_empty(), "the outcome has testing runs");
        runs
    }

    fn reprinted(runs: impl Iterator<Item = String>) -> Vec<String> {
        runs.map(|r| {
            Json::parse(&r)
                .expect("run JSON parses")
                .to_string_compact()
        })
        .collect()
    }

    #[test]
    fn run_renderings_match_the_canonical_json() {
        let w = java_suite::xalan(&WorkloadParams::small());
        let o = Pipeline::new(w.program).run_optft(&w.profiling_inputs, &w.testing_inputs);
        let ours = o.runs.iter().map(|r| {
            ft_run_json(
                r.rolled_back,
                r.violations,
                &r.races_full,
                &r.races_hybrid,
                &r.races_opt,
            )
        });
        assert_eq!(reprinted(ours), canonical_runs(&optft_canonical_json(&o)));

        let w = c_suite::zlib(&WorkloadParams::small());
        let o = Pipeline::new(w.program).run_optslice(
            &w.profiling_inputs,
            &w.testing_inputs,
            &w.endpoints,
        );
        let ours = o.runs.iter().map(|r| {
            slice_run_json(
                r.rolled_back,
                r.hybrid_slice_len,
                r.opt_slice_len,
                r.slices_equal,
            )
        });
        assert_eq!(
            reprinted(ours),
            canonical_runs(&optslice_canonical_json(&o))
        );
    }
}
