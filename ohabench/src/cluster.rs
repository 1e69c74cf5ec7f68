//! The `serve-mix` workload: `nproc` closed-loop client connections from
//! this process to an in-process `oha_cluster::Router` fronting `nproc`
//! `oha-serve` workers (one compute thread each) that share one store.
//!
//! Requests come from a fixed key set, two Java and two C programs, each
//! with a fixed profiling corpus, in seeded blocks that hold, per key,
//! three store-hit reads (key corpus, fresh testing corpus: LRU miss,
//! store hit, dynamic phase only), one LRU repeat (the exact request that
//! primed the key) and one cold write (fresh profiling corpus: full
//! pipeline, then a store save): 60% / 20% / 20%.

use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use oha_cluster::{Router, RouterConfig, RouterStats, SupervisorConfig, Topology, WorkerSpec};
use oha_core::{optft_canonical_json, optslice_canonical_json, Pipeline};
use oha_ir::{parse_program, Fingerprint, FingerprintHasher, InstId};
use oha_obs::Json;
use oha_serve::{Client, ClientConfig, Request, Response, RetryPolicy, Tool};
use oha_store::{
    ArtifactKey, ArtifactKind, OptFtArtifact, OptSliceArtifact, ProfileArtifact,
    StaticSideArtifact, Store,
};
use oha_workloads::{c_suite, java_suite};

use crate::calib::HostSpeed;
use crate::gen::{self, Gen, Rng};
use crate::layers::{self, Ledger, PATIENCE};
use crate::report::{self, Outcome};
use crate::{setup, Args};

/// The key set: two Java and two C programs.
const KEYS: [(Tool, &str, Gen); 4] = [
    (Tool::OptFt, "lusearch", java_suite::lusearch),
    (Tool::OptFt, "pmd", java_suite::pmd),
    (Tool::OptSlice, "nginx", c_suite::nginx),
    (Tool::OptSlice, "zlib", c_suite::zlib),
];

/// The request mix of one block, per key: three store-hit reads, one
/// LRU repeat, one cold write. A block holds this for every key, in a
/// seeded order, so every block has the same composition.
const PER_KEY: [Class; 5] = [
    Class::StoreHit,
    Class::StoreHit,
    Class::StoreHit,
    Class::Lru,
    Class::Cold,
];

/// Blocks per measured second, sized on a 2-core host.
const BLOCKS_PER_SECOND: f64 = 0.75;

/// Responses per key byte-compared against the in-process oracle.
const ORACLE_PER_KEY: usize = 8;

/// Fresh processes whose set-up times give the median `setup_s`.
const SETUPS: usize = 7;

/// Host-speed probes (`calib.rs`) before the first block and between blocks.
const PROBES_PER_BLOCK: usize = 8;

/// Where the benchmark keeps sockets, worker logs and the store while it
/// runs, relative to the working directory (socket paths must stay
/// short). Removed when the run ends.
const RUN_DIR: &str = ".ohabench-run";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Class {
    StoreHit,
    Lru,
    Cold,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::StoreHit => "store_hit",
            Class::Lru => "lru_hit",
            Class::Cold => "cold",
        }
    }
}

struct Key {
    tool: Tool,
    text: String,
    /// Slice endpoints sent with OptSlice requests (empty for OptFT).
    endpoints: Vec<InstId>,
    profiling: Vec<Vec<i64>>,
    /// The testing corpus of the priming request (the LRU repeat).
    prime_testing: Vec<Vec<i64>>,
}

struct Req {
    class: Class,
    key: usize,
    /// Corpus seed of store-hit and cold requests.
    seed: u64,
}

impl Req {
    /// The request's (profiling, testing) corpora, generated on demand so
    /// the list costs no memory.
    fn corpora(&self, keys: &[Key]) -> (Vec<Vec<i64>>, Vec<Vec<i64>>) {
        let key = &keys[self.key];
        match self.class {
            Class::Lru => (key.profiling.clone(), key.prime_testing.clone()),
            Class::StoreHit => {
                let w = (KEYS[self.key].2)(&gen::params(self.seed));
                (key.profiling.clone(), w.testing_inputs)
            }
            Class::Cold => {
                let w = (KEYS[self.key].2)(&gen::params(self.seed));
                (w.profiling_inputs, w.testing_inputs)
            }
        }
    }
}

/// The key set, with corpora that are the same on every run.
fn make_keys() -> Vec<Key> {
    KEYS.iter()
        .enumerate()
        .map(|(k, &(tool, _, gen))| {
            let w = gen(&gen::params(gen::request_seed(gen::SETUP_SEED, k as u64)));
            Key {
                tool,
                text: oha_ir::print_program(&w.program),
                endpoints: if tool == Tool::OptSlice {
                    w.endpoints.clone()
                } else {
                    Vec::new()
                },
                profiling: w.profiling_inputs,
                prime_testing: w.testing_inputs,
            }
        })
        .collect()
}

fn make_requests(seed: u64, keys: usize, blocks: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut out = Vec::with_capacity(blocks * keys * PER_KEY.len());
    for _ in 0..blocks {
        let mut block: Vec<(Class, usize)> = (0..keys)
            .flat_map(|key| PER_KEY.iter().map(move |&class| (class, key)))
            .collect();
        rng.shuffle(&mut block);
        for (class, key) in block {
            out.push(Req {
                class,
                key,
                seed: gen::request_seed(seed, out.len() as u64),
            });
        }
    }
    out
}

fn raw_endpoints(key: &Key) -> Vec<u32> {
    key.endpoints.iter().map(|e| e.raw()).collect()
}

fn request_of(key: &Key, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> Request {
    Request::Analyze {
        tool: key.tool,
        program: key.text.clone(),
        profiling: profiling.to_vec(),
        testing: testing.to_vec(),
        endpoints: raw_endpoints(key),
        trace_id: 0,
    }
}

fn client(socket: &Path) -> io::Result<Client> {
    Client::connect_with(
        socket,
        ClientConfig {
            retry: RetryPolicy::none(),
            connect_timeout: Duration::from_secs(30),
            ..ClientConfig::default()
        },
    )
}

/// A router thread and its worker fleet. Dropping it shuts the fleet
/// down and waits for every worker to exit.
struct Cluster {
    dir: PathBuf,
    socket: PathBuf,
    worker_sockets: Vec<PathBuf>,
    pids: Vec<u64>,
    thread: Option<JoinHandle<io::Result<RouterStats>>>,
}

impl Cluster {
    fn start(dir: PathBuf, workers: usize) -> io::Result<Self> {
        std::fs::create_dir_all(&dir)?;
        let serve_bin = std::env::current_exe()?.with_file_name("oha-serve");
        let config = RouterConfig {
            socket: dir.join("router.sock"),
            supervisor: SupervisorConfig {
                workers,
                dir: dir.join("workers"),
                spec: WorkerSpec {
                    serve_bin: Some(serve_bin),
                    store_dir: Some(dir.join("store")),
                    threads: 1,
                    max_queue: 0,
                    faults_spec: None,
                },
                ..SupervisorConfig::default()
            },
            ..RouterConfig::default()
        };
        let router = Router::bind(config)?;
        let socket = router.socket().to_path_buf();
        let pids = router.supervisor().worker_pids();
        let worker_sockets = (0..workers)
            .map(|w| router.supervisor().socket(w))
            .collect();
        let thread = std::thread::spawn(move || router.run());
        let mut cluster = Cluster {
            dir,
            socket,
            worker_sockets,
            pids,
            thread: Some(thread),
        };
        // Ready means every worker answers its `stats` op.
        for s in &cluster.worker_sockets {
            if let Err(e) = client(s).and_then(|mut c| c.stats()) {
                cluster.stop();
                return Err(e);
            }
        }
        Ok(cluster)
    }

    fn store_dir(&self) -> PathBuf {
        self.dir.join("store")
    }

    /// The worker that owns `request` under the router's key routing.
    fn home(&self, request: &Request) -> usize {
        let key = Fingerprint::of_bytes(&request.cache_key_bytes()).0 as u64;
        Topology::new(self.worker_sockets.len()).home(key)
    }

    /// Shuts the fleet down (router first, then each worker in turn).
    fn stop(&mut self) -> Option<RouterStats> {
        let thread = self.thread.take()?;
        if let Ok(mut c) = client(&self.socket) {
            let _ = c.shutdown();
        }
        thread.join().ok().and_then(Result::ok)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Set-up: keys, request list, a fresh cluster and store, then one cold
/// request per key (which leaves its artifacts in the store and its
/// response in the home worker's LRU).
fn setup(args: &Args, dir: PathBuf, blocks: usize) -> io::Result<(Vec<Key>, Vec<Req>, Cluster)> {
    let keys = make_keys();
    let reqs = make_requests(args.seed, keys.len(), blocks);
    let cluster = Cluster::start(dir, oha_par::hardware_threads())?;
    let mut c = client(&cluster.socket)?;
    for key in &keys {
        let r = c.call(&request_of(key, &key.profiling, &key.prime_testing))?;
        if !r.ok {
            return Err(io::Error::other(format!("priming failed: {}", r.body)));
        }
    }
    Ok((keys, reqs, cluster))
}

/// One client-observed answer.
struct Served {
    /// When the request was sent (the order the rebuild replays).
    sent: Instant,
    latency: Duration,
    response: io::Result<Response>,
}

/// The closed loop: `clients` connections each take the next request of
/// the list as soon as their previous one is answered. The list is served
/// in blocks of `block` requests; when every client has finished a block,
/// the fleet is idle and this thread runs `between` before the next one.
/// Returns the answers and the wall time (s) without the pauses.
fn serve(
    socket: &Path,
    keys: &[Key],
    reqs: &[Req],
    clients: usize,
    block: usize,
    mut between: impl FnMut(),
) -> io::Result<(Vec<Served>, f64)> {
    let blocks = reqs.len().div_ceil(block);
    let next: Vec<AtomicUsize> = (0..blocks).map(|b| AtomicUsize::new(b * block)).collect();
    let meet = Barrier::new(clients + 1);
    let mut paused = Duration::ZERO;
    let start = Instant::now();
    let per_client: Vec<io::Result<Vec<(usize, Served)>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| -> io::Result<Vec<(usize, Served)>> {
                    // A client that cannot connect still meets the others
                    // at every block's end, so none waits for it forever.
                    let mut c = client(socket);
                    let mut out = Vec::new();
                    for (b, next) in next.iter().enumerate() {
                        let end = ((b + 1) * block).min(reqs.len());
                        while let Ok(c) = c.as_mut() {
                            let i = next.fetch_add(1, Ordering::SeqCst);
                            if i >= end {
                                break;
                            }
                            let r = &reqs[i];
                            let key = &keys[r.key];
                            let (profiling, testing) = r.corpora(keys);
                            let endpoints = raw_endpoints(key);
                            let t = Instant::now();
                            let response =
                                c.analyze(key.tool, &key.text, &profiling, &testing, &endpoints);
                            out.push((
                                i,
                                Served {
                                    sent: t,
                                    latency: t.elapsed(),
                                    response,
                                },
                            ));
                        }
                        meet.wait();
                        meet.wait();
                    }
                    c.map(|_| out)
                })
            })
            .collect();
        for b in 0..blocks {
            meet.wait();
            if b + 1 < blocks {
                let t = Instant::now();
                between();
                paused += t.elapsed();
            }
            meet.wait();
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = (start.elapsed() - paused).as_secs_f64();
    let mut slots: Vec<Option<Served>> = reqs.iter().map(|_| None).collect();
    for part in per_client {
        for (i, served) in part? {
            slots[i] = Some(served);
        }
    }
    let served = slots
        .into_iter()
        .map(|s| s.ok_or_else(|| io::Error::other("a request was never sent")))
        .collect::<io::Result<Vec<_>>>()?;
    Ok((served, wall))
}

/// The outside soundness check every response gets: OptFT's optimistic
/// races equal full FastTrack's; every OptSlice run's slices are equal.
fn sound(tool: Tool, body: &str) -> bool {
    let Ok(json) = Json::parse(body) else {
        return false;
    };
    match tool {
        Tool::OptFt => match (json.get("baseline_races"), json.get("optimistic_races")) {
            (Some(a), Some(b)) => a.to_string_compact() == b.to_string_compact(),
            _ => false,
        },
        Tool::OptSlice => matches!(json.get("all_slices_equal"), Some(Json::Bool(true))),
    }
}

/// The in-process oracle: the same request at pool width 1 with no store.
/// Returns the canonical bytes and the run's (baseline, speculative +
/// rollback) seconds.
fn oracle(key: &Key, profiling: &[Vec<i64>], testing: &[Vec<i64>]) -> (String, f64, f64) {
    let program = parse_program(&key.text).expect("printed IR parses");
    let pipeline = Pipeline::new(program).with_config(layers::config(1));
    match key.tool {
        Tool::OptFt => {
            let o = pipeline.run_optft(profiling, testing);
            let base = o.runs.iter().map(|r| r.baseline.as_secs_f64()).sum();
            let dynamic = o
                .runs
                .iter()
                .map(|r| (r.optimistic + r.rollback).as_secs_f64())
                .sum();
            (optft_canonical_json(&o), base, dynamic)
        }
        Tool::OptSlice => {
            let o = pipeline.run_optslice(profiling, testing, &key.endpoints);
            let base = o.runs.iter().map(|r| r.baseline.as_secs_f64()).sum();
            let dynamic = o
                .runs
                .iter()
                .map(|r| (r.optimistic + r.rollback).as_secs_f64())
                .sum();
            (optslice_canonical_json(&o), base, dynamic)
        }
    }
}

/// Checks every response; byte-compares a seeded sample of
/// `ORACLE_PER_KEY` requests per key against the oracle. Returns the
/// per-request verdicts and the oracle sample's (baseline, dynamic)
/// seconds.
fn check(seed: u64, keys: &[Key], reqs: &[Req], served: &[Served]) -> (Vec<bool>, f64, f64) {
    let mut ok: Vec<bool> = reqs
        .iter()
        .zip(served)
        .map(|(r, s)| match &s.response {
            Ok(resp) => resp.ok && !resp.busy && sound(keys[r.key].tool, &resp.body),
            Err(_) => false,
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x0ac1e);
    let (mut base, mut dynamic) = (0.0, 0.0);
    for (k, key) in keys.iter().enumerate() {
        let mut of_key: Vec<usize> = (0..reqs.len()).filter(|&i| reqs[i].key == k).collect();
        rng.shuffle(&mut of_key);
        for &i in of_key.iter().take(ORACLE_PER_KEY) {
            let (profiling, testing) = reqs[i].corpora(keys);
            let (bytes, b, d) = oracle(key, &profiling, &testing);
            base += b;
            dynamic += d;
            let same = matches!(&served[i].response, Ok(resp) if resp.body == bytes);
            ok[i] &= same;
        }
    }
    (ok, base, dynamic)
}

fn run_dir() -> PathBuf {
    Path::new(RUN_DIR).join(std::process::id().to_string())
}

/// Runs `f` in this process's run directory, then removes it (and the
/// parent directory once no other run uses it).
fn in_run_dir<T>(f: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
    let root = run_dir();
    let result = f(&root);
    let _ = std::fs::remove_dir_all(&root);
    if let Ok(mut parent) = std::fs::read_dir(RUN_DIR) {
        if parent.next().is_none() {
            let _ = std::fs::remove_dir(RUN_DIR);
        }
    }
    result
}

pub fn run(args: &Args) -> io::Result<Outcome> {
    in_run_dir(|root| {
        if args.trace {
            traced(args, root)
        } else {
            untraced(args, root)
        }
    })
}

/// `--setup-only`: set up, report readiness, shut the fleet down.
pub fn setup_only(args: &Args) -> io::Result<()> {
    in_run_dir(|root| {
        let live = setup(args, root.join("s0"), blocks(args))?;
        let mut out = io::stdout().lock();
        writeln!(out, "ready")?;
        out.flush()?;
        drop(live);
        Ok(())
    })
}

fn blocks(args: &Args) -> usize {
    (args.seconds as f64 * BLOCKS_PER_SECOND).round().max(1.0) as usize
}

fn untraced(args: &Args, root: &Path) -> io::Result<Outcome> {
    let clients = oha_par::hardware_threads();
    // This process's own set-up, timed from process start but without
    // the set-up processes, is reported next to the metric.
    let before = args.started.elapsed();
    let mut setups = setup::time_setups(args, SETUPS)?;
    let start = Instant::now();
    let (keys, reqs, mut cluster) = setup(args, root.join("s0"), blocks(args))?;
    let own_setup = (before + start.elapsed()).as_secs_f64();

    // Host-speed probes run before the first block and between blocks,
    // while the fleet is idle.
    let mut speed = HostSpeed::default();
    speed.sample(PROBES_PER_BLOCK);
    let block = keys.len() * PER_KEY.len();
    let (served, wall) = serve(&cluster.socket, &keys, &reqs, clients, block, || {
        speed.sample(PROBES_PER_BLOCK)
    })?;
    let peak = cluster
        .pids
        .iter()
        .filter_map(|&pid| report::peak_rss_mib(Some(pid)))
        .fold(0.0, f64::max);
    let stats = cluster.stop();

    let (ok, base, dynamic) = check(args.seed, &keys, &reqs, &served);
    let correct = ok.iter().filter(|&&v| v).count();
    let mut lat: Vec<f64> = served
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    lat.sort_by(f64::total_cmp);
    let failed = (reqs.len() - correct) as u64;
    let busy = served
        .iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.busy))
        .count();
    let (metrics, host) = report::end_to_end(
        &speed,
        report::median(&mut setups),
        correct as f64 / wall,
        &lat,
        dynamic / base,
        peak,
    );
    Ok(Outcome {
        attempted: reqs.len() as u64,
        failed,
        metrics,
        report: [
            host,
            vec![
                ("requests".into(), reqs.len().to_string()),
                ("clients".into(), clients.to_string()),
                ("workers".into(), clients.to_string()),
                (
                    "samples_beyond_p90".into(),
                    report::beyond(&lat, 0.9).to_string(),
                ),
                (
                    "failed_frac".into(),
                    report::json_num(failed as f64 / reqs.len() as f64),
                ),
                ("busy".into(), busy.to_string()),
                ("timed_wall_s".into(), report::json_num(wall)),
                ("setup_processes".into(), SETUPS.to_string()),
                ("own_setup_s".into(), report::json_num(own_setup)),
                (
                    "oracle_checked".into(),
                    (ORACLE_PER_KEY * keys.len()).to_string(),
                ),
                (
                    "dyn_overhead_source".into(),
                    report::json_str("in-process oracle re-runs of the sampled requests"),
                ),
                (
                    "router_failovers".into(),
                    stats.map_or("null".to_string(), |s| s.failovers.to_string()),
                ),
            ],
        ]
        .concat(),
    })
}

/// Median client-observed latency (ms) of the requests in `class`.
fn class_p50(reqs: &[Req], served: &[Served], class: Class) -> f64 {
    let mut v: Vec<f64> = reqs
        .iter()
        .zip(served)
        .filter(|(r, _)| r.class == class)
        .map(|(_, s)| s.latency.as_secs_f64() * 1e3)
        .collect();
    report::median(&mut v)
}

/// `cluster.hop_ms`: the same LRU-hit request sent through the router
/// minus sent straight to its home worker, median over alternating pairs.
fn hop_ms(cluster: &Cluster, keys: &[Key]) -> io::Result<f64> {
    let mut via = client(&cluster.socket)?;
    let mut direct: Vec<Client> = cluster
        .worker_sockets
        .iter()
        .map(|s| client(s))
        .collect::<io::Result<_>>()?;
    let (mut routed, mut straight) = (Vec::new(), Vec::new());
    for _ in 0..5 {
        for key in keys {
            let request = request_of(key, &key.profiling, &key.prime_testing);
            let home = cluster.home(&request);
            let t = Instant::now();
            via.call(&request)?;
            routed.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            direct[home].call(&request)?;
            straight.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    Ok(report::median(&mut routed) - report::median(&mut straight))
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The cluster-wide counters the traced run reports, from the router's
/// merged `stats` op.
struct ClusterStats {
    store_hits: f64,
    store_misses: f64,
    lru_hits: f64,
    failovers: f64,
}

fn cluster_stats(cluster: &Cluster) -> io::Result<ClusterStats> {
    let r = client(&cluster.socket)?.stats()?;
    let json = Json::parse(&r.body).map_err(|e| io::Error::other(e.to_string()))?;
    let num = |path: &[&str]| {
        path.iter()
            .try_fold(&json, |j, k| j.get(k))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ClusterStats {
        store_hits: num(&["totals", "store", "hits"]),
        store_misses: num(&["totals", "store", "misses"]),
        lru_hits: num(&["totals", "lru_hits"]),
        failovers: num(&["cluster", "failovers"]),
    })
}

fn endpoints_fingerprint(endpoints: &[InstId]) -> Fingerprint {
    let mut h = FingerprintHasher::new();
    h.write(b"oha-endpoints-v1");
    h.write_u64(endpoints.len() as u64);
    for &e in endpoints {
        h.write_u64(u64::from(e.raw()));
    }
    h.finish()
}

fn side_artifact(side: &layers::SliceSide) -> StaticSideArtifact {
    StaticSideArtifact {
        points_to_at: side.pt_at,
        points_to_ns: side.pt_time.as_nanos() as u64,
        slice_at: side.slice_at,
        slice_ns: side.slice_time.as_nanos() as u64,
        slice: side.slice.clone(),
        alias_rate: side.pt.alias_rate(),
        pt_stats: side.pt.stats(),
    }
}

/// Times one store call as `what` and counts it under `count`.
fn timed<T>(led: &mut Ledger, what: &'static str, count: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let r = f();
    led.ms(what, start.elapsed());
    led.add(count, 1.0);
    r
}

/// What the rebuild of one request found.
struct Rebuilt {
    /// Whether the static artifact came from the store.
    artifact_hit: bool,
    dynamic: layers::Dynamic,
}

/// The work the daemon did for one request, rebuilt in-process against
/// `mirror`, a store that has seen the same requests in the same order.
/// It follows the pipeline's store rules: parse; the profile from the
/// store, else profiling and a save; the static artifact from the store,
/// else the static phase; the dynamic phase; then, after a rollback, the
/// loaded artifact is invalidated and a fresh one is not saved, while a
/// clean fresh one is saved. LRU repeats never reach a pipeline and are
/// not rebuilt.
fn rebuild(
    key: &Key,
    profiling: &[Vec<i64>],
    testing: &[Vec<i64>],
    mirror: &Store,
    threads: usize,
    led: &mut Ledger,
) -> io::Result<Rebuilt> {
    let start = Instant::now();
    let program = parse_program(&key.text).expect("printed IR parses");
    led.ms("ir.parse_ms", start.elapsed());
    let pipeline = Pipeline::new(program).with_config(layers::config(threads));
    let fp = pipeline.program().fingerprint();

    let profile_key = pipeline.profile_key(profiling, PATIENCE);
    let loaded = timed(led, "store.load_ms", "store.loads", || {
        mirror.load_profile(&profile_key)
    });
    let (invariants, runs_used) = match loaded {
        Some(p) => (p.invariants, p.runs_used as usize),
        None => {
            let (invariants, runs_used) = layers::profile(&pipeline, profiling, led);
            let artifact = ProfileArtifact {
                invariants: invariants.clone(),
                runs_used: runs_used as u64,
                profile_ns: 0,
            };
            timed(led, "store.save_ms", "store.saves", || {
                mirror.save_profile(&profile_key, &artifact)
            })?;
            (invariants, runs_used)
        }
    };

    match key.tool {
        Tool::OptFt => {
            let predicate = invariants
                .fingerprint()
                .combine(pipeline.corpus_fingerprint(profiling, PATIENCE))
                .combine(pipeline.budget_fingerprint(false));
            let art_key = ArtifactKey::new(fp, predicate);
            let loaded = timed(led, "store.load_ms", "store.loads", || {
                mirror.load_optft(&art_key)
            });
            let artifact_hit = loaded.is_some();
            let statics = match loaded {
                Some(a) => layers::FtStatics {
                    invariants: a.invariants,
                    runs_used: a.profiling_runs_used as usize,
                    races_sound: a.races_sound,
                    races_pred: a.races_pred,
                    pt_sound_stats: a.pt_sound_stats,
                    pt_pred: a.pt_pred,
                },
                None => layers::ft_statics(&pipeline, invariants, runs_used, profiling, led),
            };
            let dynamic = layers::ft_dynamic(&pipeline, &statics, testing, led);
            if dynamic.rollbacks > 0 {
                if artifact_hit {
                    mirror.invalidate(ArtifactKind::OptFt, &art_key);
                }
            } else if !artifact_hit {
                let artifact = OptFtArtifact {
                    invariants: statics.invariants,
                    profiling_runs_used: statics.runs_used as u64,
                    races_sound: statics.races_sound,
                    races_pred: statics.races_pred,
                    pt_sound_stats: statics.pt_sound_stats,
                    pt_pred: statics.pt_pred,
                    profile_ns: 0,
                    sound_static_ns: 0,
                    pred_static_ns: 0,
                    elide_ns: 0,
                };
                timed(led, "store.save_ms", "store.saves", || {
                    mirror.save_optft(&art_key, &artifact)
                })?;
            }
            Ok(Rebuilt {
                artifact_hit,
                dynamic,
            })
        }
        Tool::OptSlice => {
            let predicate = invariants
                .fingerprint()
                .combine(endpoints_fingerprint(&key.endpoints))
                .combine(pipeline.budget_fingerprint(true));
            let art_key = ArtifactKey::new(fp, predicate);
            let loaded = timed(led, "store.load_ms", "store.loads", || {
                mirror.load_optslice(&art_key)
            });
            let Some(a) = loaded else {
                let statics =
                    layers::slice_statics(&pipeline, invariants, runs_used, &key.endpoints, led);
                let dynamic = layers::slice_dynamic(
                    &pipeline,
                    &statics.invariants,
                    &statics.sound.slice,
                    &statics.pred.slice,
                    testing,
                    &key.endpoints,
                    led,
                );
                if dynamic.rollbacks == 0 {
                    let artifact = OptSliceArtifact {
                        profiling_runs_used: statics.runs_used as u64,
                        profile_ns: 0,
                        sound: side_artifact(&statics.sound),
                        pred: side_artifact(&statics.pred),
                        invariants: statics.invariants,
                        pt_pred: statics.pred.pt,
                    };
                    timed(led, "store.save_ms", "store.saves", || {
                        mirror.save_optslice(&art_key, &artifact)
                    })?;
                }
                return Ok(Rebuilt {
                    artifact_hit: false,
                    dynamic,
                });
            };
            let dynamic = layers::slice_dynamic(
                &pipeline,
                &a.invariants,
                &a.sound.slice,
                &a.pred.slice,
                testing,
                &key.endpoints,
                led,
            );
            if dynamic.rollbacks > 0 {
                mirror.invalidate(ArtifactKind::OptSlice, &art_key);
            }
            Ok(Rebuilt {
                artifact_hit: true,
                dynamic,
            })
        }
    }
}

/// Whether a response's testing runs are exactly the rebuilt ones.
fn same_runs(response: &io::Result<Response>, rebuilt: &[String]) -> bool {
    let Some(Ok(body)) = response.as_ref().ok().map(|r| Json::parse(&r.body)) else {
        return false;
    };
    let Some(runs) = body.get("runs").and_then(Json::as_arr) else {
        return false;
    };
    runs.len() == rebuilt.len()
        && runs.iter().zip(rebuilt).all(|(a, b)| {
            Json::parse(b).is_ok_and(|b| b.to_string_compact() == a.to_string_compact())
        })
}

fn traced(args: &Args, root: &Path) -> io::Result<Outcome> {
    let clients = oha_par::hardware_threads();
    let (keys, reqs, mut cluster) = setup(args, root.join("s0"), blocks(args).div_ceil(2))?;
    let (served, _) = serve(&cluster.socket, &keys, &reqs, clients, reqs.len(), || ())?;
    let stats = cluster_stats(&cluster)?;
    let hop = hop_ms(&cluster, &keys)?;
    let store_bytes = dir_bytes(&cluster.store_dir());
    cluster.stop();

    // Rebuild the daemon-side work of every request in-process, at the
    // width each worker's pipelines get (host threads / compute threads),
    // against a mirror store that sees the priming requests and then the
    // served ones in the order they were sent.
    let mirror = Store::open(root.join("mirror-store"))?;
    for key in &keys {
        rebuild(
            key,
            &key.profiling,
            &key.prime_testing,
            &mirror,
            clients,
            &mut Ledger::default(),
        )?;
    }
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    order.sort_by_key(|&i| served[i].sent);
    let mut rebuilt: Vec<Option<Rebuilt>> = reqs.iter().map(|_| None).collect();
    let mut led = Ledger::default();
    let start = Instant::now();
    for i in order {
        if reqs[i].class != Class::Lru {
            let (profiling, testing) = reqs[i].corpora(&keys);
            let key = &keys[reqs[i].key];
            rebuilt[i] = Some(rebuild(
                key, &profiling, &testing, &mirror, clients, &mut led,
            )?);
        }
    }
    let rebuilt_ms = start.elapsed().as_secs_f64() * 1e3;
    let mirror_stats = mirror.stats();
    drop(mirror);

    // Self-checks: every rebuilt testing run (rollback decision,
    // violations, races or slice sizes) must be the one the daemon
    // returned, and the rebuild must be sound. Requests whose store path
    // differs from their class are counted, not failed: with concurrent
    // clients the daemons may see neighbouring requests in another order.
    let (ok, _, _) = check(args.seed, &keys, &reqs, &served);
    let (mut run_mismatch, mut hit_misses, mut cold_hits, mut rollbacks) = (0u64, 0u64, 0u64, 0);
    let mut failed = 0u64;
    for ((r, s), (b, ok)) in reqs.iter().zip(&served).zip(rebuilt.iter().zip(&ok)) {
        let rebuilt_ok = match b {
            None => true,
            Some(b) => {
                let same = same_runs(&s.response, &b.dynamic.runs);
                run_mismatch += u64::from(!same);
                hit_misses += u64::from(r.class == Class::StoreHit && !b.artifact_hit);
                cold_hits += u64::from(r.class == Class::Cold && b.artifact_hit);
                rollbacks += b.dynamic.rollbacks;
                same && b.dynamic.sound
            }
        };
        failed += u64::from(!(*ok && rebuilt_ok));
    }

    let client_ms: f64 = served.iter().map(|s| s.latency.as_secs_f64() * 1e3).sum();
    let n = reqs.len();
    let busy = served
        .iter()
        .filter(|s| matches!(&s.response, Ok(r) if r.busy))
        .count();
    let mut values = led.values(n);
    // Every request crosses the router once; the hop is charged to each.
    let layers_ms = led.request_layers_ms() + hop * n as f64;
    values.insert(
        "store.load_ms",
        led.get("store.load_ms") / led.get("store.loads").max(1.0),
    );
    values.insert(
        "store.save_ms",
        led.get("store.save_ms") / led.get("store.saves").max(1.0),
    );
    values.insert(
        "store.hit_frac",
        stats.store_hits / (stats.store_hits + stats.store_misses).max(1.0),
    );
    values.insert("store.bytes", store_bytes as f64);
    values.insert(
        "serve.lru_hit_ms.p50",
        class_p50(&reqs, &served, Class::Lru),
    );
    values.insert(
        "serve.store_hit_ms.p50",
        class_p50(&reqs, &served, Class::StoreHit),
    );
    values.insert("serve.cold_ms.p50", class_p50(&reqs, &served, Class::Cold));
    values.insert("serve.busy_frac", busy as f64 / n as f64);
    values.insert("cluster.hop_ms", hop);
    values.insert("cluster.failovers", stats.failovers);
    values.insert("par.fanout_us", layers::fanout_us(clients));
    values.insert("core.request_ms", client_ms / n as f64);
    values.insert("core.unattributed_frac", 1.0 - layers_ms / client_ms);
    values.insert(
        "obs.bench_trace_overhead_frac",
        rebuilt_ms / client_ms - 1.0,
    );
    let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
    let classes: Vec<String> = [Class::StoreHit, Class::Lru, Class::Cold]
        .iter()
        .map(|&c| format!("{}:{}", report::json_str(c.name()), count(c)))
        .collect();
    Ok(Outcome {
        attempted: n as u64,
        failed,
        metrics: report::per_layer(&values),
        report: vec![
            ("requests".into(), n.to_string()),
            ("classes".into(), format!("{{{}}}", classes.join(","))),
            ("run_mismatches".into(), run_mismatch.to_string()),
            ("rollbacks".into(), rollbacks.to_string()),
            (
                "store_hit_class_artifact_misses".into(),
                hit_misses.to_string(),
            ),
            ("cold_class_artifact_hits".into(), cold_hits.to_string()),
            ("store_hits".into(), report::json_num(stats.store_hits)),
            ("store_misses".into(), report::json_num(stats.store_misses)),
            ("rebuilt_store_hits".into(), mirror_stats.hits.to_string()),
            (
                "rebuilt_store_misses".into(),
                mirror_stats.misses.to_string(),
            ),
            ("lru_hits".into(), report::json_num(stats.lru_hits)),
        ],
    })
}
