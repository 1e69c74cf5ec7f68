//! Host-speed calibration.
//!
//! The benchmark runs on virtual machines that share their cores with
//! other tenants. Such a host's speed drifts by a third or more over tens
//! of minutes, and every time the benchmark measures moves with it, while
//! the program has not changed. To keep runs comparable, a run times a
//! fixed probe of its own between requests, when the program is idle,
//! and reports each time metric scaled by
//! `(PROBE_REF_MS / probe median)^EXPONENT`: about the time the program
//! would take on a host where the probe takes `PROBE_REF_MS`. The probe
//! uses none of the repository's code, so no change to the program moves
//! it. The raw times and the probe median are in the report line.
//!
//! A request has serial phases and phases fanned out over every core,
//! and every fan-out starts and joins scoped threads
//! (`oha_par::Pool::par_map`). A shared host slows these differently: a
//! busy sibling hyperthread slows a core only while both of its threads
//! run, and starting a thread waits on the other cores. So one probe does
//! three things one after another, and its time is their sum: a piece of
//! work on one thread, a piece half that size on every core at once, and
//! `SPAWNS` empty scoped threads started and joined in turn. In runs
//! interleaved over the three workloads while the host's speed drifted,
//! request times moved about as much as this probe's time; a serial probe
//! alone moved too little (`METRICS.md`, "Noise"). But in some periods
//! the probe slowed by a third while the requests did not, and a full
//! correction then adds that third to every time metric. So the scale
//! corrects three quarters of a drift (`EXPONENT`).

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::splitmix64;
use crate::report;

/// The probe's wall time (ms) on the reference host. It only sets the
/// scale of the reported times; it is about the probe's time on a 2-core
/// virtual machine (Intel Xeon, 2.1 GHz) with both cores free.
pub const PROBE_REF_MS: f64 = 4.0;

/// The share of the probe's drift, in log terms, taken out of the times.
const EXPONENT: f64 = 0.75;

/// Steps of the serial piece of probe work: about 2 ms on the reference
/// host. Each fanned-out piece has half as many.
const STEPS: u64 = 60_000;

/// Empty scoped threads a probe starts and joins, one at a time: about
/// 0.5 ms on the reference host. Thread start-up time swings more than
/// the requests do, so it gets the smallest share.
const SPAWNS: usize = 10;

/// One piece of probe work, `steps` long: a fixed mix of the kinds of
/// work the analyses do, a branchy dispatch loop over a register file and
/// a memory array, hash map updates and short-lived vectors. Returns a
/// checksum so nothing is optimized away.
fn probe_work(steps: u64) -> u64 {
    let mut mem = vec![0u64; 1 << 14];
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut regs = [0u64; 8];
    let mut x = 0xba5e_ba11_u64;
    for step in 0..steps {
        x = splitmix64(x);
        let r = (x >> 8) as usize & 7;
        let addr = (x >> 16) as usize & (mem.len() - 1);
        match x % 6 {
            0 => mem[addr] = mem[addr].wrapping_add(regs[r] ^ step),
            1 => regs[r] = regs[r].wrapping_add(mem[addr]),
            2 => *map.entry(x & 4095).or_default() += regs[r] & 0xff,
            3 => regs[r] ^= map.get(&(x >> 40 & 4095)).copied().unwrap_or(step),
            4 => {
                let v: Vec<u64> = (0..(x >> 32 & 15)).map(|k| k ^ regs[r]).collect();
                regs[r] = regs[r].wrapping_add(v.iter().sum::<u64>());
            }
            _ => regs[r] = regs[r].rotate_left(7).wrapping_mul(0x9e37),
        }
    }
    regs.iter().fold(map.len() as u64, |a, &b| a ^ b)
}

/// Probe wall times (ms) taken over one run.
#[derive(Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    /// Times `count` probes. Call it only while the program is idle.
    pub fn sample(&mut self, count: usize) {
        let cores = oha_par::hardware_threads();
        for _ in 0..count {
            let start = Instant::now();
            black_box(probe_work(STEPS));
            std::thread::scope(|s| {
                for _ in 0..cores {
                    s.spawn(|| black_box(probe_work(STEPS / 2)));
                }
            });
            for _ in 0..SPAWNS {
                std::thread::scope(|s| {
                    s.spawn(|| black_box(0u64));
                });
            }
            self.samples.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    /// The median probe time (ms).
    pub fn median_ms(&self) -> f64 {
        report::median(&mut self.samples.clone())
    }

    /// The factor that turns a time measured in this run into reference
    /// host time: `(PROBE_REF_MS / median probe time)^EXPONENT`.
    pub fn scale(&self) -> f64 {
        (PROBE_REF_MS / self.median_ms()).powf(EXPONENT)
    }

    /// The report-line entries: probe count, median and scale.
    pub fn report(&self) -> Vec<(String, String)> {
        vec![
            ("probes".into(), self.samples.len().to_string()),
            ("probe_ms".into(), report::json_num(self.median_ms())),
            ("host_scale".into(), report::json_num(self.scale())),
        ]
    }
}
