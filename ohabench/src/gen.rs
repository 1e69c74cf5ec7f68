//! Seeded request generation.
//!
//! Every input the program sees is derived from the workload seed given
//! on the command line. Request `i` gets its own seed, mixed from
//! `(workload seed, i)` with splitmix64: the workload generators seed
//! corpus input `j` with `(seed + j) * 0x9e37`, so adjacent request seeds
//! would share all but one profiling input.

use oha_workloads::{c_suite, java_suite, Workload, WorkloadParams};

/// A workload generator from `oha-workloads`.
pub type Gen = fn(&WorkloadParams) -> Workload;

/// The 14 Java stand-ins OptFT runs on.
pub const JAVA: [(&str, Gen); 14] = [
    ("lusearch", java_suite::lusearch),
    ("pmd", java_suite::pmd),
    ("luindex", java_suite::luindex),
    ("moldyn", java_suite::moldyn),
    ("raytracer", java_suite::raytracer),
    ("sunflow", java_suite::sunflow),
    ("montecarlo", java_suite::montecarlo),
    ("batik", java_suite::batik),
    ("xalan", java_suite::xalan),
    ("sor", java_suite::sor),
    ("sparse", java_suite::sparse),
    ("series", java_suite::series),
    ("crypt", java_suite::crypt),
    ("lufact", java_suite::lufact),
];

/// The 7 C stand-ins OptSlice runs on.
pub const C: [(&str, Gen); 7] = [
    ("nginx", c_suite::nginx),
    ("redis", c_suite::redis),
    ("perl", c_suite::perl),
    ("vim", c_suite::vim),
    ("sphinx", c_suite::sphinx),
    ("go", c_suite::go),
    ("zlib", c_suite::zlib),
];

/// The corpus seed of set-up's own inputs (the in-process warm-up request
/// and the serve-mix key set). It is the same on every run, so set-up
/// does the same work whatever `--seed` is.
pub const SETUP_SEED: u64 = 0xbe9c4;

/// Request seeds stay below 2^48, so the generators' `seed + k` corpus
/// offsets never wrap.
const SEED_MASK: u64 = (1 << 48) - 1;

/// The splitmix64 finalizer.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seed of request `index` in a run seeded with `seed`.
pub fn request_seed(seed: u64, index: u64) -> u64 {
    splitmix64(splitmix64(seed) ^ index) & SEED_MASK
}

/// A small deterministic generator for orders and samples.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed ^ 0x5eed))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        splitmix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Benchmark-scale parameters (scale 220, 96 profiling and 12 testing
/// inputs) with the given corpus seed.
pub fn params(seed: u64) -> WorkloadParams {
    WorkloadParams {
        seed,
        ..WorkloadParams::benchmark()
    }
}

/// One planned request: which suite program, with which corpus seed.
#[derive(Clone, Copy)]
pub struct Planned {
    pub program: usize,
    pub seed: u64,
}

/// `blocks` seeded permutations of a suite of `len` programs, one request
/// per program per block, each with its own corpus seed. Every block
/// holds the same mix, so the latency distribution's shape does not
/// depend on the seed. Requests are built with [`build`] just before
/// they are sent, so the list costs no memory.
pub fn suite_plan(len: usize, seed: u64, blocks: usize) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::with_capacity(blocks * len);
    for _ in 0..blocks {
        let mut order: Vec<usize> = (0..len).collect();
        rng.shuffle(&mut order);
        for program in order {
            let seed = request_seed(seed, out.len() as u64);
            out.push(Planned { program, seed });
        }
    }
    out
}

/// The program and fresh corpora of a planned request.
pub fn build(suite: &[(&str, Gen)], planned: Planned) -> Workload {
    (suite[planned.program].1)(&params(planned.seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacent_requests_get_unrelated_seeds() {
        let a = request_seed(7, 0);
        let b = request_seed(7, 1);
        assert_ne!(a, b);
        assert!(a.abs_diff(b) > 1 << 20);
        assert_eq!(a, request_seed(7, 0));
    }

    #[test]
    fn blocks_hold_each_program_once() {
        let mut rng = Rng::new(3);
        let mut order: Vec<usize> = (0..14).collect();
        rng.shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..14).collect::<Vec<_>>());
    }
}
