//! What every workload takes and gives back.

use crate::trace::{median, percentile};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a workload was asked to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Wall seconds the timed region should last.
    pub seconds: f64,
    pub traced: bool,
    /// Stop after this many steps instead of after `seconds`: the work
    /// is then a function of the seed alone, so counts and digests of
    /// two runs can be compared exactly.
    pub steps: Option<u64>,
    /// Shrunken sizes, for the smoke test.
    pub smoke: bool,
}

/// Run `f` and return its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Set up repeatedly, dropping each result before building the next,
/// and return the last one with the median set-up time: at least
/// three times, and cheap set-ups until half a second is spent (at
/// most 200 times), so a millisecond set-up is not one noisy reading.
pub fn set_up<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    const MIN_REPEATS: usize = 3;
    const MAX_REPEATS: usize = 200;
    const MIN_TOTAL: Duration = Duration::from_millis(500);
    let all_started = Instant::now();
    let mut times = Vec::new();
    let mut built = None;
    while times.len() < MIN_REPEATS
        || (times.len() < MAX_REPEATS && all_started.elapsed() < MIN_TOTAL)
    {
        drop(built.take());
        let (b, s) = timed(&mut build);
        built = Some(b);
        times.push(s);
    }
    (built.expect("built at least once"), median(&times))
}

/// Share of the time budget a traced run spends on its untraced
/// reference segment, which `trace_overhead_share` is measured against.
pub const REFERENCE_SHARE: f64 = 0.3;

/// When a timed region ends: after a wall-clock budget or a step count.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    started: Instant,
    wall: Duration,
    steps: Option<u64>,
}

impl Budget {
    /// `share` of the run's budget, starting now.
    pub fn start(args: &RunArgs, share: f64) -> Budget {
        Budget {
            started: Instant::now(),
            wall: Duration::from_secs_f64(args.seconds * share),
            steps: args
                .steps
                .map(|s| ((s as f64 * share).ceil() as u64).max(1)),
        }
    }

    /// Never spent: the region ends when the workload's own horizon does.
    pub fn until_horizon() -> Budget {
        Budget {
            started: Instant::now(),
            wall: Duration::MAX,
            steps: None,
        }
    }

    pub fn spent(&self, steps_done: u64) -> bool {
        match self.steps {
            Some(n) => steps_done >= n,
            None => self.started.elapsed() >= self.wall,
        }
    }
}

/// Pieces of a timed region that each do the same kind and amount of
/// work, each with its own wall time. A rate is reported as the upper
/// quartile of the pieces' rates. The sandbox this runs in slows the
/// process down for a second or so at a time, for up to half of a run
/// (seen as runs of slices at two thirds of the usual rate); such
/// interference only ever slows a piece, so the upper quartile stays
/// on the undisturbed rate where the median wanders with the share of
/// disturbed pieces. A change that makes every piece slower moves the
/// quartile exactly as it moves the median.
#[derive(Debug, Default, Clone)]
pub struct Slices {
    pub packets: Vec<u64>,
    pub flows: Vec<u64>,
    pub wall_s: Vec<f64>,
}

impl Slices {
    pub fn push(&mut self, packets: u64, flows: u64, wall_s: f64) {
        self.packets.push(packets);
        self.flows.push(flows);
        self.wall_s.push(wall_s);
    }

    pub fn len(&self) -> usize {
        self.wall_s.len()
    }

    pub fn total_packets(&self) -> u64 {
        self.packets.iter().sum()
    }

    pub fn total_flows(&self) -> u64 {
        self.flows.iter().sum()
    }

    pub fn total_wall_s(&self) -> f64 {
        self.wall_s.iter().sum()
    }

    fn rate(work: &[u64], wall_s: &[f64]) -> f64 {
        let mut rates: Vec<f64> = work
            .iter()
            .zip(wall_s)
            .map(|(w, s)| *w as f64 / s.max(1e-12))
            .collect();
        rates.sort_by(f64::total_cmp);
        // Nearest rank: with fewer than four pieces this is the best.
        percentile(&rates, 0.75)
    }

    pub fn packets_per_s(&self) -> f64 {
        Slices::rate(&self.packets, &self.wall_s)
    }

    pub fn flows_per_s(&self) -> f64 {
        Slices::rate(&self.flows, &self.wall_s)
    }

    /// Wall nanoseconds per packet at the reported rate.
    pub fn ns_per_packet(&self) -> f64 {
        1e9 / self.packets_per_s().max(1e-12)
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub setup_s: f64,
    pub flows_per_s: f64,
    pub packets_per_s: f64,
    pub delivered_share: f64,
    /// Packets (study: simulated sends) the timed region offered.
    pub attempted: u64,
    /// Output checks that did not hold; any makes the run incorrect.
    pub failures: Vec<String>,
    /// Fingerprint of the run's deterministic outputs.
    pub digest: u64,
    /// Exact counts behind the metrics, for `compare`.
    pub counts: BTreeMap<&'static str, u64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        if !holds {
            self.failures.push(what());
        }
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            crate::spec::spec().per_layer.iter().any(|m| m.name == name),
            "unlisted per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

/// FNV-1a, the fingerprint family the product's digests use.
pub fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(hash, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// SplitMix64: the benchmark's own input generator, so inputs depend
/// on `--seed` and nothing else.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-32 for
    /// every `n` used here.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
