//! Order statistics, memory, a seeded RNG and run digests.

use fppn_sim::SimRun;
use fppn_time::ContentHasher;

/// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank; 0 when empty, like
/// [`mean`].
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean; 0 when empty, so an unexercised layer reads 0.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// SplitMix64: a small seeded generator for the benchmark's own inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(fppn_apps::mix64(seed))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let z = self.0;
        self.0 = self.0.wrapping_add(1);
        fppn_apps::mix64(z)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// An exponential draw with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// A digest of a run's round records and statistics: equal runs give
/// equal digests, and any changed record changes it.
pub fn run_digest(run: &SimRun) -> u64 {
    let mut h = ContentHasher::new();
    h.write_usize(run.records.len());
    for r in &run.records {
        h.write_usize(r.process.index());
        h.write_u64(r.frame);
        h.write_usize(r.job.index());
        h.write_u64(r.global_k);
        h.write_usize(r.processor);
        h.write_time(r.invoked_at);
        h.write_time(r.start);
        h.write_time(r.completion);
        h.write_time(r.deadline);
        h.write_bool(r.missed);
        h.write_bool(r.skipped);
    }
    let s = &run.stats;
    h.write_usize(s.executed);
    h.write_usize(s.skipped);
    h.write_usize(s.deadline_misses);
    h.write_time(s.max_lateness);
    h.write_time(s.makespan);
    h.finish()
}
