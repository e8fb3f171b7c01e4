//! The repository benchmark: three seeded workloads over the compile, run
//! and serve layers, each op's output checked, end-to-end metrics from an
//! untraced run and per-layer metrics from a separate traced run.
//!
//! See `README.md` in this directory for the layer → metric → workload
//! map and how to run it.

#![warn(missing_docs)]

mod compile_cold;
mod run_fms;
mod serve_mix;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use spans::Tracer;

/// The end-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("latency_ms_p50", "ms"),
    ("capacity_rps", "1/s"),
];

/// The per-layer metrics every traced run prints, with their units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("compile.derive_ms", "ms"),
    ("compile.reduce_ms", "ms"),
    ("compile.schedule_ms", "ms"),
    ("compile.tables_ms", "ms"),
    ("compile.key_ms", "ms"),
    ("compile.other_ms", "ms"),
    ("compile.covered_pct", "%"),
    ("compile.jobs", "count"),
    ("compile.edges", "count"),
    ("cache.artifact_hits", "count"),
    ("cache.artifact_misses", "count"),
    ("run.engine_setup_ms", "ms"),
    ("run.rounds_ms", "ms"),
    ("run.finalize_ms", "ms"),
    ("run.total_ms", "ms"),
    ("run.reference_ms", "ms"),
    ("run.bank_instantiate_us", "us"),
    ("run.memo_hits", "count"),
    ("run.memo_misses", "count"),
    ("run.rounds", "count"),
    ("run.executed", "count"),
    ("run.skipped", "count"),
    ("run.deadline_misses", "count"),
    ("run.rounds_per_s", "1/s"),
    ("serve.submit_us", "us"),
    ("serve.lookup_us", "us"),
    ("serve.service_ms.fms", "ms"),
    ("serve.service_ms.fft", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.handoff_ms", "ms"),
    ("serve.backlog_max", "count"),
    ("serve.gen_late_ms_p99", "ms"),
    ("serve.admitted", "count"),
    ("serve.completed", "count"),
    ("serve.rejected", "count"),
    ("serve.run_cache_hits", "count"),
    ("serve.latency_ms_p50.r1", "ms"),
    ("serve.latency_ms_p50.r2", "ms"),
    ("serve.latency_ms_p50.r3", "ms"),
    ("serve.latency_ms_p99.r1", "ms"),
    ("serve.latency_ms_p99.r2", "ms"),
    ("serve.latency_ms_p99.r3", "ms"),
    ("e2e.latency_ms_p90", "ms"),
    ("e2e.latency_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Consecutive blocks a measured window is cut into. The median latency
/// and the op rate are taken per block and their median over blocks is
/// reported, so a burst of host noise in a few blocks does not move it.
pub(crate) const BLOCKS: usize = 20;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop of cold compiles through a fresh `ArtifactCache`.
    CompileCold,
    /// Closed loop of 32-frame FMS simulations against one artifact.
    RunFms,
    /// Open-loop Poisson traffic at three fixed rates through `Server`.
    ServeMix,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::CompileCold, Workload::RunFms, Workload::ServeMix];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileCold => "compile-cold",
            Workload::RunFms => "run-fms",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload to run.
    pub workload: Workload,
    /// Seeds every generated input.
    pub seed: u64,
    /// Measurement time of one run.
    pub seconds: f64,
    /// Print per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Where a traced run writes its spans (`None`: not written).
    pub spans_out: Option<PathBuf>,
    /// Corrupt every expected value computed during set-up, so that each
    /// checked op must count as failed. Exists to test the checks.
    pub wrong_reference: bool,
}

/// A metric value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Value as measured.
    pub value: f64,
    /// Unit, as listed in [`END_TO_END`] / [`PER_LAYER`].
    pub unit: &'static str,
}

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every checked output was correct.
    pub correct: bool,
    /// Ops attempted in the measured window(s).
    pub attempted: u64,
    /// Ops that failed, were refused, or returned a wrong output.
    pub failed: u64,
    /// Metrics by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Run context (host parallelism, pool size, sizes, rates).
    pub info: BTreeMap<&'static str, String>,
}

impl Outcome {
    /// The one-line JSON result object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run context as one JSON object.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Every environment variable starting with `FPPN_`. The library's
/// `Default` configs resolve several of them, so the benchmark refuses
/// to run while any is set.
pub fn fppn_env_vars() -> Vec<String> {
    std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("FPPN_"))
        .collect()
}

/// The measured window of one pass over a workload.
#[derive(Debug, Default)]
pub(crate) struct Pass {
    /// Latency of every attempted op, in ms.
    pub latencies_ms: Vec<f64>,
    /// The block (`0..BLOCKS`) each op fell in.
    pub blocks: Vec<usize>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed, refused or wrong.
    pub failed: u64,
    /// Sustained rate: completed ops per second for a closed loop, the
    /// highest offered rate meeting the latency limit for an open loop.
    pub capacity_rps: f64,
}

impl Pass {
    /// Counts one op: its latency, whether it passed its checks, and its
    /// block.
    pub fn record(&mut self, latency_ms: f64, ok: bool, block: usize) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.latencies_ms.push(latency_ms);
        self.blocks.push(block.min(BLOCKS - 1));
    }

    /// The median over blocks of each block's median latency.
    pub fn block_median(&self) -> f64 {
        let medians: Vec<f64> = self
            .per_block()
            .iter()
            .map(|lat| stats::median(lat))
            .collect();
        stats::median(&medians)
    }

    /// The median over blocks of ops completed per busy second, for a
    /// closed loop whose ops run back to back.
    pub fn block_rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .per_block()
            .iter()
            .map(|lat| lat.len() as f64 / (lat.iter().sum::<f64>() / 1e3))
            .collect();
        stats::median(&rates)
    }

    fn per_block(&self) -> Vec<Vec<f64>> {
        let mut blocks = vec![Vec::new(); BLOCKS];
        for (&lat, &b) in self.latencies_ms.iter().zip(&self.blocks) {
            blocks[b].push(lat);
        }
        blocks.retain(|lat| !lat.is_empty());
        blocks
    }
}

/// The block an op starting `elapsed_s` into a `seconds`-long window falls in.
pub(crate) fn block_of(elapsed_s: f64, seconds: f64) -> usize {
    ((elapsed_s / seconds * BLOCKS as f64) as usize).min(BLOCKS - 1)
}

/// Per-layer metric values a workload fills in; unset names read 0, the
/// value of a layer the workload does not exercise.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// One workload's set-up state and measurement loop.
pub(crate) trait Bench: Sized {
    /// Builds every input and artifact. With a tracer, records the set-up
    /// calls into each layer.
    fn setup(opts: &Options, tracer: Option<&mut Tracer>) -> Result<Self, String>;

    /// Runs the workload for `seconds`, checking every op. With a
    /// tracer, records spans around each layer call and may make extra
    /// calls that split a layer's time.
    fn measure(&mut self, seconds: f64, tracer: Option<&mut Tracer>) -> Result<Pass, String>;

    /// Fills the per-layer metrics after a traced pass.
    fn layers(&self, tracer: &Tracer, out: &mut Layers);

    /// Sizes and settings to print with the result.
    fn info(&self, info: &mut BTreeMap<&'static str, String>);
}

/// Runs one invocation.
///
/// # Errors
///
/// Returns a message when set-up or measurement cannot proceed (a
/// failing library call that is not an op of the workload).
pub fn run(opts: &Options) -> Result<Outcome, String> {
    match opts.workload {
        Workload::CompileCold => run_bench::<compile_cold::CompileCold>(opts),
        Workload::RunFms => run_bench::<run_fms::RunFms>(opts),
        Workload::ServeMix => run_bench::<serve_mix::ServeMix>(opts),
    }
}

fn run_bench<B: Bench>(opts: &Options) -> Result<Outcome, String> {
    let mut info = BTreeMap::new();
    info.insert("workload", opts.workload.name().to_owned());
    info.insert("seed", opts.seed.to_string());
    info.insert(
        "nproc",
        std::thread::available_parallelism()
            .map_or(1, usize::from)
            .to_string(),
    );
    let mut metrics = BTreeMap::new();
    let (attempted, failed) = if opts.trace {
        let mut tracer = Tracer::new(Instant::now());
        let mut bench = B::setup(opts, Some(&mut tracer))?;
        // The first half runs untraced as the overhead baseline.
        let base = bench.measure(opts.seconds / 2.0, None)?;
        let traced = bench.measure(opts.seconds / 2.0, Some(&mut tracer))?;
        let mut layers = Layers::new();
        bench.layers(&tracer, &mut layers);
        let overhead = stats::median(&traced.latencies_ms) / stats::median(&base.latencies_ms);
        layers.insert("trace.overhead_pct", (overhead - 1.0) * 100.0);
        // The tail of the untraced half: too unsteady between runs on a
        // small shared host to gate on, so it is reported here only.
        layers.insert(
            "e2e.latency_ms_p90",
            stats::quantile(&base.latencies_ms, 0.9),
        );
        layers.insert(
            "e2e.latency_ms_p99",
            stats::quantile(&base.latencies_ms, 0.99),
        );
        layers.insert("trace.spans", tracer.spans().len() as f64);
        for (name, unit) in PER_LAYER {
            let value = layers.remove(name).unwrap_or(0.0);
            metrics.insert((*name).to_owned(), Metric { value, unit });
        }
        assert!(layers.is_empty(), "unlisted per-layer metrics: {layers:?}");
        if let Some(path) = &opts.spans_out {
            tracer
                .write_tsv(path)
                .map_err(|e| format!("cannot write spans to {}: {e}", path.display()))?;
        }
        bench.info(&mut info);
        (
            base.attempted + traced.attempted,
            base.failed + traced.failed,
        )
    } else {
        let mut setup_s = Vec::with_capacity(SETUPS);
        let mut bench = None;
        for _ in 0..SETUPS {
            // Drop the previous set-up first, so each starts from the same
            // heap state.
            drop(bench.take());
            let t0 = Instant::now();
            bench = Some(B::setup(opts, None)?);
            setup_s.push(t0.elapsed().as_secs_f64());
        }
        let mut bench = bench.expect("at least one set-up");
        let pass = bench.measure(opts.seconds, None)?;
        let ok = pass.attempted - pass.failed;
        let values = [
            ("setup_s", stats::median(&setup_s)),
            ("peak_rss_mb", stats::peak_rss_mb()?),
            ("ok_ratio", ok as f64 / pass.attempted.max(1) as f64),
            ("latency_ms_p50", pass.block_median()),
            ("capacity_rps", pass.capacity_rps),
        ];
        for ((name, unit), (vname, value)) in END_TO_END.iter().zip(values) {
            assert_eq!(
                *name, vname,
                "END_TO_END and the values are listed in one order"
            );
            metrics.insert((*name).to_owned(), Metric { value, unit });
        }
        info.insert("ops", pass.attempted.to_string());
        bench.info(&mut info);
        (pass.attempted, pass.failed)
    };
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        info,
    })
}
