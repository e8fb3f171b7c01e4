//! `run-fms`: a closed loop of 32-frame FMS simulations against one
//! artifact compiled during set-up, with no sporadic arrivals, so every
//! frame repeats and compile does no work inside the loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use fppn_apps::{fms_network, fms_wcet, FmsVariant};
use fppn_core::{run_zero_delay, BehaviorBank, JobOrdering, Observables, Stimuli};
use fppn_serve::ArtifactCache;
use fppn_sim::hotpath::SeqRounds;
use fppn_sim::{CompileConfig, CompiledNetwork, RunScratch, SimConfig, SimRun};
use fppn_time::TimeQ;

use crate::compile_cold::{compile_layers, traced_compile};
use crate::spans::Tracer;
use crate::stats::{mean, run_digest};
use crate::{block_of, Bench, Layers, Options, Pass};

/// Frames per simulation.
const FRAMES: u64 = 32;
/// Processors of the static schedule.
const PROCESSORS: usize = 2;
/// In a traced pass, every this-many ops also time the zero-delay
/// reference.
const REFERENCE_EVERY: u64 = 4;

/// Run-layer samples of a traced pass. Each split is a separate call
/// made after the op, through the public seams the library exposes.
#[derive(Debug, Default)]
pub(crate) struct RunSplit {
    pub total_ms: Vec<f64>,
    pub instantiate_us: Vec<f64>,
    pub engine_ms: Vec<f64>,
    pub rounds_ms: Vec<f64>,
    pub reference_ms: Vec<f64>,
    pub memo: (u64, u64),
    pub rounds: Vec<f64>,
    pub executed: Vec<f64>,
    pub skipped: Vec<f64>,
    pub deadline_misses: Vec<f64>,
}

impl RunSplit {
    /// Times the split calls for one run of `artifact` that took
    /// `total_ms` and produced `run`: bank instantiation, engine set-up,
    /// round computation, and (when `reference` is set) the zero-delay
    /// reference over the same horizon.
    #[allow(clippy::too_many_arguments)]
    pub fn sample(
        &mut self,
        tracer: &mut Tracer,
        request: u64,
        artifact: &CompiledNetwork,
        bank: &BehaviorBank,
        stimuli: &Stimuli,
        cfg: &SimConfig,
        total_ms: f64,
        run: &SimRun,
        reference: bool,
    ) -> Result<(), String> {
        let id = tracer.begin("run.bank_instantiate", None, request);
        let behaviors = bank.instantiate();
        tracer.end(id);
        self.instantiate_us.push(tracer.spans()[id].ms() * 1e3);
        drop(behaviors);
        let id = tracer.begin("run.engine_setup", None, request);
        let mut rounds = SeqRounds::new(
            artifact.net(),
            stimuli,
            artifact.derived(),
            artifact.tables(),
            cfg,
        )
        .map_err(|e| format!("engine set-up failed: {e}"))?;
        tracer.end(id);
        self.engine_ms.push(tracer.spans()[id].ms());
        let id = tracer.begin("run.rounds", None, request);
        rounds
            .compute()
            .map_err(|e| format!("round computation failed: {e}"))?;
        tracer.end(id);
        self.rounds_ms.push(tracer.spans()[id].ms());
        let (hits, misses) = rounds.memo_stats();
        self.memo.0 += hits;
        self.memo.1 += misses;
        if reference {
            let horizon = TimeQ::from_int(cfg.frames as i64) * artifact.derived().hyperperiod;
            let mut behaviors = bank.instantiate();
            let id = tracer.begin("run.reference", None, request);
            let zero_delay = run_zero_delay(
                artifact.net(),
                &mut behaviors,
                stimuli,
                horizon,
                JobOrdering::default(),
            );
            tracer.end(id);
            zero_delay.map_err(|e| format!("zero-delay reference failed: {e}"))?;
            self.reference_ms.push(tracer.spans()[id].ms());
        }
        self.total_ms.push(total_ms);
        self.rounds.push(run.records.len() as f64);
        self.executed.push(run.stats.executed as f64);
        self.skipped.push(run.stats.skipped as f64);
        self.deadline_misses.push(run.stats.deadline_misses as f64);
        Ok(())
    }

    /// The run-layer metrics: means per sampled run.
    pub fn layers(&self, out: &mut Layers) {
        let total = mean(&self.total_ms);
        let engine = mean(&self.engine_ms);
        let rounds = mean(&self.rounds_ms);
        let instantiate_ms = mean(&self.instantiate_us) / 1e3;
        out.insert("run.total_ms", total);
        out.insert("run.engine_setup_ms", engine);
        out.insert("run.rounds_ms", rounds);
        out.insert("run.bank_instantiate_us", mean(&self.instantiate_us));
        if !self.total_ms.is_empty() {
            out.insert("run.finalize_ms", total - engine - rounds - instantiate_ms);
            out.insert("run.rounds_per_s", mean(&self.rounds) / (total / 1e3));
        }
        out.insert("run.reference_ms", mean(&self.reference_ms));
        out.insert("run.memo_hits", self.memo.0 as f64);
        out.insert("run.memo_misses", self.memo.1 as f64);
        out.insert("run.rounds", mean(&self.rounds));
        out.insert("run.executed", mean(&self.executed));
        out.insert("run.skipped", mean(&self.skipped));
        out.insert("run.deadline_misses", mean(&self.deadline_misses));
    }
}

pub(crate) struct RunFms {
    artifact: Arc<CompiledNetwork>,
    bank: BehaviorBank,
    stimuli: Stimuli,
    cfg: SimConfig,
    scratch: RunScratch,
    reference: Observables,
    first_digest: u64,
    cache: ArtifactCache,
    ops: u64,
    split: RunSplit,
}

impl Bench for RunFms {
    fn setup(opts: &Options, tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let (net, bank, ids) = fms_network(FmsVariant::Original);
        let ccfg = CompileConfig::new(fms_wcet(&ids), PROCESSORS);
        let cache = ArtifactCache::new();
        let artifact = match tracer {
            Some(tracer) => traced_compile(&net, &ccfg, &cache, tracer, 0).artifact,
            None => cache.get_or_compile(&net, &ccfg),
        }
        .map_err(|e| format!("set-up compile failed: {e}"))?;
        let stimuli = Stimuli::new();
        let cfg = SimConfig {
            frames: FRAMES,
            ..Default::default()
        };
        let horizon = TimeQ::from_int(FRAMES as i64) * artifact.derived().hyperperiod;
        let reference = run_zero_delay(
            &net,
            &mut bank.instantiate(),
            &stimuli,
            horizon,
            JobOrdering::default(),
        )
        .map_err(|e| format!("zero-delay reference failed: {e}"))?
        .observables;
        let mut scratch = RunScratch::new();
        let first = artifact
            .simulate_with_scratch(&bank, &stimuli, &cfg, &mut scratch)
            .map_err(|e| format!("set-up run failed: {e}"))?;
        let mut first_digest = run_digest(&first);
        if opts.wrong_reference {
            first_digest ^= 1;
        }
        Ok(RunFms {
            artifact,
            bank,
            stimuli,
            cfg,
            scratch,
            reference,
            first_digest,
            cache,
            ops: 0,
            split: RunSplit::default(),
        })
    }

    fn measure(&mut self, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
        let mut pass = Pass::default();
        let start = Instant::now();
        loop {
            let elapsed = start.elapsed().as_secs_f64();
            if pass.attempted > 0 && elapsed >= seconds {
                break;
            }
            let request = self.ops;
            self.ops += 1;
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("run.total", None, request));
            let t0 = Instant::now();
            let run = self.artifact.simulate_with_scratch(
                &self.bank,
                &self.stimuli,
                &self.cfg,
                &mut self.scratch,
            );
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            let ok = match run {
                Ok(run) => {
                    if let Some(t) = tracer.as_deref_mut() {
                        self.split.sample(
                            t,
                            request,
                            &self.artifact,
                            &self.bank,
                            &self.stimuli,
                            &self.cfg,
                            ms,
                            &run,
                            request.is_multiple_of(REFERENCE_EVERY),
                        )?;
                    }
                    run.observables == self.reference && run_digest(&run) == self.first_digest
                }
                Err(_) => false,
            };
            pass.record(ms, ok, block_of(elapsed, seconds));
        }
        pass.capacity_rps = pass.block_rate();
        Ok(pass)
    }

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        compile_layers(tracer, out);
        let graph = &self.artifact.derived().graph;
        out.insert("compile.jobs", graph.job_count() as f64);
        out.insert("compile.edges", graph.edge_count() as f64);
        out.insert("cache.artifact_hits", self.cache.hits() as f64);
        out.insert("cache.artifact_misses", self.cache.misses() as f64);
        self.split.layers(out);
    }

    fn info(&self, info: &mut BTreeMap<&'static str, String>) {
        info.insert("network", "FMS original, no sporadic arrivals".to_owned());
        info.insert("frames", FRAMES.to_string());
        info.insert("processors", PROCESSORS.to_string());
        info.insert(
            "rounds_per_run",
            (self.artifact.derived().graph.job_count() as u64 * FRAMES).to_string(),
        );
    }
}
