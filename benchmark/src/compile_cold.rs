//! `compile-cold`: a closed loop of cold compiles. Each op compiles the
//! next network of a seeded pool through a fresh `ArtifactCache`, so every
//! compile misses; run and serve do no work.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fppn_apps::{fms_network, fms_wcet, random_workload, FmsVariant, WorkloadConfig};
use fppn_core::Fppn;
use fppn_sched::list_schedule;
use fppn_serve::ArtifactCache;
use fppn_sim::{compile_key, CompileConfig, CompileError, CompiledNetwork, StaticTables};
use fppn_taskgraph::derive_task_graph;
use fppn_time::TimeQ;

use crate::spans::Tracer;
use crate::stats::{mean, Rng};
use crate::{block_of, Bench, Layers, Options, Pass};

/// Random networks in the pool, besides FMS. A large pool keeps the
/// pool's median compile time close between seeds.
const POOL: usize = 160;
/// Periodic processes per random network.
const PERIODIC: usize = 40;
/// Candidate periods (ms) of the random networks.
const PERIODS_MS: [i64; 5] = [100, 200, 400, 800, 1600];
/// Processors every network is scheduled on.
const PROCESSORS: usize = 2;

/// What a correct compile of one network yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Expect {
    jobs: usize,
    edges: usize,
    key: u64,
    makespan: TimeQ,
}

impl Expect {
    fn of(artifact: &CompiledNetwork) -> Expect {
        let graph = &artifact.derived().graph;
        Expect {
            jobs: graph.job_count(),
            edges: graph.edge_count(),
            key: artifact.content_hash(),
            makespan: artifact.schedule().makespan(graph),
        }
    }
}

/// One compile made under a tracer.
pub(crate) struct TracedCompile {
    /// What `ArtifactCache::get_or_compile` returned.
    pub artifact: Result<Arc<CompiledNetwork>, CompileError>,
    /// Duration of the `compile.op` span around it.
    pub op_ms: f64,
    /// The values the split steps produced; `None` when they failed, or
    /// when the re-run reduction still removed edges.
    split: Option<Expect>,
}

/// Compiles `net` through `cache` under a `compile.op` span, then repeats
/// the compile's steps through the compile layer's public functions, one
/// span each: `derive_task_graph`, `list_schedule`, `StaticTables::build`
/// and `compile_key`. Last, `compile.reduce` re-runs the transitive
/// reduction on a copy of the derived graph: the call is idempotent, so it
/// must remove no edge, and its time stands in for the reduction's share
/// of derive.
pub(crate) fn traced_compile(
    net: &Fppn,
    cfg: &CompileConfig,
    cache: &ArtifactCache,
    tracer: &mut Tracer,
    request: u64,
) -> TracedCompile {
    let op = tracer.begin("compile.op", None, request);
    let artifact = cache.get_or_compile(net, cfg);
    tracer.end(op);
    let op_ms = tracer.spans()[op].ms();
    let split = match artifact {
        Ok(_) => split_compile(net, cfg, tracer, request),
        Err(_) => None,
    };
    TracedCompile {
        artifact,
        op_ms,
        split,
    }
}

fn split_compile(
    net: &Fppn,
    cfg: &CompileConfig,
    tracer: &mut Tracer,
    request: u64,
) -> Option<Expect> {
    let derived = tracer
        .time("compile.derive", None, request, || {
            derive_task_graph(net, &cfg.wcet)
        })
        .ok()?;
    let schedule = tracer.time("compile.schedule", None, request, || {
        list_schedule(&derived.graph, cfg.processors, cfg.heuristic)
    });
    let tables = tracer.time("compile.tables", None, request, || {
        StaticTables::build(net, &derived, &schedule)
    });
    black_box(&tables);
    let key = tracer.time("compile.key", None, request, || compile_key(net, cfg));
    let mut graph = derived.graph.clone();
    let removed = tracer.time("compile.reduce", None, request, || {
        graph.transitive_reduction()
    });
    (removed == 0).then(|| Expect {
        jobs: derived.graph.job_count(),
        edges: derived.graph.edge_count(),
        key,
        makespan: schedule.makespan(&derived.graph),
    })
}

/// The compile-layer metrics: mean per compile of each step's span, the
/// op's time the steps leave uncovered, and the share they cover.
pub(crate) fn compile_layers(tracer: &Tracer, out: &mut Layers) {
    let op = mean(&tracer.durations_ms("compile.op"));
    let mut parts = 0.0;
    for (metric, span) in [
        ("compile.derive_ms", "compile.derive"),
        ("compile.schedule_ms", "compile.schedule"),
        ("compile.tables_ms", "compile.tables"),
        ("compile.key_ms", "compile.key"),
    ] {
        let ms = mean(&tracer.durations_ms(span));
        parts += ms;
        out.insert(metric, ms);
    }
    out.insert(
        "compile.reduce_ms",
        mean(&tracer.durations_ms("compile.reduce")),
    );
    out.insert("compile.other_ms", op - parts);
    if op > 0.0 {
        out.insert("compile.covered_pct", parts / op * 100.0);
    }
}

struct Entry {
    net: Fppn,
    cfg: CompileConfig,
    expect: Expect,
}

pub(crate) struct CompileCold {
    pool: Vec<Entry>,
    next: usize,
    traced_jobs: Vec<f64>,
    traced_edges: Vec<f64>,
    cache_hits: u64,
    cache_misses: u64,
    lookup_us: Vec<f64>,
    jobs_total: usize,
}

/// The seeded pool: FMS first, then `POOL` random multirate networks.
fn networks(seed: u64) -> Vec<(Fppn, CompileConfig)> {
    let (fms, _, ids) = fms_network(FmsVariant::Original);
    let mut out = vec![(fms, CompileConfig::new(fms_wcet(&ids), PROCESSORS))];
    let mut rng = Rng::new(seed);
    for _ in 0..POOL {
        let w = random_workload(&WorkloadConfig {
            periodic: PERIODIC,
            sporadic: PERIODIC / 3,
            periods_ms: PERIODS_MS.to_vec(),
            seed: rng.next_u64(),
            ..WorkloadConfig::default()
        });
        out.push((w.net, CompileConfig::new(w.wcet, PROCESSORS)));
    }
    out
}

impl Bench for CompileCold {
    fn setup(opts: &Options, _tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let mut pool = Vec::with_capacity(POOL + 1);
        let mut jobs_total = 0;
        for (net, cfg) in networks(opts.seed) {
            let artifact = CompiledNetwork::compile(net.clone(), &cfg)
                .map_err(|e| format!("set-up compile failed: {e}"))?;
            let mut expect = Expect::of(&artifact);
            jobs_total += expect.jobs;
            if opts.wrong_reference {
                expect.jobs += 1;
            }
            pool.push(Entry { net, cfg, expect });
        }
        Ok(CompileCold {
            pool,
            next: 0,
            traced_jobs: Vec::new(),
            traced_edges: Vec::new(),
            cache_hits: 0,
            cache_misses: 0,
            lookup_us: Vec::new(),
            jobs_total,
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
            let entry = &self.pool[self.next % self.pool.len()];
            let request = self.next as u64;
            self.next += 1;
            let cache = ArtifactCache::new();
            let (ms, compiled, split_ok) = match tracer.as_deref_mut() {
                Some(tracer) => {
                    let t = traced_compile(&entry.net, &entry.cfg, &cache, tracer, request);
                    if let Some(split) = t.split {
                        self.traced_jobs.push(split.jobs as f64);
                        self.traced_edges.push(split.edges as f64);
                    }
                    (t.op_ms, t.artifact, t.split == Some(entry.expect))
                }
                None => {
                    let t0 = Instant::now();
                    let compiled = cache.get_or_compile(&entry.net, &entry.cfg);
                    (t0.elapsed().as_secs_f64() * 1e3, compiled, true)
                }
            };
            let ok = split_ok
                && match compiled {
                    Ok(artifact) => {
                        // A second request for the same pair must hit and
                        // share the artifact.
                        let t1 = Instant::now();
                        let hit = cache.get_or_compile(&entry.net, &entry.cfg);
                        self.lookup_us.push(t1.elapsed().as_secs_f64() * 1e6);
                        let shared = hit.is_ok_and(|h| Arc::ptr_eq(&h, &artifact));
                        shared && Expect::of(&artifact) == entry.expect
                    }
                    Err(_) => false,
                };
            self.cache_hits += cache.hits();
            self.cache_misses += cache.misses();
            pass.record(ms, ok, block_of(elapsed, seconds));
        }
        pass.capacity_rps = pass.block_rate();
        Ok(pass)
    }

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        compile_layers(tracer, out);
        out.insert("compile.jobs", mean(&self.traced_jobs));
        out.insert("compile.edges", mean(&self.traced_edges));
        out.insert("cache.artifact_hits", self.cache_hits as f64);
        out.insert("cache.artifact_misses", self.cache_misses as f64);
        out.insert("serve.lookup_us", mean(&self.lookup_us));
    }

    fn info(&self, info: &mut BTreeMap<&'static str, String>) {
        info.insert(
            "networks",
            format!("FMS + {POOL} random (n={PERIODIC}, periods {PERIODS_MS:?} ms)"),
        );
        info.insert("pool_jobs", self.jobs_total.to_string());
        info.insert("processors", PROCESSORS.to_string());
    }
}
