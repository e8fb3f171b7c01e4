//! `serve-mix`: open-loop Poisson traffic from two tenants through
//! `fppn-serve`, at three fixed rates. Every request is timed from when
//! it was due, and its served run is checked against a direct run of the
//! same request after the measured window.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fppn_apps::{fft_network, fft_wcet, fms_network, fms_wcet, FmsVariant};
use fppn_core::{BehaviorBank, Fppn, PortId, Stimuli, Value};
use fppn_serve::{AdmissionError, RunRequest, RunTicket, Server, ServerConfig};
use fppn_sim::{
    clip_stimuli, random_stimuli, CompileConfig, CompiledNetwork, RunScratch, SimConfig,
};
use fppn_time::TimeQ;

use crate::compile_cold::{compile_layers, traced_compile};
use crate::run_fms::RunSplit;
use crate::spans::Tracer;
use crate::stats::{mean, median, quantile, run_digest, Rng};
use crate::{Bench, Layers, Options, Pass, BLOCKS};

/// Offered rates (requests/s), lowest first.
pub(crate) const RATES: [f64; 3] = [50.0, 100.0, 150.0];
/// The latency limit on each rate's p99.
pub(crate) const LIMIT_MS: f64 = 150.0;
/// Frames of an FMS request.
const FMS_FRAMES: u64 = 1;
/// Frames of an FFT request.
const FFT_FRAMES: u64 = 8;
/// Share of new requests that are FMS (the rest are FFT).
const FMS_SHARE: f64 = 0.6;
/// Share of requests that exactly repeat an earlier request.
const REPEAT_SHARE: f64 = 0.2;
/// Sporadic arrival density (‰ of the admissible rate) of FMS requests.
const DENSITY_PERMILLE: u32 = 400;
/// Processors of both static schedules.
const PROCESSORS: usize = 2;
const TENANTS: [&str; 2] = ["tenant-a", "tenant-b"];
/// In a traced pass, every this-many direct runs are split into their
/// run-layer parts, and every `REFERENCE_EVERY`-th also times the
/// zero-delay reference.
const SPLIT_EVERY: usize = 8;
const REFERENCE_EVERY: usize = 32;
/// Lead time between the end of a pass's preparation and its first due
/// request.
const LEAD: Duration = Duration::from_millis(10);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fms = 0,
    Fft = 1,
}

/// A distinct request: which network, and its stimuli.
struct Origin {
    kind: Kind,
    stimuli: Stimuli,
}

/// One request of the open-loop schedule.
struct Req {
    /// Due time, from the start of the pass.
    due: Duration,
    phase: usize,
    block: usize,
    origin: usize,
    tenant: usize,
}

/// Every request of one pass, generated during set-up.
struct Schedule {
    reqs: Vec<Req>,
    origins: Vec<Origin>,
}

struct Net {
    net: Fppn,
    bank: Arc<BehaviorBank>,
    ccfg: CompileConfig,
    cfg: SimConfig,
    artifact: Arc<CompiledNetwork>,
}

/// What one measured pass observed, per request.
#[derive(Default)]
struct Detail {
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    backlog: Vec<usize>,
    idle: Vec<bool>,
    service_ms: Vec<f64>,
    kind: Vec<Kind>,
    submit_us: Vec<f64>,
    lookup_us: Vec<f64>,
    rejected: u64,
    phase_p50: [f64; 3],
    phase_p99: [f64; 3],
}

pub(crate) struct ServeMix {
    server: Server,
    nets: [Net; 2],
    schedules: VecDeque<Schedule>,
    pool: usize,
    wrong_reference: bool,
    scratch: RunScratch,
    split: RunSplit,
    detail: Detail,
    requests: usize,
}

fn fms_stimuli(net: &Fppn, artifact: &CompiledNetwork, seed: u64) -> Stimuli {
    let horizon = TimeQ::from_int(FMS_FRAMES as i64) * artifact.derived().hyperperiod;
    let stimuli = random_stimuli(net, horizon, DENSITY_PERMILLE, seed);
    clip_stimuli(net, artifact.derived(), &stimuli, FMS_FRAMES)
}

fn fft_stimuli(generator: fppn_core::ProcessId, rng: &mut Rng) -> Stimuli {
    let frames = (0..FFT_FRAMES)
        .map(|_| {
            Value::List(
                (0..4)
                    .map(|_| Value::Float(rng.unit() * 2.0 - 1.0))
                    .collect(),
            )
        })
        .collect();
    let mut stimuli = Stimuli::new();
    stimuli.input(generator, PortId::from_index(0), frames);
    stimuli
}

impl ServeMix {
    /// Draws one pass's Poisson schedule: `BLOCKS` blocks, each running
    /// the three rates in turn. Each rate gets a share of the time
    /// inversely proportional to it, so every rate sees about the same
    /// number of requests.
    fn schedule(&self, seconds: f64, rng: &mut Rng, generator: fppn_core::ProcessId) -> Schedule {
        let inv: f64 = RATES.iter().map(|r| 1.0 / r).sum();
        let segment_s = RATES.map(|r| seconds / BLOCKS as f64 * (1.0 / r) / inv);
        let mut reqs = Vec::new();
        let mut origins: Vec<Origin> = Vec::new();
        let mut phase_start = 0.0;
        let segments = (0..BLOCKS).flat_map(|b| (0..RATES.len()).map(move |k| (b, k)));
        for (block, phase) in segments {
            let (rate, len) = (RATES[phase], segment_s[phase]);
            let mut t = phase_start;
            loop {
                t += rng.exp(1.0 / rate);
                if t >= phase_start + len {
                    break;
                }
                let origin = if !reqs.is_empty() && rng.unit() < REPEAT_SHARE {
                    let earlier: &Req = &reqs[rng.below(reqs.len() as u64) as usize];
                    earlier.origin
                } else {
                    let (kind, stimuli) = if rng.unit() < FMS_SHARE {
                        let fms = &self.nets[Kind::Fms as usize];
                        (
                            Kind::Fms,
                            fms_stimuli(&fms.net, &fms.artifact, rng.next_u64()),
                        )
                    } else {
                        (Kind::Fft, fft_stimuli(generator, rng))
                    };
                    origins.push(Origin { kind, stimuli });
                    origins.len() - 1
                };
                reqs.push(Req {
                    due: Duration::from_secs_f64(t),
                    phase,
                    block,
                    origin,
                    tenant: rng.below(TENANTS.len() as u64) as usize,
                });
            }
            phase_start += len;
        }
        Schedule { reqs, origins }
    }
}

/// Compiles one network into the server's cache during set-up.
fn compile_net(
    server: &Server,
    net: Fppn,
    bank: BehaviorBank,
    ccfg: CompileConfig,
    frames: u64,
    tracer: &mut Option<&mut Tracer>,
    request: u64,
) -> Result<Net, String> {
    let artifact = match tracer.as_deref_mut() {
        Some(tracer) => traced_compile(&net, &ccfg, server.cache(), tracer, request).artifact,
        None => server.cache().get_or_compile(&net, &ccfg),
    }
    .map_err(|e| format!("set-up compile failed: {e}"))?;
    Ok(Net {
        net,
        bank: Arc::new(bank),
        ccfg,
        cfg: SimConfig {
            frames,
            ..Default::default()
        },
        artifact,
    })
}

impl Bench for ServeMix {
    fn setup(opts: &Options, mut tracer: Option<&mut Tracer>) -> Result<Self, String> {
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        let pool = nproc.saturating_sub(1).max(1);
        let server = Server::with_config(&ServerConfig {
            workers: pool,
            ..Default::default()
        });
        for tenant in TENANTS {
            server.register_tenant(tenant, u64::MAX);
        }
        let (fms, fms_bank, fms_ids) = fms_network(FmsVariant::Original);
        let fms_cfg = CompileConfig::new(fms_wcet(&fms_ids), PROCESSORS);
        let (fft, fft_bank, fft_ids) = fft_network();
        let fft_cfg = CompileConfig::new(fft_wcet(), PROCESSORS);
        let nets = [
            compile_net(&server, fms, fms_bank, fms_cfg, FMS_FRAMES, &mut tracer, 0)?,
            compile_net(&server, fft, fft_bank, fft_cfg, FFT_FRAMES, &mut tracer, 1)?,
        ];
        let mut bench = ServeMix {
            server,
            nets,
            schedules: VecDeque::new(),
            pool,
            wrong_reference: opts.wrong_reference,
            scratch: RunScratch::new(),
            split: RunSplit::default(),
            detail: Detail::default(),
            requests: 0,
        };
        // A traced run measures two passes of half the time each.
        let mut rng = Rng::new(opts.seed);
        let passes = if opts.trace { 2 } else { 1 };
        for _ in 0..passes {
            let schedule =
                bench.schedule(opts.seconds / passes as f64, &mut rng, fft_ids.generator);
            bench.schedules.push_back(schedule);
        }
        Ok(bench)
    }

    fn measure(&mut self, _seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Pass, String> {
        // The pass's length is that of the schedule drawn during set-up.
        let schedule = self
            .schedules
            .pop_front()
            .ok_or("no request schedule left for this pass")?;
        let n = schedule.reqs.len();
        let mut d = Detail {
            late_ms: vec![0.0; n],
            backlog: vec![0; n],
            idle: vec![false; n],
            kind: schedule
                .reqs
                .iter()
                .map(|r| schedule.origins[r.origin].kind)
                .collect(),
            ..Detail::default()
        };
        let completed = AtomicUsize::new(0);
        let trace_origin = tracer.as_deref().map(Tracer::origin);
        let (tx, rx) = mpsc::channel::<(usize, Instant, Result<RunTicket, AdmissionError>)>();
        let server = &self.server;
        let nets = &self.nets;
        let start = Instant::now() + LEAD;
        let (served, collector_tracer) = std::thread::scope(|s| {
            let completed = &completed;
            let collector = s.spawn(move || {
                let mut tracer = trace_origin.map(Tracer::new);
                let mut served: Vec<(f64, Option<u64>)> = vec![(f64::NAN, None); n];
                for (i, due, ticket) in rx {
                    let digest = match ticket {
                        Ok(ticket) => {
                            let span = tracer
                                .as_mut()
                                .map(|t| t.begin("serve.wait", None, i as u64));
                            let report = ticket.wait();
                            if let (Some(t), Some(id)) = (tracer.as_mut(), span) {
                                t.end(id);
                            }
                            report.ok().map(|r| run_digest(&r.run))
                        }
                        Err(_) => None,
                    };
                    served[i] = (due.elapsed().as_secs_f64() * 1e3, digest);
                    completed.fetch_add(1, Ordering::SeqCst);
                }
                (served, tracer)
            });
            for (i, req) in schedule.reqs.iter().enumerate() {
                let due = start + req.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                d.late_ms[i] = due.elapsed().as_secs_f64() * 1e3;
                d.backlog[i] = server.queued();
                d.idle[i] = completed.load(Ordering::SeqCst) == i;
                let net = &nets[schedule.origins[req.origin].kind as usize];
                let parent = tracer
                    .as_deref_mut()
                    .map(|t| t.begin("serve.request", None, i as u64));
                let t0 = Instant::now();
                let artifact = server.cache().get_or_compile(&net.net, &net.ccfg);
                let t1 = Instant::now();
                let ticket = match artifact {
                    Ok(artifact) => {
                        let request = RunRequest::new(
                            artifact,
                            Arc::clone(&net.bank),
                            schedule.origins[req.origin].stimuli.clone(),
                            net.cfg,
                        );
                        server.submit(TENANTS[req.tenant], request)
                    }
                    Err(_) => Err(AdmissionError::ShuttingDown),
                };
                let t2 = Instant::now();
                if let (Some(t), Some(parent)) = (tracer.as_deref_mut(), parent) {
                    t.end(parent);
                    t.record("serve.lookup", Some(parent), i as u64, t0, t1);
                    t.record("serve.submit", Some(parent), i as u64, t1, t2);
                }
                d.lookup_us.push((t1 - t0).as_secs_f64() * 1e6);
                d.submit_us.push((t2 - t1).as_secs_f64() * 1e6);
                d.rejected += u64::from(ticket.is_err());
                tx.send((i, due, ticket))
                    .map_err(|_| "collector thread stopped early")?;
            }
            drop(tx);
            let collected = collector.join().map_err(|_| "collector thread panicked")?;
            Ok::<_, String>(collected)
        })?;
        if let (Some(t), Some(c)) = (tracer.as_deref_mut(), collector_tracer) {
            t.absorb(c);
        }

        // Check every served run against a direct run of the same request.
        let mut direct = Vec::with_capacity(schedule.origins.len());
        let mut service_ms = Vec::with_capacity(schedule.origins.len());
        for (o, origin) in schedule.origins.iter().enumerate() {
            let net = &self.nets[origin.kind as usize];
            let request = (self.requests + o) as u64;
            let span = tracer
                .as_deref_mut()
                .map(|t| t.begin("run.total", None, request));
            let t0 = Instant::now();
            let run = net.artifact.simulate_with_scratch(
                &net.bank,
                &origin.stimuli,
                &net.cfg,
                &mut self.scratch,
            );
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            let run = run.map_err(|e| format!("direct run failed: {e}"))?;
            if let Some(t) = tracer.as_deref_mut() {
                if o % SPLIT_EVERY == 0 {
                    self.split.sample(
                        t,
                        request,
                        &net.artifact,
                        &net.bank,
                        &origin.stimuli,
                        &net.cfg,
                        ms,
                        &run,
                        o % REFERENCE_EVERY == 0,
                    )?;
                }
            }
            let digest = run_digest(&run) ^ u64::from(self.wrong_reference);
            direct.push(digest);
            service_ms.push(ms);
        }
        self.requests += schedule.origins.len();

        let mut pass = Pass::default();
        let mut phase_lat: [Vec<f64>; 3] = Default::default();
        // Latencies per (rate, block) segment.
        let mut segments = vec![Vec::new(); RATES.len() * BLOCKS];
        for (i, (latency, digest)) in served.iter().enumerate() {
            let req = &schedule.reqs[i];
            let ok = *digest == Some(direct[req.origin]);
            pass.record(*latency, ok, req.block);
            // A failed request misses any latency limit.
            let limited = if ok { *latency } else { f64::INFINITY };
            phase_lat[req.phase].push(limited);
            segments[req.phase * BLOCKS + req.block].push(limited);
            d.service_ms.push(service_ms[req.origin]);
        }
        d.latency_ms = served.iter().map(|s| s.0).collect();
        pass.capacity_rps = 0.0;
        for (k, lat) in phase_lat.iter().enumerate() {
            d.phase_p50[k] = median(lat);
            d.phase_p99[k] = quantile(lat, 0.99);
            // The limit applies to the median over blocks of each block's
            // p99 at this rate, so one host stall does not decide it.
            let block_p99: Vec<f64> = segments[k * BLOCKS..(k + 1) * BLOCKS]
                .iter()
                .filter(|s| !s.is_empty())
                .map(|s| quantile(s, 0.99))
                .collect();
            // A backlog that keeps growing shows as the rate's last tenth
            // of requests waiting past the limit.
            let tail = &lat[lat.len() - lat.len().div_ceil(10)..];
            let steady = median(tail) <= LIMIT_MS;
            if !lat.is_empty() && median(&block_p99) <= LIMIT_MS && steady {
                pass.capacity_rps = pass.capacity_rps.max(RATES[k]);
            }
        }
        self.detail = d;
        Ok(pass)
    }

    fn layers(&self, tracer: &Tracer, out: &mut Layers) {
        compile_layers(tracer, out);
        let graphs = self.nets.iter().map(|n| &n.artifact.derived().graph);
        out.insert(
            "compile.jobs",
            mean(
                &graphs
                    .clone()
                    .map(|g| g.job_count() as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        out.insert(
            "compile.edges",
            mean(&graphs.map(|g| g.edge_count() as f64).collect::<Vec<_>>()),
        );
        out.insert("cache.artifact_hits", self.server.cache().hits() as f64);
        out.insert("cache.artifact_misses", self.server.cache().misses() as f64);
        self.split.layers(out);
        let d = &self.detail;
        let service = |kind: Kind| {
            mean(
                &d.service_ms
                    .iter()
                    .zip(&d.kind)
                    .filter(|(_, k)| **k == kind)
                    .map(|(s, _)| *s)
                    .collect::<Vec<_>>(),
            )
        };
        out.insert("serve.service_ms.fms", service(Kind::Fms));
        out.insert("serve.service_ms.fft", service(Kind::Fft));
        let wait: Vec<f64> = (0..d.latency_ms.len())
            .map(|i| d.latency_ms[i] - d.late_ms[i] - d.service_ms[i])
            .collect();
        out.insert("serve.queue_wait_ms_p50", quantile(&wait, 0.5));
        out.insert("serve.queue_wait_ms_p99", quantile(&wait, 0.99));
        let idle_wait: Vec<f64> = wait
            .iter()
            .zip(&d.idle)
            .filter(|(_, idle)| **idle)
            .map(|(w, _)| *w)
            .collect();
        out.insert("serve.handoff_ms", median(&idle_wait));
        out.insert(
            "serve.backlog_max",
            d.backlog.iter().copied().max().unwrap_or(0) as f64,
        );
        out.insert("serve.gen_late_ms_p99", quantile(&d.late_ms, 0.99));
        out.insert("serve.submit_us", mean(&d.submit_us));
        out.insert("serve.lookup_us", mean(&d.lookup_us));
        let stats: Vec<_> = TENANTS
            .iter()
            .filter_map(|t| self.server.tenant_stats(t))
            .collect();
        out.insert(
            "serve.admitted",
            stats.iter().map(|s| s.admitted).sum::<u64>() as f64,
        );
        out.insert(
            "serve.completed",
            stats.iter().map(|s| s.completed).sum::<u64>() as f64,
        );
        out.insert(
            "serve.run_cache_hits",
            stats.iter().map(|s| s.run_cache_hits).sum::<u64>() as f64,
        );
        out.insert("serve.rejected", d.rejected as f64);
        let p50 = [
            "serve.latency_ms_p50.r1",
            "serve.latency_ms_p50.r2",
            "serve.latency_ms_p50.r3",
        ];
        let p99 = [
            "serve.latency_ms_p99.r1",
            "serve.latency_ms_p99.r2",
            "serve.latency_ms_p99.r3",
        ];
        for k in 0..RATES.len() {
            out.insert(p50[k], d.phase_p50[k]);
            out.insert(p99[k], d.phase_p99[k]);
        }
    }

    fn info(&self, info: &mut BTreeMap<&'static str, String>) {
        let d = &self.detail;
        info.insert("pool_workers", self.pool.to_string());
        info.insert("rates_rps", format!("{RATES:?}"));
        info.insert("latency_limit_ms", LIMIT_MS.to_string());
        info.insert("gen_late_ms_p99", quantile(&d.late_ms, 0.99).to_string());
        info.insert("requests", d.latency_ms.len().to_string());
        info.insert(
            "mix",
            format!(
                "FMS frames={FMS_FRAMES} density={DENSITY_PERMILLE} share={FMS_SHARE}, FFT frames={FFT_FRAMES}, repeats={REPEAT_SHARE}"
            ),
        );
        info.insert("p99_ms_by_rate", format!("{:?}", d.phase_p99));
    }
}
