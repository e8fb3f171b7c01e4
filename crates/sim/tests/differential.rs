//! Differential test-suite: the compile-once artifact against fresh
//! compiles, the compile key against single-field mutations, and the
//! engine's frame memo against the memo-off reference loop (the same
//! pattern that proves the event-driven scheduler against
//! `list_schedule_naive`).
//!
//! Bit-identity is asserted on every component of a [`SimRun`]: the
//! per-round [`fppn_sim::JobRecord`]s (exact rational times, processors,
//! ranks), the statistics, and the observables — across adversarial
//! stimuli, frame counts, overhead models and exec-time models. The Gantt
//! chart is a pure function of the records and the config
//! ([`fppn_sim::gantt_ascii`]), so equal records draw equal charts.

use fppn_apps::{
    adversarial_presets, fms_network, fms_wcet, random_workload, synthetic_fppn, FmsVariant,
    WorkloadConfig,
};
use fppn_core::Stimuli;
use fppn_sched::{list_schedule, Heuristic};
use fppn_sim::hotpath::{simulate_memo_off, SeqRounds};
use fppn_sim::{
    adversarial_stimuli, clip_stimuli, compile_key, random_stimuli, simulate, AdversarialClass,
    CancelToken, CompileConfig, CompiledNetwork, ExecTimeModel, OverheadModel, RunScratch,
    SimConfig, SimRun, StaticTables,
};
use fppn_taskgraph::derive_task_graph;
use fppn_time::TimeQ;
use proptest::prelude::*;

fn assert_bit_identical(expected: &SimRun, actual: &SimRun, label: &str) {
    assert_eq!(expected.records, actual.records, "{label}: records diverged");
    assert_eq!(
        expected.observables.diff(&actual.observables),
        None,
        "{label}: observables diverged"
    );
    assert_eq!(expected.observables, actual.observables, "{label}: observables !=");
    assert_eq!(expected.stats, actual.stats, "{label}: stats diverged");
}

/// The compile-once artifact against fresh per-call compiles, across every
/// run entry point and every adversarial stimulus class: a cached
/// [`CompiledNetwork`] reused for many runs (with a reused [`RunScratch`])
/// must be bit-identical to [`simulate`], which re-derives and
/// re-schedules on every call. This is the cache-identity half of the
/// serve control plane's correctness argument; CI runs it in release
/// under the test-name filter `compile`.
#[test]
fn compiled_artifact_matches_fresh_compile() {
    let token = CancelToken::new();
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let cfg = CompileConfig::new(w.wcet.clone(), 2);
        // Two independent compiles of the same inputs: same key, and the
        // first one stands in for "the cached artifact" below.
        let artifact = CompiledNetwork::compile(w.net.clone(), &cfg).expect("compiles");
        let recompiled = CompiledNetwork::compile(w.net.clone(), &cfg).expect("compiles");
        assert_eq!(
            artifact.content_hash(),
            recompiled.content_hash(),
            "{label}: equal inputs must produce equal compile keys"
        );
        assert_eq!(artifact.content_hash(), compile_key(&w.net, &cfg));

        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let frames = 2u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let mut scratch = RunScratch::new();
        for class in AdversarialClass::ALL {
            let raw = adversarial_stimuli(&w.net, &derived, horizon, class, 0xCAFE);
            let stimuli = clip_stimuli(&w.net, &derived, &raw, frames);
            // A stochastic model computes every frame live; `Wcet` runs
            // through the frame memo.
            for exec_time in [ExecTimeModel::typical_jitter(0xCAFE), ExecTimeModel::Wcet] {
                let config = SimConfig {
                    frames,
                    exec_time,
                    overhead: OverheadModel::constant(TimeQ::from_ms(7)),
                };
                let tag = format!("{label} {} {exec_time:?}", class.name());
                // Fresh compile path: the classic entry point.
                let fresh = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config)
                    .expect("fresh run");
                let cached = artifact
                    .simulate(&w.bank, &stimuli, &config)
                    .expect("cached artifact run");
                assert_bit_identical(&fresh, &cached, &format!("{tag} cached"));
                // The serve worker path: scratch reused across runs & classes.
                let scratched = artifact
                    .simulate_with_scratch(&w.bank, &stimuli, &config, &mut scratch)
                    .expect("scratch run");
                assert_bit_identical(&fresh, &scratched, &format!("{tag} cached+scratch"));
                let armed = artifact
                    .simulate_cancellable(&w.bank, &stimuli, &config, &mut scratch, &token)
                    .expect("cancellable run");
                assert_bit_identical(&fresh, &armed, &format!("{tag} cached+cancel token"));
            }
        }
    }
}

/// Single-field mutations of the compile inputs must each move the
/// content hash: the cache can never serve a stale artifact for a changed
/// network, WCET table, processor count or heuristic.
#[test]
fn compile_key_changes_under_any_single_mutation() {
    use fppn_core::{ChannelKind, EventSpec, FppnBuilder, ProcessSpec};
    use fppn_taskgraph::WcetModel;
    let ms = TimeQ::from_ms;

    // One knob per variant; index 0 is the baseline.
    let build = |period_a: i64, burst: u32, kind: ChannelKind, name_b: &str, extra_edge: bool| {
        let mut b = FppnBuilder::new();
        let a = b.process(ProcessSpec::new("a", EventSpec::periodic(ms(period_a))));
        let s = b.process(ProcessSpec::new("s", EventSpec::sporadic(burst, ms(400))));
        let p_b = b.process(ProcessSpec::new(name_b, EventSpec::periodic(ms(200))));
        b.channel("ab", a, p_b, kind);
        b.channel("sb", s, p_b, ChannelKind::Blackboard);
        b.priority(a, p_b);
        b.priority(s, p_b);
        if extra_edge {
            b.priority(a, s);
        }
        b.build().unwrap().0
    };
    let base_net = build(100, 2, ChannelKind::Fifo, "b", false);
    let base_wcet = WcetModel::uniform(ms(10));
    let base = CompileConfig::new(base_wcet.clone(), 2);

    let mut keys = vec![("baseline", compile_key(&base_net, &base))];
    for (what, net) in [
        ("process period", build(50, 2, ChannelKind::Fifo, "b", false)),
        ("sporadic burst", build(100, 3, ChannelKind::Fifo, "b", false)),
        ("channel kind", build(100, 2, ChannelKind::Blackboard, "b", false)),
        ("process name", build(100, 2, ChannelKind::Fifo, "b2", false)),
        ("priority edge", build(100, 2, ChannelKind::Fifo, "b", true)),
    ] {
        keys.push((what, compile_key(&net, &base)));
    }
    let mut wcet_override = base_wcet.clone();
    wcet_override.set(base_net.process_by_name("a").unwrap(), ms(11));
    keys.push((
        "wcet override",
        compile_key(&base_net, &CompileConfig::new(wcet_override, 2)),
    ));
    keys.push((
        "wcet default",
        compile_key(&base_net, &CompileConfig::new(WcetModel::uniform(ms(12)), 2)),
    ));
    keys.push((
        "processor count",
        compile_key(&base_net, &CompileConfig::new(base_wcet.clone(), 3)),
    ));
    keys.push((
        "heuristic",
        compile_key(
            &base_net,
            &CompileConfig {
                wcet: base_wcet,
                processors: 2,
                heuristic: Heuristic::BLevel,
            },
        ),
    ));

    for i in 0..keys.len() {
        for j in (i + 1)..keys.len() {
            assert_ne!(
                keys[i].1, keys[j].1,
                "mutations {:?} and {:?} collided",
                keys[i].0, keys[j].0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Content-hash stability: rebuilding the same random workload from
    /// the same seed always produces the same compile key (so a cache
    /// keyed on it hits across processes and sessions), the compiled
    /// artifact records exactly that key, and changing the processor
    /// count alone moves it.
    #[test]
    fn compile_key_is_stable_across_rebuilds(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        seed in any::<u64>(),
        m in 1usize..4,
    ) {
        let cfg = WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        };
        let w1 = random_workload(&cfg);
        let w2 = random_workload(&cfg);
        let c1 = CompileConfig::new(w1.wcet.clone(), m);
        let c2 = CompileConfig::new(w2.wcet.clone(), m);
        prop_assert_eq!(compile_key(&w1.net, &c1), compile_key(&w2.net, &c2));
        let artifact = CompiledNetwork::compile(w1.net.clone(), &c1).unwrap();
        prop_assert_eq!(artifact.content_hash(), compile_key(&w2.net, &c2));
        prop_assert_ne!(
            compile_key(&w1.net, &CompileConfig::new(w1.wcet.clone(), m + 1)),
            artifact.content_hash()
        );
    }
}


/// Frame memoization differential sweep: the default run, where the memo
/// engages wherever it can hit, must stay bit-identical to the memo-off
/// reference — across the adversarial stimulus classes (sporadic bursts,
/// floods, tie storms, external inputs), frame counts spanning no-reuse
/// (1) through heavy reuse (32), with and without a runtime-overhead
/// model (window-edge arrivals under overhead-shifted completions are
/// where a subset-mapping bug would surface), and both the memoizing exec
/// model (`Wcet`) and a stochastic one that must fall back to the live
/// loop.
#[test]
fn memo_is_bit_identical_to_memo_off_reference() {
    for (label, fppn_cfg) in adversarial_presets() {
        let w = synthetic_fppn(&fppn_cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).expect("derivable");
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        for frames in [1u64, 8, 32] {
            let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
            let overhead = OverheadModel::constant(TimeQ::from_ms(9));
            // At 32 frames only the memoizing model is interesting (the
            // stochastic fallback is already pinned at 1 and 8).
            let models: &[(ExecTimeModel, OverheadModel)] = if frames == 32 {
                &[(ExecTimeModel::Wcet, OverheadModel::NONE)]
            } else {
                &[
                    (ExecTimeModel::Wcet, OverheadModel::NONE),
                    (ExecTimeModel::Wcet, overhead),
                    (ExecTimeModel::typical_jitter(0x3E30), OverheadModel::NONE),
                ]
            };
            for class in AdversarialClass::ALL {
                let raw = adversarial_stimuli(&w.net, &derived, horizon, class, 0x3E30);
                let stimuli = clip_stimuli(&w.net, &derived, &raw, frames);
                for &(exec_time, overhead) in models {
                    let config = SimConfig {
                        frames,
                        exec_time,
                        overhead,
                    };
                    let tag =
                        format!("{label} {} f{frames} {exec_time:?} {overhead:?}", class.name());
                    let reference =
                        simulate_memo_off(&w.net, &w.bank, &stimuli, &derived, &schedule, &config)
                            .expect("memo-off reference");
                    let run = simulate(&w.net, &w.bank, &stimuli, &derived, &schedule, &config)
                        .expect("default run");
                    assert_bit_identical(&reference, &run, &tag);
                }
            }
        }
    }
}

/// On a pure-periodic production workload (FMS) every hyperperiod after
/// the transient settles carries the same relative state, so the frame
/// memo must actually engage — frames replay as hits, not recompute as
/// misses — and the replayed run must equal the memo-off reference bit
/// for bit.
#[test]
fn memo_replays_settled_periodic_frames_as_hits() {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 4, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = Stimuli::new();
    let config = SimConfig {
        frames: 32,
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    let (hits, misses) = rounds.memo_stats();
    assert_eq!(hits + misses, 32, "memo must be consulted for every frame");
    assert!(
        hits >= 24,
        "periodic frames must replay as hits once settled (hits={hits}, misses={misses})"
    );

    let config = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };
    let off = simulate_memo_off(&net, &bank, &stimuli, &derived, &schedule, &config)
        .expect("memo-off reference");
    let on = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).expect("default run");
    assert_bit_identical(&off, &on, "fms periodic memo replay");
}

/// The memo's soundness gate: bounded-capacity FIFOs and stochastic
/// exec-time models disqualify the network/config from memoization
/// entirely — the engine must fall back to the live loop (zero lookups,
/// zero hits) and still produce the memo-off result bit for bit.
#[test]
fn memo_disengages_on_bounded_fifos_and_stochastic_exec() {
    use fppn_core::{ChannelKind, ChannelSpec, EventSpec, FppnBuilder, JobCtx, ProcessSpec, Value};
    let ms = TimeQ::from_ms;
    let mut b = FppnBuilder::new();
    let src = b.process(ProcessSpec::new("src", EventSpec::periodic(ms(100))));
    let dst = b.process(ProcessSpec::new("dst", EventSpec::periodic(ms(100))));
    let ch = b.channel_spec(
        ChannelSpec::new("bounded", src, dst, ChannelKind::Fifo)
            .with_capacity(std::num::NonZeroUsize::new(2).unwrap()),
    );
    b.priority(src, dst);
    b.behavior(src, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(ch, Value::Int(ctx.k() as i64)))
    });
    b.behavior(dst, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| while ctx.read(ch).is_some() {})
    });
    let (net, bank) = b.build().unwrap();
    let derived = derive_task_graph(&net, &fppn_taskgraph::WcetModel::uniform(ms(10))).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let config = SimConfig {
        frames: 8,
        ..SimConfig::default()
    };

    let mut rounds =
        SeqRounds::new(&net, &Stimuli::new(), &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (0, 0),
        "bounded FIFOs must disable the memo entirely"
    );

    let off = simulate_memo_off(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        .expect("memo-off reference");
    let on = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        .expect("default run");
    assert_bit_identical(&off, &on, "bounded-fifo memo fallback");

    // Stochastic exec times: the engine must never consult the table
    // (replay would freeze one sampled timeline).
    let w = random_workload(&WorkloadConfig {
        periodic: 4,
        sporadic: 1,
        seed: 0x3E31,
        ..WorkloadConfig::default()
    });
    let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let tables = StaticTables::build(&w.net, &derived, &schedule);
    let jitter = SimConfig {
        frames: 8,
        exec_time: ExecTimeModel::typical_jitter(0x3E32),
        ..SimConfig::default()
    };
    let mut rounds =
        SeqRounds::new(&w.net, &Stimuli::new(), &derived, &tables, &jitter).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(
        rounds.memo_stats(),
        (0, 0),
        "stochastic exec models must disable the memo entirely"
    );
    let off = simulate_memo_off(&w.net, &w.bank, &Stimuli::new(), &derived, &schedule, &jitter)
        .expect("memo-off reference");
    let on = simulate(&w.net, &w.bank, &Stimuli::new(), &derived, &schedule, &jitter)
        .expect("default run");
    assert_bit_identical(&off, &on, "stochastic memo fallback");
}

/// A run of one frame can never hit, so the engine does not consult the
/// memo at all: zero hits, zero misses, and the memo-off result.
#[test]
fn memo_disengages_on_a_single_frame() {
    let (net, bank, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let tables = StaticTables::build(&net, &derived, &schedule);
    let stimuli = Stimuli::new();
    let config = SimConfig::default();
    assert_eq!(config.frames, 1);
    let mut rounds =
        SeqRounds::new(&net, &stimuli, &derived, &tables, &config).expect("round engine");
    rounds.compute().expect("rounds");
    assert_eq!(rounds.memo_stats(), (0, 0), "one frame must skip the memo");
    let off = simulate_memo_off(&net, &bank, &stimuli, &derived, &schedule, &config)
        .expect("memo-off reference");
    let on = simulate(&net, &bank, &stimuli, &derived, &schedule, &config).expect("default run");
    assert_bit_identical(&off, &on, "single-frame run");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Collision audit for the frame fingerprint: over random workload
    /// shapes and sporadic densities, any two frames that hash to the
    /// same fingerprint must have produced round tables that are exact
    /// time-translates of each other (same jobs, processors, miss/skip
    /// flags; all four timestamps shifted by a whole number of
    /// hyperperiods). A fingerprint collision between genuinely different
    /// carry-in states would surface here as a non-translate pair.
    #[test]
    fn fingerprint_equal_frames_are_time_translates(
        periodic in 2usize..6,
        sporadic in 0usize..3,
        density in 0u32..=1000,
        seed in any::<u64>(),
        m in 1usize..4,
        frames in 2u64..7,
    ) {
        let cfg = WorkloadConfig {
            periodic,
            sporadic,
            seed,
            ..WorkloadConfig::default()
        };
        let w = random_workload(&cfg);
        let derived = derive_task_graph(&w.net, &w.wcet).unwrap();
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = random_stimuli(&w.net, horizon, density, seed ^ 0x3E33);
        let stimuli = clip_stimuli(&w.net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, m, Heuristic::AlapEdf);
        let tables = StaticTables::build(&w.net, &derived, &schedule);
        let config = SimConfig {
            frames,
            exec_time: ExecTimeModel::Wcet,
            ..SimConfig::default()
        };
        let mut rounds = SeqRounds::new(&w.net, &stimuli, &derived, &tables, &config).unwrap();
        let mut fps = Vec::new();
        let records = rounds.compute_fingerprinted(&mut fps).unwrap();
        prop_assert_eq!(fps.len() as u64, frames);

        let mut by_frame: Vec<Vec<&fppn_sim::JobRecord>> = vec![Vec::new(); frames as usize];
        for rec in &records {
            by_frame[rec.frame as usize].push(rec);
        }
        for block in &mut by_frame {
            block.sort_by_key(|r| r.job.index());
        }
        for i in 0..frames as usize {
            for j in (i + 1)..frames as usize {
                if fps[i] != fps[j] {
                    continue;
                }
                let di = TimeQ::from_int(i as i64) * derived.hyperperiod;
                let dj = TimeQ::from_int(j as i64) * derived.hyperperiod;
                prop_assert_eq!(
                    by_frame[i].len(),
                    by_frame[j].len(),
                    "fingerprint-equal frames {} and {} differ in record count",
                    i,
                    j
                );
                for (a, b) in by_frame[i].iter().zip(by_frame[j].iter()) {
                    prop_assert_eq!(a.job, b.job, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.process, b.process, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.processor, b.processor, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.missed, b.missed, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.skipped, b.skipped, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.invoked_at - di, b.invoked_at - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.start - di, b.start - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.completion - di, b.completion - dj, "frames {} vs {}", i, j);
                    prop_assert_eq!(a.deadline - di, b.deadline - dj, "frames {} vs {}", i, j);
                }
            }
        }
    }
}
