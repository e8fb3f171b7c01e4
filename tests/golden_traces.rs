//! Golden-trace snapshot tests.
//!
//! The observable sequences of the paper's two fully-specified
//! applications (Fig. 1 example network, §V-A FFT) under the zero-delay
//! reference semantics are pinned to checked-in snapshots
//! (`tests/golden/*.txt`). The determinism suite proves the simulator and
//! the threaded runtime agree with the zero-delay reference; this suite
//! pins what the reference *itself* computes, so a refactor cannot
//! silently change semantics while remaining self-consistent. The Fig. 6
//! Gantt chart drawn from the simulator's job records is pinned too.
//!
//! To regenerate after an *intentional* semantics change, run with
//! `GOLDEN_PRINT=1 cargo test -q --test golden_traces -- --nocapture` and
//! copy the printed blocks into the snapshot files.

use std::fmt::Write as _;

use fppn::apps::{fft_network, fft_wcet, fig1_network, fig1_wcet};
use fppn::core::{run_zero_delay, Fppn, JobOrdering, Observables, SporadicTrace, Stimuli};
use fppn::sched::{list_schedule, Heuristic};
use fppn::sim::hotpath::simulate_memo_off;
use fppn::sim::{
    adversarial_stimuli, clip_stimuli, gantt_ascii, simulate, AdversarialClass, OverheadModel,
    SimConfig,
};
use fppn::taskgraph::derive_task_graph;
use fppn::time::TimeQ;

/// Renders observables into a stable, human-auditable text form:
/// one line per channel (named) and one per external output port.
fn render(net: &Fppn, obs: &Observables) -> String {
    let mut out = String::new();
    for (c, log) in obs.channels.iter().enumerate() {
        let name = net.channels()[c].name();
        write!(out, "channel {name}:").unwrap();
        for v in log {
            write!(out, " {v}").unwrap();
        }
        out.push('\n');
    }
    for ((pid, port), samples) in &obs.outputs {
        let pname = net.process(*pid).name();
        write!(out, "output {pname}[{}]:", port.index()).unwrap();
        for (k, v) in samples {
            write!(out, " ({k}, {v})").unwrap();
        }
        out.push('\n');
    }
    out
}

fn check(label: &str, net: &Fppn, obs: &Observables, expected: &str) {
    let actual = render(net, obs);
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("=== {label} ===\n{actual}=== end {label} ===");
    }
    assert_eq!(
        actual.trim_end(),
        expected.trim_end(),
        "{label}: observable trace diverged from tests/golden/{label}.txt \
         (set GOLDEN_PRINT=1 to print the new trace)"
    );
}

#[test]
fn fig1_zero_delay_trace_is_pinned() {
    let (net, bank, ids) = fig1_network();
    // Same stimulus as the determinism suite: CoefB fires at 120 and 390 ms.
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
    );
    // 4 hyperperiods of 200 ms.
    let horizon = TimeQ::from_ms(800);
    let mut behaviors = bank.instantiate();
    let run = run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::MinRankFirst)
        .expect("fig1 reference run");
    check("fig1", &net, &run.observables, include_str!("golden/fig1.txt"));
}

/// The simulator must reproduce the *pinned* traces — not merely agree
/// with the reference of the same build — so a semantics drift in the
/// round engine cannot hide behind a matching drift in the zero-delay
/// executor. Both the default run (frame memo engaged wherever it can
/// hit) and the memo-off reference are checked.
#[test]
fn simulator_reproduces_golden_traces() {
    let (fig1, fig1_bank, ids) = fig1_network();
    let mut fig1_stimuli = Stimuli::new();
    fig1_stimuli.arrivals(
        ids.coef_b,
        SporadicTrace::new(vec![TimeQ::from_ms(120), TimeQ::from_ms(390)]),
    );
    let (fft, fft_bank, _) = fft_network();
    for (label, net, bank, wcet, stimuli, frames, expected) in [
        // Fig. 1, same stimulus as the pinned reference, 4 frames.
        (
            "fig1",
            &fig1,
            &fig1_bank,
            fig1_wcet(),
            fig1_stimuli,
            4,
            include_str!("golden/fig1.txt"),
        ),
        // FFT pipeline, 3 frames.
        (
            "fft",
            &fft,
            &fft_bank,
            fft_wcet(),
            Stimuli::new(),
            3,
            include_str!("golden/fft.txt"),
        ),
    ] {
        let derived = derive_task_graph(net, &wcet).expect("derivable");
        let stimuli = clip_stimuli(net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let run = simulate(net, bank, &stimuli, &derived, &schedule, &config).expect("simulation");
        check(label, net, &run.observables, expected);
        let reference = simulate_memo_off(net, bank, &stimuli, &derived, &schedule, &config)
            .expect("memo-off reference");
        check(label, net, &reference.observables, expected);
    }
}

/// Adversarial-stimulus golden traces on the paper's Fig. 1 network: the
/// observable sequences under a boundary-aligned burst, a maximal-density
/// flood and an arrival-tie storm (seed-pinned) are snapshot-pinned, and
/// both the default run and the memo-off reference must reproduce them
/// exactly. This extends the uniform-stimulus snapshots above to the
/// stimuli that actually sit on the server-window edge cases.
#[test]
fn adversarial_traces_are_pinned() {
    for (class, expected) in [
        (
            AdversarialClass::BoundaryBurst,
            include_str!("golden/fig1_boundary_burst.txt"),
        ),
        (
            AdversarialClass::MaxDensityFlood,
            include_str!("golden/fig1_max_density_flood.txt"),
        ),
        (
            AdversarialClass::ArrivalTieStorm,
            include_str!("golden/fig1_arrival_tie_storm.txt"),
        ),
    ] {
        let (net, bank, _) = fig1_network();
        let derived = derive_task_graph(&net, &fig1_wcet()).expect("derivable");
        let frames = 4u64;
        let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
        let stimuli = adversarial_stimuli(&net, &derived, horizon, class, 0x601D);
        let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);
        let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
        let config = SimConfig {
            frames,
            ..SimConfig::default()
        };
        let label = format!("fig1_{}", class.name());
        let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config)
            .expect("simulation");
        check(&label, &net, &run.observables, expected);
        let reference = simulate_memo_off(&net, &bank, &stimuli, &derived, &schedule, &config)
            .expect("memo-off reference");
        check(&label, &net, &reference.observables, expected);
    }
}

#[test]
fn fft_zero_delay_trace_is_pinned() {
    let (net, bank, _) = fft_network();
    // 3 hyperperiods (all FFT processes share the 200 ms period) of the
    // closed pipeline on its built-in test signal.
    let horizon = TimeQ::from_int(3) * TimeQ::from_ms(200);
    let mut behaviors = bank.instantiate();
    let run = run_zero_delay(
        &net,
        &mut behaviors,
        &Stimuli::new(),
        horizon,
        JobOrdering::MinRankFirst,
    )
    .expect("fft reference run");
    check("fft", &net, &run.observables, include_str!("golden/fft.txt"));
}

/// The Fig. 6 chart: the FFT on two processors under the §V-A MPPA
/// overhead, 10 frames simulated, the first two drawn 76 columns wide.
/// `gantt_ascii` must reproduce it byte for byte from the job records.
#[test]
fn fft_gantt_chart_is_pinned() {
    let (net, bank, _) = fft_network();
    let derived = derive_task_graph(&net, &fft_wcet()).expect("derivable");
    let schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let config = SimConfig {
        frames: 10,
        overhead: OverheadModel::mppa_fft(),
        ..SimConfig::default()
    };
    let run = simulate(&net, &bank, &Stimuli::new(), &derived, &schedule, &config)
        .expect("simulation");
    let horizon = TimeQ::from_int(2) * derived.hyperperiod;
    let chart = gantt_ascii(
        &run.records,
        schedule.processors(),
        config.overhead,
        derived.hyperperiod,
        horizon,
        76,
    );
    if std::env::var("GOLDEN_PRINT").is_ok() {
        println!("=== fft_gantt ===\n{chart}=== end fft_gantt ===");
    }
    assert_eq!(
        chart,
        include_str!("golden/fft_gantt.txt"),
        "fft_gantt: chart diverged from tests/golden/fft_gantt.txt \
         (set GOLDEN_PRINT=1 to print the new chart)"
    );
}
