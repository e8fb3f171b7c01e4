//! Quickstart: build an FPPN, derive its task graph, schedule it, and run
//! it on the simulated multiprocessor — checking deterministic outputs
//! against the zero-delay reference.
//!
//! Run with: `cargo run --example quickstart`

use fppn::core::{
    run_zero_delay, ChannelKind, EventSpec, FppnBuilder, JobCtx, JobOrdering, PortId,
    ProcessSpec, SporadicTrace, Stimuli, Value,
};
use fppn::sched::{find_feasible, Heuristic};
use fppn::sim::{clip_stimuli, gantt_ascii, simulate, SimConfig};
use fppn::taskgraph::{derive_task_graph, load, WcetModel};
use fppn::time::TimeQ;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ms = TimeQ::from_ms;

    // 1. Model: a sensor -> controller -> actuator chain with a sporadic
    //    gain reconfiguration, in the style of the paper's Fig. 1.
    let mut b = FppnBuilder::new();
    let sensor = b.process(ProcessSpec::new("sensor", EventSpec::periodic(ms(100))));
    let control = b.process(ProcessSpec::new("control", EventSpec::periodic(ms(100))));
    let actuator =
        b.process(ProcessSpec::new("actuator", EventSpec::periodic(ms(200))).with_output("cmd"));
    let tune = b.process(ProcessSpec::new(
        "tune",
        EventSpec::sporadic(1, ms(300)).with_deadline(ms(250)),
    ));

    let meas = b.channel("measurement", sensor, control, ChannelKind::Fifo);
    let cmd = b.channel("command", control, actuator, ChannelKind::Fifo);
    let gain = b.channel("gain", tune, control, ChannelKind::Blackboard);

    // Functional priority: every channel-sharing pair must be ordered.
    b.priority(sensor, control);
    b.priority(control, actuator);
    b.priority(tune, control);

    // 2. Behaviors: plain Rust closures, invoked once per job.
    b.behavior(sensor, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let sample = (ctx.k() as i64 * 13) % 50;
            ctx.write(meas, Value::Int(sample));
        })
    });
    b.behavior(control, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            let g = ctx.read_value(gain).as_int().unwrap_or(2);
            if let Some(Value::Int(x)) = ctx.read(meas) {
                ctx.write(cmd, Value::Int(g * x));
            }
        })
    });
    b.behavior(actuator, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| {
            // 200 ms period vs 100 ms producer: drain both samples.
            let a = ctx.read_value(cmd);
            let b = ctx.read_value(cmd);
            ctx.write_output(PortId::from_index(0), Value::List(vec![a, b]));
        })
    });
    b.behavior(tune, move || {
        Box::new(move |ctx: &mut JobCtx<'_>| ctx.write(gain, Value::Int(2 + ctx.k() as i64)))
    });

    let (net, bank) = b.build()?;
    println!(
        "network: {} processes, {} channels",
        net.process_count(),
        net.channels().len()
    );

    // 3. Task graph (§III-A) and analysis.
    let wcet = WcetModel::uniform(ms(20));
    let derived = derive_task_graph(&net, &wcet)?;
    let l = load(&derived.graph);
    println!(
        "task graph: H = {} ms, {} jobs, {} edges, load = {} (≥ {} processors)",
        derived.hyperperiod,
        derived.graph.job_count(),
        derived.graph.edge_count(),
        l.load,
        l.min_processors()
    );

    // 4. Compile-time schedule (§III-B).
    let (schedule, heuristic) =
        find_feasible(&derived.graph, 2, &Heuristic::ALL).expect("feasible on 2 processors");
    println!(
        "schedule: 2 processors via {heuristic}, makespan {} ms",
        schedule.makespan(&derived.graph)
    );

    // 5. Online execution (§IV) with sporadic arrivals, vs the zero-delay
    //    reference (Prop. 4.1).
    let frames = 5;
    let mut stimuli = Stimuli::new();
    stimuli.arrivals(tune, SporadicTrace::new(vec![ms(40), ms(420), ms(780)]));
    let stimuli = clip_stimuli(&net, &derived, &stimuli, frames);

    let config = SimConfig {
        frames,
        ..SimConfig::default()
    };
    let run = simulate(&net, &bank, &stimuli, &derived, &schedule, &config)?;
    println!(
        "simulated {} frames: {} jobs executed, {} sporadic slots skipped, {} deadline misses",
        frames, run.stats.executed, run.stats.skipped, run.stats.deadline_misses
    );

    let mut behaviors = bank.instantiate();
    let horizon = TimeQ::from_int(frames as i64) * derived.hyperperiod;
    let reference = run_zero_delay(&net, &mut behaviors, &stimuli, horizon, JobOrdering::default())?;
    match run.observables.diff(&reference.observables) {
        None => println!("determinism check: simulator outputs == zero-delay reference ✓"),
        Some(d) => println!("DETERMINISM VIOLATION:\n{d}"),
    }

    println!("\nGantt (first {} ms):", horizon);
    print!(
        "{}",
        gantt_ascii(
            &run.records,
            schedule.processors(),
            config.overhead,
            derived.hyperperiod,
            horizon,
            72
        )
    );
    Ok(())
}
