//! The §V-B scalability motivation: "we encountered a too high code
//! generation overhead due to a long hyperperiod (40 s) (an online policy
//! subroutine handling a few thousands jobs explicitly)". This harness
//! sweeps the MagnDeclin period and random multirate networks, measures the
//! event-driven scheduler against the retained naive reference on the FMS
//! graph, and pushes synthetic layered DAGs to 100k jobs across every
//! heuristic.
//!
//! Flags (all optional):
//!
//! * `--synthetic-jobs N` — cap the synthetic sweep at `N` jobs
//!   (default 100000; CI smoke passes a small budget),
//! * `--budget-ms MS` — wall-clock guard: exit non-zero if the whole run
//!   exceeds `MS` milliseconds (default 0 = unlimited). An accidental
//!   O(n²) regression blows straight through any sane budget.
//!
//! Run and serve speed are measured end to end by the repository
//! benchmark (`benchmark/`, workloads `run-fms` and `serve-mix`); the
//! zero-alloc steady state of the round loop is gated by the `alloc_zero`
//! test.

use std::time::Instant;

use fppn_apps::{
    fms_network, fms_wcet, random_workload, synthetic_task_graph, FmsVariant,
    SyntheticGraphConfig, WorkloadConfig,
};
use fppn_sched::{list_schedule, list_schedule_naive, Heuristic};
use fppn_taskgraph::derive_task_graph;

fn measure(label: &str, net: &fppn_core::Fppn, wcet: &fppn_taskgraph::WcetModel) {
    let t0 = Instant::now();
    let derived = derive_task_graph(net, wcet).expect("derivable");
    let t_derive = t0.elapsed();
    let t1 = Instant::now();
    let _schedule = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let t_sched = t1.elapsed();
    // The online policy table: one round per (processor, job), i.e. every
    // job exactly once across the per-processor orders.
    let policy_rounds = derived.graph.job_count();
    println!(
        "{label:<28} H = {:>6} ms | {:>5} jobs {:>6} edges | derive {:>8.2?} schedule {:>8.2?} | policy table {:>5} rounds",
        derived.hyperperiod.to_f64(),
        derived.graph.job_count(),
        derived.graph.edge_count(),
        t_derive,
        t_sched,
        policy_rounds
    );
}

/// The event-driven scheduler vs the retained naive oracle on the FMS
/// H = 40 s graph: prints the measured speedup and cross-checks that both
/// paths emit bit-identical schedules.
fn fms_speedup_check() {
    let (net, _, ids) = fms_network(FmsVariant::Original);
    let derived = derive_task_graph(&net, &fms_wcet(&ids)).expect("derivable");
    let t0 = Instant::now();
    let fast = list_schedule(&derived.graph, 2, Heuristic::AlapEdf);
    let t_fast = t0.elapsed();
    let t1 = Instant::now();
    let naive = list_schedule_naive(&derived.graph, 2, Heuristic::AlapEdf);
    let t_naive = t1.elapsed();
    assert_eq!(fast, naive, "event-driven and naive schedules diverged");
    println!(
        "\nFMS H=40s ({} jobs): event-driven {:.2?} vs naive {:.2?} — {:.1}x, schedules bit-identical",
        derived.graph.job_count(),
        t_fast,
        t_naive,
        t_naive.as_secs_f64() / t_fast.as_secs_f64().max(1e-9),
    );
}

fn synthetic_sweep(max_jobs: usize) {
    println!("\nsynthetic layered DAGs (jobs x shape x heuristic, 4 processors):");
    for &jobs in &[1_000usize, 10_000, 100_000] {
        if jobs > max_jobs {
            println!("  (skipping {jobs}-job tier: over --synthetic-jobs cap {max_jobs})");
            continue;
        }
        for (shape, cfg) in [
            ("deep-pipeline", SyntheticGraphConfig::deep_pipeline(jobs, jobs as u64)),
            ("fan-skewed", SyntheticGraphConfig::fan_skewed(jobs, jobs as u64 + 1)),
        ] {
            let t0 = Instant::now();
            let g = synthetic_task_graph(&cfg);
            let t_gen = t0.elapsed();
            for h in Heuristic::ALL {
                let t1 = Instant::now();
                let s = list_schedule(&g, 4, h);
                let t_sched = t1.elapsed();
                let busiest = s.processor_orders().iter().map(Vec::len).max().unwrap_or(0);
                println!(
                    "{:>7} jobs {:<13} {:<19} | gen {:>8.2?} | schedule {:>9.2?} | makespan {:>9} ms | busiest proc {:>6} jobs",
                    jobs,
                    shape,
                    h.to_string(),
                    t_gen,
                    t_sched,
                    s.makespan(&g).to_f64(),
                    busiest,
                );
            }
        }
    }
}

fn main() {
    let mut synthetic_jobs = 100_000usize;
    let mut budget_ms = 0u64;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut grab = |name: &str| {
            args.next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--synthetic-jobs" => synthetic_jobs = grab("--synthetic-jobs") as usize,
            "--budget-ms" => budget_ms = grab("--budget-ms"),
            other => panic!("unknown flag {other}; known: --synthetic-jobs N, --budget-ms MS"),
        }
    }
    let wall = Instant::now();

    println!("FMS hyperperiod sweep (the paper's 40 s -> 10 s reduction):");
    for (label, variant) in [
        ("FMS MagnDeclin 1600 ms", FmsVariant::Original),
        ("FMS MagnDeclin 400 ms", FmsVariant::Reduced),
    ] {
        let (net, _, ids) = fms_network(variant);
        measure(label, &net, &fms_wcet(&ids));
    }
    fms_speedup_check();

    println!("\nrandom multirate networks (periods x processes sweep):");
    for &periodic in &[5usize, 10, 20, 40] {
        for &max_period in &[400i64, 1600, 6400] {
            let cfg = WorkloadConfig {
                periodic,
                sporadic: periodic / 3,
                periods_ms: vec![100, 200, max_period / 2, max_period],
                seed: periodic as u64 * 1000 + max_period as u64,
                ..WorkloadConfig::default()
            };
            let w = random_workload(&cfg);
            let label = format!("random n={periodic} Tmax={max_period}");
            measure(&label, &w.net, &w.wcet);
        }
    }

    synthetic_sweep(synthetic_jobs);

    let elapsed = wall.elapsed();
    println!("\ntotal wall time: {elapsed:.2?}");
    if budget_ms > 0 && elapsed.as_millis() > budget_ms as u128 {
        eprintln!(
            "wall-clock budget exceeded: {elapsed:.2?} > {budget_ms} ms — \
             likely a scheduler complexity regression"
        );
        std::process::exit(1);
    }
}
