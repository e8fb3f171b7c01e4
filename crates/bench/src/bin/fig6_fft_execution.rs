//! Regenerates Fig. 6: real-time execution of the FFT on an MPPA-like
//! platform — per-frame runtime overhead (41 ms first frame, 20 ms after),
//! deadline misses on a single processor, none on two.

use fppn_apps::{fft_network, fft_wcet};
use fppn_bench::{render_report, ReportRow};
use fppn_core::Stimuli;
use fppn_sched::{list_schedule, Heuristic};
use fppn_sim::{gantt_ascii, simulate, OverheadModel, SimConfig};
use fppn_taskgraph::{derive_task_graph, load};
use fppn_time::TimeQ;

fn main() {
    let (net, bank, _) = fft_network();
    let derived = derive_task_graph(&net, &fft_wcet()).expect("derivable");
    let overhead = OverheadModel::mppa_fft();
    let frames = 20;

    let l = load(&derived.graph);
    let with_overhead =
        (derived.graph.total_work() + overhead.first_frame) / derived.hyperperiod;

    let mut rows = vec![
        ReportRow {
            quantity: "jobs per frame".into(),
            paper: "14".into(),
            measured: derived.graph.job_count().to_string(),
            matches: derived.graph.job_count() == 14,
        },
        ReportRow {
            quantity: "load (no overhead)".into(),
            paper: "0.93".into(),
            measured: format!("{:.3}", l.load.to_f64()),
            matches: l.load == TimeQ::new(93, 100),
        },
        ReportRow {
            quantity: "load (with overhead job)".into(),
            paper: "≈ 1.2".into(),
            measured: format!("{:.3}", with_overhead.to_f64()),
            matches: with_overhead > TimeQ::ONE,
        },
    ];

    let mut gantt2 = None;
    for processors in [1usize, 2] {
        let schedule = list_schedule(&derived.graph, processors, Heuristic::AlapEdf);
        let run = simulate(
            &net,
            &bank,
            &Stimuli::new(),
            &derived,
            &schedule,
            &SimConfig {
                frames,
                overhead,
                ..SimConfig::default()
            },
        )
        .expect("simulate");
        let (paper, matches) = if processors == 1 {
            ("misses deadlines".to_owned(), run.stats.deadline_misses > 0)
        } else {
            ("no deadline misses".to_owned(), run.stats.deadline_misses == 0)
        };
        rows.push(ReportRow {
            quantity: format!("{processors}-processor mapping ({frames} frames)"),
            paper,
            measured: format!("{} misses", run.stats.deadline_misses),
            matches,
        });
        if processors == 2 {
            let horizon = TimeQ::from_int(2) * derived.hyperperiod;
            gantt2 = Some(gantt_ascii(
                &run.records,
                schedule.processors(),
                overhead,
                derived.hyperperiod,
                horizon,
                76,
            ));
        }
    }
    print!("{}", render_report("Fig. 6 — FFT on the simulated MPPA", &rows));

    if let Some(g) = gantt2 {
        println!("\nGantt, first two frames (M0, M1 application; last row runtime overhead):");
        print!("{g}");
        println!(
            "overheads: {} ms (frame 0), {} ms (later frames)",
            overhead.first_frame, overhead.steady_frame
        );
    }
}
