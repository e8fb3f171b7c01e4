//! Command-line entry point: `fppn-benchmark --workload <name> --seed <n>
//! --seconds <s> --trace <0|1> [--spans <file>]`. Prints one context line,
//! then the result as one JSON object on the last line of standard output.

use std::path::PathBuf;
use std::process::ExitCode;

use fppn_benchmark::{fppn_env_vars, run, Options, Workload};

fn parse_args() -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans_out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload {value:?}; expected one of {names:?}")
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            "--spans" => spans_out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    if trace && spans_out.is_none() {
        spans_out = Some(PathBuf::from(format!(
            "bench_spans/{}-seed{seed}.tsv",
            workload.name()
        )));
    }
    Ok(Options {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans_out,
        wrong_reference: false,
    })
}

fn main() -> ExitCode {
    let set = fppn_env_vars();
    if !set.is_empty() {
        eprintln!(
            "refusing to run with FPPN_* variables set ({}): they change library defaults",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("fppn-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(outcome) => {
            println!("info {}", outcome.info_json());
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fppn-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
