//! Smoke test of the benchmark itself: every workload runs tiny, every
//! metric `BENCHMARK.json` names prints with its unit, and a wrong
//! reference is counted as failed ops.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use fppn_benchmark::{fppn_env_vars, run, Options, Workload, END_TO_END, PER_LAYER};

/// The subset of JSON that `BENCHMARK.json` and the result line use.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing characters in JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key:?}")),
            _ => panic!("not an object, looking up {key:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("not an array: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s[self.i], c,
            "expected {:?} at byte {}",
            c as char, self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k, v).is_none(), "duplicate key");
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(m);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut a = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(a);
                }
                loop {
                    a.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(a);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn no_fppn_env() {
    let set = fppn_env_vars();
    assert!(
        set.is_empty(),
        "unset {set:?}: they change library defaults"
    );
}

/// Runs the binary the way the benchmark command does and returns its
/// parsed last line.
fn run_cli(workload: &str, trace: bool) -> Json {
    let spans = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}.tsv"));
    let out = Command::new(env!("CARGO_BIN_EXE_fppn-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.3"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--spans")
        .arg(&spans)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn the_lists_in_benchmark_json_match_the_code() {
    let spec = benchmark_json();
    let names: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, ours);
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(&str, &str)> = spec
            .get(key)
            .arr()
            .iter()
            .map(|m| (m.get("name").str(), m.get("unit").str()))
            .collect();
        assert_eq!(
            listed,
            table.to_vec(),
            "{key} differs from the code's table"
        );
    }
}

#[test]
fn every_workload_prints_every_listed_metric_with_its_unit() {
    no_fppn_env();
    let spec = benchmark_json();
    for w in spec.get("workloads").arr() {
        let name = w.get("name").str();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let result = run_cli(name, trace);
            assert_eq!(
                result.get("correct"),
                &Json::Bool(true),
                "{name}: {result:?}"
            );
            assert!(result.get("attempted").num() >= 1.0);
            assert_eq!(result.get("failed").num(), 0.0);
            let Json::Obj(printed) = result.get("metrics") else {
                panic!("metrics must be an object")
            };
            let listed = spec.get(key).arr();
            assert_eq!(
                printed.len(),
                listed.len(),
                "{name} trace={trace}: extra metrics"
            );
            for m in listed {
                let metric = m.get("name").str();
                let got = printed
                    .get(metric)
                    .unwrap_or_else(|| panic!("{name} trace={trace}: {metric} not printed"));
                assert_eq!(
                    got.get("unit").str(),
                    m.get("unit").str(),
                    "{name}: {metric}"
                );
                assert!(got.get("value").num().is_finite(), "{name}: {metric}");
            }
        }
    }
}

#[test]
fn a_wrong_reference_is_counted_as_failed() {
    no_fppn_env();
    for workload in Workload::ALL {
        let outcome = run(&Options {
            workload,
            seed: 7,
            seconds: 0.3,
            trace: false,
            spans_out: None,
            wrong_reference: true,
        })
        .expect("the run completes");
        assert!(!outcome.correct, "{}", workload.name());
        assert!(outcome.attempted >= 1);
        assert_eq!(outcome.failed, outcome.attempted, "{}", workload.name());
        assert_eq!(
            outcome.metrics["ok_ratio"].value,
            0.0,
            "{}",
            workload.name()
        );
    }
}
