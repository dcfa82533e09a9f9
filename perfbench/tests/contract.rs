//! The benchmark's contract: `BENCHMARK.json` declares exactly the
//! metrics the registry knows, names and units are well formed, and a
//! smoke run of every workload prints every declared metric with its
//! unit, correct and without failures.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use perfbench::metrics::{valid_name, valid_unit, Metric, END_TO_END, PER_LAYER};
use perfbench::work::Workload;

/// A minimal JSON value, enough for `BENCHMARK.json` and result lines.
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
        assert_eq!(p.i, p.s.len(), "trailing text after JSON");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(m) => m.keys().map(String::as_str).collect(),
            other => panic!("{other:?} is not an object"),
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
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
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
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
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
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(a),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
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
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
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

fn bench_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root"))
}

fn declared(json: &Json, key: &str, registry: &[Metric]) -> Vec<(String, String)> {
    let listed: Vec<(String, String)> = json
        .get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect();
    let known: Vec<(String, String)> = registry
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    assert_eq!(
        listed, known,
        "BENCHMARK.json {key} differs from the registry"
    );
    listed
}

#[test]
fn benchmark_json_matches_the_registry_and_the_contract() {
    let json = bench_json();
    assert_eq!(
        json.keys(),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let e2e = declared(&json, "end_to_end", END_TO_END);
    declared(&json, "per_layer", PER_LAYER);
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for m in json.get("end_to_end").arr() {
        assert_eq!(m.keys(), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
        let name = m.get("name").str();
        let better = END_TO_END.iter().find(|d| d.name == name).unwrap().better;
        assert_eq!(m.get("better").str(), better.as_str());
    }
    for m in json.get("per_layer").arr() {
        assert_eq!(m.keys(), ["better", "name", "unit"]);
        let name = m.get("name").str();
        let better = PER_LAYER.iter().find(|d| d.name == name).unwrap().better;
        assert_eq!(m.get("better").str(), better.as_str());
    }
    let names: Vec<&str> = json
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            assert!(w.get("why").str().len() <= 200);
            w.get("name").str()
        })
        .collect();
    let registry: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names, registry);
    let secs = json.get("run_seconds").num();
    assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
}

#[test]
fn metric_and_workload_names_are_valid() {
    let json = bench_json();
    let mut seen = std::collections::BTreeSet::new();
    for key in ["end_to_end", "per_layer", "workloads"] {
        for m in json.get(key).arr() {
            let name = m.get("name").str();
            assert!(valid_name(name), "invalid name {name:?}");
            assert!(seen.insert(name.to_string()), "name {name:?} used twice");
            if key != "workloads" {
                assert!(valid_unit(m.get("unit").str()), "invalid unit of {name}");
            }
        }
    }
}

/// Runs the benchmark binary; returns its exit status and stdout.
fn bench(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark binary runs");
    (out.status.success(), String::from_utf8(out.stdout).unwrap())
}

#[test]
fn every_workload_smoke_run_prints_every_declared_metric_with_its_unit() {
    let json = bench_json();
    for w in Workload::ALL {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = [
                "--workload",
                w.name(),
                "--seed",
                "7",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--smoke",
            ];
            let (ok, stdout) = bench(&args);
            assert!(ok, "{} --trace {trace} failed", w.name());
            let last = stdout.lines().last().expect("a result line");
            let r = Json::parse(last);
            assert_eq!(r.keys(), ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(r.get("correct"), &Json::Bool(true), "{last}");
            assert_eq!(r.get("failed").num(), 0.0);
            assert!(r.get("attempted").num() >= 1.0);
            let metrics = r.get("metrics");
            let want = json.get(key).arr();
            assert_eq!(metrics.keys().len(), want.len(), "{last}");
            for m in want {
                let got = metrics.get(m.get("name").str());
                assert_eq!(got.keys(), ["unit", "value"]);
                assert_eq!(got.get("unit").str(), m.get("unit").str());
                let v = got.get("value").num();
                assert!(v.is_finite());
                if key == "end_to_end" {
                    assert!(v > 0.0, "{} is {v} on {}", m.get("name").str(), w.name());
                }
            }
            assert!(
                stdout.lines().any(|l| l.starts_with("digest ")),
                "no exactness digest printed"
            );
        }
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "subjects",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        &[
            "--workload",
            "subjects",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        &["--workload", "subjects", "--seed", "1", "--seconds", "1"],
    ] {
        let (ok, stdout) = bench(args);
        assert!(!ok, "{args:?} succeeded");
        assert!(stdout.is_empty(), "{args:?} printed {stdout:?}");
    }
}
