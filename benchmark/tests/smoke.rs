//! Runs every workload in smoke mode and parses stdout the way the
//! benchmark contract says: one line, one JSON object with exactly the
//! keys `correct`, `attempted`, `failed` and `metrics`, and under
//! `metrics` exactly the names `BENCHMARK.json` lists for the pass — each
//! once, finite, with its unit.

use std::path::Path;
use std::process::Command;

/// A JSON value; objects keep their keys in order and with duplicates, so
/// that a repeated metric name is visible.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Bool(bool),
    Number(f64),
    String(String),
    Array(Vec<Json>),
    Object(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Object(fields) => {
                let mut found = fields.iter().filter(|(k, _)| k == key);
                let value = &found.next().unwrap_or_else(|| panic!("no key {key}")).1;
                assert!(found.next().is_none(), "key {key} appears twice");
                value
            }
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn items(&self) -> &[Json] {
        match self {
            Json::Array(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn text(&self) -> &str {
        match self {
            Json::String(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn number(&self) -> f64 {
        match self {
            Json::Number(n) => *n,
            other => panic!("{other:?} is not a number"),
        }
    }
}

/// A strict recursive-descent parser for the JSON this test reads.
struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value();
        p.space();
        assert_eq!(p.at, p.bytes.len(), "trailing characters after JSON");
        value
    }

    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.space();
        assert_eq!(
            self.bytes.get(self.at),
            Some(&byte),
            "at offset {}",
            self.at
        );
        self.at += 1;
    }

    fn peek(&mut self) -> u8 {
        self.space();
        *self.bytes.get(self.at).expect("unexpected end of JSON")
    }

    fn literal(&mut self, word: &str, value: Json) -> Json {
        assert!(self.bytes[self.at..].starts_with(word.as_bytes()));
        self.at += word.len();
        value
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = Vec::new();
        loop {
            let byte = self.bytes[self.at];
            self.at += 1;
            match byte {
                b'"' => return String::from_utf8(out).expect("utf-8"),
                b'\\' => {
                    let escaped = self.bytes[self.at];
                    self.at += 1;
                    out.push(match escaped {
                        b'n' => b'\n',
                        b't' => b'\t',
                        b'"' | b'\\' | b'/' => escaped,
                        other => panic!("unsupported escape \\{}", other as char),
                    });
                }
                other => out.push(other),
            }
        }
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() == b'}' {
                    self.eat(b'}');
                    return Json::Object(fields);
                }
                loop {
                    self.space();
                    let key = self.string();
                    self.eat(b':');
                    fields.push((key, self.value()));
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b'}');
                        return Json::Object(fields);
                    }
                }
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() == b']' {
                    self.eat(b']');
                    return Json::Array(items);
                }
                loop {
                    items.push(self.value());
                    if self.peek() == b',' {
                        self.eat(b',');
                    } else {
                        self.eat(b']');
                        return Json::Array(items);
                    }
                }
            }
            b'"' => Json::String(self.string()),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.at]).expect("utf-8");
                Json::Number(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
}

fn run(workload: &str, trace: &str) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_acp-benchmark"))
        .args(["--workload", workload, "--seed", "5", "--seconds", "2"])
        .args(["--trace", trace, "--smoke"])
        .env_remove("ACP_KERNEL_THREADS")
        .env_remove("ACP_VERIFY_SCHEDULE")
        .output()
        .expect("run the benchmark")
}

/// Runs every workload with `--trace <trace>` and checks its result line
/// against the metric list under `section` of `BENCHMARK.json`.
fn check_pass(trace: &str, section: &str) {
    let spec = benchmark_json();
    let listed: Vec<(&str, &str)> = spec
        .get(section)
        .items()
        .iter()
        .map(|m| (m.get("name").text(), m.get("unit").text()))
        .collect();
    for workload in spec.get("workloads").items() {
        let workload = workload.get("name").text();
        let output = run(workload, trace);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{workload} failed:\n{stderr}");
        let stdout = String::from_utf8(output.stdout).expect("utf-8 stdout");
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(
            lines.len(),
            1,
            "{workload}: stdout is not one line: {stdout:?}"
        );
        let result = Parser::parse(lines[0]);
        assert_eq!(
            result.keys(),
            ["correct", "attempted", "failed", "metrics"],
            "{workload}"
        );
        assert_eq!(result.get("correct"), &Json::Bool(true), "{workload}");
        let attempted = result.get("attempted").number();
        assert!(attempted >= 1.0 && attempted.fract() == 0.0, "{workload}");
        assert_eq!(result.get("failed").number(), 0.0, "{workload}");

        let metrics = result.get("metrics");
        let mut reported = metrics.keys();
        reported.sort_unstable();
        let mut expected: Vec<&str> = listed.iter().map(|(name, _)| *name).collect();
        expected.sort_unstable();
        assert_eq!(reported, expected, "{workload}: metric names");
        for (name, unit) in &listed {
            let metric = metrics.get(name);
            assert_eq!(metric.keys(), ["value", "unit"], "{workload} {name}");
            assert!(
                metric.get("value").number().is_finite(),
                "{workload} {name}"
            );
            assert_eq!(metric.get("unit").text(), *unit, "{workload} {name}");
        }
    }
}

#[test]
fn untraced_pass_prints_exactly_the_end_to_end_metrics() {
    check_pass("0", "end_to_end");
}

#[test]
fn traced_pass_prints_exactly_the_per_layer_metrics() {
    check_pass("1", "per_layer");
}

#[test]
fn refuses_to_run_with_an_environment_knob_set() {
    let output = Command::new(env!("CARGO_BIN_EXE_acp-benchmark"))
        .args(["--workload", "mlp_train_thread", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0", "--smoke"])
        .env("ACP_KERNEL_THREADS", "1")
        .output()
        .expect("run the benchmark");
    assert!(!output.status.success());
    assert!(
        output.stdout.is_empty(),
        "a refused run must print no result"
    );
    assert!(String::from_utf8_lossy(&output.stderr).contains("ACP_KERNEL_THREADS"));
}
