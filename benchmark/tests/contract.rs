//! The benchmark keeps its promises: what `--smoke` prints is exactly
//! what `BENCHMARK.json` declares, traces nest, and `--seed` means
//! something.

use rede_common::Json;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_harborbench");

fn manifest() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("valid JSON")
}

fn str_of<'a>(obj: &'a Json, key: &str) -> &'a str {
    obj.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("missing string '{key}' in {obj:?}"))
}

/// `name -> (unit, better)` of one declared metric list.
fn declared(spec: &Json, list: &str) -> BTreeMap<String, (String, String)> {
    spec.get(list)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no '{list}' list"))
        .iter()
        .map(|m| {
            (
                str_of(m, "name").to_string(),
                (
                    str_of(m, "unit").to_string(),
                    str_of(m, "better").to_string(),
                ),
            )
        })
        .collect()
}

fn well_formed_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn manifest_follows_the_contract() {
    let spec = manifest();
    let Json::Object(keys) = &spec else {
        panic!("BENCHMARK.json is not an object")
    };
    let keys: Vec<&str> = keys.keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    assert_eq!(
        end_to_end.get("setup_s"),
        Some(&("s".to_string(), "lower".to_string()))
    );
    for (name, (unit, better)) in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed_name(name), "bad metric name '{name}'");
        assert!(!unit.is_empty() && unit.len() <= 16, "bad unit on {name}");
        assert!(
            better == "lower" || better == "higher",
            "bad direction on {name}"
        );
        assert!(
            !(end_to_end.contains_key(name) && per_layer.contains_key(name)),
            "{name} is declared twice"
        );
    }
    for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
        let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} out of range");
    }
    let seconds = spec.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}

/// Everything one run printed: `[workload] name = value unit (dir is
/// better)` lines and the closing JSON object.
struct Printed {
    workload: String,
    lines: BTreeMap<String, (String, String)>,
    json: Json,
}

fn parse_runs(stdout: &str) -> Vec<Printed> {
    let mut runs = Vec::new();
    let mut lines = BTreeMap::new();
    let mut workload = String::new();
    for line in stdout.lines() {
        if line.starts_with('{') {
            runs.push(Printed {
                workload: std::mem::take(&mut workload),
                lines: std::mem::take(&mut lines),
                json: Json::parse(line).expect("result line is JSON"),
            });
            continue;
        }
        let (tag, rest) = line.split_once("] ").expect("tagged line");
        workload = tag.trim_start_matches('[').to_string();
        if rest.starts_with('#') {
            continue;
        }
        assert!(!rest.starts_with("INCORRECT"), "{line}");
        // name = value unit (direction is better)
        let (name, rest) = rest.split_once(" = ").expect("metric line");
        let mut parts = rest.split_whitespace();
        let value: f64 = parts.next().unwrap().parse().expect("numeric value");
        assert!(value.is_finite());
        let unit = parts.next().expect("unit").to_string();
        let better = parts.next().expect("direction").trim_start_matches('(');
        lines.insert(name.to_string(), (unit, better.to_string()));
    }
    runs
}

#[test]
fn smoke_prints_exactly_what_the_manifest_declares_and_traces_nest() {
    let spec = manifest();
    let out_dir = std::env::temp_dir().join(format!("harborbench-smoke-{}", std::process::id()));
    let output = Command::new(BIN)
        .args(["--smoke", "--seed", "5", "--out"])
        .arg(&out_dir)
        .output()
        .expect("run harborbench --smoke");
    let stdout = String::from_utf8(output.stdout).unwrap();
    assert!(
        output.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| str_of(w, "name").to_string())
        .collect();
    let runs = parse_runs(&stdout);
    // Per workload: the untraced run, then the traced one.
    let ran: Vec<&str> = runs.iter().map(|r| r.workload.as_str()).collect();
    let expected: Vec<&str> = workloads
        .iter()
        .flat_map(|w| [w.as_str(), w.as_str()])
        .collect();
    assert_eq!(ran, expected);

    for (i, run) in runs.iter().enumerate() {
        let list = if i % 2 == 0 {
            "end_to_end"
        } else {
            "per_layer"
        };
        let want = declared(&spec, list);
        assert_eq!(run.lines, want, "{} {list}", run.workload);
        assert_eq!(run.json.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(run.json.get("failed").and_then(Json::as_f64), Some(0.0));
        assert!(run.json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        let Some(Json::Object(metrics)) = run.json.get("metrics") else {
            panic!("no metrics object")
        };
        assert_eq!(
            metrics.keys().collect::<Vec<_>>(),
            want.keys().collect::<Vec<_>>()
        );
        for (name, m) in metrics {
            assert_eq!(str_of(m, "unit"), want[name].0);
            assert!(m.get("value").and_then(Json::as_f64).is_some());
        }
    }

    for w in &workloads {
        let path = out_dir.join(format!("trace-{w}.jsonl"));
        let text = std::fs::read_to_string(&path).expect("trace file written");
        // id -> (parent, job, start, end)
        let mut spans: BTreeMap<u64, (u64, u64, u64, u64)> = BTreeMap::new();
        for line in text.lines() {
            let s = Json::parse(line).expect("span line is JSON");
            let n = |k: &str| s.get(k).and_then(Json::as_f64).expect("span field") as u64;
            assert!(!str_of(&s, "name").is_empty());
            spans.insert(n("id"), (n("parent"), n("job"), n("start_ns"), n("end_ns")));
        }
        let children = spans.values().filter(|s| s.0 != 0).count();
        assert!(children > 0, "{w}: no child spans recorded");
        for (id, (parent, job, start, end)) in &spans {
            assert!(start <= end, "{w}: span {id}");
            if *parent != 0 {
                let p = spans[parent];
                assert!(
                    p.2 <= *start && *end <= p.3 && p.1 == *job,
                    "{w}: span {id} escapes"
                );
            }
        }
    }
    let _ = std::fs::remove_dir_all(&out_dir);
}

#[test]
fn seed_changes_the_job_lists_and_the_same_seed_reproduces_them() {
    let describe = |workload: &str, seed: &str| {
        let out = Command::new(BIN)
            .args(["--describe", "--workload", workload, "--seed", seed])
            .output()
            .expect("run harborbench --describe");
        assert!(out.status.success());
        out.stdout
    };
    for w in ["q5_deref", "serve_open", "htap_mix", "mem_pressure"] {
        assert_eq!(describe(w, "21"), describe(w, "21"), "{w} not reproducible");
        assert_ne!(describe(w, "21"), describe(w, "22"), "{w} ignores --seed");
    }
}
