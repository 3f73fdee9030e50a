//! Smoke test: every workload at a tiny scale, untraced and traced. Each run
//! must pass its oracle and report every metric `BENCHMARK.json` names.

use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 4] =
    ["pagerank-lj", "pagerank-sql-lj", "sssp-lj-ooc", "pagerank-gplus-2shard"];

/// Metric names listed in the `end_to_end` and `per_layer` sections of the
/// repository's `BENCHMARK.json`.
fn declared_metrics() -> (Vec<String>, Vec<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let e2e_at = text.find("\"end_to_end\"").expect("end_to_end section");
    let layer_at = text.find("\"per_layer\"").expect("per_layer section");
    let names = |section: &str| -> Vec<String> {
        section
            .split("\"name\":")
            .skip(1)
            .filter_map(|rest| rest.trim_start().strip_prefix('"')?.split('"').next())
            .map(str::to_string)
            .collect()
    };
    let (e2e, layer) = if e2e_at < layer_at {
        (&text[e2e_at..layer_at], &text[layer_at..])
    } else {
        (&text[e2e_at..], &text[layer_at..e2e_at])
    };
    (names(e2e), names(layer))
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    std::fs::create_dir_all(&dir).expect("create out dir");
    dir
}

fn run(workload: &str, trace: &str, dir: &PathBuf) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", trace])
        .args(["--scale", "0.0005", "--out-dir"])
        .arg(dir)
        .env("VERTEXICA_SHARDS", "4")
        .env("VERTEXICA_PIPELINED", "0")
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    (stdout.contains("# env: cleared VERTEXICA_SHARDS=4"), last)
}

#[test]
fn every_workload_passes_and_reports_every_metric() {
    let (e2e, layer) = declared_metrics();
    assert!(e2e.iter().any(|n| n == "setup_s"), "{e2e:?}");
    assert!(layer.len() > 30, "{layer:?}");
    for workload in WORKLOADS {
        let dir = out_dir(workload);
        for (trace, names) in [("0", &e2e), ("1", &layer)] {
            let (cleared, last) = run(workload, trace, &dir);
            assert!(cleared, "{workload}: ambient VERTEXICA_SHARDS was not cleared");
            assert!(
                last.starts_with("{\"correct\": true,") && last.contains("\"failed\": 0,"),
                "{workload} trace={trace}: {last}"
            );
            for name in names.iter() {
                assert!(
                    last.contains(&format!("\"{name}\": {{\"value\": ")),
                    "{workload} trace={trace} lacks {name}: {last}"
                );
            }
            let reported = last.matches("\"value\": ").count();
            assert_eq!(reported, names.len(), "{workload} trace={trace}: extra metrics in {last}");
        }
        // Only trace files remain: every database directory was removed.
        for entry in std::fs::read_dir(&dir).expect("list out dir") {
            let name = entry.expect("dir entry").file_name().to_string_lossy().to_string();
            assert!(name.starts_with("trace-"), "{workload} left {name} behind");
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        vec!["--workload", "no-such-workload"],
        vec!["--workload", "pagerank-lj", "--trace", "2"],
        vec!["--seed", "1"],
    ] {
        let out =
            Command::new(env!("CARGO_BIN_EXE_perfbench")).args(&args).output().expect("spawn");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(
            out.stdout.is_empty(),
            "{args:?} printed {:?}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
