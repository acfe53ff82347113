//! Integration tests for the perf-observability surface:
//!
//! * a golden-schema test pinning the shape of the committed
//!   `BENCH_sim.json` baseline (so `tpi-bench perf --check` and external
//!   consumers can rely on the fields existing), and
//! * a reconciliation test that the `tpi-run --profile` stage accounting
//!   actually adds up to the measured wall clock around the grid run.

use std::path::PathBuf;
use std::process::Command;
use tpi_serve::json::{parse, Json};

/// Path to the repository root (two levels up from the bench crate).
fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root")
}

/// The committed benchmark baseline must keep the schema that
/// `tpi-bench perf --check` and the E-perf appendix document: any field
/// rename or removal here is a breaking change that needs a
/// `schema_version` bump and a regenerated baseline.
#[test]
fn bench_baseline_matches_golden_schema() {
    let path = repo_root().join("BENCH_sim.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc = parse(&text).expect("BENCH_sim.json parses as JSON");

    assert_eq!(
        doc.get("schema_version").and_then(Json::as_u64),
        Some(2),
        "schema_version pin"
    );
    assert_eq!(
        doc.get("generator").and_then(Json::as_str),
        Some("tpi-bench perf")
    );
    let scale = doc.get("scale").and_then(Json::as_str).expect("scale");
    assert!(!scale.is_empty());
    assert!(doc.get("reps").and_then(Json::as_u64).expect("reps") >= 1);
    assert!(
        doc.get("host_cores")
            .and_then(Json::as_u64)
            .expect("host_cores")
            >= 1
    );

    // Every cell carries the full measurement record.
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .expect("cells array");
    assert_eq!(
        cells.len(),
        22,
        "pinned 2 kernels x 5 schemes x 2 procs, plus 2 large-scale cells"
    );
    for cell in cells {
        for key in ["kernel", "scheme", "scale"] {
            assert!(
                cell.get(key).and_then(Json::as_str).is_some(),
                "cell.{key} is a string"
            );
        }
        assert!(cell.get("procs").and_then(Json::as_u64).is_some());
        for key in ["median_wall_ms", "p95_wall_ms", "cells_per_sec"] {
            let v = cell.get(key).and_then(Json::as_f64).expect(key);
            assert!(v.is_finite() && v > 0.0, "cell.{key} positive, got {v}");
        }
        assert!(
            cell.get("sim_events")
                .and_then(Json::as_u64)
                .expect("sim_events")
                > 0
        );
    }
    // The large-scale 64-processor cells are part of the gated grid.
    let large: Vec<_> = cells
        .iter()
        .filter(|c| c.get("scale").and_then(Json::as_str) == Some("large"))
        .collect();
    assert_eq!(large.len(), 2, "two 64-processor large-scale cells");
    for c in &large {
        assert_eq!(c.get("procs").and_then(Json::as_u64), Some(64));
    }

    // The grid-total block is what the CI perf gate compares against.
    let totals = doc.get("totals").expect("totals");
    assert_eq!(totals.get("cells").and_then(Json::as_u64), Some(22));
    for key in ["median_wall_ms", "p95_wall_ms", "cells_per_sec"] {
        let v = totals.get(key).and_then(Json::as_f64).expect(key);
        assert!(v.is_finite() && v > 0.0);
    }

    // Stage/counter attribution rides along for cross-machine triage.
    let profile = doc.get("profile").expect("profile");
    let stages = profile
        .get("stages")
        .and_then(Json::as_array)
        .expect("profile.stages");
    let stage_names: Vec<&str> = stages
        .iter()
        .filter_map(|s| s.get("stage").and_then(Json::as_str))
        .collect();
    for want in ["prepare", "prepare/interp", "simulate", "simulate/replay"] {
        assert!(stage_names.contains(&want), "profile stage {want} present");
    }
    for s in stages {
        assert!(s.get("calls").and_then(Json::as_u64).is_some());
        assert!(s.get("nanos").and_then(Json::as_u64).is_some());
    }
    let counters = profile
        .get("counters")
        .and_then(Json::as_array)
        .expect("profile.counters");
    let counter_names: Vec<&str> = counters
        .iter()
        .filter_map(|c| c.get("counter").and_then(Json::as_str))
        .collect();
    for want in ["sim_events", "sim_epochs", "interp_epochs"] {
        assert!(
            counter_names.contains(&want),
            "profile counter {want} present"
        );
    }
}

/// `tpi-run --profile` prints one `profile key=value ...` line per stage
/// and counter plus `total_nanos` (sum of top-level stages) and
/// `wall_nanos` (measured around the grid run). With the runner pinned to
/// one thread the two must agree closely: the profiled stages are the
/// whole pipeline, so anything beyond a small orchestration overhead
/// means a stage is escaping attribution.
#[test]
fn profile_output_reconciles_with_wall_clock() {
    let program = repo_root().join("examples/programs/stencil.tpi");
    let out = Command::new(env!("CARGO_BIN_EXE_tpi-run"))
        .arg(&program)
        .args(["--scheme", "all", "--profile"])
        .env("TPI_THREADS", "1")
        .output()
        .expect("run tpi-run");
    assert!(
        out.status.success(),
        "tpi-run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");

    let mut stage_nanos: Vec<(String, u64)> = Vec::new();
    let mut counters: Vec<String> = Vec::new();
    let mut memo_bytes = None;
    let mut total_nanos = None;
    let mut wall_nanos = None;
    for line in stdout.lines().filter(|l| l.starts_with("profile ")) {
        let fields: Vec<(&str, &str)> = line["profile ".len()..]
            .split_whitespace()
            .filter_map(|kv| kv.split_once('='))
            .collect();
        let get = |key: &str| {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        };
        if let Some(stage) = get("stage") {
            let nanos: u64 = get("nanos").expect("nanos").parse().expect("nanos u64");
            let calls: u64 = get("calls").expect("calls").parse().expect("calls u64");
            assert!(calls > 0, "stage {stage} has zero calls");
            stage_nanos.push((stage, nanos));
        } else if let Some(counter) = get("counter") {
            counters.push(counter);
        } else if let Some(v) = get("memo_bytes") {
            memo_bytes = Some(v.parse::<u64>().expect("memo bytes u64"));
        } else if let Some(v) = get("total_nanos") {
            total_nanos = Some(v.parse::<u64>().expect("total u64"));
        } else if let Some(v) = get("wall_nanos") {
            wall_nanos = Some(v.parse::<u64>().expect("wall u64"));
        }
    }

    let total = total_nanos.expect("total_nanos line") as f64;
    let wall = wall_nanos.expect("wall_nanos line") as f64;
    for want in ["sim_events", "interp_events", "trace_bytes"] {
        assert!(counters.iter().any(|c| c == want), "counter {want} present");
    }
    assert!(
        memo_bytes.expect("memo_bytes line") > 0,
        "the memo holds the run"
    );
    assert!(stdout.contains("profile memo_evictions=0\n"), "{stdout}");
    let stages: Vec<&str> = stage_nanos.iter().map(|(s, _)| s.as_str()).collect();
    assert!(stages.contains(&"prepare"), "prepare stage present");
    assert!(stages.contains(&"simulate"), "simulate stage present");

    // The printed total must equal the sum of top-level stages...
    let top_sum: u64 = stage_nanos
        .iter()
        .filter(|(s, _)| !s.contains('/'))
        .map(|(_, n)| n)
        .sum();
    assert_eq!(top_sum as f64, total, "total_nanos is the top-level sum");

    // ...and account for the measured wall clock to within 5%.
    assert!(
        total <= wall,
        "single-threaded stage time {total} exceeds wall {wall}"
    );
    assert!(
        total >= 0.95 * wall,
        "profiled stages cover only {:.1}% of wall time ({total} of {wall} ns)",
        100.0 * total / wall
    );
}
