//! `perfbench` — the repository's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep|large-p|serve-mixed --seed N --seconds S --trace 0|1
//!     [--inject-slowdown]     # sensitivity self-test: wrappers cost 1.5x
//!     [--record-digests]      # large-p only: record every cell's digest
//! ```
//!
//! Run from the repository root. Each workload makes its inputs from the
//! seed, measures the release build of the program, checks every output,
//! prints every metric by name and unit, and ends with one JSON line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! spans recorded around each layer call) with `--trace 1`. See
//! `perfbench/NOTES.md` for the workloads, metrics and findings.

mod pipeline;
mod serve;
mod spans;
mod util;

use spans::Tracer;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use util::Slowdown;

/// The registry ids of the eight coherence schemes, in table order.
pub const SCHEME_IDS: [&str; 8] = ["base", "sc", "tpi", "hw", "ll", "ideal", "tardis", "hybrid"];

/// Everything a workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub tracer: Tracer,
    pub slowdown: Slowdown,
    pub threads: usize,
    /// Scratch directory for the ledger, spans and server caches.
    pub state: PathBuf,
    pub record_digests: bool,
}

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Check failures and skipped comparisons, printed to stderr.
    pub notes: Vec<String>,
    /// End-to-end metrics (measured with tracing off in untraced runs).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics.
    pub layer: BTreeMap<String, f64>,
    /// Counts that must repeat exactly for the same code and seed.
    pub exact: BTreeMap<String, u64>,
    /// Measurement bugs found inside the run; any makes it incorrect.
    pub bugs: Vec<String>,
    /// Workload-specific end-to-end figures printed beside the gated ones.
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(note);
    }

    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.layer.entry(name.into()).or_insert(0.0) += value;
    }
}

const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_events_per_s", "1/s"),
];

/// Every per-layer metric, with its unit. A layer a workload does not
/// reach reports 0.
fn layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("workloads.build_ms".into(), "ms"),
        ("compiler.mark_ms".into(), "ms"),
        ("compiler.marked_sites".into(), "count"),
        ("trace.interp_ms".into(), "ms"),
        ("trace.events".into(), "count"),
        ("trace.interp_ns_per_event".into(), "ns"),
    ];
    for id in SCHEME_IDS {
        m.push((format!("sim.replay_ms.{id}"), "ms"));
        m.push((format!("sim.replay_ns_per_event.{id}"), "ns"));
        m.push((format!("sim.events.{id}"), "count"));
        m.push((format!("sim.misses.{id}"), "count"));
    }
    // All schemes together: the only replay figures `paper-sweep` has.
    m.push(("sim.replay_ms.all".into(), "ms"));
    m.push(("sim.replay_ns_per_event.all".into(), "ns"));
    m.push(("sim.events.all".into(), "count"));
    for (name, unit) in [
        ("runner.traces_built", "count"),
        ("runner.trace_hit_ratio", "ratio"),
        ("runner.marking_hit_ratio", "ratio"),
        ("runner.cells_simulated", "count"),
        ("runner.prepare_ms", "ms"),
        ("serve.server_ms", "ms"),
        ("serve.transport_ms", "ms"),
        ("serve.compute_ms", "ms"),
        ("serve.cells_requested", "count"),
        ("serve.cells_computed", "count"),
        ("serve.cells_cached", "count"),
        ("serve.cells_joined", "count"),
        ("serve.hit_ratio", "ratio"),
        ("serve.memory_evictions", "count"),
        ("serve.rejected", "count"),
        ("serve.cold_s", "s"),
        ("serve.warm_p50_ms", "ms"),
        ("serve.warm_p90_ms", "ms"),
        ("serve.warm_req_per_s", "1/s"),
        ("serve.warm_samples", "count"),
        ("disk.writes", "count"),
        ("disk.hits", "count"),
        ("disk.hit_share", "ratio"),
        ("disk.records_scanned", "count"),
        ("disk.recovery_ms", "ms"),
        ("op_fail_ratio", "ratio"),
        ("trace_overhead_frac", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    for layer in LAYERS {
        m.push((format!("self_ms.{layer}"), "ms"));
    }
    m
}

/// The layers spans are named after (`layer.op`).
const LAYERS: [&str; 7] = [
    "workloads",
    "compiler",
    "trace",
    "runner",
    "sim",
    "serve",
    "disk",
];

const WORKLOADS: [&str; 3] = ["paper-sweep", "large-p", "serve-mixed"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    inject: bool,
    record_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20,
        trace: false,
        inject: false,
        record_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v:?}")),
                }
            }
            "--inject-slowdown" => args.inject = true,
            "--record-digests" => args.record_digests = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // The program under test is the repository the benchmark runs in.
    for needed in ["Cargo.toml", "crates/core", "results/repro_paper.txt"] {
        if !Path::new(needed).exists() {
            eprintln!("perfbench: {needed} not found; run from the repository root");
            return ExitCode::from(2);
        }
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Tracer::new(args.trace),
        slowdown: Slowdown(args.inject),
        threads: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        state: target.join("perfbench-state"),
        record_digests: args.record_digests,
    };
    let run = |ctx: &Ctx| match args.workload.as_str() {
        "paper-sweep" => pipeline::paper_sweep(ctx),
        "large-p" => pipeline::large_p(ctx),
        _ => serve::serve_mixed(ctx),
    };
    // A traced run is preceded by an untraced run of the same seed in
    // this process, the base of `trace_overhead_frac`.
    let reference = if ctx.tracer.enabled() && !ctx.record_digests {
        let plain = Ctx {
            tracer: Tracer::new(false),
            state: ctx.state.clone(),
            ..ctx
        };
        match run(&plain) {
            Ok(o) => Some(o),
            Err(e) => {
                eprintln!("perfbench: {}: untraced reference run: {e}", args.workload);
                return ExitCode::FAILURE;
            }
        }
    } else {
        None
    };
    let mut outcome = match run(&ctx) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if ctx.record_digests {
        return ExitCode::SUCCESS;
    }

    let ledger = Ledger::new(&ctx.state, &args.workload, args.seconds);
    let mut correct = true;
    if let Some(plain) = &reference {
        span_metrics(&ctx, &args, &mut outcome);
        let overhead = outcome.e2e["wall_s"] / plain.e2e["wall_s"] - 1.0;
        outcome.set("trace_overhead_frac", overhead);
        // The same code and seed, run twice in one process: every exact
        // count both runs record must agree.
        for (name, &value) in &plain.exact {
            if let Some(&traced) = outcome.exact.get(name) {
                if traced != value {
                    eprintln!(
                        "perfbench: measurement bug: {name} = {traced} traced, {value} untraced"
                    );
                    correct = false;
                }
            }
        }
        for note in plain.bugs.iter().chain(&plain.notes) {
            eprintln!("perfbench: untraced reference run: {note}");
        }
        correct &= plain.failed == 0 && plain.bugs.is_empty();
    }
    let op_fail_ratio = util::ratio(outcome.failed as f64, outcome.attempted as f64);
    outcome.set("op_fail_ratio", op_fail_ratio);
    correct &= outcome.failed == 0;
    for bug in &outcome.bugs {
        eprintln!("perfbench: measurement bug: {bug}");
        correct = false;
    }
    for diff in ledger.check_exact(args.seed, &outcome.exact) {
        eprintln!("perfbench: measurement bug: {diff}");
        correct = false;
    }
    for note in &outcome.notes {
        eprintln!("perfbench: {note}");
    }

    // Human-readable report: every metric by name, with its unit.
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ctx.threads
    );
    println!("note simulated statistics are checked for exact equality; the model is unvalidated against hardware, so no error figure is reported");
    for (name, unit) in END_TO_END {
        println!(
            "metric {name} = {} {unit}",
            outcome.e2e.get(name).copied().unwrap_or(0.0)
        );
    }
    for (name, value, unit) in &outcome.extra {
        println!("metric {name} = {value} {unit}");
    }
    println!(
        "metric op_fail_ratio = {op_fail_ratio} ratio ({} of {})",
        outcome.failed, outcome.attempted
    );
    let layers = layer_metrics();
    if ctx.tracer.enabled() {
        for (name, unit) in &layers {
            println!(
                "layer {name} = {} {unit}",
                outcome.layer.get(name).copied().unwrap_or(0.0)
            );
        }
    }
    for (name, value) in &outcome.exact {
        println!("count {name} = {value}");
    }

    let metrics: Vec<(String, f64, &str)> = if ctx.tracer.enabled() {
        layers
            .into_iter()
            .map(|(name, unit)| {
                let v = outcome.layer.get(&name).copied().unwrap_or(0.0);
                (name, v, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit)| {
                (
                    name.to_owned(),
                    outcome.e2e.get(name).copied().unwrap_or(0.0),
                    unit,
                )
            })
            .collect()
    };
    let mut json = String::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not finite");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        if !json.is_empty() {
            json.push_str(", ");
        }
        json.push_str(&format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.attempted.max(1),
        outcome.failed
    );
    ExitCode::SUCCESS
}

/// Per-checkout record of the exact counts earlier runs of the same code
/// recorded, by seed: the exact-count guard across runs.
struct Ledger {
    dir: PathBuf,
    workload: String,
    seconds: u64,
}

impl Ledger {
    fn new(state: &Path, workload: &str, seconds: u64) -> Ledger {
        Ledger {
            dir: state
                .join("ledger")
                .join(format!("{:016x}", code_fingerprint())),
            workload: workload.to_owned(),
            seconds,
        }
    }

    /// Compares `counts` with the counts an earlier run of this code and
    /// seed recorded, then records any new ones. Returns the differences.
    fn check_exact(&self, seed: u64, counts: &BTreeMap<String, u64>) -> Vec<String> {
        let path = self.dir.join(format!(
            "{}-seed{}-s{}.counts",
            self.workload, seed, self.seconds
        ));
        let mut known: BTreeMap<String, u64> = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| {
                let (k, v) = l.split_once(' ')?;
                Some((k.to_owned(), v.parse().ok()?))
            })
            .collect();
        let mut diffs = Vec::new();
        for (k, &v) in counts {
            match known.get(k) {
                Some(&old) if old != v => {
                    diffs.push(format!(
                        "{k} = {v} here, {old} in an earlier run of the same code and seed"
                    ));
                }
                Some(_) => {}
                None => {
                    known.insert(k.clone(), v);
                }
            }
        }
        let text: String = known.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
        let _ = std::fs::create_dir_all(&self.dir);
        let _ = std::fs::write(&path, text);
        diffs
    }
}

/// FNV-1a over the program's sources and the benchmark's own, so ledger
/// entries from other code are never compared.
fn code_fingerprint() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, out);
                }
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec![
        PathBuf::from("Cargo.toml"),
        PathBuf::from("Cargo.lock"),
        PathBuf::from("perfbench/Cargo.toml"),
    ];
    for dir in ["crates", "src", "perfbench/src"] {
        walk(Path::new(dir), &mut files);
    }
    files.sort();
    let mut h = util::Fnv::default();
    for f in files {
        h.write(f.to_string_lossy().as_bytes());
        h.write(&std::fs::read(&f).unwrap_or_default());
    }
    h.finish()
}

/// Per-layer times from the traced run's spans, which are also written
/// out as JSON lines under the state directory. A time the workload set
/// itself (from a `Runner` profile) is kept.
fn span_metrics(ctx: &Ctx, args: &Args, out: &mut Outcome) {
    let spans = ctx.tracer.take();
    let path = ctx
        .state
        .join("spans")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans::write_jsonl(&path, &spans) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
    let times = spans::self_ns_by_name(&spans);
    let self_ms = |name: &str| util::ms(times.get(name).copied().unwrap_or(0));
    let mut timed = vec![
        ("workloads.build_ms".to_owned(), self_ms("workloads.build")),
        ("compiler.mark_ms".to_owned(), self_ms("compiler.mark")),
        ("trace.interp_ms".to_owned(), self_ms("trace.interp")),
        ("disk.recovery_ms".to_owned(), self_ms("disk.recovery")),
    ];
    if times.contains_key("runner.prepare") {
        timed.push(("runner.prepare_ms".to_owned(), self_ms("runner.prepare")));
    }
    let mut all_ms = 0.0;
    let mut all_events = 0.0;
    for id in SCHEME_IDS {
        let replay = self_ms(pipeline::replay_span(id));
        all_ms += replay;
        all_events += out
            .layer
            .get(&format!("sim.events.{id}"))
            .copied()
            .unwrap_or(0.0);
        timed.push((format!("sim.replay_ms.{id}"), replay));
    }
    timed.push(("sim.replay_ms.all".to_owned(), all_ms));
    timed.push(("sim.events.all".to_owned(), all_events));
    for layer in LAYERS {
        let prefix = format!("{layer}.");
        let total: u64 = times
            .iter()
            .filter(|(name, _)| name.starts_with(&prefix))
            .map(|(_, ns)| *ns)
            .sum();
        timed.push((format!("self_ms.{layer}"), util::ms(total)));
    }
    for (name, value) in timed {
        out.layer.entry(name).or_insert(value);
    }
    let get = |out: &Outcome, name: &str| out.layer.get(name).copied().unwrap_or(0.0);
    let per_event = util::ratio(get(out, "trace.interp_ms") * 1e6, get(out, "trace.events"));
    out.set("trace.interp_ns_per_event", per_event);
    for id in SCHEME_IDS.iter().chain(&["all"]) {
        let ns = get(out, &format!("sim.replay_ms.{id}")) * 1e6;
        let per_event = util::ratio(ns, get(out, &format!("sim.events.{id}")));
        out.set(format!("sim.replay_ns_per_event.{id}"), per_event);
    }
}
