//! `perf` — the simulator performance baseline and regression gate.
//!
//! ```text
//! perf                                  # measure the pinned grid, write BENCH_sim.json
//! perf --reps 3                         # fewer repetitions (CI uses 3)
//! perf --out results/bench.json         # write elsewhere
//! perf --check BENCH_sim.json           # measure, compare, exit 1 outside the gate
//! perf --check BENCH_sim.json --tolerance 60
//! perf --scale test                     # tiny inputs (schema/smoke tests only)
//! ```
//!
//! The harness runs a **pinned** kernel × scheme × procs grid (chosen to
//! cover the simulator's hot paths: TPI's per-word timetag machinery, the
//! full-map directory, and SC's invalidation storms) `reps` times. At the
//! default paper scale the grid also carries two 64-processor
//! `--scale large` cells (the large-scale replay path of EXPERIMENTS.md
//! E24). Every repetition of every cell is a *fresh, serial, unmemoized*
//! pipeline run — build → mark → interpret → simulate — so the numbers
//! measure the engine, not the artifact cache. Per cell it reports the median and p95 wall time
//! (nearest-rank on the sorted repetitions) and `cells_per_sec`
//! (`1 / median`), plus an aggregate tpi-prof stage/counter profile summed
//! over every run, and writes the whole thing as schema-versioned JSON.
//!
//! `--check` re-measures the same grid and compares the **grid-total**
//! median against the committed baseline's `totals.median_wall_ms`: the run
//! fails if the ratio falls outside `[1/(1+t), 1+t]` (default tolerance
//! `t` = 40%, generous on purpose — CI machines are noisy). Per-cell ratios
//! are printed for attribution but are informational only: individual cells
//! run for tens of milliseconds and their medians swing far more under CI
//! scheduler noise than the 20-cell total does. Structural mismatches
//! (unknown schema, wrong scale, missing or extra cells) always fail.
//! After an intentional performance change, regenerate the baseline and
//! commit the new file.

use std::process::ExitCode;
use std::time::Instant;
use tpi::{ExperimentConfig, ProfileReport, Runner};
use tpi_proto::SchemeId;
use tpi_serve::json::{parse, Json};
use tpi_workloads::{Kernel, Scale};

/// Format version of `BENCH_sim.json`. Bump on any incompatible layout
/// change and teach [`parse_baseline`] the migration.
///
/// v2: cells carry a per-cell `scale`, the paper grid grows two
/// large-scale 64-processor cells, and the report adds `host_cores`.
/// (v2 reports once also carried an informational `sharding` section;
/// `--check` never read it, so dropping it needed no version bump.)
const SCHEMA_VERSION: u64 = 2;

/// The pinned measurement grid. Deliberately small (20 cells): wide enough
/// to exercise TPI, the hardware directory, software-flush SC, Tardis's
/// lease machinery, and the hybrid update path at two machine sizes, small
/// enough that `reps` repetitions stay inside a CI smoke-job budget.
const KERNELS: [Kernel; 2] = [Kernel::Ocean, Kernel::Flo52];
const SCHEMES: [SchemeId; 5] = [
    SchemeId::SC,
    SchemeId::TPI,
    SchemeId::FULL_MAP,
    SchemeId::TARDIS,
    SchemeId::HYBRID,
];
const PROCS: [u32; 2] = [8, 16];

/// Large-scale serial cells appended to the paper grid (and its gate):
/// one kernel, the two cheapest schemes, 64 processors at
/// [`Scale::Large`]. These keep the 64-processor replay path on the
/// regression radar without blowing the CI smoke budget.
const LARGE_KERNEL: Kernel = Kernel::Ocean;
const LARGE_SCHEMES: [SchemeId; 2] = [SchemeId::SC, SchemeId::TPI];
const LARGE_PROCS: u32 = 64;

fn scale_name(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Test => "test",
        Scale::Large => "large",
    }
}

/// The pinned (kernel, scheme, procs, scale) cell list for one run.
fn grid(scale: Scale) -> Vec<(Kernel, SchemeId, u32, Scale)> {
    let mut g = Vec::new();
    for kernel in KERNELS {
        for scheme in SCHEMES {
            for procs in PROCS {
                g.push((kernel, scheme, procs, scale));
            }
        }
    }
    // The large-scale cells ride the paper grid only: `--scale test` runs
    // must stay smoke-test sized.
    if scale == Scale::Paper {
        for scheme in LARGE_SCHEMES {
            g.push((LARGE_KERNEL, scheme, LARGE_PROCS, Scale::Large));
        }
    }
    g
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: perf [--reps N] [--out PATH] [--check BASELINE] [--tolerance PCT] \
         [--scale paper|test]"
    );
    ExitCode::FAILURE
}

/// One measured grid cell.
struct CellReport {
    kernel: &'static str,
    scheme: &'static str,
    procs: u32,
    scale: &'static str,
    /// Sorted per-repetition wall times, milliseconds.
    wall_ms: Vec<f64>,
    /// Events the simulator replayed in one repetition (identical across
    /// repetitions — the pipeline is deterministic).
    sim_events: u64,
}

impl CellReport {
    fn median_ms(&self) -> f64 {
        nearest_rank(&self.wall_ms, 0.5)
    }
    fn p95_ms(&self) -> f64 {
        nearest_rank(&self.wall_ms, 0.95)
    }
    fn cells_per_sec(&self) -> f64 {
        let m = self.median_ms();
        if m > 0.0 {
            1000.0 / m
        } else {
            0.0
        }
    }
    fn key(&self) -> String {
        format!(
            "{}/{}/p{}/{}",
            self.kernel, self.scheme, self.procs, self.scale
        )
    }
}

/// Nearest-rank quantile of an ascending-sorted sample.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Merges one run's profile into the aggregate (summing nanos, calls, and
/// counter values per key).
fn merge_profile(total: &mut ProfileReport, run: &ProfileReport) {
    for s in &run.stages {
        match total.stages.iter_mut().find(|t| t.path == s.path) {
            Some(t) => {
                t.nanos = t.nanos.saturating_add(s.nanos);
                t.calls = t.calls.saturating_add(s.calls);
            }
            None => total.stages.push(s.clone()),
        }
    }
    for (name, v) in &run.counters {
        match total.counters.iter_mut().find(|(n, _)| n == name) {
            Some((_, t)) => *t = t.saturating_add(*v),
            None => total.counters.push((name.clone(), *v)),
        }
    }
}

fn measure(scale: Scale, reps: usize) -> (Vec<CellReport>, Vec<f64>, ProfileReport) {
    let mut cells = Vec::new();
    let mut rep_totals_ms = vec![0.0_f64; reps];
    let mut profile = ProfileReport::default();
    for (kernel, scheme, procs, cell_scale) in grid(scale) {
        let cfg = ExperimentConfig::builder()
            .scheme(scheme)
            .procs(procs)
            .build()
            .expect("the pinned grid is valid");
        let mut wall_ms = Vec::with_capacity(reps);
        let mut sim_events = 0;
        for (rep, total) in rep_totals_ms.iter_mut().enumerate() {
            // A fresh serial runner per repetition: no memoization
            // across reps or sibling cells, no thread-pool jitter.
            let runner = Runner::serial();
            let started = Instant::now();
            let result = runner
                .run_kernel(kernel, cell_scale, &cfg)
                .unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
            let elapsed = started.elapsed().as_secs_f64() * 1e3;
            wall_ms.push(elapsed);
            *total += elapsed;
            if rep == 0 {
                sim_events = result.sim.host.events;
                merge_profile(&mut profile, &runner.profile());
            }
        }
        wall_ms.sort_by(f64::total_cmp);
        let cell = CellReport {
            kernel: kernel.name(),
            scheme: scheme.label(),
            procs,
            scale: scale_name(cell_scale),
            wall_ms,
            sim_events,
        };
        eprintln!(
            "[{:<24} median {:>8.2} ms  p95 {:>8.2} ms  {} events]",
            cell.key(),
            cell.median_ms(),
            cell.p95_ms(),
            cell.sim_events,
        );
        cells.push(cell);
    }
    rep_totals_ms.sort_by(f64::total_cmp);
    profile
        .stages
        .sort_by(|a, b| b.nanos.cmp(&a.nanos).then_with(|| a.path.cmp(&b.path)));
    (cells, rep_totals_ms, profile)
}

/// Rounds to 3 decimal places so the committed file stays diff-friendly.
fn ms(v: f64) -> Json {
    Json::Num((v * 1e3).round() / 1e3)
}

/// Host cores visible to this process (recorded so committed wall times
/// can be read in the context of the host that measured them).
fn host_cores() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

fn render_report(
    scale: Scale,
    reps: usize,
    cells: &[CellReport],
    rep_totals_ms: &[f64],
    profile: &ProfileReport,
) -> String {
    let cell_objs: Vec<Json> = cells
        .iter()
        .map(|c| {
            Json::obj([
                ("kernel", Json::from(c.kernel)),
                ("scheme", Json::from(c.scheme)),
                ("procs", Json::from(c.procs)),
                ("scale", Json::from(c.scale)),
                ("median_wall_ms", ms(c.median_ms())),
                ("p95_wall_ms", ms(c.p95_ms())),
                ("cells_per_sec", ms(c.cells_per_sec())),
                ("sim_events", Json::from(c.sim_events)),
            ])
        })
        .collect();
    let median_total = nearest_rank(rep_totals_ms, 0.5);
    #[allow(clippy::cast_precision_loss)]
    let total_cells_per_sec = if median_total > 0.0 {
        cells.len() as f64 * 1000.0 / median_total
    } else {
        0.0
    };
    let stage_objs: Vec<Json> = profile
        .stages
        .iter()
        .map(|s| {
            Json::obj([
                ("stage", Json::from(s.path.as_str())),
                ("calls", Json::from(s.calls)),
                ("nanos", Json::from(s.nanos)),
            ])
        })
        .collect();
    let counter_objs: Vec<Json> = profile
        .counters
        .iter()
        .map(|(name, v)| {
            Json::obj([
                ("counter", Json::from(name.as_str())),
                ("value", Json::from(*v)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("generator", Json::from("tpi-bench perf")),
        ("scale", Json::from(scale_name(scale))),
        ("reps", Json::from(reps)),
        ("host_cores", Json::from(host_cores())),
        ("cells", Json::Arr(cell_objs)),
        (
            "totals",
            Json::obj([
                ("cells", Json::from(cells.len())),
                ("median_wall_ms", ms(median_total)),
                ("p95_wall_ms", ms(nearest_rank(rep_totals_ms, 0.95))),
                ("cells_per_sec", ms(total_cells_per_sec)),
            ]),
        ),
        (
            "profile",
            Json::obj([
                ("stages", Json::Arr(stage_objs)),
                ("counters", Json::Arr(counter_objs)),
            ]),
        ),
    ]);
    // One cell per line: stable ordering, reviewable diffs.
    pretty(&doc, 0)
}

/// A small fixed-shape pretty-printer: objects and arrays of objects break
/// across lines, leaf objects (no nested containers) render inline.
fn pretty(v: &Json, indent: usize) -> String {
    let pad = "  ".repeat(indent);
    let inner = "  ".repeat(indent + 1);
    match v {
        Json::Obj(members) if members.iter().any(|(_, m)| is_container(m)) => {
            let body: Vec<String> = members
                .iter()
                .map(|(k, m)| format!("{inner}\"{k}\": {}", pretty(m, indent + 1)))
                .collect();
            format!("{{\n{}\n{pad}}}", body.join(",\n"))
        }
        Json::Arr(items) if !items.is_empty() => {
            let body: Vec<String> = items
                .iter()
                .map(|m| format!("{inner}{}", pretty(m, indent + 1)))
                .collect();
            format!("[\n{}\n{pad}]", body.join(",\n"))
        }
        other => other.render(),
    }
}

fn is_container(v: &Json) -> bool {
    matches!(v, Json::Obj(_)) || matches!(v, Json::Arr(items) if !items.is_empty())
}

/// A baseline cell parsed back out of `BENCH_sim.json`.
struct BaselineCell {
    key: String,
    median_wall_ms: f64,
}

fn parse_baseline(text: &str) -> Result<(String, f64, Vec<BaselineCell>), String> {
    let doc = parse(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!(
            "schema_version {version} unsupported (this binary reads {SCHEMA_VERSION})"
        ));
    }
    let scale = doc
        .get("scale")
        .and_then(Json::as_str)
        .ok_or("missing scale")?
        .to_owned();
    let total_median = doc
        .get("totals")
        .and_then(|t| t.get("median_wall_ms"))
        .and_then(Json::as_f64)
        .ok_or("missing totals.median_wall_ms")?;
    let cells = doc
        .get("cells")
        .and_then(Json::as_array)
        .ok_or("missing cells array")?;
    let mut out = Vec::with_capacity(cells.len());
    for c in cells {
        let kernel = c
            .get("kernel")
            .and_then(Json::as_str)
            .ok_or("cell.kernel")?;
        let scheme = c
            .get("scheme")
            .and_then(Json::as_str)
            .ok_or("cell.scheme")?;
        let procs = c.get("procs").and_then(Json::as_u64).ok_or("cell.procs")?;
        let cell_scale = c.get("scale").and_then(Json::as_str).ok_or("cell.scale")?;
        let median = c
            .get("median_wall_ms")
            .and_then(Json::as_f64)
            .ok_or("cell.median_wall_ms")?;
        out.push(BaselineCell {
            key: format!("{kernel}/{scheme}/p{procs}/{cell_scale}"),
            median_wall_ms: median,
        });
    }
    Ok((scale, total_median, out))
}

fn check(
    baseline_path: &str,
    scale: Scale,
    cells: &[CellReport],
    grid_median_ms: f64,
    tolerance: f64,
) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (base_scale, base_total_ms, baseline) = match parse_baseline(&text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("{baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let want_scale = scale_name(scale);
    if base_scale != want_scale {
        eprintln!("{baseline_path}: baseline is scale={base_scale}, this run is {want_scale}");
        return ExitCode::FAILURE;
    }
    let hi = 1.0 + tolerance;
    let lo = 1.0 / hi;
    let mut structural = 0;
    // Per-cell ratios: attribution only. Single cells are too noisy on a
    // shared CI core to gate on; the grid total below is authoritative.
    for cell in cells {
        let Some(base) = baseline.iter().find(|b| b.key == cell.key()) else {
            eprintln!("GATE {}: not in baseline — regenerate it", cell.key());
            structural += 1;
            continue;
        };
        let ratio = if base.median_wall_ms > 0.0 {
            cell.median_ms() / base.median_wall_ms
        } else {
            f64::INFINITY
        };
        let note = if ratio > hi {
            "slower (informational)"
        } else if ratio < lo {
            "faster (informational)"
        } else {
            "ok"
        };
        eprintln!(
            "CELL {:<24} baseline {:>8.2} ms  now {:>8.2} ms  ratio {:.2}  {note}",
            cell.key(),
            base.median_wall_ms,
            cell.median_ms(),
            ratio,
        );
    }
    for base in &baseline {
        if !cells.iter().any(|c| c.key() == base.key) {
            eprintln!("GATE {}: in baseline but not measured", base.key);
            structural += 1;
        }
    }
    if structural > 0 {
        eprintln!("perf gate FAILED: {structural} cell-set mismatch(es) — regenerate the baseline");
        return ExitCode::FAILURE;
    }
    let total_ratio = if base_total_ms > 0.0 {
        grid_median_ms / base_total_ms
    } else {
        f64::INFINITY
    };
    eprintln!(
        "GATE grid total: baseline {base_total_ms:.1} ms  now {grid_median_ms:.1} ms  \
         ratio {total_ratio:.2}  (gate ±{:.0}%)",
        tolerance * 100.0
    );
    if total_ratio > hi {
        eprintln!("perf gate FAILED: grid total regressed beyond the tolerance");
        ExitCode::FAILURE
    } else {
        if total_ratio < lo {
            // Improvements don't fail the gate (a faster CI machine would
            // flap it), but a stale baseline weakens regression detection.
            eprintln!(
                "perf gate NOTE: grid total improved beyond the tolerance — \
                 regenerate BENCH_sim.json so the gate tracks the new reality"
            );
        }
        eprintln!("perf gate passed");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut reps = 5_usize;
    let mut out_path = "BENCH_sim.json".to_owned();
    let mut check_path: Option<String> = None;
    let mut tolerance = 0.40_f64;
    let mut scale = Scale::Paper;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--reps" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => reps = v,
                _ => return usage(),
            },
            "--out" => match it.next() {
                Some(v) => out_path.clone_from(v),
                None => return usage(),
            },
            "--check" => match it.next() {
                Some(v) => check_path = Some(v.clone()),
                None => return usage(),
            },
            "--tolerance" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => tolerance = v / 100.0,
                _ => return usage(),
            },
            "--scale" => match it.next().map(String::as_str) {
                Some("paper") => scale = Scale::Paper,
                Some("test") => scale = Scale::Test,
                Some("large") => scale = Scale::Large,
                _ => return usage(),
            },
            _ => return usage(),
        }
    }
    let (cells, rep_totals_ms, profile) = measure(scale, reps);
    eprintln!(
        "[grid total: median {:.1} ms over {reps} rep(s)]",
        nearest_rank(&rep_totals_ms, 0.5)
    );
    if let Some(baseline) = check_path {
        let grid_median_ms = nearest_rank(&rep_totals_ms, 0.5);
        return check(&baseline, scale, &cells, grid_median_ms, tolerance);
    }
    let report = render_report(scale, reps, &cells, &rep_totals_ms, &profile);
    if let Err(e) = std::fs::write(&out_path, report + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("[wrote {out_path}]");
    ExitCode::SUCCESS
}
