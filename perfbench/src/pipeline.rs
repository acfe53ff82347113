//! The two simulation workloads, `paper-sweep` and `large-p`, and the
//! direct layer calls the traced runs make.
//!
//! Layers and the entry points timed: `tpi-workloads` (`Kernel::build`),
//! `tpi-compiler` (`mark_program`), `tpi-trace` (`generate_trace`),
//! `tpi-sim` (`run_trace`, one span name per scheme), and `tpi` (`Runner`:
//! `run_experiment` through it on `paper-sweep`, `Runner::prepare` on
//! `large-p`). Where a layer is reached only through `Runner`, the traced
//! run calls the layer itself on the same inputs and checks the results
//! match. On `paper-sweep` the sweep's inputs are hidden inside the
//! experiments, so its layer times come from the sweep `Runner`'s own
//! stage profile and the direct calls are only a cross-check.

use crate::spans::SpanId;
use crate::util::{median, ms, ratio, Fnv, Rng};
use crate::{Ctx, Outcome, SCHEME_IDS};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use tpi::{ExperimentConfig, ProgramSource, RunSpec, Runner};
use tpi_bench::{run_experiment, ALL_IDS};
use tpi_compiler::{mark_program, MarkingSummary};
use tpi_proto::{build_engine, registry, SchemeId};
use tpi_sim::{run_trace, verify_accounting, SimResult};
use tpi_trace::{generate_trace, Trace};
use tpi_workloads::{Kernel, Scale};

/// Span names of `run_trace`, one per scheme, in [`SCHEME_IDS`] order.
const REPLAY_SPANS: [&str; 8] = [
    "sim.replay.base",
    "sim.replay.sc",
    "sim.replay.tpi",
    "sim.replay.hw",
    "sim.replay.ll",
    "sim.replay.ideal",
    "sim.replay.tardis",
    "sim.replay.hybrid",
];

pub fn replay_span(id: &str) -> &'static str {
    SCHEME_IDS
        .iter()
        .position(|s| *s == id)
        .map_or("sim.replay.other", |i| REPLAY_SPANS[i])
}

pub fn scheme(id: &str) -> SchemeId {
    registry::global()
        .lookup(id)
        .map(|s| s.id())
        .expect("every scheme name the benchmark uses is registered")
}

/// Events in a trace (what `run_trace` replays).
pub fn trace_events(trace: &Trace) -> u64 {
    trace.epochs.iter().map(|e| e.len() as u64).sum()
}

/// Digest of every simulated statistic of a result (host timings excluded).
pub fn digest(sim: &SimResult) -> u64 {
    let mut h = Fnv::default();
    let text = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}",
        sim.scheme,
        sim.total_cycles,
        sim.busy_cycles,
        sim.agg,
        sim.per_proc,
        sim.traffic,
        sim.wbuffer,
        sim.epochs,
        sim.lock_acquires,
        sim.lock_wait_cycles,
        sim.profile,
        sim.miss_by_array,
    );
    h.write(text.as_bytes());
    h.finish()
}

/// Whether direct layer calls are the measurement or only a cross-check.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Direct {
    /// Spans are named for their layer and counts become layer metrics.
    Measure,
    /// Spans are named `check.*`, which no layer metric reads, and counts
    /// are guarded under `check.` names only.
    Check,
}

impl Direct {
    fn prefix(self) -> &'static str {
        match self {
            Direct::Measure => "",
            Direct::Check => "check.",
        }
    }
}

/// The benchmark's wrapper around `run_trace`: one span per call, named
/// for the scheme, and the self-test's injected slowdown.
pub fn replay(
    ctx: &Ctx,
    parent: Option<SpanId>,
    tag: &str,
    trace: &Trace,
    config: &ExperimentConfig,
    mode: Direct,
) -> SimResult {
    let name = match mode {
        Direct::Measure => replay_span(config.scheme.as_str()),
        Direct::Check => "check.replay",
    };
    ctx.tracer.span(
        name,
        parent,
        || tag.to_owned(),
        |_| {
            let started = Instant::now();
            let mut engine = build_engine(
                config.scheme,
                config.engine_config(trace.layout.total_words()),
            );
            let sim = run_trace(trace, engine.as_mut(), &config.sim_options());
            ctx.slowdown.after(started);
            sim
        },
    )
}

/// Records a replayed cell's exact counts.
fn count_sim(out: &mut Outcome, sim: &SimResult, id: &str, mode: Direct) {
    if mode == Direct::Measure {
        out.add(format!("sim.events.{id}"), sim.host.events as f64);
        out.add(format!("sim.misses.{id}"), sim.agg.read_misses() as f64);
    }
    let p = mode.prefix();
    *out.exact.entry(format!("{p}sim.events.{id}")).or_insert(0) += sim.host.events;
    *out.exact.entry(format!("{p}sim.misses.{id}")).or_insert(0) += sim.agg.read_misses();
}

/// Runs `f` over `items` on `threads` workers; results keep item order.
pub fn parallel<T: Sync, R: Send>(
    threads: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads.clamp(1, items.len().max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                *slots[i]
                    .lock()
                    .expect("result slot poisoned by a panicking worker") = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned by a panicking worker")
                .expect("every claimed item was computed")
        })
        .collect()
}

/// The front of the pipeline called directly: build, mark, interpret.
pub struct Front {
    pub trace: Trace,
    pub marking: MarkingSummary,
}

pub fn direct_front(
    ctx: &Ctx,
    parent: Option<SpanId>,
    kernel: Kernel,
    scale: Scale,
    config: &ExperimentConfig,
    mode: Direct,
) -> Result<Front, String> {
    let tag = || format!("{}/{}", kernel.name(), config.procs);
    let [build, mark, interp] = match mode {
        Direct::Measure => ["workloads.build", "compiler.mark", "trace.interp"],
        Direct::Check => ["check.build", "check.mark", "check.interp"],
    };
    let program = ctx.tracer.span(build, parent, tag, |_| kernel.build(scale));
    let marking = ctx.tracer.span(mark, parent, tag, |_| {
        mark_program(&program, &config.compiler_options())
    });
    let trace = ctx.tracer.span(interp, parent, tag, |_| {
        generate_trace(&program, &marking, &config.trace_options())
    });
    let trace = trace.map_err(|e| format!("{}: {e}", kernel.name()))?;
    Ok(Front {
        trace,
        marking: marking.summary(),
    })
}

/// Records the direct front's per-layer counts.
fn count_front(out: &mut Outcome, front: &Front, mode: Direct) {
    let events = trace_events(&front.trace);
    if mode == Direct::Measure {
        out.add("trace.events", events as f64);
        out.add("compiler.marked_sites", front.marking.marked as f64);
    }
    *out.exact
        .entry(format!("{}trace.events", mode.prefix()))
        .or_insert(0) += events;
}

/// Checks a directly computed front against the artifacts `Runner` made
/// from the same inputs.
fn check_front(
    out: &mut Outcome,
    what: &str,
    front: &Front,
    trace: &Trace,
    marking: &MarkingSummary,
) {
    if front.trace.stats != trace.stats || trace_events(&front.trace) != trace_events(trace) {
        out.fail(format!("{what}: direct trace differs from Runner's"));
    }
    if front.marking != *marking {
        out.fail(format!("{what}: direct marking differs from Runner's"));
    }
}

/// Duration of building a `Runner`: the simulation workloads' set-up,
/// from runner construction until a cell can be submitted. Nearly all of
/// it is `available_parallelism()` reading the cgroup files, which takes
/// one of two speeds (about 16 or 27 µs on a 2-vCPU host) that switch
/// every few milliseconds. The constructions therefore run in batches
/// 5 ms apart; each batch's median drops host hiccups, and the result is
/// the mean of the batch medians, which follows the share of slow
/// batches smoothly where a median would jump between the two speeds.
/// Returns the last runner built.
fn setup_runner() -> (Runner, f64) {
    let mut batches = Vec::with_capacity(SETUP_BATCHES);
    let mut runner = None;
    for _ in 0..SETUP_BATCHES {
        std::thread::sleep(std::time::Duration::from_millis(5));
        let mut times = Vec::with_capacity(SETUP_BATCH);
        for _ in 0..SETUP_BATCH {
            let started = Instant::now();
            let r = Runner::new();
            times.push(started.elapsed().as_secs_f64());
            runner = Some(std::hint::black_box(r));
        }
        batches.push(median(&times));
    }
    let mean = batches.iter().sum::<f64>() / batches.len() as f64;
    (runner.expect("at least one construction"), mean)
}

const SETUP_BATCHES: usize = 40;
const SETUP_BATCH: usize = 25;

fn rounds(ctx: &Ctx, seconds_per_round: u64) -> usize {
    (ctx.seconds / seconds_per_round).max(1) as usize
}

/// `paper-sweep`: all 22 experiments at paper scale through one memoizing
/// `Runner`, in a seeded order; the output must equal
/// `results/repro_paper.txt` byte for byte.
pub fn paper_sweep(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = std::fs::read_to_string("results/repro_paper.txt")
        .map_err(|e| format!("results/repro_paper.txt: {e}"))?;
    let mut rng = Rng::new(ctx.seed);
    let mut out = Outcome::default();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut events = 0u64;
    let mut last_runner = None;
    for _ in 0..rounds(ctx, 20) {
        let mut order: Vec<&str> = ALL_IDS.to_vec();
        rng.shuffle(&mut order);
        let (runner, setup) = setup_runner();
        setups.push(setup);
        let started = Instant::now();
        let texts: BTreeMap<&str, Option<String>> = ctx.tracer.span(
            "bench.sweep",
            None,
            || format!("seed{}", ctx.seed),
            |root| {
                order
                    .iter()
                    .map(|&id| {
                        let text = ctx.tracer.span(
                            "runner.experiment",
                            root,
                            || id.to_owned(),
                            |_| run_experiment(id, Scale::Paper, &runner).map(|o| o.to_string()),
                        );
                        (id, text)
                    })
                    .collect()
            },
        );
        walls.push(started.elapsed().as_secs_f64());
        events += runner
            .profile()
            .counters
            .iter()
            .find(|(name, _)| name == "sim_events")
            .map_or(0, |(_, n)| *n);

        // Output check: each experiment's text against its slice of the
        // reference, in canonical order.
        let mut offset = 0;
        for id in ALL_IDS {
            out.attempted += 1;
            match &texts[id] {
                Some(text) if reference.get(offset..offset + text.len()) == Some(text.as_str()) => {
                    offset += text.len();
                }
                Some(text) => {
                    out.fail(format!("{id}: output differs from results/repro_paper.txt"));
                    offset += text.len();
                }
                None => out.fail(format!("{id}: unknown experiment")),
            }
        }
        if offset != reference.len() {
            out.fail(format!(
                "sweep output is {offset} bytes, results/repro_paper.txt is {}",
                reference.len()
            ));
        }
        last_runner = Some(runner);
    }
    let wall: f64 = walls.iter().sum();
    out.e2e.insert("wall_s", median(&walls));
    out.e2e.insert("setup_s", median(&setups));
    out.e2e
        .insert("peak_rss_mb", crate::util::peak_rss_mb(None).unwrap_or(0.0));
    out.e2e.insert("sim_events_per_s", events as f64 / wall);

    let runner = last_runner.expect("at least one round");
    let stats = runner.stats();
    out.set("runner.traces_built", stats.traces_built as f64);
    out.set("runner.cells_simulated", stats.cells_simulated as f64);
    out.set(
        "runner.trace_hit_ratio",
        ratio(
            stats.trace_hits as f64,
            (stats.trace_hits + stats.traces_built) as f64,
        ),
    );
    out.set(
        "runner.marking_hit_ratio",
        ratio(
            stats.marking_hits as f64,
            (stats.marking_hits + stats.markings_built) as f64,
        ),
    );
    out.exact
        .insert("runner.traces_built".into(), stats.traces_built);
    out.exact
        .insert("runner.cells_simulated".into(), stats.cells_simulated);
    out.exact.insert("sim.events.all".into(), events);

    if ctx.tracer.enabled() {
        sweep_layers(&runner, walls[walls.len() - 1], &mut out);
        check_paper_kernels(ctx, &runner, &mut out)?;
    }
    Ok(out)
}

/// Adds the build, mark and interpret times of `runner`'s stage profile
/// (all inside `Runner::prepare`) to the layer metrics and their layers'
/// self time, and returns their sum in nanoseconds.
fn prepare_layers(runner: &Runner, out: &mut Outcome) -> u64 {
    let profile = runner.profile();
    let stage = |path: &str| profile.stage(path).map_or(0, |s| s.nanos);
    let mut sum = 0;
    for (path, metric, layer) in [
        ("prepare/build", "workloads.build_ms", "self_ms.workloads"),
        ("prepare/mark", "compiler.mark_ms", "self_ms.compiler"),
        ("prepare/interp", "trace.interp_ms", "self_ms.trace"),
    ] {
        out.add(metric, ms(stage(path)));
        out.add(layer, ms(stage(path)));
        sum += stage(path);
    }
    out.add("runner.prepare_ms", ms(stage("prepare")));
    sum
}

/// `paper-sweep`'s layer times. The experiments hide their cells inside
/// `run_experiment`, so the benchmark cannot call the layers on the
/// sweep's own inputs; the sweep `Runner`'s stage profile times them
/// instead. Its phases run one after another, so `self_ms` splits the
/// sweep's wall time: build, mark and interpret (inside `prepare`), the
/// simulate phase, and the rest, which is the runner's own. Replay time
/// is summed over cells, as each cell reports it.
fn sweep_layers(runner: &Runner, wall_s: f64, out: &mut Outcome) {
    let prepare = prepare_layers(runner, out);
    let profile = runner.profile();
    let stage = |path: &str| profile.stage(path).map_or(0, |s| s.nanos);
    let events = profile
        .counters
        .iter()
        .find(|(n, _)| n == "sim_events")
        .map_or(0, |(_, v)| *v);
    out.set("sim.replay_ms.all", ms(stage("simulate/replay")));
    out.set("sim.events.all", events as f64);
    out.set("self_ms.sim", ms(stage("simulate")));
    let layers = ms(prepare + stage("simulate"));
    out.set("self_ms.runner", (wall_s * 1e3 - layers).max(0.0));
}

/// Traced `paper-sweep` only: a cross-check, not a measurement. Calls
/// every layer directly on the six paper kernels at the paper machine
/// under all eight schemes (cells the sweep's experiments also run), and
/// checks each result against what the sweep's `Runner` gives for the
/// same cell.
fn check_paper_kernels(ctx: &Ctx, runner: &Runner, out: &mut Outcome) -> Result<(), String> {
    let base = ExperimentConfig::paper();
    let configs: Vec<ExperimentConfig> = SCHEME_IDS
        .iter()
        .map(|id| ExperimentConfig {
            scheme: scheme(id),
            ..base
        })
        .collect();
    for kernel in Kernel::ALL {
        let (front, sims) = direct_group(ctx, kernel, Scale::Paper, &configs, Direct::Check, out)?;
        let spec = RunSpec {
            source: ProgramSource::Kernel(kernel, Scale::Paper),
            config: base,
        };
        let prepared = runner.prepare(&[spec]).map_err(|e| e.to_string())?;
        check_front(
            out,
            kernel.name(),
            &front,
            &prepared[0].trace,
            &prepared[0].marking.summary(),
        );
        let grid = runner
            .grid()
            .kernel(kernel)
            .scale(Scale::Paper)
            .base(base)
            .schemes(SCHEME_IDS.iter().map(|id| scheme(id)))
            .run()
            .map_err(|e| e.to_string())?;
        for (id, sim) in SCHEME_IDS.iter().zip(&sims) {
            if digest(sim) != digest(&grid.get(kernel, scheme(id)).sim) {
                out.fail(format!(
                    "{}/{id}: direct run_trace differs from Runner's",
                    kernel.name()
                ));
            }
        }
    }
    Ok(())
}

/// Builds, marks and interprets `kernel` once for `configs` (which must
/// share a front: the same compiler and trace options), then replays it
/// under each config on the worker threads, every call in its own span.
pub fn direct_group(
    ctx: &Ctx,
    kernel: Kernel,
    scale: Scale,
    configs: &[ExperimentConfig],
    mode: Direct,
    out: &mut Outcome,
) -> Result<(Front, Vec<SimResult>), String> {
    ctx.tracer.span(
        "bench.probe",
        None,
        || kernel.name().to_owned(),
        |root| {
            let front = direct_front(ctx, root, kernel, scale, &configs[0], mode)?;
            count_front(out, &front, mode);
            let sims = parallel(ctx.threads, configs, |cfg| {
                let tag = format!("{}/{}", kernel.name(), cfg.scheme.as_str());
                replay(ctx, root, &tag, &front.trace, cfg, mode)
            });
            for (cfg, sim) in configs.iter().zip(&sims) {
                count_sim(out, sim, cfg.scheme.as_str(), mode);
            }
            Ok((front, sims))
        },
    )
}

/// One `large-p` cell.
#[derive(Clone, Copy)]
struct Cell {
    kernel: Kernel,
    procs: u32,
    scheme: &'static str,
}

impl Cell {
    fn name(&self) -> String {
        format!("{}/{}/{}", self.kernel.name(), self.procs, self.scheme)
    }

    fn config(&self) -> Result<ExperimentConfig, String> {
        ExperimentConfig::builder()
            .scheme(scheme(self.scheme))
            .procs(self.procs)
            .build()
            .map_err(|e| e.to_string())
    }
}

const LARGE_KERNELS: [Kernel; 2] = [Kernel::Ocean, Kernel::Qcd2];
const SHARD_SAFE: [&str; 2] = ["tpi", "sc"];
const ORDER_SENSITIVE: [&str; 3] = ["hw", "tardis", "hybrid"];
const DIGESTS: &str = "perfbench/digests.txt";

/// The seeded draw: at 1024 processors each kernel gets one shard-safe
/// and one order-sensitive scheme (the two kernels never share one), and
/// at 256 processors each kernel gets one scheme of the five. The 1024
/// cells come first so the workers finish together.
fn draw_cells(rng: &mut Rng) -> Vec<Cell> {
    let safe_first = rng.below(2);
    let mut sensitive = ORDER_SENSITIVE;
    rng.shuffle(&mut sensitive);
    let mut cells = Vec::new();
    for (k, &kernel) in LARGE_KERNELS.iter().enumerate() {
        cells.push(Cell {
            kernel,
            procs: 1024,
            scheme: SHARD_SAFE[(safe_first + k) % 2],
        });
        cells.push(Cell {
            kernel,
            procs: 1024,
            scheme: sensitive[k],
        });
    }
    let all: Vec<&str> = SHARD_SAFE.iter().chain(&ORDER_SENSITIVE).copied().collect();
    for &kernel in &LARGE_KERNELS {
        cells.push(Cell {
            kernel,
            procs: 256,
            scheme: all[rng.below(all.len())],
        });
    }
    cells
}

fn every_cell() -> Vec<Cell> {
    let mut cells = Vec::new();
    for &kernel in &LARGE_KERNELS {
        for procs in [256, 1024] {
            for &scheme in SHARD_SAFE.iter().chain(&ORDER_SENSITIVE) {
                cells.push(Cell {
                    kernel,
                    procs,
                    scheme,
                });
            }
        }
    }
    cells
}

fn recorded_digests() -> BTreeMap<String, u64> {
    std::fs::read_to_string(DIGESTS)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (cell, hex) = l.split_once(' ')?;
            Some((cell.to_owned(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// `large-p`: fresh cells at `--scale large` on 256 and 1024 processors,
/// shard count 1. `Runner::prepare` builds, marks and interprets; the
/// benchmark replays each cell with `run_trace` on the worker threads.
pub fn large_p(ctx: &Ctx) -> Result<Outcome, String> {
    let mut rng = Rng::new(ctx.seed);
    let mut out = Outcome::default();
    let digests = recorded_digests();
    let mut new_digests = BTreeMap::new();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut events = 0u64;
    let n_rounds = if ctx.record_digests {
        1
    } else {
        rounds(ctx, 20)
    };
    for _ in 0..n_rounds {
        let cells = if ctx.record_digests {
            every_cell()
        } else {
            draw_cells(&mut rng)
        };
        let specs = cells
            .iter()
            .map(|c| {
                Ok(RunSpec {
                    source: ProgramSource::Kernel(c.kernel, Scale::Large),
                    config: c.config()?,
                })
            })
            .collect::<Result<Vec<RunSpec>, String>>()?;
        let (runner, setup) = setup_runner();
        setups.push(setup);
        let started = Instant::now();
        let (prepared, sims, prepare_ns) = ctx.tracer.span(
            "bench.large",
            None,
            || format!("seed{}", ctx.seed),
            |root| {
                let started = Instant::now();
                let prepared = ctx
                    .tracer
                    .span(
                        "runner.prepare",
                        root,
                        || format!("{} cells", specs.len()),
                        |_| runner.prepare(&specs),
                    )
                    .map_err(|e| e.to_string())?;
                let prepare_ns = started.elapsed().as_nanos() as u64;
                let sims = parallel(ctx.threads, &prepared, |cell| {
                    let tag = format!(
                        "{}/{}/{}",
                        cell.spec.source.label(),
                        cell.spec.config.procs,
                        cell.spec.config.scheme.as_str()
                    );
                    replay(
                        ctx,
                        root,
                        &tag,
                        &cell.trace,
                        &cell.spec.config,
                        Direct::Measure,
                    )
                });
                Ok::<_, String>((prepared, sims, prepare_ns))
            },
        )?;
        walls.push(started.elapsed().as_secs_f64());
        let peak = crate::util::peak_rss_mb(None).unwrap_or(0.0);
        out.e2e.insert(
            "peak_rss_mb",
            peak.max(out.e2e.get("peak_rss_mb").copied().unwrap_or(0.0)),
        );

        let stats = runner.stats();
        out.add("runner.traces_built", stats.traces_built as f64);
        *out.exact.entry("runner.traces_built".into()).or_insert(0) += stats.traces_built;
        out.set(
            "runner.trace_hit_ratio",
            ratio(
                stats.trace_hits as f64,
                (stats.trace_hits + stats.traces_built) as f64,
            ),
        );
        out.set(
            "runner.marking_hit_ratio",
            ratio(
                stats.marking_hits as f64,
                (stats.marking_hits + stats.markings_built) as f64,
            ),
        );
        for (cell, sim) in cells.iter().zip(&sims) {
            out.attempted += 1;
            events += sim.host.events;
            count_sim(&mut out, sim, cell.scheme, Direct::Measure);
            if let Err(e) = verify_accounting(sim) {
                out.fail(format!("{}: accounting identity: {e}", cell.name()));
                continue;
            }
            let d = digest(sim);
            new_digests.insert(cell.name(), d);
            match digests.get(&cell.name()) {
                Some(&want) if want != d => {
                    out.fail(format!(
                        "{}: SimResult digest {d:016x}, recorded {want:016x}",
                        cell.name()
                    ));
                }
                Some(_) => {}
                None => out.notes.push(format!(
                    "{}: no recorded digest in {DIGESTS}; digest comparison skipped",
                    cell.name()
                )),
            }
        }
        if ctx.tracer.enabled() {
            // Runner built, marked and interpreted these: its stage profile
            // times those layers, and the prepare call less them is the
            // runner's own. The traces and markings it made give the
            // counts.
            let inner = prepare_layers(&runner, &mut out);
            out.add("self_ms.runner", ms(prepare_ns.saturating_sub(inner)));
            let mut seen: Vec<(Kernel, u32)> = Vec::new();
            for cell in &prepared {
                let ProgramSource::Kernel(kernel, _) = cell.spec.source else {
                    continue;
                };
                if seen.contains(&(kernel, cell.spec.config.procs)) {
                    continue;
                }
                seen.push((kernel, cell.spec.config.procs));
                let events = trace_events(&cell.trace);
                out.add("trace.events", events as f64);
                out.add(
                    "compiler.marked_sites",
                    cell.marking.summary().marked as f64,
                );
                *out.exact.entry("trace.events".into()).or_insert(0) += events;
                // A cross-check: the layers called directly on the same
                // inputs must give what Runner gave.
                let front = ctx.tracer.span(
                    "bench.probe",
                    None,
                    || kernel.name().to_owned(),
                    |root| {
                        direct_front(
                            ctx,
                            root,
                            kernel,
                            Scale::Large,
                            &cell.spec.config,
                            Direct::Check,
                        )
                    },
                )?;
                count_front(&mut out, &front, Direct::Check);
                let what = format!("{}/{}", kernel.name(), cell.spec.config.procs);
                check_front(
                    &mut out,
                    &what,
                    &front,
                    &cell.trace,
                    &cell.marking.summary(),
                );
            }
        }
    }
    if ctx.record_digests {
        let mut text = String::from(
            "# SimResult digests of every large-p cell (kernel/procs/scheme), written by\n\
             # `perfbench --workload large-p --record-digests`.\n",
        );
        for (cell, d) in &new_digests {
            text.push_str(&format!("{cell} {d:016x}\n"));
        }
        std::fs::write(DIGESTS, text).map_err(|e| format!("{DIGESTS}: {e}"))?;
        eprintln!(
            "perfbench: wrote {} digests to {DIGESTS}",
            new_digests.len()
        );
    }
    let wall: f64 = walls.iter().sum();
    out.e2e.insert("wall_s", median(&walls));
    out.e2e.insert("setup_s", median(&setups));
    out.e2e.insert("sim_events_per_s", events as f64 / wall);
    Ok(out)
}

/// The serve workload's traced run: the layers called directly on its
/// cells, one front per (kernel, compiler options, trace options) as the
/// server's memoizing `Runner` has it, each result checked against the
/// reference result for the same cell.
pub fn probe_against(
    ctx: &Ctx,
    cells: &[(Kernel, Scale, ExperimentConfig)],
    reference: &[SimResult],
    out: &mut Outcome,
) -> Result<(), String> {
    let mut groups: Vec<(Kernel, Scale, Vec<usize>)> = Vec::new();
    for (i, (kernel, scale, config)) in cells.iter().enumerate() {
        let same_front = |&(k, s, ref members): &(Kernel, Scale, Vec<usize>)| {
            let other: &ExperimentConfig = &cells[members[0]].2;
            k == *kernel
                && s == *scale
                && other.compiler_options() == config.compiler_options()
                && other.trace_options() == config.trace_options()
        };
        match groups.iter().position(same_front) {
            Some(g) => groups[g].2.push(i),
            None => groups.push((*kernel, *scale, vec![i])),
        }
    }
    for (kernel, scale, members) in groups {
        let configs: Vec<ExperimentConfig> = members.iter().map(|&i| cells[i].2).collect();
        let (_, sims) = direct_group(ctx, kernel, scale, &configs, Direct::Measure, out)?;
        for (&i, sim) in members.iter().zip(&sims) {
            if digest(sim) != digest(&reference[i]) {
                out.fail(format!(
                    "{}/{}: direct run_trace differs from Runner's",
                    kernel.name(),
                    cells[i].2.scheme.as_str()
                ));
            }
        }
    }
    Ok(())
}
