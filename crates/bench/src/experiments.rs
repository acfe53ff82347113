//! The experiment implementations, one per table/figure of the paper.
//!
//! Every simulated experiment declares its whole grid of runs up front and
//! executes it through a [`Runner`], so programs, markings, and traces are
//! built once and shared across schemes and sweep points, and independent
//! cells simulate in parallel. Results are identical to running each cell
//! fresh and serially (see `tests/runner_equivalence.rs`).

use tpi::tables::{f, pct, BarChart, Table};
use tpi::{ExperimentConfig, Runner};
use tpi_cache::{ResetStrategy, WriteBufferKind};
use tpi_compiler::OptLevel;
use tpi_net::TrafficClass;
use tpi_proto::storage::{
    full_map, limitless_as_tabulated, limitless_pointer_width, tpi as tpi_storage, StorageParams,
};
use tpi_proto::{MissClass, SchemeId};
use tpi_trace::SchedulePolicy;
use tpi_workloads::{Kernel, Scale};

use crate::harness::main_schemes;

/// All experiment ids, in presentation order.
pub const ALL_IDS: [&str; 22] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14", "e15",
    "e16", "e17", "e18", "e19", "e20", "e21", "e22",
];

/// The rendered output of one experiment.
#[derive(Debug, Clone)]
pub struct ExperimentOutput {
    /// Experiment id (`e1`..`e20`).
    pub id: &'static str,
    /// What it reproduces.
    pub title: &'static str,
    /// Rendered tables.
    pub tables: Vec<Table>,
    /// Figure-style bar charts.
    pub charts: Vec<BarChart>,
}

impl std::fmt::Display for ExperimentOutput {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(out, "=== {} — {} ===", self.id, self.title)?;
        for t in &self.tables {
            writeln!(out, "{t}")?;
        }
        for c in &self.charts {
            writeln!(out, "{c}")?;
        }
        Ok(())
    }
}

/// Runs the experiment with the given id at `scale` on `runner`; `None`
/// for unknown ids. Sharing one runner across experiments lets later ones
/// reuse the traces earlier ones generated.
#[must_use]
pub fn run_experiment(id: &str, scale: Scale, runner: &Runner) -> Option<ExperimentOutput> {
    Some(match id {
        "e1" => e1_storage(),
        "e2" => e2_parameters(),
        "e3" => e3_miss_rates(scale, runner),
        "e4" => e4_miss_classes(scale, runner),
        "e5" => e5_miss_latency(scale, runner),
        "e6" => e6_traffic(scale, runner),
        "e7" => e7_exec_time(scale, runner),
        "e8" => e8_timetag_bits(scale, runner),
        "e9" => e9_line_size(scale, runner),
        "e10" => e10_cache_size(scale, runner),
        "e11" => e11_reset_ablation(scale, runner),
        "e12" => e12_write_buffer(scale, runner),
        "e13" => e13_scheduling(scale, runner),
        "e14" => e14_scaling(scale, runner),
        "e15" => e15_opt_levels(scale, runner),
        "e16" => e16_critical_sections(scale, runner),
        "e17" => e17_restamp_ablation(scale, runner),
        "e18" => e18_write_policy(scale, runner),
        "e19" => e19_coherence_overhead(scale, runner),
        "e20" => e20_doacross(scale, runner),
        "e21" => e21_two_level(scale, runner),
        "e22" => e22_fetch_granularity(scale, runner),
        _ => return None,
    })
}

/// E1 / Figure 5: storage overhead of full-map, LimitLess and TPI.
#[must_use]
pub fn e1_storage() -> ExperimentOutput {
    let p = StorageParams::paper_figure5();
    let mut t = Table::new(
        "Figure 5 — bookkeeping storage at P=1024, C=16K lines, L=4 words, M=512K blocks, i=10, b=8",
    );
    t.headers(["scheme", "SRAM (MiB)", "DRAM (GiB)"]);
    for (name, o) in [
        ("full-map directory", full_map(p)),
        (
            "LimitLess (i+2 per block, as tabulated)",
            limitless_as_tabulated(p),
        ),
        (
            "LimitLess (i*log2(P)+2 per block)",
            limitless_pointer_width(p),
        ),
        ("TPI (two-phase invalidation)", tpi_storage(p)),
    ] {
        t.row([name.to_string(), f(o.sram_mib(), 2), f(o.dram_gib(), 2)]);
    }
    let mut scaling = Table::new("Directory DRAM grows as O(P^2); TPI SRAM as O(P)");
    scaling.headers(["P", "full-map DRAM (GiB)", "TPI SRAM (MiB)"]);
    for procs in [64u64, 256, 1024, 4096] {
        let mut pp = p;
        pp.processors = procs;
        scaling.row([
            procs.to_string(),
            f(full_map(pp).dram_gib(), 2),
            f(tpi_storage(pp).sram_mib(), 2),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e1",
        title: "storage overhead (Figure 5)",
        tables: vec![t, scaling],
    }
}

/// E2 / Figure 8: the simulated machine's parameters.
#[must_use]
pub fn e2_parameters() -> ExperimentOutput {
    let c = ExperimentConfig::paper();
    let e = c.engine_config(0);
    let mut t = Table::new("Figure 8 — simulation parameters");
    t.headers(["parameter", "value"]);
    t.row([
        "CPU".to_string(),
        "single-issue, 1 cycle/ALU op".to_string(),
    ]);
    t.row(["processors".to_string(), c.procs.to_string()]);
    t.row([
        "cache size".to_string(),
        format!("{} KB, {}-way", c.cache_bytes / 1024, c.assoc),
    ]);
    t.row([
        "line size".to_string(),
        format!("{} 32-bit words", c.line_words),
    ]);
    t.row(["cache hit".to_string(), "1 CPU cycle".to_string()]);
    t.row([
        "line base miss latency".to_string(),
        format!(
            "{} CPU cycles",
            tpi_net::Network::new(e.net).line_fetch(c.line_words)
        ),
    ]);
    t.row(["timetag size".to_string(), format!("{} bits", c.tag_bits)]);
    t.row([
        "two-phase reset".to_string(),
        format!("{} cycles", c.reset_cycles),
    ]);
    t.row([
        "network".to_string(),
        format!(
            "Kruskal-Snir multistage, {} stages of {}x{} switches",
            e.net.stages(),
            e.net.switch_degree,
            e.net.switch_degree
        ),
    ]);
    t.row([
        "epoch setup/barrier".to_string(),
        format!("{} cycles", c.epoch_setup_cycles),
    ]);
    t.row([
        "consistency".to_string(),
        "weak (infinite write buffer)".to_string(),
    ]);
    ExperimentOutput {
        charts: Vec::new(),
        id: "e2",
        title: "simulation parameters (Figure 8)",
        tables: vec![t],
    }
}

/// E3 / Figure 11: read miss rates per scheme and benchmark.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e3_miss_rates(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let main = main_schemes();
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(main.iter().copied())
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("Figure 11 — read miss rates (64 KB direct-mapped, 16 B lines)");
    t.headers(std::iter::once("bench").chain(main.iter().map(|s| s.label())));
    let mut chart = BarChart::new("Mean read miss rate across the suite", "%");
    let mut sums = vec![0.0f64; main.len()];
    for kernel in Kernel::ALL {
        let mut row = vec![kernel.name().to_string()];
        for (si, scheme) in main.iter().enumerate() {
            let r = grid.get(kernel, *scheme);
            sums[si] += r.sim.miss_rate();
            row.push(pct(r.sim.miss_rate()));
        }
        t.row(row);
    }
    for (si, scheme) in main.iter().enumerate() {
        chart.bar(scheme.label(), 100.0 * sums[si] / Kernel::ALL.len() as f64);
    }
    ExperimentOutput {
        charts: vec![chart],
        id: "e3",
        title: "miss rates (Figure 11)",
        tables: vec![t],
    }
}

/// E4: classification of read misses into necessary and unnecessary.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e4_miss_classes(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes = [SchemeId::TPI, SchemeId::FULL_MAP];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(schemes)
        .run()
        .expect("suite is race-free");
    let mut tables = Vec::new();
    for scheme in schemes {
        let mut t = Table::new(format!(
            "{} — misses by cause (% of all read misses)",
            scheme.label()
        ));
        t.headers([
            "bench",
            "cold",
            "repl",
            "reset",
            "true-shr",
            "false-shr",
            "conserv",
            "unnecessary",
        ]);
        for kernel in Kernel::ALL {
            let r = grid.get(kernel, scheme);
            let total = r.sim.agg.read_misses().max(1) as f64;
            let share = |c: MissClass| pct(r.sim.agg.misses(c) as f64 / total);
            let unnecessary = (r.sim.agg.misses(MissClass::FalseSharing)
                + r.sim.agg.misses(MissClass::Conservative)) as f64
                / total;
            t.row([
                kernel.name().to_string(),
                share(MissClass::Cold),
                share(MissClass::Replacement),
                share(MissClass::Reset),
                share(MissClass::CoherenceTrue),
                share(MissClass::FalseSharing),
                share(MissClass::Conservative),
                pct(unnecessary),
            ]);
        }
        tables.push(t);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e4",
        title: "miss classification: necessary vs unnecessary",
        tables,
    }
}

/// E5: average read-miss latency, TPI vs HW, 16-byte and 64-byte lines.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e5_miss_latency(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let kernels = [
        Kernel::Spec77,
        Kernel::Ocean,
        Kernel::Flo52,
        Kernel::Qcd2,
        Kernel::Trfd,
    ];
    let grid = runner
        .grid()
        .kernels(kernels)
        .scale(scale)
        .schemes([SchemeId::TPI, SchemeId::FULL_MAP])
        .sweep([4u32, 16], |cfg, &w| cfg.line_words = w)
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("Average miss latency (cycles): TPI vs full-map directory");
    t.headers(["bench", "TPI 16B", "TPI 64B", "HW 16B", "HW 64B"]);
    for kernel in kernels {
        let mut row = vec![kernel.name().to_string()];
        for scheme in [SchemeId::TPI, SchemeId::FULL_MAP] {
            for vi in 0..2 {
                let r = grid.at(kernel, scheme, vi);
                row.push(f(r.sim.avg_miss_latency(), 1));
            }
        }
        t.row(row);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e5",
        title: "average miss latency table",
        tables: vec![t],
    }
}

/// E6: network traffic breakdown per scheme (words per shared reference).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e6_traffic(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes = [SchemeId::SC, SchemeId::TPI, SchemeId::FULL_MAP];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(schemes)
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("Network traffic (words per memory reference), by class");
    t.headers(["bench", "scheme", "read", "write", "coherence", "total"]);
    for kernel in Kernel::ALL {
        for scheme in schemes {
            let r = grid.get(kernel, scheme);
            let refs = (r.sim.agg.reads + r.sim.agg.writes).max(1) as f64;
            let per = |c: TrafficClass| f(r.sim.traffic.words(c) as f64 / refs, 3);
            t.row([
                kernel.name().to_string(),
                scheme.label().to_string(),
                per(TrafficClass::Read),
                per(TrafficClass::Write),
                per(TrafficClass::Coherence),
                f(r.sim.words_per_reference(), 3),
            ]);
        }
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e6",
        title: "network traffic breakdown",
        tables: vec![t],
    }
}

/// E7: execution time comparison (the headline figure).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e7_exec_time(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let main = main_schemes();
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(main.iter().copied())
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("Execution time (cycles; parenthesized: normalized to HW)");
    t.headers(std::iter::once("bench").chain(main.iter().map(|s| s.label())));
    let hw_index = main
        .iter()
        .position(|&s| s == SchemeId::FULL_MAP)
        .expect("the full-map directory anchors the normalization");
    let mut log_sums = vec![0.0f64; main.len()];
    for kernel in Kernel::ALL {
        let results: Vec<_> = main.iter().map(|&s| grid.get(kernel, s)).collect();
        let hw = results[hw_index].sim.total_cycles.max(1) as f64;
        let mut row = vec![kernel.name().to_string()];
        for (si, r) in results.iter().enumerate() {
            let norm = r.sim.total_cycles as f64 / hw;
            log_sums[si] += norm.ln();
            row.push(format!("{} ({})", r.sim.total_cycles, f(norm, 2)));
        }
        t.row(row);
    }
    let mut chart = BarChart::new(
        "Geometric-mean execution time, normalized to the full-map directory",
        "x",
    );
    for (si, scheme) in main.iter().enumerate() {
        chart.bar(
            scheme.label(),
            (log_sums[si] / Kernel::ALL.len() as f64).exp(),
        );
    }
    ExperimentOutput {
        charts: vec![chart],
        id: "e7",
        title: "execution time comparison",
        tables: vec![t],
    }
}

/// E8: timetag-width sensitivity ("4 or 8 bits is enough").
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e8_timetag_bits(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let widths = [2u32, 3, 4, 6, 8];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(widths, |cfg, &bits| cfg.tag_bits = bits)
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI execution time vs timetag width (normalized to 8-bit)");
    t.headers(["bench", "2b", "3b", "4b", "6b", "8b", "reset words @2b"]);
    for kernel in Kernel::ALL {
        let base = grid
            .at(kernel, SchemeId::TPI, widths.len() - 1)
            .sim
            .total_cycles
            .max(1) as f64;
        let mut row = vec![kernel.name().to_string()];
        for vi in 0..widths.len() {
            let r = grid.at(kernel, SchemeId::TPI, vi);
            row.push(f(r.sim.total_cycles as f64 / base, 3));
        }
        let reset2 = grid.at(kernel, SchemeId::TPI, 0).sim.agg.reset_words;
        row.push(reset2.to_string());
        t.row(row);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e8",
        title: "timetag-width sensitivity",
        tables: vec![t],
    }
}

/// E9: line-size sensitivity for TPI and HW.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e9_line_size(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes = [SchemeId::TPI, SchemeId::FULL_MAP];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(schemes)
        .sweep([1u32, 2, 4, 8, 16], |cfg, &w| cfg.line_words = w)
        .run()
        .expect("suite is race-free");
    let mut tables = Vec::new();
    for scheme in schemes {
        let mut t = Table::new(format!("{} read miss rate vs line size", scheme.label()));
        t.headers(["bench", "4B", "8B", "16B", "32B", "64B"]);
        for kernel in Kernel::ALL {
            let mut row = vec![kernel.name().to_string()];
            for vi in 0..5 {
                let r = grid.at(kernel, scheme, vi);
                row.push(pct(r.sim.miss_rate()));
            }
            t.row(row);
        }
        tables.push(t);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e9",
        title: "line-size sensitivity",
        tables,
    }
}

/// E10: cache-size sensitivity.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e10_cache_size(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes = [SchemeId::TPI, SchemeId::FULL_MAP];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(schemes)
        .sweep([16usize, 32, 64, 128, 256], |cfg, &kb| {
            cfg.cache_bytes = kb * 1024;
        })
        .run()
        .expect("suite is race-free");
    let mut tables = Vec::new();
    for scheme in schemes {
        let mut t = Table::new(format!("{} read miss rate vs cache size", scheme.label()));
        t.headers(["bench", "16KB", "32KB", "64KB", "128KB", "256KB"]);
        for kernel in Kernel::ALL {
            let mut row = vec![kernel.name().to_string()];
            for vi in 0..5 {
                let r = grid.at(kernel, scheme, vi);
                row.push(pct(r.sim.miss_rate()));
            }
            t.row(row);
        }
        tables.push(t);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e10",
        title: "cache-size sensitivity",
        tables,
    }
}

/// E11: two-phase reset vs full cache flush at counter wrap.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e11_reset_ablation(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let base = ExperimentConfig::builder()
        .tag_bits(3)
        .build()
        .expect("3-bit tags are valid");
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .base(base)
        .sweep(
            [ResetStrategy::TwoPhase, ResetStrategy::FullFlushOnWrap],
            |cfg, &s| cfg.reset_strategy = s,
        )
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI with 3-bit tags: two-phase reset vs flush-on-wrap");
    t.headers([
        "bench",
        "two-phase cycles",
        "flush cycles",
        "flush/two-phase",
        "tp resets",
        "flush resets",
    ]);
    for kernel in Kernel::ALL {
        let tp = grid.at(kernel, SchemeId::TPI, 0);
        let fl = grid.at(kernel, SchemeId::TPI, 1);
        t.row([
            kernel.name().to_string(),
            tp.sim.total_cycles.to_string(),
            fl.sim.total_cycles.to_string(),
            f(
                fl.sim.total_cycles as f64 / tp.sim.total_cycles.max(1) as f64,
                3,
            ),
            tp.sim.agg.reset_words.to_string(),
            fl.sim.agg.reset_words.to_string(),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e11",
        title: "reset-strategy ablation",
        tables: vec![t],
    }
}

/// E12: plain FIFO write buffer vs write-buffer-organized-as-cache.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e12_write_buffer(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(
            [WriteBufferKind::Fifo, WriteBufferKind::Coalescing],
            |cfg, &k| cfg.wbuffer = k,
        )
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI write traffic: FIFO vs coalescing write buffer");
    t.headers([
        "bench",
        "fifo wr words",
        "coal wr words",
        "eliminated",
        "fifo cycles",
        "coal cycles",
    ]);
    for kernel in Kernel::ALL {
        let fifo = grid.at(kernel, SchemeId::TPI, 0);
        let coal = grid.at(kernel, SchemeId::TPI, 1);
        let fw = fifo.sim.traffic.words(TrafficClass::Write);
        let cw = coal.sim.traffic.words(TrafficClass::Write);
        t.row([
            kernel.name().to_string(),
            fw.to_string(),
            cw.to_string(),
            pct(1.0 - cw as f64 / fw.max(1) as f64),
            fifo.sim.total_cycles.to_string(),
            coal.sim.total_cycles.to_string(),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e12",
        title: "write-buffer ablation",
        tables: vec![t],
    }
}

/// E13 / Section 5: scheduling policies and task migration under TPI.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e13_scheduling(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let policies = [
        SchedulePolicy::StaticBlock,
        SchedulePolicy::StaticCyclic,
        SchedulePolicy::Dynamic { chunk: 4 },
        SchedulePolicy::DynamicMigrating {
            chunk: 4,
            migrate_per_1024: 256,
        },
    ];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(policies, |cfg, &p| cfg.policy = p)
        .run()
        .expect("suite is race-free under every schedule");
    let mut t = Table::new("TPI under different DOALL schedules (cycles; miss rate)");
    t.headers([
        "bench",
        "static-block",
        "static-cyclic",
        "dynamic(4)",
        "dyn+migration",
    ]);
    for kernel in Kernel::ALL {
        let mut row = vec![kernel.name().to_string()];
        for vi in 0..policies.len() {
            let r = grid.at(kernel, SchemeId::TPI, vi);
            row.push(format!(
                "{} ({})",
                r.sim.total_cycles,
                pct(r.sim.miss_rate())
            ));
        }
        t.row(row);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e13",
        title: "scheduling & migration (Section 5)",
        tables: vec![t],
    }
}

/// E14: processor-count scaling.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e14_scaling(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes = [SchemeId::TPI, SchemeId::FULL_MAP];
    let counts = [4u32, 8, 16, 32, 64];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes(schemes)
        .sweep(counts, |cfg, &p| cfg.procs = p)
        .run()
        .expect("suite is race-free");
    let mut tables = Vec::new();
    for scheme in schemes {
        let mut t = Table::new(format!(
            "{} execution cycles vs processor count (speedup over P=4)",
            scheme.label()
        ));
        t.headers(["bench", "P=4", "P=8", "P=16", "P=32", "P=64"]);
        for kernel in Kernel::ALL {
            let mut row = vec![kernel.name().to_string()];
            let base = grid.at(kernel, scheme, 0).sim.total_cycles.max(1);
            for vi in 0..counts.len() {
                let r = grid.at(kernel, scheme, vi);
                row.push(format!(
                    "{} ({}x)",
                    r.sim.total_cycles,
                    f(base as f64 / r.sim.total_cycles.max(1) as f64, 2)
                ));
            }
            t.row(row);
        }
        tables.push(t);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e14",
        title: "processor-count scaling",
        tables,
    }
}

/// E15: compiler optimization-level ablation (extension experiment).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e15_opt_levels(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let levels = [OptLevel::Naive, OptLevel::Intra, OptLevel::Full];
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(levels, |cfg, &l| cfg.opt_level = l)
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI under naive / intraprocedural / full compiler analysis");
    t.headers([
        "bench",
        "naive cycles",
        "intra cycles",
        "full cycles",
        "naive marked",
        "full marked",
    ]);
    for kernel in Kernel::ALL {
        let mut row = vec![kernel.name().to_string()];
        let mut marked = Vec::new();
        for vi in 0..levels.len() {
            let r = grid.at(kernel, SchemeId::TPI, vi);
            row.push(r.sim.total_cycles.to_string());
            marked.push(pct(r.marking.marked_fraction()));
        }
        row.push(marked[0].clone());
        row.push(marked[2].clone());
        t.row(row);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e15",
        title: "compiler optimization levels",
        tables: vec![t],
    }
}

/// E16 / Section 5: lock-guarded critical sections (MDG extension
/// workload).
///
/// # Panics
///
/// Panics if the MDG workload races (a bug in the suite).
#[must_use]
pub fn e16_critical_sections(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let schemes_grid = runner
        .grid()
        .kernel(Kernel::Mdg)
        .scale(scale)
        .schemes(main_schemes())
        .run()
        .expect("MDG is race-free");
    let mut t = Table::new("MDG (lock-guarded accumulation) across the schemes");
    t.headers([
        "scheme",
        "cycles",
        "miss rate",
        "lock acquires",
        "lock wait cycles",
    ]);
    for scheme in main_schemes() {
        let r = schemes_grid.get(Kernel::Mdg, scheme);
        t.row([
            scheme.label().to_string(),
            r.sim.total_cycles.to_string(),
            pct(r.sim.miss_rate()),
            r.sim.lock_acquires.to_string(),
            r.sim.lock_wait_cycles.to_string(),
        ]);
    }
    let counts = [2u32, 4, 8, 16, 32];
    let scaling_grid = runner
        .grid()
        .kernel(Kernel::Mdg)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(counts, |cfg, &p| cfg.procs = p)
        .run()
        .expect("MDG is race-free");
    let mut s = Table::new("MDG under TPI vs processor count: the lock bounds scaling");
    s.headers(["P", "cycles", "speedup over P=2", "lock wait share"]);
    let base = scaling_grid
        .at(Kernel::Mdg, SchemeId::TPI, 0)
        .sim
        .total_cycles
        .max(1);
    for (vi, procs) in counts.into_iter().enumerate() {
        let r = scaling_grid.at(Kernel::Mdg, SchemeId::TPI, vi);
        s.row([
            procs.to_string(),
            r.sim.total_cycles.to_string(),
            f(base as f64 / r.sim.total_cycles.max(1) as f64, 2),
            pct(r.sim.lock_wait_cycles as f64
                / (r.sim.total_cycles.max(1) as f64 * f64::from(procs))),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e16",
        title: "critical sections & locks (Section 5)",
        tables: vec![t, s],
    }
}

/// E17: verified-hit re-stamping ablation.
///
/// A verified Time-Read proves the word fresh *now*, so stamping it with
/// the current epoch is sound and keeps long-lived read-mostly data (the
/// SPEC77 coefficient table) alive indefinitely. This design point is
/// implied by the scheme's hardware (tags live next to the data in SRAM);
/// the ablation measures what it is worth.
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e17_restamp_ablation(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep([true, false], |cfg, &on| cfg.restamp_verified_hits = on)
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI with and without re-stamping verified Time-Read hits");
    t.headers([
        "bench",
        "restamp cycles",
        "no-restamp cycles",
        "ratio",
        "restamp miss",
        "no-restamp miss",
    ]);
    for kernel in Kernel::ALL {
        let on = grid.at(kernel, SchemeId::TPI, 0);
        let off = grid.at(kernel, SchemeId::TPI, 1);
        t.row([
            kernel.name().to_string(),
            on.sim.total_cycles.to_string(),
            off.sim.total_cycles.to_string(),
            f(
                off.sim.total_cycles as f64 / on.sim.total_cycles.max(1) as f64,
                3,
            ),
            pct(on.sim.miss_rate()),
            pct(off.sim.miss_rate()),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e17",
        title: "verified-hit re-stamp ablation",
        tables: vec![t],
    }
}

/// E18: write-through vs write-back-at-task-boundary (the \[10\] policy
/// discussion the paper cites when justifying write-through).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e18_write_policy(scale: Scale, runner: &Runner) -> ExperimentOutput {
    use tpi_cache::WritePolicy;
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(
            [WritePolicy::Through, WritePolicy::BackAtBoundary],
            |cfg, &p| cfg.write_policy = p,
        )
        .run()
        .expect("suite is race-free");
    let mut t = Table::new(
        "TPI write policy: write-through (FIFO buffer) vs write-back at epoch boundaries",
    );
    t.headers([
        "bench",
        "WT cycles",
        "WB cycles",
        "WB/WT",
        "WT wr words",
        "WB wr words",
    ]);
    for kernel in Kernel::ALL {
        let wt = grid.at(kernel, SchemeId::TPI, 0);
        let wb = grid.at(kernel, SchemeId::TPI, 1);
        t.row([
            kernel.name().to_string(),
            wt.sim.total_cycles.to_string(),
            wb.sim.total_cycles.to_string(),
            f(
                wb.sim.total_cycles as f64 / wt.sim.total_cycles.max(1) as f64,
                3,
            ),
            wt.sim.traffic.words(TrafficClass::Write).to_string(),
            wb.sim.traffic.words(TrafficClass::Write).to_string(),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e18",
        title: "write-policy ablation",
        tables: vec![t],
    }
}

/// E19: coherence overhead over a perfect-coherence oracle, plus an
/// epoch-by-epoch timeline (extension figure).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e19_coherence_overhead(scale: Scale, runner: &Runner) -> ExperimentOutput {
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .schemes([
            SchemeId::IDEAL,
            SchemeId::TPI,
            SchemeId::FULL_MAP,
            SchemeId::SC,
        ])
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("Execution time over the perfect-coherence oracle (coherence overhead)");
    t.headers(["bench", "IDEAL cycles", "TPI/IDEAL", "HW/IDEAL", "SC/IDEAL"]);
    for kernel in Kernel::ALL {
        let ideal = grid.get(kernel, SchemeId::IDEAL).sim.total_cycles.max(1);
        let tpi = grid.get(kernel, SchemeId::TPI).sim.total_cycles;
        let hw = grid.get(kernel, SchemeId::FULL_MAP).sim.total_cycles;
        let sc = grid.get(kernel, SchemeId::SC).sim.total_cycles;
        t.row([
            kernel.name().to_string(),
            ideal.to_string(),
            f(tpi as f64 / ideal as f64, 2),
            f(hw as f64 / ideal as f64, 2),
            f(sc as f64 / ideal as f64, 2),
        ]);
    }
    // Timeline figure: per-epoch cycles for ARC2D under TPI vs HW (the
    // alternating x/y sweeps are visible as alternating epoch costs).
    let mut tl = Table::new("ARC2D per-epoch cycles (first 12 epochs): TPI vs HW");
    tl.headers([
        "epoch",
        "TPI cycles",
        "TPI misses",
        "HW cycles",
        "HW misses",
    ]);
    let rt = grid.get(Kernel::Arc2d, SchemeId::TPI);
    let rh = grid.get(Kernel::Arc2d, SchemeId::FULL_MAP);
    for (pt, ph) in rt.sim.profile.iter().zip(&rh.sim.profile).take(12) {
        tl.row([
            pt.epoch.to_string(),
            pt.cycles.to_string(),
            pt.misses.to_string(),
            ph.cycles.to_string(),
            ph.misses.to_string(),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e19",
        title: "coherence overhead vs oracle + epoch timeline",
        tables: vec![t, tl],
    }
}

/// E20 / Section 5: doacross pipelining via post/wait — synchronization
/// granularity and schedule sweep on a 2-D wavefront (extension).
///
/// # Panics
///
/// Panics if the wavefront program traces with a race (a bug in its
/// post/wait synchronization).
#[must_use]
pub fn e20_doacross(scale: Scale, runner: &Runner) -> ExperimentOutput {
    use tpi::ir::{subs, Cond, Program, ProgramBuilder};
    let n: i64 = match scale {
        Scale::Test => 32,
        Scale::Paper => 96,
        // E20 studies sync granularity, not processor count; a modest
        // widening keeps the wavefront tractable at large proc counts.
        Scale::Large => 128,
    };
    let pipeline = |g: i64| -> Program {
        let mut p = ProgramBuilder::new();
        let x = p.shared("X", [n as u64, n as u64]);
        let ev = p.event();
        let main = p.proc("main", |f| {
            f.doall(0, n - 1, |i, f| {
                f.serial(0, n - 1, |j, f| f.store(x.at(subs![i, j]), vec![], 1));
            });
            f.doall(0, n - 1, |i, f| {
                f.serial_step(0, n - 1, g, |jj, f| {
                    f.if_else(
                        Cond::EveryN {
                            var: i,
                            modulus: i64::MAX,
                            phase: 0,
                        },
                        |f| {
                            f.serial(jj, jj + g - 1, |j, f| {
                                f.store(x.at(subs![i, j]), vec![x.at(subs![i, j])], 4);
                            });
                        },
                        |f| {
                            f.wait(ev, (i - 1) * n + jj);
                            f.serial(jj, jj + g - 1, |j, f| {
                                f.store(
                                    x.at(subs![i, j]),
                                    vec![x.at(subs![i - 1, j]), x.at(subs![i, j])],
                                    4,
                                );
                            });
                        },
                    );
                    f.post(ev, i * n + jj);
                });
            });
        });
        p.finish(main).expect("pipeline is well-formed")
    };
    let grains: Vec<i64> = [2i64, 4, 8, 16, 32]
        .into_iter()
        .filter(|g| n % g == 0)
        .collect();
    let mut sweep_grid = runner.grid().scale(scale).scheme(SchemeId::TPI).sweep(
        [SchedulePolicy::StaticBlock, SchedulePolicy::StaticCyclic],
        |cfg, &p| cfg.policy = p,
    );
    for &g in &grains {
        sweep_grid = sweep_grid.program(&format!("wavefront-{n}-g{g}"), pipeline(g));
    }
    let sweep_grid = sweep_grid.run().expect("wavefront is synchronized");
    let mut t = Table::new(format!(
        "{n}x{n} wavefront: post granularity x schedule (TPI cycles)"
    ));
    t.headers(["post every", "static-block", "static-cyclic"]);
    for &g in &grains {
        let mut row = vec![format!("{g} cols")];
        for vi in 0..2 {
            let r = sweep_grid.at_program(&format!("wavefront-{n}-g{g}"), SchemeId::TPI, vi);
            row.push(r.sim.total_cycles.to_string());
        }
        t.row(row);
    }
    let mut s = Table::new("Wavefront (post every 8, cyclic) across schemes");
    s.headers(["scheme", "cycles", "wait cycles"]);
    let cyclic = ExperimentConfig::builder()
        .policy(SchedulePolicy::StaticCyclic)
        .build()
        .expect("cyclic paper machine is valid");
    let schemes_grid = runner
        .grid()
        .scale(scale)
        .program(&format!("wavefront-{n}-g8"), pipeline(8))
        .base(cyclic)
        .schemes(main_schemes())
        .run()
        .expect("wavefront is synchronized");
    for scheme in main_schemes() {
        let r = schemes_grid.at_program(&format!("wavefront-{n}-g8"), scheme, 0);
        t_row_push(
            &mut s,
            scheme.label(),
            r.sim.total_cycles,
            r.sim.lock_wait_cycles,
        );
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e20",
        title: "doacross pipelining (Section 5)",
        tables: vec![t, s],
    }
}

/// E21 / Section 3: one-level tagged cache vs the off-the-shelf two-level
/// arrangement (stock on-chip L1 over the tagged off-chip cache).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e21_two_level(scale: Scale, runner: &Runner) -> ExperimentOutput {
    use tpi_proto::L1Config;
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep([None, Some(L1Config::paper_default())], |cfg, &l1| {
            cfg.l1 = l1;
        })
        .run()
        .expect("suite is race-free");
    let mut t = Table::new(
        "TPI: one-level tagged cache vs stock 8 KB L1 + tagged off-chip cache (5-cycle)",
    );
    t.headers([
        "bench",
        "1-level cycles",
        "2-level cycles",
        "2L/1L",
        "plain hit share",
    ]);
    for kernel in Kernel::ALL {
        let one = grid.at(kernel, SchemeId::TPI, 0);
        let two = grid.at(kernel, SchemeId::TPI, 1);
        let plain_share = two.sim.agg.read_hits as f64 / two.sim.agg.reads.max(1) as f64;
        t.row([
            kernel.name().to_string(),
            one.sim.total_cycles.to_string(),
            two.sim.total_cycles.to_string(),
            f(
                two.sim.total_cycles as f64 / one.sim.total_cycles.max(1) as f64,
                3,
            ),
            pct(plain_share),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e21",
        title: "off-the-shelf two-level implementation (Section 3)",
        tables: vec![t],
    }
}

/// E22: what a failed tag check should fetch — the whole line (spatial
/// refresh, the paper's organization) or just the word (minimal traffic).
///
/// # Panics
///
/// Panics if a shipped kernel races (a bug in the suite).
#[must_use]
pub fn e22_fetch_granularity(scale: Scale, runner: &Runner) -> ExperimentOutput {
    use tpi_proto::FetchGranularity;
    let grid = runner
        .grid()
        .kernels(Kernel::ALL)
        .scale(scale)
        .scheme(SchemeId::TPI)
        .sweep(
            [FetchGranularity::Line, FetchGranularity::Word],
            |cfg, &g| cfg.coherence_fetch = g,
        )
        .run()
        .expect("suite is race-free");
    let mut t = Table::new("TPI coherence-miss fetch granularity: line vs word");
    t.headers([
        "bench",
        "line cycles",
        "word cycles",
        "word/line",
        "line rd words",
        "word rd words",
    ]);
    for kernel in Kernel::ALL {
        let line = grid.at(kernel, SchemeId::TPI, 0);
        let word = grid.at(kernel, SchemeId::TPI, 1);
        t.row([
            kernel.name().to_string(),
            line.sim.total_cycles.to_string(),
            word.sim.total_cycles.to_string(),
            f(
                word.sim.total_cycles as f64 / line.sim.total_cycles.max(1) as f64,
                3,
            ),
            line.sim.traffic.words(TrafficClass::Read).to_string(),
            word.sim.traffic.words(TrafficClass::Read).to_string(),
        ]);
    }
    ExperimentOutput {
        charts: Vec::new(),
        id: "e22",
        title: "coherence-miss fetch granularity ablation",
        tables: vec![t],
    }
}

fn t_row_push(t: &mut Table, label: &str, cycles: u64, waits: u64) {
    t.row([label.to_string(), cycles.to_string(), waits.to_string()]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_experiments_render() {
        let runner = Runner::new();
        let e1 = run_experiment("e1", Scale::Test, &runner).unwrap();
        assert_eq!(e1.tables.len(), 2);
        assert!(e1.to_string().contains("full-map"));
        let e2 = run_experiment("e2", Scale::Test, &runner).unwrap();
        assert!(e2.to_string().contains("timetag"));
    }

    #[test]
    fn unknown_id_is_none() {
        assert!(run_experiment("e99", Scale::Test, &Runner::new()).is_none());
    }

    #[test]
    fn miss_rate_table_has_all_benchmarks() {
        let out = e3_miss_rates(Scale::Test, &Runner::new());
        assert_eq!(out.tables[0].len(), 6);
    }

    #[test]
    fn full_matrix_covers_24_runs() {
        assert_eq!(
            crate::harness::full_matrix(Scale::Test, &Runner::new()).len(),
            24
        );
    }

    #[test]
    fn all_ids_resolve() {
        for id in ALL_IDS {
            // Only the cheap, closed-form ones are actually executed here;
            // the simulated ones are covered by the integration tests and
            // the benches at test scale.
            if id == "e1" || id == "e2" {
                assert!(run_experiment(id, Scale::Test, &Runner::new()).is_some());
            }
        }
    }

    #[test]
    fn shared_runner_reuses_traces_across_experiments() {
        // e3 and e7 run the same 24 cells; a shared runner interprets each
        // kernel's trace once and simulates each distinct cell once.
        let runner = Runner::new();
        let _ = e3_miss_rates(Scale::Test, &runner);
        let after_e3 = runner.stats();
        assert_eq!(after_e3.traces_built, 6);
        assert_eq!(after_e3.cells_simulated, 24);
        let _ = e7_exec_time(Scale::Test, &runner);
        let after_e7 = runner.stats();
        assert_eq!(after_e7.traces_built, 6, "e7 reuses e3's traces");
        assert_eq!(
            (after_e7.cells_simulated, after_e7.cells_deduped),
            (24, 24),
            "e7's cells are all answered from the cell memo"
        );
    }
}
