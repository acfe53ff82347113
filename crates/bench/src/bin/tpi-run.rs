//! `tpi-run` — compile, mark, and simulate a textual-format program or a
//! named suite kernel.
//!
//! ```text
//! tpi-run program.tpi                       # run under TPI on the paper machine
//! tpi-run --kernel ocean                    # run a suite kernel by name
//! tpi-run --kernel fshare --scale test      # a fuzz-promoted kernel, test size
//! tpi-run program.tpi --scheme all          # compare every registered scheme
//! tpi-run program.tpi --scheme tardis       # any registry name (id or label) works
//! tpi-run program.tpi --scheme hw --procs 32 --line-words 16 --tag-bits 4
//! tpi-run --kernel ldreuse --scheme all --misses   # per-scheme miss-class matrix
//! tpi-run program.tpi --show-program        # echo the parsed IR
//! tpi-run program.tpi --show-marking        # dump the compiler's decisions
//! tpi-run program.tpi --verify              # panic if any hit observes stale data
//! tpi-run program.tpi --lint                # static lints only, no simulation
//! tpi-run program.tpi --profile             # machine-parsable stage profile on stdout
//! ```
//!
//! Scheme comparisons run through a [`Runner`], so the program is marked
//! and its trace interpreted once no matter how many schemes are listed.

use std::process::ExitCode;
use std::sync::Arc;
use tpi::cli::{kernel_by_name, parse_bounded, CliError};
use tpi::tables::{pct, Table};
use tpi::{ExperimentConfig, Runner};
use tpi_compiler::{mark_program, OptLevel};
use tpi_ir::{display, parse_program, Program, RefSite};
use tpi_mem::ReadKind;
use tpi_proto::{registry, MissClass, SchemeId};
use tpi_workloads::Scale;

const USAGE: &str = "\
tpi-run: compile, mark, and simulate a program under the coherence schemes

USAGE:
    tpi-run <file.tpi> [OPTIONS]
    tpi-run --kernel <name> [OPTIONS]

OPTIONS:
    --kernel <name>       run a suite kernel (SPEC77, OCEAN, FLO52, QCD2,
                          TRFD, ARC2D, MDG, FSHARE, LDREUSE, MIGRATE)
    --scale test|paper|large  problem size for --kernel [default: paper]
    --scheme <s>|all      scheme(s) to simulate        [default: tpi]
    --procs <n>           processors, 1-4096
    --line-words <n>      cache line size in words, 1-64
    --tag-bits <n>        timetag width in bits, 1-32
    --cache-kb <n>        per-node cache size in KB, 1-65536
    --opt naive|intra|full  compiler analysis level
    --misses              per-scheme miss-class breakdown table
    --verify              panic if any hit observes stale data
    --export              canonicalize: reprint the parsed program
    --lint                static lints only, no simulation
    --profile             machine-parsable stage profile on stdout
    --show-program        echo the parsed IR
    --show-marking        dump the compiler's decisions
    -h, --help            show this help
";

struct Options {
    source: Source,
    scale: Scale,
    schemes: Vec<SchemeId>,
    cfg: ExperimentConfig,
    show_program: bool,
    show_marking: bool,
    export: bool,
    lint: bool,
    profile: bool,
    misses: bool,
}

enum Source {
    File(String),
    Kernel(tpi_workloads::Kernel),
}

fn parse_args() -> Result<Option<Options>, CliError> {
    let mut file: Option<String> = None;
    let mut kernel = None;
    let mut scale = Scale::Paper;
    let mut schemes: Vec<SchemeId> = vec![SchemeId::TPI];
    let mut builder = ExperimentConfig::builder();
    let mut show_program = false;
    let mut show_marking = false;
    let mut export = false;
    let mut lint = false;
    let mut profile = false;
    let mut misses = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--kernel" => kernel = Some(kernel_by_name(&value("--kernel")?)?),
            "--scale" => {
                scale = match value("--scale")?.as_str() {
                    "test" => Scale::Test,
                    "paper" => Scale::Paper,
                    "large" => Scale::Large,
                    s => {
                        return Err(CliError::Field(format!(
                            "error[bad_field]: unknown scale {s:?} (known: test, paper, large)"
                        )))
                    }
                };
            }
            "--scheme" => {
                let v = value("--scheme")?;
                schemes = if v.eq_ignore_ascii_case("all") {
                    registry::global().all().iter().map(|s| s.id()).collect()
                } else {
                    // Registry names (id or label), case-insensitive; the
                    // error already lists everything registered.
                    vec![tpi::cli::scheme_by_name(&v)?]
                };
            }
            "--procs" => {
                builder =
                    builder.procs(parse_bounded("--procs", &value("--procs")?, 1, 4096)? as u32);
            }
            "--line-words" => {
                builder = builder.line_words(parse_bounded(
                    "--line-words",
                    &value("--line-words")?,
                    1,
                    64,
                )? as u32);
            }
            "--tag-bits" => {
                builder = builder.tag_bits(parse_bounded(
                    "--tag-bits",
                    &value("--tag-bits")?,
                    1,
                    32,
                )? as u32);
            }
            "--cache-kb" => {
                builder = builder.cache_bytes(
                    parse_bounded("--cache-kb", &value("--cache-kb")?, 1, 65536)? as usize * 1024,
                );
            }
            "--opt" => {
                builder = match value("--opt")?.as_str() {
                    "naive" => builder.opt_level(OptLevel::Naive),
                    "intra" => builder.opt_level(OptLevel::Intra),
                    "full" => builder.opt_level(OptLevel::Full),
                    s => {
                        return Err(CliError::Field(format!(
                            "error[bad_field]: unknown opt level {s:?} (known: naive, intra, full)"
                        )))
                    }
                };
            }
            "--verify" => builder = builder.verify_freshness(true),
            "--export" => export = true,
            "--lint" => lint = true,
            "--profile" => profile = true,
            "--misses" => misses = true,
            "--show-program" => show_program = true,
            "--show-marking" => show_marking = true,
            other if !other.starts_with('-') && file.is_none() => {
                file = Some(other.to_owned());
            }
            f => return Err(CliError::Usage(format!("unknown flag {f:?}"))),
        }
    }
    let source = match (file, kernel) {
        (None, Some(k)) => Source::Kernel(k),
        (Some(f), None) => Source::File(f),
        (Some(_), Some(_)) => {
            return Err(CliError::Usage(
                "give either a file or --kernel, not both".into(),
            ))
        }
        (None, None) => {
            return Err(CliError::Usage(
                "no program: give a file or --kernel".into(),
            ))
        }
    };
    let cfg = builder
        .build()
        .map_err(|e| CliError::Field(format!("error[bad_field]: invalid configuration: {e}")))?;
    Ok(Some(Options {
        source,
        scale,
        schemes,
        cfg,
        show_program,
        show_marking,
        export,
        lint,
        profile,
        misses,
    }))
}

/// Cross-scheme miss-class matrix: one row per scheme, one column per
/// miss cause (counts of read misses).
fn miss_matrix(name: &str, opts: &Options, grid: &tpi::GridResult) -> Table {
    let mut t = Table::new(format!("{name}: read misses by cause"));
    let mut headers = vec!["scheme".to_string(), "reads".to_string()];
    headers.extend(MissClass::ALL.iter().map(ToString::to_string));
    t.headers(headers);
    for &scheme in &opts.schemes {
        let r = grid.at_program(name, scheme, 0);
        let mut row = vec![scheme.label().to_string(), r.sim.agg.reads.to_string()];
        row.extend(
            MissClass::ALL
                .iter()
                .map(|&c| r.sim.agg.misses(c).to_string()),
        );
        t.row(row);
    }
    t
}

fn run(opts: &Options) -> ExitCode {
    let (name, program): (String, Arc<Program>) = match &opts.source {
        Source::File(file) => {
            let src = match std::fs::read_to_string(file) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot read {file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            match parse_program(&src) {
                Ok(p) => (file.clone(), Arc::new(p)),
                Err(e) => {
                    eprintln!("{file}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        Source::Kernel(k) => (k.name().to_string(), Arc::new(k.build(opts.scale))),
    };
    let cfg = opts.cfg;
    if opts.export {
        // Canonicalize: print the program back in the textual format.
        print!("{}", tpi_ir::program_to_source(&program));
        return ExitCode::SUCCESS;
    }
    if opts.lint {
        // Static analysis only: run the tpi-lint pass registry and exit
        // without simulating (the full oracle lives in `tpi-lint`).
        let options = tpi_analysis::LintOptions {
            level: cfg.opt_level,
            tag_bits: cfg.tag_bits,
        };
        let diagnostics = tpi_analysis::lint_program(&program, &options);
        for d in &diagnostics {
            println!("{}", d.human());
        }
        println!("{name}: {} diagnostic(s)", diagnostics.len());
        return ExitCode::SUCCESS;
    }
    if opts.show_program {
        println!("{}", display::program_to_string(&program));
    }
    if opts.show_marking {
        let marking = mark_program(&program, &cfg.compiler_options());
        let mut t = Table::new(format!("Compiler marking ({} analysis)", cfg.opt_level));
        t.headers(["site", "verdict"]);
        program.for_each_assign(|_, a| {
            for idx in 0..a.reads.len() as u32 {
                let site = RefSite { stmt: a.id, idx };
                let verdict = match marking.tpi_kind(site) {
                    ReadKind::Plain => "plain".to_owned(),
                    ReadKind::TimeRead { distance } => format!("time-read(d={distance})"),
                    other => other.to_string(),
                };
                t.row([format!("S{} read #{idx}", a.id.0), verdict]);
            }
        });
        println!("{t}");
        let s = marking.summary();
        println!(
            "{} shared reads: {} marked, {} plain ({} covered)\n",
            s.shared_reads, s.marked, s.plain, s.covered
        );
    }
    let runner = Runner::new();
    let run_started = std::time::Instant::now();
    let grid = match runner
        .grid()
        .program(&name, Arc::clone(&program))
        .base(cfg)
        .schemes(opts.schemes.iter().copied())
        .run()
    {
        Ok(g) => g,
        Err(e) => {
            eprintln!("{name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let wall_nanos = u64::try_from(run_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    if opts.profile {
        // Machine-parsable: one `profile ...` line per stage and counter,
        // then the profiled total and the measured wall clock around the
        // grid run (integration tests diff the two).
        let report = runner.profile();
        for s in &report.stages {
            println!(
                "profile stage={} calls={} nanos={}",
                s.path, s.calls, s.nanos
            );
        }
        for (name, value) in &report.counters {
            println!("profile counter={name} value={value}");
        }
        let stats = runner.stats();
        println!("profile memo_bytes={}", stats.memo_bytes);
        println!("profile memo_evictions={}", stats.memo_evictions);
        println!("profile total_nanos={}", report.total_nanos());
        println!("profile wall_nanos={wall_nanos}");
    }
    let mut t = Table::new(format!("{name} on {} processors", cfg.procs));
    t.headers([
        "scheme",
        "cycles",
        "miss rate",
        "avg miss lat",
        "net words",
        "lock waits",
    ]);
    let mut hot: Option<Table> = None;
    for &scheme in &opts.schemes {
        let r = grid.at_program(&name, scheme, 0);
        t.row([
            scheme.label().to_string(),
            r.sim.total_cycles.to_string(),
            pct(r.sim.miss_rate()),
            format!("{:.1}", r.sim.avg_miss_latency()),
            r.sim.traffic.total_words().to_string(),
            r.sim.lock_wait_cycles.to_string(),
        ]);
        if scheme == SchemeId::TPI {
            hot = Some(tpi::report::hot_arrays(
                "Hot arrays under TPI (read misses by array)",
                r,
                8,
            ));
        }
    }
    println!("{t}");
    if opts.misses {
        println!("{}", miss_matrix(&name, opts, &grid));
    }
    if let Some(hot) = hot {
        if !hot.is_empty() {
            println!("{hot}");
        }
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(opts)) => run(&opts),
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => e.exit(USAGE),
    }
}
