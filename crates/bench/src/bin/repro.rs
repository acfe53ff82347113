//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro all             # every experiment at paper scale
//! repro e3 e5           # selected experiments
//! repro --test e7       # test scale (fast, small inputs)
//! repro --csv out/ e3   # additionally write each table as CSV into out/
//! repro --serial        # one worker thread (for timing comparisons)
//! repro --fresh         # no artifact cache (the pre-engine baseline)
//! repro --timing        # memo-store hit rates + tpi-prof stage profile
//! repro --list          # list experiment ids
//! ```
//!
//! One [`Runner`] is shared across all requested experiments, so programs,
//! markings, and traces are built once and reused; per-experiment timing
//! and the final cache statistics go to stderr.

use std::process::ExitCode;
use tpi::Runner;
use tpi_bench::{run_experiment, ALL_IDS};
use tpi_workloads::Scale;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut serial = false;
    let mut fresh = false;
    let mut timing = false;
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut take_csv_dir = false;
    for a in &args {
        if take_csv_dir {
            csv_dir = Some(std::path::PathBuf::from(a));
            take_csv_dir = false;
            continue;
        }
        match a.as_str() {
            "--test" => scale = Scale::Test,
            "--paper" => scale = Scale::Paper,
            "--serial" => serial = true,
            "--fresh" => fresh = true,
            "--timing" => timing = true,
            "--csv" => take_csv_dir = true,
            "--list" => {
                for id in ALL_IDS {
                    println!("{id}");
                }
                return ExitCode::SUCCESS;
            }
            "all" => ids.extend(ALL_IDS.iter().map(|s| (*s).to_owned())),
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}");
                return ExitCode::FAILURE;
            }
            other => ids.push(other.to_owned()),
        }
    }
    if ids.is_empty() {
        eprintln!(
            "usage: repro [--test|--paper] [--serial] [--fresh] [--timing] [--list] \
             <experiment-id>... | all"
        );
        eprintln!("experiments: {}", ALL_IDS.join(" "));
        return ExitCode::FAILURE;
    }
    let mut runner = if serial {
        Runner::serial()
    } else {
        Runner::new()
    };
    if fresh {
        runner = runner.without_memoization();
    }
    let run_started = std::time::Instant::now();
    for id in ids {
        let started = std::time::Instant::now();
        match run_experiment(&id, scale, &runner) {
            Some(out) => {
                print!("{out}");
                if let Some(dir) = &csv_dir {
                    if let Err(e) = std::fs::create_dir_all(dir) {
                        eprintln!("cannot create {}: {e}", dir.display());
                        return ExitCode::FAILURE;
                    }
                    for (i, table) in out.tables.iter().enumerate() {
                        let path = dir.join(format!("{}_{}.csv", out.id, i));
                        if let Err(e) = std::fs::write(&path, table.to_csv()) {
                            eprintln!("cannot write {}: {e}", path.display());
                            return ExitCode::FAILURE;
                        }
                    }
                }
                eprintln!("[{} done in {:.1}s]", id, started.elapsed().as_secs_f64());
            }
            None => {
                eprintln!("unknown experiment id: {id}");
                return ExitCode::FAILURE;
            }
        }
    }
    let stats = runner.stats();
    eprintln!(
        "[total {:.1}s on {} thread(s); traces {} built / {} reused; \
         markings {} built / {} reused; cells {} simulated / {} deduped]",
        run_started.elapsed().as_secs_f64(),
        runner.threads(),
        stats.traces_built,
        stats.trace_hits,
        stats.markings_built,
        stats.marking_hits,
        stats.cells_simulated,
        stats.cells_deduped,
    );
    if timing {
        eprintln!("[cache: {}]", stats.cache());
        eprintln!(
            "[memo: {} bytes held, {} evictions]",
            stats.memo_bytes, stats.memo_evictions
        );
        let profile = runner.profile();
        if !profile.is_empty() {
            eprint!("{profile}");
        }
    }
    ExitCode::SUCCESS
}
