//! MDG: molecular dynamics of water (extension workload).
//!
//! MDG is a Perfect Club code the paper's Section 5 machinery is made for:
//! its force loops accumulate into shared arrays through *lock-guarded
//! critical sections*. The synthetic kernel models:
//!
//! * a pair-force epoch reading neighbour positions across processor
//!   blocks;
//! * an accumulation epoch where every iteration enters a critical section
//!   and read-modify-writes a runtime-indexed bin of a shared accumulator —
//!   cross-iteration conflicts serialized by the lock, not by the epoch
//!   machinery (HSCD schemes must access the bins uncached);
//! * a local integration epoch and a serial statistics/reset epoch.
//!
//! This kernel is not part of the paper's six-benchmark suite
//! ([`Kernel::ALL`](crate::Kernel::ALL)); it is the
//! [`Kernel::EXTENDED`](crate::Kernel::EXTENDED) demonstration of the
//! paper's critical-section support.

use crate::Scale;
use tpi_ir::{subs, Program, ProgramBuilder};

/// Builds the MDG kernel.
#[must_use]
pub fn build(scale: Scale) -> Program {
    let (n, bins, steps) = match scale {
        Scale::Test => (256i64, 32u64, 2i64),
        Scale::Paper => (4096, 128, 4),
        // One-dimensional particle axis: widening `n` alone keeps the
        // force/integrate DOALLs far past 1024 iterations.
        Scale::Large => (16384, 256, 4),
    };
    let shift = n / 8; // two processor blocks at P=16
    let mut p = ProgramBuilder::new();
    let pos = p.shared("POS", [(n + shift) as u64]);
    let force = p.shared("FORCE", [n as u64]);
    let acc = p.shared("ACC", [bins]);
    let stats = p.shared("STATS", [steps as u64]);
    let lock = p.lock();
    let main = p.proc("main", |f| {
        f.doall(0, n + shift - 1, |i, f| {
            f.store(pos.at(subs![i]), vec![], 2)
        });
        f.doall(0, bins as i64 - 1, |b, f| {
            f.store(acc.at(subs![b]), vec![], 1)
        });
        f.serial(0, steps - 1, |t, f| {
            // Pair forces: neighbour positions two blocks away.
            f.doall(0, n - 1, |i, f| {
                f.store(
                    force.at(subs![i]),
                    vec![pos.at(subs![i]), pos.at(subs![i + shift])],
                    4,
                );
            });
            // Lock-guarded accumulation into runtime-indexed bins.
            let bin = f.opaque();
            f.doall(0, n - 1, |i, f| {
                f.critical(lock, |f| {
                    f.store(
                        acc.at(subs![bin]),
                        vec![acc.at(subs![bin]), force.at(subs![i])],
                        3,
                    );
                });
            });
            // Integrate positions locally.
            f.doall(0, n - 1, |i, f| {
                f.store(
                    pos.at(subs![i]),
                    vec![pos.at(subs![i]), force.at(subs![i])],
                    3,
                );
            });
            // Serial statistics over the bins.
            f.serial(0, bins as i64 - 1, |b, f| {
                f.store(
                    stats.at(subs![t]),
                    vec![acc.at(subs![b]), stats.at(subs![t])],
                    2,
                );
            });
        });
    });
    p.finish(main).expect("MDG is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_trace::{generate_trace, Event, TraceOptions};

    #[test]
    fn critical_accumulation_is_race_free_under_the_lock() {
        let prog = build(Scale::Test);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default())
            .expect("lock-serialized accumulation is not a race");
        assert!(trace.stats.lock_acquires >= 256 * 2);
        assert!(trace.stats.critical_writes >= 256 * 2);
    }

    #[test]
    fn critical_reads_are_marked_critical() {
        let prog = build(Scale::Test);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        let criticals = trace
            .epochs
            .iter()
            .flat_map(tpi_trace::EpochEvents::events)
            .filter(|ev| {
                matches!(
                    ev,
                    Event::Read {
                        kind: tpi_mem::ReadKind::Critical,
                        ..
                    }
                )
            })
            .count();
        assert!(
            criticals > 0,
            "ACC reads inside the critical must be Critical"
        );
    }

    #[test]
    fn without_the_lock_it_races() {
        // The same accumulation outside a critical section must be rejected.
        let mut p = ProgramBuilder::new();
        let acc = p.shared("ACC", [8]);
        let main = p.proc("main", |f| {
            let bin = f.opaque();
            f.doall(0, 255, |_i, f| {
                f.store(acc.at(subs![bin]), vec![acc.at(subs![bin])], 2);
            });
        });
        let prog = p.finish(main).unwrap();
        let marking = mark_program(&prog, &CompilerOptions::default());
        assert!(generate_trace(&prog, &marking, &TraceOptions::default()).is_err());
    }
}
