//! TRFD: two-electron integral transformation.
//!
//! The real benchmark performs a sequence of matrix transformations over
//! integral tables. The coherence-relevant structure modelled here:
//!
//! * a first transform whose inner accumulation reads a *column* of the
//!   input (`X(k, j)` for all `k`) — data written by many different
//!   processors in the previous epoch;
//! * a second, transposed transform (`doall` over columns reading both
//!   `XIJ(i, j)` and `XIJ(j, i)`);
//! * accumulators stored through on every inner step — the **redundant
//!   writes** the paper calls out as TRFD's distinguishing cost under
//!   write-through TPI, and the target of the write-buffer-as-cache
//!   ablation (E12).

use crate::Scale;
use tpi_ir::{subs, Program, ProgramBuilder};

/// Builds the TRFD kernel.
#[must_use]
pub fn build(scale: Scale) -> Program {
    // `stride` thins the inner serial loops at `Large` scale so the DOALL
    // axis can reach 1024 without a quadratic event blow-up; the column
    // reads and the transposed second pass keep their cross-processor
    // character on the thinned grid.
    let (n, steps, k_inner, stride) = match scale {
        Scale::Test => (12i64, 2i64, 3i64, 1i64),
        Scale::Paper => (56, 5, 4, 1),
        Scale::Large => (1024, 2, 2, 32),
    };
    let mut p = ProgramBuilder::new();
    let x = p.shared("X", [n as u64, n as u64]);
    let xij = p.shared("XIJ", [n as u64, n as u64]);
    let v = p.shared("V", [n as u64]);
    let main = p.proc("main", |f| {
        // Initialization epochs.
        f.doall(0, n - 1, |i, f| {
            f.serial_step(0, n - 1, stride, |j, f| {
                f.store(x.at(subs![i, j]), vec![], 2)
            });
        });
        f.doall(0, n - 1, |i, f| f.store(v.at(subs![i]), vec![], 2));
        f.serial(0, steps - 1, |_t, f| {
            // First transform: XIJ(i,j) accumulates over X(k,j)*V(k); the
            // accumulator is stored through on every step (redundant
            // writes), and the X column reads cross processor blocks.
            f.doall(0, n - 1, |i, f| {
                f.serial_step(0, n - 1, stride, |j, f| {
                    f.serial(0, k_inner - 1, |k, f| {
                        f.store(
                            xij.at(subs![i, j]),
                            vec![x.at(subs![k, j]), v.at(subs![k])],
                            2,
                        );
                    });
                });
            });
            // Second transform, transposed: X(i,j) = f(XIJ(i,j), XIJ(j,i)).
            f.doall(0, n - 1, |j, f| {
                f.serial_step(0, n - 1, stride, |i, f| {
                    f.store(
                        x.at(subs![i, j]),
                        vec![xij.at(subs![i, j]), xij.at(subs![j, i])],
                        3,
                    );
                });
            });
        });
    });
    p.finish(main).expect("TRFD is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_trace::{generate_trace, TraceOptions};

    #[test]
    fn has_redundant_writes() {
        let prog = build(Scale::Test);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        // Each XIJ word is written k_inner times per step: writes far
        // exceed distinct destinations.
        let distinct: std::collections::HashSet<u64> = trace
            .epochs
            .iter()
            .flat_map(tpi_trace::EpochEvents::events)
            .filter_map(|ev| match ev {
                tpi_trace::Event::Write { addr, .. } => Some(addr.0),
                _ => None,
            })
            .collect();
        assert!(
            trace.stats.writes as usize > 2 * distinct.len(),
            "writes {} vs distinct {}",
            trace.stats.writes,
            distinct.len()
        );
    }

    #[test]
    fn transform_reads_are_marked_distance_one_or_two() {
        let prog = build(Scale::Test);
        let m = mark_program(&prog, &CompilerOptions::default());
        let s = m.summary();
        assert!(s.marked > 0);
        assert!(
            s.distance_histogram.keys().all(|&d| d <= 2),
            "TRFD dependences are short-range: {:?}",
            s.distance_histogram
        );
    }
}
