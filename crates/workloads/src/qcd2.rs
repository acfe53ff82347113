//! QCD2: lattice gauge theory (quantum chromodynamics).
//!
//! The coherence-relevant structure modelled here:
//!
//! * block-shifted neighbour updates: epoch `2t` updates link variables
//!   reading sites two processor-blocks away, so lines written dirty by
//!   one processor are consumed by another — the *migratory* pattern that
//!   drives the directory scheme to three-hop dirty fetches (the paper's
//!   elevated QCD2 average miss latency under HW);
//! * gather reads through a runtime index table (`G(f(i))`), the paper's
//!   canonical compile-time-unanalyzable subscript: the compiler must
//!   treat the read section as the whole array, producing the conservative
//!   markings whose cost the evaluation quantifies.

use crate::Scale;
use tpi_ir::{subs, Program, ProgramBuilder};

/// Builds the QCD2 kernel.
#[must_use]
pub fn build(scale: Scale) -> Program {
    let (sites, steps, gsize) = match scale {
        Scale::Test => (512i64, 2i64, 128u64),
        Scale::Paper => (8192, 4, 2048),
        // The lattice is one-dimensional: widening `sites` alone keeps
        // every DOALL far past 1024 iterations.
        Scale::Large => (16384, 8, 4096),
    };
    // Two processor-blocks at P=16: guarantees cross-processor consumption
    // under static block scheduling.
    let shift = sites / 8;
    let mut p = ProgramBuilder::new();
    let l = p.shared("L", [sites as u64]);
    let m = p.shared("M", [(sites + shift) as u64]);
    let g = p.shared("G", [gsize]);
    let main = p.proc("main", |f| {
        f.doall(0, sites - 1, |i, f| f.store(l.at(subs![i]), vec![], 2));
        f.doall(0, sites + shift - 1, |i, f| {
            f.store(m.at(subs![i]), vec![], 2)
        });
        f.doall(0, gsize as i64 - 1, |k, f| {
            f.store(g.at(subs![k]), vec![], 2)
        });
        f.serial(0, steps - 1, |_t, f| {
            // Link update: reads the neighbour two blocks away (migratory).
            f.doall(0, sites - 1, |i, f| {
                f.store(
                    l.at(subs![i]),
                    vec![l.at(subs![i]), m.at(subs![i + shift])],
                    3,
                );
            });
            // Gauge measurement: gathers through a runtime permutation.
            let gather = f.opaque();
            f.doall(0, sites - 1, |i, f| {
                f.store(m.at(subs![i]), vec![l.at(subs![i]), g.at(subs![gather])], 4);
            });
        });
    });
    p.finish(main).expect("QCD2 is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_mem::ReadKind;
    use tpi_trace::{generate_trace, Event, TraceOptions};

    #[test]
    fn opaque_gathers_are_marked() {
        let prog = build(Scale::Test);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let trace = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        // Find reads of the G array (it is the last declared: highest base
        // is fine to detect via marked kinds): at least `sites` marked
        // reads per measurement epoch must exist.
        let marked = trace
            .epochs
            .iter()
            .flat_map(tpi_trace::EpochEvents::events)
            .filter(|ev| matches!(ev, Event::Read { kind, .. } if kind.is_marked()))
            .count();
        assert!(marked > 0);
    }

    #[test]
    fn gather_targets_are_spread_and_deterministic() {
        let prog = build(Scale::Test);
        let marking = mark_program(&prog, &CompilerOptions::default());
        let t1 = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        let t2 = generate_trace(&prog, &marking, &TraceOptions::default()).unwrap();
        let reads = |t: &tpi_trace::Trace| -> Vec<u64> {
            t.epochs
                .iter()
                .flat_map(tpi_trace::EpochEvents::events)
                .filter_map(|ev| match ev {
                    Event::Read {
                        addr,
                        kind: ReadKind::TimeRead { .. },
                        ..
                    } => Some(addr.0),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(
            reads(&t1),
            reads(&t2),
            "opaque gathers must be reproducible"
        );
        let mut uniq = reads(&t1);
        uniq.sort_unstable();
        uniq.dedup();
        assert!(uniq.len() > 16, "gathers should spread over the table");
    }
}
