//! The Runner's contract: a memoized, parallel grid is *observably
//! identical* to fresh, serial runs — same cycle counts, same traffic,
//! same rendered tables — and the artifact cache is invalidated by
//! exactly the options each pipeline stage depends on. Below the Runner,
//! `run_trace`'s flat replay of order-insensitive engines is pinned to
//! its heap-scheduled replay.

use std::any::Any;
use tpi::{run_kernel, run_program, ExperimentConfig, Runner};
use tpi_compiler::{mark_program, OptLevel};
use tpi_ir::{subs, ProgramBuilder};
use tpi_mem::{Cycle, ProcId, ReadKind, WordAddr};
use tpi_net::Network;
use tpi_proto::{build_engine, registry, AccessOutcome, CoherenceEngine, EngineStats, SchemeId};
use tpi_sim::run_trace;
use tpi_testkit::prelude::*;
use tpi_trace::generate_trace;
use tpi_workloads::{Kernel, Scale};

fn cfg(scheme: SchemeId) -> ExperimentConfig {
    ExperimentConfig::builder().scheme(scheme).build().unwrap()
}

#[test]
fn memoized_grid_equals_fresh_runs() {
    // Every cell of a kernels x schemes grid must be bit-identical to a
    // one-off run_kernel with the same configuration.
    let runner = Runner::new();
    let grid = runner
        .grid()
        .kernels([Kernel::Flo52, Kernel::Ocean, Kernel::Qcd2])
        .scale(Scale::Test)
        .schemes(registry::global().main_schemes())
        .run()
        .unwrap();
    for kernel in [Kernel::Flo52, Kernel::Ocean, Kernel::Qcd2] {
        for scheme in registry::global().main_schemes() {
            let memo = grid.get(kernel, scheme);
            let fresh = run_kernel(kernel, Scale::Test, &cfg(scheme)).unwrap();
            assert_eq!(
                memo.sim.total_cycles, fresh.sim.total_cycles,
                "{kernel}/{scheme}"
            );
            assert_eq!(memo.sim.agg, fresh.sim.agg, "{kernel}/{scheme}");
            assert_eq!(memo.sim.traffic, fresh.sim.traffic, "{kernel}/{scheme}");
            assert_eq!(memo.marking, fresh.marking, "{kernel}/{scheme}");
            assert_eq!(memo.trace, fresh.trace, "{kernel}/{scheme}");
        }
    }
    // The whole 12-cell grid interpreted each kernel exactly once.
    assert_eq!(runner.stats().traces_built, 3);
    assert_eq!(runner.stats().trace_hits, 9);
}

#[test]
fn parallel_equals_serial() {
    // Same grid on a single worker thread and on many: identical results
    // in identical order.
    let build = |runner: &Runner| {
        runner
            .grid()
            .kernels(Kernel::ALL)
            .scale(Scale::Test)
            .schemes([SchemeId::TPI, SchemeId::FULL_MAP])
            .sweep([2u32, 8], |c, bits| c.tag_bits = *bits)
            .run()
            .unwrap()
    };
    let serial = build(&Runner::serial());
    let parallel = build(&Runner::with_threads(8));
    let (s, p): (Vec<_>, Vec<_>) = (serial.iter().collect(), parallel.iter().collect());
    assert_eq!(s.len(), p.len());
    assert_eq!(s.len(), Kernel::ALL.len() * 2 * 2);
    for (a, b) in s.iter().zip(&p) {
        assert_eq!(a.sim.total_cycles, b.sim.total_cycles);
        assert_eq!(a.sim.agg, b.sim.agg);
        assert_eq!(a.sim.traffic, b.sim.traffic);
    }
}

#[test]
fn no_cache_mode_equals_memoized() {
    // `Runner::without_memoization` (the `repro --fresh` baseline) must be
    // observably identical to the cached engine — only the stats differ.
    let build = |runner: &Runner| {
        runner
            .grid()
            .kernels([Kernel::Trfd, Kernel::Spec77])
            .scale(Scale::Test)
            .schemes(registry::global().main_schemes())
            .run()
            .unwrap()
    };
    let memo_runner = Runner::new();
    let memo = build(&memo_runner);
    let fresh_runner = Runner::new().without_memoization();
    let fresh = build(&fresh_runner);
    for (a, b) in memo.iter().zip(fresh.iter()) {
        assert_eq!(a.sim.total_cycles, b.sim.total_cycles);
        assert_eq!(a.sim.agg, b.sim.agg);
        assert_eq!(a.sim.traffic, b.sim.traffic);
        assert_eq!(a.marking, b.marking);
    }
    assert_eq!(memo_runner.stats().traces_built, 2);
    assert_eq!(fresh_runner.stats().traces_built, 8, "one per cell");
    assert_eq!(fresh_runner.stats().trace_hits, 0);
}

#[test]
fn rendered_tables_are_identical() {
    // The user-visible artifact — the rendered report — must not change
    // between the memoized-parallel and fresh-serial paths.
    let render = |results: &[(&str, &tpi::ExperimentResult)]| {
        tpi::report::scheme_comparison("equivalence", results).to_string()
    };
    let runner = Runner::new();
    let grid = runner
        .grid()
        .kernel(Kernel::Arc2d)
        .scale(Scale::Test)
        .schemes(registry::global().main_schemes())
        .run()
        .unwrap();
    let memo_rows: Vec<_> = registry::global()
        .main_schemes()
        .iter()
        .map(|&s| (s.label(), grid.get(Kernel::Arc2d, s)))
        .collect();
    let fresh: Vec<_> = registry::global()
        .main_schemes()
        .iter()
        .map(|&s| (s, run_kernel(Kernel::Arc2d, Scale::Test, &cfg(s)).unwrap()))
        .collect();
    let fresh_rows: Vec<_> = fresh.iter().map(|(s, r)| (s.label(), r)).collect();
    assert_eq!(render(&memo_rows), render(&fresh_rows));
}

#[test]
fn cache_keys_track_stage_dependencies() {
    // scheme / geometry -> only the simulation reruns;
    // opt level          -> marking and trace rebuild;
    // schedule or seed   -> trace rebuilds, marking survives.
    let runner = Runner::new();
    let base = cfg(SchemeId::TPI);

    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &base)
        .unwrap();
    let s0 = runner.stats();
    assert_eq!(
        (s0.programs_built, s0.markings_built, s0.traces_built),
        (1, 1, 1)
    );

    // A pure machine change shares everything upstream.
    let machine = ExperimentConfig::builder()
        .scheme(SchemeId::FULL_MAP)
        .cache_bytes(32 * 1024)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &machine)
        .unwrap();
    let s1 = runner.stats();
    assert_eq!((s1.markings_built, s1.traces_built), (1, 1));
    assert_eq!((s1.marking_hits, s1.trace_hits), (1, 1));

    // A compiler change invalidates the marking (and hence the trace).
    let naive = ExperimentConfig::builder()
        .scheme(SchemeId::TPI)
        .opt_level(OptLevel::Naive)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &naive)
        .unwrap();
    let s2 = runner.stats();
    assert_eq!((s2.markings_built, s2.traces_built), (2, 2));

    // A schedule change invalidates only the trace.
    let cyclic = ExperimentConfig::builder()
        .scheme(SchemeId::TPI)
        .policy(tpi_trace::SchedulePolicy::StaticCyclic)
        .build()
        .unwrap();
    runner
        .run_kernel(Kernel::Ocean, Scale::Test, &cyclic)
        .unwrap();
    let s3 = runner.stats();
    assert_eq!(s3.markings_built, 2, "marking is schedule-independent");
    assert_eq!(s3.traces_built, 3);

    // The program itself was only ever built once.
    assert_eq!(s3.programs_built, 1);
}

#[test]
fn custom_programs_memoize_and_match_run_program() {
    let prog = {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [128]);
        let b = p.shared("B", [128]);
        let main = p.proc("main", |f| {
            f.doall(0, 127, |i, f| f.store(a.at(subs![i]), vec![], 2));
            f.doall(0, 127, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 2)
            });
        });
        p.finish(main).unwrap()
    };
    let fresh = run_program(&prog, &cfg(SchemeId::TPI)).unwrap();
    let runner = Runner::new();
    let grid = runner
        .grid()
        .program("pc", prog)
        .schemes([SchemeId::TPI, SchemeId::SC])
        .run()
        .unwrap();
    let memo = grid.at_program("pc", SchemeId::TPI, 0);
    assert_eq!(memo.sim.total_cycles, fresh.sim.total_cycles);
    assert_eq!(memo.sim.agg, fresh.sim.agg);
    assert_eq!(
        runner.stats().traces_built,
        1,
        "both schemes share the trace"
    );
}

#[test]
fn a_grid_of_memoized_cells_simulates_nothing() {
    // The second grid shares every cell with the first (in another
    // order and another grid shape): the cell memo answers all of them,
    // and every answer is the fresh run's result.
    let runner = Runner::new();
    let schemes = [SchemeId::TPI, SchemeId::SC, SchemeId::FULL_MAP];
    runner
        .grid()
        .kernels([Kernel::Trfd, Kernel::Qcd2])
        .scale(Scale::Test)
        .schemes(schemes)
        .run()
        .unwrap();
    let first = runner.stats();
    assert_eq!(first.cells_simulated, 6);
    let again = runner
        .grid()
        .kernel(Kernel::Qcd2)
        .scale(Scale::Test)
        .schemes([SchemeId::SC, SchemeId::TPI])
        .run()
        .unwrap();
    let second = runner.stats();
    assert_eq!(second.cells_simulated, first.cells_simulated, "no new cell");
    assert_eq!(second.cells_deduped, first.cells_deduped + 2);
    assert_eq!(
        (second.traces_built, second.trace_hits),
        (first.traces_built, first.trace_hits),
        "a memoized cell touches no artifact"
    );
    for scheme in [SchemeId::SC, SchemeId::TPI] {
        let fresh = run_kernel(Kernel::Qcd2, Scale::Test, &cfg(scheme)).unwrap();
        let memo = again.get(Kernel::Qcd2, scheme);
        assert_sim_identical(&memo.sim, &fresh.sim, &format!("QCD2/{scheme}"));
        assert_eq!(memo.marking, fresh.marking);
        assert_eq!(memo.trace, fresh.trace);
    }
}

/// Field-by-field [`tpi_sim::SimResult`] identity, excluding only the
/// host-side wall-clock self-measurement (which is never deterministic).
fn assert_sim_identical(a: &tpi_sim::SimResult, b: &tpi_sim::SimResult, ctx: &str) {
    assert_eq!(a.scheme, b.scheme, "{ctx}: scheme");
    assert_eq!(a.total_cycles, b.total_cycles, "{ctx}: total_cycles");
    assert_eq!(a.busy_cycles, b.busy_cycles, "{ctx}: busy_cycles");
    assert_eq!(a.agg, b.agg, "{ctx}: agg");
    assert_eq!(a.per_proc, b.per_proc, "{ctx}: per_proc");
    assert_eq!(a.traffic, b.traffic, "{ctx}: traffic");
    assert_eq!(a.wbuffer, b.wbuffer, "{ctx}: wbuffer");
    assert_eq!(a.epochs, b.epochs, "{ctx}: epochs");
    assert_eq!(a.lock_acquires, b.lock_acquires, "{ctx}: lock_acquires");
    assert_eq!(
        a.lock_wait_cycles, b.lock_wait_cycles,
        "{ctx}: lock_wait_cycles"
    );
    assert_eq!(a.profile, b.profile, "{ctx}: profile");
    assert_eq!(a.miss_by_array, b.miss_by_array, "{ctx}: miss_by_array");
}

/// A real engine that reports itself order-sensitive, which makes
/// `run_trace` replay every epoch through its `(clock, processor)` heap
/// instead of flat. Every other call goes straight to the wrapped engine.
#[derive(Debug)]
struct HeapOnly(Box<dyn CoherenceEngine>);

impl CoherenceEngine for HeapOnly {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn as_any(&self) -> &dyn Any {
        self.0.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.0.as_any_mut()
    }
    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        now: Cycle,
    ) -> AccessOutcome {
        self.0.read(proc, addr, kind, version, now)
    }
    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.0.write(proc, addr, version, now)
    }
    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.0.write_critical(proc, addr, version, now)
    }
    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        self.0.epoch_boundary(per_proc_now)
    }
    fn network(&self) -> &Network {
        self.0.network()
    }
    fn network_mut(&mut self) -> &mut Network {
        self.0.network_mut()
    }
    fn stats(&self) -> &EngineStats {
        self.0.stats()
    }
    fn write_buffer_stats(&self) -> Option<tpi_cache::WriteBufferStats> {
        self.0.write_buffer_stats()
    }
    fn op_counts(&self) -> Vec<(&'static str, u64)> {
        self.0.op_counts()
    }
    fn order_insensitive(&self) -> bool {
        false
    }
}

/// Replays `kernel` under `config` twice from one trace: flat, on the
/// order-insensitive engine itself, and heap-scheduled, through
/// [`HeapOnly`]. Returns `(flat, heap)`.
fn flat_and_heap(
    kernel: Kernel,
    config: &ExperimentConfig,
) -> (tpi_sim::SimResult, tpi_sim::SimResult) {
    let program = kernel.build(Scale::Test);
    let marking = mark_program(&program, &config.compiler_options());
    let trace = generate_trace(&program, &marking, &config.trace_options()).unwrap();
    let engine = || {
        build_engine(
            config.scheme,
            config.engine_config(trace.layout.total_words()),
        )
    };
    let mut flat = engine();
    assert!(
        flat.order_insensitive(),
        "{}: the flat side must replay flat",
        config.scheme
    );
    let flat = run_trace(&trace, flat.as_mut(), &config.sim_options());
    let heap = run_trace(&trace, &mut HeapOnly(engine()), &config.sim_options());
    (flat, heap)
}

/// The order-insensitive schemes: the ones `run_trace` replays flat.
const ORDER_INSENSITIVE: [SchemeId; 4] =
    [SchemeId::BASE, SchemeId::SC, SchemeId::TPI, SchemeId::IDEAL];

#[test]
fn flat_replay_equals_heap_replay_for_every_order_insensitive_scheme() {
    // Flat replay is only a shortcut: for an order-insensitive engine it
    // must give exactly what the heap scheduler gives. MDG has lock-guarded
    // critical sections (its sync-ful epochs must take the heap on both
    // sides); FSHARE has heavy false sharing across processors.
    for kernel in [Kernel::Mdg, Kernel::FalseShare] {
        for scheme in ORDER_INSENSITIVE {
            let (flat, heap) = flat_and_heap(kernel, &cfg(scheme));
            assert_sim_identical(&flat, &heap, &format!("{kernel}/{scheme}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    #[test]
    fn flat_replay_never_changes_results(
        seed in any::<u64>(),
        scheme in prop_oneof![
            Just(SchemeId::BASE),
            Just(SchemeId::SC),
            Just(SchemeId::TPI),
            Just(SchemeId::IDEAL),
        ],
    ) {
        // Randomized seeds vary the opaque-subscript gather targets, so
        // flat == heap is checked across many distinct traces, not one
        // golden input.
        let config = ExperimentConfig::builder()
            .scheme(scheme)
            .seed(seed)
            .build()
            .unwrap();
        let (flat, heap) = flat_and_heap(Kernel::Qcd2, &config);
        prop_assert_eq!(flat.total_cycles, heap.total_cycles);
        prop_assert_eq!(&flat.agg, &heap.agg);
        prop_assert_eq!(&flat.per_proc, &heap.per_proc);
        prop_assert_eq!(&flat.traffic, &heap.traffic);
        prop_assert_eq!(&flat.miss_by_array, &heap.miss_by_array);
    }
}
