//! Heap replay runs every engine access at a non-decreasing time. A
//! `Compute` that the packed trace stores inside the next write's record
//! is still its own step: it advances its processor's clock, and the
//! write waits for any processor that is now earlier.

use std::any::Any;
use tpi_compiler::{mark_program, CompilerOptions};
use tpi_mem::{
    ArrayDecl, Cycle, Epoch, LineGeometry, MemLayout, ProcId, ReadKind, Sharing, WordAddr,
};
use tpi_net::Network;
use tpi_proto::{
    build_engine, AccessOutcome, CoherenceEngine, EngineConfig, EngineStats, SchemeId,
};
use tpi_sim::{run_trace, SimOptions};
use tpi_trace::{generate_trace, EpochEvents, EpochExecKind, Event, Trace, TraceOptions};
use tpi_workloads::{Kernel, Scale};

/// Wraps an engine, reports it order-sensitive (so every epoch replays
/// through the heap) and records `(now, processor)` of each access.
#[derive(Debug)]
struct Recorder {
    inner: Box<dyn CoherenceEngine>,
    calls: Vec<(Cycle, ProcId)>,
}

impl CoherenceEngine for Recorder {
    fn name(&self) -> &'static str {
        self.inner.name()
    }
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
    fn read(
        &mut self,
        proc: ProcId,
        addr: WordAddr,
        kind: ReadKind,
        version: u64,
        now: Cycle,
    ) -> AccessOutcome {
        self.calls.push((now, proc));
        self.inner.read(proc, addr, kind, version, now)
    }
    fn write(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.calls.push((now, proc));
        self.inner.write(proc, addr, version, now)
    }
    fn write_critical(&mut self, proc: ProcId, addr: WordAddr, version: u64, now: Cycle) -> Cycle {
        self.calls.push((now, proc));
        self.inner.write_critical(proc, addr, version, now)
    }
    fn epoch_boundary(&mut self, per_proc_now: &[Cycle]) -> Vec<Cycle> {
        self.inner.epoch_boundary(per_proc_now)
    }
    fn network(&self) -> &Network {
        self.inner.network()
    }
    fn network_mut(&mut self) -> &mut Network {
        self.inner.network_mut()
    }
    fn stats(&self) -> &EngineStats {
        self.inner.stats()
    }
    fn order_insensitive(&self) -> bool {
        false
    }
}

/// Replays `trace` on a recording `scheme` engine; returns the accesses.
fn accesses(trace: &Trace, scheme: SchemeId) -> Vec<(Cycle, ProcId)> {
    let mut cfg = EngineConfig::paper_default(trace.layout.total_words());
    cfg.procs = trace.num_procs;
    cfg.net = tpi_net::NetworkConfig::paper_default(trace.num_procs);
    let mut engine = Recorder {
        inner: build_engine(scheme, cfg),
        calls: Vec::new(),
    };
    run_trace(trace, &mut engine, &SimOptions::default());
    engine.calls
}

#[test]
fn a_folded_compute_yields_before_its_write() {
    let streams = [
        vec![
            Event::Compute(10),
            Event::Write {
                addr: WordAddr(0),
                version: 1,
            },
        ],
        vec![
            Event::Compute(5),
            Event::Read {
                addr: WordAddr(4),
                kind: ReadKind::Plain,
                version: 0,
            },
        ],
    ];
    let epoch = EpochEvents::from_streams(Epoch(0), EpochExecKind::Serial, &streams).unwrap();
    // Processor 0's compute is folded (one record); processor 1's, before
    // a read, is not (two records).
    assert_eq!(epoch.heap_bytes(), 3 * 12 + 2 * 4);
    let epochs = vec![epoch];
    let stats = Trace::compute_stats(&epochs);
    let trace = Trace {
        epochs,
        layout: MemLayout::new(
            vec![ArrayDecl::new("A", vec![8], Sharing::Shared)],
            LineGeometry::new(4),
        ),
        num_procs: 2,
        stats,
        host: Default::default(),
    };
    // Processor 0 runs first (clock tie, lower index) but its compute
    // takes it to 10, so processor 1's read at 5 goes before its write.
    let want = vec![(5, ProcId(1)), (10, ProcId(0))];
    for scheme in [SchemeId::TPI, SchemeId::FULL_MAP] {
        assert_eq!(accesses(&trace, scheme), want, "{scheme}");
    }
}

#[test]
fn kernel_accesses_run_in_time_order() {
    for kernel in [Kernel::Flo52, Kernel::Qcd2, Kernel::Mdg] {
        let program = kernel.build(Scale::Test);
        let marking = mark_program(&program, &CompilerOptions::default());
        let trace = generate_trace(&program, &marking, &TraceOptions::default()).unwrap();
        let calls = accesses(&trace, SchemeId::FULL_MAP);
        assert!(!calls.is_empty());
        if let Some(w) = calls.windows(2).find(|w| w[1].0 < w[0].0) {
            panic!("{kernel}: access at {:?} ran after {:?}", w[1], w[0]);
        }
    }
}
