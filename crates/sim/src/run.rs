//! Replaying a trace against a coherence engine with cycle accounting.
//!
//! The simulator advances one global clock per epoch. Within an epoch the
//! per-processor event streams replay in one of two modes. Where the
//! interleaving matters — an order-sensitive engine (directory
//! invalidations, ownership transfers, Tardis leases) or an epoch with lock
//! or post/wait events — a binary heap keyed by `(clock, processor)`
//! always runs the earliest event next, which keeps cross-processor
//! interactions causally ordered. Where it cannot matter — a sync-free
//! epoch on a [`CoherenceEngine::order_insensitive`] engine — each
//! processor's stream replays straight through. At the epoch boundary all
//! processors synchronize at a barrier: the engine adds its boundary costs
//! (write-buffer drain, two-phase resets), a fixed loop setup/scheduling
//! overhead is charged, and the network's load estimate is refreshed from
//! the epoch's traffic.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::iter::Peekable;
use std::time::Instant;
use tpi_mem::{Cycle, ProcId};
use tpi_net::TrafficClass;
use tpi_proto::CoherenceEngine;
use tpi_trace::{EpochEvents, Event, Events, Trace};

/// Simulator knobs that are not part of the coherence engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimOptions {
    /// Barrier + parallel-loop setup/scheduling cost per epoch.
    pub epoch_setup_cycles: Cycle,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            epoch_setup_cycles: 100,
        }
    }
}

/// Per-epoch timing/miss profile (for timeline figures).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochProfile {
    /// Epoch index.
    pub epoch: u64,
    /// Wall-clock cycles the epoch took (including barrier and setup).
    pub cycles: Cycle,
    /// Read misses taken during the epoch (all processors).
    pub misses: u64,
}

/// Host-side (wall-clock) self-measurement of one [`run_trace`] call, fed
/// into the `tpi-prof` stage profiler by the experiment engine.
///
/// These are measurements of the *simulator program*, not of the simulated
/// machine: nanoseconds of host time and counts of host work. They are
/// excluded from every determinism comparison (the equivalence tests
/// compare cycles, protocol counters, and traffic — never host time).
#[derive(Debug, Clone, Default)]
pub struct SimHostProfile {
    /// Host nanoseconds spent replaying events (flat or heap-scheduled,
    /// including engine read/write calls).
    pub replay_nanos: u64,
    /// Host nanoseconds spent in [`CoherenceEngine::epoch_boundary`]
    /// (write-buffer drains, two-phase resets).
    pub boundary_nanos: u64,
    /// Trace events replayed (logical events: a `Compute` folded into a
    /// packed write record counts as one).
    pub events: u64,
    /// Engine-reported operation counters (see
    /// [`CoherenceEngine::op_counts`]).
    pub ops: Vec<(&'static str, u64)>,
}

/// Everything measured in one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Scheme label.
    pub scheme: String,
    /// Total execution time.
    pub total_cycles: Cycle,
    /// Per-processor busy time (excludes barrier waiting).
    pub busy_cycles: Vec<Cycle>,
    /// Aggregate protocol counters.
    pub agg: tpi_proto::ProcStats,
    /// Per-processor protocol counters.
    pub per_proc: Vec<tpi_proto::ProcStats>,
    /// Network traffic by class.
    pub traffic: tpi_net::TrafficStats,
    /// Write-buffer behaviour (write-through schemes only).
    pub wbuffer: Option<tpi_cache::WriteBufferStats>,
    /// Number of epochs executed.
    pub epochs: u64,
    /// Lock acquisitions performed.
    pub lock_acquires: u64,
    /// Cycles processors spent waiting for contended locks.
    pub lock_wait_cycles: Cycle,
    /// Per-epoch timeline.
    pub profile: Vec<EpochProfile>,
    /// Read misses attributed to the program array that was accessed,
    /// sorted descending ("which array causes the misses"). Private-array
    /// replicas resolve to their declared array.
    pub miss_by_array: Vec<(String, u64)>,
    /// Host-side wall-clock self-measurement (profiling only; never part
    /// of any determinism comparison).
    pub host: SimHostProfile,
}

impl SimResult {
    /// Aggregate read miss rate.
    #[must_use]
    pub fn miss_rate(&self) -> f64 {
        self.agg.miss_rate()
    }

    /// Aggregate average read-miss latency.
    #[must_use]
    pub fn avg_miss_latency(&self) -> f64 {
        self.agg.avg_miss_latency()
    }

    /// Speedup of this run relative to `other` (other / self).
    #[must_use]
    pub fn speedup_over(&self, other: &SimResult) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            other.total_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Network words per (shared) memory reference — a traffic density
    /// measure comparable across schemes.
    #[must_use]
    pub fn words_per_reference(&self) -> f64 {
        let refs = self.agg.reads + self.agg.writes;
        if refs == 0 {
            0.0
        } else {
            self.traffic.total_words() as f64 / refs as f64
        }
    }
}

/// Replays `trace` against `engine`.
///
/// Each epoch replays in one of two modes, chosen from the engine and the
/// epoch alone:
///
/// * **flat** — a sync-free epoch on a
///   [`CoherenceEngine::order_insensitive`] engine replays each
///   processor's stream straight through. Such an engine's outcomes do
///   not depend on the mid-epoch interleaving, so no ordering work is
///   needed at all;
/// * **heap** — every other epoch replays in min-`(clock, processor)`
///   order through a binary heap, so cross-processor protocol
///   interactions and lock/event hand-offs stay causally ordered.
///
/// # Panics
///
/// Panics if the trace was generated for a different processor count than
/// the engine was built with, or if every processor with events left is
/// blocked on a lock or an unposted event ("lock deadlock").
pub fn run_trace(trace: &Trace, engine: &mut dyn CoherenceEngine, opts: &SimOptions) -> SimResult {
    let procs = trace.num_procs as usize;
    assert_eq!(
        procs,
        engine.stats().per_proc().len(),
        "trace and engine disagree on processor count"
    );
    let plan = SyncPlan::scan(trace);
    let flat = engine.order_insensitive();
    let mut sched = Scheduler::new(&plan, procs);
    let mut global: Cycle = 0;
    let mut busy = vec![0u64; procs];
    let mut clocks = vec![0 as Cycle; procs];
    let mut profile = Vec::with_capacity(trace.epochs.len());
    // Per-array read-miss tally, indexed directly by `ArrayId` (dense).
    let mut array_misses: Vec<u64> = vec![0; trace.layout.decls().len()];
    let mut replay_nanos = 0u64;
    let mut boundary_nanos = 0u64;
    let mut events_replayed = 0u64;

    for (e, epoch) in trace.epochs.iter().enumerate() {
        let host_epoch_start = Instant::now();
        let t0 = global;
        let misses_before = engine.stats().aggregate().read_misses();
        clocks.fill(t0);
        if flat && plan.sync_free[e] {
            for (p, stream) in epoch.streams().enumerate() {
                clocks[p] = replay_stream(engine, trace, &mut array_misses, p, stream, t0);
            }
        } else {
            sched.replay_epoch(&plan, epoch, &mut clocks, engine, trace, &mut array_misses);
        }
        events_replayed += epoch.len() as u64;
        for p in 0..procs {
            busy[p] += clocks[p] - t0;
        }
        replay_nanos = replay_nanos.saturating_add(elapsed_nanos_since(host_epoch_start));
        let host_boundary_start = Instant::now();
        let stalls = engine.epoch_boundary(&clocks);
        boundary_nanos = boundary_nanos.saturating_add(elapsed_nanos_since(host_boundary_start));
        // Serial epochs still synchronize (the paper's master-worker model).
        let t_end = clocks
            .iter()
            .zip(&stalls)
            .map(|(c, s)| c + s)
            .max()
            .unwrap_or(t0)
            + opts.epoch_setup_cycles;
        engine.network_mut().end_epoch(t_end - t0);
        profile.push(EpochProfile {
            epoch: epoch.epoch.0,
            cycles: t_end - t0,
            misses: engine.stats().aggregate().read_misses() - misses_before,
        });
        global = t_end;
    }

    let per_proc: Vec<tpi_proto::ProcStats> = engine.stats().per_proc().to_vec();
    SimResult {
        scheme: engine.name().to_owned(),
        total_cycles: global,
        busy_cycles: busy,
        agg: engine.stats().aggregate(),
        per_proc,
        traffic: *engine.network().stats(),
        wbuffer: engine.write_buffer_stats(),
        epochs: trace.epochs.len() as u64,
        lock_acquires: sched.lock_acquires,
        lock_wait_cycles: sched.lock_wait_cycles,
        profile,
        miss_by_array: miss_by_array_table(&trace.layout, &array_misses),
        host: SimHostProfile {
            replay_nanos,
            boundary_nanos,
            events: events_replayed,
            ops: engine.op_counts(),
        },
    }
}

/// The synchronization content of a trace, found by one pre-scan: which
/// epochs are sync-free, and a dense keyspace for locks and post/wait
/// pairs, so the scheduler indexes flat tables instead of hashing.
struct SyncPlan {
    /// Per epoch: no lock or post/wait event in any stream.
    sync_free: Vec<bool>,
    /// One past the highest lock id (locks never span epochs).
    locks: usize,
    /// Every distinct post/wait `(event, index)` pair, sorted; a pair's
    /// position is its dense id.
    pairs: Vec<(u32, i64)>,
}

impl SyncPlan {
    fn scan(trace: &Trace) -> SyncPlan {
        let mut locks = 0;
        let mut pairs = Vec::new();
        let sync_free = trace
            .epochs
            .iter()
            .map(|epoch| {
                let mut free = true;
                for ev in epoch.events() {
                    match ev {
                        Event::AcquireLock(l) | Event::ReleaseLock(l) => {
                            free = false;
                            locks = locks.max(l as usize + 1);
                        }
                        Event::PostEvent { event, index } | Event::WaitEvent { event, index } => {
                            free = false;
                            pairs.push((event, index));
                        }
                        _ => {}
                    }
                }
                free
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        SyncPlan {
            sync_free,
            locks,
            pairs,
        }
    }

    fn sync_id(&self, event: u32, index: i64) -> usize {
        self.pairs
            .binary_search(&(event, index))
            .expect("every post/wait pair was pre-scanned")
    }
}

/// Performs the engine side of processor `p`'s event `ev` at local time
/// `now` and returns the cycles it costs. Synchronization events cost
/// their network round trip here; whether they may run yet is the
/// [`Scheduler`]'s decision.
fn engine_step(
    engine: &mut dyn CoherenceEngine,
    trace: &Trace,
    array_misses: &mut [u64],
    p: usize,
    ev: Event,
    now: Cycle,
) -> Cycle {
    let proc = ProcId(p as u32);
    match ev {
        Event::Compute(c) => Cycle::from(c),
        Event::Read {
            addr,
            kind,
            version,
        } => {
            let outcome = engine.read(proc, addr, kind, version, now);
            if outcome.miss.is_some() {
                // Private replicas live at base + k*span: fold back.
                let span = trace.layout.total_words().max(1);
                if let Some(id) = trace.layout.array_of(tpi_mem::WordAddr(addr.0 % span)) {
                    array_misses[id.0 as usize] += 1;
                }
            }
            outcome.stall
        }
        Event::Write { addr, version } => engine.write(proc, addr, version, now),
        Event::CriticalWrite { addr, version } => engine.write_critical(proc, addr, version, now),
        // An atomic read-modify-write at the lock's home memory module.
        Event::AcquireLock(_) => {
            engine.network_mut().record(TrafficClass::Coherence, 1);
            engine.network().word_fetch()
        }
        // A release, or a post: a release fence plus a flag write at the
        // event's home node.
        Event::ReleaseLock(_) | Event::PostEvent { .. } => {
            engine.network_mut().record(TrafficClass::Coherence, 1);
            1
        }
        // A satisfied wait: one poll of the flag at the event's home node.
        Event::WaitEvent { .. } => {
            engine.network_mut().record(TrafficClass::Coherence, 0);
            1
        }
    }
}

/// Flat replay: processor `p`'s `stream` straight through from `t0`.
/// Returns the processor's end clock.
fn replay_stream(
    engine: &mut dyn CoherenceEngine,
    trace: &Trace,
    array_misses: &mut [u64],
    p: usize,
    stream: Events<'_>,
    t0: Cycle,
) -> Cycle {
    stream.fold(t0, |now, ev| {
        now + engine_step(engine, trace, array_misses, p, ev, now)
    })
}

/// Heap replay of the epochs whose interleaving matters.
///
/// Runnable processors sit in a min-heap keyed by `(clock, processor)`,
/// so the next event is always the earliest one and ties go to the lowest
/// index. A processor that blocks on a held lock or an unposted event
/// leaves the heap for that lock's or event's waiter list; the release or
/// post moves its waiters back, each resuming no earlier than that
/// instant. Every key in the heap is at least the current `(now, p)`, so
/// only true waiters are ever moved in time, and events execute at
/// non-decreasing times.
struct Scheduler {
    heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Holder per lock id.
    holder: Vec<Option<usize>>,
    /// Epoch stamp of each post/wait pair's post (stamping replaces
    /// per-epoch clears).
    posted: Vec<u64>,
    /// Blocked processors: one list per lock id, then one per post/wait
    /// pair (at `locks + id`).
    waiters: Vec<Vec<usize>>,
    stamp: u64,
    /// Lock acquisitions so far.
    lock_acquires: u64,
    /// Cycles processors spent blocked on locks and events so far.
    lock_wait_cycles: Cycle,
}

impl Scheduler {
    fn new(plan: &SyncPlan, procs: usize) -> Scheduler {
        Scheduler {
            heap: BinaryHeap::with_capacity(procs),
            holder: vec![None; plan.locks],
            posted: vec![0; plan.pairs.len()],
            waiters: vec![Vec::new(); plan.locks + plan.pairs.len()],
            stamp: 0,
            lock_acquires: 0,
            lock_wait_cycles: 0,
        }
    }

    /// Replays `epoch` from the start times in `clocks`, leaving every
    /// processor's end time there. Once the scheduler lets an event run,
    /// [`engine_step`] performs its engine side.
    ///
    /// # Panics
    ///
    /// Panics ("lock deadlock") if processors with events left are all
    /// blocked.
    fn replay_epoch(
        &mut self,
        plan: &SyncPlan,
        epoch: &EpochEvents,
        clocks: &mut [Cycle],
        engine: &mut dyn CoherenceEngine,
        trace: &Trace,
        array_misses: &mut [u64],
    ) {
        self.stamp += 1;
        self.holder.fill(None);
        self.heap.clear();
        // Each processor's next event, decoded from its packed stream.
        let mut streams: Vec<Peekable<Events<'_>>> =
            epoch.streams().map(Iterator::peekable).collect();
        let mut remaining = 0usize;
        for (p, stream) in streams.iter_mut().enumerate() {
            if stream.peek().is_some() {
                self.heap.push(Reverse((clocks[p], p)));
                remaining += 1;
            }
        }
        while let Some(Reverse((_, p))) = self.heap.pop() {
            let stream = &mut streams[p];
            // `p` keeps running while its key stays the smallest.
            while let Some(&ev) = stream.peek() {
                let now = clocks[p];
                match ev {
                    Event::AcquireLock(l) => {
                        let l = l as usize;
                        if self.holder[l].is_some() {
                            self.waiters[l].push(p);
                            break;
                        }
                        self.holder[l] = Some(p);
                        self.lock_acquires += 1;
                    }
                    Event::ReleaseLock(l) => {
                        let l = l as usize;
                        let holder = self.holder[l].take();
                        debug_assert_eq!(holder, Some(p), "release by non-holder");
                        self.wake(l, now, clocks);
                    }
                    Event::PostEvent { event, index } => {
                        let id = plan.sync_id(event, index);
                        self.posted[id] = self.stamp;
                        self.wake(plan.locks + id, now, clocks);
                    }
                    // Events execute at non-decreasing times, so a post
                    // seen here happened no later than `now`: the wait
                    // itself costs only the poll.
                    Event::WaitEvent { event, index } => {
                        let id = plan.sync_id(event, index);
                        if self.posted[id] != self.stamp {
                            self.waiters[plan.locks + id].push(p);
                            break;
                        }
                    }
                    _ => {}
                }
                clocks[p] += engine_step(engine, trace, array_misses, p, ev, now);
                stream.next();
                if stream.peek().is_none() {
                    remaining -= 1;
                    break;
                }
                let key = (clocks[p], p);
                if self.heap.peek().is_some_and(|Reverse(top)| *top < key) {
                    self.heap.push(Reverse(key));
                    break;
                }
            }
        }
        assert!(
            remaining == 0,
            "lock deadlock: events remain but every processor is blocked"
        );
    }

    /// Returns waiter list `list`'s processors to the heap, none earlier
    /// than `now`, charging each the time it was held back.
    fn wake(&mut self, list: usize, now: Cycle, clocks: &mut [Cycle]) {
        for q in self.waiters[list].drain(..) {
            if clocks[q] < now {
                self.lock_wait_cycles += now - clocks[q];
                clocks[q] = now;
            }
            self.heap.push(Reverse((clocks[q], q)));
        }
    }
}

/// Saturating nanoseconds since `start` (a duration that overflows `u64`
/// nanoseconds pins at `u64::MAX` instead of panicking).
fn elapsed_nanos_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Renders a dense per-array miss tally as the report's sorted
/// `(array name, misses)` table.
fn miss_by_array_table(layout: &tpi_mem::MemLayout, array_misses: &[u64]) -> Vec<(String, u64)> {
    let mut v: Vec<(String, u64)> = array_misses
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| {
            let id = tpi_mem::ArrayId(i as u32);
            (layout.decl(id).name().to_owned(), n)
        })
        .collect();
    v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    v
}

/// Checks the bookkeeping identity `hits + misses == reads` per processor
/// and in aggregate.
///
/// # Errors
///
/// Returns a description of the first processor whose counters do not add
/// up.
pub fn verify_accounting(result: &SimResult) -> Result<(), String> {
    for (p, s) in result.per_proc.iter().enumerate() {
        if s.read_hits + s.read_misses() != s.reads {
            return Err(format!(
                "P{p}: hits {} + misses {} != reads {}",
                s.read_hits,
                s.read_misses(),
                s.reads
            ));
        }
    }
    let a = &result.agg;
    if a.read_hits + a.read_misses() != a.reads {
        return Err("aggregate accounting mismatch".to_owned());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_ir::{subs, ProgramBuilder};
    use tpi_proto::{build_engine, registry, EngineConfig, SchemeId};
    use tpi_trace::{generate_trace, TraceOptions};

    fn producer_consumer_trace() -> Trace {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [256]);
        let b = p.shared("B", [256]);
        let main = p.proc("main", |f| {
            f.doall(0, 255, |i, f| f.store(a.at(subs![i]), vec![], 2));
            f.doall(0, 255, |i, f| {
                f.store(b.at(subs![i]), vec![a.at(subs![i])], 2)
            });
        });
        let prog = p.finish(main).unwrap();
        let marking = mark_program(&prog, &CompilerOptions::default());
        generate_trace(&prog, &marking, &TraceOptions::default()).unwrap()
    }

    fn run(scheme: SchemeId, trace: &Trace) -> SimResult {
        let cfg = EngineConfig::paper_default(trace.layout.total_words());
        let mut engine = build_engine(scheme, cfg);
        run_trace(trace, engine.as_mut(), &SimOptions::default())
    }

    #[test]
    fn accounting_identity_holds_for_all_schemes() {
        let trace = producer_consumer_trace();
        for scheme in registry::global().all().iter().map(|s| s.id()) {
            let r = run(scheme, &trace);
            verify_accounting(&r).unwrap_or_else(|e| panic!("{scheme}: {e}"));
            assert!(r.total_cycles > 0);
            assert_eq!(r.epochs, 2);
        }
    }

    #[test]
    fn scheme_ordering_on_producer_consumer() {
        let trace = producer_consumer_trace();
        let base = run(SchemeId::BASE, &trace);
        let tpi = run(SchemeId::TPI, &trace);
        let hw = run(SchemeId::FULL_MAP, &trace);
        // Caching schemes beat no-caching on this kernel.
        assert!(tpi.total_cycles < base.total_cycles);
        assert!(hw.total_cycles < base.total_cycles);
        // TPI and HW are in the same ballpark (the paper's headline).
        let ratio = tpi.total_cycles as f64 / hw.total_cycles as f64;
        assert!(
            (0.4..2.5).contains(&ratio),
            "TPI/HW ratio out of band: {ratio} ({} vs {})",
            tpi.total_cycles,
            hw.total_cycles
        );
    }

    #[test]
    fn deterministic_replay() {
        let trace = producer_consumer_trace();
        let r1 = run(SchemeId::TPI, &trace);
        let r2 = run(SchemeId::TPI, &trace);
        assert_eq!(r1.total_cycles, r2.total_cycles);
        assert_eq!(r1.traffic, r2.traffic);
    }

    #[test]
    fn busy_cycles_do_not_exceed_total() {
        let trace = producer_consumer_trace();
        let r = run(SchemeId::TPI, &trace);
        for &b in &r.busy_cycles {
            assert!(b <= r.total_cycles);
        }
    }

    #[test]
    fn host_profile_counts_every_event_once() {
        let trace = producer_consumer_trace();
        let r = run(SchemeId::TPI, &trace);
        let total_events: usize = trace.epochs.iter().map(EpochEvents::len).sum();
        assert_eq!(r.host.events, total_events as u64);
        assert!(r.host.replay_nanos > 0, "replay loop must record wall time");
        assert!(
            r.host
                .ops
                .iter()
                .any(|(name, n)| *name == "tpi_fills" && *n > 0),
            "TPI engine must report op counters: {:?}",
            r.host.ops
        );
    }

    use tpi_trace::EpochEvents;

    #[test]
    fn write_through_schemes_report_buffer_stats() {
        let trace = producer_consumer_trace();
        assert!(run(SchemeId::TPI, &trace).wbuffer.is_some());
        assert!(run(SchemeId::SC, &trace).wbuffer.is_some());
        assert!(run(SchemeId::FULL_MAP, &trace).wbuffer.is_none());
    }
}
