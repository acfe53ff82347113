//! Shard-parallel trace replay with a deterministic merge.
//!
//! [`crate::run_trace`] replays all processors through one engine. This
//! module partitions the processors across `S` engine *shards*
//! (`owner(p) = p % S`) and replays each shard's processors independently
//! within an epoch, synchronizing only at epoch boundaries — exactly the
//! barrier discipline the simulated machine itself uses.
//!
//! # Why this is exact, not approximate
//!
//! A scheme may opt in by returning `true` from
//! [`CoherenceEngine::shard_safe`]. The contract is that every per-event
//! outcome (stall, miss class, traffic) is a pure function of
//!
//! 1. per-processor state (caches, write buffers, timetags),
//! 2. global state **committed at the previous epoch boundary** (memory
//!    versions under the write-buffer-drain visibility rule, network load
//!    factor `rho`), and
//! 3. commutative accumulators (traffic word counts, op counters),
//!
//! and never of the mid-epoch interleaving of *other* processors. Under
//! that contract, replaying each processor's stream flat (the same walk
//! `run_trace` uses for such epochs) on its owner's replica produces
//! bit-identical per-processor counters and clocks, and summing the
//! commutative accumulators reproduces the single-engine totals exactly.
//! The equivalence pin in `tests/runner_equivalence.rs` holds every scheme
//! to this across kernels with false sharing and doacross synchronization.
//!
//! Epochs that contain lock or post/wait events are *sync-ful*: their
//! cross-processor order is semantically meaningful, so they are replayed
//! by `run_trace`'s heap scheduler, with each engine call routed to the
//! owning shard. Schemes whose protocol state is order-sensitive even for
//! plain reads and writes (directory sharer sets, Tardis leases) report
//! `shard_safe() == false` and replay through `run_trace` entirely.
//!
//! Each shard holds a full-width engine replica: processor `p`'s cache
//! only ever has content on `owner(p)`'s replica, so per-processor results
//! are read from the owner (*owner-select*) while traffic and operation
//! counters are summed across replicas.
//!
//! # Epoch phase protocol
//!
//! Per epoch, shards run four phases separated by barriers:
//!
//! * **P1 replay** — each shard replays its owned processors (flat), or
//!   the scheduler replays a sync-ful epoch on all shards.
//! * **C1 clock merge** — the coordinator assembles the full end-of-epoch
//!   clock vector by owner-select.
//! * **P2 boundary** — each shard runs
//!   [`CoherenceEngine::epoch_boundary`] with the *full* clock vector,
//!   drains its committed version updates, and reports its epoch traffic.
//! * **C2 + P3 finish** — the coordinator computes the epoch end time and
//!   total traffic; every shard then applies all shards' version updates
//!   (a commutative, idempotent max-merge) and refreshes its network load
//!   estimate from the merged totals, so every replica enters the next
//!   epoch with an identical view of global state.
//!
//! Execution is either inline (one thread walks the shards) or threaded
//! (one OS thread per shard with [`std::sync::Barrier`] separating the
//! phases). Since `run_trace` replays flat at one shard too, sharding
//! adds no algorithmic win: what it can add is the threads.

use std::sync::{Barrier, Mutex};
use std::time::Instant;

use tpi_mem::Cycle;
use tpi_proto::{build_engine, CoherenceEngine, EngineConfig, SchemeId};
use tpi_trace::Trace;

use crate::run::{
    elapsed_nanos_since, engine_step, miss_by_array_table, replay_stream, run_trace, EpochProfile,
    Scheduler, SyncPlan,
};
use crate::{SimHostProfile, SimOptions, SimResult};

/// How the shards of a sharded run execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardExec {
    /// Threads when the host has more than one available core, inline
    /// otherwise. The results are bit-identical either way.
    #[default]
    Auto,
    /// One thread walks all shards phase by phase (no OS threads).
    Inline,
    /// One OS thread per shard, barrier-synchronized per phase.
    Threads,
}

/// Knobs for [`run_trace_sharded`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Requested shard count; clamped to `1..=procs`. `1` (the default)
    /// replays on one engine through [`run_trace`].
    pub shards: usize,
    /// Execution strategy (results are identical for all choices).
    pub exec: ShardExec,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            shards: 1,
            exec: ShardExec::Auto,
        }
    }
}

/// Replays `trace` on `shards.shards` engine shards, merging
/// deterministically into the same [`SimResult`] the one-engine
/// [`run_trace`] produces (host wall-clock fields excepted).
///
/// Falls back to [`run_trace`] when one shard is requested or when the
/// scheme is not [`CoherenceEngine::shard_safe`].
///
/// # Panics
///
/// Panics if the trace was generated for a different processor count than
/// `cfg.procs`, or on a malformed trace (lock deadlock), as [`run_trace`]
/// does.
#[must_use]
pub fn run_trace_sharded(
    trace: &Trace,
    scheme: SchemeId,
    cfg: &EngineConfig,
    opts: &SimOptions,
    shards: &ShardOptions,
) -> SimResult {
    let procs = trace.num_procs as usize;
    assert_eq!(
        procs, cfg.procs as usize,
        "trace and engine config disagree on processor count"
    );
    let s = shards.shards.clamp(1, procs.max(1));
    let mut probe = build_engine(scheme, cfg.clone());
    if s <= 1 || !probe.shard_safe() {
        return run_trace(trace, probe.as_mut(), opts);
    }
    drop(probe);

    let plan = Plan::build(trace, s);
    let mut states: Vec<ShardState> = (0..s)
        .map(|_| {
            let mut engine = build_engine(scheme, cfg.clone());
            engine.enable_shard_tracking();
            ShardState::new(engine, procs, trace.layout.decls().len())
        })
        .collect();
    let mut coord = Coord::new(&plan, procs, trace.epochs.len());

    let threaded = match shards.exec {
        ShardExec::Inline => false,
        ShardExec::Threads => true,
        ShardExec::Auto => std::thread::available_parallelism().is_ok_and(|n| n.get() > 1),
    };
    if threaded {
        run_threaded(trace, opts, &plan, &mut states, &mut coord);
    } else {
        run_inline(trace, opts, &plan, &mut states, &mut coord);
    }
    merge_result(trace, &plan, states, coord)
}

// ---------------------------------------------------------------------------
// Precomputed replay plan
// ---------------------------------------------------------------------------

/// Everything derivable from the trace alone, computed once.
struct Plan {
    /// Shard count after clamping.
    shards: usize,
    /// `owner[p]` = shard whose engine replica holds processor `p`.
    owner: Vec<usize>,
    /// Sync-free epochs replay flat per processor; the rest go through
    /// the heap scheduler.
    sync: SyncPlan,
}

impl Plan {
    fn build(trace: &Trace, shards: usize) -> Plan {
        Plan {
            shards,
            owner: (0..trace.num_procs as usize).map(|p| p % shards).collect(),
            sync: SyncPlan::scan(trace),
        }
    }
}

// ---------------------------------------------------------------------------
// Per-shard and coordinator state
// ---------------------------------------------------------------------------

/// One shard: an engine replica plus its per-epoch scratch and run-long
/// accumulators.
struct ShardState {
    engine: Box<dyn CoherenceEngine>,
    /// Full-width clock vector; only owned entries are meaningful after a
    /// flat replay (the scheduler bypasses this and writes the
    /// coordinator's vector directly).
    clocks: Vec<Cycle>,
    /// Boundary stalls from the last `epoch_boundary` call.
    stalls: Vec<Cycle>,
    /// Version updates committed by this shard at the last boundary.
    updates: Vec<(u64, u64)>,
    /// Network words this shard recorded during the last epoch.
    words: u64,
    /// Cumulative read misses over owned processors (for epoch deltas).
    miss_prev: u64,
    /// Read misses owned processors took during the last epoch.
    miss_delta: u64,
    /// Trace events this shard replayed (scheduled events are attributed
    /// to the owner of the issuing processor).
    events: u64,
    /// Per-array read-miss tally, dense by `ArrayId`.
    array_misses: Vec<u64>,
    replay_nanos: u64,
    boundary_nanos: u64,
}

impl ShardState {
    fn new(engine: Box<dyn CoherenceEngine>, procs: usize, arrays: usize) -> ShardState {
        ShardState {
            engine,
            clocks: vec![0; procs],
            stalls: Vec::new(),
            updates: Vec::new(),
            words: 0,
            miss_prev: 0,
            miss_delta: 0,
            events: 0,
            array_misses: vec![0; arrays],
            replay_nanos: 0,
            boundary_nanos: 0,
        }
    }

    /// Sum of read misses over this shard's owned processors.
    fn owned_read_misses(&self, plan: &Plan, me: usize) -> u64 {
        self.engine
            .stats()
            .per_proc()
            .iter()
            .enumerate()
            .filter(|&(p, _)| plan.owner[p] == me)
            .map(|(_, s)| s.read_misses())
            .sum()
    }
}

/// State only the coordinator (shard 0's thread, or the inline driver)
/// touches: merged clocks and the run-long global accounting.
struct Coord {
    /// Merged end-of-epoch clock vector (full width).
    clocks: Vec<Cycle>,
    /// Global simulated time at the last completed epoch boundary.
    global: Cycle,
    busy: Vec<Cycle>,
    profile: Vec<EpochProfile>,
    /// Heap scheduler for sync-ful epochs; also keeps the lock counters.
    sched: Scheduler,
    /// All shards' version updates for the current boundary, concatenated
    /// in shard order (the merge is commutative; the order is fixed anyway
    /// for determinism's sake).
    updates: Vec<(u64, u64)>,
    /// Total network words across shards for the current epoch.
    total_words: u64,
    /// Wall cycles of the current epoch including boundary and setup.
    elapsed: Cycle,
}

impl Coord {
    fn new(plan: &Plan, procs: usize, epochs: usize) -> Coord {
        Coord {
            clocks: vec![0; procs],
            global: 0,
            busy: vec![0; procs],
            profile: Vec::with_capacity(epochs),
            sched: Scheduler::new(&plan.sync, procs),
            updates: Vec::new(),
            total_words: 0,
            elapsed: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Phase functions (shared by the inline and threaded drivers)
// ---------------------------------------------------------------------------

/// P1 for a sync-free epoch: replay shard `me`'s owned processors flat,
/// exactly as [`run_trace`] replays such an epoch on one engine.
fn replay_flat(
    trace: &Trace,
    epoch_idx: usize,
    t0: Cycle,
    plan: &Plan,
    me: usize,
    st: &mut ShardState,
) {
    let start = Instant::now();
    for (p, stream) in trace.epochs[epoch_idx].per_proc.iter().enumerate() {
        if plan.owner[p] == me {
            st.clocks[p] = replay_stream(
                st.engine.as_mut(),
                trace,
                &mut st.array_misses,
                p,
                stream,
                t0,
            );
            st.events += stream.len() as u64;
        }
    }
    st.replay_nanos = st.replay_nanos.saturating_add(elapsed_nanos_since(start));
}

/// P1 for a sync-ful epoch: the heap scheduler replays *all* processors,
/// routing each engine call to the owner's replica. Lock and post/wait
/// traffic lands on the owning processor's shard, so per-class sums match
/// the single engine's.
///
/// Writes the merged clock vector directly into `coord.clocks`.
fn replay_scheduled(
    trace: &Trace,
    epoch_idx: usize,
    t0: Cycle,
    plan: &Plan,
    shards: &mut [&mut ShardState],
    coord: &mut Coord,
) {
    let start = Instant::now();
    coord.clocks.fill(t0);
    let epoch = &trace.epochs[epoch_idx];
    coord
        .sched
        .replay_epoch(&plan.sync, epoch, &mut coord.clocks, |p, ev, now| {
            let st = &mut *shards[plan.owner[p]];
            st.events += 1;
            engine_step(st.engine.as_mut(), trace, &mut st.array_misses, p, ev, now)
        });
    shards[0].replay_nanos = shards[0]
        .replay_nanos
        .saturating_add(elapsed_nanos_since(start));
}

/// C1: assemble the full end-of-epoch clock vector by owner-select (the
/// scheduler already wrote it for sync-ful epochs).
fn merge_clocks(plan: &Plan, states: &[&mut ShardState], coord: &mut Coord) {
    for (p, c) in coord.clocks.iter_mut().enumerate() {
        *c = states[plan.owner[p]].clocks[p];
    }
}

/// P2: run the boundary on shard `me` with the merged clock vector, then
/// snapshot what the coordinator needs (traffic words, version updates,
/// owned-processor miss delta).
fn boundary_phase(plan: &Plan, me: usize, clocks: &[Cycle], st: &mut ShardState) {
    let start = Instant::now();
    st.stalls = st.engine.epoch_boundary(clocks);
    st.updates = st.engine.drain_version_updates();
    st.words = st.engine.network().epoch_words();
    let cur = st.owned_read_misses(plan, me);
    st.miss_delta = cur - st.miss_prev;
    st.miss_prev = cur;
    st.boundary_nanos = st.boundary_nanos.saturating_add(elapsed_nanos_since(start));
}

/// C2: fold the shards' boundary outputs into the epoch's global
/// accounting, exactly as [`run_trace`] does.
fn coordinate_epoch(
    trace: &Trace,
    epoch_idx: usize,
    t0: Cycle,
    opts: &SimOptions,
    plan: &Plan,
    states: &[&mut ShardState],
    coord: &mut Coord,
) {
    let t_end = coord
        .clocks
        .iter()
        .enumerate()
        .map(|(p, &c)| c + states[plan.owner[p]].stalls[p])
        .max()
        .unwrap_or(t0)
        + opts.epoch_setup_cycles;
    coord.elapsed = t_end - t0;
    for (p, &c) in coord.clocks.iter().enumerate() {
        coord.busy[p] += c - t0;
    }
    coord.total_words = states.iter().map(|st| st.words).sum();
    coord.updates.clear();
    for st in states.iter() {
        coord.updates.extend_from_slice(&st.updates);
    }
    coord.profile.push(EpochProfile {
        epoch: trace.epochs[epoch_idx].epoch.0,
        cycles: coord.elapsed,
        misses: states.iter().map(|st| st.miss_delta).sum(),
    });
    coord.global = t_end;
}

/// P3: bring shard `me` up to date with the merged boundary — apply every
/// shard's version commits (max-merge; reapplying its own is a no-op) and
/// refresh the network load factor from the *total* traffic, so all
/// replicas compute the identical `rho` the single engine would.
fn finish_phase(st: &mut ShardState, updates: &[(u64, u64)], total_words: u64, elapsed: Cycle) {
    st.engine.apply_version_updates(updates);
    st.engine.network_mut().end_epoch_as(total_words, elapsed);
}

// ---------------------------------------------------------------------------
// Drivers
// ---------------------------------------------------------------------------

/// Sequential driver: one thread walks every phase of every shard. On a
/// single-core host this is the fastest execution and shares all phase
/// code with the threaded driver.
fn run_inline(
    trace: &Trace,
    opts: &SimOptions,
    plan: &Plan,
    states: &mut [ShardState],
    coord: &mut Coord,
) {
    for e in 0..trace.epochs.len() {
        let t0 = coord.global;
        let mut refs: Vec<&mut ShardState> = states.iter_mut().collect();
        if plan.sync.sync_free[e] {
            for (me, st) in refs.iter_mut().enumerate() {
                replay_flat(trace, e, t0, plan, me, st);
            }
            merge_clocks(plan, &refs, coord);
        } else {
            replay_scheduled(trace, e, t0, plan, &mut refs, coord);
        }
        for (me, st) in refs.iter_mut().enumerate() {
            boundary_phase(plan, me, &coord.clocks, st);
        }
        coordinate_epoch(trace, e, t0, opts, plan, &refs, coord);
        for st in refs.iter_mut() {
            finish_phase(st, &coord.updates, coord.total_words, coord.elapsed);
        }
    }
}

/// Threaded driver: one OS thread per shard, phases separated by
/// barriers. Thread 0 doubles as the coordinator (and runs the scheduler
/// for sync-ful epochs), locking every shard's state while the other
/// threads park at the next barrier.
fn run_threaded(
    trace: &Trace,
    opts: &SimOptions,
    plan: &Plan,
    states: &mut [ShardState],
    coord: &mut Coord,
) {
    let s = plan.shards;
    let shared: Vec<Mutex<&mut ShardState>> = states.iter_mut().map(Mutex::new).collect();
    let coord_cell = Mutex::new(coord);
    let barrier = Barrier::new(s);
    std::thread::scope(|scope| {
        for t in 0..s {
            let shared = &shared;
            let coord_cell = &coord_cell;
            let barrier = &barrier;
            scope.spawn(move || {
                for e in 0..trace.epochs.len() {
                    // P1: flat replay of owned processors (sync-free
                    // epochs only; the scheduler handles the rest below).
                    if plan.sync.sync_free[e] {
                        let t0 = coord_cell.lock().unwrap().global;
                        let mut st = shared[t].lock().unwrap();
                        replay_flat(trace, e, t0, plan, t, &mut st);
                    }
                    barrier.wait();
                    // C1 (+ sync-ful P1): thread 0 takes every shard.
                    if t == 0 {
                        let mut coord = coord_cell.lock().unwrap();
                        let mut guards: Vec<_> = shared.iter().map(|m| m.lock().unwrap()).collect();
                        let mut refs: Vec<&mut ShardState> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        if plan.sync.sync_free[e] {
                            merge_clocks(plan, &refs, &mut coord);
                        } else {
                            let t0 = coord.global;
                            replay_scheduled(trace, e, t0, plan, &mut refs, &mut coord);
                        }
                    }
                    barrier.wait();
                    // P2: every shard runs its boundary with the merged
                    // clocks.
                    {
                        let clocks = coord_cell.lock().unwrap().clocks.clone();
                        let mut st = shared[t].lock().unwrap();
                        boundary_phase(plan, t, &clocks, &mut st);
                    }
                    barrier.wait();
                    // C2: thread 0 folds the boundary outputs.
                    if t == 0 {
                        let mut coord = coord_cell.lock().unwrap();
                        let mut guards: Vec<_> = shared.iter().map(|m| m.lock().unwrap()).collect();
                        let refs: Vec<&mut ShardState> =
                            guards.iter_mut().map(|g| &mut ***g).collect();
                        // `global` is not bumped to t_end until
                        // coordinate_epoch runs, so it still reads t0 here.
                        let t0 = coord.global;
                        coordinate_epoch(trace, e, t0, opts, plan, &refs, &mut coord);
                    }
                    barrier.wait();
                    // P3: every shard applies the merged boundary.
                    {
                        let (updates, words, elapsed) = {
                            let coord = coord_cell.lock().unwrap();
                            (coord.updates.clone(), coord.total_words, coord.elapsed)
                        };
                        let mut st = shared[t].lock().unwrap();
                        finish_phase(&mut st, &updates, words, elapsed);
                    }
                    barrier.wait();
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Deterministic merge
// ---------------------------------------------------------------------------

/// Folds the shards into one [`SimResult`]: per-processor counters by
/// owner-select, commutative accumulators by summation, global timing
/// from the coordinator.
fn merge_result(trace: &Trace, plan: &Plan, states: Vec<ShardState>, coord: Coord) -> SimResult {
    let procs = trace.num_procs as usize;
    let per_proc: Vec<tpi_proto::ProcStats> = (0..procs)
        .map(|p| states[plan.owner[p]].engine.stats().per_proc()[p])
        .collect();
    let mut agg = tpi_proto::ProcStats::default();
    for s in &per_proc {
        agg.merge(s);
    }
    let mut traffic = tpi_net::TrafficStats::default();
    for st in &states {
        traffic.merge(st.engine.network().stats());
    }
    let wbuffer = states
        .iter()
        .map(|st| st.engine.write_buffer_stats())
        .try_fold(None::<tpi_cache::WriteBufferStats>, |acc, w| {
            let w = w?; // None for non-write-through schemes: propagate
            Some(Some(match acc {
                None => w,
                Some(mut a) => {
                    a.enqueued += w.enqueued;
                    a.sent += w.sent;
                    a.coalesced += w.coalesced;
                    a
                }
            }))
        })
        .flatten();
    let mut array_misses = vec![0u64; trace.layout.decls().len()];
    for st in &states {
        for (dst, src) in array_misses.iter_mut().zip(&st.array_misses) {
            *dst += src;
        }
    }
    let mut ops = states[0].engine.op_counts();
    for st in &states[1..] {
        for (dst, src) in ops.iter_mut().zip(st.engine.op_counts()) {
            debug_assert_eq!(dst.0, src.0, "op counter order differs across replicas");
            dst.1 += src.1;
        }
    }
    SimResult {
        scheme: states[0].engine.name().to_owned(),
        total_cycles: coord.global,
        busy_cycles: coord.busy,
        agg,
        per_proc,
        traffic,
        wbuffer,
        epochs: trace.epochs.len() as u64,
        lock_acquires: coord.sched.lock_acquires,
        lock_wait_cycles: coord.sched.lock_wait_cycles,
        profile: coord.profile,
        miss_by_array: miss_by_array_table(&trace.layout, &array_misses),
        host: SimHostProfile {
            replay_nanos: states.iter().map(|st| st.replay_nanos).sum(),
            boundary_nanos: states.iter().map(|st| st.boundary_nanos).sum(),
            events: states.iter().map(|st| st.events).sum(),
            ops,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_ir::{subs, Cond, ProgramBuilder};
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

    /// Locks (critical accumulation) plus a doacross pipeline: every
    /// scheduler arm — acquire/release, post/wait, critical writes —
    /// appears in some epoch.
    fn syncful_trace() -> Trace {
        let mut p = ProgramBuilder::new();
        let a = p.shared("A", [64]);
        let acc = p.shared("ACC", [4]);
        let lock = p.lock();
        let ev = p.event();
        let main = p.proc("main", |f| {
            f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 2));
            f.doall(0, 63, |i, f| {
                f.critical(lock, |f| {
                    f.store(acc.at(subs![0]), vec![acc.at(subs![0]), a.at(subs![i])], 3);
                });
            });
            f.doall(0, 15, |i, f| {
                f.if_else(
                    // True only at i == 0: the pipeline head has no
                    // predecessor to wait on.
                    Cond::EveryN {
                        var: i,
                        modulus: i64::MAX,
                        phase: 0,
                    },
                    |f| {
                        f.store(a.at(subs![i]), vec![a.at(subs![i])], 2);
                    },
                    |f| {
                        f.wait(ev, i - 1);
                        f.store(a.at(subs![i]), vec![a.at(subs![i - 1]), a.at(subs![i])], 2);
                    },
                );
                f.post(ev, i);
            });
        });
        let prog = p.finish(main).unwrap();
        let marking = mark_program(&prog, &CompilerOptions::default());
        generate_trace(&prog, &marking, &TraceOptions::default()).unwrap()
    }

    fn strip_host(mut r: SimResult) -> SimResult {
        r.host = SimHostProfile::default();
        r
    }

    fn serial(scheme: SchemeId, trace: &Trace) -> SimResult {
        let cfg = EngineConfig::paper_default(trace.layout.total_words());
        let mut engine = build_engine(scheme, cfg);
        strip_host(run_trace(trace, engine.as_mut(), &SimOptions::default()))
    }

    fn sharded(scheme: SchemeId, trace: &Trace, shards: usize, exec: ShardExec) -> SimResult {
        let cfg = EngineConfig::paper_default(trace.layout.total_words());
        let so = ShardOptions { shards, exec };
        strip_host(run_trace_sharded(
            trace,
            scheme,
            &cfg,
            &SimOptions::default(),
            &so,
        ))
    }

    fn assert_equivalent(a: &SimResult, b: &SimResult) {
        assert_eq!(a.scheme, b.scheme);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.busy_cycles, b.busy_cycles);
        assert_eq!(a.agg, b.agg);
        assert_eq!(a.per_proc, b.per_proc);
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.wbuffer, b.wbuffer);
        assert_eq!(a.epochs, b.epochs);
        assert_eq!(a.lock_acquires, b.lock_acquires);
        assert_eq!(a.lock_wait_cycles, b.lock_wait_cycles);
        assert_eq!(a.profile, b.profile);
        assert_eq!(a.miss_by_array, b.miss_by_array);
        assert_eq!(a.host.events, b.host.events);
        assert_eq!(a.host.ops, b.host.ops);
    }

    #[test]
    fn sharded_tpi_matches_serial_inline() {
        let trace = producer_consumer_trace();
        let want = serial(SchemeId::TPI, &trace);
        for shards in [2, 3, 16] {
            let got = sharded(SchemeId::TPI, &trace, shards, ShardExec::Inline);
            assert_equivalent(&got, &want);
        }
    }

    #[test]
    fn sharded_tpi_matches_serial_threaded() {
        let trace = producer_consumer_trace();
        let want = serial(SchemeId::TPI, &trace);
        let got = sharded(SchemeId::TPI, &trace, 4, ShardExec::Threads);
        assert_equivalent(&got, &want);
    }

    #[test]
    fn sharded_sc_and_base_match_serial() {
        let trace = producer_consumer_trace();
        for scheme in [SchemeId::SC, SchemeId::BASE, SchemeId::IDEAL] {
            let want = serial(scheme, &trace);
            let got = sharded(scheme, &trace, 4, ShardExec::Inline);
            assert_equivalent(&got, &want);
        }
    }

    #[test]
    fn order_sensitive_schemes_fall_back_to_serial() {
        let trace = producer_consumer_trace();
        for scheme in [SchemeId::FULL_MAP, SchemeId::TARDIS] {
            let want = serial(scheme, &trace);
            let got = sharded(scheme, &trace, 8, ShardExec::Auto);
            assert_equivalent(&got, &want);
        }
    }

    #[test]
    fn syncful_epochs_match_serial_on_both_drivers() {
        let trace = syncful_trace();
        for scheme in [SchemeId::TPI, SchemeId::SC] {
            let want = serial(scheme, &trace);
            for exec in [ShardExec::Inline, ShardExec::Threads] {
                let got = sharded(scheme, &trace, 4, exec);
                assert_equivalent(&got, &want);
            }
        }
    }

    #[test]
    fn one_shard_is_the_serial_path() {
        let trace = producer_consumer_trace();
        let want = serial(SchemeId::TPI, &trace);
        let got = sharded(SchemeId::TPI, &trace, 1, ShardExec::Auto);
        assert_equivalent(&got, &want);
    }

    #[test]
    fn shard_count_exceeding_procs_is_clamped() {
        let trace = producer_consumer_trace();
        let want = serial(SchemeId::TPI, &trace);
        let got = sharded(SchemeId::TPI, &trace, 1000, ShardExec::Inline);
        assert_equivalent(&got, &want);
    }
}
