//! The execution-driven interpreter: runs an IR program over `P` logical
//! processors and emits the per-epoch memory-event streams the timing
//! simulators consume.
//!
//! The interpreter uses the *same* epoch segmentation as the compiler
//! (`tpi_ir::epochs`), which is what makes compiler-computed Time-Read
//! distances meaningful at runtime. It also maintains a global per-word
//! version counter (attached to every event) and checks DOALL race freedom —
//! the paper's correctness precondition ("doall" iterations are independent
//! tasks).

use crate::event::{EpochEvents, EpochExecKind, Event, InterpHostProfile, Trace};
use crate::record::{self, Record};
use crate::sched::{assign, SchedulePolicy};
use std::error::Error;
use std::fmt;
use std::time::Instant;
use tpi_compiler::Marking;
use tpi_ir::epochs::{EpochShape, Segment};
use tpi_ir::{ArrayRef, Env, Program, RefSite, Stmt, Subscript};
use tpi_mem::{Epoch, FastMap, LineGeometry, MemLayout, ProcId, ReadKind, Sharing, WordAddr};

/// Options controlling trace generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceOptions {
    /// Number of processors (the paper simulates 16).
    pub num_procs: u32,
    /// DOALL scheduling policy.
    pub policy: SchedulePolicy,
    /// Seed for dynamic scheduling decisions.
    pub seed: u64,
    /// Whether to verify DOALL race freedom (cheap; recommended).
    pub check_races: bool,
    /// Line geometry used to align array bases.
    pub geometry: LineGeometry,
    /// Rotate serial epochs across processors (epoch `k` runs on processor
    /// `k mod P`) instead of pinning them to processor 0. The compiler is
    /// already conservative about serial-epoch placement, so its marking
    /// is sound either way — this knob measures what that conservatism
    /// buys.
    pub rotate_serial: bool,
}

impl Default for TraceOptions {
    fn default() -> Self {
        TraceOptions {
            num_procs: 16,
            policy: SchedulePolicy::StaticBlock,
            seed: 0xC0FF_EE00,
            check_races: true,
            geometry: LineGeometry::new(4),
            rotate_serial: false,
        }
    }
}

/// The most bytes one trace may hold: interpretation stops with
/// [`TraceError::TooLarge`] once a trace's packed streams (or a DOALL's
/// iteration list) would pass it. The `tpi::Runner` memoizes traces and
/// cell results under the same bound, so any trace the interpreter
/// accepts fits in its memo. 160 MiB is above the 126 MiB of traces that
/// the largest grid of the paper sweep holds at once.
pub const MAX_TRACE_BYTES: usize = 160 << 20;

/// Bytes of one packed event record.
const RECORD_BYTES: usize = std::mem::size_of::<Record>();

/// Trace generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    /// Two different DOALL iterations of one epoch conflicted on a word —
    /// the program is not a valid DOALL program.
    Race {
        /// Conflicting address.
        addr: WordAddr,
        /// Epoch in which the conflict occurred.
        epoch: Epoch,
    },
    /// An array subscript evaluated outside the array's extent.
    OutOfBounds {
        /// Array name.
        array: String,
        /// The offending index.
        index: i64,
        /// The dimension's extent (valid indices are `0..extent`).
        extent: u64,
        /// Epoch in which the access executed.
        epoch: Epoch,
    },
    /// An event field is wider than its slot in the packed trace record
    /// (see [`crate::record`]).
    DoesNotFit {
        /// Which field.
        field: &'static str,
        /// Its value.
        value: u64,
        /// The largest value the slot holds.
        max: u64,
    },
    /// Interpreting the program needs more than [`MAX_TRACE_BYTES`]:
    /// its trace, or the iteration list of one DOALL, would pass the
    /// bound. Raised before the memory is allocated.
    TooLarge {
        /// Bytes needed when interpretation stopped (a lower bound).
        bytes: u64,
        /// The bound, [`MAX_TRACE_BYTES`].
        max: u64,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Race { addr, epoch } => {
                write!(
                    f,
                    "DOALL race on {addr} in {epoch}: iterations are not independent"
                )
            }
            TraceError::OutOfBounds {
                array,
                index,
                extent,
                epoch,
            } => write!(
                f,
                "index {index} out of bounds 0..{extent} for array {array} in {epoch}"
            ),
            TraceError::DoesNotFit { field, value, max } => write!(
                f,
                "{field} {value} does not fit the packed trace record (max {max})"
            ),
            TraceError::TooLarge { bytes, max } => write!(
                f,
                "trace needs at least {bytes} bytes, more than the {max}-byte bound"
            ),
        }
    }
}

impl Error for TraceError {}

/// Runs `program` under `marking` and returns its event trace.
///
/// # Errors
///
/// Returns [`TraceError::Race`] if race checking is enabled and two DOALL
/// iterations of one epoch conflict on a word, [`TraceError::OutOfBounds`]
/// if a subscript leaves its array, [`TraceError::DoesNotFit`] if an
/// event exceeds the packed record, and [`TraceError::TooLarge`] if the
/// trace would pass [`MAX_TRACE_BYTES`].
pub fn generate_trace(
    program: &Program,
    marking: &Marking,
    opts: &TraceOptions,
) -> Result<Trace, TraceError> {
    let shape = EpochShape::of(program);
    let layout = MemLayout::new(program.arrays.clone(), opts.geometry);
    let mut interp = Interp {
        program,
        shape: &shape,
        marking,
        opts,
        layout: &layout,
        versions: FastMap::default(),
        races: FastMap::default(),
        posts: FastMap::default(),
        bufs: vec![Vec::new(); opts.num_procs as usize],
        epochs: Vec::new(),
        packed_bytes: 0,
        error: None,
        host: InterpHostProfile::default(),
    };
    let segs = shape.segment_proc(program, program.entry);
    let mut env = Env::new();
    interp.exec_segments(&segs, &mut env);
    if let Some(e) = interp.error {
        return Err(e);
    }
    let mut epochs = interp.epochs;
    epochs.shrink_to_fit();
    let stats = Trace::compute_stats(&epochs);
    let host = interp.host;
    Ok(Trace {
        epochs,
        layout,
        num_procs: opts.num_procs,
        stats,
        host,
    })
}

/// Merged lock context of all accesses to a word within one epoch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum LockCtx {
    /// No access recorded yet.
    #[default]
    Empty,
    /// Every access so far was critical under this lock.
    Uniform(u32),
    /// Mixed contexts (non-critical, or different locks).
    Tainted,
}

impl LockCtx {
    fn merge(self, ctx: Option<u32>) -> LockCtx {
        match (self, ctx) {
            (LockCtx::Empty, Some(l)) => LockCtx::Uniform(l),
            (LockCtx::Uniform(a), Some(l)) if a == l => LockCtx::Uniform(a),
            _ => LockCtx::Tainted,
        }
    }
}

/// Per-epoch race bookkeeping for one word.
#[derive(Debug, Default, Clone, Copy)]
struct WordAccess {
    writer: Option<i64>,
    first_reader: Option<i64>,
    multi_reader: bool,
    ctx: LockCtx,
}

struct Interp<'a> {
    program: &'a Program,
    shape: &'a EpochShape,
    marking: &'a Marking,
    opts: &'a TraceOptions,
    layout: &'a MemLayout,
    versions: FastMap<u64, u64>,
    /// Per-epoch race table, hoisted here so its capacity is reused across
    /// epochs (cleared at the start of every DOALL epoch).
    races: FastMap<u64, WordAccess>,
    /// Per-epoch post table ((event, index) -> posting task), likewise
    /// hoisted and cleared per epoch.
    posts: FastMap<(u32, i64), i64>,
    /// Per-processor record buffers of the current epoch, packed into its
    /// [`EpochEvents`] at the end and reused by the next.
    bufs: Vec<Vec<Record>>,
    epochs: Vec<EpochEvents>,
    /// Bytes held by `epochs` (headers included), checked against
    /// [`MAX_TRACE_BYTES`] together with the buffered records.
    packed_bytes: usize,
    error: Option<TraceError>,
    host: InterpHostProfile,
}

impl<'a> Interp<'a> {
    fn exec_segments(&mut self, segs: &[Segment<'a>], env: &mut Env) {
        for seg in segs {
            if self.error.is_some() {
                return;
            }
            match seg {
                Segment::Serial(stmts) => self.exec_serial_epoch(stmts, env),
                Segment::Doall(l) => self.exec_doall_epoch(l, env),
                Segment::SerialLoop { l, body } => {
                    let lo = l.lo.eval(env);
                    let hi = l.hi.eval(env);
                    let mut v = lo;
                    while v <= hi {
                        env.bind(l.var, v);
                        self.exec_segments(body, env);
                        v += l.step;
                        if self.error.is_some() {
                            break;
                        }
                    }
                    env.unbind(l.var);
                }
                Segment::Branch {
                    s,
                    then_seg,
                    else_seg,
                } => {
                    if s.cond.eval(env) {
                        self.exec_segments(then_seg, env);
                    } else {
                        self.exec_segments(else_seg, env);
                    }
                }
                Segment::Call(callee) => {
                    let body = &self.program.proc(*callee).body;
                    let segs = self.shape.segment(body);
                    let mut callee_env = Env::new();
                    self.exec_segments(&segs, &mut callee_env);
                }
            }
        }
    }

    /// Packs the current epoch's record buffers into the trace.
    fn finish_epoch(&mut self, epoch: Epoch, kind: EpochExecKind) {
        match EpochEvents::pack(epoch, kind, &mut self.bufs) {
            Ok(ee) => {
                self.packed_bytes += ee.heap_bytes() + std::mem::size_of::<EpochEvents>();
                self.epochs.push(ee);
                if self.packed_bytes > MAX_TRACE_BYTES {
                    self.error = Some(too_large(self.packed_bytes));
                }
            }
            Err(e) => self.error = Some(e),
        }
    }

    /// The most records processor `p`'s buffer may hold before the trace
    /// passes [`MAX_TRACE_BYTES`], given `buffered` records in the other
    /// buffers of this epoch, and the bytes held outside that buffer.
    fn sink_cap(&self, p: usize, buffered: usize) -> (usize, usize) {
        let outside = self.packed_bytes + buffered * RECORD_BYTES;
        let room = MAX_TRACE_BYTES.saturating_sub(outside) / RECORD_BYTES;
        (self.bufs[p].len() + room, outside)
    }

    fn exec_serial_epoch(&mut self, stmts: &[&'a Stmt], env: &mut Env) {
        let host_start = Instant::now();
        let epoch = Epoch(self.epochs.len() as u64);
        self.posts.clear();
        let serial_proc = if self.opts.rotate_serial {
            (epoch.0 % u64::from(self.opts.num_procs)) as u32
        } else {
            0
        };
        {
            let (sink_cap, outside_bytes) = self.sink_cap(serial_proc as usize, 0);
            let mut task = TaskCtx {
                interp_versions: &mut self.versions,
                layout: self.layout,
                program: self.program,
                marking: self.marking,
                num_procs: self.opts.num_procs,
                proc: ProcId(serial_proc),
                epoch,
                sink: &mut self.bufs[serial_proc as usize],
                sink_cap,
                outside_bytes,
                races: None,
                task_id: 0,
                race_found: None,
                fault: None,
                critical: None,
                posts: &mut self.posts,
                waited: Vec::new(),
            };
            for s in stmts {
                task.exec_stmt(s, env);
            }
            if let Some(e) = task.fault {
                self.error = Some(e);
                return;
            }
        }
        self.finish_epoch(epoch, EpochExecKind::Serial);
        self.host.serial_nanos = self
            .host
            .serial_nanos
            .saturating_add(u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    fn exec_doall_epoch(&mut self, l: &'a tpi_ir::Loop, env: &mut Env) {
        let host_start = Instant::now();
        let epoch = Epoch(self.epochs.len() as u64);
        let lo = l.lo.eval(env);
        let hi = l.hi.eval(env);
        // The iteration list is allocated whole, so its size is checked
        // first: a hostile bound must not reach the allocator.
        let trips = if hi < lo {
            0
        } else {
            (i128::from(hi) - i128::from(lo)) / i128::from(l.step) + 1
        };
        let list_bytes = trips.saturating_mul(std::mem::size_of::<i64>() as i128);
        if list_bytes > MAX_TRACE_BYTES as i128 {
            self.error = Some(too_large(usize::try_from(list_bytes).unwrap_or(usize::MAX)));
            return;
        }
        // Every value lies in `lo..=hi`, so the wrapping arithmetic is
        // exact even where `k * step` alone would overflow.
        let values: Vec<i64> = (0..trips as i64)
            .map(|k| lo.wrapping_add(k.wrapping_mul(l.step)))
            .collect();
        let assignment = assign(
            &values,
            self.opts.num_procs,
            self.opts.policy,
            self.opts.seed,
            epoch.0,
        );
        self.races.clear();
        self.posts.clear();
        // Iterations run in a merged order that respects each processor's
        // schedule while globally favouring the smallest iteration value:
        // for ascending per-processor schedules this is ascending iteration
        // order, which makes forward post/wait dependences (doacross)
        // functionally consistent.
        let procs = self.opts.num_procs as usize;
        let mut fronts = vec![0usize; procs];
        // Records buffered by this epoch's tasks so far.
        let mut buffered = 0;
        loop {
            let mut next: Option<usize> = None;
            for p in 0..procs {
                let q = assignment.iterations(ProcId(p as u32));
                if fronts[p] < q.len()
                    && next.is_none_or(|b: usize| {
                        q[fronts[p]] < assignment.iterations(ProcId(b as u32))[fronts[b]]
                    })
                {
                    next = Some(p);
                }
            }
            let Some(p) = next else { break };
            let iter = assignment.iterations(ProcId(p as u32))[fronts[p]];
            fronts[p] += 1;
            env.bind(l.var, iter);
            let before = self.bufs[p].len();
            let (sink_cap, outside_bytes) = self.sink_cap(p, buffered - before);
            let mut task = TaskCtx {
                interp_versions: &mut self.versions,
                layout: self.layout,
                program: self.program,
                marking: self.marking,
                num_procs: self.opts.num_procs,
                proc: ProcId(p as u32),
                epoch,
                sink: &mut self.bufs[p],
                sink_cap,
                outside_bytes,
                races: self.opts.check_races.then_some(&mut self.races),
                task_id: iter,
                race_found: None,
                fault: None,
                critical: None,
                posts: &mut self.posts,
                waited: Vec::new(),
            };
            for s in &l.body {
                task.exec_stmt(s, env);
            }
            let fault = task
                .fault
                .or_else(|| task.race_found.map(|addr| TraceError::Race { addr, epoch }));
            if let Some(e) = fault {
                self.error = Some(e);
                env.unbind(l.var);
                return;
            }
            buffered += self.bufs[p].len() - before;
        }
        env.unbind(l.var);
        self.finish_epoch(
            epoch,
            EpochExecKind::Doall {
                iterations: values.len() as u64,
            },
        );
        self.host.doall_nanos = self
            .host
            .doall_nanos
            .saturating_add(u64::try_from(host_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }
}

fn too_large(bytes: usize) -> TraceError {
    TraceError::TooLarge {
        bytes: bytes as u64,
        max: MAX_TRACE_BYTES as u64,
    }
}

/// Execution context of one task (a serial epoch or one DOALL iteration).
struct TaskCtx<'a, 'b> {
    interp_versions: &'b mut FastMap<u64, u64>,
    layout: &'a MemLayout,
    program: &'a Program,
    marking: &'a Marking,
    num_procs: u32,
    proc: ProcId,
    epoch: Epoch,
    sink: &'b mut Vec<Record>,
    /// Records `sink` may hold before the trace passes
    /// [`MAX_TRACE_BYTES`].
    sink_cap: usize,
    /// Bytes the trace holds outside `sink`.
    outside_bytes: usize,
    races: Option<&'b mut FastMap<u64, WordAccess>>,
    task_id: i64,
    race_found: Option<WordAddr>,
    /// First out-of-bounds subscript or unpackable event; once set, the
    /// task stops executing.
    fault: Option<TraceError>,
    /// Lock currently held (inside a critical section).
    critical: Option<u32>,
    /// Posts performed so far this epoch: (event, index) -> posting task.
    posts: &'b mut FastMap<(u32, i64), i64>,
    /// (event, index) pairs this task has waited on so far.
    waited: Vec<(u32, i64)>,
}

impl<'a, 'b> TaskCtx<'a, 'b> {
    fn emit(&mut self, ev: &Event) {
        if let Err(e) = record::push(self.sink, ev) {
            self.fault.get_or_insert(e);
        } else if self.sink.len() > self.sink_cap {
            let bytes = self.outside_bytes + self.sink.len() * RECORD_BYTES;
            self.fault.get_or_insert(too_large(bytes));
        }
    }

    fn exec_stmt(&mut self, s: &'a Stmt, env: &mut Env) {
        if self.fault.is_some() {
            return;
        }
        match s {
            Stmt::Assign(a) => {
                for (idx, r) in a.reads.iter().enumerate() {
                    let site = RefSite {
                        stmt: a.id,
                        idx: idx as u32,
                    };
                    self.do_read(r, site, env);
                }
                if a.cost > 0 {
                    self.emit(&Event::Compute(a.cost));
                }
                if let Some(w) = &a.write {
                    self.do_write(w, env);
                }
            }
            Stmt::Loop(l) => {
                let lo = l.lo.eval(env);
                let hi = l.hi.eval(env);
                let mut v = lo;
                while v <= hi && self.fault.is_none() {
                    env.bind(l.var, v);
                    for s in &l.body {
                        self.exec_stmt(s, env);
                    }
                    v += l.step;
                }
                env.unbind(l.var);
            }
            Stmt::If(i) => {
                let body = if i.cond.eval(env) {
                    &i.then_body
                } else {
                    &i.else_body
                };
                for s in body {
                    self.exec_stmt(s, env);
                }
            }
            Stmt::Call(p) => {
                // Validator guarantees calls only appear in serial context;
                // a serial-only callee executes inline in this epoch.
                let mut callee_env = Env::new();
                for s in &self.program.proc(*p).body {
                    self.exec_stmt(s, &mut callee_env);
                }
            }
            Stmt::Critical(c) => {
                self.emit(&Event::AcquireLock(c.lock.0));
                let prev = self.critical.replace(c.lock.0);
                for s in &c.body {
                    self.exec_stmt(s, env);
                }
                self.critical = prev;
                self.emit(&Event::ReleaseLock(c.lock.0));
            }
            Stmt::Post { event, index } => {
                let k = index.eval(env);
                self.posts.insert((event.0, k), self.task_id);
                self.emit(&Event::PostEvent {
                    event: event.0,
                    index: k,
                });
            }
            Stmt::Wait { event, index } => {
                let k = index.eval(env);
                self.waited.push((event.0, k));
                self.emit(&Event::WaitEvent {
                    event: event.0,
                    index: k,
                });
            }
            Stmt::Doall(_) => {
                unreachable!("segmentation guarantees no DOALL inside an epoch body")
            }
        }
    }

    /// The word `r` addresses and whether it is shared, or `None` (with
    /// the fault recorded) for an out-of-bounds subscript.
    fn addr_of(&mut self, r: &ArrayRef, env: &Env) -> Option<(WordAddr, bool)> {
        // addr_of runs once per memory reference — the interpreter's
        // innermost hot path — so subscripts are evaluated into a fixed
        // stack buffer instead of a fresh Vec per access. Ranks above the
        // buffer size (unheard of in the paper's kernels) fall back to heap.
        const MAX_RANK: usize = 8;
        let decl = self.program.array(r.array);
        let eval_sub = |(s, &extent): (&Subscript, &u64)| match s {
            Subscript::Affine(a) => a.eval(env),
            Subscript::Opaque(o) => o.eval(env, extent),
        };
        let mut stack = [0i64; MAX_RANK];
        let heap: Vec<i64>;
        let indices: &[i64] = if r.subs.len() <= MAX_RANK {
            let mut n = 0;
            for pair in r.subs.iter().zip(decl.dims()) {
                stack[n] = eval_sub(pair);
                n += 1;
            }
            &stack[..n]
        } else {
            heap = r.subs.iter().zip(decl.dims()).map(eval_sub).collect();
            &heap
        };
        let base = match self.layout.addr(r.array, indices) {
            Ok(base) => base,
            Err(e) => {
                self.fault.get_or_insert(TraceError::OutOfBounds {
                    array: decl.name().to_owned(),
                    index: e.index,
                    extent: e.extent,
                    epoch: self.epoch,
                });
                return None;
            }
        };
        Some(match decl.sharing() {
            Sharing::Shared => (base, true),
            Sharing::Private => {
                // Each processor owns a disjoint replica region above the
                // shared segment.
                let span = self.layout.total_words();
                (
                    WordAddr(base.0 + span * (u64::from(self.proc.0) + 1)),
                    false,
                )
            }
        })
    }

    fn do_read(&mut self, r: &ArrayRef, site: RefSite, env: &Env) {
        let Some((addr, shared)) = self.addr_of(r, env) else {
            return;
        };
        if shared {
            self.track_race(addr, false);
        }
        let version = self.interp_versions.get(&addr.0).copied().unwrap_or(0);
        let kind = if !shared {
            ReadKind::Plain
        } else if self.critical.is_some() {
            ReadKind::Critical
        } else {
            self.marking.tpi_kind(site)
        };
        self.emit(&Event::Read {
            addr,
            kind,
            version,
        });
    }

    fn do_write(&mut self, w: &ArrayRef, env: &Env) {
        let Some((addr, shared)) = self.addr_of(w, env) else {
            return;
        };
        if shared {
            self.track_race(addr, true);
        }
        let v = self.interp_versions.entry(addr.0).or_insert(0);
        *v += 1;
        let version = *v;
        if shared && self.critical.is_some() {
            self.emit(&Event::CriticalWrite { addr, version });
        } else {
            self.emit(&Event::Write { addr, version });
        }
    }

    fn track_race(&mut self, addr: WordAddr, is_write: bool) {
        let task = self.task_id;
        let _ = self.num_procs;
        let ctx = self.critical;
        if let Some(races) = self.races.as_deref_mut() {
            let e = races.entry(addr.0).or_default();
            e.ctx = e.ctx.merge(ctx);
            let conflict = if is_write {
                let w_conf = e.writer.is_some_and(|w| w != task);
                let r_conf = e.multi_reader || e.first_reader.is_some_and(|r| r != task);
                e.writer = Some(task);
                w_conf || r_conf
            } else {
                match e.first_reader {
                    None => e.first_reader = Some(task),
                    Some(r) if r != task => e.multi_reader = true,
                    _ => {}
                }
                e.writer.is_some_and(|w| w != task)
            };
            // Cross-task conflicts are permitted when every access to the
            // word is critical under one single lock, or when this task has
            // synchronized (waited on an event posted by) the prior
            // accessor — the doacross ordering of Section 5.
            let serialized = matches!(e.ctx, LockCtx::Uniform(_));
            let prior = if is_write {
                e.first_reader.or(e.writer)
            } else {
                e.writer
            };
            let ordered = prior.is_some_and(|other| {
                self.waited
                    .iter()
                    .any(|key| self.posts.get(key) == Some(&other))
            });
            if conflict && !serialized && !ordered && self.race_found.is_none() {
                self.race_found = Some(addr);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_compiler::{mark_program, CompilerOptions};
    use tpi_ir::{subs, ProgramBuilder};

    fn trace_of(
        build: impl FnOnce(&mut ProgramBuilder) -> tpi_ir::ProcIdx,
        opts: &TraceOptions,
    ) -> Result<Trace, TraceError> {
        let mut p = ProgramBuilder::new();
        let main = build(&mut p);
        let prog = p.finish(main).expect("valid program");
        let marking = mark_program(&prog, &CompilerOptions::default());
        generate_trace(&prog, &marking, opts)
    }

    #[test]
    fn two_epoch_trace_shape() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    f.doall(0, 63, |i, f| f.store(a.at(subs![i]), vec![], 2));
                    f.doall(0, 63, |i, f| f.load(vec![a.at(subs![i])], 2));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 2);
        assert_eq!(t.stats.writes, 64);
        assert_eq!(t.stats.reads, 64);
        assert_eq!(t.stats.marked_reads, 64);
        assert_eq!(t.stats.iterations, 128);
        // Static block on 16 procs: each proc has 4 iterations.
        assert_eq!(t.epochs[0].stream(0).count(), 4 * 2); // compute + write
                                                          // Each compute rides in its write's record: 64 records, 16 offsets.
        assert_eq!(t.epochs[0].heap_bytes(), 64 * 12 + 16 * 4);
    }

    #[test]
    fn versions_record_write_then_read() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [16]);
                p.proc("main", |f| {
                    f.doall(0, 15, |i, f| f.store(a.at(subs![i]), vec![], 1));
                    f.doall(0, 15, |i, f| f.load(vec![a.at(subs![i])], 1));
                })
            },
            &TraceOptions {
                num_procs: 4,
                ..TraceOptions::default()
            },
        )
        .unwrap();
        for ev in t.epochs[1].events() {
            if let Event::Read { version, .. } = ev {
                assert_eq!(version, 1, "read must observe the first write");
            }
        }
    }

    #[test]
    fn race_detected_on_cross_iteration_conflict() {
        let err = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    // Every iteration writes A(0): an output race.
                    f.doall(0, 63, |_i, f| f.store(a.at(subs![0]), vec![], 1));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Race { .. }));
        assert!(err.to_string().contains("race"));
    }

    #[test]
    fn read_write_race_detected() {
        let err = trace_of(
            |p| {
                let a = p.shared("A", [64]);
                p.proc("main", |f| {
                    // iteration i reads A(i+1) while iteration i+1 writes it.
                    f.doall(0, 62, |i, f| {
                        f.store(a.at(subs![i]), vec![a.at(subs![i + 1])], 1)
                    });
                })
            },
            &TraceOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Race { .. }));
    }

    #[test]
    fn concurrent_reads_are_not_a_race() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [1]);
                let b = p.shared("B", [64]);
                p.proc("main", |f| {
                    f.store(a.at(subs![0]), vec![], 1);
                    // every iteration reads the same broadcast word: fine.
                    f.doall(0, 63, |i, f| {
                        f.store(b.at(subs![i]), vec![a.at(subs![0])], 1)
                    });
                })
            },
            &TraceOptions::default(),
        );
        assert!(t.is_ok());
    }

    #[test]
    fn private_arrays_are_replicated_per_proc() {
        let t = trace_of(
            |p| {
                let w = p.private("W", [16]);
                p.proc("main", |f| {
                    // Every iteration writes W(i%16)... use i directly over
                    // 16 iterations so all procs hit the same *logical*
                    // indices without racing (private data).
                    f.doall(0, 15, |i, f| f.store(w.at(subs![i]), vec![], 1));
                })
            },
            &TraceOptions {
                num_procs: 4,
                ..TraceOptions::default()
            },
        )
        .unwrap();
        // Collect write addresses per proc; the address sets must be
        // disjoint because each proc has its own replica region.
        let mut per_proc_addrs: Vec<Vec<u64>> = Vec::new();
        for evs in t.epochs[0].streams() {
            let addrs: Vec<u64> = evs
                .filter_map(|e| match e {
                    Event::Write { addr, .. } => Some(addr.0),
                    _ => None,
                })
                .collect();
            per_proc_addrs.push(addrs);
        }
        for i in 0..4 {
            for j in (i + 1)..4 {
                for a in &per_proc_addrs[i] {
                    assert!(
                        !per_proc_addrs[j].contains(a),
                        "private replicas must be disjoint"
                    );
                }
            }
        }
    }

    #[test]
    fn serial_epochs_run_on_proc_zero() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [8]);
                p.proc("main", |f| {
                    f.serial(0, 7, |i, f| f.store(a.at(subs![i]), vec![], 1));
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 1);
        assert!(t.epochs[0].stream(0).next().is_some());
        for p in 1..16 {
            assert!(t.epochs[0].stream(p).next().is_none());
        }
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let opts = TraceOptions {
            policy: SchedulePolicy::Dynamic { chunk: 2 },
            ..TraceOptions::default()
        };
        let build = |p: &mut ProgramBuilder| {
            let a = p.shared("A", [128]);
            p.proc("main", |f| {
                f.doall(0, 127, |i, f| f.store(a.at(subs![i]), vec![], 1));
                f.doall(0, 127, |i, f| f.load(vec![a.at(subs![i])], 1));
            })
        };
        let t1 = trace_of(build, &opts).unwrap();
        let t2 = trace_of(build, &opts).unwrap();
        assert_eq!(t1.epochs, t2.epochs);
    }

    #[test]
    fn serial_loop_of_doalls_counts_epochs() {
        let t = trace_of(
            |p| {
                let a = p.shared("A", [32]);
                p.proc("main", |f| {
                    f.serial(0, 4, |_t, f| {
                        f.doall(0, 31, |i, f| {
                            f.store(a.at(subs![i]), vec![a.at(subs![i])], 1)
                        });
                    });
                })
            },
            &TraceOptions::default(),
        )
        .unwrap();
        assert_eq!(t.epochs.len(), 5);
        assert_eq!(t.epochs[4].epoch, Epoch(4));
    }
}
