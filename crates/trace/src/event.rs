//! Memory-event streams produced by the execution-driven interpreter.
//!
//! The paper instruments compiler-marked benchmarks to emit the events the
//! timing simulator consumes: shared-memory reads (with their compiler
//! annotation), writes, local compute, and epoch boundaries. A [`Trace`] is
//! the reproduction's equivalent: per-epoch, per-processor event streams
//! (stored packed, see [`crate::record`]) plus the memory layout, with a
//! global *version* attached to every access so the coherence simulators
//! can classify misses (necessary vs. caused by compiler conservatism or
//! false sharing) and verify value freshness.

use crate::interp::TraceError;
use crate::record::{self, Events, Record};
use tpi_mem::{Epoch, MemLayout, ReadKind, WordAddr};

/// One instrumented event on one processor: the decoded view of a packed
/// [`Record`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// `cycles` of processor-local work (ALU, private data, control).
    Compute(u32),
    /// A shared-memory load.
    Read {
        /// Accessed word.
        addr: WordAddr,
        /// Compiler annotation (TPI view; SC derives `Bypass` from
        /// `is_marked`, directory schemes ignore it).
        kind: ReadKind,
        /// Global version of the word this read must observe (for
        /// freshness checking and miss classification).
        version: u64,
    },
    /// A shared-memory store.
    Write {
        /// Accessed word.
        addr: WordAddr,
        /// Global version of the word *after* this write.
        version: u64,
    },
    /// A store inside a lock-guarded critical section: must reach memory
    /// uncached under the HSCD schemes (Section 5).
    CriticalWrite {
        /// Accessed word.
        addr: WordAddr,
        /// Global version of the word *after* this write.
        version: u64,
    },
    /// Acquire a lock (blocking; serializes critical sections).
    AcquireLock(u32),
    /// Release a lock.
    ReleaseLock(u32),
    /// Signal element `index` of event `event` (doacross pipelining);
    /// fences this processor's earlier writes.
    PostEvent {
        /// Event variable.
        event: u32,
        /// Element index.
        index: i64,
    },
    /// Block until `PostEvent { event, index }` has executed.
    WaitEvent {
        /// Event variable.
        event: u32,
        /// Element index.
        index: i64,
    },
}

/// How an epoch executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochExecKind {
    /// Serial region: all events on one processor.
    Serial,
    /// Parallel loop with the given iteration count.
    Doall {
        /// Number of iterations executed.
        iterations: u64,
    },
}

/// All events of one epoch, split per processor.
///
/// The streams are stored packed, back to back in one exactly-sized
/// buffer; [`stream`](Self::stream) decodes one of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochEvents {
    /// Runtime epoch number.
    pub epoch: Epoch,
    /// Serial or parallel.
    pub kind: EpochExecKind,
    /// Every processor's records, processor 0 first.
    records: Box<[Record]>,
    /// End offset of each processor's records in `records`.
    ends: Box<[u32]>,
    /// Logical events (a folded `Compute` counts as one).
    events: usize,
}

impl EpochEvents {
    /// Packs one event list per processor (index = `ProcId.0`).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DoesNotFit`] if an event field exceeds its
    /// packed width.
    pub fn from_streams(
        epoch: Epoch,
        kind: EpochExecKind,
        streams: &[Vec<Event>],
    ) -> Result<Self, TraceError> {
        let mut bufs: Vec<Vec<Record>> = vec![Vec::new(); streams.len()];
        for (buf, stream) in bufs.iter_mut().zip(streams) {
            for ev in stream {
                record::push(buf, ev)?;
            }
        }
        EpochEvents::pack(epoch, kind, &mut bufs)
    }

    /// Moves per-processor record buffers into one exactly-sized epoch,
    /// leaving the buffers empty (their capacity is kept for reuse).
    pub(crate) fn pack(
        epoch: Epoch,
        kind: EpochExecKind,
        bufs: &mut [Vec<Record>],
    ) -> Result<Self, TraceError> {
        let total: usize = bufs.iter().map(Vec::len).sum();
        let mut records = Vec::with_capacity(total);
        let mut ends = Vec::with_capacity(bufs.len());
        let mut events = 0;
        for buf in bufs {
            events += record::logical_len(buf);
            records.extend_from_slice(buf);
            buf.clear();
            let end = records.len() as u64;
            ends.push(u32::try_from(end).map_err(|_| TraceError::DoesNotFit {
                field: "records per epoch",
                value: end,
                max: u64::from(u32::MAX),
            })?);
        }
        Ok(EpochEvents {
            epoch,
            kind,
            records: records.into_boxed_slice(),
            ends: ends.into_boxed_slice(),
            events,
        })
    }

    /// Number of processor streams.
    #[must_use]
    pub fn num_procs(&self) -> usize {
        self.ends.len()
    }

    /// Processor `p`'s events, decoded.
    ///
    /// # Panics
    ///
    /// Panics if `p >= self.num_procs()`.
    #[must_use]
    pub fn stream(&self, p: usize) -> Events<'_> {
        let start = if p == 0 { 0 } else { self.ends[p - 1] as usize };
        Events::new(&self.records[start..self.ends[p] as usize])
    }

    /// Every processor's events, decoded, processor 0 first.
    pub fn streams(&self) -> impl Iterator<Item = Events<'_>> {
        (0..self.num_procs()).map(|p| self.stream(p))
    }

    /// All events of the epoch, decoded, processor by processor.
    pub fn events(&self) -> Events<'_> {
        Events::new(&self.records)
    }

    /// Total events in this epoch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events
    }

    /// Whether no processor has any event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }

    /// Heap bytes held by this epoch's streams.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        std::mem::size_of_val::<[Record]>(&self.records)
            + std::mem::size_of_val::<[u32]>(&self.ends)
    }
}

/// Aggregate counts over a whole trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Shared reads.
    pub reads: u64,
    /// Shared reads carrying a stale-marking.
    pub marked_reads: u64,
    /// Shared writes.
    pub writes: u64,
    /// Total compute cycles.
    pub compute_cycles: u64,
    /// Number of epochs.
    pub epochs: u64,
    /// Number of DOALL epochs.
    pub parallel_epochs: u64,
    /// Total DOALL iterations executed.
    pub iterations: u64,
    /// Writes performed inside critical sections.
    pub critical_writes: u64,
    /// Lock acquisitions.
    pub lock_acquires: u64,
    /// Event posts (doacross synchronization).
    pub posts: u64,
}

/// Host-side (wall-clock) self-measurement of one interpreter run, fed
/// into the `tpi-prof` stage profiler by the experiment engine.
///
/// These describe the *interpreter program*, not the simulated machine,
/// and are excluded from every determinism comparison ([`TraceStats`]
/// stays `Eq`-comparable; this struct is not part of it).
#[derive(Debug, Clone, Copy, Default)]
pub struct InterpHostProfile {
    /// Host nanoseconds interpreting serial epochs.
    pub serial_nanos: u64,
    /// Host nanoseconds interpreting DOALL epochs (including scheduling).
    pub doall_nanos: u64,
}

/// A complete execution trace of one program run.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Per-epoch event lists.
    pub epochs: Vec<EpochEvents>,
    /// Array placement used to generate addresses.
    pub layout: MemLayout,
    /// Number of processors the trace was generated for.
    pub num_procs: u32,
    /// Aggregate counts.
    pub stats: TraceStats,
    /// Host-side wall-clock self-measurement of the interpreter (profiling
    /// only; never part of any determinism comparison).
    pub host: InterpHostProfile,
}

impl Trace {
    /// Logical events across every epoch (a folded `Compute` counts as
    /// one, as in [`EpochEvents::len`]).
    #[must_use]
    pub fn len(&self) -> usize {
        self.epochs.iter().map(EpochEvents::len).sum()
    }

    /// Whether no epoch holds an event.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.epochs.iter().all(EpochEvents::is_empty)
    }

    /// Heap bytes held by the event streams (epoch headers included; the
    /// memory layout is not).
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        let streams: usize = self.epochs.iter().map(EpochEvents::heap_bytes).sum();
        self.epochs.capacity() * std::mem::size_of::<EpochEvents>() + streams
    }

    /// Recomputes aggregate statistics from the event lists.
    #[must_use]
    pub fn compute_stats(epochs: &[EpochEvents]) -> TraceStats {
        let mut s = TraceStats::default();
        for e in epochs {
            s.epochs += 1;
            if let EpochExecKind::Doall { iterations } = e.kind {
                s.parallel_epochs += 1;
                s.iterations += iterations;
            }
            for ev in e.events() {
                match ev {
                    Event::Compute(c) => s.compute_cycles += u64::from(c),
                    Event::Read { kind, .. } => {
                        s.reads += 1;
                        if kind.is_marked() {
                            s.marked_reads += 1;
                        }
                    }
                    Event::Write { .. } => s.writes += 1,
                    Event::CriticalWrite { .. } => {
                        s.writes += 1;
                        s.critical_writes += 1;
                    }
                    Event::AcquireLock(_) => s.lock_acquires += 1,
                    Event::ReleaseLock(_) => {}
                    Event::PostEvent { .. } => s.posts += 1,
                    Event::WaitEvent { .. } => {}
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_mem::{ArrayDecl, LineGeometry, Sharing};

    #[test]
    fn stats_roll_up() {
        let epochs = vec![
            EpochEvents::from_streams(
                Epoch(0),
                EpochExecKind::Serial,
                &[
                    vec![
                        Event::Compute(5),
                        Event::Write {
                            addr: WordAddr(0),
                            version: 1,
                        },
                    ],
                    vec![],
                ],
            )
            .unwrap(),
            EpochEvents::from_streams(
                Epoch(1),
                EpochExecKind::Doall { iterations: 8 },
                &[
                    vec![Event::Read {
                        addr: WordAddr(0),
                        kind: ReadKind::TimeRead { distance: 1 },
                        version: 1,
                    }],
                    vec![Event::Read {
                        addr: WordAddr(1),
                        kind: ReadKind::Plain,
                        version: 0,
                    }],
                ],
            )
            .unwrap(),
        ];
        let s = Trace::compute_stats(&epochs);
        assert_eq!(s.reads, 2);
        assert_eq!(s.marked_reads, 1);
        assert_eq!(s.writes, 1);
        assert_eq!(s.compute_cycles, 5);
        assert_eq!(s.epochs, 2);
        assert_eq!(s.parallel_epochs, 1);
        assert_eq!(s.iterations, 8);
        assert_eq!(epochs[0].len(), 2);
        assert!(!epochs[0].is_empty());
        // The compute rides in the write's record: one record, two events.
        assert_eq!(epochs[0].heap_bytes(), 12 + 2 * 4);
        assert_eq!(epochs[0].stream(1).count(), 0);
        let _layout = MemLayout::new(
            vec![ArrayDecl::new("A", vec![4], Sharing::Shared)],
            LineGeometry::new(4),
        );
    }
}
