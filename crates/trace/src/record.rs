//! The compact storage form of an event stream: one 12-byte [`Record`] per
//! event, with a `Compute` folded into the write that follows it.
//!
//! A record is three `u32` words, `a`, `b` and `w`. The low three bits of
//! `w` are the tag; the rest of `w` is a tag-specific payload:
//!
//! | tag | event | `a` | `b` | payload (`w >> 3`) |
//! |---|---|---|---|---|
//! | 0 | `Compute(c)` | `c` | 0 | 0 |
//! | 1 | `Read` | address | version | kind:2, distance:11, site:16 |
//! | 2 | `Write` | address | version | folded compute (0 = none) |
//! | 3 | `CriticalWrite` | address | version | folded compute (0 = none) |
//! | 4 | `AcquireLock(l)` | `l` | 0 | 0 |
//! | 5 | `ReleaseLock(l)` | `l` | 0 | 0 |
//! | 6 | `PostEvent` | index, low half | index, high half | event |
//! | 7 | `WaitEvent` | index, low half | index, high half | event |
//!
//! The interpreter emits a `Compute` before nearly every store, so a
//! `Compute(c)` with `1 <= c < 2^29` directly before a `Write` or
//! `CriticalWrite` rides in that write's payload instead of taking a record
//! of its own. Decoding yields it back as a separate `Compute` event, so
//! readers see the identical logical sequence. The read payload's top 16
//! bits are a reserved site field, always zero today.
//!
//! A value that does not fit its field is a [`TraceError::DoesNotFit`],
//! never a truncation.

use crate::event::Event;
use crate::interp::TraceError;
use tpi_mem::{ReadKind, WordAddr};

const TAG_BITS: u32 = 3;
const TAG_MASK: u32 = (1 << TAG_BITS) - 1;
const TAG_COMPUTE: u32 = 0;
const TAG_READ: u32 = 1;
const TAG_WRITE: u32 = 2;
const TAG_CRITICAL_WRITE: u32 = 3;
const TAG_ACQUIRE: u32 = 4;
const TAG_RELEASE: u32 = 5;
const TAG_POST: u32 = 6;
const TAG_WAIT: u32 = 7;

/// Widest payload value (29 bits).
const PAYLOAD_MAX: u32 = u32::MAX >> TAG_BITS;
/// Read payload: the kind code takes the low two bits.
const KIND_BITS: u32 = 2;
/// Read payload: the Time-Read distance takes the next eleven.
const DISTANCE_BITS: u32 = 11;
const DISTANCE_MAX: u32 = (1 << DISTANCE_BITS) - 1;

const KIND_PLAIN: u32 = 0;
const KIND_TIME_READ: u32 = 1;
const KIND_BYPASS: u32 = 2;
const KIND_CRITICAL: u32 = 3;

/// One packed trace event (see the [module docs](self) for the layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Record {
    a: u32,
    b: u32,
    w: u32,
}

fn fit(field: &'static str, value: u64, max: u32) -> Result<u32, TraceError> {
    u32::try_from(value)
        .ok()
        .filter(|&v| v <= max)
        .ok_or(TraceError::DoesNotFit {
            field,
            value,
            max: u64::from(max),
        })
}

impl Record {
    fn new(tag: u32, a: u32, b: u32, payload: u32) -> Record {
        Record {
            a,
            b,
            w: tag | payload << TAG_BITS,
        }
    }

    fn access(tag: u32, addr: WordAddr, version: u64, payload: u32) -> Result<Record, TraceError> {
        Ok(Record::new(
            tag,
            fit("address", addr.0, u32::MAX)?,
            fit("version", version, u32::MAX)?,
            payload,
        ))
    }

    fn sync(tag: u32, event: u32, index: i64) -> Result<Record, TraceError> {
        let bits = index as u64;
        Ok(Record::new(
            tag,
            bits as u32,
            (bits >> 32) as u32,
            fit("event id", u64::from(event), PAYLOAD_MAX)?,
        ))
    }

    /// Encodes one event, without folding.
    fn encode(ev: &Event) -> Result<Record, TraceError> {
        match *ev {
            Event::Compute(c) => Ok(Record::new(TAG_COMPUTE, c, 0, 0)),
            Event::Read {
                addr,
                kind,
                version,
            } => {
                let kind = match kind {
                    ReadKind::Plain => KIND_PLAIN,
                    ReadKind::TimeRead { distance } => {
                        KIND_TIME_READ
                            | fit("time-read distance", u64::from(distance), DISTANCE_MAX)?
                                << KIND_BITS
                    }
                    ReadKind::Bypass => KIND_BYPASS,
                    ReadKind::Critical => KIND_CRITICAL,
                };
                Record::access(TAG_READ, addr, version, kind)
            }
            Event::Write { addr, version } => Record::access(TAG_WRITE, addr, version, 0),
            Event::CriticalWrite { addr, version } => {
                Record::access(TAG_CRITICAL_WRITE, addr, version, 0)
            }
            Event::AcquireLock(l) => Ok(Record::new(TAG_ACQUIRE, l, 0, 0)),
            Event::ReleaseLock(l) => Ok(Record::new(TAG_RELEASE, l, 0, 0)),
            Event::PostEvent { event, index } => Record::sync(TAG_POST, event, index),
            Event::WaitEvent { event, index } => Record::sync(TAG_WAIT, event, index),
        }
    }

    fn tag(self) -> u32 {
        self.w & TAG_MASK
    }

    fn payload(self) -> u32 {
        self.w >> TAG_BITS
    }

    fn is_write(self) -> bool {
        matches!(self.tag(), TAG_WRITE | TAG_CRITICAL_WRITE)
    }

    /// The `Compute` cycles folded into this write, if any.
    fn folded_compute(self) -> Option<u32> {
        (self.is_write() && self.payload() != 0).then(|| self.payload())
    }

    /// The record's own event (a folded compute is not part of it).
    fn decode(self) -> Event {
        let addr = WordAddr(u64::from(self.a));
        let version = u64::from(self.b);
        let index = (u64::from(self.b) << 32 | u64::from(self.a)) as i64;
        match self.tag() {
            TAG_COMPUTE => Event::Compute(self.a),
            TAG_READ => {
                let p = self.payload();
                let kind = match p & ((1 << KIND_BITS) - 1) {
                    KIND_PLAIN => ReadKind::Plain,
                    KIND_TIME_READ => ReadKind::TimeRead {
                        distance: (p >> KIND_BITS) & DISTANCE_MAX,
                    },
                    KIND_BYPASS => ReadKind::Bypass,
                    _ => ReadKind::Critical,
                };
                Event::Read {
                    addr,
                    kind,
                    version,
                }
            }
            TAG_WRITE => Event::Write { addr, version },
            TAG_CRITICAL_WRITE => Event::CriticalWrite { addr, version },
            TAG_ACQUIRE => Event::AcquireLock(self.a),
            TAG_RELEASE => Event::ReleaseLock(self.a),
            TAG_POST => Event::PostEvent {
                event: self.payload(),
                index,
            },
            _ => Event::WaitEvent {
                event: self.payload(),
                index,
            },
        }
    }
}

/// Appends `ev` to the packed stream `recs`, folding a `Compute` record
/// that directly precedes a write into the write.
///
/// # Errors
///
/// Returns [`TraceError::DoesNotFit`] if a field of `ev` exceeds its
/// packed width; `recs` is then unchanged.
pub(crate) fn push(recs: &mut Vec<Record>, ev: &Event) -> Result<(), TraceError> {
    let mut rec = Record::encode(ev)?;
    if rec.is_write() {
        if let Some(&prev) = recs.last() {
            if prev.tag() == TAG_COMPUTE && (1..=PAYLOAD_MAX).contains(&prev.a) {
                rec.w |= prev.a << TAG_BITS;
                recs.pop();
            }
        }
    }
    recs.push(rec);
    Ok(())
}

/// Number of logical events `recs` decodes to.
pub(crate) fn logical_len(recs: &[Record]) -> usize {
    recs.len() + recs.iter().filter(|r| r.folded_compute().is_some()).count()
}

/// Decoding iterator over one packed stream: yields the logical event
/// sequence, a folded `Compute` before its write.
#[derive(Debug, Clone)]
pub struct Events<'a> {
    recs: std::slice::Iter<'a, Record>,
    /// A write whose folded compute was just yielded.
    pending: Option<Record>,
}

impl<'a> Events<'a> {
    pub(crate) fn new(recs: &'a [Record]) -> Events<'a> {
        Events {
            recs: recs.iter(),
            pending: None,
        }
    }
}

impl Iterator for Events<'_> {
    type Item = Event;

    #[inline]
    fn next(&mut self) -> Option<Event> {
        if let Some(rec) = self.pending.take() {
            return Some(rec.decode());
        }
        let rec = *self.recs.next()?;
        if let Some(c) = rec.folded_compute() {
            self.pending = Some(rec);
            return Some(Event::Compute(c));
        }
        Some(rec.decode())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = usize::from(self.pending.is_some());
        let n = self.recs.len();
        (n + pending, Some(2 * n + pending))
    }
}
