//! Round-trip properties of the packed trace encoding: every event stream
//! that fits decodes to exactly itself, and every one that does not is an
//! error, never a wrong decode.

use tpi_mem::{Epoch, ReadKind, WordAddr};
use tpi_testkit::prelude::*;
use tpi_trace::{EpochEvents, EpochExecKind, Event, Record, Trace, TraceError, TraceStats};

const U32: u64 = u32::MAX as u64;
/// Largest Time-Read distance and event id the record holds.
const DISTANCE_MAX: u32 = (1 << 11) - 1;
const EVENT_MAX: u32 = (1 << 29) - 1;

fn compute() -> impl Strategy<Value = u32> {
    prop_oneof![
        Just(0u32),
        1u32..5,
        Just(EVENT_MAX),
        Just(EVENT_MAX + 1),
        any::<u32>()
    ]
}

fn word() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..64, Just(U32), 0u64..=U32]
}

fn read_kind() -> impl Strategy<Value = ReadKind> {
    prop_oneof![
        Just(ReadKind::Plain),
        (0u32..=DISTANCE_MAX).prop_map(|distance| ReadKind::TimeRead { distance }),
        Just(ReadKind::TimeRead {
            distance: DISTANCE_MAX
        }),
        Just(ReadKind::Bypass),
        Just(ReadKind::Critical),
    ]
}

fn sync_index() -> impl Strategy<Value = i64> {
    prop_oneof![Just(i64::MIN), Just(i64::MAX), -3i64..3, any::<i64>()]
}

/// Any event whose fields fit the record. `Compute` is weighted up so
/// that computes before writes, before reads, in runs and at the end of
/// a stream all occur often.
fn event() -> impl Strategy<Value = Event> {
    prop_oneof![
        4 => compute().prop_map(Event::Compute),
        2 => (word(), read_kind(), word()).prop_map(|(a, kind, version)| Event::Read {
            addr: WordAddr(a),
            kind,
            version,
        }),
        2 => (word(), word()).prop_map(|(a, version)| Event::Write {
            addr: WordAddr(a),
            version,
        }),
        1 => (word(), word()).prop_map(|(a, version)| Event::CriticalWrite {
            addr: WordAddr(a),
            version,
        }),
        1 => any::<u32>().prop_map(Event::AcquireLock),
        1 => any::<u32>().prop_map(Event::ReleaseLock),
        1 => (0u32..=EVENT_MAX, sync_index())
            .prop_map(|(event, index)| Event::PostEvent { event, index }),
        1 => (0u32..=EVENT_MAX, sync_index())
            .prop_map(|(event, index)| Event::WaitEvent { event, index }),
    ]
}

fn streams() -> impl Strategy<Value = Vec<Vec<Event>>> {
    prop::collection::vec(prop::collection::vec(event(), 0..40), 1..5)
}

/// An event with exactly one field too wide for its slot, and the name
/// the error must carry.
fn oversized() -> impl Strategy<Value = (Event, &'static str)> {
    let wide = U32 + 1..u64::MAX;
    prop_oneof![
        (wide.clone(), word()).prop_map(|(a, version)| (
            Event::Write {
                addr: WordAddr(a),
                version
            },
            "address"
        )),
        (word(), wide).prop_map(|(a, version)| (
            Event::CriticalWrite {
                addr: WordAddr(a),
                version
            },
            "version"
        )),
        (DISTANCE_MAX + 1..=u32::MAX, word()).prop_map(|(distance, a)| (
            Event::Read {
                addr: WordAddr(a),
                kind: ReadKind::TimeRead { distance },
                version: 0
            },
            "time-read distance"
        )),
        (EVENT_MAX + 1..=u32::MAX, sync_index())
            .prop_map(|(event, index)| (Event::WaitEvent { event, index }, "event id")),
    ]
}

/// `Trace::compute_stats`'s definitions, applied to the unpacked input.
fn stats_of(streams: &[Vec<Event>]) -> TraceStats {
    let mut s = TraceStats {
        epochs: 1,
        ..TraceStats::default()
    };
    for ev in streams.iter().flatten() {
        match *ev {
            Event::Compute(c) => s.compute_cycles += u64::from(c),
            Event::Read { kind, .. } => {
                s.reads += 1;
                s.marked_reads += u64::from(kind.is_marked());
            }
            Event::Write { .. } => s.writes += 1,
            Event::CriticalWrite { .. } => {
                s.writes += 1;
                s.critical_writes += 1;
            }
            Event::AcquireLock(_) => s.lock_acquires += 1,
            Event::PostEvent { .. } => s.posts += 1,
            Event::ReleaseLock(_) | Event::WaitEvent { .. } => {}
        }
    }
    s
}

fn pack(streams: &[Vec<Event>]) -> Result<EpochEvents, TraceError> {
    EpochEvents::from_streams(Epoch(3), EpochExecKind::Serial, streams)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256 })]

    #[test]
    fn packed_streams_decode_to_their_input(input in streams()) {
        let packed = pack(&input).expect("every field fits");
        prop_assert_eq!(packed.num_procs(), input.len());
        for (p, want) in input.iter().enumerate() {
            let got: Vec<Event> = packed.stream(p).collect();
            prop_assert_eq!(&got, want, "processor {}", p);
        }
        let all: Vec<Event> = input.iter().flatten().copied().collect();
        prop_assert_eq!(packed.events().collect::<Vec<_>>(), all.clone());
        prop_assert_eq!(packed.len(), all.len());
        prop_assert_eq!(packed.is_empty(), all.is_empty());
        prop_assert_eq!(Trace::compute_stats(std::slice::from_ref(&packed)), stats_of(&input));
        // Folding only ever saves records.
        prop_assert!(packed.heap_bytes() <= 12 * all.len() + 4 * input.len());
    }

    #[test]
    fn an_oversized_field_is_an_error_never_a_wrong_decode(
        input in streams(),
        bad in oversized(),
        at in any::<usize>(),
    ) {
        let (event, field) = bad;
        let mut input = input;
        let p = at % input.len();
        let i = at % (input[p].len() + 1);
        input[p].insert(i, event);
        match pack(&input) {
            Err(TraceError::DoesNotFit { field: got, .. }) => prop_assert_eq!(got, field),
            Err(other) => prop_assert!(false, "wrong error: {}", other),
            Ok(_) => prop_assert!(false, "{:?} was packed", event),
        }
    }
}

#[test]
fn a_record_is_at_most_twelve_bytes() {
    assert!(std::mem::size_of::<Record>() <= 12);
}

#[test]
fn a_compute_folds_only_into_the_write_right_after_it() {
    let write = Event::Write {
        addr: WordAddr(7),
        version: 2,
    };
    let read = Event::Read {
        addr: WordAddr(7),
        kind: ReadKind::Plain,
        version: 2,
    };
    // (stream, records it packs to)
    let cases: Vec<(Vec<Event>, usize)> = vec![
        (vec![Event::Compute(3), write], 1),
        (vec![Event::Compute(3), Event::Compute(4), write], 2),
        (vec![Event::Compute(3), read], 2),
        (vec![write, Event::Compute(3)], 2),
        (vec![Event::Compute(0), write], 2),
        (vec![Event::Compute(EVENT_MAX), write], 1),
        (vec![Event::Compute(EVENT_MAX + 1), write], 2),
    ];
    for (stream, records) in cases {
        let packed = pack(std::slice::from_ref(&stream)).unwrap();
        assert_eq!(packed.stream(0).collect::<Vec<_>>(), stream);
        assert_eq!(packed.len(), stream.len());
        assert_eq!(packed.heap_bytes(), 12 * records + 4, "{stream:?}");
    }
}
