//! Lock and event timing edge cases, driven by hand-assembled traces
//! (bypassing the interpreter to construct situations valid programs can
//! never produce).

use tpi_mem::Cycle;
use tpi_mem::{ArrayDecl, Epoch, LineGeometry, MemLayout, ProcId, ReadKind, Sharing, WordAddr};
use tpi_proto::{build_engine, CoherenceEngine, EngineConfig, SchemeId};
use tpi_sim::{run_trace, SimOptions, SimResult};
use tpi_trace::{EpochEvents, EpochExecKind, Event, Trace};

fn trace_of(per_proc: Vec<Vec<Event>>) -> Trace {
    let num_procs = per_proc.len() as u32;
    let epochs = vec![EpochEvents::from_streams(
        Epoch(0),
        EpochExecKind::Doall {
            iterations: num_procs as u64,
        },
        &per_proc,
    )
    .expect("hand-assembled events fit the packed record")];
    let stats = Trace::compute_stats(&epochs);
    Trace {
        epochs,
        layout: MemLayout::new(
            vec![ArrayDecl::new("A", vec![64], Sharing::Shared)],
            LineGeometry::new(4),
        ),
        num_procs,
        stats,
        host: Default::default(),
    }
}

/// A TPI engine for `procs` processors.
fn tpi_engine(procs: u32) -> Box<dyn CoherenceEngine> {
    let mut c = EngineConfig::paper_default(64);
    c.procs = procs;
    c.net = tpi_net::NetworkConfig::paper_default(procs);
    build_engine(SchemeId::TPI, c)
}

/// Replays a one-epoch trace on a fresh TPI engine; also returns the
/// epoch's lock-acquire cost (a word fetch at the epoch-start load).
fn replay(per_proc: Vec<Vec<Event>>) -> (SimResult, Cycle) {
    let trace = trace_of(per_proc);
    let mut engine = tpi_engine(trace.num_procs);
    let acquire = engine.network().word_fetch();
    let r = run_trace(&trace, engine.as_mut(), &SimOptions::default());
    (r, acquire)
}

#[test]
#[should_panic(expected = "lock deadlock")]
fn waiting_on_a_never_posted_event_is_detected() {
    let trace = trace_of(vec![
        vec![Event::WaitEvent { event: 0, index: 7 }],
        vec![Event::Compute(3)],
    ]);
    let mut engine = tpi_engine(2);
    let _ = run_trace(&trace, engine.as_mut(), &SimOptions::default());
}

#[test]
fn lock_holders_serialize_in_clock_order() {
    // Both processors take the same lock; the second acquire must start
    // after the first release.
    let crit = |p: u64| {
        vec![
            Event::Compute((p * 10) as u32), // stagger the processors
            Event::AcquireLock(0),
            Event::Compute(100),
            Event::ReleaseLock(0),
        ]
    };
    let trace = trace_of(vec![crit(0), crit(1)]);
    let mut engine = tpi_engine(2);
    let r = run_trace(&trace, engine.as_mut(), &SimOptions::default());
    // Two critical sections of 100 cycles each cannot overlap: the busy
    // span of the run exceeds 200 cycles even though each processor's own
    // work is ~110.
    assert!(
        r.total_cycles >= 200,
        "criticals overlapped: {} cycles",
        r.total_cycles
    );
    assert_eq!(r.lock_acquires, 2);
    assert!(r.lock_wait_cycles > 0);
}

#[test]
fn posted_wait_costs_only_the_sync() {
    // P1 waits on an event P0 posts immediately: the wait must not block
    // beyond the post time.
    let trace = trace_of(vec![
        vec![Event::PostEvent { event: 0, index: 1 }],
        vec![
            Event::Compute(50),
            Event::WaitEvent { event: 0, index: 1 },
            Event::Compute(1),
        ],
    ]);
    let mut engine = tpi_engine(2);
    let r = run_trace(&trace, engine.as_mut(), &SimOptions::default());
    // P1: 50 compute + 1 wait + 1 compute, plus barrier/setup.
    assert!(
        r.busy_cycles[1] <= 55,
        "wait overcharged: {}",
        r.busy_cycles[1]
    );
}

#[test]
fn uncontended_lock_is_cheap() {
    let trace = trace_of(vec![
        vec![
            Event::AcquireLock(3),
            Event::Read {
                addr: WordAddr(0),
                kind: ReadKind::Critical,
                version: 0,
            },
            Event::ReleaseLock(3),
        ],
        vec![],
    ]);
    let mut engine = tpi_engine(2);
    let r = run_trace(&trace, engine.as_mut(), &SimOptions::default());
    assert_eq!(r.lock_wait_cycles, 0);
    assert_eq!(r.lock_acquires, 1);
    let _ = ProcId(0);
}

#[test]
fn a_convoy_of_waiters_resumes_at_each_release() {
    // P0 holds lock 0 for 100 cycles; P1..P3 queue behind it at cycles
    // 11..13 and take the lock in index order, each resuming exactly at
    // its predecessor's release instant.
    let section = |compute: u32| {
        vec![
            Event::AcquireLock(0),
            Event::Compute(compute),
            Event::ReleaseLock(0),
        ]
    };
    let mut per_proc = vec![section(100)];
    for p in 1..=3u32 {
        let mut s = vec![Event::Compute(10 + p)];
        s.extend(section(5));
        per_proc.push(s);
    }
    let (r, w) = replay(per_proc);
    // Releases happen at w+100, 2w+105 and 3w+110; P3 releases last.
    let releases = [w + 100, 2 * w + 105, 3 * w + 110];
    assert_eq!(r.lock_acquires, 4);
    assert_eq!(
        r.busy_cycles,
        vec![
            w + 101,
            releases[0] + w + 6,
            releases[1] + w + 6,
            releases[2] + w + 6
        ]
    );
    // Waiters of each release are bumped to it from where they blocked:
    // all three from 11..13, then two from the first release, then one.
    let first = 3 * releases[0] - (11 + 12 + 13);
    let second = 2 * (releases[1] - releases[0]);
    let third = releases[2] - releases[1];
    assert_eq!(r.lock_wait_cycles, first + second + third);
}

#[test]
fn a_woken_waiter_can_lose_the_lock_and_block_again() {
    // P3 blocks on lock 0 at cycle 5. When P0 releases at w+100, P3 is
    // bumped to that instant — but P1 reaches its acquire at the same
    // instant with a lower index, takes the lock first, and P3 blocks
    // again until P1 releases.
    let w = tpi_engine(4).network().word_fetch();
    let release0 = w + 100;
    let per_proc = vec![
        vec![
            Event::AcquireLock(0),
            Event::Compute(100),
            Event::ReleaseLock(0),
        ],
        vec![
            Event::Compute(u32::try_from(release0).unwrap()),
            Event::AcquireLock(0),
            Event::Compute(50),
            Event::ReleaseLock(0),
        ],
        vec![Event::Compute(1_000_000)],
        vec![
            Event::Compute(5),
            Event::AcquireLock(0),
            Event::Compute(7),
            Event::ReleaseLock(0),
        ],
    ];
    let (r, _) = replay(per_proc);
    let release1 = release0 + w + 50;
    assert_eq!(r.lock_acquires, 3);
    assert_eq!(r.busy_cycles[1], release1 + 1);
    assert_eq!(r.busy_cycles[3], release1 + w + 7 + 1);
    // P1 never waited; P3 waited from 5 to release0, then to release1.
    assert_eq!(r.lock_wait_cycles, (release0 - 5) + (release1 - release0));
}

#[test]
fn posts_before_and_after_their_waits_among_many_processors() {
    // Sixteen processors in eight poster/waiter pairs: waiter 2k waits on
    // index k, poster 2k+1 posts it. Posts land before, at, and after
    // their waits; a waiter pays exactly the gap when the post is late.
    let timings: [(u32, u32); 8] = [
        (10, 40),  // post first
        (40, 10),  // wait first
        (25, 25),  // same instant: the waiter (lower index) blocks first
        (1, 300),  // post long before
        (300, 1),  // wait long before
        (7, 8),    // post one cycle early
        (9, 8),    // post one cycle late
        (100, 50), // wait first
    ];
    let mut per_proc = Vec::new();
    for (k, &(post_at, wait_at)) in timings.iter().enumerate() {
        let index = k as i64;
        per_proc.push(vec![
            Event::Compute(wait_at),
            Event::WaitEvent { event: 3, index },
            Event::Compute(1),
        ]);
        per_proc.push(vec![
            Event::Compute(post_at),
            Event::PostEvent { event: 3, index },
        ]);
    }
    let (r, _) = replay(per_proc);
    let mut want_wait = 0;
    for (k, &(post_at, wait_at)) in timings.iter().enumerate() {
        let (post_at, wait_at) = (Cycle::from(post_at), Cycle::from(wait_at));
        assert_eq!(r.busy_cycles[2 * k], post_at.max(wait_at) + 2, "waiter {k}");
        assert_eq!(r.busy_cycles[2 * k + 1], post_at + 1, "poster {k}");
        want_wait += post_at.saturating_sub(wait_at);
    }
    assert_eq!(r.lock_wait_cycles, want_wait);
    assert_eq!(r.lock_acquires, 0);
}

#[test]
#[should_panic(expected = "lock deadlock")]
fn crossed_lock_order_is_a_detected_deadlock() {
    let _ = replay(vec![
        vec![
            Event::AcquireLock(0),
            Event::Compute(10),
            Event::AcquireLock(1),
        ],
        vec![
            Event::AcquireLock(1),
            Event::Compute(10),
            Event::AcquireLock(0),
        ],
        vec![Event::Compute(5)],
    ]);
}

#[test]
#[should_panic(expected = "lock deadlock")]
fn a_lock_never_released_is_a_detected_deadlock() {
    let _ = replay(vec![
        vec![Event::AcquireLock(2)],
        vec![Event::Compute(3), Event::AcquireLock(2), Event::Compute(1)],
    ]);
}
