//! Golden digests of the replay schedule.
//!
//! Every registry scheme replays the paper suite, MDG (lock-guarded
//! criticals), the false-sharing kernel and a lock + doacross program on
//! 64 processors, so cross-processor order really matters. Each
//! [`SimResult`] is reduced to a digest of every simulated field (host
//! timings excluded). The table below was recorded with the original
//! `O(P)` min-clock scan; any scheduler that replays differently — a
//! different tie-break, a lost wake-up, a mis-charged wait — changes a
//! digest here.

use tpi_compiler::{mark_program, CompilerOptions};
use tpi_ir::{subs, Cond, Program, ProgramBuilder};
use tpi_proto::{build_engine, registry, EngineConfig};
use tpi_sim::{run_trace, SimOptions, SimResult};
use tpi_trace::{generate_trace, TraceOptions};
use tpi_workloads::{Kernel, Scale};

const PROCS: u32 = 64;

/// FNV-1a over the text of every simulated field.
fn digest(r: &SimResult) -> u64 {
    let text = format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{:?}|{}|{}|{}|{:?}|{:?}|{}|{:?}",
        r.scheme,
        r.total_cycles,
        r.busy_cycles,
        r.agg,
        r.per_proc,
        r.traffic,
        r.wbuffer,
        r.epochs,
        r.lock_acquires,
        r.lock_wait_cycles,
        r.profile,
        r.miss_by_array,
        r.host.events,
        r.host.ops,
    );
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Two contended locks plus a doacross pipeline across 64 processors.
fn lock_doacross() -> Program {
    let mut p = ProgramBuilder::new();
    let a = p.shared("A", [256]);
    let acc = p.shared("ACC", [8]);
    let even = p.lock();
    let odd = p.lock();
    let ev = p.event();
    let main = p.proc("main", |f| {
        f.doall(0, 255, |i, f| f.store(a.at(subs![i]), vec![], 2));
        f.doall(0, 255, |i, f| {
            f.if_else(
                Cond::EveryN {
                    var: i,
                    modulus: 2,
                    phase: 0,
                },
                |f| {
                    f.critical(even, |f| {
                        f.store(acc.at(subs![0]), vec![acc.at(subs![0]), a.at(subs![i])], 3);
                    });
                },
                |f| {
                    f.critical(odd, |f| {
                        f.store(acc.at(subs![1]), vec![acc.at(subs![1]), a.at(subs![i])], 5);
                    });
                },
            );
        });
        f.doall(0, 127, |i, f| {
            f.if_else(
                // True only at i == 0: the pipeline head waits on nothing.
                Cond::EveryN {
                    var: i,
                    modulus: i64::MAX,
                    phase: 0,
                },
                |f| f.store(a.at(subs![i]), vec![a.at(subs![i])], 2),
                |f| {
                    f.wait(ev, i - 1);
                    f.store(a.at(subs![i]), vec![a.at(subs![i - 1]), a.at(subs![i])], 2);
                },
            );
            f.post(ev, i);
        });
    });
    p.finish(main).expect("valid program")
}

fn programs() -> Vec<(&'static str, Program)> {
    let mut v: Vec<(&'static str, Program)> = Kernel::ALL
        .iter()
        .chain(&[Kernel::Mdg, Kernel::FalseShare])
        .map(|k| (k.name(), k.build(Scale::Test)))
        .collect();
    v.push(("LOCKDOACROSS", lock_doacross()));
    v
}

/// `(program, scheme, digest)`, recorded with the `O(P)` min-clock scan.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("SPEC77", "BASE", 0x98e3131054961100),
    ("SPEC77", "SC", 0xc24c4bb151716fdc),
    ("SPEC77", "TPI", 0x3b9c2a54346792e7),
    ("SPEC77", "HW", 0xfbe7fd47a852fed4),
    ("SPEC77", "LL", 0x35b18011d1148739),
    ("SPEC77", "IDEAL", 0xc4e4038090b015fb),
    ("SPEC77", "TARDIS", 0xa805b469cb7919f7),
    ("SPEC77", "HYB", 0xf6333fd79d9bf640),
    ("OCEAN", "BASE", 0x6bb39e2af96701c0),
    ("OCEAN", "SC", 0x9964f36012235ace),
    ("OCEAN", "TPI", 0xcf55d4ba7f047d33),
    ("OCEAN", "HW", 0x7a8a3f8c2044de2d),
    ("OCEAN", "LL", 0x382326225ba811e2),
    ("OCEAN", "IDEAL", 0x5aa86ebfc578e188),
    ("OCEAN", "TARDIS", 0xf108a02c41a77528),
    ("OCEAN", "HYB", 0x8f1c2de161b098a8),
    ("FLO52", "BASE", 0x7f1dab1a249b659f),
    ("FLO52", "SC", 0xcbe10633d2599db0),
    ("FLO52", "TPI", 0x083aa877049c29b9),
    ("FLO52", "HW", 0xd11b7cf8cb7c804a),
    ("FLO52", "LL", 0x7b586f6b199f9905),
    ("FLO52", "IDEAL", 0x12df5d83fcb4fb48),
    ("FLO52", "TARDIS", 0xfce6b2941fb513b9),
    ("FLO52", "HYB", 0xdd181ad25f5e6d03),
    ("QCD2", "BASE", 0x91829a0641379132),
    ("QCD2", "SC", 0x7abb4ae2fb55c426),
    ("QCD2", "TPI", 0x261c57a8cad1cb4a),
    ("QCD2", "HW", 0x9fc03d889f5a2089),
    ("QCD2", "LL", 0xc2d74fe257c78d42),
    ("QCD2", "IDEAL", 0xfe91e98afa9ba7eb),
    ("QCD2", "TARDIS", 0xe7162681cfed34ff),
    ("QCD2", "HYB", 0xf26c4a98e92243f6),
    ("TRFD", "BASE", 0x8ee507425cf850c8),
    ("TRFD", "SC", 0xa8410f7cb5554119),
    ("TRFD", "TPI", 0x6c46646d16655cca),
    ("TRFD", "HW", 0x8a9f5e6c69706eea),
    ("TRFD", "LL", 0x11869678ac07dec1),
    ("TRFD", "IDEAL", 0x33612ca8b3e47b13),
    ("TRFD", "TARDIS", 0xb678584bddac3f69),
    ("TRFD", "HYB", 0xf7e382e3a9461bf2),
    ("ARC2D", "BASE", 0x9e1179680d088c6e),
    ("ARC2D", "SC", 0x9fa1dfd5659a63a5),
    ("ARC2D", "TPI", 0x01913d874a12e506),
    ("ARC2D", "HW", 0xd4e5e774c9b4888a),
    ("ARC2D", "LL", 0x31f35afacb87e7bb),
    ("ARC2D", "IDEAL", 0x5b3fc5c96f039c4c),
    ("ARC2D", "TARDIS", 0x9c7ff9ee563ef5c2),
    ("ARC2D", "HYB", 0x15a2bc6b43e08106),
    ("MDG", "BASE", 0x13440533abc7a03c),
    ("MDG", "SC", 0x356690207144bee4),
    ("MDG", "TPI", 0xcdeb2af2debe6bc1),
    ("MDG", "HW", 0xdfaa5835c72d30fd),
    ("MDG", "LL", 0xdbaccda0aee783aa),
    ("MDG", "IDEAL", 0xcbd7096dcf6a9606),
    ("MDG", "TARDIS", 0x136c322c7c461eeb),
    ("MDG", "HYB", 0xa8a160e15bf4714d),
    ("FSHARE", "BASE", 0x7f3940fa5f9724d9),
    ("FSHARE", "SC", 0x06432bb1afc118e4),
    ("FSHARE", "TPI", 0x742861dca9a64863),
    ("FSHARE", "HW", 0x4a8875d6acc8ea05),
    ("FSHARE", "LL", 0x4a72c797618fdf2c),
    ("FSHARE", "IDEAL", 0x05b21d037c425015),
    ("FSHARE", "TARDIS", 0x9d898ad2ac5b322e),
    ("FSHARE", "HYB", 0x7e5196cc2d730034),
    ("LOCKDOACROSS", "BASE", 0x10f2e62987a26c83),
    ("LOCKDOACROSS", "SC", 0xaf84c6da78fc2460),
    ("LOCKDOACROSS", "TPI", 0x093592bf0d6f8dbd),
    ("LOCKDOACROSS", "HW", 0x81cdc9f23cf1dddb),
    ("LOCKDOACROSS", "LL", 0xfa10bfbfc25905c8),
    ("LOCKDOACROSS", "IDEAL", 0x214e877bd43f59d0),
    ("LOCKDOACROSS", "TARDIS", 0xf31215870b3d7545),
    ("LOCKDOACROSS", "HYB", 0xecfefeb4cb0bad05),
];

#[test]
fn schedule_matches_the_recorded_digests() {
    let mut got = Vec::new();
    for (name, prog) in programs() {
        let marking = mark_program(&prog, &CompilerOptions::default());
        let topts = TraceOptions {
            num_procs: PROCS,
            ..TraceOptions::default()
        };
        let trace = generate_trace(&prog, &marking, &topts).expect("trace");
        for scheme in registry::global().all() {
            let mut cfg = EngineConfig::paper_default(trace.layout.total_words());
            cfg.procs = PROCS;
            cfg.net = tpi_net::NetworkConfig::paper_default(PROCS);
            let mut engine = build_engine(scheme.id(), cfg);
            let r = run_trace(&trace, engine.as_mut(), &SimOptions::default());
            if name == "LOCKDOACROSS" {
                // The waiter paths of the scheduler must really be taken.
                assert!(
                    r.lock_acquires > 0 && r.lock_wait_cycles > 0,
                    "{}",
                    r.scheme
                );
            }
            got.push((name, r.scheme.clone(), digest(&r)));
        }
    }
    let table: String = got
        .iter()
        .map(|(n, s, d)| format!("    (\"{n}\", \"{s}\", {d:#018x}),\n"))
        .collect();
    let want: Vec<(&str, String, u64)> = GOLDEN
        .iter()
        .map(|&(n, s, d)| (n, s.to_owned(), d))
        .collect();
    assert!(got == want, "schedule digests changed; now:\n{table}");
}
