//! The textual program format: parse → mark → trace → simulate, end to
//! end, including the shipped sample programs.

use tpi::{run_program, ExperimentConfig};
use tpi_ir::parse_program;
use tpi_proto::{registry, SchemeId};

fn cfg(scheme: SchemeId) -> ExperimentConfig {
    ExperimentConfig::builder().scheme(scheme).build().unwrap()
}

#[test]
fn shipped_sample_programs_parse_and_run() {
    let dir = std::fs::read_dir("examples/programs").expect("programs dir");
    let mut count = 0;
    for entry in dir {
        let path = entry.unwrap().path();
        if path.extension().and_then(|e| e.to_str()) != Some("tpi") {
            continue;
        }
        count += 1;
        let src = std::fs::read_to_string(&path).unwrap();
        let program = parse_program(&src).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for scheme in registry::global().main_schemes() {
            let r = run_program(&program, &cfg(scheme))
                .unwrap_or_else(|e| panic!("{} under {scheme}: {e}", path.display()));
            assert!(r.sim.total_cycles > 0);
        }
        // And the export/parse round trip holds for every shipped program.
        let exported = tpi_ir::program_to_source(&program);
        let p2 = parse_program(&exported).unwrap();
        assert_eq!(p2.num_assigns, program.num_assigns, "{}", path.display());
    }
    assert!(
        count >= 3,
        "expected the shipped sample programs, found {count}"
    );
}

#[test]
fn textual_and_builder_forms_agree() {
    // The same producer/consumer program, written both ways, must produce
    // identical simulation results.
    let text = parse_program(
        r"
shared A(256)
shared B(256)
proc main
  doall i = 0, 255
    A(i) = f[2]()
  end
  doall i = 0, 255
    B(i) = f[2](A(i))
  end
end
",
    )
    .expect("parses");

    let built = {
        let mut p = tpi_ir::ProgramBuilder::new();
        let a = p.shared("A", [256]);
        let b = p.shared("B", [256]);
        let main = p.proc("main", |f| {
            f.doall(0, 255, |i, f| f.store(a.at(tpi_ir::subs![i]), vec![], 2));
            f.doall(0, 255, |i, f| {
                f.store(b.at(tpi_ir::subs![i]), vec![a.at(tpi_ir::subs![i])], 2)
            });
        });
        p.finish(main).unwrap()
    };

    for scheme in [SchemeId::TPI, SchemeId::FULL_MAP] {
        let rt = run_program(&text, &cfg(scheme)).unwrap();
        let rb = run_program(&built, &cfg(scheme)).unwrap();
        assert_eq!(rt.sim.total_cycles, rb.sim.total_cycles, "{scheme}");
        assert_eq!(rt.sim.traffic, rb.sim.traffic, "{scheme}");
        assert_eq!(rt.marking, rb.marking, "{scheme}");
    }
}

#[test]
fn parse_errors_are_informative() {
    let cases = [
        ("shared A(0)\nproc main\n  compute[1]\nend\n", "extents"),
        (
            "shared A(4)\nproc main\n  doall i = 0\n  end\nend\n",
            "lo, hi",
        ),
        (
            "shared A(4)\nproc main\n  doall i = 0, 3\n",
            "missing `end`",
        ),
    ];
    for (src, needle) in cases {
        let e = parse_program(src).expect_err("must not parse");
        let msg = e.to_string();
        assert!(msg.to_lowercase().contains(needle), "`{src}` -> {msg}");
    }
}

#[test]
fn parsed_doacross_prefix_sum_is_correctly_ordered() {
    // The histogram sample ends with a post/wait prefix scan; under tight
    // tags and cyclic scheduling the shadow versions verify freshness.
    let src = std::fs::read_to_string("examples/programs/histogram.tpi").unwrap();
    let program = parse_program(&src).unwrap();
    let c = ExperimentConfig::builder()
        .scheme(SchemeId::TPI)
        .tag_bits(3)
        .policy(tpi_trace::SchedulePolicy::StaticCyclic)
        .build()
        .unwrap();
    run_program(&program, &c).expect("ordered and race-free");
}

/// Parses a shipped sample after replacing its one `from` line with `to`.
fn mutated_sample(file: &str, from: &str, to: &str) -> tpi_ir::Program {
    let src = std::fs::read_to_string(file).unwrap();
    assert_eq!(src.matches(from).count(), 1, "{file} holds `{from}` once");
    parse_program(&src.replace(from, to)).expect("the mutation still parses")
}

/// Runs `program` and expects the interpreter's out-of-bounds error.
fn expect_out_of_bounds(program: &tpi_ir::Program, want_array: &str, want_index: i64) {
    let err = run_program(program, &cfg(SchemeId::TPI)).expect_err("must not run");
    match &err {
        tpi_trace::TraceError::OutOfBounds { array, index, .. } => {
            assert_eq!((array.as_str(), *index), (want_array, want_index), "{err}");
        }
        other => panic!("expected an out-of-bounds error, got {other}"),
    }
    assert!(err.to_string().contains("out of bounds"), "{err}");
}

#[test]
fn histogram_scan_from_zero_is_an_out_of_bounds_error() {
    // `b = 0` makes the else branch read SCAN(b-1) = SCAN(-1). The bound
    // is an expression, so only the interpreter can see it.
    let program = mutated_sample(
        "examples/programs/histogram.tpi",
        "doall b = 1, 64",
        "doall b = 1-1, 64",
    );
    expect_out_of_bounds(&program, "SCAN", -1);
}

#[test]
fn transpose_doall_from_minus_one_is_an_out_of_bounds_error() {
    let program = mutated_sample(
        "examples/programs/transpose.tpi",
        "  doall i = 0, 95\n    do j = 0, 95\n      A(i, j) = f[1]()",
        "  doall i = -1, 95\n    do j = 0, 95\n      A(i, j) = f[1]()",
    );
    expect_out_of_bounds(&program, "A", -1);
}

#[test]
fn histogram_doall_to_u32_max_is_too_large_before_allocating() {
    // 2^32 iterations would need a 32 GiB iteration list before the
    // first one runs; the trip count is checked first.
    let program = mutated_sample(
        "examples/programs/histogram.tpi",
        "  doall i = 0, 2047\n    DATA(i) = f[2]()",
        "  doall i = 0, 4294967295\n    DATA(i) = f[2]()",
    );
    let err = run_program(&program, &cfg(SchemeId::TPI)).expect_err("must not run");
    let want = tpi_trace::TraceError::TooLarge {
        bytes: 4_294_967_296 * 8,
        max: tpi_trace::MAX_TRACE_BYTES as u64,
    };
    assert_eq!(err, want, "{err}");
    assert!(err.to_string().contains("bound"), "{err}");
}

#[test]
fn a_serial_loop_to_u32_max_stops_at_the_trace_bound() {
    // One record per step: the trace passes the bound after about 14M
    // of the 2^32 steps and stops there, inside one serial epoch.
    let program = parse_program(
        "shared A(4)\nproc main\n  do t = 0, 4294967295\n    compute[1]\n  end\nend\n",
    )
    .expect("parses");
    let err = run_program(&program, &cfg(SchemeId::TPI)).expect_err("must not run");
    match err {
        tpi_trace::TraceError::TooLarge { bytes, max } => {
            assert_eq!(max, tpi_trace::MAX_TRACE_BYTES as u64);
            assert!(bytes > max, "{err}");
        }
        other => panic!("expected a too-large error, got {other}"),
    }
}
