//! Tape coverage, checked without a clock: how many kernels of each
//! workload (and of its optimised vjp) `firvm::compile` lowers to tapes,
//! and why the others run as generic bytecode.
//!
//! The counts are a **floor**: widening the tape fragment raises them and
//! passes; losing a kernel to a lowering regression fails. A generic
//! kernel must carry a reason that names something `tape.rs` rejects in
//! well-formed code — never `Malformed`, never `TooLarge` (the stack
//! bounds of a dispatch are far above any workload).

use fir::ir::Fun;
use futhark_ad_repro::firvm::{compile, Fallback, KernelForm};
use futhark_ad_repro::PassPipeline;
use workloads::{adbench, gmm, kmeans, lstm, mc};

/// `(tapes, kernels)` of `fun` under the standard pipeline, every generic
/// kernel's reason checked.
fn coverage(what: &str, fun: &Fun) -> (usize, usize) {
    let prog = compile(&PassPipeline::standard().apply(fun));
    let report = prog.tape_report();
    assert_eq!(report.len(), prog.kernels.len(), "{what}");
    for (k, form) in report.iter().enumerate() {
        if let KernelForm::Generic(why) = form {
            assert!(
                !matches!(why, Fallback::Malformed | Fallback::TooLarge),
                "{what}: kernel {k} falls back with {why:?}"
            );
        }
    }
    let tapes = report.iter().filter(|f| **f == KernelForm::Tape).count();
    assert_eq!(tapes, prog.num_tapes(), "{what}");
    (tapes, report.len())
}

#[test]
fn workloads_keep_their_tape_coverage() {
    // (name, program, floor of the primal, floor of the optimised vjp),
    // floors as `(tapes, kernels)` measured when the tapes moved into
    // `firvm::compile`. A tape here is a kernel that *runs* as one: the
    // reduce operator of a redomap whose map kernel does not lower counts
    // as generic (`RedomapPartner`), which is why these sit one or two
    // below the number of kernel bodies that fit the fragment.
    type Floor = (usize, usize);
    let table: Vec<(&str, Fun, Floor, Floor)> = vec![
        ("gmm", gmm::objective_ir(), (9, 12), (24, 36)),
        (
            "kmeans-dense",
            kmeans::dense_objective_ir(),
            (2, 6),
            (8, 19),
        ),
        (
            "kmeans-sparse",
            kmeans::sparse_objective_ir(),
            (5, 8),
            (17, 25),
        ),
        ("lstm", lstm::objective_ir(4, 2), (18, 24), (102, 203)),
        ("ba", adbench::ba_objective_ir(), (0, 2), (5, 11)),
        (
            "hand-simple",
            adbench::hand_objective_ir(false),
            (4, 6),
            (15, 19),
        ),
        (
            "hand-complicated",
            adbench::hand_objective_ir(true),
            (4, 6),
            (15, 19),
        ),
        ("d-lstm", adbench::dlstm_objective_ir(4), (6, 7), (28, 37)),
        ("xsbench", mc::xsbench_ir(8), (0, 4), (3, 11)),
        ("rsbench", mc::rsbench_ir(4, 4), (0, 4), (7, 20)),
    ];
    let mut measured = Vec::new();
    for (name, fun, primal_floor, vjp_floor) in &table {
        let primal = coverage(name, fun);
        let vjp = coverage(&format!("vjp({name})"), &futhark_ad::vjp(fun));
        measured.push(format!("{name}: {primal:?} {vjp:?}"));
        for (what, got, floor) in [("primal", primal, primal_floor), ("vjp", vjp, vjp_floor)] {
            // Compared as shares, so that a pass which splits or merges
            // kernels moves the floor with it.
            assert!(
                got.0 * floor.1 >= floor.0 * got.1,
                "{name} {what}: {}/{} tapes, floor {}/{}",
                got.0,
                got.1,
                floor.0,
                floor.1
            );
        }
    }
    println!("{}", measured.join("\n"));
}
