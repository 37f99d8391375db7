//! Tape coverage, checked without a clock: how many kernels of each
//! workload (and of its optimised vjp) `firvm::compile` lowers to tapes,
//! and why the others run as generic bytecode.
//!
//! The counts are a **floor**: widening the tape fragment raises them and
//! passes; losing a kernel to a lowering regression fails. A generic
//! kernel must carry a reason that names something `tape.rs` rejects in
//! well-formed code — never `Malformed`, never `TooLarge` (the stack
//! bounds of a dispatch are far above any workload).

use std::collections::BTreeMap;

use fir::ir::Fun;
use futhark_ad_repro::firvm::bytecode::Instr;
use futhark_ad_repro::firvm::{compile, Fallback, KernelForm};
use futhark_ad_repro::PassPipeline;
use workloads::{adbench, gmm, kmeans, lstm, mc};

/// `(tapes, kernels, serial tapes)` of `fun` under the standard pipeline
/// — a serial tape runs one element at a time, the others in blocks as
/// wide as the stream, so the last number says how much of the program
/// can run wide — every generic
/// kernel's reason checked against the kernel's own body — the report has
/// to explain itself: `NestedSoac` names a `scan`/`hist`/`scatter`/
/// `withacc` in the body, `InnerKernel` an inner `map`/`reduce`/`redomap`
/// over a kernel that is itself generic.
fn coverage(what: &str, fun: &Fun, reasons: &mut BTreeMap<String, usize>) -> (usize, usize, usize) {
    let prog = compile(&PassPipeline::standard().apply(fun));
    let report = prog.tape_report();
    assert_eq!(report.len(), prog.kernels.len(), "{what}");
    for (k, form) in report.iter().enumerate() {
        let KernelForm::Generic(why) = form else {
            continue;
        };
        *reasons.entry(format!("{why:?}")).or_default() += 1;
        assert!(
            !matches!(why, Fallback::Malformed | Fallback::TooLarge),
            "{what}: kernel {k} falls back with {why:?}"
        );
        let body = &prog.kernels[k].code.instrs;
        let generic = |j: &usize| report[*j] != KernelForm::Tape;
        match why {
            Fallback::NestedSoac => assert!(
                body.iter().any(|i| matches!(
                    i,
                    Instr::Scan { .. }
                        | Instr::Hist { .. }
                        | Instr::Scatter { .. }
                        | Instr::WithAcc { .. }
                )),
                "{what}: kernel {k} has no scan/hist/scatter/withacc"
            ),
            Fallback::InnerKernel => assert!(
                body.iter().any(|i| match i {
                    Instr::Map { kernel, .. } | Instr::Reduce { kernel, .. } => generic(kernel),
                    Instr::Redomap {
                        red_kernel,
                        map_kernel,
                        ..
                    } => generic(red_kernel) || generic(map_kernel),
                    _ => false,
                }),
                "{what}: kernel {k} dispatches no generic kernel"
            ),
            _ => {}
        }
    }
    let tapes = report.iter().filter(|f| **f == KernelForm::Tape).count();
    assert_eq!(tapes, prog.num_tapes(), "{what}");
    assert!(prog.num_serial_tapes() <= tapes, "{what}");
    (tapes, report.len(), prog.num_serial_tapes())
}

#[test]
fn workloads_keep_their_tape_coverage() {
    // (name, program, floor of the primal, floor of the optimised vjp),
    // floors as `(tapes, kernels)` measured when inner SOACs, rows and
    // temporaries moved into the tape (a `map` nest is one kernel). A tape
    // here is a kernel that *runs* as one: the reduce operator of a redomap
    // whose map kernel does not lower counts as generic (`RedomapPartner`).
    // What is left: `if`/`loop` bodies (sparse k-means, the Monte-Carlo
    // lookups, BA), `i64` fold state (the argmax operators), `withacc`
    // bodies and the per-point kernels around them, `iota`/`update`.
    // GMM, LSTM and the two HAND floors were raised when stream-invariant
    // extraction added tape `map`s over parameter rows and DCE dropped the
    // stream arguments left unread (LSTM's vjp lost 28 kernels, 8 of them
    // generic).
    type Floor = (usize, usize);
    let table: Vec<(&str, Fun, Floor, Floor)> = vec![
        ("gmm", gmm::objective_ir(), (14, 14), (35, 40)),
        (
            "kmeans-dense",
            kmeans::dense_objective_ir(),
            (6, 6),
            (15, 19),
        ),
        (
            "kmeans-sparse",
            kmeans::sparse_objective_ir(),
            (6, 8),
            (20, 25),
        ),
        ("lstm", lstm::objective_ir(4, 2), (20, 24), (128, 175)),
        ("ba", adbench::ba_objective_ir(), (0, 2), (7, 11)),
        (
            "hand-simple",
            adbench::hand_objective_ir(false),
            (7, 7),
            (19, 21),
        ),
        (
            "hand-complicated",
            adbench::hand_objective_ir(true),
            (7, 7),
            (19, 21),
        ),
        ("d-lstm", adbench::dlstm_objective_ir(4), (7, 7), (36, 37)),
        ("xsbench", mc::xsbench_ir(8), (0, 4), (4, 11)),
        ("rsbench", mc::rsbench_ir(4, 4), (0, 4), (10, 20)),
    ];
    let mut measured = Vec::new();
    let mut reasons = BTreeMap::new();
    for (name, fun, primal_floor, vjp_floor) in &table {
        let primal = coverage(name, fun, &mut reasons);
        let vjp = coverage(&format!("vjp({name})"), &futhark_ad::vjp(fun), &mut reasons);
        measured.push(format!(
            "{name}: {}/{} tapes ({} serial), vjp {}/{} ({} serial)",
            primal.0, primal.1, primal.2, vjp.0, vjp.1, vjp.2
        ));
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
    println!("generic kernels by reason: {reasons:?}");
}
