//! Work preservation of reverse AD on gathers, checked without a clock.
//!
//! The paper's guarantee is that the adjoint does O(primal) work; for a
//! gather `a[i]` inside a `map` that means one `upd_acc ā [i]` on an
//! accumulator (§5.4), never a dense array the size of `a` per element.
//! The signature of the broken case is structural and visible in the
//! derived program: inside a `map` lambda, an `upd_acc` with **no index**
//! whose value has rank ≥ 2 — a whole matrix added into the accumulator to
//! deliver a few cells (`[k][d]` per non-zero on sparse k-means,
//! `[nuclides][g]` per lookup on xsbench, rank 3 on rsbench). Rank-1
//! whole-array updates (the `cnorms` and `densities` adjoints) are dense by
//! nature and stay legal.
//!
//! Counters cannot see this bug (`heap_allocs`/`arena_hits` count buffers,
//! not elements), and a wall clock cannot tell a slow constant from a
//! broken asymptote; the derived IR can.

use fir::builder::Builder;
use fir::ir::{Atom, Body, Exp, Fun};
use futhark_ad::gradcheck::max_rel_error;
use futhark_ad_repro::Engine;
use workloads::{kmeans, mc};

/// `upd_acc`s found inside `map` lambdas of a derived program.
#[derive(Debug, Default, PartialEq)]
struct AccUpdates {
    /// `upd_acc acc [] val` with `rank val ≥ 2`: a dense matrix delivered
    /// per element.
    dense_matrices: usize,
    /// `upd_acc acc [i, ..] val`: work proportional to the cells touched.
    indexed: usize,
}

fn acc_updates(fun: &Fun) -> AccUpdates {
    fn walk(b: &Body, in_map: bool, tys: &Builder, out: &mut AccUpdates) {
        for s in &b.stms {
            match &s.exp {
                Exp::UpdAcc { idx, val, .. } if in_map => {
                    let rank = match val {
                        Atom::Var(v) => tys.ty_of(*v).rank(),
                        Atom::Const(_) => 0,
                    };
                    if !idx.is_empty() {
                        out.indexed += 1;
                    } else if rank >= 2 {
                        out.dense_matrices += 1;
                    }
                }
                Exp::If {
                    then_br, else_br, ..
                } => {
                    walk(then_br, in_map, tys, out);
                    walk(else_br, in_map, tys, out);
                }
                Exp::Loop { body, .. } => walk(body, in_map, tys, out),
                Exp::Map { lam, .. } => walk(&lam.body, true, tys, out),
                Exp::Reduce { lam, .. } | Exp::Scan { lam, .. } | Exp::WithAcc { lam, .. } => {
                    walk(&lam.body, in_map, tys, out)
                }
                Exp::Redomap {
                    red_lam, map_lam, ..
                } => {
                    walk(&red_lam.body, in_map, tys, out);
                    walk(&map_lam.body, in_map, tys, out);
                }
                _ => {}
            }
        }
    }
    let mut tys = Builder::for_fun(fun);
    futhark_ad::helpers::register_fun_types(&mut tys, fun);
    let mut out = AccUpdates::default();
    walk(&fun.body, false, &tys, &mut out);
    out
}

#[test]
fn gather_adjoints_go_through_indexed_accumulator_updates() {
    let programs = [
        ("kmeans-sparse", kmeans::sparse_objective_ir()),
        ("xsbench", mc::xsbench_ir(16)),
        ("rsbench", mc::rsbench_ir(4, 3)),
    ];
    for (name, fun) in &programs {
        let dfun = futhark_ad::vjp(fun);
        fir::typecheck::check_fun(&dfun).unwrap();
        let found = acc_updates(&dfun);
        assert_eq!(
            found.dense_matrices, 0,
            "{name}: a map lambda adds a whole matrix into an accumulator to \
             deliver a gather's adjoint — O(size of the array) per element, \
             not O(primal):\n{dfun}"
        );
        assert!(
            found.indexed > 0,
            "{name}: expected the gather's adjoint as an indexed upd_acc:\n{dfun}"
        );
    }
}

/// The gradient stays right as `d` grows past anything the primal walks
/// (the primal touches ~13 of the `d` columns per row).
#[test]
fn sparse_kmeans_gradient_matches_manual_at_small_and_large_d() {
    let fun = kmeans::sparse_objective_ir();
    let engine = Engine::by_name("vm-seq").unwrap();
    let cf = engine.compile(&fun).unwrap();
    for d in [500, 8000] {
        let data = kmeans::SparseKmeansData::generate(40, d, 10, 25, 1);
        let out = cf.grad(&data.ir_args()).unwrap();
        let (cost, manual) = kmeans::sparse_manual(&data);
        assert!((out.scalar() - cost).abs() < 1e-9, "d={d}: cost");
        // The adjoint of the CSR values comes first.
        let ad = out.flat_grads();
        assert_eq!(ad.len(), data.nnz() + manual.len(), "d={d}");
        let err = max_rel_error(&ad[data.nnz()..], &manual);
        assert!(err < 1e-7, "d={d}: max rel err {err:.3e}");
    }
}
