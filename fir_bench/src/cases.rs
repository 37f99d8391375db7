//! The four workloads: which programs each one runs, on which seeded
//! inputs, and the hand-written reference every result is checked
//! against. References come from the `workloads` crate's `*_manual`
//! implementations (and its tensor baseline where no manual one exists) —
//! never from another engine of the compiler under test.

use fir::ir::Fun;
use fir_api::GradOutput;
use futhark_ad::gradcheck::max_rel_error;
use interp::Value;
use workloads::{adbench, gmm, kmeans, lstm, mc};

use crate::stats::Rng;

/// How a run's measuring time is divided among the phases; the shares of
/// one workload sum to 1.
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    /// In-process primal / grad / tiered-grad round-robin.
    pub kernel: f64,
    /// Cold compiles and warm loads, one fresh process each.
    pub compile: f64,
    /// Closed-loop load on the server child.
    pub closed: f64,
    /// Open-loop load on the server child.
    pub open: f64,
}

/// What a workload's user faces, which decides what a set-up is and which
/// operation `latency_ms_p50` and `req_per_s` describe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Front {
    /// Calls `CompiledFn` directly: set-up runs to the first gradient, the
    /// request is a `grad`.
    Library,
    /// Starts processes that compile: set-up populates the cache
    /// directory, the request is a cold compile of every program.
    Compiler,
    /// Talks to a server child: set-up runs to `LISTENING`, the request
    /// goes over the wire.
    Server,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub front: Front,
    pub shares: Shares,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "gmm-grad",
        why: "GMM D5 (n=500, d=32, K=25), the paper's Table 5 case: dense map-nests and log-sum-exp, ~12k small kernel dispatches per gradient; firvm, jit and the pool do all the work",
        front: Front::Library,
        shares: Shares { kernel: 0.9, compile: 0.1, closed: 0.0, open: 0.0 },
    },
    Workload {
        name: "kmeans-sparse-grad",
        why: "sparse k-means (100 rows of 13 non-zeros, d=2000, k=10): a sequential loop with gathers inside a map, accumulator scatter-adds and loop re-execution in reverse; where a win for dense maps can cost",
        front: Front::Library,
        shares: Shares { kernel: 0.9, compile: 0.1, closed: 0.0, open: 0.0 },
    },
    Workload {
        name: "compile-cold",
        why: "the nine served programs and their vjps compiled by a fresh process, then loaded from a populated cache dir; typecheck, AD, opt, firvm::compile and fir-cache do the work, execution almost none",
        front: Front::Compiler,
        shares: Shares { kernel: 0.2, compile: 0.8, closed: 0.0, open: 0.0 },
    },
    Workload {
        name: "net-small",
        why: "a server child on loopback serving minimal GMM and dense k-means (n=4, d=2, K=2), 90% call / 10% grad: wire, framing, queue and batch wait dominate, kernels are negligible",
        front: Front::Server,
        shares: Shares { kernel: 0.2, compile: 0.1, closed: 0.3, open: 0.4 },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// What a program must return on its inputs: the objective value and
/// stretches of the flattened adjoints (`GradOutput::flat_grads`, in
/// parameter order), each `(offset, expected)`.
#[derive(Debug, Clone)]
pub struct Expect {
    pub value: f64,
    pub grad: Vec<(usize, Vec<f64>)>,
}

/// Tolerances of the `workloads` crate's own `*_matches_manual` tests:
/// 1e-9 on the objective (relative above magnitude 1, since the instances
/// here are larger than the tests'), 1e-7 relative on gradients.
const VALUE_TOL: f64 = 1e-9;
const GRAD_TOL: f64 = 1e-7;

impl Expect {
    pub fn value_ok(&self, got: f64) -> bool {
        (got - self.value).abs() <= VALUE_TOL * self.value.abs().max(1.0)
    }

    pub fn grad_ok(&self, flat: &[f64]) -> bool {
        self.grad.iter().all(|(at, want)| {
            flat.get(*at..at + want.len())
                .is_some_and(|got| max_rel_error(got, want) < GRAD_TOL)
        })
    }
}

/// A primal result is right when it is the reference value — or, for the
/// one program without a reference, at least a finite scalar.
pub fn call_ok(expect: Option<&Expect>, out: &[Value]) -> bool {
    let Some(Value::F64(got)) = out.first() else {
        return false;
    };
    expect.map_or(got.is_finite(), |e| e.value_ok(*got))
}

pub fn grad_ok(expect: Option<&Expect>, out: &GradOutput) -> bool {
    call_ok(expect, &out.value)
        && expect.map_or(out.flat_grads().iter().all(|g| g.is_finite()), |e| {
            e.grad_ok(&out.flat_grads())
        })
}

type Baseline = Box<dyn Fn()>;

/// One program on one input.
pub struct Case {
    /// The key the program is served under.
    pub key: &'static str,
    pub fun: Fun,
    pub args: Vec<Value>,
    pub expect: Option<Expect>,
    /// The hand-written gradient, as the paper's "Manual" column.
    pub manual: Option<Baseline>,
    /// The tensor-library gradient (GMM only), as the "PyTorch" column.
    pub tensor: Option<Baseline>,
}

fn chain(parts: [Vec<f64>; 3]) -> Vec<f64> {
    parts.into_iter().flatten().collect()
}

pub fn gmm_case(n: usize, d: usize, k: usize, seed: u64) -> Case {
    let data = gmm::GmmData::generate(n, d, k, seed);
    let (da, dm, dl) = gmm::gradient_manual(&data);
    let (m, t) = (data.clone(), data.clone());
    Case {
        key: "gmm",
        fun: gmm::objective_ir(),
        args: data.ir_args(),
        expect: Some(Expect {
            value: gmm::objective_manual(&data),
            // The adjoint of the n×d data points comes first.
            grad: vec![(n * d, chain([da, dm, dl]))],
        }),
        manual: Some(Box::new(move || {
            std::hint::black_box(gmm::gradient_manual(&m));
        })),
        tensor: Some(Box::new(move || {
            std::hint::black_box(gmm::gradient_tensor(&t));
        })),
    }
}

pub fn kmeans_dense_case(n: usize, d: usize, k: usize, seed: u64) -> Case {
    let data = kmeans::KmeansData::generate(n, d, k, seed);
    let (cost, grad, _) = kmeans::dense_manual(&data);
    let m = data.clone();
    Case {
        key: "kmeans-dense",
        fun: kmeans::dense_objective_ir(),
        args: data.ir_args(),
        expect: Some(Expect {
            value: cost,
            grad: vec![(n * d, grad)],
        }),
        manual: Some(Box::new(move || {
            std::hint::black_box(kmeans::dense_manual(&m));
        })),
        tensor: None,
    }
}

/// A CSR instance with exactly `nnz` non-zeros in every row. The
/// library's own generator draws each row's count, which would make the
/// work — and so every timing — a function of the seed.
fn sparse_data(n: usize, d: usize, k: usize, nnz: usize, seed: u64) -> kmeans::SparseKmeansData {
    let mut rng = Rng::new(seed);
    let (mut values, mut col_idx, mut row_ptr) = (Vec::new(), Vec::new(), vec![0i64]);
    for _ in 0..n {
        let mut cols = std::collections::BTreeSet::new();
        while cols.len() < nnz {
            cols.insert(rng.below(d) as i64);
        }
        for c in cols {
            col_idx.push(c);
            values.push(0.1 + 0.9 * rng.unit());
        }
        row_ptr.push(col_idx.len() as i64);
    }
    kmeans::SparseKmeansData {
        n,
        d,
        k,
        values,
        col_idx,
        row_ptr,
        centers: (0..k * d).map(|_| rng.unit() - 0.5).collect(),
    }
}

pub fn kmeans_sparse_case(n: usize, d: usize, k: usize, nnz: usize, seed: u64) -> Case {
    let data = sparse_data(n, d, k, nnz, seed);
    let (cost, grad) = kmeans::sparse_manual(&data);
    let m = data.clone();
    Case {
        key: "kmeans-sparse",
        fun: kmeans::sparse_objective_ir(),
        args: data.ir_args(),
        expect: Some(Expect {
            value: cost,
            // The adjoint of the CSR values comes first.
            grad: vec![(data.nnz(), grad)],
        }),
        manual: Some(Box::new(move || {
            std::hint::black_box(kmeans::sparse_manual(&m));
        })),
        tensor: None,
    }
}

/// The other six programs `fir_net_server` registers, at its shapes.
fn served_extras(seed: u64) -> Vec<Case> {
    let l = lstm::LstmData::generate(4, 3, 4, 2, seed);
    let (lv, lg) = lstm::tensor_gradient(&l);
    let ba = adbench::BaData::generate(3, 5, 12, seed);
    let (bv, bc, bp) = adbench::ba_manual(&ba);
    let hand = adbench::HandData::generate(6, 3, seed);
    let dl = adbench::DlstmData::generate(8, 4, 4, seed);
    let (dv, dw, du, db) = adbench::dlstm_manual(&dl);
    let xs = mc::XsData::generate(8, 4, 64, seed);

    let mut cases = vec![
        Case {
            key: "lstm",
            fun: lstm::objective_ir(l.h, l.bs),
            args: l.ir_args(),
            expect: Some(Expect {
                value: lv,
                grad: vec![(l.seq * l.d * l.bs, lg)],
            }),
            manual: None,
            tensor: None,
        },
        Case {
            key: "ba",
            fun: adbench::ba_objective_ir(),
            args: ba.ir_args(),
            expect: Some(Expect {
                value: bv,
                grad: vec![(0, bc.into_iter().chain(bp).collect())],
            }),
            manual: None,
            tensor: None,
        },
    ];
    for (key, complicated) in [("hand-simple", false), ("hand-complicated", true)] {
        let (hv, d_theta, d_us) = adbench::hand_manual(&hand, complicated);
        let mut grad = vec![(0, d_theta)];
        if complicated {
            // `us` is the last parameter, after theta, base, weights, targets.
            grad.push((hand.bones + hand.n * (6 + hand.bones), d_us));
        }
        cases.push(Case {
            key,
            fun: adbench::hand_objective_ir(complicated),
            args: hand.ir_args(complicated),
            expect: Some(Expect { value: hv, grad }),
            manual: None,
            tensor: None,
        });
    }
    cases.push(Case {
        key: "d-lstm",
        fun: adbench::dlstm_objective_ir(dl.h),
        args: dl.ir_args(),
        expect: Some(Expect {
            value: dv,
            grad: vec![(dl.seq * dl.d, chain([dw, du, db]))],
        }),
        manual: None,
        tensor: None,
    });
    cases.push(Case {
        key: "xsbench",
        fun: mc::xsbench_ir(xs.g),
        args: xs.ir_args(),
        expect: None,
        manual: None,
        tensor: None,
    });
    cases
}

/// How many distinct inputs per program the served request mix draws on.
pub const INSTANCES: usize = 32;

/// The programs of `workload` on the `i`-th inputs `seed` generates.
pub fn instance(workload: &Workload, seed: u64, i: usize) -> Vec<Case> {
    let seed = seed.wrapping_mul(1000).wrapping_add(i as u64);
    match workload.name {
        "gmm-grad" => vec![gmm_case(500, 32, 25, seed)],
        "kmeans-sparse-grad" => vec![kmeans_sparse_case(100, 2000, 10, 13, seed)],
        "compile-cold" => {
            let mut all = vec![
                gmm_case(16, 4, 3, seed),
                kmeans_dense_case(32, 4, 3, seed),
                kmeans_sparse_case(16, 32, 3, 4, seed),
            ];
            all.extend(served_extras(seed));
            all
        }
        "net-small" => vec![gmm_case(4, 2, 2, seed), kmeans_dense_case(4, 2, 2, seed)],
        other => unreachable!("no workload named {other}"),
    }
}

/// The programs of `workload` on the first inputs `seed` generates: what
/// every phase but the served request mix runs.
pub fn cases(workload: &Workload, seed: u64) -> Vec<Case> {
    instance(workload, seed, 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one_and_names_are_unique() {
        for w in &WORKLOADS {
            let s = w.shares;
            assert!((s.kernel + s.compile + s.closed + s.open - 1.0).abs() < 1e-12);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert_eq!(WORKLOADS.iter().filter(|o| o.name == w.name).count(), 1);
            let served = s.closed + s.open > 0.0;
            assert_eq!(served, w.front == Front::Server, "{}", w.name);
        }
    }

    #[test]
    fn every_case_matches_its_reference_on_the_interpreter() {
        // An executor the benchmark does not measure stands in for the
        // engines here: this pins offsets and references, not speed.
        let engine = fir_api::Engine::by_name("interp-seq").unwrap();
        for w in &WORKLOADS {
            if w.name == "gmm-grad" || w.name == "kmeans-sparse-grad" {
                continue; // the full-size instances are checked by every run
            }
            for c in cases(w, 3) {
                let f = engine.compile(&c.fun).unwrap();
                assert!(
                    call_ok(c.expect.as_ref(), &f.call(&c.args).unwrap()),
                    "{}",
                    c.key
                );
                assert!(
                    grad_ok(c.expect.as_ref(), &f.grad(&c.args).unwrap()),
                    "{}",
                    c.key
                );
            }
        }
    }

    #[test]
    fn sparse_rows_hold_the_same_work_whatever_the_seed() {
        for seed in [1, 2, 3] {
            let data = sparse_data(20, 50, 3, 13, seed);
            assert_eq!(data.nnz(), 20 * 13);
            for row in data.row_ptr.windows(2) {
                let cols = &data.col_idx[row[0] as usize..row[1] as usize];
                assert_eq!(cols.len(), 13);
                assert!(cols.windows(2).all(|w| w[0] < w[1]), "sorted, distinct");
                assert!(cols.iter().all(|c| (0..50).contains(c)));
            }
        }
        assert_ne!(
            sparse_data(4, 50, 3, 5, 1).col_idx,
            sparse_data(4, 50, 3, 5, 2).col_idx
        );
    }

    #[test]
    fn a_wrong_result_is_caught() {
        let c = gmm_case(4, 2, 2, 1);
        let e = c.expect.as_ref().unwrap();
        assert!(e.value_ok(e.value));
        assert!(!e.value_ok(e.value + 1e-6));
        let mut flat = vec![0.0; 8];
        flat.extend(&e.grad[0].1);
        assert!(e.grad_ok(&flat));
        flat[9] += 1e-4;
        assert!(!e.grad_ok(&flat));
        assert!(
            !e.grad_ok(&flat[..10]),
            "a short gradient is wrong, not a panic"
        );
        assert!(!call_ok(None, &[Value::F64(f64::NAN)]));
        assert!(!call_ok(None, &[]));
    }
}
