//! Composable optimization pipelines.
//!
//! Reverse-mode AD by redundant execution deliberately emits dead forward
//! sweeps (paper §4.1); the engine runs a configurable sequence of `fir_opt`
//! passes over every function before handing it to the backend. The default
//! [`PassPipeline::standard`] iterates the full repertoire — copy
//! propagation, constant folding, CSE, producer–consumer fusion, invariant
//! hoisting, dead-code elimination — to a (bounded) fixed point. Ablation
//! studies and debugging can compose their own sequence, or disable
//! optimization entirely with [`PassPipeline::none`], which hands functions
//! through without so much as a clone.
//!
//! Every application reports [`PipelineStats`] — per-pass rewrites fired
//! and statement counts plus the number of fixpoint iterations — surfaced
//! through `Engine::opt_stats` alongside the compilation cache counters.
//! In debug builds the optimized IR is re-typechecked after every pass, so
//! a pass that produces ill-typed IR fails loudly at its source.

use std::borrow::Cow;

use fir::ir::Fun;
use fir_opt::PassRun;

/// One optimization pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pass {
    /// The fixed-point combination of the three basic passes
    /// ([`fir_opt::simplify()`]).
    Simplify,
    /// Dead-code elimination only.
    DeadCode,
    /// Constant folding (and 0/1 identity collapsing) only.
    ConstantFold,
    /// Copy propagation only.
    CopyProp,
    /// Common-subexpression elimination ([`fir_opt::cse()`]).
    Cse,
    /// Producer–consumer SOAC fusion ([`fir_opt::fuse_soacs`]): map–map
    /// composition and map–reduce fusion into `redomap`.
    Fusion,
    /// Loop/map-invariant code motion ([`fir_opt::hoist_invariants`]).
    Hoist,
    /// Memory planning ([`fir_opt::memplan()`]): lifetime-based elimination of
    /// `copy`s whose source is dead, turning functional updates into true
    /// in-place updates under the CoW runtime.
    MemPlan,
}

impl Pass {
    /// The pass name as reported in [`PipelineStats`].
    pub fn name(&self) -> &'static str {
        match self {
            Pass::Simplify => "simplify",
            Pass::DeadCode => "dce",
            Pass::ConstantFold => "const-fold",
            Pass::CopyProp => "copy-prop",
            Pass::Cse => "cse",
            Pass::Fusion => "fusion",
            Pass::Hoist => "hoist",
            Pass::MemPlan => "memplan",
        }
    }

    /// Apply this pass to a function.
    pub fn apply(&self, fun: &Fun) -> Fun {
        self.apply_counted(fun).0
    }

    /// Apply this pass, reporting rewrite and statement counts.
    pub fn apply_counted(&self, fun: &Fun) -> (Fun, PassRun) {
        let name = self.name();
        match self {
            Pass::Simplify => fir_opt::run_pass(
                name,
                |f| {
                    let out = fir_opt::simplify(f);
                    let changed = usize::from(out != *f);
                    (out, changed)
                },
                fun,
            ),
            Pass::DeadCode => fir_opt::run_pass(name, fir_opt::dead_code_elimination_counted, fun),
            Pass::ConstantFold => fir_opt::run_pass(name, fir_opt::constant_fold_counted, fun),
            Pass::CopyProp => fir_opt::run_pass(name, fir_opt::copy_propagation_counted, fun),
            Pass::Cse => fir_opt::run_pass(name, fir_opt::cse_counted, fun),
            Pass::Fusion => fir_opt::run_pass(name, fir_opt::fuse_soacs_counted, fun),
            Pass::Hoist => fir_opt::run_pass(name, fir_opt::hoist_invariants_counted, fun),
            Pass::MemPlan => fir_opt::run_pass(name, fir_opt::memplan_counted, fun),
        }
    }
}

/// What a pipeline application did to one function: every pass run (in
/// application order), the number of fixpoint iterations, and the overall
/// statement counts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PipelineStats {
    /// Every pass application, in order.
    pub runs: Vec<PassRun>,
    /// Rounds started (0 for the empty pipeline); the last one may stop
    /// part-way, once every pass has seen the program unchanged.
    pub iterations: usize,
    /// Statements (all nesting depths) before optimization.
    pub stms_before: usize,
    /// Statements after optimization.
    pub stms_after: usize,
}

impl PipelineStats {
    /// Total rewrites fired across all passes.
    pub fn rewrites(&self) -> usize {
        self.runs.iter().map(|r| r.rewrites).sum()
    }

    /// Total wall time spent in passes, nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.runs.iter().map(|r| r.nanos).sum()
    }

    /// Wall time spent in the named pass (summed over iterations),
    /// nanoseconds.
    pub fn nanos_of(&self, pass: &str) -> u64 {
        self.runs
            .iter()
            .filter(|r| r.pass == pass)
            .map(|r| r.nanos)
            .sum()
    }

    /// Rewrites fired by the named pass (summed over iterations).
    pub fn rewrites_of(&self, pass: &str) -> usize {
        self.runs
            .iter()
            .filter(|r| r.pass == pass)
            .map(|r| r.rewrites)
            .sum()
    }

    /// Statements removed end to end.
    pub fn stms_removed(&self) -> usize {
        self.stms_before.saturating_sub(self.stms_after)
    }
}

/// An ordered sequence of passes, applied left to right on every function
/// an engine compiles (primal and AD-derived alike), optionally iterated
/// until no pass reports a rewrite (bounded by `max_iterations`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PassPipeline {
    passes: Vec<Pass>,
    max_iterations: usize,
}

impl Default for PassPipeline {
    fn default() -> PassPipeline {
        PassPipeline::standard()
    }
}

impl PassPipeline {
    /// The default pipeline: the full pass repertoire — copy propagation,
    /// constant folding, CSE, SOAC fusion, invariant hoisting, dead code —
    /// iterated to a fixed point (bounded at 8 rounds).
    pub fn standard() -> PassPipeline {
        PassPipeline {
            passes: vec![
                Pass::CopyProp,
                Pass::ConstantFold,
                Pass::Cse,
                Pass::Fusion,
                Pass::Hoist,
                Pass::DeadCode,
            ],
            max_iterations: 8,
        }
    }

    /// The standard pipeline plus memory planning: after fusion and
    /// hoisting have settled the program shape, [`Pass::MemPlan`] erases
    /// `copy`s whose source is dead so consumers update in place, and the
    /// engine sizes a per-invocation buffer arena from the resulting
    /// [`fir_opt::BufferPlan`].
    pub fn standard_mem() -> PassPipeline {
        PassPipeline {
            passes: vec![
                Pass::CopyProp,
                Pass::ConstantFold,
                Pass::Cse,
                Pass::Fusion,
                Pass::Hoist,
                Pass::MemPlan,
                Pass::DeadCode,
            ],
            max_iterations: 8,
        }
    }

    /// An empty pipeline: functions reach the backend untouched (and
    /// unclosed — [`PassPipeline::apply`] returns a borrow).
    pub fn none() -> PassPipeline {
        PassPipeline {
            passes: Vec::new(),
            max_iterations: 1,
        }
    }

    /// A pipeline running exactly `passes`, in order, once.
    pub fn new(passes: Vec<Pass>) -> PassPipeline {
        PassPipeline {
            passes,
            max_iterations: 1,
        }
    }

    /// Append a pass.
    pub fn then(mut self, pass: Pass) -> PassPipeline {
        self.passes.push(pass);
        self
    }

    /// Iterate the pass sequence until no pass reports a rewrite, at most
    /// `rounds` times (clamped to at least 1).
    pub fn fixpoint(mut self, rounds: usize) -> PassPipeline {
        self.max_iterations = rounds.max(1);
        self
    }

    /// The passes, in application order.
    pub fn passes(&self) -> &[Pass] {
        &self.passes
    }

    /// The fixpoint iteration bound.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// A canonical string identifying this pipeline's configuration —
    /// pass names in application order plus the iteration bound, e.g.
    /// `"copy-prop,const-fold,cse,fusion,hoist,dce@8"` (`"@1"` alone for
    /// the empty pipeline). Part of the persistent compile-cache key, so
    /// two engines share on-disk entries exactly when they optimize
    /// identically.
    pub fn cache_key(&self) -> String {
        let names: Vec<&str> = self.passes.iter().map(|p| p.name()).collect();
        format!("{}@{}", names.join(","), self.max_iterations)
    }

    /// Apply the pipeline. The empty pipeline borrows its input instead of
    /// deep-cloning it.
    pub fn apply<'f>(&self, fun: &'f Fun) -> Cow<'f, Fun> {
        self.apply_with_stats(fun).0
    }

    /// Apply the pipeline, reporting per-pass statistics.
    ///
    /// The passes run in order, round after round, and stop as soon as the
    /// last `passes.len()` runs made no rewrite: every pass has then seen
    /// the current program and left it unchanged, so it is a fixed point
    /// and the rest of the round would change nothing. That is often in
    /// the middle of a round; [`PipelineStats::iterations`] counts the
    /// rounds started, at most `max_iterations`.
    pub fn apply_with_stats<'f>(&self, fun: &'f Fun) -> (Cow<'f, Fun>, PipelineStats) {
        let stms_before = fir_opt::count_stms(fun);
        let mut stats = PipelineStats {
            runs: Vec::new(),
            iterations: 0,
            stms_before,
            stms_after: stms_before,
        };
        if self.passes.is_empty() {
            return (Cow::Borrowed(fun), stats);
        }
        let mut cur = fun.clone();
        let mut idle = 0;
        'rounds: for _ in 0..self.max_iterations {
            stats.iterations += 1;
            for p in &self.passes {
                let _span = fir_trace::span("opt", p.name());
                let (next, run) = p.apply_counted(&cur);
                recheck(p, &next);
                idle = if run.rewrites > 0 { 0 } else { idle + 1 };
                stats.runs.push(run);
                cur = next;
                if idle == self.passes.len() {
                    break 'rounds;
                }
            }
        }
        stats.stms_after = fir_opt::count_stms(&cur);
        (Cow::Owned(cur), stats)
    }
}

/// Debug-mode invariant: every pass must leave the program well-typed.
/// Compiled out in release builds.
fn recheck(pass: &Pass, fun: &Fun) {
    if cfg!(debug_assertions) {
        if let Err(e) = fir::typecheck::check_fun(fun) {
            panic!(
                "optimizer pass `{}` produced ill-typed IR for `{}`: {e}",
                pass.name(),
                fun.name
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fir::builder::Builder;
    use fir::ir::Atom;
    use fir::types::Type;

    fn with_dead_code() -> Fun {
        let mut b = Builder::new();
        b.build_fun("f", &[Type::F64], |b, ps| {
            let _dead = b.fadd(ps[0].into(), Atom::f64(1.0));
            vec![b.fmul(ps[0].into(), ps[0].into())]
        })
    }

    /// A fusable map-map-reduce chain with a map-invariant `sin x` (hoist)
    /// and a duplicated top-level `exp x` (CSE).
    fn fusable() -> Fun {
        let mut b = Builder::new();
        b.build_fun("g", &[Type::F64, Type::arr_f64(1)], |b, ps| {
            let x = Atom::Var(ps[0]);
            let e1 = b.fexp(x);
            let doubled = b.map1(Type::arr_f64(1), &[ps[1]], |b, es| {
                vec![b.fmul(es[0].into(), Atom::f64(2.0))]
            });
            let shifted = b.map1(Type::arr_f64(1), &[doubled], |b, es| {
                let inv = b.fsin(x);
                vec![b.fadd(es[0].into(), inv)]
            });
            let s1 = b.sum(shifted);
            let e2 = b.fexp(x);
            let prod = b.fmul(e1, e2);
            vec![b.fadd(s1.into(), prod)]
        })
    }

    #[test]
    fn none_is_identity_and_standard_simplifies() {
        let f = with_dead_code();
        let untouched = PassPipeline::none().apply(&f);
        assert!(
            matches!(untouched, Cow::Borrowed(_)),
            "the empty pipeline must not clone"
        );
        assert_eq!(untouched.as_ref(), &f);
        let simplified = PassPipeline::standard().apply(&f);
        assert!(fir_opt::count_stms(&simplified) < fir_opt::count_stms(&f));
        fir::typecheck::check_fun(&simplified).unwrap();
    }

    #[test]
    fn pipelines_compose() {
        let p = PassPipeline::none()
            .then(Pass::CopyProp)
            .then(Pass::DeadCode);
        assert_eq!(p.passes(), &[Pass::CopyProp, Pass::DeadCode]);
        let f = with_dead_code();
        assert!(fir_opt::count_stms(&p.apply(&f)) < fir_opt::count_stms(&f));
    }

    #[test]
    fn standard_pipeline_fires_every_new_pass() {
        let f = fusable();
        let (out, stats) = PassPipeline::standard().apply_with_stats(&f);
        fir::typecheck::check_fun(&out).unwrap();
        assert!(stats.rewrites_of("cse") >= 1, "duplicate maps must merge");
        assert!(
            stats.rewrites_of("fusion") >= 2,
            "map-map and map-reduce fusion must fire"
        );
        assert!(stats.rewrites_of("hoist") >= 1, "exp(x) must hoist");
        assert!(stats.iterations >= 2, "fixpoint must iterate");
        assert!(stats.stms_after < stats.stms_before);
        assert_eq!(stats.stms_after, fir_opt::count_stms(&out));
        // The fused reduce survives as a redomap.
        assert!(
            out.body
                .stms
                .iter()
                .any(|s| matches!(s.exp, fir::ir::Exp::Redomap { .. })),
            "expected a redomap in {out}"
        );
    }

    #[test]
    fn single_pass_variants_report_stats() {
        let f = with_dead_code();
        for (pass, expect_rewrites) in [
            (Pass::DeadCode, true),
            (Pass::Fusion, false),
            (Pass::Cse, false),
            (Pass::Hoist, false),
        ] {
            let (out, run) = pass.apply_counted(&f);
            assert_eq!(run.pass, pass.name());
            assert_eq!(run.stms_before, 2);
            assert_eq!(run.stms_after, fir_opt::count_stms(&out));
            assert_eq!(run.rewrites > 0, expect_rewrites, "{}", pass.name());
        }
        let (_, stats) = PassPipeline::new(vec![Pass::DeadCode]).apply_with_stats(&f);
        assert_eq!(stats.iterations, 1);
        assert_eq!(stats.rewrites_of("dce"), 1);
        assert_eq!(stats.stms_removed(), 1);
    }

    /// GMM's nest (per point, per component, per coordinate) with
    /// `exp (neg ls)` and `Σ ls` inside it.
    fn gmm_nest() -> Fun {
        let mut b = Builder::new();
        let m2 = Type::arr_f64(2);
        b.build_fun("gmm_nest", &[m2, m2, m2], |b, ps| {
            let (means, log_sigmas) = (ps[1], ps[2]);
            let lls = b.map1(Type::arr_f64(1), &[ps[0]], |b, xrow| {
                let x = xrow[0];
                let comps = b.map1(Type::arr_f64(1), &[means, log_sigmas], |b, es| {
                    let terms = b.map1(Type::arr_f64(1), &[x, es[0], es[1]], |b, ts| {
                        let diff = b.fsub(ts[0].into(), ts[1].into());
                        let nls = b.fneg(ts[2].into());
                        let z = b.fexp(nls);
                        let z = b.fmul(diff, z);
                        vec![b.fmul(z, z)]
                    });
                    let quad = b.sum(terms);
                    let slog = b.sum(es[1]);
                    vec![b.fsub(quad.into(), slog.into())]
                });
                vec![Atom::Var(b.sum(comps))]
            });
            vec![b.sum(lls).into()]
        })
    }

    #[test]
    fn the_fixed_point_stops_once_every_pass_has_seen_the_program_unchanged() {
        let p = PassPipeline::standard();
        let n = p.passes().len();
        let mut mid_round = 0;
        for f in [
            with_dead_code(),
            fusable(),
            gmm_nest(),
            futhark_ad::vjp(&gmm_nest()),
        ] {
            let (out, stats) = p.apply_with_stats(&f);
            let runs = &stats.runs;
            // It stops after exactly `n` idle runs, the first run after the
            // last rewrite, and counts the rounds it started.
            assert!(runs[runs.len() - n..].iter().all(|r| r.rewrites == 0));
            assert!(runs[runs.len() - n - 1].rewrites > 0, "{}", f.name);
            assert_eq!(stats.iterations, runs.len().div_ceil(n));
            mid_round += usize::from(runs.len() % n != 0);
            // What it returns is a fixed point: a full round changes nothing.
            let (again, more) = PassPipeline::new(p.passes().to_vec()).apply_with_stats(&out);
            assert_eq!(more.rewrites(), 0, "{}", f.name);
            assert_eq!(again.as_ref(), out.as_ref());
        }
        assert!(
            mid_round > 0,
            "some pipeline stops in the middle of a round"
        );
    }

    #[test]
    fn extraction_is_bitwise_on_both_backends_with_and_without_the_pipeline() {
        use crate::Engine;
        use interp::{Array, Value};
        let mat = |rows: usize, cols: usize, seed: f64| {
            let data = (0..rows * cols).map(|i| ((i as f64 + seed) * 0.37).sin());
            Value::Arr(Array::from_f64(vec![rows, cols], data.collect()))
        };
        let f = gmm_nest();
        let engines: Vec<Engine> = ["interp-seq", "vm-seq"]
            .iter()
            .flat_map(|b| {
                [PassPipeline::none(), PassPipeline::standard()]
                    .map(|p| Engine::by_name(b).unwrap().with_pipeline(p))
            })
            .collect();
        for (n, d, k) in [(500, 32, 25), (4, 2, 2), (16, 4, 3), (7, 3, 4), (0, 2, 2)] {
            let args = [mat(n, d, 0.0), mat(k, d, 1.0), mat(k, d, 2.0)];
            // The interpreter sits out the benchmark's shape: too slow for
            // a debug build.
            let skip = if n == 500 { 2 } else { 0 };
            let outs: Vec<String> = engines[skip..]
                .iter()
                .map(|e| {
                    let cf = e.compile(&f).unwrap();
                    let g = cf.grad(&args).unwrap();
                    format!("{:?} {:?}", cf.call(&args).unwrap(), g.flat_grads())
                })
                .collect();
            assert!(outs.iter().all(|o| *o == outs[0]), "({n}, {d}, {k})");
        }
    }
}
