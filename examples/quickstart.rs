//! Quickstart: build a small array program, compile it once with an
//! [`Engine`], and use the staged handle for execution, reverse mode,
//! forward mode, and composed transforms (`vmap ∘ vjp` per-example
//! gradients) — seeds and tangents are derived automatically, and the
//! engine's cache/optimizer statistics print as plain lines at the end.
//!
//! Run with `cargo run --release --example quickstart`.

use fir::builder::Builder;
use fir::types::Type;
use futhark_ad_repro::{Engine, FirError};
use interp::Value;

fn main() -> Result<(), FirError> {
    // f(xs, ys) = sum (map2 (\x y -> sin x * y) xs ys)
    let mut b = Builder::new();
    let f = b.build_fun(
        "objective",
        &[Type::arr_f64(1), Type::arr_f64(1)],
        |b, ps| {
            let prods = b.map1(Type::arr_f64(1), &[ps[0], ps[1]], |b, es| {
                let s = b.fsin(es[0].into());
                vec![b.fmul(s, es[1].into())]
            });
            vec![b.sum(prods).into()]
        },
    );
    println!("Primal program:\n{f}");

    // Compile once: type-checked, simplified, lowered to the backend.
    let engine = Engine::new();
    let cf = engine.compile(&f)?;

    let xs = Value::from(vec![0.1, 0.2, 0.3, 0.4]);
    let ys = Value::from(vec![1.0, -1.0, 2.0, 0.5]);
    let args = [xs, ys];
    println!("f(xs, ys) = {}", cf.call_scalar(&args)?);

    // Reverse mode: one pass gives the gradient with respect to both
    // arrays; the unit seed is derived from the result type.
    let g = cf.grad(&args)?;
    println!("d f / d xs = {:?}", g.grads[0].as_arr().f64s());
    println!("d f / d ys = {:?}", g.grads[1].as_arr().f64s());

    // Forward mode: a directional derivative along e_0 of xs (the tangent
    // of ys is auto-inserted as zeros).
    let dual = cf.pushforward(&args, &[(0, Value::from(vec![1.0, 0.0, 0.0, 0.0]))])?;
    println!(
        "directional derivative along e_0 = {}",
        dual.flat_tangents()[0]
    );

    // Composed transforms: vmap(vjp(f)) computes per-example gradients of
    // a whole batch in one program execution — bitwise-identical to the
    // per-example loop above, compiled once, cached by (source, stack).
    let per_example = cf.vjp()?.vmap()?;
    let batch: Vec<Vec<Value>> = (0..3)
        .map(|i| {
            let mut a = args.to_vec();
            if let Value::Arr(xs) = &mut a[0] {
                *xs = interp::Array::from_f64(
                    xs.shape.clone(),
                    xs.f64s().iter().map(|x| x + 0.1 * i as f64).collect(),
                );
            }
            a.push(Value::F64(1.0)); // the vjp seed of each example
            a
        })
        .collect();
    let stacked = fir_api::batch::stack_args(&batch).expect("same shapes stack");
    let outs = per_example.call(&stacked)?;
    println!(
        "per-example objectives via vmap∘vjp = {:?}",
        outs[0].as_arr().f64s()
    );
    println!(
        "per-example d f / d xs (example 0)  = {:?}",
        outs[1].as_arr().index(&[0]).as_arr().f64s()
    );

    // Cache, kernel-form (tape vs generic bytecode) and optimizer behavior,
    // observable without reading JSON.
    println!("{}", engine.cache_stats());
    println!("{}", engine.opt_stats());
    Ok(())
}
