//! Micro-benchmarks for the BDD substrate: construction, quantification,
//! composition and sifting — the primitive costs behind every check column
//! in the paper's tables.

use bbec_bdd::{BddManager, Cube};
use bbec_core::{CheckSettings, SymbolicContext};
use bbec_netlist::generators;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn settings() -> CheckSettings {
    CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
}

fn bench_build_adder(c: &mut Criterion) {
    let circuit = generators::ripple_carry_adder(16);
    c.bench_function("build_bdds/adder16", |b| {
        b.iter(|| {
            let mut ctx = SymbolicContext::new(&circuit, &settings());
            let outs = ctx.build_outputs(&circuit).expect("complete circuit");
            black_box(ctx.manager.node_count_many(&outs))
        })
    });
}

fn bench_build_comparator(c: &mut Criterion) {
    let circuit = generators::magnitude_comparator(16);
    c.bench_function("build_bdds/comp16", |b| {
        b.iter(|| {
            let mut ctx = SymbolicContext::new(&circuit, &settings());
            let outs = ctx.build_outputs(&circuit).expect("complete circuit");
            black_box(ctx.manager.node_count_many(&outs))
        })
    });
}

fn bench_quantification(c: &mut Criterion) {
    // ∀/∃ over half the variables of a 16-bit adder's carry-out.
    let circuit = generators::ripple_carry_adder(16);
    c.bench_function("quantify/adder16_cout", |b| {
        b.iter(|| {
            let mut ctx = SymbolicContext::new(&circuit, &settings());
            let outs = ctx.build_outputs(&circuit).expect("complete circuit");
            let cout = *outs.last().expect("has outputs");
            let vars: Vec<_> = ctx.input_vars().iter().copied().step_by(2).collect();
            let cube = Cube::try_from_vars(&mut ctx.manager, &vars).expect("within budget");
            let e = ctx.manager.exists(cout, cube);
            let a = ctx.manager.forall(cout, cube);
            black_box((e, a))
        })
    });
}

fn bench_sifting(c: &mut Criterion) {
    c.bench_function("reorder/sift_bad_order", |b| {
        b.iter(|| {
            // Disjoint conjunctions under a pessimal interleaving.
            let mut m = BddManager::new();
            let n = 14;
            let vars = m.new_vars(n);
            let order: Vec<_> = (0..n / 2).chain(n / 2..n).map(|i| vars[i]).collect();
            let mut shuffled = order.clone();
            // x0 x2 x4 … x1 x3 x5 …: worst case for pairwise products.
            shuffled.sort_by_key(|v| (v.index() % 2, v.index()));
            m.set_var_order(&shuffled);
            let mut f = m.constant(false);
            for i in (0..n).step_by(2) {
                let a = m.var(vars[i]);
                let bb = m.var(vars[i + 1]);
                let t = m.and(a, bb);
                f = m.or(f, t);
            }
            m.protect(f);
            black_box(m.reorder())
        })
    });
}

fn bench_xor_heavy(c: &mut Criterion) {
    // The C499/C1355 class is XOR-dominated; measure raw symbolic XOR cost.
    let circuit = generators::parity_tree(24);
    c.bench_function("build_bdds/parity24", |b| {
        b.iter(|| {
            let mut ctx = SymbolicContext::new(&circuit, &settings());
            let outs = ctx.build_outputs(&circuit).expect("complete circuit");
            black_box(outs)
        })
    });
}

criterion_group!(
    benches,
    bench_build_adder,
    bench_build_comparator,
    bench_quantification,
    bench_sifting,
    bench_xor_heavy
);
criterion_main!(benches);
