//! BDD micro-benchmark: raw operator-core throughput on the three hot
//! paths of the equivalence-check ladder — apply (negation-heavy Boolean
//! combination), quantification (the ∃/∀ alternation of the output- and
//! input-exact rungs) and dynamic reordering, the last both on one root
//! whose variables all interact (`reorder`) and on a forest of roots whose
//! variables mostly do not (`reorder_forest`).
//!
//! Writes a schema-valid JSONL trace stream (validate with the
//! `trace-schema` binary of `bbec-trace`); one `bdd_micro` record per
//! workload carrying ops/sec, peak live nodes and cache hit rate, plus a
//! `bdd_micro_summary` record. The committed `BENCH_bdd.json` holds the
//! before/after rows of the interaction-matrix sifting change; CI re-runs
//! this binary and gates on a >25% ops/sec regression via
//! `bbec report --compare`.
//!
//! ```text
//! cargo run --release -p bbec-bench --bin bdd_micro -- \
//!     [--quick] [--out FILE] [--phase NAME]
//! ```

use bbec_bdd::{Bdd, BddManager, Cube, ReorderSettings};
use bbec_trace::{AttrValue, Tracer};
use std::time::Instant;

/// Deterministic SplitMix64 so every run measures the same op sequence.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        ((u128::from(self.next()) * bound as u128) >> 64) as usize
    }
}

struct Measurement {
    workload: &'static str,
    ops: u64,
    millis: f64,
    apply_steps: u64,
    peak_live_nodes: usize,
    cache_hit_rate: f64,
}

impl Measurement {
    fn ops_per_sec(&self) -> f64 {
        if self.millis <= 0.0 {
            0.0
        } else {
            self.ops as f64 / (self.millis / 1e3)
        }
    }
}

/// A deterministic pool of structured functions over `nvars` literals.
/// `churn` extra combine-and-replace steps deepen the pool beyond
/// two-literal combinations.
fn seed_pool(
    m: &mut BddManager,
    nvars: usize,
    size: usize,
    churn: usize,
    rng: &mut Rng,
) -> Vec<Bdd> {
    let vars = m.new_vars(nvars);
    let lits: Vec<Bdd> = vars.iter().map(|&v| m.var(v)).collect();
    let mut pool = lits.clone();
    while pool.len() < size {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let f = match rng.below(3) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            _ => m.xor(a, b),
        };
        let f = if rng.below(2) == 0 { m.not(f) } else { f };
        pool.push(f);
    }
    for _ in 0..churn {
        let a = pool[rng.below(pool.len())];
        let b = pool[rng.below(pool.len())];
        let f = match rng.below(3) {
            0 => m.and(a, b),
            1 => m.or(a, b),
            _ => m.xor(a, b),
        };
        let f = if rng.below(2) == 0 { m.not(f) } else { f };
        // Keep the literals (the first `nvars` slots) as anchors.
        let k = nvars + rng.below(pool.len() - nvars);
        pool[k] = f;
    }
    for &f in &pool {
        m.protect(f);
    }
    pool
}

/// The ladder's apply profile: Boolean combination with constant negation
/// (`¬g` for forced-0 tests, De Morgan dualization, XOR miters).
fn bench_apply(rounds: usize) -> Measurement {
    let mut m = BddManager::new();
    let mut rng = Rng(0xBBEC_0001);
    let mut pool = seed_pool(&mut m, 18, 48, 0, &mut rng);
    m.reset_peak();
    let t0 = Instant::now();
    let mut ops = 0u64;
    for _ in 0..rounds {
        let i = rng.below(pool.len());
        let j = rng.below(pool.len());
        let k = rng.below(pool.len());
        let (f, g) = (pool[i], pool[j]);
        let ng = m.not(g);
        let h = match rng.below(4) {
            0 => m.and(f, ng),
            1 => m.or(f, ng),
            2 => m.xor(f, g),
            _ => {
                let c = pool[rng.below(pool.len())];
                m.ite(c, f, ng)
            }
        };
        let nh = m.not(h);
        ops += 3;
        m.release(pool[k]);
        pool[k] = m.protect(nh);
        if m.dead_nodes() > 200_000 {
            m.collect_garbage();
        }
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let t = m.telemetry();
    let total = t.cache_hits + t.cache_misses;
    Measurement {
        workload: "apply",
        ops,
        millis,
        apply_steps: t.apply_steps,
        peak_live_nodes: m.stats().peak_live_nodes,
        cache_hit_rate: if total == 0 { 0.0 } else { t.cache_hits as f64 / total as f64 },
    }
}

/// The exact-check profile: ∃/∀ alternation (duals through negation) and
/// the fused relational product.
fn bench_quant(rounds: usize) -> Measurement {
    let mut m = BddManager::new();
    let mut rng = Rng(0xBBEC_0002);
    let pool = seed_pool(&mut m, 20, 64, 256, &mut rng);
    let all_vars: Vec<_> = (0..20).map(|l| m.var_at_level(l)).collect();
    let cube_a = Cube::from_vars(&mut m, &all_vars[0..8]).protect(&mut m);
    let cube_b = Cube::from_vars(&mut m, &all_vars[10..18]).protect(&mut m);
    m.reset_peak();
    let t0 = Instant::now();
    let mut ops = 0u64;
    for _ in 0..rounds {
        // A fresh combination per iteration: quantification should recurse,
        // not replay the op cache.
        let f0 = pool[rng.below(pool.len())];
        let f1 = pool[rng.below(pool.len())];
        let g = pool[rng.below(pool.len())];
        let f = m.xor(f0, f1);
        let e = m.exists(f, cube_a);
        let a = m.forall(f, cube_b);
        let r = m.and_exists(e, g, cube_b);
        let d = m.or_forall(a, g, cube_a);
        let _ = m.xor(r, d);
        ops += 6;
        if m.dead_nodes() > 200_000 {
            m.collect_garbage();
        }
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let t = m.telemetry();
    let total = t.cache_hits + t.cache_misses;
    Measurement {
        workload: "quant",
        ops,
        millis,
        apply_steps: t.apply_steps,
        peak_live_nodes: m.stats().peak_live_nodes,
        cache_hit_rate: if total == 0 { 0.0 } else { t.cache_hits as f64 / total as f64 },
    }
}

/// Sifting throughput: repeatedly scramble the order of an
/// interleaving-sensitive function and recover it.
fn bench_reorder(rounds: usize) -> Measurement {
    let mut m = BddManager::with_reordering(ReorderSettings {
        enabled: false,
        ..ReorderSettings::default()
    });
    let nvars = 20;
    let vars = m.new_vars(nvars);
    // f = ∨ (x_i ∧ x_{i+8}): exponential under the sequential order,
    // linear once sifting interleaves the pairs.
    let mut f = m.constant(false);
    for i in 0..nvars / 2 {
        let a = m.var(vars[i]);
        let b = m.var(vars[i + nvars / 2]);
        let t = m.and(a, b);
        f = m.or(f, t);
    }
    m.protect(f);
    let sequential: Vec<_> = vars.clone();
    m.reset_peak();
    let t0 = Instant::now();
    let mut ops = 0u64;
    for _ in 0..rounds {
        m.set_var_order(&sequential);
        m.reorder();
        ops += 1;
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let t = m.telemetry();
    let total = t.cache_hits + t.cache_misses;
    Measurement {
        workload: "reorder",
        ops,
        millis,
        apply_steps: t.apply_steps,
        peak_live_nodes: m.stats().peak_live_nodes,
        cache_hit_rate: if total == 0 { 0.0 } else { t.cache_hits as f64 / total as f64 },
    }
}

/// Sifting a forest whose variables mostly do not interact: ten
/// separately protected pair functions over twenty variables, scrambled
/// before every pass. A variable shares a support with its partner only,
/// so most adjacent swaps rewrite no nodes.
fn bench_reorder_forest(rounds: usize) -> Measurement {
    let mut m = BddManager::with_reordering(ReorderSettings {
        enabled: false,
        ..ReorderSettings::default()
    });
    let nvars = 20;
    let vars = m.new_vars(nvars);
    for i in 0..nvars / 2 {
        let a = m.var(vars[i]);
        let b = m.var(vars[i + nvars / 2]);
        let f = m.and(a, b);
        m.protect(f);
    }
    let mut rng = Rng(0xBBEC_0004);
    let mut scrambled = vars.clone();
    for i in (1..nvars).rev() {
        scrambled.swap(i, rng.below(i + 1));
    }
    m.reset_peak();
    let t0 = Instant::now();
    let mut ops = 0u64;
    for _ in 0..rounds {
        m.set_var_order(&scrambled);
        m.reorder();
        ops += 1;
    }
    let millis = t0.elapsed().as_secs_f64() * 1e3;
    let t = m.telemetry();
    let total = t.cache_hits + t.cache_misses;
    Measurement {
        workload: "reorder_forest",
        ops,
        millis,
        apply_steps: t.apply_steps,
        peak_live_nodes: m.stats().peak_live_nodes,
        cache_hit_rate: if total == 0 { 0.0 } else { t.cache_hits as f64 / total as f64 },
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag =
        |name: &str| args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned();
    let out = flag("--out").unwrap_or_else(|| "BENCH_bdd.json".to_string());
    let phase = flag("--phase").unwrap_or_else(|| "current".to_string());

    let (apply_rounds, quant_rounds, reorder_rounds, forest_rounds) =
        if quick { (2_000, 300, 4, 1_000) } else { (20_000, 3_000, 24, 10_000) };

    let rows = [
        bench_apply(apply_rounds),
        bench_quant(quant_rounds),
        bench_reorder(reorder_rounds),
        bench_reorder_forest(forest_rounds),
    ];

    let tracer = Tracer::new();
    println!("bdd_micro (phase {phase}{}):", if quick { ", quick" } else { "" });
    for r in &rows {
        println!(
            "  {:<14} {:>9} ops in {:>9.2} ms = {:>12.0} ops/s   peak {:>8} nodes, {:>5.1}% cache hits",
            r.workload,
            r.ops,
            r.millis,
            r.ops_per_sec(),
            r.peak_live_nodes,
            r.cache_hit_rate * 100.0
        );
        tracer.record_event(
            "bdd_micro",
            vec![
                ("workload".to_string(), AttrValue::from(r.workload)),
                ("phase".to_string(), AttrValue::from(phase.as_str())),
                ("quick".to_string(), quick.into()),
                ("ops".to_string(), r.ops.into()),
                ("millis".to_string(), r.millis.into()),
                ("ops_per_sec".to_string(), r.ops_per_sec().into()),
                ("apply_steps".to_string(), r.apply_steps.into()),
                ("peak_live_nodes".to_string(), r.peak_live_nodes.into()),
                ("cache_hit_rate".to_string(), r.cache_hit_rate.into()),
            ],
        );
    }
    tracer.record_event(
        "bdd_micro_summary",
        vec![
            ("phase".to_string(), AttrValue::from(phase.as_str())),
            ("quick".to_string(), quick.into()),
            ("workloads".to_string(), rows.len().into()),
            ("peak_live_nodes_apply".to_string(), rows[0].peak_live_nodes.into()),
        ],
    );
    std::fs::write(&out, tracer.finish().to_jsonl()).expect("write benchmark output");
    println!("wrote {out}");
}
