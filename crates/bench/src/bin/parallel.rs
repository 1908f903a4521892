//! Sequential-vs-parallel wall-clock benchmark for the sharded check
//! engine, on the `disjoint_cones` generator family (>= 16 outputs with
//! pairwise-disjoint fanin cones — the best case for output sharding).
//!
//! Runs the per-output rungs (`r.p.`, `0,1,X`, `loc.`) through
//! [`bbec_core::ParallelChecker`] at several job counts, asserts that the
//! verdict is identical at every job count, and writes the measurements as
//! a schema-valid JSONL trace stream (validate with the `trace-schema`
//! binary of `bbec-trace`).
//!
//! ```text
//! cargo run --release -p bbec-bench --bin parallel -- [--quick] [--out FILE]
//! ```
//!
//! `--quick` shrinks the circuit and repetition count for CI smoke runs;
//! `--out` defaults to `BENCH_parallel.json`.
//!
//! Speedup is relative to `--jobs 1` (the identical shard decomposition
//! executed sequentially). A multi-core host is required to observe one;
//! every row records `host_parallelism` so archived numbers are honest
//! about the machine they came from.

use bbec_core::{plan_shards, CheckSettings, Method, ParallelChecker, PartialCircuit, Verdict};
use bbec_netlist::generators;
use bbec_trace::{AttrValue, Tracer};
use std::time::Instant;

struct Row {
    jobs: usize,
    millis: f64,
    verdict: Verdict,
    speedup: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_parallel.json".to_string());

    // 16 independent blocks -> 16 outputs -> 16 shards, one per output.
    let (blocks, inputs_per_block, gates_per_block, reps) =
        if quick { (16, 6, 40, 1) } else { (16, 13, 420, 3) };
    let spec = generators::disjoint_cones(blocks, inputs_per_block, gates_per_block, 0xBBEC);
    let partial = PartialCircuit::black_box_gates(&spec, &[0])
        .expect("gate 0 black-boxes into a valid partial");
    let shards = plan_shards(&spec, &partial).expect("planning succeeds").len();
    let host = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let settings = CheckSettings { dynamic_reordering: false, ..CheckSettings::default() };
    let per_output = vec![Method::RandomPatterns, Method::Symbolic01X, Method::Local];

    println!(
        "{}: {} outputs, {} gates, {} shards, host parallelism {}",
        spec.name(),
        spec.outputs().len(),
        spec.gates().len(),
        shards,
        host
    );
    if host < 4 {
        println!("note: host has {host} core(s); speedup needs a multi-core machine");
    }

    let mut rows: Vec<Row> = Vec::new();
    for jobs in [1usize, 2, 4] {
        let checker =
            ParallelChecker { settings: settings.clone(), jobs, stages: per_output.clone() };
        let mut best = f64::INFINITY;
        let mut verdict = None;
        for _ in 0..reps {
            let t = Instant::now();
            let report = checker.run(&spec, &partial).expect("benchmark check succeeds");
            best = best.min(t.elapsed().as_secs_f64() * 1e3);
            verdict = Some(report.verdict());
        }
        let verdict = verdict.expect("at least one repetition ran");
        let baseline = rows.first().map(|r: &Row| r.millis).unwrap_or(best);
        let speedup = baseline / best;
        println!("  jobs {jobs}: {best:8.2} ms  ({speedup:.2}x vs jobs=1)  {verdict:?}");
        rows.push(Row { jobs, millis: best, verdict, speedup });
    }

    for r in &rows {
        assert_eq!(
            r.verdict, rows[0].verdict,
            "job count must never change the verdict (jobs={})",
            r.jobs
        );
    }

    let tracer = Tracer::new();
    for r in &rows {
        tracer.record_event(
            "parallel_bench",
            vec![
                ("circuit".to_string(), AttrValue::from(spec.name())),
                ("outputs".to_string(), spec.outputs().len().into()),
                ("gates".to_string(), spec.gates().len().into()),
                ("shards".to_string(), shards.into()),
                ("host_parallelism".to_string(), host.into()),
                ("jobs".to_string(), r.jobs.into()),
                ("millis".to_string(), r.millis.into()),
                ("speedup_vs_jobs1".to_string(), r.speedup.into()),
                (
                    "verdict".to_string(),
                    AttrValue::from(if r.verdict == Verdict::ErrorFound {
                        "error"
                    } else {
                        "no_error"
                    }),
                ),
            ],
        );
    }
    let four = rows.iter().find(|r| r.jobs == 4).expect("jobs=4 measured");
    tracer.record_event(
        "parallel_bench_summary",
        vec![
            ("circuit".to_string(), AttrValue::from(spec.name())),
            ("quick".to_string(), quick.into()),
            ("host_parallelism".to_string(), host.into()),
            ("speedup_4_workers".to_string(), four.speedup.into()),
            ("identical_verdicts".to_string(), true.into()),
        ],
    );
    std::fs::write(&out, tracer.finish().to_jsonl()).expect("write benchmark output");
    println!("wrote {out}");
}
