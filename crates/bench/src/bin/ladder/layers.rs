//! The traced run behind the per-layer metrics (`--trace 1`).
//!
//! Every instance (or request) is checked twice per pass, untraced and then
//! with the tracer enabled in `CheckSettings`; the ratio of the two batch
//! times is `trace.overhead_pct`. Per-rung numbers come from the ladder
//! report (served responses on `serve_edits`) and from the spans the
//! engine already emits (`bdd.gc`, `bdd.reorder`, `core.ladder_rung`,
//! `core.parallel_phase`, `service.cone`). Layers the report does not split
//! are timed by calling their public functions on the same input: BLIF
//! parse, request parse, instance hash, sweep, shard planning, spec and
//! implementation BDD build, and witness validation. Ladder workloads also
//! submit their first instances to a resident `Service` twice (a miss, then
//! a full hit), so the `service.*` rows measure the same inputs served.

use crate::golden::Golden;
use crate::measure::{self, Answer, Outcome, Tally};
use crate::workloads::{self, LadderSet, Workload};
use crate::{median, Metric};
use bbec_core::checks::{LadderReport, StageResult};
use bbec_core::service::{protocol, Reply, Service, ServiceConfig};
use bbec_core::{
    ledger, plan_shards, preprocess, validate_counterexample, CheckSettings, Counterexample,
    ParallelChecker, PartialCircuit, SymbolicContext,
};
use bbec_netlist::{blif, Circuit};
use bbec_trace::json::Value;
use bbec_trace::{AttrValue, Trace, TraceEvent, Tracer};
use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Ladder instances also submitted to a resident service.
const SERVED_SAMPLE: usize = 6;
/// The ladder's rungs: paper label and metric key.
const RUNGS: [(&str, &str); 5] =
    [("r.p.", "rp"), ("0,1,X", "01x"), ("loc.", "local"), ("oe", "oe"), ("ie", "ie")];

#[derive(Default, Clone, Copy)]
struct Rung {
    ms: f64,
    runs: u64,
    errors: u64,
    budget_exceeded: u64,
    steps: u64,
    peak: u64,
    hits: u64,
    misses: u64,
    gc: u64,
    reorder: u64,
}

#[derive(Default)]
struct Layers {
    rungs: [Rung; 5],
    parse_ms: f64,
    protocol_ms: f64,
    hash_ms: f64,
    sweep_ms: f64,
    gates_before: usize,
    gates_after: usize,
    plan_ms: f64,
    shards: usize,
    inputs: usize,
    spec_ms: f64,
    impl_ms: f64,
    spec_nodes: usize,
    spec_builds: usize,
    quant_ms: f64,
    cex_ms: f64,
    witnesses: u64,
    phase_a_us: u64,
    reorder_us: u64,
    gc_us: u64,
    patterns: u64,
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    cones: u64,
    cones_reused: u64,
    fresh_steps: u64,
    joint_requests: u64,
    untraced: Vec<Vec<f64>>,
    traced: Vec<Vec<f64>>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn rung_index(label: &str) -> Option<usize> {
    RUNGS.iter().position(|(l, _)| *l == label)
}

fn is_cached(response: &Value) -> bool {
    matches!(response.get("cached"), Some(Value::Bool(true)))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key).and_then(Value::as_f64).unwrap_or(0.0)
}

/// The `rungs` array of a served response, with each rung's index.
fn rung_records(response: &Value) -> impl Iterator<Item = (usize, &Value)> {
    let rungs = response.get("rungs").and_then(Value::as_array).unwrap_or_default();
    rungs
        .iter()
        .filter_map(|r| Some((r.get("method").and_then(Value::as_str).and_then(rung_index)?, r)))
}

impl Layers {
    fn with_inputs(n: usize) -> Layers {
        Layers { untraced: vec![Vec::new(); n], traced: vec![Vec::new(); n], ..Layers::default() }
    }

    /// Times the layers the report does not split, on one checked input.
    /// The BDD builds are timed only for inputs whose check ran a BDD rung
    /// (`symbolic`); returns their spec plus implementation time in ms.
    fn time_layers(
        &mut self,
        id: &str,
        spec: &Circuit,
        partial: &PartialCircuit,
        witness: Option<&Counterexample>,
        symbolic: bool,
    ) -> f64 {
        let settings = measure::check_settings();
        let spec_text = blif::write(spec);
        let impl_text = blif::write(partial.circuit());
        let t = Instant::now();
        let parsed = blif::parse(&spec_text).and_then(|_| blif::parse_allow_undriven(&impl_text));
        self.parse_ms += ms_since(t);
        parsed.expect("written BLIF parses");
        let line = workloads::check_line(id, &spec_text, &impl_text);
        let t = Instant::now();
        let request = protocol::parse_request(&line);
        self.protocol_ms += ms_since(t);
        request.expect("a generated request parses");
        let t = Instant::now();
        black_box((ledger::instance_hash(spec, partial), ledger::instance_hash_alt(spec, partial)));
        self.hash_ms += ms_since(t);

        let t = Instant::now();
        let pre = preprocess::preprocess(spec, partial, &settings)
            .expect("the sweep keeps the pair valid");
        self.sweep_ms += ms_since(t);
        self.gates_before += pre.report.spec.gates_before + pre.report.imp.gates_before;
        self.gates_after += pre.report.spec.gates_after + pre.report.imp.gates_after;
        let t = Instant::now();
        let shards = plan_shards(&pre.spec, &pre.partial).expect("swept pairs plan");
        self.plan_ms += ms_since(t);
        self.shards += shards.len();
        self.inputs += 1;

        if let Some(cex) = witness {
            let t = Instant::now();
            black_box(validate_counterexample(spec, partial, cex).is_ok());
            self.cex_ms += ms_since(t);
            self.witnesses += 1;
        }
        if !symbolic {
            return 0.0;
        }
        let t = Instant::now();
        let mut ctx = SymbolicContext::new(&pre.spec, &settings);
        let outputs = ctx.build_outputs(&pre.spec);
        let spec_ms = ms_since(t);
        if let Ok(outputs) = &outputs {
            self.spec_nodes += ctx.manager.node_count_many(outputs);
            self.spec_builds += 1;
        }
        let t = Instant::now();
        black_box(ctx.build_partial(&pre.partial).is_ok());
        let impl_ms = ms_since(t);
        self.spec_ms += spec_ms;
        self.impl_ms += impl_ms;
        spec_ms + impl_ms
    }

    /// Per-rung counts of one ladder report (times come from the trace).
    fn absorb_report(&mut self, report: &LadderReport) {
        for stage in &report.stages {
            let Some(i) = rung_index(stage.method().label()) else { continue };
            let rung = &mut self.rungs[i];
            rung.runs += 1;
            let stats = match stage {
                StageResult::Finished(o) => {
                    rung.errors += u64::from(o.is_error());
                    o.stats
                }
                StageResult::BudgetExceeded { stats, .. } => {
                    rung.budget_exceeded += 1;
                    stats.unwrap_or_default()
                }
            };
            rung.steps += stats.apply_steps;
            rung.peak = rung.peak.max(stats.peak_check_nodes as u64);
            rung.hits += stats.cache_hits;
            rung.misses += stats.cache_misses;
        }
    }

    /// Folds one served response into the `service.*` rows.
    fn absorb_service(&mut self, response: &Value, ms: f64) {
        let cached = is_cached(response);
        if cached {
            self.hit_ms.push(ms);
        } else {
            self.miss_ms.push(ms);
        }
        self.cones += num(response, "cones") as u64;
        self.cones_reused += num(response, "cones_reused") as u64;
        self.fresh_steps += num(response, "apply_steps") as u64;
        let joint = rung_records(response).any(|(i, _)| matches!(RUNGS[i].1, "oe" | "ie"));
        self.joint_requests += u64::from(joint && !cached);
    }

    /// Per-rung counts of a response computed (not replayed from the
    /// cache) by this request.
    fn absorb_rungs(&mut self, response: &Value) {
        if is_cached(response) {
            return;
        }
        for (i, r) in rung_records(response) {
            let rung = &mut self.rungs[i];
            rung.runs += 1;
            rung.errors += u64::from(matches!(r.get("error_found"), Some(Value::Bool(true))));
            rung.budget_exceeded +=
                u64::from(matches!(r.get("finished"), Some(Value::Bool(false))));
            rung.steps += num(r, "apply_steps") as u64;
            rung.peak = rung.peak.max(num(r, "peak_nodes") as u64);
            rung.hits += num(r, "cache_hits") as u64;
            rung.misses += num(r, "cache_misses") as u64;
        }
    }

    /// Rung wall times (`core.ladder_rung` spans, BDD builds included),
    /// GC and reorder self times and passes per rung, phase-A time and
    /// simulated patterns from one finished trace. The input-exact rung's
    /// time minus `build_ms` (the directly timed spec and implementation
    /// builds) is its quantification share, `checks.ie.quant_ms`.
    fn absorb_trace(&mut self, trace: &Trace, build_ms: f64) {
        let mut spans: HashMap<u64, (&str, Option<u64>, Option<&str>)> = HashMap::new();
        let mut child_us: HashMap<u64, u64> = HashMap::new();
        for event in trace.events() {
            match event {
                TraceEvent::Span { name, id, parent, dur_us, attrs, .. } => {
                    let method = attrs.iter().find_map(|(k, v)| match v {
                        AttrValue::Str(s) if k == "method" => Some(s.as_str()),
                        _ => None,
                    });
                    spans.insert(*id, (name, *parent, method));
                    if let Some(p) = parent {
                        *child_us.entry(*p).or_default() += dur_us;
                    }
                }
                TraceEvent::Counter { name, value, .. } if name == "sim.patterns" => {
                    self.patterns += value;
                }
                _ => {}
            }
        }
        let mut ie_us = 0;
        for event in trace.events() {
            let TraceEvent::Span { name, id, parent, dur_us, .. } = event else { continue };
            match *name {
                "core.ladder_rung" => {
                    if let Some(i) = spans[id].2.and_then(rung_index) {
                        self.rungs[i].ms += *dur_us as f64 / 1e3;
                        if RUNGS[i].1 == "ie" {
                            ie_us += dur_us;
                        }
                    }
                }
                "core.parallel_phase" | "service.cone" => self.phase_a_us += dur_us,
                "bdd.gc" | "bdd.reorder" => {
                    let self_us = dur_us.saturating_sub(child_us.get(id).copied().unwrap_or(0));
                    let is_gc = *name == "bdd.gc";
                    *(if is_gc { &mut self.gc_us } else { &mut self.reorder_us }) += self_us;
                    let mut up = *parent;
                    while let Some(p) = up {
                        let Some(&(pname, pparent, method)) = spans.get(&p) else { break };
                        if pname == "core.ladder_rung" {
                            if let Some(i) = method.and_then(rung_index) {
                                let rung = &mut self.rungs[i];
                                *(if is_gc { &mut rung.gc } else { &mut rung.reorder }) += 1;
                            }
                            break;
                        }
                        up = pparent;
                    }
                }
                _ => {}
            }
        }
        if ie_us > 0 {
            self.quant_ms += (ie_us as f64 / 1e3 - build_ms).max(0.0);
        }
    }

    fn metrics(&self) -> Vec<Metric> {
        let pct = |part: f64, whole: f64| if whole > 0.0 { 100.0 * part / whole } else { 0.0 };
        let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
        let rp = &self.rungs[0];
        let mut m = vec![
            Metric::new("netlist.blif_parse_ms", "ms", self.parse_ms),
            Metric::new("service.protocol_parse_ms", "ms", self.protocol_ms),
            Metric::new("service.instance_hash_ms", "ms", self.hash_ms),
            Metric::new("preprocess.sweep_ms", "ms", self.sweep_ms),
            Metric::new(
                "preprocess.gates_removed_pct",
                "%",
                pct(
                    self.gates_before.saturating_sub(self.gates_after) as f64,
                    self.gates_before as f64,
                ),
            ),
            Metric::new("parallel.plan_ms", "ms", self.plan_ms),
            Metric::new("parallel.shards_mean", "count", mean(self.shards as f64, self.inputs)),
            Metric::new("parallel.phase_a_ms", "ms", self.phase_a_us as f64 / 1e3),
            Metric::new("cex.validate_ms", "ms", self.cex_ms),
            Metric::new("cex.witnesses", "count", self.witnesses as f64),
            Metric::new("checks.rp.ms", "ms", rp.ms),
            Metric::new(
                "checks.rp.patterns_per_s",
                "1/s",
                if rp.ms > 0.0 { self.patterns as f64 / (rp.ms / 1e3) } else { 0.0 },
            ),
            Metric::new("symbolic.spec_build_ms", "ms", self.spec_ms),
            Metric::new("symbolic.impl_build_ms", "ms", self.impl_ms),
            Metric::new(
                "symbolic.spec_nodes",
                "count",
                mean(self.spec_nodes as f64, self.spec_builds),
            ),
        ];
        let mut bdd_ms = 0.0;
        let mut bdd_steps = 0;
        for ((_, key), r) in RUNGS.iter().zip(&self.rungs).skip(1) {
            bdd_ms += r.ms;
            bdd_steps += r.steps;
            let name = |field: &str| format!("checks.{key}.{field}");
            m.extend([
                Metric::new(name("ms"), "ms", r.ms),
                Metric::new(name("runs"), "count", r.runs as f64),
                Metric::new(name("decided_pct"), "%", pct(r.errors as f64, r.runs as f64)),
                Metric::new(name("budget_exceeded"), "count", r.budget_exceeded as f64),
                Metric::new(name("apply_steps"), "count", r.steps as f64),
                Metric::new(name("peak_nodes"), "count", r.peak as f64),
                Metric::new(
                    name("cache_hit_pct"),
                    "%",
                    pct(r.hits as f64, (r.hits + r.misses) as f64),
                ),
                Metric::new(name("gc_passes"), "count", r.gc as f64),
                Metric::new(name("reorder_passes"), "count", r.reorder as f64),
            ]);
        }
        let (reorder_ms, gc_ms) = (self.reorder_us as f64 / 1e3, self.gc_us as f64 / 1e3);
        let work_s = (bdd_ms - reorder_ms - gc_ms) / 1e3;
        let untraced: f64 = self.untraced.iter().filter(|s| !s.is_empty()).map(|s| median(s)).sum();
        let traced: f64 = self.traced.iter().filter(|s| !s.is_empty()).map(|s| median(s)).sum();
        let requests = self.hit_ms.len() + self.miss_ms.len();
        m.extend([
            Metric::new("checks.ie.quant_ms", "ms", self.quant_ms),
            Metric::new("bdd.reorder_ms", "ms", reorder_ms),
            Metric::new("bdd.gc_ms", "ms", gc_ms),
            Metric::new("bdd.reorder_share_pct", "%", pct(reorder_ms, bdd_ms)),
            Metric::new(
                "bdd.steps_per_s",
                "1/s",
                if work_s > 0.0 { bdd_steps as f64 / work_s } else { 0.0 },
            ),
            Metric::new("service.hit_ms", "ms", median(&self.hit_ms)),
            Metric::new("service.miss_ms", "ms", median(&self.miss_ms)),
            Metric::new(
                "service.full_hit_pct",
                "%",
                pct(self.hit_ms.len() as f64, requests as f64),
            ),
            Metric::new(
                "service.cone_reuse_pct",
                "%",
                pct(self.cones_reused as f64, self.cones as f64),
            ),
            Metric::new("service.fresh_apply_steps", "count", self.fresh_steps as f64),
            Metric::new("service.joint_rung_requests", "count", self.joint_requests as f64),
            Metric::new("trace.overhead_pct", "%", pct(traced - untraced, untraced)),
        ]);
        m
    }
}

/// The traced run of a ladder workload.
pub fn ladder(
    workload: Workload,
    seed: u64,
    quick: bool,
    window: Duration,
    golden: Option<&Golden>,
) -> Outcome {
    let set = workloads::ladder_set(workload, seed, quick);
    let plain = ParallelChecker::new(measure::check_settings(), measure::JOBS);
    measure::warm_up(&set, &plain);

    let mut layers = Layers::with_inputs(set.instances.len());
    let mut tally = Tally::default();
    let start = Instant::now();
    let mut first_pass = true;
    loop {
        let pass = Instant::now();
        for (i, inst) in set.instances.iter().enumerate() {
            let spec = set.spec(inst);
            let t = Instant::now();
            let _ = plain.run(spec, &inst.partial);
            layers.untraced[i].push(ms_since(t));

            let tracer = Tracer::new();
            let traced = ParallelChecker::new(
                CheckSettings { tracer: tracer.clone(), ..measure::check_settings() },
                measure::JOBS,
            );
            let t = Instant::now();
            let result = traced.run(spec, &inst.partial);
            layers.traced[i].push(ms_since(t));
            if first_pass {
                let report = result.as_ref().ok();
                let witness = report.and_then(LadderReport::counterexample);
                let symbolic = report.is_some_and(|r| r.stages.len() > 1);
                let build_ms = layers.time_layers(&inst.id, spec, &inst.partial, witness, symbolic);
                if let Some(report) = report {
                    layers.absorb_report(report);
                }
                layers.absorb_trace(&tracer.finish(), build_ms);
                tally.judge_check(inst, spec, &result, golden);
            }
        }
        if first_pass {
            served_sample(&mut layers, &mut tally, &set);
            first_pass = false;
        }
        if start.elapsed() + pass.elapsed() > window {
            break;
        }
    }
    Outcome { metrics: layers.metrics(), tally, latencies: Vec::new() }
}

/// Submits the first [`SERVED_SAMPLE`] instances to a fresh service twice.
fn served_sample(layers: &mut Layers, tally: &mut Tally, set: &LadderSet) {
    let service = Service::new(ServiceConfig::default());
    for inst in set.instances.iter().take(SERVED_SAMPLE) {
        let spec = set.spec(inst);
        let line = workloads::check_line(
            &inst.id,
            &blif::write(spec),
            &blif::write(inst.partial.circuit()),
        );
        for _ in 0..2 {
            let t = Instant::now();
            let reply = service.handle_line(&line);
            let ms = ms_since(t);
            let Reply::Line(text) = reply else { unreachable!("a check request never says bye") };
            match Answer::of_response(&text) {
                Ok((answer, value)) => {
                    layers.absorb_service(&value, ms);
                    tally.judge(&inst.id, inst.expect, &answer, spec, &inst.partial, None);
                }
                Err(why) => tally.unanswered(&inst.id, format!("served: {why}")),
            }
        }
    }
}

/// The traced run of `serve_edits`: every request goes to an untraced and
/// a traced service, both primed and fed the same stream.
pub fn serve(seed: u64, quick: bool, window: Duration, golden: Option<&Golden>) -> Outcome {
    let set = workloads::serve_set(seed, quick);
    let tracer = Tracer::new();
    let plain = measure::primed_service(&set, CheckSettings::default());
    let traced = measure::primed_service(
        &set,
        CheckSettings { tracer: tracer.clone(), ..CheckSettings::default() },
    );
    drop(tracer.finish()); // the priming request is set-up, not measured

    let mut layers = Layers::with_inputs(set.requests.len());
    let mut tally = Tally::default();
    let start = Instant::now();
    for (k, req) in set.requests.iter().enumerate() {
        if k > 0 && k % 6 == 0 && start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let _ = plain.handle_line(&req.line);
        let plain_ms = ms_since(t);
        layers.untraced[k].push(plain_ms);
        let t = Instant::now();
        let reply = traced.handle_line(&req.line);
        layers.traced[k].push(ms_since(t));
        measure::judge_reply(&mut tally, req, &set.spec, &reply, golden);
        let Reply::Line(text) = reply else { continue };
        let Ok((answer, value)) = Answer::of_response(&text) else { continue };
        let symbolic = !is_cached(&value) && rung_records(&value).count() > 1;
        let witness = answer.witness.as_ref();
        let build_ms = layers.time_layers(&req.id, &set.spec, &req.partial, witness, symbolic);
        layers.absorb_service(&value, plain_ms);
        layers.absorb_rungs(&value);
        layers.absorb_trace(&tracer.finish(), build_ms);
    }
    Outcome { metrics: layers.metrics(), tally, latencies: Vec::new() }
}
