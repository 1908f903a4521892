//! Parallel check engine: cone-of-influence output sharding across
//! per-worker BDD managers.
//!
//! The per-output rungs of the paper's ladder (random patterns, symbolic
//! 0,1,X, local check) decide each primary output independently, so the
//! output set can be partitioned into **shards** — groups of outputs whose
//! fanin cones overlap — and each shard checked on its own worker thread
//! with a private [`bbec_bdd`] manager. Nothing is shared between workers:
//! every shard gets its own cone-of-influence subcircuits (spec and
//! implementation side), its own manager, computed cache and resource
//! budget, so no locks sit on the BDD hot path.
//!
//! The joint rungs (output-exact, input-exact and the SAT stages) quantify
//! over *all* outputs at once and cannot be sharded; they run sequentially
//! on the full circuits after the sharded phase, exactly as in
//! [`CheckLadder`].
//!
//! ## Determinism
//!
//! The engine runs the *identical* sharded pipeline regardless of the job
//! count — `jobs = 1` executes the same shard decomposition sequentially.
//! Shards are planned deterministically (union-find over shared cone
//! signals, ordered by lowest member output), every shard runs the same
//! mini-ladder with the same seed, and results are merged in shard order
//! after all workers join. Verdicts and counterexamples are therefore
//! bit-identical across job counts; only wall-clock time changes.
//!
//! ## Soundness of the shard checks
//!
//! A shard's spec subcircuit contains the full fanin cone of its outputs,
//! so those outputs are functions of the shard's inputs alone; a shard
//! counterexample extends to a full-circuit counterexample by assigning
//! the remaining inputs arbitrarily (the engine uses `false`). Black boxes
//! are clipped to the shard: a box contributes the outputs that feed the
//! shard's cone (treated as free unknowns by the per-output rungs, which
//! never read box *input* pins — only the input-exact check does, and it
//! never runs on shards).
//!
//! ## Cone store
//!
//! The check service runs this same pipeline over its cone cache
//! ([`ConeStore`]): a cone whose subcircuits hash to a stored report
//! replays that report instead of running, and only the other cones run.
//! The CLI passes no store.

use crate::checks::{CheckLadder, LadderReport, StageResult};
use crate::partial::{BlackBox, PartialCircuit};
use crate::report::{
    CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats, Verdict,
};
use bbec_netlist::Circuit;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One unit of sharded work: a group of outputs with overlapping cones and
/// the extracted spec/implementation subcircuits that decide them.
#[derive(Debug, Clone)]
pub struct Shard {
    /// Parent output positions this shard checks (ascending).
    pub output_positions: Vec<usize>,
    /// Parent input positions both shard circuits expose, ascending. The
    /// spec and implementation sides share this interface by construction.
    pub input_positions: Vec<usize>,
    /// Cone-of-influence subcircuit of the specification.
    pub spec: Circuit,
    /// Cone-of-influence partial implementation with clipped black boxes.
    pub partial: PartialCircuit,
}

/// Per-cone mini-ladder reports kept between runs (the check service's
/// cone cache), keyed by a cone's two structural hashes:
/// [`crate::ledger::instance_hash`] and [`crate::ledger::instance_hash_alt`]
/// of its shard subcircuits.
pub(crate) trait ConeStore {
    /// The stored report of a cone, if any.
    fn get(&self, key: (u64, u64)) -> Option<LadderReport>;
    /// Keeps a freshly computed report that exceeded no budget.
    fn put(&self, key: (u64, u64), report: &LadderReport);
}

/// The result of [`ParallelChecker::run_with`].
pub(crate) struct Run {
    pub(crate) report: LadderReport,
    /// One flag per planned cone, in shard order: whether its report came
    /// from the store instead of running.
    pub(crate) reused: Vec<bool>,
    /// Apply steps of every rung that ran: the fresh cones' mini-ladders
    /// and the joint rungs. Stored cones cost nothing.
    pub(crate) fresh_steps: u64,
}

/// Runs the check ladder with the per-output rungs sharded across worker
/// threads, each owning a private BDD manager.
///
/// Produces the same [`LadderReport`] shape as [`CheckLadder`]: one
/// [`StageResult`] per executed method, stopping at the first error. The
/// per-output stages carry resource statistics merged across shards
/// (steps/hits summed, peaks and durations maxed).
#[derive(Debug, Clone)]
pub struct ParallelChecker {
    /// Shared settings; the tracer forks one child per shard and the
    /// absolute [`CheckSettings::deadline`] is honored by every worker.
    pub settings: CheckSettings,
    /// Worker threads for the sharded phase (`0` and `1` both mean
    /// sequential in-place execution). The job count never changes
    /// verdicts, only wall-clock time.
    pub jobs: usize,
    /// The stages to run, in ladder order. Per-output stages
    /// (`r.p.`, `0,1,X`, `loc.`) form the sharded phase; all others run
    /// jointly on the full circuits afterwards.
    pub stages: Vec<Method>,
}

impl ParallelChecker {
    /// A checker with the paper's default five-rung ladder.
    pub fn new(settings: CheckSettings, jobs: usize) -> Self {
        ParallelChecker { settings, jobs, stages: CheckLadder::default().stages }
    }

    /// Whether a method decides each output independently and can shard.
    pub fn is_per_output(method: Method) -> bool {
        matches!(method, Method::RandomPatterns | Method::Symbolic01X | Method::Local)
    }

    /// Runs the ladder: sharded per-output phase first, joint phase after.
    ///
    /// # Errors
    ///
    /// Propagates the first non-budget failure, in shard order for the
    /// sharded phase ([`CheckError`]); budget-exceeded rungs are recorded
    /// in the report and do not fail the run.
    pub fn run(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
    ) -> Result<LadderReport, CheckError> {
        self.run_with(spec, partial, None).map(|run| run.report)
    }

    /// [`ParallelChecker::run`] over an optional cone store: cones the
    /// store holds replay their stored reports instead of running, and
    /// fresh reports that exceeded no budget are stored. The merge is
    /// deterministic in shard order, so stored and fresh reports give the
    /// same verdict, deciding method and witness as a run without a store.
    ///
    /// # Errors
    ///
    /// As [`ParallelChecker::run`].
    pub(crate) fn run_with(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
        store: Option<&dyn ConeStore>,
    ) -> Result<Run, CheckError> {
        crate::checks::validate_interface(spec, partial)?;
        let pre;
        let (spec, partial) = if self.settings.sweep {
            pre = crate::preprocess::preprocess(spec, partial, &self.settings)?;
            (&pre.spec, &pre.partial)
        } else {
            (spec, partial)
        };
        let phase_a: Vec<Method> =
            self.stages.iter().copied().filter(|&m| Self::is_per_output(m)).collect();
        let phase_b: Vec<Method> =
            self.stages.iter().copied().filter(|&m| !Self::is_per_output(m)).collect();

        let mut run =
            Run { report: LadderReport { stages: Vec::new() }, reused: Vec::new(), fresh_steps: 0 };
        let mut error_found = false;
        if !phase_a.is_empty() {
            let shards = plan_shards(spec, partial)?;
            if !shards.is_empty() {
                error_found =
                    self.run_sharded(spec, partial, &shards, &phase_a, store, &mut run)?;
            }
        }
        if !error_found && !phase_b.is_empty() {
            let ladder = CheckLadder { settings: self.settings.clone(), stages: phase_b };
            let stages = ladder.run(spec, partial)?.stages;
            run.fresh_steps += stages.iter().map(stage_steps).sum::<u64>();
            run.report.stages.extend(stages);
        }
        Ok(run)
    }

    /// Runs the per-output mini-ladder on every shard the store lacks,
    /// merges fresh and stored results into `run` and reports whether an
    /// error stopped the ladder.
    fn run_sharded(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
        shards: &[Shard],
        phase_a: &[Method],
        store: Option<&dyn ConeStore>,
        run: &mut Run,
    ) -> Result<bool, CheckError> {
        // Stored cones replay their reports; only the others run.
        let keys: Vec<(u64, u64)> = match store {
            Some(_) => shards
                .iter()
                .map(|sh| {
                    let h = crate::ledger::instance_hash(&sh.spec, &sh.partial);
                    (h, crate::ledger::instance_hash_alt(&sh.spec, &sh.partial))
                })
                .collect(),
            None => Vec::new(),
        };
        let mut reports: Vec<Option<LadderReport>> =
            (0..shards.len()).map(|i| store.and_then(|s| s.get(keys[i]))).collect();
        run.reused = reports.iter().map(Option::is_some).collect();
        let fresh: Vec<usize> = (0..shards.len()).filter(|&i| reports[i].is_none()).collect();

        let phase_span = self.settings.tracer.span("core.parallel_phase");
        phase_span.set_attr("shards", shards.len());
        let jobs = self.jobs.clamp(1, fresh.len().max(1));
        phase_span.set_attr("jobs", jobs);

        // One child tracer and one ladder per fresh shard, fixed before any
        // worker starts, so the schedule cannot influence what runs.
        let children: Vec<bbec_trace::Tracer> =
            fresh.iter().map(|_| self.settings.tracer.child()).collect();
        let ladders: Vec<CheckLadder> = children
            .iter()
            .zip(&fresh)
            .map(|(child, &i)| CheckLadder {
                settings: CheckSettings {
                    tracer: child.clone(),
                    // Each worker reports heartbeats under its own region;
                    // the scoped handles share one engine-wide rate gate
                    // and step counter, so the emission rate stays bounded
                    // regardless of the job count.
                    progress: self.settings.progress.scoped(&format!("shard {i}")),
                    ..self.settings.clone()
                },
                stages: phase_a.to_vec(),
            })
            .collect();
        let run_one = |k: usize| ladders[k].run(&shards[fresh[k]].spec, &shards[fresh[k]].partial);

        let mut results: Vec<Option<Result<LadderReport, CheckError>>> = Vec::new();
        if jobs <= 1 {
            results.extend((0..fresh.len()).map(|k| Some(run_one(k))));
        } else {
            let next = AtomicUsize::new(0);
            let slots: Mutex<Vec<Option<Result<LadderReport, CheckError>>>> =
                Mutex::new((0..fresh.len()).map(|_| None).collect());
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| loop {
                        let k = next.fetch_add(1, Ordering::SeqCst);
                        if k >= fresh.len() {
                            break;
                        }
                        let result = run_one(k);
                        slots.lock().expect("a worker panicked")[k] = Some(result);
                    });
                }
            });
            results = slots.into_inner().expect("a worker panicked");
        }

        // Graft every worker's span tree under one parent span per shard,
        // in shard order, so the merged trace is schedule-independent.
        for (child, &i) in children.iter().zip(&fresh) {
            let span = self.settings.tracer.span("core.parallel_shard");
            span.set_attr("shard", i);
            span.set_attr("outputs", shards[i].output_positions.len());
            span.set_attr("inputs", shards[i].input_positions.len());
            self.settings.tracer.adopt(&child.finish());
        }
        drop(phase_span);

        // Unwrap shard results; the first non-budget error (by shard
        // index) fails the whole run, exactly as in the sequential ladder.
        for (result, &i) in results.into_iter().zip(&fresh) {
            let report = result.expect("every shard was scheduled")?;
            run.fresh_steps += report.stages.iter().map(stage_steps).sum::<u64>();
            if let Some(store) = store {
                if !report.stages.iter().any(StageResult::is_budget_exceeded) {
                    store.put(keys[i], &report);
                }
            }
            reports[i] = Some(report);
        }
        let reports: Vec<LadderReport> =
            reports.into_iter().map(|r| r.expect("every shard ran or was stored")).collect();
        let stages = &mut run.report.stages;
        merge_shard_reports(spec, partial, shards, &reports, &run.reused, phase_a, stages)
    }
}

/// Merges per-shard mini-ladder reports into one stage list per method.
/// Returns `Ok(true)` when an error stops the ladder. Stored reports
/// (`reused`) add their verdicts, witnesses and abort reasons but no cost:
/// a merged rung's statistics are those of the work this run did.
///
/// # Errors
///
/// [`CheckError::CounterexampleRejected`] if a shard witness, lifted to the
/// parent input space, fails concrete replay against the *full* circuits —
/// the end-to-end guarantee that sharding and lifting preserved it.
fn merge_shard_reports(
    spec: &Circuit,
    partial: &PartialCircuit,
    shards: &[Shard],
    reports: &[LadderReport],
    reused: &[bool],
    phase_a: &[Method],
    stages: &mut Vec<StageResult>,
) -> Result<bool, CheckError> {
    for (mi, &method) in phase_a.iter().enumerate() {
        // A shard report is shorter than `mi + 1` only if the shard found
        // an error at an earlier rung — in which case the merge stopped
        // there and this loop iteration is never reached.
        let entries: Vec<&StageResult> = reports.iter().filter_map(|r| r.stages.get(mi)).collect();
        let fresh: Vec<&StageResult> =
            entries.iter().zip(reused).filter(|(_, &r)| !r).map(|(&e, _)| e).collect();
        let stats = merged_stats(&fresh);

        let error = entries.iter().enumerate().find_map(|(si, e)| match e {
            StageResult::Finished(o) if o.is_error() => Some((si, o)),
            _ => None,
        });
        if let Some((si, outcome)) = error {
            // `entries[si]` belongs to `shards[si]`: every shard that
            // reached rung `mi` has an entry, and those that stopped
            // earlier would have stopped this merge at that rung.
            let cex = outcome
                .counterexample
                .as_ref()
                .map(|c| lift_counterexample(&shards[si], c, spec.inputs().len()));
            if let Some(c) = &cex {
                crate::cex::validate_counterexample(spec, partial, c).map_err(|detail| {
                    CheckError::CounterexampleRejected {
                        method,
                        detail: format!("shard {si} lifted witness: {detail}"),
                    }
                })?;
            }
            stages.push(StageResult::Finished(CheckOutcome {
                method,
                verdict: Verdict::ErrorFound,
                counterexample: cex,
                stats,
            }));
            return Ok(true);
        }

        let abort = entries.iter().enumerate().find_map(|(si, e)| match e {
            StageResult::BudgetExceeded { reason, .. } => Some((si, reason.clone())),
            _ => None,
        });
        if let Some((si, reason)) = abort {
            let elapsed = fresh.iter().map(|e| e.elapsed()).max().unwrap_or_default();
            stages.push(StageResult::BudgetExceeded {
                method,
                reason: format!("shard {si}: {reason}"),
                stats: Some(stats),
                elapsed,
            });
            continue;
        }

        stages.push(StageResult::Finished(CheckOutcome {
            method,
            verdict: Verdict::NoErrorFound,
            counterexample: None,
            stats,
        }));
    }
    Ok(false)
}

/// Merges shard stage statistics: additive counters sum, peaks and
/// wall-clock durations take the maximum across shards (the workers ran
/// concurrently, so the slowest shard bounds the phase).
fn merged_stats(entries: &[&StageResult]) -> ResourceStats {
    let mut merged = ResourceStats::default();
    for e in entries {
        let s = match e {
            StageResult::Finished(o) => o.stats,
            StageResult::BudgetExceeded { stats, .. } => match stats {
                Some(s) => *s,
                None => continue,
            },
        };
        merged.impl_nodes += s.impl_nodes;
        merged.peak_check_nodes = merged.peak_check_nodes.max(s.peak_check_nodes);
        merged.duration = merged.duration.max(s.duration);
        merged.apply_steps += s.apply_steps;
        merged.cache_hits += s.cache_hits;
        merged.cache_misses += s.cache_misses;
        merged.gc_passes += s.gc_passes;
        merged.reorder_passes += s.reorder_passes;
        merged.patterns += s.patterns;
    }
    merged
}

/// Apply steps a rung charged, whether it finished or was cut short.
fn stage_steps(stage: &StageResult) -> u64 {
    match stage {
        StageResult::Finished(o) => o.stats.apply_steps,
        StageResult::BudgetExceeded { stats, .. } => stats.map_or(0, |st| st.apply_steps),
    }
}

/// Lifts a shard counterexample to the parent input space: shard inputs
/// keep their values, inputs outside the shard (which cannot influence the
/// shard's outputs) default to `false`.
fn lift_counterexample(
    shard: &Shard,
    cex: &Counterexample,
    parent_inputs: usize,
) -> Counterexample {
    let mut inputs = vec![false; parent_inputs];
    for (k, &pos) in shard.input_positions.iter().enumerate() {
        inputs[pos] = cex.inputs.get(k).copied().unwrap_or(false);
    }
    let output = cex.output.map(|o| shard.output_positions[o]);
    Counterexample { inputs, output }
}

/// Plans the shard decomposition for a spec/implementation pair.
///
/// Two outputs land in the same shard iff their fanin cones share a
/// non-input signal on either side — a shared gate, or a shared black-box
/// output on the implementation side. Primary inputs are shared freely
/// (each shard exposes the union of the spec-side and implementation-side
/// cone inputs, so both sides keep matching interfaces). Shards are
/// ordered by their smallest member output position; the plan is a pure
/// function of the two circuits.
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`] if the output counts differ;
/// [`CheckError::InvalidPartial`] if a clipped shard violates the partial
/// structure (cannot happen for inputs accepted by [`PartialCircuit::new`]).
pub fn plan_shards(spec: &Circuit, partial: &PartialCircuit) -> Result<Vec<Shard>, CheckError> {
    crate::checks::validate_interface(spec, partial)?;
    let n = spec.outputs().len();
    let mut parent = (0..n).collect::<Vec<usize>>();

    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    fn union(parent: &mut [usize], a: usize, b: usize) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            // Deterministic representative: the smaller root wins.
            let (lo, hi) = (ra.min(rb), ra.max(rb));
            parent[hi] = lo;
        }
    }

    for circuit in [spec, partial.circuit()] {
        let mut is_input = vec![false; circuit.signal_count()];
        for &s in circuit.inputs() {
            is_input[s.index()] = true;
        }
        // First output whose cone contains each non-input signal.
        let mut owner: Vec<Option<usize>> = vec![None; circuit.signal_count()];
        let mut claim = |sig: bbec_netlist::SignalId, p: usize, parent: &mut [usize]| {
            if is_input[sig.index()] {
                return;
            }
            match owner[sig.index()] {
                Some(prev) => union(parent, prev, p),
                None => owner[sig.index()] = Some(p),
            }
        };
        for (p, &(_, root)) in circuit.outputs().iter().enumerate() {
            claim(root, p, &mut parent);
            for g in circuit.fanin_cone_gates(&[root]) {
                let gate = &circuit.gates()[g as usize];
                claim(gate.output, p, &mut parent);
                for &inp in &gate.inputs {
                    claim(inp, p, &mut parent);
                }
            }
        }
    }

    // Group outputs by root, ordered by smallest member (== the root,
    // because union always keeps the smaller index as representative).
    let mut groups: Vec<Vec<usize>> = vec![Vec::new(); n];
    for p in 0..n {
        let r = find(&mut parent, p);
        groups[r].push(p);
    }

    let mut shards = Vec::new();
    for group in groups.into_iter().filter(|g| !g.is_empty()) {
        // The union of both sides' cone inputs keeps the interfaces equal.
        let mut input_positions = spec.cone_input_positions(&group);
        input_positions.extend(partial.circuit().cone_input_positions(&group));
        input_positions.sort_unstable();
        input_positions.dedup();

        let spec_cone = spec.cone_subcircuit(&group, &input_positions);
        let impl_cone = partial.circuit().cone_subcircuit(&group, &input_positions);
        debug_assert_eq!(spec_cone.input_positions, impl_cone.input_positions);
        debug_assert_eq!(spec_cone.output_positions, impl_cone.output_positions);

        // Clip each black box to the shard: keep the outputs feeding the
        // cone; inputs are clipped to in-cone signals (the per-output
        // rungs never read them, and clipping keeps the host valid).
        let mut boxes = Vec::new();
        for b in partial.boxes() {
            let outputs: Vec<_> =
                b.outputs.iter().filter_map(|&s| impl_cone.signal_map[s.index()]).collect();
            if outputs.is_empty() {
                continue;
            }
            let inputs: Vec<_> =
                b.inputs.iter().filter_map(|&s| impl_cone.signal_map[s.index()]).collect();
            boxes.push(BlackBox { name: b.name.clone(), inputs, outputs });
        }
        let shard_partial = PartialCircuit::new(impl_cone.circuit, boxes)?;

        shards.push(Shard {
            output_positions: spec_cone.output_positions,
            input_positions: spec_cone.input_positions,
            spec: spec_cone.circuit,
            partial: shard_partial,
        });
    }
    shards.sort_by_key(|s| s.output_positions[0]);
    Ok(shards)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use bbec_netlist::{generators, Mutation, Tv};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cell::RefCell;
    use std::collections::HashMap;

    fn settings() -> CheckSettings {
        CheckSettings {
            dynamic_reordering: false,
            random_patterns: 200,
            ..CheckSettings::default()
        }
    }

    /// Disjoint cones shard one-per-output; shared logic merges shards.
    #[test]
    fn shard_plan_follows_cone_overlap() {
        let spec = generators::disjoint_cones(8, 4, 10, 7);
        let partial = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
        let shards = plan_shards(&spec, &partial).unwrap();
        assert_eq!(shards.len(), 8, "independent blocks shard per output");
        for (i, s) in shards.iter().enumerate() {
            assert_eq!(s.output_positions, vec![i]);
            assert_eq!(s.spec.inputs().len(), s.partial.circuit().inputs().len());
            assert_eq!(s.spec.outputs().len(), 1);
        }

        // An adder chains carries through every output: one shard.
        let adder = generators::ripple_carry_adder(4);
        let p = PartialCircuit::black_box_gates(&adder, &[0]).unwrap();
        let shards = plan_shards(&adder, &p).unwrap();
        assert_eq!(shards.len(), 1, "overlapping cones must merge");
        assert_eq!(shards[0].output_positions, (0..adder.outputs().len()).collect::<Vec<_>>());
    }

    /// The black box lands (clipped) exactly in the shards its outputs feed.
    #[test]
    fn shard_plan_clips_black_boxes() {
        let spec = generators::disjoint_cones(4, 3, 8, 11);
        // Black-box one gate of block 0's cone.
        let g = spec.fanin_cone_gates(&[spec.outputs()[0].1])[0];
        let partial = PartialCircuit::black_box_gates(&spec, &[g]).unwrap();
        let shards = plan_shards(&spec, &partial).unwrap();
        assert_eq!(shards.len(), 4);
        assert_eq!(shards[0].partial.boxes().len(), 1, "box feeds shard 0");
        for s in &shards[1..] {
            assert!(s.partial.boxes().is_empty(), "box must not leak into other shards");
        }
    }

    /// jobs=1 and jobs=4 produce bit-identical reports on a clean design.
    #[test]
    fn job_count_does_not_change_clean_reports() {
        let (spec, partial) = samples::completable_pair();
        let seq = ParallelChecker::new(settings(), 1).run(&spec, &partial).unwrap();
        let par = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        assert_eq!(seq.verdict(), Verdict::NoErrorFound);
        assert_eq!(seq.verdict(), par.verdict());
        assert_eq!(seq.stages.len(), par.stages.len());
        for (a, b) in seq.stages.iter().zip(&par.stages) {
            assert_eq!(a.method(), b.method());
            assert_eq!(a.outcome().map(|o| o.verdict), b.outcome().map(|o| o.verdict));
        }
    }

    /// A shard-found error lifts its counterexample into the parent input
    /// space and the lifted vector actually distinguishes the circuits.
    #[test]
    fn shard_error_lifts_counterexample() {
        let spec = generators::disjoint_cones(6, 4, 12, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let all: Vec<u32> = (0..spec.gates().len() as u32).collect();
        let mutated = Mutation::random(&spec, &all, &mut rng).unwrap().apply(&spec).unwrap();
        let partial = PartialCircuit::black_box_gates(&mutated, &[0]).unwrap();

        let report = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        let sequential = ParallelChecker::new(settings(), 1).run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), sequential.verdict());
        assert_eq!(report.counterexample(), sequential.counterexample());
        let per_output_decided =
            report.deciding_method().is_some_and(ParallelChecker::is_per_output);
        if let (Some(cex), true) = (report.counterexample(), per_output_decided) {
            assert_eq!(cex.inputs.len(), spec.inputs().len(), "cex must be in parent space");
            // A per-output witness exposes an output difference under the
            // partial implementation's ternary semantics (X counts: the
            // implementation cannot resolve to the spec's value).
            let tv: Vec<Tv> = cex.inputs.iter().map(|&b| b.into()).collect();
            let s = spec.eval_ternary(&tv).unwrap();
            let i = partial.circuit().eval_ternary(&tv).unwrap();
            if let Some(o) = cex.output {
                assert_ne!(s[o], i[o], "lifted cex must distinguish output {o}");
            }
        }
    }

    /// The joint rungs still run (sequentially) after a clean phase A.
    #[test]
    fn joint_rungs_follow_the_sharded_phase() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let report = ParallelChecker::new(settings(), 4).run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::ErrorFound);
        assert_eq!(report.deciding_method(), Some(Method::InputExact));
        assert_eq!(report.stages.len(), 5);
    }

    /// A budget abort in one shard degrades that rung, not the run.
    #[test]
    fn shard_budget_abort_degrades_gracefully() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let tight = CheckSettings { step_limit: Some(1), ..settings() };
        let report = ParallelChecker::new(tight, 4).run(&spec, &partial).unwrap();
        let exceeded = report.budget_exceeded();
        assert!(
            exceeded.contains(&Method::Symbolic01X) || exceeded.contains(&Method::Local),
            "a symbolic shard rung must trip the 1-step budget, got {exceeded:?}"
        );
        // Sharded-phase abort reasons carry the shard index; joint-phase
        // rungs keep their plain reasons.
        for s in &report.stages {
            if let StageResult::BudgetExceeded { method, reason, .. } = s {
                if ParallelChecker::is_per_output(*method) {
                    assert!(reason.starts_with("shard "), "reason: {reason}");
                }
            }
        }
    }

    /// Merged traces are schedule-independent and schema-valid.
    #[test]
    fn merged_trace_is_deterministic_in_shape() {
        let spec = generators::disjoint_cones(4, 3, 8, 9);
        let partial = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
        let shape_of = |jobs: usize| {
            let tracer = bbec_trace::Tracer::new();
            let s = CheckSettings { tracer: tracer.clone(), ..settings() };
            ParallelChecker::new(s, jobs).run(&spec, &partial).unwrap();
            let trace = tracer.finish();
            bbec_trace::schema::validate_stream(&trace.to_jsonl()).unwrap();
            trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    bbec_trace::TraceEvent::Span { name, depth, .. } => Some((*name, *depth)),
                    _ => None,
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape_of(1), shape_of(4), "span tree must not depend on the schedule");
    }

    /// A cone store over a plain map.
    #[derive(Default)]
    struct MapStore(RefCell<HashMap<(u64, u64), LadderReport>>);

    impl ConeStore for MapStore {
        fn get(&self, key: (u64, u64)) -> Option<LadderReport> {
            self.0.borrow().get(&key).cloned()
        }

        fn put(&self, key: (u64, u64), report: &LadderReport) {
            self.0.borrow_mut().insert(key, report.clone());
        }
    }

    /// Everything of a report except timing and statistics.
    fn skeleton(r: &LadderReport) -> Vec<String> {
        r.stages
            .iter()
            .map(|s| match s {
                StageResult::Finished(o) => {
                    format!("{}:{:?}:{:?}", o.method, o.verdict, o.counterexample)
                }
                StageResult::BudgetExceeded { method, reason, .. } => {
                    format!("{method}:budget:{reason}")
                }
            })
            .collect()
    }

    /// An edit of two cones of `spec` (outputs `v1`, `v2`, never cone 0,
    /// whose gate 0 is boxed): a planted mutation in each, or one more
    /// boxed gate in each.
    fn edit_two_cones(spec: &Circuit, mutate: bool, rng: &mut StdRng) -> Option<PartialCircuit> {
        let n = spec.outputs().len();
        let v1 = rng.random_range(1..n);
        let v2 = 1 + (v1 % (n - 1));
        let cone = |c: &Circuit, v: usize| -> Vec<u32> {
            c.fanin_cone_gates(&[c.outputs()[v].1]).into_iter().filter(|&g| g != 0).collect()
        };
        if mutate {
            let host = Mutation::random(spec, &cone(spec, v1), rng)?.apply(spec).ok()?;
            let host = Mutation::random(&host, &cone(&host, v2), rng)?.apply(&host).ok()?;
            PartialCircuit::black_box_gates(&host, &[0]).ok()
        } else {
            let sets = [vec![0], vec![cone(spec, v1)[0]], vec![cone(spec, v2)[0]]];
            PartialCircuit::black_box_partition(spec, &sets).ok()
        }
    }

    /// With a store filled from a base instance, `run_with` at four jobs on
    /// an edited instance answers like `run` at one job and runs exactly
    /// the cones the store lacked.
    #[test]
    fn stored_cones_replay_under_worker_threads() {
        let (mut checked, mut reused_total) = (0, 0);
        for seed in 0..16u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let spec = generators::disjoint_cones(5, 3, 8, rng.next_u64());
            let base = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
            let Some(edited) = edit_two_cones(&spec, seed % 2 == 0, &mut rng) else { continue };

            let store = MapStore::default();
            ParallelChecker::new(settings(), 1).run_with(&spec, &base, Some(&store)).unwrap();
            let key = |sh: &Shard| {
                let h = crate::ledger::instance_hash(&sh.spec, &sh.partial);
                (h, crate::ledger::instance_hash_alt(&sh.spec, &sh.partial))
            };
            let expected: Vec<bool> = plan_shards(&spec, &edited)
                .unwrap()
                .iter()
                .map(|sh| store.0.borrow().contains_key(&key(sh)))
                .collect();

            let tracer = bbec_trace::Tracer::new();
            let traced = CheckSettings { tracer: tracer.clone(), ..settings() };
            let run = ParallelChecker::new(traced, 4).run_with(&spec, &edited, Some(&store));
            let run = run.unwrap();
            let reference = ParallelChecker::new(settings(), 1).run(&spec, &edited).unwrap();
            assert_eq!(run.report.verdict(), reference.verdict(), "seed {seed}");
            assert_eq!(run.report.deciding_method(), reference.deciding_method(), "seed {seed}");
            assert_eq!(run.report.counterexample(), reference.counterexample(), "seed {seed}");
            assert_eq!(skeleton(&run.report), skeleton(&reference), "seed {seed}");

            // Only the cones the store lacked ran, each under its own span.
            assert_eq!(run.reused, expected, "seed {seed}");
            let ran: Vec<usize> = tracer
                .finish()
                .events()
                .iter()
                .filter_map(|e| match e {
                    bbec_trace::TraceEvent::Span { name: "core.parallel_shard", attrs, .. } => {
                        attrs.iter().find_map(|(k, v)| match v {
                            bbec_trace::AttrValue::U64(i) if k == "shard" => Some(*i as usize),
                            _ => None,
                        })
                    }
                    _ => None,
                })
                .collect();
            let missing: Vec<usize> = (0..expected.len()).filter(|&i| !expected[i]).collect();
            assert_eq!(ran, missing, "seed {seed}");
            assert!(missing.len() >= 2, "seed {seed}: two dirty cones share four workers");
            reused_total += expected.len() - missing.len();
            checked += 1;
        }
        assert!(checked >= 8, "only {checked} edits generated");
        assert!(reused_total > 0, "some cone must replay from the store");
    }

    /// A run whose rungs exceed their budget stores nothing.
    #[test]
    fn budget_exceeded_cones_are_not_stored() {
        let spec = generators::disjoint_cones(4, 3, 8, 9);
        let partial = PartialCircuit::black_box_gates(&spec, &[0]).unwrap();
        let tight = CheckSettings { step_limit: Some(1), ..settings() };
        let store = MapStore::default();
        let run = ParallelChecker::new(tight, 4).run_with(&spec, &partial, Some(&store)).unwrap();
        assert!(!run.report.budget_exceeded().is_empty(), "one step cannot finish a BDD rung");
        assert!(store.0.borrow().is_empty(), "a budget-exceeded cone report was stored");
    }
}
