//! The differential harness: every engine against every contract.
//!
//! For one spec/partial instance the harness runs all five ladder rungs,
//! both SAT twins, the parallel engine at two job counts, the
//! sweep-preprocessed ladder, the served ladder and the sifting ladder,
//! then asserts:
//!
//! 1. **Soundness** (the paper's central claim): no engine reports an error
//!    on an instance the oracle proves extendable.
//! 2. **Monotonicity** (eq. (1)): if a weaker rung errors, every stronger
//!    rung must error too — `r.p. ⊆ 0,1,X ⊆ loc. ⊆ oe ⊆ ie`.
//! 3. **Twin agreement**: `sat-01x` = `0,1,X`, `sat-oe` = `oe` (the SAT
//!    checks are re-implementations of the same criteria).
//! 4. **Parallel invariance**: `ParallelChecker` at jobs=1 and jobs=4
//!    produce the same verdict, equal to the sequential ladder's.
//! 5. **Witness replay**: every counterexample re-validates concretely via
//!    [`bbec_core::validate_counterexample`] (on top of the in-engine
//!    validation — the harness does not trust the engines' own checks).
//! 6. **Single-box exactness** (Theorem 2.2): on a one-box instance the
//!    oracle says non-extendable, the input-exact rung must error.
//! 7. **Sweep invariance**: running the ladder after the structural
//!    sweep ([`bbec_core::preprocess`]) produces the same verdict as the
//!    unswept ladder — the preprocessor is verdict-invariant.
//! 8. **Service transparency**: the persistent check service
//!    ([`bbec_core::service::Service`]) run in-process agrees with the
//!    parallel ladder it mirrors, and an identical second request answered
//!    from its result cache is semantically identical to the cold response
//!    (verdict, deciding method, rungs, counterexample) with zero fresh
//!    BDD work.
//! 9. **Reorder invariance**: the ladder with dynamic sifting forced on
//!    (a live-node threshold low enough to fire on oracle-sized
//!    instances) produces the same verdict as the ladder without it;
//!    its witnesses replay under contract 5 like every other engine's.
//!
//! A `inject` option flips one rung's verdict after the fact — the
//! test-only "intentionally unsound rung" of the acceptance criteria,
//! proving the harness actually catches violations.

use crate::generate::Instance;
use crate::oracle::{self, OracleLimits, OracleVerdict};
use bbec_core::service::{Service, ServiceConfig};
use bbec_core::{
    checks, sat_checks, BudgetAbort, CheckError, CheckSettings, Counterexample, ParallelChecker,
    Verdict,
};
use std::fmt;

/// Every engine the harness exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    RandomPatterns,
    Symbolic01X,
    Local,
    OutputExact,
    InputExact,
    SatDualRail,
    SatOutputExact,
    ParallelJobs1,
    ParallelJobs4,
    /// The sequential ladder with the structural sweep enabled — paired
    /// against [`Engine::ParallelJobs1`] by the sweep-invariance contract.
    SweptLadder,
    /// The persistent check service run in-process (cold request through
    /// its cache/incremental path), paired against
    /// [`Engine::ParallelJobs1`] by the service-transparency contract.
    Served,
    /// The ladder with dynamic sifting firing on small instances
    /// ([`sift_settings`]), paired against [`Engine::ParallelJobs1`] by the
    /// reorder-invariance contract.
    Sifted,
}

impl Engine {
    /// All engines, ladder first, in strength order within the ladder.
    pub fn all() -> [Engine; 12] {
        [
            Engine::RandomPatterns,
            Engine::Symbolic01X,
            Engine::Local,
            Engine::OutputExact,
            Engine::InputExact,
            Engine::SatDualRail,
            Engine::SatOutputExact,
            Engine::ParallelJobs1,
            Engine::ParallelJobs4,
            Engine::SweptLadder,
            Engine::Served,
            Engine::Sifted,
        ]
    }

    /// Stable label (ladder rungs reuse the paper's column names).
    pub fn label(self) -> &'static str {
        match self {
            Engine::RandomPatterns => "r.p.",
            Engine::Symbolic01X => "0,1,X",
            Engine::Local => "loc.",
            Engine::OutputExact => "oe",
            Engine::InputExact => "ie",
            Engine::SatDualRail => "sat-01x",
            Engine::SatOutputExact => "sat-oe",
            Engine::ParallelJobs1 => "par-j1",
            Engine::ParallelJobs4 => "par-j4",
            Engine::SweptLadder => "sweep",
            Engine::Served => "serve",
            Engine::Sifted => "sift",
        }
    }

    /// Parses a label back (CLI `--inject-unsound RUNG`).
    pub fn from_label(label: &str) -> Option<Engine> {
        Engine::all().into_iter().find(|e| e.label() == label)
    }

    /// Position in the ladder's strength ordering, if a ladder rung.
    fn ladder_rank(self) -> Option<usize> {
        match self {
            Engine::RandomPatterns => Some(0),
            Engine::Symbolic01X => Some(1),
            Engine::Local => Some(2),
            Engine::OutputExact => Some(3),
            Engine::InputExact => Some(4),
            _ => None,
        }
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One engine's result on one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineVerdict {
    /// The engine claims the design is non-extendable.
    Error(Option<Counterexample>),
    /// The engine found no error at its accuracy.
    Clean,
    /// Budget abort — the engine abstained; no contract applies to it.
    Skipped(String),
}

impl EngineVerdict {
    fn is_error(&self) -> bool {
        matches!(self, EngineVerdict::Error(_))
    }
    fn decided(&self) -> bool {
        !matches!(self, EngineVerdict::Skipped(_))
    }
}

/// A contract violation found on one instance. The harness reports *all*
/// violations of a case, most severe first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// An engine claimed non-extendable on an oracle-extendable instance —
    /// unsoundness, the worst possible failure.
    Unsound { engine: &'static str },
    /// Single box, oracle says non-extendable, input-exact stayed clean —
    /// Theorem 2.2 exactness broken.
    IncompleteExact,
    /// A weaker rung errored while a stronger one stayed clean.
    NonMonotone { weaker: &'static str, stronger: &'static str },
    /// A SAT twin disagreed with its BDD original.
    TwinMismatch { bdd: &'static str, sat: &'static str },
    /// The parallel engine's verdict differed across job counts or from
    /// the sequential rungs.
    ParallelMismatch { detail: String },
    /// The sweep-preprocessed ladder's verdict differed from the unswept
    /// ladder's — the preprocessor changed a verdict.
    SweepMismatch { detail: String },
    /// The persistent check service disagreed with the parallel ladder it
    /// mirrors, or its cached response diverged from the cold response —
    /// the result cache is not transparent.
    ServiceMismatch { detail: String },
    /// The ladder with dynamic sifting disagreed with the ladder without
    /// it — reordering changed a verdict.
    SiftMismatch { detail: String },
    /// A reported counterexample failed concrete replay.
    BadCounterexample { engine: &'static str, detail: String },
    /// An engine failed with an unexpected (non-budget) error.
    EngineFailure { engine: &'static str, detail: String },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Unsound { engine } => {
                write!(f, "UNSOUND: {engine} errored on an oracle-extendable instance")
            }
            Violation::IncompleteExact => {
                write!(f, "INCOMPLETE: single-box non-extendable instance passed input-exact")
            }
            Violation::NonMonotone { weaker, stronger } => {
                write!(f, "NON-MONOTONE: {weaker} errored but stronger {stronger} stayed clean")
            }
            Violation::TwinMismatch { bdd, sat } => {
                write!(f, "TWIN MISMATCH: {sat} disagreed with {bdd}")
            }
            Violation::ParallelMismatch { detail } => write!(f, "PARALLEL MISMATCH: {detail}"),
            Violation::SweepMismatch { detail } => write!(f, "SWEEP MISMATCH: {detail}"),
            Violation::ServiceMismatch { detail } => write!(f, "SERVICE MISMATCH: {detail}"),
            Violation::SiftMismatch { detail } => write!(f, "SIFT MISMATCH: {detail}"),
            Violation::BadCounterexample { engine, detail } => {
                write!(f, "BAD WITNESS: {engine}: {detail}")
            }
            Violation::EngineFailure { engine, detail } => {
                write!(f, "ENGINE FAILURE: {engine}: {detail}")
            }
        }
    }
}

impl Violation {
    /// Coarse class used by the shrinker to preserve the violation kind.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::Unsound { .. } => "unsound",
            Violation::IncompleteExact => "incomplete-exact",
            Violation::NonMonotone { .. } => "non-monotone",
            Violation::TwinMismatch { .. } => "twin-mismatch",
            Violation::ParallelMismatch { .. } => "parallel-mismatch",
            Violation::SweepMismatch { .. } => "sweep-mismatch",
            Violation::ServiceMismatch { .. } => "service-mismatch",
            Violation::SiftMismatch { .. } => "sift-mismatch",
            Violation::BadCounterexample { .. } => "bad-counterexample",
            Violation::EngineFailure { .. } => "engine-failure",
        }
    }
}

/// The harness result for one instance.
#[derive(Debug, Clone)]
pub struct CaseOutcome {
    /// Per-engine verdicts, in [`Engine::all`] order.
    pub verdicts: Vec<(Engine, EngineVerdict)>,
    /// The oracle's ground truth, when the instance fits its limits.
    pub oracle: Option<OracleVerdict>,
    /// All contract violations found.
    pub violations: Vec<Violation>,
    /// Patterns the random-pattern rung simulated (throughput accounting).
    pub patterns_simulated: u64,
}

impl CaseOutcome {
    /// Verdict of one engine.
    pub fn verdict(&self, engine: Engine) -> &EngineVerdict {
        &self.verdicts.iter().find(|(e, _)| *e == engine).expect("all engines run").1
    }

    /// Whether any engine claimed an error (planted-bug detection signal).
    pub fn any_error(&self) -> bool {
        self.verdicts.iter().any(|(_, v)| v.is_error())
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Settings for every engine (fuzzing wants small pattern counts and
    /// reordering off for speed and determinism).
    pub settings: CheckSettings,
    /// Oracle enumeration limits.
    pub oracle: OracleLimits,
    /// Test-only: flip this engine's verdict after it runs — the
    /// "intentionally unsound rung" of the acceptance criteria.
    pub inject: Option<Engine>,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            settings: CheckSettings {
                dynamic_reordering: false,
                random_patterns: 256,
                ..CheckSettings::default()
            },
            oracle: OracleLimits::default(),
            inject: None,
        }
    }
}

const SAT_REFINEMENTS: usize = 100_000;

/// Live-node threshold of the [`Engine::Sifted`] run. Oracle-sized
/// instances stay far below the production default, so without a low
/// threshold sifting would never fire there.
const SIFT_THRESHOLD: usize = 32;

/// The settings of the [`Engine::Sifted`] run: `settings` with dynamic
/// reordering on at [`SIFT_THRESHOLD`].
fn sift_settings(settings: &CheckSettings) -> CheckSettings {
    CheckSettings {
        dynamic_reordering: true,
        reorder_threshold: SIFT_THRESHOLD,
        ..settings.clone()
    }
}

/// Runs every engine and every contract on one instance.
pub fn run_case(instance: &Instance, config: &HarnessConfig) -> CaseOutcome {
    let spec = &instance.spec;
    let partial = &instance.partial;
    let s = &config.settings;
    let mut violations = Vec::new();

    // The served engine: a fresh in-process service per case, queried cold
    // and then again through its result cache. The second response must be
    // semantically identical to the first — cache transparency.
    let service = Service::new(ServiceConfig { settings: s.clone(), ..ServiceConfig::default() });
    let cold = service.check_instance(&instance.name, spec, partial, true);
    let mut service_mismatch: Option<String> = None;
    if let Ok(cold_resp) = &cold {
        if cold_resp.budget_exceeded {
            // Degraded results are never cached; nothing to compare.
        } else {
            match service.check_instance(&instance.name, spec, partial, true) {
                Ok(warm) if !warm.cached => {
                    service_mismatch =
                        Some("an identical second request missed the result cache".into());
                }
                Ok(warm) if warm.apply_steps != 0 => {
                    service_mismatch =
                        Some(format!("cache hit still charged {} apply steps", warm.apply_steps));
                }
                Ok(warm)
                    if warm.verdict != cold_resp.verdict
                        || warm.method != cold_resp.method
                        || warm.counterexample != cold_resp.counterexample
                        || warm.rungs != cold_resp.rungs =>
                {
                    service_mismatch =
                        Some("cached response differs from the cold response".into());
                }
                Ok(_) => {}
                Err(e) => service_mismatch = Some(format!("cached re-check failed: {e}")),
            }
        }
    }
    let served_result: Result<(Verdict, Option<Counterexample>), CheckError> =
        cold.and_then(|resp| {
            if resp.budget_exceeded {
                return Err(CheckError::BudgetExceeded(BudgetAbort::new(
                    "served check hit a budget-exceeded rung",
                )));
            }
            let verdict = if resp.verdict == "error_found" {
                Verdict::ErrorFound
            } else {
                Verdict::NoErrorFound
            };
            Ok((verdict, resp.counterexample))
        });

    let mut one =
        |engine: Engine, result: Result<(Verdict, Option<Counterexample>), CheckError>| {
            let mut v = match result {
                Ok((Verdict::ErrorFound, cex)) => EngineVerdict::Error(cex),
                Ok((Verdict::NoErrorFound, _)) => EngineVerdict::Clean,
                Err(CheckError::BudgetExceeded(abort)) => EngineVerdict::Skipped(abort.to_string()),
                Err(CheckError::CounterexampleRejected { detail, .. }) => {
                    violations
                        .push(Violation::BadCounterexample { engine: engine.label(), detail });
                    EngineVerdict::Skipped("rejected counterexample".into())
                }
                Err(e) => {
                    violations.push(Violation::EngineFailure {
                        engine: engine.label(),
                        detail: e.to_string(),
                    });
                    EngineVerdict::Skipped("engine failure".into())
                }
            };
            if config.inject == Some(engine) {
                v = match v {
                    EngineVerdict::Error(_) => EngineVerdict::Clean,
                    EngineVerdict::Clean => EngineVerdict::Error(None),
                    skipped => skipped,
                };
            }
            (engine, v)
        };

    let from_outcome =
        |r: Result<bbec_core::CheckOutcome, CheckError>| r.map(|o| (o.verdict, o.counterexample));
    let from_report = |r: Result<checks::LadderReport, CheckError>| {
        r.map(|rep| (rep.verdict(), rep.counterexample().cloned()))
    };

    let rp = checks::random_patterns(spec, partial, s);
    let patterns_simulated = rp.as_ref().map_or(0, |o| o.stats.patterns);
    let verdicts = vec![
        one(Engine::RandomPatterns, from_outcome(rp)),
        one(Engine::Symbolic01X, from_outcome(checks::symbolic_01x(spec, partial, s))),
        one(Engine::Local, from_outcome(checks::local_check(spec, partial, s))),
        one(Engine::OutputExact, from_outcome(checks::output_exact(spec, partial, s))),
        one(Engine::InputExact, from_outcome(checks::input_exact(spec, partial, s))),
        one(Engine::SatDualRail, from_outcome(sat_checks::sat_dual_rail(spec, partial, s))),
        one(
            Engine::SatOutputExact,
            from_outcome(sat_checks::sat_output_exact(spec, partial, s, SAT_REFINEMENTS)),
        ),
        one(
            Engine::ParallelJobs1,
            from_report(ParallelChecker::new(s.clone(), 1).run(spec, partial)),
        ),
        one(
            Engine::ParallelJobs4,
            from_report(ParallelChecker::new(s.clone(), 4).run(spec, partial)),
        ),
        one(
            Engine::SweptLadder,
            from_report(
                ParallelChecker::new(CheckSettings { sweep: true, ..s.clone() }, 1)
                    .run(spec, partial),
            ),
        ),
        one(Engine::Served, served_result),
        one(
            Engine::Sifted,
            from_report(ParallelChecker::new(sift_settings(s), 1).run(spec, partial)),
        ),
    ];
    if let Some(detail) = service_mismatch {
        violations.push(Violation::ServiceMismatch { detail });
    }

    let oracle = oracle::decide(spec, partial, &config.oracle).ok();
    let mut outcome = CaseOutcome { verdicts, oracle, violations, patterns_simulated };
    check_contracts(instance, &mut outcome);
    outcome
}

/// Applies contracts 1–9 to the collected verdicts.
fn check_contracts(instance: &Instance, outcome: &mut CaseOutcome) {
    let spec = &instance.spec;
    let partial = &instance.partial;
    let mut violations = std::mem::take(&mut outcome.violations);

    // 5. Witness replay, independently of the engines' internal checks.
    for (engine, v) in &outcome.verdicts {
        if let EngineVerdict::Error(Some(cex)) = v {
            if let Err(detail) = bbec_core::validate_counterexample(spec, partial, cex) {
                violations.push(Violation::BadCounterexample { engine: engine.label(), detail });
            }
        }
    }

    // 1. Soundness against the oracle; 6. single-box exactness.
    match outcome.oracle {
        Some(OracleVerdict::Extendable) => {
            for (engine, v) in &outcome.verdicts {
                if v.is_error() {
                    violations.push(Violation::Unsound { engine: engine.label() });
                }
            }
        }
        Some(OracleVerdict::NonExtendable) if partial.boxes().len() == 1 => {
            let ie = outcome.verdict(Engine::InputExact);
            if ie.decided() && !ie.is_error() {
                violations.push(Violation::IncompleteExact);
            }
        }
        Some(OracleVerdict::NonExtendable) => {}
        None => {}
    }

    // 2. Ladder monotonicity over all decided rung pairs.
    let rungs: Vec<(Engine, &EngineVerdict)> = outcome
        .verdicts
        .iter()
        .filter(|(e, _)| e.ladder_rank().is_some())
        .map(|(e, v)| (*e, v))
        .collect();
    for (i, (weak, wv)) in rungs.iter().enumerate() {
        for (strong, sv) in &rungs[i + 1..] {
            if wv.is_error() && sv.decided() && !sv.is_error() {
                violations.push(Violation::NonMonotone {
                    weaker: weak.label(),
                    stronger: strong.label(),
                });
            }
        }
    }

    // 3. SAT twins agree with their BDD originals (when both decided).
    for (bdd, sat) in
        [(Engine::Symbolic01X, Engine::SatDualRail), (Engine::OutputExact, Engine::SatOutputExact)]
    {
        let (b, s) = (outcome.verdict(bdd), outcome.verdict(sat));
        if b.decided() && s.decided() && b.is_error() != s.is_error() {
            violations.push(Violation::TwinMismatch { bdd: bdd.label(), sat: sat.label() });
        }
    }

    // 4. Parallel invariance: job counts agree with each other, and with
    // the sequential rungs ("any rung errors" ⟺ ladder verdict), as long
    // as nothing abstained.
    let (p1, p4) = (outcome.verdict(Engine::ParallelJobs1), outcome.verdict(Engine::ParallelJobs4));
    if p1.decided() && p4.decided() && p1.is_error() != p4.is_error() {
        violations.push(Violation::ParallelMismatch {
            detail: "jobs=1 and jobs=4 verdicts differ".into(),
        });
    }
    let all_rungs_decided = rungs.iter().all(|(_, v)| v.decided());
    let any_rung_error = rungs.iter().any(|(_, v)| v.is_error());
    if all_rungs_decided && p1.decided() && p1.is_error() != any_rung_error {
        violations.push(Violation::ParallelMismatch {
            detail: format!(
                "parallel verdict ({}) contradicts the sequential rungs ({})",
                if p1.is_error() { "error" } else { "clean" },
                if any_rung_error { "error" } else { "clean" },
            ),
        });
    }

    // 7. Sweep invariance: the preprocessed ladder's verdict matches the
    // unswept ladder's (same engine, sweep on vs off).
    let sw = outcome.verdict(Engine::SweptLadder);
    if p1.decided() && sw.decided() && p1.is_error() != sw.is_error() {
        violations.push(Violation::SweepMismatch {
            detail: format!(
                "swept ladder ({}) contradicts the unswept ladder ({})",
                if sw.is_error() { "error" } else { "clean" },
                if p1.is_error() { "error" } else { "clean" },
            ),
        });
    }

    // 8. Service transparency: the served verdict matches the parallel
    // ladder whose check path it mirrors. (The cache-transparency half of
    // the contract — cached response ≡ cold response — is compared inside
    // `run_case`, where both responses are in hand.)
    let served = outcome.verdict(Engine::Served);
    if p1.decided() && served.decided() && p1.is_error() != served.is_error() {
        violations.push(Violation::ServiceMismatch {
            detail: format!(
                "served verdict ({}) contradicts the parallel ladder ({})",
                if served.is_error() { "error" } else { "clean" },
                if p1.is_error() { "error" } else { "clean" },
            ),
        });
    }

    // 9. Reorder invariance: sifting moves nodes, never functions, so the
    // sifting ladder's verdict matches the ladder without it.
    let sifted = outcome.verdict(Engine::Sifted);
    if p1.decided() && sifted.decided() && p1.is_error() != sifted.is_error() {
        violations.push(Violation::SiftMismatch {
            detail: format!(
                "sifting ladder ({}) contradicts the ladder without reordering ({})",
                if sifted.is_error() { "error" } else { "clean" },
                if p1.is_error() { "error" } else { "clean" },
            ),
        });
    }

    violations.sort_by_key(|v| match v {
        Violation::Unsound { .. } => 0,
        Violation::IncompleteExact => 1,
        Violation::BadCounterexample { .. } => 2,
        Violation::NonMonotone { .. } => 3,
        Violation::TwinMismatch { .. } => 4,
        Violation::ParallelMismatch { .. } => 5,
        Violation::SweepMismatch { .. } => 6,
        Violation::ServiceMismatch { .. } => 7,
        Violation::SiftMismatch { .. } => 8,
        Violation::EngineFailure { .. } => 9,
    });
    outcome.violations = violations;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{case_seed, generate};
    use bbec_core::samples;

    fn sample_instance(
        name: &str,
        pair: (bbec_netlist::Circuit, bbec_core::PartialCircuit),
    ) -> Instance {
        Instance { name: name.into(), seed: 0, spec: pair.0, partial: pair.1, planted: None }
    }

    #[test]
    fn samples_pass_every_contract() {
        let config = HarnessConfig::default();
        for (name, pair) in [
            ("completable", samples::completable_pair()),
            ("01x", samples::detected_by_01x()),
            ("local", samples::detected_only_by_local()),
            ("oe", samples::detected_only_by_output_exact()),
            ("ie", samples::detected_only_by_input_exact()),
        ] {
            let out = run_case(&sample_instance(name, pair), &config);
            assert!(out.violations.is_empty(), "{name}: {:?}", out.violations);
        }
    }

    #[test]
    fn generated_cases_pass_every_contract() {
        let config = HarnessConfig::default();
        for index in 0..25u64 {
            let Some(instance) = generate(case_seed(11, index)) else { continue };
            let out = run_case(&instance, &config);
            assert!(out.violations.is_empty(), "{}: {:?}", instance.name, out.violations);
        }
    }

    #[test]
    fn injected_unsound_rung_is_caught() {
        // Flip the local rung's verdict on an extendable instance: the
        // harness must flag it as unsound (and non-monotone vs. stronger
        // rungs that stayed clean — sorted after the unsoundness).
        let instance = sample_instance("completable", samples::completable_pair());
        let config = HarnessConfig { inject: Some(Engine::Local), ..HarnessConfig::default() };
        let out = run_case(&instance, &config);
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::Unsound { engine } if *engine == "loc.")),
            "got {:?}",
            out.violations
        );
    }

    #[test]
    fn injected_blind_strong_rung_breaks_monotonicity() {
        // Flip input-exact to clean on an instance only it detects: the
        // weaker rungs that error now out-rank it.
        let instance = sample_instance("ie", samples::detected_only_by_input_exact());
        let config = HarnessConfig { inject: Some(Engine::InputExact), ..HarnessConfig::default() };
        let out = run_case(&instance, &config);
        assert!(
            out.violations.iter().any(|v| matches!(v, Violation::IncompleteExact)),
            "single-box exactness must flag the blinded ie rung: {:?}",
            out.violations
        );
    }

    #[test]
    fn injected_unsound_served_engine_is_caught() {
        // Flip the served engine's verdict on an extendable instance: the
        // soundness contract must flag "serve" exactly like any rung.
        let instance = sample_instance("completable", samples::completable_pair());
        let config = HarnessConfig { inject: Some(Engine::Served), ..HarnessConfig::default() };
        let out = run_case(&instance, &config);
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::Unsound { engine } if *engine == "serve")),
            "got {:?}",
            out.violations
        );
    }

    #[test]
    fn sift_engine_actually_reorders() {
        // The reorder-invariance contract is vacuous unless sifting fires
        // on the instances the harness sees, and it covers the sift's
        // relabel swaps and lower-bound cuts only if those fire too.
        let tracer = bbec_trace::Tracer::new();
        let settings = CheckSettings {
            tracer: tracer.clone(),
            ..sift_settings(&HarnessConfig::default().settings)
        };
        let passes: u64 = (0..25u64)
            .filter_map(|index| generate(case_seed(11, index)))
            .filter_map(|i| ParallelChecker::new(settings.clone(), 1).run(&i.spec, &i.partial).ok())
            .flat_map(|report| report.stages)
            .filter_map(|stage| stage.outcome().map(|o| o.stats.reorder_passes))
            .sum();
        assert!(passes > 0, "sifting never ran on the generated cases");
        let trace = tracer.finish();
        let total = |key: &str| -> u64 {
            trace
                .events()
                .iter()
                .filter_map(|e| match e {
                    bbec_trace::TraceEvent::Span { name: "bdd.reorder", attrs, .. } => {
                        attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
                    }
                    _ => None,
                })
                .map(|v| match v {
                    bbec_trace::AttrValue::U64(n) => n,
                    other => panic!("{key} is not a count: {other:?}"),
                })
                .sum()
        };
        assert!(total("relabel_swaps") > 0, "no sifting swap was a relabel");
        assert!(total("pruned") > 0, "the sifting lower bound never ended a direction");
    }

    #[test]
    fn injected_unsound_sift_engine_is_caught() {
        let instance = sample_instance("completable", samples::completable_pair());
        let config = HarnessConfig { inject: Some(Engine::Sifted), ..HarnessConfig::default() };
        let out = run_case(&instance, &config);
        assert!(
            out.violations.iter().any(|v| matches!(v, Violation::SiftMismatch { .. })),
            "got {:?}",
            out.violations
        );
    }

    #[test]
    fn engine_labels_round_trip() {
        for e in Engine::all() {
            assert_eq!(Engine::from_label(e.label()), Some(e));
        }
        assert_eq!(Engine::from_label("nope"), None);
    }
}
