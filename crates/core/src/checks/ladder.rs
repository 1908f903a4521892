//! The escalation strategy of the paper's conclusion: run the checks
//! cheapest-first and stop at the first error.
//!
//! A rung that exhausts its resource budget no longer sinks the whole
//! ladder: it is recorded as a [`StageResult::BudgetExceeded`] entry and
//! the ladder proceeds, so the final verdict is that of the strongest rung
//! that actually finished.

use crate::checks::{input_exact, local_check, output_exact, random_patterns, symbolic_01x};
use crate::partial::PartialCircuit;
use crate::report::{
    CheckError, CheckOutcome, CheckSettings, Counterexample, Method, ResourceStats, Verdict,
};
use bbec_netlist::Circuit;
use std::time::{Duration, Instant};

/// CEGAR refinement budget of a [`Method::SatOutputExact`] rung.
const SAT_REFINEMENT_BUDGET: usize = 100_000;

/// Runs a configurable sequence of checks, stopping at the first error.
///
/// The default sequence is the paper's recommendation: "first use 0,1,X
/// based simulation with only a few random patterns, then symbolic 0,1,X
/// simulation, Z_i simulation with local check, with output exact check and
/// finally with input exact check." The SAT-based stages
/// ([`Method::SatDualRail`], [`Method::SatOutputExact`]) may be mixed in;
/// only [`Method::ExactDecomposition`] is excluded (it has its own entry
/// point with a table-size budget).
#[derive(Debug, Clone)]
pub struct CheckLadder {
    /// Shared settings for all stages.
    pub settings: CheckSettings,
    /// The stages, in execution order.
    pub stages: Vec<Method>,
}

impl Default for CheckLadder {
    fn default() -> Self {
        CheckLadder {
            settings: CheckSettings::default(),
            stages: vec![
                Method::RandomPatterns,
                Method::Symbolic01X,
                Method::Local,
                Method::OutputExact,
                Method::InputExact,
            ],
        }
    }
}

/// What happened to one rung of the ladder.
#[derive(Debug, Clone, PartialEq)]
pub enum StageResult {
    /// The rung ran to completion and produced a verdict.
    Finished(CheckOutcome),
    /// The rung exceeded its resource budget; the ladder carried on.
    BudgetExceeded {
        /// The method that was cut short.
        method: Method,
        /// Which limit fired.
        reason: String,
        /// Resources consumed up to the abort, when recorded.
        stats: Option<ResourceStats>,
        /// Wall-clock time the rung ran before the budget fired.
        elapsed: Duration,
    },
}

impl StageResult {
    /// The method this rung ran.
    pub fn method(&self) -> Method {
        match self {
            StageResult::Finished(o) => o.method,
            StageResult::BudgetExceeded { method, .. } => *method,
        }
    }

    /// Wall-clock time of the rung, whether it finished or was cut short.
    pub fn elapsed(&self) -> Duration {
        match self {
            StageResult::Finished(o) => o.stats.duration,
            StageResult::BudgetExceeded { elapsed, .. } => *elapsed,
        }
    }

    /// The outcome, when the rung finished.
    pub fn outcome(&self) -> Option<&CheckOutcome> {
        match self {
            StageResult::Finished(o) => Some(o),
            StageResult::BudgetExceeded { .. } => None,
        }
    }

    /// Whether this rung ran out of budget.
    pub fn is_budget_exceeded(&self) -> bool {
        matches!(self, StageResult::BudgetExceeded { .. })
    }
}

/// The trace of a ladder run: one entry per executed rung, including rungs
/// that ran out of budget.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReport {
    /// Result of each executed stage (stops after the first error).
    pub stages: Vec<StageResult>,
}

impl LadderReport {
    /// The outcomes of the rungs that finished, in execution order.
    pub fn outcomes(&self) -> impl Iterator<Item = &CheckOutcome> {
        self.stages.iter().filter_map(StageResult::outcome)
    }

    /// The overall verdict: an error iff some *finished* rung found one.
    /// Budget-exceeded rungs contribute nothing (the verdict is that of
    /// the strongest rung that completed).
    pub fn verdict(&self) -> Verdict {
        if self.outcomes().any(CheckOutcome::is_error) {
            Verdict::ErrorFound
        } else {
            Verdict::NoErrorFound
        }
    }

    /// The method that found the error, if any.
    pub fn deciding_method(&self) -> Option<Method> {
        self.outcomes().find(|o| o.is_error()).map(|o| o.method)
    }

    /// The counterexample of the deciding stage, if one was produced.
    pub fn counterexample(&self) -> Option<&Counterexample> {
        self.outcomes().find(|o| o.is_error()).and_then(|o| o.counterexample.as_ref())
    }

    /// The methods that ran out of budget, in execution order.
    pub fn budget_exceeded(&self) -> Vec<Method> {
        self.stages.iter().filter(|s| s.is_budget_exceeded()).map(StageResult::method).collect()
    }
}

impl CheckLadder {
    /// A ladder with default stages and the given settings.
    pub fn with_settings(settings: CheckSettings) -> Self {
        CheckLadder { settings, ..CheckLadder::default() }
    }

    /// Runs the stages in order, stopping at the first error.
    ///
    /// A rung that exceeds its resource budget is recorded in the report
    /// and the ladder continues with the next stage.
    ///
    /// # Errors
    ///
    /// Propagates the first non-budget stage failure ([`CheckError`]); a
    /// stage asking for [`Method::ExactDecomposition`] is rejected — it has
    /// its own entry point with extra parameters.
    pub fn run(
        &self,
        spec: &Circuit,
        partial: &PartialCircuit,
    ) -> Result<LadderReport, CheckError> {
        let mut stages = Vec::new();
        for &stage in &self.stages {
            let span = self.settings.tracer.span("core.ladder_rung");
            span.set_attr("method", stage.label());
            self.settings.progress.set_task(stage.label());
            let rung_start = Instant::now();
            let result = match stage {
                Method::RandomPatterns => random_patterns(spec, partial, &self.settings),
                Method::Symbolic01X => symbolic_01x(spec, partial, &self.settings),
                Method::Local => local_check(spec, partial, &self.settings),
                Method::OutputExact => output_exact(spec, partial, &self.settings),
                Method::InputExact => input_exact(spec, partial, &self.settings),
                Method::SatDualRail => {
                    crate::sat_checks::sat_dual_rail(spec, partial, &self.settings)
                }
                Method::SatOutputExact => crate::sat_checks::sat_output_exact(
                    spec,
                    partial,
                    &self.settings,
                    SAT_REFINEMENT_BUDGET,
                ),
                other => {
                    return Err(CheckError::InvalidPartial(format!(
                        "method {other} cannot run inside a ladder"
                    )))
                }
            };
            span.set_attr("budget_exceeded", matches!(&result, Err(CheckError::BudgetExceeded(_))));
            drop(span);
            if Self::push_stage(&mut stages, stage, result, rung_start.elapsed())? {
                break;
            }
        }
        Ok(LadderReport { stages })
    }

    /// Records one rung; returns `Ok(true)` when the ladder should stop.
    fn push_stage(
        stages: &mut Vec<StageResult>,
        method: Method,
        result: Result<CheckOutcome, CheckError>,
        elapsed: Duration,
    ) -> Result<bool, CheckError> {
        match result {
            Ok(outcome) => {
                let stop = outcome.is_error();
                stages.push(StageResult::Finished(outcome));
                Ok(stop)
            }
            Err(CheckError::BudgetExceeded(abort)) => {
                stages.push(StageResult::BudgetExceeded {
                    method,
                    reason: abort.reason,
                    stats: abort.stats,
                    elapsed,
                });
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;

    fn ladder() -> CheckLadder {
        let settings = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 200,
            ..CheckSettings::default()
        };
        CheckLadder::with_settings(settings)
    }

    #[test]
    fn clean_design_runs_all_stages() {
        let (spec, partial) = samples::completable_pair();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::NoErrorFound);
        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.outcomes().count(), 5);
        assert_eq!(report.deciding_method(), None);
        assert!(report.budget_exceeded().is_empty());
    }

    #[test]
    fn stops_at_the_cheapest_sufficient_stage() {
        let (spec, partial) = samples::detected_only_by_local();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.verdict(), Verdict::ErrorFound);
        assert_eq!(report.deciding_method(), Some(Method::Local));
        // 0,1,X ran and passed; nothing after the deciding stage ran.
        assert_eq!(report.stages.len(), 3);
    }

    #[test]
    fn escalates_to_input_exact_when_needed() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let report = ladder().run(&spec, &partial).unwrap();
        assert_eq!(report.deciding_method(), Some(Method::InputExact));
        assert_eq!(report.stages.len(), 5);
    }

    #[test]
    fn rejects_foreign_stages() {
        let (spec, partial) = samples::completable_pair();
        let mut l = ladder();
        l.stages = vec![Method::ExactDecomposition];
        assert!(l.run(&spec, &partial).is_err());
    }

    #[test]
    fn per_rung_telemetry_is_recorded() {
        let (spec, partial) = samples::completable_pair();
        let report = ladder().run(&spec, &partial).unwrap();
        for outcome in report.outcomes() {
            if outcome.method != Method::RandomPatterns {
                assert!(
                    outcome.stats.apply_steps > 0,
                    "{} must record apply steps",
                    outcome.method
                );
            }
        }
    }

    /// A ladder whose input-exact rung exceeds a tiny step budget still
    /// reports the verdict of the strongest finished rung.
    #[test]
    fn budget_exceeded_rung_degrades_gracefully() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        let base = CheckSettings {
            dynamic_reordering: false,
            random_patterns: 50,
            node_limit: None,
            ..CheckSettings::default()
        };

        // Calibrate: run the BDD rungs unbudgeted as one-shot checks and
        // record each rung's deterministic step cost (reordering is off,
        // so the ladder's rungs charge the exact same step counts).
        let max_earlier = [
            symbolic_01x(&spec, &partial, &base),
            local_check(&spec, &partial, &base),
            output_exact(&spec, &partial, &base),
        ]
        .into_iter()
        .map(|out| out.unwrap().stats.apply_steps)
        .max()
        .unwrap();
        let ie = input_exact(&spec, &partial, &base).unwrap();
        assert_eq!(ie.verdict, Verdict::ErrorFound, "sample is detected only by input-exact");
        assert!(
            ie.stats.apply_steps > max_earlier,
            "input-exact must be the most expensive rung here"
        );

        // A step limit that admits every rung except input-exact.
        let tight = CheckSettings { step_limit: Some(max_earlier), ..base };
        let report = CheckLadder::with_settings(tight).run(&spec, &partial).unwrap();

        assert_eq!(report.stages.len(), 5);
        assert_eq!(report.budget_exceeded(), vec![Method::InputExact]);
        match &report.stages[4] {
            StageResult::BudgetExceeded { method: Method::InputExact, reason, stats, .. } => {
                assert!(reason.contains("step"), "reason: {reason}");
                assert!(stats.is_some(), "per-rung telemetry must survive the abort");
            }
            other => panic!("expected a budget-exceeded rung, got {other:?}"),
        }
        // The error is invisible to the finished rungs, so the degraded
        // verdict is "no error found" — from the strongest finished rung.
        assert_eq!(report.verdict(), Verdict::NoErrorFound);
        assert_eq!(report.deciding_method(), None);
    }
}
