//! The paper's ladder of black-box equivalence checks.
//!
//! All checks share the same contract: **sound** (an error is reported only
//! if no black-box implementation can repair the design) but differently
//! **complete**. From weakest to strongest:
//!
//! 1. [`random_patterns`] — plain 0,1,X simulation on random vectors,
//! 2. [`symbolic_01x`] — symbolic 0,1,X simulation (Section 2.1),
//! 3. [`local_check`] — Z_i simulation, per-output check (Lemma 2.1),
//! 4. [`output_exact`] — joint condition over all outputs (Lemma 2.2),
//! 5. [`input_exact`] — respects the boxes' actual input pins
//!    (equation (1)); exact when there is a single black box
//!    (Theorem 2.2).
//!
//! [`exact_decomposition`] implements the NP-complete criterion of
//! Theorem 2.1 by brute force for tiny boxes; [`CheckLadder`] runs the
//! methods cheapest-first as the paper's conclusion recommends.
//!
//! Every BDD-based check runs under the resource governor configured by
//! [`crate::CheckSettings`]: exceeding the node, step, or time budget
//! surfaces as [`CheckError::BudgetExceeded`] — a value, not a panic — and
//! leaves the manager usable for weaker checks or later queries.

mod exact;
mod ladder;
mod random;
mod ternary;
mod zi;

pub use exact::{exact_decomposition, BoxTable, ExactOutcome};
pub use ladder::{CheckLadder, LadderReport, StageResult};
pub use random::{random_patterns, random_patterns_scalar};
pub use ternary::symbolic_01x;
pub use zi::{input_exact, local_check, output_exact};

use crate::partial::PartialCircuit;
use crate::report::{BudgetAbort, CheckError, CheckOutcome, CheckSettings, ResourceStats};
use crate::symbolic::SymbolicContext;
use bbec_bdd::{Bdd, OpTelemetry};
use bbec_netlist::Circuit;
use std::time::{Duration, Instant};

/// Validates that spec and partial implementation share an interface.
pub(crate) fn validate_interface(
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<(), CheckError> {
    let imp = partial.circuit();
    if spec.inputs().len() != imp.inputs().len() {
        return Err(CheckError::InterfaceMismatch {
            detail: format!(
                "{} spec inputs vs {} implementation inputs",
                spec.inputs().len(),
                imp.inputs().len()
            ),
        });
    }
    if spec.outputs().len() != imp.outputs().len() {
        return Err(CheckError::InterfaceMismatch {
            detail: format!(
                "{} spec outputs vs {} implementation outputs",
                spec.outputs().len(),
                imp.outputs().len()
            ),
        });
    }
    Ok(())
}

/// Per-check resource probe: arms the context's budget window, snapshots
/// the governor's telemetry, and turns the deltas into [`ResourceStats`]
/// on both the success and the abort path.
pub(crate) struct CheckProbe {
    start: Instant,
    telemetry: OpTelemetry,
    live_before: usize,
    /// Per-op cache snapshot, taken only when the tracer is enabled, so
    /// [`CheckProbe::stats`] can flush this window's deltas as counters.
    cache_by_op: Option<Vec<(&'static str, u64, u64)>>,
}

impl CheckProbe {
    /// Arms a fresh budget window on `ctx` and starts measuring.
    pub(crate) fn begin(ctx: &mut SymbolicContext) -> Self {
        ctx.arm_budget();
        ctx.manager.reset_peak();
        let cache_by_op = ctx.tracer().enabled().then(|| ctx.manager.cache_stats_by_op());
        CheckProbe {
            start: Instant::now(),
            telemetry: ctx.manager.telemetry(),
            live_before: ctx.manager.stats().live_nodes,
            cache_by_op,
        }
    }

    /// Stats for a check that ran to completion (or up to an abort).
    ///
    /// When tracing is on, this is also the manager counter flush point:
    /// the window's per-operation cache deltas, apply steps and GC/reorder
    /// pass counts accumulate into the tracer (deltas add up correctly
    /// across the short-lived managers of one-shot checks).
    pub(crate) fn stats(&self, ctx: &SymbolicContext, impl_nodes: usize) -> ResourceStats {
        let delta = ctx.manager.telemetry().since(&self.telemetry);
        let peak = ctx.manager.stats().peak_live_nodes;
        if let Some(before) = &self.cache_by_op {
            let tracer = ctx.tracer();
            for (now, was) in ctx.manager.cache_stats_by_op().iter().zip(before) {
                let hits = now.1.saturating_sub(was.1);
                let misses = now.2.saturating_sub(was.2);
                if hits > 0 {
                    tracer.counter_add(&format!("bdd.cache.{}.hits", now.0), hits);
                }
                if misses > 0 {
                    tracer.counter_add(&format!("bdd.cache.{}.misses", now.0), misses);
                }
            }
            tracer.counter_add("bdd.apply_steps", delta.apply_steps);
            tracer.counter_add("bdd.gc.passes", delta.gc_passes);
            tracer.counter_add("bdd.reorder.passes", delta.reorder_passes);
            tracer.record("bdd.live_peak", peak as u64);
        }
        let mut stats = ResourceStats {
            impl_nodes,
            peak_check_nodes: peak.saturating_sub(self.live_before),
            duration: self.start.elapsed(),
            ..ResourceStats::default()
        };
        stats.absorb_telemetry(&delta);
        stats
    }

    /// Converts a budget abort into a [`CheckError`] carrying the partial
    /// resource statistics, after dropping the aborted check's protections.
    pub(crate) fn abort(
        &self,
        ctx: &mut SymbolicContext,
        guard: Guard,
        e: bbec_bdd::BudgetExceeded,
    ) -> CheckError {
        guard.release_all(ctx);
        let reason = e.to_string();
        // Postmortem first: the flight-recorder tail shows what the core
        // was doing when the budget fired, spliced into the trace (and any
        // streaming sink) before the abort propagates.
        ctx.manager.dump_flight_recorder(&reason);
        let stats = self.stats(ctx, 0);
        CheckError::BudgetExceeded(BudgetAbort::new(reason).with_stats(stats))
    }

    /// Attaches this probe's partial statistics to a budget abort that was
    /// converted to [`CheckError`] further down (e.g. inside the symbolic
    /// simulator, which releases its own protections before returning).
    pub(crate) fn annotate(&self, ctx: &SymbolicContext, err: CheckError) -> CheckError {
        match err {
            CheckError::BudgetExceeded(abort) if abort.stats.is_none() => {
                ctx.manager.dump_flight_recorder(&abort.reason);
                let stats = self.stats(ctx, 0);
                CheckError::BudgetExceeded(abort.with_stats(stats))
            }
            other => other,
        }
    }
}

/// A fresh context holding the spec's BDDs: the preamble of every BDD
/// check. The spec build runs under its own probe, before a check's probe
/// opens a fresh budget window, so its wall clock is carried here and
/// charged to the check's stats by [`OwnedSetup::charge`].
pub(crate) struct OwnedSetup {
    pub(crate) ctx: SymbolicContext,
    pub(crate) spec_bdds: Vec<Bdd>,
    spec_build: Duration,
}

impl OwnedSetup {
    pub(crate) fn new(spec: &Circuit, settings: &CheckSettings) -> Result<Self, CheckError> {
        let mut ctx = SymbolicContext::new(spec, settings);
        let probe = CheckProbe::begin(&mut ctx);
        let spec_bdds = match ctx.build_outputs(spec) {
            Ok(b) => b,
            Err(e) => return Err(probe.annotate(&ctx, e)),
        };
        Ok(OwnedSetup { ctx, spec_bdds, spec_build: probe.start.elapsed() })
    }

    /// Adds the spec build to the duration a check reports, on the success
    /// and the budget-abort path alike.
    pub(crate) fn charge(
        &self,
        result: Result<CheckOutcome, CheckError>,
    ) -> Result<CheckOutcome, CheckError> {
        match result {
            Ok(mut outcome) => {
                outcome.stats.duration += self.spec_build;
                Ok(outcome)
            }
            Err(CheckError::BudgetExceeded(mut abort)) => {
                if let Some(stats) = &mut abort.stats {
                    stats.duration += self.spec_build;
                }
                Err(CheckError::BudgetExceeded(abort))
            }
            Err(e) => Err(e),
        }
    }
}

/// Tracks the BDD protections a check has taken so they can be released
/// exactly once on every exit path (normal completion or budget abort).
///
/// Protections on sticky nodes (projections, constants) are no-ops in the
/// manager, so tracking them here is harmless.
#[derive(Default)]
pub(crate) struct Guard {
    held: Vec<Bdd>,
}

impl Guard {
    pub(crate) fn new() -> Self {
        Guard::default()
    }

    /// Protects `f` and remembers to release it later.
    pub(crate) fn keep(&mut self, ctx: &mut SymbolicContext, f: Bdd) -> Bdd {
        ctx.manager.protect(f);
        self.held.push(f);
        f
    }

    /// Releases one tracked handle early (e.g. a superseded accumulator).
    pub(crate) fn drop_one(&mut self, ctx: &mut SymbolicContext, f: Bdd) {
        if let Some(i) = self.held.iter().rposition(|&h| h == f) {
            self.held.swap_remove(i);
            ctx.manager.release(f);
        }
    }

    /// Releases every tracked protection.
    pub(crate) fn release_all(self, ctx: &mut SymbolicContext) {
        for f in self.held {
            ctx.manager.release(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_netlist::generators;

    #[test]
    fn interface_mismatch_detected() {
        let spec = generators::ripple_carry_adder(3);
        let other = generators::ripple_carry_adder(4);
        let p = crate::PartialCircuit::black_box_gates(&other, &[0]).unwrap();
        assert!(matches!(validate_interface(&spec, &p), Err(CheckError::InterfaceMismatch { .. })));
    }

    #[test]
    fn guard_releases_each_protection_once() {
        let spec = generators::ripple_carry_adder(2);
        let settings = crate::CheckSettings::default();
        let mut ctx = SymbolicContext::new(&spec, &settings);
        let x = ctx.manager.var(ctx.input_vars()[0]);
        let y = ctx.manager.var(ctx.input_vars()[1]);
        ctx.manager.collect_garbage();
        let live_base = ctx.manager.stats().live_nodes;
        let f = ctx.manager.and(x, y);

        let mut guard = Guard::new();
        guard.keep(&mut ctx, f);
        guard.keep(&mut ctx, f);
        guard.drop_one(&mut ctx, f);

        // One protection still held: f survives a collection.
        ctx.manager.collect_garbage();
        assert!(ctx.manager.stats().live_nodes > live_base, "held protection must keep f alive");

        // After the final release the footprint returns to the baseline.
        guard.release_all(&mut ctx);
        ctx.manager.collect_garbage();
        assert_eq!(ctx.manager.stats().live_nodes, live_base, "guard must balance protect/release");
    }
}
