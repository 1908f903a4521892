//! An amortised checking session: the specification's BDDs are built once
//! and reused across many partial implementations.
//!
//! The experiment pattern of the paper — one specification, hundreds of
//! error insertions, a check per insertion — rebuilds the specification
//! BDDs from scratch on every call when using the free functions in
//! [`crate::checks`]. A [`CheckSession`] keeps one [`SymbolicContext`]
//! alive instead.
//!
//! Each checked partial implementation permanently adds its `Z` (and, for
//! the input-exact check, `I`) variables to the shared manager, so the
//! session transparently *refreshes* — rebuilds the context and the
//! specification BDDs — once the variable count grows past a budget. A
//! budget-aborted check, by contrast, needs **no** refresh: the aborted
//! check's intermediates are unprotected and a garbage collection reclaims
//! them, while the specification BDDs stay protected in the same manager.

use crate::checks::{
    self, input_exact_with, local_check_with, output_exact_with, symbolic_01x_with, OwnedSetup,
};
use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckOutcome, CheckSettings, Method};
use crate::symbolic::SymbolicContext;
use bbec_bdd::Bdd;
use bbec_netlist::Circuit;

/// Reusable checking state for one specification.
#[derive(Debug)]
pub struct CheckSession {
    spec: Circuit,
    settings: CheckSettings,
    ctx: SymbolicContext,
    spec_bdds: Vec<Bdd>,
    /// Variable head-room before a refresh (beyond the primary inputs).
    var_budget: usize,
    refreshes: usize,
}

impl CheckSession {
    /// Builds the session and the specification's BDDs.
    ///
    /// # Errors
    ///
    /// [`CheckError::Netlist`] if the specification is not a complete
    /// circuit; [`CheckError::BudgetExceeded`] if building the
    /// specification BDDs already blows the configured budget.
    pub fn new(spec: Circuit, settings: CheckSettings) -> Result<CheckSession, CheckError> {
        // With sweeping on, the spec is reduced once, before its BDDs are
        // built; each checked partial is swept per call in `check`.
        let spec = if settings.sweep { bbec_netlist::strash::sweep(&spec).circuit } else { spec };
        let (ctx, spec_bdds) = Self::fresh(&spec, &settings)?;
        Ok(CheckSession { spec, settings, ctx, spec_bdds, var_budget: 512, refreshes: 0 })
    }

    fn fresh(
        spec: &Circuit,
        settings: &CheckSettings,
    ) -> Result<(SymbolicContext, Vec<Bdd>), CheckError> {
        let OwnedSetup { ctx, spec_bdds, .. } = OwnedSetup::new(spec, settings)?;
        Ok((ctx, spec_bdds))
    }

    /// The checked specification.
    pub fn spec(&self) -> &Circuit {
        &self.spec
    }

    /// BDD nodes of the specification (the paper's column 4).
    pub fn spec_node_count(&self) -> usize {
        self.ctx.manager.node_count_many(&self.spec_bdds)
    }

    /// How often the session rebuilt its context (diagnostic).
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Runs one BDD-based check against a partial implementation.
    ///
    /// Supported methods: [`Method::RandomPatterns`],
    /// [`Method::Symbolic01X`], [`Method::Local`], [`Method::OutputExact`],
    /// [`Method::InputExact`]. SAT methods have no per-session state worth
    /// amortising; call [`crate::sat_checks`] directly.
    ///
    /// # Errors
    ///
    /// The underlying check's errors. A [`CheckError::BudgetExceeded`]
    /// leaves the session usable as-is — the aborted check released its
    /// protections, so a garbage collection reclaims its intermediates and
    /// the next check proceeds against the same specification BDDs.
    pub fn check(
        &mut self,
        partial: &PartialCircuit,
        method: Method,
    ) -> Result<CheckOutcome, CheckError> {
        if self.settings.sweep {
            let (swept, _) = crate::preprocess::sweep_partial(partial)?;
            return self.check_prepared(&swept, method);
        }
        self.check_prepared(partial, method)
    }

    fn check_prepared(
        &mut self,
        partial: &PartialCircuit,
        method: Method,
    ) -> Result<CheckOutcome, CheckError> {
        if method == Method::RandomPatterns {
            return checks::random_patterns(&self.spec, partial, &self.settings);
        }
        self.maybe_refresh()?;
        let ctx = &mut self.ctx;
        let spec_bdds = &self.spec_bdds;
        let spec = &self.spec;
        let result = match method {
            Method::Symbolic01X => symbolic_01x_with(ctx, spec_bdds, spec, partial),
            Method::Local => local_check_with(ctx, spec_bdds, spec, partial),
            Method::OutputExact => output_exact_with(ctx, spec_bdds, spec, partial),
            Method::InputExact => input_exact_with(ctx, spec_bdds, spec, partial),
            other => {
                Err(CheckError::InvalidPartial(format!("method {other} is not session-managed")))
            }
        };
        if matches!(result, Err(CheckError::BudgetExceeded(_))) {
            // The aborted check's intermediates are unprotected; reclaim
            // them now so they don't count against the next check's node
            // budget. No refresh — the spec BDDs are still protected.
            self.ctx.manager.collect_garbage();
        }
        result
    }

    fn maybe_refresh(&mut self) -> Result<(), CheckError> {
        if self.ctx.manager.var_count() > self.spec.inputs().len() + self.var_budget {
            self.force_refresh()?;
        }
        Ok(())
    }

    fn force_refresh(&mut self) -> Result<(), CheckError> {
        let (ctx, spec_bdds) = Self::fresh(&self.spec, &self.settings)?;
        self.ctx = ctx;
        self.spec_bdds = spec_bdds;
        self.refreshes += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Verdict;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::Mutation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn session_matches_free_functions() {
        let spec = generators::magnitude_comparator(5);
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let roots: Vec<_> = spec.outputs().iter().map(|&(_, s)| s).collect();
        let cone = spec.fanin_cone_gates(&roots);
        for _ in 0..8 {
            let m = Mutation::random(&spec, &cone, &mut rng).unwrap();
            let faulty = m.apply(&spec).unwrap();
            let Ok(partial) = PartialCircuit::random_black_boxes(&faulty, 0.1, 1, &mut rng) else {
                continue;
            };
            for method in
                [Method::Symbolic01X, Method::Local, Method::OutputExact, Method::InputExact]
            {
                let via_session = session.check(&partial, method).unwrap().verdict;
                let direct = match method {
                    Method::Symbolic01X => {
                        checks::symbolic_01x(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::Local => {
                        checks::local_check(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::OutputExact => {
                        checks::output_exact(&spec, &partial, &settings()).unwrap().verdict
                    }
                    Method::InputExact => {
                        checks::input_exact(&spec, &partial, &settings()).unwrap().verdict
                    }
                    _ => unreachable!(),
                };
                assert_eq!(via_session, direct, "{method} on {}", m.describe(&spec));
            }
        }
    }

    #[test]
    fn session_refreshes_on_variable_bloat() {
        let spec = generators::ripple_carry_adder(3);
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        session.var_budget = 8; // force frequent refreshes
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..12 {
            let partial = PartialCircuit::random_black_boxes(&spec, 0.2, 2, &mut rng).unwrap();
            let out = session.check(&partial, Method::InputExact).unwrap();
            assert_eq!(out.verdict, Verdict::NoErrorFound, "boxed spec is completable");
        }
        assert!(session.refreshes() > 0, "var budget should have forced refreshes");
    }

    #[test]
    fn session_survives_budget_aborts_without_refresh() -> Result<(), CheckError> {
        let spec = generators::sec32();
        let tight = CheckSettings {
            node_limit: Some(2_000), // absurdly small: every check aborts
            dynamic_reordering: false,
            ..CheckSettings::default()
        };
        // Even constructing the spec BDDs blows a 2k budget, so `new` fails
        // cleanly as a value…
        assert!(matches!(CheckSession::new(spec, tight), Err(CheckError::BudgetExceeded(_))));
        // …while a budget that admits the spec but not the expensive checks
        // aborts per-check and keeps the session usable in place.
        let spec = generators::magnitude_comparator(12);
        let medium = CheckSettings {
            node_limit: Some(3_000),
            dynamic_reordering: false,
            ..CheckSettings::default()
        };
        let mut session = CheckSession::new(spec.clone(), medium).unwrap();
        let spec_nodes = session.spec_node_count();
        let mut rng = StdRng::seed_from_u64(4);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.3, 1, &mut rng).unwrap();
        let mut aborted = 0;
        for _ in 0..3 {
            match session.check(&partial, Method::InputExact) {
                Err(CheckError::BudgetExceeded(abort)) => {
                    aborted += 1;
                    assert!(!abort.reason.is_empty());
                }
                Ok(_) => {}
                // Any non-budget error is a genuine failure: propagate it
                // instead of panicking.
                Err(e) => return Err(e),
            }
            // The specification BDDs survived the abort untouched…
            assert_eq!(session.spec_node_count(), spec_nodes);
            // …and the cheap check still works right after.
            let ok = session.check(&partial, Method::Symbolic01X);
            assert!(ok.is_ok() || matches!(ok, Err(CheckError::BudgetExceeded(_))));
        }
        assert!(aborted > 0, "node budget should have fired at least once");
        assert_eq!(session.refreshes(), 0, "budget aborts must not force refreshes");
        Ok(())
    }

    #[test]
    fn spec_node_count_is_stable_across_checks() {
        let spec = generators::alu_181();
        let mut session = CheckSession::new(spec.clone(), settings()).unwrap();
        let before = session.spec_node_count();
        let mut rng = StdRng::seed_from_u64(5);
        let partial = PartialCircuit::random_black_boxes(&spec, 0.1, 1, &mut rng).unwrap();
        let _ = session.check(&partial, Method::OutputExact).unwrap();
        assert_eq!(session.spec_node_count(), before);
    }
}
