//! Z_i simulation based checks: local (Lemma 2.1), output-exact
//! (Lemma 2.2) and input-exact (equation (1)) — Section 2.2 of the paper.

use crate::checks::{validate_interface, CheckProbe, Guard, OwnedSetup};
use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckOutcome, CheckSettings, Counterexample, Method, Verdict};
use crate::symbolic::{PartialSymbolic, SymbolicContext};
use bbec_bdd::{Bdd, BudgetExceeded, Cube};
use bbec_netlist::Circuit;

/// Shared preamble of the Z_i checks: both function vectors plus the
/// per-check resource probe and protection guard, borrowing the context
/// that holds the specification BDDs.
struct ZiSetup<'a> {
    ctx: &'a mut SymbolicContext,
    spec_bdds: &'a [Bdd],
    sym: PartialSymbolic,
    impl_nodes: usize,
    probe: CheckProbe,
    guard: Guard,
}

fn setup_in<'a>(
    ctx: &'a mut SymbolicContext,
    spec_bdds: &'a [Bdd],
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<ZiSetup<'a>, CheckError> {
    validate_interface(spec, partial)?;
    let probe = CheckProbe::begin(ctx);
    let sym = match ctx.build_partial(partial) {
        Ok(sym) => sym,
        // The simulator released its own protections; attach partial stats.
        Err(e) => return Err(probe.annotate(ctx, e)),
    };
    let impl_nodes = ctx.manager.node_count_many(&sym.outputs);
    Ok(ZiSetup { ctx, spec_bdds, sym, impl_nodes, probe, guard: Guard::new() })
}

impl ZiSetup<'_> {
    fn finish(
        self,
        method: Method,
        verdict: Verdict,
        counterexample: Option<Counterexample>,
    ) -> CheckOutcome {
        let ZiSetup { ctx, probe, guard, impl_nodes, .. } = self;
        let stats = probe.stats(ctx, impl_nodes);
        guard.release_all(ctx);
        CheckOutcome { method, verdict, counterexample, stats }
    }

    /// Converts a mid-check budget abort, releasing this check's
    /// protections and attaching the partial statistics.
    fn abort(self, e: BudgetExceeded) -> CheckError {
        let ZiSetup { ctx, probe, guard, .. } = self;
        probe.abort(ctx, guard, e)
    }
}

/// The **local check** (Lemma 2.1): for each output `j` separately, report
/// an error if some input fixes `g_j` to a constant (independently of every
/// `Z_i`) that contradicts `f_j`.
///
/// Strictly stronger than [`crate::checks::symbolic_01x`] because the Z_i
/// functions track *which* box output an unknown came from (the paper's
/// Figure 2(b) separation).
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`], [`CheckError::Netlist`], or
/// [`CheckError::BudgetExceeded`].
pub fn local_check(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    let mut owned = OwnedSetup::new(spec, settings)?;
    let result = local_check_with(&mut owned.ctx, &owned.spec_bdds, spec, partial);
    owned.charge(result)
}

fn local_check_with(
    ctx: &mut SymbolicContext,
    spec_bdds: &[Bdd],
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<CheckOutcome, CheckError> {
    let mut s = setup_in(ctx, spec_bdds, spec, partial)?;
    match local_body(&mut s) {
        Ok((verdict, cex)) => {
            // Release the setup's protections before surfacing a rejected
            // witness, so the context stays balanced on this path too.
            let reject = cex
                .as_ref()
                .and_then(|c| crate::cex::validate_counterexample(spec, partial, c).err());
            let outcome = s.finish(Method::Local, verdict, cex);
            match reject {
                Some(detail) => {
                    Err(CheckError::CounterexampleRejected { method: Method::Local, detail })
                }
                None => Ok(outcome),
            }
        }
        Err(e) => Err(s.abort(e)),
    }
}

fn local_body(s: &mut ZiSetup) -> Result<(Verdict, Option<Counterexample>), BudgetExceeded> {
    let zcube = Cube::try_from_vars(&mut s.ctx.manager, &s.sym.all_z_vars)?;
    s.guard.keep(s.ctx, zcube.as_bdd());
    let tracer = s.ctx.tracer().clone();
    for j in 0..s.spec_bdds.len() {
        let span = tracer.span("core.local_output");
        span.set_attr("output", j);
        let g = s.sym.outputs[j];
        let f = s.spec_bdds[j];
        // Inputs forcing g_j ≡ 1 while f_j = 0 …
        let forced1 = s.ctx.manager.try_forall(g, zcube)?;
        let nf = s.ctx.manager.try_not(f)?;
        let wrong1 = s.ctx.manager.try_and(forced1, nf)?;
        // … or forcing g_j ≡ 0 while f_j = 1.
        let ng = s.ctx.manager.try_not(g)?;
        let forced0 = s.ctx.manager.try_forall(ng, zcube)?;
        let wrong0 = s.ctx.manager.try_and(forced0, f)?;
        let wrong = s.ctx.manager.try_or(wrong1, wrong0)?;
        if let Some(a) = s.ctx.manager.any_sat(wrong) {
            span.set_attr("error", true);
            let inputs = s.ctx.witness_inputs(&a);
            return Ok((Verdict::ErrorFound, Some(Counterexample { inputs, output: Some(j) })));
        }
    }
    Ok((Verdict::NoErrorFound, None))
}

/// The conjunction `cond = ⋀_j (g_j ↔ f_j)` over all outputs.
fn try_joint_condition(s: &mut ZiSetup) -> Result<Bdd, BudgetExceeded> {
    let mut cond = s.ctx.manager.constant(true);
    let pairs: Vec<(Bdd, Bdd)> =
        s.sym.outputs.iter().copied().zip(s.spec_bdds.iter().copied()).collect();
    let tracer = s.ctx.tracer().clone();
    for (j, (g, f)) in pairs.into_iter().enumerate() {
        let span = tracer.span("core.joint_output");
        span.set_attr("output", j);
        let c = s.ctx.manager.try_xnor(g, f)?;
        cond = s.ctx.manager.try_and(cond, c)?;
        span.set_attr("cond_nodes", s.ctx.manager.node_count(cond));
    }
    Ok(cond)
}

/// The **output-exact check** (Lemma 2.2): an error exists iff for some
/// input no single assignment to the box outputs satisfies *all* outputs at
/// once — `∃X ∀Z ⋁_j ¬cond_j`.
///
/// Detects the paper's Figure 3(a) class of errors (contradictory demands
/// on one box from different outputs), which the local check misses. Equal
/// in power to Günther et al. [9].
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`], [`CheckError::Netlist`], or
/// [`CheckError::BudgetExceeded`].
pub fn output_exact(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    let mut owned = OwnedSetup::new(spec, settings)?;
    let result = output_exact_with(&mut owned.ctx, &owned.spec_bdds, spec, partial);
    owned.charge(result)
}

fn output_exact_with(
    ctx: &mut SymbolicContext,
    spec_bdds: &[Bdd],
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<CheckOutcome, CheckError> {
    let mut s = setup_in(ctx, spec_bdds, spec, partial)?;
    match output_exact_body(&mut s) {
        Ok((verdict, cex)) => {
            let reject = cex
                .as_ref()
                .and_then(|c| crate::cex::validate_counterexample(spec, partial, c).err());
            let outcome = s.finish(Method::OutputExact, verdict, cex);
            match reject {
                Some(detail) => {
                    Err(CheckError::CounterexampleRejected { method: Method::OutputExact, detail })
                }
                None => Ok(outcome),
            }
        }
        Err(e) => Err(s.abort(e)),
    }
}

fn output_exact_body(s: &mut ZiSetup) -> Result<(Verdict, Option<Counterexample>), BudgetExceeded> {
    let zcube = Cube::try_from_vars(&mut s.ctx.manager, &s.sym.all_z_vars)?;
    s.guard.keep(s.ctx, zcube.as_bdd());
    let cond = try_joint_condition(s)?;
    // No error iff ∀X ∃Z cond — i.e. ∃Z cond is a tautology over X.
    let sat_exists = s.ctx.manager.try_exists(cond, zcube)?;
    match s.ctx.manager.any_unsat(sat_exists) {
        None => Ok((Verdict::NoErrorFound, None)),
        Some(a) => {
            let inputs = s.ctx.witness_inputs(&a);
            Ok((Verdict::ErrorFound, Some(Counterexample { inputs, output: None })))
        }
    }
}

/// The **input-exact check** (equation (1) of the paper): additionally
/// respects that each box can only observe its actual input pins.
///
/// Builds the box-input relations `H_j = ⋀_k (i_{j,k} ↔ h_{j,k})` over
/// fresh variables, forms
/// `cond' = ∀X (¬H_1 ∨ … ∨ ¬H_b ∨ cond)` and reports **no error** iff
/// `∀I_1 ∃O_1 … ∀I_b ∃O_b. cond'` is a tautology, boxes in topological
/// order.
///
/// For a single black box this criterion is *exact* (Theorem 2.2): "no
/// error" means a correct box implementation exists. For several boxes it
/// is the strongest of the paper's approximations.
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`], [`CheckError::Netlist`], or
/// [`CheckError::BudgetExceeded`].
pub fn input_exact(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    let mut owned = OwnedSetup::new(spec, settings)?;
    let result = input_exact_with(&mut owned.ctx, &owned.spec_bdds, spec, partial);
    owned.charge(result)
}

fn input_exact_with(
    ctx: &mut SymbolicContext,
    spec_bdds: &[Bdd],
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<CheckOutcome, CheckError> {
    let mut s = setup_in(ctx, spec_bdds, spec, partial)?;
    match input_exact_body(&mut s, partial) {
        Ok(verdict) => Ok(s.finish(Method::InputExact, verdict, None)),
        Err(e) => Err(s.abort(e)),
    }
}

fn input_exact_body(s: &mut ZiSetup, partial: &PartialCircuit) -> Result<Verdict, BudgetExceeded> {
    let cond = try_joint_condition(s)?;
    s.guard.keep(s.ctx, cond);

    // Fresh variables for every box input pin.
    let mut i_vars_by_box = Vec::new();
    for b in partial.boxes() {
        let vars: Vec<_> = b.inputs.iter().map(|_| s.ctx.manager.new_var()).collect();
        i_vars_by_box.push(vars);
    }
    // cond' = ∀X (¬H_1 ∨ … ∨ ¬H_b ∨ cond), computed in its dual form
    // ¬ ∃X (⋀ factors ∧ ¬cond). The H relations are never materialised:
    // each equivalence factor `i_{j,k} ↔ h_{j,k}` is merged by a relational
    // product, and each input variable is quantified out as soon as the
    // last factor mentioning it has been merged (early quantification).
    // Every intermediate that must survive a reordering pass (which
    // garbage-collects) stays protected — tracked in the guard so a budget
    // abort releases them all.
    let input_vars: Vec<_> = s.ctx.input_vars().to_vec();
    let is_input_var: std::collections::HashSet<_> = input_vars.iter().copied().collect();
    // The equivalence factors in box order, plus each one's X-support.
    let mut factors: Vec<Bdd> = Vec::new();
    let mut factor_support: Vec<Vec<bbec_bdd::BddVar>> = Vec::new();
    for (bi, b) in partial.boxes().iter().enumerate() {
        for (k, &sig) in b.inputs.iter().enumerate() {
            let fun = s.sym.signal_bdds[sig.index()].expect("box inputs are driven or box outputs");
            let ivar = s.ctx.manager.var(i_vars_by_box[bi][k]);
            let eq = s.ctx.manager.try_xnor(ivar, fun)?;
            s.guard.keep(s.ctx, eq);
            factor_support.push(
                s.ctx
                    .manager
                    .support(eq)
                    .into_iter()
                    .filter(|v| is_input_var.contains(v))
                    .collect(),
            );
            factors.push(eq);
        }
    }
    // For each input variable, the last factor mentioning it; usize::MAX
    // means it appears in cond only and can be quantified immediately.
    let mut last_use: std::collections::HashMap<bbec_bdd::BddVar, usize> =
        input_vars.iter().map(|&v| (v, usize::MAX)).collect();
    for (fi, sup) in factor_support.iter().enumerate() {
        for v in sup {
            last_use.insert(*v, fi);
        }
    }
    let immediate: Vec<_> =
        input_vars.iter().copied().filter(|v| last_use[v] == usize::MAX).collect();
    let mut acc = {
        let ncond = s.ctx.manager.try_not(cond)?;
        let cube = Cube::try_from_vars(&mut s.ctx.manager, &immediate)?;
        let r = s.ctx.manager.try_exists(ncond, cube)?;
        s.guard.keep(s.ctx, r)
    };
    s.ctx.manager.maybe_reorder();
    for (fi, &eq) in factors.iter().enumerate() {
        let ready: Vec<_> = input_vars.iter().copied().filter(|v| last_use[v] == fi).collect();
        let cube = Cube::try_from_vars(&mut s.ctx.manager, &ready)?;
        let next = s.ctx.manager.try_and_exists(acc, eq, cube)?;
        s.guard.keep(s.ctx, next);
        s.guard.drop_one(s.ctx, acc);
        s.guard.drop_one(s.ctx, eq);
        acc = next;
        s.ctx.manager.maybe_reorder();
    }
    let mut result = {
        let r = s.ctx.manager.try_not(acc)?;
        s.guard.keep(s.ctx, r);
        s.guard.drop_one(s.ctx, acc);
        r
    };
    s.ctx.manager.maybe_reorder();
    // ∀I_1 ∃O_1 … ∀I_b ∃O_b, applied inside-out.
    for bi in (0..partial.boxes().len()).rev() {
        let o_cube = Cube::try_from_vars(&mut s.ctx.manager, &s.sym.z_vars_by_box[bi])?;
        let after_o = s.ctx.manager.try_exists(result, o_cube)?;
        s.guard.keep(s.ctx, after_o);
        s.guard.drop_one(s.ctx, result);
        let i_cube = Cube::try_from_vars(&mut s.ctx.manager, &i_vars_by_box[bi])?;
        let after_i = s.ctx.manager.try_forall(after_o, i_cube)?;
        s.guard.keep(s.ctx, after_i);
        s.guard.drop_one(s.ctx, after_o);
        result = after_i;
        s.ctx.manager.maybe_reorder();
    }
    Ok(if s.ctx.manager.is_tautology(result) { Verdict::NoErrorFound } else { Verdict::ErrorFound })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::samples;
    use crate::PartialCircuit;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::Mutation;

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn clean_partials_pass_every_zi_check() {
        let c = generators::alu_181();
        let p = PartialCircuit::black_box_gates(&c, &[5, 6, 7]).unwrap();
        for check in [local_check, output_exact, input_exact] {
            let out = check(&c, &p, &settings()).unwrap();
            assert_eq!(out.verdict, Verdict::NoErrorFound);
            assert!(out.stats.apply_steps > 0, "telemetry must be recorded");
        }
    }

    #[test]
    fn local_beats_01x_on_fig2b() {
        let (spec, partial) = samples::detected_only_by_local();
        let out01x = crate::checks::symbolic_01x(&spec, &partial, &settings()).unwrap();
        assert_eq!(out01x.verdict, Verdict::NoErrorFound, "0,1,X must stay blind");
        let out = local_check(&spec, &partial, &settings()).unwrap();
        assert_eq!(out.verdict, Verdict::ErrorFound, "local check must see it");
        // Witness check: at the counterexample, g_j is Z-independent and
        // differs from the spec.
        let cex = out.counterexample.unwrap();
        let expect = spec.eval(&cex.inputs).unwrap();
        let tv: Vec<bbec_netlist::Tv> =
            cex.inputs.iter().map(|&b| bbec_netlist::Tv::from(b)).collect();
        let _ = (expect, tv); // values asserted structurally in samples tests
    }

    #[test]
    fn output_exact_beats_local_on_fig3a() {
        let (spec, partial) = samples::detected_only_by_output_exact();
        assert_eq!(
            local_check(&spec, &partial, &settings()).unwrap().verdict,
            Verdict::NoErrorFound,
            "local check must stay blind"
        );
        assert_eq!(
            output_exact(&spec, &partial, &settings()).unwrap().verdict,
            Verdict::ErrorFound
        );
    }

    #[test]
    fn input_exact_beats_output_exact_on_fig3b() {
        let (spec, partial) = samples::detected_only_by_input_exact();
        assert_eq!(
            output_exact(&spec, &partial, &settings()).unwrap().verdict,
            Verdict::NoErrorFound,
            "output-exact must stay blind"
        );
        assert_eq!(input_exact(&spec, &partial, &settings()).unwrap().verdict, Verdict::ErrorFound);
    }

    #[test]
    fn completable_two_box_sample_passes_all() {
        let (spec, partial) = samples::completable_pair();
        for check in [local_check, output_exact, input_exact] {
            assert_eq!(check(&spec, &partial, &settings()).unwrap().verdict, {
                Verdict::NoErrorFound
            });
        }
    }

    #[test]
    fn soundness_on_random_black_boxings() {
        // Black-boxing an *unmodified* spec is always completable, so no
        // check may ever report an error (the paper's soundness claim).
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(33);
        for seed in 0..6 {
            let c = generators::random_logic("s", 7, 45, 3, seed);
            for boxes in [1, 2, 3] {
                let Ok(p) = PartialCircuit::random_black_boxes(&c, 0.2, boxes, &mut rng) else {
                    continue;
                };
                for check in [local_check, output_exact, input_exact] {
                    let out = check(&c, &p, &settings()).unwrap();
                    assert_eq!(
                        out.verdict,
                        Verdict::NoErrorFound,
                        "false alarm with {boxes} boxes on seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn monotonicity_on_random_errors() {
        // If a weaker check errors, every stronger check must error too.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(44);
        let c = generators::magnitude_comparator(5);
        let roots: Vec<_> = c.outputs().iter().map(|&(_, s)| s).collect();
        let cone = c.fanin_cone_gates(&roots);
        for _ in 0..10 {
            let m = Mutation::random(&c, &cone, &mut rng).unwrap();
            let faulty = m.apply(&c).unwrap();
            let Ok(p) = PartialCircuit::random_black_boxes(&faulty, 0.15, 2, &mut rng) else {
                continue;
            };
            let s = settings();
            let v01x = crate::checks::symbolic_01x(&c, &p, &s).unwrap().verdict;
            let vloc = local_check(&c, &p, &s).unwrap().verdict;
            let voe = output_exact(&c, &p, &s).unwrap().verdict;
            let vie = input_exact(&c, &p, &s).unwrap().verdict;
            let rank = |v: Verdict| u8::from(v == Verdict::ErrorFound);
            assert!(rank(v01x) <= rank(vloc), "{}", m.describe(&c));
            assert!(rank(vloc) <= rank(voe), "{}", m.describe(&c));
            assert!(rank(voe) <= rank(vie), "{}", m.describe(&c));
        }
    }

    #[test]
    fn output_exact_witness_is_genuine() {
        let (spec, partial) = samples::detected_only_by_output_exact();
        let out = output_exact(&spec, &partial, &settings()).unwrap();
        let cex = out.counterexample.expect("output-exact yields an input witness");
        // At this input, no box-output value satisfies all spec outputs:
        // verified by exhaustive enumeration over the single Z.
        let expect = spec.eval(&cex.inputs).unwrap();
        let mut satisfiable = false;
        'z: for z in [false, true] {
            // Evaluate the host with the box output forced to `z`.
            let got = samples::eval_with_fixed_boxes(&partial, &cex.inputs, &[z]);
            if got == expect {
                satisfiable = true;
                break 'z;
            }
        }
        assert!(!satisfiable, "witness must defeat every box behaviour");
    }

    #[test]
    fn one_shot_duration_includes_the_spec_build() {
        // Boxing the last gate leaves an implementation whose build mostly
        // hits the computed table the spec build warmed, so the spec build
        // dominates the check's wall clock.
        let c = generators::array_multiplier(6);
        let last = (c.gates().len() - 1) as u32;
        let p = PartialCircuit::black_box_gates(&c, &[last]).unwrap();
        let tracer = bbec_trace::Tracer::new();
        let out =
            output_exact(&c, &p, &CheckSettings { tracer: tracer.clone(), ..settings() }).unwrap();
        // The spec is simulated first, so its `core.sim` span closes first.
        let spec_sim_us = tracer
            .finish()
            .events()
            .iter()
            .find_map(|e| match e {
                bbec_trace::TraceEvent::Span { name: "core.sim", dur_us, .. } => Some(*dur_us),
                _ => None,
            })
            .expect("spec build is traced");
        assert!(
            out.stats.duration.as_micros() as u64 >= spec_sim_us,
            "stats.duration {:?} must cover the {spec_sim_us} us spec build",
            out.stats.duration
        );
    }

    #[test]
    fn budget_abort_releases_check_protections() {
        // A tiny step budget fires mid input-exact; afterwards the same
        // context footprint is restored by a GC (spec/impl protections
        // aside, nothing leaks).
        let c = generators::alu_181();
        let p = PartialCircuit::black_box_gates(&c, &[5, 6, 7]).unwrap();
        let s = CheckSettings {
            dynamic_reordering: false,
            step_limit: Some(200),
            ..CheckSettings::default()
        };
        let err = input_exact(&c, &p, &s).unwrap_err();
        match err {
            CheckError::BudgetExceeded(abort) => {
                let stats = abort.stats.expect("partial stats attached");
                assert!(stats.duration.as_nanos() > 0);
            }
            other => panic!("expected budget abort, got {other}"),
        }
    }
}
