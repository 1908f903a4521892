//! Symbolic 0,1,X simulation (Section 2.1 of the paper).

use crate::checks::{validate_interface, CheckProbe, Guard, OwnedSetup};
use crate::partial::PartialCircuit;
use crate::report::{CheckError, CheckOutcome, CheckSettings, Counterexample, Method, Verdict};
use crate::symbolic::SymbolicContext;
use bbec_bdd::Bdd;
use bbec_netlist::Circuit;

/// Symbolic 0,1,X check: finds every input vector for which some output of
/// the partial implementation is definite *and* wrong.
///
/// Equal in power to the two-bit-encoding approach of Jain et al. [10] (the
/// paper proves the detection sets coincide); covers all errors the
/// random-pattern baseline can find, for *all* 2ⁿ vectors at once.
///
/// # Errors
///
/// [`CheckError::InterfaceMismatch`], [`CheckError::Netlist`], or
/// [`CheckError::BudgetExceeded`] when the configured resource budget runs
/// out (the manager stays usable).
pub fn symbolic_01x(
    spec: &Circuit,
    partial: &PartialCircuit,
    settings: &CheckSettings,
) -> Result<CheckOutcome, CheckError> {
    let mut owned = OwnedSetup::new(spec, settings)?;
    let result = symbolic_01x_with(&mut owned.ctx, &owned.spec_bdds, spec, partial);
    owned.charge(result)
}

fn symbolic_01x_with(
    ctx: &mut SymbolicContext,
    spec_bdds: &[Bdd],
    spec: &Circuit,
    partial: &PartialCircuit,
) -> Result<CheckOutcome, CheckError> {
    validate_interface(spec, partial)?;
    let probe = CheckProbe::begin(ctx);
    let sim = match ctx.build_ternary(partial.circuit()) {
        Ok(sim) => sim,
        // The simulator released its own protections; attach partial stats.
        Err(e) => return Err(probe.annotate(ctx, e)),
    };
    let impl_nodes = {
        let mut roots: Vec<Bdd> = Vec::new();
        for t in &sim.outputs {
            roots.push(t.is0);
            roots.push(t.is1);
        }
        ctx.manager.node_count_many(&roots)
    };

    let mut verdict = Verdict::NoErrorFound;
    let mut counterexample = None;
    let scan = (|| -> Result<(), bbec_bdd::BudgetExceeded> {
        for (j, (t, &f)) in sim.outputs.iter().zip(spec_bdds).enumerate() {
            // Output definitely 1 where the spec is 0 …
            let nf = ctx.manager.try_not(f)?;
            let wrong1 = ctx.manager.try_and(t.is1, nf)?;
            // … or definitely 0 where the spec is 1.
            let wrong0 = ctx.manager.try_and(t.is0, f)?;
            let wrong = ctx.manager.try_or(wrong1, wrong0)?;
            if let Some(a) = ctx.manager.any_sat(wrong) {
                verdict = Verdict::ErrorFound;
                counterexample =
                    Some(Counterexample { inputs: ctx.witness_inputs(&a), output: Some(j) });
                break;
            }
        }
        Ok(())
    })();
    if let Err(e) = scan {
        sim.release(&mut ctx.manager);
        return Err(probe.abort(ctx, Guard::new(), e));
    }
    let stats = probe.stats(ctx, impl_nodes);
    sim.release(&mut ctx.manager);
    if let Some(cex) = &counterexample {
        crate::cex::validate_counterexample(spec, partial, cex).map_err(|detail| {
            CheckError::CounterexampleRejected { method: Method::Symbolic01X, detail }
        })?;
    }
    Ok(CheckOutcome { method: Method::Symbolic01X, verdict, counterexample, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartialCircuit;
    use bbec_netlist::generators;
    use bbec_netlist::mutate::{Mutation, MutationKind};

    fn settings() -> CheckSettings {
        CheckSettings { dynamic_reordering: false, ..CheckSettings::default() }
    }

    #[test]
    fn clean_partial_passes() {
        let c = generators::magnitude_comparator(4);
        let p = PartialCircuit::black_box_gates(&c, &[2, 3]).unwrap();
        let out = symbolic_01x(&c, &p, &settings()).unwrap();
        assert_eq!(out.verdict, Verdict::NoErrorFound);
        assert!(out.stats.impl_nodes > 0);
        assert!(out.stats.apply_steps > 0, "telemetry must be recorded");
    }

    #[test]
    fn error_found_with_valid_witness() {
        let c = generators::magnitude_comparator(4);
        let last = (c.gates().len() - 1) as u32;
        let faulty =
            Mutation { gate: last, kind: MutationKind::ToggleOutputInverter }.apply(&c).unwrap();
        let p = PartialCircuit::black_box_gates(&faulty, &[0]).unwrap();
        let out = symbolic_01x(&c, &p, &settings()).unwrap();
        assert_eq!(out.verdict, Verdict::ErrorFound);
        let cex = out.counterexample.expect("witness");
        let tv: Vec<bbec_netlist::Tv> =
            cex.inputs.iter().map(|&b| bbec_netlist::Tv::from(b)).collect();
        let got = p.circuit().eval_ternary(&tv).unwrap();
        let expect = c.eval(&cex.inputs).unwrap();
        let j = cex.output.unwrap();
        assert_eq!(got[j].to_bool(), Some(!expect[j]), "witness must show a definite mismatch");
    }

    #[test]
    fn finds_everything_random_patterns_finds() {
        // Subsumption on a batch of random mutations: whenever the pattern
        // check errors, the symbolic check must error too.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let c = generators::random_logic("s", 8, 60, 4, 9);
        let mut rng = StdRng::seed_from_u64(21);
        let cone: Vec<u32> = {
            let roots: Vec<_> = c.outputs().iter().map(|&(_, s)| s).collect();
            c.fanin_cone_gates(&roots)
        };
        let quick =
            CheckSettings { random_patterns: 300, dynamic_reordering: false, ..Default::default() };
        for _ in 0..12 {
            let m = Mutation::random(&c, &cone, &mut rng).unwrap();
            let faulty = m.apply(&c).unwrap();
            let Ok(p) = PartialCircuit::random_black_boxes(&faulty, 0.1, 1, &mut rng) else {
                continue;
            };
            let rp = crate::checks::random_patterns(&c, &p, &quick).unwrap();
            let sym = symbolic_01x(&c, &p, &quick).unwrap();
            if rp.verdict == Verdict::ErrorFound {
                assert_eq!(sym.verdict, Verdict::ErrorFound, "{}", m.describe(&c));
            }
        }
    }

    #[test]
    fn xor_of_same_box_output_is_blind_spot() {
        // The paper's Figure 2(b) situation: Z ⊕ Z is 0, but 0,1,X
        // simulation computes X ⊕ X = X and stays blind.
        let (spec, partial) = crate::samples::detected_only_by_local();
        let out = symbolic_01x(&spec, &partial, &settings()).unwrap();
        assert_eq!(out.verdict, Verdict::NoErrorFound);
    }

    #[test]
    fn tiny_step_budget_aborts_with_stats() {
        let c = generators::magnitude_comparator(6);
        let p = PartialCircuit::black_box_gates(&c, &[2]).unwrap();
        let s = CheckSettings {
            dynamic_reordering: false,
            step_limit: Some(10),
            ..CheckSettings::default()
        };
        let err = symbolic_01x(&c, &p, &s).unwrap_err();
        match err {
            CheckError::BudgetExceeded(abort) => {
                assert!(abort.reason.contains("step"), "reason: {}", abort.reason);
                let stats = abort.stats.expect("partial stats attached");
                assert!(stats.apply_steps > 0);
            }
            other => panic!("expected budget abort, got {other}"),
        }
    }
}
