//! Independent witness replay: checks a reported counterexample with the
//! netlist simulator alone, never through the checker's own `cex` module.
//!
//! A witness claims that no box behaviour repairs the design at its input.
//! Under Kleene semantics an output that is definite with every box output
//! at X keeps that value under every box assignment, so one ternary
//! evaluation settles most witnesses. Otherwise the box outputs are
//! enumerated with two-valued evaluation when there are at most
//! [`MAX_ENUMERATED_BITS`] of them; beyond that the witness is counted as
//! unreplayable, not as wrong.

use bbec_core::{Counterexample, PartialCircuit};
use bbec_netlist::{Circuit, Tv};

/// Box-output bits enumerated at most (2^16 evaluations).
const MAX_ENUMERATED_BITS: usize = 16;

/// The result of replaying one witness.
#[derive(Debug, PartialEq, Eq)]
pub enum Replay {
    /// The witness convicts the design.
    Confirmed,
    /// Some box behaviour repairs the design at the witness input.
    Refuted(String),
    /// Too many box outputs to enumerate, and ternary simulation was
    /// inconclusive.
    Unreplayable,
}

/// Replays `cex` against `spec` and `partial`. An attributed witness
/// (`output: Some(j)`) claims output `j` is forced to a wrong value; an
/// unattributed one claims every box assignment leaves some output wrong.
pub fn replay(spec: &Circuit, partial: &PartialCircuit, cex: &Counterexample) -> Replay {
    let host = partial.circuit();
    if cex.inputs.len() != spec.inputs().len() {
        return Replay::Refuted(format!(
            "{} witness inputs for {} primary inputs",
            cex.inputs.len(),
            spec.inputs().len()
        ));
    }
    let want = spec.eval(&cex.inputs).expect("specs are complete");
    if cex.output.is_some_and(|j| j >= want.len()) {
        return Replay::Refuted(format!("output {:?} out of range", cex.output));
    }
    let tv: Vec<Tv> = cex.inputs.iter().map(|&b| b.into()).collect();
    let ternary = host.eval_ternary(&tv).expect("interfaces match");
    let forced_wrong = |j: usize| ternary[j].to_bool().is_some_and(|v| v != want[j]);
    match cex.output {
        Some(j) if forced_wrong(j) => return Replay::Confirmed,
        Some(j) if ternary[j].to_bool().is_some() => {
            return Replay::Refuted(format!("output {j} is forced to the specified value"))
        }
        None if (0..want.len()).any(forced_wrong) => return Replay::Confirmed,
        _ => {}
    }
    let boxes = partial.box_outputs();
    if boxes.len() > MAX_ENUMERATED_BITS {
        return Replay::Unreplayable;
    }
    let opened = with_box_outputs_as_inputs(host, &boxes);
    let mut inputs = cex.inputs.clone();
    for z in 0u32..1 << boxes.len() {
        inputs.truncate(cex.inputs.len());
        inputs.extend((0..boxes.len()).map(|k| z >> k & 1 == 1));
        let got = opened.eval(&inputs).expect("every signal is driven once boxes are inputs");
        // Wrong under every assignment means forced to the one wrong value.
        let repaired = match cex.output {
            Some(j) => got[j] == want[j],
            None => got == want,
        };
        if repaired {
            return Replay::Refuted(format!("box assignment {z:#b} repairs the design"));
        }
    }
    Replay::Confirmed
}

/// `host` with each box output turned into a primary input, appended after
/// the original inputs in `boxes` order.
fn with_box_outputs_as_inputs(host: &Circuit, boxes: &[bbec_netlist::SignalId]) -> Circuit {
    let mut b = Circuit::builder(host.name());
    for &s in host.inputs().iter().chain(boxes) {
        let id = b.signal_or_new(host.signal_name(s));
        b.mark_input(id);
    }
    for gate in host.gates() {
        let ins: Vec<_> =
            gate.inputs.iter().map(|&s| b.signal_or_new(host.signal_name(s))).collect();
        let out = b.signal_or_new(host.signal_name(gate.output));
        b.gate_into(gate.kind, &ins, out);
    }
    for (name, s) in host.outputs() {
        let id = b.signal_or_new(host.signal_name(*s));
        b.output(name, id);
    }
    b.build().expect("a host with its box outputs as inputs is complete")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bbec_core::samples;

    #[test]
    fn genuine_witnesses_confirm_and_forged_ones_do_not() {
        for (spec, partial) in [samples::detected_by_01x(), samples::detected_only_by_local()] {
            let report = bbec_core::ParallelChecker::new(bbec_core::CheckSettings::default(), 1)
                .run(&spec, &partial)
                .unwrap();
            let cex = report.counterexample().expect("these samples yield witnesses");
            assert_eq!(replay(&spec, &partial, cex), Replay::Confirmed);
        }
        let (spec, partial) = samples::completable_pair();
        for output in [None, Some(0)] {
            let forged = Counterexample { inputs: vec![false; spec.inputs().len()], output };
            assert!(matches!(replay(&spec, &partial, &forged), Replay::Refuted(_)), "{output:?}");
        }
    }
}
