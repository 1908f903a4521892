//! The inputs of each workload: carved paper circuits and served request
//! lines. Nothing here runs the checker; the program under test only ever
//! sees what these functions generate.
//!
//! Box placement is fixed, `--seed` draws what is planted into it. Clean
//! instances cost up to 7x more or less when their box window moves by a
//! few gates (term1 boxed near its inputs takes 1.5-5 s, a few gates later
//! 0.3 s), so seeded box placement would make every timing a property of
//! the seed. Windows therefore sit at van der Corput positions (1/2, 1/4,
//! 3/4, ...), which spread any prefix of selections evenly over the
//! topological order. The seed draws the planted bugs, the function-
//! preserving edits of the clean workloads (an inverter pair the ladder's
//! structural sweep mostly folds away: apply steps move by under 1%) and
//! the edit stream of `serve_edits`.

use bbec_core::{BlackBox, PartialCircuit};
use bbec_netlist::benchmarks::{self, Benchmark};
use bbec_netlist::{blif, generators, BitSim, Circuit, GateKind, Mutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Share of each circuit's gates moved into black boxes (the paper's 10%).
const FRACTION: f64 = 0.1;
/// A bug counts as simulation-visible when at least this many of 64
/// random screening patterns show a definite wrong output with every box output
/// at X. The ladder's 5000-pattern r.p. rung then finds it with certainty
/// for all practical purposes, so these instances never reach BDD rungs.
const MIN_VISIBLE_LANES: u32 = 4;
/// Mutation draws per instance before generation gives up.
const MAX_DRAWS: usize = 256;

/// The four workloads, in the order `BENCHMARK.json` lists them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Table1Bugs,
    Table1Clean,
    Table2Clean,
    ServeEdits,
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Table1Bugs, Workload::Table1Clean, Workload::Table2Clean, Workload::ServeEdits];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Bugs => "table1_bugs",
            Workload::Table1Clean => "table1_clean",
            Workload::Table2Clean => "table2_clean",
            Workload::ServeEdits => "serve_edits",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency percentile reported as `latency_tail_ms`: the highest
    /// of p75/p90/p95 that leaves at least ten samples beyond it at the
    /// workload's full size (360, 48, 40 instances; 120 requests).
    pub fn tail_quantile(self) -> f64 {
        match self {
            Workload::Table1Bugs => 0.95,
            Workload::Table1Clean | Workload::Table2Clean => 0.75,
            Workload::ServeEdits => 0.90,
        }
    }
}

/// What a correct checker must answer for an instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A planted bug that simulation exposes: no completion exists.
    Error,
    /// Completable by construction (the carve of an unmodified design).
    Clean,
}

/// One `bbec check` input: a specification from the suite and a partial
/// implementation.
pub struct Instance {
    /// `<workload>/<circuit>/s<selection>[b<bug>]`, the golden-file key.
    pub id: String,
    /// Index into [`LadderSet::suite`].
    pub circuit: usize,
    pub partial: PartialCircuit,
    pub expect: Expect,
}

/// The instances of a ladder workload.
pub struct LadderSet {
    pub suite: Vec<Benchmark>,
    pub instances: Vec<Instance>,
}

impl LadderSet {
    pub fn spec(&self, inst: &Instance) -> &Circuit {
        &self.suite[inst.circuit].circuit
    }
}

/// What a served request resubmits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// The primed base design again: a full result-cache hit.
    Hit,
    /// One simulation-visible bug in one output cone.
    Bug,
    /// A function-preserving edit (an inverter pair) in one output cone:
    /// the dirty cone passes, so the whole-circuit oe/ie rungs run.
    Benign,
}

impl RequestKind {
    pub fn expect(self) -> Expect {
        match self {
            RequestKind::Bug => Expect::Error,
            RequestKind::Hit | RequestKind::Benign => Expect::Clean,
        }
    }
}

/// One `bbec serve` request line and the pair it carries.
pub struct Request {
    /// `serve_edits/r<k>`, the golden-file key.
    pub id: String,
    pub kind: RequestKind,
    /// The implementation as the service carves it.
    pub partial: PartialCircuit,
    pub line: String,
}

/// The served workload: the base design and its request stream.
pub struct ServeSet {
    /// The specification as the service parses it.
    pub spec: Circuit,
    /// The line that primes the service with the base design.
    pub prime: String,
    pub requests: Vec<Request>,
}

/// Per-circuit counts of one ladder workload.
struct LadderShape {
    circuits: &'static [&'static str],
    boxes: usize,
    selections: usize,
    /// Planted bugs per selection; 0 = clean instances.
    bugs: usize,
}

fn ladder_shape(workload: Workload, quick: bool) -> LadderShape {
    const ALL: &[&str] =
        &["alu4", "apex3", "C432", "C499", "C880", "C1355", "C1908", "comp", "term1"];
    // C499, C880 and C1355 are left out of the clean workloads: a single
    // clean one-box carve costs 1.3-2.5 s (C499) or 10-30 s (C880, C1355)
    // and would turn the batch into one instance's timing. Five-box carves
    // of apex3 and C1908 cost 3-30 s for the same reason.
    const CLEAN1: &[&str] = &["alu4", "apex3", "C432", "C1908", "comp", "term1"];
    const CLEAN5: &[&str] = &["alu4", "C432", "comp", "term1"];
    // Quick runs (the self-test) keep two instances per circuit and drop
    // the circuits whose clean carves take seconds in a debug build.
    const QUICK_CLEAN: &[&str] = &["alu4", "comp"];
    match (workload, quick) {
        (Workload::Table1Bugs, false) => {
            LadderShape { circuits: ALL, boxes: 1, selections: 5, bugs: 8 }
        }
        (Workload::Table1Bugs, true) => {
            LadderShape { circuits: ALL, boxes: 1, selections: 1, bugs: 2 }
        }
        (Workload::Table1Clean, false) => {
            LadderShape { circuits: CLEAN1, boxes: 1, selections: 8, bugs: 0 }
        }
        (Workload::Table2Clean, false) => {
            LadderShape { circuits: CLEAN5, boxes: 5, selections: 10, bugs: 0 }
        }
        (Workload::Table1Clean, true) => {
            LadderShape { circuits: QUICK_CLEAN, boxes: 1, selections: 2, bugs: 0 }
        }
        (Workload::Table2Clean, true) => {
            LadderShape { circuits: QUICK_CLEAN, boxes: 5, selections: 2, bugs: 0 }
        }
        (Workload::ServeEdits, _) => unreachable!("serve_edits is not a ladder workload"),
    }
}

/// Generates a ladder workload; deterministic in `seed`.
pub fn ladder_set(workload: Workload, seed: u64, quick: bool) -> LadderSet {
    let shape = ladder_shape(workload, quick);
    let suite: Vec<Benchmark> =
        benchmarks::suite().into_iter().filter(|b| shape.circuits.contains(&b.name)).collect();
    let mut instances = Vec::new();
    for (circuit, bench) in suite.iter().enumerate() {
        let spec = &bench.circuit;
        for sel in 0..shape.selections {
            let sets = carve(spec, shape.boxes, sel);
            let boxed: Vec<u32> = sets.iter().flatten().copied().collect();
            let free: Vec<u32> =
                (0..spec.gates().len() as u32).filter(|g| !boxed.contains(g)).collect();
            let tag = format!("{}/{}/s{sel}", workload.name(), bench.name);
            if shape.bugs == 0 {
                let mut rng = rng_for(seed, &[name_hash(bench.name), sel as u64]);
                let gate = free[rng.random_range(0..free.len())];
                let partial =
                    PartialCircuit::black_box_partition(&double_inversion(spec, gate), &sets)
                        .expect("an edit outside the boxes keeps the carve valid");
                instances.push(Instance { id: tag, circuit, partial, expect: Expect::Clean });
                continue;
            }
            for bug in 0..shape.bugs {
                let mut rng = rng_for(seed, &[name_hash(bench.name), sel as u64, bug as u64]);
                let partial = visible_bug(spec, &sets, &free, &mut rng);
                instances.push(Instance {
                    id: format!("{tag}b{bug}"),
                    circuit,
                    partial,
                    expect: Expect::Error,
                });
            }
        }
    }
    LadderSet { suite, instances }
}

/// Generates the served request stream; deterministic in `seed`.
///
/// A fixed cycle of six requests repeats: two full hits, three one-cone bug
/// edits and one benign edit; request `k` edits cone `1 + k mod (blocks - 1)`.
pub fn serve_set(seed: u64, quick: bool) -> ServeSet {
    // Ten 10-input cones of 120 gates: a benign edit's whole-circuit oe/ie
    // rungs take about 1 s on the reference host (the 220-gate variant of
    // the `service` bench takes 2.5 s, too long for the run window).
    let (blocks, inputs, gates, requests) = if quick { (4, 6, 40, 6) } else { (10, 10, 120, 120) };
    let design = generators::disjoint_cones(blocks, inputs, gates, 0xBBEC);
    let base = PartialCircuit::black_box_gates(&design, &[0]).expect("gate 0 boxes cleanly");
    let spec_text = blif::write(&design);
    let base_text = blif::write(base.circuit());
    let prime = check_line("serve_edits/prime", &spec_text, &base_text);
    let requests = (0..requests)
        .map(|k| {
            let id = format!("serve_edits/r{k}");
            let kind = match k % 6 {
                0 | 3 => RequestKind::Hit,
                5 => RequestKind::Benign,
                _ => RequestKind::Bug,
            };
            let impl_text = match kind {
                RequestKind::Hit => base_text.clone(),
                RequestKind::Bug | RequestKind::Benign => {
                    let mut rng = rng_for(seed, &[k as u64]);
                    // Cone 0 holds the box, whose X reaches output 0 through
                    // the cone's XOR fold: no bug there is visible.
                    let (_, root) = design.outputs()[1 + k % (blocks - 1)];
                    let cone: Vec<u32> =
                        design.fanin_cone_gates(&[root]).into_iter().filter(|&g| g != 0).collect();
                    let partial = if kind == RequestKind::Bug {
                        visible_bug(&design, &[vec![0]], &cone, &mut rng)
                    } else {
                        let gate = cone[rng.random_range(0..cone.len())];
                        PartialCircuit::black_box_gates(&double_inversion(&design, gate), &[0])
                            .expect("an edit outside the box keeps the carve valid")
                    };
                    blif::write(partial.circuit())
                }
            };
            let line = check_line(&id, &spec_text, &impl_text);
            Request { id, kind, partial: served_carve(&impl_text), line }
        })
        .collect();
    let spec = blif::parse(&spec_text).expect("written BLIF parses");
    ServeSet { spec, prime, requests }
}

/// The pair the service checks for an inline implementation: the parsed
/// host with every undriven signal in one box that sees all primary
/// inputs, as `bbec serve` carves it.
fn served_carve(impl_text: &str) -> PartialCircuit {
    let host = blif::parse_allow_undriven(impl_text).expect("written BLIF parses");
    let inputs = host.inputs().to_vec();
    let outputs = host.undriven_signals();
    PartialCircuit::new(host, vec![BlackBox { name: "BB1".to_string(), inputs, outputs }])
        .expect("the box carve of a valid partial is valid")
}

/// A `"type":"check"` request carrying both circuits inline.
pub fn check_line(id: &str, spec_blif: &str, impl_blif: &str) -> String {
    let mut w = bbec_trace::json::ObjectWriter::new();
    w.str("type", "check");
    w.str("id", id);
    w.str("spec_blif", spec_blif);
    w.str("impl_blif", impl_blif);
    w.finish()
}

/// The gate sets of selection `sel`: `boxes` windows of the topological
/// order, one per equal segment, each at the same van der Corput offset
/// inside its segment. Windows of the topological order are convex and
/// ordered, so every box is a valid combinational block.
fn carve(spec: &Circuit, boxes: usize, sel: usize) -> Vec<Vec<u32>> {
    let n = spec.gates().len();
    let count = ((n as f64 * FRACTION).round() as usize).clamp(boxes, n);
    let width = count / boxes;
    let segment = n / boxes;
    let offset = (van_der_corput(sel + 1) * (segment - width) as f64) as usize;
    let topo = spec.topo_order();
    (0..boxes).map(|b| topo[b * segment + offset..][..width].to_vec()).collect()
}

/// The base-2 radical inverse of `i`: 1/2, 1/4, 3/4, 1/8, 5/8, ...
fn van_der_corput(mut i: usize) -> f64 {
    let (mut x, mut digit) = (0.0, 0.5);
    while i > 0 {
        if i & 1 == 1 {
            x += digit;
        }
        digit /= 2.0;
        i >>= 1;
    }
    x
}

/// Plants one simulation-visible paper-style mutation on one of the
/// `allowed` gates (never a boxed one).
fn visible_bug(
    spec: &Circuit,
    sets: &[Vec<u32>],
    allowed: &[u32],
    rng: &mut StdRng,
) -> PartialCircuit {
    for _ in 0..MAX_DRAWS {
        let mutation = Mutation::random(spec, allowed, rng).expect("some gate may be mutated");
        let Ok(faulty) = mutation.apply(spec) else { continue };
        let Ok(partial) = PartialCircuit::black_box_partition(&faulty, sets) else { continue };
        if visible_lanes(spec, partial.circuit(), rng) >= MIN_VISIBLE_LANES {
            return partial;
        }
    }
    panic!("{}: no simulation-visible bug in {MAX_DRAWS} draws", spec.name());
}

/// How many of 64 random patterns show some output of `host` (box outputs
/// at X) definite and different from `spec`.
fn visible_lanes(spec: &Circuit, host: &Circuit, rng: &mut StdRng) -> u32 {
    let inputs: Vec<u64> = (0..spec.inputs().len()).map(|_| rng.next_u64()).collect();
    let want = BitSim::new(spec).eval_block(&inputs).expect("specs are complete").to_vec();
    let mut sim = BitSim::new(host);
    let (ones, xs) =
        sim.eval_ternary_block(&inputs, &vec![0; inputs.len()]).expect("interfaces match");
    let wrong =
        want.iter().zip(ones.iter().zip(xs)).fold(0u64, |acc, (w, (o, x))| acc | (!x & (o ^ w)));
    wrong.count_ones()
}

/// `circuit` with gate `gate` re-expressed as itself followed by two
/// inverters: a different netlist with the same function at every signal.
fn double_inversion(circuit: &Circuit, gate: u32) -> Circuit {
    let mut b = Circuit::builder(circuit.name());
    let fresh = |b: &mut bbec_netlist::CircuitBuilder, base: &str| {
        let mut name = base.to_string();
        while circuit.find_signal(&name).is_some() || b.contains_signal(&name) {
            name.push('_');
        }
        b.signal(&name)
    };
    for &s in circuit.inputs() {
        let id = b.signal_or_new(circuit.signal_name(s));
        b.mark_input(id);
    }
    let mut tail = None;
    for (g, gate_ref) in circuit.gates().iter().enumerate() {
        let ins: Vec<_> =
            gate_ref.inputs.iter().map(|&s| b.signal_or_new(circuit.signal_name(s))).collect();
        let out = b.signal_or_new(circuit.signal_name(gate_ref.output));
        if g as u32 == gate {
            let pre = fresh(&mut b, "ladder_pre");
            b.gate_into(gate_ref.kind, &ins, pre);
            tail = Some((pre, out));
        } else {
            b.gate_into(gate_ref.kind, &ins, out);
        }
    }
    // Appended last, so every original gate keeps its index and the carve's
    // gate sets stay valid on the edited circuit.
    let (pre, out) = tail.expect("the edited gate exists");
    let mid = fresh(&mut b, "ladder_mid");
    b.gate_into(GateKind::Not, &[pre], mid);
    b.gate_into(GateKind::Not, &[mid], out);
    for (name, s) in circuit.outputs() {
        let id = b.signal_or_new(circuit.signal_name(*s));
        b.output(name, id);
    }
    b.build().expect("a double inversion keeps the circuit well formed")
}

fn name_hash(name: &str) -> u64 {
    name.bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// An independent stream per `(seed, parts)`.
fn rng_for(seed: u64, parts: &[u64]) -> StdRng {
    let mixed = parts
        .iter()
        .fold(seed, |h, &p| (h ^ p).wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29));
    StdRng::seed_from_u64(mixed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn van_der_corput_prefixes_spread_evenly() {
        let xs: Vec<f64> = (1..=4).map(van_der_corput).collect();
        assert_eq!(xs, vec![0.5, 0.25, 0.75, 0.125]);
    }

    #[test]
    fn double_inversion_preserves_function_and_gate_indices() {
        let spec = generators::disjoint_cones(2, 4, 12, 3);
        let edited = double_inversion(&spec, 5);
        assert_eq!(edited.gates().len(), spec.gates().len() + 2);
        for (a, b) in spec.gates().iter().zip(edited.gates()) {
            assert_eq!(a.kind, b.kind);
        }
        for bits in 0u32..256 {
            let inputs: Vec<bool> = (0..8).map(|i| bits >> i & 1 == 1).collect();
            assert_eq!(spec.eval(&inputs).unwrap(), edited.eval(&inputs).unwrap());
        }
    }
}
