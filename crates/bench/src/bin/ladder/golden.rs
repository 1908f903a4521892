//! `expected.jsonl`: the verdict, deciding rung and decided flag of every
//! instance and request at the default seed and full size, one JSON object
//! per line. Runs at that seed fail any check whose verdict differs while
//! both sides decided.
//!
//! Regenerate from the repository root with
//! `BBEC_UPDATE_GOLDEN=1 cargo run --release --manifest-path crates/bench/src/bin/ladder/Cargo.toml`.
//! Regeneration checks every instance once, cross-checks every served
//! verdict against `ParallelChecker::run` on the same pair, and refuses to
//! write a golden whose own answers fail the judge.

use crate::measure::{self, Answer, Tally};
use crate::workloads::{self, Workload};
use crate::DEFAULT_SEED;
use bbec_core::service::{Reply, ServiceConfig};
use bbec_core::ParallelChecker;
use bbec_trace::json::{parse, ObjectWriter, Value};
use std::collections::BTreeMap;

/// Where regeneration writes, relative to the repository root.
const PATH: &str = "crates/bench/src/bin/ladder/expected.jsonl";

/// One expected answer.
pub struct Expected {
    pub error: bool,
    pub decided: bool,
}

/// The golden verdicts by instance id.
pub struct Golden(BTreeMap<String, Expected>);

impl Golden {
    pub fn load() -> Golden {
        let mut map = BTreeMap::new();
        for line in include_str!("expected.jsonl").lines().filter(|l| !l.trim().is_empty()) {
            let v = parse(line).expect("expected.jsonl holds one JSON object per line");
            let id = v.get("id").and_then(Value::as_str).expect("every golden line has an id");
            let expected = Expected {
                error: v.get("verdict").and_then(Value::as_str) == Some("error_found"),
                decided: matches!(v.get("decided"), Some(Value::Bool(true))),
            };
            map.insert(id.to_string(), expected);
        }
        Golden(map)
    }

    pub fn get(&self, id: &str) -> Option<&Expected> {
        self.0.get(id)
    }
}

fn line(id: &str, answer: &Answer) -> String {
    let mut w = ObjectWriter::new();
    w.str("id", id);
    w.str("verdict", if answer.error { "error_found" } else { "no_error_found" });
    match &answer.rung {
        Some(rung) => w.str("rung", rung),
        None => w.raw("rung", "null"),
    }
    w.bool("decided", answer.decided);
    w.finish()
}

/// Rewrites `expected.jsonl` from fresh answers at the default seed.
pub fn regenerate() -> Result<(), String> {
    let mut lines = Vec::new();
    let mut tally = Tally::default();
    for workload in Workload::ALL {
        eprintln!("golden: {}", workload.name());
        if workload == Workload::ServeEdits {
            serve_lines(&mut lines, &mut tally)?;
            continue;
        }
        let set = workloads::ladder_set(workload, DEFAULT_SEED, false);
        let checker = ParallelChecker::new(measure::check_settings(), measure::JOBS);
        for inst in &set.instances {
            let spec = set.spec(inst);
            let result = checker.run(spec, &inst.partial);
            tally.judge_check(inst, spec, &result, None);
            if let Ok(report) = result {
                lines.push(line(&inst.id, &Answer::of_report(&report)));
            }
        }
    }
    if !tally.failures.is_empty() {
        let failures: Vec<String> =
            tally.failures.iter().map(|(id, why)| format!("{id}: {why}")).collect();
        return Err(format!("refusing to write a failing golden:\n{}", failures.join("\n")));
    }
    lines.sort();
    std::fs::write(PATH, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {PATH}: {e}"))?;
    eprintln!("golden: wrote {} answers to {PATH}", lines.len());
    Ok(())
}

fn serve_lines(lines: &mut Vec<String>, tally: &mut Tally) -> Result<(), String> {
    let set = workloads::serve_set(DEFAULT_SEED, false);
    let settings = ServiceConfig::default().settings;
    let service = measure::primed_service(&set, settings.clone());
    let reference = ParallelChecker::new(settings, 1);
    for req in &set.requests {
        let reply = service.handle_line(&req.line);
        measure::judge_reply(tally, req, &set.spec, &reply, None);
        let Reply::Line(text) = reply else { return Err(format!("{}: unexpected bye", req.id)) };
        let (served, _) = Answer::of_response(&text)?;
        let report =
            reference.run(&set.spec, &req.partial).map_err(|e| format!("{}: {e}", req.id))?;
        let direct = Answer::of_report(&report);
        if (served.error, &served.rung) != (direct.error, &direct.rung) {
            return Err(format!(
                "{}: served {:?} by {:?}, ParallelChecker::run {:?} by {:?}",
                req.id, served.error, served.rung, direct.error, direct.rung
            ));
        }
        lines.push(line(&req.id, &served));
    }
    Ok(())
}
