//! The untraced runs behind the end-to-end metrics, and the correctness
//! judge every run applies to what the program answered.

use crate::golden::Golden;
use crate::replay::{replay, Replay};
use crate::workloads::{self, Expect, LadderSet, ServeSet, Workload};
use crate::{median, quantile, Metric};
use bbec_core::checks::LadderReport;
use bbec_core::service::{Reply, Service, ServiceConfig};
use bbec_core::{
    CheckError, CheckSettings, Counterexample, ParallelChecker, PartialCircuit, Verdict,
};
use bbec_netlist::Circuit;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Worker threads of the `bbec check` path: the reference host's `nproc`,
/// fixed so the load does not follow the host.
pub const JOBS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// `batch_s` of `serve_edits` is the time for this many requests (ten
/// six-request cycles) at the run's mean latency.
pub const SERVE_BATCH: f64 = 60.0;

/// What a run measured and how its answers fared.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub tally: Tally,
    /// Per instance or request of an end-to-end run: id and latency in ms.
    pub latencies: Vec<(String, f64)>,
}

/// Correctness bookkeeping over every checked instance or request.
#[derive(Default)]
pub struct Tally {
    pub attempted: usize,
    /// `(id, reason)` per failure; one check may fail for several reasons.
    pub failures: Vec<(String, String)>,
    /// Checks where a budget-exceeded rung left the verdict unproven.
    pub undecided: usize,
    /// Witnesses with too many box outputs to replay.
    pub unreplayable: usize,
}

/// A verdict in the shape both the ladder report and a served response
/// reduce to.
pub struct Answer {
    pub error: bool,
    /// Paper label of the deciding rung.
    pub rung: Option<String>,
    /// False when a rung ran out of budget and no error was found.
    pub decided: bool,
    pub witness: Option<Counterexample>,
}

impl Answer {
    pub fn of_report(report: &LadderReport) -> Answer {
        let error = report.verdict() == Verdict::ErrorFound;
        Answer {
            error,
            rung: report.deciding_method().map(|m| m.label().to_string()),
            decided: error || report.budget_exceeded().is_empty(),
            witness: report.counterexample().cloned(),
        }
    }

    /// Reads a `bbec serve` response line; `Err` for anything but a result.
    pub fn of_response(line: &str) -> Result<(Answer, bbec_trace::json::Value), String> {
        use bbec_trace::json::{parse, Value};
        let v = parse(line).map_err(|e| format!("unparseable response: {e}"))?;
        if v.get("type").and_then(Value::as_str) != Some("result") {
            return Err(format!("not a result: {line:.200}"));
        }
        let error = v.get("verdict").and_then(Value::as_str) == Some("error_found");
        let budget = matches!(v.get("budget_exceeded"), Some(Value::Bool(true)));
        let witness = v.get("counterexample").map(|c| Counterexample {
            inputs: c
                .get("inputs")
                .and_then(Value::as_array)
                .unwrap_or_default()
                .iter()
                .map(|b| b.as_f64() == Some(1.0))
                .collect(),
            output: c.get("output").and_then(Value::as_f64).map(|o| o as usize),
        });
        let answer = Answer {
            error,
            rung: v.get("method").and_then(Value::as_str).map(str::to_string),
            decided: error || !budget,
            witness,
        };
        Ok((answer, v))
    }
}

impl Tally {
    /// Judges one answer: the expected verdict, an independent replay of
    /// its witness, and the golden verdict when both sides decided.
    pub fn judge(
        &mut self,
        id: &str,
        expect: Expect,
        answer: &Answer,
        spec: &Circuit,
        partial: &PartialCircuit,
        golden: Option<&Golden>,
    ) {
        self.attempted += 1;
        match expect {
            Expect::Error if !answer.error && answer.decided => {
                self.fail(id, "missed a simulation-visible bug".to_string())
            }
            Expect::Clean if answer.error => {
                self.fail(id, "reported an error on a completable design".to_string())
            }
            _ => {}
        }
        if answer.error && answer.witness.is_none() && answer.rung.as_deref() != Some("ie") {
            self.fail(id, format!("{:?} reported an error without a witness", answer.rung));
        }
        if let Some(cex) = &answer.witness {
            match replay(spec, partial, cex) {
                Replay::Confirmed => {}
                Replay::Refuted(why) => self.fail(id, format!("witness fails replay: {why}")),
                Replay::Unreplayable => self.unreplayable += 1,
            }
        }
        if let Some(expected) = golden.and_then(|g| g.get(id)) {
            if expected.decided && answer.decided && expected.error != answer.error {
                self.fail(id, "verdict differs from expected.jsonl".to_string());
            }
        }
        if !answer.decided {
            self.undecided += 1;
        }
    }

    pub fn judge_check(
        &mut self,
        inst: &workloads::Instance,
        spec: &Circuit,
        result: &Result<LadderReport, CheckError>,
        golden: Option<&Golden>,
    ) {
        match result {
            Ok(report) => self.judge(
                &inst.id,
                inst.expect,
                &Answer::of_report(report),
                spec,
                &inst.partial,
                golden,
            ),
            Err(e) => self.unanswered(&inst.id, format!("check failed: {e}")),
        }
    }

    fn fail(&mut self, id: &str, why: String) {
        self.failures.push((id.to_string(), why));
    }

    /// Records a check that produced no answer to judge.
    pub fn unanswered(&mut self, id: &str, why: String) {
        self.attempted += 1;
        self.fail(id, why);
    }

    /// The `failed` count of the result line: every failed check once.
    pub fn failed(&self) -> usize {
        self.failures.iter().map(|(id, _)| id).collect::<BTreeSet<_>>().len()
    }
}

/// The settings of the `bbec check` path: the CLI's defaults, sweep on.
pub fn check_settings() -> CheckSettings {
    CheckSettings { sweep: true, ..CheckSettings::default() }
}

/// Runs `make` [`SETUPS`] times and keeps the last result, with the median
/// wall time of the set-ups in seconds.
pub fn timed_setup<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut made = None;
    for _ in 0..SETUPS {
        drop(made.take());
        let start = Instant::now();
        made = Some(make());
        times.push(start.elapsed().as_secs_f64());
    }
    (made.expect("at least one set-up"), median(&times))
}

/// Sends the priming request; its response must be a clean result.
pub fn primed_service(set: &ServeSet, settings: CheckSettings) -> Service {
    let service = Service::new(ServiceConfig { settings, ..ServiceConfig::default() });
    match service.handle_line(&set.prime) {
        Reply::Line(line) if line.contains("\"verdict\":\"no_error_found\"") => service,
        other => panic!("priming the service failed: {other:?}"),
    }
}

/// Checks the first instance of each circuit once, untimed, so the timed
/// passes start with every code path and circuit touched.
pub fn warm_up(set: &LadderSet, checker: &ParallelChecker) {
    for (circuit, _) in set.suite.iter().enumerate() {
        if let Some(inst) = set.instances.iter().find(|i| i.circuit == circuit) {
            let _ = checker.run(set.spec(inst), &inst.partial);
        }
    }
}

/// Times every instance in whole passes until the next pass would not fit
/// in `window` (at least one pass). Returns per-instance samples in ms and
/// the first pass's results.
fn timed_passes(
    set: &LadderSet,
    checker: &ParallelChecker,
    window: Duration,
) -> (Vec<Vec<f64>>, Vec<Result<LadderReport, CheckError>>) {
    let n = set.instances.len();
    let mut samples = vec![Vec::new(); n];
    let mut first = Vec::with_capacity(n);
    let start = Instant::now();
    loop {
        let pass = Instant::now();
        for (inst, times) in set.instances.iter().zip(&mut samples) {
            let t = Instant::now();
            let result = checker.run(set.spec(inst), &inst.partial);
            times.push(t.elapsed().as_secs_f64() * 1e3);
            if first.len() < n {
                first.push(result);
            }
        }
        if start.elapsed() + pass.elapsed() > window {
            return (samples, first);
        }
    }
}

/// The end-to-end run of a ladder workload.
pub fn ladder(
    workload: Workload,
    seed: u64,
    quick: bool,
    window: Duration,
    golden: Option<&Golden>,
) -> Outcome {
    let checker = ParallelChecker::new(check_settings(), JOBS);
    let (set, setup_s) = timed_setup(|| {
        let set = workloads::ladder_set(workload, seed, quick);
        warm_up(&set, &checker);
        set
    });

    let (samples, results) = timed_passes(&set, &checker, window);
    let mut tally = Tally::default();
    for (inst, result) in set.instances.iter().zip(&results) {
        tally.judge_check(inst, set.spec(inst), result, golden);
    }
    let latencies: Vec<f64> = samples.iter().map(|s| median(s)).collect();
    let batch_s = latencies.iter().sum::<f64>() / 1e3;
    Outcome {
        metrics: e2e(workload, setup_s, &latencies, batch_s),
        tally,
        latencies: set.instances.iter().map(|i| i.id.clone()).zip(latencies).collect(),
    }
}

/// The end-to-end run of `serve_edits`: one closed-loop client sends the
/// stream in whole six-request cycles until the window closes.
pub fn serve(seed: u64, quick: bool, window: Duration, golden: Option<&Golden>) -> Outcome {
    let ((set, service), setup_s) = timed_setup(|| {
        let set = workloads::serve_set(seed, quick);
        let service = primed_service(&set, CheckSettings::default());
        (set, service)
    });
    let mut latencies = Vec::new();
    let mut replies = Vec::new();
    let start = Instant::now();
    for (k, req) in set.requests.iter().enumerate() {
        if k > 0 && k % 6 == 0 && start.elapsed() >= window {
            break;
        }
        let t = Instant::now();
        let reply = service.handle_line(&req.line);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        replies.push(reply);
    }
    let mut tally = Tally::default();
    for (req, reply) in set.requests.iter().zip(&replies) {
        judge_reply(&mut tally, req, &set.spec, reply, golden);
    }
    let batch_s = latencies.iter().sum::<f64>() / latencies.len() as f64 * SERVE_BATCH / 1e3;
    Outcome {
        metrics: e2e(Workload::ServeEdits, setup_s, &latencies, batch_s),
        tally,
        latencies: set.requests.iter().map(|r| r.id.clone()).zip(latencies).collect(),
    }
}

pub fn judge_reply(
    tally: &mut Tally,
    req: &workloads::Request,
    spec: &Circuit,
    reply: &Reply,
    golden: Option<&Golden>,
) {
    let line = match reply {
        Reply::Line(line) => line,
        Reply::Bye(line) => line,
    };
    match Answer::of_response(line) {
        Ok((answer, _)) => {
            tally.judge(&req.id, req.kind.expect(), &answer, spec, &req.partial, golden)
        }
        Err(why) => tally.unanswered(&req.id, why),
    }
}

fn e2e(workload: Workload, setup_s: f64, latencies: &[f64], batch_s: f64) -> Vec<Metric> {
    vec![
        Metric::new("setup_s", "s", setup_s),
        Metric::new("latency_p50_ms", "ms", quantile(latencies, 0.5)),
        Metric::new("latency_tail_ms", "ms", quantile(latencies, workload.tail_quantile())),
        Metric::new("batch_s", "s", batch_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb()),
    ]
}

/// `VmHWM` of this process in MB (0 where `/proc` is unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
