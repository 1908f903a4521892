//! Cross-run regression comparison over trace-schema JSONL streams.
//!
//! The single source of truth for "is this run worse than that one":
//! `bbec report --compare` calls into this module instead of keeping a
//! private copy of the comparison rules.
//!
//! Rows are `record` events selected by event name, grouped by a key
//! attribute and reduced to one metric attribute. When the baseline holds
//! several rows per key (e.g. committed before/after pairs), the most
//! favourable baseline value is used — the gate compares against the best
//! the code has demonstrably done — while the *latest* current value is
//! taken, because the run under test is the run under test. A baseline
//! filter (`attr=value`) narrows which baseline rows participate.

use crate::json::{parse, Value};
use std::collections::BTreeMap;

/// Which direction of change is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Larger metric values are better (e.g. `ops_per_sec`).
    HigherBetter,
    /// Smaller metric values are better (e.g. `millis`, `peak_live_nodes`).
    LowerBetter,
}

impl Mode {
    /// Parses the CLI spelling (`higher-better` / `lower-better`).
    pub fn parse(s: &str) -> Result<Mode, String> {
        match s {
            "higher-better" => Ok(Mode::HigherBetter),
            "lower-better" => Ok(Mode::LowerBetter),
            other => Err(format!("unknown mode '{other}' (want higher-better|lower-better)")),
        }
    }
}

/// What to extract and how to judge it.
#[derive(Debug, Clone)]
pub struct CompareSpec {
    /// `record` event name to select (e.g. `bdd_micro`).
    pub event: String,
    /// Attribute whose value groups rows (e.g. `workload`).
    pub key: String,
    /// Attribute holding the gated number (e.g. `ops_per_sec`).
    pub metric: String,
    /// Direction of goodness.
    pub mode: Mode,
    /// Allowed relative slack before a change counts as a regression.
    pub tolerance: f64,
    /// Baseline-only row filter as `(attr, value)` (e.g. `phase=after`).
    pub baseline_filter: Option<(String, String)>,
}

/// The judgement for one key.
#[derive(Debug, Clone)]
pub struct KeyComparison {
    /// The grouping key value.
    pub key: String,
    /// Best baseline metric, `None` when the key is new in the current run.
    pub baseline: Option<f64>,
    /// Latest current metric, `None` when the key vanished.
    pub current: Option<f64>,
    /// Signed relative change towards "better" (+ is improvement).
    pub change: f64,
    /// Whether this key passes the tolerance (a missing current key fails).
    pub pass: bool,
}

/// The full report of one comparison.
#[derive(Debug, Clone)]
pub struct CompareReport {
    /// Per-key judgements, in key order.
    pub rows: Vec<KeyComparison>,
    /// True when every key passed.
    pub pass: bool,
}

/// Attribute as display text, for grouping: strings verbatim, numbers via
/// their f64 rendering (so `4` and `4.0` coincide).
pub fn key_text(v: &Value) -> Option<String> {
    if let Some(s) = v.as_str() {
        return Some(s.to_string());
    }
    v.as_f64().map(|n| {
        if n.fract() == 0.0 && n.abs() < 1e15 {
            format!("{}", n as i64)
        } else {
            format!("{n}")
        }
    })
}

/// Extracts `key → metric values` rows for `event` from one JSONL stream
/// (blank lines skipped). Multiple rows per key keep every value, in
/// stream order. `filter`, when given, drops rows whose attribute differs.
pub fn load_rows(
    input: &str,
    event: &str,
    key: &str,
    metric: &str,
    filter: Option<&(String, String)>,
) -> Result<BTreeMap<String, Vec<f64>>, String> {
    let mut rows: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for (lineno, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let value = parse(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        if value.get("type").and_then(Value::as_str) != Some("record")
            || value.get("name").and_then(Value::as_str) != Some(event)
        {
            continue;
        }
        let Some(attrs) = value.get("attrs") else { continue };
        if let Some((fk, fv)) = filter {
            let matched = attrs.get(fk).and_then(key_text).is_some_and(|t| &t == fv);
            if !matched {
                continue;
            }
        }
        let Some(key_value) = attrs.get(key).and_then(key_text) else { continue };
        let Some(metric_value) = attrs.get(metric).and_then(Value::as_f64) else {
            continue;
        };
        rows.entry(key_value).or_default().push(metric_value);
    }
    Ok(rows)
}

fn best(values: &[f64], mode: Mode) -> f64 {
    values
        .iter()
        .copied()
        .reduce(|a, b| match mode {
            Mode::HigherBetter => a.max(b),
            Mode::LowerBetter => a.min(b),
        })
        .unwrap_or(f64::NAN)
}

/// Compares two JSONL streams under `spec`.
///
/// Every baseline key must be present in the current stream and within
/// tolerance of the best baseline value; keys only present in the current
/// stream are reported as informational (`pass`, no baseline). Errors on
/// unparseable input or when either stream yields no rows at all.
pub fn compare(baseline: &str, current: &str, spec: &CompareSpec) -> Result<CompareReport, String> {
    let base_rows =
        load_rows(baseline, &spec.event, &spec.key, &spec.metric, spec.baseline_filter.as_ref())?;
    let cur_rows = load_rows(current, &spec.event, &spec.key, &spec.metric, None)?;
    if base_rows.is_empty() {
        return Err(format!("baseline has no `{}` rows matching the filter", spec.event));
    }
    if cur_rows.is_empty() {
        return Err(format!("current stream has no `{}` rows", spec.event));
    }
    let mut rows = Vec::new();
    let mut pass = true;
    for (key, base_values) in &base_rows {
        let base = best(base_values, spec.mode);
        let Some(cur_values) = cur_rows.get(key) else {
            rows.push(KeyComparison {
                key: key.clone(),
                baseline: Some(base),
                current: None,
                change: f64::NEG_INFINITY,
                pass: false,
            });
            pass = false;
            continue;
        };
        // Latest current value: the run under test, not its best-ever.
        let cur = *cur_values.last().unwrap();
        let (key_pass, change) = match spec.mode {
            Mode::HigherBetter => (cur >= base * (1.0 - spec.tolerance), cur / base - 1.0),
            Mode::LowerBetter => (cur <= base * (1.0 + spec.tolerance), base / cur - 1.0),
        };
        rows.push(KeyComparison {
            key: key.clone(),
            baseline: Some(base),
            current: Some(cur),
            change,
            pass: key_pass,
        });
        pass &= key_pass;
    }
    for (key, cur_values) in &cur_rows {
        if !base_rows.contains_key(key) {
            rows.push(KeyComparison {
                key: key.clone(),
                baseline: None,
                current: Some(*cur_values.last().unwrap()),
                change: 0.0,
                pass: true,
            });
        }
    }
    Ok(CompareReport { rows, pass })
}

/// The `host_parallelism` a JSONL stream was recorded on: taken from the
/// stream's `meta` line, falling back to the first record attribute of
/// that name (bench binaries stamp it on every row). `None` when the
/// stream carries no host information; unparseable lines are skipped —
/// this is advisory metadata, not part of the gate.
///
/// Callers of [`compare`] should warn (not fail) when baseline and current
/// disagree: wall-clock numbers measured on hosts with different core
/// counts are not comparable for parallel-scaling benchmarks.
pub fn host_parallelism(input: &str) -> Option<u64> {
    for line in input.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = parse(line) else { continue };
        let direct = value.get("host_parallelism").and_then(Value::as_f64);
        let in_attrs =
            value.get("attrs").and_then(|a| a.get("host_parallelism")).and_then(Value::as_f64);
        if let Some(n) = direct.or(in_attrs) {
            return Some(n as u64);
        }
    }
    None
}

/// Renders one comparison row as one line of `bbec report --compare` output.
pub fn render_row(row: &KeyComparison, spec: &CompareSpec) -> String {
    match (row.baseline, row.current) {
        (Some(_), None) => {
            format!("{}={}: MISSING from current run", spec.key, row.key)
        }
        (None, Some(cur)) => {
            format!("{}={}: {} {:.3} (new, no baseline)", spec.key, row.key, spec.metric, cur)
        }
        (Some(base), Some(cur)) => format!(
            "{}={}: {} {:.3} vs baseline {:.3} ({:+.1}%) -> {}",
            spec.key,
            row.key,
            spec.metric,
            cur,
            base,
            row.change * 100.0,
            if row.pass { "ok" } else { "REGRESSION" }
        ),
        (None, None) => unreachable!("a comparison row has at least one side"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(event: &str, key: &str, metric: f64, phase: &str) -> String {
        format!(
            r#"{{"type":"record","seq":1,"name":"{event}","attrs":{{"workload":"{key}","ops_per_sec":{metric},"phase":"{phase}"}}}}"#
        )
    }

    fn spec(mode: Mode, tolerance: f64) -> CompareSpec {
        CompareSpec {
            event: "bdd_micro".to_string(),
            key: "workload".to_string(),
            metric: "ops_per_sec".to_string(),
            mode,
            tolerance,
            baseline_filter: None,
        }
    }

    #[test]
    fn host_parallelism_reads_meta_then_attrs() {
        let with_meta = concat!(
            r#"{"type":"meta","seq":0,"name":"trace","schema":2,"host_parallelism":8,"os":"linux","arch":"x86_64"}"#,
            "\n",
            r#"{"type":"record","seq":1,"name":"b","attrs":{"host_parallelism":4}}"#
        );
        assert_eq!(host_parallelism(with_meta), Some(8), "meta line wins");
        let attrs_only = r#"{"type":"record","seq":1,"name":"b","attrs":{"host_parallelism":4}}"#;
        assert_eq!(host_parallelism(attrs_only), Some(4));
        assert_eq!(host_parallelism(r#"{"type":"record","seq":1,"name":"b","attrs":{}}"#), None);
        assert_eq!(host_parallelism("not json\n"), None, "bad lines are skipped");
    }

    #[test]
    fn flags_a_30_percent_regression() {
        let baseline = row("bdd_micro", "apply", 1000.0, "after");
        let current = row("bdd_micro", "apply", 700.0, "after");
        let report = compare(&baseline, &current, &spec(Mode::HigherBetter, 0.25)).unwrap();
        assert!(!report.pass);
        assert_eq!(report.rows.len(), 1);
        assert!((report.rows[0].change - (-0.3)).abs() < 1e-9);
        // Within tolerance passes.
        let report = compare(&baseline, &current, &spec(Mode::HigherBetter, 0.35)).unwrap();
        assert!(report.pass);
    }

    #[test]
    fn baseline_takes_best_current_takes_last() {
        let baseline = [
            row("bdd_micro", "apply", 800.0, "before"),
            row("bdd_micro", "apply", 1200.0, "after"),
        ]
        .join("\n");
        let current =
            [row("bdd_micro", "apply", 500.0, "x"), row("bdd_micro", "apply", 1100.0, "x")]
                .join("\n");
        let report = compare(&baseline, &current, &spec(Mode::HigherBetter, 0.25)).unwrap();
        assert_eq!(report.rows[0].baseline, Some(1200.0));
        assert_eq!(report.rows[0].current, Some(1100.0));
        assert!(report.pass);
    }

    #[test]
    fn baseline_filter_narrows_rows() {
        let baseline = [
            row("bdd_micro", "apply", 9000.0, "before"),
            row("bdd_micro", "apply", 1000.0, "after"),
        ]
        .join("\n");
        let current = row("bdd_micro", "apply", 950.0, "after");
        let mut s = spec(Mode::HigherBetter, 0.25);
        s.baseline_filter = Some(("phase".to_string(), "after".to_string()));
        let report = compare(&baseline, &current, &s).unwrap();
        assert_eq!(report.rows[0].baseline, Some(1000.0));
        assert!(report.pass, "the 9000 'before' row must be filtered out");
    }

    #[test]
    fn missing_and_new_keys() {
        let baseline = row("bdd_micro", "apply", 1000.0, "after");
        let current = row("bdd_micro", "quant", 1000.0, "after");
        let report = compare(&baseline, &current, &spec(Mode::HigherBetter, 0.25)).unwrap();
        assert!(!report.pass, "a vanished baseline key is a failure");
        let missing = report.rows.iter().find(|r| r.key == "apply").unwrap();
        assert!(missing.current.is_none() && !missing.pass);
        let fresh = report.rows.iter().find(|r| r.key == "quant").unwrap();
        assert!(fresh.baseline.is_none() && fresh.pass);
    }

    #[test]
    fn lower_better_direction() {
        let baseline =
            r#"{"type":"record","seq":1,"name":"parallel_bench","attrs":{"jobs":4,"millis":100}}"#;
        let current =
            r#"{"type":"record","seq":1,"name":"parallel_bench","attrs":{"jobs":4,"millis":130}}"#;
        let s = CompareSpec {
            event: "parallel_bench".to_string(),
            key: "jobs".to_string(),
            metric: "millis".to_string(),
            mode: Mode::LowerBetter,
            tolerance: 0.25,
            baseline_filter: None,
        };
        let report = compare(baseline, current, &s).unwrap();
        assert!(!report.pass, "130ms vs 100ms is past 25% tolerance");
        assert_eq!(report.rows[0].key, "4", "numeric keys group by display text");
    }

    #[test]
    fn errors_on_empty_sides() {
        assert!(compare("", "", &spec(Mode::HigherBetter, 0.25)).is_err());
        let base = row("bdd_micro", "apply", 1.0, "after");
        assert!(compare(&base, "", &spec(Mode::HigherBetter, 0.25)).is_err());
    }
}
