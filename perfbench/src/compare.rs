//! `perf --compare <a.json> <b.json>`: two results files side by side.
//! Every end-to-end metric must agree within its bound; per-layer
//! metrics are printed for reading and have no bound.

use crate::json::Json;
use crate::metrics::END_TO_END;
use std::path::Path;
use std::process::ExitCode;

/// `(b - a) / a`, or 0 when both are 0.
pub fn relative_difference(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (b - a) / a.abs()
    }
}

/// One line per (workload, metric) of both files, and the number of
/// end-to-end metrics that differ by more than their bound.
pub fn compare(a: &Json, b: &Json) -> (Vec<String>, usize) {
    let mut lines = Vec::new();
    let mut beyond = 0;
    let workloads = a.get("workloads").map_or(&[][..], Json::members);
    for (workload, in_a) in workloads {
        let Some(in_b) = b.get("workloads").and_then(|w| w.get(workload)) else {
            lines.push(format!("{workload}: only in the first file"));
            beyond += 1;
            continue;
        };
        for section in ["end_to_end", "per_layer"] {
            for (metric, reading) in in_a.get(section).map_or(&[][..], Json::members) {
                let value = |r: &Json| r.get("value").and_then(Json::num);
                let other = in_b.get(section).and_then(|s| s.get(metric));
                let (Some(va), Some(vb)) = (value(reading), other.and_then(value)) else {
                    continue;
                };
                let diff = relative_difference(va, vb);
                let unit = reading.get("unit").and_then(Json::str).unwrap_or("");
                let gated = END_TO_END.iter().find(|e| e.def.name == metric);
                let verdict = match gated {
                    Some(e) if section == "end_to_end" => {
                        let worse = (diff > 0.0) == (e.def.better == "lower");
                        let side = if diff == 0.0 {
                            "same"
                        } else if worse {
                            "worse"
                        } else {
                            "better"
                        };
                        if diff.abs() <= e.bound {
                            format!("{side}, bound {}", e.bound)
                        } else {
                            beyond += 1;
                            format!("{side}, bound {}  BEYOND", e.bound)
                        }
                    }
                    _ => "-".to_string(),
                };
                lines.push(format!(
                    "{workload:<16} {metric:<34} {va:>16.6} {vb:>16.6} {unit:<7} {:>+9.2}%  {verdict}",
                    diff * 100.0
                ));
            }
        }
    }
    (lines, beyond)
}

pub fn run(a: &Path, b: &Path) -> ExitCode {
    let read = |p: &Path| {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (a, b) = match (read(a), read(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (lines, beyond) = compare(&a, &b);
    for line in &lines {
        println!("{line}");
    }
    if beyond == 0 {
        println!("every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("{beyond} end-to-end metric(s) differ by more than their bound");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(p50: f64, lower_ms: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"infer_dw": {{
                "end_to_end": {{"primary_p50_ms": {{"value": {p50}, "unit": "ms"}}}},
                "per_layer": {{"codegen.lower_ms": {{"value": {lower_ms}, "unit": "ms"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn only_end_to_end_metrics_beyond_their_bound_count() {
        let (lines, beyond) = compare(&results(100.0, 1.0), &results(120.0, 5.0));
        assert_eq!(beyond, 0);
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("+20.00%") && lines[0].contains("worse, bound 0.25"));
        assert!(lines[1].contains("+400.00%") && lines[1].ends_with('-'));

        assert_eq!(compare(&results(100.0, 1.0), &results(126.0, 1.0)).1, 1);
        // The bound holds in both directions: the two files are runs of
        // the same code, so a large gain is as suspect as a loss.
        let (lines, beyond) = compare(&results(100.0, 1.0), &results(70.0, 1.0));
        assert!(beyond == 1 && lines[0].contains("better, bound 0.25  BEYOND"));
    }
}
