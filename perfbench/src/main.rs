//! `perf`: the one benchmark of this repository, from graph text to
//! gateway answer. README.md in this directory describes the workloads,
//! the metrics and how they interact; `BENCHMARK.json` at the root of
//! the repository declares them to the driver.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perf [--seed <n>] [--seconds <s>] [--out <results.json>]   # every workload, plain then traced
//! perf --compare <a.json> <b.json>
//! ```

mod calib;
mod compare;
mod host;
mod json;
mod metrics;
mod setup;
mod stats;
mod trace;
mod workloads;

use metrics::{json_num, readings_json, Probes, Reading, END_TO_END, PER_LAYER};
use setup::{Prepared, Tally};
use stats::{median, Rng};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::Workload;

/// Set-up runs at least `SETUP_REPEATS.0` times, and a short one until
/// `SETUP_REPEAT_FOR` has passed or it ran `SETUP_REPEATS.1` times; the
/// median time is reported and the products of the last one are used.
const SETUP_REPEATS: (usize, usize) = (3, 15);
const SETUP_REPEAT_FOR: Duration = Duration::from_millis(1500);

const USAGE: &str = "usage: perf [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
            [--trace-out <chrome-trace.json>] [--out <results.json>] [--allow-env]
       perf --compare <a.json> <b.json>
workloads: compile_catalog cold_start infer_gemm infer_dw serve_open serve_saturated
Without --workload every workload runs; without --trace each runs plain, then traced.";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    allow_env: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: 12.0,
        trace: None,
        trace_out: None,
        out: None,
        allow_env: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload =
                    Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                parsed.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds takes a number in (0, 600]")?;
            }
            "--trace" => {
                parsed.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            "--trace-out" => parsed.trace_out = Some(PathBuf::from(value()?)),
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--allow-env" => parsed.allow_env = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// What one run of one workload reports.
struct Report {
    workload: Workload,
    traced: bool,
    tally: Tally,
    readings: Vec<Reading>,
}

impl Report {
    /// No operation failed and every number is one.
    fn correct(&self) -> bool {
        self.tally.failed == 0
            && self.tally.attempted > 0
            && self.readings.iter().all(|r| r.value.is_finite())
    }

    /// The line the driver reads.
    fn json(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed,
            readings_json(&self.readings),
        )
    }
}

/// A scratch directory beside the executable: inside the checkout (the
/// build directory is), and already ignored by git.
fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let dir = exe.parent().unwrap_or(Path::new("."));
    dir.join(format!("perf-work-{}", std::process::id()))
}

/// Sets up and runs `workload`. A plain run reports the end-to-end
/// metrics with tracing off. A traced run spends half its time plain
/// and half traced, reports the per-layer metrics, and the ratio of the
/// two halves is the tracing overhead.
fn measure(workload: Workload, args: &Args, traced: bool) -> Report {
    let dir = work_dir();
    std::fs::create_dir_all(&dir).expect("the build directory is writable");
    let jiffies = host::cpu_jiffies();
    let mut probes = Probes::new(traced);

    let setting_up = Instant::now();
    let mut setups: Vec<Prepared> = Vec::new();
    while setups.len() < SETUP_REPEATS.0
        || (setups.len() < SETUP_REPEATS.1 && setting_up.elapsed() < SETUP_REPEAT_FOR)
    {
        setups.push(workload.prepare(&dir, &mut Rng::new(args.seed), &mut probes));
    }
    let setup_s = median(&setups.iter().map(|p| p.setup_s).collect::<Vec<_>>());
    let raw_setup_s = median(&setups.iter().map(|p| p.raw_setup_s).collect::<Vec<_>>());
    let prep = setups.pop().expect("set-up ran");
    let mut tally = prep.tally;

    let mut readings = Vec::new();
    // A workload cannot run on a set-up that failed; the report then
    // carries the failure and no metric.
    if tally.failed == 0 {
        // The arrival schedule has its own stream, the same for the
        // plain and the traced half.
        let schedule_seed = args.seed ^ 0x5CED_0000_0000_0000;
        let mut run = |seconds: f64, probes: &mut Probes| {
            let rng = &mut Rng::new(schedule_seed);
            let r = workload.run(&prep, seconds, &dir, rng, probes);
            tally.merge(r.tally);
            r
        };
        if traced {
            let plain = run(args.seconds / 2.0, &mut Probes::new(false));
            let r = run(args.seconds / 2.0, &mut probes);
            let (percentile, over_p50) = stats::tail(&r.tail_ratios);
            let layers = &mut probes.layers;
            layers.add("tail.percentile", percentile);
            layers.add("tail.over_p50", over_p50);
            layers.add("tail.samples", r.tail_ratios.len() as f64);
            layers.add("raw.setup_s", raw_setup_s);
            layers.add("raw.primary_p50_ms", r.raw_primary_ms);
            layers.add("raw.secondary_p50_ms", r.raw_secondary_ms);
            layers.add("host.calibration_ms", median(&probes.cal.samples_ms()));
            layers.add("host.cores", host::cores() as f64);
            layers.add(
                "host.steal_share",
                host::steal_share(jiffies, host::cpu_jiffies()),
            );
            layers.add("process.peak_rss_mb", host::peak_rss_mb());
            layers.add("trace_overhead", r.primary_ms / plain.primary_ms);
            readings.extend(PER_LAYER.iter().map(|d| Reading {
                name: d.name,
                unit: d.unit,
                value: layers.value(d.name),
            }));
        } else {
            let r = run(args.seconds, &mut probes);
            let values = [
                setup_s + r.preamble_s,
                r.primary_ms,
                r.secondary_ms,
                r.throughput,
                setup::share(tally.good, tally.attempted),
                prep.dsp_cycles(),
            ];
            readings.extend(END_TO_END.iter().zip(values).map(|(e, value)| Reading {
                name: e.def.name,
                unit: e.def.unit,
                value,
            }));
        }
    }
    // What the host did meanwhile, so that a noisy run is recognisable.
    let kernel = stats::sorted(&probes.cal.samples_ms());
    eprintln!(
        "{}: calibration kernel p10 {:.2} ms, p50 {:.2} ms, p90 {:.2} ms over {} runs; steal share {:.4}",
        workload.name(),
        stats::percentile(&kernel, 0.1),
        stats::percentile(&kernel, 0.5),
        stats::percentile(&kernel, 0.9),
        kernel.len(),
        host::steal_share(jiffies, host::cpu_jiffies()),
    );
    if let (true, Some(path)) = (traced, &args.trace_out) {
        let path = path.with_extension(format!("{}.json", workload.name()));
        match std::fs::write(&path, probes.tr.chrome_json()) {
            Ok(()) => eprintln!(
                "wrote {} spans to {}",
                probes.tr.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Report {
        workload,
        traced,
        tally,
        readings,
    }
}

/// The results file `--compare` reads: the host, then per workload the
/// end-to-end and per-layer readings.
fn results_json(args: &Args, reports: &[Report]) -> String {
    let mut workloads = Vec::new();
    for w in Workload::ALL {
        let of: Vec<&Report> = reports.iter().filter(|r| r.workload == w).collect();
        if of.is_empty() {
            continue;
        }
        let section = |traced: bool| {
            of.iter()
                .find(|r| r.traced == traced)
                .map_or("{}".to_string(), |r| readings_json(&r.readings))
        };
        workloads.push(format!(
            "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {},\n      \
             \"end_to_end\": {},\n      \"per_layer\": {}}}",
            w.name(),
            of.iter().all(|r| r.correct()),
            of.iter().map(|r| r.tally.attempted).sum::<u64>(),
            of.iter().map(|r| r.tally.failed).sum::<u64>(),
            section(false),
            section(true),
        ));
    }
    format!(
        "{{\n  \"host\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        host::fingerprint_json(),
        args.seed,
        json_num(args.seconds),
        workloads.join(",\n"),
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(workloads::cold::CHILD_FLAG) => {
            return match workloads::cold::child(&argv[1..]) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("cold-start child: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Some("--compare") => {
            let [_, a, b] = argv.as_slice() else {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            };
            return compare::run(Path::new(a), Path::new(b));
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = host::guarded_env_set();
    if !env.is_empty() && !args.allow_env {
        eprintln!(
            "refusing to measure with {} set: it changes the configuration under test \
             (pass --allow-env to record it and run anyway)",
            env.join(", ")
        );
        return ExitCode::from(2);
    }

    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let passes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut reports = Vec::new();
    for &workload in &workloads {
        for &traced in &passes {
            let report = measure(workload, &args, traced);
            for r in &report.readings {
                println!(
                    "{:<16} {:<34} {:>16.6} {}",
                    workload.name(),
                    r.name,
                    r.value,
                    r.unit
                );
            }
            println!("{}", report.json());
            reports.push(report);
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, results_json(&args, &reports)) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if reports.iter().all(Report::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use json::Json;

    /// `BENCHMARK.json` declares exactly what the binary prints: the
    /// same workloads, and the same metrics with the same unit,
    /// direction and bound.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let decl = Json::parse(&text).expect("BENCHMARK.json is JSON");
        let field = |m: &Json, key: &str| m.get(key).and_then(Json::str).map(str::to_string);

        let names: Vec<String> = decl
            .get("workloads")
            .unwrap()
            .items()
            .iter()
            .map(|w| field(w, "name").unwrap())
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(names, ours);

        let declared = decl.get("end_to_end").unwrap().items();
        assert_eq!(declared.len(), END_TO_END.len());
        for (d, e) in declared.iter().zip(&END_TO_END) {
            assert_eq!(field(d, "name").as_deref(), Some(e.def.name));
            assert_eq!(field(d, "unit").as_deref(), Some(e.def.unit));
            assert_eq!(field(d, "better").as_deref(), Some(e.def.better));
            assert_eq!(d.get("bound").and_then(Json::num), Some(e.bound));
        }
        let declared = decl.get("per_layer").unwrap().items();
        assert_eq!(declared.len(), PER_LAYER.len());
        for (d, l) in declared.iter().zip(&PER_LAYER) {
            assert_eq!(field(d, "name").as_deref(), Some(l.name));
            assert_eq!(field(d, "unit").as_deref(), Some(l.unit));
            assert_eq!(field(d, "better").as_deref(), Some(l.better));
        }
    }

    #[test]
    fn arguments_of_the_driver_parse() {
        let argv: Vec<String> = "--workload serve_open --seed 42 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload, Some(Workload::ServeOpen));
        assert_eq!(
            (args.seed, args.seconds, args.trace),
            (42, 10.0, Some(true))
        );
        assert!(parse_args(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
    }

    #[test]
    fn the_driver_line_has_the_four_keys() {
        let report = Report {
            workload: Workload::InferDw,
            traced: false,
            tally: Tally {
                attempted: 3,
                failed: 0,
                good: 3,
            },
            readings: vec![Reading {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            }],
        };
        let line = Json::parse(&report.json()).unwrap();
        let keys: Vec<&str> = line.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("value").and_then(Json::num), Some(0.25));
        assert_eq!(setup.get("unit").and_then(Json::str), Some("s"));
    }
}
