//! The repository benchmark: seeded, reference-checked workloads over the
//! adaptive-storage-views engine, with end-to-end metrics from an untraced
//! run and per-layer metrics from a traced one.
//!
//! ```text
//! perfbench --workload adaptive-scan|serve-mixed|durable-ingest
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! Every line but the last describes the run (revision, machine, sample
//! counts, every metric the workload defines, and with `--trace 1` the self
//! time per span name). The last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. An answer that
//! disagrees with the reference model exits with status 1 and prints no
//! metrics. See `LAYERS.md` for what each workload loads and which
//! end-to-end metric each per-layer metric should move.

mod adaptive_scan;
mod durable_ingest;
mod harness;
mod machine;
mod procfs;
mod reference;
mod serve_layer;
mod serve_mixed;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use harness::{Metric, Opts, Report};

/// The workloads, by name.
const WORKLOADS: [&str; 3] = ["adaptive-scan", "serve-mixed", "durable-ingest"];

/// Every per-layer metric a traced run reports, with its unit. A workload
/// that bypasses a layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("adaptive.pages_per_query", "count"),
    ("adaptive.page_precision", "ratio"),
    ("adaptive.views_per_query", "count"),
    ("adaptive.create_query_us.p50", "us"),
    ("adaptive.reuse_query_us.p50", "us"),
    ("viewset.retained_ratio", "ratio"),
    ("viewset.views_final", "count"),
    ("storage.scan_gib_per_s", "GiB/s"),
    ("serve.pin_ns.p50", "ns"),
    ("serve.pin_ns.p99", "ns"),
    ("serve.query_range_us.p50", "us"),
    ("serve.query_range_us.p99", "us"),
    ("plan.query_conjunctive_us.p50", "us"),
    ("plan.query_conjunctive_us.p99", "us"),
    ("serve.stage_us.p50", "us"),
    ("serve.tick_us.p50", "us"),
    ("serve.tick_us.p99", "us"),
    ("serve.tick_busy_frac", "ratio"),
    ("serve.live_epochs.max", "count"),
    ("serve.queued_writes.max", "count"),
    ("serve.recover_ms", "ms"),
    ("align.rounds", "count"),
    ("align.planned_ratio", "ratio"),
    ("align.items", "count"),
    ("align.publish_us.p50", "us"),
    ("align.publish_us.p99", "us"),
    ("wal.bytes_per_commit", "B"),
    ("wal.replay_ms", "ms"),
    ("wal.records", "count"),
    ("vmem.minflt_per_op", "count"),
    ("vmem.maps_lines", "count"),
    ("proc.ctx_switches_per_read", "count"),
    ("proc.cpu_us_per_op", "us"),
    ("trace.overhead_pct", "%"),
];

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload {} --seed N --seconds S --trace 0|1",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Option<Args> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next()?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().ok()?),
            "--seconds" => seconds = Some(value.parse().ok()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return None,
                })
            }
            _ => return None,
        }
    }
    let workload = workload.filter(|w| WORKLOADS.contains(&w.as_str()))?;
    Some(Args {
        workload,
        seed: seed?,
        seconds: seconds.filter(|&s| s > 0)?,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metric_json(m: &Metric) -> String {
    let mut out = format!(
        "{}: {{\"value\": {}, \"unit\": {}",
        json_str(m.name),
        json_num(m.value),
        json_str(m.unit)
    );
    if let Some(n) = m.samples {
        let _ = write!(out, ", \"samples\": {n}");
    }
    out.push('}');
    out
}

fn object(entries: impl Iterator<Item = String>) -> String {
    format!("{{{}}}", entries.collect::<Vec<_>>().join(", "))
}

/// The per-layer metrics of a traced run, in catalog order.
fn per_layer_catalog(report: &Report) -> Vec<Metric> {
    for name in report.per_layer.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric {name} is missing from the catalog"
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            Metric::new(
                name,
                unit,
                report.per_layer.get(name).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

fn print_report(args: &Args, report: &Report, trace_file: Option<&Path>) {
    let run = [
        format!("\"workload\": {}", json_str(&args.workload)),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"backend\": {}", json_str(report.backend)),
        format!("\"git_rev\": {}", json_str(&machine::git_rev())),
        format!("\"nproc\": {}", machine::nproc()),
        format!("\"cpu_model\": {}", json_str(&machine::cpu_model())),
        format!("\"llc_bytes\": {}", machine::llc_bytes()),
        format!(
            "\"trace_file\": {}",
            json_str(&trace_file.map_or(String::new(), |p| p.display().to_string()))
        ),
    ];
    println!("{{\"run\": {}}}", object(run.into_iter()));
    println!(
        "{{\"named\": {}}}",
        object(report.named.iter().map(metric_json))
    );
    for m in &report.named {
        match m.samples {
            Some(n) if m.name.contains("p99") && n < stats::MIN_SAMPLES_FOR_P99 => eprintln!(
                "warning: {} rests on {n} samples, fewer than the {} that leave ten beyond it",
                m.name,
                stats::MIN_SAMPLES_FOR_P99
            ),
            _ => {}
        }
    }
    let metrics: Vec<Metric> = if args.trace {
        let entries = report.self_times.iter().map(|(name, t)| {
            format!(
                "{}: {{\"calls\": {}, \"self_us\": {}, \"self_us_per_call\": {}}}",
                json_str(name),
                t.calls,
                json_num(t.self_us),
                json_num(t.per_call_us)
            )
        });
        println!("{{\"self_time\": {}}}", object(entries));
        per_layer_catalog(report)
    } else {
        report.end_to_end.clone()
    };
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.attempted,
        report.failed,
        object(metrics.iter().map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        }))
    );
}

fn main() -> ExitCode {
    let Some(args) = parse_args(std::env::args().skip(1)) else {
        return usage();
    };
    let out_dir = PathBuf::from(".perfbench");
    let work_dir = out_dir.join(format!("work-{}-{}", args.workload, std::process::id()));
    let opts = Opts {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        work_dir: work_dir.clone(),
    };
    let result = match args.workload.as_str() {
        "adaptive-scan" => adaptive_scan::run(&opts),
        "serve-mixed" => serve_mixed::run(&opts),
        _ => durable_ingest::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = match result {
        Ok(report) => report,
        Err(mismatch) => {
            eprintln!("perfbench: answer disagrees with the reference model: {mismatch}");
            return ExitCode::from(1);
        }
    };
    let trace_file = report.tracer.as_ref().map(|tracer| {
        let path = out_dir.join(format!("trace-{}-seed{}.csv", args.workload, args.seed));
        trace::write_csv(&path, tracer.spans()).expect("trace file");
        path
    });
    print_report(&args, &report, trace_file.as_deref());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Option<Args> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn arguments_parse_and_reject_bad_input() {
        let a = args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("serve-mixed", 7, 10, true)
        );
        assert!(args(&["--workload", "nope", "--seed", "1", "--seconds", "1"]).is_none());
        assert!(args(&["--workload", "serve-mixed", "--seconds", "1"]).is_none());
        assert!(args(&["--workload", "serve-mixed", "--seed", "1", "--seconds", "0"]).is_none());
        assert!(args(&[
            "--workload",
            "serve-mixed",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_none());
        assert!(args(&["--workload"]).is_none());
    }

    #[test]
    fn benchmark_json_declares_every_reported_metric() {
        let declared = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let entry =
            |name: &str, unit: &str| format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        for (name, unit) in PER_LAYER {
            assert!(declared.contains(&entry(name, unit)), "{name} [{unit}]");
        }
        let gated = harness::end_to_end(
            &[1.0],
            &stats::Samples::default(),
            Duration::from_secs(1),
            1.0,
        );
        for m in &gated {
            assert!(
                declared.contains(&entry(m.name, m.unit)),
                "{} [{}]",
                m.name,
                m.unit
            );
        }
        assert_eq!(
            declared.matches("\"unit\"").count(),
            PER_LAYER.len() + gated.len()
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
        assert_eq!(json_num(1.5), "1.5");
    }
}
