//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run's provenance, tables and every metric by name and
//! unit, then as its last line one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`
//! with the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). `fail_rate` is printed with the end-to-end metrics but
//! carried in the JSON as `failed` over `attempted`, since it is 0 on a
//! correct program.

use std::path::PathBuf;
use std::process::ExitCode;

use mpgmres_perfbench::{run, Metric, Options, Workload};

const USAGE: &str = "usage: perfbench --workload <laplace64|implicit3000|serve_open> \
    --seed <n> --seconds <s> --trace <0|1> [--part <k>] [--spans-out <file>] [--tiny] [--corrupt]";

fn parse() -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::Laplace64,
        seed: 0,
        part: 0,
        seconds: 0.0,
        trace: false,
        tiny: false,
        corrupt: false,
        spans_out: None,
    };
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got '{v}'")),
                })
            }
            "--part" => {
                opts.part = value()?
                    .parse::<u64>()
                    .map_err(|e| format!("--part: {e}"))?
            }
            "--spans-out" => opts.spans_out = Some(PathBuf::from(value()?)),
            "--tiny" => opts.tiny = true,
            "--corrupt" => opts.corrupt = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    Ok(opts)
}

fn json_metrics(metrics: &[&Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() -> ExitCode {
    let opts = match parse() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for line in &report.lines {
        println!("{line}");
    }
    let (title, metrics) = if opts.trace {
        ("per-layer metrics", &report.per_layer)
    } else {
        ("end-to-end metrics", &report.end_to_end)
    };
    println!("{title} ({}, seed {}):", opts.workload.name(), opts.seed);
    for m in metrics {
        println!(
            "  {:<34} {:>18.9} {:<9} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let json: Vec<&Metric> = metrics.iter().filter(|m| m.name != "fail_rate").collect();
    if let Some(bad) = json.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: metric {} is not finite", bad.name);
        return ExitCode::from(1);
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct(),
        report.referee.attempted,
        report.referee.failed,
        json_metrics(&json)
    );
    ExitCode::SUCCESS
}
