//! Command-line entry point of the benchmark.
//!
//! ```text
//! perfbench --workload <offline_cover|serve_zipf>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           [--out-dir <dir>]
//! ```
//!
//! Prints one report line (host metadata, sample counts, correctness
//! problems) and then, as the last line, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Spans of a traced
//! run are written to `<out-dir>/spans-<workload>-<seed>.jsonl`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use perfbench::probe::SpanLog;
use perfbench::report::{json_object, json_string};
use perfbench::{Opts, Scale, Workload};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale: Scale::Full,
        scratch: out_dir,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&opts.scratch) {
        eprintln!("perfbench: cannot create {}: {e}", opts.scratch.display());
        return ExitCode::from(2);
    }
    let log = Arc::new(SpanLog::new());
    let outcome = perfbench::run(&opts, &log);

    let mut fields = outcome.details.clone();
    if opts.trace {
        let path = opts.scratch.join(format!(
            "spans-{}-{}.jsonl",
            opts.workload.name(),
            opts.seed
        ));
        match log.write_jsonl(&path) {
            Ok(()) => fields.push((
                "spans_file".to_owned(),
                json_string(&path.display().to_string()),
            )),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
        fields.push(("spans".to_owned(), log.len().to_string()));
    }
    let problems: Vec<String> = outcome.problems.iter().map(|p| json_string(p)).collect();
    fields.push(("problems".to_owned(), format!("[{}]", problems.join(", "))));
    for p in &outcome.problems {
        eprintln!("perfbench: incorrect: {p}");
    }
    println!("{}", json_object(&fields));
    println!("{}", outcome.result_line());
    ExitCode::SUCCESS
}
