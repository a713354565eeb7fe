//! Reduced-scale smoke runs of every workload.
//!
//! Each run must emit exactly the metrics `BENCHMARK.json` names for its
//! mode, each with the unit the file gives it, and pass its own
//! correctness check. A tampered expected ledger must trip that check.

use std::path::PathBuf;
use std::sync::Arc;

use perfbench::probe::{SpanLog, TimedApi};
use perfbench::{offline, serving, Opts, Scale, Workload};
use serde::{Content, DeError, Deserialize};

/// The parts of `BENCHMARK.json` the checks read.
#[derive(Deserialize)]
struct BenchmarkJson {
    workloads: Vec<Named>,
    end_to_end: Vec<Declared>,
    per_layer: Vec<Declared>,
}

#[derive(Deserialize)]
struct Named {
    name: String,
}

#[derive(Deserialize)]
struct Declared {
    name: String,
    unit: String,
}

/// The result line the benchmark prints last.
#[derive(Deserialize)]
struct ResultLine {
    correct: bool,
    attempted: u64,
    metrics: Metrics,
}

/// `metrics` maps names to `{value, unit}`, read as `(name, value, unit)`.
struct Metrics(Vec<(String, f64, String)>);

impl<'de> Deserialize<'de> for Metrics {
    fn from_content(content: &Content) -> Result<Self, DeError> {
        let entries = content
            .as_map()
            .ok_or_else(|| DeError::custom("metrics is not an object"))?;
        let mut out = Vec::new();
        for (name, m) in entries {
            let field = |key: &str| {
                m.get(key)
                    .ok_or_else(|| DeError::custom(format!("{name}: no {key}")))
            };
            out.push((
                name.clone(),
                f64::from_content(field("value")?)?,
                String::from_content(field("unit")?)?,
            ));
        }
        Ok(Metrics(out))
    }
}

/// `BENCHMARK.json` at the repository root.
fn benchmark_json() -> BenchmarkJson {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

fn pairs(declared: &[Declared]) -> Vec<(String, String)> {
    declared
        .iter()
        .map(|d| (d.name.clone(), d.unit.clone()))
        .collect()
}

fn assert_emits(workload: Workload, trace: bool) {
    let scratch = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-{}-{trace}", workload.name()));
    let opts = Opts {
        workload,
        seed: 7,
        seconds: 0.05,
        trace,
        scale: Scale::Smoke,
        scratch: scratch.clone(),
    };
    let outcome = perfbench::run(&opts, &Arc::new(SpanLog::new()));
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(
        outcome.problems.is_empty(),
        "{workload:?}: {:?}",
        outcome.problems
    );

    let line: ResultLine =
        serde_json::from_str(&outcome.result_line()).expect("result line parses");
    assert!(line.correct && line.attempted > 0);
    let json = benchmark_json();
    let want = pairs(if trace {
        &json.per_layer
    } else {
        &json.end_to_end
    });
    let got: Vec<(String, String)> = line
        .metrics
        .0
        .iter()
        .map(|(n, _, u)| (n.clone(), u.clone()))
        .collect();
    assert_eq!(
        got, want,
        "{workload:?} trace={trace}: metric names and units"
    );
    assert!(line.metrics.0.iter().all(|(_, v, _)| v.is_finite()));
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics_in_code() {
    let json = benchmark_json();
    for w in &json.workloads {
        assert!(
            Workload::parse(&w.name).is_some(),
            "{} is not a workload",
            w.name
        );
    }
    let names = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect()
    };
    assert_eq!(pairs(&json.end_to_end), names(perfbench::END_TO_END));
    assert_eq!(pairs(&json.per_layer), names(perfbench::PER_LAYER));
}

#[test]
fn offline_cover_emits_every_metric() {
    assert_emits(Workload::OfflineCover, false);
    assert_emits(Workload::OfflineCover, true);
}

#[test]
fn serve_zipf_emits_every_metric() {
    assert_emits(Workload::ServeZipf, false);
    assert_emits(Workload::ServeZipf, true);
}

#[test]
fn tampered_offline_ledger_trips_the_check() {
    let kinds = offline::SMOKE_DATASETS;
    let (datasets, _) = offline::setup(&kinds[..1], 7);
    let split = datasets[0].split_3_1_1(7).expect("non-empty");
    let config = offline::config(7);
    let log = Arc::new(SpanLog::new());
    let api = TimedApi::new(llm::SimLlm::new(), Arc::clone(&log));
    let (_, expected, _) = offline::replica(
        &datasets[0],
        &split.train,
        &split.test,
        &api,
        config,
        &log,
        0,
    );
    let run = batcher_core::run_on_split(
        &datasets[0],
        &split.train,
        &split.test,
        &llm::SimLlm::new(),
        config,
    );
    let actual = offline::Answer {
        confusion: run.confusion,
        ledger: run.ledger,
        unanswered: run.unanswered,
    };
    assert_eq!(
        offline::check_answer("untouched", &expected, &actual),
        Ok(())
    );

    let mut tampered = expected.clone();
    tampered.ledger.api = er_core::Money::from_micros(tampered.ledger.api.micros() + 1);
    assert!(offline::check_answer("tampered", &tampered, &actual).is_err());
}

#[test]
fn tampered_serving_ledger_trips_the_check() {
    let sizes = serving::Sizes::of(Scale::Smoke);
    let wal = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-tamper-wal");
    let _ = std::fs::remove_dir_all(&wal);
    let started = serving::start(7, sizes, &wal, &Arc::new(SpanLog::new()));
    let mut observed = serving::Observed::default();
    // Every question twice, so the second ask is answered from the cache.
    let bank = &started.bank;
    for q in bank.iter().take(40).chain(bank.iter().take(40)) {
        let d = started.service.submit(&q.pair);
        observed.submits += 1;
        observed.by_source[match d.source {
            er_service::DecisionSource::Cache => 0,
            er_service::DecisionSource::Llm => 1,
            er_service::DecisionSource::Fallback => 2,
        }] += 1;
    }
    let stats = started.service.stats();
    let wire = started.api.wire();
    drop(started);
    let _ = std::fs::remove_dir_all(&wal);
    assert!(
        wire.answered_calls > 0,
        "the smoke stream must reach the LLM"
    );
    assert!(
        observed.by_source[0] > 0,
        "the smoke stream must hit the cache"
    );
    assert_eq!(
        serving::check_books(&observed, &stats, &wire),
        Vec::<String>::new()
    );

    // The expected books are what the wrapper saw on the wire.
    let mut tampered = wire;
    tampered.api_micros += 1;
    assert!(!serving::check_books(&observed, &stats, &tampered).is_empty());
    let mut tampered = wire;
    tampered.prompt_tokens += 1;
    assert!(!serving::check_books(&observed, &stats, &tampered).is_empty());
    let mut miscounted = observed.clone();
    miscounted.by_source[2] += 1;
    miscounted.by_source[1] -= 1;
    assert!(!serving::check_books(&miscounted, &stats, &wire).is_empty());
}
