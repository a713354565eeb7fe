//! The repository's benchmark: two workloads over the BatchER pipeline
//! and the `er-service` serving layer.
//!
//! * `offline_cover` — `RunConfig::best_design()` (diversity batching,
//!   DBSCAN, covering selection, b = 8) through
//!   `batcher_core::run_on_split` on the 3:1:1 splits of the five large
//!   datagen sets. Planning does most of the work.
//! * `serve_zipf` — `ErService` under two closed-loop clients drawing a
//!   Zipf(s = 1) stream from a bank of distinct Abt-Buy pairs. Cache hits
//!   set the median latency, misses the tail and the throughput.
//!
//! An untraced run reports the end-to-end metrics ([`END_TO_END`]); a
//! traced run reports the per-layer metrics ([`PER_LAYER`]), measured by
//! timing the benchmark's own calls into each layer's public functions.
//! Both runs check the program's outputs.

pub mod offline;
pub mod probe;
pub mod report;
pub mod serving;

use std::sync::Arc;

use probe::SpanLog;
use report::Outcome;

/// The end-to-end metrics every untraced run emits, `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("questions_per_s", "q/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("f1", "%"),
    ("api_usd_per_1k", "USD"),
    ("label_usd_per_1k", "USD"),
    ("answered_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run emits, `(name, unit)`. A layer
/// a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.busy_ms", "ms"),
    ("thresholds.busy_ms", "ms"),
    ("cluster.busy_ms", "ms"),
    ("cluster.count", "count"),
    ("batching.busy_ms", "ms"),
    ("batching.batches", "count"),
    ("selection.busy_ms", "ms"),
    ("selection.demos_labeled", "count"),
    ("selection.demos_per_batch", "count"),
    ("executor.busy_ms", "ms"),
    ("executor.self_ms", "ms"),
    ("llm.calls", "count"),
    ("llm.busy_ms", "ms"),
    ("llm.call_p50_us", "us"),
    ("llm.retries", "count"),
    ("llm.prompt_tokens_per_question", "tokens"),
    ("llm.questions_per_call", "count"),
    ("submit.hit_p50_us", "us"),
    ("submit.miss_p50_us", "us"),
    ("submit.miss_p99_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("planner.plan_p50_us", "us"),
    ("planner.lock_hold_p50_us", "us"),
    ("planner.full_frac", "ratio"),
    ("queue.depth_peak", "count"),
    ("coalesce.duplicates", "count"),
    ("governor.denials", "count"),
    ("governor.refunds", "count"),
    ("wal.appends", "count"),
    ("wal.append_errors", "count"),
    ("fallback.answers", "count"),
    ("trace.residual_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Best design through `run_on_split`.
    OfflineCover,
    /// `ErService` under a Zipf stream.
    ServeZipf,
}

impl Workload {
    /// Every workload the command runs.
    pub const ALL: [Workload; 2] = [Workload::OfflineCover, Workload::ServeZipf];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::OfflineCover => "offline_cover",
            Workload::ServeZipf => "serve_zipf",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seeds the set-up is sampled over. Synthesis time depends on the drawn
/// text, by up to a quarter between seeds, so a run times its set-up on
/// inputs drawn from this many seeds in turn (the run's own first) and
/// reports the median.
pub const SETUP_SEEDS: usize = 8;

/// The seed of a run's `rep`-th set-up: the run's seed, then seeds
/// derived from it, in a cycle of [`SETUP_SEEDS`].
pub fn setup_seed(seed: u64, rep: usize) -> u64 {
    seed ^ (((rep % SETUP_SEEDS) as u64) << 40)
}

/// Input size. `Smoke` is the reduced scale the benchmark's own tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured scale.
    Full,
    /// Small datasets and short serving windows.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Opts {
    /// What to run.
    pub workload: Workload,
    /// Input seed: same seed, same inputs.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
    /// Directory for run-scoped files (WAL directories).
    pub scratch: std::path::PathBuf,
}

/// Measured values by name, emitted in catalogue order.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.push((name, value));
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Moves the values into `out` in the order of `catalogue`. Names the
    /// workload did not set (layers it does not exercise) read 0 and are
    /// listed under `not_exercised` in the report.
    pub fn emit(&self, catalogue: &[(&'static str, &'static str)], out: &mut Outcome) {
        let mut absent = Vec::new();
        for &(name, unit) in catalogue {
            let value = self.get(name).unwrap_or_else(|| {
                absent.push(report::json_string(name));
                0.0
            });
            out.metric(name, unit, value);
        }
        if !absent.is_empty() {
            out.detail("not_exercised", format!("[{}]", absent.join(", ")));
        }
    }
}

/// Runs one workload. Spans of a traced run land in `log`.
pub fn run(opts: &Opts, log: &Arc<SpanLog>) -> Outcome {
    let mut out = match opts.workload {
        Workload::OfflineCover => offline::run(opts, log),
        Workload::ServeZipf => serving::run(opts, log),
    };
    let mut details = vec![
        (
            "workload".to_owned(),
            report::json_string(opts.workload.name()),
        ),
        ("seed".to_owned(), opts.seed.to_string()),
        ("seconds".to_owned(), report::json_number(opts.seconds)),
        ("trace".to_owned(), opts.trace.to_string()),
    ];
    details.extend(report::host_metadata());
    details.append(&mut out.details);
    out.details = details;
    out
}
