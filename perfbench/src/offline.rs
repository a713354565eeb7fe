//! The `offline_cover` workload: one job resolves the test split of every
//! dataset with `batcher_core::run_on_split`.
//!
//! The untraced run repeats the job for the timed phase, and after each
//! job synthesizes inputs once more, from the next set-up seed
//! ([`crate::setup_seed`]), to sample the set-up time over the run. The
//! traced run alternates the job with a stage-by-stage replica
//! ([`replica`]) that calls the layers' public functions in the order
//! `run_on_split` does and times each call. The gap between the
//! replica's and the job's wall times is the tracing overhead, and the
//! replica's stage times must add up to the job's `run_on_split` time.

use std::sync::Arc;
use std::time::{Duration, Instant};

use batcher_core::batching::{
    batches_for_clustering, cluster_questions_pinned, DBSCAN_EPS_PERCENTILE,
};
use batcher_core::selection::{select_demonstrations_pinned, SelectionParams};
use batcher_core::{
    plan_question_batches, run_on_split, task_description, BatchPlanConfig, BatchingStrategy,
    ClusteringKind, ExecutionOutcome, Executor, FeatureSpace, QuestionBatchPlan, RunConfig,
    SelectionStrategy,
};
use datagen::DatasetKind;
use er_core::{BinaryConfusion, CostLedger, Dataset, EntityPair, LabeledPair, MatchLabel};
use llm::{ChatApi, SimLlm};

use crate::probe::{SpanLog, TimedApi};
use crate::report::{json_number, median, Outcome};
use crate::{setup_seed, Opts, Scale, Values, END_TO_END, PER_LAYER};

/// The five large datagen sets (WA, AB, AG, DA, DS).
pub const FULL_DATASETS: [DatasetKind; 5] = [
    DatasetKind::WalmartAmazon,
    DatasetKind::AbtBuy,
    DatasetKind::AmazonGoogle,
    DatasetKind::DblpAcm,
    DatasetKind::DblpScholar,
];

/// Small datasets for the reduced-scale smoke run.
pub const SMOKE_DATASETS: [DatasetKind; 2] = [DatasetKind::Beer, DatasetKind::ItunesAmazon];

/// Pairs sampled by the percentile estimate, as in `batcher_core`.
const PERCENTILE_SAMPLES: usize = 200_000;

/// Smallest threshold the pipeline uses, as in `batcher_core`.
const MIN_THRESHOLD: f64 = 1e-9;

/// The traced replica's stage times must add up to the untraced job's
/// `run_on_split` time within this share of it. The replica pays for its
/// spans and LLM wrapper and featurizes the pool with
/// `FeatureSpace::extract` instead of `PreparedPool::prepare`. Over 18
/// traced 40-second runs on a shared 2-vCPU VM the residual read −5.9%
/// to +8.4% of the job, host noise between the interleaved halves. A
/// replica that skipped selection (about 46% of the stage time) or the
/// executor (29%) would exceed the bound.
pub const MAX_RESIDUAL_SHARE: f64 = 0.15;

/// Floor of the residual bound, milliseconds. On the 10–20 ms jobs of the
/// reduced-scale smoke run the replica's fixed costs (spans, the LLM
/// wrapper) and scheduling jitter under a parallel test run left up to
/// 7 ms, a third of the job; full-scale jobs take over a second.
pub const MIN_RESIDUAL_BOUND_MS: f64 = 25.0;

/// The outputs of one dataset's run that correctness is judged on.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Test-set confusion counts.
    pub confusion: BinaryConfusion,
    /// API and labeling spend.
    pub ledger: CostLedger,
    /// Questions without a parseable answer.
    pub unanswered: usize,
}

/// Compares a run's answer with the expected one.
pub fn check_answer(what: &str, expected: &Answer, actual: &Answer) -> Result<(), String> {
    if expected == actual {
        Ok(())
    } else {
        Err(format!("{what}: expected {expected:?}, got {actual:?}"))
    }
}

/// The run configuration of `offline_cover`.
pub fn config(seed: u64) -> RunConfig {
    RunConfig { seed, ..RunConfig::best_design() }
}

/// Synthesizes the datasets and splits them 3:1:1; returns the inputs
/// and the wall time it took.
pub fn setup(kinds: &[DatasetKind], seed: u64) -> (Vec<Dataset>, Duration) {
    let started = Instant::now();
    let datasets: Vec<Dataset> = kinds.iter().map(|&k| datagen::generate(k, seed)).collect();
    for d in &datasets {
        std::hint::black_box(d.split_3_1_1(seed).expect("datagen sets are non-empty"));
    }
    (datasets, started.elapsed())
}

/// Per-dataset stage times (ns) and counts of one traced replica run.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// Pool and question featurization plus covering weights.
    pub features: u64,
    /// The two percentile thresholds (ε and covering t).
    pub thresholds: u64,
    /// Question clustering.
    pub cluster: u64,
    /// Batch assembly.
    pub batching: u64,
    /// Demonstration selection.
    pub selection: u64,
    /// The execution loop (prompt inputs, `Executor::run_batch`).
    pub executor: u64,
    /// Time inside the LLM during the execution loop.
    pub llm: u64,
    /// Labeling charge and scoring.
    pub score: u64,
    /// Whole replica wall time, spans included.
    pub wall: u64,
    /// Clusters found (0 for random batching).
    pub clusters: u64,
    /// Batches planned.
    pub batches: u64,
    /// Unique demonstrations labeled.
    pub demos_labeled: u64,
    /// Demonstrations placed in prompts, summed over batches.
    pub demos_placed: u64,
    /// Executor retries.
    pub retries: u64,
}

impl Stages {
    fn add(&mut self, o: &Stages) {
        self.features += o.features;
        self.thresholds += o.thresholds;
        self.cluster += o.cluster;
        self.batching += o.batching;
        self.selection += o.selection;
        self.executor += o.executor;
        self.llm += o.llm;
        self.score += o.score;
        self.wall += o.wall;
        self.clusters += o.clusters;
        self.batches += o.batches;
        self.demos_labeled += o.demos_labeled;
        self.demos_placed += o.demos_placed;
        self.retries += o.retries;
    }

    /// The stage times added up, nanoseconds.
    pub fn covered(&self) -> u64 {
        self.features
            + self.thresholds
            + self.cluster
            + self.batching
            + self.selection
            + self.executor
            + self.score
    }
}

/// `run_on_split`, one public stage call at a time, each in its own
/// span under `parent`. Returns the plan, the answer and the stage times.
pub fn replica<A: ChatApi>(
    dataset: &Dataset,
    pool: &[&LabeledPair],
    questions: &[&LabeledPair],
    api: &TimedApi<A>,
    config: RunConfig,
    log: &SpanLog,
    parent: u64,
) -> (QuestionBatchPlan, Answer, Stages) {
    let mut st = Stages::default();
    let whole = log.open("dataset", parent);
    let parent = whole.id;

    let span = log.open("features", parent);
    let pool_space = FeatureSpace::extract(
        pool.iter().map(|p| &p.pair),
        config.extractor,
        config.distance,
    );
    let token_weights: Vec<f64> = pool
        .iter()
        .map(|p| llm::count_tokens(&p.pair.serialize()) as f64)
        .collect();
    let q_space = FeatureSpace::extract(
        questions.iter().map(|p| &p.pair),
        config.extractor,
        config.distance,
    );
    st.features = log.close(span);

    let span = log.open("thresholds", parent);
    let clustered = config.batching != BatchingStrategy::Random;
    let eps = (clustered && config.clustering == ClusteringKind::Dbscan).then(|| {
        q_space
            .distance_percentile(DBSCAN_EPS_PERCENTILE, PERCENTILE_SAMPLES, config.seed)
            .max(MIN_THRESHOLD)
    });
    let cover_t = (config.selection == SelectionStrategy::Covering).then(|| {
        q_space
            .distance_percentile(config.cover_percentile, PERCENTILE_SAMPLES, config.seed)
            .max(MIN_THRESHOLD)
    });
    st.thresholds = log.close(span);

    let span = log.open("cluster", parent);
    let clusters = clustered.then(|| {
        cluster_questions_pinned(
            &q_space,
            config.clustering,
            config.batch_size,
            config.seed,
            eps,
        )
        .0
    });
    st.cluster = log.close(span);
    st.clusters = clusters.as_ref().map_or(0, |c| c.n_clusters as u64);

    let span = log.open("batching", parent);
    let batches = batches_for_clustering(
        q_space.len(),
        clusters.as_ref(),
        config.batching,
        config.batch_size,
        config.seed,
    );
    st.batching = log.close(span);

    let span = log.open("selection", parent);
    let selection = select_demonstrations_pinned(
        config.selection,
        &q_space,
        &pool_space,
        &batches,
        SelectionParams {
            k: config.k,
            cover_percentile: config.cover_percentile,
            seed: config.seed,
        },
        cover_t,
        |d| token_weights[d],
    );
    st.selection = log.close(span);
    let plan = QuestionBatchPlan {
        batches,
        demos_per_batch: selection.per_batch,
        labeled: selection.labeled,
        threshold: selection.threshold,
    };
    st.batches = plan.batches.len() as u64;
    st.demos_labeled = plan.labeled.len() as u64;
    st.demos_placed = plan.demos_per_batch.iter().map(|d| d.len() as u64).sum();

    let span = log.open("executor", parent);
    api.set_parent(span.id);
    let llm_before = api.totals().busy_ns;
    let description = task_description(dataset.domain());
    let executor = Executor::new(api, config.model, config.max_retries);
    let mut outcome = ExecutionOutcome::default();
    let mut order: Vec<usize> = Vec::with_capacity(questions.len());
    for (bi, batch) in plan.batches.iter().enumerate() {
        let demos: Vec<&LabeledPair> = plan.demos_per_batch[bi].iter().map(|&d| pool[d]).collect();
        let serialized: Vec<String> = batch
            .iter()
            .map(|&q| questions[q].pair.serialize())
            .collect();
        executor.run_batch(
            &description,
            &demos,
            &serialized,
            config.seed ^ ((bi as u64) << 16),
            &mut outcome,
        );
        order.extend(batch.iter().copied());
    }
    st.executor = log.close(span);
    st.llm = api.totals().busy_ns - llm_before;
    api.set_parent(0);
    st.retries = u64::from(outcome.retries);

    let span = log.open("score", parent);
    outcome.ledger.record_labeling(plan.labeled.len() as u64);
    let mut confusion = BinaryConfusion::new();
    let mut unanswered = 0usize;
    for (&qi, answer) in order.iter().zip(&outcome.answers) {
        let predicted = answer.unwrap_or_else(|| {
            unanswered += 1;
            MatchLabel::NonMatching
        });
        confusion.observe(questions[qi].label, predicted);
    }
    st.score = log.close(span);
    st.wall = log.close(whole);

    (
        plan,
        Answer { confusion, ledger: outcome.ledger, unanswered },
        st,
    )
}

/// One untraced job: `run_on_split` on every dataset.
struct Job {
    /// Wall time per dataset, nanoseconds.
    per_dataset: Vec<f64>,
    answers: Vec<Answer>,
}

fn untraced_job(splits: &[Split<'_>], api: &dyn ChatApi, config: RunConfig) -> Job {
    let mut per_dataset = Vec::with_capacity(splits.len());
    let mut answers = Vec::with_capacity(splits.len());
    for s in splits {
        let started = Instant::now();
        let r = run_on_split(s.dataset, &s.pool, &s.questions, api, config);
        per_dataset.push(started.elapsed().as_nanos() as f64);
        answers.push(Answer { confusion: r.confusion, ledger: r.ledger, unanswered: r.unanswered });
    }
    Job { per_dataset, answers }
}

/// One traced job: the replica on every dataset.
struct TracedJob {
    /// Replica wall time per dataset, nanoseconds.
    per_dataset: Vec<f64>,
    /// Stage times added up per dataset, nanoseconds.
    covered: Vec<f64>,
    plans: Vec<QuestionBatchPlan>,
    answers: Vec<Answer>,
    stages: Stages,
}

/// Per dataset, its times over the jobs, nanoseconds.
fn by_dataset<'a>(jobs: impl Iterator<Item = &'a Vec<f64>>, datasets: usize) -> Vec<Vec<f64>> {
    let mut times = vec![Vec::new(); datasets];
    for per_dataset in jobs {
        for (t, &ns) in times.iter_mut().zip(per_dataset) {
            t.push(ns);
        }
    }
    times
}

/// Per dataset, the mean of its times over the jobs. Their sum is the
/// mean job time, so questions per job over it is questions resolved per
/// second of the timed phase. A mean rather than a median: a shared host
/// alternates fast and slow spells (a dataset's time can jump by 40% from
/// one job to the next), and a median over ten-odd jobs flips between
/// the two modes where a mean moves with their mix.
fn mean_ns<'a>(jobs: impl Iterator<Item = &'a Vec<f64>>, datasets: usize) -> Vec<f64> {
    let times = by_dataset(jobs, datasets);
    times
        .iter()
        .map(|t| t.iter().sum::<f64>() / t.len().max(1) as f64)
        .collect()
}

/// Per dataset, the median of its times over the jobs. The traced run's
/// comparisons use it: one unlucky job moves a mean of ten by several
/// percent, enough to fail the reconciliation.
fn median_ns<'a>(jobs: impl Iterator<Item = &'a Vec<f64>>, datasets: usize) -> Vec<f64> {
    by_dataset(jobs, datasets)
        .iter()
        .map(|t| median(t))
        .collect()
}

/// A question's latency offline is the wall time of the `run_on_split`
/// call that answers it: the call takes a dataset's questions together
/// and returns all of their answers at once. Returns the `p`-th
/// percentile (nearest rank) of that latency over every question the
/// `calls` answered, each call given as `(wall ns, questions)`.
pub fn question_percentile(calls: &[(f64, usize)], p: f64) -> f64 {
    let mut calls = calls.to_vec();
    calls.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: usize = calls.iter().map(|c| c.1).sum();
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as usize;
    let mut seen = 0;
    for (ns, n) in &calls {
        seen += n;
        if seen >= rank {
            return *ns;
        }
    }
    calls.last().map_or(0.0, |c| c.0)
}

fn traced_job<A: ChatApi>(
    splits: &[Split<'_>],
    api: &TimedApi<A>,
    config: RunConfig,
    log: &SpanLog,
) -> TracedJob {
    let job = log.open("job", 0);
    let mut plans = Vec::with_capacity(splits.len());
    let mut answers = Vec::with_capacity(splits.len());
    let mut per_dataset = Vec::with_capacity(splits.len());
    let mut covered = Vec::with_capacity(splits.len());
    let mut stages = Stages::default();
    for s in splits {
        let (plan, answer, st) =
            replica(s.dataset, &s.pool, &s.questions, api, config, log, job.id);
        plans.push(plan);
        answers.push(answer);
        per_dataset.push(st.wall as f64);
        covered.push(st.covered() as f64);
        stages.add(&st);
    }
    let _ = log.close(job);
    TracedJob { per_dataset, covered, plans, answers, stages }
}

/// A dataset with its pool (train) and question (test) slices.
struct Split<'a> {
    dataset: &'a Dataset,
    pool: Vec<&'a LabeledPair>,
    questions: Vec<&'a LabeledPair>,
}

fn splits(datasets: &[Dataset], seed: u64) -> Vec<Split<'_>> {
    datasets
        .iter()
        .map(|d| {
            let s = d.split_3_1_1(seed).expect("datagen sets are non-empty");
            Split { dataset: d, pool: s.train, questions: s.test }
        })
        .collect()
}

/// Runs the offline workload.
pub fn run(opts: &Opts, log: &Arc<SpanLog>) -> Outcome {
    let kinds: &[DatasetKind] = match opts.scale {
        Scale::Full => &FULL_DATASETS,
        Scale::Smoke => &SMOKE_DATASETS,
    };
    let (datasets, took) = setup(kinds, opts.seed);
    let mut setup_times = vec![took];
    let splits = splits(&datasets, opts.seed);
    let config = config(opts.seed);
    let questions: usize = splits.iter().map(|s| s.questions.len()).sum();

    // One untimed replica pass first: it yields the expected answers and
    // warms the allocator and caches before anything is timed.
    let expected = traced_job(
        &splits,
        &TimedApi::new(SimLlm::new(), Arc::new(SpanLog::new())),
        config,
        &SpanLog::new(),
    )
    .answers;

    let api = SimLlm::new();
    let timed = TimedApi::new(SimLlm::new(), Arc::clone(log));
    let budget = Duration::from_secs_f64(opts.seconds);
    let started = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    let mut traced: Vec<TracedJob> = Vec::new();
    let mut llm_latencies: Vec<u64> = Vec::new();
    let mut llm_calls: Vec<f64> = Vec::new();
    let mut llm_busy: Vec<f64> = Vec::new();
    let mut llm_tokens: Vec<f64> = Vec::new();
    // Traced runs alternate untraced and traced jobs (A/B interleaving),
    // so both halves see the same machine state.
    while jobs.is_empty() || (opts.trace && traced.is_empty()) || started.elapsed() < budget {
        if opts.trace && traced.len() < jobs.len() {
            let job = traced_job(&splits, &timed, config, log);
            let (totals, latencies) = timed.take();
            llm_latencies.extend(latencies);
            llm_calls.push(totals.calls as f64);
            llm_busy.push(totals.busy_ns as f64 / 1e6);
            llm_tokens.push(totals.prompt_tokens as f64 / questions as f64);
            traced.push(job);
        } else {
            jobs.push(untraced_job(&splits, &api, config));
        }
        let (spare, took) = setup(kinds, setup_seed(opts.seed, setup_times.len()));
        drop(spare);
        setup_times.push(took);
    }

    // Read before the results are gathered, which allocates for the
    // benchmark, not the program.
    let peak_rss_mb = crate::report::peak_rss_mb();
    let mut out = Outcome::default();
    let runs = jobs.len() + traced.len();
    out.attempted = (questions * runs) as u64;
    out.failed = jobs
        .iter()
        .flat_map(|j| &j.answers)
        .chain(traced.iter().flat_map(|j| &j.answers))
        .map(|a| a.unanswered as u64)
        .sum();

    // Correctness: every job, traced or not, must reproduce the replica's
    // confusion matrix and ledger, and the traced replica's plan must be
    // the one `plan_question_batches` makes.
    for (i, s) in splits.iter().enumerate() {
        let name = s.dataset.name();
        let scored = expected[i].confusion.total();
        if scored != s.questions.len() as u64 {
            out.problem(format!(
                "{name}: {scored} of {} questions scored",
                s.questions.len()
            ));
        }
        let runs = jobs
            .iter()
            .map(|j| ("job", &j.answers))
            .chain(traced.iter().map(|j| ("traced job", &j.answers)));
        for (j, (kind, answers)) in runs.enumerate() {
            if let Err(e) = check_answer(&format!("{name} {kind} {j}"), &expected[i], &answers[i]) {
                out.problem(e);
            }
        }
    }
    if let Some(first) = traced.first() {
        let plan_config = BatchPlanConfig::from_run_config(&config);
        for (s, plan) in splits.iter().zip(&first.plans) {
            let q: Vec<&EntityPair> = s.questions.iter().map(|p| &p.pair).collect();
            if plan_question_batches(&q, &s.pool, &plan_config) != *plan {
                out.problem(format!(
                    "{}: replica plan differs from plan_question_batches",
                    s.dataset.name()
                ));
            }
        }
    }

    let mut values = Values::default();
    let untraced_ns = mean_ns(jobs.iter().map(|j| &j.per_dataset), splits.len());
    let qps = |mean: &[f64]| questions as f64 / (mean.iter().sum::<f64>() / 1e9);
    let calls: Vec<(f64, usize)> = jobs
        .iter()
        .flat_map(|j| j.per_dataset.iter().copied().zip(&splits))
        .map(|(ns, s)| (ns, s.questions.len()))
        .collect();
    let mut pooled = BinaryConfusion::new();
    let mut ledger = CostLedger::new();
    for a in &expected {
        pooled.merge(&a.confusion);
        ledger.merge(&a.ledger);
    }
    let per_1k = |m: er_core::Money| m.dollars() * 1000.0 / questions as f64;
    values.set("questions_per_s", qps(&untraced_ns));
    values.set("latency_p50_us", question_percentile(&calls, 50.0) / 1e3);
    values.set("latency_p99_us", question_percentile(&calls, 99.0) / 1e3);
    values.set("f1", pooled.scores().f1);
    values.set("api_usd_per_1k", per_1k(ledger.api));
    values.set("label_usd_per_1k", per_1k(ledger.labeling));
    let failed_frac = out.failed as f64 / out.attempted as f64;
    values.set("answered_frac", 1.0 - failed_frac);
    let setup_s: Vec<f64> = setup_times.iter().map(Duration::as_secs_f64).collect();
    values.set("setup_s", median(&setup_s));
    values.set("peak_rss_mb", peak_rss_mb);

    out.detail("questions_per_job", questions.to_string());
    out.detail("jobs_untraced", jobs.len().to_string());
    out.detail("jobs_traced", traced.len().to_string());
    out.detail("latency_samples", (questions * jobs.len()).to_string());
    out.detail("setup_samples", setup_s.len().to_string());
    out.detail("failed_frac", json_number(failed_frac));
    let rows: Vec<String> = splits
        .iter()
        .zip(&expected)
        .zip(&untraced_ns)
        .map(|((s, a), ns)| {
            format!(
                "{{\"name\": \"{}\", \"questions\": {}, \"pool\": {}, \"mean_ms\": {}, \
                 \"f1\": {}, \"api_usd\": {}, \"label_usd\": {}}}",
                s.dataset.name(),
                s.questions.len(),
                s.pool.len(),
                json_number(ns / 1e6),
                json_number(a.confusion.scores().f1),
                json_number(a.ledger.api.dollars()),
                json_number(a.ledger.labeling.dollars())
            )
        })
        .collect();
    out.detail("datasets", format!("[{}]", rows.join(", ")));
    let job_ms: Vec<String> = jobs
        .iter()
        .map(|j| {
            let ms: Vec<String> = j
                .per_dataset
                .iter()
                .map(|ns| json_number(ns / 1e6))
                .collect();
            format!("[{}]", ms.join(", "))
        })
        .collect();
    out.detail("job_dataset_ms", format!("[{}]", job_ms.join(", ")));

    if opts.trace {
        let med = |f: &dyn Fn(&Stages) -> f64| {
            median(&traced.iter().map(|t| f(&t.stages)).collect::<Vec<_>>())
        };
        let ms = |ns: u64| ns as f64 / 1e6;
        values.set("features.busy_ms", med(&|s| ms(s.features)));
        values.set("thresholds.busy_ms", med(&|s| ms(s.thresholds)));
        values.set("cluster.busy_ms", med(&|s| ms(s.cluster)));
        values.set("cluster.count", med(&|s| s.clusters as f64));
        values.set("batching.busy_ms", med(&|s| ms(s.batching)));
        values.set("batching.batches", med(&|s| s.batches as f64));
        values.set("selection.busy_ms", med(&|s| ms(s.selection)));
        values.set("selection.demos_labeled", med(&|s| s.demos_labeled as f64));
        values.set(
            "selection.demos_per_batch",
            med(&|s| s.demos_placed as f64 / s.batches.max(1) as f64),
        );
        values.set("executor.busy_ms", med(&|s| ms(s.executor)));
        values.set("executor.self_ms", med(&|s| ms(s.executor) - ms(s.llm)));
        values.set("llm.calls", median(&llm_calls));
        values.set("llm.busy_ms", median(&llm_busy));
        let call_us: Vec<f64> = llm_latencies.iter().map(|&ns| ns as f64 / 1e3).collect();
        values.set("llm.call_p50_us", median(&call_us));
        values.set("llm.retries", med(&|s| s.retries as f64));
        values.set("llm.prompt_tokens_per_question", median(&llm_tokens));
        values.set(
            "llm.questions_per_call",
            questions as f64 / median(&llm_calls).max(1.0),
        );
        // Reconciliation: per dataset, the median untraced job time
        // against the median sum of the replica's stage times.
        let job_ns = median_ns(jobs.iter().map(|j| &j.per_dataset), splits.len());
        let job_ms = job_ns.iter().sum::<f64>() / 1e6;
        let covered_ns = median_ns(traced.iter().map(|j| &j.covered), splits.len());
        let residual_ms = job_ms - covered_ns.iter().sum::<f64>() / 1e6;
        values.set("trace.residual_ms", residual_ms);
        let traced_ns = median_ns(traced.iter().map(|j| &j.per_dataset), splits.len());
        values.set(
            "trace.overhead_pct",
            (1.0 - qps(&traced_ns) / qps(&job_ns)) * 100.0,
        );
        out.detail("untraced_job_ms", json_number(job_ms));
        let bound_ms = (job_ms * MAX_RESIDUAL_SHARE).max(MIN_RESIDUAL_BOUND_MS);
        out.detail("residual_bound_ms", json_number(bound_ms));
        out.detail("llm_call_samples", call_us.len().to_string());
        if residual_ms.abs() > bound_ms {
            out.problem(format!(
                "the replica's stage times differ from a {job_ms:.1} ms job by {residual_ms:.1} ms"
            ));
        }
        values.emit(PER_LAYER, &mut out);
    } else {
        values.emit(END_TO_END, &mut out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn question_latency_is_the_time_of_the_call_answering_it() {
        let calls = [(100.0, 2), (10.0, 2), (1000.0, 4), (50.0, 2)];
        assert_eq!(question_percentile(&calls, 10.0), 10.0);
        assert_eq!(question_percentile(&calls, 40.0), 50.0);
        assert_eq!(question_percentile(&calls, 50.0), 100.0);
        assert_eq!(question_percentile(&calls, 61.0), 1000.0);
        assert_eq!(question_percentile(&calls, 99.0), 1000.0);
    }
}
