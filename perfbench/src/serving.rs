//! The `serve_zipf` workload: `ErService` under two closed-loop clients
//! that draw a Zipf(s = 1) stream from a bank of distinct Abt-Buy pairs.
//!
//! A run sets up (synthesizes the inputs and starts a service), warms the
//! service's cache, then drives it in fixed-size windows until the timed
//! phase is over. After each window it sets up once more, from the next
//! set-up seed ([`crate::setup_seed`]), times it and throws that service
//! away, so the set-up samples are spread over the run like the windows.
//! Throughput pools the windows, latency percentiles are medians over
//! windows and set-up time is the median of the set-ups. Quality and cost are read after a fixed number of
//! submits, so they do not depend on the host's speed.
//!
//! The service's LLM is wrapped in a [`TimedApi`] on every run, which
//! counts the calls, prompt tokens and spend the service puts on the
//! wire; the books are checked against those counts. A traced run
//! alternates untraced and traced windows. In a traced window the
//! wrapper also times every call and the clients record a span per
//! submit, named by the decision's source.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datagen::DatasetKind;
use er_core::{BinaryConfusion, LabeledPair, MatchLabel, Money};
use er_service::{DecisionSource, ErService, ServiceConfig, ServiceStats, SyncPolicy, WalConfig};
use llm::SimLlm;

use crate::probe::{CallTotals, SpanLog, TimedApi, WireTotals};
use crate::report::{json_number, median, percentile, Outcome};
use crate::{setup_seed, Opts, Scale, Values, END_TO_END, PER_LAYER};

/// Closed-loop client threads (at most the two cores of the reference host).
pub const CLIENTS: usize = 2;

/// Budget far above what a run can spend, so the governor never
/// denies a batch.
pub const BUDGET_USD: f64 = 1_000.0;

/// Input sizes of a run.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Labeled Abt-Buy pairs the service bootstraps from.
    pub bootstrap: usize,
    /// Distinct pairs the clients draw questions from.
    pub bank: usize,
    /// Untimed submits that fill the cache before the first window.
    pub warmup: usize,
    /// Submits per timed window, split evenly over the clients.
    pub window: usize,
    /// Windows after the warm-up that quality and cost are read over.
    pub quality_windows: usize,
}

impl Sizes {
    /// Sizes for a scale.
    pub fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Self {
                bootstrap: 300,
                bank: 4_000,
                warmup: 10_000,
                window: 2_500,
                quality_windows: 8,
            },
            Scale::Smoke => {
                Self { bootstrap: 60, bank: 200, warmup: 200, window: 100, quality_windows: 2 }
            }
        }
    }
}

/// A small deterministic generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank `r` has weight `1 / (r + 1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ranks.
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A run's inputs: the bootstrap pool and the question bank, both
/// drawn without overlap from a seeded shuffle of Abt-Buy.
pub fn synthesize(seed: u64, sizes: Sizes) -> (Vec<LabeledPair>, Vec<LabeledPair>) {
    let dataset = datagen::generate(DatasetKind::AbtBuy, seed);
    let pairs = dataset.pairs();
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    let mut rng = SplitMix::new(seed ^ 0x5EED_BA4C);
    for i in (1..order.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    assert!(
        sizes.bootstrap + sizes.bank <= pairs.len(),
        "Abt-Buy is too small for the sizes"
    );
    let bootstrap = order[..sizes.bootstrap]
        .iter()
        .map(|&i| pairs[i].clone())
        .collect();
    let bank = order[sizes.bootstrap..sizes.bootstrap + sizes.bank]
        .iter()
        .map(|&i| pairs[i].clone())
        .collect();
    (bootstrap, bank)
}

/// The service configuration of the workload: defaults except a 1 ms
/// flush deadline, an unreachable budget, a batched-fsync WAL in `wal_dir`
/// and a 1,024-entry cache.
pub fn service_config(seed: u64, wal_dir: &std::path::Path) -> ServiceConfig {
    ServiceConfig {
        flush_deadline: Duration::from_millis(1),
        budget: Money::from_dollars(BUDGET_USD),
        wal: Some(WalConfig { sync: SyncPolicy::Batched { every: 32 }, ..WalConfig::at(wal_dir) }),
        cache_capacity: 1_024,
        seed,
        ..ServiceConfig::default()
    }
}

/// What the clients saw.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    /// Submits issued.
    pub submits: u64,
    /// Decisions received, by source: cache, LLM, fallback.
    pub by_source: [u64; 3],
    /// Per-submit latency of cache answers, microseconds.
    pub hit_us: Vec<f64>,
    /// Per-submit latency of other answers, microseconds.
    pub miss_us: Vec<f64>,
    /// The first answer received for each bank pair.
    pub first: Vec<Option<MatchLabel>>,
}

impl Observed {
    fn merge(&mut self, o: Observed) {
        self.submits += o.submits;
        for (a, b) in self.by_source.iter_mut().zip(o.by_source) {
            *a += b;
        }
        self.hit_us.extend(o.hit_us);
        self.miss_us.extend(o.miss_us);
        if self.first.is_empty() {
            self.first = o.first;
        } else {
            for (mine, theirs) in self.first.iter_mut().zip(o.first) {
                *mine = mine.or(theirs);
            }
        }
    }

    /// Every submit's latency, microseconds.
    pub fn latencies(&self) -> Vec<f64> {
        self.hit_us.iter().chain(&self.miss_us).copied().collect()
    }

    /// The first answers to the distinct pairs asked, against their gold
    /// labels. Counting each pair once keeps the few hottest pairs of
    /// the Zipf stream from deciding the score.
    pub fn confusion(&self, bank: &[LabeledPair]) -> BinaryConfusion {
        let mut confusion = BinaryConfusion::new();
        for (answer, q) in self.first.iter().zip(bank) {
            if let Some(label) = answer {
                confusion.observe(q.label, *label);
            }
        }
        confusion
    }
}

fn source_index(source: DecisionSource) -> usize {
    match source {
        DecisionSource::Cache => 0,
        DecisionSource::Llm => 1,
        DecisionSource::Fallback => 2,
    }
}

fn span_name(source: DecisionSource) -> &'static str {
    match source {
        DecisionSource::Cache => "submit.cache",
        DecisionSource::Llm => "submit.llm",
        DecisionSource::Fallback => "submit.fallback",
    }
}

/// Checks the service's books against what was seen outside it: the
/// clients' submits and decisions (`observed`) and the LLM traffic the
/// wrapper counted (`wire`). Hits plus misses must equal submits, spend
/// stay within budget and no WAL append fail.
pub fn check_books(observed: &Observed, stats: &ServiceStats, wire: &WireTotals) -> Vec<String> {
    let mut problems = Vec::new();
    if stats.submitted != observed.submits {
        problems.push(format!(
            "service counted {} submits, clients {}",
            stats.submitted, observed.submits
        ));
    }
    if stats.cache_hits + stats.cache_misses != stats.submitted {
        problems.push(format!(
            "cache hits {} + misses {} != submitted {}",
            stats.cache_hits, stats.cache_misses, stats.submitted
        ));
    }
    if stats.spent_micros > stats.budget_micros {
        problems.push(format!(
            "spent {} of a {} budget",
            stats.spent_micros, stats.budget_micros
        ));
    }
    if stats.wal_append_errors != 0 {
        problems.push(format!("{} WAL append errors", stats.wal_append_errors));
    }
    // Coalesced waiters answered from the cache see a cache decision
    // without a cache lookup hit.
    let [cache, _, fallback] = observed.by_source;
    if cache < stats.cache_hits || cache > stats.cache_hits + stats.coalesced_duplicates {
        problems.push(format!(
            "clients got {cache} cache answers; service counted {} hits and {} coalesced",
            stats.cache_hits, stats.coalesced_duplicates
        ));
    }
    if fallback != stats.fallback_answered {
        problems.push(format!(
            "clients got {fallback} fallback answers, service counted {}",
            stats.fallback_answered
        ));
    }
    let books = (stats.api_calls, stats.prompt_tokens, stats.api_micros);
    let seen = (wire.answered_calls, wire.prompt_tokens, wire.api_micros);
    if books != seen {
        problems.push(format!(
            "service books (calls, prompt tokens, api micros) {books:?} != LLM traffic {seen:?}"
        ));
    }
    problems
}

/// A started service with its LLM wrapper and question bank.
pub struct Started {
    /// The service.
    pub service: ErService,
    /// The wrapper every LLM call of the service goes through.
    pub api: Arc<TimedApi<SimLlm>>,
    /// The questions the clients draw from.
    pub bank: Vec<LabeledPair>,
    /// Wall time of the set-up.
    pub took: Duration,
}

/// One set-up: synthesize the inputs and start a service whose WAL lives
/// in `wal_dir` (emptied first) and whose LLM calls are counted by a
/// wrapper logging into `log`. Timing is off until enabled.
pub fn start(seed: u64, sizes: Sizes, wal_dir: &std::path::Path, log: &Arc<SpanLog>) -> Started {
    let _ = std::fs::remove_dir_all(wal_dir);
    let started = Instant::now();
    let (bootstrap, bank) = synthesize(seed, sizes);
    let api = Arc::new(TimedApi::new(SimLlm::new(), Arc::clone(log)));
    api.set_enabled(false);
    let service = ErService::start(
        Arc::clone(&api) as Arc<dyn llm::ChatApi>,
        bootstrap,
        service_config(seed, wal_dir),
    );
    let took = started.elapsed();
    Started { service, api, bank, took }
}

/// One timed window.
struct Window {
    traced: bool,
    wall: Duration,
    observed: Observed,
    llm: Option<(CallTotals, Vec<u64>)>,
}

impl Window {
    fn qps(&self) -> f64 {
        self.observed.submits as f64 / self.wall.as_secs_f64()
    }
}

fn client(
    service: &ErService,
    bank: &[LabeledPair],
    zipf: &Zipf,
    rng: &mut SplitMix,
    n: usize,
    log: Option<&SpanLog>,
) -> Observed {
    let mut o = Observed {
        hit_us: Vec::with_capacity(n),
        miss_us: Vec::with_capacity(n / 2),
        first: vec![None; bank.len()],
        ..Observed::default()
    };
    for _ in 0..n {
        let i = zipf.sample(rng);
        let q = &bank[i];
        let (decision, us) = match log {
            Some(log) => {
                let span = log.open("submit", 0);
                let d = service.submit(&q.pair);
                (d, log.close_as(span, span_name(d.source)) as f64 / 1e3)
            }
            None => {
                let started = Instant::now();
                let d = service.submit(&q.pair);
                (d, started.elapsed().as_nanos() as f64 / 1e3)
            }
        };
        o.submits += 1;
        o.by_source[source_index(decision.source)] += 1;
        if decision.source == DecisionSource::Cache {
            o.hit_us.push(us);
        } else {
            o.miss_us.push(us);
        }
        o.first[i].get_or_insert(decision.label);
    }
    o
}

/// `n` submits from the closed-loop clients; returns what they saw and
/// the wall time.
fn drive(
    service: &ErService,
    bank: &[LabeledPair],
    zipf: &Zipf,
    rngs: &mut [SplitMix],
    n: usize,
    log: Option<&SpanLog>,
) -> (Observed, Duration) {
    let per_client = n / rngs.len();
    let started = Instant::now();
    let parts: Vec<Observed> = std::thread::scope(|s| {
        let handles: Vec<_> = rngs
            .iter_mut()
            .map(|rng| s.spawn(move || client(service, bank, zipf, rng, per_client, log)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut observed = Observed::default();
    for p in parts {
        observed.merge(p);
    }
    (observed, wall)
}

/// Runs the serving workload.
pub fn run(opts: &Opts, log: &Arc<SpanLog>) -> Outcome {
    let sizes = Sizes::of(opts.scale);
    let wal_root = opts.scratch.join(format!("wal-{}", std::process::id()));
    let Started { service, api: timed, bank, took } =
        start(opts.seed, sizes, &wal_root.join("measured"), log);
    let mut setup_times = vec![took];
    // The throw-away set-ups log no spans.
    let quiet = Arc::new(SpanLog::new());

    let zipf = Zipf::new(bank.len());
    let mut rngs: Vec<SplitMix> = (1..=CLIENTS as u64)
        .map(|c| SplitMix::new(opts.seed ^ (c << 48) ^ 0x2F1F))
        .collect();
    let (mut total, _) = drive(&service, &bank, &zipf, &mut rngs, sizes.warmup, None);
    let mut quality: Option<(Vec<Option<MatchLabel>>, u64, ServiceStats)> = None;

    // Traced runs alternate untraced and traced windows, starting
    // untraced, and measure at least one of each.
    let budget = Duration::from_secs_f64(opts.seconds);
    let min_windows = sizes.quality_windows.max(if opts.trace { 2 } else { 1 });
    let mut windows: Vec<Window> = Vec::new();
    let mut measured = Duration::ZERO;
    while windows.len() < min_windows || measured < budget {
        let traced = opts.trace && windows.len() % 2 == 1;
        timed.set_enabled(traced);
        let (observed, wall) = drive(
            &service,
            &bank,
            &zipf,
            &mut rngs,
            sizes.window,
            traced.then_some(&**log),
        );
        timed.set_enabled(false);
        let llm = traced.then(|| timed.take());
        measured += wall;
        total.merge(Observed {
            submits: observed.submits,
            by_source: observed.by_source,
            first: observed.first.clone(),
            ..Observed::default()
        });
        windows.push(Window { traced, wall, observed, llm });
        if windows.len() == sizes.quality_windows {
            quality = Some((total.first.clone(), total.submits, service.stats()));
        }
        let seed = setup_seed(opts.seed, setup_times.len());
        let spare = start(seed, sizes, &wal_root.join("spare"), &quiet);
        setup_times.push(spare.took);
    }

    // Read before the results are gathered, which allocates for the
    // benchmark, not the program.
    let peak_rss_mb = crate::report::peak_rss_mb();
    let mut out = Outcome::default();
    let stats = service.stats();
    drop(service);
    let _ = std::fs::remove_dir_all(&wal_root);
    for p in check_books(&total, &stats, &timed.wire()) {
        out.problem(p);
    }
    out.attempted = total.submits;
    out.failed = total.by_source[2];

    let (first, quality_submits, quality_stats) = quality.expect("quality windows ran");
    let confusion = Observed { first, ..Observed::default() }.confusion(&bank);
    let per_1k = |micros: i64| micros as f64 / 1e6 * 1000.0 / quality_submits as f64;
    let chosen = |traced: bool| windows.iter().filter(move |w| w.traced == traced);
    // Submits per second of the untraced (or traced) windows taken
    // together. Pooled rather than a median over windows: a shared host
    // alternates fast and slow spells, and a median over windows flips
    // between the two modes where a pooled figure moves with their mix.
    let qps = |traced: bool| {
        let submits: u64 = chosen(traced).map(|w| w.observed.submits).sum();
        let secs: f64 = chosen(traced).map(|w| w.wall.as_secs_f64()).sum();
        submits as f64 / secs
    };
    // Latency percentiles per window, then their median over windows. A
    // pooled tail would be set by the slow spells alone; over five seeds
    // it spread 15% against 9% for the median of window tails.
    let latency = |p: f64| {
        let per_window: Vec<f64> = chosen(false)
            .map(|w| percentile(&w.observed.latencies(), p))
            .collect();
        median(&per_window)
    };
    let untraced_qps = qps(false);

    let mut values = Values::default();
    values.set("questions_per_s", untraced_qps);
    values.set("latency_p50_us", latency(50.0));
    values.set("latency_p99_us", latency(99.0));
    values.set("f1", confusion.scores().f1);
    values.set("api_usd_per_1k", per_1k(quality_stats.api_micros));
    values.set("label_usd_per_1k", per_1k(quality_stats.labeling_micros));
    values.set(
        "answered_frac",
        1.0 - total.by_source[2] as f64 / total.submits as f64,
    );
    let setup_s: Vec<f64> = setup_times.iter().map(Duration::as_secs_f64).collect();
    values.set("setup_s", median(&setup_s));
    values.set("peak_rss_mb", peak_rss_mb);

    let rows: Vec<String> = windows
        .iter()
        .map(|w| {
            let lat = w.observed.latencies();
            format!(
                "{{\"traced\": {}, \"q_per_s\": {}, \"p50_us\": {}, \"p99_us\": {}}}",
                w.traced,
                json_number(w.qps()),
                json_number(percentile(&lat, 50.0)),
                json_number(percentile(&lat, 99.0))
            )
        })
        .collect();
    out.detail("windows", format!("[{}]", rows.join(", ")));
    out.detail("submits_per_window", sizes.window.to_string());
    out.detail("latency_samples_per_window", sizes.window.to_string());
    out.detail("warmup_submits", sizes.warmup.to_string());
    out.detail("quality_submits", quality_submits.to_string());
    out.detail("f1_questions", confusion.total().to_string());
    out.detail("setup_samples", setup_s.len().to_string());
    out.detail(
        "failed_frac",
        json_number(total.by_source[2] as f64 / total.submits as f64),
    );
    out.detail(
        "decisions",
        format!(
            "{{\"cache\": {}, \"llm\": {}, \"fallback\": {}}}",
            total.by_source[0], total.by_source[1], total.by_source[2]
        ),
    );

    if opts.trace {
        let traced: Vec<&Window> = windows.iter().filter(|w| w.traced).collect();
        let hits: Vec<f64> = traced
            .iter()
            .flat_map(|w| w.observed.hit_us.iter().copied())
            .collect();
        let misses: Vec<f64> = traced
            .iter()
            .flat_map(|w| w.observed.miss_us.iter().copied())
            .collect();
        values.set("submit.hit_p50_us", median(&hits));
        values.set("submit.miss_p50_us", median(&misses));
        values.set("submit.miss_p99_us", percentile(&misses, 99.0));
        let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
        values.set("cache.hit_ratio", ratio(stats.cache_hits, stats.submitted));
        values.set("cache.evictions", stats.cache_evictions as f64);
        values.set("planner.plan_p50_us", stats.plan_p50_us as f64);
        values.set(
            "planner.lock_hold_p50_us",
            stats.planner_lock_hold_p50_us as f64,
        );
        values.set("planner.full_frac", ratio(stats.plan_full, stats.plans));
        values.set("queue.depth_peak", stats.queue_depth_peak as f64);
        values.set("coalesce.duplicates", stats.coalesced_duplicates as f64);
        values.set(
            "llm.questions_per_call",
            ratio(stats.llm_answered, stats.api_calls),
        );
        values.set("llm.retries", stats.retries as f64);
        values.set("governor.denials", stats.budget_denials as f64);
        values.set("governor.refunds", stats.governor_refunds as f64);
        values.set("wal.appends", stats.wal_appends as f64);
        values.set("wal.append_errors", stats.wal_append_errors as f64);
        values.set("fallback.answers", stats.fallback_answered as f64);

        let llm: Vec<&(CallTotals, Vec<u64>)> =
            traced.iter().filter_map(|w| w.llm.as_ref()).collect();
        let per_window = |f: &dyn Fn(&CallTotals) -> f64| {
            median(&llm.iter().map(|l| f(&l.0)).collect::<Vec<_>>())
        };
        values.set("llm.calls", per_window(&|t| t.calls as f64));
        values.set("llm.busy_ms", per_window(&|t| t.busy_ns as f64 / 1e6));
        let call_us: Vec<f64> = llm
            .iter()
            .flat_map(|l| l.1.iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        values.set("llm.call_p50_us", median(&call_us));
        let traced_submits: u64 = traced.iter().map(|w| w.observed.submits).sum();
        let tokens: u64 = llm.iter().map(|l| l.0.prompt_tokens).sum();
        values.set(
            "llm.prompt_tokens_per_question",
            ratio(tokens, traced_submits),
        );
        values.set(
            "trace.overhead_pct",
            (1.0 - qps(true) / untraced_qps) * 100.0,
        );
        out.detail("hit_samples", hits.len().to_string());
        out.detail("miss_samples", misses.len().to_string());
        out.detail("llm_call_samples", call_us.len().to_string());
        values.emit(PER_LAYER, &mut out);
    } else {
        values.emit(END_TO_END, &mut out);
    }
    out
}
