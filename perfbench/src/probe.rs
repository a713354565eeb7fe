//! Tracing from outside the program: spans the benchmark records around
//! its own calls into each layer, and a timing [`ChatApi`] wrapper that
//! sees every LLM call the pipeline or the service makes.
//!
//! Spans stay in memory while the run measures and are written out as
//! JSON lines when it ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llm::{ChatApi, ChatRequest, ChatResponse, LlmError};

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer or operation name (`features`, `submit.cache`, `llm.call`).
    pub name: &'static str,
    /// Span id, unique within the run.
    pub id: u64,
    /// Id of the span that caused this one (0 = none).
    pub parent: u64,
    /// Start, nanoseconds since the log's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the log's epoch.
    pub end_ns: u64,
}

/// A span that has started but not yet ended.
#[derive(Debug, Clone, Copy)]
#[must_use = "close the span to record it"]
pub struct OpenSpan {
    /// The id the span will be recorded under (usable as a parent).
    pub id: u64,
    name: &'static str,
    parent: u64,
    start_ns: u64,
}

/// An in-memory span log with one shared epoch.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanLog {
    /// An empty log whose epoch is now.
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Nanoseconds since the epoch.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn spans(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Starts a span named `name` under `parent` (0 = root).
    pub fn open(&self, name: &'static str, parent: u64) -> OpenSpan {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        OpenSpan { id, name, parent, start_ns: self.now_ns() }
    }

    /// Ends a span, records it, and returns its duration in nanoseconds.
    pub fn close(&self, span: OpenSpan) -> u64 {
        self.close_as(span, span.name)
    }

    /// Like [`SpanLog::close`], but names the span now (for spans whose
    /// kind is known only at the end, such as a submit's decision source).
    pub fn close_as(&self, span: OpenSpan, name: &'static str) -> u64 {
        let end_ns = self.now_ns();
        self.spans().push(Span {
            name,
            id: span.id,
            parent: span.parent,
            start_ns: span.start_ns,
            end_ns,
        });
        end_ns.saturating_sub(span.start_ns)
    }

    /// Copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans().clone()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans().iter() {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What a [`TimedApi`] saw, summed over the calls since the last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CallTotals {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error.
    pub errors: u64,
    /// Wall time spent inside the wrapped endpoint, nanoseconds.
    pub busy_ns: u64,
    /// Prompt tokens of the successful calls.
    pub prompt_tokens: u64,
}

/// Every call a [`TimedApi`] passed on, counted whether timing is on or
/// off and never reset: the LLM traffic as seen from outside the
/// program, for checking the program's own books against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireTotals {
    /// Calls that returned a response.
    pub answered_calls: u64,
    /// Prompt tokens of those calls.
    pub prompt_tokens: u64,
    /// What those calls cost, micro-dollars.
    pub api_micros: i64,
}

#[derive(Debug, Default)]
struct State {
    /// Timed calls since the last [`TimedApi::take`].
    timed: CallTotals,
    /// Their latencies, nanoseconds.
    latencies: Vec<u64>,
    /// Parent span id stamped on call spans.
    parent: u64,
    /// Every call since construction.
    wire: WireTotals,
}

/// A [`ChatApi`] that counts every call into the wrapped endpoint and,
/// while timing is enabled, times it and records it as an `llm.call`
/// span. With timing disabled a call costs one uncontended lock, so one
/// service can serve traced and untraced windows.
pub struct TimedApi<A> {
    inner: A,
    log: Arc<SpanLog>,
    enabled: AtomicBool,
    state: Mutex<State>,
}

impl<A: ChatApi> TimedApi<A> {
    /// Wraps `inner`, logging call spans into `log`.
    pub fn new(inner: A, log: Arc<SpanLog>) -> Self {
        Self { inner, log, enabled: AtomicBool::new(true), state: Mutex::new(State::default()) }
    }

    /// Turns timing on or off (on by default). Counting stays on.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Sets the parent span id stamped on subsequent call spans.
    pub fn set_parent(&self, parent: u64) {
        self.state().parent = parent;
    }

    /// Timed totals since the last [`TimedApi::take`].
    pub fn totals(&self) -> CallTotals {
        self.state().timed
    }

    /// Returns the timed totals and per-call latencies (ns) and resets
    /// both.
    pub fn take(&self) -> (CallTotals, Vec<u64>) {
        let mut state = self.state();
        let totals = std::mem::take(&mut state.timed);
        let latencies = std::mem::take(&mut state.latencies);
        (totals, latencies)
    }

    /// Every call since construction, timed or not.
    pub fn wire(&self) -> WireTotals {
        self.state().wire
    }
}

impl<A: ChatApi> ChatApi for TimedApi<A> {
    fn complete(&self, request: &ChatRequest) -> Result<ChatResponse, LlmError> {
        let timed = self.enabled.load(Ordering::Relaxed);
        let span = timed.then(|| self.log.open("llm.call", self.state().parent));
        let result = self.inner.complete(request);
        let ns = span.map(|span| self.log.close(span));
        let mut state = self.state();
        if let Ok(resp) = &result {
            state.wire.answered_calls += 1;
            state.wire.prompt_tokens += resp.usage.prompt_tokens.get();
            state.wire.api_micros += resp.cost.micros();
        }
        if let Some(ns) = ns {
            let totals = &mut state.timed;
            totals.calls += 1;
            totals.busy_ns += ns;
            match &result {
                Ok(resp) => totals.prompt_tokens += resp.usage.prompt_tokens.get(),
                Err(_) => totals.errors += 1,
            }
            state.latencies.push(ns);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_api_counts_calls_and_logs_spans() {
        let log = Arc::new(SpanLog::new());
        let api = TimedApi::new(llm::SimLlm::new(), Arc::clone(&log));
        api.set_parent(7);
        let request = ChatRequest::new(
            llm::ModelKind::Gpt35Turbo0301,
            "Question 1: a [SEP] b".to_owned(),
            1,
        );
        let _ = api.complete(&request);
        let _ = api.complete(&request);
        let totals = api.totals();
        assert_eq!(totals.calls, 2);
        assert!(totals.busy_ns > 0);
        let spans = log.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "llm.call" && s.parent == 7));
        let (taken, latencies) = api.take();
        assert_eq!(taken, totals);
        assert_eq!(latencies.len(), 2);
        assert_eq!(api.totals(), CallTotals::default());

        let wire = api.wire();
        assert_eq!(wire.answered_calls, 2);
        assert_eq!(wire.prompt_tokens, taken.prompt_tokens);
        assert!(wire.api_micros > 0);

        api.set_enabled(false);
        let _ = api.complete(&request);
        assert_eq!(api.totals(), CallTotals::default());
        assert_eq!(log.len(), 2);
        assert_eq!(api.wire().answered_calls, 3);
    }
}
