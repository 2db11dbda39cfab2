//! The closed-loop client: issues requests one after another against a model and
//! logs latencies, failures and (in traced runs) per-layer spans.

use std::hint::black_box;
use std::time::Instant;

use xmap_cf::{ItemId, UserId};
use xmap_core::XMapModel;

use crate::inputs::Request;

/// Recommendations per top-N request.
pub const TOP_N: usize = 10;

/// Every this many top-N reads, the client checks the answer against a reference.
pub const CHECK_EVERY: u64 = 64;

pub type TopN = Vec<(ItemId, f64)>;

/// One top-N read as its two layer calls — AlterEgo generation, then profile
/// scoring — each timed into `spans` (µs).
fn top_n_traced(model: &XMapModel, user: UserId, spans: &mut Spans) -> TopN {
    let (_, epoch) = model.snapshot();
    let t0 = Instant::now();
    let alter = black_box(epoch.alterego(user));
    let t1 = Instant::now();
    let recs = epoch.recommend_for_profile(&alter.profile, TOP_N);
    let t2 = Instant::now();
    spans.record(t0, t1, t2);
    recs
}

/// Layer spans of traced top-N reads, in µs.
#[derive(Default)]
pub struct Spans {
    pub alterego_us: Vec<f64>,
    pub score_us: Vec<f64>,
}

impl Spans {
    fn record(&mut self, t0: Instant, t1: Instant, t2: Instant) {
        self.alterego_us.push(micros(t1 - t0));
        self.score_us.push(micros(t2 - t1));
    }
}

/// What a stretch of client traffic did.
#[derive(Default)]
pub struct ServeLog {
    /// Latency of every completed top-N read, µs, in the order they were sent.
    pub topn_us: Vec<f64>,
    /// Top-N reads in one pass of the request stream.
    pub pass_topn: usize,
    pub spans: Spans,
    pub predictions: u64,
    pub ok: u64,
    pub failed: u64,
    /// Sampled reads whose answer differed from the reference.
    pub mismatches: u64,
    pub checked: u64,
    /// First failure message, for the report.
    pub first_error: Option<String>,
}

impl ServeLog {
    /// Completed top-N reads per second of time spent in them.
    pub fn topn_per_s(&self) -> f64 {
        let busy_s: f64 = self.topn_us.iter().sum::<f64>() / 1e6;
        self.topn_us.len() as f64 / busy_s
    }

    fn fail(&mut self, err: String) {
        self.failed += 1;
        self.first_error.get_or_insert(err);
    }
}

/// The check one sampled top-N answer must pass: `false` marks a mismatch.
pub type Check<'a> = Box<dyn FnOnce(&TopN) -> bool + 'a>;

/// Makes the check for a sampled top-N read of a user. It is called just before
/// the read, outside the timed region, so it can pin the state the read should see.
pub type Verify<'v, 'a> = &'v mut dyn FnMut(UserId) -> Check<'a>;

/// One closed-loop client: its position in a request stream, and how it sends.
pub struct Client<'r> {
    requests: &'r [Request],
    cursor: usize,
    /// Split every top-N read into its timed layer calls.
    pub traced: bool,
    /// Skip the stream's predictions.
    pub topn_only: bool,
}

impl<'r> Client<'r> {
    pub fn new(requests: &'r [Request], traced: bool, topn_only: bool) -> Client<'r> {
        Client {
            requests,
            cursor: 0,
            traced,
            topn_only,
        }
    }

    /// Sends requests one after another (cycling the stream) until `deadline`.
    /// Every [`CHECK_EVERY`]th top-N read is checked by `verify`, if given, outside
    /// the timed region.
    pub fn serve_until(
        &mut self,
        model: &XMapModel,
        deadline: Instant,
        verify: Option<Verify<'_, '_>>,
        log: &mut ServeLog,
    ) {
        self.serve(model, deadline, false, verify, log);
    }

    /// Whether the cursor stands at the end of a pass over the request stream.
    fn at_pass_end(&self) -> bool {
        self.cursor.is_multiple_of(self.requests.len())
    }

    /// Like [`Client::serve_until`], but returns at the end of the current pass
    /// over the request stream if that comes first. Returns whether it did.
    pub fn serve_pass(
        &mut self,
        model: &XMapModel,
        deadline: Instant,
        verify: Option<Verify<'_, '_>>,
        log: &mut ServeLog,
    ) -> bool {
        self.serve(model, deadline, true, verify, log)
    }

    fn serve(
        &mut self,
        model: &XMapModel,
        deadline: Instant,
        stop_at_pass_end: bool,
        mut verify: Option<Verify<'_, '_>>,
        log: &mut ServeLog,
    ) -> bool {
        log.pass_topn = self
            .requests
            .iter()
            .filter(|r| matches!(r, Request::TopN(_)))
            .count();
        let mut now = Instant::now();
        while now < deadline {
            let request = self.requests[self.cursor % self.requests.len()];
            self.cursor += 1;
            match request {
                Request::TopN(user) => {
                    let sampled = (log.topn_us.len() as u64 + 1).is_multiple_of(CHECK_EVERY);
                    let check = match verify.as_mut() {
                        Some(verify) if sampled => {
                            let check = verify(user);
                            now = Instant::now();
                            Some(check)
                        }
                        _ => None,
                    };
                    let recs = if self.traced {
                        top_n_traced(model, user, &mut log.spans)
                    } else {
                        model.recommend(user, TOP_N)
                    };
                    let end = Instant::now();
                    if recs.iter().all(|(_, s)| s.is_finite()) {
                        log.topn_us.push(micros(end - now));
                        log.ok += 1;
                        if let Some(check) = check {
                            log.checked += 1;
                            if !check(&recs) {
                                log.mismatches += 1;
                            }
                        }
                        black_box(recs);
                    } else {
                        log.fail(format!("non-finite top-N score for {user:?}"));
                    }
                }
                Request::Predict(..) if self.topn_only => {}
                Request::Predict(user, item) => {
                    let p = model.predict(user, item);
                    if p.is_finite() {
                        log.predictions += 1;
                        log.ok += 1;
                        black_box(p);
                    } else {
                        log.fail(format!("non-finite prediction {p} for {user:?}/{item:?}"));
                    }
                }
            }
            if stop_at_pass_end && self.at_pass_end() {
                return true;
            }
            now = Instant::now();
        }
        false
    }
}

pub fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// A top-N list as `(item, score bits)`, for bit-for-bit comparison.
pub fn bits(recs: &[(ItemId, f64)]) -> Vec<(u32, u64)> {
    recs.iter().map(|&(i, s)| (i.0, s.to_bits())).collect()
}
