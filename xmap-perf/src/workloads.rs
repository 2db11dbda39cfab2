//! The two workloads. Each one sets the model up several times (reporting the
//! median set-up time), checks its outputs, ingests a delta stream into a durable
//! store, and runs a closed-loop client for the measured window, with offline-batch
//! repetitions and crash-image reopens between its passes.
//!
//! Every timing is the fastest of several blocks of the same work spread over the
//! run: on a shared host, interference from other tenants only ever slows a block
//! down, and it comes in stretches of seconds, so the fastest block is the one
//! that estimates the program's own cost.

use std::collections::HashMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use xmap_cf::{DomainId, RatingMatrix, UserId};
use xmap_core::{ModelEpoch, XMapConfig, XMapMode, XMapModel, JOURNAL_FILE, SNAPSHOT_FILE};
use xmap_engine::{ClusterCostModel, ClusterSim};
use xmap_eval::json::Json;

use crate::client::{bits, micros, Check, Client, ServeLog, TopN, TOP_N};
use crate::inputs::{Request, Shape, Trace, DELTA_PERIOD, DELTA_RATINGS};
use crate::layers;
use crate::report::Report;
use crate::stats::{fastest, fastest_block_percentile, fastest_block_rate, median, percentile};

/// Deltas serve-hetero ingests, half before its window and half after: four
/// periods of the delta stream, so that `ingest_p50_ms` is the fastest of four
/// blocks of the same mix, spread over the run.
const TAIL_DELTAS: usize = 4 * DELTA_PERIOD;

/// Journaled deltas in the crash image `recover_s` reopens.
pub const RECOVER_RECORDS: usize = 4;

/// Target duration of one offline-batch repetition, seconds.
const BATCH_REP_S: f64 = 0.1;

/// Held-out pairs predicted a second time for the `mae` repeat check.
const MAE_REPEAT: usize = 256;

/// Share of the ingest-durable window in which the reader runs without the writer.
const READER_ALONE: f64 = 0.5;

/// Users whose top-N answers are compared bit for bit across checks.
const PROBES: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ServeHetero,
    IngestDurable,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::ServeHetero, Workload::IngestDurable];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHetero => "serve-hetero",
            Workload::IngestDurable => "ingest-durable",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::ServeHetero => Shape::SERVE,
            Workload::IngestDurable => Shape::INGEST,
        }
    }

    /// Requests in one pass of the client's stream, which it cycles. Each pass
    /// holds at least the 1,000 top-N reads a supported p99 needs and takes a
    /// quarter to one second: 1,344 requests of ~1 ms on the private model, 16,384
    /// of tens of µs on the others.
    fn pass_len(self) -> usize {
        match self {
            Workload::ServeHetero => 1344,
            Workload::IngestDurable => 16_384,
        }
    }

    /// serve-hetero runs X-MAP-IB at the paper's operating point on two workers;
    /// the other two run NX-MAP-IB on one.
    pub fn config(self) -> XMapConfig {
        let (mode, workers) = match self {
            Workload::ServeHetero => (XMapMode::XMapItemBased, 2),
            Workload::IngestDurable => (XMapMode::NxMapItemBased, 1),
        };
        XMapConfig {
            mode,
            k: 20,
            workers,
            partitions: 16,
            ..XMapConfig::default()
        }
    }
}

/// How to run a workload.
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Shrink the trace and the repetition counts (the benchmark's own tests).
    pub tiny: bool,
    /// Scratch directory for model stores; created and removed by the caller.
    pub work_dir: PathBuf,
}

impl Opts {
    fn shape(&self) -> Shape {
        if self.tiny {
            Shape::TINY
        } else {
            self.workload.shape()
        }
    }

    /// Requests in one pass of the client's stream; 256 in tiny runs, so that
    /// their short windows complete passes.
    fn pass_len(&self) -> usize {
        if self.tiny {
            256
        } else {
            self.workload.pass_len()
        }
    }

    /// Runs of a workload's set-up: 5, or 2 in tiny runs.
    fn setups(&self) -> usize {
        if self.tiny {
            2
        } else {
            5
        }
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.work_dir.join(name)
    }
}

/// Generates the workload's trace and runs it, filling `report`.
pub fn run(o: &Opts, report: &mut Report) {
    let trace = Trace::generate(o.shape(), o.seed);
    let train = &trace.split.train;
    report.meta(
        "trace_shape",
        Json::obj([
            ("ratings", Json::Num(train.n_ratings() as f64)),
            ("users", Json::Num(train.n_users() as f64)),
            ("items", Json::Num(train.n_items() as f64)),
            ("held_out", Json::Num(trace.split.test.len() as f64)),
            ("popularity_skew", Json::Num(crate::inputs::POPULARITY_SKEW)),
        ]),
    );
    let config = o.workload.config();
    report.meta("model", Json::str(config.mode.label()));
    match o.workload {
        Workload::ServeHetero => serve_hetero(o, &trace, report),
        Workload::IngestDurable => ingest_durable(o, &trace, report),
    }
    if o.traced {
        layers::probe(o, &trace, config, report);
        layers::attribute(report);
    }
}

// ---------------------------------------------------------------------------
// serve-hetero
// ---------------------------------------------------------------------------

fn serve_hetero(o: &Opts, trace: &Trace, report: &mut Report) {
    let config = o.workload.config();
    let first = trace.source_only_users()[0];
    let (model, setups) = timed(o.setups(), || {
        let model = fit(trace, config);
        black_box(model.recommend(first, TOP_N));
        model
    });
    report.metric("setup_s", median(&setups).unwrap_or(f64::NAN));
    simulated_fit(&model, report);

    record_mae(trace, &model, report);
    report.phase_done("setup");

    // Attach a store and ingest half of a short delta stream, so that a crash
    // image of the store can be reopened between passes of the window; the other
    // half follows the window.
    let store = o.dir("store");
    persist(&model, &store);
    let mut ingested = Ingested::new();
    ingest_sequentially(trace, &model, TAIL_DELTAS / 2, &mut ingested);
    let mut image = CrashImage::cut(o, &store, &ingested);
    report.phase_done("ingest");

    let users = trace.source_only_users();
    let mut batch = Batch::new(users.len(), || model.recommend_batch(users, TOP_N));
    check_batch_single_node(trace, &model, &batch, report);
    // The window's sampled reads must give the answers the offline batch stage
    // gave before the window.
    let reference: HashMap<UserId, Vec<(u32, u64)>> = users
        .iter()
        .zip(&batch.first)
        .map(|(&u, recs)| (u, bits(recs)))
        .collect();
    let requests = trace.requests(o.pass_len());
    let mut log = ServeLog::default();
    let deadline = Instant::now() + Duration::from_secs_f64(o.seconds);
    let mut verify = |user: UserId| -> Check<'_> {
        let want = reference.get(&user);
        Box::new(move |recs| want.is_some_and(|w| *w == bits(recs)))
    };
    serve_window(
        &mut Client::new(&requests, o.traced, false),
        &model,
        users,
        deadline,
        &mut verify,
        &mut log,
        &mut batch,
        &mut image,
    );
    report.phase_done("window");
    ingest_sequentially(trace, &model, TAIL_DELTAS / 2, &mut ingested);
    report.phase_done("ingest_after_window");
    record_serving(&log, report, "window");
    record_batch(&batch, report);
    record_ingest(&ingested, report);
    match image {
        Some(image) => image.record(trace, &ingested, report),
        None => report.check("crash_image_has_its_records", false),
    }
    report.measured_phases_done();
    if o.traced {
        report.metric("trace.overhead_pct", tracing_overhead(&model, &requests, o));
    }
    let refit = RefitCheck::capture(trace, &model);
    drop(model);
    refit.run(report);
}

// ---------------------------------------------------------------------------
// ingest-durable
// ---------------------------------------------------------------------------

fn ingest_durable(o: &Opts, trace: &Trace, report: &mut Report) {
    let config = o.workload.config();
    let first = trace.source_only_users()[0];
    let mut rep = 0;
    let (model, setups) = timed(o.setups(), || {
        rep += 1;
        let model = fit(trace, config);
        persist(&model, &o.dir(&format!("store{rep}")));
        black_box(model.recommend(first, TOP_N));
        model
    });
    let store = o.dir(&format!("store{rep}"));
    for other in 1..rep {
        let _ = std::fs::remove_dir_all(o.dir(&format!("store{other}")));
    }
    report.metric("setup_s", median(&setups).unwrap_or(f64::NAN));
    simulated_fit(&model, report);
    record_mae(trace, &model, report);
    report.phase_done("setup");

    // The writer runs in the first and the last quarter of the window, with the
    // reader beside it (the ingest metrics; the reader's latencies go to the
    // report). In the middle half the reader runs alone on the ingested model (the
    // top-N metrics), with an offline-batch repetition after each pass and a
    // crash-image reopen after every other one. The tail of reads beside a busy
    // writer moves by a third between seeds on a 2-core host, too much for a
    // bounded metric; engine.read_wait_us in the traced run measures it per layer.
    // Sampled reads are checked against the epoch that answered them.
    let users = trace.source_only_users();
    let mut batch = Batch::new(users.len(), || model.recommend_batch(users, TOP_N));
    check_batch_single_node(trace, &model, &batch, report);
    let requests = trace.requests(o.pass_len());
    let mut verify = |user: UserId| pinned_check(&model, user);
    let start = Instant::now();
    let at = |share: f64| start + Duration::from_secs_f64(o.seconds * share);
    let writer_share = (1.0 - READER_ALONE) / 2.0;
    let mut ingested = Ingested::new();
    let mut beside = ServeLog::default();
    let mut reader = Client::new(&requests, o.traced, true);
    write_beside_reader(
        trace,
        &model,
        &mut reader,
        &mut verify,
        at(writer_share),
        &mut ingested,
        &mut beside,
    );
    let mut image = CrashImage::cut(o, &store, &ingested);
    let mut alone = ServeLog::default();
    serve_window(
        &mut Client::new(&requests, o.traced, true),
        &model,
        users,
        at(writer_share + READER_ALONE),
        &mut verify,
        &mut alone,
        &mut batch,
        &mut image,
    );
    write_beside_reader(
        trace,
        &model,
        &mut reader,
        &mut verify,
        at(1.0),
        &mut ingested,
        &mut beside,
    );
    report.phase_done("window");
    record_serving(&alone, report, "reader");
    record_batch(&batch, report);
    record_traffic(
        &beside,
        report,
        "reader_beside_writer",
        "serving_beside_writer",
    );
    record_ingest(&ingested, report);
    match image {
        Some(image) => image.record(trace, &ingested, report),
        None => report.check("crash_image_has_its_records", false),
    }
    if o.traced {
        report.metric("trace.overhead_pct", tracing_overhead(&model, &requests, o));
    }

    // Crash: drop the model without compaction, reopen the whole journal.
    let acked = &ingested.acked;
    let last_epoch = acked.last().map_or(1, |a| a.epoch);
    report.check(
        "acknowledged_epochs_contiguous",
        acked
            .iter()
            .enumerate()
            .all(|(i, a)| a.epoch == 2 + i as u64),
    );
    let probes = trace.probe_users(PROBES);
    let expect = probe_bits(&model.snapshot().1, &probes);
    let refit = RefitCheck::capture(trace, &model);
    drop(model);
    let t = Instant::now();
    match XMapModel::open(&store) {
        Ok(reopened) => {
            let secs = t.elapsed().as_secs_f64();
            report.meta(
                "recover_full_journal",
                Json::obj([
                    ("seconds", Json::Num(secs)),
                    ("records", Json::Num(acked.len() as f64)),
                ]),
            );
            report.check(
                "reopen_epoch_is_last_acknowledged",
                reopened.epoch() == last_epoch,
            );
            report.check(
                "reopen_probe_top_n_bits",
                probe_bits(&reopened.snapshot().1, &probes) == expect,
            );
            report.ops(1, 0);
        }
        Err(e) => {
            report.check(format!("reopen_full_journal: {e}"), false);
            report.ops(0, 1);
        }
    }
    report.phase_done("reopen");
    report.measured_phases_done();
    refit.run(report);
}

/// Simulated nodes and the hot-shard replica count of the sharded deployment the
/// traced run's shard probes build.
pub const NODES: usize = 4;
pub const HOT_REPLICAS: u32 = 3;

// ---------------------------------------------------------------------------
// Shared phases
// ---------------------------------------------------------------------------

pub fn fit(trace: &Trace, config: XMapConfig) -> XMapModel {
    XMapModel::fit(
        &trace.split.train,
        DomainId::SOURCE,
        DomainId::TARGET,
        config,
    )
    .expect("benchmark traces hold both domains")
}

pub fn persist(model: &XMapModel, dir: &Path) {
    model.persist(dir).expect("the work directory is writable");
}

/// Runs `once` `reps` times (at least once), timing each run; each result is
/// dropped before the next run starts. Returns the last result and every run's
/// time in seconds.
pub fn timed<T>(reps: usize, mut once: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(black_box(once()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("a phase runs at least once"), times)
}

/// Mean absolute error over the first `limit` held-out target ratings, with the
/// bits of every prediction.
fn held_out_mae(
    trace: &Trace,
    model: &XMapModel,
    limit: usize,
    report: &mut Report,
) -> (f64, Vec<u64>) {
    let (mut sum, mut predictions, mut failed) = (0.0, Vec::new(), 0u64);
    for r in trace.split.test.iter().take(limit) {
        let p = model.predict(r.user, r.item);
        if p.is_finite() {
            sum += (p - r.value).abs();
            predictions.push(p.to_bits());
        } else {
            failed += 1;
        }
    }
    report.ops(predictions.len() as u64, failed);
    (sum / predictions.len() as f64, predictions)
}

/// `mae` over every held-out pair, with the check that a second pass over a
/// prefix of them repeats the first pass bit for bit.
fn record_mae(trace: &Trace, model: &XMapModel, report: &mut Report) {
    let (mae, bits) = held_out_mae(trace, model, usize::MAX, report);
    let (_, again) = held_out_mae(trace, model, MAE_REPEAT, report);
    report.check("mae_repeats_exactly", bits.starts_with(&again));
    report.metric("mae", mae);
}

/// The top-N metrics: the p99 of the fastest pass over the request stream, and
/// the p50 and read rate of the fastest quarter pass. A p99 needs a whole pass
/// for its 1,000 samples; the median and the rate are taken over shorter blocks,
/// which catch more of the host's quiet moments (users are uniform draws, so the
/// medians of quarter passes differ only by sampling noise).
fn record_serving(log: &ServeLog, report: &mut Report, who: &str) {
    let (pass, quarter) = (log.pass_topn, log.pass_topn / 4);
    let fastest =
        |q, block| fastest_block_percentile(&log.topn_us, q, block).map_or(f64::NAN, |(v, _)| v);
    report.metric("topn_p50_us", fastest(0.5, quarter));
    report.metric("topn_p99_us", fastest(0.99, pass));
    report.metric(
        "topn_per_s",
        fastest_block_rate(&log.topn_us, quarter, 1e-6),
    );
    if !log.spans.alterego_us.is_empty() {
        report.metric(
            "generator.alterego_us",
            median(&log.spans.alterego_us).unwrap_or(f64::NAN),
        );
        report.metric(
            "recommend.score_us",
            median(&log.spans.score_us).unwrap_or(f64::NAN),
        );
    }
    record_traffic(log, report, who, "serving");
}

/// Counts a stretch of traffic's operations and checks, and reports its latency
/// distribution under `key`.
fn record_traffic(log: &ServeLog, report: &mut Report, who: &str, key: &'static str) {
    report.ops(log.ok, log.failed);
    if log.checked > 0 {
        report.check(format!("{who}_sampled_top_n_bits"), log.mismatches == 0);
    }
    let mut pairs = vec![
        ("topn_reads", Json::Num(log.topn_us.len() as f64)),
        ("topn_reads_per_pass", Json::Num(log.pass_topn as f64)),
        ("predictions", Json::Num(log.predictions as f64)),
        ("sampled_checks", Json::Num(log.checked as f64)),
    ];
    pairs.extend(percentile(&log.topn_us, 0.5).map(|p| ("topn_p50_whole_window", p.json())));
    pairs.extend(percentile(&log.topn_us, 0.99).map(|p| ("topn_p99_whole_window", p.json())));
    for (key, q, block) in [
        ("topn_p50_fastest_quarter_pass", 0.5, log.pass_topn / 4),
        ("topn_p99_fastest_pass", 0.99, log.pass_topn),
    ] {
        pairs.extend(fastest_block_json(&log.topn_us, q, block).map(|j| (key, j)));
    }
    let quantiles: Vec<Json> = [0.1, 0.25, 0.75, 0.9, 0.95, 0.98, 0.995, 0.999]
        .into_iter()
        .filter_map(|q| percentile(&log.topn_us, q))
        .map(|p| Json::Num(p.value))
        .collect();
    pairs.push((
        "topn_p10_p25_p75_p90_p95_p98_p995_p999_us",
        Json::Arr(quantiles),
    ));
    if let Some(e) = &log.first_error {
        pairs.push(("first_error", Json::str(e.clone())));
    }
    report.meta(key, Json::obj(pairs));
}

/// One acknowledged delta.
pub struct Acked {
    pub epoch: u64,
    pub journal_offset: Option<u64>,
    pub ms: f64,
}

impl Acked {
    fn new(start: Instant, epoch: u64, journal_offset: Option<u64>) -> Acked {
        Acked {
            epoch,
            journal_offset,
            ms: micros(start.elapsed()) / 1e3,
        }
    }
}

/// The fastest block's percentile as a report entry, with the block count.
fn fastest_block_json(samples: &[f64], q: f64, block: usize) -> Option<Json> {
    fastest_block_percentile(samples, q, block).map(|(v, blocks)| {
        Json::obj([
            ("value", Json::Num(v)),
            ("blocks", Json::Num(blocks as f64)),
        ])
    })
}

/// The ingest metrics, with the deltas' operation counts and first error.
fn record_ingest(ingested: &Ingested, report: &mut Report) {
    report.ops(ingested.acked.len() as u64, ingested.failed);
    if let Some(e) = &ingested.first_error {
        report.check(format!("ingest: {e}"), false);
    }
    let ms: Vec<f64> = ingested.acked.iter().map(|a| a.ms).collect();
    let p50 = percentile(&ms, 0.5);
    let p95 = percentile(&ms, 0.95);
    report.metric(
        "ingest_p50_ms",
        fastest_block_percentile(&ms, 0.5, DELTA_PERIOD).map_or(f64::NAN, |(v, _)| v),
    );
    report.metric("ingest_p95_ms", p95.map_or(f64::NAN, |p| p.value));
    report.metric(
        "ingest_ratings_per_s",
        DELTA_RATINGS as f64 * fastest_block_rate(&ms, DELTA_PERIOD, 1e-3),
    );
    let mut pairs = vec![
        ("deltas", Json::Num(ms.len() as f64)),
        ("ratings_per_delta", Json::Num(DELTA_RATINGS as f64)),
    ];
    pairs.extend(p50.map(|p| ("ingest_p50_whole_window", p.json())));
    pairs.extend(
        fastest_block_json(&ms, 0.5, DELTA_PERIOD).map(|j| ("ingest_p50_fastest_period", j)),
    );
    pairs.extend(p95.map(|p| ("ingest_p95", p.json())));
    report.meta("ingest", Json::obj(pairs));
}

/// The deltas a durable model acknowledged, and its epoch right after the last
/// record of the crash image.
pub struct Ingested {
    pub acked: Vec<Acked>,
    pub failed: u64,
    pub first_error: Option<String>,
    at_image: Option<Arc<ModelEpoch>>,
    /// Index of the next delta of the stream.
    next: usize,
}

impl Ingested {
    fn new() -> Ingested {
        Ingested {
            acked: Vec::new(),
            failed: 0,
            first_error: None,
            at_image: None,
            next: 0,
        }
    }

    /// Applies the next delta of the stream, recording its acknowledgement.
    fn apply(&mut self, trace: &Trace, model: &XMapModel) -> Result<(), String> {
        let delta = trace.delta(self.next);
        self.next += 1;
        let t = Instant::now();
        let r = model.apply_delta(&delta).map_err(|e| e.to_string())?;
        self.acked.push(Acked::new(t, r.epoch, r.journal_offset));
        if self.acked.len() == RECOVER_RECORDS {
            // The only writer: the current epoch is the one this delta published.
            self.at_image = Some(model.snapshot().1);
        }
        Ok(())
    }
}

/// Applies deltas back to back until `deadline`, and at least until the crash
/// image has its records (or deltas keep failing).
fn ingest_until(trace: &Trace, model: &XMapModel, deadline: Instant, ingested: &mut Ingested) {
    loop {
        let enough =
            ingested.acked.len() > RECOVER_RECORDS || ingested.failed > RECOVER_RECORDS as u64;
        if Instant::now() >= deadline && enough {
            break;
        }
        if let Err(e) = ingested.apply(trace, model) {
            ingested.failed += 1;
            ingested.first_error.get_or_insert(e);
        }
    }
}

/// Runs the writer ([`ingest_until`]) on its own thread until `deadline`, with the
/// reader sending requests beside it.
fn write_beside_reader<'a>(
    trace: &Trace,
    model: &XMapModel,
    reader: &mut Client<'_>,
    verify: &mut dyn FnMut(UserId) -> Check<'a>,
    deadline: Instant,
    ingested: &mut Ingested,
    log: &mut ServeLog,
) {
    std::thread::scope(|s| {
        let writer = s.spawn(|| ingest_until(trace, model, deadline, ingested));
        reader.serve_until(model, deadline, Some(verify), log);
        writer
            .join()
            .expect("the ingest writer thread does not panic");
    });
}

/// Applies the next `n` deltas one after another.
fn ingest_sequentially(trace: &Trace, model: &XMapModel, n: usize, ingested: &mut Ingested) {
    for _ in 0..n {
        if let Err(e) = ingested.apply(trace, model) {
            ingested.failed += 1;
            ingested.first_error.get_or_insert(e);
        }
    }
}

/// Checks a sampled read against the epoch that answered it: the one pinned just
/// before the read or, when a delta published meanwhile, the one current just
/// after it. A torn publish would match neither.
fn pinned_check(model: &XMapModel, user: UserId) -> Check<'_> {
    let (pinned_no, pinned) = model.snapshot();
    Box::new(move |recs| {
        let answered_by = |epoch: &ModelEpoch| bits(&epoch.recommend(user, TOP_N)) == bits(recs);
        answered_by(&pinned) || {
            let (now_no, now) = model.snapshot();
            now_no != pinned_no && answered_by(&now)
        }
    })
}

fn probe_bits(epoch: &ModelEpoch, probes: &[UserId]) -> Vec<Vec<(u32, u64)>> {
    probes
        .iter()
        .map(|&u| bits(&epoch.recommend(u, TOP_N)))
        .collect()
}

/// A copy of a store cut after its first [`RECOVER_RECORDS`] journaled deltas,
/// with the times and outcome of reopening it.
struct CrashImage {
    dir: PathBuf,
    times: Vec<f64>,
    errors: Vec<String>,
    last: Option<XMapModel>,
}

impl CrashImage {
    /// Writes the image, or `None` if the store holds too few records.
    fn cut(o: &Opts, store: &Path, ingested: &Ingested) -> Option<CrashImage> {
        let cut = ingested
            .acked
            .get(RECOVER_RECORDS)
            .and_then(|a| a.journal_offset)?;
        ingested.at_image.as_ref()?;
        let dir = o.dir("crash-image");
        std::fs::create_dir_all(&dir).expect("the work directory is writable");
        std::fs::copy(store.join(SNAPSHOT_FILE), dir.join(SNAPSHOT_FILE))
            .expect("the snapshot copies");
        let journal = std::fs::read(store.join(JOURNAL_FILE)).expect("the journal is readable");
        std::fs::write(dir.join(JOURNAL_FILE), &journal[..cut as usize])
            .expect("the image journal writes");
        Some(CrashImage {
            dir,
            times: Vec::new(),
            errors: Vec::new(),
            last: None,
        })
    }

    /// Reopens the image once, timed. A clean prefix of the journal is reopened as
    /// it is, so every reopen starts from the same bytes.
    fn reopen(&mut self) {
        drop(self.last.take());
        let t = Instant::now();
        let model = XMapModel::open(&self.dir);
        self.times.push(t.elapsed().as_secs_f64());
        match model {
            Ok(model) => self.last = Some(model),
            Err(e) => self.errors.push(e.to_string()),
        }
    }

    /// `recover_s` is the fastest reopen; the last reopened model is checked.
    fn record(self, trace: &Trace, ingested: &Ingested, report: &mut Report) {
        let opens = self.times.len();
        report.ops((opens - self.errors.len()) as u64, self.errors.len() as u64);
        if let Some(e) = self.errors.first() {
            report.check(format!("crash_image_reopen: {e}"), false);
        }
        if let (Some(model), Some(live)) = (&self.last, &ingested.at_image) {
            let probes = trace.probe_users(PROBES);
            report.check(
                "crash_image_epoch_is_last_acknowledged",
                model.epoch() == ingested.acked[RECOVER_RECORDS - 1].epoch,
            );
            report.check(
                "crash_image_probe_top_n_bits",
                probe_bits(&model.snapshot().1, &probes) == probe_bits(live, &probes),
            );
        }
        report.metric("recover_s", fastest(&self.times));
        report.meta("recover_opens", Json::Num(opens as f64));
        report.meta("recover_image_records", Json::Num(RECOVER_RECORDS as f64));
    }
}

/// Checks the offline batch's first output against per-request answers from the
/// same epoch.
fn check_batch_single_node(trace: &Trace, model: &XMapModel, batch: &Batch, report: &mut Report) {
    let (_, epoch) = model.snapshot();
    let reference = trace
        .source_only_users()
        .iter()
        .map(|&u| bits(&epoch.recommend(u, TOP_N)));
    report.check(
        "batch_equals_per_request",
        batch.first.iter().map(|r| bits(r)).eq(reference),
    );
}

/// The offline batch as a repeatable measurement: each repetition runs the batch
/// often enough to last about [`BATCH_REP_S`], and `batch_profiles_per_s` is the
/// rate of the fastest repetition.
struct Batch {
    profiles: usize,
    inner: usize,
    rates: Vec<f64>,
    /// The output of the first run, which also sized the repetitions.
    first: Vec<TopN>,
}

impl Batch {
    fn new(profiles: usize, run: impl FnOnce() -> Vec<TopN>) -> Batch {
        let t = Instant::now();
        let first = run();
        let inner = (BATCH_REP_S / t.elapsed().as_secs_f64()).ceil().max(1.0) as usize;
        Batch {
            profiles,
            inner,
            rates: Vec::new(),
            first,
        }
    }

    fn rep<T>(&mut self, mut run: impl FnMut() -> T) {
        let t = Instant::now();
        for _ in 0..self.inner {
            black_box(run());
        }
        let secs = t.elapsed().as_secs_f64();
        self.rates.push((self.inner * self.profiles) as f64 / secs);
    }
}

/// Serves the request stream pass by pass until `deadline`. After each completed
/// pass it runs one offline-batch repetition over `users`, and after every other
/// pass one reopen of the crash image, so that the repetitions of all three spread
/// over the window.
#[allow(clippy::too_many_arguments)]
fn serve_window<'a>(
    client: &mut Client<'_>,
    model: &XMapModel,
    users: &[UserId],
    deadline: Instant,
    verify: &mut dyn FnMut(UserId) -> Check<'a>,
    log: &mut ServeLog,
    batch: &mut Batch,
    image: &mut Option<CrashImage>,
) {
    let mut passes = 0;
    while Instant::now() < deadline {
        if client.serve_pass(model, deadline, Some(&mut *verify), log) {
            batch.rep(|| model.recommend_batch(users, TOP_N));
            if let Some(image) = image.as_mut().filter(|_| passes % 2 == 1) {
                image.reopen();
            }
            passes += 1;
        }
    }
}

fn record_batch(batch: &Batch, report: &mut Report) {
    let best = batch.rates.iter().copied().max_by(f64::total_cmp);
    report.metric("batch_profiles_per_s", best.unwrap_or(f64::NAN));
    report.ops(batch.profiles as u64, 0);
    report.meta(
        "batch",
        Json::obj([
            ("profiles", Json::Num(batch.profiles as f64)),
            ("repetitions", Json::Num(batch.rates.len() as f64)),
            ("runs_per_repetition", Json::Num(batch.inner as f64)),
        ]),
    );
}

/// The delta contract: an ingested model answers like a full refit of its matrix.
/// The refit runs after the measured phases, so its memory stays out of
/// `peak_rss_mb`; until then only the ingested matrix and the answers are kept.
struct RefitCheck {
    matrix: Arc<RatingMatrix>,
    config: XMapConfig,
    probes: Vec<UserId>,
    answers: Vec<Vec<(u32, u64)>>,
}

impl RefitCheck {
    fn capture(trace: &Trace, model: &XMapModel) -> RefitCheck {
        let (_, epoch) = model.snapshot();
        let probes = trace.probe_users(PROBES);
        RefitCheck {
            matrix: model.matrix(),
            config: *model.config(),
            answers: probe_bits(&epoch, &probes),
            probes,
        }
    }

    fn run(self, report: &mut Report) {
        let refit = XMapModel::fit(
            &self.matrix,
            DomainId::SOURCE,
            DomainId::TARGET,
            self.config,
        )
        .expect("an ingested matrix refits");
        report.check(
            "answers_equal_full_refit",
            probe_bits(&refit.snapshot().1, &self.probes) == self.answers,
        );
    }
}

/// Mean top-N latency with spans on, relative to spans off, in alternating blocks
/// on the same model, as a percentage.
fn tracing_overhead(model: &XMapModel, requests: &[Request], o: &Opts) -> f64 {
    let block = Duration::from_secs_f64((o.seconds / 20.0).clamp(0.05, 0.5));
    let (mut plain, mut traced) = (ServeLog::default(), ServeLog::default());
    let mut client = Client::new(requests, false, true);
    for _ in 0..4 {
        for (log, spans) in [(&mut plain, false), (&mut traced, true)] {
            client.traced = spans;
            client.serve_until(model, Instant::now() + block, None, log);
        }
    }
    (plain.topn_per_s() / traced.topn_per_s() - 1.0) * 100.0
}

/// The fit's task bags replayed on the cluster cost model (a model, not a
/// measurement).
fn simulated_fit(model: &XMapModel, report: &mut Report) {
    let sim = ClusterSim::new(model.fit_task_costs(), ClusterCostModel::xmap_like());
    report.meta(
        "simulated_fit",
        Json::obj([
            ("kind", Json::str("cost-model output, not a measurement")),
            ("speedup_8_machines", Json::Num(sim.speedup(8, 1))),
            ("tasks", Json::Num(sim.n_tasks() as f64)),
        ]),
    );
}
