//! The traced run's per-layer probes. Each one times a public call into one layer
//! from the benchmark's own code and reads counts from public return values; the
//! program under test carries no instrumentation.

use std::hint::black_box;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use xmap_cf::{DomainId, RatingMatrix, UserId};
use xmap_core::recommend::{ItemBasedRecommender, PrivateItemBasedRecommender};
use xmap_core::{
    AlterEgoGenerator, ProfileRecommender, RecommendStage, ScratchPool, ServeBatch, ShardSlice,
    ShardedModel, XMapConfig, XMapMode, XMapModel, XSimTable,
};
use xmap_engine::{fn_stage, Dataflow};
use xmap_eval::json::Json;
use xmap_graph::{BridgeIndex, GraphConfig, LayerPartition, SimilarityGraph};
use xmap_privacy::PrivacyBudget;
use xmap_store::{decode_exact, encode_to_vec, Journal};

use crate::client::{bits, micros, Client, ServeLog, TOP_N};
use crate::inputs::{Request, Trace};
use crate::report::Report;
use crate::stats::{median, percentile};
use crate::workloads::{fit, persist, timed, Opts, HOT_REPLICAS, NODES, RECOVER_RECORDS};

/// Deltas each delta-driven probe applies.
const PROBE_DELTAS: usize = 6;

/// Runs every layer probe on fresh models of the workload's configuration.
pub fn probe(o: &Opts, trace: &Trace, config: XMapConfig, report: &mut Report) {
    let reps = if o.tiny { 1 } else { 3 };
    let model = fit(trace, config);
    fit_layers(trace, config, &model, reps, report);
    report.metric("engine.snapshot_ns", snapshot_ns(&model));
    delta_and_shard_layers(o, trace, config, report);
    store_layers(o, trace, config, reps, report);
    read_wait(o, trace, &model, report);
}

/// Baseliner, extender, generator and recommender, each timed through its own
/// public entry point on the workload's training matrix, and checked against the
/// artifacts of the pipeline fit.
fn fit_layers(
    trace: &Trace,
    config: XMapConfig,
    model: &XMapModel,
    reps: usize,
    report: &mut Report,
) {
    let train = &trace.split.train;
    let stats = model.stats();
    let graph_config = GraphConfig {
        metric: config.metric,
        top_k: Some(config.k),
        min_similarity: 0.0,
    };
    let (graph, times) = timed(reps, || SimilarityGraph::build(train, graph_config));
    let ms = median_ms(&times);
    report.metric("graph.build_ms", ms);
    report.metric("graph.scored_pairs", graph.n_scored_pairs() as f64);
    report.metric(
        "graph.ns_per_cost",
        ms * 1e6 / stats.baseliner_task_costs.iter().sum::<f64>(),
    );
    report.check("graph_equals_pipeline_fit", graph == *model.graph());

    let bridges = BridgeIndex::from_graph(&graph);
    let partition = LayerPartition::compute(&graph, &bridges);
    let flow = Dataflow::new(config.workers, config.partitions);
    let (xsim, times) = timed(reps, || {
        let stage = fn_stage("xsim", |(), cx| {
            XSimTable::compute_batched(&graph, &partition, DomainId::SOURCE, config.metapath, cx)
        });
        flow.run(&stage, ())
    });
    let ms = median_ms(&times);
    let cost: f64 = flow.stage_costs("xsim").unwrap_or_default().iter().sum();
    report.metric("xsim.compute_ms", ms);
    report.metric("xsim.hetero_pairs", xsim.n_heterogeneous_pairs() as f64);
    report.metric("xsim.ns_per_cost", ms * 1e6 / cost);
    report.check("xsim_equals_pipeline_fit", xsim == *model.xsim());

    let (replacements, times) = timed(reps, || {
        let stage = fn_stage("generator", |(), cx| {
            AlterEgoGenerator::compute_replacements_batched(&xsim, &config, cx)
        });
        flow.run(&stage, ())
    });
    report.metric("generator.replacements_ms", median_ms(&times));
    report.check(
        "replacements_equal_pipeline_fit",
        replacements == *model.replacements(),
    );

    let target = train
        .filter(|r| train.item_domain(r.item) == DomainId::TARGET)
        .expect("the training split has target ratings");
    let (recommender, times) = timed(reps, || fit_recommender(&target, &config));
    let ms = median_ms(&times);
    report.metric("recommend.fit_ms", ms);
    report.metric(
        "recommend.ns_per_cost",
        ms * 1e6 / stats.recommender_task_costs.iter().sum::<f64>(),
    );

    // Offline batch through the serving stage at one and two workers.
    let (_, epoch) = model.snapshot();
    let profiles: Vec<_> = trace
        .source_only_users()
        .iter()
        .map(|&u| epoch.alterego(u).profile)
        .collect();
    let reference: Vec<_> = profiles
        .iter()
        .map(|p| bits(&epoch.recommend_for_profile(p, TOP_N)))
        .collect();
    let scratch = ScratchPool::new();
    let mut per_s = [0.0; 2];
    for (slot, workers) in [1usize, 2].into_iter().enumerate() {
        let flow = Dataflow::new(workers, config.partitions);
        let stage = RecommendStage::new(recommender.as_ref(), &scratch);
        let (out, times) = timed(reps, || flow.run(&stage, ServeBatch::new(&profiles, TOP_N)));
        per_s[slot] = profiles.len() as f64 / median(&times).unwrap_or(f64::NAN);
        report.check(
            format!("serve_stage_w{workers}_equals_model"),
            out.iter().map(|r| bits(r)).eq(reference.iter().cloned()),
        );
    }
    report.metric("serve.batch_w1_per_s", per_s[0]);
    report.metric("serve.batch_w2_per_s", per_s[1]);
    report.metric("serve.parallel_efficiency", per_s[1] / (2.0 * per_s[0]));
}

fn fit_recommender(
    target: &RatingMatrix,
    config: &XMapConfig,
) -> Box<dyn ProfileRecommender + Send + Sync> {
    let target = target.clone();
    match config.mode {
        XMapMode::XMapItemBased => {
            let mut budget = PrivacyBudget::new(config.privacy.total());
            Box::new(
                PrivateItemBasedRecommender::fit(
                    target,
                    config.k,
                    config.privacy.epsilon_prime,
                    config.privacy.rho,
                    config.temporal_alpha,
                    config.seed,
                    &mut budget,
                )
                .expect("a fresh budget covers one fit"),
            )
        }
        _ => Box::new(
            ItemBasedRecommender::fit(target, config.k, config.temporal_alpha)
                .expect("the benchmark configuration is valid"),
        ),
    }
}

/// Wait-free epoch snapshot cost, ns per call.
fn snapshot_ns(model: &XMapModel) -> f64 {
    const CALLS: u32 = 200_000;
    let runs: Vec<f64> = (0..3)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..CALLS {
                black_box(model.snapshot());
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(CALLS)
        })
        .collect();
    median(&runs).unwrap_or(f64::NAN)
}

/// A store-less twin applies the delta stream (delta layer); a sharded model of the
/// same fit ingests the same deltas (shard fan-out); then routed and single-node
/// reads are timed side by side (routing overhead, ledger growth) and every slice
/// goes through the codec.
fn delta_and_shard_layers(o: &Opts, trace: &Trace, config: XMapConfig, report: &mut Report) {
    let twin = fit(trace, config);
    let mut sharded = ShardedModel::with_hot_replication(fit(trace, config), NODES, HOT_REPLICAS)
        .expect("a fitted model shards");
    let n = if o.tiny { 2 } else { PROBE_DELTAS };
    let (mut apply_ms, mut fanout_ms, mut ns_per_cost) = (Vec::new(), Vec::new(), Vec::new());
    let mut counts: [Vec<f64>; 5] = Default::default();
    for i in 0..n {
        let delta = trace.delta(i);
        let scored_before = twin.graph().n_scored_pairs() as f64;
        let t = Instant::now();
        let r = twin
            .apply_delta(&delta)
            .expect("benchmark deltas apply cleanly");
        let ms = micros(t.elapsed()) / 1e3;
        let cost: f64 = twin.delta_task_costs().unwrap_or_default().iter().sum();
        let t = Instant::now();
        let routed = sharded
            .ingest(&delta)
            .expect("routed ingest succeeds with every node alive");
        fanout_ms.push(micros(t.elapsed()) / 1e3 - ms);
        report.check("routed_ingest_epoch_matches_twin", routed.epoch == r.epoch);
        apply_ms.push(ms);
        ns_per_cost.push(ms * 1e6 / cost);
        for (slot, v) in counts.iter_mut().zip([
            r.n_dirty_items as f64,
            r.n_rescored_pairs as f64,
            r.n_rescored_pairs as f64 / scored_before,
            r.n_xsim_rows as f64,
            r.n_pool_refits as f64,
        ]) {
            slot.push(v);
        }
    }
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    report.metric("delta.apply_ms", med(&apply_ms));
    report.metric("delta.ns_per_cost", med(&ns_per_cost));
    for (name, v) in [
        "delta.dirty_items",
        "delta.rescored_pairs",
        "delta.rescored_share",
        "delta.xsim_rows",
        "delta.pool_refits",
    ]
    .into_iter()
    .zip(&counts)
    {
        report.metric(name, med(v));
    }
    report.metric("shard.fanout_ms", med(&fanout_ms));

    // Routed vs single-node reads, same users, same epoch, interleaved.
    let users: Vec<UserId> = trace
        .requests(4096)
        .into_iter()
        .filter_map(|r| match r {
            Request::TopN(u) => Some(u),
            Request::Predict(..) => None,
        })
        .collect();
    let ledger = |s: &ShardedModel| (s.route_ledger().len() + s.shard_serve_ledger().len()) as f64;
    let entries_before = ledger(&sharded);
    let (mut routed_us, mut single_us) = (Vec::new(), Vec::new());
    let mut same = true;
    let deadline = Instant::now() + Duration::from_secs_f64((o.seconds / 5.0).clamp(0.2, 2.0));
    for &u in users.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let t = Instant::now();
        let routed = sharded.recommend(u, TOP_N).expect("every node is alive");
        routed_us.push(micros(t.elapsed()));
        let t = Instant::now();
        let single = sharded.coordinator().recommend(u, TOP_N);
        single_us.push(micros(t.elapsed()));
        same &= bits(&routed) == bits(&single);
    }
    report.check("probe_routed_equals_single_node", same);
    let reads = routed_us.len() as f64;
    report.metric(
        "shard.ledger_entries_per_read",
        (ledger(&sharded) - entries_before) / reads,
    );
    let (routed_p50, single_p50) = (med(&routed_us), med(&single_us));
    report.metric("shard.route_overhead_us", routed_p50 - single_p50);
    report.meta(
        "route_probe",
        Json::obj([
            ("reads", Json::Num(reads)),
            ("routed_p50_us", Json::Num(routed_p50)),
            ("single_node_p50_us", Json::Num(single_p50)),
        ]),
    );

    // Slice codec round trips over every hosted slice.
    let (mut ns, mut bytes) = (0.0, 0usize);
    let mut round_trips = true;
    for _ in 0..if o.tiny { 1 } else { 3 } {
        for node in 0..sharded.n_nodes() {
            for shard in 0..sharded.shard_map().n_shards() as u32 {
                let Some((_, slice)) = sharded.slice(node, shard) else {
                    continue;
                };
                let t = Instant::now();
                let encoded = encode_to_vec(&*slice);
                let decoded: Result<ShardSlice, _> = decode_exact(&encoded, 0);
                ns += t.elapsed().as_secs_f64() * 1e9;
                bytes += encoded.len();
                round_trips &= decoded.is_ok_and(|d| d == *slice);
            }
        }
    }
    report.check("slice_codec_round_trips", round_trips);
    report.metric("shard.slice_codec_ns_per_byte", ns / bytes as f64);
}

/// Snapshot write, journal append, and reopen with an empty and a full journal.
fn store_layers(o: &Opts, trace: &Trace, config: XMapConfig, reps: usize, report: &mut Report) {
    let model = fit(trace, config);
    let dirs: Vec<_> = (0..reps)
        .map(|i| o.work_dir.join(format!("layer-store{i}")))
        .collect();
    let mut write_ms = Vec::new();
    for dir in &dirs {
        let t = Instant::now();
        persist(&model, dir);
        write_ms.push(micros(t.elapsed()) / 1e3);
    }
    let store = dirs.last().expect("at least one store");
    let snapshot_bytes = std::fs::metadata(store.join(xmap_core::SNAPSHOT_FILE))
        .map_or(f64::NAN, |m| m.len() as f64);
    report.metric(
        "store.snapshot_write_ms",
        median(&write_ms).unwrap_or(f64::NAN),
    );
    report.metric("store.snapshot_bytes", snapshot_bytes);

    // Open with an empty journal, in a copy so the live store stays attached.
    let empty = o.work_dir.join("layer-empty");
    copy_store(store, &empty);
    let open_ms = |dir: &Path| -> Vec<f64> {
        (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(XMapModel::open(dir).expect("a persisted store reopens"));
                micros(t.elapsed()) / 1e3
            })
            .collect()
    };
    let empty_ms = median(&open_ms(&empty)).unwrap_or(f64::NAN);
    report.metric("store.open_empty_ms", empty_ms);

    let journal_before = model.journal_len_bytes().unwrap_or(0);
    let mut ratings = 0;
    for i in 0..RECOVER_RECORDS {
        let delta = trace.delta(i);
        ratings += delta.len();
        model
            .apply_delta(&delta)
            .expect("benchmark deltas apply cleanly");
    }
    let journal_bytes = model.journal_len_bytes().unwrap_or(0) - journal_before;
    report.metric(
        "store.bytes_per_rating",
        journal_bytes as f64 / ratings as f64,
    );
    let full = o.work_dir.join("layer-full");
    copy_store(store, &full);
    let full_ms = median(&open_ms(&full)).unwrap_or(f64::NAN);
    report.metric(
        "store.replay_ms_per_record",
        (full_ms - empty_ms) / RECOVER_RECORDS as f64,
    );

    // Journal append + fsync of the same deltas to a scratch journal.
    let path = o.work_dir.join("layer-append.journal");
    let mut journal = Journal::create(&path, 1).expect("the work directory is writable");
    let appends: Vec<f64> = (0..if o.tiny { 4 } else { 24 })
        .map(|i| {
            let delta = trace.delta(i);
            let t = Instant::now();
            journal
                .append(2 + i as u64, &delta)
                .expect("the scratch journal appends");
            micros(t.elapsed())
        })
        .collect();
    report.metric("store.append_us", median(&appends).unwrap_or(f64::NAN));
}

fn copy_store(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("the work directory is writable");
    for file in [xmap_core::SNAPSHOT_FILE, xmap_core::JOURNAL_FILE] {
        std::fs::copy(from.join(file), to.join(file)).expect("store files copy");
    }
}

/// How much a busy writer delays readers: reader p99 with deltas being applied
/// minus reader p99 with the writer idle, on one model.
fn read_wait(o: &Opts, trace: &Trace, model: &XMapModel, report: &mut Report) {
    let span = Duration::from_secs_f64((o.seconds / 5.0).clamp(0.2, 1.5));
    let requests = trace.requests(1 << 14);
    let mut client = Client::new(&requests, false, true);
    let mut idle = ServeLog::default();
    client.serve_until(model, Instant::now() + span, None, &mut idle);
    let mut busy = ServeLog::default();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = s.spawn(|| {
            let mut i = 0;
            while !stop.load(Ordering::Relaxed) {
                model
                    .apply_delta(&trace.delta(i))
                    .expect("benchmark deltas apply cleanly");
                i += 1;
            }
        });
        client.serve_until(model, Instant::now() + span, None, &mut busy);
        stop.store(true, Ordering::Relaxed);
        writer.join().expect("the probe writer does not panic");
    });
    let p99 = |log: &ServeLog| percentile(&log.topn_us, 0.99);
    let (Some(idle99), Some(busy99)) = (p99(&idle), p99(&busy)) else {
        return;
    };
    report.metric("engine.read_wait_us", busy99.value - idle99.value);
    report.meta(
        "read_wait_probe",
        Json::obj([("idle_p99", idle99.json()), ("busy_p99", busy99.json())]),
    );
}

/// The median of run times in seconds, in ms.
fn median_ms(times: &[f64]) -> f64 {
    median(times).map_or(f64::NAN, |s| s * 1e3)
}

/// How the traced run's layer figures account for the end-to-end ones it was
/// built to explain.
pub fn attribute(report: &mut Report) {
    let get = |name: &str| report.get(name).unwrap_or(f64::NAN);
    let ingest_p50 = get("ingest_p50_ms");
    let apply = get("delta.apply_ms");
    let append_ms = get("store.append_us") / 1e3;
    let recover_ms = get("recover_s") * 1e3;
    let open_empty = get("store.open_empty_ms");
    let replay = get("store.replay_ms_per_record") * RECOVER_RECORDS as f64;
    let pairs = [
        (
            "ingest_p50_ms",
            Json::obj([
                ("measured", Json::Num(ingest_p50)),
                ("delta.apply_ms", Json::Num(apply)),
                ("store.append_ms", Json::Num(append_ms)),
                ("unexplained_ms", Json::Num(ingest_p50 - apply - append_ms)),
            ]),
        ),
        (
            "recover_ms",
            Json::obj([
                ("measured", Json::Num(recover_ms)),
                ("store.open_empty_ms", Json::Num(open_empty)),
                ("replay_ms", Json::Num(replay)),
                (
                    "unexplained_ms",
                    Json::Num(recover_ms - open_empty - replay),
                ),
            ]),
        ),
    ];
    report.meta("attribution", Json::obj(pairs));
}
