//! The metric catalogue and the two output lines of a run.
//!
//! The second-to-last stdout line is the full report (run metadata, sample counts,
//! checks, simulated-model figures and the metrics); the last line is the compact
//! result: `correct`, `attempted`, `failed` and the metrics of the run's mode.

use std::collections::BTreeMap;
use std::path::Path;

use xmap_eval::json::Json;

/// Version of the report layout below.
pub const SCHEMA: &str = "xmap-perf/1";

/// End-to-end metrics, reported by untraced runs: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("topn_p50_us", "us"),
    ("topn_p99_us", "us"),
    ("topn_per_s", "req/s"),
    ("batch_profiles_per_s", "profiles/s"),
    ("ingest_p50_ms", "ms"),
    ("ingest_p95_ms", "ms"),
    ("ingest_ratings_per_s", "ratings/s"),
    ("recover_s", "s"),
    ("mae", "rating"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by traced runs: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("graph.build_ms", "ms"),
    ("graph.scored_pairs", "count"),
    ("graph.ns_per_cost", "ns/cost"),
    ("xsim.compute_ms", "ms"),
    ("xsim.hetero_pairs", "count"),
    ("xsim.ns_per_cost", "ns/cost"),
    ("generator.replacements_ms", "ms"),
    ("generator.alterego_us", "us"),
    ("recommend.fit_ms", "ms"),
    ("recommend.score_us", "us"),
    ("recommend.ns_per_cost", "ns/cost"),
    ("serve.batch_w1_per_s", "profiles/s"),
    ("serve.batch_w2_per_s", "profiles/s"),
    ("serve.parallel_efficiency", "ratio"),
    ("engine.snapshot_ns", "ns"),
    ("engine.read_wait_us", "us"),
    ("delta.apply_ms", "ms"),
    ("delta.dirty_items", "count"),
    ("delta.rescored_pairs", "count"),
    ("delta.rescored_share", "ratio"),
    ("delta.xsim_rows", "count"),
    ("delta.pool_refits", "count"),
    ("delta.ns_per_cost", "ns/cost"),
    ("store.append_us", "us"),
    ("store.snapshot_write_ms", "ms"),
    ("store.snapshot_bytes", "bytes"),
    ("store.open_empty_ms", "ms"),
    ("store.replay_ms_per_record", "ms"),
    ("store.bytes_per_rating", "bytes"),
    ("shard.route_overhead_us", "us"),
    ("shard.ledger_entries_per_read", "count"),
    ("shard.fanout_ms", "ms"),
    ("shard.slice_codec_ns_per_byte", "ns/B"),
    ("trace.overhead_pct", "%"),
];

/// Everything one run measured and checked.
#[derive(Default)]
pub struct Report {
    metrics: BTreeMap<&'static str, f64>,
    /// Free-form run metadata, in insertion order.
    meta: Vec<(&'static str, Json)>,
    /// Output checks: `(name, passed)`.
    checks: Vec<(String, bool)>,
    /// Peak resident memory (MiB) as each phase of the run ended.
    peak_by_phase: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// Records a metric of the catalogue. Panics on a name outside it: a typo must
    /// not silently drop a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    pub fn meta(&mut self, key: &'static str, value: Json) {
        self.meta.push((key, value));
    }

    /// Notes the peak resident memory so far, at the end of a phase.
    pub fn phase_done(&mut self, phase: &'static str) {
        if let Some(mib) = peak_rss_mib() {
            self.peak_by_phase.push((phase, mib));
        }
    }

    /// Records `peak_rss_mb`, the peak resident memory so far. Called when the last
    /// measured phase ends, before checks that allocate memory of their own.
    pub fn measured_phases_done(&mut self) {
        if let Some(mib) = peak_rss_mib() {
            self.metric("peak_rss_mb", mib);
        }
    }

    /// Records an output check; a failed one makes the run incorrect.
    pub fn check(&mut self, name: impl Into<String>, passed: bool) {
        self.checks.push((name.into(), passed));
    }

    /// Every check passed, and the run did something to check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Counts operations of the run: `ok` succeeded, `err` failed.
    pub fn ops(&mut self, ok: u64, err: u64) {
        self.attempted += ok + err;
        self.failed += err;
    }

    /// The metrics of one catalogue, as `{name: {value, unit}}`; missing ones are
    /// reported as `null` so the gap is visible.
    fn metrics_json(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        Json::Obj(
            catalogue
                .iter()
                .map(|&(name, unit)| {
                    let value = self.get(name).map_or(Json::Null, Json::Num);
                    (
                        name.to_string(),
                        Json::obj([("value", value), ("unit", Json::str(unit))]),
                    )
                })
                .collect(),
        )
    }

    /// The names of a catalogue this report has no finite value for.
    pub fn missing(&self, catalogue: &[(&'static str, &'static str)]) -> Vec<&'static str> {
        catalogue
            .iter()
            .filter(|(name, _)| !self.get(name).is_some_and(f64::is_finite))
            .map(|&(name, _)| name)
            .collect()
    }

    /// The full report line.
    pub fn full_json(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        let mut pairs: Vec<(String, Json)> = vec![("schema".into(), Json::str(SCHEMA))];
        pairs.extend(self.meta.iter().map(|(k, v)| (k.to_string(), v.clone())));
        let error_ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        pairs.push((
            "peak_rss_mb_by_phase".into(),
            Json::Obj(
                self.peak_by_phase
                    .iter()
                    .map(|&(phase, mib)| (phase.to_string(), Json::Num(mib)))
                    .collect(),
            ),
        ));
        pairs.push(("attempted".into(), Json::Num(self.attempted as f64)));
        pairs.push(("failed".into(), Json::Num(self.failed as f64)));
        pairs.push(("error_ratio".into(), Json::Num(error_ratio)));
        pairs.push((
            "checks".into(),
            Json::Obj(
                self.checks
                    .iter()
                    .map(|(k, ok)| (k.clone(), Json::Bool(*ok)))
                    .collect(),
            ),
        ));
        pairs.push(("metrics".into(), self.metrics_json(catalogue)));
        Json::Obj(pairs)
    }

    /// The result line.
    pub fn result_json(&self, catalogue: &[(&'static str, &'static str)]) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json(catalogue)),
        ])
    }
}

/// The unit of a catalogue metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the platform has it.
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The checked-out git revision, read from `.git` in the working directory without
/// running git; `"unknown"` outside a git checkout.
pub fn git_revision() -> String {
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let git = Path::new(".git");
    match read(&git.join("HEAD")) {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(reference) => read(&git.join(reference))
                .or_else(|| packed_ref(&git.join("packed-refs"), reference))
                .unwrap_or_else(|| "unknown".into()),
            None => head,
        },
        None => "unknown".into(),
    }
}

fn packed_ref(path: &Path, reference: &str) -> Option<String> {
    let packed = std::fs::read_to_string(path).ok()?;
    packed.lines().find_map(|l| {
        let (hash, name) = l.split_once(' ')?;
        (name == reference).then(|| hash.to_string())
    })
}

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}
