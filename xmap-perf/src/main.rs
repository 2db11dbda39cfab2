//! `xmap-perf` — the lifecycle benchmark of the X-Map reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path xmap-perf/Cargo.toml -- \
//!     --workload <serve-hetero|ingest-durable> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Runs one workload on inputs generated from the seed, checks the outputs, and
//! prints two JSON lines: the full report (run metadata, sample counts, checks),
//! then the result (`correct`, `attempted`, `failed`, `metrics`). With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer ones. See
//! `README.md` in this directory.

mod client;
mod inputs;
mod layers;
mod report;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use xmap_eval::json::Json;

use report::{Report, END_TO_END, PER_LAYER};
use workloads::{Opts, Workload};

/// Scratch stores live here, relative to the working directory.
const WORK_ROOT: &str = ".xmap-perf-work";

fn main() -> ExitCode {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("xmap-perf: {e}");
            eprintln!(
                "usage: xmap-perf --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Workload::ALL.map(Workload::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    let catalogue = if opts.traced { PER_LAYER } else { END_TO_END };
    println!("{}", report.full_json(catalogue).render());
    println!("{}", report.result_json(catalogue).render());
    let missing = report.missing(catalogue);
    if !missing.is_empty() {
        eprintln!("xmap-perf: no value for {}", missing.join(", "));
    }
    if report.correct() && missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a fresh scratch directory, removed afterwards.
fn run(opts: &Opts) -> Report {
    let _cleanup = WorkDir(opts.work_dir.clone());
    std::fs::create_dir_all(&opts.work_dir).expect("the working directory is writable");
    let mut report = Report::default();
    report.meta("workload", Json::str(opts.workload.name()));
    report.meta("seed", Json::str(opts.seed.to_string()));
    report.meta("seconds", Json::Num(opts.seconds));
    report.meta("trace", Json::Bool(opts.traced));
    report.meta("git_revision", Json::str(report::git_revision()));
    report.meta("host_cores", Json::Num(report::host_cores() as f64));
    workloads::run(opts, &mut report);
    report
}

/// Removes the scratch directory when the run ends, also on a panic.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty root behind either; fails harmlessly while other runs use it.
        let _ = std::fs::remove_dir(WORK_ROOT);
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("expected an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("expected 0 < seconds <= 3600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    Ok(Opts {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
        tiny: false,
        work_dir: PathBuf::from(WORK_ROOT).join(format!(
            "{}-{}",
            workload.name(),
            std::process::id()
        )),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use report::unit_of;

    fn tiny(workload: Workload, traced: bool) -> Report {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(WORK_ROOT)
            .join(format!("test-{}-{traced}", workload.name()));
        let opts = Opts {
            workload,
            seed: 3,
            seconds: 0.4,
            traced,
            tiny: true,
            work_dir: dir,
        };
        run(&opts)
    }

    /// The result line carries every metric of the run's catalogue, by name, with a
    /// finite value and its unit, and the run's checks pass.
    fn assert_complete(report: &Report, catalogue: &[(&'static str, &'static str)]) {
        assert!(report.correct(), "{}", report.full_json(catalogue).render());
        assert_eq!(report.failed, 0);
        assert!(
            report.missing(catalogue).is_empty(),
            "missing {:?}",
            report.missing(catalogue)
        );
        let result = Json::parse(&report.result_json(catalogue).render()).unwrap();
        let metrics = result.get("metrics").unwrap();
        for &(name, unit) in catalogue {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} not emitted"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
            assert!(m
                .get("value")
                .and_then(Json::as_f64)
                .is_some_and(f64::is_finite));
        }
    }

    #[test]
    fn tiny_untraced_runs_emit_every_end_to_end_metric() {
        for w in Workload::ALL {
            assert_complete(&tiny(w, false), END_TO_END);
        }
    }

    #[test]
    fn tiny_traced_runs_emit_every_per_layer_metric() {
        for w in Workload::ALL {
            assert_complete(&tiny(w, true), PER_LAYER);
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let spec = Json::parse(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), owned(END_TO_END));
        assert_eq!(listed("per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
        for m in spec.get("end_to_end").and_then(Json::as_array).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END.iter().all(|(n, _)| unit_of(n).is_some()));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o =
            parse(args("--workload ingest-durable --seed 7 --seconds 10 --trace 1").into_iter())
                .unwrap();
        assert_eq!(
            (o.workload, o.seed, o.seconds, o.traced),
            (Workload::IngestDurable, 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload serve-hetero --seconds 1",
            "--workload serve-hetero --seed 1 --seconds 0",
            "--workload serve-hetero --seed 1 --seconds 1 --trace 2",
            "--workload serve-hetero --seed 1 --seconds",
        ] {
            assert!(parse(args(bad).into_iter()).is_err(), "{bad}");
        }
    }
}
