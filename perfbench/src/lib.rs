//! End-to-end and per-layer benchmark of the Sintel sweep and serve
//! paths.
//!
//! Three workloads drive the program through its public API:
//!
//! * `sweep_deep` — `benchmark_report_with_db` over the four deep
//!   pipelines on two short NASA signals (the `nn` crate does the work);
//! * `sweep_stat` — `arima` and `azure_anomaly_detection` over the full
//!   three-dataset corpus with a knowledge base attached
//!   (`stats` and `timeseries` primitives, the runner's per-cell cost);
//! * `stream` — a closed loop from one caller into `ServeEngine` with an
//!   on-disk store, followed by a reopen of store and engine.
//!
//! Every workload repeats whole rounds of the same operations for the
//! requested time and reports medians over those rounds. With
//! `--trace 1` the rounds alternate between traced and untraced,
//! and the captured spans are split into per-layer wall time (see
//! [`trace`]). The outputs are checked against computations made here,
//! apart from the program (see [`checks`]).

pub mod checks;
pub mod procfs;
pub mod report;
pub mod stats;
pub mod stream;
pub mod sweep;
pub mod trace;

use std::path::{Path, PathBuf};

pub use report::Outcome;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["sweep_deep", "sweep_stat", "stream"];

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measuring time in seconds.
    pub seconds: f64,
    /// Capture spans and report per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Directory for the run's stores (created, and removed at the end).
    pub work_dir: PathBuf,
}

impl Opts {
    /// Parse `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err("--seconds must be positive".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!(
                "unknown workload {workload}; expected one of {WORKLOADS:?}"
            ));
        }
        Ok(Self {
            work_dir: default_work_dir(&workload),
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// `.perfbench_work/<workload>-<pid>` under the current directory: the
/// benchmark reads and writes only inside the checkout it runs from.
fn default_work_dir(workload: &str) -> PathBuf {
    Path::new(".perfbench_work").join(format!("{workload}-{}", std::process::id()))
}

/// Options of every store the workloads open: on disk, at `wal`
/// durability. Each commit goes through the WAL encode and append, and
/// compaction still syncs its snapshots, but commits are not `fsync`ed
/// one by one: on a shared virtual disk, per-commit `fsync` latency
/// measures the disk, and it moved the stream throughput median by a
/// third between two sets of ten runs.
pub(crate) fn store_options() -> sintel_store::StoreOptions {
    sintel_store::StoreOptions {
        durability: sintel_store::Durability::Wal,
        ..sintel_store::StoreOptions::default()
    }
}

/// Run the workload the options name.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    // Warnings (ARIMA retries, preflight notes) would otherwise land on
    // stderr and in the bytes-written measurement.
    sintel_obs::set_level(Some(sintel_obs::Level::Error));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let result = match opts.workload.as_str() {
        "sweep_deep" => sweep::run(&sweep::SweepSpec::deep(opts.seed), opts),
        "sweep_stat" => sweep::run(&sweep::SweepSpec::stat(), opts),
        "stream" => stream::run(&stream::StreamSpec::standard(opts.seed), opts),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    if let Some(parent) = opts.work_dir.parent() {
        // Removes the shared parent only once no other run uses it.
        let _ = std::fs::remove_dir(parent);
    }
    result
}

/// Run whole rounds until `opts.seconds` have passed: at least three,
/// or four when traced. Traced runs alternate traced and untraced
/// rounds, starting with a traced one, and end on an untraced one.
/// Each round gets its own store directory, removed after it.
fn repeat<R>(
    opts: &Opts,
    mut round: impl FnMut(usize, &Path, bool) -> Result<R, String>,
) -> Result<Vec<R>, String> {
    let min_rounds = if opts.trace { 4 } else { 3 };
    let started = std::time::Instant::now();
    let mut rounds = Vec::new();
    loop {
        let n = rounds.len();
        let unpaired = opts.trace && !n.is_multiple_of(2);
        if n >= min_rounds && !unpaired && started.elapsed().as_secs_f64() >= opts.seconds {
            return Ok(rounds);
        }
        let dir = opts.work_dir.join(format!("round-{n}"));
        let result = round(n, &dir, opts.trace && n.is_multiple_of(2));
        let _ = std::fs::remove_dir_all(&dir);
        rounds.push(result?);
    }
}
