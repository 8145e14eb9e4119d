//! The `stream` workload: one caller in a closed loop into
//! `ServeEngine` over an on-disk store, then a reopen.
//!
//! One round: set up (generate the events, open a fresh store and
//! the engine), offer every tenant's next 16 events and tick, until the
//! stream ends; then drop the engine and reopen store and engine over
//! what it persisted. After the rounds the same stream is replayed
//! once through an in-memory engine with a different tick chunking.

use std::path::Path;
use std::time::Instant;

use sintel_serve::engine::fallback_template;
use sintel_serve::{Admission, AnomalyEvent, IngestEvent, ServeConfig, ServeEngine, TenantSpec};
use sintel_store::{Filter, SintelDb};

use crate::checks::{self, Accounting};
use crate::trace::{self, Attribution};
use crate::{procfs, stats, Opts, Outcome};

/// What the stream workload offers.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Input seed.
    pub seed: u64,
    /// Tenants, all on the serve fallback detector.
    pub tenants: usize,
    /// Events per tenant (one signal each, timestamps `0..events`).
    pub events: usize,
    /// Events per tenant offered between ticks.
    pub tick_every: usize,
}

/// Events per tenant between ticks of the in-memory replay: any chunking
/// other than the workload's must emit the same events.
const REPLAY_TICK_EVERY: usize = 7;

impl StreamSpec {
    /// 8 tenants × 4096 events, a tick every 16 events per tenant (256
    /// ticks of 128 events), window 512 and hop 64 (the engine's
    /// defaults).
    pub fn standard(seed: u64) -> Self {
        Self {
            seed,
            tenants: 8,
            events: 4096,
            tick_every: 16,
        }
    }

    fn ticks(&self) -> usize {
        self.events.div_ceil(self.tick_every)
    }

    fn specs(&self) -> Vec<TenantSpec> {
        (0..self.tenants)
            .map(|k| TenantSpec::new(&tenant(k), 5, fallback_template()))
            .collect()
    }
}

fn tenant(k: usize) -> String {
    format!("tenant-{k}")
}

/// SplitMix64: the benchmark's own generator, so the inputs do not
/// depend on the program's random number code.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The generated stream: events in offer order, and the planted spikes.
#[derive(Debug, Clone)]
pub struct StreamInput {
    /// `events[t * tenants + k]` is tenant `k`'s sample at time `t`.
    pub events: Vec<IngestEvent>,
    /// `(tenant, timestamp)` of every planted spike.
    pub spikes: Vec<(String, i64)>,
}

/// Each tenant's signal is a sine with seed-drawn level, amplitude,
/// period and phase plus uniform noise, with single-sample spikes of
/// 8 to 12 planted every 700 to 1300 samples, none in the first 600
/// (before the window has history) or the last 200 (after the last pass
/// that would see them).
pub fn generate(spec: &StreamSpec) -> StreamInput {
    let mut series = Vec::with_capacity(spec.tenants);
    let mut spikes = Vec::new();
    for k in 0..spec.tenants {
        let mut rng = Mix(spec.seed ^ (0xA076_1D64_78BD_642F_u64.wrapping_mul(k as u64 + 1)));
        let level = rng.unit() * 2.0 - 1.0;
        let amp = 1.0 + rng.unit() * 0.5;
        let period = 40.0 + rng.unit() * 60.0;
        let phase = rng.unit() * std::f64::consts::TAU;
        let noise = 0.05 + rng.unit() * 0.1;
        let mut values: Vec<f64> = (0..spec.events)
            .map(|t| {
                level
                    + amp * (std::f64::consts::TAU * t as f64 / period + phase).sin()
                    + noise * (rng.unit() * 2.0 - 1.0)
            })
            .collect();
        let mut at = 600 + (rng.unit() * 400.0) as usize;
        while at + 200 <= spec.events {
            values[at] += 8.0 + rng.unit() * 4.0;
            spikes.push((tenant(k), at as i64));
            at += 700 + (rng.unit() * 600.0) as usize;
        }
        series.push(values);
    }
    let names: Vec<String> = (0..spec.tenants).map(tenant).collect();
    let mut events = Vec::with_capacity(spec.tenants * spec.events);
    for t in 0..spec.events {
        for (k, values) in series.iter().enumerate() {
            events.push(IngestEvent::new(&names[k], "cpu", t as i64, values[t]));
        }
    }
    StreamInput { events, spikes }
}

/// Measurements of one round.
struct Round {
    setup_s: f64,
    ingest_s: f64,
    /// Offer batch plus tick, per loop iteration.
    loop_ms: Vec<f64>,
    tick_ms: Vec<f64>,
    recover_s: f64,
    written: u64,
    cpu_s: f64,
    phase_s: f64,
    compactions: u64,
    compaction_s: f64,
    checkpoint_s: f64,
    pass_s: f64,
    passes: u64,
    returned: Vec<AnomalyEvent>,
    committed: Vec<AnomalyEvent>,
    recovered_ticks: u64,
    accounting: Vec<(String, Accounting)>,
    refused: u64,
    store_bytes: u64,
    store_docs: usize,
    trace: Option<Attribution>,
}

fn checkpoint_seconds_total() -> f64 {
    sintel_obs::global()
        .snapshot()
        .histogram("sintel_serve_checkpoint_seconds")
        .map_or(0.0, |h| h.sum())
}

fn one_round(spec: &StreamSpec, dir: &Path, traced: bool) -> Result<Round, String> {
    let cfg = ServeConfig::default();
    let setup = Instant::now();
    let input = generate(spec);
    let db =
        SintelDb::open_with(dir, crate::store_options()).map_err(|e| format!("open store: {e}"))?;
    let mut engine = ServeEngine::open(db, cfg.clone(), spec.specs())
        .map_err(|e| format!("open engine: {e}"))?;
    let setup_s = setup.elapsed().as_secs_f64();

    if traced {
        sintel_obs::tracing_start();
    }
    let phase = sintel_obs::span(trace::PHASE);
    let (written0, cpu0, checkpoint0) = (
        procfs::write_chars(),
        procfs::cpu_seconds(),
        checkpoint_seconds_total(),
    );
    let mut rep_stats = (0u64, 0.0f64, 0.0f64, 0u64); // compactions, their s, pass s, passes
    let mut loop_ms = Vec::with_capacity(spec.ticks());
    let mut tick_ms = Vec::with_capacity(spec.ticks());
    let mut returned = Vec::new();
    let mut refused = 0u64;
    let started = Instant::now();
    for chunk in input.events.chunks(spec.tick_every * spec.tenants) {
        let iteration = Instant::now();
        {
            let _span = sintel_obs::span("bench.offer");
            for event in chunk {
                match engine.offer(event).map_err(|e| format!("offer: {e}"))? {
                    Admission::Accepted => {}
                    Admission::Retry { .. } | Admission::Shed => refused += 1,
                }
            }
        }
        let wal_before = engine.db().raw().wal_size();
        let t = Instant::now();
        let emitted = engine.tick().map_err(|e| format!("tick: {e}"))?;
        let latency = t.elapsed().as_secs_f64();
        tick_ms.push(latency * 1e3);
        loop_ms.push(iteration.elapsed().as_secs_f64() * 1e3);
        if engine.db().raw().wal_size() < wal_before {
            rep_stats.0 += 1;
            rep_stats.1 += latency;
        }
        if let Some(wide) = engine.last_wide_event() {
            rep_stats.2 += wide.pass_seconds;
            rep_stats.3 += wide.passes_run;
        }
        returned.extend(emitted);
    }
    let ingest_s = started.elapsed().as_secs_f64();
    let written = procfs::write_chars()
        .zip(written0)
        .map_or(0, |(a, b)| a - b);
    let checkpoint_s = checkpoint_seconds_total() - checkpoint0;
    let stats = engine.stats();
    let accounting = stats
        .tenants
        .iter()
        .map(|(name, s)| {
            let offered = spec.events as u64;
            (
                name.clone(),
                Accounting {
                    offered,
                    accepted: s.accepted,
                    retried: s.retried,
                    shed: s.shed,
                },
            )
        })
        .collect();
    drop(engine);

    let t = Instant::now();
    let db = {
        let _span = sintel_obs::span("bench.store_open");
        SintelDb::open_with(dir, crate::store_options())
            .map_err(|e| format!("reopen store: {e}"))?
    };
    let engine = {
        let _span = sintel_obs::span("bench.engine_open");
        ServeEngine::open(db, cfg, spec.specs()).map_err(|e| format!("reopen engine: {e}"))?
    };
    let recover_s = t.elapsed().as_secs_f64();
    let phase_s = phase.close().as_secs_f64();
    let cpu_s = procfs::cpu_seconds().zip(cpu0).map_or(0.0, |(a, b)| a - b);
    let trace = traced.then(|| trace::attribute(&sintel_obs::tracing_stop()));

    let committed = (0..spec.tenants)
        .flat_map(|k| engine.committed_events(&tenant(k)))
        .collect();
    let raw = engine.db().raw();
    let store_docs = raw
        .collection_names()
        .iter()
        .map(|c| raw.count(c, &Filter::All))
        .sum();
    Ok(Round {
        setup_s,
        ingest_s,
        loop_ms,
        tick_ms,
        recover_s,
        written,
        cpu_s,
        phase_s,
        compactions: rep_stats.0,
        compaction_s: rep_stats.1,
        checkpoint_s,
        pass_s: rep_stats.2,
        passes: rep_stats.3,
        returned,
        committed,
        recovered_ticks: engine.ticks(),
        accounting,
        refused,
        store_bytes: procfs::dir_bytes(dir),
        store_docs,
        trace,
    })
}

/// Offer the stream to an in-memory engine, ticking every `every`
/// events per tenant, and collect what the ticks return.
pub fn replay(
    spec: &StreamSpec,
    input: &StreamInput,
    every: usize,
) -> Result<Vec<AnomalyEvent>, String> {
    let mut engine = ServeEngine::open(SintelDb::in_memory(), ServeConfig::default(), spec.specs())
        .map_err(|e| format!("open in-memory engine: {e}"))?;
    let mut out = Vec::new();
    for chunk in input.events.chunks(every * spec.tenants) {
        for event in chunk {
            engine.offer(event).map_err(|e| format!("offer: {e}"))?;
        }
        out.extend(engine.tick().map_err(|e| format!("tick: {e}"))?);
    }
    Ok(out)
}

/// Events sorted by tenant, then emission order: tick order interleaves
/// tenants differently under different chunkings.
fn by_tenant(events: &[AnomalyEvent]) -> Vec<AnomalyEvent> {
    let mut sorted = events.to_vec();
    sorted.sort_by(|a, b| a.tenant.cmp(&b.tenant).then(a.seq.cmp(&b.seq)));
    sorted
}

/// Run the stream workload for the schedule `opts` gives.
pub fn run(spec: &StreamSpec, opts: &Opts) -> Result<Outcome, String> {
    let input = generate(spec);
    let mut first: Option<Vec<AnomalyEvent>> = None;
    let mut problems = Vec::new();
    let rounds = crate::repeat(opts, |n, dir, traced| {
        let mut round = one_round(spec, dir, traced)?;
        eprintln!(
            "round {}: setup {:.4} s, ingest {:.3} s, tick p50 {:.3} ms, recover {:.4} s, rss {:.1} MiB{}",
            n,
            round.setup_s,
            round.ingest_s,
            stats::median(&round.tick_ms).unwrap_or(0.0),
            round.recover_s,
            procfs::peak_rss_mib().unwrap_or(0.0),
            if round.trace.is_some() { ", traced" } else { "" }
        );
        let reference = first.get_or_insert_with(|| round.returned.clone());
        problems.extend(check_round(n, spec, &input, reference, &round));
        // Checked: holding every round's events would make the peak RSS
        // grow with the number of rounds.
        round.returned = Vec::new();
        round.committed = Vec::new();
        Ok(round)
    })?;
    let peak_rss_mb = procfs::peak_rss_mib().unwrap_or(0.0);
    let first = first.unwrap_or_default();
    let replayed = replay(spec, &input, REPLAY_TICK_EVERY)?;
    problems.extend(
        checks::events_equal(
            &format!(
                "in-memory replay ticking every {} events",
                REPLAY_TICK_EVERY
            ),
            &by_tenant(&first),
            &by_tenant(&replayed),
        )
        .err(),
    );
    Ok(evaluate(spec, &rounds, problems, peak_rss_mb, opts.trace))
}

/// The checks on one round's events and accounting.
fn check_round(
    n: usize,
    spec: &StreamSpec,
    input: &StreamInput,
    first_returned: &[AnomalyEvent],
    round: &Round,
) -> Vec<String> {
    let mut results = vec![
        checks::events_equal(
            &format!("round {n} committed after reopen"),
            &by_tenant(&round.returned),
            &round.committed,
        ),
        checks::spikes_covered(&input.spikes, &round.returned),
        checks::events_equal(
            &format!("round {n} against round 0"),
            first_returned,
            &round.returned,
        ),
    ];
    for (tenant, accounting) in &round.accounting {
        results.push(checks::accounting_holds(tenant, *accounting));
    }
    if round.refused > 0 {
        results.push(Err(format!("round {n}: {} offers refused", round.refused)));
    }
    if round.recovered_ticks != spec.ticks() as u64 {
        results.push(Err(format!(
            "round {n}: reopened engine at tick {}, {} ticks committed",
            round.recovered_ticks,
            spec.ticks()
        )));
    }
    results.into_iter().filter_map(Result::err).collect()
}

fn evaluate(
    spec: &StreamSpec,
    rounds: &[Round],
    problems: Vec<String>,
    peak_rss_mb: f64,
    trace_mode: bool,
) -> Outcome {
    let mut out = Outcome {
        problems,
        ..Outcome::default()
    };
    out.correct = out.problems.is_empty();

    // Operations: every tick, and the reopen; a failing one ends the run
    // with an error. A refused offer fails the accounting check.
    out.attempted = rounds.iter().map(|r| r.tick_ms.len() as u64 + 1).sum();
    let samples = (spec.tenants * spec.events) as f64;

    if !trace_mode {
        let of = |f: &dyn Fn(&Round) -> f64| -> f64 {
            stats::median(&rounds.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
        };
        out.push("setup_s", of(&|r| r.setup_s), "s");
        // Events of one loop iteration ÷ the round's median iteration
        // time. The whole loop's wall time also carries the six
        // compaction ticks a round has, whose snapshot syncs wait on
        // the disk: over ten runs it spread 0.12 to 0.27 (quartiles over
        // the median) against 0.07 to 0.09 for the median tick. The
        // compaction tail stays measured per layer
        // (`store.compaction_tick_s`, `serve.tick_p99_ms`).
        let per_iteration = (spec.tick_every * spec.tenants) as f64;
        out.push(
            "samples_per_s",
            of(&|r| per_iteration / (stats::median(&r.loop_ms).unwrap_or(f64::NAN) / 1e3)),
            "samples/s",
        );
        out.push(
            "op_p50_ms",
            of(&|r| stats::median(&r.tick_ms).unwrap_or(0.0)),
            "ms",
        );
        out.push(
            "write_bytes_per_sample",
            of(&|r| r.written as f64 / samples),
            "B",
        );
        out.push("peak_rss_mb", peak_rss_mb, "MiB");
        return out;
    }

    let traced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_some()).collect();
    let untraced: Vec<&Round> = rounds.iter().filter(|r| r.trace.is_none()).collect();
    let per_traced = |f: &dyn Fn(&Round) -> f64| -> f64 {
        stats::mean(&traced.iter().map(|r| f(r)).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    let attributions: Vec<Attribution> = traced.iter().filter_map(|r| r.trace.clone()).collect();
    let mut layers = trace::mean_layers(&attributions);
    let round_s = |rounds: &[&Round]| rounds.iter().map(|r| r.phase_s).collect::<Vec<_>>();
    trace::shared_layers(
        &mut layers,
        &attributions,
        &round_s(&traced),
        &round_s(&untraced),
    );
    // The tick's own leaf time is the checkpoint commit plus the rest of
    // the tick (drain, session encoding, wide event, self-monitor).
    let tick_self = layers.remove("serve.tick_s").unwrap_or(0.0);
    let checkpoint = per_traced(&|r| r.checkpoint_s).min(tick_self);
    let mut set = |name: &str, value: f64| {
        layers.insert(name.to_string(), value);
    };
    set("store.checkpoint_s", checkpoint);
    set("serve.tick_other_s", tick_self - checkpoint);
    set(
        "store.compactions",
        stats::mean(
            &rounds
                .iter()
                .map(|r| r.compactions as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );
    set(
        "store.compaction_tick_s",
        stats::mean(&rounds.iter().map(|r| r.compaction_s).collect::<Vec<_>>()).unwrap_or(0.0),
    );
    set(
        "store.bytes_per_tick",
        stats::mean(
            &rounds
                .iter()
                .map(|r| r.written as f64 / r.tick_ms.len().max(1) as f64)
                .collect::<Vec<_>>(),
        )
        .unwrap_or(0.0),
    );
    set(
        "store.persisted_mb",
        per_traced(&|r| r.store_bytes as f64 / (1024.0 * 1024.0)),
    );
    set("store.docs", per_traced(&|r| r.store_docs as f64));
    set("serve.pass_s", per_traced(&|r| r.pass_s));
    set("serve.passes", per_traced(&|r| r.passes as f64));
    let ticks: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.tick_ms.iter().copied())
        .collect();
    set(
        "serve.tick_p99_ms",
        stats::quantile(&ticks, 0.99).unwrap_or(0.0),
    );
    set("common.cpu_s", per_traced(&|r| r.cpu_s));
    trace::push_per_layer(&mut out, &layers, &attributions);
    out
}
