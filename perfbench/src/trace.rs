//! Per-layer attribution of a captured span trace.
//!
//! The benchmark opens its own spans (named `bench.*`) around every
//! call it makes into the program, and captures the program's existing
//! `sintel_obs` spans with them. [`attribute`] splits the wall time of
//! the traced phase across layers:
//!
//! 1. **Tree repair.** Spans record their parent only on the thread
//!    that opened them. `serve.pass` spans open on pool workers and
//!    arrive as roots; each is given the `serve.tick` that contains it.
//!    The pipeline spans of a pass open on its watchdog thread and also
//!    arrive as roots ("detached"). Which pass one belongs to cannot be
//!    read from the trace, and does not matter for the attribution:
//!    each pass runs its pipeline calls one after another, so every open
//!    detached call stands for one waiting pass. At each instant, that
//!    many of the open passes stop being leaves.
//! 2. **Containers.** `benchmark.row` spans stay open for the whole
//!    sweep while their cells run on workers; they are brackets, not
//!    work, so their children count as children of `benchmark.run`.
//! 3. **Sweep line.** At every instant of the phase, the open spans
//!    with no open child are the leaves: the innermost work of each
//!    busy thread. The instant's wall time is split evenly among them.
//!    A span's share is therefore its self time in wall-clock terms,
//!    and the shares of all spans add up to the phase's wall time.
//!
//! Shares of the benchmark's own `bench.phase` span (the load
//! generator between calls) and of spans no layer claims form the
//! unattributed remainder. Work a thread does outside any span (the
//! sweep's scoring on pool workers, a retry's backoff sleep) is charged
//! to whatever spans are open on other threads at that instant.

use std::collections::{BTreeMap, HashMap};

use sintel_obs::{EventKind, FieldValue, TraceEvent};

use crate::stats::median;
use crate::Outcome;

/// The benchmark's root span around one traced round.
pub const PHASE: &str = "bench.phase";

/// Per-layer metric names and units, in print order. The first block
/// (through `trace.unattributed_s`) partitions the traced wall time.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.runner_s", "s"),
    ("pipeline.overhead_s", "s"),
    ("pipeline.glue_s", "s"),
    ("timeseries.primitive_s", "s"),
    ("stats.arima_s", "s"),
    ("stats.spectral_s", "s"),
    ("stats.threshold_s", "s"),
    ("primitives.errors_s", "s"),
    ("primitives.other_s", "s"),
    ("nn.fit_s", "s"),
    ("nn.produce_s", "s"),
    ("store.persist_s", "s"),
    ("store.open_s", "s"),
    ("store.checkpoint_s", "s"),
    ("serve.offer_s", "s"),
    ("serve.tick_other_s", "s"),
    ("serve.engine_open_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("nn.lstm_regressor.fit_s", "s"),
    ("nn.lstm_autoencoder.fit_s", "s"),
    ("nn.dense_autoencoder.fit_s", "s"),
    ("nn.tadgan.fit_s", "s"),
    ("datasets.generate_s", "s"),
    ("core.sweep_s", "s"),
    ("core.par_busy", "ratio"),
    ("core.retries", "count"),
    ("pipeline.produce_calls_per_cell", "count"),
    ("metrics.score_s", "s"),
    ("store.compactions", "count"),
    ("store.compaction_tick_s", "s"),
    ("store.bytes_per_tick", "B"),
    ("store.persisted_mb", "MiB"),
    ("store.docs", "count"),
    ("serve.pass_s", "s"),
    ("serve.passes", "count"),
    ("serve.tick_p99_ms", "ms"),
    ("common.cpu_s", "s"),
];

/// The per-layer names whose values partition `trace.wall_s`.
fn partition_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER
        .iter()
        .map(|(name, _)| *name)
        .take_while(|name| *name != "trace.wall_s")
}

/// Deep-model primitives (the `nn` crate).
const NN_PRIMITIVES: &[&str] = &[
    "lstm_regressor",
    "lstm_autoencoder",
    "dense_autoencoder",
    "tadgan",
];

/// The layer a leaf share of `span` counts toward; `None` leaves it in
/// the unattributed remainder.
fn layer_of(span: &Span) -> Option<&'static str> {
    Some(match span.name.as_str() {
        "bench.sweep" | "benchmark.run" | "benchmark.row" => "core.runner_s",
        "benchmark.trial" | "serve.pass" => "pipeline.overhead_s",
        "pipeline.fit" | "pipeline.produce" | "pipeline.update" => "pipeline.glue_s",
        "primitive.fit" | "primitive.produce" | "primitive.update" => {
            let primitive = span.primitive.as_deref().unwrap_or("");
            let fit = span.name == "primitive.fit";
            match primitive {
                "time_segments_aggregate"
                | "SimpleImputer"
                | "MinMaxScaler"
                | "rolling_window_sequences" => "timeseries.primitive_s",
                "arima" => "stats.arima_s",
                "azure_anomaly_service" => "stats.spectral_s",
                "find_anomalies" | "fixed_threshold" => "stats.threshold_s",
                "regression_errors" | "reconstruction_errors" => "primitives.errors_s",
                p if NN_PRIMITIVES.contains(&p) => {
                    if fit {
                        "nn.fit_s"
                    } else {
                        "nn.produce_s"
                    }
                }
                _ => "primitives.other_s",
            }
        }
        "bench.persist" => "store.persist_s",
        "bench.store_open" => "store.open_s",
        "bench.engine_open" => "serve.engine_open_s",
        "bench.offer" => "serve.offer_s",
        // Split into store.checkpoint_s and serve.tick_other_s by the
        // caller, which knows the commit time.
        "serve.tick" => "serve.tick_s",
        _ => return None,
    })
}

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    /// Span id.
    id: u64,
    /// Parent id after tree repair.
    parent: Option<u64>,
    /// Span name.
    name: String,
    /// `primitive` field of primitive spans.
    primitive: Option<String>,
    /// Open time (ns since the trace anchor).
    start: u64,
    /// Close time.
    end: u64,
}

impl Span {
    fn duration(&self) -> f64 {
        (self.end - self.start) as f64 * 1e-9
    }

    fn contains(&self, other: &Span) -> bool {
        self.start <= other.start && other.end <= self.end
    }
}

/// What one traced phase breaks down into.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Wall time of the `bench.phase` spans (seconds).
    pub wall: f64,
    /// Leaf-share seconds per layer (see [`layer_of`]); everything else
    /// is `wall - sum`.
    pub layers: BTreeMap<&'static str, f64>,
    /// Leaf-share seconds of each deep model's `primitive.fit`.
    pub nn_fit: BTreeMap<String, f64>,
    /// Summed durations of the work units (`benchmark.trial` or
    /// `serve.pass`).
    pub unit_busy: f64,
    /// Summed execute windows: first to last trial of each
    /// `benchmark.run`, or the `serve.tick` spans.
    pub unit_window: f64,
    /// Number of work units.
    pub units: u64,
    /// `primitive.produce` plus `primitive.update` spans.
    pub produce_calls: u64,
    /// Root spans that tree repair could not place, plus instants with
    /// more detached pipeline calls open than passes waiting for them.
    pub unplaced: u64,
}

impl Attribution {
    /// Seconds attributed to layers.
    pub fn attributed(&self) -> f64 {
        self.layers.values().sum()
    }
}

/// Closed spans of a trace, with the tree repaired (see module docs).
fn spans(events: &[TraceEvent]) -> Vec<Span> {
    let mut open: HashMap<u64, &TraceEvent> = HashMap::new();
    let mut spans = Vec::new();
    for event in events {
        match event.kind {
            EventKind::Open => {
                open.insert(event.id, event);
            }
            EventKind::Close => {
                let Some(opened) = open.remove(&event.id) else {
                    continue;
                };
                let primitive = opened
                    .fields
                    .iter()
                    .find_map(|(k, v)| match (k.as_str(), v) {
                        ("primitive", FieldValue::Str(s)) => Some(s.clone()),
                        _ => None,
                    });
                spans.push(Span {
                    id: event.id,
                    parent: opened.parent,
                    name: opened.name.clone(),
                    primitive,
                    start: opened.ts_ns,
                    end: opened.ts_ns.max(event.ts_ns),
                });
            }
        }
    }
    spans.sort_by_key(|s| (s.start, s.id));
    repair(&mut spans);
    spans
}

/// Give thread-local roots the parent they ran under (module docs, 1).
fn repair(spans: &mut [Span]) {
    let known: std::collections::HashSet<u64> = spans.iter().map(|s| s.id).collect();
    for span in spans.iter_mut() {
        if span.parent.is_some_and(|p| !known.contains(&p)) {
            span.parent = None;
        }
    }
    let ticks: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].name == "serve.tick")
        .collect();
    for i in 0..spans.len() {
        if spans[i].parent.is_some() || spans[i].name != "serve.pass" {
            continue;
        }
        let host = ticks
            .iter()
            .rev()
            .find(|&&t| spans[t].contains(&spans[i]))
            .copied();
        spans[i].parent = host.map(|t| spans[t].id);
    }
}

/// Split the traced phase's wall time across layers (module docs, 3).
pub fn attribute(events: &[TraceEvent]) -> Attribution {
    let spans = spans(events);
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let container = |i: usize| spans[i].name == "benchmark.row";
    // Effective parent: skip containers.
    let eparent: Vec<Option<usize>> = (0..spans.len())
        .map(|i| {
            let mut p = spans[i].parent.and_then(|id| index.get(&id).copied());
            while let Some(q) = p.filter(|&q| container(q)) {
                p = spans[q].parent.and_then(|id| index.get(&id).copied());
            }
            p
        })
        .collect();
    let depth: Vec<usize> = (0..spans.len())
        .map(|i| {
            let (mut d, mut p) = (0, eparent[i]);
            while let Some(q) = p {
                d += 1;
                p = eparent[q];
            }
            d
        })
        .collect();

    // Boundaries: closes before opens at equal times; parents open
    // before their children and close after them.
    let mut bounds: Vec<(u64, u8, i64, usize)> = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| !container(*i)) {
        bounds.push((s.start, 1, depth[i] as i64, i));
        bounds.push((s.end, 0, -(depth[i] as i64), i));
    }
    bounds.sort_unstable();

    let mut out = Attribution::default();
    let mut share = vec![0.0f64; spans.len()];
    let mut is_open = vec![false; spans.len()];
    let mut open_children = vec![0u32; spans.len()];
    let mut leaves: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
    let is_pass: Vec<bool> = spans.iter().map(|s| s.name == "serve.pass").collect();
    let is_detached: Vec<bool> = spans
        .iter()
        .map(|s| s.parent.is_none() && s.name.starts_with("pipeline."))
        .collect();
    let mut detached_open = 0usize;
    let mut last_ts: Option<u64> = None;
    for &(ts, kind, _, i) in &bounds {
        if let Some(prev) = last_ts.filter(|&prev| ts > prev) {
            // Each open detached pipeline call stands for one waiting
            // pass: that many pass leaves are not leaves.
            let passes = leaves.iter().filter(|&&l| is_pass[l]).count();
            let waiting = detached_open.min(passes);
            if detached_open > passes {
                out.unplaced += 1;
            }
            let n = leaves.len() - waiting;
            if n > 0 {
                let unit = (ts - prev) as f64 * 1e-9 / n as f64;
                let pass_unit = unit * (passes - waiting) as f64 / passes.max(1) as f64;
                for &leaf in &leaves {
                    share[leaf] += if is_pass[leaf] { pass_unit } else { unit };
                }
            }
        }
        last_ts = Some(ts);
        if is_detached[i] {
            detached_open = if kind == 1 {
                detached_open + 1
            } else {
                detached_open - 1
            };
        }
        if kind == 1 {
            is_open[i] = true;
            if let Some(p) = eparent[i] {
                if open_children[p] == 0 {
                    leaves.remove(&p);
                }
                open_children[p] += 1;
            }
            if open_children[i] == 0 {
                leaves.insert(i);
            }
        } else {
            is_open[i] = false;
            leaves.remove(&i);
            if let Some(p) = eparent[i] {
                open_children[p] = open_children[p].saturating_sub(1);
                if open_children[p] == 0 && is_open[p] {
                    leaves.insert(p);
                }
            }
        }
    }

    let mut runs: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        match s.name.as_str() {
            PHASE => out.wall += s.duration(),
            "benchmark.trial" | "serve.pass" => {
                out.units += 1;
                out.unit_busy += s.duration();
            }
            "serve.tick" => out.unit_window += s.duration(),
            "primitive.produce" | "primitive.update" => out.produce_calls += 1,
            _ => {}
        }
        if s.name == "benchmark.trial" {
            // The trial's row (a container) hangs off its run.
            let run = s
                .parent
                .and_then(|row| index.get(&row))
                .and_then(|&r| spans[r].parent);
            if let Some(run) = run {
                let window = runs.entry(run).or_insert((s.start, s.end));
                window.0 = window.0.min(s.start);
                window.1 = window.1.max(s.end);
            }
        }
        if s.parent.is_none() && s.name != PHASE && !is_detached[i] {
            out.unplaced += 1;
        }
        if let Some(layer) = layer_of(s) {
            *out.layers.entry(layer).or_default() += share[i];
        }
        if s.name == "primitive.fit" {
            if let Some(p) = s.primitive.as_deref().filter(|p| NN_PRIMITIVES.contains(p)) {
                *out.nn_fit.entry(p.to_string()).or_default() += share[i];
            }
        }
    }
    out.unit_window += runs
        .values()
        .map(|(a, b)| (b - a) as f64 * 1e-9)
        .sum::<f64>();
    out
}

/// Per-round means over the traced rounds: every layer
/// share, each deep model's fit share, the phase wall time, the
/// unattributed remainder and the coverage.
pub fn mean_layers(attributions: &[Attribution]) -> BTreeMap<String, f64> {
    let n = attributions.len().max(1) as f64;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for a in attributions {
        for (layer, v) in &a.layers {
            *m.entry(layer.to_string()).or_default() += v / n;
        }
        for (model, v) in &a.nn_fit {
            *m.entry(format!("nn.{model}.fit_s")).or_default() += v / n;
        }
        *m.entry("trace.wall_s".into()).or_default() += a.wall / n;
        *m.entry("trace.unattributed_s".into()).or_default() += (a.wall - a.attributed()) / n;
    }
    let wall = m.get("trace.wall_s").copied().unwrap_or(0.0);
    let rest = m.get("trace.unattributed_s").copied().unwrap_or(0.0);
    m.insert(
        "trace.coverage".into(),
        if wall > 0.0 {
            (wall - rest) / wall
        } else {
            0.0
        },
    );
    m
}

/// The per-layer figures every workload derives the same way: tracing
/// overhead from the median traced and untraced round times, pool
/// utilisation and primitive calls per work unit from the traced rounds.
pub fn shared_layers(
    layers: &mut BTreeMap<String, f64>,
    attributions: &[Attribution],
    traced_round_s: &[f64],
    untraced_round_s: &[f64],
) {
    if let (Some(t), Some(u)) = (median(traced_round_s), median(untraced_round_s)) {
        layers.insert("obs.trace_overhead".into(), t / u);
    }
    let threads = sintel_common::configured_threads() as f64;
    let busy: f64 = attributions.iter().map(|a| a.unit_busy).sum();
    let window: f64 = attributions.iter().map(|a| a.unit_window).sum();
    let units: u64 = attributions.iter().map(|a| a.units).sum();
    let produce: u64 = attributions.iter().map(|a| a.produce_calls).sum();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    layers.insert("core.par_busy".into(), ratio(busy, window * threads));
    layers.insert(
        "pipeline.produce_calls_per_cell".into(),
        ratio(produce as f64, units as f64),
    );
}

/// Push every [`PER_LAYER`] metric (0 for a layer the workload leaves
/// idle), and check that the partition adds up to the traced wall time
/// and that tree repair placed every span.
pub fn push_per_layer(
    out: &mut Outcome,
    layers: &BTreeMap<String, f64>,
    attributions: &[Attribution],
) {
    for (name, unit) in PER_LAYER {
        out.push(name, layers.get(*name).copied().unwrap_or(0.0), unit);
    }
    let parts: f64 = partition_names()
        .map(|n| layers.get(n).copied().unwrap_or(0.0))
        .sum();
    let wall = layers.get("trace.wall_s").copied().unwrap_or(0.0);
    if wall <= 0.0 || (parts - wall).abs() > 1e-6 * wall {
        out.problems.push(format!(
            "per-layer times add up to {parts} s, traced wall is {wall} s"
        ));
    }
    let unplaced: u64 = attributions.iter().map(|a| a.unplaced).sum();
    if unplaced > 0 {
        out.problems.push(format!(
            "{unplaced} traced spans or instants could not be placed in the span tree"
        ));
    }
    out.correct &= out.problems.is_empty();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(
        id: u64,
        parent: Option<u64>,
        name: &str,
        ts: u64,
        primitive: Option<&str>,
    ) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Open,
            id,
            parent,
            name: name.to_string(),
            ts_ns: ts,
            duration_ns: None,
            fields: primitive
                .map(|p| vec![("primitive".to_string(), FieldValue::from(p))])
                .unwrap_or_default(),
        }
    }

    fn close(id: u64, name: &str, ts: u64) -> TraceEvent {
        TraceEvent {
            kind: EventKind::Close,
            id,
            parent: None,
            name: name.to_string(),
            ts_ns: ts,
            duration_ns: None,
            fields: Vec::new(),
        }
    }

    const S: u64 = 1_000_000_000;

    #[test]
    fn parallel_leaves_split_wall_time_and_rows_are_brackets() {
        // phase [0,10]; run [1,9]; two rows [1,9]; trial A [2,6] with an
        // arima produce [3,5]; trial B [2,8] on another thread.
        let events = vec![
            open(1, None, PHASE, 0, None),
            open(2, Some(1), "benchmark.run", S, None),
            open(3, Some(2), "benchmark.row", S, None),
            open(4, Some(2), "benchmark.row", S, None),
            open(5, Some(3), "benchmark.trial", 2 * S, None),
            open(6, Some(4), "benchmark.trial", 2 * S, None),
            open(7, Some(5), "primitive.produce", 3 * S, Some("arima")),
            close(7, "primitive.produce", 5 * S),
            close(5, "benchmark.trial", 6 * S),
            close(6, "benchmark.trial", 8 * S),
            close(3, "benchmark.row", 9 * S),
            close(4, "benchmark.row", 9 * S),
            close(2, "benchmark.run", 9 * S),
            close(1, PHASE, 10 * S),
        ];
        let a = attribute(&events);
        assert!((a.wall - 10.0).abs() < 1e-9);
        // arima: [3,5] shared with trial B -> 1 s.
        assert!((a.layers["stats.arima_s"] - 1.0).abs() < 1e-9);
        // trials: A alone [2,3]+[5,6] halves = 1; B halves [2,6] = 2, alone [6,8] = 2.
        assert!((a.layers["pipeline.overhead_s"] - 5.0).abs() < 1e-9);
        // run is a leaf on [1,2] and [8,9] only: the open rows do not hide it.
        assert!((a.layers["core.runner_s"] - 2.0).abs() < 1e-9);
        // The phase's own leaf time [0,1] + [9,10] is the remainder.
        assert!((a.wall - a.attributed() - 2.0).abs() < 1e-9);
        assert_eq!(a.units, 2);
        assert!((a.unit_busy - 10.0).abs() < 1e-9);
        assert!((a.unit_window - 6.0).abs() < 1e-9);
        assert_eq!(a.unplaced, 0);
    }

    #[test]
    fn detached_pipeline_calls_stand_for_waiting_passes() {
        // tick [1,9]; passes P1 [2,8] and P2 [2,5] open as roots on pool
        // workers; their pipeline calls open as roots on watchdog threads.
        let events = vec![
            open(1, None, PHASE, 0, None),
            open(2, Some(1), "serve.tick", S, None),
            open(3, None, "serve.pass", 2 * S, None),
            open(4, None, "serve.pass", 2 * S, None),
            open(5, None, "pipeline.fit", 3 * S, None),
            open(6, None, "pipeline.fit", 3 * S, None),
            close(5, "pipeline.fit", 4 * S),
            close(6, "pipeline.fit", 4 * S),
            close(4, "serve.pass", 5 * S),
            open(7, None, "pipeline.update", 5 * S, None),
            close(7, "pipeline.update", 7 * S),
            close(3, "serve.pass", 8 * S),
            close(2, "serve.tick", 9 * S),
            close(1, PHASE, 10 * S),
        ];
        let spans = spans(&events);
        let parent = |id: u64| spans.iter().find(|s| s.id == id).and_then(|s| s.parent);
        assert_eq!(parent(3), Some(2));
        assert_eq!(parent(4), Some(2));
        let a = attribute(&events);
        assert_eq!(a.unplaced, 0);
        // The tick is never a leaf while a pass runs: only [1,2] and [8,9].
        assert!((a.layers["serve.tick_s"] - 2.0).abs() < 1e-9);
        // Passes are leaves only while no pipeline call runs for them:
        // [2,3] and [4,5] shared by two, [7,8] alone.
        assert!((a.layers["pipeline.overhead_s"] - 3.0).abs() < 1e-9);
        // The fits share [3,4]; the update has [5,7] to itself.
        assert!((a.layers["pipeline.glue_s"] - 3.0).abs() < 1e-9);
        assert!((a.wall - a.attributed() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_detached_calls_than_passes_is_reported() {
        let events = vec![
            open(1, None, PHASE, 0, None),
            open(2, None, "pipeline.fit", S, None),
            close(2, "pipeline.fit", 2 * S),
            close(1, PHASE, 3 * S),
        ];
        assert!(attribute(&events).unplaced > 0);
    }
}
