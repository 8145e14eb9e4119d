//! The benchmark's own test: every workload at a small size with all
//! checks on, in both modes, and every check refusing a corrupted copy
//! of a real output.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`
//! (the deep models are slow in a debug build).

use std::path::PathBuf;

use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_perfbench::checks::{self, Accounting};
use sintel_perfbench::stream::{self, StreamSpec};
use sintel_perfbench::sweep::{self, SweepSpec};
use sintel_perfbench::{trace, Opts, Outcome};

fn opts(name: &str, trace: bool) -> Opts {
    let work_dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!(
        "perfbench-{name}-{}-{}",
        trace as u8,
        std::process::id()
    ));
    std::fs::create_dir_all(&work_dir).expect("create work dir");
    Opts {
        workload: name.to_string(),
        seed: 7,
        seconds: 0.001,
        trace,
        work_dir,
    }
}

fn small_deep() -> SweepSpec {
    SweepSpec {
        data: DatasetConfig {
            seed: 7,
            signal_scale: 0.0125,
            length_scale: 0.01,
        },
        ..SweepSpec::deep(7)
    }
}

fn small_stat() -> SweepSpec {
    SweepSpec {
        datasets: vec![DatasetId::Nab, DatasetId::Nasa],
        data: DatasetConfig {
            seed: 42,
            signal_scale: 0.05,
            length_scale: 0.05,
        },
        ..SweepSpec::stat()
    }
}

fn small_stream() -> StreamSpec {
    StreamSpec {
        tenants: 2,
        events: 1400,
        ..StreamSpec::standard(7)
    }
}

fn assert_clean(what: &str, outcome: &Outcome, names: &[&str]) {
    assert!(outcome.correct, "{what}: {:?}", outcome.problems);
    assert!(outcome.attempted > 0, "{what}: nothing attempted");
    let printed: Vec<&str> = outcome.metrics.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(printed, names, "{what}: metric set");
    assert!(
        outcome.metrics.iter().all(|m| m.value.is_finite()),
        "{what}: {:?}",
        outcome.metrics
    );
    let line = outcome.to_json();
    assert!(line.starts_with("{\"correct\": true"), "{what}: {line}");
}

const END_TO_END: &[&str] = &[
    "setup_s",
    "samples_per_s",
    "op_p50_ms",
    "write_bytes_per_sample",
    "peak_rss_mb",
];

fn per_layer() -> Vec<&'static str> {
    trace::PER_LAYER.iter().map(|(name, _)| *name).collect()
}

#[test]
fn every_workload_runs_small_with_all_checks() {
    for (name, spec) in [("sweep_deep", small_deep()), ("sweep_stat", small_stat())] {
        for traced in [false, true] {
            let o = opts(name, traced);
            let outcome = sweep::run(&spec, &o).expect(name);
            let names = if traced {
                per_layer()
            } else {
                END_TO_END.to_vec()
            };
            assert_clean(name, &outcome, &names);
            if traced {
                assert!(
                    outcome.get("trace.coverage").expect("coverage") > 0.9,
                    "{name}"
                );
            } else {
                assert!(
                    outcome.get("samples_per_s").expect("throughput") > 0.0,
                    "{name}"
                );
            }
            let _ = std::fs::remove_dir_all(&o.work_dir);
        }
    }
    for traced in [false, true] {
        let o = opts("stream", traced);
        let outcome = stream::run(&small_stream(), &o).expect("stream");
        let names = if traced {
            per_layer()
        } else {
            END_TO_END.to_vec()
        };
        assert_clean("stream", &outcome, &names);
        assert_eq!(outcome.failed, 0);
        if traced {
            assert!(outcome.get("serve.passes").expect("passes") > 0.0);
            assert!(outcome.get("store.checkpoint_s").expect("checkpoint") > 0.0);
        }
        let _ = std::fs::remove_dir_all(&o.work_dir);
    }
}

#[test]
fn row_check_refuses_a_perturbed_f1_a_shifted_detection_and_a_dropped_cell() {
    let (rows, cells) = sweep::rows_and_evidence(&small_stat()).expect("sweep");
    checks::rows_match(&rows, &cells).expect("real rows match their detections");

    let mut perturbed = rows.clone();
    perturbed[0].mean_f1 += 1e-6;
    assert!(
        checks::rows_match(&perturbed, &cells).is_err(),
        "perturbed F1 accepted"
    );

    // Shift the detections of a cell that scores above zero far away
    // from every true anomaly.
    let hit = cells
        .iter()
        .position(|c| {
            c.detected
                .as_ref()
                .is_some_and(|d| checks::overlap_f1(&c.truth, d) > 0.0)
                && !c.truth.is_empty()
        })
        .expect("some cell finds an anomaly");
    let mut shifted = cells.clone();
    if let Some(found) = shifted[hit].detected.as_mut() {
        for span in found.iter_mut() {
            *span = (span.0 + 1_000_000_000_000, span.1 + 1_000_000_000_000);
        }
    }
    assert!(
        checks::rows_match(&rows, &shifted).is_err(),
        "shifted detection accepted"
    );

    let mut dropped = cells.clone();
    dropped.remove(hit);
    assert!(
        checks::rows_match(&rows, &dropped).is_err(),
        "dropped cell accepted"
    );
}

#[test]
fn table_check_refuses_a_changed_rendering() {
    let table = "pipeline f1\narima 0.5\n".to_string();
    checks::tables_identical(&[table.clone(), table.clone()]).expect("same tables");
    let changed = table.replace("0.5", "0.6");
    assert!(checks::tables_identical(&[table, changed]).is_err());
}

#[test]
fn stream_checks_refuse_dropped_and_shifted_events_and_bad_accounting() {
    let spec = small_stream();
    let input = stream::generate(&spec);
    assert!(!input.spikes.is_empty());
    let fine = stream::replay(&spec, &input, 1).expect("replay ticking every event");
    let coarse = stream::replay(&spec, &input, 16).expect("replay ticking every 16 events");
    checks::spikes_covered(&input.spikes, &fine).expect("every spike detected");
    checks::events_equal("chunking", &fine, &coarse).expect("chunking does not change events");

    // Drop the event that covers the first spike.
    let (tenant, t) = input.spikes[0].clone();
    let covering = fine
        .iter()
        .position(|e| e.tenant == tenant && e.start <= t && t <= e.end)
        .expect("covering event");
    let mut dropped = fine.clone();
    dropped.remove(covering);
    assert!(
        checks::spikes_covered(&input.spikes, &dropped).is_err(),
        "dropped event accepted"
    );
    assert!(checks::events_equal("dropped", &fine, &dropped).is_err());

    let mut shifted = fine.clone();
    shifted[covering].start += 1;
    assert!(checks::events_equal("shifted", &fine, &shifted).is_err());

    let good = Accounting {
        offered: 10,
        accepted: 10,
        retried: 0,
        shed: 0,
    };
    checks::accounting_holds("t", good).expect("clean accounting");
    assert!(checks::accounting_holds(
        "t",
        Accounting {
            accepted: 9,
            ..good
        }
    )
    .is_err());
    assert!(checks::accounting_holds("t", Accounting { shed: 1, ..good }).is_err());
    assert!(checks::accounting_holds("t", Accounting { retried: 1, ..good }).is_err());
}

#[test]
fn partition_check_refuses_times_that_do_not_add_up() {
    let mut layers = std::collections::BTreeMap::new();
    layers.insert("trace.wall_s".to_string(), 2.0);
    layers.insert("stats.arima_s".to_string(), 1.5);
    layers.insert("trace.unattributed_s".to_string(), 0.5);
    let mut ok = Outcome {
        correct: true,
        ..Outcome::default()
    };
    trace::push_per_layer(&mut ok, &layers, &[]);
    assert!(ok.correct, "{:?}", ok.problems);
    layers.insert("trace.unattributed_s".to_string(), 0.25);
    let mut bad = Outcome {
        correct: true,
        ..Outcome::default()
    };
    trace::push_per_layer(&mut bad, &layers, &[]);
    assert!(!bad.correct);
}
