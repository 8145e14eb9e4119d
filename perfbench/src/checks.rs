//! Output checks computed apart from the program.
//!
//! Each check is a pure function over plain data, so the benchmark's
//! own tests can feed it a corrupted copy of a real output and see it
//! refuse. None of them compares against a stored copy of an earlier
//! output: they re-derive what the output must be.

use sintel_serve::AnomalyEvent;

/// A closed interval `[start, end]` in timestamp units.
pub type Span = (i64, i64);

fn overlaps(a: Span, b: Span) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// F1 under the overlapping-segment method (paper Algorithm 2): a true
/// anomaly overlapped by any detection is a true positive, otherwise a
/// false negative; a detection overlapping no true anomaly is a false
/// positive. Nothing to find and nothing found scores 1.
pub fn overlap_f1(truth: &[Span], detected: &[Span]) -> f64 {
    if truth.is_empty() && detected.is_empty() {
        return 1.0;
    }
    let tp = truth
        .iter()
        .filter(|&&t| detected.iter().any(|&d| overlaps(t, d)))
        .count() as f64;
    let fn_ = truth.len() as f64 - tp;
    let fp = detected
        .iter()
        .filter(|&&d| !truth.iter().any(|&t| overlaps(t, d)))
        .count() as f64;
    let precision = if tp + fp > 0.0 { tp / (tp + fp) } else { 0.0 };
    let recall = if tp + fn_ > 0.0 { tp / (tp + fn_) } else { 0.0 };
    if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    }
}

/// One sweep row as the program reported it.
#[derive(Debug, Clone, PartialEq)]
pub struct RowClaim {
    /// Pipeline name.
    pub pipeline: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean F1 over the row's completed cells.
    pub mean_f1: f64,
    /// Completed cells.
    pub signals: usize,
    /// Failed cells.
    pub failures: usize,
}

/// One cell as re-run apart from the sweep: the row it belongs to,
/// its ground truth, and its detections (`None` when the run failed).
#[derive(Debug, Clone)]
pub struct CellEvidence {
    /// Pipeline name.
    pub pipeline: String,
    /// Dataset name.
    pub dataset: String,
    /// Ground-truth anomalies.
    pub truth: Vec<Span>,
    /// Detections, or `None` for a failed run.
    pub detected: Option<Vec<Span>>,
}

/// Every row's mean F1, completed and failed counts re-derived from
/// its cells' detections with [`overlap_f1`].
pub fn rows_match(rows: &[RowClaim], cells: &[CellEvidence]) -> Result<(), String> {
    let mut seen = 0usize;
    for row in rows {
        let mine: Vec<&CellEvidence> = cells
            .iter()
            .filter(|c| c.pipeline == row.pipeline && c.dataset == row.dataset)
            .collect();
        seen += mine.len();
        let f1s: Vec<f64> = mine
            .iter()
            .filter_map(|c| c.detected.as_ref().map(|d| overlap_f1(&c.truth, d)))
            .collect();
        let failed = mine.len() - f1s.len();
        if f1s.len() != row.signals || failed != row.failures {
            return Err(format!(
                "{}/{}: row has {} completed and {} failed cells, re-run has {} and {}",
                row.pipeline,
                row.dataset,
                row.signals,
                row.failures,
                f1s.len(),
                failed
            ));
        }
        let mean = if f1s.is_empty() {
            0.0
        } else {
            f1s.iter().sum::<f64>() / f1s.len() as f64
        };
        if (mean - row.mean_f1).abs() > 1e-9 {
            return Err(format!(
                "{}/{}: row mean F1 {} but its detections score {}",
                row.pipeline, row.dataset, row.mean_f1, mean
            ));
        }
    }
    if seen != cells.len() {
        return Err(format!("{} cells belong to no row", cells.len() - seen));
    }
    Ok(())
}

/// Every round rendered the same table.
pub fn tables_identical(tables: &[String]) -> Result<(), String> {
    match tables.iter().position(|t| Some(t) != tables.first()) {
        None => Ok(()),
        Some(i) => Err(format!("round {i} rendered a different table than round 0")),
    }
}

/// Every planted spike `(tenant, timestamp)` lies inside an event the
/// engine emitted for that tenant.
pub fn spikes_covered(spikes: &[(String, i64)], events: &[AnomalyEvent]) -> Result<(), String> {
    let missed: Vec<&(String, i64)> = spikes
        .iter()
        .filter(|(tenant, t)| {
            !events
                .iter()
                .any(|e| &e.tenant == tenant && e.start <= *t && *t <= e.end)
        })
        .collect();
    if missed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} of {} planted spikes lie in no emitted event, first {:?}",
            missed.len(),
            spikes.len(),
            missed[0]
        ))
    }
}

/// Two event streams are identical, event by event.
pub fn events_equal(what: &str, want: &[AnomalyEvent], got: &[AnomalyEvent]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "{what}: {} events, expected {}",
            got.len(),
            want.len()
        ));
    }
    match want.iter().zip(got).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "{what}: event {i} is {:?}, expected {:?}",
            got[i], want[i]
        )),
    }
}

/// Admission accounting of one tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Accounting {
    /// Events the caller offered.
    pub offered: u64,
    /// Events the engine accepted.
    pub accepted: u64,
    /// Events the engine asked to retry.
    pub retried: u64,
    /// Events the engine shed.
    pub shed: u64,
}

/// Every offered event was accepted; nothing was shed or retried.
pub fn accounting_holds(tenant: &str, a: Accounting) -> Result<(), String> {
    if a.accepted == a.offered && a.retried == 0 && a.shed == 0 {
        Ok(())
    } else {
        Err(format!("{tenant}: {a:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_f1_follows_algorithm_2() {
        assert_eq!(overlap_f1(&[], &[]), 1.0);
        assert_eq!(overlap_f1(&[(10, 20)], &[]), 0.0);
        assert_eq!(overlap_f1(&[(10, 20)], &[(20, 30)]), 1.0);
        // One hit, one miss, one false alarm: p = r = 1/2.
        assert!((overlap_f1(&[(0, 10), (50, 60)], &[(5, 8), (100, 110)]) - 0.5).abs() < 1e-12);
        // One broad alarm over two anomalies: two true positives.
        assert_eq!(overlap_f1(&[(0, 10), (20, 30)], &[(0, 30)]), 1.0);
    }
}
