//! Machine-readable experiment output: JSON records and CSV tables.
//!
//! The bench harness prints the same rows the paper's figures plot; these
//! helpers keep the formats consistent across binaries.

use serde::Serialize;
use spider_sim::SimReport;

/// One figure data point: a scheme evaluated at a parameter setting.
#[derive(Debug, Clone, Serialize)]
pub struct FigureRow {
    /// Figure/experiment identifier (e.g. "fig6-isp").
    pub experiment: String,
    /// Routing scheme.
    pub scheme: String,
    /// Sweep parameter name (e.g. "capacity_xrp"); empty if none.
    pub parameter: String,
    /// Sweep parameter value; 0 if none.
    pub value: f64,
    /// Success ratio in percent (paper's left panels).
    pub success_ratio_pct: f64,
    /// Success volume in percent (paper's right panels).
    pub success_volume_pct: f64,
    /// Goodput: completed-payment volume per simulated second (XRP/s).
    /// Partial deliveries of never-completed payments are excluded.
    pub goodput_xrp_s: f64,
    /// Completed / attempted payments.
    pub completed: u64,
    /// Attempted payments.
    pub attempted: u64,
    /// Units lost to injected faults (message loss, hop timeout, crash).
    pub units_dropped_fault: u64,
    /// Units evicted by deadline-aware load shedding (`DropReason::Shed`).
    pub units_dropped_shed: u64,
    /// Units fail-fasted by sender-side admission control
    /// (`DropReason::AdmissionRejected`).
    pub units_dropped_admission: u64,
    /// Arrivals the shaping admission gate paced to a later slot
    /// (deferral is not a drop — the payment still runs).
    pub admission_deferred: u64,
    /// Routing retry attempts actually made beyond each payment's first
    /// (polls the engine proved would lock nothing are not attempts —
    /// see `SimReport::retries`).
    pub retries: u64,
    /// Mean completion time (s), when any payment completed.
    pub avg_completion_s: Option<f64>,
    /// Median completion latency (s), from the report's latency histogram.
    pub latency_p50_s: Option<f64>,
    /// 99th-percentile completion latency (s).
    pub latency_p99_s: Option<f64>,
    /// Top-ranked hotspot channel id, when attribution ran and found one.
    pub hotspot_channel: Option<u64>,
    /// Attribution score of that channel.
    pub hotspot_score: Option<f64>,
    /// Calendar-pop phase wall time (s), when profiling was enabled.
    pub profile_calendar_pop_s: Option<f64>,
    /// Routing phase wall time (s).
    pub profile_routing_s: Option<f64>,
    /// Forwarding phase wall time (s).
    pub profile_forwarding_s: Option<f64>,
    /// Settlement phase wall time (s).
    pub profile_settlement_s: Option<f64>,
    /// Churn-repair phase wall time (s).
    pub profile_churn_repair_s: Option<f64>,
    /// Series-sampling phase wall time (s).
    pub profile_sampling_s: Option<f64>,
}

impl FigureRow {
    /// Builds a row from a report.
    pub fn new(experiment: &str, parameter: &str, value: f64, r: &SimReport) -> Self {
        let phase_s =
            |s: spider_sim::PhaseStats| r.profile.enabled.then(|| s.total_ns as f64 / 1e9);
        FigureRow {
            experiment: experiment.to_string(),
            scheme: r.scheme.clone(),
            parameter: parameter.to_string(),
            value,
            success_ratio_pct: 100.0 * r.success_ratio(),
            success_volume_pct: 100.0 * r.success_volume(),
            goodput_xrp_s: r.goodput_xrp_per_sec(),
            completed: r.completed_payments,
            attempted: r.attempted_payments,
            units_dropped_fault: r.units_dropped_fault,
            units_dropped_shed: r.drops_by_reason.shed,
            units_dropped_admission: r.drops_by_reason.admission_rejected,
            admission_deferred: r.admission_deferred,
            retries: r.retries,
            avg_completion_s: r.avg_completion_time(),
            latency_p50_s: r.latency_hist.percentile(50.0),
            latency_p99_s: r.latency_hist.percentile(99.0),
            hotspot_channel: r.hotspots.first().map(|h| u64::from(h.channel)),
            hotspot_score: r.hotspots.first().map(|h| h.score),
            profile_calendar_pop_s: phase_s(r.profile.calendar_pop),
            profile_routing_s: phase_s(r.profile.routing),
            profile_forwarding_s: phase_s(r.profile.forwarding),
            profile_settlement_s: phase_s(r.profile.settlement),
            profile_churn_repair_s: phase_s(r.profile.churn_repair),
            profile_sampling_s: phase_s(r.profile.sampling),
        }
    }
}

/// CSV header matching [`to_csv_row`]: the [`FigureRow`] field names.
pub const CSV_HEADER: &str =
    "experiment,scheme,parameter,value,success_ratio_pct,success_volume_pct,goodput_xrp_s,completed,attempted,units_dropped_fault,units_dropped_shed,units_dropped_admission,admission_deferred,retries,avg_completion_s,latency_p50_s,latency_p99_s,hotspot_channel,hotspot_score,profile_calendar_pop_s,profile_routing_s,profile_forwarding_s,profile_settlement_s,profile_churn_repair_s,profile_sampling_s";

/// One CSV line (no trailing newline).
pub fn to_csv_row(row: &FigureRow) -> String {
    let opt = |v: Option<f64>| v.map(|v| format!("{v:.4}")).unwrap_or_default();
    // Phase wall times are often well under a millisecond per phase, so
    // they keep microsecond resolution.
    let opt6 = |v: Option<f64>| v.map(|v| format!("{v:.6}")).unwrap_or_default();
    format!(
        "{},{},{},{},{:.4},{:.4},{:.2},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        row.experiment,
        row.scheme,
        row.parameter,
        row.value,
        row.success_ratio_pct,
        row.success_volume_pct,
        row.goodput_xrp_s,
        row.completed,
        row.attempted,
        row.units_dropped_fault,
        row.units_dropped_shed,
        row.units_dropped_admission,
        row.admission_deferred,
        row.retries,
        opt(row.avg_completion_s),
        opt(row.latency_p50_s),
        opt(row.latency_p99_s),
        row.hotspot_channel
            .map(|c| c.to_string())
            .unwrap_or_default(),
        opt(row.hotspot_score),
        opt6(row.profile_calendar_pop_s),
        opt6(row.profile_routing_s),
        opt6(row.profile_forwarding_s),
        opt6(row.profile_settlement_s),
        opt6(row.profile_churn_repair_s),
        opt6(row.profile_sampling_s),
    )
}

/// Whole CSV document.
pub fn to_csv(rows: &[FigureRow]) -> String {
    let mut out = String::from(CSV_HEADER);
    out.push('\n');
    for r in rows {
        out.push_str(&to_csv_row(r));
        out.push('\n');
    }
    out
}

/// JSON-lines document (one record per row).
pub fn to_json_lines(rows: &[FigureRow]) -> String {
    rows.iter()
        .map(|r| serde_json::to_string(r).expect("row serializes"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// Renders an aligned text table for terminal output.
pub fn to_table(rows: &[FigureRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<22} {:>12} {:>16} {:>17} {:>12}\n",
        "experiment", "scheme", "value", "success_ratio%", "success_volume%", "completed"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<22} {:>12.1} {:>16.2} {:>17.2} {:>9}/{}\n",
            r.experiment,
            r.scheme,
            r.value,
            r.success_ratio_pct,
            r.success_volume_pct,
            r.completed,
            r.attempted
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_sim::{Histogram, SimReport};
    use spider_types::{Amount, SimDuration};

    fn report() -> SimReport {
        let mut latency_hist = Histogram::new();
        latency_hist.record(0.5);
        latency_hist.record(0.7);
        SimReport {
            scheme: "test".into(),
            attempted_payments: 10,
            completed_payments: 7,
            attempted_volume: Amount::from_xrp(100),
            delivered_volume: Amount::from_xrp(80),
            completed_volume: Amount::from_xrp(70),
            units_locked: 12,
            units_failed: 3,
            retries: 2,
            unit_hops_sum: 24,
            completion_times: vec![0.5, 0.7],
            latency_hist,
            horizon: SimDuration::from_secs(10),
            ..SimReport::default()
        }
    }

    #[test]
    fn csv_round_numbers() {
        let row = FigureRow::new("fig6-isp", "capacity_xrp", 30_000.0, &report());
        let line = to_csv_row(&row);
        assert!(line
            .starts_with("fig6-isp,test,capacity_xrp,30000,70.0000,80.0000,7.00,7,10,0,0,0,0,2,"));
        let doc = to_csv(&[row]);
        assert!(doc.starts_with(CSV_HEADER));
        assert_eq!(doc.lines().count(), 2);
    }

    #[test]
    fn json_lines_parse_back() {
        let row = FigureRow::new("figX", "", 0.0, &report());
        let doc = to_json_lines(std::slice::from_ref(&row));
        let v = serde_json::parse(&doc).unwrap();
        assert_eq!(v["scheme"], "test");
        assert_eq!(v["completed"], 7);
    }

    #[test]
    fn table_is_aligned() {
        let rows = vec![FigureRow::new("fig7", "capacity_xrp", 10_000.0, &report())];
        let table = to_table(&rows);
        assert!(table.contains("fig7"));
        assert!(table.lines().count() == 2);
    }

    #[test]
    fn missing_completion_time_is_empty_cell() {
        let mut r = report();
        r.completion_times.clear();
        r.latency_hist = Histogram::new();
        let row = FigureRow::new("e", "", 0.0, &r);
        // avg/p50/p99 + hotspot pair + six profile phases all empty.
        assert!(to_csv_row(&row).ends_with(&",".repeat(11)));
    }

    #[test]
    fn header_and_row_have_matching_cell_counts() {
        let row = FigureRow::new("e", "", 0.0, &report());
        assert_eq!(
            CSV_HEADER.split(',').count(),
            to_csv_row(&row).split(',').count()
        );
        // The header names the FigureRow fields, in declaration order.
        let keys: Vec<String> = match serde_json::to_value(&row) {
            Ok(serde_json::Value::Object(fields)) => fields.into_iter().map(|(k, _)| k).collect(),
            _ => Vec::new(),
        };
        assert_eq!(CSV_HEADER.split(',').collect::<Vec<_>>(), keys);
    }

    #[test]
    fn hotspot_and_profile_columns_populate() {
        let mut r = report();
        r.hotspots = vec![spider_sim::ChannelHotspot {
            channel: 3,
            util_frac: 0.9,
            zero_liquidity_s: 1.0,
            imbalance_frac: 0.5,
            queue_residency_s: 0.0,
            drops: 4,
            bottlenecks: 2,
            score: 1.75,
        }];
        r.profile.enabled = true;
        r.profile.routing.count = 10;
        r.profile.routing.total_ns = 2_500_000;
        let row = FigureRow::new("e", "", 0.0, &r);
        assert_eq!(row.hotspot_channel, Some(3));
        assert_eq!(row.hotspot_score, Some(1.75));
        assert_eq!(row.profile_routing_s, Some(0.0025));
        assert_eq!(row.profile_settlement_s, Some(0.0));
        let line = to_csv_row(&row);
        assert!(line.contains(",3,1.7500,"), "{line}");
        assert!(line.contains(",0.002500,"), "{line}");
    }

    #[test]
    fn shed_and_admission_columns_come_from_the_drop_breakdown() {
        let mut r = report();
        r.drops_by_reason.shed = 5;
        r.drops_by_reason.admission_rejected = 9;
        let row = FigureRow::new("e", "", 0.0, &r);
        assert_eq!(row.units_dropped_shed, 5);
        assert_eq!(row.units_dropped_admission, 9);
        // fault, shed, admission, deferred, retries — adjacent cells.
        assert!(to_csv_row(&row).contains(",0,5,9,0,2,"));
    }

    #[test]
    fn latency_percentiles_come_from_the_histogram() {
        let row = FigureRow::new("e", "", 0.0, &report());
        let p50 = row.latency_p50_s.expect("two samples recorded");
        let p99 = row.latency_p99_s.expect("two samples recorded");
        assert!(p50 <= p99);
        // Bucket upper edges are clamped to the observed [min, max].
        assert!((0.5..=0.7).contains(&p50), "{p50}");
        assert!((0.5..=0.7).contains(&p99), "{p99}");
    }
}
