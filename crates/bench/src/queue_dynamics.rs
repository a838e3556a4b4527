//! Fig. 10-style queue dynamics: per-channel router-queue depths and
//! delivered throughput on the same time axis.

use crate::figure::{holds, Body, Claim, Figure};
use crate::table::Table;
use crate::{isp_experiment, ripple_experiment, set_count, windowed_lineup, Result, Scale};
use spider_core::{run_sweep, SweepJob};
use spider_sim::{QueueConfig, QueueingMode};
use spider_types::{ChannelId, DetRng};

/// How many of the protocol run's busiest channels get a depth column.
const DEPTH_COLUMNS: usize = 8;

/// The paper's Fig. 10 shows how Spider's router queues build and drain
/// as the price signal steers senders away from congested channels. This
/// runs the transport lineup of Fig. 8 ([`windowed_lineup`]) on one
/// capacity-constrained workload with per-channel depth sampling on, and
/// yields one row per simulated second: each scheme's delivered XRP/s and
/// total queued units, plus the depth of the protocol run's eight busiest
/// channels (by peak depth, named by endpoint pair). Throughput on the
/// queue axis is what shows the §5 story: queues absorb bursts *without*
/// a throughput collapse, while the marking feedback keeps them bounded.
///
/// Scales: smoke (3,000 txns) → default (20,000) → full (the paper's
/// 200 s ISP horizon) → paper (the full 3,774-node Ripple graph driven
/// for 200 s; arrivals reach the engine as a lazy stream, so the calendar
/// stays bounded by in-flight work).
pub const FIG10_QUEUE_DYNAMICS: Figure = Figure {
    name: "fig10_queue_dynamics",
    paper_ref: "Fig. 10 (queue dynamics)",
    about:
        "per-second throughput, queued units and the 8 busiest channels' queue depths, 3 transports",
    scales: &[Scale::Smoke, Scale::Default, Scale::Full, Scale::Paper],
    body: Body::Table {
        build: fig10_table,
        claims: &[
            Claim::new(
                "one row per simulated second: t_s counts 0, 1, 2, … without a gap",
                |t| {
                    let seconds = t.numbers(None, "t_s")?;
                    match seconds
                        .iter()
                        .enumerate()
                        .find(|&(row, &s)| s != row as f64)
                    {
                        Some((row, s)) => Err(format!("row {row} has t_s = {s}")),
                        None => holds(seconds.len() as f64 - 1.0, || "no rows".to_string()),
                    }
                },
            ),
            Claim::new(
                "each of the three transports has a throughput and a queued-units column",
                |t| {
                    for scheme in [
                        "spider_protocol",
                        "shortest_path_window",
                        "spider_waterfilling_window",
                    ] {
                        t.numbers(None, &format!("thrpt_xrp_{scheme}"))?;
                        t.numbers(None, &format!("queued_units_{scheme}"))?;
                    }
                    Ok(0.0)
                },
            ),
            Claim::new(
                "the protocol run's eight busiest channels each get a depth column",
                |t| match t.columns.iter().filter(|c| c.starts_with("depth_")).count() {
                    DEPTH_COLUMNS => Ok(0.0),
                    depth => Err(format!("{depth} depth columns")),
                },
            ),
        ],
    },
};

fn fig10_table(scale: Scale, seed: u64) -> Result<Table> {
    // Constrained capacity so queues actually form.
    let capacity_xrp = 4_000;
    let mut cfg = match scale {
        Scale::Paper => ripple_experiment(capacity_xrp, true, seed),
        _ => isp_experiment(capacity_xrp, scale.is_full(), seed),
    };
    let count = match scale {
        Scale::Smoke => 3_000,
        Scale::Paper => (200.0 * cfg.workload.rate_per_sec) as usize,
        Scale::Default | Scale::Full => cfg.workload.count,
    };
    set_count(&mut cfg, count);
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig::default());
    cfg.sim.obs.sampler.queue_depths = true;
    let (names, jobs): (Vec<&str>, Vec<SweepJob>) = windowed_lineup(&cfg).into_iter().unzip();
    eprintln!(
        "  running {} transports ({count} txns, queue sampling on)…",
        jobs.len()
    );
    let reports = run_sweep(&jobs)?;

    // The protocol run's busiest channels by peak depth carry the story.
    let series = reports
        .first()
        .map(|r| r.queue_depth_series())
        .unwrap_or_default();
    let depth = |second: usize, c: usize| {
        series
            .get(second)
            .and_then(|s| s.get(c))
            .copied()
            .unwrap_or(0)
    };
    let n_channels = series.first().map_or(0, Vec::len);
    let mut peak: Vec<(u32, usize)> = (0..n_channels)
        .map(|c| ((0..series.len()).map(|s| depth(s, c)).max().unwrap_or(0), c))
        .collect();
    peak.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    peak.truncate(DEPTH_COLUMNS);

    let mut t = Table::new(["t_s"]);
    for name in &names {
        let col = name.replace(['-', '+'], "_");
        t.columns
            .extend([format!("thrpt_xrp_{col}"), format!("queued_units_{col}")]);
    }
    t.json_keys = t.columns.clone();
    let topo = cfg.topology.build(&DetRng::new(seed))?;
    for &(_, c) in &peak {
        let ch = topo.channel(ChannelId::from_index(c));
        t.columns.push(format!("depth_{}-{}", ch.u, ch.v));
        t.json_keys.push(format!("{}-{}", ch.u, ch.v));
    }
    let occupancy: Vec<_> = reports.iter().map(|r| r.queue_occupancy_series()).collect();
    let lengths = reports
        .iter()
        .zip(&occupancy)
        .map(|(r, queued)| r.throughput_series.len().max(queued.len()));
    for s in 0..lengths.max().unwrap_or(0).max(series.len()) {
        let mut row = vec![(s as f64, 0)];
        for (r, queued) in reports.iter().zip(&occupancy) {
            row.push((r.throughput_series.get(s).copied().unwrap_or(0.0), 1));
            row.push((queued.get(s).copied().unwrap_or(0.0), 0));
        }
        row.extend(peak.iter().map(|&(_, c)| (f64::from(depth(s, c)), 0)));
        t.push(None, row);
    }
    for ((name, r), queued) in names.iter().zip(&reports).zip(&occupancy) {
        let peak_queued = queued.iter().fold(0.0, |m: f64, &q| m.max(q));
        eprintln!(
            "  {name}: success ratio {:.3}, marking rate {:.3}, peak total queued {peak_queued:.0}",
            r.success_ratio(),
            r.marking_rate()
        );
    }
    Ok(t)
}
