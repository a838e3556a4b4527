//! The resilience sweeps: a scheme lineup × {ISP, Ripple-like} × an
//! intensity grid, identical workload and seed per topology, under
//! topology churn (`spider-dynamics`), injected faults (`spider-faults`)
//! and adversarial overload (`spider-overload`). The README's "Dynamic
//! networks", "Fault tolerance" and "Overload" sections describe the
//! subsystems and the shapes to expect.

use crate::figure::{holds, Body, Check, Claim, Figure, Grid, Point, Rows};
use crate::{both_topologies, set_count, Result, Scale};
use spider_core::output::FigureRow;
use spider_core::{ExperimentConfig, SchemeConfig, TopologyConfig};
use spider_dynamics::DynamicsConfig;
use spider_faults::FaultConfig;
use spider_overload::{
    DrainConfig, FlashCrowdConfig, GriefingConfig, HotPairsConfig, OverloadConfig,
};
use spider_sim::{AdmissionConfig, QueueConfig, QueueingMode};
use spider_types::SimDuration;

const INTENSITIES: [f64; 4] = [0.0, 0.5, 1.0, 2.0];

/// Both topologies' base experiments for a sweep, with phase timings on
/// (the `profile_*_s` columns; the wall clocks never touch simulated
/// time). Smoke scale shrinks them to a few seconds per topology while
/// still driving every scheme through the real machinery.
fn bases(
    prefix: &str,
    capacity_xrp: u64,
    scale: Scale,
    seed: u64,
) -> [(String, ExperimentConfig); 2] {
    let mut both = both_topologies(prefix, capacity_xrp, scale.is_full(), seed);
    for (_, base) in &mut both {
        if scale == Scale::Smoke {
            set_count(base, 800);
            if let TopologyConfig::RippleLike { nodes, .. } = &mut base.topology {
                *nodes = 120;
            }
        }
        base.sim.obs.profile = true;
    }
    both
}

/// Every base topology × value × scheme, in that order: `at` derives the
/// experiment for a grid value from the base.
fn points(
    bases: &[(String, ExperimentConfig)],
    parameter: &'static str,
    values: &[f64],
    schemes: &[SchemeConfig],
    at: impl Fn(&ExperimentConfig, f64) -> ExperimentConfig,
) -> Vec<Point> {
    let mut points = Vec::new();
    for (label, base) in bases {
        for &value in values {
            let cfg = at(base, value);
            let runs = schemes
                .iter()
                .map(|&scheme| Point::of(label, (parameter, value), None, scheme, &cfg));
            points.extend(runs);
        }
    }
    points
}

/// Every label carries at least `min` distinct non-zero sweep values;
/// the margin is the spare count.
fn covers(d: &Rows, labels: &[&str], min: usize) -> Check {
    let mut spare = f64::INFINITY;
    for label in labels {
        let of_label = d.rows.iter().filter(|r| r.experiment == *label);
        let mut values: Vec<f64> = of_label.map(|r| r.value).filter(|&v| v > 0.0).collect();
        values.sort_by(f64::total_cmp);
        values.dedup();
        spare = spare.min(values.len() as f64 - min as f64);
    }
    holds(spare, || {
        format!("a label of {labels:?} has fewer than {min} sweep values")
    })
}

/// No row satisfies `bad` (the first that does is the reason).
fn none(d: &Rows, bad: impl Fn(&FigureRow) -> bool) -> Check {
    match d.rows.iter().find(|r| bad(r)) {
        Some(r) => Err(format!("{} {} @ {}", r.experiment, r.scheme, r.value)),
        None => Ok(0.0),
    }
}

/// Some row satisfies `good`; the margin is how many do.
fn some(d: &Rows, good: impl Fn(&FigureRow) -> bool) -> Check {
    match d.rows.iter().filter(|r| good(r)).count() {
        0 => Err("no such run".to_string()),
        n => Ok(n as f64),
    }
}

/// Scheme resilience under live topology churn: `0 ×` is the paper's
/// frozen snapshot, then increasingly violent schedules of channel
/// closes/reopens, resizes, node leave/join cycles, mid-run spawns and
/// flap traces. The static offline schemes (Spider (LP), SilentWhispers,
/// SpeedyMurmurs) are deliberately left unrepaired; their gap to the
/// cache-repairing schemes *is* the value of incremental repair.
pub const CHURN_RESILIENCE: Figure = Figure {
    name: "churn_resilience",
    paper_ref: "beyond the paper (churn)",
    about: "all schemes × {ISP, Ripple-like} × churn intensity 0–2×; static baselines unrepaired",
    scales: &[Scale::Smoke, Scale::Default, Scale::Full, Scale::Paper],
    body: Body::Sweep {
        grid: churn_grid,
        claims: &[Claim::new(
            "at least 3 non-zero churn intensities on both topologies",
            |d| covers(d, &["churn-isp", "churn-ripple"], 3),
        )],
    },
};

fn churn_grid(scale: Scale, seed: u64) -> Result<Grid> {
    // Paper scale keeps the cache-repairing, non-atomic schemes whose
    // incremental repair is the story at 3,774 nodes: the offline/atomic
    // ones run unrepaired (the laptop-scale sweep already shows that
    // cliff), and max-flow's per-payment cost is impractical at full
    // Ripple scale.
    let paths = 4;
    let schemes = if scale == Scale::Paper {
        vec![
            SchemeConfig::ShortestPath,
            SchemeConfig::SpiderWaterfilling { paths },
            SchemeConfig::SpiderPricing { paths },
            SchemeConfig::spider_protocol(paths),
        ]
    } else {
        SchemeConfig::extended_lineup()
    };
    let mut both = bases("churn", 4_000, scale, seed);
    if let (Scale::Paper, [_, (_, ripple)]) = (scale, &mut both) {
        // `--full` Ripple runs the paper's 85 s trace; paper scale
        // extends it to the headline figures' 200 s.
        set_count(ripple, (200.0 * ripple.workload.rate_per_sec) as usize);
    }
    let at = |base: &ExperimentConfig, x: f64| ExperimentConfig {
        dynamics: (x > 0.0).then(|| churn(base.sim.horizon.as_secs_f64()).scaled(x)),
        ..base.clone()
    };
    Ok(points(&both, "churn_intensity", &INTENSITIES, &schemes, at).into())
}

/// The base (1×) churn schedule the intensity knob scales.
fn churn(horizon_secs: f64) -> DynamicsConfig {
    DynamicsConfig {
        close_rate_per_sec: 0.4,
        reopen_mean_secs: Some(3.0),
        resize_rate_per_sec: 0.2,
        resize_factor_range: [0.5, 2.0],
        node_leave_rate_per_sec: 0.04,
        spawn_fraction: 0.04,
        flap_channels: 2,
        flap_period_secs: 5.0,
        horizon_secs,
    }
}

/// Scheme resilience under deterministic fault injection: `0 ×` is the
/// paper's fault-free evaluation, then increasingly hostile plans of
/// message loss, lost acks, stuck units, latency jitter/spikes and node
/// crash/recovery windows (the `units_dropped_fault` and `retries`
/// columns do the talking).
pub const FAULT_RESILIENCE: Figure = Figure {
    name: "fault_resilience",
    paper_ref: "beyond the paper (faults)",
    about: "all schemes × {ISP, Ripple-like} × fault intensity 0–2×",
    scales: &[Scale::Smoke, Scale::Default, Scale::Full],
    body: Body::Sweep {
        grid: |scale, seed| {
            // The crate default plan is already paper-plausible; only the
            // horizon is pinned so crash windows cover the whole run.
            let at = |base: &ExperimentConfig, x: f64| {
                let horizon_secs = base.sim.horizon.as_secs_f64();
                let plan = FaultConfig {
                    horizon_secs,
                    ..FaultConfig::default()
                };
                let faults = (x > 0.0).then(|| plan.scaled(x));
                ExperimentConfig {
                    faults,
                    ..base.clone()
                }
            };
            let (both, schemes) = (
                bases("fault", 4_000, scale, seed),
                SchemeConfig::extended_lineup(),
            );
            Ok(points(&both, "fault_intensity", &INTENSITIES, &schemes, at).into())
        },
        claims: &[
            Claim::new(
                "at least 3 non-zero fault intensities on both topologies",
                |d| covers(d, &["fault-isp", "fault-ripple"], 3),
            ),
            Claim::new("zero-intensity runs stay fault-free", |d| {
                none(d, |r| r.value == 0.0 && r.units_dropped_fault > 0)
            }),
            Claim::new("faults land at some non-zero intensity", |d| {
                some(d, |r| r.value > 0.0 && r.units_dropped_fault > 0)
            }),
        ],
    },
};

/// Graceful degradation under overload: offered load from 0.5× to 8× the
/// calibrated arrival rate with the adversarial plan riding on every grid
/// point, each run twice — overload protections on (deadline-aware
/// shedding + circuit breakers + sender-side admission shaping) and off.
/// Offered load scales the arrival *rate* only: the transaction
/// population and the horizon are fixed, so every row has the same
/// goodput denominator. Expected shape: protected goodput is flat across
/// the sweep; unprotected goodput collapses past the knee.
pub const OVERLOAD_RESILIENCE: Figure = Figure {
    name: "overload_resilience",
    paper_ref: "beyond the paper (overload)",
    about: "3 schemes × {ISP, Ripple-like} × offered load 0.5–8×, protections on vs off",
    scales: &[Scale::Smoke, Scale::Default, Scale::Full],
    body: Body::Sweep {
        grid: overload_grid,
        claims: &[
            Claim::new(
                "at least 4 offered loads on both topologies, protected and unprotected",
                |d| covers(d, &OVERLOAD_LABELS, 4),
            ),
            Claim::new("some protected run trips the shaping admission gate", |d| {
                some(d, |r| is_protected(r) && r.admission_deferred > 0)
            }),
            Claim::new("unprotected runs never shed, reject or defer", |d| {
                none(d, |r| {
                    let touched =
                        r.units_dropped_shed + r.units_dropped_admission + r.admission_deferred;
                    !is_protected(r) && touched > 0
                })
            }),
        ],
    },
};

fn overload_grid(scale: Scale, seed: u64) -> Result<Grid> {
    let paths = 4;
    let schemes = [
        SchemeConfig::ShortestPath,
        SchemeConfig::SpiderWaterfilling { paths },
        SchemeConfig::spider_protocol(paths),
    ];
    let mut both = bases("overload", 1_000, scale, seed);
    if let (Scale::Default, [(_, isp), _]) = (scale, &mut both) {
        // Ten grid points per topology: a lighter ISP base than the
        // headline figures keeps the sweep tractable.
        isp.workload.count = 8_000;
    }
    let mut grid = Vec::new();
    for (suffix, protected) in [("protected", true), ("unprotected", false)] {
        let labelled = both
            .clone()
            .map(|(label, base)| (format!("{label}-{suffix}"), base));
        let at = |base: &ExperimentConfig, load| overloaded(base, load, protected);
        grid.extend(points(
            &labelled,
            "offered_load",
            &[0.5, 1.0, 2.0, 4.0, 8.0],
            &schemes,
            at,
        ));
    }
    Ok(grid.into())
}

const OVERLOAD_LABELS: [&str; 4] = [
    "overload-isp-protected",
    "overload-ripple-protected",
    "overload-isp-unprotected",
    "overload-ripple-unprotected",
];

fn is_protected(r: &FigureRow) -> bool {
    r.experiment.ends_with("-protected")
}

/// The adversarial plan riding on every grid point, pinned to the arrival
/// span (`count / rate` at this offered load, not the sim horizon) so the
/// flash window compresses real arrivals at 8× just as it does at 0.5×.
fn attack(span_secs: f64) -> OverloadConfig {
    OverloadConfig {
        flash_crowd: Some(FlashCrowdConfig {
            start_secs: span_secs * 0.3,
            duration_secs: span_secs * 0.1,
            rate_multiplier: 2.0,
        }),
        hot_pairs: Some(HotPairsConfig::default()),
        drain: Some(DrainConfig::default()),
        // Every held unit pins its whole path's liquidity for the hold —
        // the attack admission control exists to bound.
        griefing: Some(GriefingConfig {
            fraction: 0.05,
            hold_secs: 5.0,
        }),
        horizon_secs: span_secs,
    }
}

/// One grid point: the base workload offered at `load`× the calibrated
/// rate, the attack pinned to that span, and — protected — shedding plus
/// a shaping admission gate at the calibrated rate.
fn overloaded(base: &ExperimentConfig, load: f64, protected: bool) -> ExperimentConfig {
    let mut cfg = base.clone();
    let base_rate = base.workload.rate_per_sec;
    let span_1x = base.workload.count as f64 / base_rate;
    cfg.workload.rate_per_sec = base_rate * load;
    // One horizon for the whole sweep: the slowest point (0.5× → a 2×
    // span) plus a payment deadline of slack, which also covers the
    // shaping gate's worst backlog (re-offers paced at the calibrated
    // rate drain within one 1× span).
    cfg.sim.horizon = SimDuration::from_secs_f64(span_1x * 2.0 + 6.0);
    cfg.overload = Some(attack(span_1x / load));
    // Every scheme runs the §5 per-channel queues here: lockstep's instant
    // whole-path failure is itself a crude admission gate and would mask
    // the collapse. The buffer policy *is* the protection under test:
    // unprotected queues are too deep to tail-drop (bufferbloat, FIFO
    // head-of-line blocking); protected ones are bounded, and shedding
    // evicts the most doomed unit when one fills.
    cfg.sim.queueing = QueueingMode::PerChannelFifo(QueueConfig {
        max_queue_delay: SimDuration::from_secs(10),
        max_queue_units: if protected { 256 } else { 1_000_000 },
        ..QueueConfig::default()
    });
    if protected {
        cfg.sim.shedding = true;
        let rate_per_sec = base_rate;
        cfg.sim.admission = Some(AdmissionConfig {
            rate_per_sec,
            defer: true,
            ..AdmissionConfig::default()
        });
    }
    cfg
}
