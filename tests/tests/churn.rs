//! Topology-churn integration tests: incremental `PathCache` repair must
//! be indistinguishable from a cold rebuild on the final topology, and
//! full simulations under churn must stay deterministic and conserving
//! for every scheme, and an empty schedule must be observationally
//! invisible.

use proptest::prelude::*;
use spider_core::experiment::demand_graph;
use spider_core::{run_sweep, ExperimentConfig, SchemeConfig, SweepJob, TopologyConfig};
use spider_dynamics::{ChurnSchedule, DynamicsConfig};
use spider_routing::{PathCache, PathPolicy};
use spider_sim::{
    PathTable, Perturbation, SimConfig, Simulation, TopologyUpdate, Workload, WorkloadConfig,
};
use spider_tests::perturbation::{zero_intensity_changes_nothing, PlanKind};
use spider_topology::{gen, Topology};
use spider_types::{Amount, ChannelId, DetRng, NodeId, Result, SimDuration, SimTime};

/// Resolve a cache's candidate sets to node sequences (PathIds differ
/// between caches whose interning orders differ; node sequences must not).
fn resolved(
    cache: &mut PathCache,
    topo: &Topology,
    table: &PathTable,
    pairs: &[(NodeId, NodeId)],
) -> Vec<Vec<Vec<NodeId>>> {
    pairs
        .iter()
        .map(|&(s, d)| {
            cache
                .get(topo, table, s, d)
                .iter()
                .map(|&id| table.entry(id).nodes().to_vec())
                .collect()
        })
        .collect()
}

/// Folds one step's mutations — `(kind, index)` with kind 0 = close a
/// live channel, 1 = reopen one that was closed before the step, 2 =
/// resize — into the single update the engine would hand the router. A
/// step can therefore open several channels at once and mix closes with
/// opens; no channel changes state twice within one update.
fn update_for(step: &[(usize, usize)], live: &mut [bool]) -> TopologyUpdate {
    let before = live.to_vec();
    let closed_before: Vec<usize> = (0..live.len()).filter(|&c| !before[c]).collect();
    let mut update = TopologyUpdate::default();
    for &(kind, i) in step {
        let c = i % live.len();
        match kind {
            0 if before[c] && live[c] => {
                live[c] = false;
                update.closed.push(ChannelId::from_index(c));
            }
            1 if !closed_before.is_empty() => {
                let c = closed_before[i % closed_before.len()];
                if !live[c] {
                    live[c] = true;
                    update.opened.push(ChannelId::from_index(c));
                }
            }
            2 => update.resized.push(ChannelId::from_index(c)),
            // Idempotent no-op: the engine would not report it.
            _ => {}
        }
    }
    update
}

/// Candidate sets of a cold cache told the mask in one update, then
/// prewarmed — the ground truth an incremental repair must reproduce.
fn cold_rebuild(
    topo: &Topology,
    policy: PathPolicy,
    live: &[bool],
    pairs: &[(NodeId, NodeId)],
) -> Vec<Vec<Vec<NodeId>>> {
    let closed: Vec<ChannelId> = (0..live.len())
        .filter(|&c| !live[c])
        .map(ChannelId::from_index)
        .collect();
    let table = PathTable::new();
    let mut cold = PathCache::new(policy);
    cold.on_topology_change(
        topo,
        &table,
        &TopologyUpdate {
            closed,
            ..Default::default()
        },
    );
    cold.prefill(topo, &table, pairs);
    resolved(&mut cold, topo, &table, pairs)
}

proptest! {
    /// After *every* update of an arbitrary churn sequence (single and
    /// batched closes and opens, mixed updates, resizes), the
    /// incrementally-repaired cache's candidate sets (resolved to node
    /// sequences) are bit-identical to a cold cache prewarmed on the
    /// current topology — across every `PathPolicy` variant. Checking each
    /// step, not just the last, keeps a missed invalidation from being
    /// masked by a later drop of the same pair.
    #[test]
    fn incremental_repair_equals_cold_rebuild(
        seed in 0u64..1_000,
        steps in proptest::collection::vec(
            proptest::collection::vec((0usize..3, 0usize..4096), 1..5),
            1..10,
        ),
        policy_idx in 0usize..2,
    ) {
        let policy = [PathPolicy::EdgeDisjoint(4), PathPolicy::Shortest][policy_idx];
        let mut rng = DetRng::new(seed);
        let topo = gen::barabasi_albert(200, 2, Amount::from_xrp(100), &mut rng);
        let mut pairs = Vec::new();
        while pairs.len() < 150 {
            let s = NodeId(rng.index(topo.node_count()) as u32);
            let d = NodeId(rng.index(topo.node_count()) as u32);
            if s != d && !pairs.contains(&(s, d)) {
                pairs.push((s, d));
            }
        }
        let table = PathTable::new();
        let mut warm = PathCache::new(policy);
        warm.prefill(&topo, &table, &pairs);
        let mut live = vec![true; topo.channel_count()];
        // The random steps, then one forced close + reopen of a channel
        // some candidate uses, so every case exercises the open rule.
        let first = warm.get(&topo, &table, pairs[0].0, pairs[0].1)[0];
        let used = table.entry(first).hops()[0].channel();
        let mut steps = steps;
        steps.push(vec![(0, used.index())]);
        for (n, step) in steps.iter().enumerate() {
            let update = update_for(step, &mut live);
            warm.on_topology_change(&topo, &table, &update);
            prop_assert_eq!(
                resolved(&mut warm, &topo, &table, &pairs),
                cold_rebuild(&topo, policy, &live, &pairs),
                "policy {:?}, after step {} of {:?}", policy, n, steps
            );
        }
        // `used` is closed now (by the last step if not before): reopen it.
        live[used.index()] = true;
        let repaired = warm.on_topology_change(&topo, &table, &TopologyUpdate {
            opened: vec![used],
            ..Default::default()
        });
        prop_assert_eq!(
            resolved(&mut warm, &topo, &table, &pairs),
            cold_rebuild(&topo, policy, &live, &pairs),
            "policy {:?}, after the forced reopen", policy
        );
        prop_assert!(
            repaired.len() < pairs.len(),
            "an open must leave most pairs alone ({} of {})", repaired.len(), pairs.len()
        );
        // No surviving candidate traverses a closed channel.
        for &(s, d) in &pairs {
            for &id in warm.get(&topo, &table, s, d) {
                for c in table.entry(id).hops().iter().map(|hop| hop.channel()) {
                    prop_assert!(live[c.index()], "candidate over closed channel");
                }
            }
        }
    }
}

fn churn_experiment(scheme: SchemeConfig, seed: u64) -> ExperimentConfig {
    ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 2_000,
        },
        workload: WorkloadConfig::small(500, 150.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(5),
            ..SimConfig::default()
        },
        scheme,
        dynamics: Some(DynamicsConfig {
            close_rate_per_sec: 1.0,
            reopen_mean_secs: Some(1.5),
            resize_rate_per_sec: 0.5,
            node_leave_rate_per_sec: 0.2,
            spawn_fraction: 0.05,
            flap_channels: 2,
            flap_period_secs: 2.0,
            horizon_secs: 5.0,
            ..DynamicsConfig::default()
        }),
        faults: None,
        overload: None,
        seed,
    }
}

/// Every registered scheme survives a churn-heavy run with conservation
/// intact (checked inside `run()`), and the same seed reproduces the
/// same report bit for bit.
#[test]
fn all_schemes_deterministic_and_conserving_under_churn() {
    let schemes = SchemeConfig::extended_lineup();
    // Two identical jobs per scheme, fanned across cores in one sweep
    // (every job seeds independently, so scheduling cannot leak in).
    let jobs: Vec<SweepJob> = schemes
        .iter()
        .flat_map(|&s| {
            [
                SweepJob::Scheme(churn_experiment(s, 11)),
                SweepJob::Scheme(churn_experiment(s, 11)),
            ]
        })
        .collect();
    let reports = run_sweep(&jobs).expect("sweep runs");
    for pair in reports.chunks(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert_eq!(a.completed_payments, b.completed_payments, "{}", a.scheme);
        assert_eq!(a.delivered_volume, b.delivered_volume, "{}", a.scheme);
        assert_eq!(a.units_locked, b.units_locked, "{}", a.scheme);
        assert_eq!(a.units_dropped_churn, b.units_dropped_churn, "{}", a.scheme);
        assert_eq!(a.topology_events, b.topology_events, "{}", a.scheme);
        assert_eq!(
            a.topology_event_times_s, b.topology_event_times_s,
            "{}",
            a.scheme
        );
        assert!(
            a.topology_events > 0,
            "{}: churn must actually fire",
            a.scheme
        );
        assert!(
            a.attempted_payments == 500,
            "{}: full workload attempted",
            a.scheme
        );
    }
}

/// Outcomes under churn (closes, reopens, node leaves/joins, flaps) for
/// the four schemes that repair a `PathCache`, pinned to the values the
/// drop-everything-on-open cache produced: `(attempted, completed,
/// delivered drops, units locked, events executed)` on a 300-node
/// Ripple-like graph. A repair rule that keeps a pair whose candidates
/// should have changed moves these. Each scheme must also export its
/// cache counters through `Router::observability`.
#[test]
fn churn_outcomes_are_pinned_for_cache_repairing_schemes() {
    let pins = [
        (
            SchemeConfig::ShortestPath,
            (1500, 358, 3_580_000_000, 374, 1989),
        ),
        (
            SchemeConfig::SpiderWaterfilling { paths: 4 },
            (1500, 470, 4_735_000_000, 519, 2127),
        ),
        (
            SchemeConfig::SpiderPricing { paths: 4 },
            (1500, 453, 4_530_000_000, 475, 2084),
        ),
        // Only the event count moved (4045 before) when a train of units
        // crossing a hop together became one event; the outcomes did not.
        (
            SchemeConfig::spider_protocol(4),
            (1500, 377, 3_770_000_000, 406, 3973),
        ),
    ];
    for (scheme, pinned) in pins {
        let mut cfg = churn_experiment(scheme, 11);
        cfg.topology = TopologyConfig::RippleLike {
            nodes: 300,
            capacity_xrp: 150,
        };
        cfg.workload = WorkloadConfig::small(1_500, 300.0);
        // `ExperimentConfig::run`, unrolled to keep the `Simulation` (the
        // event count lives on it, not in the report).
        let rng = DetRng::new(cfg.seed);
        let topo = cfg.topology.build(&rng).expect("topology builds");
        let n = topo.node_count();
        let workload = Workload::generate(n, &cfg.workload, &mut rng.fork("workload"));
        let router = cfg.scheme.build(
            &topo,
            &demand_graph(&workload, n),
            cfg.sim.confirmation_delay.as_secs_f64(),
        );
        let mut sim =
            Simulation::new(topo, workload, router, cfg.effective_sim()).expect("sim builds");
        let dynamics = cfg.dynamics.as_ref().expect("churn configured");
        let schedule = ChurnSchedule::generate(sim.topology(), dynamics, &mut rng.fork("dynamics"))
            .expect("schedule generates");
        sim.install(Perturbation::Churn(schedule.events)).unwrap();
        let r = sim.run();
        sim.check_conservation();
        assert!(r.churn_channels_opened > 0, "{}: opens must fire", r.scheme);
        // Every one of them reports its cache's repair work.
        assert!(
            r.router_counters
                .iter()
                .any(|(k, v)| k == "path_cache_repairs" && *v > 0),
            "{}: no path_cache_repairs in {:?}",
            r.scheme,
            r.router_counters
        );
        let outcome = (
            r.attempted_payments,
            r.completed_payments,
            r.delivered_volume.drops(),
            r.units_locked,
            sim.slab_stats().events_executed,
        );
        assert_eq!(outcome, pinned, "{}", r.scheme);
    }
}

/// Churn hurts but does not zero out a repairing scheme: with moderate
/// churn, waterfilling still delivers most of what the static run does.
#[test]
fn repairing_scheme_retains_most_throughput_under_churn() {
    let scheme = SchemeConfig::SpiderWaterfilling { paths: 4 };
    let churned = churn_experiment(scheme, 3).run().expect("runs");
    let mut static_cfg = churn_experiment(scheme, 3);
    static_cfg.dynamics = None;
    let quiet = static_cfg.run().expect("runs");
    assert!(churned.delivered_volume <= quiet.delivered_volume);
    assert!(
        churned.success_volume() > 0.4 * quiet.success_volume(),
        "churned {:.3} vs quiet {:.3}",
        churned.success_volume(),
        quiet.success_volume()
    );
}

/// An empty churn schedule is observationally identical to no schedule at
/// all (the static-topology regression the determinism goldens also pin).
#[test]
fn zero_intensity_dynamics_changes_nothing() -> Result<()> {
    zero_intensity_changes_nothing(PlanKind::Churn)
}

/// The generated schedule itself is a pure function of (topology, config,
/// seed) — the piece `same seed ⇒ same report` rests on.
#[test]
fn schedule_generation_is_seed_deterministic() {
    let topo = gen::isp_topology(Amount::from_xrp(100));
    let cfg = DynamicsConfig::default();
    let a = ChurnSchedule::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    let b = ChurnSchedule::generate(&topo, &cfg, &mut DetRng::new(42)).unwrap();
    assert_eq!(a, b);
    assert!(a.events.iter().any(|e| e.at > SimTime::ZERO));
}

/// A resize range that could grow a channel past `i64::MAX` drops is a
/// config error caught before the run: a saturated capacity would
/// otherwise panic the first time the sampler signs the channel's
/// balances. The check depends on the topology alone, so one scheme of
/// each transport (lockstep, hop-by-hop) stands for all.
#[test]
fn resize_past_i64_max_is_rejected_before_the_run() {
    let churn = |scheme: SchemeConfig, range: [f64; 2]| ExperimentConfig {
        topology: TopologyConfig::Isp {
            capacity_xrp: 4_000,
        },
        workload: WorkloadConfig::small(600, 150.0),
        sim: SimConfig {
            horizon: SimDuration::from_secs(3),
            ..SimConfig::default()
        },
        scheme,
        dynamics: Some(DynamicsConfig {
            close_rate_per_sec: 0.0,
            resize_rate_per_sec: 20.0,
            resize_factor_range: range,
            node_leave_rate_per_sec: 0.0,
            spawn_fraction: 0.0,
            flap_channels: 0,
            horizon_secs: 3.0,
            ..DynamicsConfig::default()
        }),
        faults: None,
        overload: None,
        seed: 1,
    };
    for scheme in [SchemeConfig::ShortestPath, SchemeConfig::spider_protocol(4)] {
        for range in [[1e12, 1e12], [1.0, 1e300]] {
            let cfg = churn(scheme, range);
            assert!(cfg.simulation(None).is_err(), "{} {range:?}", scheme.name());
        }
        // 4,000 XRP × 2e9 = 8e18 drops stays below `i64::MAX`: the run
        // goes through.
        let r = churn(scheme, [1.0, 2e9]).run().expect("runs");
        assert!(r.topology_events > 0, "{}", scheme.name());
    }
}
