use super::test_util::{new_sim, xrp, Direct};
use super::Simulation;
use crate::config::{RebalancingConfig, SimConfig};
use crate::workload::{TxnSpec, Workload};
use spider_topology::gen;
use spider_types::{Amount, NodeId, SimTime};

/// One-way traffic that exceeds the channel's one-side funds: without
/// rebalancing it stalls at 5 XRP; with rebalancing the chain refills
/// the sender side and everything ships.
fn one_way_workload() -> Workload {
    Workload {
        txns: (0..10)
            .map(|i| TxnSpec {
                time: SimTime::from_secs(1 + 4 * i),
                src: NodeId(0),
                dst: NodeId(1),
                amount: xrp(1),
            })
            .collect(),
    }
}

fn config(rebalancing: Option<RebalancingConfig>) -> SimConfig {
    SimConfig {
        horizon: spider_types::SimDuration::from_secs(60),
        deadline: Some(spider_types::SimDuration::from_secs(30)),
        rebalancing,
        ..SimConfig::default()
    }
}

#[test]
fn without_rebalancing_dag_traffic_stalls() {
    let t = gen::line(2, xrp(10)); // 5 XRP per side
    let mut sim = new_sim(t, one_way_workload(), Box::new(Direct), config(None));
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.delivered_volume, xrp(5));
    assert_eq!(r.rebalance_ops, 0);
    assert_eq!(r.onchain_deposited, Amount::ZERO);
}

#[test]
fn rebalancing_lifts_dag_traffic() {
    let t = gen::line(2, xrp(10));
    let rb = RebalancingConfig {
        check_interval: spider_types::SimDuration::from_millis(500),
        trigger_fraction: 0.2,
        target_fraction: 0.5,
        confirmation_delay: spider_types::SimDuration::from_secs(1),
    };
    let mut sim = new_sim(t, one_way_workload(), Box::new(Direct), config(Some(rb)));
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.delivered_volume, xrp(10), "all one-way traffic ships");
    assert!(r.rebalance_ops > 0);
    assert!(
        r.onchain_deposited >= xrp(4),
        "deposited {}",
        r.onchain_deposited
    );
}

#[test]
fn deposits_grow_capacity_consistently() {
    let t = gen::line(2, xrp(10));
    let rb = RebalancingConfig::default();
    let mut sim = Simulation::new(
        t,
        one_way_workload(),
        Box::new(Direct),
        config(Some(RebalancingConfig {
            confirmation_delay: spider_types::SimDuration::from_secs(1),
            trigger_fraction: 0.3,
            ..rb
        })),
    )
    .expect("test topology and config are valid");
    let r = sim.run();
    sim.check_conservation();
    let ch = &sim.channel_states()[0];
    assert_eq!(ch.capacity(), xrp(10) + r.onchain_deposited);
}

#[test]
fn no_duplicate_inflight_deposits() {
    // Trigger instantly but confirm slowly: only one deposit per
    // direction may be pending at a time.
    let t = gen::line(2, xrp(10));
    let rb = RebalancingConfig {
        check_interval: spider_types::SimDuration::from_millis(100),
        trigger_fraction: 0.45,
        target_fraction: 0.5,
        confirmation_delay: spider_types::SimDuration::from_secs(50),
    };
    let mut sim = new_sim(t, one_way_workload(), Box::new(Direct), config(Some(rb)));
    let r = sim.run();
    sim.check_conservation();
    // At most one settle per direction fits in the horizon.
    assert!(r.rebalance_ops <= 2, "ops {}", r.rebalance_ops);
}

#[test]
fn invalid_rebalancing_config_rejected() {
    let cfg = SimConfig {
        rebalancing: Some(RebalancingConfig {
            trigger_fraction: 0.9,
            target_fraction: 0.5,
            ..RebalancingConfig::default()
        }),
        ..SimConfig::default()
    };
    assert!(cfg.validate().is_err());
}
