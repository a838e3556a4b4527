use super::test_util::{new_sim, shortest_path_proposal, txn, xrp, Direct};
use super::Perturbation;
use crate::config::{QueueConfig, SimConfig};
use crate::router::{NetworkView, RouteProposal, RouteRequest, Router, TopologyUpdate};
use crate::workload::Workload;
use spider_topology::{gen, Topology};
use spider_types::{
    Amount, ChannelId, Direction, NodeId, SimDuration, SimTime, TopologyChange, TopologyEvent,
};

/// `(closed, opened)` channel lists of one recorded notification.
type RecordedUpdate = (Vec<ChannelId>, Vec<ChannelId>);

/// Records topology-change notifications for assertions.
struct ChangeRecorder {
    updates: std::rc::Rc<std::cell::RefCell<Vec<RecordedUpdate>>>,
}
impl Router for ChangeRecorder {
    fn name(&self) -> &'static str {
        "change-recorder"
    }
    fn route(&mut self, req: &RouteRequest, view: &NetworkView<'_>) -> Vec<RouteProposal> {
        shortest_path_proposal(req, view)
    }
    fn on_topology_change(&mut self, update: &TopologyUpdate, _view: &NetworkView<'_>) {
        self.updates
            .borrow_mut()
            .push((update.closed.clone(), update.opened.clone()));
    }
}

fn close_at(t_ms: u64, c: u32) -> TopologyEvent {
    TopologyEvent {
        at: SimTime::from_micros(t_ms * 1000),
        change: TopologyChange::ChannelClose {
            channel: ChannelId(c),
        },
    }
}

fn open_at(t_ms: u64, c: u32) -> TopologyEvent {
    TopologyEvent {
        at: SimTime::from_micros(t_ms * 1000),
        change: TopologyChange::ChannelOpen {
            channel: ChannelId(c),
        },
    }
}

#[test]
fn lockstep_close_fails_back_inflight_and_blocks_traffic() {
    // Payment locks at t=100ms; the only channel closes at t=300ms,
    // before the 500ms settle: the unit must refund, the payment
    // expire at its deadline, and conservation hold throughout.
    let t = gen::line(2, xrp(10));
    let mut cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        deadline: Some(SimDuration::from_secs(2)),
        ..SimConfig::default()
    };
    cfg.mtu = xrp(5);
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(100, 0, 1, xrp(3))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![close_at(300, 0)]))
        .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.completed_payments, 0);
    assert_eq!(r.delivered_volume, Amount::ZERO);
    assert_eq!(r.topology_events, 1);
    assert_eq!(r.churn_channels_closed, 1);
    assert_eq!(r.units_dropped_churn, 1);
    assert_eq!(r.drops_by_reason.channel_closed, 1);
    assert_eq!(r.drops_by_reason.total(), r.units_dropped);
    assert_eq!(r.payments_failed_churn, 1);
    assert!(sim.channel_states()[0].is_closed());
    assert_eq!(
        sim.channel_states()[0].inflight(Direction::Forward),
        Amount::ZERO,
        "failback refunded the lock"
    );
}

#[test]
fn lockstep_close_fails_back_every_unit_of_a_batch() {
    // As above with three 1-XRP units settling as one batch: the close
    // drops, counts and records each unit, each record taken after that
    // unit's own refund.
    let mut cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        deadline: Some(SimDuration::from_secs(2)),
        mtu: xrp(1),
        ..SimConfig::default()
    };
    cfg.obs.forensics_capacity = 16;
    let mut sim = new_sim(
        gen::line(2, xrp(10)),
        Workload {
            txns: vec![txn(100, 0, 1, xrp(3))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![close_at(300, 0)]))
        .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.units_locked, 3);
    assert_eq!(r.units_dropped_churn, 3);
    assert_eq!(r.drops_by_reason.channel_closed, 3);
    assert_eq!(r.drops_by_reason.total(), r.units_dropped);
    let forensics = sim.take_forensics().expect("forensics was on");
    let seen: Vec<_> = forensics
        .records()
        .map(|d| (d.channel, d.bal_fwd_drops))
        .collect();
    // 5 XRP per side, 3 locked forward: each refund returns one.
    let xrp_drops = |x| xrp(x).drops();
    assert_eq!(
        seen,
        [3, 4, 5].map(|x| (Some(0), xrp_drops(x))),
        "one record per unit"
    );
}

#[test]
fn reopen_restores_service_and_flap_is_counted() {
    // Close 400ms..1s; a payment arriving at 500ms retries from the
    // pending queue and completes after the reopen.
    let t = gen::line(2, xrp(10));
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        deadline: Some(SimDuration::from_secs(5)),
        ..SimConfig::default()
    };
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(500, 0, 1, xrp(2))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![
        close_at(400, 0),
        open_at(1_000, 0),
    ]))
    .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.completed_payments, 1, "service resumes after reopen");
    assert!(r.retries > 0, "the closed window forces retries");
    assert_eq!(r.topology_events, 2);
    assert_eq!(r.churn_channels_opened, 1);
    assert!(!sim.channel_states()[0].is_closed());
}

#[test]
fn queueing_close_drops_queued_and_traveling_units() {
    // Wide first hop, narrow second: units queue at hop 1 holding
    // hop-0 locks; closing channel 1 mid-run must fail them all back.
    let mut b = Topology::builder(3);
    b.channel(NodeId(0), NodeId(1), xrp(20))
        .expect("channel endpoints are distinct known nodes");
    b.channel(NodeId(1), NodeId(2), xrp(10))
        .expect("channel endpoints are distinct known nodes");
    let t = b.build();
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(5),
        mtu: xrp(1),
        deadline: None,
        queueing: crate::config::QueueingMode::PerChannelFifo(QueueConfig {
            max_queue_delay: SimDuration::from_secs(3_600),
            ..QueueConfig::default()
        }),
        ..SimConfig::default()
    };
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(0, 0, 2, xrp(8))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![close_at(700, 1)]))
        .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.delivered_volume, xrp(5), "only pre-close units settle");
    assert!(r.units_dropped_churn > 0, "queued units failed back");
    assert_eq!(sim.queued_units(), 0, "the closed channel's queue drained");
    for c in sim.channel_states() {
        assert_eq!(c.inflight(Direction::Forward), Amount::ZERO);
        assert_eq!(c.inflight(Direction::Backward), Amount::ZERO);
    }
    // Reason accounting under churn: close-drops carry ChannelClosed
    // and the per-reason counts still partition the total.
    assert_eq!(r.drops_by_reason.total(), r.units_dropped);
    assert_eq!(
        r.drops_by_reason.channel_closed, r.units_dropped_churn,
        "churn drops all carry the ChannelClosed reason"
    );
}

#[test]
fn resize_event_grows_capacity_midrun() {
    let t = gen::line(2, xrp(10));
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        deadline: Some(SimDuration::from_secs(6)),
        ..SimConfig::default()
    };
    // 8 XRP wants to cross a 5-XRP side; the resize to 30 XRP at t=1s
    // deposits enough for the remainder to complete on retry.
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(0, 0, 1, xrp(8))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![TopologyEvent {
        at: SimTime::from_secs(1),
        change: TopologyChange::ChannelResize {
            channel: ChannelId(0),
            new_capacity: xrp(30),
        },
    }]))
    .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.completed_payments, 1);
    assert_eq!(r.churn_channels_resized, 1);
    assert_eq!(sim.channel_states()[0].capacity(), xrp(30));
}

#[test]
fn node_leave_closes_all_incident_channels_and_join_reopens() {
    // Line 0-1-2: node 1 leaving severs everything.
    let t = gen::line(3, xrp(10));
    let updates = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
    let router = ChangeRecorder {
        updates: std::rc::Rc::clone(&updates),
    };
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(8),
        deadline: Some(SimDuration::from_secs(6)),
        ..SimConfig::default()
    };
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(1_500, 0, 2, xrp(2))],
        },
        Box::new(router),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![
        TopologyEvent {
            at: SimTime::from_secs(1),
            change: TopologyChange::NodeLeave { node: NodeId(1) },
        },
        TopologyEvent {
            at: SimTime::from_secs(3),
            change: TopologyChange::NodeJoin { node: NodeId(1) },
        },
    ]))
    .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.completed_payments, 1, "completes after the rejoin");
    assert_eq!(r.churn_channels_closed, 2);
    assert_eq!(r.churn_channels_opened, 2);
    let got = updates.borrow();
    assert_eq!(got.len(), 2);
    assert_eq!(got[0].0.len(), 2, "leave closed both incident channels");
    assert_eq!(got[1].1.len(), 2, "join reopened both");
}

#[test]
fn initial_closes_apply_before_prewarm_without_counting_as_events() {
    // Channel closed at t=0 (a mid-run spawn): traffic fails until the
    // open event, and the t=0 slice is not a mid-run topology event.
    let t = gen::line(2, xrp(10));
    let cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        deadline: Some(SimDuration::from_secs(4)),
        ..SimConfig::default()
    };
    let mut sim = new_sim(
        t,
        Workload {
            txns: vec![txn(100, 0, 1, xrp(2))],
        },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![close_at(0, 0), open_at(2_000, 0)]))
        .unwrap();
    let r = sim.run();
    sim.check_conservation();
    assert_eq!(r.completed_payments, 1);
    assert_eq!(r.topology_events, 1, "only the open is a mid-run event");
    assert_eq!(r.churn_channels_closed, 1);
    assert_eq!(r.churn_channels_opened, 1);
}

#[test]
fn churn_close_cost_follows_in_flight_work() {
    // Thousands of pending settles spread across the ISP graph, three
    // mid-run closes: each close walks the event slab once, and the slab
    // holds in-flight work only, so the closes together examine at most
    // three slab high-water marks — far below the total work scheduled.
    let t = gen::isp_topology(xrp(100_000));
    let mut rng = spider_types::DetRng::new(23);
    let w = Workload::generate(
        32,
        &crate::workload::WorkloadConfig::small(12_000, 2_000.0),
        &mut rng,
    );
    let mut cfg = SimConfig {
        horizon: SimDuration::from_secs(10),
        ..SimConfig::default()
    };
    // Multi-unit payments: a close fails back whole settle batches.
    cfg.mtu = xrp(1);
    let mut sim = new_sim(t, w, Box::new(Direct), cfg);
    sim.install(Perturbation::Churn(vec![
        close_at(500, 3),
        close_at(700, 11),
        close_at(900, 27),
    ]))
    .unwrap();
    let r = sim.run();
    sim.check_conservation();
    let stats = sim.slab_stats();
    assert_eq!(r.topology_events, 3);
    assert!(r.units_dropped_churn > 0, "no close met in-flight work");
    assert!(
        stats.events_scheduled > 20_000,
        "needs a busy calendar: {stats:?}"
    );
    assert!(
        stats.churn_scan_steps > 0 && stats.churn_scan_steps <= 3 * stats.event_slots as u64,
        "a close examined more than the slab: {stats:?}"
    );
    assert!(
        stats.churn_scan_steps < stats.events_scheduled / 4,
        "close cost grew with total events: {stats:?}"
    );
}

#[test]
fn churn_runs_are_deterministic() {
    let mut rng = spider_types::DetRng::new(17);
    let w = Workload::generate(
        32,
        &crate::workload::WorkloadConfig::small(1_500, 400.0),
        &mut rng,
    );
    let events = vec![
        close_at(500, 3),
        close_at(900, 20),
        open_at(1_400, 3),
        TopologyEvent {
            at: SimTime::from_secs(2),
            change: TopologyChange::NodeLeave { node: NodeId(5) },
        },
        open_at(2_600, 20),
        TopologyEvent {
            at: SimTime::from_secs(3),
            change: TopologyChange::NodeJoin { node: NodeId(5) },
        },
    ];
    let run = |w: Workload| {
        let mut cfg = SimConfig {
            horizon: SimDuration::from_secs(6),
            ..SimConfig::default()
        };
        cfg.mtu = xrp(5);
        let mut sim = new_sim(gen::isp_topology(xrp(400)), w, Box::new(Direct), cfg);
        sim.install(Perturbation::Churn(events.clone())).unwrap();
        let r = sim.run();
        sim.check_conservation();
        r
    };
    let r1 = run(w.clone());
    let r2 = run(w);
    assert_eq!(r1.completed_payments, r2.completed_payments);
    assert_eq!(r1.delivered_volume, r2.delivered_volume);
    assert_eq!(r1.units_dropped_churn, r2.units_dropped_churn);
    assert_eq!(r1.payments_failed_churn, r2.payments_failed_churn);
    assert_eq!(r1.topology_event_times_s, r2.topology_event_times_s);
    assert!(r1.units_dropped_churn > 0 || r1.retries > 0);
}

#[test]
#[should_panic(expected = "the plan was generated for a different topology")]
fn schedule_for_a_larger_graph_is_refused_at_install() {
    // A 3-node line has channels 0 and 1; the schedule names channel 5.
    let cfg = SimConfig::default();
    let mut sim = new_sim(
        gen::line(3, xrp(10)),
        Workload { txns: Vec::new() },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![
        close_at(1_000, 1),
        close_at(2_000, 5),
    ]))
    .unwrap();
}

#[test]
#[should_panic(expected = "the plan was generated for a different topology")]
fn node_event_for_a_larger_graph_is_refused_at_install() {
    let cfg = SimConfig::default();
    let mut sim = new_sim(
        gen::line(3, xrp(10)),
        Workload { txns: Vec::new() },
        Box::new(Direct),
        cfg,
    );
    sim.install(Perturbation::Churn(vec![TopologyEvent {
        at: SimTime::from_secs(1),
        change: TopologyChange::NodeLeave { node: NodeId(3) },
    }]))
    .unwrap();
}

/// A fault plan fitted to the channel count but crashing a node the
/// topology lacks: installing it used to pass, and the crash then
/// indexed past the engine's per-node state when it fired.
#[test]
#[should_panic(expected = "the plan was generated for a different topology")]
fn crash_of_a_node_the_graph_lacks_is_refused_at_install() {
    let mut sim = new_sim(
        gen::line(3, xrp(10)),
        Workload { txns: Vec::new() },
        Box::new(Direct),
        SimConfig::default(),
    );
    let mut plan = spider_faults::FaultPlan::generate(
        &gen::line(3, xrp(10)),
        &spider_faults::FaultConfig::default(),
        &mut spider_types::DetRng::new(1),
    )
    .unwrap();
    plan.events = vec![spider_faults::FaultEvent {
        at: SimTime::from_secs(1),
        change: spider_faults::FaultChange::NodeCrash { node: NodeId(3) },
    }];
    sim.install(Perturbation::Faults(plan)).unwrap();
}
