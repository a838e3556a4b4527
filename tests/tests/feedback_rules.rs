//! One table of the sender's feedback rules across the four
//! source-routed schemes: shortest-path, waterfilling, pricing and the
//! §5 protocol. Each row is (scheme, rule), checked at the router level
//! on two disjoint two-hop routes, so each scheme is held to the same
//! rule with the same inputs.

use spider_protocol::ProtocolRouter;
use spider_routing::{ShortestPath, SpiderPricing, SpiderWaterfilling};
use spider_sim::{
    ChannelState, NetworkView, PathTable, RouteRequest, Router, UnitAck, UnitOutcome,
};
use spider_topology::Topology;
use spider_types::{
    Amount, ChannelId, DropReason, MarkStamp, NodeId, PathId, PaymentId, SimDuration, SimTime,
};

/// Shed strikes on one channel that trip its breaker (the threshold of
/// `spider_routing::ChannelBreakers`).
const STRIKE_THRESHOLD: usize = 8;

/// Two disjoint two-hop routes 0 → 3, via 1 and via 2, with the state
/// every router reads.
struct Net {
    topo: Topology,
    channels: Vec<ChannelState>,
    paths: PathTable,
}

impl Net {
    fn new() -> Self {
        let mut b = Topology::builder(4);
        for (u, v) in [(0, 1), (1, 3), (0, 2), (2, 3)] {
            b.channel(NodeId(u), NodeId(v), Amount::from_xrp(2_000))
                .expect("a channel");
        }
        let topo = b.build();
        let channels = topo
            .channels()
            .map(|(_, c)| ChannelState::split_equally(c.capacity))
            .collect();
        Net {
            topo,
            channels,
            paths: PathTable::new(),
        }
    }

    fn at(&self, ms: u64) -> NetworkView<'_> {
        NetworkView {
            topo: &self.topo,
            channels: &self.channels,
            paths: &self.paths,
            now: SimTime::ZERO + SimDuration::from_millis(ms),
        }
    }

    /// The candidate that is not `path`.
    fn other(&self, path: PathId) -> PathId {
        let [via1, via2] = [1, 2].map(|via| {
            let nodes = [NodeId(0), NodeId(via), NodeId(3)];
            self.paths.intern(&self.topo, &nodes)
        });
        if path == via1 {
            via2
        } else {
            via1
        }
    }
}

/// One MTU from 0 to 3: each scheme puts it on one path.
fn request() -> RouteRequest {
    RouteRequest {
        payment: PaymentId(0),
        src: NodeId(0),
        dst: NodeId(3),
        remaining: Amount::from_xrp(1),
        total: Amount::from_xrp(1),
        mtu: Amount::from_xrp(1),
        attempt: 0,
    }
}

/// The paths of the router's next proposal at `ms`.
fn proposed(r: &mut dyn Router, net: &Net, ms: u64) -> Vec<PathId> {
    let props = r.route(&request(), &net.at(ms));
    props.iter().map(|p| p.path).collect()
}

/// The one path the router's next proposal uses at `ms`.
fn first_choice(r: &mut dyn Router, net: &Net, ms: u64, name: &str) -> PathId {
    match proposed(r, net, ms)[..] {
        [path] => path,
        ref other => panic!("{name}: expected one path at {ms} ms, got {other:?}"),
    }
}

fn outcome(path: PathId, locked: bool, fault: Option<DropReason>) -> UnitOutcome {
    UnitOutcome {
        payment: PaymentId(0),
        path,
        amount: Amount::from_xrp(1),
        units: 1,
        locked,
        fault,
    }
}

fn ack(path: PathId, reason: Option<DropReason>, channel: Option<ChannelId>) -> UnitAck {
    UnitAck {
        payment: PaymentId(0),
        path,
        amount: Amount::from_xrp(1),
        delivered: reason.is_none(),
        stamp: MarkStamp::CLEAR,
        drop_reason: reason,
        drop_channel: channel,
        rtt: SimDuration::from_millis(100),
    }
}

/// A scheme of the table: its name, a fresh router, and whether it keeps
/// shed breakers.
type Scheme = (&'static str, fn() -> Box<dyn Router>, bool);

const SCHEMES: [Scheme; 4] = [
    ("shortest-path", || Box::new(ShortestPath::new()), true),
    (
        "waterfilling",
        || Box::new(SpiderWaterfilling::new(4)),
        false,
    ),
    ("pricing", || Box::new(SpiderPricing::new(4)), false),
    ("protocol", || Box::new(ProtocolRouter::new(4)), true),
];

const MESSAGE_LOST: Option<DropReason> = Some(DropReason::MessageLost);

/// A fault outcome on the first choice keeps it out of the next proposal
/// while the other candidate is not cooling, and lets it back in once
/// both are.
fn a_fault_cools_its_path(scheme: &Scheme, net: &Net) {
    let (name, make, _) = *scheme;
    let mut r = make();
    let first = first_choice(r.as_mut(), net, 0, name);
    r.on_unit_outcome(&outcome(first, true, MESSAGE_LOST), &net.at(0));
    let next = proposed(r.as_mut(), net, 1);
    assert!(
        !next.is_empty() && !next.contains(&first),
        "{name}: a cooling first choice is passed over: {next:?}"
    );
    let second = net.other(first);
    r.on_unit_outcome(&outcome(second, true, MESSAGE_LOST), &net.at(1));
    let all_cooling = first_choice(r.as_mut(), net, 2, name);
    assert_eq!(all_cooling, first, "{name}: every candidate cooling");
}

/// A queue-timeout drop and a failed lock cool nothing: no backoff
/// counter appears.
fn congestion_cools_nothing(scheme: &Scheme, net: &Net) {
    let (name, make, _) = *scheme;
    let mut r = make();
    let first = first_choice(r.as_mut(), net, 0, name);
    r.on_unit_outcome(&outcome(first, false, None), &net.at(0));
    let timeout = ack(first, Some(DropReason::QueueTimeout), None);
    r.on_unit_ack(&timeout, &net.at(0));
    let counters = r.observability().counters;
    assert!(
        counters.iter().all(|(k, _)| !k.starts_with("backoff_")),
        "{name}: congestion started a backoff: {counters:?}"
    );
}

/// A delivered ack clears the strikes: after two faults, a delivery and a
/// third fault, the path cools for the base 250 ms only, so it is the
/// first choice again at 600 ms. Without the delivery the third fault is
/// the third strike, a 1 s cooldown.
fn a_delivery_clears_the_strikes(scheme: &Scheme, net: &Net) {
    let (name, make, _) = *scheme;
    for delivered in [true, false] {
        let mut r = make();
        let first = first_choice(r.as_mut(), net, 0, name);
        let fault = outcome(first, true, MESSAGE_LOST);
        r.on_unit_outcome(&fault, &net.at(0));
        r.on_unit_outcome(&fault, &net.at(300));
        if delivered {
            r.on_unit_outcome(&outcome(first, true, None), &net.at(310));
            r.on_unit_ack(&ack(first, None, None), &net.at(310));
        }
        r.on_unit_outcome(&fault, &net.at(320));
        let back = proposed(r.as_mut(), net, 600).contains(&first);
        assert_eq!(back, delivered, "{name}: delivered {delivered}");
    }
}

/// `STRIKE_THRESHOLD` shed acks naming a channel of the first choice:
/// shortest-path and the protocol route around it, waterfilling and
/// pricing do not (they neither feed nor consult breakers). The acks are
/// for the other path, so the protocol's price for it rises and only the
/// breaker can move it off the first choice.
fn sheds_trip_a_breaker(scheme: &Scheme, net: &Net) {
    let (name, make, breakers) = *scheme;
    let mut r = make();
    let first = first_choice(r.as_mut(), net, 0, name);
    let channel = net.paths.entry(first).hops()[0].channel();
    let shed = ack(net.other(first), Some(DropReason::Shed), Some(channel));
    for _ in 0..STRIKE_THRESHOLD {
        r.on_unit_ack(&shed, &net.at(0));
    }
    let next = proposed(r.as_mut(), net, 1);
    assert_eq!(
        !next.contains(&first),
        breakers,
        "{name}: breakers {breakers}, proposed {next:?}"
    );
}

#[test]
fn every_source_routed_scheme_keeps_the_feedback_rules() {
    let rules: [fn(&Scheme, &Net); 4] = [
        a_fault_cools_its_path,
        congestion_cools_nothing,
        a_delivery_clears_the_strikes,
        sheds_trip_a_breaker,
    ];
    for scheme in &SCHEMES {
        for rule in rules {
            rule(scheme, &Net::new());
        }
    }
}
