//! Simulation configuration.

use serde::Serialize;
use spider_obs::SamplerConfig;
use spider_types::{Amount, SimDuration, SimTime};

/// Order in which queued (incomplete, non-atomic) payments are retried.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum SchedulingPolicy {
    /// Shortest remaining processing time — smallest incomplete amount
    /// first. The paper's default: "scheduled in order of increasing
    /// incomplete payment amount, i.e. according to SRPT".
    Srpt,
    /// First-come-first-served by arrival time.
    Fifo,
    /// Most recent arrival first.
    Lifo,
    /// Earliest deadline first.
    EarliestDeadline,
    /// Largest remaining amount first (anti-SRPT, for ablations).
    LargestRemaining,
}

/// On-chain rebalancing policy (§5.2.3): routers may top up a depleted
/// channel direction with fresh on-chain funds, paying confirmation
/// latency — the `b_(u,v)` mechanism of eqs. (6)–(11) in event form.
#[derive(Debug, Clone, Serialize)]
pub struct RebalancingConfig {
    /// How often channel balances are checked for depletion.
    pub check_interval: SimDuration,
    /// A direction is "depleted" when its available balance falls below
    /// this fraction of total channel capacity.
    pub trigger_fraction: f64,
    /// Deposits top the direction back up to this fraction of capacity.
    pub target_fraction: f64,
    /// On-chain confirmation latency (blockchain delay; minutes on
    /// Bitcoin, configurable here).
    pub confirmation_delay: SimDuration,
}

impl Default for RebalancingConfig {
    fn default() -> Self {
        RebalancingConfig {
            check_interval: SimDuration::from_millis(500),
            trigger_fraction: 0.05,
            target_fraction: 0.5,
            confirmation_delay: SimDuration::from_secs(10),
        }
    }
}

/// How transaction units claim channel balance along their path.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum QueueingMode {
    /// The seed behavior: a unit locks its entire path instantly at
    /// routing time and fails immediately when any hop lacks balance.
    Lockstep,
    /// The §5 router model: units travel hop by hop and wait in
    /// per-channel FIFO queues when the outgoing direction lacks balance;
    /// routers stamp prices and marks onto transiting units.
    ///
    /// Applies to non-atomic schemes; atomic schemes (max-flow,
    /// SilentWhispers, SpeedyMurmurs) keep lockstep all-or-nothing
    /// semantics, which queueing would break.
    PerChannelFifo(QueueConfig),
}

/// Parameters of the per-channel queueing/marking model (§5).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct QueueConfig {
    /// Per-hop forwarding/processing latency once balance is available.
    pub hop_delay: SimDuration,
    /// Units whose queueing delay at a hop exceeds this are marked
    /// (the router's threshold rule on queue delay).
    pub marking_delay: SimDuration,
    /// Units are also marked when the channel's one-way flow share
    /// `(x_d − x_rev) / (x_d + x_rev)` exceeds this (the paper's
    /// imbalance term `x_u − x_v`, normalized) *and* the sending
    /// direction is close to depletion (see `depletion_fraction`).
    pub imbalance_threshold: f64,
    /// Imbalance marking fires only when the sending side's available
    /// balance is below this fraction of channel capacity: persistent
    /// one-way flow is only a congestion signal once it threatens to
    /// drain the channel.
    pub depletion_fraction: f64,
    /// A unit queued longer than this is dropped and nacked.
    pub max_queue_delay: SimDuration,
    /// Maximum units queued per channel direction; arrivals beyond this
    /// are dropped immediately.
    pub max_queue_units: usize,
    /// Weight of queueing delay (seconds) in the stamped price.
    pub queue_price_weight: f64,
    /// Weight of the normalized flow imbalance in the stamped price.
    pub imbalance_price_weight: f64,
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig {
            hop_delay: SimDuration::from_millis(10),
            marking_delay: SimDuration::from_millis(150),
            imbalance_threshold: 0.4,
            depletion_fraction: 0.2,
            max_queue_delay: SimDuration::from_millis(1_500),
            max_queue_units: 4_096,
            queue_price_weight: 1.0,
            imbalance_price_weight: 0.5,
        }
    }
}

impl QueueConfig {
    fn validate(&self) -> spider_types::Result<()> {
        use spider_types::SpiderError::InvalidConfig;
        if self.max_queue_delay.is_zero() {
            return Err(InvalidConfig("max queue delay must be positive".into()));
        }
        if self.max_queue_units == 0 {
            return Err(InvalidConfig("queue capacity must be positive".into()));
        }
        if self.marking_delay > self.max_queue_delay {
            return Err(InvalidConfig(
                "marking delay must not exceed max queue delay".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.imbalance_threshold) {
            return Err(InvalidConfig(
                "imbalance threshold must be in [0, 1]".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.depletion_fraction) {
            return Err(InvalidConfig("depletion fraction must be in [0, 1]".into()));
        }
        if self.queue_price_weight < 0.0 || self.imbalance_price_weight < 0.0 {
            return Err(InvalidConfig("price weights must be non-negative".into()));
        }
        Ok(())
    }
}

/// Sender-side admission control: a token bucket plus a global
/// queue-occupancy gate that stops payments *before* they enter any
/// queue, so under overload the network carries only what it can
/// deliver instead of letting every payment rot toward its deadline.
/// `None` (the default) leaves arrivals ungated.
///
/// Two postures toward a gated payment:
///
/// * **policing** (`defer: false`) — fail-fast with
///   `DropReason::AdmissionRejected`; the sender gives up immediately;
/// * **shaping** (`defer: true`) — the arrival is re-offered at the
///   deterministic time the bucket next has a token (deferred arrivals
///   are paced at exactly `rate_per_sec`, FIFO), so a burst spreads out
///   instead of dying. The payment's deadline runs from the deferred
///   offer — it has not entered the network while it waits.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct AdmissionConfig {
    /// Sustained admission rate of the token bucket, payments per second.
    pub rate_per_sec: f64,
    /// Token-bucket burst size (maximum tokens banked while idle).
    pub burst: f64,
    /// Policing mode only: new payments are also rejected while global
    /// queue occupancy (queued units across every channel direction, as
    /// a fraction of total queue capacity) exceeds this — the
    /// queue-gradient signal that the token rate alone cannot see.
    /// Shaping bounds intake by time, not rejection, and ignores it.
    pub max_queue_fraction: f64,
    /// Shape instead of police: defer gated arrivals to the bucket's
    /// next-token time instead of fail-fasting them.
    pub defer: bool,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            rate_per_sec: 2_000.0,
            burst: 256.0,
            max_queue_fraction: 0.5,
            defer: false,
        }
    }
}

impl AdmissionConfig {
    fn validate(&self) -> spider_types::Result<()> {
        use spider_types::SpiderError::InvalidConfig;
        if !(self.rate_per_sec.is_finite() && self.rate_per_sec > 0.0) {
            return Err(InvalidConfig("admission rate must be finite, > 0".into()));
        }
        if !(self.burst.is_finite() && self.burst >= 1.0) {
            return Err(InvalidConfig("admission burst must be finite, >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.max_queue_fraction) {
            return Err(InvalidConfig(
                "admission queue fraction must be in [0, 1]".into(),
            ));
        }
        Ok(())
    }
}

/// Observability switches (see the `spider-obs` crate).
///
/// Everything here is off by default and each switch is zero-cost when
/// disabled: tracing and profiling cost one branch per would-be record,
/// and the [`SamplerConfig`]'s scalar probes are O(channels) once per
/// cadence (the same work the legacy imbalance sampler already did).
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct ObsConfig {
    /// Record a payment-lifecycle trace
    /// ([`spider_obs::TraceSink`](spider_obs::trace::TraceSink)); collect
    /// it after the run with `Simulation::take_trace`.
    pub trace: bool,
    /// Time engine phases with monotonic clocks into
    /// [`ProfileStats`](spider_obs::ProfileStats), reported in
    /// `SimReport::profile`.
    pub profile: bool,
    /// Time-series sampling cadence and per-channel depth opt-in.
    pub sampler: SamplerConfig,
    /// Accumulate per-channel hotspot attribution
    /// ([`spider_obs::ChannelAttribution`]) — utilization/starvation/
    /// imbalance integrals advanced on the sampler cadence, plus queue
    /// residency, drop, and bottleneck counts — reduced into the
    /// `SimReport::hotspots` top-K table.
    pub attribution: bool,
    /// Keep the last N drops in a forensics flight recorder
    /// ([`spider_obs::FlightRecorder`]); collect it after the run with
    /// `Simulation::take_forensics`. `0` (the default) disables the
    /// recorder entirely.
    pub forensics_capacity: usize,
    /// Run the runtime invariant monitor every this many executed engine
    /// events, recording violations (conservation, queue bounds,
    /// unit-state legality, payment accounting) into a structured report
    /// collected with `Simulation::take_invariant_report`. `0` (the
    /// default) disables the monitor entirely; enabled or not, it never
    /// changes simulation outcomes.
    pub invariants_every: u64,
}

/// Engine parameters.
#[derive(Debug, Clone, Serialize)]
pub struct SimConfig {
    /// End-to-end confirmation delay Δ: time between locking funds along a
    /// path and the key release that settles them (paper: 0.5 s).
    pub confirmation_delay: SimDuration,
    /// How often the pending-payment queue is polled ("periodically polled
    /// to see if they can make any further progress").
    pub poll_interval: SimDuration,
    /// Maximum transaction unit: payments are packetized into units of at
    /// most this value before routing.
    pub mtu: Amount,
    /// Relative deadline applied to every payment; the un-delivered
    /// remainder is canceled when it expires. `None` = payments wait until
    /// the horizon.
    pub deadline: Option<SimDuration>,
    /// Queue scheduling policy.
    pub scheduling: SchedulingPolicy,
    /// Simulation horizon: events after this instant are not processed,
    /// matching the paper's "results collected at the end of 200 s".
    pub horizon: SimDuration,
    /// Cap on (path, amount) proposals attempted per payment per poll,
    /// bounding worst-case work for adversarial routers.
    pub max_proposals_per_poll: usize,
    /// Optional on-chain rebalancing (§5.2.3). `None` = pure off-chain
    /// operation, the paper's default evaluation mode.
    pub rebalancing: Option<RebalancingConfig>,
    /// How units claim balance along their path: instant whole-path
    /// locking (the offline-scheme model) or the §5 per-channel queues.
    pub queueing: QueueingMode,
    /// Deadline-aware load shedding (queueing mode): when a queue is
    /// full, evict the queued unit least likely to meet its deadline
    /// (with `DropReason::Shed`) instead of blindly tail-dropping the
    /// newcomer. Off by default — the seed's tail-drop behavior.
    pub shedding: bool,
    /// Sender-side admission control; `None` (the default) gates nothing.
    pub admission: Option<AdmissionConfig>,
    /// Observability: tracing, profiling, and series sampling.
    pub obs: ObsConfig,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            confirmation_delay: SimDuration::from_millis(500),
            poll_interval: SimDuration::from_millis(100),
            mtu: Amount::from_xrp(10),
            deadline: Some(SimDuration::from_secs(5)),
            scheduling: SchedulingPolicy::Srpt,
            horizon: SimDuration::from_secs(200),
            max_proposals_per_poll: 64,
            rebalancing: None,
            queueing: QueueingMode::Lockstep,
            shedding: false,
            admission: None,
            obs: ObsConfig::default(),
        }
    }
}

impl SimConfig {
    /// Validates parameter sanity; call before running.
    pub fn validate(&self) -> spider_types::Result<()> {
        use spider_types::SpiderError::InvalidConfig;
        if self.mtu.is_zero() {
            return Err(InvalidConfig("MTU must be positive".into()));
        }
        if self.poll_interval.is_zero() {
            return Err(InvalidConfig("poll interval must be positive".into()));
        }
        if self.horizon.is_zero() {
            return Err(InvalidConfig("horizon must be positive".into()));
        }
        if self.max_proposals_per_poll == 0 {
            return Err(InvalidConfig("max proposals must be positive".into()));
        }
        if let QueueingMode::PerChannelFifo(qc) = &self.queueing {
            qc.validate()?;
        }
        if let Some(adm) = &self.admission {
            adm.validate()?;
        }
        if self.obs.sampler.cadence.is_zero() {
            return Err(InvalidConfig("sampling cadence must be positive".into()));
        }
        if let Some(rb) = &self.rebalancing {
            if rb.check_interval.is_zero() {
                return Err(InvalidConfig(
                    "rebalancing interval must be positive".into(),
                ));
            }
            if !(0.0..=1.0).contains(&rb.trigger_fraction)
                || !(0.0..=1.0).contains(&rb.target_fraction)
                || rb.trigger_fraction > rb.target_fraction
            {
                return Err(InvalidConfig(
                    "rebalancing fractions must satisfy 0 <= trigger <= target <= 1".into(),
                ));
            }
        }
        // The engine adds each of these to an instant at or before the
        // horizon; every such sum must be a `SimTime`.
        let mut delays = vec![
            self.confirmation_delay,
            self.poll_interval,
            self.obs.sampler.cadence,
        ];
        delays.extend(self.deadline);
        if let Some(rb) = &self.rebalancing {
            delays.extend([rb.check_interval, rb.confirmation_delay]);
        }
        if let QueueingMode::PerChannelFifo(qc) = &self.queueing {
            delays.extend([qc.hop_delay, qc.max_queue_delay]);
        }
        let end = SimTime::ZERO + self.horizon;
        if delays.into_iter().any(|d| end.checked_add(d).is_none()) {
            return Err(InvalidConfig(
                "delays added to the run horizon must fit in SimTime".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        assert_eq!(c.confirmation_delay, SimDuration::from_millis(500));
        assert_eq!(c.scheduling, SchedulingPolicy::Srpt);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_zeroes() {
        let broken = [
            SimConfig {
                mtu: Amount::ZERO,
                ..SimConfig::default()
            },
            SimConfig {
                poll_interval: SimDuration::ZERO,
                ..SimConfig::default()
            },
            SimConfig {
                horizon: SimDuration::ZERO,
                ..SimConfig::default()
            },
            SimConfig {
                max_proposals_per_poll: 0,
                ..SimConfig::default()
            },
            SimConfig {
                admission: Some(AdmissionConfig {
                    rate_per_sec: 0.0,
                    ..AdmissionConfig::default()
                }),
                ..SimConfig::default()
            },
            SimConfig {
                admission: Some(AdmissionConfig {
                    max_queue_fraction: 1.5,
                    ..AdmissionConfig::default()
                }),
                ..SimConfig::default()
            },
        ];
        for c in broken {
            assert!(c.validate().is_err());
        }
    }
}
