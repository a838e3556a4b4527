//! Measurement: the paper's two headline metrics plus supporting detail.
//!
//! * **Success ratio** — completed payments / attempted payments;
//! * **Success volume** — delivered value / attempted value (partial
//!   deliveries of non-atomic payments count their delivered part).

use serde::Serialize;
use spider_obs::{ChannelHotspot, Histogram, ProfileStats, SampleSet};
use spider_types::{Amount, DropReason, SimDuration, SimTime};

/// Per-[`DropReason`] counts of units dropped in transit.
///
/// Every dropped unit carries exactly one reason, so
/// [`DropBreakdown::total`] always equals
/// [`SimReport::units_dropped`] — the drop-reason conservation law the
/// integration tests assert, including under churn.
///
/// Exhaustiveness is enforced by the compiler: `count` matches every
/// `DropReason` variant with no wildcard arm, so adding a variant without
/// extending the breakdown fails to build rather than silently leaking
/// drops out of the conservation law.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct DropBreakdown {
    /// Units that waited in a router queue past the configured bound.
    pub queue_timeout: u64,
    /// Units that found a full queue mid-path.
    pub queue_overflow: u64,
    /// Units whose payment's deadline passed in flight.
    pub expired: u64,
    /// Units failed back because a channel on their path closed.
    pub channel_closed: u64,
    /// Units whose forwarding message (or ack) was lost to fault
    /// injection; the hop timeout refunded them.
    pub message_lost: u64,
    /// Units silently held by a hop (stuck) until the hop timeout fired.
    pub hop_timeout: u64,
    /// Units dropped because a node on their path crashed.
    pub node_crashed: u64,
    /// Units evicted by deadline-aware overload shedding.
    pub shed: u64,
    /// Payments fail-fasted by sender-side admission control.
    pub admission_rejected: u64,
}

impl DropBreakdown {
    /// Sum over all reasons.
    pub fn total(&self) -> u64 {
        self.queue_timeout
            + self.queue_overflow
            + self.expired
            + self.channel_closed
            + self.message_lost
            + self.hop_timeout
            + self.node_crashed
            + self.shed
            + self.admission_rejected
    }

    /// Sum over the fault-injected reasons only (see
    /// [`DropReason::is_fault`]).
    pub fn fault_total(&self) -> u64 {
        self.message_lost + self.hop_timeout + self.node_crashed
    }

    /// Counts one drop.
    fn count(&mut self, reason: DropReason) {
        match reason {
            DropReason::QueueTimeout => self.queue_timeout += 1,
            DropReason::QueueOverflow => self.queue_overflow += 1,
            DropReason::Expired => self.expired += 1,
            DropReason::ChannelClosed => self.channel_closed += 1,
            DropReason::MessageLost => self.message_lost += 1,
            DropReason::HopTimeout => self.hop_timeout += 1,
            DropReason::NodeCrashed => self.node_crashed += 1,
            DropReason::Shed => self.shed += 1,
            DropReason::AdmissionRejected => self.admission_rejected += 1,
        }
    }
}

/// Aggregated results of one simulation run.
#[derive(Debug, Clone, Default, Serialize)]
pub struct SimReport {
    /// Routing scheme name.
    pub scheme: String,
    /// Payments injected.
    pub attempted_payments: u64,
    /// Payments fully delivered.
    pub completed_payments: u64,
    /// Total value injected.
    pub attempted_volume: Amount,
    /// Total value settled end-to-end (includes partial deliveries).
    pub delivered_volume: Amount,
    /// Total value of fully completed payments — the goodput numerator.
    /// Excludes partial deliveries of payments that never finished, so
    /// under overload this is what separates useful work from waste.
    pub completed_volume: Amount,
    /// Arrivals the shaping admission gate (`AdmissionConfig::defer`)
    /// pushed to a later slot instead of rejecting. Deferral is not a
    /// drop: the payment is re-offered and counted once on admission.
    pub admission_deferred: u64,
    /// Transaction units whose path lock succeeded.
    pub units_locked: u64,
    /// Transaction units that failed to lock (insufficient balance) in
    /// attempts actually made — see [`SimReport::retries`].
    pub units_failed: u64,
    /// Re-attempts actually made from the pending queue. A poll does not
    /// re-offer a payment whose router pinned it to one path
    /// ([`Router::pins_single_path`](crate::Router::pins_single_path))
    /// while that path cannot carry the payment's smallest chunk: the
    /// attempt would lock nothing, so neither it nor its failed units
    /// are counted. Outcomes are unaffected; this counter and
    /// `units_failed` measure work done, not polls elapsed.
    pub retries: u64,
    /// Sum of hop counts over all locked units (for average path length).
    pub unit_hops_sum: u64,
    /// Fresh funds deposited by on-chain rebalancing (0 when disabled).
    pub onchain_deposited: Amount,
    /// Number of on-chain rebalancing operations.
    pub rebalance_ops: u64,
    /// Unit acknowledgements delivered to the sender (§5 queueing mode
    /// only): one per accepted unit, whether it settled or dropped.
    pub units_acked: u64,
    /// Units marked by router price signaling (§5 queueing mode only).
    pub units_marked: u64,
    /// Units dropped in transit: queue timeout, queue overflow mid-path,
    /// or payment expiry (§5 queueing mode), plus churn failbacks in
    /// either mode — always ≥ [`SimReport::units_dropped_churn`].
    pub units_dropped: u64,
    /// Units that waited in at least one router queue before settling or
    /// dropping.
    pub units_queued: u64,
    /// Topology-churn events that actually changed something (idempotent
    /// no-ops excluded; `t = 0` initial-state events excluded).
    pub topology_events: u64,
    /// Channel open → closed transitions applied by churn.
    pub churn_channels_closed: u64,
    /// Channel closed → open transitions applied by churn.
    pub churn_channels_opened: u64,
    /// Channel capacity resizes applied by churn.
    pub churn_channels_resized: u64,
    /// In-flight units failed back because a channel on their path closed
    /// (both engine modes).
    pub units_dropped_churn: u64,
    /// Payments that lost at least one in-flight unit to a channel close
    /// and never completed — the headline disruption count.
    pub payments_failed_churn: u64,
    /// Mid-run fault-plan events applied (node crash/recover toggles).
    pub fault_events: u64,
    /// Injected transport faults: lost forwarding messages, lost acks,
    /// stuck units, and crash intercepts of in-flight units. A single
    /// unit counts at most once.
    pub faults_injected: u64,
    /// Units dropped with a fault [`DropReason`] (`MessageLost`,
    /// `HopTimeout`, `NodeCrashed`); always equals
    /// `drops_by_reason.fault_total()` and ≤ [`SimReport::units_dropped`].
    pub units_dropped_fault: u64,
    /// Instants (seconds) of the applied mid-run churn events, for
    /// recovery-time analysis against [`SimReport::throughput_series`]
    /// (see [`SimReport::churn_recovery_times`]).
    pub topology_event_times_s: Vec<f64>,
    /// Total queueing delay accumulated across all hops of all units (s).
    pub queue_delay_sum_s: f64,
    /// Completion times of fully delivered payments, seconds.
    pub completion_times: Vec<f64>,
    /// Delivered volume per 1-second bucket (throughput time series).
    pub throughput_series: Vec<f64>,
    /// Dropped-unit counts broken down by [`DropReason`];
    /// `drops_by_reason.total() == units_dropped` always.
    pub drops_by_reason: DropBreakdown,
    /// Payment completion latencies (seconds).
    pub latency_hist: Histogram,
    /// Per-hop queueing delays of serviced units (seconds; §5 queueing
    /// mode).
    pub queue_delay_hist: Histogram,
    /// Hop counts of successfully locked units.
    pub path_length_hist: Histogram,
    /// Live AIMD window sizes (XRP) at end of run, for window-capable
    /// schemes; empty otherwise.
    pub window_hist: Histogram,
    /// Scheme-internal counters (cache hits/misses/prefills/repairs…),
    /// name-value pairs in a scheme-defined but deterministic order.
    pub router_counters: Vec<(String, u64)>,
    /// Every sampled time series, index-aligned on one cadence (see
    /// [`spider_obs::SERIES_NAMES`] and the accessor methods below).
    pub samples: SampleSet,
    /// Engine phase timing (all zeros unless profiling was enabled).
    pub profile: ProfileStats,
    /// Top-K channel hotspots by attribution score, sorted by descending
    /// score with ascending channel id as tie-break; empty unless
    /// [`ObsConfig::attribution`](crate::config::ObsConfig) was on.
    pub hotspots: Vec<ChannelHotspot>,
    /// Wall-clock-free simulated horizon actually processed.
    pub horizon: SimDuration,
}

impl SimReport {
    /// Completed / attempted payments (the paper's success ratio), in 0..=1.
    pub fn success_ratio(&self) -> f64 {
        if self.attempted_payments == 0 {
            0.0
        } else {
            self.completed_payments as f64 / self.attempted_payments as f64
        }
    }

    /// Delivered / attempted volume (the paper's success volume), in 0..=1.
    pub fn success_volume(&self) -> f64 {
        self.delivered_volume.ratio(self.attempted_volume)
    }

    /// Goodput: completed-payment volume per simulated second (XRP/s).
    /// Partial deliveries of payments that never completed are excluded —
    /// under overload they are waste, not goodput.
    pub fn goodput_xrp_per_sec(&self) -> f64 {
        self.completed_volume.as_xrp() / self.horizon.as_secs_f64().max(f64::MIN_POSITIVE)
    }

    /// Mean completion time of completed payments (seconds).
    pub fn avg_completion_time(&self) -> Option<f64> {
        spider_types::stats::mean(&self.completion_times)
    }

    /// Average hops per successfully locked unit.
    pub fn avg_path_length(&self) -> Option<f64> {
        (self.units_locked > 0).then(|| self.unit_hops_sum as f64 / self.units_locked as f64)
    }

    /// Fraction of acknowledged units that came back marked (§5 queueing
    /// mode): the congestion signal senders react to.
    pub fn marking_rate(&self) -> f64 {
        if self.units_acked == 0 {
            0.0
        } else {
            self.units_marked as f64 / self.units_acked as f64
        }
    }

    /// Mean per-unit total queueing delay in seconds, over units that
    /// queued at least once. `None` when nothing queued.
    pub fn avg_queue_delay(&self) -> Option<f64> {
        (self.units_queued > 0).then(|| self.queue_delay_sum_s / self.units_queued as f64)
    }

    /// Network-wide mean absolute channel imbalance
    /// (`|fwd − bwd| / capacity` ∈ [0, 1]) per sampling instant — the
    /// quantity imbalance-aware routing tries to keep small.
    pub fn imbalance_series(&self) -> &[f64] {
        self.samples.series("imbalance")
    }

    /// Total transaction units resident in router queues per sampling
    /// instant (§5 queueing mode; all zeros in lockstep mode).
    pub fn queue_occupancy_series(&self) -> &[f64] {
        self.samples.series("queue_occupancy")
    }

    /// Per-channel queue depths (both directions summed) per sampling
    /// instant — empty unless the sampler's `queue_depths` switch was on
    /// (see [`ObsConfig`](crate::config::ObsConfig)). Outer index:
    /// sample; inner index: [`ChannelId`](spider_types::ChannelId).
    pub fn queue_depth_series(&self) -> &[Vec<u32>] {
        &self.samples.queue_depths
    }

    /// Per-churn-event recovery time: for each entry of
    /// `topology_event_times_s`, the seconds until per-second delivered
    /// throughput first returns to `threshold` × its pre-event baseline
    /// (the mean over the `baseline_window_s` seconds before the event).
    /// `None` when throughput never recovers within the recorded series;
    /// `Some(0.0)` when the event caused no dip (or nothing was flowing
    /// before it).
    pub fn churn_recovery_times(
        &self,
        baseline_window_s: usize,
        threshold: f64,
    ) -> Vec<Option<f64>> {
        let series = &self.throughput_series;
        self.topology_event_times_s
            .iter()
            .map(|&te| {
                let t = te as usize;
                let lo = t.saturating_sub(baseline_window_s.max(1));
                let window = &series[lo.min(series.len())..t.min(series.len())];
                let baseline = spider_types::stats::mean(window).unwrap_or(0.0);
                if baseline <= 0.0 {
                    return Some(0.0);
                }
                let target = threshold * baseline;
                // The event's own bucket is mostly pre-event volume (te is
                // rarely integral); the first bucket that can witness
                // recovery is the first one entirely after the event.
                let start = te.ceil() as usize;
                (start..series.len())
                    .find(|&s| series[s] >= target)
                    .map(|s| (s as f64 - te).max(0.0))
            })
            .collect()
    }

    /// Fraction of unit lock attempts that succeeded.
    pub fn unit_lock_rate(&self) -> f64 {
        let total = self.units_locked + self.units_failed;
        if total == 0 {
            0.0
        } else {
            self.units_locked as f64 / total as f64
        }
    }

    /// One-line summary for harness output.
    pub fn summary(&self) -> String {
        format!(
            "{:<22} success_ratio={:6.2}% success_volume={:6.2}% completed={}/{} delivered={:.0}/{:.0} XRP",
            self.scheme,
            100.0 * self.success_ratio(),
            100.0 * self.success_volume(),
            self.completed_payments,
            self.attempted_payments,
            self.delivered_volume.as_xrp(),
            self.attempted_volume.as_xrp(),
        )
    }
}

/// Streaming collector used by the engine: it records straight into the
/// report it finishes.
#[derive(Debug, Clone, Default)]
pub struct MetricsCollector {
    report: SimReport,
    /// Locked units per hop count, folded into
    /// [`SimReport::path_length_hist`] by [`MetricsCollector::finish`]:
    /// a count per unit instead of a histogram record.
    path_lengths: Vec<u64>,
}

impl MetricsCollector {
    /// Fresh collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an injected payment.
    pub fn payment_arrived(&mut self, amount: Amount) {
        self.report.attempted_payments += 1;
        self.report.attempted_volume += amount;
    }

    /// Records an arrival deferred by the shaping admission gate.
    pub fn admission_deferred(&mut self) {
        self.report.admission_deferred += 1;
    }

    /// Records a settled unit (value delivered end-to-end).
    pub fn unit_settled(&mut self, amount: Amount, at: SimTime) {
        self.units_settled(amount, 1, at);
    }

    /// Records `n` units of `amount` each settled at `at`; equivalent to
    /// `n` calls to [`MetricsCollector::unit_settled`]. The throughput
    /// bucket is looked up once but still takes `n` additions: a sum of
    /// `f64`s is not one product.
    pub fn units_settled(&mut self, amount: Amount, n: u64, at: SimTime) {
        if n == 0 {
            return;
        }
        self.report.delivered_volume += amount * n;
        let bucket = at.as_secs_f64() as usize;
        if self.report.throughput_series.len() <= bucket {
            self.report.throughput_series.resize(bucket + 1, 0.0);
        }
        let (slot, xrp) = (&mut self.report.throughput_series[bucket], amount.as_xrp());
        for _ in 0..n {
            *slot += xrp;
        }
    }

    /// Records a fully completed payment with its total value and latency.
    pub fn payment_completed(&mut self, amount: Amount, latency: SimDuration) {
        self.report.completed_payments += 1;
        self.report.completed_volume += amount;
        let secs = latency.as_secs_f64();
        self.report.completion_times.push(secs);
        self.report.latency_hist.record(secs);
    }

    /// Records a unit lock success (with its hop count) or failure.
    pub fn unit_lock(&mut self, hops: usize, success: bool) {
        if success {
            self.units_locked(hops, 1);
        } else {
            self.report.units_failed += 1;
        }
    }

    /// Records `n` units locked along paths of `hops` hops; equivalent to
    /// `n` calls to [`MetricsCollector::unit_lock`] with `success = true`.
    pub fn units_locked(&mut self, hops: usize, n: u64) {
        self.report.units_locked += n;
        self.report.unit_hops_sum += hops as u64 * n;
        if self.path_lengths.len() <= hops {
            self.path_lengths.resize(hops + 1, 0);
        }
        self.path_lengths[hops] += n;
    }

    /// Records `n` failed unit locks at once (the full-MTU units a
    /// batched lock never tries); equivalent to `n` calls to
    /// [`MetricsCollector::unit_lock`] with `success = false`.
    pub fn unit_lock_failures(&mut self, n: u64) {
        self.report.units_failed += n;
    }

    /// Records one pending-queue retry.
    pub fn retry(&mut self) {
        self.report.retries += 1;
    }

    /// Records an on-chain rebalancing deposit.
    pub fn rebalanced(&mut self, amount: Amount) {
        self.report.onchain_deposited += amount;
        self.report.rebalance_ops += 1;
    }

    /// Records a unit acknowledgement's marking state (queueing mode).
    pub fn unit_acked(&mut self, marked: bool) {
        self.report.units_acked += 1;
        if marked {
            self.report.units_marked += 1;
        }
    }

    /// Records a unit dropped in transit with its (mandatory) reason —
    /// per-reason counts must sum to the drop total.
    pub fn unit_dropped(&mut self, reason: DropReason) {
        self.report.units_dropped += 1;
        self.report.drops_by_reason.count(reason);
    }

    /// Records one hop's queueing delay for a serviced unit; `first_wait`
    /// is true the first time this particular unit waited in any queue.
    pub fn unit_queued(&mut self, delay_s: f64, first_wait: bool) {
        if first_wait {
            self.report.units_queued += 1;
        }
        self.report.queue_delay_sum_s += delay_s;
        self.report.queue_delay_hist.record(delay_s);
    }

    /// Records one applied mid-run topology-churn event: how many channels
    /// it closed / opened / resized, and when it fired.
    pub fn topology_event(&mut self, closed: usize, opened: usize, resized: usize, at: SimTime) {
        self.report.topology_events += 1;
        self.report.churn_channels_closed += closed as u64;
        self.report.churn_channels_opened += opened as u64;
        self.report.churn_channels_resized += resized as u64;
        self.report.topology_event_times_s.push(at.as_secs_f64());
    }

    /// Records channel-liveness transitions applied before the run starts
    /// (`t = 0` schedule entries) — counted in the churn totals but not as
    /// mid-run events.
    pub fn initial_topology_state(&mut self, closed: usize, opened: usize, resized: usize) {
        self.report.churn_channels_closed += closed as u64;
        self.report.churn_channels_opened += opened as u64;
        self.report.churn_channels_resized += resized as u64;
    }

    /// Records an in-flight unit failed back by a channel close.
    pub fn unit_dropped_churn(&mut self) {
        self.report.units_dropped_churn += 1;
    }

    /// Records the final count of payments that lost a unit to churn and
    /// never completed.
    pub fn payments_failed_churn(&mut self, count: u64) {
        self.report.payments_failed_churn = count;
    }

    /// Records one applied fault-plan event (a node crash or recovery).
    pub fn fault_event(&mut self) {
        self.report.fault_events += 1;
    }

    /// Records one injected per-unit transport fault (lost message, lost
    /// ack, stuck unit, or crash intercept).
    pub fn fault_injected(&mut self) {
        self.report.faults_injected += 1;
    }

    /// Installs the router's end-of-run observability snapshot: internal
    /// counters and live AIMD window sizes (the latter feed
    /// [`SimReport::window_hist`]).
    pub fn set_router_obs(&mut self, obs: crate::router::RouterObs) {
        for w in &obs.windows_xrp {
            self.report.window_hist.record(*w);
        }
        self.report.router_counters = obs.counters;
    }

    /// Installs the run's sampled time series.
    pub fn set_samples(&mut self, samples: SampleSet) {
        self.report.samples = samples;
    }

    /// Installs the run's phase-timing stats.
    pub fn set_profile(&mut self, profile: ProfileStats) {
        self.report.profile = profile;
    }

    /// Installs the attribution layer's top-K hotspot table.
    pub fn set_hotspots(&mut self, hotspots: Vec<ChannelHotspot>) {
        self.report.hotspots = hotspots;
    }

    /// Finalizes into a report.
    pub fn finish(self, scheme: &str, horizon: SimDuration) -> SimReport {
        let mut report = self.report;
        // Hop counts are small integers, so every partial sum is exact
        // and the histogram is the one per-unit records would build.
        for (hops, &n) in self.path_lengths.iter().enumerate() {
            report.path_length_hist.record_n(hops as f64, n);
        }
        report.scheme = scheme.to_string();
        report.horizon = horizon;
        report.units_dropped_fault = report.drops_by_reason.fault_total();
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios() {
        let mut m = MetricsCollector::new();
        m.payment_arrived(Amount::from_xrp(10));
        m.payment_arrived(Amount::from_xrp(30));
        m.unit_settled(Amount::from_xrp(10), SimTime::from_secs(1));
        m.payment_completed(Amount::from_xrp(10), SimDuration::from_millis(700));
        m.unit_settled(Amount::from_xrp(15), SimTime::from_secs(2));
        let r = m.finish("test", SimDuration::from_secs(10));
        assert_eq!(r.attempted_payments, 2);
        assert_eq!(r.completed_payments, 1);
        assert!((r.success_ratio() - 0.5).abs() < 1e-12);
        assert!((r.success_volume() - 25.0 / 40.0).abs() < 1e-12);
        // Goodput counts only the completed payment's 10 XRP over the
        // 10 s horizon — the partially delivered 15 XRP is waste.
        assert_eq!(r.completed_volume, Amount::from_xrp(10));
        assert!((r.goodput_xrp_per_sec() - 1.0).abs() < 1e-12);
        assert_eq!(r.avg_completion_time(), Some(0.7));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = MetricsCollector::new().finish("empty", SimDuration::from_secs(1));
        assert_eq!(r.success_ratio(), 0.0);
        assert_eq!(r.success_volume(), 0.0);
        assert_eq!(r.avg_completion_time(), None);
        assert_eq!(r.avg_path_length(), None);
        assert_eq!(r.unit_lock_rate(), 0.0);
    }

    #[test]
    fn throughput_buckets_accumulate() {
        let mut m = MetricsCollector::new();
        m.unit_settled(Amount::from_xrp(5), SimTime::from_secs_f64(0.2));
        m.unit_settled(Amount::from_xrp(7), SimTime::from_secs_f64(0.9));
        m.unit_settled(Amount::from_xrp(1), SimTime::from_secs_f64(2.5));
        let r = m.finish("b", SimDuration::from_secs(3));
        assert_eq!(r.throughput_series.len(), 3);
        assert!((r.throughput_series[0] - 12.0).abs() < 1e-12);
        assert_eq!(r.throughput_series[1], 0.0);
        assert!((r.throughput_series[2] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn units_settled_adds_like_one_settle_per_unit() {
        // Amounts no power of two divides: repeated f64 additions round,
        // so `n` additions differ from one product; the counted form must
        // make exactly the additions the unit-by-unit form makes.
        let amounts = [
            Amount::from_drops(100_000),
            Amount::from_drops(3_333_333),
            Amount::from_drops(7_100_001),
            Amount::from_drops(10_000_000),
            Amount::from_drops(1),
        ];
        let (mut counted, mut one_by_one) = (MetricsCollector::new(), MetricsCollector::new());
        for (i, &a) in amounts.iter().cycle().take(40).enumerate() {
            let n = 1 + (i as u64 * 7) % 23;
            let at = SimTime::from_micros(i as u64 * 377_000);
            counted.units_settled(a, n, at);
            for _ in 0..n {
                one_by_one.unit_settled(a, at);
            }
        }
        counted.units_settled(Amount::from_drops(5), 0, SimTime::from_secs(60));
        let (a, b) = (
            counted.finish("c", SimDuration::from_secs(20)),
            one_by_one.finish("u", SimDuration::from_secs(20)),
        );
        assert_eq!(a.delivered_volume, b.delivered_volume);
        let bits = |s: &[f64]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.throughput_series), bits(&b.throughput_series));
        let product = amounts[0].as_xrp() * 10.0;
        let sum = (0..10).fold(0.0, |s, _| s + amounts[0].as_xrp());
        assert_ne!(product.to_bits(), sum.to_bits(), "the amounts must round");
    }

    #[test]
    fn lock_stats() {
        let mut m = MetricsCollector::new();
        m.unit_lock(3, true);
        m.unit_lock(2, true);
        m.unit_lock(5, false);
        m.retry();
        let r = m.finish("l", SimDuration::from_secs(1));
        assert_eq!(r.units_locked, 2);
        assert_eq!(r.units_failed, 1);
        assert_eq!(r.retries, 1);
        assert_eq!(r.avg_path_length(), Some(2.5));
        assert!((r.unit_lock_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn recovery_time_reads_the_throughput_series() {
        let mut m = MetricsCollector::new();
        // Steady 10 XRP/s for 5 s, a churn event at t = 5 knocks
        // throughput to 2 for two seconds, recovery at t = 7.
        for (t, x) in [10.0, 10.0, 10.0, 10.0, 10.0, 2.0, 2.0, 9.5, 10.0]
            .into_iter()
            .enumerate()
        {
            m.unit_settled(Amount::from_xrp_f64(x), SimTime::from_secs(t as u64));
        }
        m.topology_event(1, 0, 0, SimTime::from_secs(5));
        let r = m.finish("t", SimDuration::from_secs(9));
        assert_eq!(r.topology_events, 1);
        assert_eq!(r.churn_channels_closed, 1);
        let rec = r.churn_recovery_times(3, 0.9);
        assert_eq!(rec, vec![Some(2.0)]);
        // An unrecoverable dip reports None.
        let mut m = MetricsCollector::new();
        for (t, x) in [10.0, 10.0, 1.0, 1.0].into_iter().enumerate() {
            m.unit_settled(Amount::from_xrp_f64(x), SimTime::from_secs(t as u64));
        }
        m.topology_event(1, 0, 0, SimTime::from_secs(2));
        let r = m.finish("t", SimDuration::from_secs(4));
        assert_eq!(r.churn_recovery_times(2, 0.9), vec![None]);
    }

    #[test]
    fn summary_contains_scheme() {
        let r = MetricsCollector::new().finish("spider-wf", SimDuration::from_secs(1));
        assert!(r.summary().contains("spider-wf"));
    }

    #[test]
    fn drop_reasons_sum_to_total() {
        let mut m = MetricsCollector::new();
        m.unit_dropped(DropReason::QueueTimeout);
        m.unit_dropped(DropReason::QueueTimeout);
        m.unit_dropped(DropReason::QueueOverflow);
        m.unit_dropped(DropReason::Expired);
        m.unit_dropped(DropReason::ChannelClosed);
        m.unit_dropped(DropReason::MessageLost);
        m.unit_dropped(DropReason::MessageLost);
        m.unit_dropped(DropReason::HopTimeout);
        m.unit_dropped(DropReason::NodeCrashed);
        m.unit_dropped(DropReason::Shed);
        m.unit_dropped(DropReason::Shed);
        m.unit_dropped(DropReason::AdmissionRejected);
        let r = m.finish("d", SimDuration::from_secs(1));
        assert_eq!(r.units_dropped, 12);
        assert_eq!(r.drops_by_reason.queue_timeout, 2);
        assert_eq!(r.drops_by_reason.queue_overflow, 1);
        assert_eq!(r.drops_by_reason.expired, 1);
        assert_eq!(r.drops_by_reason.channel_closed, 1);
        assert_eq!(r.drops_by_reason.message_lost, 2);
        assert_eq!(r.drops_by_reason.hop_timeout, 1);
        assert_eq!(r.drops_by_reason.node_crashed, 1);
        assert_eq!(r.drops_by_reason.shed, 2);
        assert_eq!(r.drops_by_reason.admission_rejected, 1);
        assert_eq!(r.drops_by_reason.total(), r.units_dropped);
        assert_eq!(r.drops_by_reason.fault_total(), 4);
        assert_eq!(r.units_dropped_fault, 4);
    }

    #[test]
    fn histograms_mirror_the_scalar_aggregates() {
        let mut m = MetricsCollector::new();
        m.payment_completed(Amount::from_xrp(1), SimDuration::from_millis(700));
        m.payment_completed(Amount::from_xrp(1), SimDuration::from_millis(300));
        m.unit_lock(3, true);
        m.unit_lock(4, true);
        m.unit_lock(2, false);
        m.unit_queued(0.05, true);
        m.unit_queued(0.10, false);
        let r = m.finish("h", SimDuration::from_secs(1));
        assert_eq!(r.latency_hist.count, r.completed_payments);
        assert!((r.latency_hist.sum - 1.0).abs() < 1e-9);
        assert_eq!(r.path_length_hist.count, r.units_locked);
        assert!((r.path_length_hist.sum - r.unit_hops_sum as f64).abs() < 1e-9);
        // Queue-delay histogram counts hops, not units.
        assert_eq!(r.queue_delay_hist.count, 2);
        assert_eq!(r.units_queued, 1);
        assert!((r.queue_delay_hist.sum - r.queue_delay_sum_s).abs() < 1e-12);
    }

    #[test]
    fn router_obs_feeds_counters_and_window_hist() {
        let mut m = MetricsCollector::new();
        m.set_router_obs(crate::router::RouterObs {
            counters: vec![
                ("cache_hits".to_string(), 10),
                ("cache_misses".to_string(), 2),
            ],
            windows_xrp: vec![40.0, 55.0, 10.0],
        });
        let r = m.finish("w", SimDuration::from_secs(1));
        assert_eq!(r.router_counters[0], ("cache_hits".to_string(), 10));
        assert_eq!(r.window_hist.count, 3);
        assert_eq!(r.window_hist.max, 55.0);
    }

    #[test]
    fn series_accessors_read_the_sample_set() {
        let mut m = MetricsCollector::new();
        let mut s = spider_obs::Sampler::new(spider_obs::SamplerConfig::default());
        s.push_row([0.25, 7.0, 1.0, 2.0, 0.0, 0.0]);
        m.set_samples(s.finish());
        let r = m.finish("s", SimDuration::from_secs(1));
        assert_eq!(r.imbalance_series(), &[0.25]);
        assert_eq!(r.queue_occupancy_series(), &[7.0]);
        assert!(r.queue_depth_series().is_empty());
    }
}
