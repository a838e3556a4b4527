//! The observability sinks and the one hook per sink the handlers call.
//!
//! Every sink is optional ([`ObsConfig`]); a disabled one costs its hook
//! a single branch, and no event value is built for a trace that is off.

use super::core::Net;
use super::Simulation;
use crate::channel::ChannelState;
use crate::config::ObsConfig;
use crate::metrics::MetricsCollector;
use crate::monitor::{InvariantMonitor, InvariantReport};
use crate::paths::PathEntry;
use spider_obs::sampler::SAMPLE_CADENCE;
use spider_obs::trace::TraceEventKind;
use spider_obs::{
    ChannelAttribution, ChannelSample, DropRecord, FlightRecorder, Profiler, Sampler, Trace,
    TraceSink, HOTSPOT_K, NUM_SERIES,
};
use spider_types::{ChannelId, Direction, DropReason, PathId, SimTime};

/// All observation state of one run.
pub(super) struct Obs {
    /// Payment-lifecycle trace sink ([`ObsConfig::trace`]).
    trace: Option<TraceSink>,
    /// Per-channel hotspot accumulators ([`ObsConfig::attribution`]).
    attribution: Option<ChannelAttribution>,
    /// Drop-forensics flight recorder
    /// ([`ObsConfig::forensics_capacity`] > 0).
    forensics: Option<FlightRecorder>,
    /// Runtime invariant monitor ([`ObsConfig::invariants_every`] > 0).
    monitor: Option<InvariantMonitor>,
    /// Engine phase timers (zero-cost when disabled).
    pub(super) profiler: Profiler,
    /// Unified series sampler (see [`spider_obs::SERIES_NAMES`]).
    sampler: Sampler,
    /// Next time a series sample is due (once per sampler cadence).
    next_sample: SimTime,
}

impl Obs {
    pub(super) fn new(cfg: &ObsConfig, n_channels: usize) -> Self {
        Obs {
            trace: cfg.trace.then(TraceSink::new),
            attribution: cfg.attribution.then(|| ChannelAttribution::new(n_channels)),
            forensics: (cfg.forensics_capacity > 0)
                .then(|| FlightRecorder::new(cfg.forensics_capacity)),
            monitor: (cfg.invariants_every > 0)
                .then(|| InvariantMonitor::new(cfg.invariants_every)),
            profiler: Profiler::new(cfg.profile),
            sampler: Sampler::new(cfg.sampler.clone()),
            next_sample: SimTime::ZERO,
        }
    }

    /// The trace hook: records `event()`, which is evaluated only while
    /// tracing.
    #[inline]
    pub(super) fn trace(&mut self, now: SimTime, event: impl FnOnce() -> TraceEventKind) {
        if let Some(t) = self.trace.as_mut() {
            t.record(now.micros(), event());
        }
    }

    /// [`Obs::trace`] for `n` identical records in a row: `event()` is
    /// evaluated once, and only while tracing.
    #[inline]
    pub(super) fn trace_n(&mut self, now: SimTime, n: u64, event: impl FnOnce() -> TraceEventKind) {
        if let Some(t) = self.trace.as_mut().filter(|_| n > 0) {
            let kind = event();
            for _ in 0..n {
                t.record(now.micros(), kind.clone());
            }
        }
    }

    /// Attribution feed: a unit waited `secs` in `channel`'s queue.
    #[inline]
    pub(super) fn queue_wait(&mut self, channel: ChannelId, secs: f64) {
        if let Some(attr) = self.attribution.as_mut() {
            attr.queue_wait(channel.index(), secs);
        }
    }

    /// Attribution feed: `units` units delivered over `entry` in one run;
    /// charges each the path's binding constraint — minimum post-settle
    /// availability in the traversed direction, lowest id on ties. A
    /// settle credits only the direction opposite each hop it crosses,
    /// so on a path that crosses no channel both ways (every path an
    /// in-tree router proposes) each unit of the run reads what the run's
    /// end leaves: one lookup serves them all.
    #[inline]
    pub(super) fn bottleneck(&mut self, entry: &PathEntry, channels: &[ChannelState], units: u64) {
        if let Some(attr) = self.attribution.as_mut() {
            let bottleneck = entry
                .hops()
                .iter()
                .map(|hop| {
                    (
                        channels[hop.channel().index()].available(hop.direction()),
                        hop.channel().0,
                    )
                })
                .min();
            if let Some((_, c)) = bottleneck {
                attr.bottleneck(c as usize, units);
            }
        }
    }

    /// Advances the attribution time integrals to `now`, one
    /// [`ChannelSample`] per channel in dense-id order.
    fn attribution_step(&mut self, net: &Net) {
        let Some(attr) = self.attribution.as_mut() else {
            return;
        };
        attr.integrate(
            net.now.as_secs_f64(),
            net.channels.iter().map(|ch| {
                let cap = ch.capacity().drops().max(1) as f64;
                let fwd = ch.available(Direction::Forward);
                let bwd = ch.available(Direction::Backward);
                let locked = ch
                    .capacity()
                    .drops()
                    .saturating_sub(fwd.drops())
                    .saturating_sub(bwd.drops());
                ChannelSample {
                    closed: ch.is_closed(),
                    util_frac: locked as f64 / cap,
                    at_zero: fwd.is_zero() || bwd.is_zero(),
                    imbalance_frac: ch.imbalance().drops().unsigned_abs() as f64 / cap,
                }
            }),
        );
    }

    /// Seals the sampler, profiler and attribution into the metrics at the
    /// end of a run (closing the final attribution segment first).
    pub(super) fn finish(&mut self, cfg: &ObsConfig, net: &Net, metrics: &mut MetricsCollector) {
        let sampler = std::mem::replace(&mut self.sampler, Sampler::new(cfg.sampler.clone()));
        metrics.set_samples(sampler.finish());
        metrics.set_profile(self.profiler.finish());
        self.attribution_step(net);
        if let Some(attr) = &self.attribution {
            metrics.set_hotspots(attr.finish(HOTSPOT_K));
        }
    }
}

impl Simulation {
    /// Records one drop everywhere drops are observed — the report's
    /// per-reason counter, the failing hop's attribution, the forensics
    /// ring and the trace — so a counted drop cannot miss its forensic
    /// record. `channel` is the failing hop, or `None` for whole-path
    /// failures with no single failing hop. Its forensic record states
    /// the hop's balances in canonical channel orientation: `balances`
    /// (forward, backward, in drops) when the caller gives them, its live
    /// ones otherwise.
    pub(super) fn record_drop(
        &mut self,
        payment: usize,
        path: PathId,
        channel: Option<ChannelId>,
        balances: Option<[u64; 2]>,
        reason: DropReason,
        event: impl FnOnce() -> TraceEventKind,
    ) {
        self.metrics.unit_dropped(reason);
        let obs = &mut self.obs;
        if let (Some(c), Some(attr)) = (channel, obs.attribution.as_mut()) {
            attr.drop_at(c.index());
        }
        if let Some(rec) = obs.forensics.as_mut() {
            let [bal_fwd, bal_rev] = channel.map_or([0, 0], |c| {
                let ch = &self.net.channels[c.index()];
                let live = [Direction::Forward, Direction::Backward].map(|d| ch.balance(d).drops());
                balances.unwrap_or(live)
            });
            rec.record(DropRecord {
                t_us: self.net.now.micros(),
                payment: payment as u64,
                path: path.0 as u64,
                channel: channel.map(|c| c.0),
                bal_fwd_drops: bal_fwd,
                bal_rev_drops: bal_rev,
                attempts: self.payments[payment].attempts,
                reason,
            });
        }
        obs.trace(self.net.now, event);
    }

    /// Time-series telemetry and the attribution integrals, once per
    /// sampling cadence (default 1 s; attribution gets a final catch-up
    /// segment at the end of the run).
    pub(super) fn sample_if_due(&mut self) {
        if self.net.now < self.obs.next_sample {
            return;
        }
        let t0 = self.obs.profiler.start();
        // One row of every registered time series (see
        // [`spider_obs::SERIES_NAMES`] for the schema). Queue-dependent
        // probes report zero under lockstep queueing, where no
        // per-channel queues exist.
        let channels = &self.net.channels;
        let mut row = [0.0f64; NUM_SERIES];
        // imbalance: mean |channel imbalance| / capacity.
        let mut sum = 0.0;
        for ch in channels {
            let cap = ch.capacity().drops().max(1) as f64;
            sum += ch.imbalance().drops().unsigned_abs() as f64 / cap;
        }
        row[0] = sum / channels.len().max(1) as f64;
        if let Some(q) = &self.queueing {
            q.sample(channels, &mut row);
        }
        // calendar_events: live calendar population.
        row[3] = self.events.stats().live_events as f64;
        // window_sum_xrp: router-reported AIMD window gauge, if any.
        row[4] = self.router.window_gauge().unwrap_or(0.0);
        self.obs.sampler.push_row(row);
        if let Some(q) = &self.queueing {
            if self.obs.sampler.wants_queue_depths() {
                self.obs.sampler.push_queue_depths(q.queue_depths());
            }
        }
        self.obs.attribution_step(&self.net);
        self.obs.profiler.stop(spider_obs::Phase::Sampling, t0);
        self.obs.next_sample = self.net.now + SAMPLE_CADENCE;
    }

    /// Advances the invariant monitor one executed event (one branch when
    /// it is off), running a full sweep (see [`crate::monitor`]) when one
    /// is due: conservation, queue bounds, unit-state legality, payment
    /// accounting. The sweep only reads engine state, so monitored and
    /// unmonitored runs produce bit-identical reports.
    pub(super) fn monitor_step(&mut self) {
        let Some(mon) = self.obs.monitor.as_mut() else {
            return;
        };
        if !mon.step_due() {
            return;
        }
        mon.note_check();
        let t_us = self.net.now.micros();
        // Conservation: available + in-flight = escrowed capacity.
        for (i, ch) in self.net.channels.iter().enumerate() {
            if ch.total() != ch.capacity() {
                let (total, cap) = (ch.total().drops(), ch.capacity().drops());
                let what = format!("channel {i}: total {total} drops != capacity {cap} drops");
                mon.record(t_us, "conservation", what);
            }
        }
        if let Some(q) = &self.queueing {
            q.audit(mon, t_us);
        }
        // Payment accounting: delivered + inflight never exceeds the
        // payment total, and completion implies full delivery.
        for (pid, p) in self.payments.iter().enumerate() {
            let (delivered, inflight, total) =
                (p.delivered.drops(), p.inflight.drops(), p.total.drops());
            if delivered + inflight > total {
                let what = format!(
                    "payment {pid}: delivered {delivered} + inflight {inflight} > total {total} drops"
                );
                mon.record(t_us, "payment_accounting", what);
            }
            if p.completed && p.delivered != p.total {
                let what = format!("payment {pid}: completed but not fully delivered");
                mon.record(t_us, "payment_accounting", what);
            }
        }
    }

    /// Takes the payment-lifecycle trace recorded by the run (when
    /// [`ObsConfig::trace`](crate::config::ObsConfig) was set), resolving
    /// every referenced [`PathId`] to its node list. Call once, after
    /// [`Simulation::run`]; subsequent calls (and untraced runs) return
    /// `None`.
    pub fn take_trace(&mut self) -> Option<Trace> {
        let sink = self.obs.trace.take()?;
        let paths = &self.net.paths;
        Some(
            sink.finish_named(|id| {
                paths.map_entry(id, |e| e.nodes().iter().map(|n| n.0).collect())
            }),
        )
    }

    /// Takes the drop-forensics flight recorder (when
    /// [`ObsConfig::forensics_capacity`](crate::config::ObsConfig) was
    /// nonzero). Call once, after [`Simulation::run`]; subsequent calls
    /// (and runs without forensics) return `None`.
    pub fn take_forensics(&mut self) -> Option<FlightRecorder> {
        self.obs.forensics.take()
    }

    /// Takes the runtime invariant monitor's report (when
    /// [`ObsConfig::invariants_every`](crate::config::ObsConfig) was
    /// nonzero). Call once, after [`Simulation::run`]; subsequent calls
    /// (and unmonitored runs) return `None`.
    pub fn take_invariant_report(&mut self) -> Option<InvariantReport> {
        self.obs.monitor.take().map(InvariantMonitor::finish)
    }
}
