//! Topology churn: live channel open/close/resize mid-run.

use super::Simulation;
use crate::router::TopologyUpdate;
use spider_obs::trace::TraceEventKind;
use spider_types::{ChannelId, Direction, TopologyChange};

impl Simulation {
    /// Applies one scheduled churn event: mutate the channel states, fail
    /// back in-flight units crossing closed channels, then notify the
    /// router (which repairs its candidate caches incrementally).
    pub(super) fn on_topology_event(&mut self, i: usize) {
        let change = self.topo_events[i].change;
        let mut update = TopologyUpdate::default();
        self.apply_topology_change(change, &mut update, true);
        if update.is_empty() {
            // Idempotent no-op (e.g. closing an already-closed channel).
            return;
        }
        let (closed, opened, resized) = (
            update.closed.len(),
            update.opened.len(),
            update.resized.len(),
        );
        self.metrics
            .topology_event(closed, opened, resized, self.net.now);
        self.obs
            .trace(self.net.now, || TraceEventKind::TopologyChanged {
                closed: closed as u32,
                opened: opened as u32,
                resized: resized as u32,
            });
        self.router.on_topology_change(&update, &self.net.view());
        if !self.hop_by_hop() {
            self.retry_queue.forget_pins();
        }
    }

    /// Applies one [`TopologyChange`], recording what actually toggled in
    /// `update`. `failback` is false only for `t = 0` initial-state
    /// application, when nothing can be in flight.
    pub(super) fn apply_topology_change(
        &mut self,
        change: TopologyChange,
        update: &mut TopologyUpdate,
        failback: bool,
    ) {
        match change {
            TopologyChange::ChannelClose { channel } => {
                self.close_channel(channel, update, failback)
            }
            TopologyChange::ChannelOpen { channel } => self.open_channel(channel, update),
            TopologyChange::ChannelResize {
                channel,
                new_capacity,
            } => {
                let ch = &mut self.net.channels[channel.index()];
                let (deposited, withdrawn) = ch.resize(new_capacity);
                if deposited.is_zero() && withdrawn.is_zero() {
                    return;
                }
                let closed = ch.is_closed();
                update.resized.push(channel);
                self.trace_channel(channel);
                // Fresh balance may unblock queued units.
                if !deposited.is_zero() && !closed {
                    self.drain_both_directions(channel);
                }
            }
            TopologyChange::NodeLeave { node } => {
                for c in self.incident_channels(node) {
                    self.close_channel(c, update, failback);
                }
            }
            TopologyChange::NodeJoin { node } => {
                for c in self.incident_channels(node) {
                    self.open_channel(c, update);
                }
            }
        }
    }

    /// Traces a churn change of `channel`: its state after it.
    fn trace_channel(&mut self, channel: ChannelId) {
        let ch = &self.net.channels[channel.index()];
        self.obs
            .trace(self.net.now, || TraceEventKind::ChannelUpdated {
                channel,
                closed: ch.is_closed(),
                capacity: ch.capacity(),
                fwd: ch.balance(Direction::Forward),
                bwd: ch.balance(Direction::Backward),
            });
    }

    fn incident_channels(&self, node: spider_types::NodeId) -> Vec<ChannelId> {
        let adjacent = self.net.topo.neighbors(node);
        adjacent.iter().map(|a| a.channel).collect()
    }

    fn drain_both_directions(&mut self, channel: ChannelId) {
        self.drain_released([
            (channel, Direction::Forward),
            (channel, Direction::Backward),
        ]);
    }

    /// Closes a channel and fails back every in-flight unit whose path
    /// traverses it: hop-by-hop units are dropped wherever they are
    /// (queued or mid-path) with every locked hop refunded; lockstep
    /// units have their pending settlement canceled and refunded. Either
    /// way the value returns to the payment's unassigned pool (atomic
    /// payments cancel outright), so conservation holds at every instant.
    fn close_channel(&mut self, channel: ChannelId, update: &mut TopologyUpdate, failback: bool) {
        let ch = &mut self.net.channels[channel.index()];
        if ch.is_closed() {
            return;
        }
        ch.close();
        update.closed.push(channel);
        self.trace_channel(channel);
        if !failback {
            return;
        }
        if self.hop_by_hop() {
            self.fail_back_units(channel.index());
        } else {
            self.fail_back_settles(channel);
        }
    }

    /// Reopens a closed channel; its frozen balances become spendable
    /// again and its directions are drained in case senders are waiting.
    fn open_channel(&mut self, channel: ChannelId, update: &mut TopologyUpdate) {
        let ch = &mut self.net.channels[channel.index()];
        if !ch.is_closed() {
            return;
        }
        ch.reopen();
        update.opened.push(channel);
        self.trace_channel(channel);
        self.drain_both_directions(channel);
    }
}
