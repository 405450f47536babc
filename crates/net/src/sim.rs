//! The deterministic discrete-event packet engine.
//!
//! Single-threaded by construction: events process in
//! `(cycle, insertion sequence)` order, so simultaneous events process
//! in insertion order and every run is a pure function of its inputs.
//! The pending events sit in an `EventQueue` with three FIFO lanes,
//! one per constant delay — packet arrivals (`latency_cycles` after
//! serialization ends), retransmission timers (`timeout_cycles` after
//! arming) and full-packet serializations — plus a heap for the
//! events whose delay varies: partial-packet serializations, acks
//! (their delay grows with the route's hop count) and background
//! injections (each source has its own period). Because the clock
//! never runs backwards and sequence numbers only grow, each lane is
//! sorted as pushed, and taking the smallest head among the lanes and
//! the heap pops exactly the `(cycle, seq)` order of one heap of every
//! event, at O(1) for the lane events that make up most of a round.
//! See the crate docs for the link, switching, flow, and background
//! models this engine implements.
//!
//! Conservation invariant (asserted by the workspace property suite):
//! for every link, *offered* bytes equal *delivered* plus *dropped*
//! plus *still queued* — a packet being serialized keeps occupying its
//! queue bytes until transmission completes, and a packet refused by a
//! full drop-tail queue is counted both offered and dropped at that
//! link.

use crate::allreduce::StepFlow;
use crate::fabric::Fabric;
use crate::queue::EventQueue;
use crate::report::{LinkReport, RoundOutcome};
use crate::spec::{InterconnectSpec, SwitchPolicy, MAX_DELAY_CYCLES};
use std::collections::{BTreeMap, VecDeque};

/// Hard ceiling on processed events per round — a runaway-retransmission
/// backstop far above any configured round: the `fleet_256` benchmark
/// round (256 devices, 128 ring participants) processes 6.26 M events
/// and the quick `allreduce` sweep cells 0.41–1.49 M. On hit, surviving
/// flows abort and the outcome is flagged `truncated`.
const EVENT_CAP: u64 = 50_000_000;

// While a flow is active its latest retransmission timer is pending,
// so each processed event advances the clock by at most
// `timeout_cycles` and every event lands at most one more delay later.
// `InterconnectSpec::validate` bounds each delay by
// `MAX_DELAY_CYCLES`, so no cycle sum in a round can overflow. The one
// unbounded delay, a background comb's period, saturates instead.
const _: () = assert!((EVENT_CAP as u128 + 1) * MAX_DELAY_CYCLES as u128 <= u64::MAX as u128);

// Lanes of the event queue, one per constant delay.
const ARRIVE_LANE: usize = 0;
const TIMEOUT_LANE: usize = 1;
const TX_DONE_LANE: usize = 2;

#[derive(Debug, Clone, Copy)]
enum Packet {
    Flow { flow: u32, seq: u32, bytes: u32, hop: u16 },
    /// Background packets travel one hop; `injected` prices their
    /// queueing delay on arrival.
    Background { bytes: u32, injected: u64 },
}

impl Packet {
    fn bytes(&self) -> u64 {
        match *self {
            Packet::Flow { bytes, .. } | Packet::Background { bytes, .. } => u64::from(bytes),
        }
    }
}

/// A pending event: 16 bytes, so a queue entry with its
/// `(time, seq)` key takes 32.
#[derive(Debug)]
enum Event {
    TxDone { link: u32 },
    Arrive(Packet),
    Ack { flow: u32, cum: u32 },
    Timeout { flow: u32, generation: u32 },
    BgInject { source: u32 },
}

#[derive(Debug, Default)]
struct LinkState {
    queue: VecDeque<Packet>,
    queued_bytes: u64,
    in_flight: Option<Packet>,
    paused: bool,
    pause_started: u64,
    /// Packets parked in this link's PFC headroom, each with the
    /// upstream link it paused.
    pfc_waiting: VecDeque<(u32, Packet)>,
    blocked_flows: VecDeque<u32>,
    offered_bytes: u64,
    delivered_bytes: u64,
    dropped_bytes: u64,
    dropped_packets: u64,
    busy_cycles: u64,
    peak_queue_bytes: u64,
    pfc_pause_cycles: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlowFate {
    Active,
    Done,
    Aborted,
}

#[derive(Debug)]
struct Flow {
    route: Vec<usize>,
    total_bytes: u64,
    total_packets: u32,
    base: u32,
    next_seq: u32,
    expected_recv: u32,
    generation: u32,
    retries_left: u32,
    blocked: bool,
    fate: FlowFate,
    ack_latency: u64,
}

impl Flow {
    /// True while the flow has an unsent packet inside its window.
    fn can_send(&self, window_packets: u32) -> bool {
        self.next_seq < self.total_packets
            && self.next_seq < self.base.saturating_add(window_packets)
    }
}

#[derive(Debug)]
struct BgSource {
    link: usize,
    period: u64,
}

/// The engine: a built [`Fabric`], the [`InterconnectSpec`]'s flow
/// and switching knobs, background sources, and the event queue.
pub struct NetSim<'a> {
    fabric: &'a Fabric,
    spec: &'a InterconnectSpec,
    now: u64,
    events_processed: u64,
    queue: EventQueue<Event, 3>,
    links: Vec<LinkState>,
    flows: Vec<Flow>,
    bg: Vec<BgSource>,
    /// Delivered background packets by queueing delay (cycles): a
    /// round delivers millions, at a few hundred distinct delays.
    bg_delays: BTreeMap<u64, u64>,
    bg_dropped: u64,
    active_flows: usize,
    retries_total: u64,
    aborted_flows: usize,
    per_step_end: Vec<u64>,
    truncated: bool,
}

impl<'a> NetSim<'a> {
    /// A fresh engine over `fabric`, configured by `spec`.
    pub fn new(fabric: &'a Fabric, spec: &'a InterconnectSpec) -> Self {
        let links = fabric.links().iter().map(|_| LinkState::default()).collect();
        NetSim {
            fabric,
            spec,
            now: 0,
            events_processed: 0,
            queue: EventQueue::new(),
            links,
            flows: Vec::new(),
            bg: Vec::new(),
            bg_delays: BTreeMap::new(),
            bg_dropped: 0,
            active_flows: 0,
            retries_total: 0,
            aborted_flows: 0,
            per_step_end: Vec::new(),
            truncated: false,
        }
    }

    /// Attaches a background (inference-DMA + harvest-staging) source
    /// to `device`'s `down` link: one `packet_bytes` packet every
    /// `packet_bytes / demand` cycles, the demand first capped at
    /// `bg_cap_frac ×` link rate so gradient flows always see residual
    /// capacity. `phase` offsets the comb's first injection (the
    /// caller draws it from the interconnect seed stream). A
    /// non-positive demand attaches nothing; the demand must not be
    /// NaN ([`run_allreduce_round`](crate::run_allreduce_round)
    /// rejects every non-finite demand).
    pub fn add_background(&mut self, device: usize, demand_bytes_per_cycle: f64, phase: u64) {
        debug_assert!(!demand_bytes_per_cycle.is_nan(), "NaN background demand");
        let cap = self.spec.bg_cap_frac * self.spec.link.rate_bytes_per_cycle;
        let demand = demand_bytes_per_cycle.min(cap);
        if demand <= 0.0 {
            return;
        }
        // A tiny demand makes the period saturate at `u64::MAX`; the
        // comb's next injection then saturates too (`on_bg_inject`).
        let period =
            ((f64::from(self.spec.packet_bytes) / demand).ceil() as u64).max(1);
        let source = self.bg.len() as u32;
        self.bg.push(BgSource { link: self.fabric.down(device), period });
        self.queue.push(phase % period, Event::BgInject { source });
    }

    /// Runs the schedule: each step's flows (device-index endpoints)
    /// launch together when the previous step's flows have all
    /// completed or aborted, and the engine stops at the last step's
    /// completion — background events beyond that instant are left
    /// unprocessed (their packets count as still queued).
    pub fn run_steps(&mut self, steps: &[Vec<StepFlow>]) {
        for step in steps {
            let first = self.flows.len();
            for f in step {
                self.add_flow(f);
            }
            for fid in first..self.flows.len() {
                self.activate(fid);
            }
            self.pump();
            self.per_step_end.push(self.now);
            if self.truncated {
                break;
            }
        }
    }

    /// Consumes the engine into a [`RoundOutcome`].
    pub fn finish(self) -> RoundOutcome {
        let round_cycles = self.per_step_end.last().copied().unwrap_or(0);
        let links = self
            .fabric
            .links()
            .iter()
            .zip(&self.links)
            .map(|(l, s)| LinkReport {
                name: l.name.clone(),
                offered_bytes: s.offered_bytes,
                delivered_bytes: s.delivered_bytes,
                dropped_bytes: s.dropped_bytes,
                dropped_packets: s.dropped_packets,
                queued_bytes_end: s.queued_bytes
                    + s.pfc_waiting.iter().map(|(_, p)| p.bytes()).sum::<u64>(),
                busy_cycles: s.busy_cycles.min(round_cycles),
                peak_queue_bytes: s.peak_queue_bytes,
                pfc_pause_cycles: s.pfc_pause_cycles,
            })
            .collect();
        let deadlocked = self.spec.switching == SwitchPolicy::Pfc
            && self.aborted_flows > 0
            && self.links.iter().any(|l| !l.pfc_waiting.is_empty());
        let delivered: u64 = self.bg_delays.values().sum();
        let (bg_delay_mean_cycles, bg_delay_p99_cycles) = if delivered == 0 {
            (0.0, 0)
        } else {
            let total: u64 = self.bg_delays.iter().map(|(delay, n)| delay * n).sum();
            // Nearest rank: the smallest delay at least 99 % of the
            // packets do not exceed.
            let rank = ((delivered as f64 * 0.99).ceil() as u64).clamp(1, delivered);
            let mut seen = 0;
            let p99 = self.bg_delays.iter().find(|(_, &n)| {
                seen += n;
                seen >= rank
            });
            (total as f64 / delivered as f64, p99.map_or(0, |(&delay, _)| delay))
        };
        RoundOutcome {
            round_cycles,
            per_step_cycles: self.per_step_end,
            links,
            flows: self.flows.len(),
            retries: self.retries_total,
            aborted_flows: self.aborted_flows,
            deadlocked,
            truncated: self.truncated,
            bg_packets_delivered: delivered,
            bg_packets_dropped: self.bg_dropped,
            bg_delay_mean_cycles,
            bg_delay_p99_cycles,
        }
    }

    // ------------------------------------------------------------------
    // internals

    fn add_flow(&mut self, f: &StepFlow) {
        let route = self.fabric.route(f.src, f.dst);
        let packet = u64::from(self.spec.packet_bytes);
        let total_packets = f.bytes.div_ceil(packet).max(1) as u32;
        let ack_latency = route.len() as u64 * self.spec.link.latency_cycles;
        self.flows.push(Flow {
            route,
            total_bytes: f.bytes,
            total_packets,
            base: 0,
            next_seq: 0,
            expected_recv: 0,
            generation: 0,
            retries_left: self.spec.retry_budget,
            blocked: false,
            fate: FlowFate::Active,
            ack_latency,
        });
        self.active_flows += 1;
    }

    fn activate(&mut self, fid: usize) {
        if self.flows[fid].route.is_empty() {
            // Degenerate self-flow: nothing crosses the fabric.
            self.flows[fid].fate = FlowFate::Done;
            self.active_flows -= 1;
            return;
        }
        self.try_send(fid);
        if self.flows[fid].fate == FlowFate::Active {
            self.arm_timeout(fid);
        }
    }

    fn pump(&mut self) {
        while self.active_flows > 0 {
            if self.events_processed >= EVENT_CAP {
                self.truncate();
                return;
            }
            let Some((time, event)) = self.queue.pop() else {
                // No pending events with flows still active: every one
                // of them is irrecoverably stuck (can happen only with
                // no timers armed, i.e. never — kept as a backstop).
                self.truncate();
                return;
            };
            debug_assert!(time >= self.now, "events must be causally ordered");
            self.now = time;
            self.events_processed += 1;
            match event {
                Event::TxDone { link } => self.on_tx_done(link as usize),
                Event::Arrive(packet) => self.on_arrive(packet),
                Event::Ack { flow, cum } => self.on_ack(flow as usize, cum),
                Event::Timeout { flow, generation } => self.on_timeout(flow as usize, generation),
                Event::BgInject { source } => self.on_bg_inject(source as usize),
            }
        }
    }

    fn truncate(&mut self) {
        self.truncated = true;
        for f in &mut self.flows {
            if f.fate == FlowFate::Active {
                f.fate = FlowFate::Aborted;
                self.aborted_flows += 1;
            }
        }
        self.active_flows = 0;
    }

    fn packet_bytes_for(&self, fid: usize, seq: u32) -> u32 {
        let f = &self.flows[fid];
        let packet = u64::from(self.spec.packet_bytes);
        if seq + 1 == f.total_packets {
            (f.total_bytes - u64::from(f.total_packets - 1) * packet).max(1) as u32
        } else {
            self.spec.packet_bytes
        }
    }

    fn try_send(&mut self, fid: usize) {
        loop {
            let f = &self.flows[fid];
            if f.fate != FlowFate::Active || f.blocked || !f.can_send(self.spec.window_packets) {
                return;
            }
            let seq = f.next_seq;
            let bytes = self.packet_bytes_for(fid, seq);
            let link0 = f.route[0];
            if self.links[link0].queued_bytes + u64::from(bytes) <= self.spec.link.queue_bytes {
                let packet = Packet::Flow { flow: fid as u32, seq, bytes, hop: 0 };
                self.enqueue(link0, packet);
                self.flows[fid].next_seq += 1;
                self.arm_timeout(fid);
            } else {
                self.flows[fid].blocked = true;
                self.links[link0].blocked_flows.push_back(fid as u32);
                return;
            }
        }
    }

    fn arm_timeout(&mut self, fid: usize) {
        self.flows[fid].generation += 1;
        let generation = self.flows[fid].generation;
        self.queue.push_lane(
            TIMEOUT_LANE,
            self.now + self.spec.timeout_cycles,
            Event::Timeout { flow: fid as u32, generation },
        );
    }

    fn enqueue(&mut self, link: usize, packet: Packet) {
        self.links[link].offered_bytes += packet.bytes();
        self.admit(link, packet);
    }

    // Entry into the queue without the offered-bytes bump — used for
    // parked PFC packets, which were already counted as offered when
    // they parked.
    fn admit(&mut self, link: usize, packet: Packet) {
        let l = &mut self.links[link];
        l.queued_bytes += packet.bytes();
        l.peak_queue_bytes = l.peak_queue_bytes.max(l.queued_bytes);
        l.queue.push_back(packet);
        self.try_start_tx(link);
    }

    fn try_start_tx(&mut self, link: usize) {
        let l = &mut self.links[link];
        if l.in_flight.is_some() || l.paused {
            return;
        }
        let Some(p) = l.queue.pop_front() else { return };
        let ser = self.spec.link.serialization_cycles(p.bytes());
        l.busy_cycles += ser;
        l.in_flight = Some(p);
        let event = Event::TxDone { link: link as u32 };
        // Every full packet serializes in the same time.
        if p.bytes() == u64::from(self.spec.packet_bytes) {
            self.queue.push_lane(TX_DONE_LANE, self.now + ser, event);
        } else {
            self.queue.push(self.now + ser, event);
        }
    }

    fn on_tx_done(&mut self, link: usize) {
        let latency = self.spec.link.latency_cycles;
        let l = &mut self.links[link];
        let p = l.in_flight.take().expect("TxDone on an idle link");
        l.queued_bytes -= p.bytes();
        l.delivered_bytes += p.bytes();
        self.queue.push_lane(ARRIVE_LANE, self.now + latency, Event::Arrive(p));
        // Admit parked PFC packets while the drained queue has room.
        loop {
            let l = &mut self.links[link];
            let Some(&(upstream, wp)) = l.pfc_waiting.front() else { break };
            if l.queued_bytes + wp.bytes() > self.spec.link.queue_bytes {
                break;
            }
            l.pfc_waiting.pop_front();
            self.admit(link, wp);
            self.unpause(upstream as usize);
        }
        // Pump senders blocked on this link.
        while let Some(&fid) = self.links[link].blocked_flows.front() {
            let fid = fid as usize;
            let f = &self.flows[fid];
            if f.fate != FlowFate::Active || !f.can_send(self.spec.window_packets) {
                // Nothing to send any more; drop the reservation.
                self.links[link].blocked_flows.pop_front();
                self.flows[fid].blocked = false;
                continue;
            }
            let bytes = self.packet_bytes_for(fid, f.next_seq);
            if self.links[link].queued_bytes + u64::from(bytes) > self.spec.link.queue_bytes {
                break;
            }
            self.links[link].blocked_flows.pop_front();
            self.flows[fid].blocked = false;
            self.try_send(fid);
        }
        self.try_start_tx(link);
    }

    fn unpause(&mut self, link: usize) {
        let l = &mut self.links[link];
        if l.paused {
            l.pfc_pause_cycles += self.now - l.pause_started;
            l.paused = false;
            self.try_start_tx(link);
        }
    }

    fn pause(&mut self, link: usize) {
        let l = &mut self.links[link];
        if !l.paused {
            l.paused = true;
            l.pause_started = self.now;
        }
    }

    fn on_arrive(&mut self, packet: Packet) {
        match packet {
            Packet::Background { bytes, injected } => {
                // Background routes are the single `down` link: the
                // packet has reached its device. Its queueing delay is
                // everything beyond unloaded serialization + latency.
                let ideal = self.spec.link.serialization_cycles(u64::from(bytes))
                    + self.spec.link.latency_cycles;
                let delay = (self.now - injected).saturating_sub(ideal);
                *self.bg_delays.entry(delay).or_insert(0) += 1;
            }
            Packet::Flow { flow, seq, bytes, hop } => {
                let fid = flow as usize;
                let route = &self.flows[fid].route;
                let link = route[usize::from(hop)];
                if usize::from(hop) + 1 == route.len() {
                    // Delivered to the destination device.
                    if self.flows[fid].fate != FlowFate::Active {
                        return;
                    }
                    if seq == self.flows[fid].expected_recv {
                        self.flows[fid].expected_recv += 1;
                    }
                    let cum = self.flows[fid].expected_recv;
                    let ack_at = self.now + self.flows[fid].ack_latency;
                    self.queue.push(ack_at, Event::Ack { flow, cum });
                } else {
                    let next = route[usize::from(hop) + 1];
                    let packet = Packet::Flow { flow, seq, bytes, hop: hop + 1 };
                    let bytes = u64::from(bytes);
                    if self.links[next].queued_bytes + bytes <= self.spec.link.queue_bytes {
                        self.enqueue(next, packet);
                    } else {
                        match self.spec.switching {
                            SwitchPolicy::DropTail => {
                                let l = &mut self.links[next];
                                l.offered_bytes += bytes;
                                l.dropped_bytes += bytes;
                                l.dropped_packets += 1;
                            }
                            SwitchPolicy::Pfc => {
                                // Offered now; admitted (without
                                // re-counting) when the queue drains.
                                self.links[next].offered_bytes += bytes;
                                self.links[next].pfc_waiting.push_back((link as u32, packet));
                                self.pause(link);
                            }
                        }
                    }
                }
            }
        }
    }

    fn on_ack(&mut self, fid: usize, cum: u32) {
        let f = &mut self.flows[fid];
        if f.fate != FlowFate::Active || cum <= f.base {
            return;
        }
        f.base = cum;
        f.retries_left = self.spec.retry_budget;
        if f.base == f.total_packets {
            f.fate = FlowFate::Done;
            f.generation += 1;
            self.active_flows -= 1;
        } else {
            self.arm_timeout(fid);
            self.try_send(fid);
        }
    }

    fn on_timeout(&mut self, fid: usize, generation: u32) {
        let f = &mut self.flows[fid];
        if f.fate != FlowFate::Active || f.generation != generation {
            return;
        }
        self.retries_total += 1;
        if f.retries_left == 0 {
            f.fate = FlowFate::Aborted;
            f.generation += 1;
            self.aborted_flows += 1;
            self.active_flows -= 1;
            return;
        }
        f.retries_left -= 1;
        // Go-back-N: resend from the first unacked packet.
        f.next_seq = f.base;
        self.arm_timeout(fid);
        self.try_send(fid);
    }

    fn on_bg_inject(&mut self, source: usize) {
        let link = self.bg[source].link;
        let period = self.bg[source].period;
        let bytes = self.spec.packet_bytes;
        if self.links[link].queued_bytes + u64::from(bytes) <= self.spec.link.queue_bytes {
            let packet = Packet::Background { bytes, injected: self.now };
            self.enqueue(link, packet);
        } else {
            // The DMA engine defers under backpressure; the ledger
            // counts the deferral as an offered-and-dropped packet.
            let l = &mut self.links[link];
            l.offered_bytes += u64::from(bytes);
            l.dropped_bytes += u64::from(bytes);
            l.dropped_packets += 1;
            self.bg_dropped += 1;
        }
        let source = source as u32;
        self.queue.push(self.now.saturating_add(period), Event::BgInject { source });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allreduce::run_allreduce_round;
    use crate::spec::{AllReduceSchedule, Topology};

    fn spec() -> InterconnectSpec {
        InterconnectSpec::datacenter(1 << 20, 65_536)
    }

    fn one_flow(spec: &InterconnectSpec, topology: Topology, bytes: u64) -> RoundOutcome {
        let fabric = Fabric::build(topology, 4, spec.link);
        let mut sim = NetSim::new(&fabric, spec);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes }]]);
        sim.finish()
    }

    #[test]
    fn a_single_flow_completes_near_the_unloaded_bound() {
        let s = spec();
        let out = one_flow(&s, Topology::OneBigSwitch, 1 << 20);
        assert_eq!(out.aborted_flows, 0);
        assert!(out.conserves(), "{out:?}");
        // Lower bound: serialize 1 MiB over one link at 32 B/cycle.
        let floor = s.link.serialization_cycles(1 << 20);
        assert!(out.round_cycles >= floor);
        // With a 16-packet window and 2 µs of round-trip latency the
        // flow is latency-bound but must still finish within ~10× the
        // serialization floor.
        assert!(out.round_cycles < 10 * floor, "{}", out.round_cycles);
        // Both hops moved every byte exactly once.
        assert_eq!(out.links[0].delivered_bytes, 1 << 20);
        assert_eq!(out.links[7].delivered_bytes, 1 << 20);
    }

    // Two flows converging on one down link: aggregate arrival is
    // twice the service rate, so a tiny queue must overflow.
    fn converging_flows(spec: &InterconnectSpec) -> RoundOutcome {
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, spec.link);
        let mut sim = NetSim::new(&fabric, spec);
        sim.run_steps(&[vec![
            StepFlow { src: 0, dst: 3, bytes: 128 * 1024 },
            StepFlow { src: 1, dst: 3, bytes: 128 * 1024 },
        ]]);
        sim.finish()
    }

    #[test]
    fn drop_tail_drops_under_a_tiny_queue_yet_recovers() {
        let mut s = spec();
        s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
        s.retry_budget = 64;
        let out = converging_flows(&s);
        assert_eq!(out.aborted_flows, 0, "{out:?}");
        assert!(out.conserves());
        // down3 (index 7) sees 2× its rate: drops and go-back-N
        // retries are inevitable.
        assert!(out.links[7].dropped_packets > 0, "{out:?}");
        assert!(out.retries > 0);
    }

    #[test]
    fn pfc_backpressure_is_lossless_on_acyclic_fabrics() {
        let mut s = spec().with_switching(SwitchPolicy::Pfc);
        s.link.queue_bytes = 4 * u64::from(s.packet_bytes);
        s.retry_budget = 64;
        let out = converging_flows(&s);
        assert_eq!(out.aborted_flows, 0, "{out:?}");
        assert!(!out.deadlocked);
        assert!(out.conserves());
        let dropped: u64 = out.links.iter().map(|l| l.dropped_packets).sum();
        assert_eq!(dropped, 0, "PFC never drops");
        assert!(
            out.links.iter().any(|l| l.pfc_pause_cycles > 0),
            "some upstream transmitter must have paused: {out:?}"
        );
    }

    #[test]
    fn pfc_on_the_ring_deadlocks_and_flows_abort_within_budget() {
        let mut s = spec()
            .with_topology(Topology::Ring)
            .with_switching(SwitchPolicy::Pfc)
            .with_schedule(AllReduceSchedule::Ring);
        s.link.queue_bytes = u64::from(s.packet_bytes);
        s.retry_budget = 3;
        s.timeout_cycles = 20_000;
        let fabric = Fabric::build(Topology::Ring, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        // Four flows, each three ring hops: every ring queue fills and
        // waits on the next — a backpressure cycle.
        let step: Vec<StepFlow> = (0..4)
            .map(|i| StepFlow { src: i, dst: (i + 3) % 4, bytes: 1 << 20 })
            .collect();
        sim.run_steps(&[step]);
        let out = sim.finish();
        assert!(out.aborted_flows > 0, "{out:?}");
        assert!(out.deadlocked, "{out:?}");
        let dropped: u64 = out.links.iter().map(|l| l.dropped_packets).sum();
        assert_eq!(dropped, 0, "PFC never drops, even deadlocked");
        assert!(out.conserves(), "parked packets count as queued");
    }

    #[test]
    fn background_traffic_contends_and_its_delay_is_measured() {
        let s = spec();
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        // Saturating background demand on the destination's down link
        // (capped at 75 % of rate) plus a gradient flow into the same
        // device.
        sim.add_background(3, 64.0, 17);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes: 1 << 20 }]]);
        let out = sim.finish();
        assert_eq!(out.aborted_flows, 0);
        assert!(out.conserves());
        assert!(out.bg_packets_delivered > 0);
        assert!(
            out.bg_delay_p99_cycles >= out.bg_delay_mean_cycles as u64,
            "{out:?}"
        );
        // Sharing the down link with a 1 MiB flow must queue some DMA.
        assert!(out.bg_delay_p99_cycles > 0, "{out:?}");
        // And the loaded round runs longer than the unloaded one.
        let unloaded = one_flow(&s, Topology::OneBigSwitch, 1 << 20);
        assert!(out.round_cycles > unloaded.round_cycles, "{out:?}");
    }

    #[test]
    fn a_vanishing_background_demand_injects_once() {
        // The period saturates at u64::MAX: the comb fires at its
        // phase and its next injection saturates instead of wrapping
        // into the past.
        let s = spec();
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        sim.add_background(3, 1e-300, 17);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes: 1 << 20 }]]);
        let out = sim.finish();
        assert_eq!(out.aborted_flows, 0);
        assert_eq!(out.bg_packets_delivered, 1, "{out:?}");
    }

    #[test]
    fn runs_are_reproducible_event_for_event() {
        let s = spec().with_topology(Topology::Ring);
        let fabric = Fabric::build(Topology::Ring, 6, s.link);
        let run = || {
            let mut sim = NetSim::new(&fabric, &s);
            for d in 0..6 {
                sim.add_background(d, 8.0 + d as f64, d as u64 * 31);
            }
            let steps: Vec<Vec<StepFlow>> = (0..3)
                .map(|st| {
                    (0..6)
                        .map(|i| StepFlow { src: i, dst: (i + 1) % 6, bytes: 100_000 + st * 7 })
                        .collect()
                })
                .collect();
            sim.run_steps(&steps);
            format!("{:?}", sim.finish())
        };
        assert_eq!(run(), run());
    }

    /// FNV-1a over the bytes of a round's `Debug` rendering.
    fn fnv1a(out: &RoundOutcome) -> u64 {
        format!("{out:?}").bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One round per engine path: drop-tail losses with go-back-N
    /// retries, PFC pauses, the PFC ring deadlock, background
    /// contention, a scaled-down `fleet_256` tree round, and ring
    /// chunks that end in a partial packet.
    fn pinned_rounds() -> Vec<(&'static str, RoundOutcome)> {
        let mut tiny = spec();
        tiny.link.queue_bytes = 4 * u64::from(tiny.packet_bytes);
        tiny.retry_budget = 64;
        let drop_tail = converging_flows(&tiny);
        let pfc = converging_flows(&tiny.clone().with_switching(SwitchPolicy::Pfc));

        let mut ring = spec()
            .with_topology(Topology::Ring)
            .with_switching(SwitchPolicy::Pfc)
            .with_schedule(AllReduceSchedule::Ring);
        ring.link.queue_bytes = u64::from(ring.packet_bytes);
        ring.retry_budget = 3;
        ring.timeout_cycles = 20_000;
        let fabric = Fabric::build(Topology::Ring, 4, ring.link);
        let mut sim = NetSim::new(&fabric, &ring);
        sim.run_steps(&[(0..4)
            .map(|i| StepFlow { src: i, dst: (i + 3) % 4, bytes: 1 << 20 })
            .collect()]);
        let deadlock = sim.finish();

        let s = spec();
        let fabric = Fabric::build(Topology::OneBigSwitch, 4, s.link);
        let mut sim = NetSim::new(&fabric, &s);
        sim.add_background(3, 64.0, 17);
        sim.run_steps(&[vec![StepFlow { src: 0, dst: 3, bytes: 1 << 20 }]]);
        let background = sim.finish();

        // fleet_256's shape at 1/8 scale: 32 devices on 4-per-leaf
        // tree switches, the ring schedule over the 16 even devices.
        let tree = InterconnectSpec::datacenter(1 << 20, 65_536)
            .with_topology(Topology::Tree { leaf_group: 4 });
        let demand: Vec<f64> = (0..32).map(|d| f64::from(d % 7) * 1.5).collect();
        let harvesters: Vec<usize> = (0..32).step_by(2).collect();
        let fleet = run_allreduce_round(&tree, 32, &harvesters, &demand, 5).unwrap();

        // 100 000 / 6 rounds up to 16 667-byte chunks: four full
        // packets and a 283-byte tail per flow.
        let partial = spec().with_topology(Topology::Ring);
        let partial = InterconnectSpec { gradient_bytes: 100_000, ..partial };
        let demand = [3.0, 0.0, 9.5, 1.0, 24.0, 0.5, 7.0];
        let tail = run_allreduce_round(&partial, 7, &[0, 1, 2, 4, 5, 6], &demand, 11).unwrap();

        vec![
            ("drop_tail", drop_tail),
            ("pfc", pfc),
            ("pfc_ring_deadlock", deadlock),
            ("background", background),
            ("fleet_tree", fleet),
            ("partial_chunks", tail),
        ]
    }

    #[test]
    fn rounds_match_the_pinned_outcomes() {
        // Hashes of the outcomes the single-heap engine produced: the
        // lane-merging queue must reproduce every round bit for bit.
        let pinned = [
            ("drop_tail", 0x78df_f7db_7537_e88d),
            ("pfc", 0x6dfc_e173_a93c_efac),
            ("pfc_ring_deadlock", 0x5bc6_4112_c2a0_8647),
            ("background", 0xa87a_1ef0_9a11_4747),
            ("fleet_tree", 0xc32e_4dc6_fbc1_8c63),
            ("partial_chunks", 0x336f_3e0e_29d8_cde9),
        ];
        let rounds = pinned_rounds();
        assert_eq!(rounds.len(), pinned.len());
        for ((name, out), (want_name, want)) in rounds.iter().zip(pinned) {
            assert_eq!((*name, fnv1a(out)), (want_name, want), "{out:?}");
        }
        // Each round exercises the path it is named for.
        let by_name = |n: &str| &rounds.iter().find(|(name, _)| *name == n).unwrap().1;
        let drops = |o: &RoundOutcome| o.links.iter().map(|l| l.dropped_packets).sum::<u64>();
        assert!(drops(by_name("drop_tail")) > 0 && by_name("drop_tail").retries > 0);
        assert!(by_name("pfc").links.iter().any(|l| l.pfc_pause_cycles > 0));
        assert!(by_name("pfc_ring_deadlock").deadlocked);
        assert!(by_name("background").bg_packets_delivered > 0);
        assert!(by_name("fleet_tree").bg_packets_delivered > 0);
    }

    #[test]
    fn a_queued_event_takes_32_bytes() {
        assert_eq!(std::mem::size_of::<Event>(), 16);
    }
}
