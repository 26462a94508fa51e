//! The discrete-event engine: central network state, the event queue,
//! application plumbing and passive observation taps.
//!
//! [`Network`] owns every host, link, shared medium and TCP flow.
//! Events are a plain enum processed in one dispatcher, ordered by
//! `(time, sequence)` so runs are bit-for-bit deterministic for a given
//! seed. The queue is a hierarchical timer wheel (see [`crate::sched`])
//! with the original binary heap retained as a differential oracle.
//! User logic implements [`App`]; measurement implements
//! [`PacketObserver`] and is offered every packet at every NIC tap,
//! plus every drop — exactly the visibility a mirror-port `tstat`
//! deployment has.

use std::collections::VecDeque;

use crate::host::Host;
use crate::ids::{AppId, FlowId, HostId, LinkId, MediumId};
use crate::link::{EnqueueOutcome, LinkCounters, OneWayLink};
use crate::medium::{MediumGrant, SharedMedium};
use crate::packet::{Packet, TransportHdr, UdpHdr};
use crate::rng::SimRng;
use crate::sched::{default_scheduler, EventQueue, SchedStats, SchedulerKind};
use crate::tcp::{FlowState, Side, TcpActions, TcpAppEvent, TcpFlow};
use crate::time::{SimDuration, SimTime};
use crate::udp::UdpTable;

pub use crate::tcp::TcpAppEvent as TcpEvent;

/// Direction of a packet at a tap point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TapDir {
    /// The host is sending the packet out of this link.
    Tx,
    /// The host received the packet from this link.
    Rx,
}

/// Where a packet was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TapPoint {
    /// The host whose NIC saw the packet.
    pub host: HostId,
    /// The link the packet was travelling on.
    pub link: LinkId,
    /// Direction relative to `host`.
    pub dir: TapDir,
}

/// Why a packet vanished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropKind {
    /// Drop-tail queue overflow (congestion).
    Queue,
    /// Random loss or exhausted MAC retries.
    Loss,
    /// No route to the destination.
    NoRoute,
}

/// Passive packet observation: sees every packet at every NIC.
pub trait PacketObserver {
    /// A packet passed tap point `tap`.
    fn observe(&mut self, now: SimTime, tap: TapPoint, pkt: &Packet);
    /// A packet was dropped on `link`.
    fn on_drop(&mut self, _now: SimTime, _link: LinkId, _pkt: &Packet, _kind: DropKind) {}
}

/// Observer that ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;
impl PacketObserver for NullObserver {
    fn observe(&mut self, _now: SimTime, _tap: TapPoint, _pkt: &Packet) {}
}

/// A UDP datagram delivered to a bound socket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpEvent {
    /// Host the datagram arrived at.
    pub host: HostId,
    /// Destination port.
    pub dst_port: u16,
    /// Source host.
    pub src: HostId,
    /// Source port.
    pub src_port: u16,
    /// Payload bytes.
    pub len: u32,
}

/// Simulation application logic (video players, traffic generators,
/// fault controllers, probes' periodic samplers, …).
#[allow(unused_variables)]
pub trait App {
    /// Called once when the harness starts running.
    fn start(&mut self, ctl: &mut Ctl) {}
    /// A timer scheduled via [`Ctl::timer`] fired.
    fn on_timer(&mut self, token: u64, ctl: &mut Ctl) {}
    /// A TCP event for a flow this app owns/listens on.
    fn on_tcp(&mut self, ev: TcpEvent, ctl: &mut Ctl) {}
    /// A UDP datagram for a port this app bound.
    fn on_udp(&mut self, ev: UdpEvent, ctl: &mut Ctl) {}
}

/// Scheduled event kinds (internal).
#[derive(Debug)]
enum Ev {
    /// A link's transmitter finished serialising its in-flight packet.
    LinkTxDone { link: LinkId },
    /// The head of a link's propagation FIFO arrives at the far end.
    /// The packet stays in the link (see [`OneWayLink`]); only the head
    /// has a queue entry, so entries stay small and the queue holds one
    /// per busy link instead of one per packet in flight.
    Deliver { link: LinkId },
    /// TCP retransmission/persist timer entry. `wheel_gen` identifies
    /// the entry against its per-flow [`TimerSlot`]; a mismatch means
    /// the entry was superseded and is dropped without touching the
    /// flow.
    TcpTimer {
        flow: FlowId,
        side: Side,
        wheel_gen: u64,
    },
    /// Application timer.
    AppTimer { app: AppId, token: u64 },
    /// Periodic shared-medium state update.
    MediumTick { medium: MediumId },
}

// No packet rides in an event, so a queue entry is 32 bytes.
const _: () = assert!(std::mem::size_of::<Ev>() == 16);

/// The deadline a TCP timer slot is armed for.
#[derive(Debug, Clone, Copy)]
struct TimerTarget {
    /// Absolute deadline.
    at: SimTime,
    /// The flow's `timer_gen` at arm time (validity check at fire).
    gen: u64,
    /// The engine sequence number drawn at arm time — the entry fires
    /// at exactly `(at, seq)`, the same total-order key the heap
    /// engine gave the arm's own queue entry.
    seq: u64,
}

/// Per-(flow, side) retransmission-timer slot. Instead of one queue
/// entry per re-arm (TCP re-arms on every ACK, so the heap used to
/// fill up with dead gen-checked entries), each slot keeps at most one
/// live queue entry and lazily hops it forward when it fires early.
#[derive(Debug, Default, Clone, Copy)]
struct TimerSlot {
    /// The armed deadline, or `None` when disarmed/fired.
    target: Option<TimerTarget>,
    /// The queue entry currently in flight for this slot: its
    /// scheduled time and `wheel_gen`, or `None` if no entry queued.
    sched: Option<(SimTime, u64)>,
    /// Monotonic counter distinguishing this slot's queue entries.
    wheel_gen: u64,
}

fn side_ix(side: Side) -> usize {
    match side {
        Side::Client => 0,
        Side::Server => 1,
    }
}

/// Summary of a flow for quick assertions and session accounting.
#[derive(Debug, Clone, Copy)]
pub struct FlowSummary {
    /// Lifecycle state.
    pub state: FlowState,
    /// True if the flow closed cleanly.
    pub complete: bool,
    /// Application bytes delivered to the client-side reader.
    pub client_bytes_read: u64,
    /// When the flow was opened.
    pub opened_at: SimTime,
    /// When the handshake completed, if it did.
    pub established_at: Option<SimTime>,
    /// When the flow closed, if it did.
    pub closed_at: Option<SimTime>,
}

/// Pending application notification (queued during dispatch, drained by
/// the harness loop).
enum AppNote {
    Tcp(AppId, TcpEvent),
    Udp(AppId, UdpEvent),
}

/// Reusable simulation storage. Corpus generation runs hundreds of
/// sessions per worker thread; recycling the event queue and the big
/// vectors between sessions (instead of reallocating from scratch)
/// keeps each session allocation-light. Obtain networks from an arena
/// via [`Network::new_in`] and return the storage at session end with
/// [`Harness::recycle_into`].
#[derive(Default)]
pub struct SimArena {
    queue: Option<EventQueue<Ev>>,
    hosts: Vec<Host>,
    links: Vec<OneWayLink>,
    media: Vec<Box<dyn SharedMedium>>,
    flows: Vec<TcpFlow>,
    flow_owner: Vec<AppId>,
    listeners: Vec<(HostId, u16, AppId)>,
    wifi_outcome: Vec<Option<MediumGrant>>,
    tcp_timers: Vec<[TimerSlot; 2]>,
    notes: VecDeque<AppNote>,
    actions_pool: Vec<TcpActions>,
    apps: Vec<Box<dyn App>>,
}

/// The network: all simulation state and the event queue.
pub struct Network {
    /// Hosts (indexed by [`HostId`]).
    pub hosts: Vec<Host>,
    /// One-way links (indexed by [`LinkId`]).
    pub links: Vec<OneWayLink>,
    media: Vec<Box<dyn SharedMedium>>,
    flows: Vec<TcpFlow>,
    flow_owner: Vec<AppId>,
    listeners: Vec<(HostId, u16, AppId)>,
    udp: UdpTable,
    queue: EventQueue<Ev>,
    /// Per-flow `[client, server]` retransmission-timer slots.
    tcp_timers: Vec<[TimerSlot; 2]>,
    /// Scheduled events that are neither medium ticks nor timer entries
    /// (maintained for [`Harness::idle`]).
    pending_other: usize,
    /// Packets in propagation behind their link's head: scheduled
    /// deliveries with no queue entry yet. Queue length plus this is
    /// the number of scheduled, not yet dispatched events.
    parked: usize,
    stats: SchedStats,
    seq: u64,
    now: SimTime,
    rng: SimRng,
    /// Outcome of the in-flight wireless transmission, per link.
    wifi_outcome: Vec<Option<MediumGrant>>,
    /// Default TCP receive buffer for new flows (bytes).
    pub tcp_rcv_buf: u32,
    notes: VecDeque<AppNote>,
    /// Spare [`TcpActions`] buffers. Every segment delivery fills and
    /// drains one; recycling them keeps the per-packet path free of
    /// `Vec` allocations.
    actions_pool: Vec<TcpActions>,
    next_eph_port: u16,
}

impl Network {
    /// An empty network with the given RNG seed (used for link jitter
    /// and loss draws; apps should use their own seeds).
    pub fn new(seed: u64) -> Self {
        Self::new_in(seed, &mut SimArena::default())
    }

    /// An empty network drawing its storage from `arena` (see
    /// [`SimArena`]). The recycled buffers are empty but keep their
    /// previous capacity.
    pub fn new_in(seed: u64, arena: &mut SimArena) -> Self {
        let kind = default_scheduler();
        let queue = match arena.queue.take() {
            Some(q) if q.kind() == kind => q,
            _ => EventQueue::new(kind),
        };
        Network {
            hosts: std::mem::take(&mut arena.hosts),
            links: std::mem::take(&mut arena.links),
            media: std::mem::take(&mut arena.media),
            flows: std::mem::take(&mut arena.flows),
            flow_owner: std::mem::take(&mut arena.flow_owner),
            listeners: std::mem::take(&mut arena.listeners),
            udp: UdpTable::new(),
            queue,
            tcp_timers: std::mem::take(&mut arena.tcp_timers),
            pending_other: 0,
            parked: 0,
            stats: SchedStats::default(),
            seq: 0,
            now: SimTime::ZERO,
            rng: SimRng::seed_from_u64(seed),
            wifi_outcome: std::mem::take(&mut arena.wifi_outcome),
            tcp_rcv_buf: 256 * 1024,
            notes: std::mem::take(&mut arena.notes),
            actions_pool: std::mem::take(&mut arena.actions_pool),
            next_eph_port: 40_000,
        }
    }

    /// Flush this network's accumulated counters into the global
    /// observability recorder. Called once per session from
    /// [`recycle_into`] — never from the event loop — so the per-event
    /// path stays untouched. Purely write-only: nothing here feeds
    /// back into simulation state, RNG draws or event order.
    ///
    /// [`recycle_into`]: Network::recycle_into
    fn flush_obs(&self) {
        if !vqd_obs::enabled() {
            return;
        }
        let r = vqd_obs::recorder();
        let s = &self.stats;
        r.counter_add("simnet.sched.scheduled", s.scheduled);
        r.counter_add("simnet.sched.dispatched", s.dispatched);
        r.counter_add(
            "simnet.sched.dispatched.link_tx_done",
            s.dispatched_link_tx_done,
        );
        r.counter_add("simnet.sched.dispatched.deliver", s.dispatched_deliver);
        r.counter_add("simnet.sched.dispatched.tcp_timer", s.dispatched_tcp_timer);
        r.counter_add("simnet.sched.dispatched.app_timer", s.dispatched_app_timer);
        r.counter_add(
            "simnet.sched.dispatched.medium_tick",
            s.dispatched_medium_tick,
        );
        r.counter_add("simnet.sched.timer_arms", s.timer_arms);
        r.counter_add("simnet.sched.timer_cancelled", s.timer_cancelled);
        r.counter_add("simnet.sched.timer_rescheduled", s.timer_rescheduled);
        r.counter_add("simnet.sched.timer_stale", s.timer_stale);
        // Occupancy histograms are keyed by scheduler kind so wheel
        // and heap runs stay comparable side by side.
        let (mean_key, peak_key) = match self.queue.kind() {
            SchedulerKind::TimerWheel => (
                "simnet.sched.wheel.occupancy_mean",
                "simnet.sched.wheel.occupancy_peak",
            ),
            SchedulerKind::BinaryHeap => (
                "simnet.sched.heap.occupancy_mean",
                "simnet.sched.heap.occupancy_peak",
            ),
        };
        if s.dispatched > 0 {
            r.hist_record(mean_key, s.occupancy_sum as f64 / s.dispatched as f64);
            r.hist_record(peak_key, s.occupancy_peak as f64);
        }
        let mut ctr = LinkCounters::default();
        for link in &self.links {
            let c = &link.ctr;
            ctr.enq_pkts += c.enq_pkts;
            ctr.enq_bytes += c.enq_bytes;
            ctr.drop_tail_pkts += c.drop_tail_pkts;
            ctr.drop_loss_pkts += c.drop_loss_pkts;
            ctr.delivered_pkts += c.delivered_pkts;
            ctr.delivered_bytes += c.delivered_bytes;
            ctr.mac_retx += c.mac_retx;
        }
        r.counter_add("simnet.link.enq_pkts", ctr.enq_pkts);
        r.counter_add("simnet.link.enq_bytes", ctr.enq_bytes);
        r.counter_add("simnet.link.drop_tail_pkts", ctr.drop_tail_pkts);
        r.counter_add("simnet.link.drop_loss_pkts", ctr.drop_loss_pkts);
        r.counter_add("simnet.link.delivered_pkts", ctr.delivered_pkts);
        r.counter_add("simnet.link.delivered_bytes", ctr.delivered_bytes);
        r.counter_add("simnet.link.mac_retx", ctr.mac_retx);
        let retx: u64 = self
            .flows
            .iter()
            .map(|f| {
                f.endpoint(Side::Client).stats.retx_pkts + f.endpoint(Side::Server).stats.retx_pkts
            })
            .sum();
        r.counter_add("simnet.tcp.retx_pkts", retx);
        r.counter_add("simnet.sessions", 1);
    }

    /// Return this network's storage to `arena` for the next session.
    pub fn recycle_into(mut self, arena: &mut SimArena) {
        self.flush_obs();
        self.queue.reset();
        arena.queue = Some(self.queue);
        self.hosts.clear();
        arena.hosts = self.hosts;
        self.links.clear();
        arena.links = self.links;
        self.media.clear();
        arena.media = self.media;
        self.flows.clear();
        arena.flows = self.flows;
        self.flow_owner.clear();
        arena.flow_owner = self.flow_owner;
        self.listeners.clear();
        arena.listeners = self.listeners;
        self.wifi_outcome.clear();
        arena.wifi_outcome = self.wifi_outcome;
        self.tcp_timers.clear();
        arena.tcp_timers = self.tcp_timers;
        self.notes.clear();
        arena.notes = self.notes;
        arena.actions_pool = self.actions_pool;
    }

    /// A cleared [`TcpActions`] buffer from the pool (or a fresh one).
    fn take_actions(&mut self) -> TcpActions {
        self.actions_pool.pop().unwrap_or_default()
    }

    /// Return a drained buffer to the pool, keeping its capacity.
    fn put_actions(&mut self, mut out: TcpActions) {
        out.packets.clear();
        out.timers.clear();
        out.events.clear();
        self.actions_pool.push(out);
    }

    /// Switch the event-queue implementation. Only legal while the
    /// queue is empty (i.e. before any medium/app/flow is added);
    /// differential tests use this to run the same scenario on both
    /// the wheel and the heap oracle.
    ///
    /// # Panics
    /// If events are already queued.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        if self.queue.kind() != kind {
            assert!(
                self.queue.is_empty(),
                "cannot switch scheduler with events queued"
            );
            self.queue = EventQueue::new(kind);
        }
    }

    /// Which event-queue implementation this network runs on.
    pub fn scheduler_kind(&self) -> SchedulerKind {
        self.queue.kind()
    }

    /// Scheduler observability counters for this network.
    pub fn sched_stats(&self) -> SchedStats {
        self.stats
    }

    /// Number of scheduled, not yet dispatched events (including
    /// lazily cancelled timers and packets parked behind their link's
    /// propagation head).
    pub fn pending_events(&self) -> usize {
        self.queue.len() + self.parked
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a host; returns its id.
    pub fn add_host(&mut self, host: Host) -> HostId {
        self.hosts.push(host);
        HostId(self.hosts.len() as u32 - 1)
    }

    /// Add a one-way link; returns its id.
    pub fn add_link(&mut self, link: OneWayLink) -> LinkId {
        self.links.push(link);
        self.wifi_outcome.push(None);
        LinkId(self.links.len() as u32 - 1)
    }

    /// Add a shared medium and start its 1 Hz tick.
    pub fn add_medium(&mut self, medium: Box<dyn SharedMedium>) -> MediumId {
        self.media.push(medium);
        let id = MediumId(self.media.len() as u32 - 1);
        self.schedule(SimDuration::from_secs(1), Ev::MediumTick { medium: id });
        id
    }

    /// Mutable access to a medium's concrete model (for fault
    /// injectors; downcast via `as_any_mut`).
    pub fn medium_mut(&mut self, id: MediumId) -> &mut dyn SharedMedium {
        &mut *self.media[id.idx()]
    }

    /// Read access to a medium.
    pub fn medium(&self, id: MediumId) -> &dyn SharedMedium {
        &*self.media[id.idx()]
    }

    /// Number of media attached.
    pub fn medium_count(&self) -> usize {
        self.media.len()
    }

    /// A flow by id.
    pub fn flow(&self, id: FlowId) -> Option<&TcpFlow> {
        self.flows.get(id.idx())
    }

    /// Quick summary of a flow.
    pub fn flow_stats(&self, id: FlowId) -> Option<FlowSummary> {
        self.flows.get(id.idx()).map(|f| FlowSummary {
            state: f.state,
            complete: f.complete,
            client_bytes_read: f.endpoint(Side::Client).bytes_read(),
            opened_at: f.opened_at,
            established_at: f.established_at,
            closed_at: f.closed_at,
        })
    }

    /// The one-way link from `a` to `b`, if they are adjacent.
    pub fn link_between(&self, a: HostId, b: HostId) -> Option<LinkId> {
        self.links
            .iter()
            .position(|l| l.from == a && l.to == b)
            .map(|i| LinkId(i as u32))
    }

    /// Smallest egress payload MTU of `host` (the MSS it advertises).
    fn host_mss(&self, host: HostId) -> u32 {
        self.links
            .iter()
            .filter(|l| l.from == host)
            .map(|l| l.cfg.mtu_payload)
            .min()
            .unwrap_or(1460)
    }

    fn schedule(&mut self, delay: SimDuration, ev: Ev) {
        let at = self.now + delay;
        self.seq += 1;
        if !matches!(ev, Ev::MediumTick { .. } | Ev::TcpTimer { .. }) {
            self.pending_other += 1;
        }
        self.stats.scheduled += 1;
        self.queue.push(at.0, self.seq, ev);
    }

    /// Arm (or re-arm) the retransmission timer for `(flow, side)`.
    ///
    /// Draws a sequence number exactly like `schedule` did when every
    /// arm pushed its own queue entry — the shared seq stream, and
    /// therefore every downstream RNG draw and corpus byte, is
    /// unchanged — but only enqueues when the slot has no entry or its
    /// entry is later than the new deadline. The common re-arm-on-ACK
    /// case just updates the slot target and lets the queued entry hop
    /// forward lazily when it fires.
    fn arm_tcp_timer(&mut self, flow: FlowId, side: Side, gen: u64, delay: SimDuration) {
        let at = self.now + delay;
        self.seq += 1;
        let seq = self.seq;
        self.stats.timer_arms += 1;
        let slot = &mut self.tcp_timers[flow.idx()][side_ix(side)];
        slot.target = Some(TimerTarget { at, gen, seq });
        let need_entry = match slot.sched {
            None => true,
            Some((s, _)) => s > at,
        };
        if need_entry {
            slot.wheel_gen += 1;
            let wheel_gen = slot.wheel_gen;
            slot.sched = Some((at, wheel_gen));
            self.stats.scheduled += 1;
            self.queue.push(
                at.0,
                seq,
                Ev::TcpTimer {
                    flow,
                    side,
                    wheel_gen,
                },
            );
        }
    }

    /// True if any flow still has a validly armed retransmission
    /// timer (i.e. one that will actually fire, not a cancelled slot).
    fn any_live_tcp_timer(&self) -> bool {
        self.tcp_timers.iter().zip(&self.flows).any(|(slots, f)| {
            [Side::Client, Side::Server].iter().any(|&side| {
                slots[side_ix(side)]
                    .target
                    .is_some_and(|tg| f.timer_valid(side, tg.gen))
            })
        })
    }

    // ------------------------------------------------------------------
    // Packet movement
    // ------------------------------------------------------------------

    /// Inject a packet at its source host (route lookup + first hop).
    fn inject<O: PacketObserver + ?Sized>(&mut self, pkt: Packet, obs: &mut O) {
        let src = pkt.src;
        self.forward_from(src, pkt, obs);
    }

    /// Forward `pkt` out of `host` toward `pkt.dst`.
    fn forward_from<O: PacketObserver + ?Sized>(&mut self, host: HostId, pkt: Packet, obs: &mut O) {
        let Some(link_id) = self.hosts[host.idx()].route_to(pkt.dst) else {
            obs.on_drop(self.now, LinkId(u32::MAX), &pkt, DropKind::NoRoute);
            return;
        };
        obs.observe(
            self.now,
            TapPoint {
                host,
                link: link_id,
                dir: TapDir::Tx,
            },
            &pkt,
        );
        let link = &mut self.links[link_id.idx()];
        match link.enqueue(pkt) {
            EnqueueOutcome::AcceptedIdle => self.start_tx(link_id),
            EnqueueOutcome::AcceptedQueued => {}
            EnqueueOutcome::Dropped(pkt) => {
                // The link counted the drop; the observer is told so
                // router-side probes can count local congestion drops.
                obs.on_drop(self.now, link_id, &pkt, DropKind::Queue);
            }
        }
    }

    fn start_tx(&mut self, link_id: LinkId) {
        let (busy_for, grant) = {
            let link = &mut self.links[link_id.idx()];
            let medium = link.medium;
            let shared = link.shared_to_dst;
            let (pkt_size, pkt_dst) = {
                let p = link.begin_tx();
                (p.size, p.dst)
            };
            let from = link.from;
            let to = if shared { pkt_dst } else { link.to };
            match medium {
                None => {
                    let d = SimDuration::tx_time(pkt_size as u64, link.cfg.rate_bps);
                    link.ctr.busy_ns += d.0;
                    (d, None)
                }
                Some(m) => {
                    let g =
                        self.media[m.idx()].transmit(self.now, from, to, pkt_size, &mut self.rng);
                    let link = &mut self.links[link_id.idx()];
                    link.ctr.busy_ns += (g.access_delay + g.airtime).0;
                    link.ctr.mac_retx += g.mac_retries as u64;
                    (g.access_delay + g.airtime, Some(g))
                }
            }
        };
        self.wifi_outcome[link_id.idx()] = grant;
        self.schedule(busy_for, Ev::LinkTxDone { link: link_id });
    }

    fn link_tx_done<O: PacketObserver + ?Sized>(&mut self, link_id: LinkId, obs: &mut O) {
        let grant = self.wifi_outcome[link_id.idx()].take();
        let (pkt, delivered, delay) = {
            let link = &mut self.links[link_id.idx()];
            let pkt = link.finish_tx();
            match grant {
                Some(g) => {
                    // Wireless: medium already decided success; tiny
                    // propagation.
                    (pkt, g.delivered, SimDuration::from_micros(2))
                }
                None => {
                    let lost = link.sample_loss(&mut self.rng);
                    let delay = link.sample_delay(&mut self.rng);
                    (pkt, !lost, delay)
                }
            }
        };
        if delivered {
            // Scheduled like any event — same seq draw, same counters —
            // but the packet waits in the link's propagation FIFO and
            // only a new head gets a queue entry. The FIFO is in
            // `(at, seq)` order: arrival times never decrease on a link
            // and seq always increases, so the head is the link's
            // earliest delivery and every packet still dispatches at
            // its own key.
            self.seq += 1;
            self.pending_other += 1;
            self.stats.scheduled += 1;
            let seq = self.seq;
            let at = self.now + delay;
            match self.links[link_id.idx()].start_propagation(at, seq, pkt) {
                Some(at) => self.queue.push(at.0, seq, Ev::Deliver { link: link_id }),
                None => self.parked += 1,
            }
        } else {
            self.links[link_id.idx()].ctr.drop_loss_pkts += 1;
            obs.on_drop(self.now, link_id, &pkt, DropKind::Loss);
        }
        if self.links[link_id.idx()].has_backlog() {
            self.start_tx(link_id);
        }
    }

    /// Deliver the head of `link_id`'s propagation FIFO, dispatched
    /// at key `(now, seq)`, after queueing the next head.
    fn deliver<O: PacketObserver + ?Sized>(&mut self, link_id: LinkId, seq: u64, obs: &mut O) {
        let link = &mut self.links[link_id.idx()];
        let (at, head_seq, pkt) = link.end_propagation();
        debug_assert_eq!(
            (at, head_seq),
            (self.now, seq),
            "propagation FIFO out of order"
        );
        if let Some((at, seq)) = link.propagation_head() {
            self.parked -= 1;
            self.queue.push(at.0, seq, Ev::Deliver { link: link_id });
        }
        let to = if link.shared_to_dst { pkt.dst } else { link.to };
        link.ctr.delivered_pkts += 1;
        link.ctr.delivered_bytes += pkt.size as u64;
        obs.observe(
            self.now,
            TapPoint {
                host: to,
                link: link_id,
                dir: TapDir::Rx,
            },
            &pkt,
        );
        if pkt.dst != to {
            // Transit hop: forward on.
            self.forward_from(to, pkt, obs);
            return;
        }
        // Local delivery.
        match pkt.hdr {
            TransportHdr::Tcp(hdr) => {
                let mut out = self.take_actions();
                let Some(flow) = self.flows.get_mut(hdr.flow.idx()) else {
                    self.put_actions(out);
                    return;
                };
                let Some(side) = flow.side_of(to) else {
                    self.put_actions(out);
                    return;
                };
                flow.on_segment(side, &hdr, self.now, &mut out);
                self.apply_tcp_actions(hdr.flow, &mut out, obs);
                self.put_actions(out);
            }
            TransportHdr::Udp(hdr) => {
                if let Some(owner) = self.udp.lookup(to, hdr.dst_port) {
                    self.notes.push_back(AppNote::Udp(
                        owner,
                        UdpEvent {
                            host: to,
                            dst_port: hdr.dst_port,
                            src: pkt.src,
                            src_port: hdr.src_port,
                            len: hdr.len,
                        },
                    ));
                }
            }
        }
    }

    /// Apply and drain one [`TcpActions`] batch; the caller returns the
    /// emptied buffer to the pool via [`Network::put_actions`].
    fn apply_tcp_actions<O: PacketObserver + ?Sized>(
        &mut self,
        flow: FlowId,
        out: &mut TcpActions,
        obs: &mut O,
    ) {
        for t in out.timers.drain(..) {
            self.arm_tcp_timer(flow, t.side, t.gen, t.delay);
        }
        for ev in out.events.drain(..) {
            self.route_tcp_event(flow, ev);
        }
        for pkt in out.packets.drain(..) {
            self.inject(pkt, obs);
        }
    }

    fn route_tcp_event(&mut self, flow: FlowId, ev: TcpAppEvent) {
        let owner = self.flow_owner[flow.idx()];
        // Lazy listener lookup: listeners may register after the flow
        // was opened (app start order is arbitrary).
        let listener = {
            let f = &self.flows[flow.idx()];
            let (h, p) = (f.host(Side::Server), f.dst_port);
            self.listeners
                .iter()
                .find(|(lh, lp, _)| *lh == h && *lp == p)
                .map(|(_, _, a)| *a)
        };
        let server_side = listener.unwrap_or(owner);
        let by_side = |side: Side| match side {
            Side::Client => owner,
            Side::Server => server_side,
        };
        match ev {
            TcpAppEvent::Incoming { .. } => self.notes.push_back(AppNote::Tcp(server_side, ev)),
            TcpAppEvent::Connected { .. } => self.notes.push_back(AppNote::Tcp(owner, ev)),
            TcpAppEvent::DataAvailable { side, .. }
            | TcpAppEvent::SendDrained { side, .. }
            | TcpAppEvent::PeerFin { side, .. } => {
                self.notes.push_back(AppNote::Tcp(by_side(side), ev))
            }
            TcpAppEvent::Closed { .. } | TcpAppEvent::Aborted { .. } => {
                self.notes.push_back(AppNote::Tcp(owner, ev));
                if let Some(l) = listener {
                    if l != owner {
                        self.notes.push_back(AppNote::Tcp(l, ev));
                    }
                }
            }
        }
    }

    fn handle<O: PacketObserver + ?Sized>(&mut self, ev: Ev, seq: u64, obs: &mut O) {
        match ev {
            Ev::LinkTxDone { link } => self.link_tx_done(link, obs),
            Ev::Deliver { link } => self.deliver(link, seq, obs),
            Ev::TcpTimer {
                flow,
                side,
                wheel_gen,
            } => {
                let slot = &mut self.tcp_timers[flow.idx()][side_ix(side)];
                // Superseded entry (a newer one was queued for an
                // earlier deadline): drop without any flow work.
                match slot.sched {
                    Some((_, wg)) if wg == wheel_gen => {}
                    _ => {
                        self.stats.timer_stale += 1;
                        return;
                    }
                }
                slot.sched = None;
                let Some(target) = slot.target else {
                    self.stats.timer_cancelled += 1;
                    return;
                };
                if target.at > self.now || (target.at == self.now && target.seq > seq) {
                    // Re-armed since this entry was queued: hop it to
                    // the stored `(at, seq)` — the exact total-order
                    // key the heap engine gave the surviving arm.
                    slot.wheel_gen += 1;
                    let wheel_gen = slot.wheel_gen;
                    slot.sched = Some((target.at, wheel_gen));
                    self.stats.timer_rescheduled += 1;
                    self.stats.scheduled += 1;
                    self.queue.push(
                        target.at.0,
                        target.seq,
                        Ev::TcpTimer {
                            flow,
                            side,
                            wheel_gen,
                        },
                    );
                    return;
                }
                slot.target = None;
                let mut out = self.take_actions();
                let Some(f) = self.flows.get_mut(flow.idx()) else {
                    self.put_actions(out);
                    return;
                };
                if !f.timer_valid(side, target.gen) {
                    self.stats.timer_cancelled += 1;
                    self.put_actions(out);
                    return;
                }
                f.on_timeout(side, self.now, &mut out);
                self.apply_tcp_actions(flow, &mut out, obs);
                self.put_actions(out);
            }
            Ev::AppTimer { app, token } => {
                // Routed by the harness (it owns the apps); stash as a
                // note using the UDP slot would be wrong — handled in
                // Harness::run_until directly.
                unreachable!("AppTimer handled by harness: {app} {token}")
            }
            Ev::MediumTick { medium } => {
                self.media[medium.idx()].on_tick(self.now, &mut self.rng);
                self.schedule(SimDuration::from_secs(1), Ev::MediumTick { medium });
            }
        }
    }
}

/// Control surface handed to applications. Wraps the network plus the
/// observer so any packets the app's actions produce are also taped.
pub struct Ctl<'a> {
    net: &'a mut Network,
    obs: &'a mut dyn PacketObserver,
    app: AppId,
}

impl<'a> Ctl<'a> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.net.now
    }

    /// This app's id.
    pub fn app_id(&self) -> AppId {
        self.app
    }

    /// Schedule a timer for this app after `delay`; `token` is returned
    /// in [`App::on_timer`].
    pub fn timer(&mut self, delay: SimDuration, token: u64) {
        let app = self.app;
        self.net.schedule(delay, Ev::AppTimer { app, token });
    }

    /// Open a TCP connection from `client` to `server`:`dst_port`.
    /// This app owns the flow; a listener registered on the server
    /// port receives the server-side events.
    pub fn tcp_connect(&mut self, client: HostId, server: HostId, dst_port: u16) -> FlowId {
        let id = FlowId(self.net.flows.len() as u32);
        let mss_c = self.net.host_mss(client);
        let mss_s = self.net.host_mss(server);
        let src_port = self.net.next_eph_port;
        self.net.next_eph_port = self.net.next_eph_port.wrapping_add(1).max(40_000);
        let rcv = self.net.tcp_rcv_buf;
        let mut flow = TcpFlow::new(id, client, server, dst_port, src_port, mss_c, mss_s, rcv);
        let mut out = self.net.take_actions();
        flow.open(self.net.now, &mut out);
        self.net.flows.push(flow);
        self.net.flow_owner.push(self.app);
        self.net.tcp_timers.push([TimerSlot::default(); 2]);
        self.net.apply_tcp_actions(id, &mut out, self.obs);
        self.net.put_actions(out);
        id
    }

    /// Register this app as the listener for (host, port).
    pub fn tcp_listen(&mut self, host: HostId, port: u16) {
        let app = self.app;
        self.net.listeners.push((host, port, app));
    }

    /// Queue `bytes` of application data for sending from `side`.
    pub fn tcp_send_from(&mut self, flow: FlowId, side: Side, bytes: u64) {
        let mut out = self.net.take_actions();
        let Some(f) = self.net.flows.get_mut(flow.idx()) else {
            self.net.put_actions(out);
            return;
        };
        f.app_send(side, bytes, self.net.now, &mut out);
        self.net.apply_tcp_actions(flow, &mut out, self.obs);
        self.net.put_actions(out);
    }

    /// Convenience: queue data from the client side.
    pub fn tcp_send(&mut self, flow: FlowId, bytes: u64) {
        self.tcp_send_from(flow, Side::Client, bytes);
    }

    /// Read up to `max` in-order bytes at `side`; returns the count.
    pub fn tcp_read_at(&mut self, flow: FlowId, side: Side, max: u64) -> u64 {
        let mut out = self.net.take_actions();
        let Some(f) = self.net.flows.get_mut(flow.idx()) else {
            self.net.put_actions(out);
            return 0;
        };
        let n = f.app_read(side, max, self.net.now, &mut out);
        self.net.apply_tcp_actions(flow, &mut out, self.obs);
        self.net.put_actions(out);
        n
    }

    /// Convenience: read at the client side.
    pub fn tcp_read(&mut self, flow: FlowId, max: u64) -> u64 {
        self.tcp_read_at(flow, Side::Client, max)
    }

    /// Half-close `side` after everything queued has been sent.
    pub fn tcp_close_from(&mut self, flow: FlowId, side: Side) {
        let mut out = self.net.take_actions();
        let Some(f) = self.net.flows.get_mut(flow.idx()) else {
            self.net.put_actions(out);
            return;
        };
        f.app_close(side, self.net.now, &mut out);
        self.net.apply_tcp_actions(flow, &mut out, self.obs);
        self.net.put_actions(out);
    }

    /// Convenience used by client-driven flows: close the client side
    /// after the queued data drains.
    pub fn tcp_close_after_send(&mut self, flow: FlowId) {
        self.tcp_close_from(flow, Side::Client);
    }

    /// Abort a flow immediately.
    pub fn tcp_abort(&mut self, flow: FlowId) {
        let mut out = self.net.take_actions();
        let Some(f) = self.net.flows.get_mut(flow.idx()) else {
            self.net.put_actions(out);
            return;
        };
        f.abort(self.net.now, &mut out);
        self.net.apply_tcp_actions(flow, &mut out, self.obs);
        self.net.put_actions(out);
    }

    /// Send a UDP datagram.
    pub fn udp_send(&mut self, src: HostId, dst: HostId, src_port: u16, dst_port: u16, len: u32) {
        let pkt = Packet::udp(
            src,
            dst,
            UdpHdr {
                dst_port,
                src_port,
                len,
            },
        );
        self.net.inject(pkt, self.obs);
    }

    /// Bind a UDP port for this app.
    pub fn udp_bind(&mut self, host: HostId, port: u16) {
        let app = self.app;
        self.net.udp.bind(host, port, app);
    }

    /// Immutable network access (hosts, links, flows, media).
    pub fn net(&self) -> &Network {
        self.net
    }

    /// Mutable host access (resource models).
    pub fn host_mut(&mut self, h: HostId) -> &mut Host {
        &mut self.net.hosts[h.idx()]
    }

    /// Mutable link access (fault injectors reshape links live).
    pub fn link_mut(&mut self, l: LinkId) -> &mut OneWayLink {
        &mut self.net.links[l.idx()]
    }

    /// Mutable medium access (fault injectors reconfigure the WLAN).
    pub fn medium_mut(&mut self, m: MediumId) -> &mut dyn SharedMedium {
        self.net.medium_mut(m)
    }
}

/// The harness: network + applications + observer, plus the run loop.
pub struct Harness<O: PacketObserver = NullObserver> {
    /// The network under simulation.
    pub net: Network,
    /// The passive observer (probe taps).
    pub obs: O,
    apps: Vec<Box<dyn App>>,
    started: bool,
}

impl Harness<NullObserver> {
    /// Harness without packet observation; reseeds the network RNG.
    pub fn new(mut net: Network, seed: u64) -> Self {
        net.rng = SimRng::seed_from_u64(seed);
        Harness {
            net,
            obs: NullObserver,
            apps: Vec::new(),
            started: false,
        }
    }
}

impl<O: PacketObserver> Harness<O> {
    /// Harness with a packet observer.
    pub fn with_observer(net: Network, obs: O) -> Self {
        Harness {
            net,
            obs,
            apps: Vec::new(),
            started: false,
        }
    }

    /// Harness with a packet observer, reusing `arena`'s app storage.
    pub fn with_observer_in(net: Network, obs: O, arena: &mut SimArena) -> Self {
        Harness {
            net,
            obs,
            apps: std::mem::take(&mut arena.apps),
            started: false,
        }
    }

    /// Tear the session down, returning all reusable storage to
    /// `arena` (see [`SimArena`]); yields the observer so callers can
    /// still extract measurements.
    pub fn recycle_into(mut self, arena: &mut SimArena) -> O {
        self.net.recycle_into(arena);
        self.apps.clear();
        arena.apps = self.apps;
        self.obs
    }

    /// Scheduler observability counters (events dispatched, scheduled,
    /// timer cancellations, …). Pair with a wall clock and
    /// [`SchedStats::events_per_sec`] for throughput.
    pub fn sched_stats(&self) -> SchedStats {
        self.net.sched_stats()
    }

    /// Register an application; returns its id.
    pub fn add_app(&mut self, app: Box<dyn App>) -> AppId {
        self.apps.push(app);
        AppId(self.apps.len() as u32 - 1)
    }

    fn drain_notes(&mut self) {
        while let Some(note) = self.net.notes.pop_front() {
            match note {
                AppNote::Tcp(app, ev) => {
                    let mut a = std::mem::replace(&mut self.apps[app.idx()], Box::new(NoApp));
                    let mut ctl = Ctl {
                        net: &mut self.net,
                        obs: &mut self.obs,
                        app,
                    };
                    a.on_tcp(ev, &mut ctl);
                    self.apps[app.idx()] = a;
                }
                AppNote::Udp(app, ev) => {
                    let mut a = std::mem::replace(&mut self.apps[app.idx()], Box::new(NoApp));
                    let mut ctl = Ctl {
                        net: &mut self.net,
                        obs: &mut self.obs,
                        app,
                    };
                    a.on_udp(ev, &mut ctl);
                    self.apps[app.idx()] = a;
                }
            }
        }
    }

    /// Run the simulation until simulated time `t` (inclusive). Events
    /// scheduled past `t` stay queued for subsequent calls.
    pub fn run_until(&mut self, t: SimTime) {
        if !self.started {
            self.started = true;
            for i in 0..self.apps.len() {
                let app = AppId(i as u32);
                let mut a = std::mem::replace(&mut self.apps[i], Box::new(NoApp));
                let mut ctl = Ctl {
                    net: &mut self.net,
                    obs: &mut self.obs,
                    app,
                };
                a.start(&mut ctl);
                self.apps[i] = a;
            }
        }
        self.drain_notes();
        while let Some((at, seq, ev)) = self.net.queue.pop_before(t.0) {
            self.net.now = SimTime(at);
            let occ = self.net.pending_events() as u64;
            let s = &mut self.net.stats;
            s.dispatched += 1;
            match ev {
                Ev::LinkTxDone { .. } => s.dispatched_link_tx_done += 1,
                Ev::Deliver { .. } => s.dispatched_deliver += 1,
                Ev::TcpTimer { .. } => s.dispatched_tcp_timer += 1,
                Ev::AppTimer { .. } => s.dispatched_app_timer += 1,
                Ev::MediumTick { .. } => s.dispatched_medium_tick += 1,
            }
            s.occupancy_sum += occ;
            if occ > s.occupancy_peak {
                s.occupancy_peak = occ;
            }
            if !matches!(ev, Ev::MediumTick { .. } | Ev::TcpTimer { .. }) {
                self.net.pending_other -= 1;
            }
            match ev {
                Ev::AppTimer { app, token } => {
                    let mut a = std::mem::replace(&mut self.apps[app.idx()], Box::new(NoApp));
                    let mut ctl = Ctl {
                        net: &mut self.net,
                        obs: &mut self.obs,
                        app,
                    };
                    a.on_timer(token, &mut ctl);
                    self.apps[app.idx()] = a;
                }
                other => self.net.handle(other, seq, &mut self.obs),
            }
            self.drain_notes();
        }
        if self.net.now < t {
            self.net.now = t;
        }
    }

    /// True if the simulation is quiescent: no packets in flight, no
    /// app timers pending, and no *validly armed* TCP timer. Self-
    /// rescheduling medium ticks and lazily cancelled timer entries
    /// still sitting in the queue do not count.
    pub fn idle(&self) -> bool {
        self.net.pending_other == 0 && !self.net.any_live_tcp_timer()
    }
}

/// Placeholder swapped in while an app's callback runs (any events it
/// would receive in that window would indicate an engine bug).
struct NoApp;
impl App for NoApp {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::topology::TopologyBuilder;

    /// Client fetches `n` bytes from a server app over one wire.
    struct Client {
        client: HostId,
        server: HostId,
        got: u64,
        flow: Option<FlowId>,
        done_at: Option<SimTime>,
    }
    impl App for Client {
        fn start(&mut self, ctl: &mut Ctl) {
            let f = ctl.tcp_connect(self.client, self.server, 80);
            self.flow = Some(f);
        }
        fn on_tcp(&mut self, ev: TcpEvent, ctl: &mut Ctl) {
            match ev {
                TcpEvent::Connected { flow } => {
                    // "GET": send a tiny request then wait for data.
                    ctl.tcp_send(flow, 300);
                }
                TcpEvent::DataAvailable { flow, .. } => {
                    self.got += ctl.tcp_read(flow, u64::MAX);
                }
                TcpEvent::PeerFin { flow, side } => {
                    self.got += ctl.tcp_read_at(flow, side, u64::MAX);
                    ctl.tcp_close_from(flow, side);
                }
                TcpEvent::Closed { .. } => self.done_at = Some(ctl.now()),
                _ => {}
            }
        }
    }

    /// Server responds to any request with `reply` bytes then FIN.
    struct Server {
        host: HostId,
        reply: u64,
    }
    impl App for Server {
        fn start(&mut self, ctl: &mut Ctl) {
            let h = self.host;
            ctl.tcp_listen(h, 80);
        }
        fn on_tcp(&mut self, ev: TcpEvent, ctl: &mut Ctl) {
            match ev {
                TcpEvent::DataAvailable { flow, side, .. } if side == Side::Server => {
                    ctl.tcp_read_at(flow, side, u64::MAX);
                    ctl.tcp_send_from(flow, Side::Server, self.reply);
                    ctl.tcp_close_from(flow, Side::Server);
                }
                _ => {}
            }
        }
    }

    fn two_host_net(cfg: LinkConfig) -> (Network, HostId, HostId) {
        let mut tb = TopologyBuilder::new();
        let a = tb.add_host("client");
        let b = tb.add_host("server");
        tb.add_duplex_link(a, b, cfg);
        (tb.build(), a, b)
    }

    #[test]
    fn request_response_over_clean_wire() {
        let (net, a, b) = two_host_net(LinkConfig::ethernet(10_000_000));
        let mut sim = Harness::new(net, 1);
        sim.add_app(Box::new(Client {
            client: a,
            server: b,
            got: 0,
            flow: None,
            done_at: None,
        }));
        sim.add_app(Box::new(Server {
            host: b,
            reply: 500_000,
        }));
        sim.run_until(SimTime::from_secs(30));
        let fs = sim.net.flow_stats(FlowId(0)).unwrap();
        assert!(fs.complete, "state={:?}", fs.state);
        // ~500 kB at 10 Mbit/s ≈ 0.4 s + handshake.
        let dur = fs.closed_at.unwrap().since(fs.opened_at).as_secs_f64();
        assert!(dur > 0.3 && dur < 3.0, "dur={dur}");
    }

    #[test]
    fn transfer_survives_lossy_link() {
        // Loss on the server→client (data) direction only: cumulative
        // ACKs absorb reverse-path drops without forcing a resend, so
        // a duplex-lossy link can complete with zero retransmissions
        // for seeds whose drops all land on the ACK path (as seed 7's
        // do) — which is exactly what this test must not depend on.
        let mut lossy = LinkConfig::ethernet(5_000_000);
        lossy.loss = 0.02;
        let mut tb = TopologyBuilder::new();
        let a = tb.add_host("client");
        let b = tb.add_host("server");
        tb.add_duplex_link_asym(a, b, LinkConfig::ethernet(5_000_000), lossy);
        let net = tb.build();
        let mut sim = Harness::new(net, 7);
        sim.add_app(Box::new(Client {
            client: a,
            server: b,
            got: 0,
            flow: None,
            done_at: None,
        }));
        sim.add_app(Box::new(Server {
            host: b,
            reply: 300_000,
        }));
        sim.run_until(SimTime::from_secs(120));
        let fs = sim.net.flow_stats(FlowId(0)).unwrap();
        assert!(
            fs.complete,
            "lossy transfer must still finish: {:?}",
            fs.state
        );
        let f = sim.net.flow(FlowId(0)).unwrap();
        assert!(
            f.endpoint(Side::Server).stats.retx_pkts > 0,
            "2% loss must cause retransmissions"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed: u64| -> (u64, u64) {
            let mut cfg = LinkConfig::ethernet(5_000_000);
            cfg.loss = 0.01;
            cfg.jitter_sd = SimDuration::from_millis(3);
            let (net, a, b) = two_host_net(cfg);
            let mut sim = Harness::new(net, seed);
            sim.add_app(Box::new(Client {
                client: a,
                server: b,
                got: 0,
                flow: None,
                done_at: None,
            }));
            sim.add_app(Box::new(Server {
                host: b,
                reply: 400_000,
            }));
            sim.run_until(SimTime::from_secs(60));
            let f = sim.net.flow(FlowId(0)).unwrap();
            (
                f.endpoint(Side::Server).stats.retx_pkts,
                f.closed_at.map(|t| t.0).unwrap_or(0),
            )
        };
        assert_eq!(run(3), run(3));
        // Different seeds should (with these parameters) differ.
        assert_ne!(run(3).1, run(4).1);
    }

    #[test]
    fn bottleneck_queue_causes_congestion_drops() {
        /// Counts drops the observer is told about, by kind.
        #[derive(Default)]
        struct Drops {
            queue: u64,
            loss: u64,
        }
        impl PacketObserver for Drops {
            fn observe(&mut self, _n: SimTime, _t: TapPoint, _p: &Packet) {}
            fn on_drop(&mut self, _n: SimTime, _l: LinkId, _p: &Packet, kind: DropKind) {
                match kind {
                    DropKind::Queue => self.queue += 1,
                    DropKind::Loss => self.loss += 1,
                    DropKind::NoRoute => {}
                }
            }
        }
        // 100 Mbit/s feeding a 2 Mbit/s bottleneck with a small queue.
        let mut tb = TopologyBuilder::new();
        let a = tb.add_host("client");
        let r = tb.add_host("router");
        let b = tb.add_host("server");
        tb.add_duplex_link(a, r, LinkConfig::ethernet(100_000_000));
        let mut thin = LinkConfig::ethernet(2_000_000);
        thin.queue_bytes = 16_000;
        tb.add_duplex_link(r, b, thin);
        let mut net = tb.build();
        net.rng = SimRng::seed_from_u64(5);
        let mut sim = Harness::with_observer(net, Drops::default());
        sim.add_app(Box::new(Client {
            client: a,
            server: b,
            got: 0,
            flow: None,
            done_at: None,
        }));
        sim.add_app(Box::new(Server {
            host: b,
            reply: 2_000_000,
        }));
        sim.run_until(SimTime::from_secs(60));
        let fs = sim.net.flow_stats(FlowId(0)).unwrap();
        assert!(fs.complete);
        // The server→router direction of the bottleneck is congested.
        let lb = sim.net.link_between(b, r).unwrap();
        assert!(
            sim.net.links[lb.idx()].ctr.drop_tail_pkts > 0,
            "expected tail drops at the bottleneck"
        );
        let f = sim.net.flow(FlowId(0)).unwrap();
        assert!(f.endpoint(Side::Server).stats.retx_pkts > 0);
        // Every tail drop reaches the observer, and nothing else is
        // reported as one.
        let tail: u64 = sim.net.links.iter().map(|l| l.ctr.drop_tail_pkts).sum();
        assert_eq!(sim.obs.queue, tail);
        assert_eq!(sim.obs.loss, 0, "clean links lose nothing at random");
    }

    #[test]
    fn udp_flood_reaches_bound_port() {
        struct Blaster {
            src: HostId,
            dst: HostId,
        }
        impl App for Blaster {
            fn start(&mut self, ctl: &mut Ctl) {
                ctl.timer(SimDuration::from_millis(1), 0);
            }
            fn on_timer(&mut self, _t: u64, ctl: &mut Ctl) {
                ctl.udp_send(self.src, self.dst, 1000, 5001, 1200);
                if ctl.now() < SimTime::from_millis(100) {
                    ctl.timer(SimDuration::from_millis(1), 0);
                }
            }
        }
        struct Sink {
            host: HostId,
            got: std::rc::Rc<std::cell::Cell<u32>>,
        }
        impl App for Sink {
            fn start(&mut self, ctl: &mut Ctl) {
                let h = self.host;
                ctl.udp_bind(h, 5001);
            }
            fn on_udp(&mut self, ev: UdpEvent, _ctl: &mut Ctl) {
                assert_eq!(ev.dst_port, 5001);
                self.got.set(self.got.get() + 1);
            }
        }
        let (net, a, b) = two_host_net(LinkConfig::ethernet(10_000_000));
        let got = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut sim = Harness::new(net, 1);
        sim.add_app(Box::new(Blaster { src: a, dst: b }));
        sim.add_app(Box::new(Sink {
            host: b,
            got: got.clone(),
        }));
        sim.run_until(SimTime::from_secs(1));
        assert!(got.get() >= 99, "got {}", got.get());
    }

    #[test]
    fn observer_sees_all_taps() {
        #[derive(Default)]
        struct Counter {
            tx: u64,
            rx: u64,
        }
        impl PacketObserver for Counter {
            fn observe(&mut self, _n: SimTime, tap: TapPoint, _p: &Packet) {
                match tap.dir {
                    TapDir::Tx => self.tx += 1,
                    TapDir::Rx => self.rx += 1,
                }
            }
        }
        let (net, a, b) = two_host_net(LinkConfig::ethernet(10_000_000));
        let mut sim = Harness::with_observer(net, Counter::default());
        sim.add_app(Box::new(Client {
            client: a,
            server: b,
            got: 0,
            flow: None,
            done_at: None,
        }));
        sim.add_app(Box::new(Server {
            host: b,
            reply: 50_000,
        }));
        sim.run_until(SimTime::from_secs(10));
        assert!(sim.obs.tx > 40);
        // No loss: every transmitted packet was received.
        assert_eq!(sim.obs.tx, sim.obs.rx);
    }

    #[test]
    fn idle_ignores_medium_ticks_and_cancelled_timers() {
        use crate::medium::PerfectMedium;

        // A shared medium keeps a MediumTick self-rescheduling once per
        // simulated second forever, and a completed TCP flow leaves its
        // last (lazily cancelled) timer entry sitting in the wheel.
        // Neither must keep `idle()` false once the transfer is done.
        let mut tb = TopologyBuilder::new();
        let sta = tb.add_host("station");
        let ap = tb.add_host("ap");
        let medium = tb.add_medium(Box::new(PerfectMedium::new(54_000_000)));
        tb.add_wireless(sta, ap, medium, 1460);
        let mut sim = Harness::new(tb.build(), 11);
        sim.add_app(Box::new(Client {
            client: sta,
            server: ap,
            got: 0,
            flow: None,
            done_at: None,
        }));
        sim.add_app(Box::new(Server {
            host: ap,
            reply: 200_000,
        }));

        // Mid-transfer: packets in flight, so not idle.
        sim.run_until(SimTime::from_millis(30));
        assert!(!sim.idle(), "mid-transfer must not be idle");

        sim.run_until(SimTime::from_secs(60));
        let fs = sim.net.flow_stats(FlowId(0)).unwrap();
        assert!(fs.complete, "state={:?}", fs.state);
        // The medium tick is still queued (it reschedules itself
        // forever), yet the simulation is quiescent.
        assert!(!sim.net.queue.is_empty(), "medium tick should be queued");
        assert!(
            sim.idle(),
            "medium ticks/cancelled timers must not block idle"
        );
    }

    #[test]
    fn zero_delay_timers_fire_in_schedule_order() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // Same-timestamp events must dispatch in schedule (seq) order,
        // including a zero-delay timer armed from *within* a timer
        // callback at that same instant: it goes to the back of the
        // line, not the front.
        struct Ticker {
            order: Rc<RefCell<Vec<u64>>>,
        }
        impl App for Ticker {
            fn start(&mut self, ctl: &mut Ctl) {
                ctl.timer(SimDuration::from_millis(1), 99);
                ctl.timer(SimDuration::ZERO, 1);
                ctl.timer(SimDuration::ZERO, 2);
                ctl.timer(SimDuration::ZERO, 3);
            }
            fn on_timer(&mut self, token: u64, ctl: &mut Ctl) {
                self.order.borrow_mut().push(token);
                if token == 1 {
                    ctl.timer(SimDuration::ZERO, 4);
                }
            }
        }
        let (net, _, _) = two_host_net(LinkConfig::ethernet(10_000_000));
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Harness::new(net, 1);
        sim.add_app(Box::new(Ticker {
            order: Rc::clone(&order),
        }));
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(*order.borrow(), vec![1, 2, 3, 4, 99]);
    }

    #[test]
    fn wheel_and_heap_dispatch_identical_traces() {
        use crate::sched::SchedulerKind;

        // The full per-packet tap trace — every (time, host, link,
        // direction) tuple, in dispatch order — must be identical under
        // the timer wheel and the binary-heap oracle. Loss makes this a
        // meaningful workout: TCP retransmission timers are armed,
        // rescheduled and lazily cancelled throughout.
        struct Recorder {
            log: Vec<(SimTime, TapPoint)>,
        }
        impl PacketObserver for Recorder {
            fn observe(&mut self, now: SimTime, tap: TapPoint, _p: &Packet) {
                self.log.push((now, tap));
            }
        }
        let run = |kind: SchedulerKind| -> (Vec<(SimTime, TapPoint)>, SchedStats) {
            let mut lossy = LinkConfig::ethernet(5_000_000);
            lossy.loss = 0.02;
            let mut tb = TopologyBuilder::new();
            let a = tb.add_host("client");
            let b = tb.add_host("server");
            tb.add_duplex_link_asym(a, b, LinkConfig::ethernet(5_000_000), lossy);
            let mut net = tb.build();
            net.set_scheduler(kind);
            net.rng = SimRng::seed_from_u64(7);
            let mut sim = Harness::with_observer(net, Recorder { log: Vec::new() });
            sim.add_app(Box::new(Client {
                client: a,
                server: b,
                got: 0,
                flow: None,
                done_at: None,
            }));
            sim.add_app(Box::new(Server {
                host: b,
                reply: 300_000,
            }));
            sim.run_until(SimTime::from_secs(120));
            assert!(sim.net.flow_stats(FlowId(0)).unwrap().complete);
            let stats = sim.sched_stats();
            (sim.obs.log, stats)
        };
        let (wheel, wheel_stats) = run(SchedulerKind::TimerWheel);
        let (heap, _) = run(SchedulerKind::BinaryHeap);
        assert!(
            wheel_stats.timer_rescheduled > 0,
            "lossy run should exercise TCP timer rescheduling"
        );
        assert!(!wheel.is_empty());
        assert_eq!(wheel, heap, "wheel and heap packet traces diverge");
    }

    #[test]
    fn per_kind_dispatch_counts_sum_and_match_across_schedulers() {
        use crate::medium::PerfectMedium;
        use crate::sched::SchedulerKind;

        /// Sends one UDP datagram every 10 ms for the first 200 ms.
        struct Pinger {
            src: HostId,
            dst: HostId,
        }
        impl App for Pinger {
            fn start(&mut self, ctl: &mut Ctl) {
                ctl.timer(SimDuration::from_millis(10), 0);
            }
            fn on_timer(&mut self, _t: u64, ctl: &mut Ctl) {
                ctl.udp_send(self.src, self.dst, 1000, 5001, 600);
                if ctl.now() < SimTime::from_millis(200) {
                    ctl.timer(SimDuration::from_millis(10), 0);
                }
            }
        }
        // A lossy 20 ms path keeps many packets in propagation at once
        // and exercises TCP timers; a free-standing medium adds ticks.
        let run = |kind: SchedulerKind| -> (SchedStats, bool) {
            let mut lossy = LinkConfig::ethernet(5_000_000);
            lossy.loss = 0.02;
            lossy.delay = SimDuration::from_millis(20);
            let mut tb = TopologyBuilder::new();
            let a = tb.add_host("client");
            let b = tb.add_host("server");
            tb.add_duplex_link_asym(a, b, LinkConfig::ethernet(5_000_000), lossy);
            let mut net = tb.build();
            net.set_scheduler(kind);
            net.add_medium(Box::new(PerfectMedium::new(54_000_000)));
            let mut sim = Harness::new(net, 7);
            sim.add_app(Box::new(Client {
                client: a,
                server: b,
                got: 0,
                flow: None,
                done_at: None,
            }));
            sim.add_app(Box::new(Server {
                host: b,
                reply: 300_000,
            }));
            sim.add_app(Box::new(Pinger { src: b, dst: a }));
            let mut parked_seen = false;
            for ms in (10..=120_000).step_by(10) {
                sim.run_until(SimTime::from_millis(ms));
                parked_seen |= sim.net.pending_events() > sim.net.queue.len();
            }
            assert!(sim.net.flow_stats(FlowId(0)).unwrap().complete);
            (sim.sched_stats(), parked_seen)
        };
        let (wheel, parked_seen) = run(SchedulerKind::TimerWheel);
        let (heap, _) = run(SchedulerKind::BinaryHeap);
        let kinds = [
            wheel.dispatched_link_tx_done,
            wheel.dispatched_deliver,
            wheel.dispatched_tcp_timer,
            wheel.dispatched_app_timer,
            wheel.dispatched_medium_tick,
        ];
        assert!(
            kinds.iter().all(|&n| n > 0),
            "an event kind never ran: {wheel:?}"
        );
        assert_eq!(kinds.iter().sum::<u64>(), wheel.dispatched);
        assert!(
            parked_seen,
            "no packet ever waited behind a propagation head"
        );
        assert_eq!(wheel, heap, "wheel and heap stats diverge");
    }
}
