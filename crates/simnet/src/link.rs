//! One-way links with rate, delay, jitter, loss and drop-tail queues.
//!
//! This is the `tc`/`netem` equivalent of the paper's testbed: a token
//! of bandwidth (serialisation at `rate_bps`), a normally-jittered
//! propagation delay, Bernoulli random loss, and a finite FIFO queue
//! whose overflow produces congestion loss. Link parameter presets
//! reproduce **Table 3** of the paper exactly (DSL: 7.8 Mbit/s,
//! 50±20 ms, 0.75±0.5 %; Mobile: 5.22 Mbit/s, 100±30 ms, 1.4±1 %).

use std::collections::VecDeque;

use crate::ids::{HostId, MediumId};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// Static configuration of a one-way link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Serialisation rate in bits/second.
    pub rate_bps: u64,
    /// Mean one-way propagation delay.
    pub delay: SimDuration,
    /// Standard deviation of the per-packet normal delay jitter.
    pub jitter_sd: SimDuration,
    /// Average random loss rate. Losses are drawn from a two-state
    /// Gilbert–Elliott process with mean burst length
    /// [`LinkConfig::loss_burst`], matching the bursty character of
    /// real access-link loss (independent per-packet loss at these
    /// rates would unrealistically cap TCP throughput).
    pub loss: f64,
    /// Mean number of consecutive packets lost per loss episode.
    pub loss_burst: f64,
    /// Drop-tail queue limit in bytes.
    pub queue_bytes: u32,
    /// Maximum transport payload per packet on this link (MSS source).
    pub mtu_payload: u32,
}

impl LinkConfig {
    /// Clean wired Ethernet at the given rate: sub-millisecond delay,
    /// no jitter, no random loss, 256 KiB buffer.
    pub fn ethernet(rate_bps: u64) -> Self {
        LinkConfig {
            rate_bps,
            delay: SimDuration::from_micros(200),
            jitter_sd: SimDuration::ZERO,
            loss: 0.0,
            loss_burst: 4.0,
            queue_bytes: 256 * 1024,
            mtu_payload: 1460,
        }
    }

    /// LAN segment preset (Table 2, "LAN shaping"): 802.11-class rates
    /// between 1 and 70 Mbit/s, 1 ms delay, 0 % loss.
    pub fn lan_shaped(rate_bps: u64) -> Self {
        LinkConfig {
            rate_bps,
            delay: SimDuration::from_millis(1),
            jitter_sd: SimDuration::ZERO,
            loss: 0.0,
            loss_burst: 4.0,
            queue_bytes: 128 * 1024,
            mtu_payload: 1460,
        }
    }

    /// Nominal DSL broadband link, Table 3 row 1: 7.8 Mbit/s, 50 ms
    /// mean delay with ±20 ms normal jitter, 0.75 % loss.
    pub fn dsl_nominal() -> Self {
        LinkConfig {
            rate_bps: 7_800_000,
            delay: SimDuration::from_millis(50),
            // "50±20ms" — we interpret the indicated range as ±2σ,
            // i.e. σ = 10 ms, so ~95 % of packets fall inside it.
            jitter_sd: SimDuration::from_millis(10),
            loss: 0.0075,
            loss_burst: 5.0,
            queue_bytes: 96 * 1024,
            mtu_payload: 1460,
        }
    }

    /// DSL link with per-session parameters drawn from the Table 3
    /// distributions ("delay and loss … follow a normal distribution
    /// within the indicated ranges").
    pub fn dsl(rng: &mut SimRng) -> Self {
        let mut c = Self::dsl_nominal();
        c.delay = SimDuration::from_secs_f64(rng.normal_min(0.050, 0.010, 0.005));
        c.loss = rng.normal_min(0.0075, 0.0025, 0.0).min(0.05);
        c
    }

    /// Nominal cellular (3G-class) link, Table 3 row 2: 5.22 Mbit/s,
    /// 100 ms ± 30 ms, 1.4 % loss.
    pub fn mobile_nominal() -> Self {
        LinkConfig {
            rate_bps: 5_220_000,
            delay: SimDuration::from_millis(100),
            jitter_sd: SimDuration::from_millis(15),
            loss: 0.014,
            loss_burst: 5.0,
            queue_bytes: 96 * 1024,
            mtu_payload: 1400,
        }
    }

    /// Cellular link with per-session parameter draws (see [`Self::dsl`]).
    pub fn mobile(rng: &mut SimRng) -> Self {
        let mut c = Self::mobile_nominal();
        c.delay = SimDuration::from_secs_f64(rng.normal_min(0.100, 0.015, 0.010));
        c.loss = rng.normal_min(0.014, 0.005, 0.0).min(0.08);
        c
    }

    /// Fast backbone segment (content-provider side of the WAN).
    pub fn backbone() -> Self {
        LinkConfig {
            rate_bps: 1_000_000_000,
            delay: SimDuration::from_millis(10),
            jitter_sd: SimDuration::from_millis(1),
            loss: 0.0,
            loss_burst: 4.0,
            queue_bytes: 1024 * 1024,
            mtu_payload: 1460,
        }
    }
}

/// Per-link monotone counters, readable by probes.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkCounters {
    /// Packets accepted into the queue.
    pub enq_pkts: u64,
    /// Bytes accepted into the queue.
    pub enq_bytes: u64,
    /// Packets dropped because the queue was full (congestion loss).
    pub drop_tail_pkts: u64,
    /// Packets dropped by random loss / exhausted MAC retries.
    pub drop_loss_pkts: u64,
    /// Packets delivered to the far end.
    pub delivered_pkts: u64,
    /// Bytes delivered to the far end.
    pub delivered_bytes: u64,
    /// Link-layer (MAC) retransmissions performed, wireless only.
    pub mac_retx: u64,
    /// Cumulative time the transmitter was busy, in ns.
    pub busy_ns: u64,
}

/// Dynamic state of a one-way link.
#[derive(Debug, Clone)]
pub struct OneWayLink {
    /// Static parameters (mutable — fault injectors reshape links).
    pub cfg: LinkConfig,
    /// Transmitting host.
    pub from: HostId,
    /// Receiving host.
    pub to: HostId,
    /// Shared wireless medium, if this is a WLAN attachment. When set,
    /// serialisation time, extra queueing-for-airtime and loss are
    /// decided by the medium model instead of `cfg.rate_bps`/`cfg.loss`.
    pub medium: Option<MediumId>,
    /// AP downlink semantics: one queue serves every associated
    /// station and each packet is delivered to its own destination
    /// (real APs have a single transmit queue per radio — this is what
    /// makes WLAN congestion starve everyone behind the same AP).
    pub shared_to_dst: bool,
    queue: VecDeque<Packet>,
    queued_bytes: u32,
    /// Packet currently being serialised, if any.
    in_flight: Option<Packet>,
    /// Packets in propagation, in arrival order, each with the
    /// `(at, seq)` key its delivery dispatches at. Only the head has an
    /// event-queue entry; the engine queues the next one when the head
    /// is delivered.
    propagating: VecDeque<(SimTime, u64, Packet)>,
    /// Latest scheduled delivery time — links are FIFO, so jittered
    /// delays never reorder packets (they compress into bursts
    /// instead, like a real queueing path).
    last_delivery: SimTime,
    /// Gilbert–Elliott loss state: currently inside a loss burst.
    loss_bad: bool,
    /// Counters for probes.
    pub ctr: LinkCounters,
}

/// Result of offering a packet to a link queue.
#[derive(Debug, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted and the transmitter was idle: caller must start
    /// transmission.
    AcceptedIdle,
    /// Accepted behind other packets.
    AcceptedQueued,
    /// Dropped at the tail (queue full); the packet is handed back so
    /// the caller can report it.
    Dropped(Packet),
}

impl OneWayLink {
    /// Create an idle link.
    pub fn new(from: HostId, to: HostId, cfg: LinkConfig) -> Self {
        OneWayLink {
            cfg,
            from,
            to,
            medium: None,
            shared_to_dst: false,
            queue: VecDeque::new(),
            queued_bytes: 0,
            in_flight: None,
            propagating: VecDeque::new(),
            last_delivery: SimTime::ZERO,
            loss_bad: false,
            ctr: LinkCounters::default(),
        }
    }

    /// Offer a packet to the queue.
    pub fn enqueue(&mut self, pkt: Packet) -> EnqueueOutcome {
        if self.queued_bytes + pkt.size > self.cfg.queue_bytes {
            self.ctr.drop_tail_pkts += 1;
            return EnqueueOutcome::Dropped(pkt);
        }
        self.ctr.enq_pkts += 1;
        self.ctr.enq_bytes += pkt.size as u64;
        self.queued_bytes += pkt.size;
        self.queue.push_back(pkt);
        if self.in_flight.is_none() && self.queue.len() == 1 {
            EnqueueOutcome::AcceptedIdle
        } else {
            EnqueueOutcome::AcceptedQueued
        }
    }

    /// Pop the head of the queue into the in-flight slot. Returns a
    /// reference to it. Panics if called while busy or empty (engine
    /// bug).
    pub fn begin_tx(&mut self) -> &Packet {
        assert!(self.in_flight.is_none(), "link already transmitting");
        let pkt = self.queue.pop_front().expect("begin_tx on empty queue");
        self.queued_bytes -= pkt.size;
        self.in_flight.insert(pkt)
    }

    /// Finish the in-flight transmission, returning the packet.
    pub fn finish_tx(&mut self) -> Packet {
        self.in_flight
            .take()
            .expect("finish_tx with nothing in flight")
    }

    /// Put a transmitted packet into propagation. It arrives at `at`,
    /// or with the last packet still ahead of it if that one arrives
    /// later: links never reorder. `seq` is the engine sequence number
    /// its delivery dispatches at. Returns the arrival time if the
    /// packet is now the head (the caller queues its delivery), `None`
    /// if it waits behind another packet in propagation.
    pub(crate) fn start_propagation(
        &mut self,
        at: SimTime,
        seq: u64,
        pkt: Packet,
    ) -> Option<SimTime> {
        let at = at.max(self.last_delivery);
        self.last_delivery = at;
        self.propagating.push_back((at, seq, pkt));
        (self.propagating.len() == 1).then_some(at)
    }

    /// Remove the head packet in propagation, with its `(at, seq)` key.
    /// Panics if nothing is propagating (engine bug).
    pub(crate) fn end_propagation(&mut self) -> (SimTime, u64, Packet) {
        self.propagating
            .pop_front()
            .expect("end_propagation with nothing propagating")
    }

    /// The `(at, seq)` key of the head packet in propagation, if any.
    pub(crate) fn propagation_head(&self) -> Option<(SimTime, u64)> {
        self.propagating.front().map(|&(at, seq, _)| (at, seq))
    }

    /// Whether another packet is waiting behind the transmitter.
    pub fn has_backlog(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Whether the transmitter is serialising a packet right now.
    pub fn is_busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Bytes currently sitting in the queue (not counting in-flight).
    pub fn backlog_bytes(&self) -> u32 {
        self.queued_bytes
    }

    /// Sample the per-packet propagation delay (mean + truncated normal
    /// jitter).
    pub fn sample_delay(&self, rng: &mut SimRng) -> SimDuration {
        if self.cfg.jitter_sd == SimDuration::ZERO {
            return self.cfg.delay;
        }
        let d = rng.normal_min(
            self.cfg.delay.as_secs_f64(),
            self.cfg.jitter_sd.as_secs_f64(),
            0.0,
        );
        SimDuration::from_secs_f64(d)
    }

    /// Random-loss draw for one packet (Gilbert–Elliott: in the bad
    /// state every packet is lost; transitions keep the long-run loss
    /// rate at `cfg.loss` with mean burst length `cfg.loss_burst`).
    pub fn sample_loss(&mut self, rng: &mut SimRng) -> bool {
        let p = self.cfg.loss.clamp(0.0, 0.95);
        if p <= 0.0 {
            self.loss_bad = false;
            return false;
        }
        let burst = self.cfg.loss_burst.max(1.0);
        if self.loss_bad {
            // Leave the burst with probability 1/burst.
            if rng.chance(1.0 / burst) {
                self.loss_bad = false;
                return false;
            }
            return true;
        }
        // Enter a burst so that the stationary loss rate is `p`:
        // p_gb = p / (burst * (1 - p)).
        let p_gb = (p / (burst * (1.0 - p))).min(1.0);
        if rng.chance(p_gb) {
            self.loss_bad = true;
            return true;
        }
        false
    }

    /// Long-run utilisation of the transmitter in `[0, 1]` over the
    /// window `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.0 == 0 {
            return 0.0;
        }
        (self.ctr.busy_ns as f64 / now.0 as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FlowId;
    use crate::packet::{TcpFlags, TcpHdr};

    fn pkt(size_payload: u32) -> Packet {
        Packet::tcp(
            HostId(0),
            HostId(1),
            TcpHdr {
                flow: FlowId(0),
                from_initiator: true,
                dport: 80,
                sport: 40000,
                seq: 0,
                ack: 0,
                len: size_payload,
                flags: TcpFlags::DATA,
                wnd: 65535,
                mss: 1460,
                tsval: SimTime::ZERO,
                tsecr: SimTime::ZERO,
                is_retx: false,
            },
        )
    }

    #[test]
    fn enqueue_until_full_then_tail_drop() {
        let mut cfg = LinkConfig::ethernet(10_000_000);
        cfg.queue_bytes = 4000;
        let mut l = OneWayLink::new(HostId(0), HostId(1), cfg);
        assert_eq!(l.enqueue(pkt(1460)), EnqueueOutcome::AcceptedIdle);
        assert_eq!(l.enqueue(pkt(1460)), EnqueueOutcome::AcceptedQueued);
        // Third 1512-byte packet exceeds the 4000-byte budget.
        assert_eq!(l.enqueue(pkt(1460)), EnqueueOutcome::Dropped(pkt(1460)));
        assert_eq!(l.ctr.drop_tail_pkts, 1);
        assert_eq!(l.ctr.enq_pkts, 2);
    }

    #[test]
    fn tx_cycle() {
        let mut l = OneWayLink::new(HostId(0), HostId(1), LinkConfig::ethernet(1_000_000));
        l.enqueue(pkt(100));
        l.enqueue(pkt(200));
        assert!(!l.is_busy());
        let first = l.begin_tx().payload_len();
        assert_eq!(first, 100);
        assert!(l.is_busy());
        assert!(l.has_backlog());
        let done = l.finish_tx();
        assert_eq!(done.payload_len(), 100);
        assert!(!l.is_busy());
    }

    #[test]
    fn propagation_is_fifo_with_head_only_keys() {
        let mut l = OneWayLink::new(HostId(0), HostId(1), LinkConfig::ethernet(1_000_000));
        let t = SimTime::from_millis;
        assert_eq!(l.start_propagation(t(5), 1, pkt(100)), Some(t(5)));
        // A shorter jittered delay still arrives behind the head.
        assert_eq!(l.start_propagation(t(3), 2, pkt(200)), None);
        assert_eq!(l.start_propagation(t(9), 3, pkt(300)), None);
        let (at, seq, p) = l.end_propagation();
        assert_eq!((at, seq, p.payload_len()), (t(5), 1, 100));
        assert_eq!(l.propagation_head(), Some((t(5), 2)));
        l.end_propagation();
        assert_eq!(l.propagation_head(), Some((t(9), 3)));
        l.end_propagation();
        assert_eq!(l.propagation_head(), None);
        // Empty again: the next packet is a head, but still no earlier
        // than the last arrival.
        assert_eq!(l.start_propagation(t(1), 4, pkt(100)), Some(t(9)));
    }

    #[test]
    #[should_panic(expected = "empty queue")]
    fn begin_tx_on_empty_panics() {
        let mut l = OneWayLink::new(HostId(0), HostId(1), LinkConfig::ethernet(1_000_000));
        l.begin_tx();
    }

    #[test]
    fn delay_sampling_respects_zero_jitter() {
        let l = OneWayLink::new(HostId(0), HostId(1), LinkConfig::ethernet(1_000_000));
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(l.sample_delay(&mut rng), SimDuration::from_micros(200));
    }

    #[test]
    fn dsl_preset_matches_table3() {
        let c = LinkConfig::dsl_nominal();
        assert_eq!(c.rate_bps, 7_800_000);
        assert_eq!(c.delay, SimDuration::from_millis(50));
        assert!((c.loss - 0.0075).abs() < 1e-12);
        let m = LinkConfig::mobile_nominal();
        assert_eq!(m.rate_bps, 5_220_000);
        assert_eq!(m.delay, SimDuration::from_millis(100));
        assert!((m.loss - 0.014).abs() < 1e-12);
    }

    #[test]
    fn sampled_presets_stay_positive() {
        let mut rng = SimRng::seed_from_u64(42);
        for _ in 0..200 {
            let d = LinkConfig::dsl(&mut rng);
            assert!(d.delay >= SimDuration::from_millis(5));
            assert!((0.0..=0.05).contains(&d.loss));
            let m = LinkConfig::mobile(&mut rng);
            assert!(m.delay >= SimDuration::from_millis(10));
            assert!((0.0..=0.08).contains(&m.loss));
        }
    }

    #[test]
    fn utilization_tracks_busy_time() {
        let mut l = OneWayLink::new(HostId(0), HostId(1), LinkConfig::ethernet(1_000_000));
        l.ctr.busy_ns = 500_000_000;
        assert!((l.utilization(SimTime::from_secs(1)) - 0.5).abs() < 1e-12);
        assert_eq!(l.utilization(SimTime::ZERO), 0.0);
    }
}
