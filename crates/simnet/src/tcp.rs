//! Packet-level TCP (Reno with NewReno partial-ACK recovery).
//!
//! The model implements what the paper's metric inventory needs to be
//! *real* rather than painted on: three-way handshake (first-packet
//! arrival delay), slow start and congestion avoidance (utilisation
//! dynamics), fast retransmit/recovery and RTO with exponential backoff
//! (retransmission counts), receiver flow control with a finite buffer
//! drained by the application (window-size metrics — a stalled player
//! really does close the window), MSS negotiation from path MTUs, out-
//! of-order reassembly (OOO/reordering counts), and RFC 1323-style
//! timestamps (RTT samples for endpoints *and* passive observers).
//!
//! The state machine is engine-agnostic: every entry point takes `now`
//! and appends to a [`TcpActions`] batch (packets to inject, timers to
//! arm, application events). The engine owns delivery and timer
//! bookkeeping.

use std::collections::BTreeMap;

use crate::ids::{FlowId, HostId};
use crate::packet::{Packet, TcpFlags, TcpHdr};
use crate::stats::Welford;
use crate::time::{SimDuration, SimTime};

/// Which endpoint of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The connection initiator (the video client / mobile device).
    Client,
    /// The passive opener (the content server).
    Server,
}

impl Side {
    /// The opposite endpoint.
    pub fn other(self) -> Side {
        match self {
            Side::Client => Side::Server,
            Side::Server => Side::Client,
        }
    }
    /// Index into per-side arrays.
    pub fn idx(self) -> usize {
        match self {
            Side::Client => 0,
            Side::Server => 1,
        }
    }
}

/// Lifecycle of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// SYN exchange in progress.
    Connecting,
    /// Handshake complete, data may flow.
    Established,
    /// Both directions closed (or the flow was aborted).
    Closed,
}

/// Events surfaced to the owning application(s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpAppEvent {
    /// A SYN arrived at the passive side.
    Incoming { flow: FlowId },
    /// Handshake completed (reported once, when the initiator's ACK of
    /// the SYN-ACK is sent — i.e. when the initiator may transmit).
    Connected { flow: FlowId },
    /// In-order data is waiting to be read at `side`.
    DataAvailable {
        flow: FlowId,
        side: Side,
        available: u64,
    },
    /// Everything the application asked to send from `side` has been
    /// acknowledged.
    SendDrained { flow: FlowId, side: Side },
    /// The peer closed its direction (all peer data has been read or is
    /// readable).
    PeerFin { flow: FlowId, side: Side },
    /// The flow is fully closed.
    Closed { flow: FlowId },
    /// The flow was aborted after repeated RTO failures.
    Aborted { flow: FlowId },
}

/// Timer arm request produced by the state machine.
#[derive(Debug, Clone, Copy)]
pub struct TimerArm {
    /// Endpoint the timer belongs to.
    pub side: Side,
    /// Delay from `now`.
    pub delay: SimDuration,
    /// Generation — the engine must deliver the timeout only if the
    /// endpoint's generation still matches.
    pub gen: u64,
}

/// Output batch of one state-machine entry point.
#[derive(Debug, Default)]
pub struct TcpActions {
    /// Packets to inject at their origin host.
    pub packets: Vec<Packet>,
    /// Timers to (re-)arm.
    pub timers: Vec<TimerArm>,
    /// Events for the owning application(s).
    pub events: Vec<TcpAppEvent>,
}

/// Sender/receiver statistics kept by each endpoint (ground truth for
/// validating the passive observers, and used by endpoint-local
/// probes).
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Data segments sent (first transmissions).
    pub data_pkts: u64,
    /// Data bytes sent (first transmissions).
    pub data_bytes: u64,
    /// Retransmitted segments.
    pub retx_pkts: u64,
    /// Retransmitted bytes.
    pub retx_bytes: u64,
    /// Fast retransmits triggered.
    pub fast_retx: u64,
    /// RTO timeouts fired.
    pub timeouts: u64,
    /// Out-of-order data segments received.
    pub ooo_pkts: u64,
    /// RTT samples (seconds).
    pub rtt: Welford,
    /// Peer-advertised window (bytes) over time.
    pub peer_wnd: Welford,
}

const INIT_RTO: SimDuration = SimDuration::from_millis(1000);
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// Abort the connection after this many consecutive RTOs.
const MAX_CONSECUTIVE_TIMEOUTS: u32 = 12;
/// Initial congestion window in segments (RFC 6928).
const INIT_CWND_SEGS: f64 = 10.0;

/// One endpoint of a TCP connection.
#[derive(Debug, Clone)]
pub struct TcpEndpoint {
    host: HostId,
    /// Our MSS advertisement (from our NIC MTU).
    mss_local: u32,
    /// Effective MSS after negotiation (min of both advertisements).
    mss: u32,

    // --- send side ---
    snd_una: u64,
    snd_nxt: u64,
    /// Highest sequence ever transmitted (for retransmission
    /// accounting after a go-back-N rewind).
    max_sent: u64,
    /// Absolute sequence where application data starts (1: SYN uses 0).
    data_start: u64,
    /// Total application bytes requested for sending (cumulative).
    app_limit: u64,
    /// Send FIN once all data up to `app_limit` is sent & acked.
    close_requested: bool,
    fin_sent: bool,
    fin_acked: bool,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    in_fast_recovery: bool,
    recover: u64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    backoff: u32,
    consecutive_timeouts: u32,
    timer_gen: u64,
    timer_armed: bool,
    peer_wnd: u32,
    drained_notified: bool,

    // --- receive side ---
    rcv_nxt: u64,
    /// Out-of-order intervals `[start, end)` keyed by start.
    ooo: BTreeMap<u64, u64>,
    rcv_buf_cap: u32,
    /// Bytes the application has consumed.
    app_read: u64,
    /// tsval of the most recently received segment (echoed in ACKs).
    ts_to_echo: SimTime,
    peer_fin_at: Option<u64>,
    peer_fin_done: bool,
    fin_notified: bool,

    /// Statistics.
    pub stats: EndpointStats,
}

impl TcpEndpoint {
    fn new(host: HostId, mss_local: u32, rcv_buf_cap: u32) -> Self {
        TcpEndpoint {
            host,
            mss_local,
            mss: mss_local,
            snd_una: 0,
            snd_nxt: 0,
            max_sent: 0,
            data_start: 1,
            app_limit: 0,
            close_requested: false,
            fin_sent: false,
            fin_acked: false,
            cwnd: INIT_CWND_SEGS * mss_local as f64,
            ssthresh: f64::INFINITY,
            dupacks: 0,
            in_fast_recovery: false,
            recover: 0,
            srtt: None,
            rttvar: 0.0,
            rto: INIT_RTO,
            backoff: 0,
            consecutive_timeouts: 0,
            timer_gen: 0,
            timer_armed: false,
            peer_wnd: 65535,
            drained_notified: true,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            rcv_buf_cap,
            app_read: 0,
            ts_to_echo: SimTime::ZERO,
            peer_fin_at: None,
            peer_fin_done: false,
            fin_notified: false,
            stats: EndpointStats::default(),
        }
    }

    /// Effective (negotiated) MSS.
    pub fn mss(&self) -> u32 {
        self.mss
    }
    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
    /// Bytes of in-order data ready for the application. (The peer's
    /// FIN consumes a sequence number but carries no data.)
    pub fn readable(&self) -> u64 {
        self.rcv_nxt
            .saturating_sub(u64::from(self.peer_fin_done))
            .saturating_sub(self.data_start)
            .saturating_sub(self.app_read)
    }
    /// Bytes in flight (sent, unacknowledged).
    pub fn inflight(&self) -> u64 {
        self.snd_nxt.saturating_sub(self.snd_una)
    }
    /// Bytes the local application has consumed from the receive side.
    pub fn bytes_read(&self) -> u64 {
        self.app_read
    }
    /// Bytes of application data acknowledged by the peer.
    pub fn acked_data(&self) -> u64 {
        self.snd_una.saturating_sub(self.data_start)
    }

    fn ooo_bytes(&self) -> u64 {
        self.ooo.iter().map(|(s, e)| e - s).sum()
    }

    /// Receive window to advertise.
    fn rcv_wnd(&self) -> u32 {
        let used = self.readable() + self.ooo_bytes();
        (self.rcv_buf_cap as u64).saturating_sub(used) as u32
    }

    fn rtt_sample(&mut self, rtt_s: f64) {
        self.stats.rtt.add(rtt_s);
        let srtt = match self.srtt {
            None => {
                self.rttvar = rtt_s / 2.0;
                rtt_s
            }
            Some(srtt) => {
                let d = (srtt - rtt_s).abs();
                self.rttvar = 0.75 * self.rttvar + 0.25 * d;
                0.875 * srtt + 0.125 * rtt_s
            }
        };
        self.srtt = Some(srtt);
        let rto = SimDuration::from_secs_f64(srtt + (4.0 * self.rttvar).max(0.01));
        self.rto = rto.clamp(MIN_RTO, MAX_RTO);
    }

    fn current_rto(&self) -> SimDuration {
        let scaled = self.rto.0.saturating_mul(1u64 << self.backoff.min(10));
        SimDuration(scaled).clamp(MIN_RTO, MAX_RTO)
    }
}

/// A TCP connection between two hosts.
#[derive(Debug, Clone)]
pub struct TcpFlow {
    /// Flow identifier.
    pub id: FlowId,
    /// Lifecycle state.
    pub state: FlowState,
    /// Destination port on the server (listener key; also gives
    /// observers a realistic 4-tuple).
    pub dst_port: u16,
    /// Ephemeral source port on the client.
    pub src_port: u16,
    /// When `open` was called.
    pub opened_at: SimTime,
    /// When the handshake completed.
    pub established_at: Option<SimTime>,
    /// When the flow fully closed or aborted.
    pub closed_at: Option<SimTime>,
    /// True once closed without abort.
    pub complete: bool,
    ep: [TcpEndpoint; 2],
}

impl TcpFlow {
    /// Create a flow between `client` and `server`. `mss_*` come from
    /// the hosts' egress MTUs; `rcv_buf` is each endpoint's receive
    /// buffer capacity in bytes.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        id: FlowId,
        client: HostId,
        server: HostId,
        dst_port: u16,
        src_port: u16,
        mss_client: u32,
        mss_server: u32,
        rcv_buf: u32,
    ) -> Self {
        TcpFlow {
            id,
            state: FlowState::Connecting,
            dst_port,
            src_port,
            opened_at: SimTime::ZERO,
            established_at: None,
            closed_at: None,
            complete: false,
            ep: [
                TcpEndpoint::new(client, mss_client, rcv_buf),
                TcpEndpoint::new(server, mss_server, rcv_buf),
            ],
        }
    }

    /// Endpoint accessor.
    pub fn endpoint(&self, side: Side) -> &TcpEndpoint {
        &self.ep[side.idx()]
    }
    /// Host of an endpoint.
    pub fn host(&self, side: Side) -> HostId {
        self.ep[side.idx()].host
    }
    /// Which side of this flow lives on `host` (client wins if both —
    /// loopback flows are not supported).
    pub fn side_of(&self, host: HostId) -> Option<Side> {
        if self.ep[0].host == host {
            Some(Side::Client)
        } else if self.ep[1].host == host {
            Some(Side::Server)
        } else {
            None
        }
    }

    fn hdr(
        &self,
        side: Side,
        seq: u64,
        len: u32,
        flags: TcpFlags,
        now: SimTime,
        is_retx: bool,
    ) -> TcpHdr {
        let ep = &self.ep[side.idx()];
        TcpHdr {
            flow: self.id,
            from_initiator: side == Side::Client,
            dport: self.dst_port,
            sport: self.src_port,
            seq,
            ack: if flags.ack { ep.rcv_nxt } else { 0 },
            len,
            flags,
            wnd: ep.rcv_wnd(),
            mss: ep.mss_local,
            tsval: now,
            tsecr: if flags.ack {
                ep.ts_to_echo
            } else {
                SimTime::ZERO
            },
            is_retx,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn emit(
        &mut self,
        side: Side,
        seq: u64,
        len: u32,
        flags: TcpFlags,
        now: SimTime,
        is_retx: bool,
        out: &mut TcpActions,
    ) {
        let hdr = self.hdr(side, seq, len, flags, now, is_retx);
        let src = self.ep[side.idx()].host;
        let dst = self.ep[side.other().idx()].host;
        out.packets.push(Packet::tcp(src, dst, hdr));
    }

    fn arm_timer(&mut self, side: Side, now: SimTime, out: &mut TcpActions) {
        let _ = now;
        let ep = &mut self.ep[side.idx()];
        ep.timer_gen += 1;
        ep.timer_armed = true;
        out.timers.push(TimerArm {
            side,
            delay: ep.current_rto(),
            gen: ep.timer_gen,
        });
    }

    fn cancel_timer(&mut self, side: Side) {
        let ep = &mut self.ep[side.idx()];
        ep.timer_gen += 1;
        ep.timer_armed = false;
    }

    /// Is a timer event with generation `gen` at `side` still valid?
    pub fn timer_valid(&self, side: Side, gen: u64) -> bool {
        let ep = &self.ep[side.idx()];
        ep.timer_armed && ep.timer_gen == gen
    }

    /// Initiate the connection: the client sends its SYN.
    pub fn open(&mut self, now: SimTime, out: &mut TcpActions) {
        assert_eq!(self.state, FlowState::Connecting);
        self.opened_at = now;
        let ep = &mut self.ep[Side::Client.idx()];
        ep.snd_nxt = 1; // SYN consumes seq 0
        self.emit(Side::Client, 0, 0, TcpFlags::SYN, now, false, out);
        self.arm_timer(Side::Client, now, out);
    }

    /// Application requests `bytes` more data to be sent from `side`.
    pub fn app_send(&mut self, side: Side, bytes: u64, now: SimTime, out: &mut TcpActions) {
        if self.state == FlowState::Closed {
            return;
        }
        let ep = &mut self.ep[side.idx()];
        ep.app_limit += bytes;
        ep.drained_notified = false;
        self.try_send(side, now, out);
    }

    /// Application reads up to `max` in-order bytes; returns the amount
    /// consumed. Reopening a closed window emits a window update.
    pub fn app_read(&mut self, side: Side, max: u64, now: SimTime, out: &mut TcpActions) -> u64 {
        let ep = &mut self.ep[side.idx()];
        let avail = ep.readable();
        let take = avail.min(max);
        if take == 0 {
            return 0;
        }
        let wnd_before = ep.rcv_wnd();
        ep.app_read += take;
        let wnd_after = ep.rcv_wnd();
        // Window-update ACK when the window grows from (near) zero —
        // the peer may be persist-blocked on it.
        if self.state == FlowState::Established && wnd_before < ep.mss && wnd_after >= ep.mss {
            let seq = ep.snd_nxt;
            self.emit(side, seq, 0, TcpFlags::DATA, now, false, out);
        }
        take
    }

    /// Application will send nothing further from `side` after what has
    /// already been requested; FIN follows the last data byte.
    pub fn app_close(&mut self, side: Side, now: SimTime, out: &mut TcpActions) {
        if self.state == FlowState::Closed {
            return;
        }
        self.ep[side.idx()].close_requested = true;
        self.try_send(side, now, out);
    }

    /// Abort immediately (e.g. the owning application gave up).
    pub fn abort(&mut self, now: SimTime, out: &mut TcpActions) {
        if self.state == FlowState::Closed {
            return;
        }
        self.state = FlowState::Closed;
        self.closed_at = Some(now);
        self.complete = false;
        self.cancel_timer(Side::Client);
        self.cancel_timer(Side::Server);
        out.events.push(TcpAppEvent::Aborted { flow: self.id });
    }

    /// Transmit as much as windows allow from `side`.
    fn try_send(&mut self, side: Side, now: SimTime, out: &mut TcpActions) {
        if self.state != FlowState::Established {
            return;
        }
        loop {
            let ep = &self.ep[side.idx()];
            let data_end = ep.data_start + ep.app_limit;
            let unsent = data_end.saturating_sub(ep.snd_nxt);
            let wnd = (ep.cwnd as u64).min(ep.peer_wnd as u64);
            let room = wnd.saturating_sub(ep.inflight());
            if unsent > 0 && room > 0 {
                let len = unsent.min(room).min(ep.mss as u64) as u32;
                let seq = ep.snd_nxt;
                // After a go-back-N rewind this re-covers old ground.
                let is_retx = seq < ep.max_sent;
                {
                    let ep = &mut self.ep[side.idx()];
                    ep.snd_nxt += len as u64;
                    ep.max_sent = ep.max_sent.max(ep.snd_nxt);
                    if is_retx {
                        ep.stats.retx_pkts += 1;
                        ep.stats.retx_bytes += len as u64;
                    } else {
                        ep.stats.data_pkts += 1;
                        ep.stats.data_bytes += len as u64;
                    }
                }
                self.emit(side, seq, len, TcpFlags::DATA, now, is_retx, out);
                continue;
            }
            break;
        }
        // FIN once everything has been transmitted.
        let ep = &self.ep[side.idx()];
        let data_end = ep.data_start + ep.app_limit;
        if ep.close_requested && !ep.fin_sent && ep.snd_nxt == data_end {
            let seq = ep.snd_nxt;
            {
                let ep = &mut self.ep[side.idx()];
                ep.fin_sent = true;
                ep.snd_nxt += 1; // FIN consumes one seq
            }
            self.emit(side, seq, 0, TcpFlags::FIN, now, false, out);
        }
        // (Re-)arm the retransmission timer.
        let ep = &self.ep[side.idx()];
        if ep.inflight() > 0 {
            if !ep.timer_armed {
                self.arm_timer(side, now, out);
            }
        } else if ep.peer_wnd == 0 && ep.app_limit + ep.data_start > ep.snd_nxt {
            // Zero-window persist probing.
            if !ep.timer_armed {
                self.arm_timer(side, now, out);
            }
        } else if ep.timer_armed {
            self.cancel_timer(side);
        }
    }

    /// A segment arrived at `side` (engine delivers packets here).
    pub fn on_segment(&mut self, side: Side, hdr: &TcpHdr, now: SimTime, out: &mut TcpActions) {
        if self.state == FlowState::Closed {
            return;
        }
        // Handshake handling.
        if hdr.flags.syn {
            if side == Side::Server && !hdr.flags.ack {
                // SYN at the passive opener.
                let ep = &mut self.ep[Side::Server.idx()];
                let first_syn = ep.rcv_nxt == 0;
                ep.mss = ep.mss_local.min(hdr.mss);
                ep.rcv_nxt = 1;
                ep.ts_to_echo = hdr.tsval;
                ep.peer_wnd = hdr.wnd;
                if first_syn {
                    let e0 = &mut self.ep[Side::Server.idx()];
                    e0.snd_nxt = 1;
                    out.events.push(TcpAppEvent::Incoming { flow: self.id });
                }
                self.emit(Side::Server, 0, 0, TcpFlags::SYN_ACK, now, !first_syn, out);
                self.arm_timer(Side::Server, now, out);
            } else if side == Side::Client && hdr.flags.ack {
                // SYN-ACK at the initiator.
                if self.state == FlowState::Connecting {
                    let ep = &mut self.ep[Side::Client.idx()];
                    ep.mss = ep.mss_local.min(hdr.mss);
                    ep.rcv_nxt = 1;
                    ep.snd_una = 1;
                    ep.ts_to_echo = hdr.tsval;
                    ep.peer_wnd = hdr.wnd;
                    ep.consecutive_timeouts = 0;
                    ep.backoff = 0;
                    let rtt = now.since(hdr.tsecr).as_secs_f64();
                    if hdr.tsecr != SimTime::ZERO {
                        ep.rtt_sample(rtt);
                    }
                    self.state = FlowState::Established;
                    self.established_at = Some(now);
                    self.cancel_timer(Side::Client);
                    let seq = self.ep[Side::Client.idx()].snd_nxt;
                    self.emit(Side::Client, seq, 0, TcpFlags::DATA, now, false, out);
                    out.events.push(TcpAppEvent::Connected { flow: self.id });
                    self.try_send(Side::Client, now, out);
                } else {
                    // Duplicate SYN-ACK: our ACK was lost; re-ACK.
                    let seq = self.ep[Side::Client.idx()].snd_nxt;
                    self.emit(Side::Client, seq, 0, TcpFlags::DATA, now, false, out);
                }
            }
            return;
        }

        // Server completes the handshake on the first ACK that covers
        // its SYN.
        if self.state == FlowState::Connecting
            && side == Side::Server
            && hdr.flags.ack
            && hdr.ack >= 1
        {
            self.state = FlowState::Established;
            self.established_at = Some(now);
            let ep = &mut self.ep[Side::Server.idx()];
            ep.snd_una = 1;
            ep.consecutive_timeouts = 0;
            ep.backoff = 0;
            self.cancel_timer(Side::Server);
            // fall through: the segment may carry data/acks too.
        }
        if self.state != FlowState::Established {
            return;
        }

        self.process_ack(side, hdr, now, out);
        if hdr.len > 0 || hdr.flags.fin {
            self.process_data(side, hdr, now, out);
        }
        self.try_send(side, now, out);
        self.maybe_finish(now, out);
    }

    fn process_ack(&mut self, side: Side, hdr: &TcpHdr, now: SimTime, out: &mut TcpActions) {
        if !hdr.flags.ack {
            return;
        }
        let mss;
        let mut fast_retx_seq = None;
        {
            let ep = &mut self.ep[side.idx()];
            mss = ep.mss as f64;
            let prev_wnd = ep.peer_wnd;
            ep.peer_wnd = hdr.wnd;
            ep.stats.peer_wnd.add(hdr.wnd as f64);
            if hdr.ack > ep.snd_una {
                // New data acknowledged.
                let acked = hdr.ack - ep.snd_una;
                ep.snd_una = hdr.ack;
                // A late ACK can overtake a rewound snd_nxt.
                ep.snd_nxt = ep.snd_nxt.max(ep.snd_una);
                ep.consecutive_timeouts = 0;
                ep.backoff = 0;
                if hdr.tsecr != SimTime::ZERO {
                    ep.rtt_sample(now.since(hdr.tsecr).as_secs_f64());
                }
                if ep.in_fast_recovery {
                    if hdr.ack >= ep.recover {
                        ep.in_fast_recovery = false;
                        ep.cwnd = ep.ssthresh;
                        ep.dupacks = 0;
                    } else {
                        // NewReno partial ACK: retransmit the next hole.
                        fast_retx_seq = Some(ep.snd_una);
                        ep.cwnd = (ep.cwnd - acked as f64 + mss).max(mss);
                    }
                } else {
                    ep.dupacks = 0;
                    if ep.cwnd < ep.ssthresh {
                        ep.cwnd += (acked as f64).min(mss); // slow start
                    } else {
                        ep.cwnd += mss * mss / ep.cwnd; // congestion avoidance
                    }
                }
                let fin_seq_end = ep.data_start + ep.app_limit + 1;
                if hdr.ack >= fin_seq_end && (ep.fin_sent || ep.close_requested) {
                    // Covers the rewind race: an RTO reset `fin_sent`,
                    // then a late ACK of the original FIN arrived — the
                    // FIN is acked even though we would never re-send it.
                    ep.fin_sent = true;
                    ep.fin_acked = true;
                }
            } else if hdr.ack == ep.snd_una
                && hdr.len == 0
                && !hdr.flags.fin
                && ep.inflight() > 0
                // Exclude pure window *updates* (window grows, no new
                // data). Genuine dupacks keep or shrink the window
                // (out-of-order bytes occupy the receive buffer).
                && hdr.wnd <= prev_wnd
            {
                // Duplicate ACK.
                ep.dupacks += 1;
                if ep.dupacks == 3 && !ep.in_fast_recovery {
                    ep.in_fast_recovery = true;
                    ep.recover = ep.snd_nxt;
                    let inflight = ep.inflight() as f64;
                    ep.ssthresh = (inflight / 2.0).max(2.0 * mss);
                    ep.cwnd = ep.ssthresh + 3.0 * mss;
                    ep.stats.fast_retx += 1;
                    fast_retx_seq = Some(ep.snd_una);
                } else if ep.in_fast_recovery {
                    ep.cwnd += mss; // window inflation
                }
            }
        }
        if let Some(seq) = fast_retx_seq {
            if self.ep[side.idx()].dupacks == 3 {
                // Entering fast recovery: retransmit every hole the
                // receiver reports (SACK-equivalent — see
                // `receiver_holes`), capped to one window's worth.
                self.retransmit_holes(side, seq, now, out);
            } else {
                self.retransmit_one(side, seq, now, out);
            }
        }
        // Restart the timer after cumulative progress.
        let ep = &self.ep[side.idx()];
        if hdr.ack > 0 && ep.inflight() > 0 {
            self.arm_timer(side, now, out);
        } else if ep.inflight() == 0 && ep.timer_armed && ep.peer_wnd > 0 {
            self.cancel_timer(side);
        }
        // Notify the app when its send request fully drained.
        let ep = &mut self.ep[side.idx()];
        if !ep.drained_notified && ep.acked_data() >= ep.app_limit {
            ep.drained_notified = true;
            out.events.push(TcpAppEvent::SendDrained {
                flow: self.id,
                side,
            });
        }
    }

    /// The byte ranges below the receiver's highest out-of-order block
    /// that have not arrived — what a SACK scoreboard would report.
    /// (Both endpoints live in this struct, so the receiver's
    /// reassembly map *is* the scoreboard; observers see only the
    /// resulting retransmissions, exactly as with real SACK.)
    fn receiver_holes(&self, side: Side) -> Vec<(u64, u64)> {
        let rcv = &self.ep[side.other().idx()];
        let mut holes = Vec::new();
        let mut cursor = rcv.rcv_nxt;
        for (&s, &e) in &rcv.ooo {
            if s > cursor {
                holes.push((cursor, s));
            }
            cursor = cursor.max(e);
        }
        holes
    }

    /// Retransmit all reported holes (at least the segment at
    /// `first_seq`), capped at 64 KiB per invocation.
    fn retransmit_holes(&mut self, side: Side, first_seq: u64, now: SimTime, out: &mut TcpActions) {
        let holes = self.receiver_holes(side);
        if holes.is_empty() {
            self.retransmit_one(side, first_seq, now, out);
            return;
        }
        let mss = self.ep[side.idx()].mss as u64;
        let mut budget: u64 = 64 * 1024;
        for (s, e) in holes {
            let mut seq = s;
            while seq < e && budget > 0 {
                self.retransmit_one(side, seq, now, out);
                let len = mss.min(e - seq);
                seq += len;
                budget = budget.saturating_sub(len);
            }
        }
    }

    fn retransmit_one(&mut self, side: Side, seq: u64, now: SimTime, out: &mut TcpActions) {
        let (len, is_fin) = {
            let ep = &self.ep[side.idx()];
            let data_end = ep.data_start + ep.app_limit;
            if seq >= data_end {
                (0u32, ep.fin_sent)
            } else {
                let len = (data_end - seq).min(ep.mss as u64) as u32;
                (len, false)
            }
        };
        {
            let ep = &mut self.ep[side.idx()];
            ep.stats.retx_pkts += 1;
            ep.stats.retx_bytes += len as u64;
        }
        let flags = if is_fin {
            TcpFlags::FIN
        } else {
            TcpFlags::DATA
        };
        self.emit(side, seq, len, flags, now, true, out);
    }

    fn process_data(&mut self, side: Side, hdr: &TcpHdr, now: SimTime, out: &mut TcpActions) {
        let flow = self.id;
        let mut newly_readable = false;
        {
            let ep = &mut self.ep[side.idx()];
            ep.ts_to_echo = hdr.tsval;
            let seg_start = hdr.seq;
            let seg_end = hdr.seq + hdr.len as u64;
            if hdr.flags.fin {
                ep.peer_fin_at = Some(seg_end);
            }
            if hdr.len > 0 {
                if seg_start <= ep.rcv_nxt && seg_end > ep.rcv_nxt {
                    // In-order (possibly partially duplicate).
                    ep.rcv_nxt = seg_end;
                    // Merge any out-of-order intervals now contiguous.
                    while let Some((&s, &e)) = ep.ooo.iter().next() {
                        if s <= ep.rcv_nxt {
                            ep.rcv_nxt = ep.rcv_nxt.max(e);
                            ep.ooo.remove(&s);
                        } else {
                            break;
                        }
                    }
                    newly_readable = true;
                } else if seg_start > ep.rcv_nxt {
                    // Out of order: hole before this segment.
                    ep.stats.ooo_pkts += 1;
                    ep.ooo
                        .entry(seg_start)
                        .and_modify(|e| *e = (*e).max(seg_end))
                        .or_insert(seg_end);
                }
                // else: full duplicate of delivered data — just re-ACK.
            }
            // Consume the FIN if all data before it has arrived.
            if let Some(f) = ep.peer_fin_at {
                if !ep.peer_fin_done && ep.rcv_nxt >= f {
                    ep.rcv_nxt = f + 1;
                    ep.peer_fin_done = true;
                }
            }
        }
        // ACK everything (immediate ACKs keep dupack semantics exact).
        let seq = self.ep[side.idx()].snd_nxt;
        self.emit(side, seq, 0, TcpFlags::DATA, now, false, out);
        let ep = &mut self.ep[side.idx()];
        if newly_readable && ep.readable() > 0 {
            out.events.push(TcpAppEvent::DataAvailable {
                flow,
                side,
                available: ep.readable(),
            });
        }
        if ep.peer_fin_done && !ep.fin_notified {
            ep.fin_notified = true;
            out.events.push(TcpAppEvent::PeerFin { flow, side });
        }
    }

    fn maybe_finish(&mut self, now: SimTime, out: &mut TcpActions) {
        if self.state != FlowState::Established {
            return;
        }
        let done = |side: Side| {
            let ep = &self.ep[side.idx()];
            (ep.fin_sent && ep.fin_acked) || !ep.close_requested
        };
        let both_closed = {
            let c = &self.ep[0];
            let s = &self.ep[1];
            c.close_requested
                && s.close_requested
                && done(Side::Client)
                && done(Side::Server)
                && c.fin_acked
                && s.fin_acked
        };
        if both_closed {
            self.state = FlowState::Closed;
            self.closed_at = Some(now);
            self.complete = true;
            self.cancel_timer(Side::Client);
            self.cancel_timer(Side::Server);
            out.events.push(TcpAppEvent::Closed { flow: self.id });
        }
    }

    /// The retransmission timer for `side` fired (engine validated the
    /// generation).
    pub fn on_timeout(&mut self, side: Side, now: SimTime, out: &mut TcpActions) {
        if self.state == FlowState::Closed {
            return;
        }
        let (has_unacked_pre, zero_window_pre) = {
            let ep = &mut self.ep[side.idx()];
            ep.timer_armed = false;
            ep.stats.timeouts += 1;
            let pending = ep.data_start + ep.app_limit > ep.snd_nxt;
            (ep.inflight() > 0, ep.peer_wnd == 0 && pending)
        };
        // Persist probes (zero window, nothing in flight) do not count
        // toward abort: a receiver may legitimately stall for minutes.
        if self.state == FlowState::Connecting || has_unacked_pre || !zero_window_pre {
            let ep = &mut self.ep[side.idx()];
            ep.consecutive_timeouts += 1;
            if ep.consecutive_timeouts > MAX_CONSECUTIVE_TIMEOUTS {
                self.abort(now, out);
                return;
            }
        }
        if self.state == FlowState::Connecting {
            // Retransmit handshake segment.
            let (seq, flags, side_tx) = if side == Side::Client {
                (0, TcpFlags::SYN, Side::Client)
            } else {
                (0, TcpFlags::SYN_ACK, Side::Server)
            };
            {
                let ep = &mut self.ep[side.idx()];
                ep.backoff += 1;
                ep.stats.retx_pkts += 1;
            }
            self.emit(side_tx, seq, 0, flags, now, true, out);
            self.arm_timer(side, now, out);
            return;
        }
        let (has_unacked, zero_window_pending) = {
            let ep = &self.ep[side.idx()];
            let pending = ep.data_start + ep.app_limit > ep.snd_nxt;
            (ep.inflight() > 0, ep.peer_wnd == 0 && pending)
        };
        if has_unacked {
            // RTO: collapse the window and go back to snd_una. Anything
            // in flight is presumed lost; slow start re-covers it (the
            // receiver discards duplicates and its cumulative ACKs jump
            // over the segments that did arrive).
            {
                let ep = &mut self.ep[side.idx()];
                let mss = ep.mss as f64;
                ep.ssthresh = (ep.inflight() as f64 / 2.0).max(2.0 * mss);
                ep.cwnd = mss;
                ep.in_fast_recovery = false;
                ep.dupacks = 0;
                ep.backoff += 1;
                ep.snd_nxt = ep.snd_una;
                // Re-send the FIN too if it was rewound over.
                if ep.fin_sent && !ep.fin_acked {
                    ep.fin_sent = false;
                }
            }
            self.try_send(side, now, out);
            self.arm_timer(side, now, out);
        } else if zero_window_pending {
            // Persist probe.
            {
                let ep = &mut self.ep[side.idx()];
                ep.backoff = (ep.backoff + 1).min(6);
            }
            let seq = self.ep[side.idx()].snd_nxt;
            self.emit(side, seq, 0, TcpFlags::DATA, now, false, out);
            self.arm_timer(side, now, out);
        }
        // Otherwise: spurious timer; nothing in flight. Stay idle.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive two endpoints against each other with a perfect in-order
    /// "wire", optionally dropping selected client-bound or
    /// server-bound packets. Returns all app events.
    fn run_loopback(
        bytes_from_server: u64,
        drop_nth_to_client: Option<usize>,
    ) -> (TcpFlow, Vec<TcpAppEvent>) {
        let mut flow = TcpFlow::new(
            FlowId(0),
            HostId(0),
            HostId(1),
            80,
            40000,
            1460,
            1460,
            256 * 1024,
        );
        let mut events = Vec::new();
        let mut now = SimTime::ZERO;
        let step = SimDuration::from_millis(5); // fake one-way delay
        let mut out = TcpActions::default();
        flow.open(now, &mut out);
        let mut wire: Vec<Packet> = out.packets.drain(..).collect();
        events.append(&mut out.events);
        let mut served = false;
        let mut to_client_count = 0usize;
        let mut iters = 0;
        while !wire.is_empty() && iters < 100_000 {
            iters += 1;
            now += step;
            let batch: Vec<Packet> = std::mem::take(&mut wire);
            for pkt in batch {
                let hdr = *pkt.tcp_hdr().unwrap();
                let side = if hdr.from_initiator {
                    Side::Server
                } else {
                    Side::Client
                };
                if side == Side::Client {
                    to_client_count += 1;
                    if Some(to_client_count) == drop_nth_to_client {
                        continue; // lost on the wire
                    }
                }
                let mut out = TcpActions::default();
                flow.on_segment(side, &hdr, now, &mut out);
                for ev in out.events.drain(..) {
                    match ev {
                        TcpAppEvent::Incoming { .. } if !served => {
                            served = true;
                            let mut o2 = TcpActions::default();
                            flow.app_send(Side::Server, bytes_from_server, now, &mut o2);
                            flow.app_close(Side::Server, now, &mut o2);
                            wire.extend(o2.packets);
                            events.extend(o2.events);
                        }
                        TcpAppEvent::DataAvailable { side, .. } => {
                            let mut o2 = TcpActions::default();
                            flow.app_read(side, u64::MAX, now, &mut o2);
                            wire.extend(o2.packets);
                            events.push(ev);
                        }
                        TcpAppEvent::PeerFin { side, .. } => {
                            let mut o2 = TcpActions::default();
                            flow.app_close(side, now, &mut o2);
                            wire.extend(o2.packets);
                            events.push(ev);
                        }
                        other => events.push(other),
                    }
                }
                wire.extend(out.packets);
            }
            // Fire any timers when the wire is empty but flow is open
            // (retransmission path).
            if wire.is_empty() && flow.state != FlowState::Closed {
                for side in [Side::Client, Side::Server] {
                    let gen = flow.ep[side.idx()].timer_gen;
                    if flow.ep[side.idx()].timer_armed {
                        let mut out = TcpActions::default();
                        flow.on_timeout(side, now + SimDuration::from_secs(1), &mut out);
                        events.append(&mut out.events);
                        wire.extend(out.packets);
                        let _ = gen;
                    }
                }
            }
        }
        (flow, events)
    }

    #[test]
    fn handshake_and_transfer_completes() {
        let (flow, events) = run_loopback(100_000, None);
        assert_eq!(flow.state, FlowState::Closed);
        assert!(flow.complete);
        assert!(flow.established_at.is_some());
        assert!(events
            .iter()
            .any(|e| matches!(e, TcpAppEvent::Connected { .. })));
        assert!(events
            .iter()
            .any(|e| matches!(e, TcpAppEvent::Closed { .. })));
        // All 100k bytes were read by the client.
        assert_eq!(flow.endpoint(Side::Client).app_read, 100_000);
        // The server saw zero retransmissions on a perfect wire.
        assert_eq!(flow.endpoint(Side::Server).stats.retx_pkts, 0);
    }

    #[test]
    fn lost_data_packet_is_recovered() {
        // Drop the 20th packet heading to the client (a data segment).
        let (flow, _) = run_loopback(200_000, Some(20));
        assert_eq!(
            flow.state,
            FlowState::Closed,
            "flow must finish despite loss"
        );
        assert_eq!(flow.endpoint(Side::Client).app_read, 200_000);
        let st = &flow.endpoint(Side::Server).stats;
        assert!(st.retx_pkts >= 1, "server must have retransmitted");
        // The client observed the hole.
        assert!(flow.endpoint(Side::Client).stats.ooo_pkts >= 1);
    }

    #[test]
    fn lost_syn_ack_retried() {
        // Drop the very first packet to the client (the SYN-ACK).
        let (flow, _) = run_loopback(5_000, Some(1));
        assert_eq!(flow.state, FlowState::Closed);
        assert_eq!(flow.endpoint(Side::Client).app_read, 5_000);
        assert!(flow.endpoint(Side::Server).stats.retx_pkts >= 1);
    }

    #[test]
    fn mss_negotiation_takes_min() {
        let mut flow = TcpFlow::new(FlowId(1), HostId(0), HostId(1), 80, 1, 1400, 1460, 65535);
        let mut out = TcpActions::default();
        flow.open(SimTime::ZERO, &mut out);
        let syn = *out.packets[0].tcp_hdr().unwrap();
        assert_eq!(syn.mss, 1400);
        let mut out2 = TcpActions::default();
        flow.on_segment(Side::Server, &syn, SimTime::from_millis(10), &mut out2);
        assert_eq!(flow.endpoint(Side::Server).mss(), 1400);
        let synack = *out2.packets[0].tcp_hdr().unwrap();
        let mut out3 = TcpActions::default();
        flow.on_segment(Side::Client, &synack, SimTime::from_millis(20), &mut out3);
        assert_eq!(flow.endpoint(Side::Client).mss(), 1400);
        assert_eq!(flow.state, FlowState::Established);
    }

    #[test]
    fn rtt_estimated_from_timestamps() {
        let (flow, _) = run_loopback(50_000, None);
        let rtt = &flow.endpoint(Side::Server).stats.rtt;
        assert!(rtt.count() > 0);
        // One-way 5 ms fake wire → RTT ≈ 10 ms.
        assert!((rtt.mean() - 0.010).abs() < 0.002, "rtt {}", rtt.mean());
    }

    #[test]
    fn receive_window_closes_when_app_does_not_read() {
        let mut flow = TcpFlow::new(FlowId(2), HostId(0), HostId(1), 80, 1, 1000, 1000, 4000);
        let mut out = TcpActions::default();
        flow.open(SimTime::ZERO, &mut out);
        let syn = *out.packets[0].tcp_hdr().unwrap();
        let mut o = TcpActions::default();
        flow.on_segment(Side::Server, &syn, SimTime::from_millis(1), &mut o);
        let synack = *o.packets[0].tcp_hdr().unwrap();
        let mut o = TcpActions::default();
        flow.on_segment(Side::Client, &synack, SimTime::from_millis(2), &mut o);
        // Server sends 4 kB; client never reads.
        let mut o = TcpActions::default();
        flow.app_send(Side::Server, 4000, SimTime::from_millis(3), &mut o);
        let mut t = SimTime::from_millis(4);
        let mut pending: Vec<TcpHdr> = o
            .packets
            .iter()
            .filter_map(|p| p.tcp_hdr().copied())
            .collect();
        let mut wnd_seen = u32::MAX;
        let mut guard = 0;
        while let Some(h) = pending.pop() {
            guard += 1;
            assert!(guard < 1000);
            let side = if h.from_initiator {
                Side::Server
            } else {
                Side::Client
            };
            let mut o = TcpActions::default();
            flow.on_segment(side, &h, t, &mut o);
            t += SimDuration::from_millis(1);
            for p in &o.packets {
                let h2 = p.tcp_hdr().unwrap();
                if h2.from_initiator {
                    // ACKs from the client advertise its receive window.
                    wnd_seen = wnd_seen.min(h2.wnd);
                }
                pending.push(*h2);
            }
        }
        // Client buffer is 4000 and it read nothing → window reached 0.
        assert_eq!(wnd_seen, 0);
        assert_eq!(flow.endpoint(Side::Client).readable(), 4000);
    }

    #[test]
    fn abort_after_repeated_timeouts() {
        let mut flow = TcpFlow::new(FlowId(3), HostId(0), HostId(1), 80, 1, 1460, 1460, 65535);
        let mut out = TcpActions::default();
        flow.open(SimTime::ZERO, &mut out);
        // SYN vanishes forever; fire the client timer repeatedly.
        let mut now = SimTime::from_secs(1);
        let mut aborted = false;
        for _ in 0..20 {
            let mut o = TcpActions::default();
            flow.on_timeout(Side::Client, now, &mut o);
            now += SimDuration::from_secs(40);
            if o.events
                .iter()
                .any(|e| matches!(e, TcpAppEvent::Aborted { .. }))
            {
                aborted = true;
                break;
            }
        }
        assert!(aborted);
        assert_eq!(flow.state, FlowState::Closed);
        assert!(!flow.complete);
    }

    #[test]
    fn cwnd_grows_in_slow_start() {
        let (flow, _) = run_loopback(400_000, None);
        // After a healthy 400 kB transfer the cwnd should have grown
        // well past the initial 10 segments.
        assert!(flow.endpoint(Side::Server).cwnd() > 20.0 * 1460.0);
    }
}
