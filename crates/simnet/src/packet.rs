//! Packets and transport headers.
//!
//! The simulator moves whole packets, not bytes. A [`Packet`] carries
//! network addressing (source/destination host), a total wire size and a
//! transport header. Payload *contents* are never materialised — TCP
//! tracks byte ranges by sequence number, which is all both the
//! protocol machinery and the tstat-style observers need.

use crate::ids::{FlowId, HostId};
use crate::time::SimTime;

/// Fixed per-packet header overhead (IP + TCP incl. timestamp option),
/// matching what a real capture would count on the wire.
pub const TCP_HEADER_BYTES: u32 = 52;
/// Fixed per-packet overhead for UDP datagrams (IP + UDP).
pub const UDP_HEADER_BYTES: u32 = 28;

/// TCP segment flags. Only the flags the model uses are represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// Connection-open.
    pub syn: bool,
    /// Sender has no more data.
    pub fin: bool,
    /// Acknowledgement number is valid (set on everything but the first SYN).
    pub ack: bool,
}

impl TcpFlags {
    /// Plain data/ack segment.
    pub const DATA: TcpFlags = TcpFlags {
        syn: false,
        fin: false,
        ack: true,
    };
    /// Initial SYN.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        ack: false,
    };
    /// SYN-ACK.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        ack: true,
    };
    /// FIN(+ACK).
    pub const FIN: TcpFlags = TcpFlags {
        syn: false,
        fin: true,
        ack: true,
    };
}

/// A TCP segment header.
///
/// `seq`/`ack` are absolute byte offsets from the start of each
/// direction's stream (initial sequence numbers are zero — the
/// simulation does not need ISN randomisation and observers are easier
/// to validate without it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHdr {
    /// Flow this segment belongs to.
    pub flow: FlowId,
    /// True if sent by the connection initiator (client→server).
    pub from_initiator: bool,
    /// Server-side (destination) port of the connection.
    pub dport: u16,
    /// Client-side (ephemeral) port of the connection.
    pub sport: u16,
    /// First payload byte offset carried by this segment.
    pub seq: u64,
    /// Cumulative acknowledgement (next expected byte from the peer).
    pub ack: u64,
    /// Payload bytes in this segment.
    pub len: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Advertised receive window in bytes.
    pub wnd: u32,
    /// Sender's MSS advertisement (only meaningful on SYN segments).
    pub mss: u32,
    /// Timestamp value (send time) — RFC 1323-style, used for RTT
    /// measurement by endpoints *and* by passive observers.
    pub tsval: SimTime,
    /// Timestamp echo (the `tsval` of the segment being acknowledged).
    pub tsecr: SimTime,
    /// True when this is a retransmission (set by the sender; real
    /// tstat infers this — our observers infer it too and this field is
    /// used only to validate their inference in tests).
    pub is_retx: bool,
}

/// A UDP datagram header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHdr {
    /// Destination port (selects the receiving socket binding).
    pub dst_port: u16,
    /// Source port.
    pub src_port: u16,
    /// Payload bytes.
    pub len: u32,
}

/// Transport-layer header of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportHdr {
    /// A TCP segment.
    Tcp(TcpHdr),
    /// A UDP datagram.
    Udp(UdpHdr),
}

/// A packet in flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Originating host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Total wire size in bytes (payload + transport/IP overhead).
    pub size: u32,
    /// Transport header.
    pub hdr: TransportHdr,
}

impl Packet {
    /// Build a TCP packet; wire size = payload + [`TCP_HEADER_BYTES`].
    pub fn tcp(src: HostId, dst: HostId, hdr: TcpHdr) -> Packet {
        Packet {
            src,
            dst,
            size: hdr.len + TCP_HEADER_BYTES,
            hdr: TransportHdr::Tcp(hdr),
        }
    }

    /// Build a UDP packet; wire size = payload + [`UDP_HEADER_BYTES`].
    pub fn udp(src: HostId, dst: HostId, hdr: UdpHdr) -> Packet {
        Packet {
            src,
            dst,
            size: hdr.len + UDP_HEADER_BYTES,
            hdr: TransportHdr::Udp(hdr),
        }
    }

    /// The TCP header, if this is a TCP packet.
    pub fn tcp_hdr(&self) -> Option<&TcpHdr> {
        match &self.hdr {
            TransportHdr::Tcp(h) => Some(h),
            TransportHdr::Udp(_) => None,
        }
    }

    /// Payload bytes carried (0 for pure ACKs and UDP-less packets).
    pub fn payload_len(&self) -> u32 {
        match &self.hdr {
            TransportHdr::Tcp(h) => h.len,
            TransportHdr::Udp(h) => h.len,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_tcp_hdr(len: u32) -> TcpHdr {
        TcpHdr {
            flow: FlowId(0),
            from_initiator: true,
            dport: 80,
            sport: 40000,
            seq: 0,
            ack: 0,
            len,
            flags: TcpFlags::DATA,
            wnd: 65535,
            mss: 1460,
            tsval: SimTime::ZERO,
            tsecr: SimTime::ZERO,
            is_retx: false,
        }
    }

    #[test]
    fn tcp_packet_size_includes_overhead() {
        let p = Packet::tcp(HostId(0), HostId(1), dummy_tcp_hdr(1460));
        assert_eq!(p.size, 1460 + TCP_HEADER_BYTES);
        assert_eq!(p.payload_len(), 1460);
        assert!(p.tcp_hdr().is_some());
    }

    #[test]
    fn pure_ack_is_header_only() {
        let p = Packet::tcp(HostId(0), HostId(1), dummy_tcp_hdr(0));
        assert_eq!(p.size, TCP_HEADER_BYTES);
        assert_eq!(p.payload_len(), 0);
    }

    #[test]
    fn udp_packet_size() {
        let h = UdpHdr {
            dst_port: 5001,
            src_port: 40000,
            len: 1000,
        };
        let p = Packet::udp(HostId(2), HostId(3), h);
        assert_eq!(p.size, 1000 + UDP_HEADER_BYTES);
        assert!(p.tcp_hdr().is_none());
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn flag_constants() {
        assert!(TcpFlags::SYN.syn && !TcpFlags::SYN.ack);
        assert!(TcpFlags::SYN_ACK.syn && TcpFlags::SYN_ACK.ack);
        assert!(TcpFlags::FIN.fin && TcpFlags::FIN.ack);
        assert!(!TcpFlags::DATA.syn && !TcpFlags::DATA.fin);
    }
}
