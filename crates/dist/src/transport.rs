//! Frame transports: how a coordinator and a shard server exchange
//! [`Frame`]s.
//!
//! Two implementations of one blocking, lockstep [`Transport`] trait:
//!
//! * [`ChannelTransport`] — an in-process `mpsc` pair. The deterministic
//!   default of the test suite: the differential certificate runs N
//!   "servers" as threads of one process, so a failure is a plain
//!   backtrace, not a orphaned child process.
//! * [`TcpTransport`] — a `std::net::TcpStream` carrying the same
//!   frames byte for byte. The repository benchmark's `cluster-rounds`
//!   workload uses it to run real multi-process clusters over loopback;
//!   nothing in the protocol is transport-specific, which is what lets
//!   the in-process suite certify the multi-process cluster.

use crate::error::DistError;
use smn_storage::{read_frame, write_frame, Frame};
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver, Sender};

/// One end of a bidirectional frame pipe. Blocking and lockstep: the
/// caller alternates `send` and `recv` according to the protocol roles.
pub trait Transport: Send {
    /// Ships one frame to the peer.
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), DistError>;
    /// Blocks for the peer's next frame.
    fn recv(&mut self) -> Result<Frame, DistError>;
}

/// An in-process transport over a pair of `mpsc` channels.
pub struct ChannelTransport {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
}

/// A connected pair of in-process transports (coordinator end, server
/// end).
pub fn channel_pair() -> (ChannelTransport, ChannelTransport) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (ChannelTransport { tx: a_tx, rx: a_rx }, ChannelTransport { tx: b_tx, rx: b_rx })
}

impl Transport for ChannelTransport {
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), DistError> {
        self.tx
            .send(Frame { kind, payload: payload.to_vec() })
            .map_err(|_| DistError::Protocol("peer channel closed".into()))
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        self.rx.recv().map_err(|_| DistError::Protocol("peer channel closed".into()))
    }
}

/// A frame transport over one TCP stream (loopback in practice). Frames
/// are written and read with the storage crate's checksummed codec, so
/// a corrupted or truncated stream surfaces as a typed error.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps a connected stream. `TCP_NODELAY` is set — the protocol is
    /// strict request/response, so Nagle delays would serialize every
    /// round trip behind a timer.
    pub fn new(stream: TcpStream) -> Result<Self, DistError> {
        stream.set_nodelay(true).map_err(|e| DistError::Storage(e.into()))?;
        Ok(Self { stream })
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, kind: u32, payload: &[u8]) -> Result<(), DistError> {
        Ok(write_frame(&mut self.stream, kind, payload)?)
    }

    fn recv(&mut self) -> Result<Frame, DistError> {
        Ok(read_frame(&mut self.stream)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn channel_pair_exchanges_frames_both_ways() {
        let (mut a, mut b) = channel_pair();
        a.send(1, b"ping").unwrap();
        let got = b.recv().unwrap();
        assert_eq!((got.kind, got.payload.as_slice()), (1, &b"ping"[..]));
        b.send(2, b"pong").unwrap();
        assert_eq!(a.recv().unwrap().kind, 2);
    }

    #[test]
    fn a_dropped_peer_is_a_typed_error() {
        let (mut a, b) = channel_pair();
        drop(b);
        assert!(matches!(a.send(1, b""), Err(DistError::Protocol(_))));
        assert!(matches!(a.recv(), Err(DistError::Protocol(_))));
    }

    #[test]
    fn tcp_transport_round_trips_over_loopback() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut t = TcpTransport::new(stream).unwrap();
            let frame = t.recv().unwrap();
            t.send(frame.kind + 1, &frame.payload).unwrap();
        });
        let mut t = TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap();
        t.send(41, b"loopback").unwrap();
        let echo = t.recv().unwrap();
        assert_eq!((echo.kind, echo.payload.as_slice()), (42, &b"loopback"[..]));
        server.join().unwrap();
    }
}
