//! Framed byte transports: real TCP and an in-memory pair.

use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;

/// Maximum accepted frame size (16 MiB) — guards against hostile length
/// prefixes.
pub const MAX_FRAME: usize = 16 << 20;

/// Most a TCP receiver allocates for a frame before its body arrives.
const RECV_PREALLOC: usize = 64 << 10;

/// Sending half of a transport.
pub trait FrameSender: Send {
    /// Send one frame.
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()>;

    /// Send a batch of frames, coalescing them into one transport push
    /// where the transport supports it (TCP writes one gathered buffer
    /// instead of a syscall pair per frame). The default forwards to
    /// [`FrameSender::send`] per frame, so wrappers that intercept `send`
    /// (fault injection) still see every frame.
    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        for frame in frames {
            self.send(frame)?;
        }
        Ok(())
    }

    /// Flush bytes a nonblocking transport buffered because the socket
    /// refused them, without blocking. Returns whether unsent bytes
    /// remain queued. The reactor calls this on writable edges; senders
    /// that never buffer (the default) report none.
    fn flush_backlog(&mut self) -> std::io::Result<bool> {
        Ok(false)
    }
}

/// Receiving half of a transport.
pub trait FrameReceiver: Send {
    /// Receive one frame, blocking. Returns `UnexpectedEof` when the peer
    /// is gone.
    fn recv(&mut self) -> std::io::Result<Vec<u8>>;

    /// Receive at least one frame, blocking, plus any further frames the
    /// transport already holds. Lets the reader thread process a
    /// coalesced burst per wakeup instead of re-entering the scheduler
    /// once per frame. The default returns a single frame.
    fn recv_many(&mut self) -> std::io::Result<Vec<Vec<u8>>> {
        self.recv().map(|frame| vec![frame])
    }

    /// Surrender the underlying TCP stream, if this receiver directly
    /// owns one, so the reactor can service it with epoll instead of a
    /// blocking reader thread. After a `Some` return, `recv` must not be
    /// called again. Non-TCP transports — and wrappers that need to
    /// intercept `recv` (fault injection) — return `None` (the default),
    /// which keeps the channel on its reader thread.
    fn take_stream(&mut self) -> Option<TcpStream> {
        None
    }
}

/// A bidirectional framed transport that can be split into halves.
pub trait Transport: Send {
    /// Split into independently usable send/recv halves.
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>);
}

// ---------------------------------------------------------------- TCP --

/// Length-prefixed frames over a [`TcpStream`].
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wrap a connected stream (sets `TCP_NODELAY` for latency-sensitive
    /// RPC and heartbeats).
    pub fn new(stream: TcpStream) -> std::io::Result<TcpTransport> {
        stream.set_nodelay(true)?;
        Ok(TcpTransport { stream })
    }
}

struct TcpSender {
    stream: TcpStream,
    /// Reused length-prefix storage for `send_many`: prefixes must
    /// outlive the gather list that borrows them.
    prefixes: Vec<[u8; 4]>,
    /// Bytes the nonblocking socket refused, queued in wire order. The
    /// reactor flushes this on writable edges; meanwhile new sends append
    /// behind it so the byte stream never reorders.
    backlog: Vec<u8>,
}

struct TcpReceiver {
    /// `None` once [`FrameReceiver::take_stream`] has surrendered the
    /// stream to the reactor.
    stream: Option<TcpStream>,
}

impl Transport for TcpTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>) {
        let reader = self.stream.try_clone().expect("tcp clone");
        (
            Box::new(TcpSender {
                stream: self.stream,
                prefixes: Vec::new(),
                backlog: Vec::new(),
            }),
            Box::new(TcpReceiver {
                stream: Some(reader),
            }),
        )
    }
}

/// Bound on gather-list length per `writev` — the portable `IOV_MAX`
/// floor.
const MAX_IOV: usize = 1024;

/// Backpressure bound on buffered-but-unsent bytes per connection. A
/// peer that stops reading long enough for this much backlog to pile up
/// gets its sends failed (and, through the heartbeat path, its channel
/// closed) instead of growing the queue without bound. One frame may
/// exceed the cap transiently — the check runs before appending — so
/// worst-case memory is `SEND_BACKLOG_CAP + MAX_FRAME` per connection.
const SEND_BACKLOG_CAP: usize = 8 << 20;

/// Send the logical concatenation of `parts` without ever blocking on
/// a full socket: bytes the kernel refuses are queued in `backlog`
/// and flushed later (next send, or the reactor's writable edge). On
/// a blocking stream (threaded backend, handshake) `write_vectored`
/// itself blocks and the backlog stays empty, preserving the legacy
/// blocking-send semantics. A reactor shard therefore never parks
/// inside a send — the failure mode that could deadlock a shard when
/// both endpoints of a connection land on it.
fn send_parts(
    stream: &mut TcpStream,
    backlog: &mut Vec<u8>,
    parts: &[&[u8]],
) -> std::io::Result<()> {
    if !backlog.is_empty() {
        try_flush(stream, backlog)?;
        if !backlog.is_empty() {
            // Socket still full: queue behind the existing backlog
            // (order preserved) unless the peer has stopped draining.
            if backlog.len() > SEND_BACKLOG_CAP {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WouldBlock,
                    "send backlog over cap: peer not draining",
                ));
            }
            for part in parts {
                backlog.extend_from_slice(part);
            }
            return Ok(());
        }
    }
    let total: usize = parts.iter().map(|p| p.len()).sum();
    let mut written = 0usize;
    let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(parts.len().min(MAX_IOV));
    while written < total {
        slices.clear();
        let mut skip = written;
        for part in parts {
            if slices.len() == MAX_IOV {
                break;
            }
            // Also skips empty parts (skip 0 >= len 0), which some
            // kernels reject in iovecs.
            if skip >= part.len() {
                skip -= part.len();
                continue;
            }
            slices.push(IoSlice::new(&part[skip..]));
            skip = 0;
        }
        match stream.write_vectored(&slices) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "tcp write returned zero",
                ))
            }
            Ok(n) => written += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // Stash the unsent tail; a writable edge flushes it.
                let mut skip = written;
                for part in parts {
                    if skip >= part.len() {
                        skip -= part.len();
                        continue;
                    }
                    backlog.extend_from_slice(&part[skip..]);
                    skip = 0;
                }
                return Ok(());
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Write as much backlog as the socket accepts right now.
fn try_flush(stream: &mut TcpStream, backlog: &mut Vec<u8>) -> std::io::Result<()> {
    let mut off = 0usize;
    let result = loop {
        if off >= backlog.len() {
            break Ok(());
        }
        match stream.write(&backlog[off..]) {
            Ok(0) => {
                break Err(std::io::Error::new(
                    std::io::ErrorKind::WriteZero,
                    "tcp write returned zero",
                ))
            }
            Ok(n) => off += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => break Err(e),
        }
    };
    backlog.drain(..off);
    // An idle connection must not pin a burst-sized backlog buffer.
    if backlog.is_empty() && backlog.capacity() > 1 << 16 {
        *backlog = Vec::new();
    }
    result
}

impl FrameSender for TcpSender {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let prefix = (frame.len() as u32).to_le_bytes();
        // One gathered write: prefix + frame leave as a single syscall
        // and, with `TCP_NODELAY`, one segment.
        send_parts(&mut self.stream, &mut self.backlog, &[&prefix, frame])
    }

    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        self.prefixes.clear();
        self.prefixes
            .extend(frames.iter().map(|f| (f.len() as u32).to_le_bytes()));
        let mut parts: Vec<&[u8]> = Vec::with_capacity(frames.len() * 2);
        for (prefix, frame) in self.prefixes.iter().zip(frames) {
            parts.push(&prefix[..]);
            parts.push(frame);
        }
        let result = send_parts(&mut self.stream, &mut self.backlog, &parts);
        // A huge batch must not pin its prefix buffer forever.
        if self.prefixes.capacity() > 1 << 16 {
            self.prefixes = Vec::new();
        }
        result
    }

    fn flush_backlog(&mut self) -> std::io::Result<bool> {
        try_flush(&mut self.stream, &mut self.backlog)?;
        Ok(!self.backlog.is_empty())
    }
}

impl FrameReceiver for TcpReceiver {
    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        let stream = self.stream.as_mut().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::NotConnected,
                "stream surrendered to reactor",
            )
        })?;
        let mut len_buf = [0u8; 4];
        stream.read_exact(&mut len_buf)?;
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_FRAME {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "frame exceeds MAX_FRAME",
            ));
        }
        // Grow the buffer as bytes arrive: a declared length is not
        // trusted with an up-front allocation before the handshake.
        let mut buf = Vec::with_capacity(len.min(RECV_PREALLOC));
        (&mut *stream).take(len as u64).read_to_end(&mut buf)?;
        if buf.len() < len {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "peer closed mid-frame",
            ));
        }
        Ok(buf)
    }

    fn take_stream(&mut self) -> Option<TcpStream> {
        self.stream.take()
    }
}

// ------------------------------------------------------------ in-mem --

/// In-memory transport: a pair of crossbeam channels. Deterministic and
/// fast; used by tests, benches, and the netsim-backed deployments.
///
/// The channels carry frame *batches* so a coalesced
/// [`send_many`](FrameSender::send_many) costs one channel send — and
/// therefore at most one receiver wakeup — per batch, mirroring the
/// single `write_all` of the TCP sender.
pub struct MemTransport {
    tx: crossbeam::channel::Sender<Vec<Vec<u8>>>,
    rx: crossbeam::channel::Receiver<Vec<Vec<u8>>>,
}

impl MemTransport {
    /// Create a connected pair.
    pub fn pair() -> (MemTransport, MemTransport) {
        let (tx_ab, rx_ab) = crossbeam::channel::unbounded();
        let (tx_ba, rx_ba) = crossbeam::channel::unbounded();
        (
            MemTransport {
                tx: tx_ab,
                rx: rx_ba,
            },
            MemTransport {
                tx: tx_ba,
                rx: rx_ab,
            },
        )
    }
}

struct MemSender(crossbeam::channel::Sender<Vec<Vec<u8>>>);
struct MemReceiver {
    rx: crossbeam::channel::Receiver<Vec<Vec<u8>>>,
    queued: std::collections::VecDeque<Vec<u8>>,
}

impl Transport for MemTransport {
    fn split(self: Box<Self>) -> (Box<dyn FrameSender>, Box<dyn FrameReceiver>) {
        (
            Box::new(MemSender(self.tx)),
            Box::new(MemReceiver {
                rx: self.rx,
                queued: std::collections::VecDeque::new(),
            }),
        )
    }
}

impl FrameSender for MemSender {
    fn send(&mut self, frame: &[u8]) -> std::io::Result<()> {
        self.0
            .send(vec![frame.to_vec()])
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"))
    }

    fn send_many(&mut self, frames: &[&[u8]]) -> std::io::Result<()> {
        self.0
            .send(frames.iter().map(|f| f.to_vec()).collect())
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::BrokenPipe, "peer gone"))
    }
}

impl FrameReceiver for MemReceiver {
    fn recv(&mut self) -> std::io::Result<Vec<u8>> {
        loop {
            if let Some(frame) = self.queued.pop_front() {
                return Ok(frame);
            }
            let batch = self
                .rx
                .recv()
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer gone"))?;
            self.queued.extend(batch);
        }
    }

    fn recv_many(&mut self) -> std::io::Result<Vec<Vec<u8>>> {
        let mut batch: Vec<Vec<u8>> = if self.queued.is_empty() {
            self.rx
                .recv()
                .map_err(|_| std::io::Error::new(std::io::ErrorKind::UnexpectedEof, "peer gone"))?
        } else {
            self.queued.drain(..).collect()
        };
        // Opportunistically fold in batches that arrived meanwhile, bounded
        // so a fast sender cannot grow the burst without limit.
        while batch.len() < 64 {
            match self.rx.try_recv() {
                Ok(more) => batch.extend(more),
                Err(_) => break,
            }
        }
        Ok(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pair_roundtrip() {
        let (a, b) = MemTransport::pair();
        let (mut atx, _arx) = Box::new(a).split();
        let (_btx, mut brx) = Box::new(b).split();
        atx.send(b"hello").unwrap();
        atx.send(b"world").unwrap();
        assert_eq!(brx.recv().unwrap(), b"hello");
        assert_eq!(brx.recv().unwrap(), b"world");
    }

    #[test]
    fn mem_eof_on_drop() {
        let (a, b) = MemTransport::pair();
        let (atx, arx) = Box::new(a).split();
        drop(atx);
        drop(arx);
        let (_btx, mut brx) = Box::new(b).split();
        assert!(brx.recv().is_err());
    }

    #[test]
    fn tcp_roundtrip() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let t = Box::new(TcpTransport::new(s).unwrap());
            let (mut tx, mut rx) = t.split();
            let got = rx.recv().unwrap();
            tx.send(&got).unwrap(); // echo
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (mut tx, mut rx) = t.split();
        tx.send(b"ping over real tcp").unwrap();
        assert_eq!(rx.recv().unwrap(), b"ping over real tcp");
        join.join().unwrap();
    }

    #[test]
    fn send_many_coalesces_into_distinct_frames() {
        // Over TCP: the gathered write must still arrive as individually
        // framed messages.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (s, _) = listener.accept().unwrap();
            let t = Box::new(TcpTransport::new(s).unwrap());
            let (_tx, mut rx) = t.split();
            (rx.recv().unwrap(), rx.recv().unwrap(), rx.recv().unwrap())
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (mut tx, _rx) = t.split();
        tx.send_many(&[b"one", b"", b"three"]).unwrap();
        let (a, b, c) = join.join().unwrap();
        assert_eq!(
            (&a[..], &b[..], &c[..]),
            (&b"one"[..], &b""[..], &b"three"[..])
        );

        // Over the in-mem pair: default per-frame forwarding.
        let (ma, mb) = MemTransport::pair();
        let (mut mtx, _) = Box::new(ma).split();
        let (_, mut mrx) = Box::new(mb).split();
        mtx.send_many(&[b"x", b"y"]).unwrap();
        assert_eq!(mrx.recv().unwrap(), b"x");
        assert_eq!(mrx.recv().unwrap(), b"y");
    }

    #[test]
    fn nonblocking_sender_backlogs_instead_of_blocking() {
        // Regression for the reactor-shard deadlock: a nonblocking sender
        // whose peer stops reading must (a) return instead of parking in
        // an unbounded writable-poll, (b) fail sends once the backlog cap
        // is hit, and (c) deliver every accepted byte intact once the
        // peer drains and the backlog is flushed.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let peer = std::thread::spawn(move || listener.accept().unwrap().0);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nonblocking(true).unwrap();
        let peer = peer.join().unwrap(); // accepted but never read from (yet)
        let t = Box::new(TcpTransport::new(stream).unwrap());
        let (mut tx, _rx) = t.split();

        // Flood 1 MiB frames. The socket buffers absorb a few, the
        // backlog absorbs SEND_BACKLOG_CAP more, then sends must fail.
        // (With the old blocking poll this loop would hang forever.)
        let frame_len = 1 << 20;
        let mut accepted = 0usize;
        let mut overflowed = false;
        for i in 0..64usize {
            let frame = vec![i as u8; frame_len];
            match tx.send(&frame) {
                Ok(()) => accepted += 1,
                Err(e) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "{e}");
                    overflowed = true;
                    break;
                }
            }
        }
        assert!(overflowed, "backlog must be bounded: 64 MiB all accepted");
        assert!(accepted >= 8, "cap kicked in below SEND_BACKLOG_CAP");

        // Peer drains; flushing writable edges empties the backlog and
        // every accepted frame arrives in order, bytes intact.
        let reader = std::thread::spawn(move || {
            let t = Box::new(TcpTransport::new(peer).unwrap());
            let (_tx, mut rx) = t.split();
            for i in 0..accepted {
                let frame = rx.recv().unwrap();
                assert_eq!(frame.len(), frame_len, "frame {i} truncated");
                assert!(
                    frame.iter().all(|b| *b == i as u8),
                    "frame {i} corrupted in backlog handoff"
                );
            }
        });
        let flush_start = std::time::Instant::now();
        while tx.flush_backlog().unwrap() {
            assert!(
                flush_start.elapsed() < std::time::Duration::from_secs(30),
                "backlog never drained"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        reader.join().unwrap();

        // With the backlog drained the sender accepts traffic again.
        tx.send(b"recovered").unwrap();
    }

    #[test]
    fn tcp_rejects_oversized_frame() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Hostile 1 GiB length prefix.
            use std::io::Write;
            s.write_all(&(1u32 << 30).to_le_bytes()).unwrap();
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (_tx, mut rx) = t.split();
        assert!(rx.recv().is_err());
        join.join().unwrap();
    }

    #[test]
    fn tcp_short_body_is_unexpected_eof() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            // Declare the largest legal frame, send 16 bytes, close.
            use std::io::Write;
            s.write_all(&(MAX_FRAME as u32).to_le_bytes()).unwrap();
            s.write_all(&[0xab; 16]).unwrap();
        });
        let t = Box::new(TcpTransport::new(TcpStream::connect(addr).unwrap()).unwrap());
        let (_tx, mut rx) = t.split();
        join.join().unwrap();
        let err = rx.recv().unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
