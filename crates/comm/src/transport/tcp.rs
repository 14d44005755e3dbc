//! Real-socket backend: length-prefixed frames over `std::net` TCP with a
//! per-link connection supervisor.
//!
//! # Supervision model
//!
//! Each of the `P − 1` links of a rank is owned by one *reader thread*
//! that drives a small state machine:
//!
//! ```text
//!           ┌────────────┐ acquired ┌───────────┐ socket error ┌───────────┐
//!  start ──▶│ CONNECTING │─────────▶│ CONNECTED │─────────────▶│ RECONNECT │
//!           └────────────┘          └───────────┘              └─────┬─────┘
//!                 │  window/attempts exhausted ▲      re-acquired    │
//!                 ▼                            └─────────────────────┘
//!           ┌──────┐          (attempts exhausted / stale epoch / shutdown)
//!           │ DEAD │◀───────────────────────────────────────────────┘
//!           └──────┘
//! ```
//!
//! * **CONNECTING** — the lower-indexed rank of a pair listens, the
//!   higher-indexed rank dials (so exactly one side initiates). The
//!   handshake exchanges [`Frame::Hello`] carrying rank identity, cluster
//!   size, and membership epoch; the acceptor rejects wrong sizes, wrong
//!   directions, and peers whose epoch is older than its own (a stale
//!   survivor of a revoked membership).
//! * **CONNECTED** — the reader performs *blocking* frame reads (a read
//!   timeout could fire mid-frame and desynchronize the length-prefixed
//!   stream; the heartbeat thread unblocks a stuck reader by shutting the
//!   socket down instead). Every received frame refreshes the link's
//!   `last_seen` stamp; a heartbeat thread beacons every
//!   [`TcpConfig::heartbeat_interval`] and declares the peer dead when
//!   `last_seen` exceeds [`TcpConfig::death_timeout`].
//! * **RECONNECT** — the dialer retries with bounded exponential backoff
//!   ([`TcpConfig::max_reconnect_attempts`] ×
//!   [`TcpConfig::backoff_base`]); the acceptor waits out the matching
//!   window for a replacement connection. Frames in flight across the
//!   break are lost (never torn: partial frames fail to parse and die
//!   with the connection).
//! * **DEAD** — terminal. The reader exits, dropping its channel sender;
//!   the owning [`Communicator`](crate::Communicator) observes exactly the
//!   closed-channel [`CommError::Disconnected`] that in-process rank death
//!   produces, so ULFM-style recovery runs unmodified.
//!
//! # Failure → `CommError` mapping
//!
//! | Observation                                  | Error                     |
//! |----------------------------------------------|---------------------------|
//! | link DEAD (reconnect exhausted / heartbeat)  | `Disconnected { peer }`   |
//! | no frame within the receive deadline         | `Timeout { peer, .. }`    |
//! | no writable connection for the send deadline | `Timeout { peer, .. }`    |
//! | REVOKE frame (decoded upstream)              | `Aborted { rank }`        |

use super::frame::{self, Frame};
use super::Transport;
use crate::{CommError, Message, Result};
use std::io::{self, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::SeqCst};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tuning knobs of the TCP supervisor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Budget for each link's *initial* connection (covers staggered
    /// process launch).
    pub handshake_window: Duration,
    /// Per-attempt TCP connect timeout.
    pub connect_timeout: Duration,
    /// A send that finds no writable connection for this long fails with
    /// [`CommError::Timeout`].
    pub send_deadline: Duration,
    /// A receive that sees no frame for this long fails with
    /// [`CommError::Timeout`] — the per-link deadline that detects silent
    /// peers even when no fault plan is armed.
    pub recv_deadline: Duration,
    /// Heartbeat beacon period.
    pub heartbeat_interval: Duration,
    /// A connected link silent for longer than this is declared dead.
    pub death_timeout: Duration,
    /// Bounded reconnect attempts after a connection break.
    pub max_reconnect_attempts: u32,
    /// Base of the exponential reconnect backoff (doubled per attempt).
    pub backoff_base: Duration,
    /// Elastic-rejoin mode. When set, a link whose reconnect budget is
    /// exhausted *parks* instead of dying for good: the reader keeps
    /// waiting (accept side) or re-dialing about twice a second (dial
    /// side) for a restarted incarnation of the peer, and dials carry the
    /// `u64::MAX` epoch sentinel so acceptors at a newer membership epoch
    /// admit them. Peer death is then reported through the link's dead
    /// flag rather than a closed channel — the same [`CommError`] values,
    /// just revivable. Stale-epoch handshake rejection is traded away;
    /// the communicator's REVOKE/epoch purging still guards correctness.
    pub rejoin: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            handshake_window: Duration::from_secs(30),
            connect_timeout: Duration::from_secs(1),
            send_deadline: Duration::from_secs(10),
            recv_deadline: Duration::from_secs(30),
            heartbeat_interval: Duration::from_millis(200),
            death_timeout: Duration::from_secs(3),
            max_reconnect_attempts: 5,
            backoff_base: Duration::from_millis(50),
            rejoin: false,
        }
    }
}

impl TcpConfig {
    /// Snappy constants for localhost clusters (tests and the loopback
    /// launch script): failures are detected in hundreds of milliseconds
    /// instead of seconds.
    pub fn fast_local() -> Self {
        TcpConfig {
            handshake_window: Duration::from_secs(20),
            connect_timeout: Duration::from_millis(250),
            send_deadline: Duration::from_secs(5),
            recv_deadline: Duration::from_secs(10),
            heartbeat_interval: Duration::from_millis(100),
            death_timeout: Duration::from_millis(1500),
            max_reconnect_attempts: 4,
            backoff_base: Duration::from_millis(25),
            rejoin: false,
        }
    }

    /// [`TcpConfig::fast_local`] with elastic rejoin switched on — the
    /// configuration the chaos harness and `--elastic` launches use.
    pub fn elastic_local() -> Self {
        TcpConfig {
            rejoin: true,
            ..Self::fast_local()
        }
    }
}

/// Re-resolves a rank's current socket address (a restarted rank binds a
/// fresh port and republishes it through the rendezvous mechanism).
pub type AddrResolver = Arc<dyn Fn(usize) -> Option<SocketAddr> + Send + Sync>;

/// State one link shares between the main thread, its reader, and the
/// heartbeat thread.
struct LinkShared {
    /// The writable half of the current connection (`None` while
    /// connecting/reconnecting). The reader thread is the sole
    /// installer/clearer.
    writer: Mutex<Option<TcpStream>>,
    /// Terminal death flag: reconnect exhausted, stale epoch, or
    /// heartbeat timeout.
    dead: AtomicBool,
    /// Milliseconds (since transport start) of the last frame or
    /// connection event seen from this peer.
    last_seen_ms: AtomicU64,
}

/// Context shared by every supervisor thread of one endpoint.
struct Ctx {
    rank: usize,
    size: usize,
    cfg: TcpConfig,
    peers: Vec<SocketAddr>,
    resolver: Option<AddrResolver>,
    epoch: AtomicU64,
    shutdown: AtomicBool,
    start: Instant,
    links: Vec<Option<Arc<LinkShared>>>,
}

/// The peer's current address: the resolver's answer when one is
/// installed (rejoined ranks republish fresh ports), else the address
/// from `establish`.
fn peer_addr(ctx: &Ctx, peer: usize) -> SocketAddr {
    ctx.resolver
        .as_ref()
        .and_then(|r| r(peer))
        .unwrap_or(ctx.peers[peer])
}

fn now_ms(ctx: &Ctx) -> u64 {
    ctx.start.elapsed().as_millis() as u64
}

fn touch(ctx: &Ctx, shared: &LinkShared) {
    shared.last_seen_ms.store(now_ms(ctx), SeqCst);
}

/// Sleeps `total` in short slices, returning `true` (bail) as soon as the
/// transport shuts down or the link dies.
fn sleep_interruptibly(ctx: &Ctx, shared: Option<&LinkShared>, total: Duration) -> bool {
    let deadline = Instant::now() + total;
    loop {
        if ctx.shutdown.load(SeqCst) || shared.is_some_and(|s| s.dead.load(SeqCst)) {
            return true;
        }
        let now = Instant::now();
        if now >= deadline {
            return false;
        }
        thread::sleep((deadline - now).min(Duration::from_millis(50)));
    }
}

/// A supervised TCP endpoint of one rank.
///
/// Construct by binding a [`TcpListener`] (port 0 for OS assignment),
/// publishing its address to the rendezvous mechanism of your choice, and
/// calling [`TcpTransport::establish`] with every rank's address.
/// `establish` returns immediately; connections are brought up in the
/// background within [`TcpConfig::handshake_window`].
pub struct TcpTransport {
    ctx: Arc<Ctx>,
    /// Per-peer inbound message queues (fed by the reader threads).
    rx: Vec<Option<Receiver<Message>>>,
    threads: Vec<JoinHandle<()>>,
    /// Every DATA frame is encoded here; the buffer keeps its capacity
    /// from one send to the next.
    send_buf: Vec<u8>,
}

impl TcpTransport {
    /// Brings up the supervisor for `rank` of a cluster whose rank `i`
    /// listens at `peers[i]`. `listener` must be the already-bound socket
    /// behind `peers[rank]`.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidRank`] if `rank` is not an index of `peers`.
    pub fn establish(
        listener: TcpListener,
        rank: usize,
        peers: Vec<SocketAddr>,
        cfg: TcpConfig,
    ) -> Result<TcpTransport> {
        Self::establish_with_resolver(listener, rank, peers, cfg, None)
    }

    /// [`TcpTransport::establish`] with an address resolver for elastic
    /// clusters: whenever a link dials, it asks `resolver` for the peer's
    /// *current* address first (a restarted rank binds a fresh port), and
    /// falls back to the `peers` entry when the resolver has no answer.
    ///
    /// # Errors
    ///
    /// [`CommError::InvalidRank`] if `rank` is not an index of `peers`.
    pub fn establish_with_resolver(
        listener: TcpListener,
        rank: usize,
        peers: Vec<SocketAddr>,
        cfg: TcpConfig,
        resolver: Option<AddrResolver>,
    ) -> Result<TcpTransport> {
        let size = peers.len();
        if size == 0 || rank >= size {
            return Err(CommError::InvalidRank { rank, size });
        }
        let links: Vec<Option<Arc<LinkShared>>> = (0..size)
            .map(|p| {
                (p != rank).then(|| {
                    Arc::new(LinkShared {
                        writer: Mutex::new(None),
                        dead: AtomicBool::new(false),
                        last_seen_ms: AtomicU64::new(0),
                    })
                })
            })
            .collect();
        let ctx = Arc::new(Ctx {
            rank,
            size,
            cfg,
            peers,
            resolver,
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            links,
        });
        let mut threads = Vec::new();
        let mut rx_slots: Vec<Option<Receiver<Message>>> = Vec::with_capacity(size);
        let mut repl_txs: Vec<Option<Sender<TcpStream>>> = (0..size).map(|_| None).collect();
        let mut repl_rxs: Vec<Option<Receiver<TcpStream>>> = (0..size).map(|_| None).collect();
        for (p, (t_slot, r_slot)) in repl_txs.iter_mut().zip(repl_rxs.iter_mut()).enumerate() {
            if p == rank {
                continue;
            }
            let (t, r) = channel();
            *t_slot = Some(t);
            *r_slot = Some(r);
        }
        for (p, repl_slot) in repl_rxs.iter_mut().enumerate() {
            if p == rank {
                rx_slots.push(None);
                continue;
            }
            let (tx, rx) = channel();
            rx_slots.push(Some(rx));
            let ctx2 = ctx.clone();
            let repl = repl_slot.take().expect("replacement channel built");
            threads.push(
                thread::Builder::new()
                    .name(format!("gtopk-tcp-r{rank}-link{p}"))
                    .spawn(move || reader_loop(&ctx2, p, &repl, &tx))
                    .expect("spawn link reader"),
            );
        }
        if size > 1 {
            listener
                .set_nonblocking(true)
                .expect("nonblocking listener");
            let ctx2 = ctx.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("gtopk-tcp-r{rank}-accept"))
                    .spawn(move || acceptor_loop(&ctx2, &listener, &repl_txs))
                    .expect("spawn acceptor"),
            );
            let ctx2 = ctx.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("gtopk-tcp-r{rank}-hb"))
                    .spawn(move || heartbeat_loop(&ctx2))
                    .expect("spawn heartbeat"),
            );
        }
        Ok(TcpTransport {
            ctx,
            rx: rx_slots,
            threads,
            send_buf: Vec::new(),
        })
    }

    /// Broadcasts a graceful [`Frame::Leave`] on every live link: peers
    /// kill the link the moment it arrives instead of waiting out
    /// heartbeat deadlines, so a deliberate shutdown is detected as fast
    /// as a crash.
    pub fn announce_leave(&self) {
        announce_leave_ctx(&self.ctx);
    }

    fn shutdown_impl(&mut self) {
        if !self.ctx.shutdown.load(SeqCst) {
            announce_leave_ctx(&self.ctx);
        }
        self.ctx.shutdown.store(true, SeqCst);
        for shared in self.ctx.links.iter().flatten() {
            if let Ok(guard) = shared.writer.lock() {
                if let Some(s) = guard.as_ref() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
    }

    /// Test hook: severs the current connection to `peer` (the supervisor
    /// then reconnects, or declares the peer dead if it cannot).
    #[doc(hidden)]
    pub fn break_link(&self, peer: usize) {
        if let Some(shared) = self.ctx.links.get(peer).and_then(|l| l.as_ref()) {
            if let Ok(guard) = shared.writer.lock() {
                if let Some(s) = guard.as_ref() {
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown_impl();
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.ctx.rank
    }

    fn size(&self) -> usize {
        self.ctx.size
    }

    fn send(&mut self, dest: usize, msg: Message) -> Result<()> {
        let shared = self.ctx.links[dest]
            .as_ref()
            .expect("send target is a valid peer")
            .clone();
        frame::encode_into(&Frame::data(msg), &mut self.send_buf);
        let start = Instant::now();
        let mut attempts = 0u32;
        loop {
            if shared.dead.load(SeqCst) {
                return Err(CommError::Disconnected { peer: dest });
            }
            {
                let guard = shared.writer.lock().expect("writer lock");
                if let Some(s) = guard.as_ref() {
                    attempts += 1;
                    if (&*s).write_all(&self.send_buf).is_ok() {
                        return Ok(());
                    }
                    // Broken mid-write: the reader sees the same break and
                    // drives reconnection. Retrying the whole frame is
                    // safe — the peer discards the torn prefix with the
                    // dead connection, and a failed write_all means the
                    // frame never fully left this host.
                }
            }
            if start.elapsed() >= self.ctx.cfg.send_deadline {
                return Err(CommError::Timeout {
                    peer: dest,
                    attempts: attempts.max(1),
                    elapsed_ms: start.elapsed().as_secs_f64() * 1e3,
                });
            }
            thread::sleep(Duration::from_millis(10));
        }
    }

    fn recv(&mut self, src: usize, cap: Option<Duration>) -> Result<Message> {
        let cap = cap.map_or(self.ctx.cfg.recv_deadline, |c| {
            c.min(self.ctx.cfg.recv_deadline)
        });
        let rx = self.rx[src].as_ref().expect("recv source is a valid peer");
        if !self.ctx.cfg.rejoin {
            return match rx.recv_timeout(cap) {
                Ok(m) => Ok(m),
                Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected { peer: src }),
                Err(RecvTimeoutError::Timeout) => Err(CommError::Timeout {
                    peer: src,
                    attempts: 1,
                    elapsed_ms: cap.as_secs_f64() * 1e3,
                }),
            };
        }
        // Elastic mode: the reader parks on peer death instead of
        // dropping its channel, so deadness is reported through the
        // link's dead flag. Deliver anything already queued first (frames
        // that raced in before the break), then fail fast while parked.
        let shared = self.ctx.links[src].as_ref().expect("valid peer").clone();
        let deadline = Instant::now() + cap;
        loop {
            if let Ok(m) = rx.try_recv() {
                return Ok(m);
            }
            if shared.dead.load(SeqCst) {
                return Err(CommError::Disconnected { peer: src });
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(CommError::Timeout {
                    peer: src,
                    attempts: 1,
                    elapsed_ms: cap.as_secs_f64() * 1e3,
                });
            }
            match rx.recv_timeout((deadline - now).min(Duration::from_millis(20))) {
                Ok(m) => return Ok(m),
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(CommError::Disconnected { peer: src })
                }
                Err(RecvTimeoutError::Timeout) => continue,
            }
        }
    }

    fn try_recv(&mut self, src: usize) -> Option<Message> {
        self.rx[src]
            .as_ref()
            .expect("recv source is a valid peer")
            .try_recv()
            .ok()
    }

    fn wall_clock(&self) -> bool {
        true
    }

    fn set_epoch(&mut self, epoch: u64) {
        self.ctx.epoch.fetch_max(epoch, SeqCst);
    }

    fn shutdown(&mut self) {
        self.shutdown_impl();
    }
}

/// Owns one link end to end: acquires connections (dialing or waiting on
/// the acceptor, per the pair convention), installs the writable half,
/// and pumps inbound frames into the message queue.
fn reader_loop(ctx: &Arc<Ctx>, peer: usize, repl: &Receiver<TcpStream>, tx: &Sender<Message>) {
    let shared = ctx.links[peer].as_ref().expect("link exists").clone();
    let dials = peer < ctx.rank; // higher rank dials lower rank
    let mut first = true;
    // One frame-body buffer for the link's lifetime, across reconnects.
    let mut body = Vec::new();
    'outer: loop {
        if ctx.shutdown.load(SeqCst) {
            break;
        }
        let stream = if shared.dead.load(SeqCst) {
            // DEAD is terminal — unless elastic rejoin is on, in which
            // case the reader parks and waits for a restarted incarnation
            // of the peer to show up.
            if !ctx.cfg.rejoin {
                break;
            }
            let Some(s) = park(ctx, peer, dials, repl) else {
                break;
            };
            shared.dead.store(false, SeqCst);
            s
        } else {
            match acquire(ctx, &shared, peer, dials, repl, first) {
                Some(s) => s,
                None => {
                    shared.dead.store(true, SeqCst);
                    continue; // park (rejoin) or exit at the loop top
                }
            }
        };
        first = false;
        touch(ctx, &shared);
        *shared.writer.lock().expect("writer lock") = stream.try_clone().ok();
        if ctx.shutdown.load(SeqCst) {
            // Shutdown raced the install: close before blocking in a read
            // nobody will interrupt.
            let _ = stream.shutdown(Shutdown::Both);
            break;
        }
        let mut rdr = BufReader::new(stream);
        let mut left = false;
        loop {
            match frame::read_frame_into(&mut rdr, &mut body) {
                Ok(Frame::Data {
                    tag,
                    arrival_ms,
                    payload,
                }) => {
                    touch(ctx, &shared);
                    let msg = Message {
                        src: peer,
                        tag,
                        payload,
                        arrival_ms,
                    };
                    if tx.send(msg).is_err() {
                        break 'outer; // transport dropped
                    }
                }
                Ok(Frame::Leave { .. }) => {
                    left = true;
                    break;
                }
                Ok(_) => touch(ctx, &shared), // heartbeat / late hello
                Err(_) => break,              // EOF, reset, or local shutdown
            }
        }
        *shared.writer.lock().expect("writer lock") = None;
        if left {
            // Graceful departure: skip the reconnect schedule entirely —
            // the peer is gone on purpose, so the link dies (or parks)
            // the moment the LEAVE arrives.
            shared.dead.store(true, SeqCst);
        }
    }
    *shared.writer.lock().expect("writer lock") = None;
    shared.dead.store(true, SeqCst);
    // `tx` drops here: the communicator sees the link as a closed channel,
    // exactly like an exited rank in the simulated cluster.
}

/// The parked state of an elastic link: waits, bounded only by shutdown,
/// for a restarted incarnation of the peer. The accepting side waits for
/// the acceptor to route a fresh handshaken stream here; the dialing side
/// re-dials the (re-resolved) peer address about twice a second.
fn park(ctx: &Ctx, peer: usize, dials: bool, repl: &Receiver<TcpStream>) -> Option<TcpStream> {
    loop {
        if ctx.shutdown.load(SeqCst) {
            return None;
        }
        if dials {
            if let Some(s) = dial(ctx, peer) {
                return Some(s);
            }
            if sleep_interruptibly(ctx, None, Duration::from_millis(500)) {
                return None;
            }
        } else {
            match repl.recv_timeout(Duration::from_millis(200)) {
                Ok(s) => return Some(s),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// Obtains a connected, handshaken stream for the link, or `None` when the
/// budget is exhausted (→ DEAD).
fn acquire(
    ctx: &Ctx,
    shared: &LinkShared,
    peer: usize,
    dials: bool,
    repl: &Receiver<TcpStream>,
    first: bool,
) -> Option<TcpStream> {
    if dials {
        if first {
            // Initial connect: peers may launch at different times, so
            // dial patiently for the whole handshake window.
            let deadline = Instant::now() + ctx.cfg.handshake_window;
            loop {
                if ctx.shutdown.load(SeqCst) || shared.dead.load(SeqCst) {
                    return None;
                }
                if let Some(s) = dial(ctx, peer) {
                    return Some(s);
                }
                if Instant::now() >= deadline
                    || sleep_interruptibly(ctx, Some(shared), Duration::from_millis(100))
                {
                    return None;
                }
            }
        } else {
            // Reconnect: bounded attempts, exponential backoff.
            for attempt in 0..=ctx.cfg.max_reconnect_attempts {
                if ctx.shutdown.load(SeqCst) || shared.dead.load(SeqCst) {
                    return None;
                }
                if let Some(s) = dial(ctx, peer) {
                    return Some(s);
                }
                if attempt < ctx.cfg.max_reconnect_attempts {
                    let backoff = ctx.cfg.backoff_base * 2u32.pow(attempt.min(16));
                    if sleep_interruptibly(ctx, Some(shared), backoff) {
                        return None;
                    }
                }
            }
            None
        }
    } else {
        let window = if first {
            ctx.cfg.handshake_window
        } else {
            accept_reconnect_window(&ctx.cfg)
        };
        let deadline = Instant::now() + window;
        loop {
            if ctx.shutdown.load(SeqCst) || shared.dead.load(SeqCst) || Instant::now() >= deadline {
                return None;
            }
            match repl.recv_timeout(Duration::from_millis(50)) {
                Ok(s) => return Some(s),
                Err(RecvTimeoutError::Timeout) => continue,
                Err(RecvTimeoutError::Disconnected) => return None,
            }
        }
    }
}

/// How long the accepting side of a link waits for the dialer's bounded
/// reconnect schedule to land a replacement connection.
fn accept_reconnect_window(cfg: &TcpConfig) -> Duration {
    let mut w = cfg.connect_timeout * (cfg.max_reconnect_attempts + 1);
    for a in 0..cfg.max_reconnect_attempts {
        w += cfg.backoff_base * 2u32.pow(a.min(16));
    }
    w + Duration::from_millis(500)
}

/// One dial + handshake attempt.
fn dial(ctx: &Ctx, peer: usize) -> Option<TcpStream> {
    let s = TcpStream::connect_timeout(&peer_addr(ctx, peer), ctx.cfg.connect_timeout).ok()?;
    s.set_nodelay(true).ok()?;
    s.set_write_timeout(Some(ctx.cfg.send_deadline)).ok()?;
    // A short read timeout is safe here: the handshake owns the stream
    // exclusively, so a timeout cannot tear an unrelated frame.
    s.set_read_timeout(Some(
        ctx.cfg.connect_timeout.max(Duration::from_millis(500)),
    ))
    .ok()?;
    // Elastic dials carry the epoch sentinel: a restarted rank cannot
    // know the membership's current epoch yet (it learns it from the
    // JOIN welcome), so acceptors in rejoin mode admit the sentinel.
    let epoch = if ctx.cfg.rejoin {
        u64::MAX
    } else {
        ctx.epoch.load(SeqCst)
    };
    let hello = Frame::Hello {
        rank: ctx.rank as u32,
        size: ctx.size as u32,
        epoch,
    };
    frame::write_frame(&mut &s, &hello).ok()?;
    match frame::read_frame(&mut &s).ok()? {
        Frame::Hello { rank, size, .. } if rank as usize == peer && size as usize == ctx.size => {}
        _ => return None,
    }
    s.set_read_timeout(None).ok()?;
    Some(s)
}

/// Accepts inbound connections, validates their handshake, and routes each
/// stream to the owning link's reader.
fn acceptor_loop(ctx: &Arc<Ctx>, listener: &TcpListener, repl: &[Option<Sender<TcpStream>>]) {
    while !ctx.shutdown.load(SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if let Some((peer, stream)) = handshake_accept(ctx, stream) {
                    if let Some(tx) = repl.get(peer).and_then(|t| t.as_ref()) {
                        let _ = tx.send(stream);
                    }
                }
            }
            Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => thread::sleep(Duration::from_millis(20)),
        }
    }
}

/// Validates a dialer's HELLO: right direction, right cluster size, and an
/// epoch no older than ours (stale survivors of a revoked membership are
/// turned away — their dial fails and their link to us dies).
fn handshake_accept(ctx: &Ctx, stream: TcpStream) -> Option<(usize, TcpStream)> {
    stream.set_nonblocking(false).ok()?;
    stream.set_nodelay(true).ok()?;
    stream.set_write_timeout(Some(ctx.cfg.send_deadline)).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_millis(2_000)))
        .ok()?;
    let Frame::Hello { rank, size, epoch } = frame::read_frame(&mut &stream).ok()? else {
        return None;
    };
    let peer = rank as usize;
    if size as usize != ctx.size || peer >= ctx.size || peer <= ctx.rank {
        return None;
    }
    let stale = if epoch == u64::MAX {
        !ctx.cfg.rejoin // sentinel only honoured in elastic mode
    } else {
        epoch < ctx.epoch.load(SeqCst)
    };
    if stale {
        return None;
    }
    frame::write_frame(
        &mut &stream,
        &Frame::Hello {
            rank: ctx.rank as u32,
            size: ctx.size as u32,
            epoch: ctx.epoch.load(SeqCst),
        },
    )
    .ok()?;
    stream.set_read_timeout(None).ok()?;
    Some((peer, stream))
}

/// Writes a [`Frame::Leave`] on every currently-connected link.
fn announce_leave_ctx(ctx: &Ctx) {
    let epoch = ctx.epoch.load(SeqCst);
    for shared in ctx.links.iter().flatten() {
        if shared.dead.load(SeqCst) {
            continue;
        }
        if let Ok(guard) = shared.writer.lock() {
            if let Some(s) = guard.as_ref() {
                let _ = frame::write_frame(&mut &*s, &Frame::Leave { epoch });
            }
        }
    }
}

/// Signal number requesting a graceful departure (0 = none requested).
static LEAVE_SIGNAL: AtomicU64 = AtomicU64::new(0);

extern "C" fn request_leave(sig: i32) {
    LEAVE_SIGNAL.store(sig as u64, SeqCst);
}

/// Installs SIGINT/SIGTERM handlers for graceful cluster departure: the
/// handler only flags an atomic (async-signal-safe); every live
/// [`TcpTransport`]'s heartbeat thread then broadcasts [`Frame::Leave`]
/// on its links and the process exits with the conventional
/// `128 + signal` status. Peers kill the links the moment the LEAVE
/// arrives instead of waiting out heartbeat deadlines.
pub fn install_leave_signals() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    unsafe {
        let handler = request_leave as extern "C" fn(i32) as *const () as usize;
        let _ = signal(2, handler); // SIGINT
        let _ = signal(15, handler); // SIGTERM
    }
}

/// Beacons every connected link and declares silent peers dead.
fn heartbeat_loop(ctx: &Arc<Ctx>) {
    loop {
        if sleep_interruptibly(ctx, None, ctx.cfg.heartbeat_interval) {
            return;
        }
        let sig = LEAVE_SIGNAL.load(SeqCst);
        if sig != 0 {
            // A termination signal arrived: say goodbye on every link,
            // then exit with the conventional signal status.
            announce_leave_ctx(ctx);
            std::process::exit(128 + sig as i32);
        }
        let epoch = ctx.epoch.load(SeqCst);
        let death_ms = ctx.cfg.death_timeout.as_millis() as u64;
        for shared in ctx.links.iter().flatten() {
            if shared.dead.load(SeqCst) {
                continue;
            }
            let guard = shared.writer.lock().expect("writer lock");
            if let Some(s) = guard.as_ref() {
                let _ = frame::write_frame(&mut &*s, &Frame::Heartbeat { epoch });
                // Staleness is only judged while connected; the acquire
                // windows bound the connecting/reconnecting phases.
                if now_ms(ctx).saturating_sub(shared.last_seen_ms.load(SeqCst)) > death_ms {
                    shared.dead.store(true, SeqCst);
                    let _ = s.shutdown(Shutdown::Both);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Payload;

    fn local_pair(cfg: TcpConfig) -> (TcpTransport, TcpTransport) {
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let t0 = TcpTransport::establish(l0, 0, peers.clone(), cfg).unwrap();
        let t1 = TcpTransport::establish(l1, 1, peers, cfg).unwrap();
        (t0, t1)
    }

    #[test]
    fn pair_exchanges_messages() {
        let (mut t0, mut t1) = local_pair(TcpConfig::fast_local());
        t0.send(
            1,
            Message {
                src: 0,
                tag: 7,
                payload: Payload::dense(vec![1.0, 2.0, 3.0]),
                arrival_ms: 0.5,
            },
        )
        .unwrap();
        let m = t1.recv(0, Some(Duration::from_secs(10))).unwrap();
        assert_eq!(m.src, 0);
        assert_eq!(m.tag, 7);
        assert_eq!(m.arrival_ms, 0.5);
        assert_eq!(m.payload.as_dense(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn invalid_rank_rejected() {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().unwrap();
        assert!(matches!(
            TcpTransport::establish(l, 5, vec![addr], TcpConfig::fast_local()),
            Err(CommError::InvalidRank { rank: 5, size: 1 })
        ));
    }

    #[test]
    fn single_rank_transport_is_trivial() {
        let l = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = l.local_addr().unwrap();
        let t = TcpTransport::establish(l, 0, vec![addr], TcpConfig::fast_local()).unwrap();
        assert_eq!(t.rank(), 0);
        assert_eq!(t.size(), 1);
    }

    fn msg(tag: u32) -> Message {
        Message {
            src: 0,
            tag,
            payload: Payload::Control,
            arrival_ms: 0.0,
        }
    }

    /// Drains `t`'s queue from `src` until the link reports an error.
    fn drain_to_err(t: &mut TcpTransport, src: usize) -> CommError {
        loop {
            match t.recv(src, Some(Duration::from_secs(30))) {
                Err(e) => break e,
                Ok(_) => continue,
            }
        }
    }

    #[test]
    fn elastic_link_revives_after_peer_restart() {
        let cfg = TcpConfig::elastic_local();
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let mut t0 = TcpTransport::establish(l0, 0, peers.clone(), cfg).unwrap();
        let mut t1 = TcpTransport::establish(l1, 1, peers.clone(), cfg).unwrap();
        t1.send(0, msg(7)).unwrap();
        assert_eq!(t0.recv(1, Some(Duration::from_secs(10))).unwrap().tag, 7);
        // A deliberate shutdown broadcasts LEAVE: rank 0 sees the peer
        // die (Disconnected, as ever) and parks the link.
        drop(t1);
        assert!(matches!(
            drain_to_err(&mut t0, 1),
            CommError::Disconnected { peer: 1 }
        ));
        // The restarted incarnation binds a *fresh* port; its dial to
        // rank 0 carries the epoch sentinel and revives the parked link.
        let l1b = TcpListener::bind("127.0.0.1:0").expect("bind");
        let mut peers_b = peers.clone();
        peers_b[1] = l1b.local_addr().unwrap();
        let mut t1b = TcpTransport::establish(l1b, 1, peers_b, cfg).unwrap();
        t1b.send(0, msg(9)).unwrap();
        // Rank 0 acks the dial before its parked reader takes the stream
        // and clears the dead flag, and `recv` fails fast while that flag
        // is set: wait for the revival within a bound, as the resolver
        // test below does.
        let deadline = Instant::now() + Duration::from_secs(20);
        let revived = loop {
            match t0.recv(1, Some(Duration::from_secs(20))) {
                Err(CommError::Disconnected { peer: 1 }) if Instant::now() < deadline => {
                    thread::sleep(Duration::from_millis(50));
                }
                got => break got,
            }
        };
        assert_eq!(revived.unwrap().tag, 9);
        t0.send(1, msg(11)).unwrap();
        assert_eq!(t1b.recv(0, Some(Duration::from_secs(10))).unwrap().tag, 11);
    }

    #[test]
    fn parked_dialer_follows_the_resolver_to_a_new_port() {
        let cfg = TcpConfig::elastic_local();
        let l0 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let l1 = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peers = vec![l0.local_addr().unwrap(), l1.local_addr().unwrap()];
        let current0 = Arc::new(Mutex::new(peers[0]));
        let published = current0.clone();
        let resolver: super::AddrResolver =
            Arc::new(move |r| (r == 0).then(|| *published.lock().unwrap()));
        let mut t0 = TcpTransport::establish(l0, 0, peers.clone(), cfg).unwrap();
        let mut t1 =
            TcpTransport::establish_with_resolver(l1, 1, peers.clone(), cfg, Some(resolver))
                .unwrap();
        t1.send(0, msg(1)).unwrap();
        t0.recv(1, Some(Duration::from_secs(10))).unwrap();
        drop(t0);
        assert!(matches!(
            drain_to_err(&mut t1, 0),
            CommError::Disconnected { peer: 0 }
        ));
        // Rank 0 restarts on a fresh port and republishes it; rank 1's
        // parked dialer must pick the new address up from the resolver.
        let l0b = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr0b = l0b.local_addr().unwrap();
        *current0.lock().unwrap() = addr0b;
        let mut peers_b = peers.clone();
        peers_b[0] = addr0b;
        let mut t0b = TcpTransport::establish(l0b, 0, peers_b, cfg).unwrap();
        let deadline = Instant::now() + Duration::from_secs(15);
        loop {
            match t1.send(0, msg(5)) {
                Ok(()) => break,
                Err(_) => {
                    assert!(Instant::now() < deadline, "link never revived");
                    thread::sleep(Duration::from_millis(50));
                }
            }
        }
        assert_eq!(t0b.recv(1, Some(Duration::from_secs(20))).unwrap().tag, 5);
    }

    #[test]
    fn dropped_peer_becomes_disconnected() {
        let (mut t0, mut t1) = local_pair(TcpConfig::fast_local());
        // Prove the connection is up before killing the peer (connections
        // are established lazily): one delivered frame means the stream
        // exists on both ends, so the death below exercises the bounded
        // reconnect path rather than the patient initial-connect window.
        t0.send(
            1,
            Message {
                src: 0,
                tag: 0,
                payload: Payload::Control,
                arrival_ms: 0.0,
            },
        )
        .unwrap();
        t1.recv(0, Some(Duration::from_secs(10))).unwrap();
        drop(t0); // closes its sockets; rank 1 must observe link death
        let err = loop {
            match t1.recv(0, Some(Duration::from_secs(30))) {
                Err(e) => break e,
                Ok(_) => continue, // drain any frame raced in before close
            }
        };
        assert!(matches!(err, CommError::Disconnected { peer: 0 }));
    }
}
