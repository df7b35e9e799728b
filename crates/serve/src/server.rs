//! The TCP daemon: a readiness event loop that owns the sequencing
//! window, and a single ingest pump that owns the engine.
//!
//! **Threads.** Exactly two, regardless of how many clients connect,
//! and each piece of state has one owner. The *event loop* (the caller
//! of [`Server::run`]) owns every socket behind the crate's zero-dep
//! poller, the reorder ring, the control FIFO and the per-session
//! pending queues. The *pump* owns the [`RepartitionEngine`]. No lock:
//! work goes to the pump over one channel, replies and epoch events
//! come back over another, and a loopback datagram wakes the poller
//! after each chunk and reply. Besides the metrics registry, the one
//! shared word is the pump's consumed frontier.
//!
//! **Sequencing window.** The engine's determinism contract is that
//! the global access stream has one canonical order. A single
//! connection gets that for free (arrival order, the BATCH verb).
//! Concurrent connections instead send BATCH_SEQ frames whose records
//! carry explicit global stream positions; the event loop parks those
//! that arrive ahead of a gap in a reorder ring (position `p` in slot
//! `p % window_cap`) and, after each frame, releases the newly
//! contiguous prefix to the pump as one chunk, so the engine sees
//! exactly the stream `0, 1, 2, …`.
//! A position is admitted only below the consumed frontier plus
//! `window_cap`, so the daemon never holds more records than the
//! window. Records beyond it park in a per-session pending queue and
//! the session's read interest is dropped — TCP backpressure, counted
//! in `cps_serve_window_pauses_total`. Paused sessions are exempt from
//! the idle timeout (the server itself made them quiet).
//!
//! **Control barrier.** Control verbs (STATS, COST_CURVES, APPLY, …)
//! queue stamped with the session's *watermark* — the first stream
//! position the session has not yet sent — and the front request is
//! released once the contiguous frontier reaches it, behind the records
//! it must observe: channel order is the barrier.
//!
//! **Failure.** If the pump dies (a stage panicked), its channel
//! disconnects: every attached session and observer gets
//! `SHUTTING_DOWN "ingest pump failed: …"` and [`Server::run`] returns
//! the error instead of hanging.
//!
//! **Resume.** HELLO_ACK discloses a session token. When a sequenced
//! session's TCP connection drops mid-stream, its state (watermark,
//! pending records) detaches and survives for `resume_grace`; a fresh
//! connection may RESUME with the token and is told the watermark to
//! resend from. Report identity survives the disconnect because the
//! ring admits each position exactly once and per-session positions
//! are validated monotone — a resent duplicate is refused, a lost
//! record is re-sent.
//!
//! **Idle vs stall.** A session with no bytes in flight past the idle
//! timeout is closed as idle (`IDLE_TIMEOUT`, counted in
//! `cps_serve_idle_closes_total`). A session that went quiet *mid
//! frame* is a stalled sender, a different failure: it is closed with
//! `STALLED` and counted in `cps_serve_stall_closes_total`.

use crate::poll::{Event, Interest, Poller};
use crate::report::render_journal;
use crate::wire::{
    decode, encode, error_code, Message, ServeStats, WireConfig, WireCurve, WireError, HEADER_LEN,
    MAX_PAYLOAD,
};
use cps_engine::{EngineReport, Policy, RepartitionEngine};
use cps_obs::{Counter, Gauge, Histogram, MetricsRegistry, RunHeader};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `cps serve` decides before binding the socket.
pub struct ServeConfig {
    /// The engine the server hosts.
    pub engine: cps_engine::EngineConfig,
    /// Number of tenants.
    pub tenants: usize,
    /// Session-table capacity; further connections are refused with
    /// `SERVER_FULL`.
    pub max_conns: usize,
    /// Idle-session teardown threshold.
    pub idle_timeout: Duration,
    /// Sequencing-window capacity in records: how far ahead of the
    /// contiguous ingest frontier a BATCH_SEQ position may run before
    /// its connection is paused.
    pub window_cap: usize,
    /// How long a dropped sequenced session's state survives awaiting
    /// RESUME before it is discarded.
    pub resume_grace: Duration,
    /// Where the HTTP `/metrics` scrape endpoint listens (e.g.
    /// `127.0.0.1:0` for an ephemeral port), or `None` for no HTTP
    /// telemetry listener.
    pub telemetry_addr: Option<String>,
}

impl ServeConfig {
    /// The run header a journal of this server's run carries — the
    /// same fields `cps replay-online` would write for the equivalent
    /// in-process run.
    pub fn run_header(&self) -> RunHeader {
        RunHeader {
            engine: "single".to_string(),
            tenants: self.tenants,
            units: self.engine.cache.units,
            bpu: self.engine.cache.blocks_per_unit,
            epoch_length: self.engine.epoch_length,
            shards: 1,
            policy: match self.engine.policy {
                Policy::Optimal => "none",
                Policy::EqualBaseline => "equal",
                Policy::NaturalBaseline => "natural",
            }
            .to_string(),
            objective: self.engine.objective.name(),
        }
    }

    /// The configuration HELLO_ACK discloses — enough for a client to
    /// rebuild the identical engine in process.
    pub fn wire_config(&self) -> WireConfig {
        WireConfig {
            // The wire keeps the engine-kind, shard and queue fields of
            // older protocol revisions; this server always hosts the
            // single engine (kind 0, one shard, no queue).
            engine: 0,
            tenants: self.tenants as u64,
            units: self.engine.cache.units as u64,
            bpu: self.engine.cache.blocks_per_unit as u64,
            epoch_length: self.engine.epoch_length as u64,
            shards: 1,
            queue_cap: 0,
            decay_bits: self.engine.decay.to_bits(),
            hysteresis: self.engine.min_repartition_units as u64,
            policy: match self.engine.policy {
                Policy::Optimal => 0,
                Policy::EqualBaseline => 1,
                Policy::NaturalBaseline => 2,
            },
            objective: self.engine.objective.name(),
        }
    }
}

/// What a finished server hands back to its caller.
pub struct ServeOutcome {
    /// The engine's run report.
    pub report: EngineReport,
    /// The journal text (header, epochs, summary) — identical to what
    /// the SHUTDOWN reply carried over the wire.
    pub journal: String,
    /// Sessions admitted over the server's lifetime.
    pub connections: u64,
    /// Access records ingested.
    pub records: u64,
}

/// The server's registered instruments (`cps_serve_*` namespace).
struct ServeMetrics {
    connections: Counter,
    active_sessions: Gauge,
    detached_sessions: Gauge,
    frames: Counter,
    batches: Counter,
    records: Counter,
    decode_errors: Counter,
    rejects: Counter,
    idle_closes: Counter,
    stall_closes: Counter,
    resumes: Counter,
    window_pauses: Counter,
    dropped_records: Counter,
    wakeups: Counter,
    frame_nanos: Histogram,
    batch_drain_nanos: Histogram,
}

impl ServeMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        ServeMetrics {
            connections: registry
                .counter("cps_serve_connections_total", "Client connections accepted"),
            active_sessions: registry.gauge("cps_serve_active_sessions", "Sessions currently open"),
            detached_sessions: registry.gauge(
                "cps_serve_detached_sessions",
                "Dropped sessions awaiting RESUME within the grace window",
            ),
            frames: registry.counter("cps_serve_frames_total", "Frames read from clients"),
            batches: registry.counter("cps_serve_batches_total", "BATCH/BATCH_SEQ frames accepted"),
            records: registry.counter("cps_serve_records_total", "Access records ingested"),
            decode_errors: registry.counter(
                "cps_serve_decode_errors_total",
                "Frames that failed to decode",
            ),
            rejects: registry.counter(
                "cps_serve_rejects_total",
                "Sessions refused at admission (full table, bad tenant, shutdown)",
            ),
            idle_closes: registry.counter(
                "cps_serve_idle_closes_total",
                "Sessions torn down by the idle timeout (quiet between frames)",
            ),
            stall_closes: registry.counter(
                "cps_serve_stall_closes_total",
                "Sessions torn down mid-frame (sender stalled, not idle)",
            ),
            resumes: registry.counter(
                "cps_serve_resumes_total",
                "Dropped sessions rejoined via RESUME",
            ),
            window_pauses: registry.counter(
                "cps_serve_window_pauses_total",
                "Times a session's reads were paused by the sequencing window",
            ),
            dropped_records: registry.counter(
                "cps_serve_dropped_records_total",
                "Records received but never ingested (session discarded or shutdown)",
            ),
            wakeups: registry.counter(
                "cps_serve_wakeups_total",
                "Pump-to-event-loop wake datagrams received",
            ),
            frame_nanos: registry.histogram(
                "cps_serve_frame_nanos",
                "Per-frame decode-and-handle latency on the event loop",
            ),
            batch_drain_nanos: registry.histogram(
                "cps_serve_batch_drain_nanos",
                "Per-chunk engine-feed latency on the ingest pump",
            ),
        }
    }
}

/// A control verb queued from the event loop to the pump.
enum CtrlOp {
    /// Session counts are the event loop's; it stamps them at queue
    /// time.
    Stats {
        connections: u64,
        active_sessions: u64,
    },
    Allocation,
    Epoch,
    Snapshot,
    CostCurves {
        trace: u64,
    },
    Apply {
        target: Vec<usize>,
        predicted: Option<f64>,
        trace: u64,
    },
    Shutdown,
}

/// One queued control request, released to the pump once the
/// contiguous frontier reaches `watermark`.
struct CtrlReq {
    session: u64,
    watermark: u64,
    op: CtrlOp,
}

/// Work the event loop hands the pump, in canonical order.
enum Work {
    /// The next contiguous run of the stream.
    Records(Vec<(usize, u64)>),
    /// A control verb; every record it must observe precedes it.
    Ctrl(CtrlReq),
}

/// What the pump hands back to the event loop.
enum Back {
    /// A finished control request.
    Reply {
        session: u64,
        result: Result<Message, (u64, String)>,
    },
    /// A booked epoch rendered as its journal JSONL line, for
    /// SUBSCRIBE observers.
    Epoch(String),
}

/// The sequencing window, owned by the event loop.
struct Window {
    /// Capacity in records.
    cap: u64,
    /// The reorder ring for records that arrive ahead of a gap:
    /// position `p` waits in slot `p % cap` until the gap fills.
    /// Allocated on first use, so an in-order run never touches it.
    ring: Vec<Option<(usize, u64)>>,
    /// Contiguous records not yet handed to the pump.
    ready: Vec<(usize, u64)>,
    /// The contiguous frontier: every position `< next` is in `ready`
    /// or already with the pump.
    next: u64,
    /// Next position handed to an *unsequenced* BATCH record (arrival
    /// order is the canonical order in that mode).
    assigned: u64,
    /// The pump's consumed frontier: every position below it has been
    /// fed to the engine.
    consumed: Arc<AtomicU64>,
}

impl Window {
    /// The admission bound: positions from here on wait. Callers read
    /// it once per frame, so one frame's admissions share one bound.
    fn limit(&self) -> u64 {
        // Relaxed: the frontier only bounds memory, it publishes no data.
        self.consumed.load(Ordering::Relaxed) + self.cap
    }

    /// Places one positioned record below `limit`, if it is new.
    fn admit(&mut self, pos: u64, (tenant, block): (usize, u64), limit: u64) -> Admit {
        if pos < self.next {
            return Admit::Duplicate;
        }
        if pos >= limit {
            return Admit::Beyond;
        }
        if pos > self.next {
            if self.ring.is_empty() {
                self.ring = vec![None; self.cap as usize];
            }
            let slot = &mut self.ring[(pos % self.cap) as usize];
            if slot.is_some() {
                return Admit::Duplicate;
            }
            *slot = Some((tenant, block));
            return Admit::Placed;
        }
        self.ready.push((tenant, block));
        self.next += 1;
        // The arrival may close a gap: pull in the run parked behind it.
        while let Some(rec) = self
            .ring
            .get_mut((self.next % self.cap) as usize)
            .and_then(Option::take)
        {
            self.ready.push(rec);
            self.next += 1;
        }
        Admit::Placed
    }
}

#[derive(PartialEq)]
enum Admit {
    Placed,
    Beyond,
    Duplicate,
}

/// Which ingest dialect the run latched into at its first batch.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// BATCH_SEQ: clients sequence records with explicit positions.
    Sequenced,
    /// BATCH: arrival order is canonical (single-connection use).
    Unsequenced,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    telemetry: Option<TcpListener>,
    engine: RepartitionEngine,
    config: ServeConfig,
    metrics: ServeMetrics,
    registry: Arc<MetricsRegistry>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// builds the engine. Server counters and engine instruments all
    /// register in `registry`.
    pub fn bind(
        addr: &str,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
    ) -> Result<Server, String> {
        let engine =
            RepartitionEngine::with_metrics(config.engine.clone(), config.tenants, &registry);
        Server::with_engine(addr, config, registry, engine)
    }

    /// Like [`bind`](Self::bind), hosting an engine built by the caller.
    fn with_engine(
        addr: &str,
        config: ServeConfig,
        registry: Arc<MetricsRegistry>,
        engine: RepartitionEngine,
    ) -> Result<Server, String> {
        let listener = TcpListener::bind(addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let telemetry = match &config.telemetry_addr {
            Some(t) => Some(TcpListener::bind(t).map_err(|e| format!("telemetry bind {t}: {e}"))?),
            None => None,
        };
        Ok(Server {
            listener,
            telemetry,
            engine,
            config,
            metrics: ServeMetrics::register(&registry),
            registry,
        })
    }

    /// The address the listener actually bound (resolves `--port auto`).
    pub fn local_addr(&self) -> Result<SocketAddr, String> {
        self.listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))
    }

    /// The address the HTTP `/metrics` listener bound, if one was
    /// configured (resolves `--telemetry-port auto`).
    pub fn telemetry_addr(&self) -> Option<SocketAddr> {
        self.telemetry.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Serves until a client issues SHUTDOWN, then returns the
    /// finished run. The pump thread is joined before returning, so
    /// the outcome is complete and final. A pump that dies before
    /// SHUTDOWN (a panicking stage) fails the run with its message.
    pub fn run(self) -> Result<ServeOutcome, String> {
        let Server {
            listener,
            telemetry,
            engine,
            config,
            metrics,
            registry,
        } = self;
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("listener nonblocking: {e}"))?;
        if let Some(tl) = &telemetry {
            tl.set_nonblocking(true)
                .map_err(|e| format!("telemetry nonblocking: {e}"))?;
        }

        // The pump→event-loop wake channel: a loopback datagram socket
        // the poller can watch. Losing a datagram is harmless — the
        // loop also ticks on a short timeout.
        let wake_rx = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("wake bind: {e}"))?;
        wake_rx
            .set_nonblocking(true)
            .map_err(|e| format!("wake nonblocking: {e}"))?;
        let wake_addr = wake_rx
            .local_addr()
            .map_err(|e| format!("wake addr: {e}"))?;
        let wake_tx = UdpSocket::bind("127.0.0.1:0").map_err(|e| format!("wake bind: {e}"))?;
        wake_tx
            .connect(wake_addr)
            .map_err(|e| format!("wake connect: {e}"))?;

        let (to_pump, work) = mpsc::channel();
        let (back, from_pump) = mpsc::channel();
        let consumed = Arc::new(AtomicU64::new(0));
        let pump = Pump {
            engine,
            header: config.run_header(),
            registry: Arc::clone(&registry),
            records: metrics.records.clone(),
            batch_drain_nanos: metrics.batch_drain_nanos.clone(),
            consumed: Arc::clone(&consumed),
            back,
            wake: wake_tx,
        };
        let pump = std::thread::Builder::new()
            .name("cps-serve-pump".into())
            .spawn(move || pump.run(work))
            .map_err(|e| format!("spawn pump: {e}"))?;

        let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
        poller
            .register(&listener, TOKEN_LISTENER, Interest::READ)
            .map_err(|e| format!("register listener: {e}"))?;
        poller
            .register(&wake_rx, TOKEN_WAKE, Interest::READ)
            .map_err(|e| format!("register wake: {e}"))?;
        if let Some(tl) = &telemetry {
            poller
                .register(tl, TOKEN_TELEMETRY, Interest::READ)
                .map_err(|e| format!("register telemetry: {e}"))?;
        }

        EventLoop {
            header: config.run_header(),
            wire_config: config.wire_config(),
            metrics,
            registry,
            poller,
            listener,
            telemetry,
            wake_rx,
            conns: HashMap::new(),
            sessions: HashMap::new(),
            tokens: HashMap::new(),
            observers: HashMap::new(),
            next_conn_token: TOKEN_FIRST_CONN,
            next_session_id: 1,
            nonce: token_nonce(),
            mode: None,
            window: Window {
                cap: config.window_cap.max(1) as u64,
                ring: Vec::new(),
                ready: Vec::new(),
                next: 0,
                assigned: 0,
                consumed,
            },
            ctrl: VecDeque::new(),
            to_pump,
            from_pump,
            pump: Some(pump),
            stopping: false,
            flush_deadline: None,
            config,
        }
        .run()
    }
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKE: u64 = 1;
const TOKEN_TELEMETRY: u64 = 2;
const TOKEN_FIRST_CONN: u64 = 3;

/// The event loop's poll tick: bounds wake-datagram loss, idle sweep
/// latency, shutdown-flush latency, and how long a dead pump goes
/// unnoticed.
const TICK: Duration = Duration::from_millis(25);

/// What dialect a connection speaks.
#[derive(Clone, Copy, PartialEq)]
enum ConnKind {
    /// The wire protocol: HELLO/RESUME then batches and control verbs.
    Wire,
    /// A read-only SUBSCRIBE observer: the server pushes, the peer
    /// only reads. Exempt from the idle sweep (quiet by design).
    Observer,
    /// An HTTP scrape on the telemetry listener: one request, one
    /// response, close.
    Http,
}

/// One live TCP connection.
struct Conn {
    stream: TcpStream,
    kind: ConnKind,
    rbuf: Vec<u8>,
    rstart: usize,
    wbuf: Vec<u8>,
    wstart: usize,
    /// The session this connection speaks for, once HELLO/RESUME done.
    session: Option<u64>,
    /// Read interest dropped: the session ran past the window.
    paused: bool,
    close_after_flush: bool,
    last_activity: Instant,
}

impl Conn {
    fn mid_frame(&self) -> bool {
        self.rbuf.len() > self.rstart
    }
}

/// One admitted session — survives its connection if sequenced.
struct SessionState {
    /// Resume token disclosed in HELLO_ACK.
    token: u64,
    binding: Option<u64>,
    /// Records this session has delivered (parsed, not necessarily
    /// ingested yet).
    records: u64,
    /// First global stream position this session has *not* delivered:
    /// sequenced sessions advance it per record, unsequenced sessions
    /// take the global assignment frontier. Control verbs barrier on
    /// it; RESUME_ACK discloses it as the resend point.
    watermark: u64,
    /// Records past the window, waiting for ingest to advance.
    pending: VecDeque<(u64, usize, u64)>,
    /// The poll token of the attached connection, if any.
    conn: Option<u64>,
    /// When the session lost its connection (detached sessions only).
    detached_at: Option<Instant>,
    /// Control verbs queued at the pump, awaiting completion.
    inflight: u32,
}

/// Per-observer fan-out state.
struct ObserverState {
    /// Requested metrics-delta period; `None` = epoch events only.
    interval: Option<Duration>,
    /// When the next metrics delta is due.
    next_at: Instant,
    /// The metrics JSONL lines sent last time — a delta frame carries
    /// only lines that changed since.
    prev: HashSet<String>,
}

struct EventLoop {
    header: RunHeader,
    wire_config: WireConfig,
    metrics: ServeMetrics,
    registry: Arc<MetricsRegistry>,
    poller: Poller,
    listener: TcpListener,
    telemetry: Option<TcpListener>,
    wake_rx: UdpSocket,
    conns: HashMap<u64, Conn>,
    sessions: HashMap<u64, SessionState>,
    /// Resume token → session id.
    tokens: HashMap<u64, u64>,
    /// Conn token → SUBSCRIBE observer state.
    observers: HashMap<u64, ObserverState>,
    next_conn_token: u64,
    next_session_id: u64,
    nonce: u64,
    mode: Option<Mode>,
    window: Window,
    /// FIFO control queue; only the front is eligible, once the
    /// contiguous frontier reaches its watermark.
    ctrl: VecDeque<CtrlReq>,
    to_pump: Sender<Work>,
    from_pump: Receiver<Back>,
    /// The pump thread; taken when it is joined early (pump failure).
    pump: Option<JoinHandle<Option<ServeOutcome>>>,
    /// SHUTDOWN has been released to the pump (or the pump died):
    /// nothing more is admitted or released.
    stopping: bool,
    /// Once SHUTDOWN's reply is queued: drain until then, then exit.
    flush_deadline: Option<Instant>,
    /// The session-table, idle and resume-grace limits.
    config: ServeConfig,
}

impl EventLoop {
    /// Serves until SHUTDOWN's reply has drained, then joins the pump
    /// and returns its outcome.
    fn run(mut self) -> Result<ServeOutcome, String> {
        let served = self.serve();
        // On an error path the pump may still be waiting for work: hang
        // up so it exits, then join it.
        drop(self.to_pump);
        let joined = self.pump.map(JoinHandle::join);
        served?;
        match joined {
            Some(Ok(Some(mut outcome))) => {
                // Session ids count HELLO admissions from 1.
                outcome.connections = self.next_session_id - 1;
                Ok(outcome)
            }
            _ => Err("server stopped without an outcome".into()),
        }
    }

    fn serve(&mut self) -> Result<(), String> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.poller
                .wait(&mut events, Some(TICK))
                .map_err(|e| format!("poll: {e}"))?;
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(ConnKind::Wire),
                    TOKEN_WAKE => self.drain_wakes(),
                    TOKEN_TELEMETRY => self.accept_ready(ConnKind::Http),
                    token => {
                        if ev.writable {
                            self.flush_conn(token);
                        }
                        if ev.readable {
                            self.conn_readable(token);
                        }
                    }
                }
            }
            self.flush_pending();
            self.drain_pump()?;
            self.metrics_ticks(Instant::now());
            self.sweep(Instant::now());
            if let Some(deadline) = self.flush_deadline {
                let flushed = self.conns.values().all(|c| c.wbuf.len() == c.wstart);
                if flushed || Instant::now() >= deadline {
                    // Count what never reached the engine.
                    let parked: usize = self.sessions.values().map(|s| s.pending.len()).sum();
                    let held = self.window.ring.iter().flatten().count() + self.window.ready.len();
                    if parked + held > 0 {
                        self.metrics.dropped_records.add((parked + held) as u64);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accepts connections on the wire listener (`ConnKind::Wire`) or
    /// the telemetry listener (`ConnKind::Http`).
    fn accept_ready(&mut self, kind: ConnKind) {
        loop {
            let listener = match kind {
                ConnKind::Http => match &self.telemetry {
                    Some(l) => l,
                    None => return,
                },
                _ => &self.listener,
            };
            match listener.accept() {
                Ok((stream, _peer)) => {
                    if kind == ConnKind::Wire {
                        self.metrics.connections.inc();
                    }
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_conn_token;
                    self.next_conn_token += 1;
                    if self
                        .poller
                        .register(&stream, token, Interest::READ)
                        .is_err()
                    {
                        continue;
                    }
                    self.conns.insert(
                        token,
                        Conn {
                            stream,
                            kind,
                            rbuf: Vec::new(),
                            rstart: 0,
                            wbuf: Vec::new(),
                            wstart: 0,
                            session: None,
                            paused: false,
                            close_after_flush: false,
                            last_activity: Instant::now(),
                        },
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                // Transient per-connection accept failures (e.g. the
                // peer reset before we got to it) are not fatal.
                Err(_) => return,
            }
        }
    }

    fn drain_wakes(&mut self) {
        let mut buf = [0u8; 8];
        let mut n = 0u64;
        while self.wake_rx.recv(&mut buf).is_ok() {
            n += 1;
        }
        if n > 0 {
            self.metrics.wakeups.add(n);
        }
    }

    fn conn_readable(&mut self, token: u64) {
        if self
            .conns
            .get(&token)
            .map(|c| c.kind == ConnKind::Http)
            .unwrap_or(false)
        {
            self.http_readable(token);
            return;
        }
        let mut chunk = [0u8; 64 * 1024];
        // A backpressure pause stops parsing mid-buffer; pick up any
        // complete frames left behind before touching the socket.
        if !self.process_frames(token) {
            return;
        }
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            if conn.paused || conn.close_after_flush {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // The peer is done writing, but the read buffer may
                    // still hold complete frames; drain them before
                    // tearing the connection down. A pause mid-drain
                    // leaves the connection for the next unpause, which
                    // re-enters here and reads EOF again.
                    if !self.process_frames(token) {
                        return;
                    }
                    self.close_conn(token, true);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if !self.process_frames(token) {
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
    }

    /// Decodes and handles every complete frame buffered on `token`.
    /// Returns false if the connection went away (or paused) and the
    /// caller should stop reading it.
    fn process_frames(&mut self, token: u64) -> bool {
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return false,
            };
            let buf = &conn.rbuf[conn.rstart..];
            let frame_len = match complete_frame_len(buf) {
                Ok(None) => {
                    // Partial frame: compact the buffer and wait.
                    if conn.rstart > 0 {
                        conn.rbuf.drain(..conn.rstart);
                        conn.rstart = 0;
                    }
                    return true;
                }
                Ok(Some(len)) => len,
                Err(e) => {
                    self.metrics.decode_errors.inc();
                    self.refuse_close(token, error_code::PROTOCOL, &e.to_string());
                    return false;
                }
            };
            let msg = match decode(&conn.rbuf[conn.rstart..conn.rstart + frame_len]) {
                Ok((msg, _)) => msg,
                Err(e) => {
                    self.metrics.decode_errors.inc();
                    self.refuse_close(token, error_code::PROTOCOL, &e.to_string());
                    return false;
                }
            };
            conn.rstart += frame_len;
            if conn.rstart == conn.rbuf.len() {
                conn.rbuf.clear();
                conn.rstart = 0;
            }
            self.metrics.frames.inc();
            let started = Instant::now();
            let alive = self.handle_message(token, msg);
            self.metrics
                .frame_nanos
                .observe(started.elapsed().as_nanos() as u64);
            if !alive {
                return false;
            }
            if self
                .conns
                .get(&token)
                .map(|c| c.paused || c.close_after_flush)
                .unwrap_or(true)
            {
                return false;
            }
        }
    }

    /// Dispatches one decoded frame. Returns false if the connection
    /// was closed.
    fn handle_message(&mut self, token: u64, msg: Message) -> bool {
        if self
            .conns
            .get(&token)
            .map(|c| c.kind == ConnKind::Observer)
            .unwrap_or(false)
        {
            self.refuse_close(
                token,
                error_code::PROTOCOL,
                "observer sessions are read-only",
            );
            return false;
        }
        match msg {
            Message::Hello { binding } => self.on_hello(token, binding),
            Message::Resume { token: resume } => self.on_resume(token, resume),
            Message::Subscribe {
                metrics_interval_ms,
            } => self.on_subscribe(token, metrics_interval_ms),
            Message::Batch { records } => self.on_batch(token, records),
            Message::BatchSeq { records } => self.on_batch_seq(token, records),
            Message::Stats => {
                let op = CtrlOp::Stats {
                    connections: self.next_session_id - 1,
                    active_sessions: self.attached() as u64,
                };
                self.queue_ctrl(token, op)
            }
            Message::Allocation => self.queue_ctrl(token, CtrlOp::Allocation),
            Message::Epoch => self.queue_ctrl(token, CtrlOp::Epoch),
            Message::Snapshot => self.queue_ctrl(token, CtrlOp::Snapshot),
            Message::CostCurves { objective, trace } => {
                if objective != self.wire_config.objective {
                    let message = format!(
                        "objective mismatch: this node optimizes `{}`, request asked for `{objective}`",
                        self.wire_config.objective
                    );
                    self.refuse_close(token, error_code::OBJECTIVE, &message);
                    return false;
                }
                self.queue_ctrl(token, CtrlOp::CostCurves { trace })
            }
            Message::Apply {
                units,
                predicted_bits,
                trace,
            } => {
                let target: Vec<usize> = units.iter().map(|&u| u as usize).collect();
                self.queue_ctrl(
                    token,
                    CtrlOp::Apply {
                        target,
                        predicted: predicted_bits.map(f64::from_bits),
                        trace,
                    },
                )
            }
            Message::Shutdown => self.queue_ctrl(token, CtrlOp::Shutdown),
            // Any server-to-client message arriving here is a protocol
            // violation.
            Message::HelloAck { .. }
            | Message::StatsReply { .. }
            | Message::AllocationReply { .. }
            | Message::EpochReply { .. }
            | Message::SnapshotReply { .. }
            | Message::ShutdownReply { .. }
            | Message::CostCurvesReply { .. }
            | Message::ApplyReply { .. }
            | Message::ResumeAck { .. }
            | Message::SubscribeAck { .. }
            | Message::EpochEventFrame { .. }
            | Message::MetricsDelta { .. }
            | Message::Error { .. } => {
                self.refuse_close(token, error_code::PROTOCOL, "unexpected message kind");
                false
            }
        }
    }

    /// Admits a read-only observer: SUBSCRIBE_ACK carries the run's
    /// journal header line, then the server pushes each epoch record
    /// (and, if requested, periodic metrics deltas) until shutdown.
    fn on_subscribe(&mut self, token: u64, metrics_interval_ms: u64) -> bool {
        if !self.may_open(token) {
            return false;
        }
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.kind = ConnKind::Observer;
        }
        let header = self.header.to_json_line();
        if !self.queue_msg(token, &Message::SubscribeAck { header }) {
            return false;
        }
        let interval = if metrics_interval_ms > 0 {
            Some(Duration::from_millis(metrics_interval_ms))
        } else {
            None
        };
        let mut state = ObserverState {
            interval,
            next_at: Instant::now() + interval.unwrap_or_default(),
            prev: HashSet::new(),
        };
        if interval.is_some() {
            // The first frame is the full snapshot, immediately — a
            // one-shot consumer (`cps top --once`) need not wait a
            // whole interval.
            let snap = self.registry.snapshot().render_jsonl();
            let text = metrics_delta(&snap, &mut state.prev);
            if !self.queue_msg(token, &Message::MetricsDelta { text }) {
                return false;
            }
        }
        self.observers.insert(token, state);
        true
    }

    /// Fans an epoch-event line out to every observer.
    fn fan_out_event(&mut self, line: String) {
        let targets: Vec<u64> = self.observers.keys().copied().collect();
        for token in targets {
            self.queue_msg(token, &Message::EpochEventFrame { line: line.clone() });
        }
    }

    /// Sends due metrics-delta frames: only samples whose rendered
    /// line changed since the observer's previous frame.
    fn metrics_ticks(&mut self, now: Instant) {
        let due: Vec<u64> = self
            .observers
            .iter()
            .filter(|(_, s)| s.interval.is_some() && now >= s.next_at)
            .map(|(&t, _)| t)
            .collect();
        if due.is_empty() {
            return;
        }
        let snap = self.registry.snapshot().render_jsonl();
        for token in due {
            let interval = match self.observers.get_mut(&token) {
                Some(state) => {
                    let interval = state.interval.expect("due observer has an interval");
                    state.next_at = now + interval;
                    metrics_delta(&snap, &mut state.prev)
                }
                None => continue,
            };
            if !interval.is_empty() {
                self.queue_msg(token, &Message::MetricsDelta { text: interval });
            }
        }
    }

    /// Reads an HTTP scrape request; once the header block is
    /// complete, queues the response and closes after flush.
    fn http_readable(&mut self, token: u64) {
        let mut chunk = [0u8; 4096];
        loop {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return,
            };
            if conn.close_after_flush {
                return;
            }
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    self.close_conn(token, false);
                    return;
                }
                Ok(n) => {
                    conn.rbuf.extend_from_slice(&chunk[..n]);
                    conn.last_activity = Instant::now();
                    if conn.rbuf.windows(4).any(|w| w == b"\r\n\r\n") {
                        self.http_respond(token);
                        return;
                    }
                    if conn.rbuf.len() > 16 * 1024 {
                        self.http_finish(
                            token,
                            http_response(
                                400,
                                "Bad Request",
                                "text/plain",
                                "header block too large\n",
                            ),
                        );
                        return;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close_conn(token, false);
                    return;
                }
            }
        }
    }

    fn http_respond(&mut self, token: u64) {
        let request_line = self
            .conns
            .get(&token)
            .and_then(|c| {
                let text = String::from_utf8_lossy(&c.rbuf);
                text.lines().next().map(str::to_string)
            })
            .unwrap_or_default();
        let mut parts = request_line.split_whitespace();
        let response = match (parts.next(), parts.next()) {
            (Some("GET"), Some(path)) if path == "/metrics" || path.starts_with("/metrics?") => {
                let body = self.registry.snapshot().render_prometheus();
                http_response(200, "OK", "text/plain; version=0.0.4", &body)
            }
            (Some("GET"), Some(_)) => http_response(
                404,
                "Not Found",
                "text/plain",
                "this endpoint serves GET /metrics only\n",
            ),
            (Some(_), Some(_)) => http_response(
                405,
                "Method Not Allowed",
                "text/plain",
                "this endpoint serves GET /metrics only\n",
            ),
            _ => http_response(400, "Bad Request", "text/plain", "malformed request line\n"),
        };
        self.http_finish(token, response);
    }

    fn http_finish(&mut self, token: u64, response: Vec<u8>) {
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.wbuf.extend_from_slice(&response);
            conn.close_after_flush = true;
        }
        self.flush_conn(token);
    }

    /// Refuses a connection that already speaks for a session, and any
    /// new session once the server is stopping.
    fn may_open(&mut self, token: u64) -> bool {
        if self.conn_session(token).is_some() {
            self.refuse_close(token, error_code::PROTOCOL, "session already open");
            return false;
        }
        if self.stopping {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
            return false;
        }
        true
    }

    /// The session `token` speaks for, if it may still send work;
    /// otherwise refuses and closes the connection.
    fn sending_session(&mut self, token: u64) -> Option<u64> {
        let Some(id) = self.conn_session(token) else {
            self.refuse_close(token, error_code::PROTOCOL, "expected HELLO first");
            return None;
        };
        if self.stopping {
            self.refuse_close(token, error_code::SHUTTING_DOWN, "server is shutting down");
            return None;
        }
        Some(id)
    }

    /// Why a session bound to `binding` may not send a record for
    /// tenant `t`, if so.
    fn tenant_refusal(&self, binding: Option<u64>, t: u64) -> Option<String> {
        let tenants = self.wire_config.tenants;
        match binding {
            _ if t >= tenants => Some(format!("tenant {t} out of range (server has {tenants})")),
            Some(bound) if t != bound => Some(format!(
                "session bound to tenant {bound} sent a record for {t}"
            )),
            _ => None,
        }
    }

    fn on_hello(&mut self, token: u64, binding: Option<u64>) -> bool {
        if !self.may_open(token) {
            return false;
        }
        if let Some(message) = binding.and_then(|t| self.tenant_refusal(None, t)) {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::BAD_TENANT, &message);
            return false;
        }
        if self.sessions.len() >= self.config.max_conns {
            self.metrics.rejects.inc();
            self.refuse_close(token, error_code::SERVER_FULL, "session table full");
            return false;
        }
        let id = self.next_session_id;
        self.next_session_id += 1;
        let resume_token = splitmix64(self.nonce ^ id.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        self.sessions.insert(
            id,
            SessionState {
                token: resume_token,
                binding,
                records: 0,
                watermark: 0,
                pending: VecDeque::new(),
                conn: Some(token),
                detached_at: None,
                inflight: 0,
            },
        );
        self.tokens.insert(resume_token, id);
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.session = Some(id);
        }
        self.sync_session_gauges();
        self.queue_msg(
            token,
            &Message::HelloAck {
                config: self.wire_config.clone(),
                token: resume_token,
            },
        )
    }

    fn on_resume(&mut self, token: u64, resume_token: u64) -> bool {
        if !self.may_open(token) {
            return false;
        }
        let id = match self.tokens.get(&resume_token) {
            Some(&id) => id,
            None => {
                self.metrics.rejects.inc();
                self.refuse_close(
                    token,
                    error_code::BAD_TOKEN,
                    "unknown or expired session token",
                );
                return false;
            }
        };
        // If the session still thinks it has a connection, that one is
        // a zombie (the peer knows better than we do that it died) —
        // steal the session and close the old socket.
        if let Some(old) = self.sessions.get(&id).and_then(|s| s.conn) {
            if let Some(old_conn) = self.conns.get_mut(&old) {
                old_conn.session = None;
            }
            self.close_conn(old, false);
        }
        let sess = self.sessions.get_mut(&id).expect("resumed session");
        sess.conn = Some(token);
        sess.detached_at = None;
        let watermark = sess.watermark;
        let paused = !sess.pending.is_empty();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.session = Some(id);
            conn.paused = paused;
        }
        self.metrics.resumes.inc();
        self.sync_session_gauges();
        let ok = self.queue_msg(
            token,
            &Message::ResumeAck {
                config: self.wire_config.clone(),
                resume_pos: watermark,
            },
        );
        if ok && paused {
            self.update_interest(token);
        }
        ok
    }

    fn on_batch(&mut self, token: u64, records: Vec<(u64, u64)>) -> bool {
        let Some(id) = self.sending_session(token) else {
            return false;
        };
        if self.mode == Some(Mode::Sequenced) {
            self.refuse_close(
                token,
                error_code::BAD_SEQUENCE,
                "this run is sequenced (BATCH_SEQ); BATCH cannot mix with it",
            );
            return false;
        }
        let binding = self.sessions[&id].binding;
        if let Some(message) = records
            .iter()
            .find_map(|&(t, _)| self.tenant_refusal(binding, t))
        {
            self.refuse_close(token, error_code::BAD_TENANT, &message);
            return false;
        }
        self.mode = Some(Mode::Unsequenced);
        let n = records.len() as u64;
        let sess = self.sessions.get_mut(&id).expect("batch session");
        self.window.ready.reserve(records.len());
        let limit = self.window.limit();
        for (t, b) in records {
            let pos = self.window.assigned;
            self.window.assigned += 1;
            // Once one record parks, the rest of the frame parks behind
            // it, so arrival order never opens a gap in the ring.
            if !sess.pending.is_empty()
                || self.window.admit(pos, (t as usize, b), limit) == Admit::Beyond
            {
                sess.pending.push_back((pos, t as usize, b));
            }
        }
        sess.records += n;
        sess.watermark = self.window.assigned;
        self.metrics.batches.inc();
        self.release();
        self.pause_if_backlogged(token, id);
        true
    }

    fn on_batch_seq(&mut self, token: u64, records: Vec<(u64, u64, u64)>) -> bool {
        let Some(id) = self.sending_session(token) else {
            return false;
        };
        if self.mode == Some(Mode::Unsequenced) {
            self.refuse_close(
                token,
                error_code::BAD_SEQUENCE,
                "this run is unsequenced (BATCH); BATCH_SEQ cannot mix with it",
            );
            return false;
        }
        let binding = self.sessions[&id].binding;
        if let Some(message) = records
            .iter()
            .find_map(|&(_, t, _)| self.tenant_refusal(binding, t))
        {
            self.refuse_close(token, error_code::BAD_TENANT, &message);
            return false;
        }
        let mut watermark = self.sessions[&id].watermark;
        for &(pos, _, _) in &records {
            if pos < watermark {
                let message = format!(
                    "position {pos} below this session's watermark {watermark} (duplicate or out of order)"
                );
                self.refuse_close(token, error_code::BAD_SEQUENCE, &message);
                return false;
            }
            watermark = pos + 1;
        }
        self.mode = Some(Mode::Sequenced);
        let n = records.len() as u64;
        let limit = self.window.limit();
        let sess = self.sessions.get_mut(&id).expect("seq session");
        for (pos, t, b) in records {
            match self.window.admit(pos, (t as usize, b), limit) {
                Admit::Placed => {}
                Admit::Beyond => sess.pending.push_back((pos, t as usize, b)),
                Admit::Duplicate => {
                    let message =
                        format!("position {pos} already ingested or held by another session");
                    self.refuse_close(token, error_code::BAD_SEQUENCE, &message);
                    return false;
                }
            }
        }
        sess.records += n;
        sess.watermark = watermark;
        self.metrics.batches.inc();
        self.release();
        self.pause_if_backlogged(token, id);
        true
    }

    /// Queues a control verb to the pump at the session's watermark.
    fn queue_ctrl(&mut self, token: u64, op: CtrlOp) -> bool {
        let Some(id) = self.sending_session(token) else {
            return false;
        };
        let sess = self.sessions.get_mut(&id).expect("ctrl session");
        sess.inflight += 1;
        self.ctrl.push_back(CtrlReq {
            session: id,
            watermark: sess.watermark,
            op,
        });
        self.release();
        true
    }

    /// Hands the pump everything now runnable: the contiguous records
    /// ready since the last release, then each control request at the
    /// front of the FIFO whose watermark they reached. SHUTDOWN is the
    /// last work ever released.
    fn release(&mut self) {
        if self.stopping {
            return;
        }
        if !self.window.ready.is_empty() {
            let prefix = std::mem::take(&mut self.window.ready);
            // A failed send means the pump died; `drain_pump` reports it.
            let _ = self.to_pump.send(Work::Records(prefix));
        }
        while self
            .ctrl
            .front()
            .is_some_and(|c| c.watermark <= self.window.next)
        {
            let req = self.ctrl.pop_front().expect("front checked");
            self.stopping = matches!(req.op, CtrlOp::Shutdown);
            let _ = self.to_pump.send(Work::Ctrl(req));
            if self.stopping {
                return;
            }
        }
    }

    /// Admits pending (beyond-window) records as ingest frees room,
    /// releases what became runnable, then unpauses connections whose
    /// backlog drained.
    fn flush_pending(&mut self) {
        let mut drained: Vec<u64> = Vec::new();
        let limit = self.window.limit();
        for (&id, sess) in self.sessions.iter_mut() {
            if sess.pending.is_empty() {
                continue;
            }
            while let Some(&(pos, t, b)) = sess.pending.front() {
                match self.window.admit(pos, (t, b), limit) {
                    Admit::Beyond => break,
                    // Duplicate cannot happen for parked records — each
                    // position was validated at arrival — but dropping
                    // it is safer than wedging the queue.
                    Admit::Placed | Admit::Duplicate => {
                        sess.pending.pop_front();
                    }
                }
            }
            if sess.pending.is_empty() {
                drained.push(id);
            }
        }
        self.release();
        for id in drained {
            if let Some(token) = self.sessions.get(&id).and_then(|s| s.conn) {
                if let Some(conn) = self.conns.get_mut(&token) {
                    if conn.paused {
                        conn.paused = false;
                        self.update_interest(token);
                        // The socket may have buffered frames while we
                        // were not reading.
                        self.conn_readable(token);
                    }
                }
            }
        }
    }

    fn pause_if_backlogged(&mut self, token: u64, id: u64) {
        let backlogged = self
            .sessions
            .get(&id)
            .map(|s| !s.pending.is_empty())
            .unwrap_or(false);
        if backlogged {
            if let Some(conn) = self.conns.get_mut(&token) {
                if !conn.paused {
                    conn.paused = true;
                    self.metrics.window_pauses.inc();
                    self.update_interest(token);
                }
            }
        }
    }

    /// Delivers what the pump sent back: control replies onto their
    /// sessions' connections, epoch lines to observers. A pump that
    /// hung up before SHUTDOWN's reply died; that fails the run.
    fn drain_pump(&mut self) -> Result<(), String> {
        loop {
            let (session, result) = match self.from_pump.try_recv() {
                Ok(Back::Reply { session, result }) => (session, result),
                Ok(Back::Epoch(line)) => {
                    self.fan_out_event(line);
                    continue;
                }
                Err(TryRecvError::Empty) => return Ok(()),
                // The pump returns right after SHUTDOWN's reply.
                Err(TryRecvError::Disconnected) if self.flush_deadline.is_some() => return Ok(()),
                Err(TryRecvError::Disconnected) => return Err(self.pump_failed()),
            };
            let conn_token = self.sessions.get_mut(&session).and_then(|s| {
                s.inflight = s.inflight.saturating_sub(1);
                s.conn
            });
            let shutdown_reply = matches!(result, Ok(Message::ShutdownReply { .. }));
            if let Some(token) = conn_token {
                match result {
                    Ok(msg) => {
                        self.queue_msg(token, &msg);
                    }
                    Err((code, message)) => {
                        self.refuse_close(token, code, &message);
                    }
                }
            }
            // The reply for a dropped session is simply lost — the
            // client will re-request after RESUME.
            if shutdown_reply {
                self.begin_teardown(session);
            }
        }
    }

    /// The pump died before finishing the engine: tells every attached
    /// session and observer why, and returns the run's error.
    fn pump_failed(&mut self) -> String {
        self.stopping = true;
        let cause = match self.pump.take().map(JoinHandle::join) {
            Some(Err(payload)) => panic_message(payload.as_ref()),
            _ => "exited before SHUTDOWN".to_string(),
        };
        let message = format!("ingest pump failed: {cause}");
        let tokens: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.session.is_some() || c.kind == ConnKind::Observer)
            .map(|(&token, _)| token)
            .collect();
        for token in tokens {
            self.refuse_close(token, error_code::SHUTTING_DOWN, &message);
        }
        message
    }

    /// After the pump finished the engine: close every other
    /// connection, stop accepting, and drain the requester's reply.
    fn begin_teardown(&mut self, requester: u64) {
        let keep = self.sessions.get(&requester).and_then(|s| s.conn);
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            // Observers drain too: their buffered epoch frames (the
            // run's tail) flush before the socket closes cleanly.
            let observer = self
                .conns
                .get(&token)
                .map(|c| c.kind == ConnKind::Observer)
                .unwrap_or(false);
            if Some(token) == keep || observer {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.close_after_flush = true;
                    self.update_interest(token);
                }
            } else {
                self.close_conn(token, false);
            }
        }
        self.flush_deadline = Some(Instant::now() + Duration::from_secs(2));
    }

    /// Periodic housekeeping: idle/stall closes and resume-grace
    /// expiry.
    fn sweep(&mut self, now: Instant) {
        let idle = self.config.idle_timeout;
        let mut stalled: Vec<u64> = Vec::new();
        let mut idled: Vec<u64> = Vec::new();
        let mut http_idled: Vec<u64> = Vec::new();
        for (&token, conn) in &self.conns {
            if conn.close_after_flush || conn.paused {
                continue;
            }
            // Observers are quiet by design — the server is the only
            // side that talks. HTTP conns that never finish a request
            // are torn down without a wire error frame.
            if conn.kind == ConnKind::Observer {
                continue;
            }
            if conn.kind == ConnKind::Http {
                if now.duration_since(conn.last_activity) >= idle {
                    http_idled.push(token);
                }
                continue;
            }
            // A connection waiting on a queued control reply is the
            // server's own latency, not client idleness.
            let waiting = conn
                .session
                .and_then(|id| self.sessions.get(&id))
                .map(|s| s.inflight > 0)
                .unwrap_or(false);
            if waiting {
                continue;
            }
            if now.duration_since(conn.last_activity) < idle {
                continue;
            }
            if conn.mid_frame() {
                stalled.push(token);
            } else {
                idled.push(token);
            }
        }
        for token in http_idled {
            self.close_conn(token, false);
        }
        for token in stalled {
            self.metrics.stall_closes.inc();
            let message = format!("frame stalled mid-read for {idle:?}, closing");
            self.refuse_close_with(token, error_code::STALLED, &message, true);
        }
        for token in idled {
            self.metrics.idle_closes.inc();
            let message = format!("idle for {idle:?}, closing");
            // Idle teardown is benign but final: the session does not
            // linger for resume.
            self.refuse_close_with(token, error_code::IDLE_TIMEOUT, &message, false);
        }
        // Detached sessions past the grace window are gone for good.
        let grace = self.config.resume_grace;
        let expired: Vec<u64> = self
            .sessions
            .iter()
            .filter(|(_, s)| {
                s.conn.is_none()
                    && s.detached_at
                        .map(|at| now.duration_since(at) >= grace)
                        .unwrap_or(false)
            })
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            self.discard_session(id);
        }
        if !self.sessions.is_empty() || !self.tokens.is_empty() {
            self.sync_session_gauges();
        }
    }

    /// Removes a session permanently: its pending records are dropped
    /// (counted), its queued control verbs are cancelled, its token is
    /// invalidated.
    fn discard_session(&mut self, id: u64) {
        if let Some(sess) = self.sessions.remove(&id) {
            self.tokens.remove(&sess.token);
            if !sess.pending.is_empty() {
                self.metrics.dropped_records.add(sess.pending.len() as u64);
            }
            if sess.inflight > 0 {
                self.ctrl.retain(|c| c.session != id);
                // The queue front may have changed; re-evaluate.
                self.release();
            }
        }
        self.sync_session_gauges();
    }

    /// Tears down a connection. `may_detach` keeps a sequenced session
    /// with records alive for `resume_grace` (a dropped sender may
    /// come back); everything else dies with its socket.
    fn close_conn(&mut self, token: u64, may_detach: bool) {
        let conn = match self.conns.remove(&token) {
            Some(c) => c,
            None => return,
        };
        self.observers.remove(&token);
        let _ = self.poller.deregister(&conn.stream, token);
        let _ = conn.stream.shutdown(std::net::Shutdown::Both);
        if let Some(id) = conn.session {
            // Modes never mix, so in a sequenced run every record came
            // by BATCH_SEQ.
            let detachable = may_detach
                && !self.stopping
                && self.mode == Some(Mode::Sequenced)
                && self.sessions.get(&id).is_some_and(|s| s.records > 0);
            if detachable {
                if let Some(sess) = self.sessions.get_mut(&id) {
                    sess.conn = None;
                    sess.detached_at = Some(Instant::now());
                }
                self.sync_session_gauges();
            } else {
                self.discard_session(id);
            }
        }
    }

    /// Sends a typed Error frame and closes, never detaching (protocol
    /// violations invalidate the session).
    fn refuse_close(&mut self, token: u64, code: u64, message: &str) {
        self.refuse_close_with(token, code, message, false);
    }

    fn refuse_close_with(&mut self, token: u64, code: u64, message: &str, may_detach: bool) {
        let msg = Message::Error {
            code,
            message: message.to_string(),
        };
        // Best effort: encode (an Error frame is always small) and
        // push straight into the socket; whatever does not fit is
        // lost, the peer is being hung up on anyway.
        if let Ok(frame) = encode(&msg) {
            if let Some(conn) = self.conns.get_mut(&token) {
                let _ = conn.stream.write_all(&frame);
            }
        }
        self.close_conn(token, may_detach);
    }

    /// Encodes and queues a reply on a connection. An unframeable
    /// (oversized) reply degrades to a typed Error frame — the
    /// connection survives. Returns false if the connection died.
    fn queue_msg(&mut self, token: u64, msg: &Message) -> bool {
        let frame = match encode(msg) {
            Ok(f) => f,
            Err(WireError::PayloadTooLarge(n)) => {
                let fallback = Message::Error {
                    code: error_code::PAYLOAD_TOO_LARGE,
                    message: format!(
                        "reply payload is {n} bytes, over the {MAX_PAYLOAD}-byte frame cap"
                    ),
                };
                match encode(&fallback) {
                    Ok(f) => f,
                    Err(_) => return true,
                }
            }
            Err(_) => return true,
        };
        let conn = match self.conns.get_mut(&token) {
            Some(c) => c,
            None => return false,
        };
        conn.wbuf.extend_from_slice(&frame);
        self.flush_conn(token)
    }

    /// Writes as much buffered output as the socket takes; arms write
    /// interest for the rest. Returns false if the connection died.
    fn flush_conn(&mut self, token: u64) -> bool {
        let mut dead = false;
        let mut done = false;
        {
            let conn = match self.conns.get_mut(&token) {
                Some(c) => c,
                None => return false,
            };
            while conn.wstart < conn.wbuf.len() {
                match conn.stream.write(&conn.wbuf[conn.wstart..]) {
                    Ok(0) => {
                        dead = true;
                        break;
                    }
                    Ok(n) => conn.wstart += n,
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(_) => {
                        dead = true;
                        break;
                    }
                }
            }
            if !dead && conn.wstart == conn.wbuf.len() {
                conn.wbuf.clear();
                conn.wstart = 0;
                done = conn.close_after_flush;
            }
        }
        if dead {
            self.close_conn(token, true);
            return false;
        }
        if done && self.flush_deadline.is_none() {
            self.close_conn(token, false);
            return false;
        }
        self.update_interest(token);
        true
    }

    fn update_interest(&mut self, token: u64) {
        if let Some(conn) = self.conns.get(&token) {
            let interest = Interest {
                read: !conn.paused && !conn.close_after_flush,
                write: conn.wstart < conn.wbuf.len(),
            };
            let _ = self.poller.set_interest(&conn.stream, token, interest);
        }
    }

    fn conn_session(&self, token: u64) -> Option<u64> {
        self.conns.get(&token).and_then(|c| c.session)
    }

    /// Sessions attached to a live connection.
    fn attached(&self) -> usize {
        self.sessions.values().filter(|s| s.conn.is_some()).count()
    }

    fn sync_session_gauges(&self) {
        let attached = self.attached();
        self.metrics.active_sessions.set(attached as i64);
        let detached = self.sessions.len() - attached;
        self.metrics.detached_sessions.set(detached as i64);
    }
}

/// Header-level peek: how long is the frame at the front of `buf`, if
/// it is complete? `Ok(None)` means more bytes are needed; errors are
/// unrecoverable framing corruption.
fn complete_frame_len(buf: &[u8]) -> Result<Option<usize>, WireError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    if buf[0..2] != crate::wire::MAGIC {
        return Err(WireError::BadMagic([buf[0], buf[1]]));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::FrameTooLarge(len));
    }
    if buf.len() < HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some(HEADER_LEN + len))
}

/// The ingest pump: the engine's single owner.
struct Pump {
    engine: RepartitionEngine,
    header: RunHeader,
    registry: Arc<MetricsRegistry>,
    records: Counter,
    batch_drain_nanos: Histogram,
    consumed: Arc<AtomicU64>,
    back: Sender<Back>,
    wake: UdpSocket,
}

impl Pump {
    /// Feeds released records to the engine and runs control verbs, in
    /// channel order. Returns the finished run after SHUTDOWN, or
    /// `None` if the event loop hung up first.
    fn run(mut self, work: Receiver<Work>) -> Option<ServeOutcome> {
        // The live-telemetry tap: each booked epoch renders to its
        // journal JSONL line for the event loop to fan out to
        // observers. The hook fires on this thread, during a chunk or a
        // control verb, so the wake that ends either delivers the line.
        let back = self.back.clone();
        let objective = self.header.objective.clone();
        self.engine.set_epoch_hook(Box::new(move |record| {
            let line = record.journal_event(&objective).to_json_line();
            let _ = back.send(Back::Epoch(line));
        }));
        while let Ok(item) = work.recv() {
            match item {
                Work::Records(batch) => {
                    let started = Instant::now();
                    for &(tenant, block) in &batch {
                        self.engine.record_access(tenant, block);
                    }
                    self.batch_drain_nanos
                        .observe(started.elapsed().as_nanos() as u64);
                    self.records.add(batch.len() as u64);
                    self.consumed
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    // Window space freed: let the event loop refill it.
                    let _ = self.wake.send(&[1]);
                }
                Work::Ctrl(CtrlReq {
                    session,
                    op: CtrlOp::Shutdown,
                    ..
                }) => return Some(self.shutdown(session)),
                Work::Ctrl(req) => {
                    let result = self.run_ctrl(req.op);
                    self.reply(req.session, result);
                }
            }
        }
        None
    }

    fn reply(&self, session: u64, result: Result<Message, (u64, String)>) {
        let _ = self.back.send(Back::Reply { session, result });
        let _ = self.wake.send(&[1]);
    }

    /// Finishes the engine, replies with the journal and returns the
    /// run (the event loop fills in the connection count).
    fn shutdown(self, session: u64) -> ServeOutcome {
        let report = self.engine.finish();
        let journal = render_journal(&self.header, &report);
        let result = Ok(Message::ShutdownReply {
            journal: journal.clone(),
        });
        let _ = self.back.send(Back::Reply { session, result });
        let _ = self.wake.send(&[1]);
        ServeOutcome {
            report,
            journal,
            connections: 0,
            records: self.consumed.load(Ordering::Relaxed),
        }
    }

    /// Executes one control verb (any but SHUTDOWN) against the engine.
    fn run_ctrl(&mut self, op: CtrlOp) -> Result<Message, (u64, String)> {
        let engine = &mut self.engine;
        match op {
            CtrlOp::Stats {
                connections,
                active_sessions,
            } => {
                let snap = self.registry.snapshot();
                let counter = |name: &str| -> u64 {
                    match snap.get(name) {
                        Some(cps_obs::metrics::SampleValue::Counter(v)) => *v,
                        _ => 0,
                    }
                };
                Ok(Message::StatsReply {
                    stats: ServeStats {
                        connections,
                        active_sessions,
                        frames: counter("cps_serve_frames_total"),
                        batches: counter("cps_serve_batches_total"),
                        records: counter("cps_serve_records_total"),
                        decode_errors: counter("cps_serve_decode_errors_total"),
                        backpressure_nanos: 0,
                        epochs: engine.epochs_completed() as u64,
                    },
                })
            }
            CtrlOp::Allocation => Ok(Message::AllocationReply {
                units: engine
                    .allocation_units()
                    .iter()
                    .map(|&u| u as u64)
                    .collect(),
            }),
            CtrlOp::Epoch => Ok(Message::EpochReply {
                epochs: engine.epochs_completed() as u64,
            }),
            CtrlOp::Snapshot => Ok(Message::SnapshotReply {
                text: self.registry.snapshot().render_jsonl(),
            }),
            CtrlOp::CostCurves { trace } => {
                let _ = trace; // Stamped on the epoch by the paired APPLY.
                let started = Instant::now();
                let exported = engine.export_epoch_curves();
                let profile_nanos = started.elapsed().as_nanos() as u64;
                let curves = exported
                    .iter()
                    .map(|c| WireCurve {
                        accesses: c.counts.accesses,
                        misses: c.counts.misses,
                        samples_bits: c.curve.as_ref().map_or_else(Vec::new, |m| {
                            m.samples().iter().map(|s| s.to_bits()).collect()
                        }),
                    })
                    .collect();
                Ok(Message::CostCurvesReply {
                    curves,
                    profile_nanos,
                })
            }
            CtrlOp::Apply {
                target,
                predicted,
                trace,
            } => {
                // The engine panics on a malformed budget; refuse it here,
                // at the trust boundary.
                let (tenants, units) = (engine.tenants(), engine.config().cache.units);
                if target.len() != tenants || target.iter().sum::<usize>() > units {
                    return Err((
                        error_code::PROTOCOL,
                        format!(
                            "allocation must give one budget to each of {tenants} tenants \
                             and fit {units} units"
                        ),
                    ));
                }
                let started = Instant::now();
                let actuation = engine
                    .apply_external_allocation(
                        Some(&target),
                        predicted,
                        (trace != 0).then_some(trace),
                    )
                    .ok_or_else(|| {
                        (
                            error_code::PROTOCOL,
                            "no epoch boundary open (apply must follow an export)".to_string(),
                        )
                    })?;
                let actuate_nanos = started.elapsed().as_nanos() as u64;
                Ok(Message::ApplyReply {
                    repartitioned: actuation.repartitioned,
                    units_moved: actuation.units_moved as u64,
                    actuate_nanos,
                })
            }
            CtrlOp::Shutdown => unreachable!("the pump finishes the engine on SHUTDOWN"),
        }
    }
}

/// The lines of `snapshot_jsonl` that changed since the previous
/// delta, updating `prev` to the current line set. The first call
/// (empty `prev`) returns the full snapshot.
fn metrics_delta(snapshot_jsonl: &str, prev: &mut HashSet<String>) -> String {
    let mut out = String::new();
    let mut next: HashSet<String> = HashSet::new();
    for line in snapshot_jsonl.lines() {
        if !prev.contains(line) {
            out.push_str(line);
            out.push('\n');
        }
        next.insert(line.to_string());
    }
    *prev = next;
    out
}

/// Assembles a minimal HTTP/1.1 response with `Connection: close`.
fn http_response(status: u16, reason: &str, content_type: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// SplitMix64 — the resume-token generator. Not a secret in any
/// cryptographic sense (loopback protocol), just unguessable enough to
/// not collide or be stumbled into.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn token_nonce() -> u64 {
    use std::time::{SystemTime, UNIX_EPOCH};
    let t = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x5eed);
    splitmix64(t ^ (std::process::id() as u64).rotate_left(32))
}

/// The message a panicking thread left behind.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ServeError};
    use cps_core::CacheConfig;
    use cps_engine::{
        default_profilers, EngineConfig, HysteresisActuator, PartitionSolver, SolveInput,
        SolveOutcome,
    };

    /// A solve stage that panics at the third epoch boundary.
    struct PanicsAtEpoch3 {
        solves: usize,
    }

    impl PartitionSolver for PanicsAtEpoch3 {
        fn solve(&mut self, _input: SolveInput<'_>) -> SolveOutcome {
            self.solves += 1;
            assert!(self.solves < 3, "solver failed at epoch {}", self.solves);
            SolveOutcome {
                predicted_cost: None,
                solve_nanos: 0,
                allocation: None,
            }
        }
    }

    #[test]
    fn a_panicking_stage_fails_the_run_instead_of_hanging() {
        let engine_cfg = EngineConfig::new(CacheConfig::new(16, 1), 1_000);
        let engine = RepartitionEngine::with_stages(
            engine_cfg.clone(),
            default_profilers(&engine_cfg, 2),
            Box::new(PanicsAtEpoch3 { solves: 0 }),
            Box::new(HysteresisActuator::new(&engine_cfg, 2)),
        );
        let config = ServeConfig {
            engine: engine_cfg,
            tenants: 2,
            max_conns: 4,
            idle_timeout: Duration::from_secs(5),
            window_cap: 1 << 16,
            resume_grace: Duration::from_secs(5),
            telemetry_addr: None,
        };
        let registry = Arc::new(MetricsRegistry::new());
        let server = Server::with_engine("127.0.0.1:0", config, registry, engine).expect("bind");
        let addr = server.local_addr().expect("local addr").to_string();
        let (run_tx, run) = mpsc::channel();
        let server = std::thread::spawn(move || {
            let _ = run_tx.send(server.run());
        });

        // The client side runs on its own thread too, so a daemon that
        // never answers fails the test at the deadline instead of
        // hanging it.
        let (reply_tx, reply) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let records: Vec<(u64, u64)> = (0..4_000u64).map(|i| (i % 2, i % 37)).collect();
            let mut client = Client::connect(&addr, None).expect("connect");
            // Two epochs close cleanly and the daemon answers.
            client.push_batch(&records[..2_500]).expect("push");
            assert_eq!(client.epochs().expect("epochs before the panic"), 2);
            // The third boundary panics inside the pump.
            client.push_batch(&records[2_500..]).expect("push");
            let _ = reply_tx.send(client.stats());
        });
        let deadline = Duration::from_secs(30);
        match reply.recv_timeout(deadline).expect("the daemon answers") {
            Err(ServeError::Server { code, message }) => {
                assert_eq!(code, error_code::SHUTTING_DOWN);
                assert_eq!(message, "ingest pump failed: solver failed at epoch 3");
            }
            other => panic!("expected a SHUTTING_DOWN refusal, got {other:?}"),
        }
        let run = run
            .recv_timeout(deadline)
            .expect("Server::run returns instead of hanging");
        assert_eq!(
            run.err().as_deref(),
            Some("ingest pump failed: solver failed at epoch 3")
        );
        client.join().expect("client thread");
        server.join().expect("server thread");
    }
}
