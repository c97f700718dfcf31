//! The scoring server: acceptor, per-connection readers, and the
//! micro-batching dispatcher.
//!
//! Thread layout (all std, no async runtime):
//!
//! * **acceptor** — non-blocking `TcpListener` polled against the shutdown
//!   flag; spawns one reader thread per connection.
//! * **reader (per connection)** — parses frames with a shutdown-aware
//!   incremental read (idle connections may sit quietly forever, but a
//!   *mid-frame* stall past [`MID_FRAME_DEADLINE`] is a truncated frame).
//!   Control frames (Ping/Stats/Reload/Shutdown) are answered inline;
//!   Score frames are validated and `try_send` onto the bounded job
//!   queue — a full queue sheds the request with a typed `Overloaded`
//!   error instead of stalling the connection (admission control).
//! * **dispatcher** — single consumer of the job queue; coalesces jobs in
//!   a [`BatchWindow`] and scores each batch against one
//!   [`ForestSlot`](crate::swap::ForestSlot) snapshot, so a hot-swap can
//!   never produce a torn response.
//! * **watcher (optional)** — polls the model file's mtime and hot-swaps
//!   on change.
//!
//! Responses carry the request's correlation id, so a client may pipeline
//! freely; within one connection writes are serialized by a mutex around
//! the write half.

use crate::batch::BatchWindow;
use crate::clock::{Clock, SystemClock};
use crate::protocol::{
    parse_header, write_frame, ErrorCode, Frame, ProtocolError, RowsPayload, DEFAULT_MAX_PAYLOAD,
    HEADER_LEN,
};
use crate::stats::{ServeLedger, ServeStats, StatsSnapshot};
use crate::swap::ForestSlot;
use harp_data::{DenseMatrix, FeatureMatrix};
use harp_parallel::{ThreadPool, TraceSink};
use harpgbdt::{BinRows, GbdtModel, Predictor};
use std::io::Read;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often blocked reads and the acceptor wake to check the shutdown
/// flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// A connection that stalls this long *inside* a frame is truncated: the
/// server answers a typed error and drops it rather than hang a reader
/// thread forever.
const MID_FRAME_DEADLINE: Duration = Duration::from_secs(5);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads for batch scoring (0 or 1 = score on the dispatcher
    /// thread).
    pub threads: usize,
    /// Micro-batch coalescing window in microseconds (0 = dispatch every
    /// request immediately).
    pub window_us: u64,
    /// Row count that flushes a batch early.
    pub max_batch_rows: usize,
    /// Bounded job-queue depth; a full queue sheds with `Overloaded`.
    pub queue_depth: usize,
    /// Per-request row cap (larger requests get `BadShape`).
    pub max_rows_per_req: usize,
    /// Model file for `Reload` frames with no explicit path and for the
    /// file watcher.
    pub model_path: Option<PathBuf>,
    /// Poll the model file every this many milliseconds and hot-swap on
    /// mtime change (`None` = no watching).
    pub watch_ms: Option<u64>,
    /// Write a serve [`RunLedger`](harp_metrics::RunLedger) (JSONL) here
    /// on shutdown.
    pub ledger_out: Option<PathBuf>,
    /// Close a ledger epoch every this many batches.
    pub ledger_every_batches: u64,
    /// Record phase spans into a [`TraceSink`] (chrome-trace exportable).
    pub trace: bool,
    /// Bind a plain-HTTP `/metrics` endpoint (Prometheus text exposition)
    /// here (`None` = no endpoint; `127.0.0.1:0` picks a free port).
    pub metrics_addr: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            threads: 0,
            window_us: 200,
            max_batch_rows: 4096,
            queue_depth: 1024,
            max_rows_per_req: 1 << 16,
            model_path: None,
            watch_ms: None,
            ledger_out: None,
            ledger_every_batches: 64,
            trace: false,
            metrics_addr: None,
        }
    }
}

/// One admitted Score request travelling from a reader to the dispatcher.
struct ScoreJob {
    corr: u32,
    rows: RowsPayload,
    writer: Arc<Mutex<TcpStream>>,
    enqueue_ns: u64,
}

/// State shared by every server thread (including the `/metrics`
/// exposition thread).
pub(crate) struct ServerCtx {
    cfg: ServeConfig,
    slot: ForestSlot,
    stats: ServeStats,
    pub(crate) shutdown: AtomicBool,
    clock: Arc<dyn Clock>,
    trace: Option<Arc<TraceSink>>,
    /// Process start; feeds the snapshot's `uptime_secs`.
    t0: Instant,
}

impl ServerCtx {
    /// Counters stamped with the served forest's generation and shape.
    pub(crate) fn snapshot(&self) -> StatsSnapshot {
        let serving = self.slot.load();
        self.stats.snapshot(
            serving.generation,
            serving.forest.n_features() as u64,
            serving.forest.n_groups() as u64,
            self.t0.elapsed().as_secs_f64(),
        )
    }

    /// Loads + compiles + installs the model at `path`; returns the new
    /// generation.
    fn reload(&self, path: &std::path::Path) -> Result<u64, String> {
        let model = GbdtModel::load(path).map_err(|e| format!("load {}: {e}", path.display()))?;
        let generation = self.slot.swap(model.compile());
        ServeStats::bump(&self.stats.swaps);
        Ok(generation)
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](Self::shutdown) (or send a `Shutdown` frame) and then
/// [`wait`](Self::wait).
pub struct ServerHandle {
    local_addr: std::net::SocketAddr,
    metrics_addr: Option<std::net::SocketAddr>,
    ctx: Arc<ServerCtx>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
    metrics: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl ServerHandle {
    /// The bound address (resolves `:0` port picks).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.local_addr
    }

    /// The bound `/metrics` address, when the config asked for one.
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_addr
    }

    /// The hot-swap slot (e.g. to install a new model in-process).
    pub fn slot(&self) -> &ForestSlot {
        &self.ctx.slot
    }

    /// Point-in-time counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        self.ctx.snapshot()
    }

    /// The trace sink, when the config enabled tracing.
    pub fn trace(&self) -> Option<&Arc<TraceSink>> {
        self.ctx.trace.as_ref()
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.ctx.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown: stop accepting, drain pending batches, exit.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
    }

    /// Blocks until every server thread has exited. Idempotent: a second
    /// call returns immediately.
    pub fn wait(&mut self) {
        if let Some(h) = self.acceptor.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watcher.take() {
            let _ = h.join();
        }
        if let Some(h) = self.metrics.take() {
            let _ = h.join();
        }
        let handles = std::mem::take(&mut *self.conns.lock().expect("conn registry poisoned"));
        for h in handles {
            let _ = h.join();
        }
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

/// Binds, spawns the server threads, and returns immediately.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(forest: harpgbdt::FlatForest, cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    serve_with_clock(forest, cfg, Arc::new(SystemClock::new()))
}

/// [`serve`] with an injected clock (tests drive a
/// [`ManualClock`](crate::clock::ManualClock)). The clock paces only the
/// *batch window*; socket timeouts stay on wall time.
pub fn serve_with_clock(
    forest: harpgbdt::FlatForest,
    cfg: ServeConfig,
    clock: Arc<dyn Clock>,
) -> std::io::Result<ServerHandle> {
    let listener =
        TcpListener::bind(cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "bad address")
        })?)?;
    let local_addr = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    let trace = cfg.trace.then(|| TraceSink::with_capacity(cfg.threads.max(1), 4096));
    let (tx, rx) = std::sync::mpsc::sync_channel::<ScoreJob>(cfg.queue_depth.max(1));
    let ctx = Arc::new(ServerCtx {
        slot: ForestSlot::new(forest),
        stats: ServeStats::default(),
        shutdown: AtomicBool::new(false),
        clock,
        trace,
        cfg,
        t0: Instant::now(),
    });

    let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let acceptor = {
        let ctx = Arc::clone(&ctx);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new()
            .name("serve-accept".into())
            .spawn(move || accept_loop(listener, ctx, tx, conns))
            .expect("spawn acceptor")
    };
    let dispatcher = {
        let ctx = Arc::clone(&ctx);
        std::thread::Builder::new()
            .name("serve-dispatch".into())
            .spawn(move || dispatch_loop(rx, ctx))
            .expect("spawn dispatcher")
    };
    let (metrics_addr, metrics) = match ctx.cfg.metrics_addr.clone() {
        Some(addr) => {
            let (bound, handle) = crate::metrics_http::spawn(Arc::clone(&ctx), &addr)?;
            (Some(bound), Some(handle))
        }
        None => (None, None),
    };
    let watcher = ctx.cfg.watch_ms.and_then(|ms| {
        ctx.cfg.model_path.clone().map(|path| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name("serve-watch".into())
                .spawn(move || watch_loop(ctx, path, Duration::from_millis(ms.max(1))))
                .expect("spawn watcher")
        })
    });

    Ok(ServerHandle {
        local_addr,
        metrics_addr,
        ctx,
        acceptor: Some(acceptor),
        dispatcher: Some(dispatcher),
        watcher,
        metrics,
        conns,
    })
}

fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ServerCtx>,
    tx: SyncSender<ScoreJob>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    while !ctx.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                ServeStats::bump(&ctx.stats.connections);
                let ctx = Arc::clone(&ctx);
                let tx = tx.clone();
                let handle = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || connection_loop(stream, ctx, tx))
                    .expect("spawn connection");
                conns.lock().expect("conn registry poisoned").push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => break,
        }
    }
    // Dropping `tx` here (with the reader clones gone once connections
    // drain) disconnects the dispatcher's queue and lets it exit.
}

/// What one shutdown-aware buffered read produced.
enum Fill {
    /// Buffer fully read.
    Done,
    /// Clean EOF at a frame boundary (nothing read).
    CleanEof,
    /// EOF or stall mid-frame.
    Truncated,
    /// The server is shutting down.
    ShuttingDown,
}

/// Fills `buf` from `stream`, tolerating read timeouts. At a frame
/// boundary (`at_frame_start`, nothing read yet) the connection may idle
/// indefinitely; once any byte of a frame has arrived — or when reading a
/// payload — a stall past [`MID_FRAME_DEADLINE`] is reported truncated.
fn read_full(
    stream: &mut TcpStream,
    buf: &mut [u8],
    shutdown: &AtomicBool,
    at_frame_start: bool,
) -> std::io::Result<Fill> {
    if buf.is_empty() {
        // Zero-length payloads (Ping, Stats, Shutdown): `read` into an
        // empty buffer returns `Ok(0)`, which must not read as an EOF.
        return Ok(Fill::Done);
    }
    let mut filled = 0usize;
    let mut started: Option<Instant> = (!at_frame_start).then(Instant::now);
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(Fill::ShuttingDown);
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => {
                return Ok(if filled == 0 && at_frame_start {
                    Fill::CleanEof
                } else {
                    Fill::Truncated
                })
            }
            Ok(n) => {
                filled += n;
                started.get_or_insert_with(Instant::now);
                if filled == buf.len() {
                    return Ok(Fill::Done);
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if started.is_some_and(|t0| t0.elapsed() >= MID_FRAME_DEADLINE) {
                    return Ok(Fill::Truncated);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// One frame read: `Ok(Ok(frame))`, a typed violation, or a reason to stop.
enum ReadOutcome {
    Frame(Frame),
    Violation(ProtocolError),
    Stop,
}

fn read_one(stream: &mut TcpStream, shutdown: &AtomicBool) -> ReadOutcome {
    let mut header = [0u8; HEADER_LEN];
    match read_full(stream, &mut header, shutdown, true) {
        Ok(Fill::Done) => {}
        Ok(Fill::CleanEof) | Ok(Fill::ShuttingDown) | Err(_) => return ReadOutcome::Stop,
        Ok(Fill::Truncated) => {
            return ReadOutcome::Violation(ProtocolError::Truncated { what: "header" })
        }
    }
    let h = match parse_header(&header, DEFAULT_MAX_PAYLOAD) {
        Ok(h) => h,
        Err(e) => return ReadOutcome::Violation(e),
    };
    let mut payload = vec![0u8; h.payload_len as usize];
    match read_full(stream, &mut payload, shutdown, false) {
        Ok(Fill::Done) => {}
        Ok(Fill::ShuttingDown) | Err(_) => return ReadOutcome::Stop,
        Ok(Fill::CleanEof) | Ok(Fill::Truncated) => {
            return ReadOutcome::Violation(ProtocolError::Truncated { what: "payload" })
        }
    }
    match Frame::decode(h.frame_type, h.corr, &payload) {
        Ok(f) => ReadOutcome::Frame(f),
        Err(e) => ReadOutcome::Violation(e),
    }
}

fn send_reply(writer: &Arc<Mutex<TcpStream>>, ctx: &ServerCtx, frame: &Frame) {
    let t0 = Instant::now();
    {
        let mut w = writer.lock().expect("writer poisoned");
        let _ = write_frame(&mut *w, frame);
    }
    ctx.stats.write_hist.record(t0.elapsed().as_nanos() as u64);
}

fn connection_loop(stream: TcpStream, ctx: Arc<ServerCtx>, tx: SyncSender<ScoreJob>) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    let mut reader = stream;
    loop {
        match read_one(&mut reader, &ctx.shutdown) {
            ReadOutcome::Stop => break,
            ReadOutcome::Violation(e) => {
                ServeStats::bump(&ctx.stats.protocol_errors);
                send_reply(
                    &writer,
                    &ctx,
                    &Frame::Error { corr: 0, code: e.code(), message: e.to_string() },
                );
                if e.is_framing() {
                    break; // the stream can't be resynchronized
                }
            }
            ReadOutcome::Frame(frame) => {
                if !handle_frame(frame, &ctx, &tx, &writer) {
                    break;
                }
            }
        }
    }
}

/// Handles one well-formed frame; returns `false` when the connection
/// should close.
fn handle_frame(
    frame: Frame,
    ctx: &Arc<ServerCtx>,
    tx: &SyncSender<ScoreJob>,
    writer: &Arc<Mutex<TcpStream>>,
) -> bool {
    match frame {
        Frame::Ping { corr } => send_reply(writer, ctx, &Frame::Pong { corr }),
        Frame::Stats { corr } => {
            let snap = ctx.snapshot();
            let json = serde_json::to_string(&snap).unwrap_or_else(|_| "{}".into());
            send_reply(writer, ctx, &Frame::StatsReply { corr, json });
        }
        Frame::Shutdown { corr } => {
            send_reply(writer, ctx, &Frame::ShutdownOk { corr });
            ctx.shutdown.store(true, Ordering::SeqCst);
            return false;
        }
        Frame::Reload { corr, path } => {
            let target = path.map(PathBuf::from).or_else(|| ctx.cfg.model_path.clone());
            let reply = match target {
                None => Frame::Error {
                    corr,
                    code: ErrorCode::ReloadFailed,
                    message: "no model path in the frame and none configured".into(),
                },
                Some(p) => match ctx.reload(&p) {
                    Ok(generation) => Frame::ReloadOk { corr, generation },
                    Err(message) => Frame::Error { corr, code: ErrorCode::ReloadFailed, message },
                },
            };
            send_reply(writer, ctx, &reply);
        }
        Frame::Score { corr, rows } => {
            if let Some(message) = admission_error(ctx, &rows) {
                ServeStats::bump(&ctx.stats.protocol_errors);
                send_reply(writer, ctx, &Frame::Error { corr, code: ErrorCode::BadShape, message });
                return true;
            }
            let n_rows = rows.n_rows() as u64;
            let job =
                ScoreJob { corr, rows, writer: Arc::clone(writer), enqueue_ns: ctx.clock.now_ns() };
            // Gauge up *before* the job is visible: the dispatcher may take
            // it and run score_batch's gauge-down before `try_send` returns,
            // and a gauge raised afterwards would wrap below zero meanwhile.
            // Raised first, the send/receive pair orders the raise before
            // that gauge-down even with relaxed updates. A refused job
            // gauges back down here.
            ctx.stats.queue_depth.fetch_add(1, Ordering::Relaxed);
            match tx.try_send(job) {
                Ok(()) => {
                    ServeStats::bump(&ctx.stats.requests);
                    ctx.stats.rows.fetch_add(n_rows, Ordering::Relaxed);
                }
                Err(TrySendError::Full(_)) => {
                    ctx.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    ServeStats::bump(&ctx.stats.sheds);
                    send_reply(
                        writer,
                        ctx,
                        &Frame::Error {
                            corr,
                            code: ErrorCode::Overloaded,
                            message: "admission queue full; retry with backoff".into(),
                        },
                    );
                }
                Err(TrySendError::Disconnected(_)) => {
                    ctx.stats.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    return false;
                }
            }
        }
        // Server-to-client frame types arriving at the server are
        // well-framed but semantically invalid: answer and keep going.
        other => {
            ServeStats::bump(&ctx.stats.protocol_errors);
            send_reply(
                writer,
                ctx,
                &Frame::Error {
                    corr: other.corr(),
                    code: ErrorCode::Malformed,
                    message: format!("{:?} is a server-to-client frame", other.frame_type()),
                },
            );
        }
    }
    true
}

/// Admission-time shape validation against the *current* forest. Wider
/// inputs are allowed (extra columns are ignored, matching the
/// [`Predictor`] contract); narrower ones would route on the wrong cells.
fn admission_error(ctx: &ServerCtx, rows: &RowsPayload) -> Option<String> {
    let n_features = ctx.slot.load().forest.n_features();
    if rows.n_cols() < n_features {
        return Some(format!(
            "rows have {} columns but the model expects {n_features}",
            rows.n_cols()
        ));
    }
    if rows.n_rows() > ctx.cfg.max_rows_per_req {
        return Some(format!(
            "{} rows exceeds the per-request cap {}",
            rows.n_rows(),
            ctx.cfg.max_rows_per_req
        ));
    }
    None
}

fn dispatch_loop(rx: Receiver<ScoreJob>, ctx: Arc<ServerCtx>) {
    let mut pool = (ctx.cfg.threads > 1).then(|| ThreadPool::new(ctx.cfg.threads));
    if let (Some(pool), Some(sink)) = (pool.as_mut(), ctx.trace.as_ref()) {
        pool.install_trace(Arc::clone(sink));
    }
    let window_ns = ctx.cfg.window_us.saturating_mul(1_000);
    let mut window: BatchWindow<ScoreJob> = BatchWindow::new(window_ns, ctx.cfg.max_batch_rows);
    let mut ledger = ctx.cfg.ledger_out.is_some().then(ServeLedger::new);
    let mut batches_since_epoch = 0u64;
    let t0 = Instant::now();

    loop {
        let timeout = match window.deadline_ns() {
            Some(d) => {
                Duration::from_nanos(d.saturating_sub(ctx.clock.now_ns())).min(POLL_INTERVAL)
            }
            None => POLL_INTERVAL,
        };
        let mut dispatched = match rx.recv_timeout(timeout) {
            Ok(job) => {
                let n_rows = job.rows.n_rows();
                window.push(job, n_rows, ctx.clock.now_ns())
            }
            Err(RecvTimeoutError::Timeout) => window.poll(ctx.clock.now_ns()),
            Err(RecvTimeoutError::Disconnected) => {
                if let Some(batch) = window.take() {
                    score_batch(batch, &ctx, pool.as_ref());
                }
                break;
            }
        };
        if dispatched.is_none() {
            dispatched = window.poll(ctx.clock.now_ns());
        }
        if let Some(batch) = dispatched {
            score_batch(batch, &ctx, pool.as_ref());
            batches_since_epoch += 1;
            if let Some(l) = ledger.as_mut() {
                if batches_since_epoch >= ctx.cfg.ledger_every_batches {
                    l.record_epoch(ctx.snapshot(), t0.elapsed().as_secs_f64());
                    batches_since_epoch = 0;
                }
            }
        }
        if ctx.shutdown.load(Ordering::SeqCst) {
            // Drain whatever readers enqueued before they saw the flag.
            while let Ok(job) = rx.try_recv() {
                let n_rows = job.rows.n_rows();
                if let Some(batch) = window.push(job, n_rows, ctx.clock.now_ns()) {
                    score_batch(batch, &ctx, pool.as_ref());
                }
            }
            if let Some(batch) = window.take() {
                score_batch(batch, &ctx, pool.as_ref());
            }
            break;
        }
    }

    if let (Some(mut l), Some(path)) = (ledger, ctx.cfg.ledger_out.as_ref()) {
        l.record_epoch(ctx.snapshot(), t0.elapsed().as_secs_f64());
        let _ = l.ledger().write_jsonl(path);
    }
}

/// Scores one micro-batch against a single forest snapshot and writes
/// every response.
fn score_batch(batch: Vec<ScoreJob>, ctx: &ServerCtx, pool: Option<&ThreadPool>) {
    let now = ctx.clock.now_ns();
    for job in &batch {
        ctx.stats.queue_wait_hist.record(now.saturating_sub(job.enqueue_ns));
    }
    ctx.stats.queue_depth.fetch_sub(batch.len() as u64, Ordering::Relaxed);
    ServeStats::bump(&ctx.stats.batches);
    // One snapshot for the whole batch: every response comes from exactly
    // this forest, however many swaps land while it runs.
    let serving = ctx.slot.load();
    let forest = &serving.forest;
    let n_groups = forest.n_groups();

    // Jobs sharing a layout and width score as one concatenated block.
    struct Group {
        binned: bool,
        n_cols: u32,
        jobs: Vec<ScoreJob>,
    }
    let mut groups: Vec<Group> = Vec::new();
    for job in batch {
        let (binned, n_cols) = match &job.rows {
            RowsPayload::Dense { n_cols, .. } => (false, *n_cols),
            RowsPayload::Binned { n_cols, .. } => (true, *n_cols),
        };
        match groups.iter_mut().find(|g| g.binned == binned && g.n_cols == n_cols) {
            Some(g) => g.jobs.push(job),
            None => groups.push(Group { binned, n_cols, jobs: vec![job] }),
        }
    }

    for group in groups {
        // A swap to a wider model can invalidate shapes admitted against
        // the old one; those requests fail typed rather than misroute.
        if (group.n_cols as usize) < forest.n_features() {
            for job in &group.jobs {
                ServeStats::bump(&ctx.stats.protocol_errors);
                send_reply(
                    &job.writer,
                    ctx,
                    &Frame::Error {
                        corr: job.corr,
                        code: ErrorCode::BadShape,
                        message: format!(
                            "model now expects {} features but rows have {} columns",
                            forest.n_features(),
                            group.n_cols
                        ),
                    },
                );
            }
            continue;
        }

        let mut predictor = Predictor::new(forest);
        if let Some(p) = pool {
            predictor = predictor.with_pool(p);
        }
        if let Some(sink) = ctx.trace.as_ref() {
            predictor = predictor.with_trace(sink);
        }

        let phase_done = |t0: Instant, hist: &harp_metrics::AtomicHistogram| {
            hist.record(t0.elapsed().as_nanos() as u64);
        };
        let scores = if group.binned {
            let t0 = Instant::now();
            let n_cols = group.n_cols as usize;
            let mut bins = Vec::new();
            for job in &group.jobs {
                if let RowsPayload::Binned { bins: b, .. } = &job.rows {
                    bins.extend_from_slice(b);
                }
            }
            let n_rows = bins.len() / n_cols;
            phase_done(t0, &ctx.stats.assemble_hist);
            let t0 = Instant::now();
            let scores = predictor.predict_raw_bin_rows(&BinRows::new(n_rows, n_cols, &bins));
            phase_done(t0, &ctx.stats.predict_hist);
            scores
        } else {
            let t0 = Instant::now();
            let n_cols = group.n_cols as usize;
            let mut values = Vec::new();
            for job in &group.jobs {
                if let RowsPayload::Dense { values: v, .. } = &job.rows {
                    values.extend_from_slice(v);
                }
            }
            let n_rows = values.len() / n_cols;
            let matrix = FeatureMatrix::Dense(DenseMatrix::from_vec(n_rows, n_cols, values));
            phase_done(t0, &ctx.stats.assemble_hist);
            let t0 = Instant::now();
            let scores = predictor.predict_raw(&matrix);
            phase_done(t0, &ctx.stats.predict_hist);
            scores
        };

        let mut offset = 0usize;
        for job in &group.jobs {
            let len = job.rows.n_rows() * n_groups;
            send_reply(
                &job.writer,
                ctx,
                &Frame::Scores {
                    corr: job.corr,
                    n_groups: n_groups as u32,
                    scores: scores[offset..offset + len].to_vec(),
                },
            );
            let e2e = ctx.clock.now_ns().saturating_sub(job.enqueue_ns);
            ctx.stats.e2e_hist.record(e2e);
            offset += len;
        }
    }
}

fn watch_loop(ctx: Arc<ServerCtx>, path: PathBuf, every: Duration) {
    let mtime = |p: &std::path::Path| std::fs::metadata(p).and_then(|m| m.modified()).ok();
    let mut last = mtime(&path);
    while !ctx.shutdown.load(Ordering::SeqCst) {
        // Sleep in poll-sized steps so shutdown is noticed promptly.
        let mut slept = Duration::ZERO;
        while slept < every && !ctx.shutdown.load(Ordering::SeqCst) {
            let step = POLL_INTERVAL.min(every - slept);
            std::thread::sleep(step);
            slept += step;
        }
        let now = mtime(&path);
        if now.is_some() && now != last {
            last = now;
            let _ = ctx.reload(&path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ScoreReply, ServeClient};
    use harp_data::{DatasetKind, SynthConfig};
    use harpgbdt::{GbdtTrainer, TrainParams};

    /// The gauge is raised before a job is offered to the queue, so a
    /// dispatcher that takes the job at once can never lower it first. With
    /// the window at zero every admission races the dispatcher; a sampler
    /// spinning on the gauge meanwhile must never read more than the jobs
    /// that can be outstanding — the channel bound plus one per client (a
    /// wrapped gauge reads ≈ 1.8·10¹⁹) — and the gauge ends at zero, a shed
    /// job included.
    #[test]
    fn queue_depth_gauge_never_wraps_under_immediate_dispatch() {
        const CLIENTS: usize = 4;
        const REQUESTS: usize = 1_500;
        let data = SynthConfig::new(DatasetKind::HiggsLike, 3).with_scale(0.005).generate();
        let params =
            TrainParams { n_trees: 2, tree_size: 2, n_threads: 1, ..TrainParams::default() };
        let forest = GbdtTrainer::new(params).expect("valid").train(&data).model.compile();
        let n_cols = forest.n_features() as u32;
        let cfg = ServeConfig { window_us: 0, queue_depth: 2, ..ServeConfig::default() };
        let bound = (cfg.queue_depth + CLIENTS) as u64;
        let mut h = serve(forest, cfg).expect("start server");
        let addr = h.local_addr();

        let done = Arc::new(AtomicBool::new(false));
        let sampler = {
            let (ctx, done) = (Arc::clone(&h.ctx), Arc::clone(&done));
            std::thread::spawn(move || {
                let mut max = 0u64;
                while !done.load(Ordering::Relaxed) {
                    max = max.max(ctx.stats.queue_depth.load(Ordering::Relaxed));
                }
                max
            })
        };
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                std::thread::spawn(move || {
                    let mut client = ServeClient::connect(addr).expect("connect");
                    for i in 0..REQUESTS {
                        let row = (0..n_cols).map(|f| ((c + i) as u32 ^ f) as f32 / 7.0).collect();
                        match client.score_dense(n_cols, row).expect("io") {
                            ScoreReply::Scores { .. } => {}
                            ScoreReply::Rejected { code: ErrorCode::Overloaded, .. } => {}
                            other => panic!("unexpected reply {other:?}"),
                        }
                    }
                })
            })
            .collect();
        for client in clients {
            client.join().expect("client panicked");
        }
        done.store(true, Ordering::Relaxed);
        let max = sampler.join().expect("sampler panicked");
        assert!(max <= bound, "queue_depth gauge read {max}, bound {bound}");
        assert_eq!(h.snapshot().queue_depth, Some(0));
        h.shutdown();
        h.wait();
    }
}
