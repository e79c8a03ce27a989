//! The event-driven serving engine: readiness-polled reactor shards.
//!
//! Each reactor thread owns a `SO_REUSEPORT` listener (the kernel
//! shards accepts across them), an epoll instance, and every connection
//! it ever accepted — a connection is pinned to its reactor for life,
//! so per-connection session state needs no locks and no `Send`. An
//! idle connection costs one registered fd plus a few kilobytes of
//! buffers, not a pinned thread: tens of thousands of idle clients are
//! a slab of dormant state machines, and the reactor sleeps in
//! `epoll_wait` until one of them stirs.
//!
//! A connection is a small state machine ([`Conn`]): a non-blocking
//! socket, a push-parser read accumulator ([`FrameBuf`]), a pending
//! response queue, and an owned write buffer. Requests that need other
//! threads — predictions through the shard's micro-batcher, synthesis
//! and simulation through the worker pool — are submitted with a
//! completion callback that posts to the reactor's [`Mailbox`] and
//! wakes its poller (an eventfd); the reactor never blocks on an
//! answer. Responses are written strictly in request order: a pending
//! slot resolves out of order, but replies (and the per-session
//! reconfiguration decisions, which are order-sensitive) are finalized
//! only from the queue head, so pipelined clients observe the same
//! replies and decisions as a client that waits for each answer.
//!
//! Backpressure is per-connection and never global: a client that
//! stops reading fills its own write buffer to a high-water mark, at
//! which point the reactor stops *reading* from it (TCP pushes back)
//! while every other connection proceeds. Overload beyond the shared
//! admission bound sheds with `Overloaded`.
//!
//! Drain: when shutdown begins every reactor closes its listener,
//! stops reading, answers everything already admitted, flushes, and
//! exits; a peer that will not drain its socket is cut off after a
//! bounded grace period so shutdown cannot hang.

#![cfg(target_os = "linux")]

use crate::metrics::{Endpoint, MetricsRegistry};
use crate::poll::{Event, Poller, Waker};
use crate::protocol::{
    self, BatchReply, ErrorCode, ErrorReply, FrameBuf, Line, OverloadedReply, Request, Response,
    ResponseEnvelope, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use crate::server::{
    run_job, run_predict_gen, run_simulate, validate_group, validate_simulate, ServerState,
};
use crate::state::{PredictOutcome, Session};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Token of the reactor's listener in its poller.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token of the reactor's mailbox waker.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Stop reading from a connection whose unsent output exceeds this.
const OUT_HIGH_WATER: usize = 1 << 20;
/// Resume reading once unsent output drains below this.
const OUT_LOW_WATER: usize = 64 << 10;
/// Stop reading from a connection with this many unanswered requests.
const PENDING_MAX: usize = 256;
/// Read at most this many chunks per readiness event, so one firehose
/// connection cannot starve the rest of the shard (level-triggered
/// epoll re-reports whatever is left).
const READS_PER_WAKE: usize = 8;
/// How long a draining reactor waits for slow peers before cutting
/// them off.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// What a completed asynchronous step carries back to the reactor.
///
/// Sized by `Response::Stats` (see the allow on [`Response`]); one
/// `Done` exists per in-flight completion, so the inline size is moot.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Done {
    /// Batched inference outcomes (Predict / Batch / PredictGen); the
    /// reactor applies the session's reconfiguration policy in request
    /// order at finalize time.
    Outcomes(Vec<PredictOutcome>),
    /// A ready response (Simulate results, errors, overloads).
    Resp(Response),
}

/// One completion, addressed to a connection's pending slot.
pub(crate) struct Completion {
    token: u32,
    generation: u32,
    seq: u64,
    done: Done,
}

/// The reactor's cross-thread inbox: batcher flushes and pool jobs
/// post completions here and wake the poller's eventfd.
pub(crate) struct Mailbox {
    queue: parking_lot::Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Mailbox {
    /// Creates the mailbox and its eventfd waker.
    ///
    /// # Errors
    ///
    /// Propagates eventfd creation failure.
    pub(crate) fn new() -> std::io::Result<Self> {
        Ok(Mailbox { queue: parking_lot::Mutex::new(Vec::new()), waker: Waker::new()? })
    }

    fn post(&self, c: Completion) {
        self.queue.lock().push(c);
        self.waker.wake();
    }

    /// Wakes the owning reactor without a completion (shutdown nudge).
    pub(crate) fn wake(&self) {
        self.waker.wake();
    }

    fn drain_into(&self, out: &mut Vec<Completion>) {
        // Waker first, queue second: a post() landing between the two
        // produces at worst a spurious wakeup, never a lost one.
        self.waker.drain();
        let mut q = self.queue.lock();
        out.append(&mut q);
    }
}

/// Which endpoint a pending slot answers (None for lines that never
/// parsed into a request — those count as errors, not endpoint
/// traffic).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Predict,
    PredictGen,
    Batch,
    Simulate,
    Stats,
    Reload,
    Shutdown,
    Unparsed,
}

impl Kind {
    fn endpoint(self) -> Option<Endpoint> {
        match self {
            Kind::Predict => Some(Endpoint::Predict),
            Kind::PredictGen => Some(Endpoint::PredictGen),
            Kind::Batch => Some(Endpoint::Batch),
            Kind::Simulate => Some(Endpoint::Simulate),
            Kind::Stats => Some(Endpoint::Stats),
            Kind::Reload => Some(Endpoint::Reload),
            Kind::Shutdown => Some(Endpoint::Shutdown),
            Kind::Unparsed => None,
        }
    }
}

/// One not-yet-written response slot, in request order.
struct Pending {
    id: u64,
    kind: Kind,
    started: Instant,
    done: Option<Done>,
}

/// A connection state machine, owned by exactly one reactor.
struct Conn {
    stream: TcpStream,
    generation: u32,
    frame: FrameBuf,
    out: Vec<u8>,
    out_pos: usize,
    session: Option<Session>,
    pending: VecDeque<Pending>,
    /// Sequence number of `pending.front()`; completions address slots
    /// as `seq - head_seq`.
    head_seq: u64,
    next_seq: u64,
    /// Backpressure: output or pipeline bounds exceeded, reads paused.
    paused: bool,
    peer_closed: bool,
    /// Flush what is owed, then close (drain, Shutdown, EOF).
    closing: bool,
    /// The interest set currently registered with the poller.
    reg_read: bool,
    reg_write: bool,
}

impl Conn {
    fn new(stream: TcpStream, generation: u32) -> Self {
        Conn {
            stream,
            generation,
            frame: FrameBuf::new(MAX_LINE_BYTES),
            out: Vec::new(),
            out_pos: 0,
            session: None,
            pending: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            paused: false,
            peer_closed: false,
            closing: false,
            reg_read: true,
            reg_write: false,
        }
    }

    fn unsent(&self) -> usize {
        self.out.len() - self.out_pos
    }

    /// Nothing owed to the peer: every admitted request answered and
    /// written.
    fn drained(&self) -> bool {
        self.pending.is_empty() && self.unsent() == 0
    }

    fn wants_read(&self) -> bool {
        !self.peer_closed && !self.closing && !self.paused
    }

    fn push_pending(&mut self, id: u64, kind: Kind, started: Instant, done: Option<Done>) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending.push_back(Pending { id, kind, started, done });
        seq
    }

    fn resolve(&mut self, seq: u64, done: Done) {
        let idx = seq.wrapping_sub(self.head_seq) as usize;
        if let Some(slot) = self.pending.get_mut(idx) {
            slot.done = Some(done);
        }
    }
}

/// Everything a dispatch needs besides the connection itself.
struct Ctx {
    shard: usize,
    state: Arc<ServerState>,
    mailbox: Arc<Mailbox>,
    metrics: Arc<MetricsRegistry>,
}

/// One reactor shard: poller, listener, mailbox, and its connections.
pub(crate) struct Reactor {
    ctx: Ctx,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: Vec<Option<Conn>>,
    free: Vec<u32>,
    /// Monotone per-shard counter stamped into each accepted connection
    /// so a completion addressed to a closed connection can never reach
    /// the slot's next occupant.
    generation_counter: u32,
    draining: bool,
    drain_deadline: Instant,
}

/// Performs the fallible fd setup for one shard (non-blocking listener,
/// epoll instance, registrations), then spawns its reactor thread. The
/// [`Reactor`] itself is assembled inside the thread: connections carry
/// `!Send` session state, so the type never crosses threads.
///
/// # Errors
///
/// Propagates poller setup or thread-spawn failure; nothing is left
/// running on error.
pub(crate) fn spawn(
    shard: usize,
    listener: TcpListener,
    state: Arc<ServerState>,
    mailbox: Arc<Mailbox>,
) -> std::io::Result<std::thread::JoinHandle<()>> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    poller.add(mailbox.waker.fd(), TOKEN_WAKER, true, false)?;
    std::thread::Builder::new().name(format!("misam-reactor-{shard}")).spawn(move || {
        let metrics = Arc::clone(state.metrics.shard(shard));
        Reactor {
            ctx: Ctx { shard, state, mailbox, metrics },
            poller,
            listener: Some(listener),
            conns: Vec::new(),
            free: Vec::new(),
            generation_counter: 0,
            draining: false,
            drain_deadline: Instant::now(),
        }
        .run()
    })
}

impl Reactor {
    /// Runs the shard until drained shutdown.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::with_capacity(256);
        let mut completions: Vec<Completion> = Vec::new();
        let mut scratch = vec![0u8; 32 << 10];
        loop {
            events.clear();
            let timeout = if self.draining { 50 } else { 500 };
            if self.poller.wait(&mut events, timeout).is_err() {
                // An unusable poller cannot serve; drop everything.
                return;
            }

            if self.ctx.state.stopping.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }

            completions.clear();
            self.ctx.mailbox.drain_into(&mut completions);
            for c in completions.drain(..) {
                let t = c.token as usize;
                let alive = matches!(
                    self.conns.get_mut(t),
                    Some(Some(conn)) if conn.generation == c.generation
                );
                if alive {
                    if let Some(Some(conn)) = self.conns.get_mut(t) {
                        conn.resolve(c.seq, c.done);
                    }
                    self.pump(c.token);
                }
            }

            for ev in events.iter().copied() {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {}
                    token => self.conn_ready(token as u32, ev, &mut scratch),
                }
            }

            if self.draining {
                let expired = Instant::now() >= self.drain_deadline;
                for t in 0..self.conns.len() {
                    let done = match &self.conns[t] {
                        Some(conn) => conn.drained() || expired,
                        None => false,
                    };
                    if done {
                        self.close(t as u32);
                    }
                }
                if self.conns.iter().all(Option::is_none) {
                    return;
                }
            }
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        self.drain_deadline = Instant::now() + DRAIN_GRACE;
        if let Some(l) = self.listener.take() {
            let _ = self.poller.delete(l.as_raw_fd());
        }
        for t in 0..self.conns.len() {
            if let Some(conn) = &mut self.conns[t] {
                conn.closing = true;
            }
            self.sync_interest(t as u32);
        }
    }

    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else { return };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.ctx.metrics.connection_opened();
                    let token = match self.free.pop() {
                        Some(t) => t,
                        None => {
                            self.conns.push(None);
                            (self.conns.len() - 1) as u32
                        }
                    };
                    self.generation_counter = self.generation_counter.wrapping_add(1);
                    let conn = Conn::new(stream, self.generation_counter);
                    if self
                        .poller
                        .add(conn.stream.as_raw_fd(), u64::from(token), true, false)
                        .is_err()
                    {
                        self.ctx.metrics.connection_closed();
                        self.free.push(token);
                        continue;
                    }
                    self.conns[token as usize] = Some(conn);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    fn conn_ready(&mut self, token: u32, ev: Event, scratch: &mut [u8]) {
        let t = token as usize;
        if !matches!(self.conns.get(t), Some(Some(_))) {
            return; // stale event for an already-closed slot
        }
        if (ev.readable || ev.hangup) && !self.read_ready(token, scratch) {
            self.close(token);
            return;
        }
        self.pump(token);
    }

    /// Reads available bytes, parses frames, dispatches requests.
    /// Returns false when the connection must be dropped immediately.
    fn read_ready(&mut self, token: u32, scratch: &mut [u8]) -> bool {
        let t = token as usize;
        for _ in 0..READS_PER_WAKE {
            let conn = self.conns[t].as_mut().expect("checked live");
            if !conn.wants_read() {
                return true;
            }
            match conn.stream.read(scratch) {
                Ok(0) => {
                    conn.peer_closed = true;
                    // A final unterminated line still gets an answer,
                    // as `protocol::read_line` gives it at EOF.
                    if let Some(line) = conn.frame.finish() {
                        self.handle_frame(token, line);
                    }
                    let conn = self.conns[t].as_mut().expect("checked live");
                    conn.closing = true;
                    return true;
                }
                Ok(n) => {
                    conn.frame.push(&scratch[..n]);
                    while let Some(line) = {
                        let conn = self.conns[t].as_mut().expect("checked live");
                        conn.frame.next_line()
                    } {
                        self.handle_frame(token, line);
                        let conn = self.conns[t].as_mut().expect("checked live");
                        if conn.closing {
                            return true; // Shutdown acknowledged: stop parsing
                        }
                    }
                    let conn = self.conns[t].as_mut().expect("checked live");
                    if conn.unsent() > OUT_HIGH_WATER || conn.pending.len() >= PENDING_MAX {
                        conn.paused = true;
                        return true;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        true
    }

    fn handle_frame(&mut self, token: u32, line: Line) {
        let started = Instant::now();
        match line {
            Line::Eof => {}
            Line::Oversized => {
                let resp = Response::Error(ErrorReply {
                    code: ErrorCode::Oversized,
                    message: format!("line exceeds {MAX_LINE_BYTES} bytes"),
                    retryable: false,
                });
                let conn = self.conns[token as usize].as_mut().expect("checked live");
                conn.push_pending(0, Kind::Unparsed, started, Some(Done::Resp(resp)));
            }
            Line::Complete(text) => {
                if text.trim().is_empty() {
                    return;
                }
                self.dispatch(token, &text, started);
            }
        }
    }

    fn dispatch(&mut self, token: u32, text: &str, started: Instant) {
        let t = token as usize;
        let env = match protocol::decode_request(text) {
            Ok(env) => env,
            Err((id, reply)) => {
                let conn = self.conns[t].as_mut().expect("checked live");
                conn.push_pending(
                    id,
                    Kind::Unparsed,
                    started,
                    Some(Done::Resp(Response::Error(reply))),
                );
                return;
            }
        };
        let id = env.id;
        match env.req {
            Request::Predict(p) => {
                self.submit_group(token, id, Kind::Predict, vec![p.features], started);
            }
            Request::Batch(b) => {
                let vectors: Vec<Vec<f64>> = b.items.into_iter().map(|p| p.features).collect();
                self.submit_group(token, id, Kind::Batch, vectors, started);
            }
            Request::PredictGen(spec) => {
                let conn = self.conns[t].as_mut().expect("checked live");
                let generation = conn.generation;
                let seq = conn.push_pending(id, Kind::PredictGen, started, None);
                let prepared = self.ctx.state.model.snapshot();
                let mbox = Arc::clone(&self.ctx.mailbox);
                let tap = self.ctx.state.tap.clone();
                let submitted = self.ctx.state.pool.try_submit(move || {
                    run_job(
                        || run_predict_gen(&prepared, &spec, tap.as_deref()),
                        |out| {
                            let done = match out {
                                Ok(out) => Done::Outcomes(vec![out]),
                                Err(e) => Done::Resp(Response::Error(e)),
                            };
                            mbox.post(Completion { token, generation, seq, done });
                        },
                    );
                });
                if submitted.is_err() {
                    self.shed_pending(token, seq);
                }
            }
            Request::Simulate(req) => {
                if let Some(resp) = validate_simulate(&req) {
                    let conn = self.conns[t].as_mut().expect("checked live");
                    conn.push_pending(id, Kind::Simulate, started, Some(Done::Resp(resp)));
                    return;
                }
                let conn = self.conns[t].as_mut().expect("checked live");
                let generation = conn.generation;
                let seq = conn.push_pending(id, Kind::Simulate, started, None);
                let mbox = Arc::clone(&self.ctx.mailbox);
                let submitted = self.ctx.state.pool.try_submit(move || {
                    run_job(
                        || run_simulate(&req),
                        |out| {
                            let resp = out.map_or_else(Response::Error, Response::Simulate);
                            mbox.post(Completion {
                                token,
                                generation,
                                seq,
                                done: Done::Resp(resp),
                            });
                        },
                    );
                });
                if submitted.is_err() {
                    self.shed_pending(token, seq);
                }
            }
            Request::Stats => {
                let resp = Response::Stats(self.ctx.state.stats());
                let conn = self.conns[t].as_mut().expect("checked live");
                conn.push_pending(id, Kind::Stats, started, Some(Done::Resp(resp)));
            }
            Request::Reload(r) => {
                // Rare and already parse-then-swap, so it runs inline.
                let resp = match self.ctx.state.model.reload_from(&r.path) {
                    Ok(version) => {
                        self.ctx.metrics.reloaded();
                        Response::Reloaded(protocol::ReloadedReply {
                            version,
                            reloads: self.ctx.state.model.reload_count(),
                        })
                    }
                    Err(e) => Response::Error(ErrorReply {
                        code: ErrorCode::ReloadFailed,
                        retryable: e.is_retryable(),
                        message: e.to_string(),
                    }),
                };
                let conn = self.conns[t].as_mut().expect("checked live");
                conn.push_pending(id, Kind::Reload, started, Some(Done::Resp(resp)));
            }
            Request::Shutdown => {
                let conn = self.conns[t].as_mut().expect("checked live");
                conn.push_pending(id, Kind::Shutdown, started, Some(Done::Resp(Response::Bye)));
            }
        }
    }

    /// Predict/Batch: validate, then hand the whole group to this
    /// shard's micro-batcher with a mailbox completion.
    fn submit_group(
        &mut self,
        token: u32,
        id: u64,
        kind: Kind,
        vectors: Vec<Vec<f64>>,
        started: Instant,
    ) {
        let t = token as usize;
        if let Err(resp) = validate_group(&vectors) {
            let conn = self.conns[t].as_mut().expect("checked live");
            conn.push_pending(id, kind, started, Some(Done::Resp(resp)));
            return;
        }
        if vectors.is_empty() {
            let conn = self.conns[t].as_mut().expect("checked live");
            let resp = Response::Batch(BatchReply { items: Vec::new() });
            conn.push_pending(id, kind, started, Some(Done::Resp(resp)));
            return;
        }
        let conn = self.conns[t].as_mut().expect("checked live");
        let generation = conn.generation;
        let seq = conn.push_pending(id, kind, started, None);
        let mbox = Arc::clone(&self.ctx.mailbox);
        let submitted = self.ctx.state.batcher.shard(self.ctx.shard).try_submit_callback(
            vectors,
            Box::new(move |outs| {
                mbox.post(Completion { token, generation, seq, done: Done::Outcomes(outs) });
            }),
        );
        if submitted.is_err() {
            self.shed_pending(token, seq);
        }
    }

    fn shed_pending(&mut self, token: u32, seq: u64) {
        self.ctx.metrics.shed();
        let retry = self.ctx.state.retry_after_ms();
        let conn = self.conns[token as usize].as_mut().expect("checked live");
        conn.resolve(
            seq,
            Done::Resp(Response::Overloaded(OverloadedReply { retry_after_ms: retry })),
        );
    }

    /// Finalizes every ready response at the queue head, writes as much
    /// as the socket accepts, and reconciles poller interest.
    fn pump(&mut self, token: u32) {
        let t = token as usize;
        let Some(Some(_)) = self.conns.get(t) else { return };

        // Finalize in strict request order; session decisions are
        // order-sensitive, so they happen here and nowhere else.
        loop {
            let conn = self.conns[t].as_mut().expect("checked live");
            let ready = matches!(conn.pending.front(), Some(p) if p.done.is_some());
            if !ready {
                break;
            }
            let p = conn.pending.pop_front().expect("checked front");
            conn.head_seq = conn.head_seq.wrapping_add(1);
            let done = p.done.expect("checked done");
            let model = Arc::clone(&self.ctx.state.model);
            let conn = self.conns[t].as_mut().expect("checked live");
            let resp = match done {
                Done::Resp(resp) => resp,
                Done::Outcomes(outs) => {
                    let session =
                        conn.session.get_or_insert_with(|| Session::new(&model.snapshot().bundle));
                    match p.kind {
                        Kind::Batch => Response::Batch(BatchReply {
                            items: outs.iter().map(|o| session.decide(o)).collect(),
                        }),
                        _ => Response::Predict(session.decide(&outs[0])),
                    }
                }
            };
            if matches!(resp, Response::Error(_)) {
                self.ctx.metrics.error();
            }
            if let Some(ep) = p.kind.endpoint() {
                self.ctx.metrics.record(ep, p.started.elapsed().as_nanos() as u64);
            }
            let conn = self.conns[t].as_mut().expect("checked live");
            let env = ResponseEnvelope { v: PROTOCOL_VERSION, id: p.id, resp };
            if protocol::write_line(&mut conn.out, &env).is_err() {
                // Serialization failure is unreachable for our types;
                // drop the connection rather than desync the stream.
                self.close(token);
                return;
            }
            if p.kind == Kind::Shutdown {
                conn.closing = true;
                self.ctx.state.begin_shutdown();
                break;
            }
        }

        // Write until the socket pushes back.
        let conn = self.conns[t].as_mut().expect("checked live");
        while conn.out_pos < conn.out.len() {
            match conn.stream.write(&conn.out[conn.out_pos..]) {
                Ok(0) => {
                    self.close(token);
                    return;
                }
                Ok(n) => conn.out_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close(token);
                    return;
                }
            }
        }
        if conn.out_pos == conn.out.len() && conn.out_pos > 0 {
            conn.out.clear();
            conn.out_pos = 0;
            if conn.out.capacity() > OUT_HIGH_WATER {
                conn.out.shrink_to(OUT_LOW_WATER);
            }
        }
        conn.frame.shrink();

        // Lift backpressure once the peer caught up.
        if conn.paused && conn.unsent() <= OUT_LOW_WATER && conn.pending.len() < PENDING_MAX / 2 {
            conn.paused = false;
        }
        if conn.closing && conn.drained() {
            self.close(token);
            return;
        }
        self.sync_interest(token);
    }

    fn sync_interest(&mut self, token: u32) {
        let t = token as usize;
        let Some(Some(conn)) = self.conns.get_mut(t) else { return };
        let want_read = conn.wants_read();
        let want_write = conn.unsent() > 0;
        if want_read != conn.reg_read || want_write != conn.reg_write {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), u64::from(token), want_read, want_write)
                .is_err()
            {
                self.close(token);
                return;
            }
            let conn = self.conns[t].as_mut().expect("checked live");
            conn.reg_read = want_read;
            conn.reg_write = want_write;
        }
    }

    fn close(&mut self, token: u32) {
        let t = token as usize;
        if let Some(conn) = self.conns[t].take() {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            self.ctx.metrics.connection_closed();
            self.free.push(token);
        }
    }
}
