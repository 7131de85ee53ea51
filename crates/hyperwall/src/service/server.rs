//! The TCP front-end of the multi-tenant session service.
//!
//! Thread layout (all joined on shutdown):
//!
//! * **accept thread** — owns the listener; spawns one connection thread
//!   per client.
//! * **connection threads** — speak the length-prefixed protocol under
//!   the same total-frame deadlines as the wall (a slow-loris peer trips
//!   [`crate::WallError::Timeout`] instead of wedging the thread),
//!   translate `Request` frames into [`SessionMux::submit`] verdicts, and
//!   drain their session's outbox of `Response` / `Busy` / `RetryAfter`
//!   frames.
//! * **scheduler thread** — ticks the logical round clock: one
//!   [`SessionMux::schedule_round`] per tick feeds the worker queue, one
//!   [`SessionMux::shed_to_watermark`] turns overload into explicit
//!   `RetryAfter` frames (never silent drops).
//! * **worker threads** — execute [`crate::protocol::ServiceWork`] via
//!   [`super::worker::perform`], at degraded quality when the round was
//!   scheduled under overload.

use super::mux::{Admission, MuxConfig, MuxStats, ScheduledRequest, ServiceState, SessionMux};
use super::worker::perform;
use crate::protocol::{
    read_message_idle_bounded, write_message_deadline, Message, RejectReason, ResultQuality,
};
use crate::{Result, WallError};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning of the whole service.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// The mux (admission / scheduling / shedding) tuning.
    pub mux: MuxConfig,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Total-frame I/O deadline for every protocol exchange, ms.
    pub io_deadline_ms: u64,
    /// Scheduler tick, ms (the wall-clock length of one logical round).
    pub round_interval_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            mux: MuxConfig::default(),
            workers: 2,
            io_deadline_ms: 250,
            round_interval_ms: 2,
        }
    }
}

/// Cumulative service counters (beyond [`MuxStats`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct ServiceCounters {
    /// `Response` frames delivered.
    pub responses: u64,
    /// Degraded-quality responses among them.
    pub degraded_responses: u64,
    /// `Busy` advisories sent.
    pub busies: u64,
    /// `RetryAfter` frames sent (rejections + sheds).
    pub retry_afters: u64,
    /// Sessions accepted.
    pub sessions_opened: u64,
    /// Connections dropped for protocol deadline violations (slow-loris,
    /// mid-frame stalls).
    pub deadline_drops: u64,
    /// Connections that ended with an I/O error or EOF.
    pub disconnects: u64,
    /// Messages that could not be delivered because the session's
    /// connection was gone (each is still accounted here, not lost
    /// silently).
    pub undeliverable: u64,
}

/// Final report of a service run.
#[derive(Debug, Clone)]
pub struct ServiceReport {
    pub mux: MuxStats,
    pub counters: ServiceCounters,
    /// Shared regrid-plan cache counters at shutdown.
    pub plan_cache: cdat::plan_cache::CacheStats,
}

#[derive(Debug, Default)]
struct Counters {
    responses: AtomicU64,
    degraded_responses: AtomicU64,
    busies: AtomicU64,
    retry_afters: AtomicU64,
    sessions_opened: AtomicU64,
    deadline_drops: AtomicU64,
    disconnects: AtomicU64,
    undeliverable: AtomicU64,
}

impl Counters {
    fn snapshot(&self) -> ServiceCounters {
        ServiceCounters {
            responses: self.responses.load(Ordering::Relaxed),
            degraded_responses: self.degraded_responses.load(Ordering::Relaxed),
            busies: self.busies.load(Ordering::Relaxed),
            retry_afters: self.retry_afters.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            deadline_drops: self.deadline_drops.load(Ordering::Relaxed),
            disconnects: self.disconnects.load(Ordering::Relaxed),
            undeliverable: self.undeliverable.load(Ordering::Relaxed),
        }
    }
}

#[derive(Debug)]
struct Shared {
    cfg: ServiceConfig,
    mux: Mutex<SessionMux>,
    /// Per-session outboxes: connection threads drain these onto the wire.
    /// The epoch tag identifies which connection registered the sender, so
    /// a finished connection never evicts its reconnect's replacement.
    outboxes: Mutex<HashMap<u64, (u64, mpsc::Sender<Message>)>>,
    conn_epoch: AtomicU64,
    stop: AtomicBool,
    counters: Counters,
}

impl Shared {
    /// Queues `msg` for the session's connection; counts it as
    /// undeliverable when no connection is registered.
    fn post(&self, session: u64, msg: Message) {
        let delivered = {
            let outboxes = self.outboxes.lock();
            match outboxes.get(&session) {
                Some((_, tx)) => tx.send(msg).is_ok(),
                None => false,
            }
        };
        if !delivered {
            self.counters.undeliverable.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// A running service; [`ServiceHandle::shutdown`] stops and joins it.
#[derive(Debug)]
pub struct ServiceHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    scheduler: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Live snapshot of the counters.
    pub fn counters(&self) -> ServiceCounters {
        self.shared.counters.snapshot()
    }

    /// Live snapshot of the mux stats.
    pub fn mux_stats(&self) -> MuxStats {
        self.shared.mux.lock().stats()
    }

    /// Live per-session snapshot.
    pub fn sessions(&self) -> Vec<super::mux::SessionSnapshot> {
        self.shared.mux.lock().snapshot()
    }

    /// Stops every thread and returns the final report.
    pub fn shutdown(self) -> ServiceReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        // nudge the accept loop (it polls with a timeout, but a connect
        // unblocks it immediately)
        let _ = TcpStream::connect(self.addr);
        let _ = self.accept.join();
        let _ = self.scheduler.join();
        for w in self.workers {
            let _ = w.join();
        }
        ServiceReport {
            mux: self.shared.mux.lock().stats(),
            counters: self.shared.counters.snapshot(),
            plan_cache: cdat::plan_cache::global_stats(),
        }
    }
}

/// Starts the service on an OS-assigned loopback port.
pub fn spawn_service(cfg: ServiceConfig) -> Result<ServiceHandle> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let shared = Arc::new(Shared {
        cfg,
        mux: Mutex::new(SessionMux::new(cfg.mux)),
        outboxes: Mutex::new(HashMap::new()),
        conn_epoch: AtomicU64::new(0),
        stop: AtomicBool::new(false),
        counters: Counters::default(),
    });

    let (work_tx, work_rx) = mpsc::channel::<ScheduledRequest>();
    let work_rx = Arc::new(Mutex::new(work_rx));

    let workers: Vec<JoinHandle<()>> = (0..cfg.workers.max(1))
        .map(|_| {
            let shared = Arc::clone(&shared);
            let work_rx = Arc::clone(&work_rx);
            std::thread::spawn(move || worker_loop(&shared, &work_rx))
        })
        .collect();

    let scheduler = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || scheduler_loop(&shared, &work_tx))
    };

    let accept = {
        let shared = Arc::clone(&shared);
        std::thread::spawn(move || accept_loop(&shared, &listener))
    };

    Ok(ServiceHandle { addr, shared, accept, scheduler, workers })
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
                let shared = Arc::clone(shared);
                conns.push(std::thread::spawn(move || {
                    connection_loop(&shared, stream);
                }));
            }
            Err(_) => {
                if shared.stop.load(Ordering::SeqCst) {
                    break;
                }
            }
        }
        // opportunistically reap finished connection threads
        conns.retain(|h| !h.is_finished());
    }
    for h in conns {
        let _ = h.join();
    }
}

fn scheduler_loop(shared: &Arc<Shared>, work_tx: &mpsc::Sender<ScheduledRequest>) {
    let tick = Duration::from_millis(shared.cfg.round_interval_ms.max(1));
    // schedule enough each round to keep every worker busy without letting
    // an unbounded backlog build between mux and workers
    let budget = shared.cfg.workers.max(1) * 2;
    while !shared.stop.load(Ordering::SeqCst) {
        let (picks, notices) = {
            let mut mux = shared.mux.lock();
            let picks = mux.schedule_round(budget);
            let notices = mux.shed_to_watermark();
            (picks, notices)
        };
        for n in notices {
            shared.counters.retry_afters.fetch_add(1, Ordering::Relaxed);
            shared.post(
                n.session,
                Message::RetryAfter {
                    session_id: n.session,
                    request: n.request,
                    retry_after_ms: n.retry_after_ms,
                    reason: RejectReason::Shed,
                },
            );
        }
        for p in picks {
            if work_tx.send(p).is_err() {
                return;
            }
        }
        std::thread::sleep(tick);
    }
}

fn worker_loop(shared: &Arc<Shared>, work_rx: &Arc<Mutex<mpsc::Receiver<ScheduledRequest>>>) {
    loop {
        // Poll under the lock, never block under it: holding the receiver
        // guard across a timed recv would serialize the whole worker pool
        // behind one sleeping thread (and is exactly what the
        // guard_across_blocking lint rejects). Empty queue → sleep with the
        // guard dropped.
        let next = {
            let rx = work_rx.lock();
            rx.try_recv()
        };
        match next {
            Ok(p) => {
                let quality =
                    if p.degraded { ResultQuality::Degraded } else { ResultQuality::Full };
                match perform(&p.work, quality) {
                    Ok(outcome) => {
                        shared.counters.responses.fetch_add(1, Ordering::Relaxed);
                        if p.degraded {
                            shared.counters.degraded_responses.fetch_add(1, Ordering::Relaxed);
                        }
                        shared.post(
                            p.session,
                            Message::Response {
                                session_id: p.session,
                                request: p.request,
                                quality,
                                digest: outcome.digest,
                                compute_ms: outcome.compute_ms,
                            },
                        );
                    }
                    Err(_) => {
                        // a failed execution is still answered, never dropped
                        shared.counters.retry_afters.fetch_add(1, Ordering::Relaxed);
                        shared.post(
                            p.session,
                            Message::RetryAfter {
                                session_id: p.session,
                                request: p.request,
                                retry_after_ms: shared.cfg.mux.round_ms.max(1) * 4,
                                reason: RejectReason::Shed,
                            },
                        );
                    }
                }
            }
            Err(mpsc::TryRecvError::Empty) => {
                if shared.stop.load(Ordering::SeqCst) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(mpsc::TryRecvError::Disconnected) => return,
        }
    }
}

fn connection_loop(shared: &Arc<Shared>, mut stream: TcpStream) {
    stream.set_nodelay(true).ok();
    let io_deadline = Duration::from_millis(shared.cfg.io_deadline_ms.max(1));
    let slice = Duration::from_millis(1);
    let max_idle = Duration::from_millis(2);

    // handshake: the first frame must be SessionOpen, under the same
    // total-frame deadline as everything else (a slow-loris opener is
    // dropped right here)
    let session = match read_message_idle_bounded(
        &mut stream,
        slice,
        io_deadline,
        Duration::from_millis(shared.cfg.io_deadline_ms.max(1) * 4),
        "SessionOpen",
    ) {
        Ok(Some(Message::SessionOpen { session_id })) => session_id,
        Ok(Some(_)) | Ok(None) => {
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(WallError::Timeout(_)) => {
            shared.counters.deadline_drops.fetch_add(1, Ordering::Relaxed);
            return;
        }
        Err(_) => {
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            return;
        }
    };

    let verdict = shared.mux.lock().open_session(session);
    match verdict {
        Admission::Enqueued { .. } => {
            shared.counters.sessions_opened.fetch_add(1, Ordering::Relaxed);
            let _ = write_message_deadline(
                &mut stream,
                &Message::SessionAccepted { session_id: session },
                io_deadline,
                "SessionAccepted",
            );
        }
        Admission::Rejected { reason, retry_after_ms } => {
            shared.counters.retry_afters.fetch_add(1, Ordering::Relaxed);
            let _ = write_message_deadline(
                &mut stream,
                &Message::RetryAfter { session_id: session, request: 0, retry_after_ms, reason },
                io_deadline,
                "RetryAfter",
            );
            return;
        }
    }

    // register (or replace, on reconnect) the session outbox
    let epoch = shared.conn_epoch.fetch_add(1, Ordering::SeqCst);
    let (tx, rx) = mpsc::channel::<Message>();
    shared.outboxes.lock().insert(session, (epoch, tx));

    loop {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        // drain pending outbound frames first: responses must not wait
        // behind an idle read
        let mut write_failed = false;
        while let Ok(msg) = rx.try_recv() {
            if write_message_deadline(&mut stream, &msg, io_deadline, "service reply").is_err() {
                write_failed = true;
                break;
            }
        }
        if write_failed {
            shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
            break;
        }
        match read_message_idle_bounded(&mut stream, slice, io_deadline, max_idle, "service frame")
        {
            Ok(None) => continue,
            Ok(Some(Message::Request { session_id, request, work })) => {
                if session_id != session {
                    continue;
                }
                let verdict = shared.mux.lock().submit(session, request, work);
                match verdict {
                    Admission::Enqueued { queue_depth, state } => {
                        if state != ServiceState::Healthy {
                            let hint = shared.mux.lock().busy_retry_hint(queue_depth);
                            shared.counters.busies.fetch_add(1, Ordering::Relaxed);
                            shared.post(
                                session,
                                Message::Busy {
                                    session_id: session,
                                    queue_depth,
                                    retry_after_ms: hint,
                                },
                            );
                        }
                    }
                    Admission::Rejected { reason, retry_after_ms } => {
                        shared.counters.retry_afters.fetch_add(1, Ordering::Relaxed);
                        shared.post(
                            session,
                            Message::RetryAfter {
                                session_id: session,
                                request,
                                retry_after_ms,
                                reason,
                            },
                        );
                    }
                }
            }
            Ok(Some(Message::SessionClose { session_id })) if session_id == session => {
                shared.mux.lock().close_session(session);
                break;
            }
            Ok(Some(Message::Heartbeat { seq })) => {
                let _ = write_message_deadline(
                    &mut stream,
                    &Message::HeartbeatAck { client_id: session as usize, seq },
                    io_deadline,
                    "HeartbeatAck",
                );
            }
            Ok(Some(_)) => continue,
            Err(WallError::Timeout(_)) => {
                // slow-loris / stalled frame: drop the connection, keep the
                // session (its quota and badness survive a reconnect)
                shared.counters.deadline_drops.fetch_add(1, Ordering::Relaxed);
                break;
            }
            Err(_) => {
                shared.counters.disconnects.fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
    }
    // drop this connection's outbox only if it is still ours (a reconnect
    // may already have replaced it with a newer epoch)
    let mut outboxes = shared.outboxes.lock();
    if outboxes.get(&session).is_some_and(|(e, _)| *e == epoch) {
        outboxes.remove(&session);
    }
    drop(outboxes);
    drop(rx);
}
