//! The session client — the tenant side of the service protocol — plus
//! deterministic misbehavior helpers driven by [`crate::fault::FaultPlan`]
//! (slow-loris, mid-request disconnects, reconnect storms, quota storms)
//! so overload tests script abuse exactly.

use crate::fault::{cut_mid_frame, dribble, ClientFaults};
use crate::protocol::{
    encode_frame, read_message_deadline, read_message_idle_bounded, write_message_deadline,
    Message, ServiceWork,
};
use crate::{Result, WallError};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// What one closed-loop client run observed.
#[derive(Debug, Clone, Default)]
pub struct ClientRunStats {
    /// Request→response latencies, ms, in completion order.
    pub latencies_ms: Vec<f64>,
    /// Full-quality responses.
    pub full_responses: u64,
    /// Degraded-quality responses.
    pub degraded_responses: u64,
    /// `RetryAfter` frames received (rejections and sheds).
    pub retry_afters: u64,
    /// `Busy` advisories received.
    pub busies: u64,
    /// Requests that timed out waiting for any reply.
    pub timeouts: u64,
}

impl ClientRunStats {
    /// The p-th latency percentile (p in [0, 100]); `None` when empty.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        if self.latencies_ms.is_empty() {
            return None;
        }
        let mut sorted = self.latencies_ms.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        sorted.get(idx.min(sorted.len() - 1)).copied()
    }

    /// Every request was answered (response, retry-after, or counted
    /// timeout) — the client-side view of "no silent drops".
    pub fn answered(&self) -> u64 {
        self.full_responses + self.degraded_responses + self.retry_afters
    }
}

/// A connected, accepted session.
#[derive(Debug)]
pub struct ServiceClient {
    stream: TcpStream,
    session_id: u64,
    io_deadline: Duration,
}

impl ServiceClient {
    /// Connects and opens `session_id`. An admission rejection surfaces as
    /// [`WallError::Overloaded`].
    pub fn connect(addr: SocketAddr, session_id: u64, io_deadline: Duration) -> Result<ServiceClient> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        write_message_deadline(
            &mut stream,
            &Message::SessionOpen { session_id },
            io_deadline,
            "SessionOpen",
        )?;
        match read_message_deadline(&mut stream, io_deadline, "SessionAccepted")? {
            Message::SessionAccepted { .. } => {
                Ok(ServiceClient { stream, session_id, io_deadline })
            }
            Message::RetryAfter { retry_after_ms, .. } => {
                Err(WallError::Overloaded { retry_after_ms })
            }
            other => Err(WallError::Protocol(format!("unexpected handshake reply: {other:?}"))),
        }
    }

    /// The session id.
    pub fn session_id(&self) -> u64 {
        self.session_id
    }

    /// Sends one request (fire-and-forget; replies arrive via [`Self::poll`]).
    pub fn send_request(&mut self, request: u64, work: ServiceWork) -> Result<()> {
        write_message_deadline(
            &mut self.stream,
            &Message::Request { session_id: self.session_id, request, work },
            self.io_deadline,
            "Request",
        )
    }

    /// Waits up to `max_idle` for the next frame; `Ok(None)` when the
    /// service stayed silent.
    pub fn poll(&mut self, max_idle: Duration) -> Result<Option<Message>> {
        read_message_idle_bounded(
            &mut self.stream,
            Duration::from_millis(1),
            self.io_deadline,
            max_idle,
            "service reply",
        )
    }

    /// Closes the session politely.
    pub fn close(mut self) -> Result<()> {
        write_message_deadline(
            &mut self.stream,
            &Message::SessionClose { session_id: self.session_id },
            self.io_deadline,
            "SessionClose",
        )
    }

    /// Runs a closed loop: submit one request, wait for its outcome
    /// (`Response` or `RetryAfter`), pacing by `gap` between submissions.
    /// A `RetryAfter` is honored by sleeping the hinted backoff (capped at
    /// 50 ms to bound test time) without resubmitting — the rejection
    /// itself is the recorded outcome.
    pub fn run_closed_loop(
        &mut self,
        works: &[ServiceWork],
        reply_timeout: Duration,
        gap: Duration,
    ) -> ClientRunStats {
        let mut stats = ClientRunStats::default();
        for (i, work) in works.iter().enumerate() {
            let request = i as u64;
            let sent = Instant::now();
            if self.send_request(request, work.clone()).is_err() {
                stats.timeouts += 1;
                break;
            }
            let mut settled = false;
            while sent.elapsed() < reply_timeout {
                match self.poll(Duration::from_millis(5)) {
                    Ok(Some(Message::Response { request: r, quality, .. })) if r == request => {
                        stats.latencies_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                        match quality {
                            crate::protocol::ResultQuality::Degraded => {
                                stats.degraded_responses += 1
                            }
                            _ => stats.full_responses += 1,
                        }
                        settled = true;
                        break;
                    }
                    Ok(Some(Message::RetryAfter { request: r, retry_after_ms, .. }))
                        if r == request =>
                    {
                        stats.retry_afters += 1;
                        std::thread::sleep(Duration::from_millis(retry_after_ms.min(50)));
                        settled = true;
                        break;
                    }
                    Ok(Some(Message::Busy { retry_after_ms, .. })) => {
                        stats.busies += 1;
                        std::thread::sleep(Duration::from_millis(retry_after_ms.min(20)));
                    }
                    // stale frames for earlier requests (e.g. late sheds)
                    Ok(Some(_)) => {}
                    Ok(None) => {}
                    Err(_) => {
                        stats.timeouts += 1;
                        return stats;
                    }
                }
            }
            if !settled {
                stats.timeouts += 1;
            }
            if !gap.is_zero() {
                std::thread::sleep(gap);
            }
        }
        stats
    }

    /// Floods `n` requests without waiting for any reply (the misbehaving
    /// open-loop client). Returns how many submissions hit the wire.
    pub fn flood(&mut self, n: u64, work: &ServiceWork) -> u64 {
        for i in 0..n {
            if self.send_request(i, work.clone()).is_err() {
                return i;
            }
        }
        n
    }

    /// Drains replies for up to `window`, counting them. Used after a
    /// flood to verify that every admitted-or-rejected request was
    /// explicitly answered.
    pub fn drain_replies(&mut self, window: Duration) -> ClientRunStats {
        let mut stats = ClientRunStats::default();
        let end = Instant::now() + window;
        while Instant::now() < end {
            match self.poll(Duration::from_millis(5)) {
                Ok(Some(Message::Response { quality, .. })) => match quality {
                    crate::protocol::ResultQuality::Degraded => stats.degraded_responses += 1,
                    _ => stats.full_responses += 1,
                },
                Ok(Some(Message::RetryAfter { .. })) => stats.retry_afters += 1,
                Ok(Some(Message::Busy { .. })) => stats.busies += 1,
                Ok(Some(_)) | Ok(None) => {}
                Err(_) => break,
            }
        }
        stats
    }
}

/// Opens a connection that dribbles its `SessionOpen` one byte every
/// `faults.slow_loris_ms()` milliseconds — the slow-loris attacker. The
/// service must cut it off by frame deadline; returns the bytes that made
/// it out before the peer (rightly) hung up.
pub fn slow_loris_open(addr: SocketAddr, session_id: u64, ms_per_byte: u64) -> Result<usize> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let framed = encode_frame(&Message::SessionOpen { session_id })?;
    Ok(dribble(&mut stream, &framed, ms_per_byte))
}

/// Connects, opens a session, then cuts the connection halfway through a
/// `Request` frame (the mid-request disconnect fault). The service must
/// survive and keep the session accountable.
pub fn disconnect_mid_request(
    addr: SocketAddr,
    session_id: u64,
    io_deadline: Duration,
) -> Result<()> {
    let mut client = ServiceClient::connect(addr, session_id, io_deadline)?;
    let framed = encode_frame(&Message::Request {
        session_id,
        request: 0,
        work: ServiceWork::Analysis { seed: 1, len: 64 },
    })?;
    Ok(cut_mid_frame(&mut client.stream, &framed)?)
}

/// Hammers the service with `attempts` immediate reconnects of the same
/// session id (the thundering-herd fault). Returns how many handshakes
/// were accepted; the mux's idempotent reopen means quota and badness
/// survive every one of them.
pub fn reconnect_storm(
    addr: SocketAddr,
    session_id: u64,
    attempts: u32,
    io_deadline: Duration,
) -> u32 {
    let mut accepted = 0;
    for _ in 0..attempts {
        if let Ok(c) = ServiceClient::connect(addr, session_id, io_deadline) {
            accepted += 1;
            drop(c); // drop without SessionClose: the rude disconnect
        }
    }
    accepted
}

/// Scripts a misbehaving client from its [`ClientFaults`] (query
/// `plan.client(session_id as usize)`): a quota storm when scripted,
/// otherwise slow-loris / mid-request disconnect / reconnect storm /
/// plain closed loop. Returns the run stats (for storm clients, the
/// flood + drained replies).
pub fn run_faulted_client(
    addr: SocketAddr,
    session_id: u64,
    faults: &ClientFaults,
    works: &[ServiceWork],
    io_deadline: Duration,
) -> Result<ClientRunStats> {
    let storm = faults.quota_storm();
    if storm > 0 {
        let mut client = ServiceClient::connect(addr, session_id, io_deadline)?;
        let work = works
            .first()
            .cloned()
            .unwrap_or(ServiceWork::Analysis { seed: session_id, len: 64 });
        client.flood(u64::from(storm), &work);
        let stats = client.drain_replies(Duration::from_millis(300));
        client.close().ok();
        return Ok(stats);
    }
    let loris = faults.slow_loris_ms();
    if loris > 0 {
        slow_loris_open(addr, session_id, loris)?;
        return Ok(ClientRunStats::default());
    }
    if faults.mid_request_disconnect_at().is_some() {
        disconnect_mid_request(addr, session_id, io_deadline)?;
        return Ok(ClientRunStats::default());
    }
    let herd = faults.reconnect_storm();
    if herd > 0 {
        reconnect_storm(addr, session_id, herd, io_deadline);
        return Ok(ClientRunStats::default());
    }
    let mut client = ServiceClient::connect(addr, session_id, io_deadline)?;
    let stats = client.run_closed_loop(works, Duration::from_secs(2), Duration::ZERO);
    client.close().ok();
    Ok(stats)
}
