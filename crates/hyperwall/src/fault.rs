//! Deterministic fault injection for wall resilience testing.
//!
//! Faults are injected from outside the code under test, as
//! `cdms::storage::FaultyStorage` wraps the `Storage` trait: the client's
//! message loop has no fault branch, and in tests `FaultyLink` wraps its TCP
//! link and plays a [`ClientFaults`] script on it message by message. A
//! [`FaultPlan`] says which client plays which script; the plan is plain
//! data and the seeded plans are pure functions of their seed, so the
//! degradation/recovery tests in [`crate::cluster`] are ordinary
//! deterministic unit tests, not flaky chaos runs.
//!
//! Only tests script faults: outside them both types have no field,
//! [`FaultPlan::client`] hands out the empty script, and the link it is
//! played on is the TCP link itself.

use crate::Result;
use std::net::TcpStream;

/// What one display client is scripted to do wrong. Only tests script
/// faults: outside them the script is empty.
#[cfg(not(test))]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientFaults {}

#[cfg(not(test))]
impl ClientFaults {
    /// The link client `_id` plays this script on: the TCP link itself,
    /// since there is nothing to play.
    pub(crate) fn link(self, stream: TcpStream, _id: usize) -> Result<TcpStream> {
        Ok(stream)
    }
}

/// A scripted failure scenario for a whole wall run. Only tests script
/// faults: outside them every plan is the empty one.
#[cfg(not(test))]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {}

impl FaultPlan {
    /// The empty plan: every client behaves.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }
}

#[cfg(not(test))]
impl FaultPlan {
    /// The faults scripted for a client: none.
    pub fn client(&self, _client: usize) -> ClientFaults {
        ClientFaults::default()
    }
}

#[cfg(test)]
use {
    crate::client::{dial, Link},
    crate::protocol::{encode_frame, read_message_deadline, Message},
    crate::WallError,
    std::collections::BTreeMap,
    std::io::Write,
    std::net::SocketAddr,
    std::time::Duration,
};

/// What one display client is scripted to do wrong, played by its
/// [`FaultyLink`]: plain data, unset (`None`) unless a test scripted it.
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientFaults {
    /// Drop the TCP connection upon receiving `Execute { frame }` —
    /// simulates a client crash mid-animation.
    pub(crate) drop_at: Option<u64>,
    /// Sleep this many milliseconds before every reply — simulates a
    /// saturated node; large values trip the server's frame deadline.
    pub(crate) reply_delay_ms: Option<u64>,
    /// Answer `Execute { frame }` with garbage bytes instead of the frame —
    /// simulates wire corruption / a buggy client build.
    pub(crate) corrupt_at: Option<u64>,
    /// Pretend the first K reconnect attempts fail (flaky network between
    /// the crash and the recovery).
    pub(crate) refused_reconnects: Option<u32>,
    /// Dribble every frame's replies one byte at a time with this delay
    /// (milliseconds per byte) — the classic slow-loris: the connection is
    /// alive but a frame never completes within any reasonable deadline.
    pub(crate) slow_loris_ms: Option<u64>,
    /// Cut the connection halfway through sending the pixel message of
    /// frame N, then redial — the peer sees a truncated frame, not a clean
    /// close.
    pub(crate) mid_request_disconnect_at: Option<u64>,
    /// Flip payload bytes inside the `FrameKey` / `FrameDelta` for this
    /// frame before sending — the message still parses, but its content
    /// hashes no longer match; the server must reject it atomically and
    /// request a keyframe resync (never display a torn tile).
    pub(crate) corrupt_delta_at: Option<u64>,
    /// Encode this frame's transport message, then discard it instead of
    /// sending — the server sees `FrameDone` with no pixel content and
    /// must request a resync (the panel stays live; no degradation).
    pub(crate) drop_delta_at: Option<u64>,
    /// `(frame, ms)`: sleep `ms` milliseconds before sending the transport
    /// message of `frame` — a late (but within-deadline) delta must apply
    /// normally; a very late one trips the ordinary frame deadline.
    pub(crate) delay_delta_at: Option<(u64, u64)>,
}

/// A scripted failure scenario for a whole wall run.
#[cfg(test)]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    per_client: BTreeMap<usize, ClientFaults>,
}

/// SplitMix64 — the only randomness of the seeded plans, which are pure
/// functions of their seed.
#[cfg(test)]
struct SplitMix64(u64);

#[cfg(test)]
impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Draws `k` distinct ids below `n` (all `n` when `k` is larger): a
    /// Fisher–Yates prefix over `0..n`.
    fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut ids: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + (self.next() % (n - i) as u64) as usize;
            ids.swap(i, j);
        }
        ids.truncate(k);
        ids
    }
}

/// One scripted misbehaviour, as a test writes it: [`FaultPlan::inject`]
/// sets the matching [`ClientFaults`] field.
#[cfg(test)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Fault {
    DropAtFrame(u64),
    DelayReplies(u64),
    CorruptAtFrame(u64),
    RefuseReconnect(u32),
    SlowLoris(u64),
    MidRequestDisconnect(u64),
    CorruptDeltaAt(u64),
    DropDeltaAt(u64),
    DelayDeltaAt(u64, u64),
}

#[cfg(test)]
impl FaultPlan {
    /// The faults scripted for `client` (empty set when unscripted).
    pub fn client(&self, client: usize) -> ClientFaults {
        self.per_client.get(&client).cloned().unwrap_or_default()
    }

    /// Scripts a fault for one client. Chainable. A field already scripted
    /// keeps its first value.
    pub(crate) fn inject(mut self, client: usize, fault: Fault) -> FaultPlan {
        fn first<T>(field: &mut Option<T>, value: T) {
            field.get_or_insert(value);
        }
        let f = self.per_client.entry(client).or_default();
        match fault {
            Fault::DropAtFrame(n) => first(&mut f.drop_at, n),
            Fault::DelayReplies(ms) => first(&mut f.reply_delay_ms, ms),
            Fault::CorruptAtFrame(n) => first(&mut f.corrupt_at, n),
            Fault::RefuseReconnect(k) => first(&mut f.refused_reconnects, k),
            Fault::SlowLoris(ms) => first(&mut f.slow_loris_ms, ms),
            Fault::MidRequestDisconnect(n) => first(&mut f.mid_request_disconnect_at, n),
            Fault::CorruptDeltaAt(n) => first(&mut f.corrupt_delta_at, n),
            Fault::DropDeltaAt(n) => first(&mut f.drop_delta_at, n),
            Fault::DelayDeltaAt(n, ms) => first(&mut f.delay_delta_at, (n, ms)),
        }
        self
    }

    /// Clients with at least one scripted fault: those `inject` named.
    pub(crate) fn faulty_clients(&self) -> Vec<usize> {
        self.per_client.keys().copied().collect()
    }

    /// A seeded random crash: picks one victim client and one crash frame
    /// deterministically from `seed` (SplitMix64), with `refusals` flaky
    /// reconnect attempts. Same seed → same scenario, always.
    pub(crate) fn seeded_crash(
        seed: u64,
        n_clients: usize,
        n_frames: u64,
        refusals: u32,
    ) -> FaultPlan {
        assert!(n_clients > 0 && n_frames > 0, "empty wall scenario");
        let mut rng = SplitMix64(seed);
        let victim = (rng.next() % n_clients as u64) as usize;
        let frame = rng.next() % n_frames;
        FaultPlan::none()
            .inject(victim, Fault::DropAtFrame(frame))
            .inject(victim, Fault::RefuseReconnect(refusals))
    }

    /// A seeded frame-delta fault storm: `n_misbehaving` distinct victim
    /// clients are drawn deterministically from `seed` (SplitMix64) and
    /// each is scripted one transport fault — corrupt, drop, or a small
    /// within-deadline delay — at a frame early enough that the keyframe
    /// resync can complete before the run ends. Same seed → same storm.
    pub(crate) fn seeded_delta_storm(
        seed: u64,
        n_clients: usize,
        n_frames: u64,
        n_misbehaving: usize,
    ) -> FaultPlan {
        assert!(n_clients > 0 && n_frames > 0, "empty delta storm scenario");
        let mut rng = SplitMix64(seed);
        // leave at least two frames after the fault for resync + recovery
        let last_fault_frame = n_frames.saturating_sub(3).max(1);
        let mut plan = FaultPlan::none();
        for (k, victim) in rng.distinct(n_clients, n_misbehaving).into_iter().enumerate() {
            let frame = 1 + rng.next() % last_fault_frame;
            let fault = match k % 3 {
                0 => Fault::CorruptDeltaAt(frame),
                1 => Fault::DropDeltaAt(frame),
                _ => Fault::DelayDeltaAt(frame, 5 + rng.next() % 20),
            };
            plan = plan.inject(victim, fault);
        }
        plan
    }
}

/// A client's TCP link playing a [`ClientFaults`] script message by
/// message, keyed by the frame each message names. The loop it serves never
/// learns that a fault fired: the crash and the garbage reply answer
/// `Execute` before the loop sees it, and the other faults act on replies.
#[cfg(test)]
pub(crate) struct FaultyLink {
    stream: TcpStream,
    /// The server, read off the stream, and the panel: whom to redial and
    /// say hello as after a crash.
    server: SocketAddr,
    id: usize,
    /// What is left of the script: a once-only fault goes as it fires.
    script: ClientFaults,
    /// The connection is closed: the rest of the frame is not sent, and the
    /// next command is read on a redialed one.
    closed: bool,
}

#[cfg(test)]
impl ClientFaults {
    /// The link client `id` plays this script on: its TCP link, wrapped.
    pub(crate) fn link(self, stream: TcpStream, id: usize) -> Result<FaultyLink> {
        Ok(FaultyLink { server: stream.peer_addr()?, stream, id, script: self, closed: false })
    }
}

#[cfg(test)]
impl FaultyLink {
    /// Closes the socket now, so that the server sees a dead peer, not a
    /// slow one, while the client redials.
    fn hang_up(&mut self) {
        self.stream.shutdown(std::net::Shutdown::Both).ok();
        self.closed = true;
    }

    /// Redials the server and says hello, the first `refused_reconnects`
    /// attempts failing as on a flaky network; gives up after 40.
    fn redial(&mut self) -> Result<()> {
        for attempt in 0u64..40 {
            std::thread::sleep(Duration::from_millis(5 * (attempt + 1).min(10)));
            match self.script.refused_reconnects.as_mut() {
                Some(refusals) if *refusals > 0 => *refusals -= 1,
                _ => {
                    if let Ok(stream) = dial(self.server, self.id) {
                        (self.stream, self.closed) = (stream, false);
                        return Ok(());
                    }
                }
            }
        }
        Err(WallError::Protocol(format!("client {} gave up redialing", self.id)))
    }
}

/// Takes a once-only fault out of the script when it is due at `frame`.
#[cfg(test)]
fn fires(fault: &mut Option<u64>, frame: u64) -> bool {
    fault.take_if(|at| *at == frame).is_some()
}

#[cfg(test)]
impl Link for FaultyLink {
    fn command(&mut self) -> Result<Message> {
        loop {
            let msg = if self.closed {
                self.redial()?;
                // the server may have given this panel up, and a blocking
                // read would hang the client thread forever
                let reassign = Duration::from_secs(2);
                read_message_deadline(&mut self.stream, reassign, "re-AssignWorkflow")?
            } else {
                self.stream.command()?
            };
            let Message::Execute { frame } = msg else { return Ok(msg) };
            if fires(&mut self.script.drop_at, frame) {
                // the crash: vanish without answering
                self.hang_up();
            } else if fires(&mut self.script.corrupt_at, frame) {
                // a plausible length prefix, then 16 bytes that are not a
                // Message
                self.stream.write_all(b"\x10\0\0\0!!not-json-data!")?;
            } else {
                return Ok(msg);
            }
        }
    }

    fn reply(&mut self, msg: &Message) -> Result<()> {
        if self.closed {
            return Ok(());
        }
        if !matches!(msg, Message::FrameDone { .. }) {
            // before Ready, HeartbeatAck and a frame's first message
            let delay = self.script.reply_delay_ms.unwrap_or(0);
            std::thread::sleep(Duration::from_millis(delay));
        }
        if let Message::FrameKey { frame, .. } | Message::FrameDelta { frame, .. } = *msg {
            if let Some((_, ms)) = self.script.delay_delta_at.filter(|&(at, _)| at == frame) {
                std::thread::sleep(Duration::from_millis(ms));
            }
            if fires(&mut self.script.drop_delta_at, frame) {
                // encoded, then discarded: the server gets FrameDone with
                // no pixels and must answer with a ResyncRequest
                return Ok(());
            }
            if fires(&mut self.script.mid_request_disconnect_at, frame) {
                // the torn frame: half the message, then the cut
                let framed = encode_frame(msg)?;
                self.stream.write_all(framed.get(..framed.len() / 2).unwrap_or_default()).ok();
                self.hang_up();
                return Ok(());
            }
            if fires(&mut self.script.corrupt_delta_at, frame) {
                return self.stream.reply(&corrupt_transport(msg.clone()));
            }
        }
        let frame_reply = !matches!(msg, Message::Ready { .. } | Message::HeartbeatAck { .. });
        match self.script.slow_loris_ms {
            // one byte at a time, never within the server's deadline,
            // until the server (rightly) hangs up
            Some(ms @ 1..) if frame_reply => encode_frame(msg)?.iter().try_for_each(|byte| {
                self.stream.write_all(std::slice::from_ref(byte))?;
                std::thread::sleep(Duration::from_millis(ms));
                Ok(())
            }),
            _ => self.stream.reply(msg),
        }
    }
}

/// Flips a payload byte of a transport message (with no payload, its frame
/// hash) so that it still parses as a `Message` but fails its content
/// hashes — the scripted [`Fault::CorruptDeltaAt`] wire corruption.
#[cfg(test)]
fn corrupt_transport(mut msg: Message) -> Message {
    let (byte, frame_hash) = match &mut msg {
        Message::FrameDelta { tiles, frame_hash, .. } => {
            (tiles.first_mut().and_then(|t| t.data.get_mut(1)), frame_hash)
        }
        Message::FrameKey { payload, frame_hash, .. } => (payload.get_mut(1), frame_hash),
        _ => return msg,
    };
    match byte {
        Some(b) => *b ^= 0xA5,
        None => *frame_hash ^= 0xDEAD_BEEF,
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inject_scripts_each_field_and_the_first_value_wins() {
        let plan = FaultPlan::none()
            .inject(2, Fault::DropAtFrame(5))
            .inject(2, Fault::RefuseReconnect(3))
            .inject(2, Fault::DropAtFrame(6))
            .inject(0, Fault::DelayReplies(40))
            .inject(1, Fault::CorruptAtFrame(1))
            .inject(3, Fault::SlowLoris(25))
            .inject(4, Fault::MidRequestDisconnect(3))
            .inject(5, Fault::CorruptDeltaAt(2))
            .inject(6, Fault::DropDeltaAt(4))
            .inject(7, Fault::DelayDeltaAt(3, 15));
        assert_eq!(plan.client(2).drop_at, Some(5));
        assert_eq!(plan.client(2).refused_reconnects, Some(3));
        assert_eq!(plan.client(0).reply_delay_ms, Some(40));
        assert_eq!(plan.client(1).corrupt_at, Some(1));
        assert_eq!(plan.client(3).slow_loris_ms, Some(25));
        assert_eq!(plan.client(4).mid_request_disconnect_at, Some(3));
        assert_eq!(plan.client(5).corrupt_delta_at, Some(2));
        assert_eq!(plan.client(6).drop_delta_at, Some(4));
        assert_eq!(plan.client(7).delay_delta_at, Some((3, 15)));
        // an unscripted client is the all-clear default
        assert_eq!(plan.client(9), ClientFaults::default());
        assert_eq!(plan.faulty_clients(), (0..8).collect::<Vec<_>>());
        assert!(FaultPlan::none().faulty_clients().is_empty());
    }

    #[test]
    fn seeded_delta_storm_is_deterministic_with_room_to_recover() {
        let a = FaultPlan::seeded_delta_storm(11, 6, 10, 4);
        let b = FaultPlan::seeded_delta_storm(11, 6, 10, 4);
        assert_eq!(a, b);
        let victims = a.faulty_clients();
        assert_eq!(victims.len(), 4, "victims must be distinct: {victims:?}");
        assert!(victims.iter().all(|&v| v < 6));
        // every fault lands early enough that resync can complete
        for &v in &victims {
            let f = a.client(v);
            let frame = f
                .corrupt_delta_at
                .or(f.drop_delta_at)
                .or(f.delay_delta_at.map(|(n, _)| n))
                .expect("victim has a delta fault");
            assert!((1..=7).contains(&frame), "fault frame {frame} leaves no recovery room");
        }
        // different seeds explore different storms
        assert_ne!(a, FaultPlan::seeded_delta_storm(12, 6, 10, 4));
        // misbehaving count clamps to the client count
        assert_eq!(FaultPlan::seeded_delta_storm(1, 2, 10, 5).faulty_clients().len(), 2);
    }

    /// The generators' output, recorded before they were put on one
    /// SplitMix64 and one victim draw: a seed names the same scenario it
    /// always did. (The determinism tests compare a plan with itself,
    /// which a changed generator passes.)
    #[test]
    fn seeded_plans_are_pinned() {
        assert_eq!(
            FaultPlan::seeded_crash(7, 3, 8, 2),
            FaultPlan::none()
                .inject(0, Fault::DropAtFrame(4))
                .inject(0, Fault::RefuseReconnect(2))
        );
        assert_eq!(
            FaultPlan::seeded_delta_storm(5, 3, 10, 2),
            FaultPlan::none()
                .inject(1, Fault::DropDeltaAt(3))
                .inject(2, Fault::CorruptDeltaAt(3))
        );
    }

    #[test]
    fn seeded_crash_is_deterministic_and_in_range() {
        let a = FaultPlan::seeded_crash(42, 15, 8, 2);
        let b = FaultPlan::seeded_crash(42, 15, 8, 2);
        assert_eq!(a, b);
        let victims = a.faulty_clients();
        assert_eq!(victims.len(), 1);
        assert!(victims[0] < 15);
        let faults = a.client(victims[0]);
        assert!(faults.drop_at.unwrap() < 8);
        assert_eq!(faults.refused_reconnects, Some(2));
        // different seeds explore different scenarios
        let scenarios: std::collections::BTreeSet<_> = (0..32)
            .map(|s| {
                let p = FaultPlan::seeded_crash(s, 15, 8, 0);
                let v = p.faulty_clients()[0];
                (v, p.client(v).drop_at.unwrap())
            })
            .collect();
        assert!(scenarios.len() > 5, "seeds barely vary: {scenarios:?}");
    }
}
