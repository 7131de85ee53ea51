//! Deterministic fault injection for wall resilience testing.
//!
//! A [`FaultPlan`] scripts exactly what goes wrong, where, and when: client
//! code consults its [`ClientFaults`] at each protocol step and misbehaves
//! on cue. Because the plan is plain data (and the seeded constructor is a
//! pure function of its seed), every failure scenario is reproducible —
//! the degradation/recovery tests in [`crate::cluster`] are ordinary
//! deterministic unit tests, not flaky chaos runs. The wall client's two
//! scripted sends — the slow-loris dribble and the half-frame cut — live
//! here too.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

/// What one display client is scripted to do wrong, read by the client
/// loop at each protocol step: plain data, unset (`None`) unless a test
/// scripted it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientFaults {
    /// Drop the TCP connection upon receiving `Execute { frame }` —
    /// simulates a client crash mid-animation.
    pub(crate) drop_at: Option<u64>,
    /// Sleep this many milliseconds before every reply — simulates a
    /// saturated node; large values trip the server's frame deadline.
    pub(crate) reply_delay_ms: Option<u64>,
    /// Answer `Execute { frame }` with garbage bytes instead of a valid
    /// `FrameDone` — simulates wire corruption / a buggy client build.
    pub(crate) corrupt_at: Option<u64>,
    /// Pretend the first K reconnect attempts fail (flaky network between
    /// the crash and the recovery).
    pub(crate) refused_reconnects: Option<u32>,
    /// Dribble every outbound message one byte at a time with this delay
    /// (milliseconds per byte) — the classic slow-loris: the connection is
    /// alive but a frame never completes within any reasonable deadline.
    pub(crate) slow_loris_ms: Option<u64>,
    /// Cut the connection halfway through sending the message of frame N —
    /// the peer sees a truncated frame, not a clean close.
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

/// The slow-loris send (`ClientFaults::slow_loris_ms`): `framed` goes out
/// one byte every `ms_per_byte` milliseconds, so the frame never completes
/// within the peer's deadline even though the socket is live. Returns the
/// bytes that made it out before the peer (rightly) hung up.
pub(crate) fn dribble(stream: &mut TcpStream, framed: &[u8], ms_per_byte: u64) -> usize {
    for (sent, byte) in framed.iter().enumerate() {
        if stream.write_all(std::slice::from_ref(byte)).is_err() {
            return sent;
        }
        stream.flush().ok();
        std::thread::sleep(Duration::from_millis(ms_per_byte));
    }
    framed.len()
}

/// The torn frame (`ClientFaults::mid_request_disconnect_at`): half of
/// `framed`, then the connection is cut — the peer sees a truncated frame,
/// not a clean close.
pub(crate) fn cut_mid_frame(stream: &mut TcpStream, framed: &[u8]) -> std::io::Result<()> {
    let half = stream.write_all(framed.get(..framed.len() / 2).unwrap_or_default());
    stream.flush().ok();
    stream.shutdown(std::net::Shutdown::Both).ok();
    half
}

/// A scripted failure scenario for a whole wall run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    per_client: BTreeMap<usize, ClientFaults>,
}

impl FaultPlan {
    /// The empty plan: every client behaves.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// The faults scripted for `client` (empty set when unscripted).
    pub fn client(&self, client: usize) -> ClientFaults {
        self.per_client.get(&client).cloned().unwrap_or_default()
    }
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
