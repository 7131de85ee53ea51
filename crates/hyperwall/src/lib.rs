#![forbid(unsafe_code)]
// R1 (DESIGN.md §10): library code returns an error where it could panic;
// a site whose invariant rules the panic out says why in an `#[expect]`.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::allow_attributes_without_reason))]
// Outside `protocol.rs` the raw exchanges are disallowed (`clippy.toml`,
// R3); tests drive them directly over in-memory streams.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

//! # hyperwall — distributed visualization framework (§III.H, Fig 5)
//!
//! Reproduces the NCCS hyperwall deployment: a server node holding the full
//! multi-cell workflow, plus one client node per display. "At execution
//! time the server instance sends edited versions of the workflow to each
//! client node for local execution. Each client workflow consists of one of
//! the cell modules (and all its upstream modules) from the server
//! workflow. The server instance executes a reduced resolution instance of
//! the full workflow, whereas each client instance executes a full
//! resolution 1-cell sub-workflow."
//!
//! The cluster nodes are threads connected by real TCP sockets on loopback
//! (the protocol is identical to what separate hosts would speak):
//!
//! * [`protocol`] — length-prefixed messages with two kinds of body: JSON
//!   for the control messages (workflow assignment, interaction ops, frame
//!   execution, completion reports, heartbeats), a compact binary record
//!   for the two pixel messages. The byte layout is in the module docs.
//!   There is one wire revision and one handshake: every live panel ships
//!   its frames as pixels.
//! * [`frame_delta`] — the pixel transport: dirty-tile deltas with
//!   RLE payloads, hash-guarded all-or-nothing assembly (every tile carries
//!   its hash, and the whole-frame hash is the hash of the tile hashes, so
//!   a delta is checked by reading only the tiles it carries), and keyframe
//!   resync.
//! * [`workflow`] — builds the 15-cell wall workflow and splits it into
//!   per-client sub-workflows with `Pipeline::upstream_subgraph`.
//! * [`server`] / [`client`] — the two node roles.
//! * [`layout`] — wall geometry (the NCCS wall: 5×3 panels).
//! * [`cluster`] — spawns a full loopback wall and reports timings.
//! * [`fault`] — deterministic fault injection for resilience testing.
//!
//! ## Fault tolerance
//!
//! A wall of 15 display nodes has 15 chances per frame for something to go
//! wrong, and a demo in front of an audience cannot stop because one panel
//! died. The fault layer keeps the wall animating through client failures:
//!
//! * **Deadlines everywhere.** Every protocol exchange runs under a read /
//!   write timeout (`protocol::read_message_deadline` and friends), every
//!   message length is capped at [`protocol::MAX_MESSAGE_BYTES`], and the
//!   server can interleave [`protocol::Message::Heartbeat`] probes to
//!   detect silent clients between frames.
//! * **Panel states, `Live → Degraded → Live`.** A panel is one value with
//!   two arms: `Live(link)` — the link owns the socket and the panel's
//!   frame assembler — or `Degraded`, which owns the retry schedule ([`server::PanelState`] is
//!   the public view of which arm it is). When a client misses its frame
//!   deadline, disconnects, or answers garbage, the server degrades that
//!   panel and substitutes its own low-res mirror render of the same cell,
//!   so the wall keeps animating (at worse quality on one panel) instead of
//!   freezing. A client is admitted by one path, the first time and after a
//!   crash alike — hello (which panel it serves, at the one wire revision;
//!   the link's assembler is built here) → offer (its stored
//!   `AssignWorkflow`) → confirm (`Ready`, then the interaction-op log it
//!   missed). Degraded panels are retried
//!   with capped exponential backoff: the server polls its listener each
//!   frame and runs that path on whoever dials in. The number of panels is
//!   fixed when the server is bound; `accept_clients` and
//!   `assign_workflows` refuse an argument that disagrees with it.
//! * **Reproducible failure.** [`fault::FaultPlan`] injects failures
//!   deterministically (drop at frame N, delayed replies, corrupt bytes,
//!   refused reconnects), so every degradation/recovery path has an exact,
//!   seedable test.
//!
//! Degradation is accounted for in [`cluster::WallRunReport`]:
//! `degraded_frames`, `reconnects` and `deadline_misses` quantify how much
//! of a run the audience saw at mirror quality.

pub mod client;
pub mod cluster;
pub mod fault;
pub mod frame_delta;
pub mod layout;
pub mod protocol;
pub mod server;
pub mod workflow;

/// Errors raised by hyperwall operations.
///
/// Marked `#[non_exhaustive]`: fault-tolerance work grows this enum (e.g.
/// [`WallError::Timeout`]) without that being a breaking change.
#[derive(Debug)]
#[non_exhaustive]
pub enum WallError {
    Io(std::io::Error),
    Protocol(String),
    Workflow(vistrails::WfError),
    Render(String),
    /// A protocol exchange missed its deadline.
    Timeout(String),
    /// An operation addressed a panel that is currently degraded.
    Degraded { panel: usize, reason: String },
    /// A frame-delta transport message was rejected (corrupt payload,
    /// stale epoch, sequence gap); the inner error says why and is
    /// surfaced through `source()`.
    Delta(frame_delta::DeltaError),
}

impl std::fmt::Display for WallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WallError::Io(e) => write!(f, "io: {e}"),
            WallError::Protocol(m) => write!(f, "protocol: {m}"),
            WallError::Workflow(e) => write!(f, "workflow: {e}"),
            WallError::Render(m) => write!(f, "render: {m}"),
            WallError::Timeout(m) => write!(f, "timeout: {m}"),
            WallError::Degraded { panel, reason } => {
                write!(f, "panel {panel} degraded: {reason}")
            }
            WallError::Delta(e) => write!(f, "frame delta: {e}"),
        }
    }
}

impl std::error::Error for WallError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WallError::Io(e) => Some(e),
            WallError::Workflow(e) => Some(e),
            WallError::Delta(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WallError {
    fn from(e: std::io::Error) -> Self {
        WallError::Io(e)
    }
}

impl From<vistrails::WfError> for WallError {
    fn from(e: vistrails::WfError) -> Self {
        WallError::Workflow(e)
    }
}

impl From<frame_delta::DeltaError> for WallError {
    fn from(e: frame_delta::DeltaError) -> Self {
        WallError::Delta(e)
    }
}

impl From<dv3d::Dv3dError> for WallError {
    fn from(e: dv3d::Dv3dError) -> Self {
        match e {
            // a workflow failure met while building a cell stays typed
            dv3d::Dv3dError::Workflow(e) => WallError::Workflow(e),
            other => WallError::Render(other.to_string()),
        }
    }
}

/// Convenient result alias.
pub type Result<T> = std::result::Result<T, WallError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_source_forwards_inner_errors() {
        use std::error::Error;
        let io: WallError =
            std::io::Error::new(std::io::ErrorKind::ConnectionReset, "peer gone").into();
        assert!(io.source().is_some());
        let wf: WallError = vistrails::WfError::NotFound("module".into()).into();
        assert!(wf.source().is_some());
        let proto = WallError::Protocol("bad".into());
        assert!(proto.source().is_none());
        let delta: WallError = frame_delta::DeltaError::NotSynced.into();
        assert!(delta.to_string().contains("frame delta"));
        let chained: WallError =
            frame_delta::DeltaError::Codec(frame_delta::CodecError::ZeroRun { at: 0 }).into();
        assert!(chained.source().and_then(|e| e.source()).is_some());
        let timeout = WallError::Timeout("FrameDone".into());
        assert!(timeout.source().is_none());
    }

    #[test]
    fn error_display_covers_new_variants() {
        let t = WallError::Timeout("read".into());
        assert!(t.to_string().contains("timeout"));
        let d = WallError::Degraded { panel: 4, reason: "disconnect".into() };
        assert!(d.to_string().contains("panel 4"));
    }
}
