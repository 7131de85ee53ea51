//! The server (control) node: owns the full workflow, ships sub-workflows
//! to clients, keeps a reduced-resolution mirror cell of every panel, and
//! propagates the user's interaction ops to the wall.
//!
//! The server is the fault-tolerance anchor (see the crate docs): every
//! client exchange runs under a deadline, a failing client degrades its
//! panel instead of stopping the wall, degraded panels are served from the
//! server's own low-res mirror, and reconnecting clients are admitted
//! again with capped exponential backoff and promoted back to live.
//!
//! Each cell is rendered once a frame. A live panel's client renders it;
//! the server renders a mirror cell only for a panel it serves itself (a
//! degraded one), and the touchscreen mosaic box-filters the frames the
//! live panels sent. Every mirror cell still takes every op, so a panel
//! that degrades is mirrored at once. Every copy of a panel's cell — the
//! client's, the mirror's, the one a reconnected client rebuilds — frames
//! its camera when it is built, before any op, so one op log shows one view.
//!
//! A panel is one value with two arms: `Live(link)`, where the link owns
//! the socket and the panel's frame assembler; or `Degraded`, which owns
//! the retry schedule. There is no live panel without a socket to handle,
//! and none without an assembler: every client ships pixels. The link has
//! the server's only send and receive (`send_msg`, `recv_msg`); `tell` is
//! "send to panel *i*, degrade it on failure" on top of them. A client is
//! admitted by one path, the first time and after a crash alike: `hello`
//! (which panel it serves; a hello of any revision but `PROTO_DELTA` is
//! refused, and the assembler is built at the bound panel size) → `offer`
//! (its stored assignment) → `confirm` (`Ready`, then the op log). The
//! number of panels is the number of cells the server was bound with; the
//! calls that restate it ([`HyperwallServer::accept_clients`],
//! [`HyperwallServer::assign_workflows`]) are refused when they disagree.
//!
//! What deliberately stays as it was: every deadline and cap; heartbeats;
//! `MAX_TRANSPORT_PER_FRAME`; a rejected delta is answered with a resync
//! request, never a degradation; the op log is unbounded but paced by the
//! operator (the comment at its push says why). A hot-path file that denies
//! `clippy::indexing_slicing`: panel ids arrive in a client's `Hello` and per-panel state is
//! looked up inside every frame, so access goes through `.get()` and
//! iterators.

// Hot path: per-panel state is indexed by ids from a client's `Hello`, every frame.
#![cfg_attr(not(test), deny(clippy::indexing_slicing))]

use crate::frame_delta::{box_filter, FrameAssembler};
use crate::protocol::{
    read_message_deadline, read_message_deadline_sized, write_message_deadline, Message,
    PROTO_DELTA,
};
use crate::workflow::{
    cell_from_plot_stage, split_per_client, wall_registry, CellChain, WallWorkflowConfig,
};
use crate::{Result, WallError};
use dv3d::cell::Dv3dCell;
use dv3d::interaction::ConfigOp;
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use vistrails::executor::Executor;
use vistrails::pipeline::Pipeline;

/// Health of one wall panel, as `HyperwallServer::panel_states` reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanelState {
    /// The display client renders this panel at full resolution.
    Live,
    /// The client is gone or misbehaving; the server substitutes its own
    /// low-res mirror render so the wall keeps animating.
    Degraded,
}

/// Deadlines and retry policy for the wall.
#[derive(Debug, Clone)]
pub struct WallTuning {
    /// Deadline for handshake exchanges and message sends.
    pub io_deadline: Duration,
    /// Deadline for a client's `FrameDone` after `Execute`.
    pub frame_deadline: Duration,
    /// Base of the reconnect backoff, in frames: a degraded panel is
    /// retried after `base << attempt` frames (capped at 32).
    pub backoff_base_frames: u64,
    /// Reconnect attempts before a panel is left permanently degraded.
    pub max_reconnect_attempts: u32,
    /// How long one reconnect poll keeps the door open for a returning
    /// client before the wall moves on to the next frame.
    pub reconnect_poll: Duration,
}

impl Default for WallTuning {
    fn default() -> WallTuning {
        WallTuning {
            io_deadline: Duration::from_secs(2),
            frame_deadline: Duration::from_secs(5),
            backoff_base_frames: 1,
            max_reconnect_attempts: 5,
            reconnect_poll: Duration::from_millis(100),
        }
    }
}

/// The connection to one display client.
#[derive(Debug)]
struct Link {
    stream: TcpStream,
    /// Receiver half of the delta transport, at the wall's panel size: the
    /// size of every `AssignWorkflow`, so of the client's frames.
    assembler: FrameAssembler,
}

impl Link {
    fn send_msg(&mut self, msg: &Message, deadline: Duration, what: &str) -> Result<()> {
        write_message_deadline(&mut self.stream, msg, deadline, what)
    }

    /// The next message and its size on the wire.
    fn recv_msg(&mut self, deadline: Duration, what: &str) -> Result<(Message, usize)> {
        read_message_deadline_sized(&mut self.stream, deadline, what)
    }

    /// Offers the client its assignment. The client starts a fresh
    /// streamer on it, which opens with a keyframe, and the link's
    /// assembler is as fresh as the link: the two sync from there.
    fn offer(&mut self, assignment: &Message, deadline: Duration) -> Result<()> {
        self.send_msg(assignment, deadline, "AssignWorkflow")
    }

    /// Awaits the client's `Ready`, then replays the op log so that its
    /// cell matches the rest of the wall.
    fn confirm(&mut self, op_log: &[ConfigOp], deadline: Duration) -> Result<()> {
        match self.recv_msg(deadline, "Ready")? {
            (Message::Ready { .. }, _) => {}
            (other, _) => {
                return Err(WallError::Protocol(format!("expected Ready, got {other:?}")))
            }
        }
        for op in op_log {
            self.send_msg(&Message::Op(op.clone()), deadline, "Op replay")?;
        }
        Ok(())
    }
}

/// One wall panel: served by its display client over a live link, or by
/// the server mirror while the client is retried.
#[allow(
    clippy::large_enum_variant,
    reason = "`Live` is every panel's steady state and a wall has a few dozen panels: \
              boxing the link to shrink the rare arm would buy nothing"
)]
#[derive(Debug)]
enum Panel {
    Live(Link),
    Degraded {
        /// Reconnect polls spent on this panel since it degraded.
        attempts: u32,
        /// The frame at which the next poll is due.
        next_retry_frame: u64,
    },
}

impl Panel {
    /// True for a degraded panel that is owed a reconnect poll at `frame`.
    fn retry_due(&self, frame: u64, max_attempts: u32) -> bool {
        matches!(self, Panel::Degraded { attempts, next_retry_frame }
            if *attempts < max_attempts && frame >= *next_retry_frame)
    }

    fn assembler(&self) -> Option<&FrameAssembler> {
        match self {
            Panel::Live(link) => Some(&link.assembler),
            Panel::Degraded { .. } => None,
        }
    }
}

/// Upper bound on transport messages one panel may send per frame; beyond
/// it the panel is degraded (a spamming client must not hold the frame
/// loop hostage).
const MAX_TRANSPORT_PER_FRAME: u32 = 64;

/// Timing record of one distributed frame.
#[derive(Debug, Clone)]
pub struct FrameReport {
    pub frame: u64,
    /// Per-client render times, ms (client-measured; 0 for degraded panels).
    pub client_render_ms: Vec<f64>,
    /// Wall time from Execute broadcast to the last FrameDone, ms.
    pub round_trip_ms: f64,
    /// Mirror renders for the panels served from the mirror this frame,
    /// ms; exactly 0.0 when every panel is live.
    pub mirror_ms: f64,
    /// Per-client coverage fractions (mirror-derived for degraded panels).
    pub coverage: Vec<f64>,
    /// Which panels were served from the server mirror this frame.
    pub degraded: Vec<bool>,
    /// Wire bytes of keyframe and delta messages received per panel this
    /// frame, committed or rejected (0 for a degraded panel).
    pub transport_bytes: Vec<u64>,
    /// Per panel: ms from the Execute broadcast to the panel's assembler
    /// committing the frame's keyframe or delta — the interaction-to-photon
    /// latency of the wall. 0 for a frame that committed no content: none
    /// arrived, or what arrived was rejected.
    pub first_content_ms: Vec<f64>,
}

/// One panel's share of one frame; [`FrameReport`]'s vectors are these,
/// unzipped.
#[derive(Default)]
struct PanelFrame {
    render_ms: f64,
    coverage: f64,
    degraded: bool,
    transport_bytes: u64,
    first_content_ms: f64,
}

/// The hyperwall server.
#[derive(Debug)]
pub struct HyperwallServer {
    listener: TcpListener,
    /// One per cell once the clients are accepted, indexed by client id.
    panels: Vec<Panel>,
    /// The full wall pipeline.
    pub pipeline: Pipeline,
    /// One chain per cell; their number is the wall's panel count.
    pub chains: Vec<CellChain>,
    /// Per-display full resolution, as bound.
    cell_px: (usize, usize),
    /// Local low-resolution mirror cells (the touchscreen spreadsheet).
    mirror: Vec<Dv3dCell>,
    /// Mirror resolution per cell.
    pub mirror_px: (usize, usize),
    /// Deadlines / retry policy.
    pub tuning: WallTuning,
    /// Each panel's `AssignWorkflow`, kept to be offered again at reconnect.
    assignments: Vec<Message>,
    /// Interaction ops broadcast so far, replayed at reconnect so a
    /// recovered panel matches the rest of the wall.
    op_log: Vec<ConfigOp>,
    current_frame: u64,
    degraded_frames_total: u64,
    reconnects_total: u64,
    deadline_misses_total: u64,
    delta_bytes_total: u64,
    key_bytes_total: u64,
    resync_requests_total: u64,
    delta_rejects_total: u64,
    /// Human-readable fault timeline ("frame 2: panel 1 degraded: …"): the
    /// last 64 lines, oldest first.
    pub incidents: VecDeque<String>,
    /// Lines the timeline has been given, those it has let go included.
    pub incidents_total: u64,
}

/// Lines of [`HyperwallServer::incidents`] kept. Each degrade and each
/// reconnect attempt adds one, so a client that crashes and comes back
/// every few frames would otherwise grow it for the life of the server.
const INCIDENTS_KEPT: usize = 64;

impl HyperwallServer {
    /// Binds a listener and prepares the wall workflow + local mirror,
    /// with default [`WallTuning`].
    pub fn bind(cfg: &WallWorkflowConfig, mirror_downsample: usize) -> Result<HyperwallServer> {
        HyperwallServer::bind_tuned(cfg, mirror_downsample, WallTuning::default())
    }

    /// Binds with explicit deadlines / retry policy. `cfg` fixes the
    /// wall's panel count and panel size for the server's lifetime.
    pub fn bind_tuned(
        cfg: &WallWorkflowConfig,
        mirror_downsample: usize,
        tuning: WallTuning,
    ) -> Result<HyperwallServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let (pipeline, chains) = crate::workflow::build_wall_pipeline(cfg)?;
        let d = mirror_downsample.max(1);
        let mirror_px = (cfg.cell_px.0 / d, cfg.cell_px.1 / d);
        Ok(HyperwallServer {
            listener,
            panels: Vec::new(),
            pipeline,
            chains,
            cell_px: cfg.cell_px,
            mirror: Vec::new(),
            mirror_px,
            tuning,
            assignments: Vec::new(),
            op_log: Vec::new(),
            current_frame: 0,
            degraded_frames_total: 0,
            reconnects_total: 0,
            deadline_misses_total: 0,
            delta_bytes_total: 0,
            key_bytes_total: 0,
            resync_requests_total: 0,
            delta_rejects_total: 0,
            incidents: VecDeque::new(),
            incidents_total: 0,
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Reads a connecting client's hello — which panel it serves — and
    /// makes the socket a link with a fresh assembler of the bound panel
    /// size. A hello declaring any revision but [`PROTO_DELTA`] is a
    /// protocol error. The one read of a socket that is not yet a panel's.
    fn hello(&self, mut stream: TcpStream) -> Result<(usize, Link)> {
        stream.set_nodelay(true).ok();
        let n = self.chains.len();
        let hello = read_message_deadline(&mut stream, self.tuning.io_deadline, "Hello")?;
        let i = match hello {
            Message::Hello { proto, .. } if proto != PROTO_DELTA => {
                return Err(WallError::Protocol(format!(
                    "hello for wire revision {proto}; this wall speaks only {PROTO_DELTA}"
                )))
            }
            Message::Hello { client_id, .. } if client_id < n => client_id,
            other => return Err(WallError::Protocol(format!("expected Hello, got {other:?}"))),
        };
        let (w, h) = self.cell_px;
        Ok((i, Link { stream, assembler: FrameAssembler::new(w, h) }))
    }

    /// Accepts the wall's `n` clients (ordered by their Hello ids); `n`
    /// must be the number of cells the server was bound with. A hello that
    /// is refused (another revision, an id outside the wall) fails the
    /// call.
    pub fn accept_clients(&mut self, n: usize) -> Result<()> {
        let cells = self.chains.len();
        if n != cells {
            return Err(WallError::Protocol(format!(
                "accept_clients({n}) on a wall bound with {cells} cells"
            )));
        }
        let mut slots: Vec<Option<Link>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (stream, _) = self.listener.accept()?;
            let (i, link) = self.hello(stream)?;
            if let Some(slot) = slots.get_mut(i) {
                *slot = Some(link);
            }
        }
        self.panels = slots
            .into_iter()
            .map(|s| s.map(Panel::Live).ok_or_else(|| WallError::Protocol("missing client".into())))
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Ships each client its sub-workflow and waits for all Ready replies.
    /// Also instantiates the server's local low-res mirror of every cell.
    /// `cfg` must be the configuration the server was bound with.
    ///
    /// A client that fails its assignment degrades its panel instead of
    /// failing the wall: the mirror covers it from frame 0 onward.
    pub fn assign_workflows(&mut self, cfg: &WallWorkflowConfig) -> Result<()> {
        if (cfg.n_cells, cfg.cell_px) != (self.chains.len(), self.cell_px) {
            return Err(WallError::Protocol(format!(
                "assign_workflows for {} cells of {:?} px on a wall bound with {} of {:?} px",
                cfg.n_cells,
                cfg.cell_px,
                self.chains.len(),
                self.cell_px
            )));
        }
        let (width, height) = self.cell_px;
        self.assignments = split_per_client(&self.pipeline, &self.chains)?
            .iter()
            .zip(&self.chains)
            .map(|(sub, chain)| {
                Ok(Message::AssignWorkflow {
                    pipeline_json: sub.to_json()?,
                    cell_module: chain.cell,
                    width,
                    height,
                })
            })
            .collect::<Result<_>>()?;
        // Offer all, then confirm all: every client instantiates its cell
        // while the others do.
        let deadline = self.tuning.io_deadline;
        for i in 0..self.panels.len() {
            let (Some(Panel::Live(link)), Some(assignment)) =
                (self.panels.get_mut(i), self.assignments.get(i))
            else {
                continue;
            };
            if let Err(e) = link.offer(assignment, deadline) {
                self.degrade(i, &format!("AssignWorkflow send failed: {e}"));
            }
        }
        for i in 0..self.panels.len() {
            let Some(Panel::Live(link)) = self.panels.get_mut(i) else { continue };
            if let Err(e) = link.confirm(&self.op_log, deadline) {
                self.degrade(i, &format!("Ready failed: {e}"));
            }
        }
        // Build the local mirror by executing each plot stage once, through
        // one executor: the shared source is computed for the first chain
        // and cached for the rest. Each cell frames its camera now, as its
        // client does, so the ops it takes turn it alike.
        let mut exec = Executor::new(wall_registry());
        self.mirror = self
            .chains
            .iter()
            .map(|chain| {
                let mut cell =
                    cell_from_plot_stage(&mut exec, &self.pipeline, chain.plot, "mirror")?;
                cell.show_colorbar = false;
                cell.frame_camera()?;
                Ok(cell)
            })
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Tells panel `i` something, if it is live; a send that fails degrades
    /// it. True when the message went out.
    fn tell(&mut self, i: usize, msg: &Message, what: &str) -> bool {
        let Some(Panel::Live(link)) = self.panels.get_mut(i) else { return false };
        match link.send_msg(msg, self.tuning.io_deadline, what) {
            Ok(()) => true,
            Err(e) => {
                self.degrade(i, &format!("{what} send failed: {e}"));
                false
            }
        }
    }

    /// Broadcasts an interaction op to every live client and applies it to
    /// the local mirror; the op is also logged for replay to reconnecting
    /// clients. Returns the broadcast wall time in ms.
    pub fn broadcast_op(&mut self, op: &ConfigOp) -> Result<f64> {
        let start = Instant::now();
        // Unbounded on purpose: reconnect replay needs the full op history
        // (ops are relative deltas over the reset assignment state), and it
        // grows with operator interaction, not with client traffic.
        self.op_log.push(op.clone());
        let msg = Message::Op(op.clone());
        for i in 0..self.panels.len() {
            self.tell(i, &msg, "Op");
        }
        for cell in &mut self.mirror {
            let _ = cell.configure(op);
        }
        Ok(start.elapsed().as_secs_f64() * 1000.0)
    }

    /// Executes one distributed frame: reconnect any panels whose backoff
    /// is due, broadcast Execute to live panels, render the mirror cells of
    /// the degraded panels while the clients render theirs, collect
    /// FrameDone, and serve every panel that is (or just became) degraded
    /// from its mirror cell. A panel that degrades while its frame is
    /// collected has its mirror cell rendered then, once; that render is in
    /// the frame's `mirror_ms` and `round_trip_ms`.
    ///
    /// Client failures never fail the frame — only server-local errors
    /// (e.g. the mirror render itself) do.
    pub fn execute_frame(&mut self, frame: u64) -> Result<FrameReport> {
        self.current_frame = frame;
        self.try_reconnects(frame);

        let start = Instant::now();
        let execute = Message::Execute { frame };
        for i in 0..self.panels.len() {
            self.tell(i, &execute, "Execute");
        }

        // the panels already degraded are served from the mirror: their
        // cells render here, while the live clients render theirs
        let mut mirror_ms = 0.0;
        let served: Vec<Option<f64>> = (0..self.panels.len())
            .map(|i| match self.panels.get(i) {
                Some(Panel::Degraded { .. }) => self.mirror_coverage(i, &mut mirror_ms).map(Some),
                _ => Ok(None),
            })
            .collect::<Result<_>>()?;
        // a panel still live here was sent its Execute
        let rows = served
            .into_iter()
            .enumerate()
            .map(|(i, served)| {
                let mut row = self.collect_frame(i, frame, start);
                // graceful degradation: a degraded panel shows the server mirror
                if matches!(self.panels.get(i), Some(Panel::Degraded { .. })) {
                    row.degraded = true;
                    row.coverage = match served {
                        Some(coverage) => coverage,
                        None => self.mirror_coverage(i, &mut mirror_ms)?,
                    };
                    self.degraded_frames_total += 1;
                }
                Ok(row)
            })
            .collect::<Result<Vec<PanelFrame>>>()?;

        Ok(FrameReport {
            frame,
            client_render_ms: rows.iter().map(|r| r.render_ms).collect(),
            round_trip_ms: start.elapsed().as_secs_f64() * 1000.0,
            mirror_ms,
            coverage: rows.iter().map(|r| r.coverage).collect(),
            degraded: rows.iter().map(|r| r.degraded).collect(),
            transport_bytes: rows.iter().map(|r| r.transport_bytes).collect(),
            first_content_ms: rows.iter().map(|r| r.first_content_ms).collect(),
        })
    }

    /// The mirror resolution of one cell.
    fn mirror_size(&self) -> (usize, usize) {
        (self.mirror_px.0.max(16), self.mirror_px.1.max(16))
    }

    /// Panel `i`'s mirror cell rendered at the mirror size; `None` before
    /// `assign_workflows` has built the mirror.
    fn render_mirror(&mut self, i: usize) -> Result<Option<rvtk::render::Framebuffer>> {
        let (w, h) = self.mirror_size();
        let Some(cell) = self.mirror.get_mut(i) else { return Ok(None) };
        Ok(Some(cell.render(w, h)?))
    }

    /// Renders panel `i`'s mirror cell and returns its covered-pixel
    /// fraction, the coverage the panel shows while the server serves it
    /// (0 with no mirror); the render time is added to `ms`.
    fn mirror_coverage(&mut self, i: usize, ms: &mut f64) -> Result<f64> {
        let t = Instant::now();
        let Some(fb) = self.render_mirror(i)? else { return Ok(0.0) };
        *ms += t.elapsed().as_secs_f64() * 1000.0;
        Ok(fb.covered_pixels(rvtk::Color::BLACK) as f64 / (fb.width() * fb.height()) as f64)
    }

    /// Collects panel `i`'s replies to `Execute { frame }` (sent at `start`)
    /// until its `FrameDone` closes the frame; nothing to collect from a
    /// degraded panel. The client sends the frame's keyframe or delta ahead
    /// of its `FrameDone` on the same ordered stream; it is drained into
    /// the panel's assembler. A panel that breaks the exchange is degraded.
    fn collect_frame(&mut self, i: usize, frame: u64, start: Instant) -> PanelFrame {
        let mut row = PanelFrame::default();
        let frame_deadline = self.tuning.frame_deadline;
        let Some(Panel::Live(link)) = self.panels.get_mut(i) else { return row };
        let mut transport_msgs: u32 = 0;
        let mut content_ok = false;
        // `Err` says why the panel is degraded
        let closed: std::result::Result<(), String> = loop {
            match link.recv_msg(frame_deadline, "FrameDone") {
                Ok((Message::FrameDone { client_id, frame: f, coverage, render_ms }, _))
                    if client_id == i && f == frame =>
                {
                    row.render_ms = render_ms;
                    row.coverage = coverage;
                    break Ok(());
                }
                Ok((Message::FrameDone { client_id, frame: f, .. }, _)) => {
                    break Err(format!("client {client_id} answered frame {f}, expected {frame}"));
                }
                Ok((msg @ (Message::FrameKey { .. } | Message::FrameDelta { .. }), wire)) => {
                    let wire = wire as u64;
                    transport_msgs += 1;
                    if transport_msgs > MAX_TRANSPORT_PER_FRAME {
                        break Err("transport message flood".into());
                    }
                    row.transport_bytes += wire;
                    if matches!(msg, Message::FrameKey { .. }) {
                        self.key_bytes_total += wire;
                    } else {
                        self.delta_bytes_total += wire;
                    }
                    // a rejected delta is NOT a degradation: the
                    // assembler unsyncs atomically (no torn tiles)
                    // and the end-of-frame resync below repairs it
                    match link.assembler.apply(&msg) {
                        Ok(_) if !content_ok => {
                            row.first_content_ms = start.elapsed().as_secs_f64() * 1000.0;
                            content_ok = true;
                        }
                        Ok(_) => {}
                        Err(_) => self.delta_rejects_total += 1,
                    }
                }
                Ok((other, _)) => break Err(format!("expected FrameDone, got {other:?}")),
                Err(e) => {
                    if matches!(e, WallError::Timeout(_)) {
                        self.deadline_misses_total += 1;
                    }
                    break Err(format!("FrameDone failed: {e}"));
                }
            }
        };
        // Drop / reject detection: a panel whose frame closed without
        // committing any pixel content (delta lost in transit or rejected)
        // is told to open its next frame with a keyframe.
        let stale_epoch = (!content_ok).then(|| link.assembler.epoch());
        match (closed, stale_epoch) {
            (Err(reason), _) => self.degrade(i, &reason),
            (Ok(()), Some(epoch)) => {
                if self.tell(i, &Message::ResyncRequest { client_id: i, epoch }, "ResyncRequest") {
                    self.resync_requests_total += 1;
                }
            }
            (Ok(()), None) => {}
        }
        row
    }

    /// Marks a live panel degraded and schedules the first reconnect
    /// attempt. Its link goes with it: the socket is closed, and the
    /// assembled frame is stale the moment the client is gone.
    fn degrade(&mut self, i: usize, reason: &str) {
        let Some(panel @ Panel::Live(_)) = self.panels.get_mut(i) else { return };
        *panel = Panel::Degraded {
            attempts: 0,
            next_retry_frame: self.current_frame + self.tuning.backoff_base_frames.max(1),
        };
        self.incident(format!("frame {}: panel {i} degraded: {reason}", self.current_frame));
    }

    /// Books one line of the fault timeline, letting the oldest go once
    /// [`INCIDENTS_KEPT`] are held.
    fn incident(&mut self, line: String) {
        if self.incidents.len() == INCIDENTS_KEPT {
            self.incidents.pop_front();
        }
        self.incidents.push_back(line);
        self.incidents_total += 1;
    }

    /// True when some degraded panel is due a reconnect attempt at `frame`.
    fn reconnect_due(&self, frame: u64) -> bool {
        self.panels.iter().any(|p| p.retry_due(frame, self.tuning.max_reconnect_attempts))
    }

    /// Polls the listener for returning clients and admits them again
    /// (`hello → offer → confirm`, the op log replayed so the recovered
    /// panel matches the rest of the wall). Panels that do not return get
    /// their backoff doubled (capped); after `max_reconnect_attempts` they
    /// are left permanently degraded.
    fn try_reconnects(&mut self, frame: u64) {
        if !self.reconnect_due(frame) {
            return;
        }
        let poll_deadline = Instant::now() + self.tuning.reconnect_poll;
        self.listener.set_nonblocking(true).ok();
        while self.reconnect_due(frame) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    let incident = match self.readmit(stream) {
                        Ok(i) => {
                            self.reconnects_total += 1;
                            format!("frame {frame}: panel {i} reconnected, restored to live")
                        }
                        Err(e) => format!("frame {frame}: rejected reconnect: {e}"),
                    };
                    self.incident(incident);
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        && Instant::now() < poll_deadline =>
                {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
        }
        self.listener.set_nonblocking(false).ok();
        // panels still down: consume this attempt and back off exponentially
        let max = self.tuning.max_reconnect_attempts;
        let base = self.tuning.backoff_base_frames.max(1);
        for panel in self.panels.iter_mut().filter(|p| p.retry_due(frame, max)) {
            if let Panel::Degraded { attempts, next_retry_frame } = panel {
                *attempts += 1;
                *next_retry_frame = frame + (base << (*attempts).min(5)).min(32);
            }
        }
    }

    /// Admits a returning client on a fresh connection and puts its panel
    /// back to live; returns the panel index.
    fn readmit(&mut self, stream: TcpStream) -> Result<usize> {
        let deadline = self.tuning.io_deadline;
        let (i, mut link) = self.hello(stream)?;
        let Some(panel @ Panel::Degraded { .. }) = self.panels.get_mut(i) else {
            return Err(WallError::Protocol(format!(
                "client {i} reconnected but its panel is live"
            )));
        };
        let assignment = self
            .assignments
            .get(i)
            .ok_or_else(|| WallError::Protocol(format!("no stored assignment for panel {i}")))?;
        link.offer(assignment, deadline)?;
        link.confirm(&self.op_log, deadline)?;
        *panel = Panel::Live(link);
        Ok(i)
    }

    /// The touchscreen mirror of the whole wall: one mirror-sized picture
    /// per panel, arranged by the wall layout. A panel with a synced frame
    /// shows that frame, box-filtered — what the wall shows; the others (a
    /// degraded panel, or one whose frame is not synced yet) show their
    /// mirror cell, rendered here.
    pub fn mirror_mosaic(&mut self, layout: &crate::layout::WallLayout) -> Result<rvtk::render::Framebuffer> {
        use rvtk::render::Framebuffer;
        let (mw, mh) = self.mirror_size();
        let (w, h) = self.cell_px;
        let mut mosaic = Framebuffer::new(mw * layout.cols, mh * layout.rows);
        for i in 0..self.mirror.len() {
            let Some((row, col)) = layout.panel_of(i) else {
                break;
            };
            let picture = match self.panel_frame(i) {
                Some(rgba) => Framebuffer::from_rgba8(mw, mh, &box_filter(rgba, w, h, mw, mh)),
                None => self.render_mirror(i)?.unwrap_or_else(|| Framebuffer::new(mw, mh)),
            };
            mosaic.blit(&picture, col * mw, row * mh);
        }
        Ok(mosaic)
    }

    /// Shuts the wall down (best effort: degraded panels have no client to
    /// notify).
    pub fn shutdown(&mut self) -> Result<()> {
        let deadline = self.tuning.io_deadline;
        for panel in &mut self.panels {
            if let Panel::Live(link) = panel {
                link.send_msg(&Message::Shutdown, deadline, "Shutdown").ok();
            }
        }
        Ok(())
    }

    /// Current health of every panel.
    pub(crate) fn panel_states(&self) -> Vec<PanelState> {
        self.panels
            .iter()
            .map(|p| match p {
                Panel::Live(_) => PanelState::Live,
                Panel::Degraded { .. } => PanelState::Degraded,
            })
            .collect()
    }

    /// Panel-frames served from the server mirror instead of a live client.
    pub fn degraded_frames_total(&self) -> u64 {
        self.degraded_frames_total
    }

    /// Successful panel recoveries.
    pub(crate) fn reconnects_total(&self) -> u64 {
        self.reconnects_total
    }

    /// FrameDone waits that expired at the deadline.
    pub(crate) fn deadline_misses_total(&self) -> u64 {
        self.deadline_misses_total
    }

    /// Total wire bytes of `FrameDelta` messages received.
    pub(crate) fn delta_bytes_total(&self) -> u64 {
        self.delta_bytes_total
    }

    /// Total wire bytes of `FrameKey` messages received.
    pub(crate) fn key_bytes_total(&self) -> u64 {
        self.key_bytes_total
    }

    /// Keyframe resyncs the server had to request (dropped or rejected
    /// deltas detected at end of frame).
    pub fn resync_requests_total(&self) -> u64 {
        self.resync_requests_total
    }

    /// Transport messages rejected by an assembler (corrupt payload, stale
    /// epoch, sequence gap). Every reject is followed by a resync, never a
    /// torn frame.
    pub fn delta_rejects_total(&self) -> u64 {
        self.delta_rejects_total
    }

    /// Per panel: does its assembler currently hold a hash-verified frame?
    /// (Always `false` for a degraded panel, whose assembler went with its
    /// link.)
    pub fn panels_synced(&self) -> Vec<bool> {
        self.panels.iter().map(|p| p.assembler().is_some_and(|a| a.is_synced())).collect()
    }

    /// True when panel `i`'s assembled frame re-verifies: every tile's hash
    /// recomputed from the stored pixels, against the table whose hash the
    /// client last claimed (the no-torn-tiles guarantee, and the check that
    /// catches a frame damaged in this process's memory after commit).
    pub fn panel_frame_verified(&self, i: usize) -> bool {
        self.panels.get(i).and_then(Panel::assembler).is_some_and(|a| a.verify())
    }

    /// The last committed full-resolution RGBA frame for panel `i`, if its
    /// assembler is synced.
    pub(crate) fn panel_frame(&self, i: usize) -> Option<&[u8]> {
        self.panels.get(i).and_then(Panel::assembler).and_then(|a| a.frame())
    }
}

#[cfg(test)]
impl HyperwallServer {
    /// Number of connected clients (live or degraded panels).
    pub(crate) fn n_clients(&self) -> usize {
        self.panels.len()
    }

    /// The lengths of every collection the server holds: per panel, the
    /// op log and the incident timeline.
    fn held_lengths(&self) -> [usize; 6] {
        [
            self.panels.len(),
            self.chains.len(),
            self.mirror.len(),
            self.assignments.len(),
            self.op_log.len(),
            self.incidents.len(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{read_message, write_message, Message};
    use crate::workflow::WallWorkflowConfig;

    fn cfg() -> WallWorkflowConfig {
        WallWorkflowConfig { n_cells: 2, synth: (1, 2, 8, 16), cell_px: (32, 24) }
    }

    fn fast_tuning() -> WallTuning {
        WallTuning {
            io_deadline: Duration::from_millis(500),
            frame_deadline: Duration::from_millis(500),
            backoff_base_frames: 1,
            max_reconnect_attempts: 3,
            reconnect_poll: Duration::from_millis(50),
        }
    }

    #[test]
    fn rejects_bad_hello() {
        let mut server = HyperwallServer::bind(&cfg(), 4).unwrap();
        let addr = server.addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            // claims an out-of-range client id
            write_message(&mut s, &Message::Hello { client_id: 99, proto: PROTO_DELTA }).unwrap();
        });
        let err = server.accept_clients(2).unwrap_err();
        assert!(matches!(err, WallError::Protocol(_)), "{err}");
        rogue.join().unwrap();
    }

    #[test]
    fn rejects_non_hello_first_message() {
        let mut server = HyperwallServer::bind(&cfg(), 4).unwrap();
        let addr = server.addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_message(&mut s, &Message::Execute { frame: 0 }).unwrap();
        });
        assert!(server.accept_clients(2).is_err());
        rogue.join().unwrap();
    }

    /// The panel count is fixed at `bind`. The two later calls that restate
    /// it are refused when they disagree, before any socket is touched — a
    /// 2-cell wall that accepted 1 client used to panic in the next
    /// `execute_frame`, a 1-cell wall that accepted 2 in `assign_workflows`.
    #[test]
    fn panel_count_is_agreed_once() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // one client is dialling, so a server that does go to its listener
        // for `accept_clients(1)` gets an answer and fails here, not hangs
        let lone = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            write_message(&mut s, &Message::Hello { client_id: 0, proto: PROTO_DELTA }).unwrap();
        });
        let too_few = server.accept_clients(1).unwrap_err().to_string();
        assert!(too_few.contains("accept_clients(1)") && too_few.contains("2 cells"), "{too_few}");
        lone.join().unwrap();
        // nobody else is dialling: a call that waited on the listener would
        // never return
        let too_many = server.accept_clients(3).unwrap_err().to_string();
        assert!(
            too_many.contains("accept_clients(3)") && too_many.contains("2 cells"),
            "{too_many}"
        );
        assert_eq!(server.n_clients(), 0);

        for other in [
            WallWorkflowConfig { n_cells: 1, ..cfg() },
            WallWorkflowConfig { n_cells: 3, ..cfg() },
            WallWorkflowConfig { cell_px: (64, 48), ..cfg() },
        ] {
            let err = server.assign_workflows(&other).unwrap_err().to_string();
            assert!(err.contains("2 of (32, 24) px"), "{err}");
            let asked = format!("{} cells of {:?} px", other.n_cells, other.cell_px);
            assert!(err.contains(&asked), "{err}");
        }
        // the configuration it was bound with is the one it takes
        server.assign_workflows(&cfg()).unwrap();
    }

    /// Nothing the server holds grows with the frame count on a healthy
    /// wall: the same lengths after 100 frames as after 10.
    #[test]
    fn a_healthy_wall_holds_as_much_after_100_frames_as_after_10() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        let clients: Vec<_> = (0..2)
            .map(|id| {
                std::thread::spawn(move || {
                    crate::client::ClientNode::connect_v2(addr, id).unwrap().run().unwrap()
                })
            })
            .collect();
        server.accept_clients(2).unwrap();
        server.assign_workflows(&cfg()).unwrap();
        let op = ConfigOp::Camera(dv3d::interaction::CameraOp::Azimuth(5.0));
        server.broadcast_op(&op).unwrap();
        let mut held = Vec::new();
        for frame in 0..100 {
            let report = server.execute_frame(frame).unwrap();
            assert_eq!(report.degraded, vec![false; 2], "{:?}", server.incidents);
            if frame == 9 || frame == 99 {
                held.push(server.held_lengths());
            }
        }
        server.shutdown().unwrap();
        for client in clients {
            assert_eq!(client.join().unwrap(), 100);
        }
        assert_eq!(held[0], held[1]);
    }

    #[test]
    fn client_disconnect_degrades_panels_but_wall_survives() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // clients that hang up right after Hello
        let quitter = std::thread::spawn(move || {
            for id in 0..2 {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                let hello = Message::Hello { client_id: id, proto: PROTO_DELTA };
                write_message(&mut s, &hello).unwrap();
                drop(s);
            }
        });
        server.accept_clients(2).unwrap();
        quitter.join().unwrap();
        // assignment hits the closed sockets: panels degrade, wall survives
        server.assign_workflows(&cfg()).unwrap();
        assert_eq!(server.panel_states(), vec![PanelState::Degraded; 2]);
        // the frame still completes, fully served by the mirror
        let report = server.execute_frame(0).unwrap();
        assert_eq!(report.degraded, vec![true, true]);
        assert!(report.coverage.iter().all(|&c| c > 0.0), "{report:?}");
        assert!(report.mirror_ms > 0.0, "{report:?}");
        assert_eq!(server.degraded_frames_total(), 2);
        assert!(!server.incidents.is_empty());
    }

    /// A client that crashes after every hand-shake and comes straight
    /// back adds a degrade and a reconnect line a frame; the timeline keeps
    /// the last `INCIDENTS_KEPT` of them and counts them all.
    #[test]
    fn a_client_that_keeps_crashing_leaves_the_incidents_at_their_cap() {
        let one = WallWorkflowConfig { n_cells: 1, ..cfg() };
        let mut server = HyperwallServer::bind_tuned(&one, 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        let cycles = INCIDENTS_KEPT as u64;
        let crasher = std::thread::spawn(move || {
            for _ in 0..=cycles {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                write_message(&mut s, &Message::Hello { client_id: 0, proto: PROTO_DELTA })
                    .unwrap();
                match read_message(&mut s).unwrap() {
                    Message::AssignWorkflow { .. } => {}
                    other => panic!("{other:?}"),
                }
                write_message(&mut s, &Message::Ready { client_id: 0 }).unwrap();
                // and hang up before the next Execute is answered
            }
        });
        server.accept_clients(1).unwrap();
        server.assign_workflows(&one).unwrap();
        for frame in 0..=cycles {
            let report = server.execute_frame(frame).unwrap();
            assert_eq!(report.degraded, [true], "frame {frame}");
        }
        crasher.join().unwrap();
        assert_eq!(server.reconnects_total(), cycles, "{:?}", server.incidents);
        assert_eq!(server.incidents_total, 2 * cycles + 1);
        assert_eq!(server.incidents.len(), INCIDENTS_KEPT);
        let last = server.incidents.back().unwrap();
        assert!(last.starts_with(&format!("frame {cycles}: panel 0 degraded")), "{last}");
        assert_eq!(server.held_lengths()[5], INCIDENTS_KEPT);
    }

    #[test]
    fn frame_mismatch_degrades_the_lying_panel() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // two concurrent fake clients; client 1 answers the wrong frame
        let fakes: Vec<_> = (0..2usize)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    let hello = Message::Hello { client_id: id, proto: PROTO_DELTA };
                    write_message(&mut s, &hello).unwrap();
                    match read_message(&mut s).unwrap() {
                        Message::AssignWorkflow { .. } => {}
                        other => panic!("{other:?}"),
                    }
                    write_message(&mut s, &Message::Ready { client_id: id }).unwrap();
                    match read_message(&mut s).unwrap() {
                        Message::Execute { frame } => {
                            let lie = if id == 1 { 999 } else { frame };
                            write_message(
                                &mut s,
                                &Message::FrameDone {
                                    client_id: id,
                                    frame: lie,
                                    coverage: 0.5,
                                    render_ms: 1.0,
                                },
                            )
                            .unwrap();
                        }
                        other => panic!("{other:?}"),
                    }
                    // hold the socket open until the server reacts
                    std::thread::sleep(Duration::from_millis(200));
                })
            })
            .collect();
        server.accept_clients(2).unwrap();
        server.assign_workflows(&cfg()).unwrap();
        let report = server.execute_frame(0).unwrap();
        assert_eq!(report.degraded, vec![false, true]);
        assert_eq!(
            server.panel_states(),
            vec![PanelState::Live, PanelState::Degraded]
        );
        // the honest client's numbers came through
        assert_eq!(report.client_render_ms[0], 1.0);
        assert_eq!(report.coverage[0], 0.5);
        // the liar's coverage was substituted from the mirror, rendered in
        // this frame once the panel degraded
        assert!(report.coverage[1] > 0.0);
        assert!(report.mirror_ms > 0.0, "{report:?}");
        for f in fakes {
            f.join().unwrap();
        }
    }

    /// Wire revision 6 has one handshake. A hello in an older form — the
    /// revision-1 `Hello` that names no revision, revision 5's `HelloV2` —
    /// or declaring any revision but `PROTO_DELTA` is refused: at
    /// `accept_clients` as a protocol error, and from a returning client as
    /// a rejected reconnect that leaves its panel degraded.
    #[test]
    fn a_hello_of_any_other_revision_is_refused() {
        use std::io::Write;
        let framed = |body: Vec<u8>| {
            let mut out = (body.len() as u32).to_le_bytes().to_vec();
            out.extend(body);
            out
        };
        let hello = |proto| crate::protocol::encode_frame(&Message::Hello { client_id: 0, proto });
        let mut refused = vec![
            framed(br#"{"Hello":{"client_id":0}}"#.to_vec()),
            framed(format!(r#"{{"HelloV2":{{"client_id":0,"proto":{PROTO_DELTA}}}}}"#).into()),
        ];
        refused.extend((1..PROTO_DELTA).chain([PROTO_DELTA + 1]).map(|p| hello(p).unwrap()));
        assert_eq!(refused.len(), 8);
        let one = WallWorkflowConfig { n_cells: 1, ..cfg() };
        let dial = |addr, bytes: &[u8]| {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            s.write_all(bytes).unwrap();
            s
        };
        for bytes in &refused {
            let what = String::from_utf8_lossy(&bytes[4..]).into_owned();
            let mut server = HyperwallServer::bind_tuned(&one, 4, fast_tuning()).unwrap();
            let _held = dial(server.addr().unwrap(), bytes);
            let err = server.accept_clients(1).unwrap_err();
            assert!(matches!(err, WallError::Protocol(_)), "{what}: {err}");

            // a client admitted at revision 6 hangs up, so its panel
            // degrades; the hello that dials in at its retry is refused
            let mut server = HyperwallServer::bind_tuned(&one, 4, fast_tuning()).unwrap();
            let addr = server.addr().unwrap();
            drop(dial(addr, &hello(PROTO_DELTA).unwrap()));
            server.accept_clients(1).unwrap();
            server.assign_workflows(&one).unwrap();
            assert_eq!(server.panel_states(), [PanelState::Degraded], "{what}");
            let _held = dial(addr, bytes);
            let report = server.execute_frame(1).unwrap();
            assert_eq!(report.degraded, [true], "{what}");
            assert_eq!(server.panel_states(), [PanelState::Degraded], "{what}");
            assert_eq!(server.reconnects_total(), 0, "{what}");
            let rejected: Vec<_> =
                server.incidents.iter().filter(|i| i.contains("rejected reconnect")).collect();
            assert_eq!(rejected.len(), 1, "{what}: {:?}", server.incidents);
        }
    }

    /// `transport_bytes` and the key/delta totals are the bytes the
    /// client put on the wire (length prefix + body), counted from the
    /// frame as received — not from a re-serialisation of the message.
    #[test]
    fn transport_bytes_equal_what_the_client_wrote() {
        use crate::frame_delta::{FrameStreamer, DEFAULT_KEYFRAME_EVERY};
        use crate::protocol::encode_frame;
        use std::io::Write;

        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // scripted clients: a keyframe on frame 0, a delta on frame 1; each
        // returns its (key, delta) byte counts
        let fakes: Vec<_> = (0..2usize)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write_message(&mut s, &Message::Hello { client_id: id, proto: PROTO_DELTA })
                        .unwrap();
                    let (w, h) = match read_message(&mut s).unwrap() {
                        Message::AssignWorkflow { width, height, .. } => (width, height),
                        other => panic!("{other:?}"),
                    };
                    write_message(&mut s, &Message::Ready { client_id: id }).unwrap();
                    let mut streamer = FrameStreamer::new(w, h, DEFAULT_KEYFRAME_EVERY);
                    let mut rgba = vec![(17 * id + 3) as u8; w * h * 4];
                    let mut written = [0u64; 2];
                    for frame in 0..2u64 {
                        match read_message(&mut s).unwrap() {
                            Message::Execute { frame: f } => assert_eq!(f, frame),
                            other => panic!("{other:?}"),
                        }
                        if frame == 1 {
                            rgba[5] ^= 0xFF; // dirty one tile
                        }
                        let (msg, _) = streamer.encode(id, frame, &rgba).unwrap();
                        let framed = encode_frame(&msg).unwrap();
                        s.write_all(&framed).unwrap();
                        written[frame as usize] = framed.len() as u64;
                        write_message(
                            &mut s,
                            &Message::FrameDone { client_id: id, frame, coverage: 0.5, render_ms: 1.0 },
                        )
                        .unwrap();
                    }
                    // hold the socket open until the server has read it all
                    std::thread::sleep(Duration::from_millis(200));
                    written
                })
            })
            .collect();
        server.accept_clients(2).unwrap();
        server.assign_workflows(&cfg()).unwrap();
        let r0 = server.execute_frame(0).unwrap();
        let r1 = server.execute_frame(1).unwrap();
        let written: Vec<[u64; 2]> = fakes.into_iter().map(|f| f.join().unwrap()).collect();
        assert_eq!(r0.degraded, vec![false, false], "{:?}", server.incidents);
        assert_eq!(r1.degraded, vec![false, false], "{:?}", server.incidents);
        for (i, [key, delta]) in written.iter().enumerate() {
            assert!(*key > 0 && *delta > 0);
            assert_eq!(r0.transport_bytes[i], *key, "panel {i} keyframe bytes");
            assert_eq!(r1.transport_bytes[i], *delta, "panel {i} delta bytes");
        }
        assert_eq!(server.key_bytes_total(), written.iter().map(|w| w[0]).sum::<u64>());
        assert_eq!(server.delta_bytes_total(), written.iter().map(|w| w[1]).sum::<u64>());
    }

    /// The mirror frames each cell when it builds it, as a client does: after
    /// ops broadcast before any frame, each mirror cell's camera is that of
    /// the same cell built, framed and given the same ops.
    #[test]
    fn mirror_cells_take_ops_on_a_framed_camera() {
        use dv3d::interaction::{Axis3, CameraOp};
        let mut server = HyperwallServer::bind(&cfg(), 4).unwrap();
        server.assign_workflows(&cfg()).unwrap();
        let ops = [
            ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 },
            ConfigOp::Camera(CameraOp::Azimuth(10.0)),
        ];
        for op in &ops {
            server.broadcast_op(op).unwrap();
        }
        let mut exec = Executor::new(wall_registry());
        assert_eq!(server.mirror.len(), server.chains.len());
        for (chain, mirror) in server.chains.iter().zip(&server.mirror) {
            let mut cell =
                cell_from_plot_stage(&mut exec, &server.pipeline, chain.plot, "mirror").unwrap();
            cell.frame_camera().unwrap();
            for op in &ops {
                cell.configure(op).unwrap();
            }
            assert_eq!(mirror.camera(), cell.camera(), "cell {}", chain.cell);
        }
    }

    /// A wall cell rendered at 1, 2 and 8 threads and box-filtered to the
    /// size `mirror_mosaic` shows it at gives the same bytes: the mirror of
    /// a live panel does not depend on the client's pool.
    #[test]
    fn mirror_pictures_are_the_same_at_any_thread_count() {
        let cfg = WallWorkflowConfig { n_cells: 2, synth: (2, 4, 24, 48), cell_px: (256, 192) };
        let server = HyperwallServer::bind(&cfg, 4).unwrap();
        let (w, h) = cfg.cell_px;
        let (mw, mh) = server.mirror_size();
        assert_eq!((mw, mh), (64, 48));
        let mut exec = Executor::new(wall_registry());
        for chain in &server.chains {
            let mut cell =
                cell_from_plot_stage(&mut exec, &server.pipeline, chain.plot, "mirror").unwrap();
            let pictures: Vec<Vec<u8>> = [1, 2, 8]
                .map(|n| {
                    let rgba = rayon::with_threads(n, || cell.render(w, h).unwrap().to_rgba8());
                    box_filter(&rgba, w, h, mw, mh)
                })
                .into();
            assert!(pictures.iter().all(|p| *p == pictures[0]), "cell {}", chain.cell);
        }
    }
}
