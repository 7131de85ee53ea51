//! The server (control) node: owns the full workflow, ships sub-workflows
//! to clients, mirrors everything at reduced resolution, and propagates
//! the user's interaction ops to the wall.
//!
//! The server is the fault-tolerance anchor (see the crate docs): every
//! client exchange runs under a deadline, a failing client degrades its
//! panel instead of stopping the wall, degraded panels are served from the
//! server's own low-res mirror, and reconnecting clients are re-handshaken
//! with capped exponential backoff and promoted back to live.

use crate::frame_delta::{Applied, FrameAssembler};
use crate::protocol::{
    read_message_deadline, read_message_deadline_sized, write_message_deadline, Message,
    PROTO_DELTA,
};
use crate::workflow::{split_per_client, wall_registry, CellChain, WallWorkflowConfig};
use crate::{Result, WallError};
use dv3d::cell::Dv3dCell;
use dv3d::interaction::ConfigOp;
use dv3d::plots::PlotSpec;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use vistrails::executor::Executor;
use vistrails::pipeline::Pipeline;

/// Health of one wall panel.
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
    /// Probe live clients with a `Heartbeat` every this many frames
    /// (0 disables; [`crate::cluster::run_wall_with_faults`] honours it).
    pub heartbeat_every_frames: u64,
}

impl Default for WallTuning {
    fn default() -> WallTuning {
        WallTuning {
            io_deadline: Duration::from_secs(2),
            frame_deadline: Duration::from_secs(5),
            backoff_base_frames: 1,
            max_reconnect_attempts: 5,
            reconnect_poll: Duration::from_millis(100),
            heartbeat_every_frames: 0,
        }
    }
}

/// One display connection and its health bookkeeping.
#[derive(Debug)]
struct Panel {
    stream: Option<TcpStream>,
    state: PanelState,
    reconnect_attempts: u32,
    next_retry_frame: u64,
    /// Protocol revision the client declared at its handshake (below
    /// [`PROTO_DELTA`] = metadata only, otherwise frame-delta pixel
    /// transport).
    proto: u32,
    /// Receiver half of the delta transport; `Some` only for panels at or
    /// above [`PROTO_DELTA`].
    assembler: Option<FrameAssembler>,
}

impl Panel {
    fn live(stream: TcpStream, proto: u32) -> Panel {
        Panel {
            stream: Some(stream),
            state: PanelState::Live,
            reconnect_attempts: 0,
            next_retry_frame: 0,
            proto,
            assembler: None,
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
    /// Server's low-res mirror render time for all cells, ms.
    pub mirror_ms: f64,
    /// Per-client coverage fractions (mirror-derived for degraded panels).
    pub coverage: Vec<f64>,
    /// Which panels were served from the server mirror this frame.
    pub degraded: Vec<bool>,
    /// Wire bytes of frame-delta transport messages received per panel
    /// this frame (0 for v1 panels).
    pub transport_bytes: Vec<u64>,
    /// Per panel: ms from the Execute broadcast to the first pixel content
    /// (preview, keyframe or delta) arriving — the interaction-to-photon
    /// latency of the wall. 0 when no content arrived.
    pub first_content_ms: Vec<f64>,
}

/// The hyperwall server.
#[derive(Debug)]
pub struct HyperwallServer {
    listener: TcpListener,
    panels: Vec<Panel>,
    /// The full wall pipeline.
    pub pipeline: Pipeline,
    /// One chain per cell.
    pub chains: Vec<CellChain>,
    /// Local low-resolution mirror cells (the touchscreen spreadsheet).
    mirror: Vec<Dv3dCell>,
    /// Mirror resolution per cell.
    pub mirror_px: (usize, usize),
    /// Deadlines / retry policy.
    pub tuning: WallTuning,
    /// Saved `AssignWorkflow` messages, replayed at reconnect.
    assignments: Vec<Option<Message>>,
    /// Interaction ops broadcast so far, replayed at reconnect so a
    /// recovered panel matches the rest of the wall.
    op_log: Vec<ConfigOp>,
    heartbeat_seq: u64,
    current_frame: u64,
    degraded_frames_total: u64,
    reconnects_total: u64,
    deadline_misses_total: u64,
    delta_bytes_total: u64,
    key_bytes_total: u64,
    preview_frames_total: u64,
    resync_requests_total: u64,
    delta_rejects_total: u64,
    /// Human-readable fault timeline ("frame 2: panel 1 degraded: …").
    pub incidents: Vec<String>,
}

impl HyperwallServer {
    /// Binds a listener and prepares the wall workflow + local mirror,
    /// with default [`WallTuning`].
    pub fn bind(cfg: &WallWorkflowConfig, mirror_downsample: usize) -> Result<HyperwallServer> {
        HyperwallServer::bind_tuned(cfg, mirror_downsample, WallTuning::default())
    }

    /// Binds with explicit deadlines / retry policy.
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
            mirror: Vec::new(),
            mirror_px,
            tuning,
            assignments: Vec::new(),
            op_log: Vec::new(),
            heartbeat_seq: 0,
            current_frame: 0,
            degraded_frames_total: 0,
            reconnects_total: 0,
            deadline_misses_total: 0,
            delta_bytes_total: 0,
            key_bytes_total: 0,
            preview_frames_total: 0,
            resync_requests_total: 0,
            delta_rejects_total: 0,
            incidents: Vec::new(),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> Result<std::net::SocketAddr> {
        Ok(self.listener.local_addr()?)
    }

    /// Accepts `n` clients (ordered by their Hello ids). Both handshakes
    /// are admitted and each client is served the revision it declared:
    /// plain `Hello` clients and `HelloV2` clients below [`PROTO_DELTA`] get
    /// the metadata-only protocol, `HelloV2` clients at or above it the
    /// frame-delta pixel transport.
    pub fn accept_clients(&mut self, n: usize) -> Result<()> {
        let mut slots: Vec<Option<(TcpStream, u32)>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (mut stream, _) = self.listener.accept()?;
            stream.set_nodelay(true).ok();
            match read_message_deadline(&mut stream, self.tuning.io_deadline, "Hello")? {
                Message::Hello { client_id } if client_id < n => {
                    slots[client_id] = Some((stream, 1));
                }
                Message::HelloV2 { client_id, proto } if client_id < n => {
                    slots[client_id] = Some((stream, proto));
                }
                other => {
                    return Err(WallError::Protocol(format!("expected Hello, got {other:?}")))
                }
            }
        }
        self.panels = slots
            .into_iter()
            .map(|s| {
                s.map(|(stream, proto)| Panel::live(stream, proto))
                    .ok_or_else(|| WallError::Protocol("missing client".into()))
            })
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// Ships each client its sub-workflow and waits for all Ready replies.
    /// Also instantiates the server's local low-res mirror of every cell.
    ///
    /// A client that fails its assignment degrades its panel instead of
    /// failing the wall: the mirror covers it from frame 0 onward.
    pub fn assign_workflows(&mut self, cfg: &WallWorkflowConfig) -> Result<()> {
        let subs = split_per_client(&self.pipeline, &self.chains)?;
        self.assignments = (0..self.panels.len())
            .map(|i| {
                Ok(Some(Message::AssignWorkflow {
                    pipeline_json: subs[i].to_json()?,
                    cell_module: self.chains[i].cell,
                    width: cfg.cell_px.0,
                    height: cfg.cell_px.1,
                }))
            })
            .collect::<Result<_>>()?;
        for i in 0..self.panels.len() {
            // pixel-transport panels get a frame assembler of the assigned size
            if self.panels[i].proto >= PROTO_DELTA {
                self.panels[i].assembler =
                    Some(FrameAssembler::new(cfg.cell_px.0, cfg.cell_px.1));
            }
            // every slot was filled Some(..) by the collect above
            let Some(msg) = self.assignments[i].clone() else { continue };
            let deadline = self.tuning.io_deadline;
            let send = match self.panels[i].stream.as_mut() {
                Some(stream) => write_message_deadline(stream, &msg, deadline, "AssignWorkflow"),
                None => Err(WallError::Degraded { panel: i, reason: "no connection".into() }),
            };
            if let Err(e) = send {
                self.degrade(i, &format!("AssignWorkflow send failed: {e}"));
            }
        }
        for i in 0..self.panels.len() {
            if self.panels[i].state != PanelState::Live {
                continue;
            }
            let deadline = self.tuning.io_deadline;
            let reply = self
                .panels[i]
                .stream
                .as_mut()
                .map(|s| read_message_deadline(s, deadline, "Ready"))
                .unwrap_or_else(|| Err(WallError::Protocol("no connection".into())));
            match reply {
                Ok(Message::Ready { .. }) => {}
                Ok(other) => self.degrade(i, &format!("expected Ready, got {other:?}")),
                Err(e) => self.degrade(i, &format!("Ready read failed: {e}")),
            }
        }
        // Build the local mirror by executing each plot stage once.
        self.mirror.clear();
        let mut exec = Executor::new(wall_registry());
        for chain in self.chains.clone() {
            let results = exec.execute_subset(&self.pipeline, Some(chain.plot))?;
            let spec = results
                .output(chain.plot, "plot")
                .and_then(|d| d.as_opaque::<PlotSpec>())
                .ok_or_else(|| WallError::Protocol("no PlotSpec for mirror".into()))?;
            let mut cell = Dv3dCell::try_new("mirror", (*spec).clone())?;
            cell.show_colorbar = false;
            self.mirror.push(cell);
        }
        Ok(())
    }

    /// Broadcasts an interaction op to every live client and applies it to
    /// the local mirror; the op is also logged for replay to reconnecting
    /// clients. Returns the broadcast wall time in ms.
    pub fn broadcast_op(&mut self, op: &ConfigOp) -> Result<f64> {
        let start = Instant::now();
        // dv3dlint: allow(unbounded_growth) -- reconnect replay needs the full op history (ops are relative deltas over the reset assignment state), and growth is paced by operator interaction, not client traffic
        self.op_log.push(op.clone());
        let deadline = self.tuning.io_deadline;
        for i in 0..self.panels.len() {
            if self.panels[i].state != PanelState::Live {
                continue;
            }
            let send = self
                .panels[i]
                .stream
                .as_mut()
                .map(|s| write_message_deadline(s, &Message::Op(op.clone()), deadline, "Op"))
                .unwrap_or(Ok(()));
            if let Err(e) = send {
                self.degrade(i, &format!("Op send failed: {e}"));
            }
        }
        for cell in &mut self.mirror {
            let _ = cell.configure(op);
        }
        Ok(start.elapsed().as_secs_f64() * 1000.0)
    }

    /// Probes every live client with a `Heartbeat` and degrades the silent
    /// ones. Returns the number of panels still live afterwards.
    pub fn heartbeat(&mut self) -> Result<usize> {
        self.heartbeat_seq += 1;
        let seq = self.heartbeat_seq;
        let deadline = self.tuning.io_deadline;
        for i in 0..self.panels.len() {
            if self.panels[i].state != PanelState::Live {
                continue;
            }
            let probe = (|| -> Result<()> {
                let stream = self.panels[i]
                    .stream
                    .as_mut()
                    .ok_or_else(|| WallError::Protocol("no connection".into()))?;
                write_message_deadline(stream, &Message::Heartbeat { seq }, deadline, "Heartbeat")?;
                match read_message_deadline(stream, deadline, "HeartbeatAck")? {
                    Message::HeartbeatAck { client_id, seq: s } if client_id == i && s == seq => {
                        Ok(())
                    }
                    other => Err(WallError::Protocol(format!(
                        "expected HeartbeatAck({seq}), got {other:?}"
                    ))),
                }
            })();
            if let Err(e) = probe {
                self.degrade(i, &format!("heartbeat failed: {e}"));
            }
        }
        Ok(self.panels.iter().filter(|p| p.state == PanelState::Live).count())
    }

    /// Executes one distributed frame: reconnect any panels whose backoff
    /// is due, broadcast Execute to live panels, render the local mirror
    /// while clients render full-res, collect FrameDone, and substitute the
    /// mirror for every panel that is (or just became) degraded.
    ///
    /// Client failures never fail the frame — only server-local errors
    /// (e.g. the mirror render itself) do.
    pub fn execute_frame(&mut self, frame: u64) -> Result<FrameReport> {
        self.current_frame = frame;
        self.try_reconnects(frame);

        let n = self.panels.len();
        let start = Instant::now();
        let mut sent = vec![false; n];
        let deadline = self.tuning.io_deadline;
        for (i, was_sent) in sent.iter_mut().enumerate() {
            if self.panels[i].state != PanelState::Live {
                continue;
            }
            let send = self
                .panels[i]
                .stream
                .as_mut()
                .map(|s| write_message_deadline(s, &Message::Execute { frame }, deadline, "Execute"))
                .unwrap_or_else(|| Err(WallError::Protocol("no connection".into())));
            match send {
                Ok(()) => *was_sent = true,
                Err(e) => self.degrade(i, &format!("Execute send failed: {e}")),
            }
        }

        // server-side reduced-resolution mirror of the full spreadsheet
        let (mw, mh) = (self.mirror_px.0.max(16), self.mirror_px.1.max(16));
        let mirror_start = Instant::now();
        let mut mirror_coverage = vec![0.0f64; n];
        for (i, cell) in self.mirror.iter_mut().enumerate() {
            let fb = cell.render(mw, mh)?;
            mirror_coverage[i] =
                fb.covered_pixels(rvtk::Color::BLACK) as f64 / (mw * mh) as f64;
        }
        let mirror_ms = mirror_start.elapsed().as_secs_f64() * 1000.0;

        let mut client_render_ms = vec![0.0; n];
        let mut coverage = vec![0.0; n];
        let mut transport_bytes = vec![0u64; n];
        let mut first_content_ms = vec![0.0f64; n];
        let frame_deadline = self.tuning.frame_deadline;
        for i in 0..n {
            if !sent[i] {
                continue;
            }
            // v2 clients interleave FramePreview / FrameKey / FrameDelta
            // messages before their FrameDone on the same ordered stream;
            // drain them into the panel's assembler until the frame closes.
            let mut transport_msgs: u32 = 0;
            let mut content_ok = false;
            loop {
                let reply = self
                    .panels[i]
                    .stream
                    .as_mut()
                    .map(|s| read_message_deadline_sized(s, frame_deadline, "FrameDone"))
                    .unwrap_or_else(|| Err(WallError::Protocol("no connection".into())));
                match reply {
                    Ok((Message::FrameDone { client_id, frame: f, coverage: c, render_ms }, _))
                        if client_id == i && f == frame =>
                    {
                        client_render_ms[i] = render_ms;
                        coverage[i] = c;
                        break;
                    }
                    Ok((Message::FrameDone { client_id, frame: f, .. }, _)) => {
                        self.degrade(
                            i,
                            &format!("client {client_id} answered frame {f}, expected {frame}"),
                        );
                        break;
                    }
                    Ok((
                        msg @ (Message::FrameKey { .. }
                        | Message::FrameDelta { .. }
                        | Message::FramePreview { .. }),
                        wire,
                    )) => {
                        let wire = wire as u64;
                        transport_msgs += 1;
                        if transport_msgs > MAX_TRANSPORT_PER_FRAME {
                            self.degrade(i, "transport message flood");
                            break;
                        }
                        transport_bytes[i] += wire;
                        match &msg {
                            Message::FrameKey { .. } => self.key_bytes_total += wire,
                            Message::FrameDelta { .. } => self.delta_bytes_total += wire,
                            _ => self.preview_frames_total += 1,
                        }
                        if first_content_ms[i] == 0.0 {
                            first_content_ms[i] = start.elapsed().as_secs_f64() * 1000.0;
                        }
                        if self.panels[i].assembler.is_none() {
                            self.degrade(i, "pixel transport from a metadata-only client");
                            break;
                        }
                        if let Some(asm) = self.panels[i].assembler.as_mut() {
                            // a rejected delta is NOT a degradation: the
                            // assembler unsyncs atomically (no torn tiles)
                            // and the end-of-frame resync below repairs it
                            match asm.apply(&msg) {
                                Ok(Applied::Key) | Ok(Applied::Delta { .. }) => {
                                    content_ok = true;
                                }
                                Ok(Applied::Preview) => {}
                                Err(_) => self.delta_rejects_total += 1,
                            }
                        }
                    }
                    Ok((other, _)) => {
                        self.degrade(i, &format!("expected FrameDone, got {other:?}"));
                        break;
                    }
                    Err(e) => {
                        if matches!(e, WallError::Timeout(_)) {
                            self.deadline_misses_total += 1;
                        }
                        self.degrade(i, &format!("FrameDone failed: {e}"));
                        break;
                    }
                }
            }
            // Drop / reject detection: a live v2 panel whose frame closed
            // without committing any pixel content (delta lost in transit or
            // rejected) is told to open its next frame with a keyframe.
            if self.panels[i].state == PanelState::Live
                && self.panels[i].proto >= PROTO_DELTA
                && !content_ok
            {
                let epoch =
                    self.panels[i].assembler.as_ref().map(|a| a.epoch()).unwrap_or(0);
                let send = self
                    .panels[i]
                    .stream
                    .as_mut()
                    .map(|s| {
                        write_message_deadline(
                            s,
                            &Message::ResyncRequest { client_id: i, epoch },
                            deadline,
                            "ResyncRequest",
                        )
                    })
                    .unwrap_or_else(|| Err(WallError::Protocol("no connection".into())));
                match send {
                    Ok(()) => self.resync_requests_total += 1,
                    Err(e) => self.degrade(i, &format!("ResyncRequest send failed: {e}")),
                }
            }
        }

        // graceful degradation: degraded panels show the server mirror
        let mut degraded = vec![false; n];
        for i in 0..n {
            if self.panels[i].state == PanelState::Degraded {
                degraded[i] = true;
                coverage[i] = mirror_coverage[i];
                self.degraded_frames_total += 1;
            }
        }

        Ok(FrameReport {
            frame,
            client_render_ms,
            round_trip_ms: start.elapsed().as_secs_f64() * 1000.0,
            mirror_ms,
            coverage,
            degraded,
            transport_bytes,
            first_content_ms,
        })
    }

    /// Marks a panel degraded, drops its connection, and schedules the
    /// first reconnect attempt.
    fn degrade(&mut self, i: usize, reason: &str) {
        if self.panels[i].state == PanelState::Degraded {
            return;
        }
        self.incidents
            .push(format!("frame {}: panel {i} degraded: {reason}", self.current_frame));
        let p = &mut self.panels[i];
        p.state = PanelState::Degraded;
        p.stream = None;
        // the assembled frame is stale the moment the client is gone; a
        // reconnect installs a fresh assembler sized from the assignment
        p.assembler = None;
        p.reconnect_attempts = 0;
        p.next_retry_frame = self.current_frame + self.tuning.backoff_base_frames.max(1);
    }

    /// True when some degraded panel is due a reconnect attempt at `frame`.
    fn reconnect_due(&self, frame: u64) -> bool {
        self.panels.iter().any(|p| {
            p.state == PanelState::Degraded
                && p.reconnect_attempts < self.tuning.max_reconnect_attempts
                && frame >= p.next_retry_frame
        })
    }

    /// Polls the listener for returning clients and re-handshakes them:
    /// `Hello → AssignWorkflow → Ready`, then replays the op log so the
    /// recovered panel matches the rest of the wall. Panels that do not
    /// return get their backoff doubled (capped); after
    /// `max_reconnect_attempts` they are left permanently degraded.
    fn try_reconnects(&mut self, frame: u64) {
        if !self.reconnect_due(frame) {
            return;
        }
        let poll_deadline = Instant::now() + self.tuning.reconnect_poll;
        self.listener.set_nonblocking(true).ok();
        loop {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    stream.set_nonblocking(false).ok();
                    stream.set_nodelay(true).ok();
                    match self.rehandshake(&mut stream) {
                        Ok((i, proto)) => {
                            self.incidents.push(format!(
                                "frame {frame}: panel {i} reconnected, restored to live"
                            ));
                            let mut panel = Panel::live(stream, proto);
                            if proto >= PROTO_DELTA {
                                // fresh assembler: the client's fresh streamer
                                // opens with a keyframe, so they resync
                                if let Some(Message::AssignWorkflow { width, height, .. }) =
                                    self.assignments.get(i).cloned().flatten()
                                {
                                    panel.assembler = Some(FrameAssembler::new(width, height));
                                }
                            }
                            self.panels[i] = panel;
                            self.reconnects_total += 1;
                        }
                        Err(e) => {
                            self.incidents
                                .push(format!("frame {frame}: rejected reconnect: {e}"));
                        }
                    }
                }
                Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !self.reconnect_due(frame) || Instant::now() >= poll_deadline {
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => break,
            }
            if !self.reconnect_due(frame) {
                break;
            }
        }
        self.listener.set_nonblocking(false).ok();
        // panels still down: consume this attempt and back off exponentially
        for i in 0..self.panels.len() {
            let max = self.tuning.max_reconnect_attempts;
            let base = self.tuning.backoff_base_frames.max(1);
            let p = &mut self.panels[i];
            if p.state == PanelState::Degraded
                && p.reconnect_attempts < max
                && frame >= p.next_retry_frame
            {
                p.reconnect_attempts += 1;
                let backoff = base.saturating_shl(p.reconnect_attempts.min(5)).min(32);
                p.next_retry_frame = frame + backoff;
            }
        }
    }

    /// Runs the full recovery handshake on a fresh connection; returns the
    /// recovered panel index and the protocol revision it spoke.
    fn rehandshake(&mut self, stream: &mut TcpStream) -> Result<(usize, u32)> {
        let deadline = self.tuning.io_deadline;
        let (i, proto) = match read_message_deadline(stream, deadline, "Hello")? {
            Message::Hello { client_id } if client_id < self.panels.len() => (client_id, 1),
            Message::HelloV2 { client_id, proto } if client_id < self.panels.len() => {
                (client_id, proto)
            }
            other => {
                return Err(WallError::Protocol(format!("expected Hello, got {other:?}")))
            }
        };
        if self.panels[i].state != PanelState::Degraded {
            return Err(WallError::Protocol(format!(
                "client {i} reconnected but its panel is live"
            )));
        }
        let assignment = self.assignments.get(i).cloned().flatten().ok_or_else(|| {
            WallError::Protocol(format!("no stored assignment for panel {i}"))
        })?;
        write_message_deadline(stream, &assignment, deadline, "AssignWorkflow")?;
        match read_message_deadline(stream, deadline, "Ready")? {
            Message::Ready { .. } => {}
            other => {
                return Err(WallError::Protocol(format!("expected Ready, got {other:?}")))
            }
        }
        for op in self.op_log.clone() {
            write_message_deadline(stream, &Message::Op(op), deadline, "Op replay")?;
        }
        Ok((i, proto))
    }

    /// Assembles the server's low-resolution mirror cells into one mosaic
    /// framebuffer arranged by the wall layout — the touchscreen preview of
    /// the whole wall.
    pub fn mirror_mosaic(&mut self, layout: &crate::layout::WallLayout) -> Result<rvtk::render::Framebuffer> {
        let (mw, mh) = (self.mirror_px.0.max(16), self.mirror_px.1.max(16));
        let mut mosaic = rvtk::render::Framebuffer::new(mw * layout.cols, mh * layout.rows);
        for (i, cell) in self.mirror.iter_mut().enumerate() {
            let Some((row, col)) = layout.panel_of(i) else {
                break;
            };
            let frame = cell.render(mw, mh)?;
            mosaic.blit(&frame, col * mw, row * mh);
        }
        Ok(mosaic)
    }

    /// Shuts the wall down (best effort: degraded panels have no client to
    /// notify).
    pub fn shutdown(&mut self) -> Result<()> {
        let deadline = self.tuning.io_deadline;
        for panel in self.panels.iter_mut() {
            if let Some(stream) = panel.stream.as_mut() {
                write_message_deadline(stream, &Message::Shutdown, deadline, "Shutdown").ok();
            }
        }
        Ok(())
    }

    /// Number of connected clients (live or degraded panels).
    pub fn n_clients(&self) -> usize {
        self.panels.len()
    }

    /// Current health of every panel.
    pub fn panel_states(&self) -> Vec<PanelState> {
        self.panels.iter().map(|p| p.state).collect()
    }

    /// Panel-frames served from the server mirror instead of a live client.
    pub fn degraded_frames_total(&self) -> u64 {
        self.degraded_frames_total
    }

    /// Successful panel recoveries.
    pub fn reconnects_total(&self) -> u64 {
        self.reconnects_total
    }

    /// FrameDone waits that expired at the deadline.
    pub fn deadline_misses_total(&self) -> u64 {
        self.deadline_misses_total
    }

    /// Total wire bytes of `FrameDelta` messages received.
    pub fn delta_bytes_total(&self) -> u64 {
        self.delta_bytes_total
    }

    /// Total wire bytes of `FrameKey` messages received.
    pub fn key_bytes_total(&self) -> u64 {
        self.key_bytes_total
    }

    /// Low-res motion previews received.
    pub fn preview_frames_total(&self) -> u64 {
        self.preview_frames_total
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
    /// (Always `false` for v1 panels, which ship no pixels.)
    pub fn panels_synced(&self) -> Vec<bool> {
        self.panels
            .iter()
            .map(|p| p.assembler.as_ref().map(|a| a.is_synced()).unwrap_or(false))
            .collect()
    }

    /// True when panel `i`'s assembled frame re-verifies: every tile's hash
    /// recomputed from the stored pixels, against the table whose hash the
    /// client last claimed (the no-torn-tiles guarantee, and the check that
    /// catches a frame damaged in this process's memory after commit).
    pub fn panel_frame_verified(&self, i: usize) -> bool {
        self.panels
            .get(i)
            .and_then(|p| p.assembler.as_ref())
            .map(|a| a.verify())
            .unwrap_or(false)
    }

    /// The last committed full-resolution RGBA frame for panel `i`, if its
    /// assembler is synced.
    pub fn panel_frame(&self, i: usize) -> Option<&[u8]> {
        self.panels.get(i).and_then(|p| p.assembler.as_ref()).and_then(|a| a.frame())
    }
}

/// `u64::checked_shl` that saturates instead of wrapping (backoff helper).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> u64 {
        self.checked_shl(shift).unwrap_or(u64::MAX)
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
            heartbeat_every_frames: 0,
        }
    }

    #[test]
    fn rejects_bad_hello() {
        let mut server = HyperwallServer::bind(&cfg(), 4).unwrap();
        let addr = server.addr().unwrap();
        let rogue = std::thread::spawn(move || {
            let mut s = std::net::TcpStream::connect(addr).unwrap();
            // claims an out-of-range client id
            write_message(&mut s, &Message::Hello { client_id: 99 }).unwrap();
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
        assert!(server.accept_clients(1).is_err());
        rogue.join().unwrap();
    }

    #[test]
    fn client_disconnect_degrades_panels_but_wall_survives() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        // clients that hang up right after Hello
        let quitter = std::thread::spawn(move || {
            for id in 0..2 {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                write_message(&mut s, &Message::Hello { client_id: id }).unwrap();
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
        assert_eq!(server.degraded_frames_total(), 2);
        assert!(!server.incidents.is_empty());
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
                    write_message(&mut s, &Message::Hello { client_id: id }).unwrap();
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
        // the liar's coverage was substituted from the mirror
        assert!(report.coverage[1] > 0.0);
        for f in fakes {
            f.join().unwrap();
        }
    }

    #[test]
    fn heartbeat_degrades_silent_clients() {
        let mut server = HyperwallServer::bind_tuned(&cfg(), 4, fast_tuning()).unwrap();
        let addr = server.addr().unwrap();
        let clients: Vec<_> = (0..2usize)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write_message(&mut s, &Message::Hello { client_id: id }).unwrap();
                    match read_message(&mut s).unwrap() {
                        Message::AssignWorkflow { .. } => {}
                        other => panic!("{other:?}"),
                    }
                    write_message(&mut s, &Message::Ready { client_id: id }).unwrap();
                    // client 0 answers heartbeats; client 1 goes silent
                    if id == 0 {
                        match read_message(&mut s).unwrap() {
                            Message::Heartbeat { seq } => write_message(
                                &mut s,
                                &Message::HeartbeatAck { client_id: id, seq },
                            )
                            .unwrap(),
                            other => panic!("{other:?}"),
                        }
                    }
                    std::thread::sleep(Duration::from_millis(700));
                })
            })
            .collect();
        server.accept_clients(2).unwrap();
        server.assign_workflows(&cfg()).unwrap();
        let live = server.heartbeat().unwrap();
        assert_eq!(live, 1);
        assert_eq!(
            server.panel_states(),
            vec![PanelState::Live, PanelState::Degraded]
        );
        assert_eq!(server.deadline_misses_total(), 0);
        for c in clients {
            c.join().unwrap();
        }
    }

    /// A `HelloV2` that declares a revision below `PROTO_DELTA` is served
    /// what it declared: metadata only — no assembler, and no
    /// `ResyncRequest` for the pixel frames it never promised to send.
    /// Revision 3 is one of them: its pixel messages look like today's but
    /// its `frame_hash` means something else.
    #[test]
    fn hello_v2_below_proto_delta_is_a_metadata_only_panel() {
        for proto in [2, 3] {
            assert!(proto < PROTO_DELTA);
            let one = WallWorkflowConfig { n_cells: 1, ..cfg() };
            let mut server = HyperwallServer::bind_tuned(&one, 4, fast_tuning()).unwrap();
            let addr = server.addr().unwrap();
            let fake = std::thread::spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                write_message(&mut s, &Message::HelloV2 { client_id: 0, proto }).unwrap();
                match read_message(&mut s).unwrap() {
                    Message::AssignWorkflow { .. } => {}
                    other => panic!("{other:?}"),
                }
                write_message(&mut s, &Message::Ready { client_id: 0 }).unwrap();
                // everything the server sends from here on: Execute per
                // frame, then Shutdown — and nothing in between
                let mut seen = Vec::new();
                loop {
                    match read_message(&mut s).unwrap() {
                        Message::Execute { frame } => {
                            seen.push(format!("Execute {frame}"));
                            let done = Message::FrameDone {
                                client_id: 0,
                                frame,
                                coverage: 0.5,
                                render_ms: 1.0,
                            };
                            write_message(&mut s, &done).unwrap();
                        }
                        Message::Shutdown => return seen,
                        other => seen.push(format!("{other:?}")),
                    }
                }
            });
            server.accept_clients(1).unwrap();
            server.assign_workflows(&one).unwrap();
            for frame in 0..2 {
                let report = server.execute_frame(frame).unwrap();
                assert_eq!(report.degraded, vec![false], "{:?}", server.incidents);
                assert_eq!(report.transport_bytes, vec![0]);
            }
            server.shutdown().unwrap();
            assert_eq!(fake.join().unwrap(), ["Execute 0", "Execute 1"], "proto {proto}");
            assert_eq!(server.panel_states(), vec![PanelState::Live]);
            assert_eq!(server.resync_requests_total(), 0);
            assert_eq!(server.panels_synced(), vec![false]);
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
        // scripted v2 clients: a keyframe on frame 0, a preview plus a
        // delta on frame 1; each returns (key, preview, delta) byte counts
        let fakes: Vec<_> = (0..2usize)
            .map(|id| {
                std::thread::spawn(move || {
                    let mut s = std::net::TcpStream::connect(addr).unwrap();
                    write_message(&mut s, &Message::HelloV2 { client_id: id, proto: PROTO_DELTA })
                        .unwrap();
                    let (w, h) = match read_message(&mut s).unwrap() {
                        Message::AssignWorkflow { width, height, .. } => (width, height),
                        other => panic!("{other:?}"),
                    };
                    write_message(&mut s, &Message::Ready { client_id: id }).unwrap();
                    let mut streamer = FrameStreamer::new(w, h, DEFAULT_KEYFRAME_EVERY);
                    let mut rgba = vec![(17 * id + 3) as u8; w * h * 4];
                    let mut written = [0u64; 3];
                    for frame in 0..2u64 {
                        match read_message(&mut s).unwrap() {
                            Message::Execute { frame: f } => assert_eq!(f, frame),
                            other => panic!("{other:?}"),
                        }
                        if frame == 1 {
                            rgba[5] ^= 0xFF; // dirty one tile
                            let low = vec![9u8; 8 * 8 * 4];
                            let preview = streamer.encode_preview(id, frame, &low, 8, 8).unwrap();
                            let framed = encode_frame(&preview).unwrap();
                            s.write_all(&framed).unwrap();
                            written[1] = framed.len() as u64;
                        }
                        let (msg, _) = streamer.encode(id, frame, &rgba).unwrap();
                        let framed = encode_frame(&msg).unwrap();
                        s.write_all(&framed).unwrap();
                        written[if frame == 0 { 0 } else { 2 }] = framed.len() as u64;
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
        let written: Vec<[u64; 3]> = fakes.into_iter().map(|f| f.join().unwrap()).collect();
        assert_eq!(r0.degraded, vec![false, false], "{:?}", server.incidents);
        assert_eq!(r1.degraded, vec![false, false], "{:?}", server.incidents);
        for (i, [key, preview, delta]) in written.iter().enumerate() {
            assert!(*key > 0 && *preview > 0 && *delta > 0);
            assert_eq!(r0.transport_bytes[i], *key, "panel {i} keyframe bytes");
            assert_eq!(r1.transport_bytes[i], preview + delta, "panel {i} frame-1 bytes");
        }
        assert_eq!(server.key_bytes_total(), written.iter().map(|w| w[0]).sum::<u64>());
        assert_eq!(server.delta_bytes_total(), written.iter().map(|w| w[2]).sum::<u64>());
    }
}
