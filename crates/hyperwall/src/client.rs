//! The client (display) node: executes its 1-cell sub-workflow locally at
//! full resolution, responds to propagated interaction ops, and ships every
//! frame it renders to the server as a keyframe or a dirty-tile delta (wire
//! revision `PROTO_DELTA`, the only one there is).
//!
//! There is one message loop, [`ClientNode::run_with_faults`]: it
//! misbehaves exactly as its [`ClientFaults`] script says (crash at a
//! frame, delay replies, corrupt a reply, refuse reconnects) and treats a
//! lost connection as a graceful end of service rather than an error —
//! in a degraded wall the server is entitled to drop us.
//! [`ClientNode::run`] is that loop with an empty script.

use crate::fault::{cut_mid_frame, dribble, ClientFaults};
use crate::frame_delta::{FrameStreamer, DEFAULT_KEYFRAME_EVERY};
use crate::protocol::{
    encode_frame, read_message_deadline, read_message_idle, write_message_deadline, Message,
    PROTO_DELTA,
};
use crate::workflow::{cell_from_plot_stage, wall_registry};
use crate::{Result, WallError};
use dv3d::cell::Dv3dCell;
use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};
use vistrails::executor::Executor;
use vistrails::pipeline::Pipeline;

/// One slice of an idle command wait. Waiting for the next command may
/// legitimately take forever, but never in one unbounded block.
const IDLE_SLICE: Duration = Duration::from_millis(250);

/// Deadline for any single message exchange once bytes are in flight.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// A display client, driven entirely by server messages.
#[derive(Debug)]
pub struct ClientNode {
    id: usize,
    addr: std::net::SocketAddr,
    stream: TcpStream,
    cell: Option<Dv3dCell>,
    size: (usize, usize),
    frames_rendered: u64,
    /// The delta encoder, created afresh at every `AssignWorkflow`.
    streamer: FrameStreamer,
}

impl ClientNode {
    /// Connects to the server and says hello as panel `id`. The `_v2`
    /// names the versioned handshake, which is now the only one.
    pub fn connect_v2(addr: std::net::SocketAddr, id: usize) -> Result<ClientNode> {
        let size = (64, 64);
        Ok(ClientNode {
            id,
            addr,
            stream: ClientNode::dial(addr, id)?,
            cell: None,
            size,
            frames_rendered: 0,
            streamer: FrameStreamer::new(size.0, size.1, DEFAULT_KEYFRAME_EVERY),
        })
    }

    /// Dials the server and says hello — the first time and after a crash
    /// alike.
    fn dial(addr: std::net::SocketAddr, id: usize) -> Result<TcpStream> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let hello = Message::Hello { client_id: id, proto: PROTO_DELTA };
        write_message_deadline(&mut stream, &hello, IO_DEADLINE, "Hello")?;
        Ok(stream)
    }

    /// Runs the message loop until `Shutdown` with no scripted faults
    /// ([`ClientNode::run_with_faults`] with an empty script) and returns
    /// the number of frames rendered. A lost connection ends the loop with
    /// `Ok(frames rendered so far)` — the server dropped this panel and is
    /// serving its mirror; a protocol violation (an unexpected message,
    /// `Execute` before `AssignWorkflow`, an unparsable pipeline) is an
    /// error.
    pub fn run(self) -> Result<u64> {
        self.run_with_faults(ClientFaults::default())
    }

    /// Runs the message loop under a fault script:
    ///
    /// * scripted faults fire on cue (drop / delay / corrupt / refuse);
    /// * a lost or dropped connection ends the loop gracefully with the
    ///   frames rendered so far (the server has degraded our panel and is
    ///   serving its mirror — that is the design, not an error);
    /// * after a scripted crash the client attempts the recovery
    ///   handshake (reconnect, `Hello`, wait for re-`AssignWorkflow`),
    ///   honouring any scripted reconnect refusals.
    pub fn run_with_faults(mut self, faults: ClientFaults) -> Result<u64> {
        let delay = Duration::from_millis(faults.reply_delay_ms.unwrap_or(0));
        let mut refusals_left = faults.refused_reconnects.unwrap_or(0);
        let mut dropped = false;
        let mut corrupted = false;
        let mut cut = false;
        // after a reconnect the next message must arrive under a deadline:
        // the server may have given this panel up, and a blocking read
        // would hang the client thread forever
        let mut expect_reassign = false;
        // The loop ends — quietly, with the frames rendered so far — at
        // `Shutdown` and wherever the connection turns out to be gone.
        loop {
            let command = if expect_reassign {
                read_message_deadline(&mut self.stream, Duration::from_secs(2), "re-AssignWorkflow")
            } else {
                read_message_idle(&mut self.stream, IDLE_SLICE, IO_DEADLINE, "command")
            };
            let Ok(msg) = command else { break };
            expect_reassign = false;
            match msg {
                Message::AssignWorkflow { pipeline_json, cell_module, width, height } => {
                    self.size = (width, height);
                    let pipeline = Pipeline::from_json(&pipeline_json)?;
                    self.cell = Some(self.instantiate(&pipeline, cell_module)?);
                    self.reset_streamer();
                    std::thread::sleep(delay);
                    if !self.reply(&Message::Ready { client_id: self.id }, "Ready") {
                        break;
                    }
                }
                Message::Op(op) => {
                    if let Some(cell) = &mut self.cell {
                        let _ = cell.configure(&op);
                    }
                }
                Message::ResyncRequest { .. } => self.streamer.force_keyframe(),
                Message::Execute { frame } => {
                    // scripted crash: vanish without answering; scripted
                    // torn frame: send half the FrameDone bytes first
                    let crash = !dropped && faults.drop_at == Some(frame);
                    if crash || (!cut && faults.mid_request_disconnect_at == Some(frame)) {
                        if crash {
                            dropped = true;
                        } else {
                            cut = true;
                            let (done, _) = self.render_frame(frame)?;
                            cut_mid_frame(&mut self.stream, &encode_frame(&done)?).ok();
                        }
                        // close the socket NOW so the server sees a dead
                        // peer, not a slow one, while we redial
                        self.stream.shutdown(std::net::Shutdown::Both).ok();
                        if !self.reconnect(&mut refusals_left) {
                            break;
                        }
                        self.cell = None;
                        expect_reassign = true;
                        continue;
                    }
                    if let Some(ms) = faults.slow_loris_ms.filter(|&ms| ms > 0) {
                        let (done, _) = self.render_frame(frame)?;
                        let framed = encode_frame(&done)?;
                        let sent = dribble(&mut self.stream, &framed, ms);
                        if sent < framed.len() {
                            break;
                        }
                        continue;
                    }
                    if !corrupted && faults.corrupt_at == Some(frame) {
                        // scripted corruption: a plausible length prefix
                        // followed by bytes that are not a Message
                        corrupted = true;
                        let garbage = *b"!!not-json-data!";
                        let mut framed = (garbage.len() as u32).to_le_bytes().to_vec();
                        framed.extend_from_slice(&garbage);
                        if self.stream.write_all(&framed).is_err() {
                            break;
                        }
                        continue;
                    }
                    let (done, rgba) = self.render_frame(frame)?;
                    std::thread::sleep(delay);
                    if self.send_transport(frame, &rgba, &faults).is_err()
                        || !self.reply(&done, "FrameDone")
                    {
                        break;
                    }
                }
                Message::Heartbeat { seq } => {
                    std::thread::sleep(delay);
                    let ack = Message::HeartbeatAck { client_id: self.id, seq };
                    if !self.reply(&ack, "HeartbeatAck") {
                        break;
                    }
                }
                Message::Shutdown => break,
                other => {
                    return Err(WallError::Protocol(format!(
                        "client {} got unexpected {other:?}",
                        self.id
                    )))
                }
            }
        }
        Ok(self.frames_rendered)
    }

    /// Sends one reply. `false` when it could not be sent: the server has
    /// dropped this panel, and the caller ends the run.
    fn reply(&mut self, msg: &Message, what: &str) -> bool {
        write_message_deadline(&mut self.stream, msg, IO_DEADLINE, what).is_ok()
    }

    /// Renders the assigned cell; returns the `FrameDone` reply and the
    /// raw RGBA8 pixels (the delta transport's input).
    fn render_frame(&mut self, frame: u64) -> Result<(Message, Vec<u8>)> {
        let cell = self
            .cell
            .as_mut()
            .ok_or_else(|| WallError::Protocol("Execute before AssignWorkflow".into()))?;
        let start = Instant::now();
        let fb = cell.render(self.size.0, self.size.1)?;
        let render_ms = start.elapsed().as_secs_f64() * 1000.0;
        let coverage = fb.covered_pixels(rvtk::Color::BLACK) as f64
            / (self.size.0 * self.size.1) as f64;
        self.frames_rendered += 1;
        let rgba = fb.to_rgba8();
        Ok((Message::FrameDone { client_id: self.id, frame, coverage, render_ms }, rgba))
    }

    /// Fresh delta stream for the (re)assigned size. A fresh streamer's
    /// first frame is always a keyframe, so a reconnected client and its
    /// server-side assembler re-sync naturally.
    fn reset_streamer(&mut self) {
        self.streamer = FrameStreamer::new(self.size.0, self.size.1, DEFAULT_KEYFRAME_EVERY);
    }

    /// Ships this frame's pixel content, a keyframe or a delta, ahead of
    /// `FrameDone`. Scripted transport faults (corrupt / drop / delay) are
    /// applied here, after encoding — the streamer's state always advances
    /// as if the send succeeded, which is exactly the failure the server's
    /// resync path must absorb.
    fn send_transport(&mut self, frame: u64, rgba: &[u8], faults: &ClientFaults) -> Result<()> {
        let (mut msg, _) = self.streamer.encode(self.id, frame, rgba)?;
        if let Some((f, ms)) = faults.delay_delta_at {
            if f == frame {
                std::thread::sleep(Duration::from_millis(ms));
            }
        }
        if faults.drop_delta_at == Some(frame) {
            // encoded, then discarded: the server gets FrameDone with no
            // pixels and must answer with a ResyncRequest
            return Ok(());
        }
        if faults.corrupt_delta_at == Some(frame) {
            corrupt_transport(&mut msg);
        }
        write_message_deadline(&mut self.stream, &msg, IO_DEADLINE, "FrameDelta")
    }

    /// The client half of crash recovery: redial the server and say Hello,
    /// pretending the first `refusals_left` attempts fail (flaky network).
    /// Gives up (returns false) after a bounded number of attempts.
    fn reconnect(&mut self, refusals_left: &mut u32) -> bool {
        for attempt in 0u64..40 {
            std::thread::sleep(Duration::from_millis(5 * (attempt + 1).min(10)));
            if *refusals_left > 0 {
                *refusals_left -= 1;
                continue;
            }
            if let Ok(stream) = ClientNode::dial(self.addr, self.id) {
                self.stream = stream;
                return true;
            }
        }
        false
    }

    /// Executes the assigned sub-workflow up to the plot module and builds
    /// the live cell from the produced `PlotSpec`, its camera framed before
    /// any op arrives — as the server's mirror cell is, so a replayed op log
    /// turns a reconnected panel to the view the live one showed.
    fn instantiate(&self, pipeline: &Pipeline, cell_module: u64) -> Result<Dv3dCell> {
        // find the plot module feeding the cell's "plot" port
        let plot = pipeline
            .inputs_of(cell_module)
            .into_iter()
            .find(|c| c.to_port == "plot")
            .ok_or_else(|| WallError::Protocol("cell has no plot input".into()))?
            .from_module;
        let name = pipeline.modules[&cell_module]
            .params
            .get("name")
            .and_then(vistrails::value::ParamValue::as_str)
            .unwrap_or("wall cell");
        let mut cell =
            cell_from_plot_stage(&mut Executor::new(wall_registry()), pipeline, plot, name)?;
        cell.frame_camera()?;
        Ok(cell)
    }
}

/// Flips payload bits inside a transport message so it still parses as a
/// `Message` but fails its content hashes — the scripted
/// [`crate::fault::Fault::CorruptDeltaAt`] wire corruption.
fn corrupt_transport(msg: &mut Message) {
    match msg {
        Message::FrameDelta { tiles, frame_hash, .. } => {
            // flip a color byte of the first tile; an empty delta has no
            // payload to damage, so lie about the frame hash instead
            match tiles.first_mut().and_then(|t| t.data.get_mut(1)) {
                Some(b) => *b ^= 0xA5,
                None => *frame_hash ^= 0xDEAD_BEEF,
            }
        }
        Message::FrameKey { payload, frame_hash, .. } => {
            match payload.get_mut(1) {
                Some(b) => *b ^= 0xA5,
                None => *frame_hash ^= 0xDEAD_BEEF,
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{Fault, FaultPlan};
    use crate::protocol::{read_message, write_message};
    use crate::workflow::{build_wall_pipeline, split_per_client, WallWorkflowConfig};
    use std::net::TcpListener;

    /// Drives one client through the full protocol by hand: its key and
    /// its delta assemble into a frame that re-verifies.
    #[test]
    fn client_full_protocol_roundtrip() {
        use crate::frame_delta::FrameAssembler;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();

        let client_thread = std::thread::spawn(move || {
            let client = ClientNode::connect_v2(addr, 0).unwrap();
            client.run().unwrap()
        });

        let (mut stream, _) = listener.accept().unwrap();
        // hello
        let hello = read_message(&mut stream).unwrap();
        assert_eq!(hello, Message::Hello { client_id: 0, proto: PROTO_DELTA });
        // assign
        let cfg = WallWorkflowConfig { n_cells: 2, synth: (1, 2, 8, 16), cell_px: (48, 48) };
        let (p, chains) = build_wall_pipeline(&cfg).unwrap();
        let subs = split_per_client(&p, &chains).unwrap();
        write_message(
            &mut stream,
            &Message::AssignWorkflow {
                pipeline_json: subs[0].to_json().unwrap(),
                cell_module: chains[0].cell,
                width: 48,
                height: 48,
            },
        )
        .unwrap();
        assert_eq!(read_message(&mut stream).unwrap(), Message::Ready { client_id: 0 });
        // an op, a heartbeat, then two frames
        write_message(
            &mut stream,
            &Message::Op(dv3d::interaction::ConfigOp::NextColormap),
        )
        .unwrap();
        write_message(&mut stream, &Message::Heartbeat { seq: 5 }).unwrap();
        assert_eq!(
            read_message(&mut stream).unwrap(),
            Message::HeartbeatAck { client_id: 0, seq: 5 }
        );
        let mut asm = FrameAssembler::new(48, 48);
        for frame in 0..2u64 {
            write_message(&mut stream, &Message::Execute { frame }).unwrap();
            // the frame's pixels come first: a keyframe, then a delta
            let pixels = read_message(&mut stream).unwrap();
            match (&pixels, frame) {
                (Message::FrameKey { client_id: 0, frame: 0, .. }, 0)
                | (Message::FrameDelta { client_id: 0, frame: 1, .. }, 1) => {}
                (other, _) => panic!("frame {frame}: expected its key or delta, got {other:?}"),
            }
            asm.apply(&pixels).unwrap();
            assert!(asm.verify(), "frame {frame}");
            match read_message(&mut stream).unwrap() {
                Message::FrameDone { client_id, frame: f, coverage, render_ms } => {
                    assert_eq!(client_id, 0);
                    assert_eq!(f, frame);
                    assert!(coverage > 0.0);
                    assert!(render_ms >= 0.0);
                }
                other => panic!("expected FrameDone, got {other:?}"),
            }
        }
        assert_eq!((asm.keys_applied(), asm.deltas_applied()), (1, 1));
        write_message(&mut stream, &Message::Shutdown).unwrap();
        assert_eq!(client_thread.join().unwrap(), 2);
    }

    #[test]
    fn execute_before_assign_is_an_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client_thread = std::thread::spawn(move || {
            let client = ClientNode::connect_v2(addr, 1).unwrap();
            client.run()
        });
        let (mut stream, _) = listener.accept().unwrap();
        read_message(&mut stream).unwrap(); // hello
        write_message(&mut stream, &Message::Execute { frame: 0 }).unwrap();
        assert!(client_thread.join().unwrap().is_err());
    }

    #[test]
    fn faulted_client_drops_on_cue_and_redials() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let faults = FaultPlan::none()
            .inject(0, Fault::DropAtFrame(0))
            .inject(0, Fault::RefuseReconnect(1))
            .client(0);
        let client_thread = std::thread::spawn(move || {
            let client = ClientNode::connect_v2(addr, 0).unwrap();
            client.run_with_faults(faults).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        read_message(&mut stream).unwrap(); // hello
        // order Execute{0}: the scripted crash fires, the socket dies
        write_message(&mut stream, &Message::Execute { frame: 0 }).unwrap();
        assert!(read_message(&mut stream).is_err(), "client should have hung up");
        // the client redials (after one refused attempt) and says Hello again
        let (mut stream2, _) = listener.accept().unwrap();
        assert_eq!(
            read_message(&mut stream2).unwrap(),
            Message::Hello { client_id: 0, proto: PROTO_DELTA }
        );
        // we never re-assign; the client's deadline expires and it exits
        // gracefully having rendered nothing
        assert_eq!(client_thread.join().unwrap(), 0);
    }

    #[test]
    fn faulted_client_corrupts_on_cue_then_exits_gracefully() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let scripted = FaultPlan::none().inject(0, Fault::CorruptAtFrame(0)).client(0);
        let client_thread = std::thread::spawn(move || {
            let client = ClientNode::connect_v2(addr, 0).unwrap();
            client.run_with_faults(scripted).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        read_message(&mut stream).unwrap(); // hello
        write_message(&mut stream, &Message::Execute { frame: 0 }).unwrap();
        // the reply is garbage, not a Message
        let err = read_message(&mut stream).unwrap_err();
        assert!(matches!(err, WallError::Protocol(_)), "{err}");
        // server hangs up on the corrupt client; client exits gracefully
        drop(stream);
        assert_eq!(client_thread.join().unwrap(), 0);
    }
}
