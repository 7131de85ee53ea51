//! The client (display) node: executes its 1-cell sub-workflow locally at
//! full resolution, responds to propagated interaction ops, and ships every
//! frame it renders to the server as a keyframe or a dirty-tile delta (wire
//! revision `PROTO_DELTA`, the only one there is).
//!
//! There is one message loop. It talks to the server through a link of two
//! exchanges, the next command and one reply, and treats a lost connection
//! as a graceful end of service rather than an error — in a degraded wall
//! the server is entitled to drop us. The loop serves the TCP link. It has
//! no fault branch: tests script faults from outside, with a link that
//! wraps the TCP one (`fault::FaultyLink`), as `cdms` tests wrap storage.

use crate::fault::ClientFaults;
use crate::frame_delta::{FrameStreamer, DEFAULT_KEYFRAME_EVERY};
use crate::protocol::{read_message_idle, write_message_deadline, Message, PROTO_DELTA};
use crate::workflow::{cell_from_plot_stage, wall_registry};
use crate::{Result, WallError};
use dv3d::cell::Dv3dCell;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use vistrails::executor::Executor;
use vistrails::pipeline::Pipeline;

/// One slice of an idle command wait. Waiting for the next command may
/// legitimately take forever, but never in one unbounded block.
const IDLE_SLICE: Duration = Duration::from_millis(250);

/// Deadline for any single message exchange once bytes are in flight.
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// The client's connection to the server, as its message loop uses it.
/// Either exchange fails once the connection is gone.
pub(crate) trait Link {
    /// The next command. Waiting for it is not bounded, but once its bytes
    /// start to arrive the whole message must land within `IO_DEADLINE`.
    fn command(&mut self) -> Result<Message>;
    /// Sends one reply within `IO_DEADLINE`.
    fn reply(&mut self, msg: &Message) -> Result<()>;
}

impl Link for TcpStream {
    fn command(&mut self) -> Result<Message> {
        read_message_idle(self, IDLE_SLICE, IO_DEADLINE, "command")
    }

    fn reply(&mut self, msg: &Message) -> Result<()> {
        write_message_deadline(self, msg, IO_DEADLINE, "reply")
    }
}

/// A display client, driven entirely by server messages.
#[derive(Debug)]
pub struct ClientNode {
    id: usize,
    stream: TcpStream,
}

impl ClientNode {
    /// Connects to the server and says hello as panel `id`. The `_v2`
    /// names the versioned handshake, which is now the only one.
    pub fn connect_v2(addr: SocketAddr, id: usize) -> Result<ClientNode> {
        Ok(ClientNode { id, stream: dial(addr, id)? })
    }

    /// Runs the message loop until `Shutdown` and returns the number of
    /// frames rendered. A lost connection ends the loop with `Ok(frames
    /// rendered so far)` — the server dropped this panel and is serving its
    /// mirror; a protocol violation (an unexpected message, `Execute`
    /// before `AssignWorkflow`, an unparsable pipeline) is an error.
    pub fn run(self) -> Result<u64> {
        self.run_with_faults(ClientFaults::default())
    }

    /// [`ClientNode::run`] with `faults` played on the link. Only tests
    /// script faults, and a test build plays them on a link that wraps the
    /// TCP one; elsewhere the script is empty and the loop serves the TCP
    /// link, as `run` does.
    pub fn run_with_faults(self, faults: ClientFaults) -> Result<u64> {
        serve(self.id, &mut faults.link(self.stream, self.id)?)
    }
}

/// Dials the server and says hello as panel `id` — the first time and
/// after a crash alike.
pub(crate) fn dial(addr: SocketAddr, id: usize) -> Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true).ok();
    let hello = Message::Hello { client_id: id, proto: PROTO_DELTA };
    write_message_deadline(&mut stream, &hello, IO_DEADLINE, "Hello")?;
    Ok(stream)
}

/// The message loop of panel `id`, until `Shutdown` or until the link is
/// gone; returns the frames rendered.
fn serve(id: usize, link: &mut impl Link) -> Result<u64> {
    let mut cell: Option<Dv3dCell> = None;
    let mut size = (64, 64);
    let mut streamer = FrameStreamer::new(size.0, size.1, DEFAULT_KEYFRAME_EVERY);
    let mut frames_rendered = 0;
    while let Ok(msg) = link.command() {
        let replies = match msg {
            Message::AssignWorkflow { pipeline_json, cell_module, width, height } => {
                size = (width, height);
                cell = Some(instantiate(&Pipeline::from_json(&pipeline_json)?, cell_module)?);
                // a fresh streamer opens with a keyframe, so a reconnected
                // client and its fresh server-side assembler sync from here
                streamer = FrameStreamer::new(width, height, DEFAULT_KEYFRAME_EVERY);
                vec![Message::Ready { client_id: id }]
            }
            Message::Op(op) => {
                if let Some(cell) = &mut cell {
                    let _ = cell.configure(&op);
                }
                continue;
            }
            Message::ResyncRequest { .. } => {
                streamer.force_keyframe();
                continue;
            }
            Message::Execute { frame } => {
                let cell = cell
                    .as_mut()
                    .ok_or_else(|| WallError::Protocol("Execute before AssignWorkflow".into()))?;
                let start = Instant::now();
                let fb = cell.render(size.0, size.1)?;
                let render_ms = start.elapsed().as_secs_f64() * 1000.0;
                let coverage =
                    fb.covered_pixels(rvtk::Color::BLACK) as f64 / (size.0 * size.1) as f64;
                frames_rendered += 1;
                // the frame's pixels, a keyframe or a delta, go ahead of
                // its FrameDone
                let (pixels, _) = streamer.encode(id, frame, &fb.to_rgba8())?;
                vec![pixels, Message::FrameDone { client_id: id, frame, coverage, render_ms }]
            }
            Message::Heartbeat { seq } => vec![Message::HeartbeatAck { client_id: id, seq }],
            Message::Shutdown => break,
            other => {
                return Err(WallError::Protocol(format!("client {id} got unexpected {other:?}")))
            }
        };
        if replies.iter().any(|reply| link.reply(reply).is_err()) {
            break;
        }
    }
    Ok(frames_rendered)
}

/// Executes the assigned sub-workflow up to the plot module and builds the
/// live cell from the produced `PlotSpec`, its camera framed before any op
/// arrives — as the server's mirror cell is, so a replayed op log turns a
/// reconnected panel to the view the live one showed.
fn instantiate(pipeline: &Pipeline, cell_module: u64) -> Result<Dv3dCell> {
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
