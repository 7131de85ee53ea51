//! The Fig 5 scenario: a 15-cell workflow distributed over a hyperwall.
//!
//! Spawns a server plus 15 display clients on loopback TCP, ships each
//! client its 1-cell sub-workflow, broadcasts an interaction, runs a few
//! distributed frames, and compares against rendering everything on a
//! single node.
//!
//! ```text
//! cargo run --release --example hyperwall_demo
//! ```

use uvcdat::dv3d::interaction::{Axis3, CameraOp, ConfigOp};
use uvcdat::hyperwall::client::ClientNode;
use uvcdat::hyperwall::cluster::{run_single_node_baseline, run_wall};
use uvcdat::hyperwall::layout::WallLayout;
use uvcdat::hyperwall::server::HyperwallServer;
use uvcdat::hyperwall::workflow::WallWorkflowConfig;

fn main() {
    let wall = WallLayout::nccs();
    println!(
        "NCCS hyperwall: {}x{} panels, {:.1} Mpixels total",
        wall.rows,
        wall.cols,
        wall.total_pixels() as f64 / 1e6
    );

    // A reduced-size stand-in for the wall (full panel resolution would
    // work identically, just slower in software rendering).
    let cfg = WallWorkflowConfig {
        n_cells: wall.n_panels(),
        synth: (2, 4, 24, 48),
        cell_px: (192, 144),
    };
    let ops = vec![
        ConfigOp::Camera(CameraOp::Azimuth(25.0)),
        ConfigOp::MoveSlice { axis: Axis3::Z, delta: 1 },
        ConfigOp::Leveling { dx: 0.1, dy: 0.2 },
    ];

    println!("\nlaunching {} clients + server on loopback TCP ...", cfg.n_cells);
    let report = run_wall(&cfg, 4, 3, &ops).expect("wall run");

    println!("workflow assignment + Ready handshake: {:.1} ms", report.assign_ms);
    for f in &report.frames {
        println!(
            "frame {}: round-trip {:.1} ms | mirror (degraded panels) {:.1} ms | client render mean {:.1} ms",
            f.frame,
            f.round_trip_ms,
            f.mirror_ms,
            f.client_render_ms.iter().sum::<f64>() / f.client_render_ms.len() as f64,
        );
    }
    let mean_op_ms =
        report.op_broadcast_ms.iter().sum::<f64>() / report.op_broadcast_ms.len().max(1) as f64;
    println!(
        "interaction broadcast to {} clients: {:.2} ms mean",
        report.n_clients, mean_op_ms
    );
    println!("total client frames rendered: {}", report.client_frames);

    // The server renders a mirror cell only for a panel it serves itself.
    if report.degraded_frames == 0 {
        println!("\nserver mirror: every panel live, so no mirror cell was rendered");
    } else {
        println!(
            "\nserver mirror: {:.2} ms per degraded panel-frame at 1/4 resolution \
             vs {:.2} ms/cell full-res on clients",
            report.mirror_ms_per_degraded_frame(),
            report.mean_client_render_ms()
        );
    }

    let baseline_ms = run_single_node_baseline(&cfg, 3).expect("baseline");
    let distributed_ms: f64 = report.frames.iter().map(|f| f.round_trip_ms).sum();
    println!(
        "single-node full-res baseline (3 frames, {} cells): {:.0} ms",
        cfg.n_cells, baseline_ms
    );
    println!(
        "distributed wall (3 frames, round-trip): {:.0} ms",
        distributed_ms
    );
    println!(
        "(this host has {} CPU(s): with one core the distributed run shows \
         protocol overhead only; on a 15-node cluster each client's {:.1} ms \
         render happens concurrently)",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        report.mean_client_render_ms()
    );

    // Finally, save the server's touchscreen view after one frame: the whole
    // wall as a low-resolution mosaic of the frames the clients sent.
    let mut server = HyperwallServer::bind(&cfg, 4).expect("bind");
    let addr = server.addr().expect("addr");
    let clients: Vec<_> = (0..cfg.n_cells)
        .map(|id| {
            std::thread::spawn(move || ClientNode::connect_v2(addr, id).expect("connect").run())
        })
        .collect();
    server.accept_clients(cfg.n_cells).expect("accept");
    server.assign_workflows(&cfg).expect("assign");
    server.execute_frame(0).expect("frame");
    let mosaic = server.mirror_mosaic(&wall).expect("mosaic");
    std::fs::create_dir_all("out").ok();
    mosaic.save_ppm("out/hyperwall_mosaic.ppm").expect("save mosaic");
    println!(
        "\nserver mirror mosaic ({}x{} px, 5x3 panels) -> out/hyperwall_mosaic.ppm",
        mosaic.width(),
        mosaic.height()
    );
    server.shutdown().expect("shutdown");
    for c in clients {
        c.join().expect("join").expect("client");
    }
}
