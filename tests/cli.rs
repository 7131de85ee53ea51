//! End-to-end tests of the `uvcdat` CLI binary.

use std::process::Command;

fn uvcdat() -> Command {
    Command::new(env!("CARGO_BIN_EXE_uvcdat"))
}

fn temp_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("uvcdat_cli_{}_{name}", std::process::id()))
}

#[test]
fn synth_info_calc_plot_pipeline() {
    let ncr = temp_path("a.ncr");
    let ppm = temp_path("a.ppm");

    // synth
    let out = uvcdat()
        .args(["synth", "-o", ncr.to_str().unwrap(), "--nt", "3", "--nlat", "12", "--nlon", "24"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // info lists the standard variables
    let out = uvcdat().args(["info", ncr.to_str().unwrap()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("ta ["), "{text}");
    assert!(text.contains("degrees") || text.contains("lat(12)"), "{text}");

    // calc evaluates and can write derived output
    let ncr2 = temp_path("b.ncr");
    let out = uvcdat()
        .args([
            "calc",
            ncr.to_str().unwrap(),
            "tc = ta - 273.15",
            "-o",
            ncr2.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = uvcdat().args(["info", ncr2.to_str().unwrap()]).output().unwrap();
    assert!(String::from_utf8_lossy(&out.stdout).contains("tc ["));

    // plot renders a PPM
    let out = uvcdat()
        .args([
            "plot",
            ncr.to_str().unwrap(),
            "--var",
            "ta",
            "--type",
            "slicer",
            "--time",
            "1",
            "--width",
            "120",
            "--height",
            "90",
            "-o",
            ppm.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let bytes = std::fs::read(&ppm).unwrap();
    assert!(bytes.starts_with(b"P6\n120 90\n255\n"));

    for p in [ncr, ncr2, ppm] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn synth_writes_a_file_the_streamer_serves() {
    // what `synth` writes is v3, the one format `StreamingDataset` reads
    use uvcdat::cdms::synth::SynthesisSpec;
    use uvcdat::cdms::StreamingDataset;
    let ncr = temp_path("streamed.ncr");
    let out = uvcdat()
        .args(["synth", "-o", ncr.to_str().unwrap(), "--nt", "6", "--nlev", "2"])
        .args(["--nlat", "8", "--nlon", "16", "--seed", "5"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let sd = StreamingDataset::open(&ncr).unwrap_or_else(|e| panic!("synth output: {e}"));
    let ta = sd.variable("ta").unwrap();
    let served = ta.window_variable(0).unwrap();
    let want = SynthesisSpec::new(6, 2, 8, 16).seed(5).build();
    let want = want.variable("ta").unwrap().time_window(0..served.n_times()).unwrap();
    assert!(served.n_times() > 0);
    assert_eq!(served.array, want.array);
    assert_eq!(served.axes, want.axes);
    std::fs::remove_file(ncr).ok();
}

#[test]
fn hovmoller_plot_from_cli() {
    let ncr = temp_path("h.ncr");
    let ppm = temp_path("h.ppm");
    assert!(uvcdat()
        .args(["synth", "-o", ncr.to_str().unwrap(), "--nt", "8", "--nlat", "10", "--nlon", "20"])
        .status()
        .unwrap()
        .success());
    let out = uvcdat()
        .args([
            "plot",
            ncr.to_str().unwrap(),
            "--var",
            "wave",
            "--type",
            "hovmoller_volume",
            "-o",
            ppm.to_str().unwrap(),
            "--width",
            "96",
            "--height",
            "72",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(ppm.exists());
    std::fs::remove_file(ncr).ok();
    std::fs::remove_file(ppm).ok();
}

/// Every single-variable palette row renders from the CLI, and the usage
/// text and an unknown key's error both list exactly those rows.
#[test]
fn every_palette_row_plots_from_cli() {
    let ncr = temp_path("p.ncr");
    assert!(uvcdat()
        .args(["synth", "-o", ncr.to_str().unwrap(), "--nt", "3", "--nlat", "10", "--nlon", "20"])
        .status()
        .unwrap()
        .success());
    let keys: Vec<&str> =
        uvcdat::dv3d::plots::single_variable_rows().map(|row| row.key).collect();
    for row in uvcdat::dv3d::plots::single_variable_rows() {
        let ppm = temp_path(&format!("{}.ppm", row.key));
        // a Hovmöller volume stacks the timesteps of a surface field
        let var = if row.needs_hovmoller { "wave" } else { "ta" };
        let out = uvcdat()
            .args(["plot", ncr.to_str().unwrap(), "--var", var, "--type", row.key])
            .args(["--width", "96", "--height", "72", "-o", ppm.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}: {}", row.key, String::from_utf8_lossy(&out.stderr));
        let bytes = std::fs::read(&ppm).unwrap();
        assert!(bytes.starts_with(b"P6\n96 72\n255\n"), "{}", row.key);
        assert!(bytes.iter().skip(13).any(|&b| b != 0), "{} drew nothing", row.key);
        std::fs::remove_file(ppm).ok();
    }
    // a field without a time axis plots whole, whatever --time says
    let ppm = temp_path("lf.ppm");
    let out = uvcdat()
        .args(["plot", ncr.to_str().unwrap(), "--var", "sftlf", "--time", "2"])
        .args(["-o", ppm.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(ppm).ok();

    let out = uvcdat()
        .args(["plot", ncr.to_str().unwrap(), "--var", "ta", "--type", "hologram"])
        .args(["-o", "/tmp/x.ppm"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    let listed = format!("plot types: {}", keys.join(" "));
    assert_eq!(text.matches(&listed).count(), 2, "error and usage both list the keys: {text}");
    std::fs::remove_file(ncr).ok();
}

#[test]
fn bad_invocations_fail_cleanly() {
    // no command
    let out = uvcdat().output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // unknown command
    let out = uvcdat().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    // missing file
    let out = uvcdat().args(["info", "/nonexistent.ncr"]).output().unwrap();
    assert!(!out.status.success());
    // bad calc expression on a real file
    let ncr = temp_path("bad.ncr");
    assert!(uvcdat()
        .args(["synth", "-o", ncr.to_str().unwrap(), "--nlat", "6", "--nlon", "12"])
        .status()
        .unwrap()
        .success());
    let out = uvcdat()
        .args(["calc", ncr.to_str().unwrap(), "nope + 1"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    // unknown plot type
    let out = uvcdat()
        .args([
            "plot",
            ncr.to_str().unwrap(),
            "--var",
            "ta",
            "--type",
            "hologram",
            "-o",
            "/tmp/x.ppm",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    std::fs::remove_file(ncr).ok();
}

#[test]
fn wall_subcommand_runs_small() {
    let out = uvcdat().args(["wall", "--cells", "2", "--frames", "1"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("2 clients"), "{text}");
}
