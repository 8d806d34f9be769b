//! `paragonctl` run as a process: its stdout and stderr, byte for byte.

use std::process::{Command, Output};

fn paragonctl(argv: &str) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_paragonctl"))
        .args(argv.split_whitespace())
        .output()
        .expect("paragonctl runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "paragonctl {argv}: {stderr}");
    out
}

/// The span report of a saved trace is the report of the fresh run, and
/// a recording that fills its cap says so on stderr while a whole one
/// does not.
#[test]
fn span_reports_of_files_and_fresh_runs_agree_and_flag_a_capped_recording() {
    let file = std::env::temp_dir().join(format!("paragonctl-it-{}.json", std::process::id()));
    let file = file.to_str().unwrap();
    const OPTIONS: &str = "--file-mb 4 --prefetch --delay-ms 25";
    let whole = paragonctl(&format!("trace capture {OPTIONS} --out {file}"));
    assert!(whole.stderr.is_empty());
    let saved = paragonctl(&format!("profile critical-path {file}"));
    let fresh = paragonctl(&format!("profile critical-path {OPTIONS}"));
    assert!(String::from_utf8_lossy(&fresh.stdout).contains("\nprefetch transfers ("));
    assert!(
        saved.stdout == fresh.stdout,
        "file and fresh reports differ"
    );

    for argv in [
        format!("trace capture --file-mb 8 --trace 500 --out {file}"),
        "profile critical-path --file-mb 8 --trace 500".to_string(),
        format!("profile export --file-mb 8 --trace 500 --out {file}"),
    ] {
        let stderr = String::from_utf8(paragonctl(&argv).stderr).unwrap();
        let warning = "warning: the recording reached its cap of 500 events";
        assert!(stderr.starts_with(warning), "{argv}: {stderr:?}");
    }
    let _ = std::fs::remove_file(file);
}
