//! CLI argument rules of `repro`: the experiment picks the path, so
//! there is no flag to pick it. Experiments that walk the
//! materialized fleet dataset refuse the streaming-only flags with a
//! message naming the experiment, and every other experiment streams.

use std::path::PathBuf;
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("spawn repro")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn removed_path_flags_are_unknown() {
    for (flag, value) in [
        ("--engine", "streaming"),
        ("--pipeline", "staged"),
        ("--merge", "serial"),
    ] {
        let out = repro(&["--exp", "targets", flag, value]);
        assert!(!out.status.success(), "{flag} was accepted");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{flag}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn staged_experiments_refuse_streaming_only_flags() {
    for exp in [&["--exp", "ablations"][..], &["--exp", "fig5", "--sweep"]] {
        for flag in [
            &["--checkpoint", "never-written.bin"][..],
            &["--shard", "0/2"],
            &["--run-len", "3"],
        ] {
            let args = [exp, flag].concat();
            let out = repro(&args);
            assert!(!out.status.success(), "{args:?} was accepted");
            let msg = stderr(&out);
            assert!(
                msg.contains(&format!("--exp {}", exp[1..].join(" "))),
                "{args:?}: message does not name the experiment: {msg}"
            );
            assert!(
                msg.contains(flag[0]),
                "{args:?}: message does not name {}",
                flag[0]
            );
        }
    }
}

#[test]
fn timing_json_names_the_streaming_path() {
    let path: PathBuf = std::env::temp_dir().join(format!(
        "symfail-cliargs-timing-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let out = repro(&[
        "--exp",
        "all",
        "--phones",
        "4",
        "--days",
        "20",
        "--workers",
        "2",
        "--timing-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "repro failed: {}", stderr(&out));
    let json = std::fs::read_to_string(&path).expect("timing JSON written");
    let _ = std::fs::remove_file(&path);
    assert!(
        json.contains("\"schema\": \"symfail-pipeline-timing/8\""),
        "{json}"
    );
    assert!(json.contains("\"engine\": \"streaming\""), "{json}");
    for gone in ["\"pipeline\":", "\"merge\":"] {
        assert!(!json.contains(gone), "schema /8 dropped {gone}: {json}");
    }
}
