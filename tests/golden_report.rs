//! Golden-report pins for the paper campaign.
//!
//! `tests/golden/report_default.txt` is the committed rendering
//! (`render_all` + `render_per_phone`) of the default 25-phone /
//! 425-day campaign. Every path must match it byte for byte:
//!
//! - the batch analysis over the materialized fleet dataset,
//! - the streaming driver handing over one phone per run,
//! - the streaming driver with its automatic run length,
//! - a multi-process campaign: three `--shard i/3` checkpoint files
//!   merged with `merge_shard_checkpoints`.
//!
//! `tests/golden/report_worst_mixed.txt` pins the damaged-flash path:
//! the same campaign on the mixed fleet under `worst` corruption,
//! rendered by the streaming driver. It covers the corruption
//! injector and the parser's defect handling, which the clean default
//! campaign never reaches.
//!
//! The fixtures turn silent behavior drift into a reviewable diff: a
//! legitimate analysis change regenerates them (run with
//! `GOLDEN_REGEN=1`) and the diff shows up in the PR; an accidental
//! one fails four ways at once.

use std::path::PathBuf;

use symfail::core::analysis::dataset::FleetDataset;
use symfail::core::analysis::passes::{merge_shard_checkpoints, PassRegistry};
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::composition::FleetComposition;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, ShardSpec, StreamingOptions};
use symfail::sim::SimDuration;

fn campaign() -> FleetCampaign {
    FleetCampaign::new(2005, CalibrationParams::default())
}

fn config() -> AnalysisConfig {
    AnalysisConfig {
        uptime_gap: SimDuration::from_secs(
            CalibrationParams::default().heartbeat_period_secs * 3 + 60,
        ),
        ..AnalysisConfig::default()
    }
}

fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

const DEFAULT_FIXTURE: &str = "report_default.txt";
const WORST_MIXED_FIXTURE: &str = "report_worst_mixed.txt";

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join(name)
}

fn golden(name: &str) -> String {
    let path = fixture_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read golden fixture {}: {e}", path.display()))
}

/// Rewrites fixture `name` with `rendered` when `GOLDEN_REGEN` is set;
/// returns whether it did.
fn regenerate(name: &str, rendered: &str) -> bool {
    if std::env::var_os("GOLDEN_REGEN").is_none() {
        return false;
    }
    let path = fixture_path(name);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, rendered)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("regenerated {}", path.display());
    true
}

/// Asserts `got` equals fixture `name`, failing with the first
/// divergent line instead of two unreadable multi-kilobyte blobs.
fn assert_matches_fixture(name: &str, engine: &str, got: &str) {
    let want = golden(name);
    if got == want {
        return;
    }
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(
            g,
            w,
            "{engine} report diverges from {name} at line {}",
            i + 1
        );
    }
    panic!(
        "{engine} report diverges from {name} in length: \
         {} vs {} lines (regenerate with GOLDEN_REGEN=1 if intended)",
        got.lines().count(),
        want.lines().count()
    );
}

#[test]
fn batch_engine_matches_golden_report() {
    let harvest = campaign().run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report = StudyReport::analyze(&fleet, config());
    let rendered = render(&report);
    if regenerate(DEFAULT_FIXTURE, &rendered) {
        return;
    }
    assert_matches_fixture(DEFAULT_FIXTURE, "batch", &rendered);
}

#[test]
fn streaming_engine_matches_worst_mixed_golden_report() {
    let run = campaign()
        .with_fleet(FleetComposition::mixed())
        .with_corruption(CorruptionProfile::Worst)
        .run_streaming_opts(
            2,
            config(),
            &PassRegistry::all(),
            &StreamingOptions::default(),
        )
        .expect("streaming worst-mixed run");
    let rendered = render(&run.report);
    if regenerate(WORST_MIXED_FIXTURE, &rendered) {
        return;
    }
    assert_matches_fixture(WORST_MIXED_FIXTURE, "streaming-worst-mixed", &rendered);
}

#[test]
fn streaming_one_phone_runs_match_golden_report() {
    let opts = StreamingOptions {
        run_len: 1,
        ..StreamingOptions::default()
    };
    let run = campaign()
        .run_streaming_opts(2, config(), &PassRegistry::all(), &opts)
        .expect("streaming one-phone-run run");
    assert_matches_fixture(DEFAULT_FIXTURE, "streaming-run-len-1", &render(&run.report));
}

#[test]
fn streaming_shard_merge_matches_golden_report() {
    let run = campaign()
        .run_streaming_opts(
            3,
            config(),
            &PassRegistry::all(),
            &StreamingOptions::default(),
        )
        .expect("streaming sharded run");
    assert_matches_fixture(DEFAULT_FIXTURE, "streaming-sharded", &render(&run.report));
}

#[test]
fn merged_shard_checkpoints_match_golden_report() {
    let registry = PassRegistry::all();
    let ckpts: Vec<Vec<u8>> = (0..3)
        .map(|index| {
            let path = std::env::temp_dir()
                .join(format!("symfail-golden-{}-{index}.bin", std::process::id()));
            let _ = std::fs::remove_file(&path);
            let opts = StreamingOptions {
                checkpoint: Some(path.clone()),
                shard: Some(ShardSpec { index, count: 3 }),
                ..StreamingOptions::default()
            };
            campaign()
                .run_streaming_opts(2, config(), &registry, &opts)
                .unwrap_or_else(|e| panic!("shard {index}/3 run failed: {e}"));
            let bytes =
                std::fs::read(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            let _ = std::fs::remove_file(&path);
            bytes
        })
        .collect();
    let merger = merge_shard_checkpoints(
        &registry,
        config(),
        campaign().fingerprint(),
        "default",
        &ckpts,
    )
    .expect("merge of a full 3-shard cover");
    assert_matches_fixture(DEFAULT_FIXTURE, "shard-merge", &render(&merger.finish()));
}
