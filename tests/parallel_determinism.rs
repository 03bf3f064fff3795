//! Parallel-pipeline determinism: the work-stealing campaign, the
//! parallel flash parser and the streaming driver must produce
//! byte-identical results for any worker count. Phones own forked,
//! independent RNG streams, so the thread schedule cannot leak into
//! any phone's bytes — these tests pin that contract.

use symfail::core::analysis::dataset::FleetDataset;
use symfail::core::analysis::passes::PassRegistry;
use symfail::core::analysis::report::{AnalysisConfig, StudyReport};
use symfail::core::flashfs::FlashFs;
use symfail::phone::calibration::CalibrationParams;
use symfail::phone::corruption::CorruptionProfile;
use symfail::phone::fleet::{FleetCampaign, StreamingOptions};

fn params() -> CalibrationParams {
    CalibrationParams {
        phones: 6,
        campaign_days: 40,
        enrollment_spread_days: 6,
        attrition_spread_days: 6,
        background_episode_rate_per_hour: 0.02,
        isolated_freeze_rate_per_hour: 0.01,
        isolated_self_shutdown_rate_per_hour: 0.01,
        ..CalibrationParams::default()
    }
}

fn assert_flash_identical(a: &FlashFs, b: &FlashFs, ctx: &str) {
    assert_eq!(a.file_names(), b.file_names(), "{ctx}: file sets differ");
    for name in a.file_names() {
        assert_eq!(
            a.read_bytes(name),
            b.read_bytes(name),
            "{ctx}: file {name} differs"
        );
    }
}

#[test]
fn harvest_is_byte_identical_for_any_worker_count() {
    let campaign = FleetCampaign::new(2005, params());
    let seq = campaign.run();
    for workers in [2usize, 3, 5, 16] {
        let par = campaign.run_parallel(workers);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let ctx = format!("phone {} with {} workers", a.phone_id, workers);
            assert_eq!(a.phone_id, b.phone_id, "{ctx}");
            assert_eq!(a.enrolled_day, b.enrolled_day, "{ctx}");
            assert_eq!(a.retired_day, b.retired_day, "{ctx}");
            assert_eq!(a.firmware, b.firmware, "{ctx}");
            assert_eq!(a.stats, b.stats, "{ctx}");
            assert_flash_identical(&a.flashfs, &b.flashfs, &ctx);
        }
    }
}

#[test]
fn analysis_output_identical_across_worker_counts() {
    let campaign = FleetCampaign::new(7, params());
    let base = render_study(&campaign, 1);
    for workers in [2usize, 4, 8] {
        assert_eq!(
            base,
            render_study(&campaign, workers),
            "rendered study differs with {workers} workers"
        );
    }
}

fn render_study(campaign: &FleetCampaign, workers: usize) -> String {
    let harvest = campaign.run_parallel(workers);
    let flash: Vec<(u32, &FlashFs)> = harvest.iter().map(|h| (h.phone_id, &h.flashfs)).collect();
    let fleet = FleetDataset::from_flash_parallel(&flash, workers);
    let report = StudyReport::analyze(&fleet, AnalysisConfig::default());
    report.render_all() + &report.render_per_phone()
}

#[test]
fn corrupted_harvest_is_byte_identical_for_any_worker_count() {
    // Corruption draws from a per-phone fork of the campaign seed, so
    // the damage — like the simulation itself — must not see the
    // thread schedule.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let seq = campaign.run();
    assert!(
        seq.iter().any(|h| h.injected.total_observable() > 0),
        "worst profile must inject observable damage"
    );
    for workers in [2usize, 4] {
        let par = campaign.run_parallel(workers);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            let ctx = format!("phone {} with {} workers", a.phone_id, workers);
            assert_eq!(a.injected, b.injected, "{ctx}");
            assert_flash_identical(&a.flashfs, &b.flashfs, &ctx);
        }
    }
}

#[test]
fn corrupted_analysis_identical_across_worker_counts() {
    let campaign = FleetCampaign::new(7, params()).with_corruption(CorruptionProfile::Moderate);
    let base = render_study(&campaign, 1);
    for workers in [2usize, 4] {
        assert_eq!(
            base,
            render_study(&campaign, workers),
            "corrupted rendered study differs with {workers} workers"
        );
    }
}

/// The sequential oracle: the labeled batch analysis over the fleet
/// parsed from `campaign.run()`.
fn oracle(campaign: &FleetCampaign, config: AnalysisConfig, registry: &PassRegistry) -> String {
    let harvest = campaign.run();
    let fleet = FleetDataset::from_flash(harvest.iter().map(|h| (h.phone_id, &h.flashfs)));
    let report =
        StudyReport::analyze_with_labels(&fleet, config, registry, |id| campaign.device_labels(id));
    report.render_all() + &report.render_per_phone()
}

#[test]
fn streaming_engine_report_identical_to_batch_for_any_worker_count() {
    // The streaming driver never materializes the fleet: each worker
    // folds its phones' analysis passes and drops the flash and the
    // dataset before simulating the next phone. The phone-ordered
    // merge must make the rendered study byte-identical to the batch
    // oracle — for any worker count, under the worst corruption
    // profile.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let batch = oracle(&campaign, config, &registry);
    for workers in [1usize, 4, 13] {
        let run = campaign
            .run_streaming_opts(workers, config, &registry, &StreamingOptions::default())
            .expect("no checkpoint path, nothing can fail");
        assert_eq!(
            batch,
            run.report.render_all() + &run.report.render_per_phone(),
            "streaming study differs from batch with {workers} workers"
        );
        assert_eq!(
            run.reclaimed_flash_bytes, run.parse_bytes,
            "every flash byte must be reclaimed phone-by-phone"
        );
    }
}

#[test]
fn sharded_merge_report_identical_to_serial_for_any_worker_count_and_run_len() {
    // The driver folds contiguous runs of phones into private
    // per-worker shards and hands whole shards to the merger. The
    // shard partition (run_len) and the thread schedule decide only
    // *when* state reaches the merger — never what the study says,
    // which must match the serial (sequential) oracle.
    let campaign = FleetCampaign::new(2005, params()).with_corruption(CorruptionProfile::Worst);
    let config = AnalysisConfig::default();
    let registry = PassRegistry::all();
    let serial = oracle(&campaign, config, &registry);
    for workers in [1usize, 4, 13] {
        for run_len in [0u32, 1, 2, 5] {
            let opts = StreamingOptions {
                run_len,
                ..StreamingOptions::default()
            };
            let run = campaign
                .run_streaming_opts(workers, config, &registry, &opts)
                .expect("no checkpoint path, nothing can fail");
            assert_eq!(
                serial,
                run.report.render_all() + &run.report.render_per_phone(),
                "sharded study differs from serial with {workers} workers, run_len {run_len}"
            );
        }
    }
}
