//! The benchmark workloads, their set-up, and the untraced production
//! run through `FleetCampaign::run_streaming_opts`.

use std::path::{Path, PathBuf};
use std::time::Instant;

use symfail_core::analysis::checkpoint::{fnv1a64, ShardTopology};
use symfail_core::analysis::passes::{merge_shard_checkpoints, PassRegistry};
use symfail_core::analysis::report::{AnalysisConfig, StudyReport};
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::composition::FleetComposition;
use symfail_phone::corruption::CorruptionProfile;
use symfail_phone::fleet::{FleetCampaign, PhoneMeta, ShardSpec, StreamingOptions, StreamingRun};
use symfail_phone::plan::BalanceMode;
use symfail_sim_core::SimDuration;

use crate::sys;

/// Worker threads of every production run: the development and CI
/// hosts have two cores.
pub const WORKERS: usize = 2;

/// One benchmark workload: the campaign a seed is turned into, and
/// whether it runs as one process or as two checkpointed shards.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub phones: u32,
    pub days: u32,
    pub enrollment_spread_days: u32,
    pub attrition_spread_days: u32,
    /// `--fleet` composition spec.
    pub fleet: &'static str,
    pub corruption: CorruptionProfile,
    /// `0`: one unsharded process without checkpoints. `N > 0`: two
    /// balanced shards that checkpoint every `N` absorbed phones, shard
    /// 0 stopped halfway and resumed from its checkpoint, then the two
    /// shard checkpoints merged.
    pub checkpoint_every: u32,
}

/// Why each workload exists is recorded in `BENCHMARK.json` and in
/// this package's README.
pub const WORKLOADS: [Workload; 3] = [
    // The paper-scale fleet: simulation is the hot path.
    Workload {
        name: "fleet_clean",
        phones: 250,
        days: 425,
        enrollment_spread_days: 280,
        attrition_spread_days: 160,
        fleet: "default",
        corruption: CorruptionProfile::None,
        checkpoint_every: 0,
    },
    // The same simulation load on damaged flash from a mixed fleet:
    // corruption injection, the parser's defect paths and the
    // per-class grouped accumulators run.
    Workload {
        name: "fleet_worst_mixed",
        phones: 250,
        days: 425,
        enrollment_spread_days: 280,
        attrition_spread_days: 160,
        fleet: "mixed",
        corruption: CorruptionProfile::Worst,
        checkpoint_every: 0,
    },
    // Many short-lived phones in two checkpointing shards: snapshot
    // encoding and writes under the merge lock, resume and merge. The
    // spreads keep the default campaign's proportions (280/425 and
    // 160/425 of the campaign). A checkpoint after every phone makes
    // the run wait on the disk: each write replaces the previous file
    // through a rename, whose latency swung 2-3x from minute to minute
    // on the 2-core development host and took wall time with it.
    // Every 8 phones keeps the checkpoint layer busy while the CPU
    // work sets the wall time.
    Workload {
        name: "ckpt_churn",
        phones: 2000,
        days: 20,
        enrollment_spread_days: 13,
        attrition_spread_days: 8,
        fleet: "default",
        corruption: CorruptionProfile::None,
        checkpoint_every: 8,
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// Everything a run needs before `run_streaming_opts` is called. Building it is
/// what `setup_s` times.
pub struct Setup {
    pub seed: u64,
    pub campaign: FleetCampaign,
    pub registry: PassRegistry,
    pub config: AnalysisConfig,
    /// Both shards' topologies from the static balanced plan (churn
    /// workloads only).
    pub shards: Option<[ShardTopology; 2]>,
    /// Checkpoint directory (churn workloads only), created empty.
    pub dir: Option<PathBuf>,
}

impl Workload {
    pub fn is_churn(&self) -> bool {
        self.checkpoint_every > 0
    }

    fn params(&self) -> CalibrationParams {
        CalibrationParams {
            phones: self.phones,
            campaign_days: self.days,
            enrollment_spread_days: self.enrollment_spread_days,
            attrition_spread_days: self.attrition_spread_days,
            ..CalibrationParams::default()
        }
    }

    /// Builds the campaign, pass registry and shard plan for `seed`,
    /// and (churn workloads) an empty checkpoint directory under
    /// `scratch`.
    pub fn setup(&self, seed: u64, scratch: &Path) -> Result<Setup, String> {
        let params = self.params();
        let fleet = FleetComposition::parse(self.fleet).map_err(|e| e.to_string())?;
        let campaign = FleetCampaign::new(seed, params)
            .with_fleet(fleet)
            .with_corruption(self.corruption);
        let (shards, dir) = if self.is_churn() {
            let plan = campaign.shard_plan(2, &BalanceMode::Static);
            let dir = scratch.join("ckpt");
            if dir.exists() {
                std::fs::remove_dir_all(&dir)
                    .map_err(|e| format!("cannot clear {}: {e}", dir.display()))?;
            }
            std::fs::create_dir_all(&dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            (Some([plan.topology(0), plan.topology(1)]), Some(dir))
        } else {
            (None, None)
        };
        Ok(Setup {
            seed,
            campaign,
            registry: PassRegistry::all(),
            config: analysis_config(&params),
            shards,
            dir,
        })
    }
}

/// The analysis configuration `repro` and the golden report use.
pub fn analysis_config(params: &CalibrationParams) -> AnalysisConfig {
    AnalysisConfig {
        uptime_gap: SimDuration::from_secs(params.heartbeat_period_secs * 3 + 60),
        ..AnalysisConfig::default()
    }
}

/// The report text every correctness check compares.
pub fn render(report: &StudyReport) -> String {
    report.render_all() + &report.render_per_phone()
}

pub fn digest(text: &str) -> u64 {
    fnv1a64(text.as_bytes())
}

/// Phone-days simulated for these phones.
fn phone_days(metas: &[PhoneMeta]) -> u64 {
    metas.iter().map(|m| m.retired_day - m.enrolled_day).sum()
}

/// Snapshots `run_streaming_opts` writes while absorbing phones `[start, end)`:
/// one whenever the absorbed count reaches a multiple of `every`.
pub fn boundary_snapshots(start: u32, end: u32, every: u32) -> u64 {
    u64::from(end / every - start / every)
}

/// Shard 0 of a churn workload is stopped at this phone and resumed.
pub fn churn_stop(shard0: ShardTopology) -> u32 {
    shard0.start + (shard0.end - shard0.start) / 2
}

/// The outcome of one untraced production repetition.
#[derive(Debug, Default)]
pub struct Rep {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Mean time of the host-speed kernel before and after this
    /// repetition.
    pub kernel_s: f64,
    pub phone_days: u64,
    /// Phones harvested across the repetition's production calls.
    pub phones: u64,
    /// Digest of the final rendered report.
    pub digest: u64,
    /// Digest of the resumed shard-0 report (churn workloads).
    pub resumed_digest: Option<u64>,
    /// Operations attempted: phones harvested, checkpoints written,
    /// resumes and merges.
    pub ops: u64,
    /// Check failures found by this repetition.
    pub failures: Vec<String>,
    pub merge_wait_s: f64,
    pub absorbed_runs: u64,
    pub peak_pending_phones: u64,
    pub worker_allocs: u64,
}

impl Rep {
    fn absorb_stats(&mut self, run: &StreamingRun) {
        self.phone_days += phone_days(&run.metas);
        self.phones += run.metas.len() as u64;
        self.ops += run.metas.len() as u64;
        for ws in &run.worker_stats {
            self.merge_wait_s += ws.merge_wait_seconds;
            self.worker_allocs += ws.alloc_calls.unwrap_or(0);
        }
        self.absorbed_runs += run.merge_stats.absorbed_shards;
        self.peak_pending_phones = self
            .peak_pending_phones
            .max(run.merge_stats.peak_pending_phones as u64);
    }
}

/// One production repetition, timed from the first
/// `run_streaming_opts` call to the rendered report. Its errors are
/// recorded as failures, not returned: they are failed operations of
/// the run.
pub fn production(w: &Workload, s: &Setup) -> Result<Rep, String> {
    let cpu0 = sys::process_cpu_seconds()?;
    let t0 = Instant::now();
    let mut rep = if w.is_churn() {
        churn(s, w.checkpoint_every)
    } else {
        let opts = StreamingOptions {
            alloc_counter: Some(sys::thread_allocs),
            ..StreamingOptions::default()
        };
        let mut rep = Rep::default();
        match s
            .campaign
            .run_streaming_opts(WORKERS, s.config, &s.registry, &opts)
        {
            Ok(run) => {
                rep.digest = digest(&render(&run.report));
                rep.absorb_stats(&run);
            }
            Err(e) => rep.failures.push(format!("streaming run: {e}")),
        }
        rep
    };
    rep.wall_s = t0.elapsed().as_secs_f64();
    rep.cpu_s = sys::process_cpu_seconds()? - cpu0;
    if rep.failures.is_empty() && rep.phones != u64::from(w.phones) {
        rep.failures.push(format!(
            "harvested {} phones of a {}-phone fleet",
            rep.phones, w.phones
        ));
    }
    Ok(rep)
}

fn churn(s: &Setup, every: u32) -> Rep {
    let mut rep = Rep::default();
    if let Err(e) = churn_inner(s, every, &mut rep) {
        rep.failures.push(e);
    }
    rep
}

/// Shard 0 stopped halfway then resumed, shard 1, then the merge of
/// both shard checkpoints.
fn churn_inner(s: &Setup, every: u32, rep: &mut Rep) -> Result<(), String> {
    let shards = s.shards.expect("churn set-up plans two shards");
    let dir = s.dir.as_ref().expect("churn set-up creates a directory");
    let paths = [dir.join("shard0.ckpt"), dir.join("shard1.ckpt")];
    let stop = churn_stop(shards[0]);
    let opts = |i: u32, stop_after_phones: Option<u32>| StreamingOptions {
        checkpoint: Some(paths[i as usize].clone()),
        checkpoint_every: every,
        stop_after_phones,
        alloc_counter: Some(sys::thread_allocs),
        shard: Some(ShardSpec { index: i, count: 2 }),
        balance: BalanceMode::Static,
        ..StreamingOptions::default()
    };
    let mut run = |o: StreamingOptions, what: &str| {
        let r = s
            .campaign
            .run_streaming_opts(WORKERS, s.config, &s.registry, &o)
            .map_err(|e| format!("{what}: {e}"))?;
        rep.absorb_stats(&r);
        let first = r.metas.first().map_or(0, |m| m.phone_id);
        rep.ops += boundary_snapshots(first, first + r.metas.len() as u32, every) + 1;
        Ok::<_, String>(r)
    };
    let stopped = run(opts(0, Some(stop)), "shard 0 until the stop")?;
    let resumed = run(opts(0, None), "shard 0 resumed")?;
    run(opts(1, None), "shard 1")?;
    rep.ops += 1; // the resume
    if stopped.metas.len() as u32 != stop - shards[0].start {
        rep.failures.push(format!(
            "shard 0 stopped after {} phones, expected {}",
            stopped.metas.len(),
            stop - shards[0].start
        ));
    }
    if resumed.resumed_from != Some(stop) {
        rep.failures.push(format!(
            "shard 0 resumed from {:?}, expected phone {stop}",
            resumed.resumed_from
        ));
    }
    let inputs = paths
        .iter()
        .map(|p| std::fs::read(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect::<Result<Vec<_>, _>>()?;
    rep.ops += 1; // the merge
    let merger = merge_shard_checkpoints(
        &s.registry,
        s.config,
        s.campaign.fingerprint(),
        &s.campaign.composition().spec_string(),
        &inputs,
    )
    .map_err(|e| format!("merge: {e}"))?;
    rep.digest = digest(&render(&merger.finish()));
    rep.resumed_digest = Some(digest(&render(&resumed.report)));
    Ok(())
}
