//! The traced run: the production recipe replayed sequentially on one
//! thread, calling each layer's public function directly with a span
//! around every call.
//!
//! It doubles as the sequential oracle: its report must equal the
//! production report byte for byte. On churn workloads two more
//! mergers, fed in probe spans and never checkpointed, give the
//! uninterrupted reports the resumed and merged ones must equal.

use std::hint::black_box;
use std::path::{Path, PathBuf};

use symfail_core::analysis::checkpoint::ShardTopology;
use symfail_core::analysis::dataset::{ParseScratch, PhoneDataset};
use symfail_core::analysis::passes::{
    load_shard_checkpoint, merge_shard_checkpoints, FoldShard, PhoneLens, StreamMerger,
};
use symfail_core::flashfs::FlashFs;
use symfail_phone::corruption::{CorruptionModel, CorruptionProfile};
use symfail_phone::fleet::FleetCampaign;
use symfail_sim_core::SimRng;

use crate::spans::Tracer;
use crate::workload::{churn_stop, digest, render, Setup, Workload, WORKERS};

/// Work counted at the layer boundaries of the traced run.
#[derive(Debug, Default)]
pub struct Counters {
    pub phone_days: u64,
    pub sim_lines: u64,
    pub sim_flash_bytes: u64,
    pub corrupt_defects_injected: u64,
    pub corrupt_bytes: u64,
    pub parse_bytes: u64,
    pub parse_lines: u64,
    pub parse_defects: u64,
    pub ckpt_bytes: u64,
    pub ckpt_snapshots: u64,
}

/// What the traced run leaves behind.
pub struct Traced {
    pub tracer: Tracer,
    pub counters: Counters,
    /// Operations attempted: phones harvested, checkpoints written,
    /// resumes and merges.
    pub ops: u64,
    pub failures: Vec<String>,
    pub digests: Digests,
}

/// Report digests of the traced run.
#[derive(Default)]
pub struct Digests {
    /// The final report (the merged one on churn workloads).
    pub report: u64,
    /// Churn workloads: the resumed shard-0 report.
    pub resumed: Option<u64>,
    /// Churn workloads: the uninterrupted whole-fleet and shard-0
    /// folds that never went through a checkpoint.
    pub oracle: Option<u64>,
    pub oracle_resumed: Option<u64>,
}

struct Ctx<'a> {
    s: &'a Setup,
    /// The campaign without corruption: the simulation layer alone.
    clean: FleetCampaign,
    needs_coalesce: bool,
    scratch: ParseScratch,
    tr: Tracer,
    c: Counters,
    ops: u64,
    failures: Vec<String>,
}

/// Runs the traced replay of workload `w`, set up as `s`.
pub fn run(w: &Workload, s: &Setup) -> Traced {
    let mut ctx = Ctx {
        s,
        clean: s.campaign.clone().with_corruption(CorruptionProfile::None),
        needs_coalesce: s.registry.needs_coalesce(),
        scratch: ParseScratch::default(),
        tr: Tracer::new(),
        c: Counters::default(),
        ops: 0,
        failures: Vec::new(),
    };
    let mut out = Digests::default();
    ctx.tr.begin("trace", None, false);
    let r = if w.is_churn() {
        ctx.churn(w.checkpoint_every, &mut out)
    } else {
        ctx.fleet(&mut out);
        Ok(())
    };
    ctx.tr.end();
    if let Err(e) = r {
        ctx.failures.push(e);
    }
    Traced {
        tracer: ctx.tr,
        counters: ctx.c,
        ops: ctx.ops,
        failures: ctx.failures,
        digests: out,
    }
}

/// `[start, end)` cut at every multiple of `len` (anchored at phone 0,
/// as `run_streaming_opts` plans its runs).
fn runs(start: u32, end: u32, len: u32) -> impl Iterator<Item = (u32, u32)> {
    let mut id = start;
    std::iter::from_fn(move || {
        (id < end).then(|| {
            let next = ((id / len + 1) * len).min(end);
            let run = (id, next);
            id = next;
            run
        })
    })
}

fn count_lines(fs: &FlashFs) -> u64 {
    fs.file_names()
        .into_iter()
        .filter_map(|f| fs.read_bytes(f))
        .map(|b| b.iter().filter(|&&c| c == b'\n').count() as u64)
        .sum()
}

impl Ctx<'_> {
    /// Simulates, corrupts, parses and folds phone `id` into `shard`,
    /// and into every oracle shard inside a probe span.
    fn phone(&mut self, id: u32, shard: &mut FoldShard, oracles: &mut [FoldShard]) {
        let s = self.s;
        let clean = &self.clean;
        let mut h = self.tr.span("sim", Some(id), |_| clean.run_single(id));
        self.ops += 1;
        self.c.phone_days += h.retired_day - h.enrolled_day;
        self.c.sim_flash_bytes += h.flashfs.total_size();
        self.c.sim_lines += self.tr.probe("count", Some(id), || count_lines(&h.flashfs));

        // The production recipe: the campaign's per-phone corruption
        // stream and the device class's scaled rates.
        let profile = s.campaign.corruption();
        if profile != CorruptionProfile::None {
            self.c.corrupt_bytes += h.flashfs.total_size();
            let device = s
                .campaign
                .composition()
                .profile(id, s.campaign.params().phones);
            let model = CorruptionModel::new(device.scale_corruption(profile.rates()));
            let mut rng = SimRng::seed_from(s.seed).fork("corruption", u64::from(id));
            let injected = self.tr.span("corrupt", Some(id), |_| {
                model.inject(&mut h.flashfs, &mut rng)
            });
            self.c.corrupt_defects_injected +=
                injected.total_observable() + injected.tail_lines_lost;
        }

        self.c.parse_bytes += h.flashfs.total_size();
        let scratch = &mut self.scratch;
        let ds = self.tr.span("parse", Some(id), |_| {
            PhoneDataset::from_flashfs_with(id, &h.flashfs, scratch)
        });
        drop(h);
        self.c.parse_lines += ds.defects().lines_seen;
        self.c.parse_defects += ds.defects().total();

        let needs_coalesce = self.needs_coalesce;
        self.tr.span("fold", Some(id), |tr| {
            let lens =
                PhoneLens::with_device(&ds, s.config, needs_coalesce, s.campaign.device_labels(id));
            shard.absorb_phone(&s.registry, &lens);
            for pass in s.registry.passes() {
                tr.probe(pass.name(), Some(id), || {
                    drop(black_box(pass.fold_phone(black_box(&lens))));
                });
            }
            for o in oracles.iter_mut() {
                tr.probe("oracle", Some(id), || o.absorb_phone(&s.registry, &lens));
            }
        });
        ds.recycle(&mut self.scratch);
    }

    /// The whole fleet in contiguous runs of the length
    /// `run_streaming_opts` picks for its worker count, merged in phone
    /// order.
    fn fleet(&mut self, out: &mut Digests) {
        let s = self.s;
        let phones = s.campaign.params().phones;
        let run_len = (phones / (WORKERS as u32 * 8)).clamp(1, 32);
        let mut merger = StreamMerger::new(&s.registry, s.config);
        for (start, end) in runs(0, phones, run_len) {
            let mut shard = FoldShard::new(&s.registry, start);
            for id in start..end {
                self.phone(id, &mut shard, &mut []);
            }
            self.tr.span("merge", None, |_| merger.push_shard(shard));
        }
        let report = self.tr.span("merge.finish", None, |_| merger.finish());
        out.report = digest(&self.tr.span("report.render", None, |_| render(&report)));
    }

    /// Encodes a snapshot and writes it the way `run_streaming_opts`
    /// does (temp file, then rename).
    fn snapshot(
        &mut self,
        merger: &StreamMerger<'_>,
        topology: ShardTopology,
        path: &Path,
    ) -> Result<(), String> {
        let s = self.s;
        let composition = s.campaign.composition().spec_string();
        let bytes = self.tr.span("ckpt.encode", None, |_| {
            merger.snapshot(s.campaign.fingerprint(), &composition, topology)
        });
        self.ops += 1;
        self.c.ckpt_snapshots += 1;
        self.c.ckpt_bytes += bytes.len() as u64;
        self.tr
            .span("ckpt.write", None, |_| {
                let tmp = path.with_extension("tmp");
                std::fs::write(&tmp, &bytes).and_then(|()| std::fs::rename(&tmp, path))
            })
            .map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Two shards checkpointing every `every` absorbed phones, shard 0
    /// stopped halfway and resumed from its file, then the shard merge.
    fn churn(&mut self, every: u32, out: &mut Digests) -> Result<(), String> {
        let s = self.s;
        let shards = s.shards.expect("churn set-up plans two shards");
        let dir = s.dir.as_ref().expect("churn set-up creates a directory");
        let paths: Vec<PathBuf> = (0..2)
            .map(|i| dir.join(format!("traced{i}.ckpt")))
            .collect();
        let fingerprint = s.campaign.fingerprint();
        let composition = s.campaign.composition().spec_string();
        let stop = churn_stop(shards[0]);
        let mut whole = StreamMerger::new(&s.registry, s.config);
        for (i, &topology) in shards.iter().enumerate() {
            let (lo, hi) = topology.interval();
            let path = &paths[i];
            let mut merger = StreamMerger::new_at(&s.registry, s.config, lo);
            let mut own = (i == 0).then(|| StreamMerger::new_at(&s.registry, s.config, lo));
            // The production calls of this shard: shard 0 runs until the
            // stop, then a second call resumes from its checkpoint.
            let calls = if i == 0 {
                vec![(lo, stop), (stop, hi)]
            } else {
                vec![(lo, hi)]
            };
            for (call, &(start, end)) in calls.iter().enumerate() {
                if call > 0 {
                    drop(merger);
                    merger = self.tr.span("ckpt.resume", None, |_| {
                        let bytes =
                            std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                        StreamMerger::resume(
                            &s.registry,
                            s.config,
                            fingerprint,
                            &composition,
                            topology,
                            &bytes,
                        )
                        .map_err(|e| format!("resume: {e}"))
                    })?;
                    self.ops += 1;
                    if merger.absorbed() != start {
                        self.failures.push(format!(
                            "traced resume at phone {}, expected {start}",
                            merger.absorbed()
                        ));
                    }
                }
                // Production cuts runs at every checkpoint boundary and
                // snapshots whenever the absorbed count reaches one.
                for (run_start, run_end) in runs(start, end, every) {
                    let mut shard = FoldShard::new(&s.registry, run_start);
                    let n_oracles = 1 + usize::from(own.is_some());
                    let mut oracles: Vec<FoldShard> = (0..n_oracles)
                        .map(|_| FoldShard::new(&s.registry, run_start))
                        .collect();
                    for id in run_start..run_end {
                        self.phone(id, &mut shard, &mut oracles);
                    }
                    self.tr.span("merge", None, |_| merger.push_shard(shard));
                    self.tr.probe("oracle", None, || {
                        let mut oracles = oracles.into_iter();
                        whole.push_shard(oracles.next().expect("whole-fleet oracle shard"));
                        if let (Some(own), Some(o)) = (own.as_mut(), oracles.next()) {
                            own.push_shard(o);
                        }
                    });
                    if merger.absorbed().is_multiple_of(every) {
                        self.snapshot(&merger, topology, path)?;
                    }
                }
                // Every production call ends with a flush.
                self.snapshot(&merger, topology, path)?;
            }
            if i == 0 {
                let report = self.tr.span("merge.finish", None, |_| merger.finish());
                let text = self.tr.span("report.render", None, |_| render(&report));
                out.resumed = Some(digest(&text));
                out.oracle_resumed = own.map(|own| {
                    self.tr
                        .probe("oracle", None, || digest(&render(&own.finish())))
                });
            }
        }

        let inputs = self.tr.span("ckpt.load", None, |_| {
            let mut inputs = Vec::new();
            for (path, topology) in paths.iter().zip(shards) {
                let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
                let (info, _) =
                    load_shard_checkpoint(&s.registry, s.config, fingerprint, &composition, &bytes)
                        .map_err(|e| format!("load {}: {e}", path.display()))?;
                if info.covered() != topology.interval() {
                    return Err(format!(
                        "{} covers {:?}, its shard owns {:?}",
                        path.display(),
                        info.covered(),
                        topology.interval()
                    ));
                }
                inputs.push(bytes);
            }
            Ok(inputs)
        })?;
        self.ops += 1;
        let merger = self.tr.span("ckpt.merge", None, |_| {
            merge_shard_checkpoints(&s.registry, s.config, fingerprint, &composition, &inputs)
                .map_err(|e| format!("merge: {e}"))
        })?;
        let report = self.tr.span("merge.finish", None, |_| merger.finish());
        out.report = digest(&self.tr.span("report.render", None, |_| render(&report)));
        out.oracle = Some(
            self.tr
                .probe("oracle", None, || digest(&render(&whole.finish()))),
        );
        Ok(())
    }
}
