//! The symfail benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds the workload's campaign from the seed, checks the
//! production pipeline against the committed golden report, then repeats
//! the untraced production run (`FleetCampaign::run_streaming_opts`
//! with two workers) for `--seconds` and reports medians, in
//! reference-host seconds (see `hostref`). A separate
//! single-threaded traced run replays the same campaign layer by layer
//! and must render the same report. The last stdout line is a JSON
//! object: the end-to-end metrics with `--trace 0`, the per-layer
//! ledger with `--trace 1`. See README.md for every metric.

mod hostref;
mod spans;
mod sys;
mod traced;
mod workload;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use symfail_core::analysis::passes::PassRegistry;
use symfail_phone::calibration::CalibrationParams;
use symfail_phone::fleet::FleetCampaign;

use crate::sys::HostFacts;
use crate::traced::Traced;
use crate::workload::{Rep, Workload, WORKERS};

/// Fewest production repetitions a run reports a median of, however
/// short `--seconds` is.
const MIN_REPS: usize = 3;

/// The committed rendering of the default 25-phone campaign.
const GOLDEN: &str = "tests/golden/report_default.txt";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got `{v}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(2005),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args(std::env::args().skip(1))?;
    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
    let w = workload::find(&args.workload).ok_or_else(|| {
        format!(
            "unknown workload `{}`; workloads: {}",
            args.workload,
            names.join(", ")
        )
    })?;
    let root = repo_root();
    let host = HostFacts::read(&root);
    println!(
        "host: nproc={} cpu=\"{}\" loadavg=\"{}\" rustc=\"{}\" git={} workload={} seed={} workers={WORKERS}",
        host.nproc, host.cpu_model, host.loadavg, host.rustc, host.git_rev, w.name, args.seed
    );
    // Scratch space (checkpoint files) and span dumps live next to the
    // binary, inside the build directory.
    let out_dir = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark binary: {e}"))?
        .parent()
        .ok_or("benchmark binary has no parent directory")?
        .to_path_buf();
    let scratch = out_dir.join(format!("perfbench-scratch-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    let measured = measure(
        &w,
        args.seed,
        Duration::from_secs(args.seconds),
        &root.join(GOLDEN),
        &scratch,
    );
    let _ = std::fs::remove_dir_all(&scratch);
    let m = measured?;

    let v = verdict(&m);
    let e2e = end_to_end(&m);
    let layers = per_layer(&m);
    print!("{}", human_report(&m, &v, &e2e, &layers));
    if args.trace {
        let dir = out_dir.join("perfbench-spans");
        let path = dir.join(format!("{}-seed{}.tsv", w.name, args.seed));
        std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, m.traced.tracer.to_tsv()))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    let metrics = if args.trace { &layers } else { &e2e };
    println!("{}", result_json(&v, metrics));
    Ok(())
}

/// Everything one run measured, before any verdict.
struct Measured {
    setup_s: f64,
    /// Phones of the golden preflight, and its failure if any.
    preflight_ops: u64,
    preflight_failure: Option<String>,
    reps: Vec<Rep>,
    peak_rss_mb: f64,
    traced: Traced,
}

fn measure(
    w: &Workload,
    seed: u64,
    seconds: Duration,
    golden: &Path,
    scratch: &Path,
) -> Result<Measured, String> {
    // Before the program first runs: see `hostref::Kernel`.
    let mut kernel = hostref::Kernel::new();
    let (preflight_ops, preflight_failure) = preflight(golden);
    let t0 = Instant::now();
    let mut reps = Vec::new();
    let mut setup_samples = Vec::new();
    let mut setup = None;
    let mut peak_rss_mb = 0.0;
    // The host-speed kernel runs before the first repetition and after
    // every one; a repetition is normalised by the mean of the two
    // timings around it.
    let mut kernel_s = kernel.seconds();
    while reps.len() < MIN_REPS || t0.elapsed() < seconds {
        // Every repetition sets up afresh, as a separate campaign run
        // would, with the caches the previous repetition left behind.
        let t = Instant::now();
        let s = w.setup(seed, scratch)?;
        setup_samples.push(t.elapsed().as_secs_f64());
        let mut rep = workload::production(w, &s)?;
        if reps.is_empty() {
            // The peak of one campaign run in a fresh process. Over all
            // repetitions it is the largest of several draws that
            // depend on how the workers' frees interleave: on
            // `fleet_clean` it read 26.6-31.3 MiB between runs.
            peak_rss_mb = sys::peak_rss_mb()? - kernel.resident_mb();
        }
        let after = kernel.seconds();
        rep.kernel_s = (kernel_s + after) / 2.0;
        kernel_s = after;
        reps.push(rep);
        setup = Some(s);
    }
    let s = setup.expect("at least one repetition ran");
    let traced = traced::run(w, &s);
    Ok(Measured {
        setup_s: median(setup_samples),
        preflight_ops,
        preflight_failure,
        reps,
        peak_rss_mb,
        traced,
    })
}

/// Renders the default 25-phone campaign through `run_streaming_opts`
/// and compares it byte for byte with the committed golden report.
fn preflight(golden: &Path) -> (u64, Option<String>) {
    let params = CalibrationParams::default();
    let campaign = FleetCampaign::new(2005, params);
    let config = workload::analysis_config(&params);
    let registry = PassRegistry::all();
    let ops = u64::from(params.phones);
    let run = match campaign.run_streaming_opts(WORKERS, config, &registry, &Default::default()) {
        Ok(run) => run,
        Err(e) => return (ops, Some(format!("preflight run: {e}"))),
    };
    let got = workload::render(&run.report);
    match std::fs::read_to_string(golden) {
        Ok(want) if want == got => (ops, None),
        Ok(want) => {
            let line = got
                .lines()
                .zip(want.lines())
                .position(|(g, w)| g != w)
                .map_or_else(|| "in length".to_string(), |i| format!("at line {}", i + 1));
            (
                ops,
                Some(format!(
                    "preflight report differs from {} {line}",
                    golden.display()
                )),
            )
        }
        Err(e) => (ops, Some(format!("cannot read {}: {e}", golden.display()))),
    }
}

/// The correctness verdict of a run. Any failed check fails every
/// operation the run attempted.
struct Verdict {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

fn verdict(m: &Measured) -> Verdict {
    let mut failures: Vec<String> = m.preflight_failure.iter().cloned().collect();
    for (i, r) in m.reps.iter().enumerate() {
        failures.extend(r.failures.iter().map(|f| format!("rep {}: {f}", i + 1)));
    }
    failures.extend(m.traced.failures.iter().map(|f| format!("traced: {f}")));
    let first = &m.reps[0];
    if m.reps.iter().any(|r| r.digest != first.digest) {
        failures.push("report digest changed between repetitions".into());
    }
    let t = &m.traced.digests;
    let mut same = |what: &str, production: Option<u64>, reference: Option<u64>| {
        if production != reference {
            failures.push(format!(
                "{what}: production {production:x?} != reference {reference:x?}"
            ));
        }
    };
    same("traced report", Some(first.digest), Some(t.report));
    same("resumed report", first.resumed_digest, t.resumed);
    if t.oracle.is_some() {
        same(
            "merged vs uninterrupted report",
            Some(first.digest),
            t.oracle,
        );
        same(
            "resumed vs uninterrupted shard-0 report",
            first.resumed_digest,
            t.oracle_resumed,
        );
    }
    let attempted = m.preflight_ops + m.reps.iter().map(|r| r.ops).sum::<u64>() + m.traced.ops;
    Verdict {
        attempted,
        failed: if failures.is_empty() { 0 } else { attempted },
        failures,
    }
}

/// `(name, value, unit)` of one reported metric.
type Metric = (String, f64, &'static str);

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (a layer that did no work).
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn rep_median(m: &Measured, f: impl Fn(&Rep) -> f64) -> f64 {
    median(m.reps.iter().map(f).collect())
}

/// End-to-end metrics: medians over the production repetitions, the
/// times other than set-up in reference-host seconds.
fn end_to_end(m: &Measured) -> Vec<Metric> {
    let norm = |r: &Rep, s: f64| hostref::normalise(s, r.kernel_s);
    vec![
        ("setup_s".into(), m.setup_s, "s"),
        (
            "wall_norm_s".into(),
            rep_median(m, |r| norm(r, r.wall_s)),
            "s",
        ),
        (
            "phone_days_per_norm_s".into(),
            rep_median(m, |r| ratio(r.phone_days as f64, norm(r, r.wall_s))),
            "1/s",
        ),
        (
            "cpu_norm_s".into(),
            rep_median(m, |r| norm(r, r.cpu_s)),
            "s",
        ),
        ("peak_rss_mb".into(), m.peak_rss_mb, "MB"),
    ]
}

/// The per-layer ledger of the traced run, plus the `fleet.*` counters
/// and raw times of the untraced production runs and the host-speed
/// kernel's median time.
fn per_layer(m: &Measured) -> Vec<Metric> {
    let l = m.traced.tracer.ledger();
    let c = &m.traced.counters;
    let sim = l.layer("sim");
    let corrupt = l.layer("corrupt");
    let parse = l.layer("parse");
    let fold = l.layer("fold");
    let encode = l.layer("ckpt.encode");
    let root = l.layer("trace");
    let total_s = root.durations_ns.iter().sum::<u64>() as f64 / 1e9;
    let layers_s: f64 = l
        .layers
        .iter()
        .filter(|(name, _)| **name != "trace")
        .map(|(_, e)| e.self_s())
        .sum();
    let probe_s: f64 = l.probes.values().map(|e| e.self_s()).sum();
    let mut out: Vec<Metric> = vec![
        ("sim.self_s".into(), sim.self_s(), "s"),
        ("sim.phone_days".into(), c.phone_days as f64, "count"),
        ("sim.lines".into(), c.sim_lines as f64, "count"),
        ("sim.flash_bytes".into(), c.sim_flash_bytes as f64, "B"),
        (
            "sim.ns_per_line".into(),
            ratio(sim.self_ns as f64, c.sim_lines as f64),
            "ns",
        ),
        ("sim.allocs".into(), sim.self_allocs as f64, "count"),
        ("sim.phone_ms_p50".into(), sim.percentile_ms(50.0), "ms"),
        ("sim.phone_ms_p95".into(), sim.percentile_ms(95.0), "ms"),
        ("corrupt.self_s".into(), corrupt.self_s(), "s"),
        ("corrupt.allocs".into(), corrupt.self_allocs as f64, "count"),
        (
            "corrupt.defects_injected".into(),
            c.corrupt_defects_injected as f64,
            "count",
        ),
        ("corrupt.bytes".into(), c.corrupt_bytes as f64, "B"),
        ("parse.self_s".into(), parse.self_s(), "s"),
        ("parse.bytes".into(), c.parse_bytes as f64, "B"),
        ("parse.lines".into(), c.parse_lines as f64, "count"),
        (
            "parse.mb_per_s".into(),
            ratio(c.parse_bytes as f64 / 1e6, parse.self_s()),
            "MB/s",
        ),
        ("parse.defects".into(), c.parse_defects as f64, "count"),
        ("parse.allocs".into(), parse.self_allocs as f64, "count"),
        ("fold.self_s".into(), fold.self_s(), "s"),
        ("fold.allocs".into(), fold.self_allocs as f64, "count"),
    ];
    for name in PassRegistry::NAMES {
        out.push((format!("fold.{name}.self_s"), l.probe(name), "s"));
    }
    let cpu_s = rep_median(m, |r| r.cpu_s);
    out.extend([
        ("fleet.wall_s".into(), rep_median(m, |r| r.wall_s), "s"),
        ("fleet.cpu_s".into(), cpu_s, "s"),
        ("host.ref_s".into(), rep_median(m, |r| r.kernel_s), "s"),
        ("merge.self_s".into(), l.layer("merge").self_s(), "s"),
        (
            "merge.finish_s".into(),
            l.layer("merge.finish").self_s(),
            "s",
        ),
        (
            "fleet.merge_wait_s".into(),
            rep_median(m, |r| r.merge_wait_s),
            "s",
        ),
        (
            "fleet.absorbed_runs".into(),
            rep_median(m, |r| r.absorbed_runs as f64),
            "count",
        ),
        (
            "fleet.peak_pending_phones".into(),
            rep_median(m, |r| r.peak_pending_phones as f64),
            "count",
        ),
        (
            "fleet.parallel_efficiency".into(),
            rep_median(m, |r| ratio(r.cpu_s, r.wall_s * WORKERS as f64)),
            "ratio",
        ),
        (
            "fleet.allocs".into(),
            rep_median(m, |r| r.worker_allocs as f64),
            "count",
        ),
        ("ckpt.encode_s".into(), encode.self_s(), "s"),
        ("ckpt.write_s".into(), l.layer("ckpt.write").self_s(), "s"),
        ("ckpt.bytes".into(), c.ckpt_bytes as f64, "B"),
        ("ckpt.snapshots".into(), c.ckpt_snapshots as f64, "count"),
        (
            "ckpt.encode_ms_p50".into(),
            encode.percentile_ms(50.0),
            "ms",
        ),
        (
            "ckpt.encode_ms_p99".into(),
            encode.percentile_ms(99.0),
            "ms",
        ),
        ("ckpt.resume_s".into(), l.layer("ckpt.resume").self_s(), "s"),
        ("ckpt.load_s".into(), l.layer("ckpt.load").self_s(), "s"),
        ("ckpt.merge_s".into(), l.layer("ckpt.merge").self_s(), "s"),
        (
            "report.render_s".into(),
            l.layer("report.render").self_s(),
            "s",
        ),
        ("trace.total_s".into(), total_s, "s"),
        ("trace.layers_s".into(), layers_s, "s"),
        ("trace.probe_s".into(), probe_s, "s"),
        ("trace.unattributed_s".into(), root.self_s(), "s"),
        ("trace.overhead_s".into(), total_s - cpu_s, "s"),
    ]);
    out
}

fn human_report(m: &Measured, v: &Verdict, e2e: &[Metric], layers: &[Metric]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "production: {} repetitions, medians reported",
        m.reps.len()
    );
    for (i, r) in m.reps.iter().enumerate() {
        let _ = writeln!(
            s,
            "  rep {:>2}: wall {:.3} s  cpu {:.3} s  kernel {:.4} s  {} phone-days",
            i + 1,
            r.wall_s,
            r.cpu_s,
            r.kernel_s,
            r.phone_days
        );
    }
    let _ = writeln!(s, "end to end:");
    for (name, value, unit) in e2e {
        let _ = writeln!(s, "  {name:<28} {:>18} {unit}", fmt_value(*value));
    }
    let _ = writeln!(
        s,
        "  {:<28} {:>18} ratio ({} of {} operations)",
        "ops_failed_ratio",
        fmt_value(ratio(v.failed as f64, v.attempted as f64)),
        v.failed,
        v.attempted
    );
    let _ = writeln!(s, "end to end, as measured (medians, not normalised):");
    let raw: [Metric; 3] = [
        ("wall_s".into(), rep_median(m, |r| r.wall_s), "s"),
        (
            "phone_days_per_s".into(),
            rep_median(m, |r| ratio(r.phone_days as f64, r.wall_s)),
            "1/s",
        ),
        ("cpu_s".into(), rep_median(m, |r| r.cpu_s), "s"),
    ];
    for (name, value, unit) in &raw {
        let _ = writeln!(s, "  {name:<28} {:>18} {unit}", fmt_value(*value));
    }
    let _ = writeln!(s, "per layer (traced, single thread):");
    for (name, value, unit) in layers {
        let _ = writeln!(s, "  {name:<28} {:>18} {unit}", fmt_value(*value));
    }
    for f in &v.failures {
        let _ = writeln!(s, "FAILED: {f}");
    }
    s
}

/// Whole numbers as integers, small values in scientific notation.
fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() < 1e-3 {
        format!("{v:.4e}")
    } else {
        format!("{v:.6}")
    }
}

fn result_json(v: &Verdict, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        v.failures.is_empty(),
        v.attempted,
        v.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    //! Harness self-test on tiny fleets. Run with
    //! `cargo test --release --manifest-path perfbench/Cargo.toml`.

    use super::*;

    /// `(name, unit)` of every metric listed in one section of
    /// `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is an array")];
        let field = |obj: &str, key: &str| {
            let at = obj.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("string value") + 1;
            let close = open + rest[open..].find('"').expect("closed string");
            rest[open..close].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn tiny(w: &Workload) -> Workload {
        Workload {
            phones: 6,
            days: 8,
            enrollment_spread_days: 3,
            attrition_spread_days: 2,
            ..*w
        }
    }

    fn measure_tiny(w: &Workload, scratch: &str) -> Measured {
        let dir = std::env::current_exe()
            .unwrap()
            .parent()
            .unwrap()
            .join(format!("perfbench-test-{scratch}"));
        std::fs::create_dir_all(&dir).unwrap();
        let m = measure(w, 7, Duration::ZERO, &repo_root().join(GOLDEN), &dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        m
    }

    fn names(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|(n, _, u)| (n.clone(), (*u).to_string()))
            .collect()
    }

    #[test]
    fn every_declared_metric_is_emitted_with_its_unit() {
        for w in &workload::WORKLOADS {
            let m = measure_tiny(&tiny(w), w.name);
            let v = verdict(&m);
            assert!(v.failures.is_empty(), "{}: {:?}", w.name, v.failures);
            assert!(v.attempted > 0 && v.failed == 0);
            assert_eq!(names(&end_to_end(&m)), declared("end_to_end"), "{}", w.name);
            assert_eq!(names(&per_layer(&m)), declared("per_layer"), "{}", w.name);
            let json = result_json(&v, &end_to_end(&m));
            assert!(json.starts_with("{\"correct\": true, "), "{json}");
        }
    }

    #[test]
    fn wrong_reference_digest_fails_every_operation() {
        for w in &workload::WORKLOADS {
            let mut m = measure_tiny(&tiny(w), &format!("bad-{}", w.name));
            m.traced.digests.report ^= 1;
            let v = verdict(&m);
            assert!(!v.failures.is_empty());
            assert!(v.attempted > 0);
            assert_eq!(v.failed, v.attempted, "{}", w.name);
            assert!(result_json(&v, &[]).starts_with("{\"correct\": false, "));
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |a: &[&str]| parse_args(a.iter().map(|s| s.to_string()));
        let a = parse(&[
            "--workload",
            "ckpt_churn",
            "--seed",
            "9",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("ckpt_churn", 9, 3, true)
        );
        assert!(parse(&["--seed", "x", "--workload", "w"]).is_err());
        assert!(parse(&["--workload", "w", "--trace", "2"]).is_err());
        assert!(parse(&["--workload"]).is_err());
        assert!(parse(&[]).is_err());
    }
}
