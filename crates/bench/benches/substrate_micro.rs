//! Micro-benchmarks of the OS substrate and the logger data path: the
//! per-operation costs everything else is built from.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use symfail_core::flashfs::FlashFs;
use symfail_core::logger::{files, FailureLogger, LoggerConfig, PanicDetector, PhoneContext};
use symfail_core::records::{encode_beat_into, HeartbeatEvent, LogRecord};
use symfail_sim_core::{EventQueue, SimDuration, SimRng, SimTime};
use symfail_symbian::descriptor::TBuf;
use symfail_symbian::heap::Heap;
use symfail_symbian::object_index::{ObjectIndex, ObjectKind};
use symfail_symbian::panic::codes;
use symfail_symbian::Panic;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("substrate_micro");
    g.sample_size(20);
    g.measurement_time(std::time::Duration::from_secs(2));
    g.warm_up_time(std::time::Duration::from_millis(500));

    g.throughput(Throughput::Elements(1000));
    g.bench_function("heap_alloc_free_1000", |b| {
        b.iter(|| {
            let mut heap = Heap::with_capacity(1 << 20);
            for _ in 0..1000 {
                let cell = heap.alloc("app", 64).unwrap();
                heap.free(cell).unwrap();
            }
            black_box(heap.total_allocs())
        })
    });

    g.bench_function("descriptor_append_1000", |b| {
        b.iter(|| {
            let mut buf = TBuf::with_max_length(2000);
            for _ in 0..1000 {
                buf.append("ab").unwrap();
            }
            black_box(buf.length())
        })
    });

    g.bench_function("object_index_open_close_1000", |b| {
        b.iter(|| {
            let mut idx = ObjectIndex::new();
            for _ in 0..1000 {
                let h = idx.open("app", ObjectKind::Session);
                idx.close(h).unwrap();
            }
            black_box(idx.len())
        })
    });

    g.bench_function("event_queue_schedule_pop_1000", |b| {
        let mut rng = SimRng::seed_from(1);
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..1000u64 {
                q.schedule(SimTime::from_millis(rng.next_u64() % 1_000_000), i);
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });

    g.bench_function("rng_lognormal_1000", |b| {
        let mut rng = SimRng::seed_from(2);
        b.iter(|| (0..1000).map(|_| rng.lognormal(80.0, 0.5)).sum::<f64>())
    });

    g.bench_function("heartbeat_tick", |b| {
        let mut fs = FlashFs::new();
        let mut logger = FailureLogger::new(LoggerConfig::default());
        let ctx = PhoneContext::default();
        logger.on_boot(&mut fs, SimTime::ZERO, &ctx);
        let mut t = 0u64;
        b.iter(|| {
            t += 30;
            logger.on_tick(&mut fs, SimTime::from_secs(t), || ctx.clone());
        })
    });

    // The boot-time heartbeat check after a long session: ~1 MB of
    // beats (about 52k lines, half a year at the 300 s period). It
    // reads only the last line, so this costs the same at any file
    // size. The boot record is cleared after each boot to keep the log
    // file from growing with the iteration count.
    g.bench_function("boot_after_long_session", |b| {
        let mut fs = FlashFs::new();
        let mut at = SimTime::ZERO;
        while fs.size_of(files::BEATS) < 1 << 20 {
            fs.append_line_with(files::BEATS, |buf| {
                encode_beat_into(buf, at, HeartbeatEvent::Alive)
            });
            at += SimDuration::from_secs(300);
        }
        let mut detector = PanicDetector::new();
        b.iter(|| {
            detector.on_boot(&mut fs, at);
            fs.truncate(files::LOG);
        })
    });

    g.bench_function("log_record_encode_decode", |b| {
        let rec = LogRecord::Panic(symfail_core::records::PanicRecord {
            at: SimTime::from_secs(123),
            panic: Panic::new(codes::KERN_EXEC_3, "Messages", "dereferenced NULL"),
            running_apps: vec!["Messages".into(), "Log".into()],
            activity: None,
            battery: 67,
        });
        b.iter(|| {
            let line = rec.encode();
            black_box(LogRecord::decode(&line).unwrap())
        })
    });

    g.bench_function("simulate_one_phone_day", |b| {
        use symfail_phone::calibration::CalibrationParams;
        use symfail_phone::device::Phone;
        let params = CalibrationParams {
            phones: 1,
            campaign_days: 10_000,
            enrollment_spread_days: 1,
            attrition_spread_days: 1,
            ..CalibrationParams::default()
        };
        let mut phone = Phone::new(0, params, SimRng::seed_from(3).fork("bench", 0));
        let mut day = 0;
        b.iter(|| {
            phone.simulate_day(day);
            day += 1;
        });
        let _ = SimDuration::ZERO;
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
