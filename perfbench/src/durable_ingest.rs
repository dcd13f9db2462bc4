//! `durable-ingest`: the write path under the default durability policy.
//!
//! A durable `ServeTable` on the `file` backend journals every commit and
//! fsyncs it (`fsync_every_chunks = 1`). Journal and store live on the
//! disk-backed filesystem of the working directory, not on tmpfs. The
//! column carries band views over its whole domain, so delta pruning
//! decides how much alignment work a batch causes. One writer client sends
//! skewed hot-zone batches through a `TableWriter`, waits for the durable
//! acknowledgement (the return of the tick that seals and fsyncs the
//! batch), then reads its rows back through a fresh pin. A maintenance
//! thread ticks while there is work and blocks otherwise. At the end the
//! table is dropped without `quiesce` and `ServeTable::recover` rebuilds it
//! from the journal, which must hold exactly the acknowledged batches.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use asv_core::{
    wal, AdaptiveConfig, AlignChunking, DurabilityConfig, ServeTable, TableHandle, TableWriter,
};
use asv_util::ValueRange;
use asv_vmem::{FileBackend, VALUES_PER_PAGE};
use asv_workloads::{Distribution, UpdateWorkload};

use crate::harness::{
    end_to_end, latency_metrics, overhead_pct, per_second, self_times, timed_setups, Metric, Opts,
    ProcWindow, Report, SETUP_REPS,
};
use crate::procfs;
use crate::reference::{check, Mismatch, ReferenceTable};
use crate::serve_layer::{serve_metrics, TickSampler};
use crate::stats::{median, ratio, Samples};
use crate::trace::Tracer;

/// 2 MiB column.
const PAGES: usize = 512;
const ROWS: usize = PAGES * VALUES_PER_PAGE;
/// Band views partitioning the value domain.
const VIEWS: u64 = 16;
const WRITES_PER_BATCH: usize = 64;
/// Share of the rows one batch's hot zone spans.
const TOUCH_FRACTION: f64 = 0.02;
/// Batches generated; the writer cycles through them.
const BATCHES: usize = 8_192;
/// Bytes of user data per loaded value and per acknowledged write (row id
/// plus value).
const LOADED_VALUE_BYTES: u64 = 8;
const WRITE_BYTES: u64 = 16;

struct Inputs {
    values: Vec<u64>,
    views: Vec<ValueRange>,
    batches: Vec<Vec<(usize, u64)>>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let dist = Distribution::linear();
        let domain = dist.max_value();
        let band = domain / VIEWS;
        Self {
            values: dist.generate_values(ROWS, seed),
            views: (0..VIEWS)
                .map(|j| {
                    ValueRange::new(
                        j * band,
                        if j + 1 == VIEWS {
                            domain
                        } else {
                            (j + 1) * band - 1
                        },
                    )
                })
                .collect(),
            batches: UpdateWorkload::new(seed)
                .hot_zone_churn(BATCHES, WRITES_PER_BATCH, ROWS, TOUCH_FRACTION, domain)
                .into_iter()
                .map(|round| round.writes)
                .collect(),
        }
    }
}

type Table = ServeTable<FileBackend>;

fn config() -> AdaptiveConfig {
    AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(64)
            .with_group_commit_idle(0),
    )
}

fn durability(dir: &Path) -> DurabilityConfig {
    DurabilityConfig::new(dir.join("journal.wal")).with_fsync_every_chunks(1)
}

fn setup(inputs: &Inputs, dir: &Path, tracer: &mut Tracer) -> Table {
    fs::create_dir_all(dir).expect("work directory");
    let root = tracer.begin("setup", None, 0);
    let mut table = tracer
        .call("serve.with_durability", root, 0, || {
            ServeTable::with_durability(
                FileBackend::with_dir(dir.join("store")),
                config(),
                durability(dir),
            )
        })
        .expect("durable table");
    tracer
        .call("serve.add_column", root, 0, || {
            table.add_column(&inputs.values)
        })
        .expect("column materialization");
    for range in &inputs.views {
        tracer
            .call("serve.install_view", root, 0, || {
                table.install_view(0, *range)
            })
            .expect("view installation");
    }
    tracer.end(root);
    table
}

/// Acknowledgement handshake between the writer and the maintenance
/// thread.
#[derive(Default)]
struct Acks {
    /// Batches fully sent into the ingest lanes.
    sent: usize,
    /// Batches whose publishing tick returned (sealed and fsynced).
    acked: usize,
    /// A tick failed; nothing more will be acknowledged.
    broken: bool,
    stop: bool,
}

struct Writer {
    commits: Samples,
    reads: Samples,
    batches: usize,
    writes: usize,
    switches: u64,
    reference: ReferenceTable,
    mismatch: Result<(), Mismatch>,
    tracer: Tracer,
}

fn writer(
    inputs: &Inputs,
    writer: TableWriter,
    handle: TableHandle<FileBackend>,
    sync: &(Mutex<Acks>, Condvar),
    seconds: Duration,
    mut tracer: Tracer,
) -> Writer {
    let switches = procfs::thread_ctx_switches();
    let (lock, cvar) = sync;
    let mut reference = ReferenceTable::new(vec![inputs.values.clone()]);
    let (mut commits, mut reads) = (Samples::default(), Samples::default());
    let (mut batches, mut writes) = (0, 0);
    let mut mismatch = Ok(());
    let started = Instant::now();
    for (k, batch) in inputs.batches.iter().cycle().enumerate() {
        if started.elapsed() >= seconds {
            break;
        }
        let request = k as u64;
        let root = tracer.begin("commit", None, request);
        let t = Instant::now();
        tracer.call("serve.stage", root, request, || {
            for &(row, value) in batch {
                writer.write(0, row, value);
            }
        });
        let mut acks = lock.lock().expect("ack lock poisoned");
        acks.sent = k + 1;
        cvar.notify_all();
        while acks.acked <= k && !acks.broken {
            acks = cvar.wait(acks).expect("ack lock poisoned");
        }
        if acks.acked <= k {
            break;
        }
        drop(acks);
        commits.record(started, t);
        tracer.end(root);
        batches += 1;
        writes += batch.len();
        for &(row, value) in batch {
            reference.apply(0, row, value);
        }
        // Read-your-writes through a fresh pin.
        let root = tracer.begin("read", None, request);
        let t = Instant::now();
        let snap = tracer.call("serve.pin", root, request, || handle.pin());
        let got: Vec<u64> = tracer.call("serve.value", root, request, || {
            batch.iter().map(|&(row, _)| snap.value(0, row)).collect()
        });
        drop(snap);
        reads.record(started, t);
        tracer.end(root);
        let want: Vec<u64> = batch
            .iter()
            .map(|&(row, _)| reference.value(0, row))
            .collect();
        mismatch = check(&format!("durable-ingest batch {k} read back"), got, want);
        if mismatch.is_err() {
            break;
        }
    }
    lock.lock().expect("ack lock poisoned").stop = true;
    cvar.notify_all();
    Writer {
        commits,
        reads,
        batches,
        writes,
        switches: procfs::thread_ctx_switches().saturating_sub(switches),
        reference,
        mismatch,
        tracer,
    }
}

struct Phase {
    wall: Duration,
    writer: Writer,
    failed: u64,
    journal_growth: u64,
    journal_bytes: u64,
    recover: Duration,
    ticks: TickSampler,
    rss_mib: f64,
    layer: BTreeMap<&'static str, f64>,
}

/// Serves the writer until it stops, then drops the table without
/// quiescing and recovers it from the journal.
fn measure(
    inputs: &Inputs,
    mut table: Table,
    dir: &Path,
    seconds: Duration,
    tracer: &mut Tracer,
) -> Result<Phase, Mismatch> {
    let journal = durability(dir).journal_path;
    let journal_start = journal_len(&journal);
    let sync = (Mutex::new(Acks::default()), Condvar::new());
    let mut ticks = TickSampler::new(tracer.enabled());
    let mut failed = 0u64;
    let window = ProcWindow::open();
    let started = Instant::now();
    let mut out = std::thread::scope(|scope| {
        let (w, h, s, t) = (table.writer(), table.handle(), &sync, tracer.fork());
        let client = scope.spawn(move || writer(inputs, w, h, s, seconds, t));
        let (lock, cvar) = &sync;
        let mut acked = 0;
        loop {
            let busy = table.round_in_flight(0) || table.queued_writes(0) > 0;
            let mut acks = lock.lock().expect("ack lock poisoned");
            while !busy && acks.sent == acked && !acks.stop {
                acks = cvar.wait(acks).expect("ack lock poisoned");
            }
            if acks.stop && acks.sent == acked {
                break;
            }
            let target = acks.sent;
            drop(acks);
            if target == acked {
                // Alignment-only tick: it returns at once while the
                // background planner works, so let the other threads run.
                std::thread::yield_now();
            }
            let ticked = tracer.call("serve.tick", None, target as u64, || table.tick());
            ticks.sample(&mut table);
            let mut acks = lock.lock().expect("ack lock poisoned");
            if ticked.is_err() {
                failed += 1;
                acks.broken = true;
            } else {
                acked = target;
                acks.acked = target;
            }
            cvar.notify_all();
            if acks.broken {
                break;
            }
        }
        client.join().expect("writer thread panicked")
    });
    let wall = started.elapsed();
    out.mismatch.clone()?;
    tracer.absorb(std::mem::replace(&mut out.tracer, Tracer::new(false)));
    let mut layer = BTreeMap::new();
    let rss_mib = window.close(out.commits.len(), &mut layer);
    if tracer.enabled() {
        serve_metrics(&mut table, tracer, wall, &mut layer);
    }
    let journal_bytes = journal_len(&journal);
    // The crash stand-in: no quiesce, no final seal.
    drop(table);
    let root = tracer.begin("recover", None, 0);
    if tracer.enabled() {
        let copy = dir.join("journal-copy.wal");
        fs::copy(&journal, &copy).expect("journal copy");
        let t = Instant::now();
        let replay = tracer
            .call("wal.replay", root, 0, || wal::replay(&copy))
            .expect("journal replay");
        layer.insert("wal.replay_ms", t.elapsed().as_secs_f64() * 1e3);
        layer.insert("wal.records", replay.sealed_records.len() as f64);
        fs::remove_file(&copy).expect("journal copy removal");
    }
    let t = Instant::now();
    let recovered = tracer.call("serve.recover", root, 0, || {
        ServeTable::recover(
            FileBackend::with_dir(dir.join("recovered-store")),
            config(),
            durability(dir),
        )
    });
    let recover = t.elapsed();
    tracer.end(root);
    let (recovered, _info) =
        recovered.map_err(|e| Mismatch(format!("durable-ingest recovery failed: {e}")))?;
    let snap = recovered.handle().pin();
    check("durable-ingest recovered rows", snap.num_rows(0), ROWS)?;
    let want = out.reference.column(0);
    if let Some(row) = (0..ROWS).find(|&row| snap.value(0, row) != want[row]) {
        check(
            &format!("durable-ingest recovered row {row}"),
            snap.value(0, row),
            want[row],
        )?;
    }
    Ok(Phase {
        wall,
        writer: out,
        failed,
        journal_growth: journal_bytes.saturating_sub(journal_start),
        journal_bytes,
        recover,
        ticks,
        rss_mib,
        layer,
    })
}

fn journal_len(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, Mismatch> {
    let inputs = Inputs::generate(opts.seed);
    let mut report = Report {
        backend: "file",
        ..Report::default()
    };
    let mut off = Tracer::new(false);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let ((table, dir), setup_s) = timed_setups(reps, |rep| {
        let dir = opts.work_dir.join(format!("untraced-{rep}"));
        (setup(&inputs, &dir, &mut off), dir)
    });
    let untraced = measure(&inputs, table, &dir, opts.seconds, &mut off)?;
    let (w, wall) = (&untraced.writer, untraced.wall);
    report.attempted += (w.commits.len() + w.reads.len()) as u64;
    report.failed += untraced.failed;
    report.end_to_end = end_to_end(&setup_s, &w.commits, wall, untraced.rss_mib);
    let user_bytes = LOADED_VALUE_BYTES * ROWS as u64 + WRITE_BYTES * w.writes as u64;
    report.named = vec![Metric::over(
        "setup_s",
        "s",
        median(&setup_s),
        setup_s.len(),
    )];
    report.named.extend(latency_metrics(
        ["commit_p50_us", "commit_p99_us", "commits_per_s"],
        &w.commits,
        wall,
    ));
    report.named.push(Metric::new(
        "writes_per_s",
        "1/s",
        per_second(w.writes, wall),
    ));
    report.named.extend(latency_metrics(
        ["read_p50_us", "read_p99_us", "reads_per_s"],
        &w.reads,
        wall,
    ));
    report.named.push(Metric::new(
        "recover_s",
        "s",
        untraced.recover.as_secs_f64(),
    ));
    report.named.push(Metric::new(
        "journal_bytes_per_user_byte",
        "ratio",
        ratio(untraced.journal_bytes as f64, user_bytes as f64),
    ));
    report
        .named
        .push(Metric::new("rss_peak_mib", "MiB", untraced.rss_mib));
    report.named.push(report.error_rate());
    if !opts.trace {
        return Ok(report);
    }
    let mut tracer = Tracer::new(true);
    let dir = opts.work_dir.join("traced");
    let table = setup(&inputs, &dir, &mut tracer);
    let mut traced = measure(&inputs, table, &dir, opts.seconds, &mut tracer)?;
    let t = &traced.writer;
    report.attempted += (t.commits.len() + t.reads.len()) as u64;
    report.failed += traced.failed;
    let layer = &mut traced.layer;
    traced.ticks.record(layer);
    layer.insert(
        "wal.bytes_per_commit",
        ratio(traced.journal_growth as f64, t.batches as f64),
    );
    layer.insert("serve.recover_ms", traced.recover.as_secs_f64() * 1e3);
    layer.insert(
        "proc.ctx_switches_per_read",
        ratio(t.switches as f64, t.reads.len() as f64),
    );
    layer.insert(
        "trace.overhead_pct",
        overhead_pct(w.commits.len(), wall, t.commits.len(), traced.wall),
    );
    report.per_layer = traced.layer;
    report.self_times = self_times(&tracer);
    report.tracer = Some(tracer);
    Ok(report)
}
