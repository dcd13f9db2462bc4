//! `serve-mixed`: the concurrent serving engine under a read/write mix.
//!
//! A two-column `ServeTable` on the `mmap` backend with installed views is
//! served in rounds. In each round the maintenance thread stages a burst of
//! zipfian-row writes and commits it with a tick; then `nproc - 1` reader
//! clients pin snapshots and answer the round's uniform range reads, every
//! fourth one a two-predicate conjunctive read, with intra-query fork-join
//! over `nproc` threads. While readers work, the maintenance thread ticks
//! as long as an alignment round is in flight or writes are queued, and
//! blocks otherwise. The next round starts when every reader has finished.
//! Every read of round `k` therefore sees exactly the writes of rounds
//! `0..=k`, which is what the reference replays. The columns fit in the
//! last-level cache.

use std::collections::BTreeMap;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use asv_core::{AdaptiveConfig, AlignChunking, Parallelism, ServeTable, TableHandle};
use asv_util::ValueRange;
use asv_vmem::{MmapBackend, VALUES_PER_PAGE};
use asv_workloads::{Distribution, ServeReadOp, ServeSpec, ServeWorkload};

use crate::harness::{
    end_to_end, latency_metrics, overhead_pct, per_second, self_times, timed_setups, Metric, Opts,
    ProcWindow, Report, SETUP_REPS,
};
use crate::reference::{check, Mismatch, ReferenceTable};
use crate::serve_layer::{serve_metrics, TickSampler};
use crate::stats::{median, ratio, Samples};
use crate::trace::Tracer;
use crate::{machine, procfs};

const COLUMNS: usize = 2;
/// 2 MiB per column.
const PAGES: usize = 512;
const ROWS: usize = PAGES * VALUES_PER_PAGE;
/// Band views per column; each spans 3/16 of the domain, so every read of
/// width 1/16 fits in one.
const VIEWS_PER_COLUMN: u64 = 8;
const READS_PER_ROUND: usize = 4;
const WRITES_PER_ROUND: usize = 32;
/// Rounds generated; a run stops early if it gets through all of them.
const ROUNDS: usize = 20_000;

struct Round {
    /// Writes per column, in staging order.
    writes: Vec<Vec<(usize, u64)>>,
    reads: Vec<ServeReadOp>,
}

struct Inputs {
    columns: Vec<Vec<u64>>,
    views: Vec<(usize, ValueRange)>,
    rounds: Vec<Round>,
}

impl Inputs {
    fn generate(seed: u64) -> Self {
        let dist = Distribution::linear();
        let domain = dist.max_value();
        // Column 1 is reversed, so conjunctive predicates intersect
        // non-trivially.
        let mut reversed = dist.generate_values(ROWS, seed ^ 0xC01);
        reversed.reverse();
        let columns = vec![dist.generate_values(ROWS, seed), reversed];
        let band = domain / VIEWS_PER_COLUMN;
        let views = (0..COLUMNS)
            .flat_map(|col| {
                (0..VIEWS_PER_COLUMN).map(move |j| {
                    let lo = j * band;
                    (col, ValueRange::new(lo, (lo + band + band / 2).min(domain)))
                })
            })
            .collect();
        let spec = ServeSpec {
            rounds: ROUNDS,
            reads_per_round: READS_PER_ROUND,
            writes_per_round: WRITES_PER_ROUND,
            query_width: domain / 16,
            conjunctive_every: 4,
            max_value: domain,
            zipf_exponent: 1.05,
        };
        let rounds = ServeWorkload::new(seed)
            .rounds(&spec, COLUMNS, ROWS)
            .into_iter()
            .map(|round| {
                let mut writes = vec![Vec::new(); COLUMNS];
                for (col, row, value) in round.writes {
                    writes[col].push((row, value));
                }
                Round {
                    writes,
                    reads: round.reads,
                }
            })
            .collect();
        Self {
            columns,
            views,
            rounds,
        }
    }
}

type Table = ServeTable<MmapBackend>;

fn config() -> AdaptiveConfig {
    AdaptiveConfig::default().with_chunking(
        AlignChunking::default()
            .with_chunk_updates(64)
            .with_group_commit_idle(0),
    )
}

fn setup(inputs: &Inputs, tracer: &mut Tracer) -> Table {
    let root = tracer.begin("setup", None, 0);
    let mut table = ServeTable::new(MmapBackend::new(), config());
    for values in &inputs.columns {
        tracer
            .call("serve.add_column", root, 0, || table.add_column(values))
            .expect("column materialization");
    }
    for (col, range) in &inputs.views {
        tracer
            .call("serve.install_view", root, 0, || {
                table.install_view(*col, *range)
            })
            .expect("view installation");
    }
    tracer.end(root);
    table
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Answer {
    Range(u64, u128),
    Conjunctive(u64, u64),
}

/// Round handshake between the maintenance thread and the readers.
#[derive(Default)]
struct Rounds {
    /// Rounds committed and open for reading.
    open: usize,
    /// Reader-round completions; round `k` is finished at `(k + 1) * readers`.
    finished: usize,
    stop: bool,
}

struct Reader {
    latency: Samples,
    /// `(round, read index, answer)`.
    answers: Vec<(usize, usize, Answer)>,
    switches: u64,
    tracer: Tracer,
}

fn reader(
    id: usize,
    readers: usize,
    inputs: &Inputs,
    handle: TableHandle<MmapBackend>,
    sync: &(Mutex<Rounds>, Condvar),
    phase: Instant,
    mut tracer: Tracer,
) -> Reader {
    let switches = procfs::thread_ctx_switches();
    let mut latency = Samples::default();
    let mut answers = Vec::new();
    let (lock, cvar) = sync;
    for (k, round) in inputs.rounds.iter().enumerate() {
        {
            let mut state = lock.lock().expect("round lock poisoned");
            while state.open <= k && !state.stop {
                state = cvar.wait(state).expect("round lock poisoned");
            }
            if state.open <= k {
                break;
            }
        }
        for (i, read) in round.reads.iter().enumerate().skip(id).step_by(readers) {
            let request = ((k * READS_PER_ROUND + i) as u64) << 1;
            let root = tracer.begin("read", None, request);
            let t = Instant::now();
            let snap = tracer.call("serve.pin", root, request, || handle.pin());
            let answer = match read {
                ServeReadOp::Range { col, range } => {
                    let a = tracer.call("serve.query_range", root, request, || {
                        snap.query_range(*col, range)
                    });
                    Answer::Range(a.count, a.sum)
                }
                ServeReadOp::Conjunctive { predicates } => {
                    let a = tracer.call("plan.query_conjunctive", root, request, || {
                        snap.query_conjunctive(predicates)
                    });
                    Answer::Conjunctive(a.count, a.rows_checksum)
                }
            };
            drop(snap);
            latency.record(phase, t);
            tracer.end(root);
            answers.push((k, i, answer));
        }
        lock.lock().expect("round lock poisoned").finished += 1;
        cvar.notify_all();
    }
    Reader {
        latency,
        answers,
        switches: procfs::thread_ctx_switches().saturating_sub(switches),
        tracer,
    }
}

struct Phase {
    wall: Duration,
    rounds: usize,
    reads: Samples,
    commits: Samples,
    writes: usize,
    answers: Vec<(usize, usize, Answer)>,
    failed: u64,
    switches: u64,
    ticks: TickSampler,
    rss_mib: f64,
    layer: BTreeMap<&'static str, f64>,
}

fn measure(inputs: &Inputs, table: &mut Table, seconds: Duration, tracer: &mut Tracer) -> Phase {
    let threads = machine::nproc();
    let readers = threads.saturating_sub(1).max(1);
    let handle = table
        .handle()
        .with_parallelism(Parallelism::from_threads(threads));
    let sync = (Mutex::new(Rounds::default()), Condvar::new());
    let window = ProcWindow::open();
    let mut commits = Samples::default();
    let mut ticks = TickSampler::new(tracer.enabled());
    let (mut failed, mut writes, mut rounds) = (0u64, 0usize, 0usize);
    let started = Instant::now();
    let results: Vec<Reader> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..readers)
            .map(|id| {
                let (handle, sync, reader_tracer) = (handle.clone(), &sync, tracer.fork());
                scope.spawn(move || {
                    reader(id, readers, inputs, handle, sync, started, reader_tracer)
                })
            })
            .collect();
        let (lock, cvar) = &sync;
        for (k, round) in inputs.rounds.iter().enumerate() {
            if started.elapsed() >= seconds {
                break;
            }
            let request = ((k as u64) << 1) | 1;
            let root = tracer.begin("commit", None, request);
            let t = Instant::now();
            tracer.call("serve.stage", root, request, || {
                for (col, batch) in round.writes.iter().enumerate() {
                    table.write_batch(col, batch);
                }
            });
            let ticked = tracer.call("serve.tick", root, request, || table.tick());
            commits.record(started, t);
            tracer.end(root);
            failed += u64::from(ticked.is_err());
            ticks.sample(table);
            writes += round.writes.iter().map(Vec::len).sum::<usize>();
            rounds = k + 1;
            lock.lock().expect("round lock poisoned").open = k + 1;
            cvar.notify_all();
            // Maintain until every reader has finished the round: tick while
            // alignment work is pending, block otherwise.
            loop {
                let busy = (0..COLUMNS)
                    .any(|col| table.round_in_flight(col) || table.queued_writes(col) > 0);
                let mut state = lock.lock().expect("round lock poisoned");
                if !busy {
                    while state.finished < (k + 1) * readers {
                        state = cvar.wait(state).expect("round lock poisoned");
                    }
                }
                if state.finished >= (k + 1) * readers {
                    break;
                }
                drop(state);
                let ticked = tracer.call("serve.tick", None, request, || table.tick());
                failed += u64::from(ticked.is_err());
                ticks.sample(table);
                // A tick returns at once while the background planner works;
                // let the planner and the readers have the cores.
                std::thread::yield_now();
            }
        }
        lock.lock().expect("round lock poisoned").stop = true;
        cvar.notify_all();
        workers
            .into_iter()
            .map(|w| w.join().expect("reader thread panicked"))
            .collect()
    });
    let wall = started.elapsed();
    let mut phase = Phase {
        wall,
        rounds,
        reads: Samples::default(),
        commits,
        writes,
        answers: Vec::new(),
        failed,
        switches: 0,
        ticks,
        rss_mib: 0.0,
        layer: BTreeMap::new(),
    };
    for r in results {
        phase.reads.extend(&r.latency);
        phase.answers.extend(r.answers);
        phase.switches += r.switches;
        tracer.absorb(r.tracer);
    }
    phase.answers.sort_unstable_by_key(|&(k, i, _)| (k, i));
    phase.rss_mib = window.close(phase.reads.len(), &mut phase.layer);
    if phase.rounds == inputs.rounds.len() {
        eprintln!("warning: serve-mixed ran out of generated rounds");
    }
    phase
}

/// Replays the committed rounds on the reference and checks every read.
fn verify(inputs: &Inputs, phase: &Phase) -> Result<(), Mismatch> {
    check(
        "serve-mixed reads answered",
        phase.answers.len(),
        phase.rounds * READS_PER_ROUND,
    )?;
    let mut reference = ReferenceTable::new(inputs.columns.clone());
    let mut next = 0;
    for (k, round) in inputs.rounds[..phase.rounds].iter().enumerate() {
        for (col, batch) in round.writes.iter().enumerate() {
            for &(row, value) in batch {
                reference.apply(col, row, value);
            }
        }
        while next < phase.answers.len() && phase.answers[next].0 == k {
            let (_, i, got) = phase.answers[next];
            next += 1;
            let want = match &round.reads[i] {
                ServeReadOp::Range { col, range } => {
                    let (n, s) = reference.range(*col, range);
                    Answer::Range(n, s)
                }
                ServeReadOp::Conjunctive { predicates } => {
                    let (n, c) = reference.conjunctive(predicates);
                    Answer::Conjunctive(n, c)
                }
            };
            check(&format!("serve-mixed round {k} read {i}"), got, want)?;
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(opts: &Opts) -> Result<Report, Mismatch> {
    let inputs = Inputs::generate(opts.seed);
    let mut report = Report {
        backend: "mmap",
        ..Report::default()
    };
    let mut off = Tracer::new(false);
    let reps = if opts.trace { 1 } else { SETUP_REPS };
    let (mut table, setup_s) = timed_setups(reps, |_| setup(&inputs, &mut off));
    let untraced = measure(&inputs, &mut table, opts.seconds, &mut off);
    drop(table);
    verify(&inputs, &untraced)?;
    let (reads, commits, wall) = (&untraced.reads, &untraced.commits, untraced.wall);
    report.attempted += (reads.len() + commits.len()) as u64;
    report.failed += untraced.failed;
    report.end_to_end = end_to_end(&setup_s, reads, wall, untraced.rss_mib);
    report.named = vec![Metric::over(
        "setup_s",
        "s",
        median(&setup_s),
        setup_s.len(),
    )];
    report.named.extend(latency_metrics(
        ["read_p50_us", "read_p99_us", "reads_per_s"],
        reads,
        wall,
    ));
    report.named.extend(latency_metrics(
        ["commit_p50_us", "commit_p99_us", "commits_per_s"],
        commits,
        wall,
    ));
    report.named.push(Metric::new(
        "writes_per_s",
        "1/s",
        per_second(untraced.writes, wall),
    ));
    report
        .named
        .push(Metric::new("rss_peak_mib", "MiB", untraced.rss_mib));
    report.named.push(report.error_rate());
    if !opts.trace {
        return Ok(report);
    }
    let mut tracer = Tracer::new(true);
    let mut table = setup(&inputs, &mut tracer);
    let mut traced = measure(&inputs, &mut table, opts.seconds, &mut tracer);
    serve_metrics(&mut table, &tracer, traced.wall, &mut traced.layer);
    drop(table);
    verify(&inputs, &traced)?;
    report.attempted += (traced.reads.len() + traced.commits.len()) as u64;
    report.failed += traced.failed;
    let layer = &mut traced.layer;
    traced.ticks.record(layer);
    layer.insert(
        "proc.ctx_switches_per_read",
        ratio(traced.switches as f64, traced.reads.len() as f64),
    );
    layer.insert(
        "trace.overhead_pct",
        overhead_pct(reads.len(), wall, traced.reads.len(), traced.wall),
    );
    report.per_layer = traced.layer;
    report.self_times = self_times(&tracer);
    report.tracer = Some(tracer);
    Ok(report)
}
