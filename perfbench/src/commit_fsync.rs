//! `commit_fsync`: Figure 8. Two writer threads, each bound to its own
//! XMark region, commit bursts of 1–3 insert, update or delete
//! operations through one shard on a file WAL that `sync_data`s every
//! log I/O, while the main thread checkpoints the shard every second.
//! After the run the log read back from disk must hold one commit record
//! per commit acknowledged since the last checkpoint and recover the
//! final snapshot exactly.

use crate::common::{
    interior_items, repeated_setup, space_ratio, txn_err, xmark_counts, Ctx, EndToEnd, Report,
    DOC_SEED, REGIONS, WARM_UP,
};
use crate::layers::{self, Traffic};
use crate::stats::{median, pct};
use crate::trace::{Layer, SpanLog, Trace};
use mbxq_storage::{InsertPosition, PageConfig, PagedDoc};
use mbxq_txn::wal::{decode_log, Wal, WalRecord};
use mbxq_txn::{CommitPipeline, Shard, StoreConfig, TxnError, WriteTxn};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, XMarkConfig};
use mbxq_xml::{Document, QName};
use mbxq_xpath::XPath;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The document of `xmark_read`, for the same reason: a cache-resident
/// copy-on-write clone.
pub const SCALE: f64 = 0.025;
const WRITERS: usize = 2;
/// Checkpoint period. Commits copy the document's index deltas, which
/// only a checkpoint folds away, so without one a commit's cost grows
/// with every commit before it and a run never reaches a steady state.
const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
/// Period of the fsync floor probe: the main thread appends an empty
/// commit record to a scratch file WAL this often while measuring, so
/// the run knows what one log I/O costs on the disk as it is now.
const FLOOR_EVERY: Duration = Duration::from_millis(10);
/// The §4.1 space ratio is taken on the version published by this
/// commit, so it does not depend on how many commits a run managed.
const SPACE_AT_COMMIT: u64 = 2000;

/// What the writers share besides the shard.
struct Shared {
    /// Items in the generated document.
    items: usize,
    measure_from: Instant,
    epoch: Instant,
    stop: AtomicBool,
    /// Commits acknowledged so far, warm-up included.
    acked: AtomicU64,
    /// Held shared from a commit call through its count in `acked`, and
    /// exclusively around a checkpoint, so a checkpoint sees `acked`
    /// exactly at the commits it folds into its dump. The shard's own
    /// pipeline gate already keeps commits out of a checkpoint; this only
    /// moves that wait in front of the commit call.
    fence: RwLock<()>,
    /// The version right after commit number `SPACE_AT_COMMIT`.
    at_space_commit: Mutex<Option<Arc<PagedDoc>>>,
}

fn page_config() -> PageConfig {
    // 256-slot pages (80 % fill): small enough that the writers'
    // regions land on disjoint logical pages, so they contend on the
    // commit pipeline and the log, not on page locks.
    PageConfig::new(256, 80).expect("valid page config")
}

struct Setup {
    xml: String,
    shard: Shard,
}

fn setup(wal_path: &Path) -> Result<Setup, String> {
    let xml = generate(&XMarkConfig::scaled(SCALE, DOC_SEED));
    let doc = PagedDoc::parse_str(&xml, page_config()).map_err(|e| format!("shred: {e}"))?;
    let _ = std::fs::remove_file(wal_path);
    let wal = Wal::file(wal_path).map_err(|e| format!("wal: {e}"))?;
    let shard = Shard::open(
        doc,
        wal,
        StoreConfig {
            lock_timeout: Duration::from_millis(250),
            pipeline: CommitPipeline::Short,
            ..StoreConfig::default()
        },
    );
    Ok(Setup { xml, shard })
}

/// One writer's measured samples (ms) and counters.
#[derive(Default)]
struct WriterLog {
    stage: Vec<f64>,
    commit: Vec<f64>,
    txn: Vec<f64>,
    traced_txn: Vec<f64>,
    untraced_txn: Vec<f64>,
    attempted: u64,
    failed: u64,
    lock_timeouts: u64,
}

/// One writer's own state: its region, anchor pool and random stream.
struct Writer {
    w: usize,
    region: &'static str,
    rng: StdRng,
    /// Ids of items this writer may anchor on (grows with its inserts,
    /// shrinks with its deletes).
    pool: Vec<String>,
    minted: usize,
}

impl Writer {
    /// One transaction: a burst of 1–3 operations anchored on the
    /// writer's pool, then the commit, counted in `shared.acked`.
    /// Returns the staging and commit latencies (ms) and the commit's
    /// number.
    fn transaction(
        &mut self,
        shard: &Shard,
        shared: &Shared,
        log: &mut SpanLog,
        req: u64,
    ) -> Result<(f64, f64, u64), TxnError> {
        let stage = log.begin("txn.stage", Layer::Txn, req);
        let t_stage = Instant::now();
        let mut t = shard.begin();
        let staged = self.stage(&mut t, log, req);
        log.end(stage);
        let staged = staged?;
        let stage_ms = t_stage.elapsed().as_secs_f64() * 1e3;
        let t0 = Instant::now();
        let fence = shared.fence.read().expect("checkpoint panicked");
        log.time("txn.commit", Layer::Txn, req, || t.commit())?;
        let commit_ms = t0.elapsed().as_secs_f64() * 1e3;
        let number = shared.acked.fetch_add(1, Ordering::SeqCst) + 1;
        drop(fence);
        for (inserted, id) in staged {
            if inserted {
                self.pool.push(id);
            } else {
                self.pool.retain(|x| x != &id);
            }
        }
        Ok((stage_ms, commit_ms, number))
    }

    /// Stages the burst; returns the inserted (`true`) and deleted ids.
    fn stage(
        &mut self,
        t: &mut WriteTxn<'_>,
        log: &mut SpanLog,
        req: u64,
    ) -> Result<Vec<(bool, String)>, TxnError> {
        let featured = QName::local("featured");
        let mut staged = Vec::new();
        let mut deletes = 0usize;
        for _ in 0..1 + self.rng.gen_range(0..3usize) {
            let anchor_id = self.pool[self.rng.gen_range(0..self.pool.len())].clone();
            let path = format!("/site/regions/{}/item[@id='{anchor_id}']", self.region);
            let sel = log.time("xpath.compile", Layer::Xpath, req, || XPath::parse(&path))?;
            let found = log.time("txn.select", Layer::Txn, req, || t.select(&sel))?;
            let Some(&anchor) = found.first() else {
                continue; // an earlier op of this burst deleted it
            };
            // 35 % inserts, 30 % attribute updates, 35 % deletes: the
            // regions keep their size, so a selection costs the same at
            // the end of a run as at its start.
            let roll = self.rng.gen_range(0..20usize);
            if roll < 7 {
                let id = format!("w{}-{}", self.w, self.minted);
                self.minted += 1;
                let frag = log
                    .time("xml.parse_fragment", Layer::Xml, req, || {
                        Document::parse_fragment(&format!(
                            "<item id=\"{id}\"><name>commit_fsync item</name></item>"
                        ))
                    })
                    .expect("fixed fragment is well-formed");
                log.time("txn.insert", Layer::Txn, req, || {
                    t.insert(InsertPosition::After(anchor), &frag)
                })?;
                staged.push((true, id));
            } else if roll < 13 || self.pool.len() - deletes <= 2 {
                log.time("txn.set_attribute", Layer::Txn, req, || {
                    t.set_attribute(anchor, &featured, "yes")
                })?;
            } else {
                log.time("txn.delete", Layer::Txn, req, || t.delete(anchor))?;
                staged.push((false, anchor_id));
                deletes += 1;
            }
        }
        Ok(staged)
    }
}

fn writer(ctx: &Ctx, shard: &Shard, shared: &Shared, w: usize) -> (WriterLog, SpanLog) {
    let mut me = Writer {
        w,
        region: REGIONS[w].0,
        rng: StdRng::seed_from_u64(ctx.seed ^ (0x17e6 + w as u64)),
        pool: interior_items(shared.items, w),
        minted: 0,
    };
    let mut out = WriterLog::default();
    let mut log = SpanLog::new(shared.epoch, false);
    let penalty = ctx.penalty_ms();
    let mut n = 0u64;
    while !shared.stop.load(Ordering::Relaxed) {
        let measured = Instant::now() >= shared.measure_from;
        let traced = ctx.trace && measured && n.is_multiple_of(2);
        log.set_on(traced);
        let req = ((w as u64) << 48) | n;
        let op = log.begin("op.txn", Layer::Op, req);
        let t0 = Instant::now();
        let r = me.transaction(shard, shared, &mut log, req);
        let txn_ms = t0.elapsed().as_secs_f64() * 1e3;
        log.end(op);
        if matches!(r, Ok((_, _, SPACE_AT_COMMIT))) {
            *shared.at_space_commit.lock().expect("writer panicked") = Some(shard.snapshot());
        }
        n += 1;
        if !measured {
            continue;
        }
        out.attempted += 1;
        match r {
            Ok((stage_ms, commit_ms, _)) => {
                out.stage.push(stage_ms);
                out.commit.push(commit_ms);
                out.txn.push(txn_ms);
                if traced {
                    out.traced_txn.push(txn_ms);
                } else {
                    out.untraced_txn.push(txn_ms);
                }
            }
            Err(e) => {
                if matches!(e, TxnError::LockTimeout { .. }) {
                    out.lock_timeouts += 1;
                }
                out.failed += 1;
                out.commit.push(penalty);
                out.txn.push(penalty);
            }
        }
    }
    log.set_on(false);
    (out, log)
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let wal_path = ctx.work.join("commit.wal");
    let (s, setup_s) = repeated_setup(|| setup(&wal_path))?;
    let (items, _) = xmark_counts(&s.xml);
    let epoch = Instant::now();
    let measure_from = epoch + WARM_UP;
    let end = measure_from + ctx.window();
    let shared = Shared {
        items,
        measure_from,
        epoch,
        stop: AtomicBool::new(false),
        acked: AtomicU64::new(0),
        fence: RwLock::new(()),
        at_space_commit: Mutex::new(None),
    };
    let mut commits_before = 0u64;
    let mut checkpoints = 0u32;
    // Log length right after the last checkpoint (the checkpoint record)
    // and the commits it folded in.
    let mut ckpt_bytes = 0usize;
    let mut acked_at_ckpt = 0u64;
    let mut floor_wal =
        Wal::file(&ctx.work.join("floor.wal")).map_err(|e| format!("floor wal: {e}"))?;
    let empty = WalRecord::Commit {
        txn: 0,
        ops: Vec::new(),
    };
    let mut floor = Vec::new();
    let (results, ckpt_result): (Vec<(WriterLog, SpanLog)>, Result<(), String>) =
        std::thread::scope(|sc| {
            let handles: Vec<_> = (0..WRITERS)
                .map(|w| {
                    let (shard, shared) = (&s.shard, &shared);
                    sc.spawn(move || writer(ctx, shard, shared, w))
                })
                .collect();
            // The main thread is the maintenance thread: a checkpoint
            // every CHECKPOINT_EVERY, warm-up included, and the fsync
            // floor probe every FLOOR_EVERY while measuring.
            let mut next = Instant::now() + CHECKPOINT_EVERY;
            let mut result = Ok(());
            let mut measuring = false;
            loop {
                let now = Instant::now();
                if !measuring && now >= measure_from {
                    commits_before = shared.acked.load(Ordering::SeqCst);
                    measuring = true;
                }
                if now >= end {
                    break;
                }
                if now >= next {
                    let _fence = shared.fence.write().expect("writer panicked");
                    match s.shard.checkpoint() {
                        Ok(info) => {
                            ckpt_bytes = info.wal_bytes_after;
                            acked_at_ckpt = shared.acked.load(Ordering::SeqCst);
                            checkpoints += 1;
                        }
                        Err(e) => {
                            result = Err(format!("checkpoint: {e}"));
                            break;
                        }
                    }
                    next += CHECKPOINT_EVERY;
                }
                if measuring {
                    let t0 = Instant::now();
                    if let Err(e) = floor_wal.append(&empty) {
                        result = Err(format!("floor append: {e}"));
                        break;
                    }
                    floor.push(t0.elapsed().as_secs_f64() * 1e3);
                }
                let wake = next
                    .min(if measuring { end } else { measure_from })
                    .min(Instant::now() + FLOOR_EVERY);
                std::thread::sleep(wake.saturating_duration_since(Instant::now()));
            }
            shared.stop.store(true, Ordering::Relaxed);
            let logs = handles
                .into_iter()
                .map(|h| h.join().expect("writer thread panicked"))
                .collect();
            (logs, result)
        });
    ckpt_result?;
    let window_s = ctx.seconds;
    let mut logs = Vec::new();
    let mut all = WriterLog::default();
    for (w, l) in results {
        all.stage.extend(w.stage);
        all.commit.extend(w.commit);
        all.txn.extend(w.txn);
        all.traced_txn.extend(w.traced_txn);
        all.untraced_txn.extend(w.untraced_txn);
        all.attempted += w.attempted;
        all.failed += w.failed;
        all.lock_timeouts += w.lock_timeouts;
        logs.push(l);
    }

    // Correctness: no stranded locks, a structurally valid final state,
    // one log record per acknowledged commit, on disk one commit record
    // per commit acknowledged after the last checkpoint, and that log
    // (the checkpoint plus the commits after it) recovers exactly the
    // final snapshot.
    let shard = &s.shard;
    if shard.locked_pages() != 0 {
        return Err(format!("{} page locks stranded", shard.locked_pages()));
    }
    let snap = shard.snapshot();
    mbxq_storage::invariants::check_paged(&snap).map_err(|e| format!("invariants: {e}"))?;
    let gc = shard.group_commit_stats();
    let bytes = std::fs::read(&wal_path).map_err(|e| format!("read wal: {e}"))?;
    let records = decode_log(&bytes).map_err(|e| format!("decode wal: {e}"))?;
    let acked = shared.acked.load(Ordering::SeqCst);
    if gc.records != acked {
        return Err(format!(
            "{} commit records logged, {acked} commits acknowledged",
            gc.records
        ));
    }
    let logged_since = records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit { .. }))
        .count() as u64;
    if logged_since != acked - acked_at_ckpt {
        return Err(format!(
            "{logged_since} commit records on disk after the last checkpoint, {} commits \
             acknowledged after it",
            acked - acked_at_ckpt
        ));
    }
    let recovered = mbxq_txn::recover::recover(&s.xml, page_config(), &bytes).map_err(txn_err)?;
    let want = mbxq_storage::serialize::to_xml(snap.as_ref()).map_err(|e| format!("{e}"))?;
    let got = mbxq_storage::serialize::to_xml(&recovered).map_err(|e| format!("{e}"))?;
    if want != got {
        return Err("recovery from the on-disk WAL differs from the final snapshot".into());
    }
    drop(recovered);

    let commits = all.commit.len() as u64 - all.failed;
    let at_space = shared
        .at_space_commit
        .into_inner()
        .expect("writer panicked")
        .ok_or(format!("fewer than {SPACE_AT_COMMIT} commits in the run"))?;
    let (space, xml_len) = space_ratio(&at_space)?;
    drop(at_space);
    let e2e = EndToEnd {
        setup_s,
        main: all.commit.clone(),
        // The commit's cost model: re-applying what was staged, plus
        // the single log I/O the paper puts on the critical path. Both
        // halves are measured in this run, so the ratio holds still
        // while the host's processor and disk speeds drift (commit over
        // staging alone moved by 0.33 between runs, over the fsync alone
        // by 0.13).
        reference_ms: median(&all.stage) + median(&floor),
        all: all.txn.clone(),
        done: commits,
        window_s,
        space,
    };
    let mut notes = vec![
        format!(
            "commit_fsync: scale {SCALE}, {WRITERS} writers, {commits} commits in {window_s:.2}s \
             ({commits_before} during warm-up), {} checkpoints, XML after commit {SPACE_AT_COMMIT}: \
             {xml_len} bytes",
            checkpoints
        ),
        format!("commit_us_p50 {:.1} us", median(&all.commit) * 1e3),
        format!("commit_us_p90 {:.1} us", pct(&all.commit, 90.0) * 1e3),
        format!("commit_us_p99 {:.1} us", pct(&all.commit, 99.0) * 1e3),
        format!("commits_per_s {:.1}", commits as f64 / window_s),
        format!("txn.stage_us_p50 {:.1} us", median(&all.stage) * 1e3),
        format!(
            "wal_floor_us_p50 {:.1} us ({} empty fsync'd appends)",
            median(&floor) * 1e3,
            floor.len()
        ),
        format!(
            "records_per_fsync {:.3} ({} records, {} batches)",
            gc.records as f64 / gc.batches.max(1) as f64,
            gc.records,
            gc.batches
        ),
    ];
    if !ctx.trace {
        return Ok(Report {
            attempted: all.attempted,
            failed: all.failed,
            metrics: e2e.metrics(),
            notes,
        });
    }
    let mut trace = Trace::new();
    for l in logs {
        trace.absorb(l);
    }
    let traffic = Traffic {
        records_per_fsync: gc.records as f64 / gc.batches.max(1) as f64,
        wal_bytes_per_commit: (bytes.len() - ckpt_bytes) as f64 / logged_since.max(1) as f64,
        lock_timeouts: all.lock_timeouts,
        overhead_pct: (median(&all.traced_txn) / median(&all.untraced_txn) - 1.0) * 100.0,
        fail_ratio: all.failed as f64 / all.attempted.max(1) as f64,
        ..Traffic::default()
    };
    let mut metrics = layers::collect(
        &mut trace,
        layers::Input {
            up: &snap,
            shard,
            scale: SCALE,
            seed: ctx.seed,
            page: page_config(),
            records,
            work: &ctx.work,
            spans_out: &ctx.spans_out,
            client: None,
            epoch,
        },
        &traffic,
        &mut notes,
    )?;
    metrics.extend(e2e.absolute());
    Ok(Report {
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        notes,
    })
}
