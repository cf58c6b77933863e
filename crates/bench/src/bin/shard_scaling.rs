//! Shards-axis throughput driver for the multi-document [`Catalog`] —
//! does splitting the workload across N shards multiply the commit
//! ceiling? Merges its rows into `BENCH_workload.json`.
//!
//! The single-store `workload` bench tops out where its one group-commit
//! pipeline serializes WAL I/O. The catalog's answer is N *independent*
//! pipelines: every document is its own [`Shard`] with its own WAL,
//! commit lock and lock table, so writers bound to different documents
//! share **nothing** on the commit path. This driver pins a number on
//! that: a grid of (shards × writers) cells, each loading one small
//! XMark document per shard (the many-small-documents routing shape)
//! into a durable catalog with file-backed per-shard WALs, writers
//! committing insert/attribute bursts against their own shard's
//! regions, and readers timing cross-document [`Catalog::query_all`]
//! fan-outs over the shared worker pool throughout.
//!
//! Expected shape: with the same total writer count, aggregate commit
//! throughput grows with the shard count (4 shards ≥ 2x 1 shard on ≥ 4
//! cores — asserted below), because the 1-shard arm queues all writers
//! on one WAL while the 4-shard arm gives each its own. Reader p50/p99
//! stays flat: snapshots are per-shard lock-free pointer loads either
//! way.
//!
//! Usage: `cargo run --release --bin shard_scaling [--smoke] [--secs N]`

use mbxq_storage::{InsertPosition, PageConfig};
use mbxq_txn::{Catalog, CatalogConfig, Shard, StoreConfig};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, XMarkConfig};
use mbxq_xml::Document;
use mbxq_xpath::XPath;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Writer target regions (the XMark continental split; every generated
/// document contains all six).
const REGIONS: [(&str, f64); 6] = [
    ("africa", 0.10),
    ("asia", 0.30),
    ("australia", 0.05),
    ("europe", 0.25),
    ("namerica", 0.25),
    ("samerica", 0.05),
];

/// Original `item{n}` id ranges per region (sequential ids, region
/// order, last region takes the remainder — the generator's layout).
fn region_item_ranges(total: usize) -> Vec<std::ops::Range<usize>> {
    let mut ranges = Vec::with_capacity(REGIONS.len());
    let mut next = 0usize;
    for (i, &(_, share)) in REGIONS.iter().enumerate() {
        let n = if i + 1 == REGIONS.len() {
            total - next
        } else {
            (((total as f64) * share).round() as usize).min(total - next)
        };
        ranges.push(next..next + n);
        next += n;
    }
    ranges
}

/// One grid point's outcome.
struct Cell {
    shards: usize,
    writers: usize,
    readers: usize,
    secs: f64,
    commits: u64,
    timeouts: u64,
    per_shard_commits: Vec<u64>,
    reads: u64,
    read_p50_us: f64,
    read_p99_us: f64,
    wal_records: u64,
    pool_steals: u64,
}

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1000.0 // ns → µs
}

/// Runs one grid point: a fresh durable catalog of `shards` documents,
/// `writers` writer threads round-robined across the shards (distinct
/// writers on the same shard bind to distinct regions, so page-lock
/// conflicts never pollute the commit-pipeline signal) and `readers`
/// threads timing `query_all` fan-outs, for `secs`.
fn run_cell(
    docs: &[String],
    shards: usize,
    writers: usize,
    readers: usize,
    secs: f64,
    dir: &std::path::Path,
) -> Cell {
    let _ = std::fs::remove_dir_all(dir);
    let cat = Catalog::open(
        dir,
        CatalogConfig {
            store: StoreConfig {
                lock_timeout: Duration::from_millis(250),
                query_threads: 2,
                ..StoreConfig::default()
            },
            // 256-tuple pages: the six regions of each document land on
            // disjoint logical pages (same reasoning as `workload`).
            page: PageConfig::new(256, 80).expect("valid"),
        },
    )
    .expect("open catalog");
    let shard_handles: Vec<Arc<Shard>> = (0..shards)
        .map(|k| {
            cat.create_doc(&format!("xmark{k}"), &docs[k])
                .expect("create shard doc")
        })
        .collect();
    let item_ranges = region_item_ranges(docs[0].match_indices("<item ").count());

    let stop = AtomicBool::new(false);
    let timeouts = AtomicU64::new(0);
    let per_shard: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let reads = AtomicU64::new(0);
    let read_lat = Mutex::new(Vec::<u64>::new());
    let queries = ["//item", "//person", "//open_auction", "//keyword"];

    std::thread::scope(|s| {
        for r in 0..readers {
            let cat = &cat;
            let stop = &stop;
            let reads = &reads;
            let read_lat = &read_lat;
            let queries = &queries;
            s.spawn(move || {
                let mut lat = Vec::new();
                let mut i = r; // stagger the query mix across readers
                while !stop.load(Ordering::Relaxed) {
                    let q = queries[i % queries.len()];
                    i += 1;
                    let t0 = Instant::now();
                    let out = cat.query_all(q).expect("query_all");
                    lat.push(t0.elapsed().as_nanos() as u64);
                    std::hint::black_box(out);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
                read_lat.lock().unwrap().append(&mut lat);
            });
        }
        for w in 0..writers {
            let shard = shard_handles[w % shards].clone();
            let stop = &stop;
            let timeouts = &timeouts;
            let commits = &per_shard[w % shards];
            let item_ranges = &item_ranges;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(0x54a6 + w as u64);
                // Writers sharing a shard take distinct regions; writers
                // on different shards touch different documents, so any
                // region works. Interior anchors only (region edges share
                // pages with neighbors — see `workload`).
                let region_idx = (w / shards) % REGIONS.len();
                let (region, _) = REGIONS[region_idx];
                let range = &item_ranges[region_idx];
                let lo = range.start + range.len() / 10;
                let hi = (range.start + (range.len() * 7) / 10).max(lo + 1);
                let mut minted = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let mut t = shard.begin();
                    let burst = 1 + rng.gen_range(0..2);
                    let mut failed = false;
                    for _ in 0..burst {
                        let anchor_id = format!("item{}", lo + rng.gen_range(0..hi - lo));
                        let sel = XPath::parse(&format!(
                            "/site/regions/{region}/item[@id='{anchor_id}']"
                        ))
                        .expect("item path");
                        let anchor = match t.select(&sel) {
                            Ok(nodes) if !nodes.is_empty() => nodes[0],
                            Ok(_) => continue,
                            Err(_) => {
                                failed = true;
                                break;
                            }
                        };
                        let outcome = if rng.gen_range(0..10) < 6 {
                            let frag = Document::parse_fragment(&format!(
                                "<item id=\"shard-w{w}-{minted}\"><name>shard item</name></item>"
                            ))
                            .expect("fragment");
                            minted += 1;
                            t.insert(InsertPosition::After(anchor), &frag).map(|_| ())
                        } else {
                            t.set_attribute(anchor, &mbxq_xml::QName::local("featured"), "yes")
                                .map(|_| ())
                        };
                        if outcome.is_err() {
                            failed = true;
                            break;
                        }
                    }
                    if failed || t.staged_ops() == 0 {
                        if failed {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                        t.abort();
                        continue;
                    }
                    match t.commit() {
                        Ok(_) => {
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
    });

    let per_shard_commits: Vec<u64> = per_shard
        .iter()
        .map(|c| c.load(Ordering::Relaxed))
        .collect();
    let wal_records: u64 = shard_handles
        .iter()
        .map(|s| s.group_commit_stats().records)
        .sum();
    for s in &shard_handles {
        assert_eq!(s.locked_pages(), 0, "no stranded page locks");
        mbxq_storage::invariants::check_paged(s.snapshot().as_ref())
            .expect("final state invariant-clean");
    }
    let pool_steals = cat.pool_stats().steals;
    drop(shard_handles);
    drop(cat);
    let _ = std::fs::remove_dir_all(dir);

    let mut rlat = read_lat.into_inner().unwrap();
    rlat.sort_unstable();
    Cell {
        shards,
        writers,
        readers,
        secs,
        commits: per_shard_commits.iter().sum(),
        timeouts: timeouts.load(Ordering::Relaxed),
        per_shard_commits,
        reads: reads.load(Ordering::Relaxed),
        read_p50_us: percentile(&rlat, 50.0),
        read_p99_us: percentile(&rlat, 99.0),
        wal_records,
        pool_steals,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let secs = args
        .iter()
        .position(|a| a == "--secs")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.parse().expect("--secs takes a number"))
        .unwrap_or(if smoke { 0.25 } else { 1.0 });

    // One small XMark document per shard, distinct seeds — independent
    // content, identical shape and size (counts depend on scale only).
    let scale = if smoke { 0.002 } else { 0.01 };
    let max_shards = if smoke { 2 } else { 4 };
    let docs: Vec<String> = (0..max_shards)
        .map(|k| generate(&XMarkConfig::scaled(scale, 42 + k as u64)))
        .collect();
    println!(
        "XMark scale {scale} per shard ({} bytes each), {}s per grid point, per-shard file WALs",
        docs[0].len(),
        secs
    );
    let dir = std::env::temp_dir().join(format!("mbxq-shard-scaling-{}", std::process::id()));

    // (shards, writers): same total writer count across the shard axis,
    // so the only variable is how many commit pipelines serve them.
    let grid: Vec<(usize, usize)> = if smoke {
        vec![(1, 2), (2, 2)]
    } else {
        vec![(1, 1), (1, 2), (1, 4), (2, 2), (2, 4), (4, 4)]
    };
    let readers = 2;

    println!(
        "{:>3}s {:>3}w {:>10} {:>14} {:>9} {:>10} {:>9} {:>9} {:>7}",
        "",
        "",
        "commits/s",
        "per-shard c/s",
        "timeouts",
        "reads/s",
        "r.p50 µs",
        "r.p99 µs",
        "steals"
    );
    let mut cells = Vec::new();
    for (shards, writers) in grid {
        let cell = run_cell(&docs, shards, writers, readers, secs, &dir);
        let per_shard = cell
            .per_shard_commits
            .iter()
            .map(|&c| format!("{:.0}", c as f64 / cell.secs))
            .collect::<Vec<_>>()
            .join("/");
        println!(
            "{:>3}s {:>3}w {:>10.0} {:>14} {:>9} {:>10.0} {:>9.1} {:>9.1} {:>7}",
            cell.shards,
            cell.writers,
            cell.commits as f64 / cell.secs,
            per_shard,
            cell.timeouts,
            cell.reads as f64 / cell.secs,
            cell.read_p50_us,
            cell.read_p99_us,
            cell.pool_steals,
        );
        cells.push(cell);
    }

    for c in &cells {
        assert_eq!(
            c.wal_records, c.commits,
            "{}s/{}w: every commit durably logged exactly once across the shard WALs",
            c.shards, c.writers
        );
    }

    if smoke {
        for c in &cells {
            assert!(c.commits > 0, "smoke: writers must commit");
            assert!(c.reads > 0, "smoke: readers must read");
        }
        println!("smoke mode: skipping BENCH_workload.json");
        return;
    }

    // The headline claim: with 4 writers, 4 independent commit pipelines
    // must at least double the single-pipeline aggregate. Only meaningful
    // with enough cores to actually run the pipelines concurrently.
    let one = cells
        .iter()
        .find(|c| c.shards == 1 && c.writers == 4)
        .unwrap();
    let four = cells
        .iter()
        .find(|c| c.shards == 4 && c.writers == 4)
        .unwrap();
    let speedup = four.commits as f64 / one.commits.max(1) as f64;
    println!("4-shard / 1-shard aggregate commit speedup at 4 writers: {speedup:.2}x");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores >= 4 {
        assert!(
            speedup >= 2.0,
            "4 shards must at least double the 1-shard commit ceiling on {cores} cores \
             (got {speedup:.2}x)"
        );
    } else {
        println!("({cores} cores: skipping the >=2x scaling assertion)");
    }

    let mut rows = Vec::new();
    for c in &cells {
        let per_shard = c
            .per_shard_commits
            .iter()
            .map(|&n| format!("{:.1}", n as f64 / c.secs))
            .collect::<Vec<_>>()
            .join(", ");
        let mut row = String::new();
        let _ = write!(
            row,
            "  {{\"bench\": \"shard_scaling\", \"shards\": {}, \"writers\": {}, \
             \"readers\": {}, \"secs\": {}, \"commits\": {}, \"commits_per_s\": {:.1}, \
             \"per_shard_commits_per_s\": [{per_shard}], \"timeouts\": {}, \
             \"reads\": {}, \"reads_per_s\": {:.1}, \
             \"read_p50_us\": {:.2}, \"read_p99_us\": {:.2}, \
             \"wal_records\": {}, \"pool_steals\": {}, {host}}}",
            c.shards,
            c.writers,
            c.readers,
            c.secs,
            c.commits,
            c.commits as f64 / c.secs,
            c.timeouts,
            c.reads,
            c.reads as f64 / c.secs,
            c.read_p50_us,
            c.read_p99_us,
            c.wal_records,
            c.pool_steals,
            host = mbxq_bench::host_json_fields(),
        );
        rows.push(row);
    }
    mbxq_bench::merge_bench_rows("BENCH_workload.json", "shard_scaling", &rows)
        .expect("write BENCH_workload.json");
    println!(
        "merged {} shard_scaling rows into BENCH_workload.json",
        rows.len()
    );
}
