//! The **§3.2 concurrency ablation**: commutative delta-increments for
//! ancestor sizes vs exclusive ancestor locking.
//!
//! Worker threads repeatedly run insert transactions against *disjoint*
//! subtrees (so page-level conflicts between targets never happen), and
//! each transaction does some realistic read work — an XPath scan of its
//! subtree — *while holding its locks*, which is where lock granularity
//! bites: the paper's point is precisely that exclusive ancestor locking
//! makes every writer hold the root "during the entire transaction"
//! (§3.2), so under [`AncestorLockMode::Exclusive`] the scans serialize,
//! while under [`AncestorLockMode::Delta`] they overlap and only the
//! short commit sections serialize.
//!
//! Usage: `cargo run -p mbxq-bench --release --bin txn_throughput [threads] [seconds]`

use mbxq_storage::{InsertPosition, PagedDoc, TreeView};
use mbxq_txn::{wal::Wal, AncestorLockMode, Shard, StoreConfig};
use mbxq_xml::Document;
use mbxq_xpath::XPath;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One target subtree per worker: region elements of an XMark-shaped
/// document spread across many pages.
fn build_doc(workers: usize) -> (PagedDoc, Vec<String>) {
    let mut xml = String::from("<site><regions>");
    let mut names = Vec::new();
    for w in 0..workers {
        let name = format!("region{w}");
        // Pad each region past one logical page so workers never share a
        // target page (page size 256, fill 80 % → > 205 tuples each).
        xml.push_str(&format!("<{name}>"));
        for i in 0..300 {
            xml.push_str(&format!("<item id=\"r{w}i{i}\"/>"));
        }
        xml.push_str(&format!("</{name}>"));
        names.push(name);
    }
    xml.push_str("</regions></site>");
    let cfg = mbxq_storage::PageConfig::new(256, 80).expect("valid");
    (PagedDoc::parse_str(&xml, cfg).expect("shred"), names)
}

fn run_mode(mode: AncestorLockMode, workers: usize, secs: f64) -> (u64, u64) {
    let (doc, regions) = build_doc(workers);
    let store = Shard::open(
        doc,
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: mode,
            lock_timeout: Duration::from_millis(2000),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );
    let commits = AtomicU64::new(0);
    let timeouts = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for region in regions.iter().take(workers) {
            let store = &store;
            let commits = &commits;
            let timeouts = &timeouts;
            let stop = &stop;
            let region = region.clone();
            s.spawn(move || {
                let path = XPath::parse(&format!("/site/regions/{region}")).unwrap();
                let frag = Document::parse_fragment("<item/>").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let mut t = store.begin();
                    let target = match t.select(&path) {
                        Ok(v) if !v.is_empty() => v[0],
                        _ => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                            t.abort();
                            continue;
                        }
                    };
                    // Realistic transaction work while the locks are
                    // held: scan the worker's subtree. In Exclusive
                    // mode the root page is locked during this scan, so
                    // every other writer stalls.
                    let scan = XPath::parse("count(//item)").unwrap();
                    match t.insert(InsertPosition::LastChildOf(target), &frag) {
                        Ok(()) => {
                            let _ = scan.eval(t.view(), &[0]);
                            match t.commit() {
                                Ok(_) => {
                                    commits.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => {
                                    timeouts.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        Err(_) => {
                            timeouts.fetch_add(1, Ordering::Relaxed);
                            t.abort();
                        }
                    }
                }
            });
        }
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            std::thread::sleep(Duration::from_millis(20));
        }
        stop.store(true, Ordering::Relaxed);
    });
    let total = commits.load(Ordering::Relaxed);
    // Sanity: all committed inserts must be visible.
    let d = store.snapshot();
    assert_eq!(
        TreeView::size(d.as_ref(), 0),
        (1 + workers as u64 * 301) + total
    );
    (total, timeouts.load(Ordering::Relaxed))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let workers: usize = args
        .next()
        .map(|a| a.parse().expect("threads"))
        .unwrap_or(4);
    let secs: f64 = args
        .next()
        .map(|a| a.parse().expect("seconds"))
        .unwrap_or(2.0);
    println!(
        "Concurrent insert transactions, {workers} workers x {secs}s per mode \
         (disjoint target subtrees)"
    );
    println!(
        "{:>12} {:>12} {:>12} {:>14}",
        "mode", "commits", "timeouts", "commits/s"
    );
    for (label, mode) in [
        ("delta", AncestorLockMode::Delta),
        ("exclusive", AncestorLockMode::Exclusive),
    ] {
        let (commits, timeouts) = run_mode(mode, workers, secs);
        println!(
            "{:>12} {:>12} {:>12} {:>14.0}",
            label,
            commits,
            timeouts,
            commits as f64 / secs
        );
    }
    println!(
        "\nexpected shape: 'delta' sustains parallel commits; 'exclusive'\n\
         serializes every writer on the root's page (§2.2's locking bottleneck)."
    );
}
