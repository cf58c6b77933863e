//! Concurrency demonstration (§3.2): several writer threads extend
//! disjoint subtrees of one document while reader threads continuously
//! query it — the scenario the commutative delta-increments make
//! possible without serializing every writer on the document root.
//!
//! The writers commit through the short-publish pipeline: validation and
//! COW page privatization happen *outside* the global lock, the WAL
//! appends ride group-commit batches (watch the batching counters in the
//! output), and the lock itself covers only the stamp-checked pointer
//! swap. The readers meanwhile take their snapshots from a lock-free
//! cell — they never block on the writers, no matter how hard the
//! writers hammer the store.
//!
//! Run with: `cargo run --release --example concurrent_editors`

use mbxq::{
    AncestorLockMode, InsertPosition, PageConfig, PagedDoc, Shard, StoreConfig, TreeView, Wal,
    XPath,
};
use mbxq_xml::Document;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

const WRITERS: usize = 4;
const TXNS_EACH: usize = 50;

fn main() {
    // One section per writer, each padded past a logical page so the
    // writers' target pages are disjoint.
    let mut xml = String::from("<wiki>");
    for w in 0..WRITERS {
        xml.push_str(&format!("<section{w}>"));
        for i in 0..300 {
            xml.push_str(&format!("<para id=\"s{w}p{i}\"/>"));
        }
        xml.push_str(&format!("</section{w}>"));
    }
    xml.push_str("</wiki>");

    let doc = PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap();
    let baseline = doc.used_count();
    let store = Shard::open(
        doc,
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: AncestorLockMode::Delta,
            lock_timeout: Duration::from_secs(10),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    );

    let stop_readers = AtomicBool::new(false);
    let reads = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Two readers hammer snapshots the whole time.
        for _ in 0..2 {
            let store = &store;
            let stop = &stop_readers;
            let reads = &reads;
            s.spawn(move || {
                let path = XPath::parse("//para").unwrap();
                while !stop.load(Ordering::Relaxed) {
                    let snap = store.snapshot();
                    let n = path.select_from_root(snap.as_ref()).unwrap().len();
                    assert!(n >= WRITERS * 300);
                    reads.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Writers commit little paragraph inserts.
        let mut handles = Vec::new();
        for w in 0..WRITERS {
            let store = &store;
            handles.push(s.spawn(move || {
                let path = XPath::parse(&format!("/wiki/section{w}")).unwrap();
                for i in 0..TXNS_EACH {
                    let mut t = store.begin();
                    let section = t.select(&path).unwrap()[0];
                    let frag =
                        Document::parse_fragment(&format!("<para id=\"s{w}new{i}\">edit</para>"))
                            .unwrap();
                    t.insert(InsertPosition::LastChildOf(section), &frag)
                        .unwrap();
                    t.commit().unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        stop_readers.store(true, Ordering::Relaxed);
    });

    let final_doc = store.snapshot();
    let expected = baseline + (WRITERS * TXNS_EACH * 2) as u64; // para + text each
    println!(
        "committed {} writer transactions across {WRITERS} threads",
        WRITERS * TXNS_EACH
    );
    println!(
        "document grew {} -> {} tuples (expected {expected})",
        baseline,
        final_doc.used_count()
    );
    assert_eq!(final_doc.used_count(), expected);
    // The root's size absorbed every delta exactly once, in whatever
    // order the commits interleaved — commutativity in action.
    assert_eq!(TreeView::size(final_doc.as_ref(), 0), expected - 1);
    println!(
        "root size = {} (all ancestor deltas applied, commutatively)",
        TreeView::size(final_doc.as_ref(), 0)
    );
    println!(
        "readers completed {} consistent snapshot queries meanwhile",
        reads.load(Ordering::Relaxed)
    );
    let stats = store.group_commit_stats();
    println!(
        "WAL: {} commit records flushed in {} group-commit batches \
         (largest batch: {})",
        stats.records, stats.batches, stats.max_batch
    );
    println!(
        "store published {} versions (commits publish under the short lock only)",
        store.version_stamp()
    );
    mbxq_storage::invariants::check_paged(final_doc.as_ref()).unwrap();
    println!("invariant check: ok");
}
