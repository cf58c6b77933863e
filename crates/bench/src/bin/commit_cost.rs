//! Commit cost vs document size — the measurement behind the
//! O(touched-pages) commit PR. Emits `BENCH_commit.json`.
//!
//! The paper's §3.2 design keeps the pre/post plane *updateable* because
//! a commit touches only the logical pages it modified plus the
//! delta-adjusted ancestor sizes. The old `WriteTxn::commit` buried that
//! property under a deep clone of the whole `PagedDoc` (O(document) per
//! commit); the copy-on-write column layout restores it. This binary
//! commits the same single small update against XMark documents of
//! growing scale and times:
//!
//! * **cow** — the real commit path: COW clone + apply + WAL + publish;
//! * **clone** — the old behavior, reproduced via
//!   [`PagedDoc::deep_clone`]: copy every page, apply, publish.
//!
//! The cow series must stay near-flat in document size while the clone
//! baseline grows linearly. `--smoke` runs a tiny scale once (CI guard
//! that the binary keeps working).

use mbxq_bench::paper_page_config;
use mbxq_storage::{InsertPosition, PagedDoc, TreeView};
use mbxq_txn::wal::Wal;
use mbxq_txn::{AncestorLockMode, Shard, StoreConfig};
use mbxq_xmark::{generate, XMarkConfig};
use mbxq_xml::Document;
use mbxq_xpath::XPath;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn store_config() -> StoreConfig {
    StoreConfig {
        ancestor_mode: AncestorLockMode::Delta,
        lock_timeout: Duration::from_secs(5),
        validate_on_commit: false,
        ..StoreConfig::default()
    }
}

/// Minimum over `reps` runs of `stage` (untimed) followed by `run`
/// (timed) — commit latency without the staging noise.
fn min_timed<S, R>(reps: usize, mut stage: impl FnMut() -> S, mut run: impl FnMut(S) -> R) -> u128 {
    let mut best = u128::MAX;
    for _ in 0..reps {
        let staged = stage();
        let t0 = Instant::now();
        let out = run(staged);
        let dt = t0.elapsed().as_nanos();
        std::hint::black_box(out);
        best = best.min(dt);
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scales: &[f64] = if smoke {
        &[0.002]
    } else {
        &[0.005, 0.02, 0.08, 0.24]
    };
    let reps = if smoke { 2 } else { 7 };

    let frag_xml = r#"<person id="bench"><name>B</name></person>"#;
    let frag = Document::parse_fragment(frag_xml).unwrap();
    let path = XPath::parse("/site/people").unwrap();

    let mut json = String::from("[\n");
    let mut first = true;
    for &scale in scales {
        let xml = generate(&XMarkConfig::scaled(scale, 42));
        let bytes = xml.len();
        let doc = PagedDoc::parse_str(&xml, paper_page_config()).expect("shred XMark");
        let nodes = doc.used_count();
        let pages = doc.stats().pages;
        let store = Shard::open(doc, Wal::in_memory(), store_config());

        // One instrumented commit: how many column pages did publishing
        // actually privatize?
        let before = store.snapshot();
        {
            let mut t = store.begin();
            let people = t.select(&path).unwrap();
            t.insert(InsertPosition::LastChildOf(people[0]), &frag)
                .unwrap();
            t.commit().unwrap();
        }
        let after = store.snapshot();
        let (shared, total) = after.shared_pages_with(&before);
        let touched = total - shared;

        // COW path: stage outside the timer, time commit() alone.
        let cow_ns = min_timed(
            reps,
            || {
                let mut t = store.begin();
                let people = t.select(&path).unwrap();
                t.insert(InsertPosition::LastChildOf(people[0]), &frag)
                    .unwrap();
                t
            },
            |t| t.commit().unwrap(),
        );

        // Clone baseline: what the old commit did — deep-copy the master,
        // apply the op, publish a fresh Arc.
        let people_node = {
            let snap = store.snapshot();
            let pres = path.select_from_root(snap.as_ref()).unwrap();
            snap.pre_to_node(pres[0]).unwrap()
        };
        let clone_ns = min_timed(
            reps,
            || store.snapshot(),
            |cur| {
                let mut new_doc = cur.deep_clone();
                new_doc
                    .insert(InsertPosition::LastChildOf(people_node), &frag)
                    .unwrap();
                Arc::new(new_doc)
            },
        );

        let speedup = clone_ns as f64 / cow_ns.max(1) as f64;
        println!(
            "scale {scale:<5} ({bytes:>9} B, {nodes:>8} nodes, {pages:>5} pages)  \
             cow {cow_ns:>10} ns  clone {clone_ns:>12} ns  speedup {speedup:>8.1}x  \
             pages touched {touched}/{total}"
        );
        if smoke {
            assert!(
                touched < total,
                "COW commit must keep some pages shared ({touched}/{total})"
            );
        }

        if !first {
            json.push_str(",\n");
        }
        first = false;
        let _ = write!(
            json,
            "  {{\"scale\": {scale}, \"xml_bytes\": {bytes}, \"nodes\": {nodes}, \
             \"logical_pages\": {pages}, \"cow_commit_ns\": {cow_ns}, \
             \"clone_commit_ns\": {clone_ns}, \"speedup\": {speedup:.4}, \
             \"pages_touched\": {touched}, \"column_pages_total\": {total}, {host}}}",
            host = mbxq_bench::host_json_fields()
        );
    }
    json.push_str("\n]\n");
    if smoke {
        // Don't clobber the committed full-scale dataset with one tiny
        // smoke row (CI and developers run --smoke from the repo root).
        println!("smoke mode: skipping BENCH_commit.json");
    } else {
        std::fs::write("BENCH_commit.json", &json).expect("write BENCH_commit.json");
        println!("wrote BENCH_commit.json");
    }
}
