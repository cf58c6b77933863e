//! §3.2 ablation as a Criterion bench: time for N concurrent insert
//! transactions into disjoint subtrees, under delta vs exclusive
//! ancestor locking.

use mbxq_bench::harness::{BenchmarkId, Criterion};
use mbxq_bench::{criterion_group, criterion_main};
use mbxq_storage::{InsertPosition, PageConfig, PagedDoc};
use mbxq_txn::{wal::Wal, AncestorLockMode, Shard, StoreConfig};
use mbxq_xml::Document;
use mbxq_xpath::XPath;
use std::time::Duration;

const WORKERS: usize = 4;
const TXNS_PER_WORKER: usize = 10;

fn build_store(mode: AncestorLockMode) -> Shard {
    let mut xml = String::from("<site><regions>");
    for w in 0..WORKERS {
        xml.push_str(&format!("<region{w}>"));
        for i in 0..600 {
            xml.push_str(&format!("<item id=\"r{w}i{i}\"/>"));
        }
        xml.push_str(&format!("</region{w}>"));
    }
    xml.push_str("</regions></site>");
    let doc = PagedDoc::parse_str(&xml, PageConfig::new(512, 80).unwrap()).unwrap();
    Shard::open(
        doc,
        Wal::in_memory(),
        StoreConfig {
            ancestor_mode: mode,
            lock_timeout: Duration::from_secs(20),
            validate_on_commit: false,
            ..StoreConfig::default()
        },
    )
}

fn run_burst(store: &Shard) {
    std::thread::scope(|s| {
        for w in 0..WORKERS {
            s.spawn(move || {
                let path = XPath::parse(&format!("/site/regions/region{w}")).unwrap();
                let scan = XPath::parse("count(//item)").unwrap();
                let frag = Document::parse_fragment("<item/>").unwrap();
                for _ in 0..TXNS_PER_WORKER {
                    let mut t = store.begin();
                    let target = t.select(&path).unwrap()[0];
                    t.insert(InsertPosition::LastChildOf(target), &frag)
                        .unwrap();
                    // Transaction read work performed while the locks
                    // are held — serialized by exclusive root locking,
                    // parallel under delta maintenance.
                    let _ = scan.eval(t.view(), &[0]);
                    t.commit().unwrap();
                }
            });
        }
    });
}

fn bench_concurrency(c: &mut Criterion) {
    let mut g = c.benchmark_group("concurrency");
    g.sample_size(10);
    for (label, mode) in [
        ("delta", AncestorLockMode::Delta),
        ("exclusive", AncestorLockMode::Exclusive),
    ] {
        g.bench_with_input(BenchmarkId::new(label, WORKERS), &mode, |b, &mode| {
            b.iter_batched(
                || build_store(mode),
                |store| run_burst(&store),
                mbxq_bench::harness::BatchSize::PerIteration,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_concurrency);
criterion_main!(benches);
