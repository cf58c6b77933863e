//! Regression tests for the per-store plan cache: one compile per
//! query text, invalidation across `layout_epoch` bumps (vacuum), and
//! correct results through cached plans before and after updates.

use mbxq::{PageConfig, PagedDoc, Shard, StoreConfig, Wal, XPath};
use mbxq_xpath::Value;

const DOC: &str = r#"<site><people><person id="p0"><name>Ann</name></person><person id="p1"><name>Bob</name></person></people></site>"#;

fn store() -> Shard {
    let doc = PagedDoc::parse_str(DOC, PageConfig::new(8, 75).unwrap()).unwrap();
    Shard::open(doc, Wal::in_memory(), StoreConfig::default())
}

#[test]
fn same_query_twice_compiles_once() {
    let s = store();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let stats = s.plan_cache_stats();
    assert_eq!(stats.misses, 1, "second use must hit the cache");
    assert_eq!(stats.hits, 1);
    assert_eq!(stats.entries, 1);
    // A different text is its own entry.
    s.query("//person/name").unwrap();
    assert_eq!(s.plan_cache_stats().entries, 2);
}

#[test]
fn vacuum_bumps_the_epoch_and_invalidates() {
    let s = store();
    s.query("count(//person)").unwrap();
    let epoch_before = s.layout_epoch();
    s.vacuum().unwrap();
    assert!(
        s.layout_epoch() > epoch_before,
        "vacuum must bump the epoch"
    );
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let stats = s.plan_cache_stats();
    assert_eq!(
        stats.misses, 2,
        "an epoch bump must force recompilation (got {stats:?})"
    );
    assert_eq!(stats.entries, 1, "the stale entry is replaced, not kept");
    // The recompiled entry is cached again.
    s.query("count(//person)").unwrap();
    assert_eq!(s.plan_cache_stats().hits, 1);
}

#[test]
fn cached_plans_see_fresh_snapshots() {
    // The cache stores *plans*, not results: a commit between two uses
    // of the same text must be visible to the second use.
    let s = store();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(2.0));
    let mut t = s.begin();
    let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
    let frag = mbxq::XmlDocument::parse_fragment("<person id=\"p2\"/>").unwrap();
    t.insert(mbxq::InsertPosition::LastChildOf(people[0]), &frag)
        .unwrap();
    t.commit().unwrap();
    assert_eq!(s.query("count(//person)").unwrap(), Value::Number(3.0));
    assert_eq!(s.plan_cache_stats().hits, 1, "still served from the cache");
}

/// At the capacity, the cache evicts single LRU entries — a hot query
/// used throughout an eviction storm of one-shot texts must never be
/// recompiled, and the evictions are counted.
#[test]
fn hot_query_survives_an_eviction_storm() {
    const CAP: usize = 1024; // Shard::PLAN_CACHE_CAP
    let s = store();
    let hot = "count(//person)";
    assert_eq!(s.query(hot).unwrap(), Value::Number(2.0));
    // 1.5x the capacity of distinct one-shot texts, touching the hot
    // query between every few of them so it stays recently used.
    let storm = CAP + CAP / 2;
    for i in 0..storm {
        let cold = format!("count(//person[@id = \"nope{i}\"])");
        assert_eq!(s.query(&cold).unwrap(), Value::Number(0.0));
        if i % 3 == 0 {
            s.query(hot).unwrap();
        }
    }
    let stats = s.plan_cache_stats();
    assert_eq!(
        stats.misses,
        1 + storm as u64,
        "the hot query must compile exactly once: {stats:?}"
    );
    assert!(stats.hits >= (storm / 3) as u64, "{stats:?}");
    assert!(
        stats.evictions > 0 && stats.evictions as usize >= storm - CAP,
        "single-entry evictions must be counted: {stats:?}"
    );
    assert!(stats.entries <= CAP, "{stats:?}");
    // And it still answers from the cache afterwards.
    let hits_before = s.plan_cache_stats().hits;
    s.query(hot).unwrap();
    assert_eq!(s.plan_cache_stats().hits, hits_before + 1);
}

#[test]
fn query_nodes_pins_results_by_node_id() {
    let s = store();
    let nodes = s.query_nodes("//person").unwrap();
    assert_eq!(nodes.len(), 2);
    // Node ids stay valid across a vacuum (pre ranks may not).
    s.vacuum().unwrap();
    let snap = s.snapshot();
    for n in nodes {
        snap.node_to_pre(n).expect("node id survives vacuum");
    }
}
