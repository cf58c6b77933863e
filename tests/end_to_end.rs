//! Cross-crate end-to-end tests: the full pipeline from XMark generation
//! through both schemas, queries, transactional updates, WAL recovery
//! and serialization.

mod common;

use mbxq::{
    Database, InsertPosition, PageConfig, PagedDoc, Shard, StorageMode, StoreConfig, TreeView, Wal,
    XPath,
};
use mbxq_txn::recover::recover;
use mbxq_xmark::{generate, run_query, XMarkConfig, QUERY_COUNT};
use mbxq_xml::Document;

#[test]
fn xmark_pipeline_agrees_across_schemas() {
    let xml = generate(&XMarkConfig::scaled(0.002, 99));
    let ro = mbxq::ReadOnlyDoc::parse_str(&xml).unwrap();
    let up = PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap();
    for q in 1..=QUERY_COUNT {
        assert_eq!(
            run_query(&ro, q).unwrap(),
            run_query(&up, q).unwrap(),
            "Q{q} diverged"
        );
    }
}

#[test]
fn queries_survive_update_storms() {
    // Queries on the paged schema must keep matching the read-only
    // shredding of the *serialized current state*, after many updates.
    let xml = generate(&XMarkConfig::tiny(5));
    let db = {
        let mut db = Database::new();
        db.load("x", &xml, StorageMode::default_updatable())
            .unwrap();
        db
    };
    for i in 0..10 {
        db.update(
            "x",
            &format!(
                r#"<xupdate:append select="/site/people">
                     <xupdate:element name="person">
                       <xupdate:attribute name="id">storm{i}</xupdate:attribute>
                       <name>Storm {i}</name>
                     </xupdate:element>
                   </xupdate:append>"#
            ),
        )
        .unwrap();
        if i % 3 == 0 {
            db.update("x", r#"<xupdate:remove select="//person[1]/watches"/>"#)
                .unwrap();
        }
    }
    let current = db.serialize("x").unwrap();
    let ro = mbxq::ReadOnlyDoc::parse_str(&current).unwrap();
    let store = db.store("x").unwrap();
    let up = store.snapshot();
    for q in 1..=QUERY_COUNT {
        assert_eq!(
            run_query(&ro, q).unwrap(),
            run_query(up.as_ref(), q).unwrap(),
            "Q{q} diverged after update storm"
        );
    }
    mbxq_storage::invariants::check_paged(up.as_ref()).unwrap();
}

#[test]
fn recovery_equals_live_state() {
    // Drive a store through a mixed workload with a file-backed WAL,
    // then prove recover(checkpoint, wal) == live document.
    let checkpoint = generate(&XMarkConfig::tiny(13));
    let cfg = PageConfig::new(64, 80).unwrap();
    let dir = std::env::temp_dir().join(format!("mbxq-e2e-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let wal_path = dir.join("e2e.wal");
    let _ = std::fs::remove_file(&wal_path);

    let store = Shard::open(
        PagedDoc::parse_str(&checkpoint, cfg).unwrap(),
        Wal::file(&wal_path).unwrap(),
        StoreConfig::default(),
    );
    let person_path = XPath::parse("/site/people/person[1]").unwrap();
    for i in 0..6 {
        let mut t = store.begin();
        let people = t.select(&XPath::parse("/site/people").unwrap()).unwrap();
        let frag =
            Document::parse_fragment(&format!("<person id=\"rec{i}\"><name>R{i}</name></person>"))
                .unwrap();
        t.insert(InsertPosition::LastChildOf(people[0]), &frag)
            .unwrap();
        if i == 3 {
            let victim = t.select(&person_path).unwrap()[0];
            t.delete(victim).unwrap();
        }
        t.commit().unwrap();
    }
    let live = mbxq_storage::serialize::to_xml(store.snapshot().as_ref()).unwrap();

    let wal_bytes = std::fs::read(&wal_path).unwrap();
    let recovered = recover(&checkpoint, cfg, &wal_bytes).unwrap();
    assert_eq!(mbxq_storage::serialize::to_xml(&recovered).unwrap(), live);
    mbxq_storage::invariants::check_paged(&recovered).unwrap();
    let _ = std::fs::remove_file(&wal_path);
    let _ = std::fs::remove_dir(&dir);
}

#[test]
fn concurrent_transactions_with_threads() {
    // Disjoint-subtree writers under the delta scheme commit in parallel
    // (no root serialization); final state must account exactly.
    let mut xml = String::from("<site><regions>");
    for w in 0..4 {
        xml.push_str(&format!("<region{w}>"));
        for i in 0..400 {
            xml.push_str(&format!("<item id=\"c{w}i{i}\"/>"));
        }
        xml.push_str(&format!("</region{w}>"));
    }
    xml.push_str("</regions></site>");
    let store = Shard::open(
        PagedDoc::parse_str(&xml, PageConfig::new(256, 80).unwrap()).unwrap(),
        Wal::in_memory(),
        StoreConfig::default(),
    );
    let baseline = store.snapshot().used_count();
    std::thread::scope(|s| {
        for w in 0..4 {
            let store = &store;
            s.spawn(move || {
                let path = XPath::parse(&format!("/site/regions/region{w}")).unwrap();
                let frag = Document::parse_fragment("<item/>").unwrap();
                for _ in 0..25 {
                    let mut t = store.begin();
                    let target = t.select(&path).unwrap()[0];
                    t.insert(InsertPosition::LastChildOf(target), &frag)
                        .unwrap();
                    t.commit().unwrap();
                }
            });
        }
    });
    let final_doc = store.snapshot();
    assert_eq!(final_doc.used_count(), baseline + 100);
    assert_eq!(
        mbxq::TreeView::size(final_doc.as_ref(), 0),
        baseline + 100 - 1
    );
    mbxq_storage::invariants::check_paged(final_doc.as_ref()).unwrap();
}

#[test]
fn facade_round_trip_with_xmark() {
    let xml = generate(&XMarkConfig::tiny(21));
    let mut db = Database::new();
    db.load("ro", &xml, StorageMode::ReadOnly).unwrap();
    db.load("up", &xml, StorageMode::default_updatable())
        .unwrap();
    for path in [
        "count(//item)",
        "count(/site/people/person)",
        "/site/people/person[1]/name",
        "count(//bidder)",
    ] {
        assert_eq!(
            db.query("ro", path).unwrap(),
            db.query("up", path).unwrap(),
            "facade query {path} diverged"
        );
    }
    // Serializations parse to identical documents.
    let a = Document::parse(&db.serialize("ro").unwrap()).unwrap();
    let b = Document::parse(&db.serialize("up").unwrap()).unwrap();
    assert_eq!(a, b);
}
