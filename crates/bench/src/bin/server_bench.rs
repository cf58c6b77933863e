//! Client-observed latency of the network server — what does the wire
//! (framing + session + cursor paging) add on top of the engine? Merges
//! its rows into `BENCH_workload.json`.
//!
//! N concurrent clients hammer one in-memory two-document XMark catalog
//! through real TCP connections, each cycling the Q1–Q20 path corpus
//! ([`mbxq_xmark::QUERY_PATHS`]), parameterized point lookups
//! (`//item[@id = $id]` with a `$id` binding), and write bursts
//! (XUpdate appends of client-unique marker elements). Every request is
//! a full round trip — query, cursor header, page fetches until done —
//! so the numbers are end-to-end client-observed latencies, per query
//! class, aggregated across clients into p50/p99.
//!
//! Usage: `cargo run --release --bin server_bench [--smoke] [--secs N] [--clients N]`

use mbxq_server::{Client, Server, ServerConfig};
use mbxq_txn::{Catalog, CatalogConfig, StoreConfig};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, XMarkConfig, QUERY_PATHS};
use mbxq_xpath::{Bindings, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const DOCS: [&str; 2] = ["xmark0", "xmark1"];

fn percentile(sorted: &[u64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)] as f64 / 1000.0 // ns → µs
}

/// One client's samples: (class label, latency ns) pairs plus failure
/// counts (write bursts can lose lock races under contention).
struct ClientLog {
    samples: Vec<(&'static str, u64)>,
    write_conflicts: u64,
}

/// One client's life: cycle classes until `stop`, timing every full
/// round trip. Clients alternate target documents per iteration and
/// write only their own marker element names, so queries stay on
/// steady-state node sets while writes genuinely mutate the documents.
fn run_client(
    addr: std::net::SocketAddr,
    id: usize,
    items_per_doc: usize,
    stop: &AtomicBool,
) -> ClientLog {
    let mut cl = Client::connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(0xbe7c + id as u64);
    let mut log = ClientLog {
        samples: Vec::new(),
        write_conflicts: 0,
    };
    let mut iter = 0usize;
    while !stop.load(Ordering::Relaxed) {
        let doc = DOCS[(id + iter) % DOCS.len()];
        // The Q1–Q20 path corpus, one class per iteration.
        let (label, path) = QUERY_PATHS[iter % QUERY_PATHS.len()];
        let t0 = Instant::now();
        let nodes = cl.query_nodes(doc, path, None).expect("query class");
        log.samples.push((label, t0.elapsed().as_nanos() as u64));
        std::hint::black_box(nodes);
        // A parameterized point lookup with a `$id` binding.
        let mut b = Bindings::new();
        let id_n = rng.gen_range(0..items_per_doc.max(1));
        b.set("id", Value::Str(format!("item{id_n}")));
        let t0 = Instant::now();
        let hit = cl
            .query_nodes(doc, "//item[@id = $id]", Some(&b))
            .expect("point lookup");
        log.samples
            .push(("point_lookup", t0.elapsed().as_nanos() as u64));
        std::hint::black_box(hit);
        // A write burst: append one client-unique marker element. Lock
        // races with other clients on the same document root are real
        // contention, not failures — counted, not fatal.
        let script = format!(
            r#"<xupdate:modifications version="1.0">
                 <xupdate:append select="/site">
                   <xupdate:element name="srvbench{id}">
                     <xupdate:attribute name="i">{iter}</xupdate:attribute>
                   </xupdate:element>
                 </xupdate:append>
               </xupdate:modifications>"#
        );
        let t0 = Instant::now();
        match cl.xupdate(doc, &script) {
            Ok(_) => log
                .samples
                .push(("write_burst", t0.elapsed().as_nanos() as u64)),
            Err(_) => log.write_conflicts += 1,
        }
        iter += 1;
    }
    let _ = cl.goodbye();
    log
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_num = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .map(|s| {
                s.parse::<f64>()
                    .unwrap_or_else(|_| panic!("{name} takes a number"))
            })
    };
    let secs = arg_num("--secs").unwrap_or(if smoke { 0.3 } else { 2.0 });
    let clients = arg_num("--clients")
        .map(|c| c as usize)
        .unwrap_or(if smoke { 2 } else { 4 });

    let scale = if smoke { 0.002 } else { 0.01 };
    let cat = Arc::new(Catalog::in_memory(CatalogConfig {
        store: StoreConfig {
            lock_timeout: Duration::from_millis(500),
            query_threads: 2,
            ..StoreConfig::default()
        },
        page: mbxq_storage::PageConfig::new(256, 80).expect("valid"),
    }));
    let mut items_per_doc = usize::MAX;
    for (k, name) in DOCS.iter().enumerate() {
        let xml = generate(&XMarkConfig::scaled(scale, 42 + k as u64));
        items_per_doc = items_per_doc.min(xml.match_indices("<item ").count());
        cat.create_doc(name, &xml).expect("create doc");
    }
    let server = Server::start(
        cat.clone(),
        ServerConfig {
            workers: clients + 2,
            ..ServerConfig::default()
        },
    )
    .expect("start server");
    let addr = server.addr();
    println!(
        "XMark scale {scale} × {} docs ({items_per_doc} items each), {clients} clients, {secs}s, \
         server at {addr}",
        DOCS.len()
    );

    let stop = AtomicBool::new(false);
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let stop = &stop;
                s.spawn(move || run_client(addr, c, items_per_doc, stop))
            })
            .collect();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < secs {
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::Relaxed);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Aggregate across clients, per class.
    let mut by_class: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for log in &logs {
        for &(class, ns) in &log.samples {
            by_class.entry(class).or_default().push(ns);
        }
    }
    let write_conflicts: u64 = logs.iter().map(|l| l.write_conflicts).sum();
    let total: usize = by_class.values().map(|v| v.len()).sum();
    println!("{total} requests, {write_conflicts} write-burst lock conflicts");
    println!(
        "{:<22} {:>7} {:>10} {:>10}",
        "class", "count", "p50 µs", "p99 µs"
    );
    let mut rows = Vec::new();
    for (class, lat) in by_class.iter_mut() {
        lat.sort_unstable();
        let (p50, p99) = (percentile(lat, 50.0), percentile(lat, 99.0));
        println!("{class:<22} {:>7} {p50:>10.1} {p99:>10.1}", lat.len());
        let mut row = String::new();
        let _ = write!(
            row,
            "  {{\"bench\": \"server\", \"class\": \"{class}\", \"clients\": {clients}, \
             \"secs\": {secs}, \"count\": {}, \"p50_us\": {p50:.2}, \"p99_us\": {p99:.2}, {host}}}",
            lat.len(),
            host = mbxq_bench::host_json_fields()
        );
        rows.push(row);
    }

    // Liveness: every class must have been exercised, the marker writes
    // must have landed, and the server must still answer.
    assert!(
        by_class.len() > QUERY_PATHS.len(),
        "every query class sampled at least once (got {})",
        by_class.len()
    );
    let mut check = Client::connect(addr).expect("post-run connect");
    let markers: usize = DOCS
        .iter()
        .flat_map(|d| (0..clients).map(move |c| (d, c)))
        .map(|(d, c)| {
            check
                .query_nodes(d, &format!("//srvbench{c}"), None)
                .expect("marker query")
                .len()
        })
        .sum();
    let writes: usize = by_class.get("write_burst").map_or(0, |v| v.len());
    assert_eq!(markers, writes, "every acknowledged write is visible");
    assert!(writes > 0 || write_conflicts > 0, "writers must have run");
    drop(check);
    server.shutdown();

    if smoke {
        println!("smoke mode: skipping BENCH_workload.json");
        return;
    }
    mbxq_bench::merge_bench_rows("BENCH_workload.json", "server", &rows)
        .expect("write BENCH_workload.json");
    println!("merged {} server rows into BENCH_workload.json", rows.len());
}
