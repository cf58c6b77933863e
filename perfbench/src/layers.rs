//! The per-layer metrics of a traced run.
//!
//! Two sources: the workload's own traffic (its spans and the counters
//! the program exposes), and a probe suite that times fixed calls into
//! every layer's public functions on the workload's current document.
//! The probes run in every workload, so each layer metric is measured
//! everywhere and a change to one layer shows on the workload that
//! exercises it as well as on those predicted to stay flat.

use crate::common::{metric, probe, txn_err, Metric, DOC_SEED};
use crate::stats::{mean, median};
use crate::trace::{Layer, SpanLog, Trace};
use mbxq_axes::{step, Axis, NodeTest};
use mbxq_server::{Client, Server, ServerConfig};
use mbxq_storage::{InsertPosition, PageConfig, PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_txn::wal::{Wal, WalRecord};
use mbxq_txn::{Catalog, CatalogConfig, Shard};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, run_query_opts, XMarkConfig, QUERY_COUNT, QUERY_PATHS};
use mbxq_xml::{Document, QName};
use mbxq_xpath::{Bindings, EvalOptions, EvalStats, Value, XPath};
use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Span name of query `q` on one schema: `xmark.qNN_up` / `xmark.qNN_ro`.
pub fn q_span(q: usize, up: bool) -> &'static str {
    static NAMES: OnceLock<Vec<String>> = OnceLock::new();
    let names = NAMES.get_or_init(|| {
        (1..=QUERY_COUNT)
            .flat_map(|q| [format!("xmark.q{q:02}_up"), format!("xmark.q{q:02}_ro")])
            .collect()
    });
    &names[(q - 1) * 2 + usize::from(!up)]
}

/// The parameterized point lookup every workload issues.
pub const LOOKUP: &str = "//item[@id = $id]";

/// The XUpdate script of one acknowledged server write: a marker element
/// appended under the root, tagged with its connection and sequence.
pub fn write_script(conn: usize, n: u64) -> String {
    format!(
        r#"<xupdate:modifications version="1.0"><xupdate:append select="/site"><xupdate:element name="perfbench_w"><xupdate:attribute name="c">{conn}</xupdate:attribute><xupdate:attribute name="n">{n}</xupdate:attribute></xupdate:element></xupdate:append></xupdate:modifications>"#
    )
}

/// Counters of the workload's own traffic (zero where the workload
/// issues no such call).
#[derive(Default)]
pub struct Traffic {
    pub records_per_fsync: f64,
    pub wal_bytes_per_commit: f64,
    pub lock_timeouts: u64,
    pub plan_hits: u64,
    pub plan_misses: u64,
    pub fetches_per_query: f64,
    pub par_steps: u64,
    pub morsels: u64,
    /// Traced minus untraced end-to-end median, as % of the untraced.
    pub overhead_pct: f64,
    pub fail_ratio: f64,
}

/// What the probe suite runs against.
pub struct Input<'a> {
    /// The workload's current (post-update) updateable document.
    pub up: &'a PagedDoc,
    /// The shard holding it.
    pub shard: &'a Shard,
    pub scale: f64,
    pub seed: u64,
    pub page: PageConfig,
    /// The workload's own WAL records.
    pub records: Vec<WalRecord>,
    pub work: &'a Path,
    /// Where the spans are written when the run ends.
    pub spans_out: &'a Path,
    /// The workload's own connection, when it has a server.
    pub client: Option<&'a mut Client>,
    pub epoch: Instant,
}

/// Element names the query corpus steps through.
fn corpus_names() -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for (_, path) in QUERY_PATHS {
        for seg in path.split('/') {
            let seg = seg.split('[').next().unwrap_or("");
            let seg = seg.rsplit("::").next().unwrap_or("");
            let ok = !seg.is_empty()
                && seg
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
            if ok && !names.iter().any(|n| n == seg) {
                names.push(seg.to_string());
            }
        }
    }
    names
}

fn qn<V: TreeView>(view: &V, name: &str) -> Result<mbxq_storage::QnId, String> {
    view.pool()
        .lookup_qname(&QName::local(name))
        .ok_or_else(|| format!("element name {name} not in the document"))
}

fn sel<V: TreeView>(view: &V, path: &str) -> Result<Vec<u64>, String> {
    XPath::parse(path)
        .and_then(|p| p.select_from_root(view))
        .map_err(|e| format!("{path}: {e}"))
}

/// Storage and axes probes on one schema: returns
/// `(elements_named, attr_probe, text_probe, desc, anc, child)` in µs.
fn view_probes<V: TreeView>(
    log: &mut SpanLog,
    view: &V,
    up: bool,
    names: &[String],
    persons: usize,
    seed: u64,
) -> Result<[f64; 6], String> {
    let pick = |a: &'static str, b: &'static str| if up { a } else { b };
    let mut per_name = Vec::new();
    for name in names {
        let Ok(q) = qn(view, name) else { continue };
        let (us, hits) = probe(
            log,
            pick("storage.elements_named_up", "storage.elements_named_ro"),
            Layer::Storage,
            5,
            || view.elements_named(q),
        );
        hits.ok_or("schema without a name index")?;
        per_name.push(us);
    }
    let id = qn(view, "id")?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xa77);
    let mut attr = Vec::new();
    for _ in 0..40 {
        let v = format!("person{}", rng.gen_range(0..persons));
        let (us, hits) = probe(
            log,
            pick("storage.attr_probe_up", "storage.attr_probe_ro"),
            Layer::Storage,
            1,
            || view.nodes_with_attr_value(id, &v),
        );
        if hits.is_none_or(|h| h.len() > 1) {
            return Err(format!("@id={v}: expected at most one hit from the index"));
        }
        attr.push(us);
    }
    let name_qn = qn(view, "name")?;
    let named = view.elements_named(name_qn).unwrap_or_default();
    let mut text = Vec::new();
    for _ in 0..40 {
        let value = view.string_value(named[rng.gen_range(0..named.len())]);
        let (us, hits) = probe(
            log,
            pick("storage.text_probe_up", "storage.text_probe_ro"),
            Layer::Storage,
            1,
            || view.elements_with_text(name_qn, &value),
        );
        hits.ok_or("schema without a content index")?;
        text.push(us);
    }
    let root = view.root_pre().ok_or("empty document")?;
    let keyword = NodeTest::Name(QName::local("keyword"));
    let (desc, _) = probe(
        log,
        pick("axes.desc_up", "axes.desc_ro"),
        Layer::Axes,
        5,
        || step(view, &[root], Axis::Descendant, &keyword),
    );
    let keywords = sel(
        view,
        "/site/closed_auctions/closed_auction/annotation/description/parlist/listitem/parlist/listitem/text/emph/keyword",
    )?;
    let auction = NodeTest::Name(QName::local("closed_auction"));
    let (anc, _) = probe(
        log,
        pick("axes.anc_up", "axes.anc_ro"),
        Layer::Axes,
        5,
        || step(view, &keywords, Axis::Ancestor, &auction),
    );
    let people = sel(view, "/site/people")?;
    let person = NodeTest::Name(QName::local("person"));
    let (child, _) = probe(
        log,
        pick("axes.child_up", "axes.child_ro"),
        Layer::Axes,
        5,
        || step(view, &people, Axis::Child, &person),
    );
    Ok([
        mean(&per_name),
        median(&attr),
        median(&text),
        desc,
        anc,
        child,
    ])
}

/// Mean over the corpus of the median precompiled-evaluation time (µs),
/// with each query's result cardinality.
fn eval_probe<V: TreeView>(
    log: &mut SpanLog,
    view: &V,
    up: bool,
    plans: &[XPath],
) -> Result<(f64, Vec<usize>), String> {
    let name = if up { "xpath.eval_up" } else { "xpath.eval_ro" };
    let mut us = Vec::new();
    let mut rows = Vec::new();
    for p in plans {
        let (t, r) = probe(log, name, Layer::Xpath, 3, || {
            p.select_from_root_opts(view, &EvalOptions::new())
        });
        rows.push(r.map_err(|e| format!("{}: {e}", p.source()))?.len());
        us.push(t);
    }
    Ok((mean(&us), rows))
}

/// Runs the probe suite and assembles every per-layer metric.
pub fn collect(
    trace: &mut Trace,
    inp: Input<'_>,
    traffic: &Traffic,
    notes: &mut Vec<String>,
) -> Result<Vec<Metric>, String> {
    let mut log = SpanLog::new(inp.epoch, true);
    let up = inp.up;
    let mut m = Vec::new();

    // Set-up layers: generate, parse and shred the current document.
    let cfg = XMarkConfig::scaled(inp.scale, DOC_SEED);
    let (gen_us, _) = probe(&mut log, "xmark.generate", Layer::Xmark, 1, || {
        generate(&cfg).len()
    });
    let text = log
        .time("storage.serialize", Layer::Storage, 0, || {
            mbxq_storage::serialize::to_xml(up)
        })
        .map_err(|e| format!("serialize: {e}"))?;
    let (parse_us, tree) = probe(&mut log, "xml.parse", Layer::Xml, 1, || {
        Document::parse(&text)
    });
    let tree = tree.map_err(|e| format!("parse: {e}"))?;
    let (shred_up_us, fresh) = probe(&mut log, "storage.shred_up", Layer::Storage, 1, || {
        PagedDoc::from_tree(&tree.root, inp.page)
    });
    fresh.map_err(|e| format!("shred up: {e}"))?;
    let (shred_ro_us, ro) = probe(&mut log, "storage.shred_ro", Layer::Storage, 1, || {
        ReadOnlyDoc::from_tree(&tree.root)
    });
    let ro = ro.map_err(|e| format!("shred ro: {e}"))?;
    drop(tree);
    m.push(metric("xmark.generate_ms", gen_us / 1e3, "ms"));
    m.push(metric("xml.parse_ms", parse_us / 1e3, "ms"));
    m.push(metric("storage.shred_up_ms", shred_up_us / 1e3, "ms"));
    m.push(metric("storage.shred_ro_ms", shred_ro_us / 1e3, "ms"));

    // Storage and axes on both schemas.
    let names = corpus_names();
    let persons = text.match_indices("<person ").count().max(1);
    let u = view_probes(&mut log, up, true, &names, persons, inp.seed)?;
    let r = view_probes(&mut log, &ro, false, &names, persons, inp.seed)?;
    for (i, what) in [
        "storage.elements_named",
        "storage.attr_probe",
        "storage.text_probe",
        "axes.desc",
        "axes.anc",
        "axes.child",
    ]
    .iter()
    .enumerate()
    {
        m.push(metric(format!("{what}_up_us"), u[i], "us"));
        m.push(metric(format!("{what}_ro_us"), r[i], "us"));
    }
    let items = up.elements_named(qn(up, "item")?).ok_or("no name index")?;
    let (map_us, mapped) = probe(&mut log, "storage.pre_to_node", Layer::Storage, 5, || {
        items.iter().filter(|&&p| up.pre_to_node(p).is_ok()).count()
    });
    if mapped != items.len() {
        return Err("pre_to_node failed on a live item".into());
    }
    m.push(metric(
        "storage.pre_to_node_ns",
        map_us * 1e3 / items.len() as f64,
        "ns",
    ));
    let st = up.stats();
    m.push(metric("storage.used_slots", st.used as f64, "count"));
    m.push(metric(
        "storage.capacity_slots",
        st.capacity as f64,
        "count",
    ));
    m.push(metric(
        "storage.table_bytes",
        st.table_bytes as f64,
        "bytes",
    ));

    // bat: the copy-on-write clone every commit speculates on.
    let (clone_us, _) = probe(&mut log, "bat.doc_clone", Layer::Bat, 21, || up.clone());
    m.push(metric("bat.doc_clone_us", clone_us, "us"));

    // xpath: compile, precompiled evaluation, and which arms one Q1–Q20
    // pass ran.
    let mut compile = Vec::new();
    let mut plans = Vec::new();
    for (_, path) in QUERY_PATHS {
        let (us, p) = probe(&mut log, "xpath.compile", Layer::Xpath, 5, || {
            XPath::parse(path)
        });
        plans.push(p.map_err(|e| format!("{path}: {e}"))?);
        compile.push(us);
    }
    let (eval_up, rows_up) = eval_probe(&mut log, up, true, &plans)?;
    let (eval_ro, rows_ro) = eval_probe(&mut log, &ro, false, &plans)?;
    if rows_up != rows_ro {
        return Err(format!(
            "corpus cardinalities differ between schemas: {rows_up:?} vs {rows_ro:?}"
        ));
    }
    m.push(metric("xpath.compile_us", mean(&compile), "us"));
    m.push(metric("xpath.eval_up_us", eval_up, "us"));
    m.push(metric("xpath.eval_ro_us", eval_ro, "us"));
    let stats = EvalStats::default();
    let opts = EvalOptions::new().stats(&stats);
    for q in 1..=QUERY_COUNT {
        run_query_opts(up, q, &opts).map_err(|e| format!("Q{q}: {e}"))?;
    }
    for (name, c) in [
        ("xpath.index_steps", &stats.index_steps),
        ("xpath.staircase_steps", &stats.staircase_steps),
        ("xpath.value_probe_steps", &stats.value_probe_steps),
        ("xpath.value_scan_steps", &stats.value_scan_steps),
        ("xpath.simd_steps", &stats.simd_steps),
        ("xpath.multi_probe_steps", &stats.multi_probe_steps),
        ("xpath.intersect_rows", &stats.intersect_rows),
        ("xpath.replans", &stats.replans),
    ] {
        m.push(metric(name, c.get() as f64, "count"));
    }
    m.push(metric("xpath.par_steps", traffic.par_steps as f64, "count"));
    m.push(metric("xpath.morsels", traffic.morsels as f64, "count"));

    // xmark: per-query medians from the workload's own traced passes,
    // or from three probe passes where the workload runs none.
    if trace.count(q_span(1, true)) == 0 {
        for _ in 0..3 {
            for q in 1..=QUERY_COUNT {
                let o = EvalOptions::new();
                log.time(q_span(q, true), Layer::Xmark, 0, || {
                    run_query_opts(up, q, &o)
                })
                .map_err(|e| format!("Q{q}: {e}"))?;
                log.time(q_span(q, false), Layer::Xmark, 0, || {
                    run_query_opts(&ro, q, &o)
                })
                .map_err(|e| format!("Q{q}: {e}"))?;
            }
        }
    }

    // txn: snapshot publication read, staging, the fsync'd log append.
    // µs per 1000 calls = ns per call.
    let (snap_ns, _) = probe(&mut log, "txn.snapshot_x1000", Layer::Txn, 10, || {
        for _ in 0..1000 {
            std::hint::black_box(inp.shard.snapshot());
        }
    });
    if trace.count("txn.stage") == 0 {
        let pool: Vec<String> = (0..items.len()).map(|k| format!("item{k}")).collect();
        let mut rng = StdRng::seed_from_u64(inp.seed ^ 0x57a9e);
        let frag = Document::parse_fragment("<item id=\"probe\"><name>probe</name></item>")
            .map_err(|e| format!("fragment: {e}"))?;
        for _ in 0..20 {
            let path = XPath::parse(&format!(
                "/site/regions/*/item[@id='{}']",
                pool[rng.gen_range(0..pool.len())]
            ))
            .map_err(|e| format!("{e}"))?;
            let s = log.begin("txn.stage", Layer::Txn, 0);
            let mut t = inp.shard.begin();
            let anchor = t.select(&path).map_err(txn_err)?.first().copied();
            if let Some(a) = anchor {
                t.insert(InsertPosition::After(a), &frag).map_err(txn_err)?;
            }
            log.end(s);
            t.abort();
        }
    }
    let commits: Vec<&WalRecord> = inp
        .records
        .iter()
        .filter(|r| matches!(r, WalRecord::Commit { .. }))
        .take(200)
        .collect();
    if commits.is_empty() {
        return Err("the workload logged no commit record".into());
    }
    let scratch = inp.work.join("append.wal");
    let _ = std::fs::remove_file(&scratch);
    let append_us = {
        let mut wal = Wal::file(&scratch).map_err(|e| format!("scratch wal: {e}"))?;
        let mut us = Vec::new();
        for rec in commits {
            let (t, r) = probe(&mut log, "txn.wal_append", Layer::Txn, 1, || {
                wal.append(rec)
            });
            r.map_err(|e| format!("append: {e}"))?;
            us.push(t);
        }
        median(&us)
    };
    let _ = std::fs::remove_file(&scratch);
    m.push(metric(
        "txn.stage_us",
        median(&trace_and(trace, &log, "txn.stage")),
        "us",
    ));
    m.push(metric(
        "txn.records_per_fsync",
        traffic.records_per_fsync,
        "ratio",
    ));
    m.push(metric(
        "txn.wal_bytes_per_commit",
        traffic.wal_bytes_per_commit,
        "bytes",
    ));
    m.push(metric("txn.wal_append_us", append_us, "us"));
    m.push(metric(
        "txn.lock_timeouts",
        traffic.lock_timeouts as f64,
        "count",
    ));
    m.push(metric("txn.snapshot_ns", snap_ns, "ns"));
    let lookups = traffic.plan_hits + traffic.plan_misses;
    m.push(metric(
        "txn.plan_hit_ratio",
        if lookups == 0 {
            0.0
        } else {
            traffic.plan_hits as f64 / lookups as f64
        },
        "ratio",
    ));

    // xupdate: parsing the server's write script.
    let script = write_script(0, 0);
    let (xu_us, parsed) = probe(&mut log, "xupdate.parse", Layer::Xupdate, 51, || {
        mbxq_xupdate::parse_modifications(&script)
    });
    parsed.map_err(|e| format!("xupdate parse: {e}"))?;
    m.push(metric("xupdate.parse_us", xu_us, "us"));

    // server: wire round trip, and the same requests in-process.
    let ping_us = match inp.client {
        Some(c) => ping(&mut log, c)?,
        None => {
            let cat = Arc::new(Catalog::in_memory(CatalogConfig::default()));
            let server = Server::start(cat, ServerConfig::default())
                .map_err(|e| format!("probe server: {e}"))?;
            let mut c = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
            let us = ping(&mut log, &mut c);
            let _ = c.goodbye();
            server.shutdown();
            us?
        }
    };
    m.push(metric("server.ping_us_p50", ping_us, "us"));
    let mut rng = StdRng::seed_from_u64(inp.seed ^ 0x100c);
    let mut lookup = Vec::new();
    for _ in 0..200 {
        let mut b = Bindings::new();
        b.set(
            "id",
            Value::Str(format!("item{}", rng.gen_range(0..items.len()))),
        );
        let opts = EvalOptions::new().bindings(&b);
        let (us, r) = probe(&mut log, "server.inproc_lookup", Layer::Server, 1, || {
            inp.shard.query_nodes_opts(LOOKUP, &opts)
        });
        r.map_err(txn_err)?;
        lookup.push(us);
    }
    let mut paths = Vec::new();
    for _ in 0..3 {
        for (_, path) in QUERY_PATHS {
            let (us, r) = probe(&mut log, "server.inproc_path", Layer::Server, 1, || {
                inp.shard.query_nodes(path)
            });
            r.map_err(txn_err)?;
            paths.push(us);
        }
    }
    m.push(metric("server.inproc_lookup_us_p50", median(&lookup), "us"));
    m.push(metric("server.inproc_path_us_p50", median(&paths), "us"));
    m.push(metric(
        "server.fetches_per_query",
        traffic.fetches_per_query,
        "ratio",
    ));
    m.push(metric(
        "server.plan_hits",
        traffic.plan_hits as f64,
        "count",
    ));
    m.push(metric(
        "server.plan_misses",
        traffic.plan_misses as f64,
        "count",
    ));

    trace.absorb(log);

    // xmark: the Figure 9 bins and the paper's average overhead. The
    // average is reported, never gated: it swings by more than 10 %
    // between identical runs.
    let mut overheads = Vec::new();
    for q in 1..=QUERY_COUNT {
        let a = median(&trace.durations_us(q_span(q, true)));
        let b = median(&trace.durations_us(q_span(q, false)));
        m.push(metric(format!("xmark.q{q:02}_up_us"), a, "us"));
        m.push(metric(format!("xmark.q{q:02}_ro_us"), b, "us"));
        // Same definition as the figure9 binary: negative overheads
        // count as zero.
        overheads.push(((a / b - 1.0) * 100.0).max(0.0));
    }
    m.push(metric("xmark.avg_overhead_pct", mean(&overheads), "%"));

    for (layer, pct) in trace.self_pct() {
        m.push(metric(format!("{}.self_pct", layer.name()), pct, "%"));
    }
    m.push(metric("trace.overhead_pct", traffic.overhead_pct, "%"));
    m.push(metric("fail_ratio", traffic.fail_ratio, "ratio"));
    trace
        .write_tsv(inp.spans_out)
        .map_err(|e| format!("write spans: {e}"))?;
    notes.push(format!(
        "trace: {} spans written to {}",
        trace.total_spans(),
        inp.spans_out.display()
    ));
    Ok(m)
}

/// Durations (µs) of `name` in the merged trace plus the open probe log.
fn trace_and(trace: &Trace, log: &SpanLog, name: &str) -> Vec<f64> {
    let mut v = trace.durations_us(name);
    v.extend(log.durations_us(name));
    v
}

fn ping(log: &mut SpanLog, c: &mut Client) -> Result<f64, String> {
    let mut us = Vec::new();
    for _ in 0..200 {
        let (t, r) = probe(log, "server.ping", Layer::Server, 1, || c.ping());
        r.map_err(|e| format!("ping: {e}"))?;
        us.push(t);
    }
    Ok(median(&us))
}
