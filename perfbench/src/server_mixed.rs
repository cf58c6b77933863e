//! `server_mixed`: the client-observed number. One generator process
//! drives an in-process server over two TCP connections in an open
//! loop at a fixed offered rate; every request is timed from the moment
//! it was due, so a stall also delays the requests queued behind it.
//!
//! The gated ratio sets the cached parameterized lookup against the same
//! lookup under a text the shard has not seen: both pay the same round
//! trips and the same scan, so the host's swings in wake-up latency and
//! speed cancel, and what is left is what the plan cache saves.

use crate::common::{
    repeated_setup, space_ratio, txn_err, xmark_counts, Ctx, EndToEnd, Report, DOC_SEED, WARM_UP,
};
use crate::layers::{self, write_script, Traffic, LOOKUP};
use crate::stats::{median, pct};
use crate::trace::{Layer, SpanLog, Trace};
use mbxq_bench::paper_page_config;
use mbxq_server::{Client, NetError, QueryReply, Server, ServerConfig};
use mbxq_storage::NodeId;
use mbxq_txn::wal::decode_log;
use mbxq_txn::{Catalog, CatalogConfig, StoreConfig};
use mbxq_xmark::rng::StdRng;
use mbxq_xmark::{generate, XMarkConfig, QUERY_PATHS};
use mbxq_xpath::{Bindings, EvalOptions, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per document: the paper's smallest Figure 9 document (1.1 MB), as in
/// the in-process workloads.
pub const SCALE: f64 = 0.025;
/// Plans each shard's cache holds (the shard's `PLAN_CACHE_CAP`).
const PLAN_CACHE_CAP: usize = 1024;
const DOCS: [&str; 2] = ["xmark0", "xmark1"];
const CONNS: usize = 2;
/// Offered rate of the open loop (requests/s), both connections
/// together. The closed-loop capacity on a 2-core host was 1550–2100
/// requests/s; at 600 and 1000 requests/s queueing amplified the host's
/// speed swings and the lookup p90 moved by up to 3x between identical
/// runs, so the rate sits at 15–20 % of capacity.
const RATE: f64 = 300.0;
/// How long after the schedule's end the generator keeps draining a
/// backlog before it refuses the rest.
const BACKLOG_GRACE: Duration = Duration::from_secs(1);

fn config() -> CatalogConfig {
    CatalogConfig {
        store: StoreConfig {
            query_threads: 2,
            lock_timeout: Duration::from_millis(500),
            ..StoreConfig::default()
        },
        page: paper_page_config(),
    }
}

struct Setup {
    // Field order is drop order: connections close before the server
    // stops, and the server stops before the catalog goes.
    clients: Vec<Client>,
    server: Option<Server>,
    cat: Arc<Catalog>,
    items: [usize; 2],
    persons: [usize; 2],
    wal_bytes0: usize,
}

fn setup(dir: &Path) -> Result<Setup, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear catalog dir: {e}"))?;
    }
    let cat = Arc::new(Catalog::open(dir, config()).map_err(txn_err)?);
    let (mut items, mut persons) = ([0; 2], [0; 2]);
    for (k, name) in DOCS.iter().enumerate() {
        let xml = generate(&XMarkConfig::scaled(SCALE, DOC_SEED + k as u64));
        (items[k], persons[k]) = xmark_counts(&xml);
        if 2 * persons[k] <= PLAN_CACHE_CAP {
            return Err(format!(
                "{name}: {} persons spell too few literal lookups to miss the plan cache",
                persons[k]
            ));
        }
        cat.create_doc(name, &xml).map_err(txn_err)?;
    }
    let server = Server::start(
        cat.clone(),
        ServerConfig {
            workers: CONNS,
            ..ServerConfig::default()
        },
    )
    .map_err(|e| format!("server: {e}"))?;
    let clients = (0..CONNS)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let wal_bytes0 = wal_bytes(&cat)?;
    Ok(Setup {
        clients,
        server: Some(server),
        cat,
        items,
        persons,
        wal_bytes0,
    })
}

fn wal_bytes(cat: &Catalog) -> Result<usize, String> {
    let mut n = 0;
    for d in DOCS {
        let shard = cat.shard(d).ok_or("document missing")?;
        n += shard.wal_raw().map_err(txn_err)?.len();
    }
    Ok(n)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Lookup,
    /// The lookup under a variable name no shard has seen yet.
    Fresh,
    Literal,
    Path,
    Write,
}

/// A lookup answer kept for the in-process re-check.
struct Sample {
    doc: usize,
    text: String,
    /// The `$variable` and its value, if the text has one.
    binding: Option<(String, String)>,
    nodes: Vec<NodeId>,
}

/// One connection's samples (ms) and counters.
#[derive(Default)]
struct ConnLog {
    lookup: Vec<f64>,
    fresh: Vec<f64>,
    literal: Vec<f64>,
    path: Vec<f64>,
    write: Vec<f64>,
    traced_lookup: Vec<f64>,
    untraced_lookup: Vec<f64>,
    late: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Requests still due when the generator gave up on its backlog.
    refused: u64,
    path_queries: u64,
    path_fetches: u64,
    /// Sampled lookup answers (every 16th of each kind).
    samples: Vec<Sample>,
    /// Sequence numbers of acknowledged writes (to `DOCS[conn]`).
    acked: Vec<u64>,
    /// When the last measured request completed.
    last_done: Option<Instant>,
}

/// Runs one query and drains its cursor: (nodes, page fetches).
fn drain(
    log: &mut SpanLog,
    c: &mut Client,
    doc: &str,
    text: &str,
    b: Option<&Bindings>,
    req: u64,
) -> Result<(Vec<NodeId>, u64), NetError> {
    let reply = log.time("server.query", Layer::Server, req, || c.query(doc, text, b))?;
    let QueryReply::Cursor(cur) = reply else {
        return Err(NetError::Protocol(format!("{text}: expected a node set")));
    };
    let (mut nodes, mut fetches) = (Vec::new(), 0);
    loop {
        let (done, rows) = log.time("server.fetch", Layer::Server, req, || c.fetch(cur.id))?;
        fetches += 1;
        nodes.extend(rows.into_iter().map(|(_, n)| n));
        if done {
            return Ok((nodes, fetches));
        }
    }
}

struct Plan {
    start: Instant,
    measure_from: Instant,
    end: Instant,
    epoch: Instant,
}

fn connection(
    ctx: &Ctx,
    conn: usize,
    c: &mut Client,
    items: [usize; 2],
    persons: [usize; 2],
    plan: &Plan,
) -> (ConnLog, SpanLog) {
    let mut rng = StdRng::seed_from_u64(ctx.seed ^ (0xc0ff + conn as u64));
    let mut out = ConnLog::default();
    let mut log = SpanLog::new(plan.epoch, false);
    let mut literal_next = [0usize; 2];
    let mut fresh_next = [0usize; 2];
    let mut writes = 0u64;
    let mut lookups = 0u64;
    let penalty = ctx.penalty_ms();
    for j in 0u64.. {
        let due =
            plan.start + Duration::from_secs_f64((j as f64 * CONNS as f64 + conn as f64) / RATE);
        if due >= plan.end {
            break;
        }
        let now = Instant::now();
        let measured = due >= plan.measure_from;
        if now >= plan.end + BACKLOG_GRACE {
            // Overloaded: the requests still due are refused, and each
            // counts as failed.
            let total = (plan.end - plan.start).as_secs_f64() * RATE;
            let left = ((total - conn as f64) / CONNS as f64).ceil() as u64 - j;
            out.attempted += left;
            out.failed += left;
            out.refused += left;
            break;
        }
        if now < due {
            std::thread::sleep(due - now);
            if measured {
                out.late.push(due.elapsed().as_secs_f64() * 1e3);
            }
        }
        let roll = rng.gen_range(0..100usize);
        let class = match roll {
            0..=29 => Class::Lookup,
            30..=39 => Class::Fresh,
            40..=49 => Class::Literal,
            50..=79 => Class::Path,
            _ => Class::Write,
        };
        let doc = rng.gen_range(0..DOCS.len());
        let traced = ctx.trace && measured && j.is_multiple_of(2);
        log.set_on(traced);
        let req = ((conn as u64) << 48) | j;
        let result: Result<(), NetError> = match class {
            Class::Lookup | Class::Fresh => {
                let id = format!("item{}", rng.gen_range(0..items[doc]));
                // The same lookup, either as the one hot text whose plan
                // the shard has cached, or under a variable name that
                // connection `c` numbers `c`, `c + CONNS`, …, so the text
                // is new to the shard and its plan compiles.
                let (var, text, span) = if class == Class::Lookup {
                    ("id".to_string(), LOOKUP.to_string(), "op.lookup")
                } else {
                    let var = format!("id{}", conn + CONNS * fresh_next[doc]);
                    fresh_next[doc] += 1;
                    let text = format!("//item[@id = ${var}]");
                    (var, text, "op.fresh")
                };
                let mut b = Bindings::new();
                b.set(var.clone(), Value::Str(id.clone()));
                let op = log.begin(span, Layer::Op, req);
                let r = drain(&mut log, c, DOCS[doc], &text, Some(&b), req);
                log.end(op);
                r.and_then(|(nodes, _)| {
                    lookups += 1;
                    if nodes.len() != 1 {
                        return Err(NetError::Protocol(format!("{id}: {} hits", nodes.len())));
                    }
                    if lookups.is_multiple_of(16) {
                        out.samples.push(Sample {
                            doc,
                            text,
                            binding: Some((var, id)),
                            nodes,
                        });
                    }
                    Ok(())
                })
            }
            Class::Literal => {
                // Each connection walks its own half of the person ids,
                // each spelt with both quote styles, so one shard sees
                // more distinct texts than its plan cache holds and
                // every literal lookup compiles.
                let k = (conn + CONNS * literal_next[doc]) % (2 * persons[doc]);
                literal_next[doc] += 1;
                let (p, q) = (k % persons[doc], if k < persons[doc] { '"' } else { '\'' });
                let text = format!("//person[@id={q}person{p}{q}]");
                let op = log.begin("op.literal", Layer::Op, req);
                let r = drain(&mut log, c, DOCS[doc], &text, None, req);
                log.end(op);
                r.and_then(|(nodes, _)| {
                    if nodes.len() != 1 {
                        return Err(NetError::Protocol(format!("{text}: {} hits", nodes.len())));
                    }
                    if literal_next[doc].is_multiple_of(16) {
                        out.samples.push(Sample {
                            doc,
                            text,
                            binding: None,
                            nodes,
                        });
                    }
                    Ok(())
                })
            }
            Class::Path => {
                let (_, path) = QUERY_PATHS[rng.gen_range(0..QUERY_PATHS.len())];
                let op = log.begin("op.path", Layer::Op, req);
                let r = drain(&mut log, c, DOCS[doc], path, None, req);
                log.end(op);
                r.map(|(_, fetches)| {
                    if measured {
                        out.path_queries += 1;
                        out.path_fetches += fetches;
                    }
                })
            }
            Class::Write => {
                let script = write_script(conn, writes);
                let op = log.begin("op.write", Layer::Op, req);
                let r = log.time("server.xupdate", Layer::Server, req, || {
                    c.xupdate(DOCS[conn], &script)
                });
                log.end(op);
                r.map(|_| {
                    out.acked.push(writes);
                    writes += 1;
                })
            }
        };
        let ms = due.elapsed().as_secs_f64() * 1e3;
        if !measured {
            continue;
        }
        out.last_done = Some(Instant::now());
        out.attempted += 1;
        let ms = if result.is_ok() {
            ms
        } else {
            out.failed += 1;
            penalty
        };
        match class {
            Class::Lookup => {
                out.lookup.push(ms);
                if traced {
                    out.traced_lookup.push(ms);
                } else {
                    out.untraced_lookup.push(ms);
                }
            }
            Class::Fresh => out.fresh.push(ms),
            Class::Literal => out.literal.push(ms),
            Class::Path => out.path.push(ms),
            Class::Write => out.write.push(ms),
        }
    }
    log.set_on(false);
    (out, log)
}

/// Every acknowledged write of connection `c` is in `DOCS[c]`.
fn check_writes(cat: &Catalog, acked: &[Vec<u64>], when: &str) -> Result<(), String> {
    for (c, acked) in acked.iter().enumerate() {
        let found = cat
            .query_nodes(DOCS[c], &format!("//perfbench_w[@c = '{c}']"))
            .map_err(txn_err)?
            .len();
        if found != acked.len() {
            return Err(format!(
                "{when}: {} acknowledged writes to {}, {found} present",
                acked.len(),
                DOCS[c]
            ));
        }
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let dir: PathBuf = ctx.work.join("catalog");
    let (mut s, setup_s) = repeated_setup(|| setup(&dir))?;
    let before = s.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let plan_before = s.cat.plan_cache_stats();
    let start = Instant::now();
    let plan = Plan {
        start,
        measure_from: start + WARM_UP,
        end: start + WARM_UP + ctx.window(),
        epoch: start,
    };
    let (items, persons) = (s.items, s.persons);
    let results: Vec<(ConnLog, SpanLog)> = std::thread::scope(|sc| {
        let handles: Vec<_> = s
            .clients
            .iter_mut()
            .enumerate()
            .map(|(conn, c)| {
                let plan = &plan;
                sc.spawn(move || connection(ctx, conn, c, items, persons, plan))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let elapsed_after_end = plan.end.elapsed().as_secs_f64();
    let after = s.clients[0].stats().map_err(|e| format!("stats: {e}"))?;
    let plan_after = s.cat.plan_cache_stats();

    let mut all = ConnLog::default();
    let mut logs = Vec::new();
    let mut acked = Vec::new();
    let mut logs_last_done = Vec::new();
    for (l, log) in results {
        logs_last_done.push(l.last_done);
        all.lookup.extend(l.lookup);
        all.fresh.extend(l.fresh);
        all.literal.extend(l.literal);
        all.path.extend(l.path);
        all.write.extend(l.write);
        all.traced_lookup.extend(l.traced_lookup);
        all.untraced_lookup.extend(l.untraced_lookup);
        all.late.extend(l.late);
        all.attempted += l.attempted;
        all.failed += l.failed;
        all.refused += l.refused;
        all.path_queries += l.path_queries;
        all.path_fetches += l.path_fetches;
        all.samples.extend(l.samples);
        acked.push(l.acked);
        logs.push(log);
    }

    // Correctness while the server runs: acknowledged writes are
    // visible, and sampled answers match in-process evaluation.
    check_writes(&s.cat, &acked, "live")?;
    for Sample {
        doc,
        text,
        binding,
        nodes,
    } in &all.samples
    {
        let mut b = Bindings::new();
        if let Some((var, id)) = binding {
            b.set(var.clone(), Value::Str(id.clone()));
        }
        let want = s
            .cat
            .query_nodes_opts(DOCS[*doc], text, &EvalOptions::new().bindings(&b))
            .map_err(txn_err)?;
        if &want != nodes {
            return Err(format!(
                "{text} {binding:?} on {}: wire answer differs",
                DOCS[*doc]
            ));
        }
    }

    let shard0 = s.cat.shard(DOCS[0]).ok_or("document missing")?;
    let snap = shard0.snapshot();
    let (space, _) = space_ratio(&snap)?;
    // Completed requests per second of wall time, from the window's
    // start to the last measured completion.
    let last_done = logs_last_done
        .into_iter()
        .flatten()
        .max()
        .ok_or("nothing completed")?;
    let window_s = (last_done - plan.measure_from).as_secs_f64();
    let mut every: Vec<f64> = vec![ctx.penalty_ms(); all.refused as usize];
    for v in [&all.lookup, &all.fresh, &all.literal, &all.path, &all.write] {
        every.extend(v.iter().copied());
    }
    let e2e = EndToEnd {
        setup_s,
        main: all.lookup.clone(),
        reference_ms: median(&all.fresh),
        all: every,
        done: all.attempted - all.failed,
        window_s,
        space,
    };
    let us = |v: &[f64], p: f64| pct(v, p) * 1e3;
    let mut notes = vec![
        format!(
            "server_mixed: scale {SCALE} x {} docs, {CONNS} connections, offered {} req/s, \
             {} requests measured ({} lookup, {} fresh lookup, {} literal, {} path, {} write, \
             {} refused)",
            DOCS.len(),
            RATE,
            all.attempted,
            all.lookup.len(),
            all.fresh.len(),
            all.literal.len(),
            all.path.len(),
            all.write.len(),
            all.refused
        ),
        format!("srv_lookup_us_p50 {:.1}", us(&all.lookup, 50.0)),
        format!("srv_lookup_us_p90 {:.1}", us(&all.lookup, 90.0)),
        format!("srv_lookup_us_p99 {:.1}", us(&all.lookup, 99.0)),
        format!("srv_lookup_fresh_us_p50 {:.1}", us(&all.fresh, 50.0)),
        format!("srv_lookup_literal_us_p50 {:.1}", us(&all.literal, 50.0)),
        format!("srv_path_us_p50 {:.1}", us(&all.path, 50.0)),
        format!("srv_write_us_p50 {:.1}", us(&all.write, 50.0)),
        format!("srv_write_us_p90 {:.1}", us(&all.write, 90.0)),
        format!("srv_write_us_p99 {:.1}", us(&all.write, 99.0)),
        format!(
            "server.gen_late_ms_p99 {:.3} ms over {} sleeps (generator finished {:.1} ms after schedule end)",
            pct(&all.late, 99.0),
            all.late.len(),
            elapsed_after_end * 1e3
        ),
        format!(
            "plan cache: {} hits, {} misses",
            plan_after.hits - plan_before.hits,
            plan_after.misses - plan_before.misses
        ),
    ];

    let mut metrics = e2e.metrics();
    if ctx.trace {
        let mut trace = Trace::new();
        for l in logs {
            trace.absorb(l);
        }
        let mut gc = (0u64, 0u64);
        for d in DOCS {
            let st = s
                .cat
                .shard(d)
                .ok_or("document missing")?
                .group_commit_stats();
            gc = (gc.0 + st.records, gc.1 + st.batches);
        }
        let writes: usize = acked.iter().map(Vec::len).sum();
        let wal = shard0.wal_raw().map_err(txn_err)?;
        let records = decode_log(&wal).map_err(|e| format!("decode wal: {e}"))?;
        let traffic = Traffic {
            records_per_fsync: gc.0 as f64 / gc.1.max(1) as f64,
            wal_bytes_per_commit: (wal_bytes(&s.cat)? - s.wal_bytes0) as f64 / writes.max(1) as f64,
            plan_hits: plan_after.hits - plan_before.hits,
            plan_misses: plan_after.misses - plan_before.misses,
            fetches_per_query: all.path_fetches as f64 / all.path_queries.max(1) as f64,
            par_steps: after.par_steps - before.par_steps,
            morsels: after.morsels - before.morsels,
            overhead_pct: (median(&all.traced_lookup) / median(&all.untraced_lookup) - 1.0) * 100.0,
            fail_ratio: all.failed as f64 / all.attempted.max(1) as f64,
            ..Traffic::default()
        };
        metrics = layers::collect(
            &mut trace,
            layers::Input {
                up: &snap,
                shard: &shard0,
                scale: SCALE,
                seed: ctx.seed,
                page: config().page,
                records,
                work: &ctx.work,
                spans_out: &ctx.spans_out,
                client: Some(&mut s.clients[0]),
                epoch: start,
            },
            &traffic,
            &mut notes,
        )?;
        metrics.extend(e2e.absolute());
    }
    drop((snap, shard0));

    // Durability: shut down, reopen the catalog from its directory, and
    // find every acknowledged write again.
    for c in s.clients.drain(..) {
        c.goodbye().map_err(|e| format!("goodbye: {e}"))?;
    }
    if let Some(server) = s.server.take() {
        server.shutdown();
    }
    drop(s);
    let reopened = Catalog::open(&dir, config()).map_err(txn_err)?;
    check_writes(&reopened, &acked, "after reopen")?;
    Ok(Report {
        attempted: all.attempted,
        failed: all.failed,
        metrics,
        notes,
    })
}
