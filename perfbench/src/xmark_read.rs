//! `xmark_read`: Figure 9. One thread runs Q1–Q20 passes in a closed
//! loop on the updateable (`up`) and read-only (`ro`) schemas of one
//! post-update XMark document, comparing every query's answer across
//! the two schemas.

use crate::common::{
    pre_update, repeated_setup, space_ratio, Ctx, EndToEnd, Report, DOC_SEED, WARM_UP,
};
use crate::layers::{self, q_span, Traffic};
use crate::stats::{median, pct};
use crate::trace::{Layer, SpanLog, Trace};
use mbxq_bench::paper_page_config;
use mbxq_storage::{PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_txn::wal::{decode_log, Wal};
use mbxq_txn::{Shard, StoreConfig};
use mbxq_xmark::queries::QueryError;
use mbxq_xmark::{generate, run_query_opts, QueryResult, XMarkConfig, QUERY_COUNT};
use mbxq_xpath::EvalOptions;
use std::sync::Arc;
use std::time::Instant;

/// 1.1 MB of XML, ~53k nodes: the paper's smallest Figure 9 document.
/// Its tables stay in the cache; at scale 0.1 (4.2 MB) the passes were
/// bound by memory bandwidth, which neighbours on a shared host swing by
/// 1.6x within seconds, while at this scale they moved by ±6 %.
pub const SCALE: f64 = 0.025;
/// Transactions of the pre-update batch.
const PRE_UPDATE_TXNS: usize = 75;

struct Setup {
    shard: Shard,
    up: Arc<PagedDoc>,
    ro: ReadOnlyDoc,
    commits: u64,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let xml = generate(&XMarkConfig::scaled(SCALE, DOC_SEED));
    let doc =
        PagedDoc::parse_str(&xml, paper_page_config()).map_err(|e| format!("shred up: {e}"))?;
    let shard = Shard::open(doc, Wal::in_memory(), StoreConfig::default());
    let commits = pre_update(&shard, &xml, seed, PRE_UPDATE_TXNS)?;
    let up = shard.snapshot();
    let text = mbxq_storage::serialize::to_xml(up.as_ref()).map_err(|e| format!("{e}"))?;
    let ro = ReadOnlyDoc::parse_str(&text).map_err(|e| format!("shred ro: {e}"))?;
    Ok(Setup {
        shard,
        up,
        ro,
        commits,
    })
}

/// One timed Q1–Q20 pass.
struct Pass {
    wall_ms: f64,
    per_query_ms: Vec<f64>,
    /// Each query's outcome.
    results: Vec<Result<QueryResult, QueryError>>,
}

fn pass<V: TreeView>(log: &mut SpanLog, view: &V, up: bool, req: u64) -> Pass {
    let opts = EvalOptions::new();
    let root = log.begin(if up { "op.pass_up" } else { "op.pass_ro" }, Layer::Op, req);
    let t0 = Instant::now();
    let mut per_query_ms = Vec::with_capacity(QUERY_COUNT);
    let mut results = Vec::with_capacity(QUERY_COUNT);
    for q in 1..=QUERY_COUNT {
        let tq = Instant::now();
        let r = log.time(q_span(q, up), Layer::Xmark, req, || {
            run_query_opts(view, q, &opts)
        });
        per_query_ms.push(tq.elapsed().as_secs_f64() * 1e3);
        results.push(r);
    }
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    log.end(root);
    Pass {
        wall_ms,
        per_query_ms,
        results,
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let (s, setup_s) = repeated_setup(|| setup(ctx.seed))?;
    let ro = &s.ro;
    let up = s.up.as_ref();
    let epoch = Instant::now();
    let mut log = SpanLog::new(epoch, false);

    // Warm-up: the same passes, untimed, for at least WARM_UP and three
    // pass pairs.
    let t_warm = Instant::now();
    let mut pairs = 0;
    while pairs < 3 || t_warm.elapsed() < WARM_UP {
        pass(&mut log, up, true, 0);
        pass(&mut log, ro, false, 0);
        pairs += 1;
    }

    let (mut up_ms, mut ro_ms, mut all) = (Vec::new(), Vec::new(), Vec::new());
    let (mut traced_up, mut untraced_up) = (Vec::new(), Vec::new());
    let mut attempted = 0u64;
    let start = Instant::now();
    let mut pair = 0u64;
    while start.elapsed() < ctx.window() {
        let traced = ctx.trace && pair.is_multiple_of(2);
        log.set_on(traced);
        let a = pass(&mut log, up, true, pair * 2);
        let b = pass(&mut log, ro, false, pair * 2 + 1);
        // The queries are deterministic reads: a failure on either
        // schema is a wrong answer, not a retryable miss.
        for (q, answers) in a.results.iter().zip(&b.results).enumerate() {
            match answers {
                (Ok(x), Ok(y)) if x == y => {}
                (Ok(x), Ok(y)) => {
                    return Err(format!(
                        "Q{}: up and ro disagree ({x:?} vs {y:?}), seed {}",
                        q + 1,
                        ctx.seed
                    ))
                }
                (Err(e), _) | (_, Err(e)) => {
                    return Err(format!("Q{} failed: {e}, seed {}", q + 1, ctx.seed))
                }
            }
        }
        all.extend(&a.per_query_ms);
        all.extend(&b.per_query_ms);
        let (a_ms, b_ms) = (a.wall_ms, b.wall_ms);
        attempted += 2 * QUERY_COUNT as u64;
        up_ms.push(a_ms);
        ro_ms.push(b_ms);
        if traced {
            traced_up.push(a_ms);
        } else {
            untraced_up.push(a_ms);
        }
        pair += 1;
    }
    let window_s = start.elapsed().as_secs_f64();
    log.set_on(false);

    let (space, xml_len) = space_ratio(up)?;
    let e2e = EndToEnd {
        setup_s,
        main: up_ms.clone(),
        reference_ms: median(&ro_ms),
        all,
        done: attempted,
        window_s,
        space,
    };
    let mut notes = vec![
        format!(
            "xmark_read: scale {SCALE}, {} post-update commits, {} pass pairs, {xml_len} XML bytes, {} used slots",
            s.commits,
            up_ms.len(),
            up.used_count()
        ),
        format!("read_up_pass_ms_p50 {:.3} ms", median(&up_ms)),
        format!("read_up_pass_ms_p90 {:.3} ms", pct(&up_ms, 90.0)),
        format!("read_ro_pass_ms_p50 {:.3} ms", median(&ro_ms)),
        format!(
            "read_up_ro_ratio {:.4}",
            median(&up_ms) / median(&ro_ms)
        ),
        format!("space_up_bytes_per_xml_byte {space:.4}"),
    ];
    if !ctx.trace {
        return Ok(Report {
            attempted,
            failed: 0,
            metrics: e2e.metrics(),
            notes,
        });
    }

    let mut trace = Trace::new();
    trace.absorb(log);
    let wal = s.shard.wal_raw().map_err(|e| format!("wal: {e}"))?;
    let records = decode_log(&wal).map_err(|e| format!("wal decode: {e}"))?;
    let gc = s.shard.group_commit_stats();
    let traffic = Traffic {
        records_per_fsync: gc.records as f64 / gc.batches.max(1) as f64,
        wal_bytes_per_commit: wal.len() as f64 / s.commits.max(1) as f64,
        overhead_pct: (median(&traced_up) / median(&untraced_up) - 1.0) * 100.0,
        ..Traffic::default()
    };
    let mut metrics = layers::collect(
        &mut trace,
        layers::Input {
            up,
            shard: &s.shard,
            scale: SCALE,
            seed: ctx.seed,
            page: paper_page_config(),
            records,
            work: &ctx.work,
            spans_out: &ctx.spans_out,
            client: None,
            epoch,
        },
        &traffic,
        &mut notes,
    )?;
    metrics.extend(e2e.absolute());
    Ok(Report {
        attempted,
        failed: 0,
        metrics,
        notes,
    })
}
