//! Pieces every workload shares: the run context, the end-to-end metric
//! slots, repeated set-up, warm-up, XMark anchors and the seeded
//! pre-update batch.

use crate::trace::{Layer, SpanLog};
use mbxq_storage::{InsertPosition, PagedDoc};
use mbxq_txn::{Shard, TxnError};
use mbxq_xmark::rng::StdRng;
use mbxq_xml::{Document, QName};
use mbxq_xpath::XPath;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Generator seed of every XMark document. The run's `--seed` drives
/// everything done to the document (the pre-update batch, the writers'
/// anchors and operations, the server's request mix), not the document
/// itself: the generator's random structure (how many keywords sit on
/// Q16's deep path, say) moved the pass median by ±12 % between seeds,
/// more than a run's own noise.
pub const DOC_SEED: u64 = 42;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// The untimed warm-up: the workload's own loop runs this long before
/// the measured window opens, so lazy state (plan caches, the pool's
/// calibration, allocator arenas, page cache of the WAL files) settles.
pub const WARM_UP: Duration = Duration::from_millis(1500);

/// Arguments of one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout, removed after the run.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans_out: PathBuf,
}

impl Ctx {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Latency charged to a failed operation: the whole measured
    /// window, so a failure misses every percentile it lands in.
    pub fn penalty_ms(&self) -> f64 {
        self.seconds * 1e3
    }
}

/// One named, unit-tagged number of the result line.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run hands back to `main`.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed above the result line.
    pub notes: Vec<String>,
}

/// The end-to-end slots every workload fills in its own terms (see
/// `perfbench/README.md` for the per-workload definitions). Only
/// quantities that do not scale with the host's speed are gated: on a
/// shared 2-core host the same pass on the same seed took 18 ms in one
/// minute and 25 ms a few minutes later, so absolute times (and the p90
/// of the open loop, which moved 3x) are recorded, not gated.
pub struct EndToEnd {
    pub setup_s: f64,
    /// Latencies (ms) of the workload's headline operation.
    pub main: Vec<f64>,
    /// Median latency (ms) of the reference the headline is compared
    /// with, measured in the same run.
    pub reference_ms: f64,
    /// Latencies (ms) of every timed operation, all classes.
    pub all: Vec<f64>,
    /// Operations completed in the measured window.
    pub done: u64,
    pub window_s: f64,
    pub space: f64,
}

impl EndToEnd {
    /// The gated metrics: set-up time, and two ratios that hold still
    /// while the host's speed drifts.
    pub fn metrics(&self) -> Vec<Metric> {
        use crate::stats::median;
        vec![
            metric("setup_s", self.setup_s, "s"),
            metric(
                "main_ref_ratio",
                median(&self.main) / self.reference_ms,
                "ratio",
            ),
            metric("space_bytes_per_xml_byte", self.space, "ratio"),
        ]
    }

    /// The absolute times and throughput, reported by traced runs.
    pub fn absolute(&self) -> Vec<Metric> {
        use crate::stats::median;
        vec![
            metric("e2e.main_ms_p50", median(&self.main), "ms"),
            metric("e2e.ref_ms_p50", self.reference_ms, "ms"),
            metric("e2e.all_ms_p50", median(&self.all), "ms"),
            metric("e2e.ops_per_s", self.done as f64 / self.window_s, "1/s"),
        ]
    }
}

/// Runs `build` [`SETUPS`] times and returns the last result with the
/// median set-up time (s). Earlier results are dropped before the next
/// set-up starts.
pub fn repeated_setup<T>(mut build: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let v = build()?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    Ok((
        last.expect("at least one set-up"),
        crate::stats::median(&times),
    ))
}

/// Table bytes of the updateable document per byte of its XML text
/// (§4.1), with that text's length.
pub fn space_ratio(doc: &PagedDoc) -> Result<(f64, usize), String> {
    let xml = mbxq_storage::serialize::to_xml(doc).map_err(|e| format!("serialize: {e}"))?;
    Ok((doc.stats().table_bytes as f64 / xml.len() as f64, xml.len()))
}

/// XMark regions with their item shares, in generator order.
pub const REGIONS: [(&str, f64); 6] = [
    ("africa", 0.10),
    ("asia", 0.30),
    ("australia", 0.05),
    ("europe", 0.25),
    ("namerica", 0.25),
    ("samerica", 0.05),
];

/// The ids of the interior items of region `r` (10 %–70 % of its id
/// range), replicating the generator's sequential id allocation. Edge
/// items share logical pages with the neighbouring region, so writers
/// anchored only on interior items of distinct regions lock disjoint
/// pages.
pub fn interior_items(total_items: usize, r: usize) -> Vec<String> {
    let mut next = 0usize;
    for (i, &(_, share)) in REGIONS.iter().enumerate() {
        let n = if i + 1 == REGIONS.len() {
            total_items - next
        } else {
            (((total_items as f64) * share).round() as usize).min(total_items - next)
        };
        if i == r {
            let lo = next + n / 10;
            let hi = (next + n * 7 / 10).max(lo + 1);
            return (lo..hi).map(|k| format!("item{k}")).collect();
        }
        next += n;
    }
    unreachable!("region index in range")
}

/// Counts of generated `item` and `person` elements.
pub fn xmark_counts(xml: &str) -> (usize, usize) {
    (
        xml.match_indices("<item ").count(),
        xml.match_indices("<person ").count(),
    )
}

/// Commits a seeded batch of insert, delete and attribute transactions
/// spread over the whole document, so the page map and the node→pos
/// deltas of the resulting version are no longer the identity.
/// Returns the number of commits.
pub fn pre_update(shard: &Shard, xml: &str, seed: u64, txns: usize) -> Result<u64, String> {
    let (items, persons) = xmark_counts(xml);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0b47);
    let featured = QName::local("featured");
    let mut commits = 0u64;
    for k in 0..txns {
        let mut t = shard.begin();
        for j in 0..1 + rng.gen_range(0..3usize) {
            let (path, is_item) = if rng.gen_bool(0.5) {
                (
                    format!(
                        "/site/regions/*/item[@id='item{}']",
                        rng.gen_range(0..items)
                    ),
                    true,
                )
            } else {
                // person0 stays untouched: Q1 looks it up.
                let p = 1 + rng.gen_range(0..persons - 1);
                (format!("/site/people/person[@id='person{p}']"), false)
            };
            let sel = XPath::parse(&path).map_err(|e| format!("anchor path: {e}"))?;
            let Some(&anchor) = t.select(&sel).map_err(txn_err)?.first() else {
                continue; // deleted earlier in the batch
            };
            let roll = rng.gen_range(0..10usize);
            let r = if roll < 5 {
                let frag = if is_item {
                    format!(
                        "<item id=\"pre{k}-{j}\"><location>Nowhere</location><quantity>1</quantity>\
                         <name>pre-update item</name><payment>Cash</payment>\
                         <description><text>inserted <keyword>before</keyword> timing</text>\
                         </description><shipping>Will ship</shipping><mailbox/></item>"
                    )
                } else {
                    format!(
                        "<person id=\"pre{k}-{j}\"><name>Pre Update</name>\
                         <emailaddress>mailto:pre{k}@example.invalid</emailaddress></person>"
                    )
                };
                let node = Document::parse_fragment(&frag).map_err(|e| format!("fragment: {e}"))?;
                t.insert(InsertPosition::After(anchor), &node)
            } else if roll < 8 {
                t.set_attribute(anchor, &featured, "yes")
            } else {
                t.delete(anchor)
            };
            r.map_err(txn_err)?;
        }
        if t.staged_ops() == 0 {
            t.abort();
            continue;
        }
        t.commit().map_err(txn_err)?;
        commits += 1;
    }
    Ok(commits)
}

pub fn txn_err(e: TxnError) -> String {
    format!("txn: {e}")
}

/// Times `f` `reps` times inside spans named `name` and returns the
/// median duration in µs and the last result.
pub fn probe<R>(
    log: &mut SpanLog,
    name: &'static str,
    layer: Layer,
    reps: usize,
    mut f: impl FnMut() -> R,
) -> (f64, R) {
    let mut us = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = log.time(name, layer, 0, &mut f);
        us.push(t0.elapsed().as_secs_f64() * 1e6);
        last = Some(std::hint::black_box(r));
    }
    (crate::stats::median(&us), last.expect("reps >= 1"))
}
