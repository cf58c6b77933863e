//! Shared helpers for the benchmark harness.
//!
//! The binaries in `src/bin/` regenerate the paper's evaluation
//! artifacts; the benches in `benches/` (running on the in-tree
//! [`harness`], a Criterion-API subset — the build environment has no
//! crates.io access) provide repeated-sample versions of the same
//! measurements at a fixed small scale.

pub mod harness;

use mbxq_storage::{PageConfig, PagedDoc, ReadOnlyDoc};
use mbxq_xmark::{generate, XMarkConfig};
use std::time::{Duration, Instant};

/// The paper's updateable-schema scenario: "about 20 % of the logical
/// pages were kept unused" (§4.1) — fill factor 80 %.
pub fn paper_page_config() -> PageConfig {
    PageConfig::new(1024, 80).expect("valid config")
}

/// Logical cores on this host (`1` when the query fails).
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The chunk-kernel arm this binary's auto dispatch resolves to:
/// `"simd"` when the build carries compiled vector instructions,
/// `"scalar"` otherwise (see [`mbxq_axes::simd_compiled`]).
pub fn kernel_arm() -> &'static str {
    if mbxq_axes::simd_compiled() {
        "simd"
    } else {
        "scalar"
    }
}

/// A host tag for benchmark provenance: `$MBXQ_HOST` when set, else
/// `<arch>-<os>`. Numbers from different hosts must never be compared
/// silently; this tag makes the provenance explicit in every row.
pub fn host_tag() -> String {
    std::env::var("MBXQ_HOST")
        .unwrap_or_else(|_| format!("{}-{}", std::env::consts::ARCH, std::env::consts::OS))
}

/// The host/build provenance fields every `BENCH_*.json` row carries:
/// `"cores": N, "kernel": "...", "host": "..."` (no braces, ready to
/// splice into a JSON object literal).
pub fn host_json_fields() -> String {
    format!(
        "\"cores\": {}, \"kernel\": \"{}\", \"host\": \"{}\"",
        cores(),
        kernel_arm(),
        host_tag()
    )
}

/// Merges freshly measured rows into a shared `BENCH_*.json` array:
/// previous rows carrying the same `"bench"` tag are replaced, rows
/// from other binaries are kept (`plan_cost` and `multi_pred` share
/// `BENCH_plan.json`; `workload`, `server_bench` and `shard_scaling`
/// share `BENCH_workload.json`). Every row must be a single line — the
/// merge is line-oriented.
pub fn merge_bench_rows(path: &str, tag: &str, rows: &[String]) -> std::io::Result<()> {
    let marker = format!("\"bench\": \"{tag}\"");
    let mut kept: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let t = line.trim();
            // Untagged rows predate the shared-file format; they are
            // stale duplicates of whatever binary wrote them — drop.
            if t.starts_with('{') && t.contains("\"bench\": \"") && !t.contains(&marker) {
                kept.push(t.trim_end_matches(',').to_string());
            }
        }
    }
    kept.extend(
        rows.iter()
            .map(|r| r.trim().trim_end_matches(',').to_string()),
    );
    let mut out = String::from("[\n");
    for (i, row) in kept.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        out.push_str("  ");
        out.push_str(row);
    }
    out.push_str("\n]\n");
    std::fs::write(path, out)
}

/// Builds the same XMark document in both schemas.
pub fn build_both(scale: f64, seed: u64) -> (ReadOnlyDoc, PagedDoc, usize) {
    let xml = generate(&XMarkConfig::scaled(scale, seed));
    let bytes = xml.len();
    let ro = ReadOnlyDoc::parse_str(&xml).expect("generated XML is well-formed");
    let up = PagedDoc::parse_str(&xml, paper_page_config()).expect("shred paged");
    (ro, up, bytes)
}

/// Times `f` over `reps` repetitions and returns the minimum (the
/// standard noise-robust point estimate for CPU-bound kernels).
pub fn time_min<R>(reps: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut best = Duration::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed();
        std::hint::black_box(r);
        if dt < best {
            best = dt;
        }
    }
    best
}

/// Figure 9's published numbers: seconds for (ro, up) per query, at the
/// four document sizes. `None` where the paper leaves a blank (Q11/Q12
/// at 1.1 GB).
pub type PaperRow = [Option<(f64, f64)>; 4];

/// The `ro`/`up` table of Figure 9, indexed `[query-1]`.
pub const FIGURE9: [PaperRow; 20] = [
    [
        Some((0.034, 0.035)),
        Some((0.045, 0.053)),
        Some((0.170, 0.204)),
        Some((1.334, 1.939)),
    ],
    [
        Some((0.043, 0.045)),
        Some((0.067, 0.088)),
        Some((0.317, 0.462)),
        Some((2.483, 4.136)),
    ],
    [
        Some((0.120, 0.124)),
        Some((0.241, 0.283)),
        Some((1.458, 1.800)),
        Some((12.656, 16.427)),
    ],
    [
        Some((0.053, 0.055)),
        Some((0.066, 0.069)),
        Some((0.459, 0.459)),
        Some((3.927, 4.190)),
    ],
    [
        Some((0.039, 0.041)),
        Some((0.051, 0.063)),
        Some((0.163, 0.241)),
        Some((1.211, 2.254)),
    ],
    [
        Some((0.020, 0.020)),
        Some((0.023, 0.023)),
        Some((0.060, 0.060)),
        Some((0.368, 0.408)),
    ],
    [
        Some((0.024, 0.025)),
        Some((0.029, 0.029)),
        Some((0.083, 0.083)),
        Some((0.544, 0.607)),
    ],
    [
        Some((0.071, 0.073)),
        Some((0.118, 0.133)),
        Some((0.730, 0.800)),
        Some((10.198, 11.268)),
    ],
    [
        Some((0.109, 0.112)),
        Some((0.161, 0.191)),
        Some((0.873, 1.027)),
        Some((12.439, 14.575)),
    ],
    [
        Some((0.279, 0.297)),
        Some((0.657, 0.825)),
        Some((5.088, 6.686)),
        Some((51.843, 67.198)),
    ],
    [
        Some((0.083, 0.084)),
        Some((0.162, 0.186)),
        Some((3.426, 3.584)),
        None,
    ],
    [
        Some((0.083, 0.086)),
        Some((0.127, 0.140)),
        Some((1.717, 1.750)),
        None,
    ],
    [
        Some((0.050, 0.053)),
        Some((0.066, 0.087)),
        Some((0.208, 0.372)),
        Some((1.436, 3.341)),
    ],
    [
        Some((0.050, 0.052)),
        Some((0.213, 0.221)),
        Some((1.789, 1.881)),
        Some((17.918, 18.371)),
    ],
    [
        Some((0.065, 0.068)),
        Some((0.082, 0.099)),
        Some((0.255, 0.399)),
        Some((1.855, 3.736)),
    ],
    [
        Some((0.072, 0.075)),
        Some((0.093, 0.101)),
        Some((0.253, 0.320)),
        Some((2.043, 2.879)),
    ],
    [
        Some((0.047, 0.049)),
        Some((0.067, 0.085)),
        Some((0.307, 0.422)),
        Some((2.652, 4.137)),
    ],
    [
        Some((0.032, 0.032)),
        Some((0.042, 0.047)),
        Some((0.136, 0.167)),
        Some((1.091, 1.577)),
    ],
    [
        Some((0.064, 0.066)),
        Some((0.107, 0.138)),
        Some((0.583, 0.837)),
        Some((5.152, 7.940)),
    ],
    [
        Some((0.130, 0.133)),
        Some((0.173, 0.174)),
        Some((0.578, 0.601)),
        Some((4.988, 5.507)),
    ],
];

/// Labels for the paper's four document sizes.
pub const PAPER_SIZES: [&str; 4] = ["1.1 MB", "11 MB", "110 MB", "1.1 GB"];

#[cfg(test)]
mod tests {
    use super::merge_bench_rows;

    #[test]
    fn merge_replaces_own_tag_keeps_others_drops_untagged() {
        let path =
            std::env::temp_dir().join(format!("mbxq_merge_rows_{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 temp path");
        std::fs::write(
            path,
            "[\n  {\"bench\": \"a\", \"v\": 1},\n  {\"bench\": \"b\", \"v\": 2},\n  {\"v\": 3}\n]\n",
        )
        .unwrap();
        merge_bench_rows(path, "a", &["{\"bench\": \"a\", \"v\": 4}".to_string()]).unwrap();
        let merged = std::fs::read_to_string(path).unwrap();
        std::fs::remove_file(path).unwrap();
        assert_eq!(
            merged,
            "[\n  {\"bench\": \"b\", \"v\": 2},\n  {\"bench\": \"a\", \"v\": 4}\n]\n"
        );
    }
}
