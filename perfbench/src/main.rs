//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xmark_read|commit_fsync|server_mixed> --seed <n> --seconds <s> \
//!     --trace <0|1>
//! ```
//!
//! Run from the repository root. Set-up, warm-up, a measured window of
//! `--seconds`, correctness gates, and one JSON result line last on
//! stdout: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. Any failed gate exits non-zero before
//! anything is printed. `perfbench/README.md` defines every metric.

mod commit_fsync;
mod common;
mod layers;
mod server_mixed;
mod stats;
mod trace;
mod xmark_read;

use common::{Ctx, Report};
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <xmark_read|commit_fsync|server_mixed> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2)
}

/// The repository's git revision, read from `.git` without running git
/// (`unknown` outside a git checkout).
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{r}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split(' ').next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn provenance(workload: &str, ctx: &Ctx) -> String {
    format!(
        "{{\"rev\": \"{}\", {}, \"workload\": \"{workload}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}",
        git_rev(),
        mbxq_bench::host_json_fields(),
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
    )
}

fn result_line(r: &Report) -> Result<String, String> {
    let mut parts = Vec::new();
    for m in &r.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite ({})", m.name, m.value));
        }
        parts.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.attempted,
        r.failed,
        parts.join(", ")
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        get("--workload"),
        get("--seed").and_then(|s| s.parse::<u64>().ok()),
        get("--seconds").and_then(|s| s.parse::<f64>().ok()),
        get("--trace"),
    ) else {
        usage()
    };
    let trace = match trace {
        "0" => false,
        "1" => true,
        _ => usage(),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        usage()
    }
    let ctx = Ctx {
        seed,
        seconds,
        trace,
        work: PathBuf::from(".perfbench_work").join(format!("{workload}-{}", std::process::id())),
        spans_out: PathBuf::from(".perfbench_out").join(format!("{workload}-seed{seed}.spans.tsv")),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: work dir: {e}");
        std::process::exit(1);
    }
    let outcome = match workload {
        "xmark_read" => xmark_read::run(&ctx),
        "commit_fsync" => commit_fsync::run(&ctx),
        "server_mixed" => server_mixed::run(&ctx),
        _ => usage(),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Succeeds only when no other run is using the scratch root.
    let _ = std::fs::remove_dir(".perfbench_work");
    let line = outcome.and_then(|r| {
        if r.attempted == 0 {
            return Err("no operation attempted".into());
        }
        Ok((result_line(&r)?, r))
    });
    match line {
        Ok((line, r)) => {
            println!("# provenance {}", provenance(workload, &ctx));
            for n in &r.notes {
                println!("# {n}");
            }
            for m in &r.metrics {
                println!("# {:<36} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {workload} seed {seed}: {e}");
            std::process::exit(1);
        }
    }
}
