//! Plan-pipeline oracle: the compiled/rewritten/cost-chosen execution
//! must be observably identical to the reference interpreter.
//!
//! Seeded property test over random trees and a generated query
//! corpus. Every query runs through both arms on three storage schemas
//! (naive, read-only, paged) and under all three axis-strategy choices
//! (cost-chosen, forced staircase, forced index); multi-predicate
//! queries additionally cross every forced multi-probe strategy
//! (scan / best-probe / intersect / cost) with every replan mode over
//! a shared feedback store. Every combination runs on both chunk-kernel
//! arms (forced scalar and forced simd), so the scalar reference arm
//! stays checked on builds whose auto arm is the vector one. The
//! planned result must equal the
//! interpreter's on the same view — same node sets, same values, or
//! both failing. Afterwards, random update batches hit the paged view
//! and the comparison repeats, with the element-name index and the
//! per-index degree statistics cross-checked against a full scan (both
//! must stay consistent under inserts, deletes and renames).

mod common;

use common::{rand_name, rand_text, rand_tree, TestRng};
use mbxq::{
    InsertPosition, Kind, NaiveDoc, Node, PageConfig, PagedDoc, QName, ReadOnlyDoc, TreeView,
};
use mbxq_xpath::{
    AxisChoice, Bindings, EvalOptions, KernelChoice, MultiChoice, PlanFeedback, ReplanMode, Value,
    ValueChoice, XPath,
};

/// NaN-tolerant value equality (`NaN != NaN` under `PartialEq`, but the
/// oracle wants "both NaN" to count as agreement).
fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Number(x), Value::Number(y)) => x == y || (x.is_nan() && y.is_nan()),
        _ => a == b,
    }
}

/// One comparison: planned (under every strategy-override combination,
/// on both kernel arms) vs interpreted, same view.
fn check_query<V: TreeView>(view: &V, xp: &XPath, bindings: &Bindings, seed_info: &str) {
    let root: Vec<u64> = view.root_pre().into_iter().collect();
    let want = xp.eval_interpreted_with(view, &root, bindings);
    for kernel in [KernelChoice::ForceScalar, KernelChoice::ForceSimd] {
        check_strategies(view, xp, bindings, &root, &want, kernel, seed_info);
    }
}

/// [`check_query`]'s strategy grid on one kernel arm.
fn check_strategies<V: TreeView>(
    view: &V,
    xp: &XPath,
    bindings: &Bindings,
    root: &[u64],
    want: &Result<Value, mbxq_xpath::XPathError>,
    kernel: KernelChoice,
    seed_info: &str,
) {
    for (axis, value) in [
        (AxisChoice::Auto, ValueChoice::Auto),
        (AxisChoice::Auto, ValueChoice::ForceScan),
        (AxisChoice::Auto, ValueChoice::ForceProbe),
        (AxisChoice::ForceStaircase, ValueChoice::ForceScan),
        (AxisChoice::ForceIndex, ValueChoice::ForceProbe),
    ] {
        let opts = EvalOptions::new()
            .bindings(bindings)
            .axis(axis)
            .value(value)
            .kernel(kernel);
        let got = xp.eval_opts(view, root, &opts);
        match (want, &got) {
            (Ok(w), Ok(g)) => assert!(
                values_equal(w, g),
                "{seed_info}: '{}' under {axis:?}/{value:?}/{kernel:?}\n  interpreter: {w:?}\n  \
                 planned:     {g:?}\nlogical plan:\n{}physical plan:\n{}",
                xp.source(),
                xp.explain(),
                xp.explain_physical()
            ),
            (Err(_), Err(_)) => {}
            (w, g) => panic!(
                "{seed_info}: '{}' under {axis:?}/{value:?}/{kernel:?} diverged in failure: \
                 interpreter {w:?} vs planned {g:?}",
                xp.source()
            ),
        }
    }
    // Multi-predicate steps: cross every forced strategy with every
    // replan mode, sharing one feedback store (per kernel arm) so the
    // Skip/Force modes really reuse (or re-derive) what an earlier Auto
    // run recorded.
    if !xp.explain_physical().contains("multi-probe") {
        return;
    }
    let feedback = PlanFeedback::new();
    for (multi, replan) in [
        (MultiChoice::ForceScan, ReplanMode::Default),
        (MultiChoice::ForceBestProbe, ReplanMode::Default),
        (MultiChoice::ForceIntersect, ReplanMode::Default),
        (MultiChoice::Auto, ReplanMode::Default),
        (MultiChoice::Auto, ReplanMode::Skip),
        (MultiChoice::Auto, ReplanMode::Force),
    ] {
        let opts = EvalOptions::new()
            .bindings(bindings)
            .multi(multi)
            .replan(replan)
            .feedback(&feedback)
            .kernel(kernel);
        let got = xp.eval_opts(view, root, &opts);
        match (want, &got) {
            (Ok(w), Ok(g)) => assert!(
                values_equal(w, g),
                "{seed_info}: '{}' under {multi:?}/{replan:?}/{kernel:?}\n  interpreter: {w:?}\n  \
                 planned:     {g:?}\nphysical plan:\n{}",
                xp.source(),
                xp.explain_physical()
            ),
            (Err(_), Err(_)) => {}
            (w, g) => panic!(
                "{seed_info}: '{}' under {multi:?}/{replan:?}/{kernel:?} diverged in failure: \
                 interpreter {w:?} vs planned {g:?}",
                xp.source()
            ),
        }
    }
}

/// The generated query corpus: paths over the small shared name
/// alphabet with axes, predicates, aggregates and variables.
fn query_corpus(rng: &mut TestRng) -> Vec<String> {
    let mut queries = vec![
        // Fixed shapes covering every rewrite rule.
        "//item".to_string(),
        "//item[1]".to_string(),
        "//item[last()]".to_string(),
        "(//item)[1]".to_string(),
        "(//item)[last()]".to_string(),
        "//a[b]".to_string(),
        "//a[not(b)]".to_string(),
        "//a[count(b) > 0]".to_string(),
        "//a[count(b) = 0]".to_string(),
        "//a[count(.//item) >= 1]/name".to_string(),
        "count(//a/b)".to_string(),
        "sum(//item)".to_string(),
        "//a[@x = \"t\"]".to_string(),
        "//a[b or c]".to_string(),
        "//a[b and c][2]".to_string(),
        "//a/b | //c".to_string(),
        "/a//b[position() = 1]".to_string(),
        "//b/ancestor::a".to_string(),
        "//b/following-sibling::*[1]".to_string(),
        "//a[.//b]".to_string(),
        "//item/@x".to_string(),
        "string(//a[1])".to_string(),
        "//a[name(..) = \"a\"]".to_string(),
        "//a[$v]".to_string(),
        "//a[@x = $want]".to_string(),
        "$set/b".to_string(),
        // Value predicates — the content-index lowering corpus.
        "//a[@x = \"t\"]/b".to_string(),
        "//item[. = \"t\"]".to_string(),
        "//a[. = \"x < y\"]".to_string(),
        "//a[b = \"t\"]".to_string(),
        "//a[name = \"uni—code\"]".to_string(),
        "//item[. = 7]".to_string(),
        "//item[. > 3]".to_string(),
        "//a[b >= 5]".to_string(),
        "//a[b < 10]/c".to_string(),
        "//a[7 <= b]".to_string(),
        "//*[@x = \"t\"]".to_string(),
        "//a[@x > 2]".to_string(),
        "//a[@x = \"\"]".to_string(),
        "//item[. = \"\"]".to_string(),
        "count(//a[b = \"t\"])".to_string(),
        "//a[@x = \"t\"][b]".to_string(),
        "//a[normalize-space() = \"t\"]".to_string(),
        "//a[string-length() = 1]".to_string(),
        // Multi-predicate steps — the join-order-search corpus: mixed
        // exact + numeric-range, attr + child-text, 2–3 predicates.
        "//a[@x = \"t\"][b = \"t\"]".to_string(),
        "//a[b = \"t\"][c = \"t\"]".to_string(),
        "//a[b > 2][b < 8]".to_string(),
        "//item[. > 3][. < 9]".to_string(),
        "//a[@x = \"t\"][b > 2]".to_string(),
        "//a[@x > 2][@x < 9]".to_string(),
        "//a[@x = \"t\"][@y = \"t\"]".to_string(),
        "//a[b = \"t\"][c > 1][@x = \"t\"]".to_string(),
        "//a[b = 5][c = \"t\"]".to_string(),
        "//a[name = \"t\"][b < 10]".to_string(),
        "//item[. = 7][@x = \"t\"]".to_string(),
        "//a[@x = \"\"][b = \"t\"]".to_string(),
    ];
    // Random simple paths: 1-3 steps, optional predicate.
    for _ in 0..6 {
        let mut q = String::from("//");
        q.push_str(&rand_name(rng));
        if rng.chance(1, 2) {
            q.push('[');
            match rng.below(4) {
                0 => q.push_str(&rand_name(rng)),
                1 => q.push('1'),
                2 => {
                    q.push('@');
                    q.push_str(&rand_name(rng));
                }
                _ => q.push_str("last()"),
            }
            q.push(']');
        }
        if rng.chance(1, 2) {
            q.push('/');
            q.push_str(&rand_name(rng));
        }
        queries.push(q);
    }
    queries
}

fn paged_from_tree(tree: &Node, cfg: PageConfig) -> PagedDoc {
    PagedDoc::from_tree(tree, cfg).unwrap()
}

#[test]
fn planned_execution_matches_interpreter_across_schemas() {
    for seed in 0..25u64 {
        let mut rng = TestRng::new(0x91a6 ^ seed);
        let tree = rand_tree(&mut rng, 4, 4);
        let ro = ReadOnlyDoc::from_tree(&tree).unwrap();
        let nv = NaiveDoc::from_tree(&tree).unwrap();
        let cfg = *rng.pick(&common::page_configs());
        let up = paged_from_tree(&tree, cfg);

        let mut bindings = Bindings::new();
        bindings.set("v", Value::Str("t".into()));
        bindings.set("want", Value::Str("x < y".into()));
        bindings.set(
            "set",
            Value::Nodes(ro.root_pre().into_iter().collect::<Vec<u64>>()),
        );

        for q in query_corpus(&mut rng) {
            let xp = match XPath::parse(&q) {
                Ok(xp) => xp,
                Err(e) => panic!("corpus query '{q}' failed to parse: {e}"),
            };
            check_query(&ro, &xp, &bindings, &format!("seed {seed} (ro)"));
            check_query(&nv, &xp, &bindings, &format!("seed {seed} (naive)"));
            // Paged: `$set` holds *ro* pres, which differ from paged
            // pres — use a paged-local binding instead.
            let mut up_bindings = bindings.clone();
            up_bindings.set(
                "set",
                Value::Nodes(up.root_pre().into_iter().collect::<Vec<u64>>()),
            );
            check_query(&up, &xp, &up_bindings, &format!("seed {seed} (paged)"));
        }
    }
}

/// The paged comparison repeated across random update batches, with the
/// name index verified against a scan after every batch.
#[test]
fn planned_execution_survives_update_batches() {
    for seed in 0..12u64 {
        let mut rng = TestRng::new(0xba7c4 ^ (seed << 8));
        let tree = rand_tree(&mut rng, 4, 4);
        let cfg = *rng.pick(&common::page_configs());
        let mut up = paged_from_tree(&tree, cfg);
        let bindings = Bindings::new();
        let queries: Vec<XPath> = [
            "//item",
            "//a",
            "//a/b",
            "//item[1]",
            "//a[b]",
            "count(//b)",
            "//name | //x",
            "//a[@x]",
            // Value predicates must stay index ≡ scan across updates.
            "//a[@x = \"t\"]",
            "//a[@x = \"fresh\"]",
            "//item[. = \"t\"]",
            "//a[b = \"t\"]",
            "//item[. > 3]",
            "//a[@x = 7]",
            // Multi-predicate steps: the intersection and its degree
            // statistics must stay consistent under COW deltas
            // (`check_paged` cross-checks the stats after each batch).
            "//a[@x = \"t\"][b = \"t\"]",
            "//a[b > 2][b < 8]",
            "//a[@x = 7][b = \"t\"]",
            "//item[. > 3][. < 9]",
            "//a[@x = \"t\"][b > 2][c = \"t\"]",
        ]
        .iter()
        .map(|q| XPath::parse(q).unwrap())
        .collect();

        for batch in 0..6 {
            // Random batch of structural + name + value updates.
            for _ in 0..3 {
                let used: Vec<u64> = {
                    let mut v = Vec::new();
                    let mut p = 0;
                    while let Some(q) = up.next_used_at_or_after(p) {
                        v.push(q);
                        p = q + 1;
                    }
                    v
                };
                let target_pre = *rng.pick(&used);
                let node = up.pre_to_node(target_pre).unwrap();
                match rng.below(6) {
                    0 => {
                        let sub = rand_tree(&mut rng, 2, 3);
                        let _ = up.insert(InsertPosition::LastChildOf(node), &sub);
                    }
                    1 => {
                        // Deleting the root is rejected; that's fine.
                        let _ = up.delete(node);
                    }
                    2 => {
                        let _ = up.rename(node, &QName::local(rand_name(&mut rng)));
                    }
                    3 => {
                        let value = if rng.chance(1, 2) {
                            rand_text(&mut rng)
                        } else {
                            format!("{}", rng.below(10))
                        };
                        let _ = up.set_attribute(node, &QName::local(rand_name(&mut rng)), &value);
                    }
                    _ => {
                        // Text edit on a random text node (numeric half
                        // the time, to exercise the sorted arm).
                        let texts: Vec<u64> = used
                            .iter()
                            .copied()
                            .filter(|&p| up.kind(p) == Some(Kind::Text))
                            .collect();
                        if !texts.is_empty() {
                            let t = *rng.pick(&texts);
                            let tnode = up.pre_to_node(t).unwrap();
                            let value = if rng.chance(1, 2) {
                                rand_text(&mut rng)
                            } else {
                                format!("{}", rng.below(10))
                            };
                            let _ = up.update_value(tnode, &value);
                        }
                    }
                }
            }
            // The invariant checker includes the index ≡ scan check.
            mbxq_storage::invariants::check_paged(&up)
                .unwrap_or_else(|e| panic!("seed {seed} batch {batch}: {e}"));
            for xp in &queries {
                check_query(&up, xp, &bindings, &format!("seed {seed} batch {batch}"));
            }
        }
    }
}
