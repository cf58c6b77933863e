//! Loop-lifted vs per-node oracle: for every axis, on randomly generated
//! trees, `step_lifted` over a lifted context (one iteration per context
//! node) must agree group-by-group with evaluating `step` once per node,
//! and a single-iteration context must agree with the flat set-at-a-time
//! `step` — on both the read-only and the paged storage schema, and on
//! both chunk-kernel arms.

mod common;

use common::{rand_tree, TestRng};
use mbxq::{Axis, NodeTest, PageConfig, PagedDoc, ReadOnlyDoc, TreeView};
use mbxq_axes::{step_lifted_with, step_with, ContextSeq, KernelArm};

const ALL_AXES: [Axis; 11] = [
    Axis::SelfAxis,
    Axis::Child,
    Axis::Descendant,
    Axis::DescendantOrSelf,
    Axis::Parent,
    Axis::Ancestor,
    Axis::AncestorOrSelf,
    Axis::FollowingSibling,
    Axis::PrecedingSibling,
    Axis::Following,
    Axis::Preceding,
];

fn used_pres<V: TreeView>(view: &V) -> Vec<u64> {
    let mut out = Vec::new();
    let mut p = 0;
    while let Some(q) = view.next_used_at_or_after(p) {
        out.push(q);
        p = q + 1;
    }
    out
}

/// A random sorted, duplicate-free context subset.
fn random_context(rng: &mut TestRng, pres: &[u64]) -> Vec<u64> {
    let mut ctx: Vec<u64> = pres.iter().copied().filter(|_| rng.chance(1, 2)).collect();
    if ctx.is_empty() {
        ctx.push(pres[rng.below(pres.len())]);
    }
    ctx
}

fn check_view<V: TreeView>(view: &V, rng: &mut TestRng, label: &str) {
    let pres = used_pres(view);
    assert!(!pres.is_empty());
    let tests = [
        NodeTest::AnyNode,
        NodeTest::AnyElement,
        NodeTest::Name(mbxq::QName::local("a")),
    ];
    for _ in 0..3 {
        let ctx = random_context(rng, &pres);
        for axis in ALL_AXES {
            for test in &tests {
                for arm in [KernelArm::Scalar, KernelArm::Simd] {
                    check_step(view, &ctx, axis, test, arm, label);
                }
            }
        }
    }
}

/// One axis step on one kernel arm: lifted with one iteration per
/// context node ≡ per-node, and a single iteration ≡ the flat step.
fn check_step<V: TreeView>(
    view: &V,
    ctx: &[u64],
    axis: Axis,
    test: &NodeTest,
    arm: KernelArm,
    label: &str,
) {
    let lifted = step_lifted_with(view, &ContextSeq::lift(ctx), axis, test, arm);
    for (i, &c) in ctx.iter().enumerate() {
        let per_node = step_with(view, &[c], axis, test, arm);
        assert_eq!(
            lifted.pres_of_iter(i as u32),
            per_node.as_slice(),
            "{label}: axis {axis:?} iteration {i} diverged on the {arm:?} arm"
        );
    }
    let single = step_lifted_with(
        view,
        &ContextSeq::single_iter(ctx.to_vec()),
        axis,
        test,
        arm,
    );
    let flat = step_with(view, ctx, axis, test, arm);
    assert_eq!(
        single.pres, flat,
        "{label}: axis {axis:?} single-iteration diverged from flat step on the {arm:?} arm"
    );
    assert!(single.iters.iter().all(|&i| i == 0));
}

#[test]
fn lifted_step_matches_per_node_step_on_random_trees() {
    for case in 0..16u64 {
        let mut rng = TestRng::new(0x11F7ED + case);
        let tree = rand_tree(&mut rng, 3, 4);
        let ro = ReadOnlyDoc::from_tree(&tree).expect("shred ro");
        check_view(&ro, &mut rng, "readonly");
        for cfg in [
            PageConfig::new(4, 50).unwrap(),
            PageConfig::new(16, 75).unwrap(),
        ] {
            let up = PagedDoc::from_tree(&tree, cfg).expect("shred paged");
            check_view(&up, &mut rng, "paged");
        }
    }
}

/// The same equivalence after updates punch holes into the paged view.
#[test]
fn lifted_step_matches_per_node_after_deletes() {
    for case in 0..12u64 {
        let mut rng = TestRng::new(0x11F7ED00 + case);
        let tree = rand_tree(&mut rng, 3, 4);
        let mut up = PagedDoc::from_tree(&tree, PageConfig::new(8, 75).unwrap()).expect("shred");
        let pres = used_pres(&up);
        if pres.len() > 1 {
            let victim_pre = pres[1 + rng.below(pres.len() - 1)];
            let victim = up.pre_to_node(victim_pre).unwrap();
            up.delete(victim).expect("delete succeeds");
        }
        check_view(&up, &mut rng, "paged-after-delete");
    }
}
