//! Fusion-plan explorer: build queries with the typed DAG API, compare what
//! each planner (CFG, GEN-like, folded) fuses, and inspect the cuboid
//! optimizer's cost surface — the paper's §3/§4 machinery, hands on.
//!
//! ```text
//! cargo run --release --example fusion_explorer
//! ```

use fuseme::prelude::*;
use fuseme_fusion::cost::{estimate, CostModel};
use fuseme_fusion::folded::Folded;
use fuseme_fusion::gen_like::GenLike;
use fuseme_fusion::optimizer::{optimize_exhaustive, search};
use fuseme_fusion::space::SpaceTree;

fn main() {
    // The weighted-squared-loss query of the paper's Fig. 1(a):
    //   loss = sum((X != 0) * (X − U×V)²)
    let mut b = DagBuilder::new();
    let x = b.input("X", MatrixMeta::sparse(4_000, 4_000, 100, 0.002));
    let u = b.input("U", MatrixMeta::dense(4_000, 400, 100));
    let v = b.input("V", MatrixMeta::dense(400, 4_000, 100));
    let nz = b.unary(x, UnaryOp::NotZero);
    let uv = b.matmul(u, v);
    let diff = b.binary(x, uv, BinOp::Sub);
    let sq = b.unary(diff, UnaryOp::Square);
    let gated = b.binary(nz, sq, BinOp::Mul);
    let loss = b.full_agg(gated, AggOp::Sum);
    let dag = b.finish(vec![loss]);
    println!("query: loss = sum((X != 0) * (X - U×V)^2)\n{dag}");

    let model = CostModel {
        nodes: 8,
        tasks_per_node: 12,
        mem_per_task: 16 << 20,
        net_bandwidth: 1e6,
        compute_bandwidth: 1e9,
    };

    // --- what does each planner fuse? -------------------------------------
    let planners: [(&str, FusionPlan); 3] = [
        ("FuseME CFG", Cfg::new(model).plan(&dag)),
        ("SystemDS GEN", GenLike.plan(&dag)),
        ("MatFast fold", Folded.plan(&dag)),
    ];
    println!("planner comparison:");
    for (name, plan) in &planners {
        let fused: Vec<String> = plan
            .units
            .iter()
            .filter_map(|u| match u {
                ExecUnit::Fused(p) => Some(format!(
                    "{{{}}}",
                    p.ops
                        .iter()
                        .map(|&id| dag.node(id).kind.label())
                        .collect::<Vec<_>>()
                        .join(", ")
                )),
                ExecUnit::Single(_) => None,
            })
            .collect();
        println!(
            "  {name:>12}: {} unit(s), fused: {}",
            plan.units.len(),
            if fused.is_empty() {
                "none".to_string()
            } else {
                fused.join("  ")
            }
        );
    }

    // --- the cuboid optimizer on the CFG's fused plan ----------------------
    let fused_plan = planners[0]
        .1
        .units
        .iter()
        .find_map(|u| match u {
            ExecUnit::Fused(p) if p.main_matmul(&dag).is_some() => Some(p.clone()),
            _ => None,
        })
        .expect("CFG fuses the multiplication here");
    let tree = SpaceTree::build(&dag, &fused_plan);
    let pruned = search(&dag, &fused_plan, &tree, &model, &[]);
    let exhaustive = optimize_exhaustive(&dag, &fused_plan, &tree, &model);
    println!(
        "\ncuboid optimizer: picked {} (cost {:.3}); exhaustive agrees: {}; \
         {} vs {} candidate evaluations",
        pruned.pqr,
        pruned.cost,
        pruned.pqr == exhaustive.pqr,
        pruned.stats.evaluated,
        exhaustive.stats.evaluated,
    );

    // A slice of the cost surface around the optimum.
    println!(
        "\ncost surface at Q = {} (NetEst GB / MemEst MB per task):",
        pruned.pqr.q
    );
    let q = pruned.pqr.q;
    for p in [1, 2, 4, 8, 16, 40] {
        let mut row = format!("  P={p:<3}");
        for r in [1, 2, 4] {
            let est = estimate(&dag, &fused_plan, &tree, p, q, r);
            row.push_str(&format!(
                "  R={r}: {:>7.3}GB/{:>6.2}MB",
                est.net_bytes as f64 / 1e9,
                est.mem_bytes as f64 / 1e6
            ));
        }
        println!("{row}");
    }
}
