//! # gcd2-bench — the evaluation harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (`table1`..`table5`, `fig7`..`fig13`, and `all`), plus Criterion
//! micro-benchmarks of the compiler itself. Each binary prints the same
//! rows/series the paper reports; EXPERIMENTS.md records paper-reported
//! vs. measured values.

use gcd2::{Compiler, Selection};
use gcd2_cgraph::{Graph, OpKind};
use gcd2_models::ModelId;

/// The compiler every reproduction of a paper number uses: the full
/// configuration with the paper's own selector, GCD2(13), named
/// explicitly so the numbers do not move with the compiler's default
/// (PBQP, which `ext_selection` compares against it).
pub fn paper_compiler() -> Compiler {
    Compiler::new().with_selection(Selection::Gcd2 { max_ops: 13 })
}

/// The five representative models used by Figures 8, 9, and 11.
pub fn representative_models() -> Vec<ModelId> {
    vec![
        ModelId::EfficientNetB0,
        ModelId::ResNet50,
        ModelId::Fst,
        ModelId::WdsrB,
        ModelId::PixOr,
    ]
}

/// Geometric mean of a non-empty slice.
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of empty slice");
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Extracts the sub-graph consisting of the graph's sources plus its
/// first `op_count` operator nodes (the paper's "partial computational
/// graphs extracted using contiguous operators" for Figure 10).
pub fn prefix_graph(graph: &Graph, op_count: usize) -> Graph {
    let mut out = Graph::new();
    let mut ops = 0usize;
    for node in graph.nodes() {
        if ops >= op_count && !matches!(node.kind, OpKind::Input | OpKind::Constant) {
            break;
        }
        match node.kind {
            OpKind::Input => {
                out.input(node.name.clone(), node.shape.clone());
            }
            OpKind::Constant => {
                out.constant(node.name.clone(), node.shape.clone());
            }
            _ => {
                // Prefix construction preserves node ids.
                out.add(node.kind.clone(), &node.inputs, node.name.clone());
                ops += 1;
            }
        }
    }
    out
}

/// The first 8 unique Conv2d GEMM shapes of ResNet-50 (the Figure 7 /
/// Figure 12 kernels C0..C7).
pub fn resnet_conv_kernels() -> Vec<gcd2_cgraph::GemmDims> {
    let g = ModelId::ResNet50.build();
    let mut seen = std::collections::HashSet::new();
    let mut kernels = Vec::new();
    for node in g.nodes() {
        if let OpKind::Conv2d { .. } = node.kind {
            if let Some(dims) = g.gemm_dims(node.id) {
                if seen.insert((dims.m, dims.k, dims.n)) {
                    kernels.push(dims);
                    if kernels.len() == 8 {
                        break;
                    }
                }
            }
        }
    }
    kernels
}

/// Prints a markdown-style table row.
pub fn row(cells: &[String]) {
    println!("| {} |", cells.join(" | "));
}

/// Formats an optional latency cell.
pub fn ms_cell(x: Option<f64>) -> String {
    x.map(|v| format!("{v:.1}")).unwrap_or_else(|| "-".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_of_twos() {
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prefix_graph_counts() {
        let g = ModelId::ResNet50.build();
        for n in [5, 10, 25] {
            let p = prefix_graph(&g, n);
            assert_eq!(p.op_count(), n);
        }
    }

    #[test]
    fn eight_unique_resnet_kernels() {
        let k = resnet_conv_kernels();
        assert_eq!(k.len(), 8);
        let set: std::collections::HashSet<_> = k.iter().map(|d| (d.m, d.k, d.n)).collect();
        assert_eq!(set.len(), 8);
    }
}
