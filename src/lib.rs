//! Facade crate: re-exports every GCD2 sub-crate for examples and integration tests.
pub use gcd2 as compiler;
pub use gcd2_analyze as analyze;
pub use gcd2_artifact as artifact;
pub use gcd2_baselines as baselines;
pub use gcd2_bench as bench;
pub use gcd2_cgraph as cgraph;
pub use gcd2_codegen as codegen;
pub use gcd2_globalopt as globalopt;
pub use gcd2_hvx as hvx;
pub use gcd2_kernels as kernels;
pub use gcd2_models as models;
pub use gcd2_par as par;
pub use gcd2_tensor as tensor;
pub use gcd2_verify as verify;
pub use gcd2_vliw as vliw;
