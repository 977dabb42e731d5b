//! AOT artifact round-trip guarantees: encode→decode is bit-faithful
//! (same integrity checksum, same execute output bytes) for every
//! catalog model and for arbitrary generated graphs; the on-disk cache
//! degrades, never aborts; and a pinned golden artifact pins the wire
//! format against silent drift.

use gcd2_repro::cgraph::{to_text, Activation, Graph, NodeId, OpKind, TShape};
use gcd2_repro::compiler::artifact::{decode, encode, load_or_compile, ColdStartSource};
use gcd2_repro::compiler::{ArtifactCache, Compiler, Gcd2Error, InferencePlan, Verdict};
use gcd2_repro::kernels::{pin_isa, KernelIsa};
use gcd2_repro::models::ModelId;
use gcd2_repro::verify::InferPlanView;
use proptest::prelude::*;

const SEED: u64 = 0xA07_1FAC;

/// Every kernel tier this host can run, the scalar oracle first.
fn tiers() -> impl Iterator<Item = KernelIsa> {
    KernelIsa::ALL.into_iter().filter(|isa| isa.supported())
}

fn sample_input(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect()
}

fn temp_cache(tag: &str) -> ArtifactCache {
    let dir = std::env::temp_dir().join(format!("gcd2-roundtrip-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactCache::open(dir).expect("temp cache dir")
}

/// What the loader rests on: the schedule it derives from the stored
/// graph text — `schedule(from_text(to_text(g)))` — is the one the
/// builder derived from `g`, step for step (name, operator, slots,
/// length, layout labels, GEMM shape, shift and weight aggregates) and
/// slot for slot, read through the analyzer's projection.
fn same_schedule(built: &InferencePlan, loaded: &InferencePlan) -> Result<(), String> {
    let (a, b): (&dyn InferPlanView, &dyn InferPlanView) = (built, loaded);
    let arena = |p: &dyn InferPlanView| {
        (
            p.step_count(),
            p.slot_sizes(),
            p.input_len(),
            p.output_len(),
            p.output_slot(),
        )
    };
    if arena(a) != arena(b) {
        return Err(format!("arena {:?} != {:?}", arena(a), arena(b)));
    }
    for index in 0..a.step_count() {
        let (x, y) = (
            format!("{:?}", a.step(index)),
            format!("{:?}", b.step(index)),
        );
        if x != y {
            return Err(format!("step {index}: {x} != {y}"));
        }
    }
    Ok(())
}

/// Every catalog model round-trips emit→load bit-identically: the
/// decoded plan has the built plan's schedule, carries the same
/// integrity checksum and produces the same output bytes as the plan
/// that was serialized.
#[test]
fn catalog_models_round_trip_bit_identically() {
    for id in ModelId::ALL {
        let graph = id.build();
        let compiled = Compiler::new().compile(&graph);
        let plan = compiled.inference_plan(SEED);
        let bytes = encode(&compiled, &plan, &id.to_string()).expect("encode");
        let loaded = decode(&bytes).unwrap_or_else(|e| panic!("{id}: decode failed: {e}"));

        same_schedule(&plan, &loaded.plan).unwrap_or_else(|e| panic!("{id}: {e}"));
        assert_eq!(
            loaded.plan.checksum(),
            plan.checksum(),
            "{id}: checksum drift"
        );
        assert_eq!(loaded.label, id.to_string());
        assert_eq!(loaded.seed, SEED);
        assert_eq!(
            loaded.stats.cycles,
            compiled.stats().cycles,
            "{id}: stats drift"
        );

        // The layout labels survive: same values held as rows, same
        // predicted cost, and the loaded plan's labels are still the
        // ones its schedule derives.
        assert_eq!(loaded.plan.rows_values(), plan.rows_values(), "{id}");
        assert_eq!(loaded.plan.layout_cost(), plan.layout_cost(), "{id}");
        loaded
            .plan
            .verify_integrity()
            .unwrap_or_else(|e| panic!("{id}: loaded plan fails integrity: {e}"));
        let analysis = gcd2_repro::analyze::analyze_plan(&loaded.graph, &loaded.plan);
        assert_eq!(analysis.verdict(), Verdict::Clean, "{id}: {analysis}");
        match id {
            ModelId::ResNet50 | ModelId::MobileNetV3 => assert!(plan.rows_values() > 0, "{id}"),
            ModelId::TinyBert => assert_eq!(plan.rows_values(), 0, "{id}"),
            _ => {}
        }

        let input = sample_input(plan.input_len());
        assert_eq!(
            loaded.plan.execute(&input),
            plan.execute(&input),
            "{id}: loaded plan output differs"
        );
    }
}

/// The artifacts earlier format versions wrote — the golden file as it
/// was checked in before layouts were part of a plan (version 1) and
/// before the selection admitted rows into depthwise convs, pools and
/// gates (version 2: same fields, labels of the old selector), and
/// while every checksum was byte-serial FNV-1a (version 3: same fields,
/// other values), and while a section of timed tile hints rode along
/// (version 4), and while the step schedule was stored beside the graph
/// it is a function of (version 5), and before unary steps folded into
/// their GEMM's requantisation (version 6: same sections, other
/// derivation) — are refused as a version skew, and
/// a cache that still holds one degrades to a recorded fallback compile
/// that heals the entry.
#[test]
fn previous_version_artifact_falls_back_cleanly() {
    use gcd2_repro::artifact::ArtifactError;
    for version in 1..=6 {
        let old = std::fs::read(format!("tests/data/golden_v{version}.gcd2art"))
            .expect("an earlier version's golden");
        match decode(&old) {
            Err(Gcd2Error::Artifact(ArtifactError::VersionSkew { found, supported })) => {
                assert_eq!(
                    (found, supported),
                    (version, gcd2_repro::artifact::FORMAT_VERSION)
                )
            }
            other => panic!("expected a version skew, got {other:?}"),
        }
        heals_through_load_or_compile(&old, version);
    }
}

/// A cache entry holding `old` is a recorded decode fallback, then warm.
fn heals_through_load_or_compile(old: &[u8], version: u32) {
    let cache = temp_cache(&format!("skew{version}"));
    let text = to_text(&golden_graph());
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("cold");
    std::fs::write(cache.path_for(&cold.key), old).expect("plant the old artifact");
    let healed = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("degrade");
    assert_eq!(healed.source, ColdStartSource::Compiled);
    assert_eq!(
        healed.fallbacks.iter().map(|f| f.stage).collect::<Vec<_>>(),
        vec!["decode"],
        "{:?}",
        healed.fallbacks
    );
    assert_eq!(healed.plan.checksum(), cold.plan.checksum());
    let warm = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("warm");
    assert_eq!(warm.source, ColdStartSource::ArtifactCache);
}

/// Re-encoding a decoded artifact reproduces the original bytes — the
/// codec adds or loses nothing — on the golden and on a net whose GEMM
/// format 4 recorded a timed hint for.
#[test]
fn reencode_of_decoded_artifact_is_byte_identical() {
    for graph in [golden_graph(), heavy_conv_graph()] {
        let compiled = Compiler::new().compile(&graph);
        let plan = compiled.inference_plan(SEED);
        let bytes = encode(&compiled, &plan, "golden").expect("encode");
        let loaded = decode(&bytes).expect("decode");
        let again = encode(&compiled, &loaded.plan, "golden").expect("re-encode");
        assert_eq!(bytes, again);
    }
}

/// One `1024 × 576 × 64` conv GEMM (37.7 MMACs): above the threshold at
/// which format 4 recorded a timed tile hint per tier.
fn heavy_conv_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 64, 32, 32));
    let conv = g.add(
        OpKind::Conv2d {
            out_channels: 64,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "conv",
    );
    g.add(OpKind::Act(Activation::Relu), &[conv], "relu");
    g
}

/// A stored value may not depend on the tier that wrote it, nor on
/// what a clock read: the artifact of a plan built and encoded on every
/// tier the host supports is byte for byte the one the unpinned thread
/// wrote — the detected tier's among them, so that one is built twice.
#[test]
fn artifact_bytes_do_not_depend_on_the_tier_that_wrote_them() {
    let emit = || {
        let compiled = Compiler::new().compile(&heavy_conv_graph());
        let plan = compiled.inference_plan(SEED);
        // The format-4 hint was recorded by the first execution too.
        plan.execute(&sample_input(plan.input_len()));
        encode(&compiled, &plan, "heavy").expect("encode")
    };
    let detected = emit();
    for tier in tiers() {
        let _pin = pin_isa(tier);
        assert!(emit() == detected, "{tier} wrote other bytes");
    }
}

/// resnet-50 as `gcd2c resnet-50 --emit` writes it (seed `0xC0DE`):
/// 25.5 MB of weights, read back from the quad panels of a VNNI or AMX
/// host and from the row-major bytes of the scalar tier, encode to the
/// same bytes on every tier the host supports, with the pinned
/// integrity checksum. Slow outside a release build:
/// `cargo test --release --test artifact_roundtrip -- --ignored`.
#[test]
#[ignore]
fn resnet_50_artifact_is_the_same_on_every_tier() {
    let compiled = Compiler::new().compile(&ModelId::ResNet50.build());
    let mut first: Option<Vec<u8>> = None;
    for tier in tiers() {
        let _pin = pin_isa(tier);
        let plan = compiled.inference_plan(0xC0DE);
        assert_eq!(plan.checksum(), 0x6241_cf52_6ebe_7984, "{tier}");
        let bytes = encode(&compiled, &plan, "resnet-50").expect("encode");
        match &first {
            Some(first) => assert!(bytes == *first, "{tier} wrote other bytes"),
            None => first = Some(bytes),
        }
    }
}

/// Sections are looked up by id: a format-7 artifact that carries a
/// section this build does not know still loads to the same plan —
/// under the id format 5 kept its schedule under (a stray one says
/// nothing about what a kernel reads) or the one format 4 kept its tile
/// hints under.
#[test]
fn an_unknown_extra_section_is_ignored() {
    use gcd2_repro::artifact::{Artifact, ArtifactWriter};
    let compiled = Compiler::new().compile(&golden_graph());
    let plan = compiled.inference_plan(SEED);
    let bytes = encode(&compiled, &plan, "golden").expect("encode");
    let art = Artifact::decode(&bytes).expect("container");
    let input = sample_input(plan.input_len());
    for stray in [3, 5] {
        let mut w = ArtifactWriter::new();
        for sec in &art.sections {
            assert_ne!(sec.id, stray, "a section this build writes");
            w.section(sec.id, sec.bytes.to_vec());
        }
        w.section(stray, b"nothing this build reads".to_vec());
        let extended = w.finish(plan.checksum()).expect("re-encode");
        let loaded = decode(&extended).expect("an unknown section is not an error");
        assert_eq!(loaded.plan.checksum(), plan.checksum());
        assert_eq!(loaded.plan.execute(&input), plan.execute(&input));
    }
}

/// Arbitrary small graphs (same generator family as the compiler fuzz
/// suite) round-trip with identical checksums and output bytes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        proptest::collection::vec((0u8..6, any::<bool>()), 2..8),
        16usize..40,
    )
        .prop_map(|(ops, ch)| {
            let mut g = Graph::new();
            let mut cur = g.input("x", TShape::nchw(1, ch, 14, 14));
            let mut same_shape: Vec<NodeId> = Vec::new();
            for (i, (kind, residual)) in ops.into_iter().enumerate() {
                cur = match kind {
                    0 => g.add(
                        OpKind::Conv2d {
                            out_channels: ch,
                            kernel: (3, 3),
                            stride: (1, 1),
                            padding: (1, 1),
                        },
                        &[cur],
                        format!("conv{i}"),
                    ),
                    1 => g.add(
                        OpKind::Conv2d {
                            out_channels: ch,
                            kernel: (1, 1),
                            stride: (1, 1),
                            padding: (0, 0),
                        },
                        &[cur],
                        format!("pw{i}"),
                    ),
                    2 => g.add(
                        OpKind::DepthwiseConv2d {
                            kernel: (3, 3),
                            stride: (1, 1),
                            padding: (1, 1),
                        },
                        &[cur],
                        format!("dw{i}"),
                    ),
                    3 => g.add(OpKind::Act(Activation::Relu), &[cur], format!("act{i}")),
                    4 => g.add(OpKind::Act(Activation::HardSwish), &[cur], format!("hs{i}")),
                    _ => {
                        if residual && !same_shape.is_empty() {
                            let other = same_shape[same_shape.len() / 2];
                            g.add(OpKind::Add, &[cur, other], format!("add{i}"))
                        } else {
                            g.add(OpKind::Add, &[cur, cur], format!("self_add{i}"))
                        }
                    }
                };
                same_shape.push(cur);
            }
            g
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn arbitrary_plans_round_trip(graph in arb_graph()) {
        let compiled = Compiler::new().compile(&graph);
        let plan = compiled.inference_plan(SEED);
        let bytes = encode(&compiled, &plan, "fuzz").expect("encode");
        let loaded = decode(&bytes).expect("decode");
        prop_assert_eq!(same_schedule(&plan, &loaded.plan), Ok(()));
        prop_assert_eq!(loaded.plan.checksum(), plan.checksum());
        let input = sample_input(plan.input_len());
        prop_assert_eq!(loaded.plan.execute(&input), plan.execute(&input));
    }
}

/// The pinned golden model: the emitted bytes are a function of the
/// graph and the seed, stable across machines, tiers, thread counts
/// and process history.
fn golden_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 5, 6, 6));
    let c1 = g.add(
        OpKind::Conv2d {
            out_channels: 5,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "c1",
    );
    let a1 = g.add(OpKind::Act(Activation::Relu), &[c1], "a1");
    let d1 = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[a1],
        "d1",
    );
    g.add(OpKind::Add, &[d1, a1], "res");
    g
}

const GOLDEN_PATH: &str = "tests/data/golden.gcd2art";

/// Format-drift tripwire: the golden model must emit byte-for-byte the
/// checked-in artifact. Any codec change that shifts the wire format —
/// intentional or not — trips this; intentional changes regenerate with
/// `GCD2_REGEN_GOLDEN=1 cargo test --test artifact_roundtrip` and bump
/// the container format version.
#[test]
fn golden_artifact_is_byte_stable() {
    let graph = golden_graph();
    let compiled = Compiler::new().compile(&graph);
    let plan = compiled.inference_plan(SEED);
    let bytes = encode(&compiled, &plan, "golden").expect("encode");

    if std::env::var("GCD2_REGEN_GOLDEN").is_ok() {
        std::fs::write(GOLDEN_PATH, &bytes).expect("write golden");
    }
    let pinned = std::fs::read(GOLDEN_PATH)
        .expect("missing tests/data/golden.gcd2art; regenerate with GCD2_REGEN_GOLDEN=1");
    assert_eq!(
        bytes, pinned,
        "artifact wire format drifted from the pinned golden"
    );

    // And the pinned file itself loads and executes like a fresh compile,
    // on every tier — the checked-in bytes were written on a vector one.
    let input = sample_input(plan.input_len());
    let want = plan.execute(&input);
    for tier in tiers() {
        let _pin = pin_isa(tier);
        let loaded = decode(&pinned).expect("golden decode");
        assert_eq!(loaded.plan.checksum(), plan.checksum(), "{tier}");
        assert_eq!(loaded.plan.execute(&input), want, "{tier}");
    }
}

/// `load_or_compile` cold→warm: the first call compiles and stores, the
/// second loads the artifact and yields a bit-identical plan.
#[test]
fn load_or_compile_warm_start_is_bit_identical() {
    let cache = temp_cache("warm");
    let graph = golden_graph();
    let text = to_text(&graph);
    let compiler = Compiler::new();

    let cold = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("cold");
    assert_eq!(cold.source, ColdStartSource::Compiled);
    assert!(cold.fallbacks.is_empty(), "{:?}", cold.fallbacks);

    let warm = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("warm");
    assert_eq!(warm.source, ColdStartSource::ArtifactCache);
    assert!(warm.fallbacks.is_empty(), "{:?}", warm.fallbacks);
    assert_eq!(warm.plan.checksum(), cold.plan.checksum());
    let input = sample_input(cold.plan.input_len());
    assert_eq!(warm.plan.execute(&input), cold.plan.execute(&input));
}

/// A corrupted cache entry degrades to a recorded fallback compile —
/// never an error, never a wrong plan — and the rebuild heals the cache.
#[test]
fn corrupted_cache_entry_degrades_to_compile_and_heals() {
    let cache = temp_cache("heal");
    let graph = golden_graph();
    let text = to_text(&graph);
    let compiler = Compiler::new();

    let cold = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("cold");
    let path = cache.path_for(&cold.key);
    let mut bytes = std::fs::read(&path).expect("stored artifact");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupt");

    let healed = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("degrade");
    assert_eq!(healed.source, ColdStartSource::Compiled);
    assert_eq!(
        healed.fallbacks.iter().map(|f| f.stage).collect::<Vec<_>>(),
        vec!["decode"],
        "{:?}",
        healed.fallbacks
    );
    assert_eq!(healed.plan.checksum(), cold.plan.checksum());

    // The rebuild re-stored a valid artifact: next start is warm again.
    let warm = load_or_compile(&compiler, &text, SEED, &cache, "golden").expect("warm");
    assert_eq!(warm.source, ColdStartSource::ArtifactCache);
}

/// Unparsable graph text fails compilation with a structured parse
/// error even when the cache directory is present — the cache never
/// masks a compile failure.
#[test]
fn load_or_compile_surfaces_parse_errors() {
    let cache = temp_cache("parse");
    let err = load_or_compile(&Compiler::new(), "not a graph\n", SEED, &cache, "bad")
        .expect_err("must fail");
    assert!(matches!(err, Gcd2Error::Parse(_)), "{err}");
}

/// A forged artifact that passes every checksum still cannot register
/// an aliasing-unsound plan: the gateway re-runs the arena-soundness
/// analyzer on decode. (Integrity checksums bind content, not safety.)
#[test]
fn gateway_registers_from_artifact_and_reverifies() {
    use gcd2_repro::compiler::{GatewayConfig, InferServer};

    let graph = golden_graph();
    let compiled = Compiler::new().compile(&graph);
    let plan = compiled.inference_plan(SEED);
    let bytes = encode(&compiled, &plan, "golden").expect("encode");

    let server = InferServer::gateway(GatewayConfig::default());
    let checksum = server
        .register_from_artifact("golden", &bytes)
        .expect("admit");
    assert_eq!(checksum, plan.checksum());

    // Corrupt bytes are rejected with a structured artifact error.
    let mut bad = bytes.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x01;
    let err = server
        .register_from_artifact("golden2", &bad)
        .expect_err("must reject");
    assert!(
        matches!(err, gcd2_repro::compiler::InferError::Artifact(_)),
        "{err}"
    );
}
