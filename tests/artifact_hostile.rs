//! Checked-in hostile-artifact corpus: every file under
//! `tests/data/hostile/` is a deliberately damaged variant of the
//! golden artifact, and `MANIFEST.txt` pins the exact
//! [`ArtifactError`] variant each one must be rejected with. No
//! hostile input may panic, allocate unboundedly, or decode to a plan.
//!
//! Regenerate (after an intentional format change) with
//! `GCD2_REGEN_HOSTILE=1 cargo test --test artifact_hostile` — the
//! corpus derives deterministically from `tests/data/golden.gcd2art`.

use gcd2_repro::analyze::{LintCode, Verdict};
use gcd2_repro::artifact::{Artifact, ArtifactError, ArtifactWriter};
use gcd2_repro::cgraph::{to_text, Graph, OpKind, TShape};
use gcd2_repro::compiler::artifact::{decode, encode, load_or_compile, ColdStartSource, SEC_GRAPH};
use gcd2_repro::compiler::infer::PlanMutation;
use gcd2_repro::compiler::{ArtifactCache, Compiler, Gcd2Error};
use gcd2_repro::kernels::{pin_isa, KernelIsa};

const GOLDEN_PATH: &str = "tests/data/golden.gcd2art";
const HOSTILE_DIR: &str = "tests/data/hostile";
const MANIFEST: &str = "tests/data/hostile/MANIFEST.txt";

const HEADER_BYTES: usize = 16;
const TABLE_ENTRY_BYTES: usize = 28;

/// The manifest key for an error variant (payload-independent).
fn variant_name(e: &ArtifactError) -> &'static str {
    match e {
        ArtifactError::BadMagic => "BadMagic",
        ArtifactError::VersionSkew { .. } => "VersionSkew",
        ArtifactError::Truncated { .. } => "Truncated",
        ArtifactError::SectionChecksum { .. } => "SectionChecksum",
        ArtifactError::Bounds { .. } => "Bounds",
        ArtifactError::IntegrityMismatch { .. } => "IntegrityMismatch",
        ArtifactError::Io { .. } => "Io",
    }
}

/// Builds the corpus from the golden artifact: each entry is
/// (filename, damaged bytes).
fn build_corpus(golden: &[u8]) -> Vec<(String, Vec<u8>)> {
    let art = Artifact::decode(golden).expect("golden must decode");
    let count = art.sections.len();
    let payload_start = HEADER_BYTES + count * TABLE_ENTRY_BYTES;

    let mut corpus: Vec<(String, Vec<u8>)> = Vec::new();
    let mut push = |name: &str, bytes: Vec<u8>| corpus.push((name.to_string(), bytes));

    // Magic and version damage.
    let mut b = golden.to_vec();
    b[0] ^= 0xFF;
    push("bad_magic.gcd2art", b);

    let mut b = golden.to_vec();
    b[8..12].copy_from_slice(&99u32.to_le_bytes());
    push("version_skew.gcd2art", b);

    // Truncation at every section boundary (and mid-table).
    push(
        "truncated_header.gcd2art",
        golden[..HEADER_BYTES - 3].to_vec(),
    );
    push(
        "truncated_table.gcd2art",
        golden[..HEADER_BYTES + TABLE_ENTRY_BYTES / 2].to_vec(),
    );
    let mut cut = payload_start;
    for (i, sec) in art.sections.iter().enumerate() {
        cut += sec.bytes.len();
        // Cutting exactly at the final section's end removes only the
        // chain trailer; every cut is still a Truncated rejection.
        push(
            &format!("truncated_after_sec{i}.gcd2art"),
            golden[..cut].to_vec(),
        );
    }

    // One flipped byte in a stored section checksum (table entry of
    // section 1, checksum field at entry offset 20).
    let mut b = golden.to_vec();
    b[HEADER_BYTES + TABLE_ENTRY_BYTES + 20] ^= 0x10;
    push("flipped_table_checksum.gcd2art", b);

    // One flipped byte in each section's payload.
    let mut off = payload_start;
    for (i, sec) in art.sections.iter().enumerate() {
        if !sec.bytes.is_empty() {
            let mut b = golden.to_vec();
            b[off + sec.bytes.len() / 2] ^= 0x04;
            push(&format!("flipped_payload_sec{i}.gcd2art"), b);
        }
        off += sec.bytes.len();
    }

    // A declared section length far beyond the buffer (len field at
    // entry offset 12) — must be refused before any allocation.
    let mut b = golden.to_vec();
    let len_at = HEADER_BYTES + 12;
    b[len_at..len_at + 8].copy_from_slice(&(1u64 << 40).to_le_bytes());
    push("oversized_len.gcd2art", b);

    // A structurally valid container with zero sections (its chain
    // bound to 0 — wrong for any plan, but never reached): the plan
    // decoder must reject it for the missing META section.
    let b = ArtifactWriter::new().finish(0).expect("an empty container");
    push("zero_sections.gcd2art", b);

    // The golden's sections with one byte of the graph text made
    // invalid UTF-8, every section checksum and the chain recomputed:
    // the container vouches for it, and the text must be refused as it
    // is, not repaired into something the parser accepts.
    let bind = decode(golden).expect("golden must load").plan.checksum();
    let mut w = ArtifactWriter::new();
    for sec in &art.sections {
        let mut payload = sec.bytes.to_vec();
        if sec.id == SEC_GRAPH {
            payload[sec.bytes.len() / 2] = 0xFF;
        }
        w.section(sec.id, payload);
    }
    push(
        "graph_invalid_utf8.gcd2art",
        w.finish(bind).expect("re-encode"),
    );

    // The same with one op token of the graph text swapped for another
    // valid one (`add` → `mul`): the text parses, admits and schedules,
    // the weights fit it — and the plan it derives is not the one whose
    // checksum the file carries.
    let mut w = ArtifactWriter::new();
    for sec in &art.sections {
        let mut payload = sec.bytes.to_vec();
        if sec.id == SEC_GRAPH {
            let text = std::str::from_utf8(sec.bytes).expect("graph text");
            assert!(text.contains(" add "), "the golden graph ends in an add");
            payload = text.replacen(" add ", " mul ", 1).into_bytes();
        }
        w.section(sec.id, payload);
    }
    push("graph_edited.gcd2art", w.finish(bind).expect("re-encode"));

    // A flipped byte in the chain trailer: every section checksum still
    // passes, so this must be caught by the chain↔plan binding.
    let mut b = golden.to_vec();
    let n = b.len();
    b[n - 4] ^= 0x80;
    push("flipped_chain.gcd2art", b);

    // Trailing junk after the chain trailer.
    let mut b = golden.to_vec();
    b.extend_from_slice(b"JUNK");
    push("trailing_junk.gcd2art", b);

    // An empty file and a lone magic prefix.
    push("empty.gcd2art", Vec::new());
    push("magic_only.gcd2art", golden[..8].to_vec());

    corpus
}

fn expected_variant(bytes: &[u8]) -> &'static str {
    match decode(bytes) {
        Ok(_) => panic!("hostile artifact decoded successfully"),
        Err(Gcd2Error::Artifact(e)) => variant_name(&e),
        Err(other) => panic!("hostile artifact failed outside the artifact taxonomy: {other}"),
    }
}

#[test]
fn hostile_corpus_is_rejected_with_pinned_variants() {
    let golden = std::fs::read(GOLDEN_PATH).expect(
        "missing tests/data/golden.gcd2art; run the roundtrip suite with GCD2_REGEN_GOLDEN=1",
    );

    if std::env::var("GCD2_REGEN_HOSTILE").is_ok() {
        std::fs::create_dir_all(HOSTILE_DIR).expect("hostile dir");
        let corpus = build_corpus(&golden);
        let mut manifest = String::new();
        for (name, bytes) in &corpus {
            std::fs::write(format!("{HOSTILE_DIR}/{name}"), bytes).expect("write hostile");
            manifest.push_str(&format!("{name}\t{}\n", expected_variant(bytes)));
        }
        std::fs::write(MANIFEST, manifest).expect("write manifest");
    }

    let manifest = std::fs::read_to_string(MANIFEST)
        .expect("missing hostile MANIFEST.txt; regenerate with GCD2_REGEN_HOSTILE=1");
    let mut checked = 0;
    for line in manifest.lines() {
        let (name, want) = line.split_once('\t').expect("manifest line");
        let bytes = std::fs::read(format!("{HOSTILE_DIR}/{name}"))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        // A load builds its panels in the form of the tier it runs on.
        for tier in KernelIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let _pin = pin_isa(tier);
            let got = expected_variant(&bytes);
            assert_eq!(got, want, "{name} on {tier}: expected {want}, got {got}");
        }
        checked += 1;
    }
    assert!(
        checked >= 12,
        "hostile corpus suspiciously small: {checked} files"
    );

    // Invalid UTF-8 under valid checksums is refused as what it is —
    // `Bounds` alone would also fit a parser-side limit tripping over
    // repaired text.
    let forged = std::fs::read(format!("{HOSTILE_DIR}/graph_invalid_utf8.gcd2art")).expect("read");
    Artifact::decode(&forged).expect("container checksums hold");
    match decode(&forged) {
        Err(Gcd2Error::Artifact(ArtifactError::Bounds { what, .. })) => {
            assert_eq!(what, "graph text utf-8")
        }
        other => panic!("expected a utf-8 refusal, got {other:?}"),
    }

    // An edited graph under valid checksums loads as far as the re-hash,
    // which is what refuses it.
    let edited = std::fs::read(format!("{HOSTILE_DIR}/graph_edited.gcd2art")).expect("read");
    Artifact::decode(&edited).expect("container checksums hold");
    assert!(matches!(
        decode(&edited),
        Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch { .. }))
    ));

    // The corpus construction itself must stay in sync with the golden
    // artifact: rebuilding it in memory yields the same rejections.
    for (name, bytes) in build_corpus(&golden) {
        let _ = name;
        let _ = expected_variant(&bytes); // panics if any variant decodes
    }
}

/// Exhaustive single-byte-flip sweep at the *plan* decode level, over
/// the full golden artifact and over one of a net whose k×k convs read
/// pixel-major rows (their stored weight rows are in `(dy, dx, ch)`
/// order): every flip of every byte is either rejected with a
/// structured error or (never observed, but permitted by the checksum
/// design at ~2⁻⁶⁴) decodes to a plan whose integrity checksum still
/// matches — no panic, no silent wrong answer.
#[test]
fn every_byte_flip_of_golden_is_structured() {
    let golden = std::fs::read(GOLDEN_PATH).expect("golden");
    let compiled = Compiler::new().compile(&rows_conv_graph());
    let plan = compiled.inference_plan(7);
    assert!(plan.rows_values() > 0, "the second net holds rows");
    let rows_conv = encode(&compiled, &plan, "rows-conv").expect("encode");
    for (name, bytes) in [("golden", golden), ("rows-conv", rows_conv)] {
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0x01;
            if let Ok(loaded) = decode(&b) {
                loaded.plan.verify_integrity().unwrap_or_else(|e| {
                    panic!("{name}: flip at byte {i} decoded inconsistently: {e}")
                });
            }
        }
    }
}

/// Convs that keep their values as rows — `c1` scatters none, the
/// pointwise `c2` stages nothing, the 3×3 `c3` stages by plain copies
/// over weights in `(dy, dx, ch)` order — then an upsample, which only
/// has a CHW form.
fn rows_conv_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 8, 10, 10));
    let conv = |out_channels, k, p| OpKind::Conv2d {
        out_channels,
        kernel: (k, k),
        stride: (1, 1),
        padding: (p, p),
    };
    let c1 = g.add(conv(16, 3, 1), &[x], "c1");
    let c2 = g.add(conv(16, 1, 0), &[c1], "c2");
    let c3 = g.add(conv(16, 3, 1), &[c2], "c3");
    g.add(OpKind::Upsample { factor: 2 }, &[c3], "up");
    g
}

fn temp_cache(tag: &str) -> ArtifactCache {
    let dir = std::env::temp_dir().join(format!("gcd2-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    ArtifactCache::open(dir).expect("temp cache dir")
}

/// Forged schedules: artifacts whose every checksum is self-consistent
/// — the plan was mutated *and re-stamped* before it was encoded, so the
/// container, the chain and the stored plan checksum all vouch for it.
/// None survives a load, because the loader never reads a schedule: it
/// derives the pristine one from the graph, and that does not hash to
/// the forged checksum. The artifact stays a cache, never a capability —
/// it cannot say which slot a kernel reads, how long a value is, what a
/// GEMM shifts by or maps its bytes through, or whether a step reads
/// rows or planes — and a cache entry holding a forgery is one recorded
/// fallback that heals. A forged epilogue map is also an analyzer
/// finding on the re-stamped plan itself.
#[test]
fn forged_schedules_are_unrepresentable() {
    let graph = rows_conv_graph();
    let text = to_text(&graph);
    let compiler = Compiler::new();
    let compiled = compiler.compile(&graph);
    let pristine = compiled.inference_plan(7);
    let bytes = encode(&compiled, &pristine, "forged").expect("encode");
    decode(&bytes).expect("the untampered artifact loads");

    let forgeries = [
        ("swapped slots", PlanMutation::SwapSlots),
        ("shrunk slot", PlanMutation::ShrinkSlot),
        ("bumped shift", PlanMutation::BumpShift),
        // `c1`'s requantised 15 becomes 14.
        ("forged map", PlanMutation::ForgeMap),
        // `c2` reads planes although `c1` left rows.
        (
            "flipped in-label",
            PlanMutation::FlipLayout {
                step: 2,
                out: false,
            },
        ),
        // A rows tag on a step that only has a CHW form.
        (
            "rows into the upsample",
            PlanMutation::FlipLayout {
                step: 4,
                out: false,
            },
        ),
        // `c2`'s value relabelled planes while `c3` still reads rows.
        (
            "disagreeing pair",
            PlanMutation::FlipLayout { step: 2, out: true },
        ),
    ];
    for (what, mutation) in forgeries {
        let mut plan = compiled.inference_plan(7);
        assert!(plan.mutate_for_test(mutation), "{what}: found no site");
        assert_ne!(plan.checksum(), pristine.checksum(), "{what}: re-stamped");
        if mutation == PlanMutation::ForgeMap {
            let analysis = compiled.analyze_plan(&plan);
            assert_eq!(analysis.verdict(), Verdict::Unsound, "{what}");
            assert!(!analysis.of_code(LintCode::MapPolicy).is_empty(), "{what}");
        }
        let forged = encode(&compiled, &plan, "forged").expect("encode");
        // The container and the chain vouch for the forgery...
        let art = Artifact::decode(&forged).expect("container checksums hold");
        art.verify_chain(plan.checksum()).expect("chain binds it");
        // ...the plan the graph derives does not hash to it.
        match decode(&forged) {
            Err(Gcd2Error::Artifact(ArtifactError::IntegrityMismatch { expected, got })) => {
                assert_eq!(
                    (expected, got),
                    (plan.checksum(), pristine.checksum()),
                    "{what}"
                )
            }
            other => panic!("{what}: expected an integrity refusal, got {other:?}"),
        }

        // Planted in a cache, it never reaches a kernel: one recorded
        // fallback, the pristine plan, and the entry is healed.
        let cache = temp_cache(&what.replace(' ', "-"));
        let cold = load_or_compile(&compiler, &text, 7, &cache, "forged").expect("cold");
        std::fs::write(cache.path_for(&cold.key), &forged).expect("plant the forgery");
        let healed = load_or_compile(&compiler, &text, 7, &cache, "forged").expect("degrade");
        assert_eq!(healed.source, ColdStartSource::Compiled, "{what}");
        assert_eq!(
            healed.fallbacks.iter().map(|f| f.stage).collect::<Vec<_>>(),
            vec!["decode"],
            "{what}: {:?}",
            healed.fallbacks
        );
        assert_eq!(healed.plan.checksum(), pristine.checksum(), "{what}");
        let warm = load_or_compile(&compiler, &text, 7, &cache, "forged").expect("warm");
        assert_eq!(warm.source, ColdStartSource::ArtifactCache, "{what}");
        assert!(warm.fallbacks.is_empty(), "{what}: {:?}", warm.fallbacks);
    }
}
