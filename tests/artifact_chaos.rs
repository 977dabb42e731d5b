//! Artifact chaos suite: direct on-disk sabotage against the AOT
//! artifact store.
//!
//! The robustness contract: **no** artifact-path disturbance — a torn
//! write, a crash between temp-write and rename, a bit-flipped cache
//! entry, a version-skewed file, a concurrent evict or store, or a
//! path the filesystem refuses to read or write — may ever escape
//! [`load_or_compile`] as a panic or produce a plan whose output
//! differs from the undisturbed baseline. Load failures must surface as
//! recorded [`ColdStartFallback`] events on a successfully compiled
//! result. Every scenario uses real files, so the suite runs in the
//! default build.
//!
//! A plan loaded from the cache reads its weights from a mapping of the
//! cache file, so it relies on nobody writing that file in place — the
//! cache itself only renames over and unlinks. The scenarios that do
//! write an entry in place (`fs::write` truncates the inode) drop every
//! plan mapped from it first.

mod common;

use common::TempCache;
use gcd2_repro::artifact::ArtifactError;
use gcd2_repro::cgraph::{to_text, Activation, Graph, OpKind, TShape};
use gcd2_repro::compiler::artifact::{cache_key, load_or_compile, ColdStartSource};
use gcd2_repro::compiler::Compiler;
use std::time::Duration;

const SEED: u64 = 0xC0DE;

/// Small enough to compile in microseconds (the suite recompiles a
/// lot) while still exercising conv, depthwise, residual, and pool
/// steps — every section of the artifact is non-trivial.
fn chaos_net() -> Graph {
    let mut g = Graph::new();
    let x = g.input("x", TShape::nchw(1, 4, 10, 10));
    let conv = g.add(
        OpKind::Conv2d {
            out_channels: 6,
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[x],
        "conv",
    );
    let relu = g.add(OpKind::Act(Activation::Relu), &[conv], "relu");
    let dw = g.add(
        OpKind::DepthwiseConv2d {
            kernel: (3, 3),
            stride: (1, 1),
            padding: (1, 1),
        },
        &[relu],
        "dw",
    );
    let res = g.add(OpKind::Add, &[dw, relu], "res");
    g.add(
        OpKind::MaxPool {
            kernel: (2, 2),
            stride: (2, 2),
        },
        &[res],
        "pool",
    );
    g
}

fn temp_cache(tag: &str) -> TempCache {
    TempCache::new("artchaos", tag)
}

fn sample_input(len: usize) -> Vec<u8> {
    (0..len).map(|i| ((i * 7 + 3) % 16) as u8).collect()
}

struct Baseline {
    text: String,
    checksum: u64,
    input: Vec<u8>,
    output: Vec<u8>,
}

fn baseline() -> Baseline {
    let graph = chaos_net();
    let text = to_text(&graph);
    let plan = Compiler::new().compile(&graph).inference_plan(SEED);
    let input = sample_input(plan.input_len());
    let output = plan.execute(&input);
    Baseline {
        text,
        checksum: plan.checksum(),
        input,
        output,
    }
}

/// Asserts the invariant every chaos scenario must uphold: the cold
/// start succeeded and its plan is bit-identical to the baseline.
fn assert_sound(b: &Baseline, cold: &gcd2_repro::compiler::ColdStart, ctx: &str) {
    assert_eq!(cold.plan.checksum(), b.checksum, "{ctx}: checksum diverged");
    assert_eq!(
        cold.plan.execute(&b.input),
        b.output,
        "{ctx}: output diverged"
    );
}

/// A torn write — the artifact truncated at every possible length, as
/// if the process died mid-`write_all` and the rename still happened —
/// always degrades to a recorded fallback compile, and the rebuild
/// heals the entry.
#[test]
fn torn_writes_at_every_length_degrade_and_heal() {
    let b = baseline();
    let cache = temp_cache("torn");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");
    let path = cache.path_for(&cold.key);
    let full = std::fs::read(&path).expect("stored");

    // Sweep a spread of truncation lengths (every length is covered at
    // the unit level; here we prove the end-to-end degrade path). The
    // in-place write below truncates the entry's inode, so no plan
    // mapped from it may be alive: `seed` compiled, and each iteration's
    // `warm` — the one mapped plan — drops before the next tear.
    for cut in (0..full.len()).step_by(97).chain([full.len() - 1]) {
        std::fs::write(&path, &full[..cut]).expect("tear");
        let healed = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("degrade");
        assert_eq!(healed.source, ColdStartSource::Compiled, "cut {cut}");
        assert!(
            healed.fallbacks.iter().any(|f| f.stage == "decode"),
            "cut {cut}: no decode fallback recorded: {:?}",
            healed.fallbacks
        );
        assert_sound(&b, &healed, &format!("cut {cut}"));
        // The rebuild re-stored a valid artifact.
        let warm = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("warm");
        assert_eq!(warm.source, ColdStartSource::ArtifactCache, "cut {cut}");
    }
}

/// A crash *between* temp-file write and rename: the stale temp must be
/// garbage-collected, and the interrupted key simply misses (compiles).
#[test]
fn mid_rename_crash_leaves_only_collectable_garbage() {
    let b = baseline();
    let cache = temp_cache("rename");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");

    // Simulate the crash: a temp file exists, the final file is gone.
    let final_path = cache.path_for(&cold.key);
    let temp_path = cache.dir().join(format!(".tmp.{}.99999", cold.key));
    std::fs::rename(&final_path, &temp_path).expect("stage crash state");

    let redone = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("recover");
    assert_eq!(redone.source, ColdStartSource::Compiled);
    assert_sound(&b, &redone, "mid-rename");

    // The orphaned temp is collected once old enough (age 0 = now).
    let collected = cache.gc_stale_temps(Duration::ZERO).expect("gc");
    assert!(collected >= 1, "stale temp survived gc");
    assert!(!temp_path.exists());
    // ... and the healed final artifact was not collateral damage.
    assert!(final_path.exists());
}

/// Seeded single-bit flips across the whole stored artifact: every
/// corruption degrades to a structured fallback and a bit-identical
/// recompile. (The exhaustive every-byte sweep runs in the
/// hostile-corpus suite; this covers the cache round trip.)
#[test]
fn bit_flips_over_every_section_degrade_to_fallback() {
    let b = baseline();
    let cache = temp_cache("flip");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");
    let path = cache.path_for(&cold.key);
    let full = std::fs::read(&path).expect("stored");

    // Each in-place flip rewrites the entry's inode, so no plan mapped
    // from it may be alive: `seed` and every `healed` compiled, and each
    // position's `warm` — the one mapped plan — drops before the next.
    for pos in (0..full.len()).step_by(61) {
        for bit in [0x01u8, 0x80u8] {
            let mut bytes = full.clone();
            bytes[pos] ^= bit;
            std::fs::write(&path, &bytes).expect("flip");
            let healed =
                load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("degrade");
            assert_sound(&b, &healed, &format!("flip {pos}/{bit:#x}"));
            if healed.source == ColdStartSource::ArtifactCache {
                // Only possible if the flip was immaterial — but every
                // byte of the container is checksummed, so a load that
                // succeeded must mean the flip hit the (already
                // rewritten) file after healing. Rule it out:
                panic!("flip {pos}/{bit:#x}: corrupted artifact loaded");
            }
        }
        // Restore for the next position (healing already did, but be
        // explicit about the invariant).
        let warm = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("warm");
        assert_eq!(warm.source, ColdStartSource::ArtifactCache);
    }
}

/// A plan loaded from the cache keeps executing bit-identically after
/// its entry is evicted (an unlink) and after a newer store of the same
/// key renames another file over it: the mapping holds the inode it
/// loaded, which neither touches. A load after the store maps the new
/// file and is the same plan again.
#[test]
fn a_mapped_plan_outlives_eviction_and_replacement_of_its_entry() {
    let b = baseline();
    let cache = temp_cache("lifetime");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");
    let path = cache.path_for(&cold.key);
    let stored = std::fs::read(&path).expect("stored");
    let mapped = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("warm");
    assert_eq!(mapped.source, ColdStartSource::ArtifactCache);
    assert_sound(&b, &mapped, "loaded");

    assert!(cache.evict(&cold.key).expect("evict"), "the entry existed");
    assert!(!path.exists());
    assert_sound(&b, &mapped, "after eviction");
    mapped.plan.verify_integrity().expect("after eviction");

    // A newer store of the key: other bytes first (a rename over nothing),
    // then the artifact again over them — both rename, neither writes the
    // mapped inode.
    cache.store(&cold.key, b"a newer entry").expect("store");
    assert_sound(&b, &mapped, "after a store");
    cache.store(&cold.key, &stored).expect("store again");
    assert_sound(&b, &mapped, "after a store over the store");
    mapped.plan.verify_integrity().expect("after replacement");

    let again = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("reload");
    assert_eq!(again.source, ColdStartSource::ArtifactCache);
    assert_sound(&b, &again, "reloaded");
    assert_sound(&b, &mapped, "beside its successor");
}

/// A future-format artifact (version skew) is refused with a recorded
/// fallback — never misparsed by the current decoder.
#[test]
fn version_skew_degrades_with_recorded_fallback() {
    let b = baseline();
    let cache = temp_cache("skew");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");
    let path = cache.path_for(&cold.key);
    let mut bytes = std::fs::read(&path).expect("stored");
    let future = gcd2_repro::artifact::FORMAT_VERSION + 1;
    bytes[8..12].copy_from_slice(&future.to_le_bytes());
    std::fs::write(&path, &bytes).expect("skew");

    let healed = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("degrade");
    assert_eq!(healed.source, ColdStartSource::Compiled);
    let fallback = healed
        .fallbacks
        .iter()
        .find(|f| f.stage == "decode")
        .expect("decode fallback");
    assert!(
        fallback.detail.contains("version"),
        "skew not diagnosed as such: {}",
        fallback.detail
    );
    assert_sound(&b, &healed, "version skew");
}

/// A real I/O failure: a directory sits where the key's artifact
/// belongs, so reading it fails, and so does renaming the rebuilt
/// artifact over it — as root too, unlike a `chmod`. The load is a
/// structured `Io` error, and the cold start records a `load` and a
/// `store` fallback and still answers with the baseline plan.
#[test]
fn a_directory_at_the_cache_path_fails_load_and_store_and_still_answers() {
    let b = baseline();
    let cache = temp_cache("io");
    let compiler = Compiler::new();
    let key = cache_key(&compiler, &b.text, SEED);
    let path = cache.path_for(&key);
    std::fs::create_dir(&path).expect("a directory at the artifact path");

    let load = cache.load(&key);
    assert!(
        matches!(load, Err(ArtifactError::Io { .. })),
        "not an Io error: {load:?}"
    );
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("degrade");
    assert_eq!(cold.source, ColdStartSource::Compiled);
    for stage in ["load", "store"] {
        assert!(
            cold.fallbacks.iter().any(|f| f.stage == stage),
            "no {stage} fallback recorded: {:?}",
            cold.fallbacks
        );
    }
    assert_sound(&b, &cold, "directory at the cache path");
    assert!(path.is_dir(), "the directory is left as it was");
}

/// Concurrent cold starts racing a hostile evictor: every call returns
/// a sound plan; the atomic rename keeps readers from ever observing a
/// half-written artifact.
#[test]
fn concurrent_load_and_evict_stay_sound() {
    let b = baseline();
    let cache = temp_cache("race");
    let compiler = Compiler::new();
    let cold = load_or_compile(&compiler, &b.text, SEED, &cache, "chaos").expect("seed");
    let key = cold.key.clone();

    std::thread::scope(|s| {
        let evictor = s.spawn(|| {
            for _ in 0..40 {
                let _ = cache.evict(&key);
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let mut workers = Vec::new();
        for w in 0..4 {
            let (b, cache, compiler) = (&b, &cache, &compiler);
            workers.push(s.spawn(move || {
                for i in 0..10 {
                    let cold = load_or_compile(compiler, &b.text, SEED, cache, "chaos")
                        .expect("race cold start");
                    assert_sound(b, &cold, &format!("worker {w} iter {i}"));
                }
            }));
        }
        for h in workers {
            h.join().expect("worker");
        }
        evictor.join().expect("evictor");
    });
}

/// Concurrent writers of one key never share a temp file: eight threads
/// of one process, released together, each store their own 1 MiB
/// payload under the same key, twenty rounds over. Every store succeeds
/// and the key then holds one writer's payload whole — never a
/// truncated or interleaved file.
#[test]
fn concurrent_stores_of_one_key_each_land_whole() {
    const WRITERS: usize = 8;
    let cache = temp_cache("store-race");
    let payloads: Vec<Vec<u8>> = (0..WRITERS)
        .map(|w| {
            (0..1 << 20)
                .map(|i| ((i * 31 + w * 7) % 251) as u8)
                .collect()
        })
        .collect();
    let start = std::sync::Barrier::new(WRITERS);
    for round in 0..20 {
        std::thread::scope(|s| {
            for (w, payload) in payloads.iter().enumerate() {
                let (cache, start) = (&cache, &start);
                s.spawn(move || {
                    start.wait();
                    if let Err(e) = cache.store("k", payload) {
                        panic!("round {round} writer {w}: store failed: {e}");
                    }
                });
            }
        });
        let stored = cache.load("k").expect("load").expect("stored");
        assert!(
            payloads.contains(&stored),
            "round {round}: the stored {} bytes are no writer's payload",
            stored.len()
        );
    }
}
