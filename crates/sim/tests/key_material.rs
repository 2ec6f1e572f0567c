//! Snapshot of `SimConfig::cache_key_material` for a canonical config.
//!
//! The key material is what the persistent result store uses to decide
//! whether a cached cell may be reused, and PR 2 left a footgun: nothing
//! mechanically forces a `MODEL_REVISION` bump when behaviour changes. This
//! snapshot makes any key-shape change (renamed/added fields, revision
//! bumps, Debug-format drift) fail loudly, so it always happens as a
//! deliberate fixture update:
//!
//! ```text
//! BANSHEE_UPDATE_KEY_SNAPSHOT=1 cargo test -p banshee_sim --test key_material
//! ```

use banshee_dcache::DramCacheDesign;
use banshee_sim::SimConfig;

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/cache_key_material.txt"
);

#[test]
fn canonical_cache_key_material_is_stable() {
    let material = SimConfig::test_default(DramCacheDesign::Banshee).cache_key_material();

    if std::env::var("BANSHEE_UPDATE_KEY_SNAPSHOT").is_ok() {
        std::fs::write(FIXTURE, format!("{material}\n")).expect("write key-material fixture");
        eprintln!("key-material fixture regenerated at {FIXTURE}");
        return;
    }

    let expected = std::fs::read_to_string(FIXTURE).expect(
        "key-material fixture missing — regenerate with \
         BANSHEE_UPDATE_KEY_SNAPSHOT=1 cargo test -p banshee_sim --test key_material",
    );
    assert_eq!(
        material,
        expected.trim_end(),
        "cache_key_material changed: persisted store entries keyed by the \
         old material will be recomputed. If the underlying model changed, \
         bump SimConfig::MODEL_REVISION too, then regenerate this fixture \
         (and the golden fixture in crates/bench/tests/fixtures/)"
    );
}

/// The fixture's embedded `model-rev=` must agree with the compiled
/// `MODEL_REVISION` — a hand-edited fixture (or a revision bump without a
/// regenerated fixture) fails here instead of silently serving stale store
/// entries. CI additionally has a `model-revision-guard` step that rejects
/// diffs touching either fixture without a `MODEL_REVISION` change.
#[test]
fn fixture_revision_matches_compiled_revision() {
    if std::env::var("BANSHEE_UPDATE_KEY_SNAPSHOT").is_ok() {
        return; // the snapshot test above is rewriting the fixture
    }
    let fixture = std::fs::read_to_string(FIXTURE).expect("key-material fixture exists");
    let prefix = format!("model-rev={}|", SimConfig::MODEL_REVISION);
    assert!(
        fixture.starts_with(&prefix),
        "fixture starts with {:?} but the compiled revision is {} — \
         regenerate the fixture with BANSHEE_UPDATE_KEY_SNAPSHOT=1 after \
         bumping SimConfig::MODEL_REVISION",
        fixture
            .lines()
            .next()
            .unwrap_or("")
            .split('|')
            .next()
            .unwrap_or(""),
        SimConfig::MODEL_REVISION
    );
}

/// The revision-history doc comment above `MODEL_REVISION` has an `N.`
/// entry for the compiled revision, so a bump always says what changed.
#[test]
fn model_revision_history_documents_the_compiled_revision() {
    let entry = format!("{}.", SimConfig::MODEL_REVISION);
    let source: Vec<&str> = include_str!("../src/config.rs")
        .lines()
        .map(str::trim)
        .collect();
    let at = source
        .iter()
        .position(|line| line.starts_with("pub const MODEL_REVISION: u32"))
        .expect("MODEL_REVISION is declared");
    let documented = source[..at]
        .iter()
        .rev()
        .map_while(|line| line.strip_prefix("///"))
        .any(|doc| doc.trim().starts_with(&entry));
    assert!(
        documented,
        "MODEL_REVISION is {} but the doc comment above it has no `{entry}` \
         history entry — document what behaviour changed in this revision",
        SimConfig::MODEL_REVISION
    );
}

/// The CI `model-revision-guard` job, which rejects a fixture change that
/// comes without a `MODEL_REVISION` change, still watches the constant and
/// both governed fixtures.
#[test]
fn ci_guard_watches_model_revision_and_both_fixtures() {
    let workflow = include_str!("../../../.github/workflows/ci.yml");
    let job: Vec<&str> = workflow
        .lines()
        .skip_while(|line| *line != "  model-revision-guard:")
        .skip(1)
        .take_while(|line| line.is_empty() || line.starts_with("    "))
        .collect();
    let job = job.join("\n");
    for needed in [
        "MODEL_REVISION",
        "crates/sim/tests/fixtures/cache_key_material.txt",
        "crates/bench/tests/fixtures/golden_quick.json",
    ] {
        assert!(
            job.contains(needed),
            "the CI model-revision-guard job no longer references `{needed}`"
        );
    }
}
