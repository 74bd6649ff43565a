//! The committed report fixture for the current schema: a real
//! generator output (`bench-report --quick --threads 2`), so
//! `bench-report --check` / `validate_json` keep accepting what the
//! generators write. If a change to the validator breaks it, that is a
//! compatibility regression, not a fixture to regenerate.

use obs::report::{validate_json, MIN_SCHEMA_VERSION, SCHEMA_VERSION};

fn fixture(version: u32) -> String {
    let path = format!(
        "{}/tests/fixtures/schema_v{version}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

#[test]
fn every_supported_schema_version_has_a_validating_fixture() {
    assert_eq!(
        MIN_SCHEMA_VERSION, 6,
        "update the fixture set on a floor bump"
    );
    assert_eq!(SCHEMA_VERSION, 6, "add a fixture when the schema grows");
    for version in MIN_SCHEMA_VERSION..=SCHEMA_VERSION {
        let doc = fixture(version);
        assert!(
            doc.contains(&format!("\"schema_version\": {version}")),
            "fixture v{version} must carry its own version"
        );
        validate_json(&doc)
            .unwrap_or_else(|e| panic!("committed v{version} fixture no longer validates: {e}"));
    }
}

#[test]
fn the_v6_fixture_exercises_the_timeseries_and_quorum_sections() {
    let doc = fixture(6);
    assert!(doc.contains("\"timeseries\""));
    assert!(doc.contains("\"peak_at_us\""));
    assert!(doc.contains("\"quorum\""));
    assert!(doc.contains("\"stale_epoch_rejects\""));
    assert!(doc.contains("\"freezes\""));
    assert!(doc.contains("\"epoch_bumps\""));
}

#[test]
fn downgrading_the_fixture_below_the_floor_is_rejected() {
    let doc = fixture(6).replace("\"schema_version\": 6", "\"schema_version\": 5");
    let err = validate_json(&doc).expect_err("v5 is below the supported floor");
    assert!(err.contains("outside supported"), "unexpected error: {err}");
}
