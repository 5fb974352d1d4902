//! The registry's Prometheus exposition, held to a stored copy.
//!
//! This is its own test binary, so it runs in a fresh process: nothing
//! has touched the global registry or the kernel pool, every family reads
//! zero, and the text is the same on every run. A metric added, renamed,
//! reworded or moved changes `fixtures/exposition.prom` on purpose.

use std::collections::HashSet;

const STORED: &str = include_str!("fixtures/exposition.prom");

#[test]
fn fresh_exposition_matches_the_stored_copy() {
    let text = duet_telemetry::prometheus_text();
    for (i, (got, want)) in text.lines().zip(STORED.lines()).enumerate() {
        assert_eq!(got, want, "exposition line {} differs", i + 1);
    }
    assert_eq!(text.lines().count(), STORED.lines().count(), "line count");
    assert_eq!(text, STORED);
}

/// The text format allows one `# HELP`/`# TYPE` pair per family, with
/// all of the family's samples after it and before the next family.
#[test]
fn each_family_is_one_group() {
    let text = duet_telemetry::prometheus_text();
    let mut seen = HashSet::new();
    let mut family = "";
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            family = rest.split(' ').next().unwrap();
            assert!(seen.insert(family), "# TYPE {family} occurs twice");
        } else if !line.starts_with('#') {
            let sample = line.split(['{', ' ']).next().unwrap();
            let member = sample == family
                || ["_bucket", "_sum", "_count"]
                    .iter()
                    .any(|suffix| sample.strip_suffix(suffix) == Some(family));
            assert!(member, "sample {sample} outside its family's group");
        }
    }
    assert!(seen.len() > 40, "only {} families exposed", seen.len());
}
