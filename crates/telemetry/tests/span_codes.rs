//! Flight dumps (`duet-insight/1`) store a span's kind as its `u64`
//! code, so the codes are a file format: a reordered or renumbered
//! `SpanKind` table would read every old dump back as the wrong kinds.
//! This list pins each code to its name and stage as they were first
//! written; extend it, never edit a row.

use duet_telemetry::SpanKind;

const PERSISTED: [(u64, &str, &str); 17] = [
    (0, "optimize", "compile"),
    (1, "fold_constants", "compile"),
    (2, "cse", "compile"),
    (3, "dce", "compile"),
    (4, "profile_subgraph", "profile"),
    (5, "correction", "schedule"),
    (6, "round", "schedule"),
    (7, "move_accepted", "schedule"),
    (8, "move_rejected", "schedule"),
    (9, "subgraph", "execute"),
    (10, "run", "execute"),
    (11, "batch", "serve"),
    (12, "request", "serve"),
    (13, "queue", "serve"),
    (14, "linger", "serve"),
    (15, "exec", "serve"),
    (16, "kernel", "execute"),
];

#[test]
fn persisted_span_codes_keep_their_name_and_stage() {
    for (code, name, stage) in PERSISTED {
        let kind = SpanKind::from_u64(code).unwrap_or_else(|| panic!("code {code} unknown"));
        assert_eq!(kind as u64, code, "{name}: code moved");
        assert_eq!(SpanKind::from_u64(kind as u64), Some(kind));
        assert_eq!(kind.name(), name, "code {code}: name changed");
        assert_eq!(kind.stage(), stage, "code {code}: stage changed");
    }
    assert_eq!(SpanKind::from_u64(PERSISTED.len() as u64), None);
}
