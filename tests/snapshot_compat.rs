//! Backward compatibility: golden snapshot blobs, committed under
//! `tests/data/`, must keep importing on every future format revision.
//!
//! The v1 blob was produced by the v1 encoder (d695m, TAM widths 16 and
//! 24, quick effort, balanced weights) before the v2 format landed. v1
//! snapshots carry no checkpoint tries, so the imported sessions start
//! cold and rebuild checkpoints on first use — but every cached
//! schedule must still be served, bit-identical to a fresh computation.
//!
//! The v2 blob was produced by the v2 encoder, serially, while engine
//! codes 2–4 still named packing engines (since retired): d695m, quick
//! effort, balanced weights, one skyline session at width 16 and one
//! naive session at width 24, with their checkpoint tries. Engine codes
//! 0 and 1 never changed, so its bytes are pinned exactly.

use msoc::core::planner::PlannerOptions;
use msoc::core::Job;
use msoc::prelude::*;
use msoc::tam::{Effort, Engine};

const GOLDEN_V1: &[u8] = include_bytes!("data/snapshot_v1.bin");
const GOLDEN_V2: &[u8] = include_bytes!("data/snapshot_v2.bin");

fn golden_jobs() -> Vec<Job> {
    [16u32, 24]
        .iter()
        .map(|&w| {
            JobBuilder::new(MixedSignalSoc::d695m())
                .single(w)
                .weights(CostWeights::balanced())
                .opts(PlannerOptions { effort: Effort::Quick, ..PlannerOptions::default() })
                .build()
                .expect("valid job")
        })
        .collect()
}

#[test]
fn golden_v1_snapshot_still_imports_and_serves_its_schedules() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN_V1).expect("golden v1 blob decodes");
    assert!(snapshot.session_count() > 0);
    assert!(snapshot.schedule_count() > 0);

    let imported = PlanService::from_snapshot(&snapshot).expect("golden v1 blob imports");
    let stats = imported.stats();
    // v1 carried no tries: sessions restore cold, nothing is dropped.
    assert_eq!(stats.sessions.import_restored, 0, "{stats:?}");
    assert_eq!(stats.sessions.import_dropped, 0, "{stats:?}");

    // Replaying the exact workload that produced the blob is pure
    // schedule-cache service — no packing at all — and bit-identical to
    // computing fresh on today's code.
    let jobs = golden_jobs();
    let replay = imported.submit(&jobs);
    let fresh = PlanService::new().submit(&golden_jobs());
    for (a, b) in replay.iter().zip(&fresh) {
        let (a, b) = (a.report().expect("replay plans"), b.report().expect("fresh plans"));
        assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
    }
    let stats = imported.stats();
    assert_eq!(stats.schedule_misses, 0, "v1 replay must be pure cache hits: {stats:?}");
    assert!(stats.schedule_hits > 0, "{stats:?}");
}

#[test]
fn golden_v1_snapshot_reencodes_as_v2_and_keeps_its_content() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN_V1).expect("golden v1 blob decodes");
    // `to_bytes` always emits the current version; the v1 → v2 migration
    // is exactly decode + re-encode.
    let v2_bytes = snapshot.to_bytes();
    assert!(v2_bytes.len() < GOLDEN_V1.len(), "v2 must not inflate the v1 content");
    let reloaded = ServiceSnapshot::from_bytes(&v2_bytes).expect("re-encoded blob decodes");
    assert_eq!(reloaded, snapshot);
    let stats = snapshot.stats();
    assert!(stats.compression_ratio > 1.5, "re-encoded v1 content must compress >1.5x: {stats:?}");
}

/// The workload that produced the golden v2 blob.
fn golden_v2_jobs() -> Vec<Job> {
    [(16u32, Engine::Skyline), (24, Engine::Naive)]
        .iter()
        .map(|&(w, engine)| {
            JobBuilder::new(MixedSignalSoc::d695m())
                .single(w)
                .weights(CostWeights::balanced())
                .opts(PlannerOptions { effort: Effort::Quick, engine, ..PlannerOptions::default() })
                .build()
                .expect("valid job")
        })
        .collect()
}

#[test]
fn golden_v2_snapshot_reencodes_byte_for_byte() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN_V2).expect("golden v2 blob decodes");
    assert_eq!(snapshot.session_count(), 2, "one skyline and one naive session");
    assert!(snapshot.stats().checkpoints > 0, "the blob carries checkpoint tries");
    assert!(snapshot.to_bytes() == GOLDEN_V2, "decode → encode must reproduce the blob");
}

#[test]
fn golden_v2_snapshot_imports_and_reexports_byte_for_byte() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN_V2).expect("golden v2 blob decodes");
    let imported = PlanService::from_snapshot(&snapshot).expect("golden v2 blob imports");
    let stats = imported.stats();
    assert!(stats.sessions.import_restored > 0, "{stats:?}");
    assert_eq!(stats.sessions.import_dropped, 0, "every checkpoint re-packs as persisted");
    assert!(
        imported.export_snapshot().to_bytes() == GOLDEN_V2,
        "import → export must reproduce the blob"
    );
}

#[test]
fn golden_v2_snapshot_replays_as_pure_cache_hits_equal_to_fresh_plans() {
    let snapshot = ServiceSnapshot::from_bytes(GOLDEN_V2).expect("golden v2 blob decodes");
    let imported = PlanService::from_snapshot(&snapshot).expect("golden v2 blob imports");
    let replay = imported.submit(&golden_v2_jobs());
    let fresh = PlanService::new().submit(&golden_v2_jobs());
    assert_eq!(replay.len(), fresh.len());
    for (a, b) in replay.iter().zip(&fresh) {
        let (a, b) = (a.report().expect("replay plans"), b.report().expect("fresh plans"));
        assert_eq!(a.result.plan().unwrap(), b.result.plan().unwrap());
    }
    let stats = imported.stats();
    assert_eq!(stats.schedule_misses, 0, "v2 replay must be pure cache hits: {stats:?}");
    assert!(stats.schedule_hits > 0, "{stats:?}");
}
