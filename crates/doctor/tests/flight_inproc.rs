//! The flight recorder on its own, in an in-process world: armed by
//! `MIMIR_FLIGHT_DIR` alone, a panicking rank leaves a corpse that
//! carries its communication counters; unarmed, nothing is written.
//!
//! One test in its own binary, so arming through the process-wide
//! environment races with nothing.

use mimir_mpi::{run_world_result, ReduceOp, WorldError};
use mimir_obs::Json;

/// Two ranks each finish one allreduce (both send), then rank 1 panics.
fn rank1_panics() -> Result<Vec<u64>, WorldError<()>> {
    run_world_result(2, |comm| {
        let sum = comm.allreduce_u64(ReduceOp::Sum, 1);
        if comm.rank() == 1 {
            panic!("rank 1 fails after its first collective");
        }
        Ok(sum + comm.allreduce_u64(ReduceOp::Sum, 1))
    })
}

#[test]
fn panicking_inproc_rank_dumps_only_when_the_flight_dir_is_set() {
    let dir = std::env::temp_dir().join(format!("mimir-flight-inproc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    std::env::set_var("MIMIR_FLIGHT_DIR", &dir);
    let result = rank1_panics();
    std::env::remove_var("MIMIR_FLIGHT_DIR");
    assert!(
        matches!(result, Err(WorldError::RankPanicked { rank: 1, .. })),
        "root cause is rank 1: {result:?}"
    );
    let text = std::fs::read_to_string(dir.join("rank1.crash.jsonl")).expect("rank 1 dumped");
    let crash = Json::parse(text.lines().next().expect("a crash line")).unwrap();
    assert_eq!(crash.get("record").and_then(Json::as_str), Some("crash"));
    assert_eq!(crash.get("cause").and_then(Json::as_str), Some("panic"));
    assert_eq!(crash.get("rank").and_then(Json::as_u64), Some(1));
    let reports = mimir_doctor::ingest_jsonl(&text).expect("the corpse ingests");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].rank, 1);
    assert!(
        reports[0].comm.sends > 0,
        "the corpse carries the rank's comm counters: {:?}",
        reports[0].comm
    );

    // Unarmed: the same failure writes nothing.
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(mimir_obs::live::flight_dir(), None);
    assert!(rank1_panics().is_err());
    assert!(
        !dir.exists(),
        "an unarmed recorder wrote into {}",
        dir.display()
    );
}
