//! Chaos acceptance: a UDS (forked-process) rank killed mid-shuffle
//! leaves flight-recorder corpses behind, and post-mortem
//! `mimir-doctor` triage names the dead rank.
//!
//! The kill is a bare `exit(86)` mid-collective — no unwinding, no
//! cleanup — so the dead rank dumps nothing. Its surviving peers
//! observe the disconnect, panic, and dump `rank<r>.crash.jsonl` into
//! the flight dir on their way down; [`diagnose_postmortem`] must turn
//! those corpses into a Critical transport finding naming rank 2.

use std::time::Duration;

use mimir_doctor::{diagnose_postmortem, Severity};
use mimir_mpi::{run_world_uds_with, ReduceOp, UdsWorldOptions, WorldError};

#[test]
fn killed_uds_rank_leaves_ingestible_corpses_naming_it() {
    let flight = std::env::temp_dir().join(format!("mimir-flight-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight);
    // Children inherit the environment through fork; the flight
    // recorder arms itself from it in each rank process.
    std::env::set_var("MIMIR_FLIGHT_DIR", &flight);

    let opts = UdsWorldOptions {
        connect_window: Duration::from_secs(5),
        world_timeout: Duration::from_secs(60),
        fault: None,
    };
    let result: Result<Vec<u64>, WorldError<String>> = run_world_uds_with(4, &opts, |comm| {
        let mut sum = 0u64;
        for round in 0..8u64 {
            if round == 2 && comm.rank() == 2 {
                // SIGKILL-equivalent: no unwinding, no result file, no
                // flight dump — the rank just vanishes mid-traffic.
                std::process::exit(86);
            }
            sum += comm.allreduce_u64(ReduceOp::Sum, comm.rank() as u64);
        }
        sum
    });
    std::env::remove_var("MIMIR_FLIGHT_DIR");

    // The world reports the death (not a hang, not a success).
    match result {
        Err(WorldError::RankPanicked { rank, .. }) => assert_eq!(rank, 2, "root cause is rank 2"),
        other => panic!("expected a rank-2 failure, got: {other:?}"),
    }

    // The dead rank left no corpse; every survivor did.
    assert!(
        !flight.join("rank2.crash.jsonl").exists(),
        "a killed process cannot dump"
    );
    let mut dumps = 0;
    for rank in [0usize, 1, 3] {
        let path = flight.join(format!("rank{rank}.crash.jsonl"));
        if path.exists() {
            dumps += 1;
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(
                text.contains("\"record\":\"crash\""),
                "rank {rank} dump has a crash header"
            );
            // The corpse is a doctor-ingestible export in its own right.
            mimir_doctor::ingest_jsonl(&text)
                .unwrap_or_else(|e| panic!("rank {rank} corpse does not ingest: {e}"));
        }
    }
    assert!(
        dumps >= 1,
        "at least one survivor dumped a flight recording into {}",
        flight.display()
    );

    // Post-mortem triage names the dead rank.
    let d = diagnose_postmortem(&flight).expect("postmortem ingest succeeds");
    let dead = d
        .findings
        .iter()
        .find(|f| f.code == "transport" && f.severity == Severity::Critical)
        .unwrap_or_else(|| panic!("no dead-rank transport finding:\n{}", d.to_text()));
    assert!(
        dead.title.contains("rank 2"),
        "names the dead rank: {}",
        dead.title
    );
    assert!(dead.ranks.contains(&2), "ranks field carries it too");
    let _ = std::fs::remove_dir_all(&flight);
}
