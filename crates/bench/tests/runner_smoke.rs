//! Smoke tests for the figure runners on a micro platform, so the
//! harness code paths are covered by `cargo test` and not only by the
//! long-running binaries.

use mimir_apps::bfs::BfsOptions;
use mimir_apps::octree::OcOptions;
use mimir_apps::wordcount::WcOptions;
use mimir_bench::runner::{
    run_bfs_mimir, run_bfs_mrmpi, run_oc_mimir, run_oc_mrmpi, run_wc_mimir, run_wc_mrmpi, WcDataset,
};
use mimir_bench::{Platform, Status};

/// A 2-rank micro platform for fast tests.
fn micro() -> Platform {
    Platform::comet_mini().thin(2)
}

#[test]
fn wc_runners_in_memory_regime() {
    let p = micro();
    for dataset in [WcDataset::Uniform, WcDataset::Wikipedia] {
        let mimir = run_wc_mimir(&p, 1, dataset, 64 << 10, WcOptions::default());
        assert_eq!(mimir.status, Status::InMemory, "{dataset:?}");
        assert!(mimir.time_s.is_finite() && mimir.time_s > 0.0);
        assert!(mimir.peak_node_bytes > 0);
        assert!(mimir.kv_bytes > 0);

        let mrmpi = run_wc_mrmpi(&p, 1, dataset, 64 << 10, p.mrmpi_page_large, false);
        assert_eq!(mrmpi.status, Status::InMemory, "{dataset:?}");
        assert!(mrmpi.peak_node_bytes >= 7 * p.mrmpi_page_large);
    }
}

#[test]
fn wc_runner_detects_spill_and_oom() {
    let p = micro();
    // Tiny pages on a big dataset → spill.
    let spilled = run_wc_mrmpi(
        &p,
        1,
        WcDataset::Uniform,
        1 << 20,
        p.mrmpi_page_small,
        false,
    );
    assert_eq!(spilled.status, Status::Spilled);
    assert!(spilled.modeled_io_s > 0.0);

    // A dataset far beyond the thin node budget → Mimir OOM.
    let oom = run_wc_mimir(&p, 1, WcDataset::Uniform, 16 << 20, WcOptions::default());
    assert_eq!(oom.status, Status::Oom);
    assert!(oom.time_s.is_nan());
}

#[test]
fn oc_and_bfs_runners() {
    let p = micro();
    let oc = run_oc_mimir(&p, 1, 1 << 12, OcOptions::default());
    assert_eq!(oc.status, Status::InMemory);
    let oc_mr = run_oc_mrmpi(&p, 1, 1 << 12, p.mrmpi_page_large, true);
    assert_eq!(oc_mr.status, Status::InMemory);

    let bfs = run_bfs_mimir(&p, 1, 8, BfsOptions::all());
    assert_eq!(bfs.status, Status::InMemory);
    let bfs_mr = run_bfs_mrmpi(&p, 1, 8, p.mrmpi_page_large, false);
    assert_eq!(bfs_mr.status, Status::InMemory);
}

#[test]
fn multi_node_runner() {
    let p = micro();
    let out = run_wc_mimir(&p, 3, WcDataset::Uniform, 96 << 10, WcOptions::all());
    assert_eq!(out.status, Status::InMemory);
}

#[test]
fn outcome_json_roundtrips_including_oom() {
    let p = micro();
    let oom = run_wc_mimir(&p, 1, WcDataset::Uniform, 16 << 20, WcOptions::default());
    let json = oom.to_json().to_string();
    let parsed = mimir_obs::Json::parse(&json).unwrap();
    let back = mimir_bench::RunOutcome::from_json(&parsed).unwrap();
    assert_eq!(back.status, Status::Oom);
    assert!(back.time_s.is_nan(), "NaN survives the JSON round trip");
}

#[test]
fn multi_stage_runs_count_the_rounds_of_every_stage() {
    // Octree clustering runs one job per refinement level; 4 096 points
    // refine over 4 levels here, each of which exchanges at least once.
    // The rounds of sequential stages add up, unlike the rounds of
    // ranks within one stage, which are the same collective rounds.
    let p = micro();
    let oc = run_oc_mimir(&p, 1, 1 << 12, OcOptions::default());
    assert_eq!(oc.status, Status::InMemory);
    assert!(
        oc.exchange_rounds >= 4,
        "{} rounds over 4 levels",
        oc.exchange_rounds
    );
}
