//! Smoke tests for the figure runner on a micro platform, so the
//! harness code paths are covered by `cargo test` and not only by the
//! long-running binaries.

use mimir_bench::{run, App, Opts, Platform, Status, System, WcDataset};

/// A 2-rank micro platform for fast tests.
fn micro() -> Platform {
    Platform::comet_mini().thin(2)
}

#[test]
fn wc_runners_in_memory_regime() {
    let p = micro();
    for dataset in [WcDataset::Uniform, WcDataset::Wikipedia] {
        let app = App::Wc(dataset, 64 << 10);
        let mimir = run(&p, 1, app, System::Mimir(Opts::BASE));
        assert_eq!(mimir.status, Status::InMemory, "{dataset:?}");
        assert!(mimir.time_s.is_finite() && mimir.time_s > 0.0);
        assert!(mimir.peak_node_bytes > 0);
        assert!(mimir.kv_bytes > 0);

        let mrmpi = run(&p, 1, app, System::mrmpi(p.mrmpi_page_large, false));
        assert_eq!(mrmpi.status, Status::InMemory, "{dataset:?}");
        assert!(mrmpi.peak_node_bytes >= 7 * p.mrmpi_page_large);
    }
}

#[test]
fn wc_runner_detects_spill_and_oom() {
    let p = micro();
    // Tiny pages on a big dataset → spill.
    let big = App::Wc(WcDataset::Uniform, 1 << 20);
    let spilled = run(&p, 1, big, System::mrmpi(p.mrmpi_page_small, false));
    assert_eq!(spilled.status, Status::Spilled);
    assert!(spilled.modeled_io_s > 0.0);

    // A dataset far beyond the thin node budget → Mimir OOM.
    let huge = App::Wc(WcDataset::Uniform, 16 << 20);
    let oom = run(&p, 1, huge, System::Mimir(Opts::BASE));
    assert_eq!(oom.status, Status::Oom);
    assert!(oom.time_s.is_nan());
}

#[test]
#[should_panic(expected = "leaves partitions under 16 B")]
fn failures_other_than_oom_abort_instead_of_becoming_missing_points() {
    // A comm buffer too small to split across the ranks is a
    // configuration error, not the node running out of memory: it must
    // not be plotted as an OOM cell.
    let p = Platform {
        page_size: 16,
        ..micro()
    };
    run(
        &p,
        1,
        App::Wc(WcDataset::Uniform, 4 << 10),
        System::Mimir(Opts::BASE),
    );
}

#[test]
fn oc_and_bfs_runners() {
    let p = micro();
    let oc = run(&p, 1, App::Oc(1 << 12), System::Mimir(Opts::BASE));
    assert_eq!(oc.status, Status::InMemory);
    let oc_mr = run(
        &p,
        1,
        App::Oc(1 << 12),
        System::mrmpi(p.mrmpi_page_large, true),
    );
    assert_eq!(oc_mr.status, Status::InMemory);

    let all = Opts::BASE.hint().cps();
    let bfs = run(&p, 1, App::Bfs(8), System::Mimir(all));
    assert_eq!(bfs.status, Status::InMemory);
    let bfs_mr = run(&p, 1, App::Bfs(8), System::mrmpi(p.mrmpi_page_large, false));
    assert_eq!(bfs_mr.status, Status::InMemory);
}

#[test]
fn multi_node_runner() {
    let p = micro();
    let all = Opts::BASE.hint().pr().cps();
    let out = run(
        &p,
        3,
        App::Wc(WcDataset::Uniform, 96 << 10),
        System::Mimir(all),
    );
    assert_eq!(out.status, Status::InMemory);
}

#[test]
fn outcome_json_roundtrips_including_oom() {
    let p = micro();
    let huge = App::Wc(WcDataset::Uniform, 16 << 20);
    let oom = run(&p, 1, huge, System::Mimir(Opts::BASE));
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
    let oc = run(&p, 1, App::Oc(1 << 12), System::Mimir(Opts::BASE));
    assert_eq!(oc.status, Status::InMemory);
    assert!(
        oc.exchange_rounds >= 4,
        "{} rounds over 4 levels",
        oc.exchange_rounds
    );
}

#[test]
fn weak_scaling_shares_scale_with_the_rank_count() {
    let wc = App::Wc(WcDataset::Wikipedia, 10);
    assert_eq!(wc.times(8), App::Wc(WcDataset::Wikipedia, 80));
    assert_eq!(App::Oc(1 << 11).times(4), App::Oc(1 << 13));
    // 2^8 vertices a rank on 6 ranks: 1 536 vertices, rounded down to 2^10.
    assert_eq!(App::Bfs(8).times(6), App::Bfs(10));
}
