//! Verifies the paper's headline quantitative claims against the
//! reproduction, printing PASS/FAIL per claim. Complements the per-figure
//! harnesses: those regenerate the plots, this distills them to the
//! sentences the paper's abstract and Section IV make.
//!
//! Run: `cargo run --release -p mimir-bench --bin claims_check`

use mimir_bench::{run, App, Opts, Platform, RunOutcome, Status, System, WcDataset};

struct Claims {
    passed: u32,
    failed: u32,
}

impl Claims {
    fn check(&mut self, claim: &str, measured: String, ok: bool) {
        let verdict = if ok { "PASS" } else { "FAIL" };
        println!("[{verdict}] {claim}\n       measured: {measured}");
        if ok {
            self.passed += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// WordCount on one node of `p`.
fn wc(p: &Platform, dataset: WcDataset, bytes: usize, system: System) -> RunOutcome {
    run(p, 1, App::Wc(dataset, bytes), system)
}

fn main() {
    use WcDataset::{Uniform, Wikipedia};
    let comet = Platform::comet_mini();
    let mira = Platform::mira_mini();
    let mimir = System::Mimir;
    let mut c = Claims {
        passed: 0,
        failed: 0,
    };

    // --- Figure 1: the out-of-core cliff. -----------------------------
    println!("== Figure 1 claims ==");
    let fig1 = System::mrmpi(comet.mrmpi_page_large, false);
    let in_mem = wc(&comet, Uniform, 4 << 20, fig1);
    let spilled = wc(&comet, Uniform, 32 << 20, fig1);
    c.check(
        "WC on one Comet node stays in memory at 4G (scaled 4M)",
        format!("{:?}", in_mem.status),
        in_mem.status == Status::InMemory,
    );
    c.check(
        "… and leaves memory past that, with orders-of-magnitude slowdown",
        format!(
            "{:?}, {:.1}x slower per 8x data",
            spilled.status,
            spilled.time_s / in_mem.time_s
        ),
        spilled.status == Status::Spilled && spilled.time_s > 20.0 * in_mem.time_s,
    );

    // --- Figure 7: KV-hint saving. -------------------------------------
    println!("== Figure 7 claims ==");
    let plain = wc(&comet, Wikipedia, 4 << 20, mimir(Opts::BASE.pr()));
    let hinted = wc(&comet, Wikipedia, 4 << 20, mimir(Opts::BASE.hint().pr()));
    let saving = 1.0 - hinted.kv_bytes as f64 / plain.kv_bytes as f64;
    c.check(
        "KV-hint saves ~26% of WC (Wikipedia) KV bytes",
        format!("{:.1}%", saving * 100.0),
        (0.20..0.33).contains(&saving),
    );

    // --- Figures 8/9: memory efficiency. --------------------------------
    println!("== Figure 8/9 claims ==");
    let (small_page, large_page) = (comet.mrmpi_page_small, comet.mrmpi_page_large);
    let mimir_small = wc(&comet, Uniform, 256 << 10, mimir(Opts::BASE));
    let mrmpi_small = wc(&comet, Uniform, 256 << 10, System::mrmpi(small_page, false));
    c.check(
        "Mimir uses at least 25% less memory than MR-MPI (64M)",
        format!(
            "{:.2} vs {:.2} MiB",
            mimir_small.peak_node_bytes as f64 / (1 << 20) as f64,
            mrmpi_small.peak_node_bytes as f64 / (1 << 20) as f64
        ),
        (mimir_small.peak_node_bytes as f64) < 0.75 * mrmpi_small.peak_node_bytes as f64,
    );
    let mimir_16m = wc(&comet, Uniform, 16 << 20, mimir(Opts::BASE));
    let mrmpi_8m = wc(&comet, Uniform, 8 << 20, System::mrmpi(large_page, false));
    c.check(
        "Mimir runs 4x larger datasets in memory than the best MR-MPI config",
        format!(
            "Mimir @16M: {:?}; MR-MPI(512K) @8M: {:?} (its last in-memory point is 4M)",
            mimir_16m.status, mrmpi_8m.status
        ),
        mimir_16m.status == Status::InMemory && mrmpi_8m.status == Status::Spilled,
    );
    let mrmpi_tiny = wc(&comet, Uniform, 128 << 10, System::mrmpi(small_page, false));
    c.check(
        "MR-MPI's footprint is its static page sets, independent of data",
        format!(
            "{} vs {} bytes at 128K vs 256K",
            mrmpi_tiny.peak_node_bytes, mrmpi_small.peak_node_bytes
        ),
        mrmpi_tiny.peak_node_bytes == mrmpi_small.peak_node_bytes,
    );

    // --- Figure 10: weak scaling under skew. ----------------------------
    println!("== Figure 10 claims ==");
    let thin = comet.thin(4);
    let skewed = App::Wc(Wikipedia, (512 << 10) / comet.ranks_per_node).times(thin.ranks(2));
    let mr_skew = run(
        &thin,
        2,
        skewed,
        System::mrmpi(thin.mrmpi_page_small, false),
    );
    let mimir_skew = run(&thin, 2, skewed, mimir(Opts::BASE));
    c.check(
        "skewed WC breaks MR-MPI (64M) already at 2 nodes; Mimir is unaffected",
        format!(
            "MR-MPI: {:?}, Mimir: {:?}",
            mr_skew.status, mimir_skew.status
        ),
        mr_skew.status == Status::Spilled && mimir_skew.status == Status::InMemory,
    );

    // --- Figure 13: the optimization staircase. -------------------------
    println!("== Figure 13 claims ==");
    let base = wc(&mira, Uniform, 2 << 20, mimir(Opts::BASE));
    let hint = wc(&mira, Uniform, 2 << 20, mimir(Opts::BASE.hint()));
    let hint_pr = wc(&mira, Uniform, 2 << 20, mimir(Opts::BASE.hint().pr()));
    // Both apps' KMVCs store a chunk's values of one length bare with or
    // without the hint, so each baseline derives what the hint declares
    // and may sit at most a page per rank above it. What the hint still
    // does on BFS is shrink the wire: 16 B a KV against 24 B, at most
    // two thirds of the baseline's bytes. Partial reduction is the step.
    let bfs_base = run(&mira, 1, App::Bfs(13), mimir(Opts::BASE));
    let bfs_hinted = run(&mira, 1, App::Bfs(13), mimir(Opts::BASE.hint()));
    let page_per_rank = mira.page_size * mira.ranks_per_node;
    let mib = |r: &RunOutcome| r.peak_node_bytes as f64 / (1 << 20) as f64;
    c.check(
        "each optimization lowers the peak: hint > hint+pr (WC-U); WC-U's and BFS's bases \
         are within a page per rank of hint, and BFS's hint cuts its KV bytes to <= 2/3",
        format!(
            "WC-U 2M: {:.2} > {:.2}, {:.2} <= {:.2} + {:.2} MiB; \
             BFS 2^13: {:.2} <= {:.2} + {:.2} MiB, KV bytes {} vs {}",
            mib(&hint),
            mib(&hint_pr),
            mib(&base),
            mib(&hint),
            page_per_rank as f64 / (1 << 20) as f64,
            mib(&bfs_base),
            mib(&bfs_hinted),
            page_per_rank as f64 / (1 << 20) as f64,
            bfs_hinted.kv_bytes,
            bfs_base.kv_bytes
        ),
        hint.peak_node_bytes > hint_pr.peak_node_bytes
            && base.peak_node_bytes <= hint.peak_node_bytes + page_per_rank
            && bfs_base.peak_node_bytes <= bfs_hinted.peak_node_bytes + page_per_rank
            && 3 * bfs_hinted.kv_bytes <= 2 * bfs_base.kv_bytes,
    );
    // The baseline's cut-off: its last in-memory size, doubling from the
    // 2M point above until it runs out of memory.
    let mut base_max = 2 << 20;
    let base_oom = loop {
        let next = wc(&mira, Uniform, 2 * base_max, mimir(Opts::BASE));
        if next.status != Status::InMemory || base_max >= 64 << 20 {
            break next;
        }
        base_max *= 2;
    };
    let stack_4x = wc(&mira, Uniform, 4 * base_max, mimir(Opts::BASE.hint().pr()));
    c.check(
        "the stack processes 4x larger datasets than the baseline (Mira)",
        format!(
            "base @{}M: InMemory, @{}M: {:?}; hint+pr @{}M: {:?}",
            base_max >> 20,
            (2 * base_max) >> 20,
            base_oom.status,
            (4 * base_max) >> 20,
            stack_4x.status
        ),
        base_oom.status == Status::Oom && stack_4x.status == Status::InMemory,
    );

    println!("\n{} passed, {} failed", c.passed, c.failed);
    if c.failed > 0 {
        std::process::exit(1);
    }
}
