//! Host-cost coverage of every table and figure: each entry runs a
//! reduced-size version of the corresponding experiment (same code path,
//! smaller file), so `cargo bench` exercises the entire harness and
//! tracks the host cost of regenerating each artifact. The full-size
//! regenerators are the `paragon-bench` binaries. Plain `fn main`
//! harness (hermetic build: no criterion).

#![expect(
    clippy::disallowed_types,
    reason = "host wall-clock budget, not sim-visible"
)]

use std::hint::black_box;
use std::time::Instant;

use paragon_pfs::IoMode;
use paragon_sim::SimDuration;
use paragon_workload::{run, AccessPattern, ExperimentConfig, StripeLayout};

fn bench<T>(name: &str, iters: u32, mut f: impl FnMut() -> T) {
    black_box(f());
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let per = start.elapsed().as_secs_f64() / iters as f64;
    println!("{name:<44} {:>12.3} ms/iter  ({iters} iters)", per * 1e3);
}

/// 1 MB per node: small enough to iterate, big enough to exercise every
/// code path (striping, coalescing, queues, prefetch machinery).
fn small(request: u32) -> ExperimentConfig {
    ExperimentConfig::paper_iobound(request, 1)
}

fn fig2() {
    for mode in IoMode::all() {
        let mut cfg = small(64 * 1024);
        cfg.mode = mode;
        bench(&format!("fig2_io_modes/{mode}"), 5, || {
            run(&cfg).bandwidth_mb_s()
        });
    }
    let mut sep = small(64 * 1024);
    sep.mode = IoMode::MAsync;
    sep.separate_files = true;
    sep.file_size = 1 << 20;
    bench("fig2_io_modes/separate_files", 5, || {
        run(&sep).bandwidth_mb_s()
    });
}

fn tab1() {
    for (label, prefetch) in [("no_prefetch", false), ("prefetch", true)] {
        let cfg = if prefetch {
            small(64 * 1024).with_prefetch()
        } else {
            small(64 * 1024)
        };
        bench(&format!("table1_iobound/{label}"), 5, || {
            run(&cfg).bandwidth_mb_s()
        });
    }
}

fn tab2() {
    for request in [64 * 1024u32, 1024 * 1024] {
        let cfg = small(request);
        bench(
            &format!("table2_access_times/{}KB", request / 1024),
            5,
            || run(&cfg).read_time_mean(),
        );
    }
}

fn fig4_fig5() {
    for (label, request, delay_ms) in [
        ("64KB_25ms", 64 * 1024u32, 25u64),
        ("1024KB_100ms", 1024 * 1024, 100),
    ] {
        let mut cfg = small(request).with_prefetch();
        cfg.delay = SimDuration::from_millis(delay_ms);
        bench(&format!("fig4_fig5_balanced/{label}"), 5, || {
            run(&cfg).bandwidth_mb_s()
        });
    }
}

fn tab3() {
    for su in [16 * 1024u64, 64 * 1024, 1024 * 1024] {
        let mut cfg = small(256 * 1024).with_prefetch();
        cfg.stripe_unit = su;
        bench(
            &format!("table3_stripe_units/su_{}KB", su / 1024),
            5,
            || run(&cfg).bandwidth_mb_s(),
        );
    }
}

fn tab4() {
    let wide = small(256 * 1024).with_prefetch();
    bench("table4_stripe_groups/sgroup_8", 5, || {
        run(&wide).bandwidth_mb_s()
    });
    let mut narrow = small(256 * 1024).with_prefetch();
    narrow.layout = StripeLayout::WaysOnOne { ways: 8, ion: 0 };
    bench("table4_stripe_groups/sgroup_1", 5, || {
        run(&narrow).bandwidth_mb_s()
    });
}

fn extensions() {
    // Depth ablation and pattern sweep, one representative each.
    let mut depth4 = small(64 * 1024).with_prefetch();
    depth4.prefetch.as_mut().unwrap().depth = 4;
    depth4.delay = SimDuration::from_millis(50);
    bench("extensions/depth4_balanced", 5, || {
        run(&depth4).bandwidth_mb_s()
    });
    let mut random = small(64 * 1024).with_prefetch();
    random.mode = IoMode::MAsync;
    random.access = AccessPattern::Random;
    bench("extensions/random_pattern", 5, || {
        run(&random).bandwidth_mb_s()
    });
}

fn main() {
    fig2();
    tab1();
    tab2();
    fig4_fig5();
    tab3();
    tab4();
    extensions();
}
