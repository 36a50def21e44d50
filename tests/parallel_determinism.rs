//! The sharded campaign runner is deterministic: any thread count yields
//! bit-for-bit identical statistics and Table 1 report, with and without
//! error-simulation compaction.

use hltg::core::{Campaign, CampaignConfig, CampaignStats, RunOptions};
use hltg::dlx::DlxModel;
use hltg::errors::EnumPolicy;
use hltg::netlist::ProcessorModel;

/// Stats with the wall-clock field zeroed: `seconds` is the only
/// legitimately run-dependent quantity.
fn stats_sans_time(c: &Campaign) -> CampaignStats {
    let mut s = c.stats();
    s.seconds = 0.0;
    s
}

/// The Table 1 report with its timing line removed.
fn report_sans_time(c: &Campaign) -> String {
    c.table1_report()
        .lines()
        .filter(|l| !l.contains("CPU time"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_at(model: &dyn ProcessorModel, num_threads: usize, error_simulation: bool) -> Campaign {
    Campaign::run(
        model,
        &CampaignConfig {
            limit: Some(16),
            error_simulation,
            num_threads,
            ..CampaignConfig::default()
        },
        RunOptions::default(),
    )
    .campaign
}

#[test]
fn thread_count_does_not_change_results() {
    let dlx = DlxModel::new();
    for error_simulation in [false, true] {
        let base = run_at(&dlx, 1, error_simulation);
        let base_stats = stats_sans_time(&base);
        let base_report = report_sans_time(&base);
        assert!(base_stats.errors > 0, "campaign targeted no errors");
        for threads in [2, 8] {
            let sharded = run_at(&dlx, threads, error_simulation);
            assert_eq!(
                stats_sans_time(&sharded),
                base_stats,
                "stats diverge at num_threads={threads} (error_simulation={error_simulation})"
            );
            assert_eq!(
                report_sans_time(&sharded),
                base_report,
                "table1_report diverges at num_threads={threads} \
                 (error_simulation={error_simulation})"
            );
        }
    }
}

/// Error-class collapsing keeps the thread-count invariance: the worker
/// pool only pre-screens, and the sequential merge replays the exact
/// class covering order.
#[test]
fn collapse_is_thread_invariant() {
    let dlx = DlxModel::new();
    let config_at = |num_threads| CampaignConfig {
        policy: EnumPolicy::AllBits,
        limit: Some(12),
        collapse: true,
        num_threads,
        ..CampaignConfig::default()
    };
    let base = Campaign::run(&dlx, &config_at(1), RunOptions::default()).campaign;
    let base_stats = stats_sans_time(&base);
    let base_report = report_sans_time(&base);
    assert!(
        base_stats.detected_by_simulation > 0,
        "collapsing screened nothing — the test exercises nothing"
    );
    for threads in [2, 8] {
        let sharded = Campaign::run(&dlx, &config_at(threads), RunOptions::default()).campaign;
        assert_eq!(
            stats_sans_time(&sharded),
            base_stats,
            "collapse stats diverge at num_threads={threads}"
        );
        assert_eq!(
            report_sans_time(&sharded),
            base_report,
            "collapse report diverges at num_threads={threads}"
        );
    }
}

/// The pure caches — the `CTRLJUST` memo and the shared-prefix simulation
/// cache — must be invisible in the deterministic report: cached and
/// uncached runs agree byte for byte at every thread count.
#[test]
fn caches_do_not_change_the_deterministic_report() {
    let dlx = DlxModel::new();
    let config_at = |num_threads, cached: bool| {
        let mut c = CampaignConfig {
            limit: Some(16),
            error_simulation: true,
            sim_cache: cached,
            num_threads,
            ..CampaignConfig::default()
        };
        c.tg.ctrljust_memo = cached;
        c
    };
    let reference = Campaign::run(&dlx, &config_at(1, false), RunOptions::default())
        .report
        .to_json_deterministic();
    for threads in [1, 2, 8] {
        let cached = Campaign::run(&dlx, &config_at(threads, true), RunOptions::default())
            .report
            .to_json_deterministic();
        assert_eq!(
            cached, reference,
            "cached deterministic report diverges at num_threads={threads}"
        );
    }
}

/// The fault-parallel (packed) screen must be invisible in the
/// deterministic report: packed and serial screening agree byte for byte
/// at every thread count, with plain error simulation and with class
/// collapsing over a dense `AllBits` population (the case with the most
/// packed lanes per pass).
#[test]
fn packed_screen_does_not_change_the_deterministic_report() {
    let dlx = DlxModel::new();
    let config_at = |num_threads, packed: bool, collapse: bool| CampaignConfig {
        policy: if collapse {
            EnumPolicy::AllBits
        } else {
            EnumPolicy::RepresentativePerBus
        },
        limit: Some(if collapse { 12 } else { 16 }),
        error_simulation: !collapse,
        collapse,
        packed_screen: packed,
        num_threads,
        ..CampaignConfig::default()
    };
    for collapse in [false, true] {
        let reference = Campaign::run(&dlx, &config_at(1, false, collapse), RunOptions::default())
            .report
            .to_json_deterministic();
        for threads in [1, 2, 8] {
            for packed in [false, true] {
                let got = Campaign::run(
                    &dlx,
                    &config_at(threads, packed, collapse),
                    RunOptions::default(),
                )
                .report
                .to_json_deterministic();
                assert_eq!(
                    got, reference,
                    "deterministic report diverges at num_threads={threads} \
                     packed_screen={packed} collapse={collapse}"
                );
            }
        }
    }
}

/// Packed-vs-serial equivalence holds under stress too: chaos-injected
/// panics in the generator plus escalated retry rounds must leave the
/// deterministic report byte-identical with the packed screen on or off,
/// at any thread count.
#[test]
fn packed_screen_is_invariant_under_chaos_and_retries() {
    use hltg::core::{ChaosConfig, RetryPolicy};
    let dlx = DlxModel::new();
    let config_at = |num_threads, packed: bool| CampaignConfig {
        limit: Some(12),
        error_simulation: true,
        packed_screen: packed,
        num_threads,
        retry: RetryPolicy {
            rounds: 1,
            escalate: 2,
        },
        chaos: Some(ChaosConfig {
            seed: 7,
            panic_permille: 200,
            ..ChaosConfig::default()
        }),
        ..CampaignConfig::default()
    };
    let reference = Campaign::run(&dlx, &config_at(1, false), RunOptions::default())
        .report
        .to_json_deterministic();
    for threads in [1, 2, 8] {
        for packed in [false, true] {
            let got = Campaign::run(&dlx, &config_at(threads, packed), RunOptions::default())
                .report
                .to_json_deterministic();
            assert_eq!(
                got, reference,
                "chaos/retry deterministic report diverges at \
                 num_threads={threads} packed_screen={packed}"
            );
        }
    }
}

/// The untestability prover must be invisible to thread scheduling: the
/// deterministic report is byte-identical at 1, 2 and 8 threads,
/// certifies a nonzero number of errors, and differs from a campaign
/// without any prover only by reclassifying aborted errors — detections
/// are untouched. The prover cannot be switched off any more, so the
/// prover-free outcome of this campaign is pinned as constants, measured
/// before proving became the default.
#[test]
fn prover_is_thread_invariant() {
    /// Detections of dlx-lite at limit 67 without the prover.
    const DETECTED_WITHOUT_PROVER: usize = 53;
    /// Aborts of dlx-lite at limit 67 without the prover.
    const ABORTED_WITHOUT_PROVER: usize = 14;
    let lite = hltg::build_model("dlx-lite").expect("registered backend");
    let config_at = |num_threads| CampaignConfig {
        limit: Some(67),
        num_threads,
        ..CampaignConfig::default()
    };
    let base = Campaign::run(lite.as_ref(), &config_at(1), RunOptions::default());
    let reference = base.report.to_json_deterministic();
    for threads in [2, 8] {
        let got = Campaign::run(lite.as_ref(), &config_at(threads), RunOptions::default())
            .report
            .to_json_deterministic();
        assert_eq!(
            got, reference,
            "deterministic report diverges at num_threads={threads}"
        );
    }
    let stats = &base.report.stats;
    assert!(
        stats.proven_untestable > 0,
        "the prover certified no errors"
    );
    assert_eq!(
        stats.detected, DETECTED_WITHOUT_PROVER,
        "proving must not change detections"
    );
    assert_eq!(
        stats.aborted + stats.proven_untestable,
        ABORTED_WITHOUT_PROVER,
        "proofs must reclassify aborted errors, not invent outcomes"
    );
}

/// `num_threads: 0` is treated as 1 rather than panicking.
#[test]
fn zero_threads_falls_back_to_serial() {
    let dlx = DlxModel::new();
    let a = run_at(&dlx, 0, false);
    let b = run_at(&dlx, 1, false);
    assert_eq!(stats_sans_time(&a), stats_sans_time(&b));
}
