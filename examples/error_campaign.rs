//! Error campaign: reproduce the paper's Table 1 workflow on a sample.
//!
//! Enumerates bus single-stuck-line errors in the EX/MEM/WB datapath
//! stages, runs test generation for each, and prints the Table 1
//! comparison. Pass a number to limit how many errors are attempted
//! (default 40; the full population takes under a minute in release).
//!
//! Run with: `cargo run --release --example error_campaign -- 144`

use hltg::prelude::*;

fn main() {
    let limit: Option<usize> = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .or(Some(40));
    let model = DlxModel::new();
    let config = CampaignConfig {
        limit,
        ..CampaignConfig::default()
    };
    println!(
        "running test generation for {} bus SSL errors in EX/MEM/WB...\n",
        limit.map(|l| l.to_string()).unwrap_or_else(|| "all".into())
    );
    let campaign = Campaign::run(&model, &config, RunOptions::default()).campaign;

    // A few sample outcomes.
    println!("sample outcomes:");
    for record in campaign.records.iter().take(6) {
        match &record.outcome {
            Outcome::Detected(tc) => println!(
                "  {}: detected, {} instructions ({} non-NOP), variant {}",
                record.error, tc.length, tc.core_len, tc.variant
            ),
            Outcome::Aborted { reason, .. } => {
                println!("  {}: aborted ({reason:?})", record.error)
            }
            Outcome::ProvenUntestable(proof) => println!(
                "  {}: proven untestable ({}, k={})",
                record.error,
                proof.kind.name(),
                proof.frames
            ),
        }
    }

    println!("\n{}", campaign.table1_report());
    let stats = campaign.stats();
    println!("\nsequence-length histogram (detected errors):");
    for (len, &count) in stats.length_histogram.iter().enumerate() {
        if count > 0 {
            println!("  {len:>3} instructions: {}", "#".repeat(count));
        }
    }
}
