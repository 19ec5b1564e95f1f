//! Kill-and-resume determinism of the fault-injection campaign.
//!
//! The campaign's crash-safety contract: finished bundles are journalled
//! in tuple order as soon as every earlier tuple's bundle has finished, a
//! SIGKILL can tear at most the journal's final line, and a
//! resumed campaign reuses the surviving rows verbatim — so the final CSV
//! is bit-identical to an uninterrupted run, at any worker count. These
//! tests simulate the kill by truncating a real journal mid-row (the
//! worst case: a torn line with no terminating newline) and pin the
//! contract end to end. The process-level variant — an actual `kill -9`
//! against the `campaign` binary — runs in `scripts/verify.sh`.

use std::fs;
use std::path::PathBuf;

use tv_core::{run_campaign, CampaignConfig, Fleet};

fn tiny() -> CampaignConfig {
    CampaignConfig {
        tuples: 4,
        commits: 5_000,
        warmup: 2_000,
        riscv_tuples: 1,
        ..CampaignConfig::full()
    }
}

/// The payload of a v3 journal line (`<crc32-hex8>\t<payload>`).
fn payload(line: &str) -> &str {
    let (crc, payload) = line.split_once('\t').expect("crc\\tpayload shape");
    assert_eq!(crc.len(), 8, "8 hex digits of CRC32: {line}");
    payload
}

fn temp_journal(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tv-campaign-it-{}-{tag}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    dir.join("campaign.journal")
}

fn cleanup(journal: &PathBuf) {
    fs::remove_dir_all(journal.parent().expect("journal has a parent")).ok();
}

#[test]
fn journal_is_written_during_the_run_not_at_the_end() {
    let cfg = tiny();
    let journal = temp_journal("live");
    let report = run_campaign(&Fleet::new(2), &cfg, &journal, false).expect("campaign runs");
    let cells = (cfg.tuples + cfg.riscv_tuples) * cfg.schemes().len();
    assert_eq!(report.rows.len(), cells);

    let text = fs::read_to_string(&journal).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), cells + 1, "meta line + one line per cell");
    // v3: every line (header included) is CRC-framed, and the meta
    // payload carries the combined workload content hash (`wl=`), so
    // journals and store keys follow program bytes.
    assert!(payload(lines[0]).starts_with("# tv-campaign v3 "), "{}", lines[0]);
    assert!(payload(lines[0]).contains(" wl="), "{}", lines[0]);
    let mut keys = std::collections::HashSet::new();
    for line in &lines[1..] {
        let (key, row) = payload(line).split_once('\t').expect("key\\trow shape");
        assert!(keys.insert(key.to_string()), "duplicate journal key {key}");
        assert_eq!(row.split(',').count(), 19, "malformed row: {row}");
    }
    // The journal holds exactly the campaign's rows in tuple order, even
    // though bundles finish out of order on two workers, so its bytes are
    // the same at any worker count.
    let journalled: Vec<&str> = lines[1..]
        .iter()
        .map(|l| payload(l).split_once('\t').expect("key\\trow shape").1)
        .collect();
    assert_eq!(journalled, report.rows);
    let serial = temp_journal("live-serial");
    run_campaign(&Fleet::new(1), &cfg, &serial, false).expect("serial campaign runs");
    assert_eq!(fs::read(&serial).expect("serial journal"), text.as_bytes());
    cleanup(&serial);
    cleanup(&journal);
}

#[test]
fn resume_after_simulated_kill_is_bit_identical_across_worker_counts() {
    let cfg = tiny();

    // Uninterrupted reference campaign.
    let ref_journal = temp_journal("ref");
    let reference = run_campaign(&Fleet::new(3), &cfg, &ref_journal, false).expect("reference");

    // "Kill" it: keep the meta line plus the first seven completed rows,
    // then a torn half-row without its newline — exactly what a SIGKILL
    // mid-append leaves behind.
    let text = fs::read_to_string(&ref_journal).expect("journal exists");
    let lines: Vec<&str> = text.lines().collect();
    let survivors = 7;
    let torn_journal = temp_journal("torn");
    let mut torn = lines[..=survivors].join("\n");
    torn.push('\n');
    torn.push_str(&lines[survivors + 1][..lines[survivors + 1].len() / 2]);
    fs::write(&torn_journal, &torn).expect("write torn journal");

    // Resume on a *different* worker count: completed rows are reused
    // verbatim, the rest re-execute, and the output is bit-identical.
    let resumed = run_campaign(&Fleet::new(1), &cfg, &torn_journal, true).expect("resume");
    assert_eq!(resumed.reused, survivors, "torn tail must be discarded");
    assert_eq!(resumed.executed, reference.rows.len() - survivors);
    assert_eq!(resumed.rows, reference.rows);
    assert_eq!(resumed.csv(), reference.csv());

    // A second resume over the now-complete journal executes nothing.
    let replay = run_campaign(&Fleet::new(2), &cfg, &torn_journal, true).expect("replay");
    assert_eq!(replay.executed, 0);
    assert_eq!(replay.reused, reference.rows.len());
    assert_eq!(replay.rows, reference.rows);

    cleanup(&ref_journal);
    cleanup(&torn_journal);
}

#[test]
fn fresh_run_restarts_a_stale_journal() {
    let cfg = tiny();
    let journal = temp_journal("restart");
    run_campaign(&Fleet::new(2), &cfg, &journal, false).expect("first run");
    let first = fs::read_to_string(&journal).expect("journal exists");

    // Without --resume the journal restarts from the fingerprint line; it
    // must not accumulate a second copy of every row.
    run_campaign(&Fleet::new(2), &cfg, &journal, false).expect("second run");
    let second = fs::read_to_string(&journal).expect("journal exists");
    assert_eq!(
        second.lines().count(),
        first.lines().count(),
        "journal must restart, not grow"
    );
    cleanup(&journal);
}
