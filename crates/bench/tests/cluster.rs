//! Process-level determinism contracts of the multi-process fleet,
//! driven through the real `campaign` binary:
//!
//! 1. **Worker-count independence** — the campaign CSV is byte-identical
//!    across `--procs {1, 2, 4}` and the in-process run.
//! 2. **Kill tolerance** — a worker process SIGKILL'd mid-campaign (the
//!    `TV_CLUSTER_KILL` hook delivers a real `SIGKILL` with a job in
//!    flight) is detected, its work reassigned, and the final CSV stays
//!    byte-identical — with spare workers *and* when the dead worker was
//!    the only one (respawn path).
//! 3. **Resume interop** — a journal torn mid-run (what `kill -9` of the
//!    *coordinator* leaves behind) resumes under `--procs` to the same
//!    bytes, so thread-mode and process-mode journals are interchangeable.

#![cfg(unix)]

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// Small enough for debug-profile CI, large enough that four workers all
/// get jobs: 3 synthetic + 1 RISC-V tuples = 4 jobs of 7 cells each.
const CAMPAIGN_ARGS: &[&str] = &[
    "--smoke", "--tuples", "3", "--riscv", "1", "--seed", "911", "--commits", "1000",
    "--warmup", "300",
];

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tv-cluster-it-{}-{tag}", std::process::id()));
    fs::remove_dir_all(&dir).ok();
    fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Runs the campaign binary into `out`, returning its output; panics on
/// a non-zero exit so failures show the captured stderr.
fn run_campaign(out: &Path, extra: &[&str], kill: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
    cmd.args(CAMPAIGN_ARGS)
        .args(["--out", out.to_str().expect("utf-8 path")])
        .args(extra)
        .env_remove("TV_CLUSTER_KILL");
    if let Some(spec) = kill {
        cmd.env("TV_CLUSTER_KILL", spec);
    }
    let output = cmd.output().expect("spawn campaign");
    assert!(
        output.status.success(),
        "campaign {extra:?} kill={kill:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr),
    );
    output
}

fn csv(out: &Path) -> String {
    fs::read_to_string(out.join("campaign.csv")).expect("campaign.csv")
}

#[test]
fn csv_is_byte_identical_across_proc_counts_and_mid_run_worker_sigkills() {
    // In-process reference.
    let ref_dir = temp_dir("ref");
    run_campaign(&ref_dir, &["--workers", "2"], None);
    let reference = csv(&ref_dir);

    // Worker-count sweep: 1, 2 and 4 processes.
    for procs in ["1", "2", "4"] {
        let dir = temp_dir(&format!("procs{procs}"));
        run_campaign(&dir, &["--procs", procs], None);
        assert_eq!(
            csv(&dir),
            reference,
            "--procs {procs} must be byte-identical to the in-process run"
        );
        fs::remove_dir_all(&dir).ok();
    }

    // A real mid-run SIGKILL with spare capacity: worker 0 of 2 dies the
    // moment its first job is in flight; the job goes back to the front
    // of the queue for the next idle worker.
    let kill_dir = temp_dir("kill-spare");
    let output = run_campaign(&kill_dir, &["--procs", "2"], Some("0@0"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("worker 0 died"),
        "the kill hook must have fired:\n{stderr}"
    );
    assert_eq!(
        csv(&kill_dir),
        reference,
        "a worker SIGKILL must not change a byte of the CSV"
    );
    fs::remove_dir_all(&kill_dir).ok();

    // The sole worker dies after finishing one job: recovery can only
    // come from the respawn path.
    let solo_dir = temp_dir("kill-solo");
    let output = run_campaign(&solo_dir, &["--procs", "1"], Some("0@1"));
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("respawned worker"),
        "losing the only worker must trigger a respawn:\n{stderr}"
    );
    assert_eq!(
        csv(&solo_dir),
        reference,
        "the respawned fleet must finish to identical bytes"
    );
    fs::remove_dir_all(&solo_dir).ok();
    fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn chaos_env_hook_survives_the_cluster_profile_to_identical_bytes() {
    // Fault-free reference.
    let ref_dir = temp_dir("chaos-ref");
    run_campaign(&ref_dir, &["--workers", "2"], None);
    let reference = csv(&ref_dir);

    // The same campaign under TV_CHAOS process-fabric injection: the
    // schedule is deterministic, and any run an injected fault kills is
    // resumed (exactly the operational recipe) until one completes.
    let dir = temp_dir("chaos-run");
    let mut banner_seen = false;
    let mut completed = false;
    for attempt in 0..10 {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_campaign"));
        cmd.args(CAMPAIGN_ARGS)
            .args(["--out", dir.to_str().expect("utf-8 path"), "--procs", "2"])
            .env_remove("TV_CLUSTER_KILL")
            .env("TV_CHAOS", "5:cluster");
        if attempt > 0 {
            cmd.arg("--resume");
        }
        let output = cmd.output().expect("spawn campaign");
        let stdout = String::from_utf8_lossy(&output.stdout);
        banner_seen |= stdout.contains("chaos: profile `cluster` seed 5 active");
        if output.status.success() {
            completed = true;
            break;
        }
    }
    assert!(banner_seen, "the campaign must announce the active chaos plan");
    assert!(completed, "no chaos run survived in 10 resume attempts");
    assert_eq!(
        csv(&dir),
        reference,
        "TV_CHAOS=5:cluster must not change a byte of the CSV"
    );
    fs::remove_dir_all(&dir).ok();
    fs::remove_dir_all(&ref_dir).ok();
}

#[test]
fn torn_journal_resumes_under_procs_to_identical_bytes() {
    // Uninterrupted reference (also supplies the journal to tear).
    let ref_dir = temp_dir("resume-ref");
    run_campaign(&ref_dir, &["--workers", "2"], None);
    let reference = csv(&ref_dir);

    // Model a coordinator kill -9: keep the meta line + three completed
    // rows + half of a fourth, no trailing newline.
    let journal = fs::read_to_string(ref_dir.join("campaign.journal")).expect("journal");
    let lines: Vec<&str> = journal.lines().collect();
    assert!(lines.len() > 4, "need rows to tear");
    let mut torn = lines[..4].join("\n");
    torn.push('\n');
    torn.push_str(&lines[4][..lines[4].len() / 2]);

    let resume_dir = temp_dir("resume");
    fs::write(resume_dir.join("campaign.journal"), &torn).expect("seed torn journal");
    run_campaign(&resume_dir, &["--procs", "2", "--resume"], None);
    assert_eq!(
        csv(&resume_dir),
        reference,
        "a torn thread-mode journal must resume on the process fleet to identical bytes"
    );

    fs::remove_dir_all(&resume_dir).ok();
    fs::remove_dir_all(&ref_dir).ok();
}
