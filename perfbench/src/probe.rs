//! Layer probes of a traced run. Every traced run reports every per-layer
//! metric: the standalone `workloads` probes always run, and each layer
//! the workload's own replay left unmeasured is timed on small fixed
//! inputs through the same replay code, into the same span recorder.

use std::hint::black_box;
use std::time::Instant;

use tv_core::{run_evaluations, CampaignConfig, Experiment, Fleet, RunConfig, Scheme};
use tv_serve::ResultStore;
use tv_timing::Voltage;
use tv_workloads::{Benchmark, TraceGenerator};

use crate::client;
use crate::metrics::Outcome;
use crate::serve::{self, Spec};
use crate::stats::median;
use crate::trace::Recorder;
use crate::{procs, regen, Ctx, DEFAULT_SEED};

/// Instructions per profile in the trace-generator probe.
const TRACE_PROBE_INSTS: u64 = 200_000;
/// Repetitions of the RISC-V assembly probe.
const ASSEMBLE_PROBE_REPS: usize = 20;
/// Hit requests the HTTP probe sends per spec.
const HTTP_PROBE_REPS: usize = 20;

/// `workloads.trace_ns_per_inst` over every grid profile, and
/// `workloads.riscv_assemble_us` over every built-in program.
pub fn workloads(out: &mut Outcome) {
    let t0 = Instant::now();
    for bench in Benchmark::ALL {
        let mut gen = TraceGenerator::new(bench.profile(), DEFAULT_SEED);
        for _ in 0..TRACE_PROBE_INSTS {
            black_box(gen.next_inst());
        }
    }
    let insts = TRACE_PROBE_INSTS * Benchmark::ALL.len() as u64;
    out.set(
        "workloads.trace_ns_per_inst",
        t0.elapsed().as_nanos() as f64 / insts as f64,
    );

    let names = tv_core::Workload::builtin_names();
    let t0 = Instant::now();
    for _ in 0..ASSEMBLE_PROBE_REPS {
        for name in &names {
            black_box(tv_core::Workload::builtin(name));
        }
    }
    let per = t0.elapsed().as_secs_f64() * 1e6 / (ASSEMBLE_PROBE_REPS * names.len()) as f64;
    out.set("workloads.riscv_assemble_us", per);
}

/// Copies the metrics of `probe` that `out` lacks.
fn fill(out: &mut Outcome, probe: Outcome) {
    for (name, value) in probe.values {
        out.values.entry(name).or_insert(value);
    }
}

/// Times every layer the workload's replay left unmeasured.
///
/// # Errors
///
/// A probe's store, server or cluster that cannot run.
pub fn fill_layers(ctx: &Ctx, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    let lacks = |out: &Outcome, name: &str| !out.values.contains_key(name);

    // uarch and the fleet: one benchmark's six schemes, short jobs.
    if lacks(out, "uarch.run_ns_per_cycle") || lacks(out, "core.fleet.overhead_pct") {
        let config = RunConfig {
            commits: 10_000,
            warmup: 5_000,
            seed: DEFAULT_SEED,
            ..RunConfig::quick()
        };
        let specs = vec![(
            Experiment::new(Benchmark::Gcc, Voltage::low_fault(), config),
            Scheme::ALL.to_vec(),
        )];
        let mut probe = Outcome::default();
        regen::replay_jobs(rec, config, &specs, &mut probe);
        let (_, stats) = run_evaluations(&Fleet::new(1), &specs);
        let overhead = 1.0 - stats.serial_equivalent.as_secs_f64() / stats.elapsed.as_secs_f64();
        probe.set("core.fleet.overhead_pct", overhead * 100.0);
        fill(out, probe);
    }

    // The store, the campaign runner and HTTP: three small cold requests
    // replayed as misses and then as hits, and the hits sent to a server.
    let serve_layers = [
        "serve.store.publish_ms",
        "serve.store.get_us",
        "core.campaign.cell_ms_p50",
        "serve.http.healthz_rtt_us",
    ];
    if serve_layers.iter().any(|m| lacks(out, m)) {
        let specs: Vec<Spec> = (0..3)
            .map(|i| {
                Spec::new(format!(
                    "{{\"tuples\":1,\"riscv\":1,\"seed\":{i},\"commits\":2000,\"warmup\":1000}}"
                ))
            })
            .collect::<Result<_, _>>()?;
        let refs: Vec<&Spec> = specs.iter().collect();
        let dir = ctx.work.join("probe-store");
        let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
        let mut probe = Outcome::default();
        let from = rec.spans().len();
        rec.time("serve.store.fsck", 0, || store.fsck());
        let misses = serve::replay(&refs, &store, rec);
        let hits = serve::replay(&refs, &store, rec);
        serve::layer_metrics(rec, from, &misses, &mut probe);

        let (server, _) = serve::start(ctx, &dir)?;
        probe.set(
            "serve.http.healthz_rtt_us",
            serve::healthz_rtt_us(server.addr),
        );
        let mut latencies_us = Vec::new();
        for _ in 0..HTTP_PROBE_REPS {
            for spec in &specs {
                let reply = client::send(
                    server.addr,
                    "POST",
                    "/campaign",
                    spec.body.as_bytes(),
                    std::time::Duration::from_secs(60),
                )
                .map_err(|e| format!("probe request: {e}"))?;
                latencies_us.push(reply.total.as_secs_f64() * 1e6);
            }
        }
        serve::stop(server)?;
        let replayed_us: Vec<f64> = hits
            .request_ns()
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .collect();
        probe.set(
            "serve.http.overhead_us",
            median(&latencies_us) - median(&replayed_us),
        );
        fill(out, probe);
    }

    // The process fleet: a four-tuple co-sim campaign on one worker.
    if lacks(out, "core.cluster.first_reply_ms") {
        let config = CampaignConfig {
            tuples: 3,
            riscv_tuples: 1,
            campaign_seed: DEFAULT_SEED,
            commits: 2_000,
            warmup: 1_000,
            cosim: true,
            ..CampaignConfig::full()
        };
        let mut probe = Outcome::default();
        procs::replay_cluster(rec, &[config], &ctx.work.join("probe.journal"), &mut probe)?;
        fill(out, probe);
    }
    Ok(())
}
