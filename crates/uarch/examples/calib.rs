use tv_timing::Voltage;
use tv_uarch::{Pipeline, ToleranceMode};
use tv_workloads::Benchmark;

fn main() {
    println!(
        "{:12} {:>6} {:>6} {:>7} {:>7} {:>7}",
        "bench", "ipc", "paper", "mispr", "l1d", "l2"
    );
    for b in Benchmark::ALL {
        let stats = Pipeline::builder(b, 42)
            .tolerance(ToleranceMode::FaultFree)
            .voltage(Voltage::nominal())
            .build()
            .run(400_000);
        println!(
            "{:12} {:>6.2} {:>6.2} {:>6.1}% {:>6.1}% {:>6.1}%",
            b.name(),
            stats.ipc(),
            b.profile().paper_ipc,
            100.0 * stats.mispredict_rate(),
            100.0 * stats.l1d_miss_rate,
            100.0 * stats.l2_miss_rate
        );
    }
}
