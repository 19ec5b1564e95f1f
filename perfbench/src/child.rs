//! Spawning the program under test and reading its resource use from
//! outside: wall time measured here, CPU time from the kernel's accounting
//! of the reaped process (which folds in every descendant the process
//! itself reaped, such as cluster workers), and peak resident set sampled
//! from `/proc` while the processes live. The reaped `ru_maxrss` cannot
//! serve for the latter: it also counts the spawning parent's memory from
//! before `exec`.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads child resource usage through 64-bit Linux wait4 and /proc");

/// How often [`RssWatch`] samples. `VmHWM` is a high-water mark, so one
/// sample in a process's life suffices; the shortest-lived processes, the
/// cluster workers, live for a whole round.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(250);

/// Resource use of one reaped process tree.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// Wall time from spawn to reap.
    pub wall: Duration,
    /// User plus system CPU time of the process and its reaped descendants.
    pub cpu: Duration,
}

/// Peak resident set (`VmHWM`) of a live process, in KiB.
fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// `pid` and all its live descendants.
fn tree(pid: u32) -> Vec<u32> {
    let mut out = vec![pid];
    let mut i = 0;
    while i < out.len() {
        let tasks = fs::read_dir(format!("/proc/{}/task", out[i]))
            .into_iter()
            .flatten();
        for task in tasks.flatten() {
            let kids = fs::read_to_string(task.path().join("children")).unwrap_or_default();
            out.extend(
                kids.split_whitespace()
                    .filter_map(|p| p.parse::<u32>().ok()),
            );
        }
        i += 1;
    }
    out
}

/// Samples the peak resident set of a process tree until finished.
pub struct RssWatch {
    root: u32,
    stop: Arc<AtomicBool>,
    sampler: Option<JoinHandle<BTreeMap<u32, u64>>>,
}

impl RssWatch {
    /// Starts sampling `proc` and its descendants.
    pub fn start(proc: &Proc) -> RssWatch {
        let root = proc.child.id();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let sampler = std::thread::spawn(move || {
            let mut peaks = BTreeMap::new();
            while !flag.load(Ordering::SeqCst) {
                sample(root, &mut peaks);
                std::thread::sleep(RSS_SAMPLE_EVERY);
            }
            peaks
        });
        RssWatch {
            root,
            stop,
            sampler: Some(sampler),
        }
    }

    /// Takes a last sample (the root must still be alive) and returns the
    /// largest peak of any process seen, in MB (10^6 bytes).
    pub fn finish(mut self) -> f64 {
        let mut peaks = self.halt();
        sample(self.root, &mut peaks);
        peaks.values().copied().max().unwrap_or(0) as f64 * 1024.0 / 1e6
    }

    /// Stops and joins the sampler, returning its peaks (none if it
    /// panicked or was already joined).
    fn halt(&mut self) -> BTreeMap<u32, u64> {
        self.stop.store(true, Ordering::SeqCst);
        self.sampler
            .take()
            .and_then(|t| t.join().ok())
            .unwrap_or_default()
    }
}

impl Drop for RssWatch {
    /// Joins the sampler on error paths that never called `finish`.
    fn drop(&mut self) {
        self.halt();
    }
}

fn sample(root: u32, peaks: &mut BTreeMap<u32, u64>) {
    for pid in tree(root) {
        if let Some(kb) = peak_rss_kb(pid) {
            let peak = peaks.entry(pid).or_insert(0);
            *peak = (*peak).max(kb);
        }
    }
}

/// A spawned program with a line-oriented stdout.
pub struct Proc {
    child: Child,
    spawned: Instant,
    /// Line reader over the child's stdout.
    pub stdout: BufReader<ChildStdout>,
    stdin: Option<ChildStdin>,
}

impl Proc {
    /// Spawns `cmd` with piped stdin/stdout and stderr appended to
    /// `stderr_log`.
    ///
    /// # Errors
    ///
    /// Spawn and log-file errors.
    pub fn spawn(mut cmd: Command, stderr_log: &Path) -> io::Result<Proc> {
        let log = File::options().create(true).append(true).open(stderr_log)?;
        // SAFETY: the closure runs in the forked child before `exec` and
        // only calls `prctl`, which is async-signal-safe and touches no
        // memory of ours. PR_SET_PDEATHSIG (1) with SIGKILL (9) ends the
        // child if the benchmark dies first, so no server outlives a run.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(1, 9) == 0 {
                    Ok(())
                } else {
                    Err(io::Error::last_os_error())
                }
            });
        }
        let spawned = Instant::now();
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::from(log))
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let stdin = child.stdin.take();
        Ok(Proc {
            child,
            spawned,
            stdout,
            stdin,
        })
    }

    /// When the process was spawned.
    pub fn spawned(&self) -> Instant {
        self.spawned
    }

    /// Reads one stdout line without its newline.
    ///
    /// # Errors
    ///
    /// Read errors, or end of output.
    pub fn line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "program closed its output",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Writes one line to the child's stdin.
    ///
    /// # Errors
    ///
    /// Write errors (a dead child).
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        let stdin = self.stdin.as_mut().expect("stdin still open");
        stdin.write_all(format!("{line}\n").as_bytes())?;
        stdin.flush()
    }

    /// Closes stdin, reaps the process and returns its exit code (`None`
    /// when a signal ended it) and resource use.
    ///
    /// # Errors
    ///
    /// `wait4` failures.
    pub fn reap(mut self) -> io::Result<(Option<i32>, Usage)> {
        drop(self.stdin.take());
        let (status, rusage) = reap_pid(self.child.id() as i32)?;
        let wall = self.spawned.elapsed();
        let exit = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
        Ok((
            exit,
            Usage {
                wall,
                cpu: rusage.cpu(),
            },
        ))
    }

    /// Kills and reaps the process (error paths).
    pub fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.reap();
    }
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals, then fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    longs: [i64; 14],
}

impl Rusage {
    fn cpu(&self) -> Duration {
        let us = |t: &Timeval| t.tv_sec.max(0) as u64 * 1_000_000 + t.tv_usec.max(0) as u64;
        Duration::from_micros(us(&self.ru_utime) + us(&self.ru_stime))
    }
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn getrusage(who: i32, rusage: *mut Rusage) -> i32;
    fn prctl(option: i32, ...) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Pins this process to the highest-numbered CPU it may run on and returns
/// that CPU. Processes it spawns inherit the pin, so the program, its
/// cluster worker, the server and the load generator all share one CPU.
/// The load is a closed loop, so they never want the CPU at once, and no
/// request waits for a wake-up sent across CPUs. It also leaves the other
/// CPUs idle: on a 2-vCPU guest a busy loop on one vCPU has slowed
/// simulation on the other by about 30%, so work there can move the
/// measurement.
///
/// # Errors
///
/// The affinity calls' errors; the run then goes on unpinned.
pub fn pin_one_cpu() -> io::Result<usize> {
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a live, exclusively borrowed buffer of `size`
    // bytes; the kernel writes at most `size` bytes of CPU mask into it.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .rev()
        .find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| io::Error::other("empty CPU mask"))?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a live buffer of `size` bytes that the kernel only
    // reads.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(cpu)
}

/// Blocks until `pid` exits; returns its raw wait status and rusage.
fn reap_pid(pid: i32) -> io::Result<(i32, Rusage)> {
    let mut status = 0i32;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed and
        // laid out as the kernel expects (`int` and 64-bit `struct rusage`);
        // the kernel writes only within them.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// CPU time this process (the load generator) has used so far.
pub fn self_cpu() -> Duration {
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, exclusively borrowed 64-bit `struct
    // rusage`; RUSAGE_SELF (0) is always a valid `who`.
    let rc = unsafe { getrusage(0, &mut usage) };
    if rc == 0 {
        usage.cpu()
    } else {
        Duration::ZERO
    }
}
