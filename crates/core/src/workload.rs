//! Workload naming: one string names either a synthetic SPEC-like
//! benchmark or a real RISC-V program.
//!
//! Harness binaries accept `--workload <name>`, where `<name>` is a
//! benchmark name (`gcc`, `astar`, …) or `riscv:<program>` with
//! `<program>` one of the built-in assembly programs shipped under
//! `examples/asm/` (`riscv:matmul`) or a path to an `.asm` file on disk
//! (`riscv:examples/asm/matmul.asm`). The built-ins are compiled into the
//! binary, so campaigns and tests never depend on the working directory.

use std::fmt;
use std::sync::{Arc, OnceLock};

use tv_workloads::riscv::assemble;
use tv_workloads::{Benchmark, RiscvProgram, WorkloadSpec};

use crate::persist::{fnv1a, fnv1a_word};

/// The built-in RISC-V programs, embedded from `examples/asm/`.
pub const BUILTIN_ASM: [(&str, &str); 6] = [
    ("matmul", include_str!("../../../examples/asm/matmul.asm")),
    ("quicksort", include_str!("../../../examples/asm/quicksort.asm")),
    ("checksum", include_str!("../../../examples/asm/checksum.asm")),
    ("rle", include_str!("../../../examples/asm/rle.asm")),
    ("hazard_raw", include_str!("../../../examples/asm/hazard_raw.asm")),
    ("hazard_branch", include_str!("../../../examples/asm/hazard_branch.asm")),
];

/// A named workload: a synthetic benchmark or an assembled RISC-V program.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A synthetic SPEC CPU2006-like benchmark profile.
    Bench(Benchmark),
    /// An assembled RISC-V program and the name it was resolved under.
    Riscv {
        /// Registry name or source path, as given to [`Workload::parse`].
        name: String,
        /// The assembled program.
        program: Arc<RiscvProgram>,
    },
}

/// Equality, hashing and fingerprinting all derive from
/// [`Workload::content_hash`]: two workloads are the same experiment
/// input exactly when they run the same instructions, regardless of the
/// name they were resolved under. A builtin and a file path holding the
/// identical assembly compare equal *and* key identically in journals and
/// the result store; a re-used name over different contents does not
/// alias.
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.content_hash() == other.content_hash()
    }
}

impl Eq for Workload {}

impl std::hash::Hash for Workload {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.content_hash());
    }
}

impl Workload {
    /// Resolves a workload name: `riscv:<builtin-or-path>` or a benchmark
    /// name.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the valid choices when the
    /// name matches no benchmark and no built-in, the file cannot be read,
    /// or the assembly is malformed.
    pub fn parse(name: &str) -> Result<Workload, String> {
        if let Some(spec) = name.strip_prefix("riscv:") {
            return Self::parse_riscv(spec);
        }
        Benchmark::ALL
            .iter()
            .find(|b| b.name() == name)
            .map(|&b| Workload::Bench(b))
            .ok_or_else(|| {
                let benches: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
                format!(
                    "unknown workload `{name}`: expected one of {} or riscv:<{}|path.asm>",
                    benches.join("|"),
                    builtin_names().join("|"),
                )
            })
    }

    fn parse_riscv(spec: &str) -> Result<Workload, String> {
        if let Some(workload) = Self::builtin(spec) {
            return Ok(workload);
        }
        let src = std::fs::read_to_string(spec)
            .map_err(|e| format!("riscv workload `{spec}` is neither a built-in program ({}) nor a readable file: {e}", builtin_names().join("|")))?;
        let program = assemble(&src).map_err(|e| format!("{spec}: {e}"))?;
        Ok(Workload::Riscv {
            name: spec.to_string(),
            program: Arc::new(program),
        })
    }

    /// One of the [`BUILTIN_ASM`] programs by name. The programs are
    /// assembled once per process; every call hands out a clone of the
    /// same `Arc`.
    ///
    /// # Panics
    ///
    /// Panics if an embedded program fails to assemble (a build-time bug;
    /// the unit tests assemble every built-in).
    pub fn builtin(name: &str) -> Option<Workload> {
        let i = BUILTIN_ASM.iter().position(|(n, _)| *n == name)?;
        Some(Workload::Riscv {
            name: name.to_string(),
            program: Arc::clone(&builtin_programs()[i]),
        })
    }

    /// The names of the built-in RISC-V programs.
    pub fn builtin_names() -> Vec<&'static str> {
        builtin_names()
    }

    /// The workload's display name (`gcc`, `riscv:matmul`, …), stable for
    /// CSV rows and journal keys.
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b) => b.name().to_string(),
            Workload::Riscv { name, .. } => format!("riscv:{name}"),
        }
    }

    /// The pipeline-facing workload recipe.
    pub fn spec(&self) -> WorkloadSpec {
        match self {
            Workload::Bench(b) => WorkloadSpec::Synthetic(b.profile()),
            Workload::Riscv { program, .. } => WorkloadSpec::Riscv(program.clone()),
        }
    }

    /// Whether this is a finite real-program workload.
    pub fn is_riscv(&self) -> bool {
        matches!(self, Workload::Riscv { .. })
    }

    /// Content fingerprint of the workload: an FNV-1a hash over what the
    /// pipeline actually executes, not over the resolution name.
    ///
    /// Synthetic benchmarks hash their (stable) benchmark name, which
    /// fully determines the generated trace for a given seed. RISC-V
    /// workloads hash the assembled program image — base address plus
    /// every encoded instruction word — so the fingerprint follows the
    /// *bytes*, and renaming or relocating the source file changes
    /// nothing while editing one instruction changes everything. This is
    /// the value equality, `Hash`, the campaign journal fingerprint and
    /// the result-store key all derive from.
    pub fn content_hash(&self) -> u64 {
        match self {
            Workload::Bench(b) => fnv1a_word(fnv1a(b"bench:"), fnv1a(b.name().as_bytes())),
            Workload::Riscv { program, .. } => {
                let mut h = fnv1a(b"riscv:");
                h = fnv1a_word(h, u64::from(program.base()));
                for word in program.insts().iter().map(tv_workloads::riscv::Inst::encode) {
                    h = fnv1a_word(h, u64::from(word));
                }
                h
            }
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

impl From<Benchmark> for Workload {
    fn from(bench: Benchmark) -> Self {
        Workload::Bench(bench)
    }
}

fn builtin_names() -> Vec<&'static str> {
    BUILTIN_ASM.iter().map(|(n, _)| *n).collect()
}

/// The [`BUILTIN_ASM`] programs in table order, assembled on first use.
/// A campaign's store key fingerprints every RISC-V tuple's program, so
/// re-assembling per call would dominate a cached request.
fn builtin_programs() -> &'static [Arc<RiscvProgram>] {
    static PROGRAMS: OnceLock<Vec<Arc<RiscvProgram>>> = OnceLock::new();
    PROGRAMS.get_or_init(|| {
        BUILTIN_ASM
            .iter()
            .map(|(n, src)| {
                Arc::new(assemble(src).unwrap_or_else(|e| panic!("built-in {n}.asm: {e}")))
            })
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_builtin_assembles_and_parses() {
        for (name, _) in BUILTIN_ASM {
            let w = Workload::parse(&format!("riscv:{name}")).expect(name);
            assert!(w.is_riscv());
            assert_eq!(w.name(), format!("riscv:{name}"));
            match &w {
                Workload::Riscv { program, .. } => assert!(!program.is_empty()),
                Workload::Bench(_) => unreachable!(),
            }
        }
        assert_eq!(Workload::builtin_names().len(), BUILTIN_ASM.len());
    }

    #[test]
    fn builtins_are_assembled_once_and_shared() {
        for (name, src) in BUILTIN_ASM {
            let program = |w: Workload| match w {
                Workload::Riscv { program, .. } => program,
                Workload::Bench(_) => unreachable!(),
            };
            let a = program(Workload::builtin(name).expect(name));
            let b = program(Workload::parse(&format!("riscv:{name}")).expect(name));
            assert!(Arc::ptr_eq(&a, &b), "{name}: one program per process");
            assert_eq!(
                *a,
                assemble(src).expect(name),
                "{name}: same as a fresh assembly"
            );
        }
    }

    /// RISC-V PCs come from executing the program, so a built-in keeps
    /// the probe that builds every instruction, and it ends at the halt.
    #[test]
    fn riscv_builtins_probe_every_instruction_up_to_the_halt() {
        const BUDGET: u64 = 300_000;
        for (name, _) in BUILTIN_ASM {
            let spec = Workload::builtin(name).expect(name).spec();
            let mut reference = spec.source(0);
            let mut want = std::collections::BTreeMap::new();
            while let Some(inst) = reference.next_inst() {
                *want.entry(inst.pc).or_insert(0u64) += 1;
            }
            let want: Vec<(u64, u64)> = want.into_iter().collect();
            let got = spec.source(0).pc_counts(BUDGET);
            assert_eq!(got, want, "{name}");
            let executed: u64 = got.iter().map(|&(_, c)| c).sum();
            assert!(executed < BUDGET, "{name}: halts before the probe budget");
        }
    }

    #[test]
    fn benchmark_names_parse() {
        let w = Workload::parse("gcc").unwrap();
        assert_eq!(w, Workload::Bench(Benchmark::Gcc));
        assert!(!w.is_riscv());
        assert_eq!(w.name(), "gcc");
    }

    #[test]
    fn unknown_names_are_rejected_with_choices() {
        let err = Workload::parse("nonesuch").unwrap_err();
        assert!(err.contains("gcc"), "{err}");
        assert!(err.contains("matmul"), "{err}");
        let err = Workload::parse("riscv:nonesuch").unwrap_err();
        assert!(err.contains("matmul"), "{err}");
    }

    #[test]
    fn riscv_paths_load_from_disk() {
        let dir = std::env::temp_dir().join("tv_workload_parse_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tiny.asm");
        std::fs::write(&path, "li a0, 7\necall\n").unwrap();
        let w = Workload::parse(&format!("riscv:{}", path.display())).unwrap();
        assert!(w.is_riscv());
        // Malformed files report the assembler's line number.
        std::fs::write(&path, "li a0, 7\nbogus x1\necall\n").unwrap();
        let err = Workload::parse(&format!("riscv:{}", path.display())).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn equality_is_by_program_not_name() {
        let a = Workload::builtin("matmul").unwrap();
        let b = Workload::parse("riscv:matmul").unwrap();
        assert_eq!(a, b);
        assert_ne!(a, Workload::builtin("checksum").unwrap());
    }

    /// The content-hash contract: two names for the same assembled bytes
    /// are one workload (equal, same hash, same fingerprint), and one
    /// name over different bytes is two workloads — resolution names
    /// never leak into identity.
    #[test]
    fn content_hash_follows_bytes_not_names() {
        let dir = std::env::temp_dir().join(format!(
            "tv_workload_content_hash_{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();

        // The matmul builtin, re-resolved via a differently-named file on
        // disk: identical program, so identical identity everywhere.
        let (_, matmul_src) = BUILTIN_ASM
            .iter()
            .find(|(n, _)| *n == "matmul")
            .expect("matmul is a builtin");
        let alias = dir.join("renamed_matmul.asm");
        std::fs::write(&alias, matmul_src).unwrap();
        let builtin = Workload::builtin("matmul").unwrap();
        let by_path = Workload::parse(&format!("riscv:{}", alias.display())).unwrap();
        assert_ne!(builtin.name(), by_path.name(), "display names differ");
        assert_eq!(builtin, by_path, "same bytes, one workload");
        assert_eq!(builtin.content_hash(), by_path.content_hash());
        let hash_of = |w: &Workload| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            w.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash_of(&builtin), hash_of(&by_path), "Hash follows Eq");

        // The same file name re-written with different contents must not
        // alias the old identity.
        std::fs::write(&alias, "li a0, 1\nli a1, 2\nadd a0, a0, a1\necall\n").unwrap();
        let rewritten = Workload::parse(&format!("riscv:{}", alias.display())).unwrap();
        assert_eq!(by_path.name(), rewritten.name(), "same resolution name");
        assert_ne!(by_path, rewritten, "different bytes, different workload");
        assert_ne!(by_path.content_hash(), rewritten.content_hash());

        // Synthetic benchmarks fingerprint distinctly from each other and
        // from every RISC-V program.
        let gcc = Workload::parse("gcc").unwrap();
        let astar = Workload::parse("astar").unwrap();
        assert_ne!(gcc.content_hash(), astar.content_hash());
        assert_ne!(gcc.content_hash(), builtin.content_hash());

        std::fs::remove_dir_all(&dir).ok();
    }
}
