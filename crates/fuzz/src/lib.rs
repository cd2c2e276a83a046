//! # hpcsim-fuzz
//!
//! Coverage-guided adversarial scenario fuzzing for the simulation
//! engines, with a deterministic corpus and auto-minimized regression
//! tests.
//!
//! The replay engine ([`hpcsim_mpi::TraceSim`]), the DAG sweep engine
//! ([`hpcsim_mpi::TraceDag`]) and the fault machinery are specified to
//! agree with each other and to *diagnose* pathological inputs rather
//! than wedge. This crate stress-tests that specification:
//!
//! * [`generate()`] builds seeded, terminate-by-construction MPI
//!   programs; [`mutate`] breaks them in the ways real trace bugs do
//!   (reordering, tag/peer skew, collective imbalance,
//!   rendezvous-threshold straddling, fault escalation);
//! * [`run_scenario`] replays every candidate under the step-budget
//!   watchdog and cross-checks Dag-vs-Replay finish times bit-exactly
//!   as a differential oracle;
//! * a coverage map over probe/obs signals ([`coverage`]) decides
//!   which candidates earn a corpus slot, and a power-schedule
//!   scheduler ([`run_fuzz`]) decides which get mutated next;
//! * [`minimize()`] shrinks every finding into a self-contained
//!   regression (see `tests/corpus/` at the workspace root).
//!
//! Everything is reproducible from `(seed, iteration)` alone; the
//! campaign is byte-identical across `--jobs` settings. See DESIGN §17
//! for the grammar, the coverage buckets and the determinism contract,
//! and README "Fuzzing the simulator" for the CLI quickstart.

pub mod coverage;
pub mod exec;
pub mod fuzzer;
pub mod generate;
pub mod minimize;
pub mod scenario;

pub use coverage::{features, CoverageMap, OutcomeKind, Signals};
pub use exec::{run_scenario, RunReport};
pub use fuzzer::{canary_scenario, run_fuzz, CorpusEntry, Finding, FuzzConfig, FuzzReport};
pub use generate::{generate, mutate};
pub use minimize::{minimize, MinimizeResult};
pub use scenario::{FuzzScenario, FUZZ_MAGIC, MAX_OPS_PER_RANK, MAX_RANKS};
