//! Coverage-guided netlist/attack fuzzer for the IFC enforcement stack.
//!
//! The fuzzer closes the loop the rest of the repo leaves open: the lint
//! passes, the static checker, and the runtime tracking logic are each
//! tested against *hand-written* designs and attacks; this crate feeds
//! them a generated, mutated stream of both and holds the whole stack to
//! two invariants on every input:
//!
//! 1. **Bound-plane domination** — the static bound plane recomputed on
//!    the (possibly fault-injected) netlist dominates every runtime
//!    label either simulator surface observes. The executor only drives
//!    labels inside each port's annotated contract, so a violation here
//!    means the *analysis* is unsound, not the stimulus.
//! 2. **No protected leak** — replaying the input's attack programs on
//!    the real protected accelerator never delivers master-key
//!    ciphertext (or a debug read) to a tenant, under any tracking mode.
//!
//! A coverage map over lint findings, static violation sites, runtime
//! violation sites, observed tag-plane states, and kill stages guides
//! mutation ([`campaign`]); failures shrink to minimal witnesses
//! ([`shrink()`]); minimized witnesses live in the checked-in corpus and
//! replay as a deterministic regression gate ([`corpus`], exercised by
//! the `fuzz` guard of the `guards` benchmark binary in CI).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod corpus;
pub mod coverage;
pub mod exec;
pub mod input;
pub mod pipeline;
pub mod program;
pub mod prove;
pub mod replay;
pub mod rng;
pub mod shrink;
pub mod spec;
pub mod surgery;

pub use campaign::{run_campaign, CampaignConfig, CampaignResult, Witness};
pub use corpus::{load_corpus, replay_corpus, store_entry, CorpusEntry, CorpusReplay};
pub use coverage::{CoverageMap, InputCoverage, KillStage};
pub use exec::{run_generated, ExecOutcome, SeenViolation};
pub use input::{gen_input, mutate, FuzzInput};
pub use pipeline::{run_input, run_input_with, InputReport, PipelineConfig};
pub use program::{gen_programs, AttackOp, TenantProgram};
pub use prove::{fuzz_prove_options, prove_stage, role_env};
pub use replay::{mode_key, ProtectedReplayer, ReplayOutcome, REPLAY_MODES};
pub use rng::FuzzRng;
pub use shrink::{is_one_minimal, shrink, size};
pub use spec::{build_design, gen_spec, DebugPort, DesignSpec};
pub use surgery::{apply_surgery, gen_surgery, SurgeryOp};
