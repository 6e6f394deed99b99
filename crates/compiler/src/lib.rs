//! # The CompCertO-rs compiler driver and correctness harnesses
//!
//! * [`driver`] — the Table 3 pass pipeline ([`driver::compile_all`]);
//! * [`closed`] — closing open components into whole-program processes
//!   `1 ↠ W` (the (Sep)CompCert model of paper Table 4, §3.1);
//! * [`registry`] — the pass registry: per-pass simulation conventions as
//!   symbolic expressions (feeding the algebra derivation, paper Figs. 10/11)
//!   and source-module mapping (feeding the SLOC tables);
//! * [`extlib`] — a model external library implemented at every language
//!   interface (the well-behaved environment of Thm 3.8);
//! * [`harness`] — the Thm 3.5 / Thm 3.8 / Cor 3.9 differential checks;
//! * [`sloc`] — significant-lines-of-code accounting for Tables 3 and 5.

pub mod analyze;
pub mod closed;
pub mod difftest;
pub mod driver;
pub mod envfault;
pub mod extlib;
pub mod faultinj;
pub mod harness;
pub mod json;
pub mod obs;
pub mod par;
pub mod registry;
pub mod resilience;
pub mod sched;
pub mod serve;
pub mod sloc;
pub mod validate;

pub use analyze::{analysis_json, ANALYSIS_SCHEMA};
pub use closed::{run_closed, Closed, ClosedState};
pub use difftest::{
    check_program, check_query, check_query_sched, faultinj_escape_rates, run_seed, run_seed_obs,
    run_stage, DifftestCfg, EscapeRow, FindingKind, Obs, ObsVal, QueryVerdict, Reproducer,
    SchedObs, SchedVerdict, SeedObs, SeedOutcome, SeedReport, StageOutcome, StagePrograms, Verdict,
    STAGES,
};
pub use driver::{
    compile_all, compile_all_jobs, front_end, CompileError, CompiledUnit, CompilerOptions,
};
pub use extlib::ExtLib;
pub use faultinj::{
    intern_error_class, mutate, run_campaign, run_campaign_class, CampaignBase, CampaignCfg,
    CampaignReport, ClassStats, Mutant, Mutation, MutationClass, ERROR_CLASSES, MUTATION_CLASSES,
};
pub use harness::{
    c_query, check_cor39, check_cor39_budgeted, check_thm35, check_thm35_budgeted, check_thm38,
    check_thm38_budgeted, default_budget, try_c_query,
};
pub use obs::{
    intern_counter_key, ir_counters, Counters, MetricsReport, ObsSnapshot, UnitMetrics, OBS_SCHEMA,
};
pub use par::{available_parallelism, par_map, pool_stats, Jobs, PoolStats};
pub use registry::{pass_registry, PassInfo};
pub use resilience::{compile_all_resilient, contain, DegradeReason, ResilientBatch, UnitOutcome};
pub use sched::{
    intern_sched_counter_key, run_seed_sched, run_seed_sched_obs, SchedCfg, SchedSeedOutcome,
    SchedSeedReport, SCHED_AUX_SALT, SCHED_COUNTER_KEYS,
};
pub use serve::{
    run_stdio, run_unix, ServeConfig, Server, CACHE_SCHEMA, MAX_FRAME_BYTES, SERVE_SCHEMA,
};
pub use validate::validate_unit;
