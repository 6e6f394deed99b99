//! Open labeled transition systems (paper Def. 3.1) and a deterministic
//! runner with hardened execution budgets.
//!
//! An LTS `L : A ↠ B` describes a strategy for the game `A × E → B`: it is
//! activated by questions of `B`, takes internal steps emitting events of
//! `E`, may suspend on outgoing questions of `A` to be resumed by answers of
//! `A`, and eventually produces an answer of `B`.
//!
//! CompCert semantics are deterministic, so this trait exposes deterministic
//! transition *functions*; the relational Def. 3.1 specializes to this shape
//! (the runner's environment closure plays the role of the ∀-quantified
//! environment).
//!
//! # Budgets
//!
//! Every run is bounded by a [`RunBudget`]: a fuel bound (internal steps), an
//! optional live-memory quota, an optional call-depth quota, and an optional
//! wall-clock deadline. Exceeding a budget is an *outcome*
//! ([`RunOutcome::OutOfFuel`], [`RunOutcome::OutOfMemory`],
//! [`RunOutcome::DepthExceeded`], [`RunOutcome::TimedOut`]), never a panic —
//! the fault-injection campaign and the robustness suites rely on this to
//! survive arbitrarily corrupted components. Each failing outcome carries a
//! bounded [`StepTrace`] of the last states visited, so a stuck or diverging
//! run can be diagnosed without re-running under a debugger.

use std::borrow::Cow;
use std::fmt;
use std::time::{Duration, Instant};

use mem::Val;

use crate::iface::{Answer, LanguageInterface, Question};

/// An observable event (CompCert's `E`): system calls and annotations.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A system call with its arguments and result.
    Syscall {
        /// Name of the primitive.
        name: String,
        /// Integer arguments.
        args: Vec<Val>,
        /// Result value.
        result: Val,
    },
    /// A source-level annotation (used for tracing/debug).
    Annot(String),
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Syscall { name, args, result } => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ") -> {result}")
            }
            Event::Annot(s) => write!(f, "@{s}"),
        }
    }
}

/// Why a semantics got stuck ("went wrong" in CompCert terminology).
///
/// The reason is `Cow<'static, str>`-backed so hot interpreter loops can
/// report fixed conditions (`Stuck::new("division by zero")`) without any
/// formatting or allocation; diagnostic-rich sites keep using
/// `Stuck::new(format!(...))` unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Stuck {
    /// Human-readable reason.
    pub reason: Cow<'static, str>,
}

impl Stuck {
    /// Build a stuck marker from a `&'static str` (allocation-free) or an
    /// owned `String`.
    pub fn new(reason: impl Into<Cow<'static, str>>) -> Stuck {
        Stuck {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for Stuck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stuck: {}", self.reason)
    }
}

impl std::error::Error for Stuck {}

/// Result of one transition of an open LTS.
#[derive(Debug, Clone)]
pub enum Step<S, OQ, IA> {
    /// An internal step to a new state, emitting events.
    Internal(S, Vec<Event>),
    /// The state is final, with an incoming-interface answer (the `F`
    /// component of Def. 3.1).
    Final(IA),
    /// The state is external: it asks the outgoing question (the `X`
    /// component); the runner must later call
    /// [`Lts::resume`] on this same state with the environment's answer (the
    /// `Y` component).
    External(OQ),
    /// No transition applies: undefined behaviour.
    Stuck(Stuck),
}

/// Result of a *batched* stretch of transitions ([`Lts::step_batch`]).
///
/// A batch mutates the state in place and reports how many internal steps it
/// took, so the runner pays one virtual call for many steps instead of one
/// per step. The step count `n` is what makes a batch of any size account
/// for fuel exactly like `n` single transitions:
///
/// * `Ran(n)` — `n` internal steps were taken, `1 <= n <= fuel_left`; the
///   state is mid-execution and the runner will call again.
/// * `Final(n, a)` / `External(n, q)` / `Stuck(n, s)` — `n` internal steps
///   (`n < fuel_left`, strictly) were taken *before* the terminal condition
///   was discovered. Discovery itself costs no fuel — and because the runner
///   checks fuel *before* looking at the next transition, a batch that used
///   up all of `fuel_left` must report `Ran(fuel_left)` even if the very
///   next transition would be final: the runner then returns out-of-fuel.
///
/// For `External(n, q)` the state left behind must be the suspended external
/// state that [`Lts::resume`] accepts. A fuel-1 batch is therefore exactly
/// one transition ([`Lts::step`]).
#[derive(Debug, Clone)]
pub enum Batch<OQ, IA> {
    /// `n` internal steps taken; more work remains.
    Ran(u64),
    /// `n` internal steps, then a final answer was discovered.
    Final(u64, IA),
    /// `n` internal steps, then the component suspended on an outgoing
    /// question.
    External(u64, OQ),
    /// `n` internal steps, then no transition applied.
    Stuck(u64, Stuck),
}

/// Resource usage of one LTS state, as reported by [`Lts::measure`].
///
/// The runner compares this against the [`RunBudget`] quotas after every
/// internal step. The default is the zero measure (no resource tracked), so
/// existing LTSs are budget-transparent until they opt in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateMeasure {
    /// Live allocated memory, in bytes.
    pub mem_bytes: u64,
    /// Current call/continuation depth.
    pub call_depth: u64,
}

/// An open labeled transition system for the game `O ↠ I`
/// (paper Def. 3.1; `I` is the incoming interface `B`, `O` the outgoing
/// interface `A`).
pub trait Lts {
    /// Incoming language interface (`B` in the paper).
    type I: LanguageInterface;
    /// Outgoing language interface (`A` in the paper).
    type O: LanguageInterface;
    /// Internal states.
    type State: Clone + fmt::Debug;

    /// Display name for diagnostics.
    fn name(&self) -> String;

    /// The domain `D ⊆ B∘`: which incoming questions this component accepts.
    fn accepts(&self, q: &Question<Self::I>) -> bool;

    /// Initial state for an accepted question (the `I` component).
    ///
    /// # Errors
    /// Returns [`Stuck`] when the question is outside the domain or malformed.
    fn initial(&self, q: &Question<Self::I>) -> Result<Self::State, Stuck>;

    /// Take up to `fuel_left` internal steps *in place*, returning how many
    /// were taken and what (if anything) ended the batch — see [`Batch`] for
    /// the exact fuel-accounting contract. Events are appended to `events`.
    /// The runner only calls this with `fuel_left >= 1` and picks the chunk
    /// size itself (see [`run_budgeted`]), so implementations are free to
    /// mutate `s` without cloning.
    ///
    /// This is every LTS's one step definition: the stage interpreters run
    /// their dense dispatch loops, the composites (`⊕`, `∘`, `Closed`,
    /// [`crate::threaded::ThreadedLts`]) run the active component's own batch
    /// and apply their rules at its boundary, and a step-at-a-time semantics
    /// takes one transition (`Ran(1)`, or a terminal report with `n = 0`).
    fn step_batch(
        &self,
        s: &mut Self::State,
        fuel_left: u64,
        events: &mut Vec<Event>,
    ) -> Batch<Question<Self::O>, Answer<Self::I>>;

    /// One transition out of `s`: a fuel-1 batch on a clone of `s`. By the
    /// [`Batch`] contract a fuel-1 batch either takes exactly one step or
    /// discovers a terminal condition without taking one, which is exactly a
    /// single transition. For callers that inspect every transition (the
    /// Fig. 5 rule printer, tests); no implementation overrides it.
    fn step(&self, s: &Self::State) -> Step<Self::State, Question<Self::O>, Answer<Self::I>> {
        let mut s2 = s.clone();
        let mut events = Vec::new();
        match self.step_batch(&mut s2, 1, &mut events) {
            Batch::Ran(_) => Step::Internal(s2, events),
            Batch::Final(_, a) => Step::Final(a),
            Batch::External(_, oq) => Step::External(oq),
            Batch::Stuck(_, stuck) => Step::Stuck(stuck),
        }
    }

    /// Resume a suspended external state with the environment's answer, in
    /// place: `s` becomes the resumed state (Def. 3.1's `Y` takes the
    /// suspended state and nothing uses it afterwards, so nothing is
    /// copied).
    ///
    /// # Errors
    /// Returns [`Stuck`] if `s` is not suspended or the answer is
    /// unacceptable (e.g. ill-typed). After an `Err` the caller must not rely
    /// on `s`: every runner stops at a stuck resume. The stage semantics
    /// leave `s` unchanged.
    fn resume(&self, s: &mut Self::State, a: Answer<Self::O>) -> Result<(), Stuck>;

    /// Resource usage of `s`, checked against [`RunBudget`] quotas.
    ///
    /// The default reports the zero measure; language semantics override it
    /// to expose live memory and call depth (see `ClightSem`, `AsmSem`, and
    /// the `⊕`/`∘` combinators).
    fn measure(&self, _s: &Self::State) -> StateMeasure {
        StateMeasure::default()
    }
}

/// A borrowed LTS is the same LTS (Def. 3.1: one fixed LTS answers any number
/// of questions), so [`crate::threaded::ThreadedLts`] can wrap a shared `&L`.
impl<L: Lts + ?Sized> Lts for &L {
    type I = L::I;
    type O = L::O;
    type State = L::State;

    fn name(&self) -> String {
        (**self).name()
    }

    fn accepts(&self, q: &Question<Self::I>) -> bool {
        (**self).accepts(q)
    }

    fn initial(&self, q: &Question<Self::I>) -> Result<Self::State, Stuck> {
        (**self).initial(q)
    }

    fn step_batch(
        &self,
        s: &mut Self::State,
        fuel_left: u64,
        events: &mut Vec<Event>,
    ) -> Batch<Question<Self::O>, Answer<Self::I>> {
        (**self).step_batch(s, fuel_left, events)
    }

    fn resume(&self, s: &mut Self::State, a: Answer<Self::O>) -> Result<(), Stuck> {
        (**self).resume(s, a)
    }

    fn measure(&self, s: &Self::State) -> StateMeasure {
        (**self).measure(s)
    }
}

/// Whether (and how much of) the diagnostic [`StepTrace`] is retained.
///
/// `Ring(n)` keeps a ring of the last `n` visited states — one state clone
/// per step (cheap: memories are copy-on-write, but not free; a `⊕` state
/// copies its activation stack, O(depth)). `Off` makes
/// the runner's step loop genuinely zero-copy: no clone, no ring bookkeeping.
/// Throughput-critical callers (the fault-injection campaign, the perf
/// harness) run with `Off`; interactive/diagnostic callers keep the default
/// ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// Retain nothing; failing outcomes carry an empty trace.
    Off,
    /// Retain the last `n` states (`Ring(0)` behaves like `Off`).
    Ring(usize),
    /// Emit structured JSON-lines events (`compcerto-obs/1`) into the
    /// thread-local sink drained by [`crate::obs::take_trace`]: one
    /// `run-start` line, one `step`/`external` line per transition (step
    /// lines capped at [`crate::obs::MAX_STEP_EVENTS`] per run) and exactly
    /// one `terminal` line. No states are cloned or retained (the ring is
    /// empty), so failing outcomes carry an empty diagnostic trace — this
    /// mode trades the ring for a machine-readable event stream.
    Json,
}

impl TraceMode {
    /// Ring capacity (0 when off or in JSON-lines mode).
    pub fn capacity(self) -> usize {
        match self {
            TraceMode::Off | TraceMode::Json => 0,
            TraceMode::Ring(n) => n,
        }
    }

    /// True when no states are retained in the diagnostic ring.
    pub fn is_off(self) -> bool {
        self.capacity() == 0
    }
}

impl Default for TraceMode {
    fn default() -> TraceMode {
        TraceMode::Ring(DEFAULT_TRACE_CAPACITY)
    }
}

/// Execution budget for a single run of an open LTS.
///
/// `fuel` is always enforced; the other quotas are opt-in (`None` disables
/// them). `trace` selects the diagnostic [`StepTrace`] mode
/// ([`TraceMode::Off`] disables tracing — and per-step state clones —
/// entirely).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum number of internal steps.
    pub fuel: u64,
    /// Maximum live allocated bytes (per [`Lts::measure`]).
    pub max_mem_bytes: Option<u64>,
    /// Maximum call/continuation depth (per [`Lts::measure`]).
    pub max_call_depth: Option<u64>,
    /// Wall-clock deadline for the whole run.
    pub deadline: Option<Duration>,
    /// Diagnostic step-trace mode.
    pub trace: TraceMode,
}

/// Default capacity of the step-trace ring buffer.
pub const DEFAULT_TRACE_CAPACITY: usize = 16;

impl RunBudget {
    /// A budget enforcing only the fuel bound (plus the default trace).
    pub fn with_fuel(fuel: u64) -> RunBudget {
        RunBudget {
            fuel,
            max_mem_bytes: None,
            max_call_depth: None,
            deadline: None,
            trace: TraceMode::default(),
        }
    }

    /// Set the live-memory quota.
    #[must_use]
    pub fn mem_limit(mut self, bytes: u64) -> RunBudget {
        self.max_mem_bytes = Some(bytes);
        self
    }

    /// Set the call-depth quota.
    #[must_use]
    pub fn depth_limit(mut self, depth: u64) -> RunBudget {
        self.max_call_depth = Some(depth);
        self
    }

    /// Set the wall-clock deadline.
    #[must_use]
    pub fn deadline(mut self, d: Duration) -> RunBudget {
        self.deadline = Some(d);
        self
    }

    /// Set the step-trace capacity (`0` = [`TraceMode::Off`]).
    #[must_use]
    pub fn trace_capacity(mut self, cap: usize) -> RunBudget {
        self.trace = if cap == 0 {
            TraceMode::Off
        } else {
            TraceMode::Ring(cap)
        };
        self
    }

    /// Disable the diagnostic step trace: the runner's inner loop then
    /// performs no per-step state clone at all (the zero-copy fast path).
    #[must_use]
    pub fn no_trace(mut self) -> RunBudget {
        self.trace = TraceMode::Off;
        self
    }

    /// Emit structured JSON-lines trace events ([`TraceMode::Json`]) into
    /// the thread-local sink ([`crate::obs::take_trace`]) instead of
    /// retaining a state ring.
    #[must_use]
    pub fn json_trace(mut self) -> RunBudget {
        self.trace = TraceMode::Json;
        self
    }
}

impl Default for RunBudget {
    /// The default budget used throughout the harness: 10M steps, no other
    /// quotas.
    fn default() -> RunBudget {
        RunBudget::with_fuel(10_000_000)
    }
}

/// Which budget dimension a run exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// Fuel (internal step count).
    Fuel,
    /// Live memory quota.
    Memory,
    /// Call-depth quota.
    Depth,
    /// Wall-clock deadline.
    Time,
}

impl fmt::Display for BudgetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetKind::Fuel => write!(f, "fuel"),
            BudgetKind::Memory => write!(f, "memory"),
            BudgetKind::Depth => write!(f, "call depth"),
            BudgetKind::Time => write!(f, "deadline"),
        }
    }
}

/// One entry of a [`StepTrace`]: a step index and a rendered state.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Internal-step index at which the state was visited.
    pub step: u64,
    /// Truncated `Debug` rendering of the state.
    pub desc: String,
}

/// A bounded trace of the last states a failing run visited.
///
/// The runner keeps a ring buffer of cloned states (cheap: memories are
/// copy-on-write) and renders them only when the run fails, so the happy
/// path pays one clone per step and no formatting.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTrace {
    /// The retained tail of the run, oldest first.
    pub entries: Vec<TraceEntry>,
    /// How many earlier states were dropped from the ring.
    pub dropped: u64,
}

impl StepTrace {
    /// True when no states were retained (tracing disabled).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

impl fmt::Display for StepTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.dropped > 0 {
            writeln!(f, "  ... {} earlier steps elided ...", self.dropped)?;
        }
        for e in &self.entries {
            writeln!(f, "  #{:<6} {}", e.step, e.desc)?;
        }
        Ok(())
    }
}

/// Maximum characters retained per rendered trace state.
const TRACE_DESC_MAX: usize = 240;

/// Ring buffer of recent states; rendered lazily into a [`StepTrace`].
struct TraceRing<S> {
    cap: usize,
    buf: Vec<(u64, S)>,
    next: usize,
    dropped: u64,
}

impl<S: Clone + fmt::Debug> TraceRing<S> {
    fn new(cap: usize) -> TraceRing<S> {
        TraceRing {
            cap,
            buf: Vec::with_capacity(cap.min(64)),
            next: 0,
            dropped: 0,
        }
    }

    fn record(&mut self, step: u64, s: &S) {
        if self.cap == 0 {
            return;
        }
        if self.buf.len() < self.cap {
            self.buf.push((step, s.clone()));
        } else {
            self.buf[self.next] = (step, s.clone());
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    fn render(&self) -> StepTrace {
        let mut entries = Vec::with_capacity(self.buf.len());
        // Oldest-first: the ring's logical start is `next` once full.
        let start = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        for i in 0..self.buf.len() {
            let (step, s) = &self.buf[(start + i) % self.buf.len()];
            let mut desc = format!("{s:?}");
            if desc.len() > TRACE_DESC_MAX {
                let mut cut = TRACE_DESC_MAX;
                while !desc.is_char_boundary(cut) {
                    cut -= 1;
                }
                desc.truncate(cut);
                desc.push('…');
            }
            entries.push(TraceEntry { step: *step, desc });
        }
        StepTrace {
            entries,
            dropped: self.dropped,
        }
    }
}

/// Outcome of running an LTS to completion under an environment.
#[derive(Debug, Clone)]
pub enum RunOutcome<IA> {
    /// The component answered its incoming question.
    Complete {
        /// The answer.
        answer: IA,
        /// Events emitted along the way.
        trace: Vec<Event>,
        /// Number of internal steps taken.
        steps: u64,
    },
    /// The component went wrong.
    Wrong {
        /// Why no transition applies.
        stuck: Stuck,
        /// The last states visited before getting stuck.
        trace: StepTrace,
    },
    /// The environment declined to answer an outgoing question.
    EnvRefused(String),
    /// The fuel bound was exhausted (possibly silent divergence).
    OutOfFuel {
        /// The last states visited before fuel ran out.
        trace: StepTrace,
    },
    /// The live-memory quota was exceeded.
    OutOfMemory {
        /// Live bytes at the point of violation.
        used: u64,
        /// The configured quota.
        limit: u64,
        /// The last states visited.
        trace: StepTrace,
    },
    /// The call-depth quota was exceeded.
    DepthExceeded {
        /// Depth at the point of violation.
        depth: u64,
        /// The configured quota.
        limit: u64,
        /// The last states visited.
        trace: StepTrace,
    },
    /// The wall-clock deadline passed.
    TimedOut {
        /// Elapsed time when the deadline was noticed.
        elapsed: Duration,
        /// The last states visited.
        trace: StepTrace,
    },
}

/// A failed [`RunOutcome`], with the answer stripped (see
/// [`RunOutcome::into_answer`]).
#[derive(Debug, Clone)]
pub enum RunError {
    /// The component went wrong.
    Wrong {
        /// Why no transition applies.
        stuck: Stuck,
        /// The last states visited.
        trace: StepTrace,
    },
    /// The environment declined a question.
    EnvRefused(String),
    /// A budget dimension was exceeded.
    Budget {
        /// Which quota was violated.
        kind: BudgetKind,
        /// Human-readable detail (usage vs. limit).
        detail: String,
        /// The last states visited.
        trace: StepTrace,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Wrong { stuck, trace } => {
                write!(f, "component went wrong: {stuck}")?;
                if !trace.is_empty() {
                    write!(f, "\nlast states:\n{trace}")?;
                }
                Ok(())
            }
            RunError::EnvRefused(q) => write!(f, "environment refused question: {q}"),
            RunError::Budget {
                kind,
                detail,
                trace,
            } => {
                write!(f, "{kind} budget exceeded: {detail}")?;
                if !trace.is_empty() {
                    write!(f, "\nlast states:\n{trace}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

impl<IA> RunOutcome<IA> {
    /// Extract the answer, or a typed [`RunError`] describing the failure.
    ///
    /// This replaces the old panicking `expect_complete`: library code (the
    /// NIC scenario, the harness, the campaign runner) must stay panic-free
    /// even when a component diverges or exhausts its budget.
    ///
    /// # Errors
    /// Any outcome other than [`RunOutcome::Complete`].
    pub fn into_answer(self) -> Result<IA, RunError> {
        match self {
            RunOutcome::Complete { answer, .. } => Ok(answer),
            RunOutcome::Wrong { stuck, trace } => Err(RunError::Wrong { stuck, trace }),
            RunOutcome::EnvRefused(q) => Err(RunError::EnvRefused(q)),
            RunOutcome::OutOfFuel { trace } => Err(RunError::Budget {
                kind: BudgetKind::Fuel,
                detail: "step bound exhausted".into(),
                trace,
            }),
            RunOutcome::OutOfMemory { used, limit, trace } => Err(RunError::Budget {
                kind: BudgetKind::Memory,
                detail: format!("{used} live bytes > limit {limit}"),
                trace,
            }),
            RunOutcome::DepthExceeded {
                depth,
                limit,
                trace,
            } => Err(RunError::Budget {
                kind: BudgetKind::Depth,
                detail: format!("depth {depth} > limit {limit}"),
                trace,
            }),
            RunOutcome::TimedOut { elapsed, trace } => Err(RunError::Budget {
                kind: BudgetKind::Time,
                detail: format!("elapsed {elapsed:?}"),
                trace,
            }),
        }
    }

    /// Extract the answer of a [`RunOutcome::Complete`] outcome.
    ///
    /// # Panics
    /// Panics (with the failure reason) on any other outcome; intended
    /// strictly for tests and examples — library code goes through
    /// [`RunOutcome::into_answer`].
    pub fn expect_complete(self) -> IA {
        match self.into_answer() {
            Ok(a) => a,
            Err(e) => panic!("{e}"),
        }
    }

    /// The diagnostic step trace of a failing outcome (`None` when complete
    /// or refused by the environment).
    pub fn step_trace(&self) -> Option<&StepTrace> {
        match self {
            RunOutcome::Wrong { trace, .. }
            | RunOutcome::OutOfFuel { trace }
            | RunOutcome::OutOfMemory { trace, .. }
            | RunOutcome::DepthExceeded { trace, .. }
            | RunOutcome::TimedOut { trace, .. } => Some(trace),
            _ => None,
        }
    }
}

/// An environment for running an open LTS: answers the component's outgoing
/// questions. Returning `None` refuses the question (the run aborts with
/// [`RunOutcome::EnvRefused`]).
pub type Env<'e, OQ, OA> = dyn FnMut(&OQ) -> Option<OA> + 'e;

/// How many steps between wall-clock deadline checks (an `Instant::now()`
/// call is too expensive to pay on every step). Deadline-only runs end
/// their batches at multiples of this stride, so the checks land at the
/// same step counts whatever the batch sizes.
const DEADLINE_STRIDE: u64 = 1024;

/// Run `lts` on incoming question `q`, answering outgoing questions with
/// `env`, for at most `fuel` internal steps.
///
/// Convenience wrapper over [`run_budgeted`] enforcing only the fuel bound.
pub fn run<Sem: Lts>(
    lts: &Sem,
    q: &Question<Sem::I>,
    env: &mut Env<'_, Question<Sem::O>, Answer<Sem::O>>,
    fuel: u64,
) -> RunOutcome<Answer<Sem::I>> {
    run_budgeted(lts, q, env, &RunBudget::with_fuel(fuel))
}

/// Per-run statistics accumulated by a [`Run`] and consumed by the single
/// outer bookkeeping point of [`run_budgeted`].
#[derive(Default)]
pub(crate) struct RunStats {
    /// Internal steps taken (charged resumes included).
    pub(crate) steps: u64,
    /// Outgoing external calls handed to the environment.
    external_calls: u64,
    /// Observable events appended by `step_batch`.
    events: u64,
}

/// Run `lts` on incoming question `q` under the full [`RunBudget`].
///
/// This is the analog of closing a strategy against an environment strategy;
/// with an always-refusing `env` it runs closed components. Every quota
/// violation is reported as an outcome — this function never panics on
/// behalf of the component.
///
/// Observability (DESIGN.md §10): every run bumps the `lts.*` fields of
/// the thread-local [`mem::obs::CounterTable`] — `runs`, `steps`,
/// `external_calls`, `events`, and exactly one terminal-outcome counter —
/// at a *single* bookkeeping point after the step loop returns. Under
/// [`TraceMode::Json`] the runner also appends `compcerto-obs/1` JSON-lines
/// events to the thread-local sink (`run-start` before the loop,
/// `step`/`external` inside it, and exactly one `terminal` line at the same
/// single bookkeeping point — the ring trace and the sink never
/// double-report the final stuck/answer event).
pub fn run_budgeted<Sem: Lts>(
    lts: &Sem,
    q: &Question<Sem::I>,
    env: &mut Env<'_, Question<Sem::O>, Answer<Sem::O>>,
    budget: &RunBudget,
) -> RunOutcome<Answer<Sem::I>> {
    let json = budget.trace == TraceMode::Json;
    if json {
        crate::obs::emit_run_start(&lts.name());
    }
    let mut stats = RunStats::default();
    let outcome = run_inner(lts, q, env, budget, json, &mut stats);
    // Single bookkeeping point: whichever arm ended the inner loop, the
    // outcome counter is bumped and the `terminal` event emitted here and
    // only here — once per run, by construction.
    crate::obs::bump(|c| {
        c.runs += 1;
        c.steps += stats.steps;
        c.external_calls += stats.external_calls;
        c.events += stats.events;
        match &outcome {
            RunOutcome::Complete { .. } => c.completes += 1,
            RunOutcome::Wrong { .. } => c.wrongs += 1,
            RunOutcome::EnvRefused(_) => c.env_refused += 1,
            RunOutcome::OutOfFuel { .. } => c.out_of_fuel += 1,
            RunOutcome::OutOfMemory { .. } => c.out_of_memory += 1,
            RunOutcome::DepthExceeded { .. } => c.depth_exceeded += 1,
            RunOutcome::TimedOut { .. } => c.timed_out += 1,
        }
    });
    if json {
        let label = match &outcome {
            RunOutcome::Complete { .. } => "complete",
            RunOutcome::Wrong { .. } => "stuck",
            RunOutcome::EnvRefused(_) => "env-refused",
            RunOutcome::OutOfFuel { .. } => "out-of-fuel",
            RunOutcome::OutOfMemory { .. } => "out-of-memory",
            RunOutcome::DepthExceeded { .. } => "depth-exceeded",
            RunOutcome::TimedOut { .. } => "timed-out",
        };
        crate::obs::emit_terminal(label, stats.steps);
    }
    outcome
}

/// The environment loop of [`run_budgeted`]: a [`Run`] advances to each
/// interaction, the environment answers, and the resume is charged one
/// step. Deliberately returns *without* touching the outcome counters or
/// emitting the terminal trace event — that bookkeeping happens exactly once
/// in the caller.
fn run_inner<Sem: Lts>(
    lts: &Sem,
    q: &Question<Sem::I>,
    env: &mut Env<'_, Question<Sem::O>, Answer<Sem::O>>,
    budget: &RunBudget,
    json: bool,
    stats: &mut RunStats,
) -> RunOutcome<Answer<Sem::I>> {
    if !lts.accepts(q) {
        return RunOutcome::Wrong {
            stuck: Stuck::new(format!("{}: question not in domain", lts.name())),
            trace: StepTrace::default(),
        };
    }
    let state = match lts.initial(q) {
        Ok(s) => s,
        Err(stuck) => {
            return RunOutcome::Wrong {
                stuck,
                trace: StepTrace::default(),
            }
        }
    };
    let started = budget.deadline.map(|_| Instant::now());
    let mut run = Run::new(lts, budget, state, started, json);
    let mut trace = Vec::new();
    let outcome = loop {
        match run.next_interaction(&mut trace) {
            Ok(Interaction::Final(answer)) => {
                let steps = run.stats.steps;
                break RunOutcome::Complete {
                    answer,
                    trace,
                    steps,
                };
            }
            Ok(Interaction::External(oq)) => {
                run.stats.external_calls += 1;
                if json {
                    crate::obs::emit_external(run.stats.steps);
                }
                let Some(ans) = env(&oq) else {
                    break RunOutcome::EnvRefused(format!("{oq:?}"));
                };
                if let Err(stuck) = run.resume(ans, true) {
                    break RunOutcome::Wrong {
                        stuck,
                        trace: run.trace(),
                    };
                }
            }
            Err(failed) => break failed,
        }
    };
    *stats = run.stats;
    outcome
}

/// Where a [`Run`] stopped: an interaction of Def. 3.1 (the only points
/// at which the Fig. 6 diagrams constrain a simulation).
pub(crate) enum Interaction<L: Lts> {
    /// The component answered its incoming question.
    Final(Answer<L::I>),
    /// The component suspended on an outgoing question; answer it with
    /// [`Run::resume`].
    External(Question<L::O>),
}

/// One budgeted run of an LTS: its state, trace ring and tallies, advanced
/// from interaction to interaction by [`Run::next_interaction`]. This is
/// the one run loop: [`run_budgeted`] answers its interactions from the
/// environment, and the simulation checker ([`crate::sim`]) advances one
/// run per side and relates their interactions.
pub(crate) struct Run<'a, L: Lts> {
    lts: &'a L,
    budget: &'a RunBudget,
    state: L::State,
    ring: TraceRing<L::State>,
    started: Option<Instant>,
    json: bool,
    per_state: bool,
    /// Steps, external calls and events so far.
    pub(crate) stats: RunStats,
}

impl<'a, L: Lts> Run<'a, L> {
    /// A run at `state`, its step 0. `started` is when the
    /// budget's deadline started counting; `json` emits the
    /// `compcerto-obs/1` step lines.
    pub(crate) fn new(
        lts: &'a L,
        budget: &'a RunBudget,
        state: L::State,
        started: Option<Instant>,
        json: bool,
    ) -> Run<'a, L> {
        let quotas_on = budget.max_mem_bytes.is_some() || budget.max_call_depth.is_some();
        let mut ring = TraceRing::new(budget.trace.capacity());
        ring.record(0, &state);
        Run {
            lts,
            budget,
            state,
            ring,
            started,
            json,
            per_state: quotas_on || json || !budget.trace.is_off(),
            stats: RunStats::default(),
        }
    }

    /// The retained tail of the run.
    pub(crate) fn trace(&self) -> StepTrace {
        self.ring.render()
    }

    /// Record the state just reached at the current step count.
    fn visited(&mut self) {
        self.ring.record(self.stats.steps, &self.state);
        if self.json && self.stats.steps <= crate::obs::MAX_STEP_EVENTS {
            crate::obs::emit_step(self.stats.steps);
        }
    }

    /// Resume the suspended state with `a`, in place. The runner charges the
    /// resume one step (`charge`); the simulation checker does not.
    ///
    /// # Errors
    /// The component's [`Stuck`] when it refuses the answer.
    pub(crate) fn resume(&mut self, a: Answer<L::O>, charge: bool) -> Result<(), Stuck> {
        self.lts.resume(&mut self.state, a)?;
        if charge {
            self.stats.steps += 1;
        }
        self.visited();
        Ok(())
    }

    /// Run to the next interaction, appending events to `events`.
    ///
    /// There is one loop, over [`Lts::step_batch`]; the budget picks the
    /// chunk (the most fuel one batch may use):
    ///
    /// * 1 when something observes every intermediate state — a ring trace
    ///   (one clone per state), the JSON trace (one `step` line per step) or
    ///   a quota (measured on every state);
    /// * with only a deadline, up to the next multiple of
    ///   [`DEADLINE_STRIDE`], so the deadline (and an armed envfault jitter,
    ///   which counts checks) is checked at exactly the step counts a
    ///   step-at-a-time loop would give;
    /// * otherwise all the fuel left.
    ///
    /// The [`Batch`] contract makes every chunking observationally
    /// identical: same answers, step/event tallies, stuck reports and fuel
    /// boundary.
    ///
    /// # Errors
    /// A failing [`RunOutcome`] (stuck, or a budget exceeded) carrying the
    /// retained trace.
    pub(crate) fn next_interaction(
        &mut self,
        events: &mut Vec<Event>,
    ) -> Result<Interaction<L>, RunOutcome<Answer<L::I>>> {
        let budget = self.budget;
        loop {
            let steps = self.stats.steps;
            if steps >= budget.fuel {
                return Err(RunOutcome::OutOfFuel {
                    trace: self.trace(),
                });
            }
            if budget.max_mem_bytes.is_some() || budget.max_call_depth.is_some() {
                let m = self.lts.measure(&self.state);
                if let Some(limit) = budget.max_mem_bytes {
                    if m.mem_bytes > limit {
                        return Err(RunOutcome::OutOfMemory {
                            used: m.mem_bytes,
                            limit,
                            trace: self.trace(),
                        });
                    }
                }
                if let Some(limit) = budget.max_call_depth {
                    if m.call_depth > limit {
                        return Err(RunOutcome::DepthExceeded {
                            depth: m.call_depth,
                            limit,
                            trace: self.trace(),
                        });
                    }
                }
            }
            if let (Some(deadline), Some(start)) = (budget.deadline, self.started) {
                if steps.is_multiple_of(DEADLINE_STRIDE) {
                    let elapsed = start.elapsed();
                    // An armed envfault deadline jitter treats this check as
                    // if the clock had already jumped past the deadline — the
                    // only wall-clock-dependent outcome becomes
                    // deterministically reachable (the stride schedule is a
                    // pure function of the run).
                    if elapsed > deadline || crate::envfault::deadline_jitter_fires() {
                        return Err(RunOutcome::TimedOut {
                            elapsed,
                            trace: self.trace(),
                        });
                    }
                }
            }
            let fuel_left = budget.fuel - steps;
            let chunk = if self.per_state {
                1
            } else if self.started.is_some() {
                fuel_left.min(DEADLINE_STRIDE - steps % DEADLINE_STRIDE)
            } else {
                fuel_left
            };
            let events_before = events.len();
            let batch = self.lts.step_batch(&mut self.state, chunk, events);
            self.stats.events += (events.len() - events_before) as u64;
            match batch {
                Batch::Ran(n) => {
                    self.stats.steps += n;
                    self.visited();
                }
                Batch::Final(n, a) => {
                    self.stats.steps += n;
                    return Ok(Interaction::Final(a));
                }
                Batch::External(n, oq) => {
                    self.stats.steps += n;
                    return Ok(Interaction::External(oq));
                }
                Batch::Stuck(n, stuck) => {
                    self.stats.steps += n;
                    return Err(RunOutcome::Wrong {
                        stuck,
                        trace: self.trace(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CQuery, CReply, C};
    use mem::Mem;

    /// A toy LTS over `C ↠ C`: doubles its single argument, calling out to
    /// an external `inc` function first.
    struct Doubler;

    #[derive(Debug, Clone)]
    enum DState {
        Start(Val, Mem),
        Waiting(Val, Mem),
        Done(Val, Mem),
    }

    impl Lts for Doubler {
        type I = C;
        type O = C;
        type State = DState;

        fn name(&self) -> String {
            "doubler".into()
        }

        fn accepts(&self, q: &CQuery) -> bool {
            q.vf == Val::Ptr(100, 0)
        }

        fn initial(&self, q: &CQuery) -> Result<DState, Stuck> {
            Ok(DState::Start(q.args[0], q.mem.clone()))
        }

        fn step_batch(
            &self,
            s: &mut DState,
            _fuel_left: u64,
            _events: &mut Vec<Event>,
        ) -> Batch<CQuery, CReply> {
            match s {
                DState::Start(v, m) => Batch::External(
                    0,
                    CQuery {
                        vf: Val::Ptr(200, 0),
                        sig: crate::iface::Signature::int_fn(1),
                        args: vec![*v],
                        mem: m.clone(),
                    },
                ),
                DState::Waiting(v, m) => {
                    *s = DState::Done(v.add(*v), std::mem::take(m));
                    Batch::Ran(1)
                }
                DState::Done(v, m) => Batch::Final(
                    0,
                    CReply {
                        retval: *v,
                        mem: m.clone(),
                    },
                ),
            }
        }

        fn resume(&self, s: &mut DState, a: CReply) -> Result<(), Stuck> {
            match s {
                DState::Start(_, _) => {
                    *s = DState::Waiting(a.retval, a.mem);
                    Ok(())
                }
                _ => Err(Stuck::new("resume in non-external state")),
            }
        }
    }

    /// An LTS that spins forever (for budget tests).
    struct Spinner;

    impl Lts for Spinner {
        type I = C;
        type O = C;
        type State = u64;

        fn name(&self) -> String {
            "spinner".into()
        }

        fn accepts(&self, _q: &CQuery) -> bool {
            true
        }

        fn initial(&self, _q: &CQuery) -> Result<u64, Stuck> {
            Ok(0)
        }

        fn step_batch(
            &self,
            s: &mut u64,
            _fuel_left: u64,
            _events: &mut Vec<Event>,
        ) -> Batch<CQuery, CReply> {
            *s += 1;
            Batch::Ran(1)
        }

        fn resume(&self, _s: &mut u64, _a: CReply) -> Result<(), Stuck> {
            Err(Stuck::new("spinner never suspends"))
        }

        fn measure(&self, s: &u64) -> StateMeasure {
            // Pretend each step allocates 8 bytes and deepens one call.
            StateMeasure {
                mem_bytes: s * 8,
                call_depth: *s,
            }
        }
    }

    /// A spinner whose batches take every step they are offered (for the
    /// chunk-policy tests).
    struct BatchSpinner;

    impl Lts for BatchSpinner {
        type I = C;
        type O = C;
        type State = u64;

        fn name(&self) -> String {
            "batch-spinner".into()
        }

        fn accepts(&self, _q: &CQuery) -> bool {
            true
        }

        fn initial(&self, _q: &CQuery) -> Result<u64, Stuck> {
            Ok(0)
        }

        fn step_batch(
            &self,
            s: &mut u64,
            fuel_left: u64,
            _events: &mut Vec<Event>,
        ) -> Batch<CQuery, CReply> {
            *s = s.wrapping_add(fuel_left);
            Batch::Ran(fuel_left)
        }

        fn resume(&self, _s: &mut u64, _a: CReply) -> Result<(), Stuck> {
            Err(Stuck::new("batch spinner never suspends"))
        }
    }

    fn query(n: i32) -> CQuery {
        CQuery {
            vf: Val::Ptr(100, 0),
            sig: crate::iface::Signature::int_fn(1),
            args: vec![Val::Int(n)],
            mem: Mem::new(),
        }
    }

    #[test]
    fn run_with_environment() {
        let out = run(
            &Doubler,
            &query(5),
            &mut |q: &CQuery| {
                Some(CReply {
                    retval: q.args[0].add(Val::Int(1)),
                    mem: q.mem.clone(),
                })
            },
            100,
        );
        // inc(5) = 6, doubled = 12.
        assert_eq!(out.expect_complete().retval, Val::Int(12));
    }

    #[test]
    fn refusing_environment_aborts() {
        let out = run(&Doubler, &query(5), &mut |_q: &CQuery| None, 100);
        assert!(matches!(out, RunOutcome::EnvRefused(_)));
    }

    #[test]
    fn question_outside_domain_is_wrong() {
        let mut q = query(5);
        q.vf = Val::Ptr(999, 0);
        let out = run(&Doubler, &q, &mut |_q: &CQuery| None, 100);
        assert!(matches!(out, RunOutcome::Wrong { .. }));
    }

    #[test]
    fn out_of_fuel_carries_trace() {
        let out = run(&Spinner, &query(0), &mut |_q: &CQuery| None, 50);
        match out {
            RunOutcome::OutOfFuel { trace } => {
                assert!(!trace.is_empty());
                assert_eq!(trace.len(), DEFAULT_TRACE_CAPACITY);
                // The last retained entry is the most recent state.
                assert_eq!(trace.entries.last().map(|e| e.step), Some(50));
                assert!(trace.dropped > 0);
            }
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    }

    #[test]
    fn memory_quota_enforced() {
        let budget = RunBudget::with_fuel(1_000).mem_limit(64);
        let out = run_budgeted(&Spinner, &query(0), &mut |_q: &CQuery| None, &budget);
        match out {
            RunOutcome::OutOfMemory { used, limit, trace } => {
                assert!(used > limit);
                assert_eq!(limit, 64);
                assert!(!trace.is_empty());
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn depth_quota_enforced() {
        let budget = RunBudget::with_fuel(1_000).depth_limit(5);
        let out = run_budgeted(&Spinner, &query(0), &mut |_q: &CQuery| None, &budget);
        match out {
            RunOutcome::DepthExceeded {
                depth,
                limit,
                trace,
            } => {
                assert_eq!(limit, 5);
                assert!(depth > limit);
                assert!(!trace.is_empty());
            }
            other => panic!("expected DepthExceeded, got {other:?}"),
        }
    }

    #[test]
    fn deadline_enforced() {
        let budget = RunBudget::with_fuel(u64::MAX).deadline(Duration::from_millis(5));
        let out = run_budgeted(&Spinner, &query(0), &mut |_q: &CQuery| None, &budget);
        assert!(matches!(out, RunOutcome::TimedOut { .. }));
    }

    #[test]
    fn trace_capacity_zero_disables_tracing() {
        let budget = RunBudget::with_fuel(10).trace_capacity(0);
        let out = run_budgeted(&Spinner, &query(0), &mut |_q: &CQuery| None, &budget);
        match out {
            RunOutcome::OutOfFuel { trace } => assert!(trace.is_empty()),
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    }

    #[test]
    fn into_answer_reports_budget_kind() {
        let out = run(&Spinner, &query(0), &mut |_q: &CQuery| None, 10);
        match out.into_answer() {
            Err(RunError::Budget { kind, .. }) => assert_eq!(kind, BudgetKind::Fuel),
            other => panic!("expected fuel budget error, got {other:?}"),
        }
    }

    #[test]
    fn ring_trace_runs_one_step_per_batch() {
        let out = run(&BatchSpinner, &query(0), &mut |_q: &CQuery| None, 50);
        match out {
            RunOutcome::OutOfFuel { trace } => {
                let steps: Vec<u64> = trace.entries.iter().map(|e| e.step).collect();
                let want: Vec<u64> = (35..=50).collect();
                assert_eq!(steps, want);
                assert_eq!(trace.entries.last().map(|e| e.desc.as_str()), Some("50"));
            }
            other => panic!("expected OutOfFuel, got {other:?}"),
        }
    }

    #[test]
    fn deadline_checks_land_on_the_stride_whatever_the_batch_size() {
        // The third strided check (steps 0, 1024, 2048) fires: a batch that
        // ran past a stride multiple would move it.
        let budget = RunBudget::with_fuel(u64::MAX)
            .deadline(Duration::from_secs(3600))
            .no_trace();
        crate::envfault::arm_deadline_jitter(3);
        let before = crate::obs::counters();
        let out = run_budgeted(&BatchSpinner, &query(0), &mut |_q: &CQuery| None, &budget);
        let steps = crate::obs::counters().since(&before).steps;
        crate::envfault::disarm();
        assert!(matches!(out, RunOutcome::TimedOut { .. }), "{out:?}");
        assert!(crate::envfault::take_deadline_fired());
        assert_eq!(steps, 2 * DEADLINE_STRIDE);
    }
}
