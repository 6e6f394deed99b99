//! Thread-aware open semantics: deterministic interleaving of component
//! instances over shared global memory (CompCertOC, Zhang et al. PLDI 2025).
//!
//! CompCertO's composition operators (`⊕` in [`crate::hcomp`], `∘` in
//! [`crate::seqcomp`]) combine *single-threaded* components: control moves
//! between them only along call/return edges. [`ThreadedLts`] adds the
//! missing operator: `n` component instances that each answer their own
//! incoming question, *share one global memory*, and interleave at the
//! exact seams the open semantics already exposes — external calls and
//! final answers. The schedule is an explicit, deterministic input
//! ([`Schedule`]), not an ambient source of nondeterminism, so a run is a
//! pure function of `(components, questions, schedule)` and can be replayed
//! bit-for-bit at every compilation stage.
//!
//! # Why interleaving only at external calls is the right cut
//!
//! Between two external calls a component takes *internal* steps only:
//! those are invisible to the environment and, crucially, their number is
//! stage-dependent (Clight takes different step counts than Asm for the
//! same slice). Preempting on a fuel quantum would therefore produce
//! different interleavings at different stages and no cross-stage oracle
//! could compare them. Cutting at external calls (and thread completions)
//! makes every slice atomic and locally sequential; the scheduler only ever
//! observes the *order* of external interactions, which compiled code
//! preserves stage-for-stage. That is exactly the cooperative discipline
//! CompCertOC's threaded simulation proofs exploit, and it is what lets the
//! differential oracle demand bitwise-equal schedule traces from all seven
//! stage interpreters.
//!
//! # Memory protocol
//!
//! Memory travels out of a component through its questions and back in
//! through answers ([`SharedMem`]). There is one authoritative memory, and
//! it moves from thread to thread at every scheduling boundary; it is never
//! copied:
//!
//! * activation — `shared` moves into a fresh thread's pending question
//!   before `initial`;
//! * dispatch — `shared` moves into the parked answer of a `Ready` thread,
//!   which is then resumed in place;
//! * suspension — when the running thread asks an external question, the
//!   environment's answer memory moves into `shared`, and the thread parks
//!   `Ready` with an empty answer memory until its next dispatch;
//! * completion — a finishing thread's answer memory moves into `shared`,
//!   and its `Done` answer keeps an empty memory.
//!
//! So while a thread runs, `shared` is empty and the running thread's state
//! holds the memory. The composite's final answer is thread 0's answer
//! carrying the final shared memory, so `ThreadedLts` with a single thread
//! is observationally the underlying component (up to the `sched:`/`exit:`
//! annotations).
//!
//! # Events
//!
//! Every dispatch emits `Annot("sched:k")` and every thread completion
//! emits `Annot("exit:k")` (optionally with a rendered answer, see
//! [`ThreadedLts::with_exit_renderer`]) — the annotation stream *is* the
//! schedule trace that the differential oracle compares across stages.
//!
//! # Budgets and throughput
//!
//! [`Lts::step_batch`] is the wrapper's one step definition (`step` is its
//! fuel-1 batch). It delegates each slice to the inner component's own
//! batched stepper, so the prepared interpreters' dispatch loops of
//! DESIGN.md §13 run whole slices and fuel accounting follows the [`Batch`]
//! contract exactly (dispatch and completion cost one outer step each;
//! terminal discovery is free). Schedule exploration is therefore
//! budget-bounded for free: run each schedule under its own
//! [`RunBudget`](crate::lts::RunBudget) via [`crate::lts::run_budgeted`].

use std::fmt;

use mem::Mem;

use crate::iface::{Answer, Question, SharedMem};
use crate::lts::{Batch, Event, Lts, StateMeasure, Stuck};
use crate::rng::SplitMix64;

/// A deterministic thread schedule: the policy deciding which runnable
/// thread executes the next slice at every scheduling boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Schedule {
    /// Cyclic hand-off: the first runnable thread strictly after the
    /// current one (wrapping), starting from thread 0.
    RoundRobin,
    /// Every decision is a uniform [`SplitMix64`] draw over the runnable
    /// set (including the initial dispatch), seeded by the carried value;
    /// equal seeds replay the same interleaving on every platform.
    Seeded(u64),
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::RoundRobin => write!(f, "rr"),
            Schedule::Seeded(s) => write!(f, "seeded:{s:016x}"),
        }
    }
}

/// Domain-separation salt for deriving schedule seeds from a campaign seed
/// (see [`schedules`]).
pub const SCHED_SEED_SALT: u64 = 0x5343_4845_4455_4c45; // "SCHEDULE"

/// The canonical schedule family explored per seed: schedule 0 is
/// [`Schedule::RoundRobin`], schedules `1..m` are [`Schedule::Seeded`] with
/// seeds drawn from a SplitMix64 stream domain-separated from `seed`.
///
/// Both the differential oracle and the `sched_campaign` bench derive their
/// schedule sets through this single function, so "schedule j of seed s"
/// means the same interleaving everywhere.
pub fn schedules(m: usize, seed: u64) -> Vec<Schedule> {
    let mut v = Vec::with_capacity(m);
    if m == 0 {
        return v;
    }
    v.push(Schedule::RoundRobin);
    let mut rng = SplitMix64::new(seed ^ SCHED_SEED_SALT);
    while v.len() < m {
        v.push(Schedule::Seeded(rng.next_u64()));
    }
    v
}

/// Execution state of one thread of a [`ThreadedLts`].
pub enum Slot<L: Lts> {
    /// Not yet activated; holds the pending incoming question (the shared
    /// memory moves into it at dispatch).
    Fresh(Question<L::I>),
    /// Activated and either mid-slice or suspended on the external question
    /// the composite last surfaced.
    Live(L::State),
    /// Suspended on an external call whose answer has arrived; the answer's
    /// memory is empty until the shared memory moves into it at dispatch.
    Ready(L::State, Answer<L::O>),
    /// Answered its incoming question; the answer's memory moved into the
    /// shared memory, so it is empty.
    Done(Answer<L::I>),
    /// Transient placeholder while a transition moves the slot's contents;
    /// never observable between [`Lts`] calls.
    Vacant,
}

impl<L: Lts> Clone for Slot<L> {
    fn clone(&self) -> Slot<L> {
        match self {
            Slot::Fresh(q) => Slot::Fresh(q.clone()),
            Slot::Live(s) => Slot::Live(s.clone()),
            Slot::Ready(s, a) => Slot::Ready(s.clone(), a.clone()),
            Slot::Done(a) => Slot::Done(a.clone()),
            Slot::Vacant => Slot::Vacant,
        }
    }
}

impl<L: Lts> fmt::Debug for Slot<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Slot::Fresh(q) => f.debug_tuple("Fresh").field(q).finish(),
            Slot::Live(s) => f.debug_tuple("Live").field(s).finish(),
            Slot::Ready(s, a) => f.debug_tuple("Ready").field(s).field(a).finish(),
            Slot::Done(a) => f.debug_tuple("Done").field(a).finish(),
            Slot::Vacant => write!(f, "Vacant"),
        }
    }
}

/// State of a [`ThreadedLts`] run: per-thread slots, the single
/// authoritative shared memory, the current thread, and the scheduler's
/// PRNG state (for [`Schedule::Seeded`]).
pub struct ThreadedState<L: Lts> {
    /// One slot per thread; thread 0 answers the composite's question.
    threads: Vec<Slot<L>>,
    /// The authoritative global memory between slices; empty while a
    /// thread runs, because the memory has moved into that thread.
    shared: Mem,
    /// Index of the thread owning the current slice.
    cur: usize,
    /// Scheduler PRNG (`None` for round-robin) — part of the state so a
    /// cloned state replays identically.
    rng: Option<SplitMix64>,
}

impl<L: Lts> Clone for ThreadedState<L> {
    fn clone(&self) -> ThreadedState<L> {
        ThreadedState {
            threads: self.threads.clone(),
            shared: self.shared.clone(),
            cur: self.cur,
            rng: self.rng.clone(),
        }
    }
}

impl<L: Lts> fmt::Debug for ThreadedState<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ThreadedState")
            .field("cur", &self.cur)
            .field("threads", &self.threads)
            .finish()
    }
}

impl<L: Lts> ThreadedState<L> {
    /// True when every thread has answered its question.
    fn all_done(&self) -> bool {
        self.threads.iter().all(|t| matches!(t, Slot::Done(_)))
    }

    /// Pick the next thread per the schedule; a no-op when nothing is
    /// runnable (the all-done case is handled before stepping).
    fn schedule_next(&mut self) {
        let runnable: Vec<usize> = (0..self.threads.len())
            .filter(|&k| !matches!(self.threads[k], Slot::Done(_)))
            .collect();
        if runnable.is_empty() {
            return;
        }
        self.cur = match &mut self.rng {
            Some(rng) => runnable[rng.below(runnable.len() as u64) as usize],
            None => *runnable
                .iter()
                .find(|&&k| k > self.cur)
                .unwrap_or(&runnable[0]),
        };
    }
}

/// Renders a thread's final answer into the `exit:` annotation, so the
/// schedule trace carries a stage-invariant observation of each exit value.
pub type ExitRenderer<L> = Box<dyn Fn(&Answer<<L as Lts>::I>) -> String>;

/// Deterministic threaded composition of open components (module docs).
///
/// Thread `k` runs `components[min(k, len-1)]` — one component replicated
/// across all threads ([`ThreadedLts::new`]) or a genuinely heterogeneous
/// bundle ([`ThreadedLts::compose`]). Thread 0 answers the composite's
/// incoming question; threads `1..` answer the `aux` questions.
pub struct ThreadedLts<L: Lts> {
    components: Vec<L>,
    aux: Vec<Question<L::I>>,
    schedule: Schedule,
    render_exit: Option<ExitRenderer<L>>,
}

impl<L: Lts> ThreadedLts<L> {
    /// One component instance shared by all threads: thread 0 runs the
    /// composite's question, each `aux` question gets its own thread.
    pub fn new(component: L, aux: Vec<Question<L::I>>, schedule: Schedule) -> ThreadedLts<L> {
        ThreadedLts {
            components: vec![component],
            aux,
            schedule,
            render_exit: None,
        }
    }

    /// Heterogeneous composition: thread `k` runs `components[min(k, len-1)]`.
    pub fn compose(
        components: Vec<L>,
        aux: Vec<Question<L::I>>,
        schedule: Schedule,
    ) -> ThreadedLts<L> {
        ThreadedLts {
            components,
            aux,
            schedule,
            render_exit: None,
        }
    }

    /// Attach a renderer mapping each thread's final answer into the
    /// `exit:k=…` annotation (used by the cross-stage oracle to observe
    /// every thread's exit value, not just thread 0's).
    #[must_use]
    pub fn with_exit_renderer(mut self, r: ExitRenderer<L>) -> ThreadedLts<L> {
        self.render_exit = Some(r);
        self
    }

    /// Number of threads the composition runs.
    pub fn thread_count(&self) -> usize {
        1 + self.aux.len()
    }

    /// The component instance backing thread `k`.
    fn component(&self, k: usize) -> &L {
        &self.components[k.min(self.components.len().saturating_sub(1))]
    }

    /// The composite's final answer: thread 0's answer carrying the final
    /// shared memory (only called once every thread is done, when `shared`
    /// holds the memory).
    fn final_answer(&self, s: &ThreadedState<L>) -> Result<Answer<L::I>, Stuck>
    where
        Answer<L::I>: SharedMem,
    {
        match s.threads.first() {
            Some(Slot::Done(a)) => {
                let mut a = a.clone();
                a.set_mem(s.shared.clone());
                Ok(a)
            }
            _ => Err(Stuck::new("threaded: final state without thread 0 answer")),
        }
    }
}

impl<L: Lts> Lts for ThreadedLts<L>
where
    Question<L::I>: SharedMem,
    Answer<L::I>: SharedMem,
    Question<L::O>: SharedMem,
    Answer<L::O>: SharedMem,
{
    type I = L::I;
    type O = L::O;
    type State = ThreadedState<L>;

    fn name(&self) -> String {
        match self.components.first() {
            Some(c) => format!(
                "threaded({} × {}, {})",
                c.name(),
                self.thread_count(),
                self.schedule
            ),
            None => "threaded(∅)".into(),
        }
    }

    fn accepts(&self, q: &Question<Self::I>) -> bool {
        match self.components.first() {
            Some(c) => c.accepts(q),
            None => false,
        }
    }

    fn initial(&self, q: &Question<Self::I>) -> Result<Self::State, Stuck> {
        if self.components.is_empty() {
            return Err(Stuck::new("threaded: no components"));
        }
        let mut threads = Vec::with_capacity(self.thread_count());
        threads.push(Slot::Fresh(q.clone()));
        for aq in &self.aux {
            threads.push(Slot::Fresh(aq.clone()));
        }
        let mut rng = match self.schedule {
            Schedule::Seeded(seed) => Some(SplitMix64::new(seed)),
            Schedule::RoundRobin => None,
        };
        // The very first dispatch is itself a schedule decision: round-robin
        // starts at thread 0, a seeded schedule draws it.
        let cur = match &mut rng {
            Some(r) => r.below(threads.len() as u64) as usize,
            None => 0,
        };
        Ok(ThreadedState {
            threads,
            shared: q.mem().clone(),
            cur,
            rng,
        })
    }

    fn step_batch(
        &self,
        s: &mut Self::State,
        fuel_left: u64,
        events: &mut Vec<Event>,
    ) -> Batch<Question<Self::O>, Answer<Self::I>> {
        let mut used = 0u64;
        loop {
            // Fuel first (like the classic loop), then free terminal
            // discovery: a batch that consumed everything reports Ran even
            // if the next look would find the composite final.
            if used == fuel_left {
                return Batch::Ran(used);
            }
            if s.all_done() {
                return match self.final_answer(s) {
                    Ok(a) => Batch::Final(used, a),
                    Err(stuck) => Batch::Stuck(used, stuck),
                };
            }
            let k = s.cur;
            match std::mem::replace(&mut s.threads[k], Slot::Vacant) {
                Slot::Fresh(mut q) => {
                    // Activation: move the shared memory in, then enter the
                    // component. Costs one outer step.
                    q.set_mem(std::mem::take(&mut s.shared));
                    events.push(Event::Annot(format!("sched:{k}")));
                    let comp = self.component(k);
                    let entered = if comp.accepts(&q) {
                        comp.initial(&q)
                    } else {
                        Err(Stuck::new(format!(
                            "threaded: thread {k} question not in domain"
                        )))
                    };
                    match entered {
                        Ok(st) => {
                            s.threads[k] = Slot::Live(st);
                            used += 1;
                        }
                        Err(stuck) => {
                            s.shared = q.take_mem();
                            s.threads[k] = Slot::Fresh(q);
                            return Batch::Stuck(used, stuck);
                        }
                    }
                }
                Slot::Ready(mut st, mut ans) => {
                    // Move the shared memory into the parked answer and
                    // resume the thread in place. Costs one outer step.
                    ans.set_mem(std::mem::take(&mut s.shared));
                    events.push(Event::Annot(format!("sched:{k}")));
                    let resumed = self.component(k).resume(&mut st, ans);
                    s.threads[k] = Slot::Live(st);
                    match resumed {
                        Ok(()) => used += 1,
                        Err(stuck) => return Batch::Stuck(used, stuck),
                    }
                }
                Slot::Live(mut st) => {
                    // Run the slice on the inner component's own batched
                    // stepper (its dispatch loop runs the slice). Inner fuel
                    // accounting maps 1:1 onto outer steps.
                    let batch = self
                        .component(k)
                        .step_batch(&mut st, fuel_left - used, events);
                    match batch {
                        Batch::Ran(n) => {
                            s.threads[k] = Slot::Live(st);
                            used += n;
                        }
                        Batch::Final(n, mut a) => {
                            // Completion: take back the thread's memory,
                            // retire it, reschedule. Costs one outer step
                            // (the inner contract guarantees
                            // n < fuel_left-used, so the +1 still fits).
                            used += n;
                            let label = match &self.render_exit {
                                Some(r) => format!("exit:{k}={}", r(&a)),
                                None => format!("exit:{k}"),
                            };
                            events.push(Event::Annot(label));
                            s.shared = a.take_mem();
                            s.threads[k] = Slot::Done(a);
                            used += 1;
                            s.schedule_next();
                        }
                        Batch::External(n, oq) => {
                            // Suspension: surface the question; the runner
                            // resumes us via `resume`, which reschedules.
                            s.threads[k] = Slot::Live(st);
                            used += n;
                            return Batch::External(used, oq);
                        }
                        Batch::Stuck(n, stuck) => {
                            s.threads[k] = Slot::Live(st);
                            used += n;
                            return Batch::Stuck(used, stuck);
                        }
                    }
                }
                Slot::Done(a) => {
                    // Defensive: reschedule off a finished thread for free
                    // (unreachable via the public protocol — the scheduler
                    // never parks `cur` on a Done slot unless all are done).
                    s.threads[k] = Slot::Done(a);
                    s.schedule_next();
                }
                Slot::Vacant => {
                    return Batch::Stuck(used, Stuck::new("threaded: vacant slot"));
                }
            }
        }
    }

    fn resume(&self, s: &mut Self::State, mut a: Answer<Self::O>) -> Result<(), Stuck> {
        // The environment answered the current thread's external call: its
        // answer memory moves into the shared memory, the thread parks Ready
        // (the inner resume happens at its next dispatch), and the yield
        // point triggers a schedule decision.
        let k = s.cur;
        match std::mem::replace(&mut s.threads[k], Slot::Vacant) {
            Slot::Live(st) => {
                s.shared = a.take_mem();
                s.threads[k] = Slot::Ready(st, a);
                s.schedule_next();
                Ok(())
            }
            other => {
                s.threads[k] = other;
                Err(Stuck::new("threaded: resume with no suspended thread"))
            }
        }
    }

    fn measure(&self, s: &Self::State) -> StateMeasure {
        // The threads share one memory, counted once: the running (`Live`)
        // thread holds it, and between slices `shared` does. Call depth adds
        // up over the threads.
        let mut m = StateMeasure {
            mem_bytes: s.shared.allocated_bytes(),
            call_depth: 0,
        };
        for (k, t) in s.threads.iter().enumerate() {
            if let Slot::Live(st) | Slot::Ready(st, _) = t {
                let tm = self.component(k).measure(st);
                m.call_depth = m.call_depth.saturating_add(tm.call_depth);
                if let Slot::Live(_) = t {
                    m.mem_bytes = tm.mem_bytes;
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::{CQuery, CReply, Signature, C};
    use crate::lts::{run_budgeted, RunBudget, RunOutcome};
    use mem::{Chunk, Mem, Val};

    /// A toy open component over `C ↠ C`: loads the shared counter at
    /// `Ptr(g, 0)`, calls the external `inc` on it, stores the incremented
    /// counter back, and returns the value it originally loaded.
    ///
    /// Two instances racing on the counter observe each other's stores, so
    /// return values depend on the schedule while the final counter value
    /// does not — exactly the shape the oracle exercises at scale.
    struct Bumper {
        g: u32,
    }

    #[derive(Debug, Clone)]
    enum BState {
        Loaded(Val, Mem),
        Storing(Val, Val, Mem),
        Done(Val, Mem),
    }

    const CHUNK: Chunk = Chunk::Any64;

    impl Lts for Bumper {
        type I = C;
        type O = C;
        type State = BState;

        fn name(&self) -> String {
            "bumper".into()
        }

        fn accepts(&self, q: &CQuery) -> bool {
            q.vf == Val::Ptr(100, 0)
        }

        fn initial(&self, q: &CQuery) -> Result<BState, Stuck> {
            let v = q
                .mem
                .load(CHUNK, self.g, 0)
                .map_err(|e| Stuck::new(format!("load: {e:?}")))?;
            Ok(BState::Loaded(v, q.mem.clone()))
        }

        fn step_batch(
            &self,
            s: &mut BState,
            _fuel_left: u64,
            _events: &mut Vec<Event>,
        ) -> Batch<CQuery, CReply> {
            match s {
                BState::Loaded(v, m) => Batch::External(
                    0,
                    CQuery {
                        vf: Val::Ptr(200, 0),
                        sig: Signature::int_fn(1),
                        args: vec![*v],
                        mem: m.clone(),
                    },
                ),
                BState::Storing(orig, bumped, m) => match m.store(CHUNK, self.g, 0, *bumped) {
                    Ok(()) => {
                        *s = BState::Done(*orig, std::mem::take(m));
                        Batch::Ran(1)
                    }
                    Err(e) => Batch::Stuck(0, Stuck::new(format!("store: {e:?}"))),
                },
                BState::Done(v, m) => Batch::Final(
                    0,
                    CReply {
                        retval: *v,
                        mem: m.clone(),
                    },
                ),
            }
        }

        fn resume(&self, s: &mut BState, a: CReply) -> Result<(), Stuck> {
            match s {
                BState::Loaded(orig, _) => {
                    *s = BState::Storing(*orig, a.retval, a.mem);
                    Ok(())
                }
                _ => Err(Stuck::new("resume in non-external state")),
            }
        }
    }

    fn inc_env(q: &CQuery) -> Option<CReply> {
        Some(CReply {
            retval: q.args[0].add(Val::Int(1)),
            mem: q.mem.clone(),
        })
    }

    /// Memory with one global counter block initialized to `init`; returns
    /// `(mem, block)`.
    fn counter_mem(init: i32) -> (Mem, u32) {
        let mut m = Mem::new();
        let g = m.alloc(0, 8);
        m.store(CHUNK, g, 0, Val::Int(init)).ok();
        (m, g)
    }

    fn bquery(mem: Mem) -> CQuery {
        CQuery {
            vf: Val::Ptr(100, 0),
            sig: Signature::int_fn(0),
            args: vec![],
            mem,
        }
    }

    fn annots(events: &[Event]) -> Vec<String> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Annot(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    fn run_threaded(nthreads: usize, schedule: Schedule, budget: &RunBudget) -> RunOutcome<CReply> {
        let (m, g) = counter_mem(10);
        let q = bquery(m);
        let aux = vec![q.clone(); nthreads - 1];
        let sem = ThreadedLts::new(Bumper { g }, aux, schedule)
            .with_exit_renderer(Box::new(|a: &CReply| format!("{:?}", a.retval)));
        run_budgeted(&sem, &q, &mut |oq: &CQuery| inc_env(oq), budget)
    }

    #[test]
    fn single_thread_behaves_like_inner() {
        let (m, g) = counter_mem(10);
        let q = bquery(m);
        let inner = run_budgeted(
            &Bumper { g },
            &q,
            &mut |oq: &CQuery| inc_env(oq),
            &RunBudget::with_fuel(100),
        );
        let outer = run_threaded(1, Schedule::RoundRobin, &RunBudget::with_fuel(100));
        match (inner, outer) {
            (
                RunOutcome::Complete { answer: a, .. },
                RunOutcome::Complete {
                    answer: b, trace, ..
                },
            ) => {
                assert_eq!(a.retval, b.retval);
                assert_eq!(a.mem.load(CHUNK, g, 0).ok(), b.mem.load(CHUNK, g, 0).ok());
                assert_eq!(annots(&trace), vec!["sched:0", "sched:0", "exit:0=Int(10)"]);
            }
            (i, o) => panic!("expected Complete/Complete, got {i:?} / {o:?}"),
        }
    }

    #[test]
    fn round_robin_interleaves_and_shares_memory() {
        let out = run_threaded(2, Schedule::RoundRobin, &RunBudget::with_fuel(100));
        match out {
            RunOutcome::Complete { answer, trace, .. } => {
                // Both threads load 10 before either stores (RR switches at
                // the external call), so both return 10 — a genuine lost
                // update, observable only because memory is shared.
                assert_eq!(answer.retval, Val::Int(10));
                assert_eq!(
                    annots(&trace),
                    vec![
                        "sched:0",
                        "sched:1",
                        "sched:0",
                        "exit:0=Int(10)",
                        "sched:1",
                        "exit:1=Int(10)"
                    ]
                );
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn shared_counter_final_value_is_schedule_dependent_returns_not_sum() {
        // Under RR both threads read 10 and both store 11: final counter 11.
        let (m, g) = counter_mem(10);
        let q = bquery(m);
        let sem = ThreadedLts::new(Bumper { g }, vec![q.clone()], Schedule::RoundRobin);
        let out = run_budgeted(
            &sem,
            &q,
            &mut |oq: &CQuery| inc_env(oq),
            &RunBudget::with_fuel(100),
        );
        match out {
            RunOutcome::Complete { answer, .. } => {
                assert_eq!(answer.mem.load(CHUNK, g, 0).ok(), Some(Val::Int(11)));
            }
            other => panic!("expected Complete, got {other:?}"),
        }
    }

    #[test]
    fn seeded_schedules_are_deterministic() {
        let budget = RunBudget::with_fuel(100);
        let a = run_threaded(3, Schedule::Seeded(7), &budget);
        let b = run_threaded(3, Schedule::Seeded(7), &budget);
        match (a, b) {
            (
                RunOutcome::Complete {
                    answer: a1,
                    trace: t1,
                    steps: s1,
                },
                RunOutcome::Complete {
                    answer: a2,
                    trace: t2,
                    steps: s2,
                },
            ) => {
                assert_eq!(a1, a2);
                assert_eq!(t1, t2);
                assert_eq!(s1, s2);
            }
            (x, y) => panic!("expected Complete/Complete, got {x:?} / {y:?}"),
        }
    }

    #[test]
    fn distinct_seeds_explore_distinct_interleavings() {
        let budget = RunBudget::with_fuel(100);
        let traces: Vec<Vec<String>> = (0..16u64)
            .map(
                |seed| match run_threaded(3, Schedule::Seeded(seed), &budget) {
                    RunOutcome::Complete { trace, .. } => annots(&trace),
                    other => panic!("expected Complete, got {other:?}"),
                },
            )
            .collect();
        let distinct: std::collections::BTreeSet<_> = traces.iter().collect();
        assert!(
            distinct.len() > 1,
            "16 seeds all produced the same interleaving"
        );
    }

    #[test]
    fn fast_and_classic_paths_agree() {
        for schedule in [Schedule::RoundRobin, Schedule::Seeded(42)] {
            let fast = run_threaded(3, schedule, &RunBudget::with_fuel(100).no_trace());
            let classic = run_threaded(3, schedule, &RunBudget::with_fuel(100));
            match (fast, classic) {
                (
                    RunOutcome::Complete {
                        answer: a1,
                        trace: t1,
                        steps: s1,
                    },
                    RunOutcome::Complete {
                        answer: a2,
                        trace: t2,
                        steps: s2,
                    },
                ) => {
                    assert_eq!(a1, a2, "{schedule}");
                    assert_eq!(t1, t2, "{schedule}");
                    assert_eq!(s1, s2, "{schedule}");
                }
                (x, y) => panic!("expected Complete/Complete, got {x:?} / {y:?}"),
            }
        }
    }

    #[test]
    fn fuel_boundary_matches_single_stepping() {
        // Find the exact step count, then check the fuel cliff in both the
        // batched and classic runner paths.
        let steps = match run_threaded(2, Schedule::RoundRobin, &RunBudget::with_fuel(1000)) {
            RunOutcome::Complete { steps, .. } => steps,
            other => panic!("expected Complete, got {other:?}"),
        };
        // The runner checks fuel before stepping, so discovering the final
        // state needs one more unit than the internal steps taken: fuel
        // `steps+1` completes, fuel `steps` runs out (in both paths).
        for budget in [
            RunBudget::with_fuel(steps + 1).no_trace(),
            RunBudget::with_fuel(steps + 1),
        ] {
            assert!(matches!(
                run_threaded(2, Schedule::RoundRobin, &budget),
                RunOutcome::Complete { .. }
            ));
        }
        for budget in [
            RunBudget::with_fuel(steps).no_trace(),
            RunBudget::with_fuel(steps),
        ] {
            assert!(matches!(
                run_threaded(2, Schedule::RoundRobin, &budget),
                RunOutcome::OutOfFuel { .. }
            ));
        }
    }

    #[test]
    fn schedule_family_shape() {
        let s = schedules(8, 123);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], Schedule::RoundRobin);
        assert!(s[1..].iter().all(|x| matches!(x, Schedule::Seeded(_))));
        // Derivation is a pure function of the seed.
        assert_eq!(schedules(8, 123), s);
        assert_ne!(schedules(8, 124)[1], s[1]);
        assert!(schedules(0, 1).is_empty());
    }
}
