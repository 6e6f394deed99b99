//! A generic open semantics for the structured intermediate languages
//! (Csharpminor, Cminor, CminorSel).
//!
//! These languages share their statement shapes and differ only in their
//! expression language and activation-record discipline; [`StructLang`]
//! captures the differences and [`StructSem`] provides a single `C ↠ C`
//! LTS implementation (paper Def. 3.1) for all of them.

use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

use compcerto_core::iface::{CQuery, CReply, Signature, C};
use compcerto_core::lts::{Batch, Event, Lts, Stuck};
use compcerto_core::symtab::{Ident, SymbolTable};
use mem::{Chunk, Mem, Val};

/// Temporary identifier (register-like local).
pub type TempId = u32;

/// Statements shared by the structured intermediate languages, generic over
/// the expression type `E`.
#[derive(Debug, Clone, PartialEq)]
pub enum GStmt<E> {
    /// No operation.
    Skip,
    /// `$t := e`.
    Set(TempId, E),
    /// `[addr] := value` through `chunk`.
    Store(Chunk, E, E),
    /// `dest := call name(args)`; the callee is a global symbol.
    Call(Option<TempId>, Ident, Vec<E>),
    /// Sequencing.
    Seq(Box<GStmt<E>>, Box<GStmt<E>>),
    /// Conditional.
    If(E, Box<GStmt<E>>, Box<GStmt<E>>),
    /// Loop.
    While(E, Box<GStmt<E>>),
    /// Exit the nearest loop.
    Break,
    /// Re-test the nearest loop.
    Continue,
    /// Return.
    Return(Option<E>),
}

impl<E> GStmt<E> {
    /// Sequence two statements, dropping `Skip`s.
    pub fn seq(a: GStmt<E>, b: GStmt<E>) -> GStmt<E> {
        match (a, b) {
            (GStmt::Skip, b) => b,
            (a, GStmt::Skip) => a,
            (a, b) => GStmt::Seq(Box::new(a), Box::new(b)),
        }
    }
}

/// What distinguishes one structured language from another.
pub trait StructLang {
    /// Function representation.
    type Fun;
    /// Expression representation.
    type Expr: Clone + fmt::Debug;
    /// Per-activation memory environment (allocated blocks).
    type Env: Clone + fmt::Debug;

    /// Language name for diagnostics.
    fn lang_name(&self) -> &'static str;

    /// Find a function defined by this unit.
    fn find_fun(&self, name: &str) -> Option<&Self::Fun>;

    /// Signature of a function or known external.
    fn sig_of(&self, name: &str) -> Option<Signature>;

    /// Signature of a definition.
    fn fun_sig(&self, f: &Self::Fun) -> Signature;

    /// Parameter temporaries, in order.
    fn fun_params<'a>(&self, f: &'a Self::Fun) -> &'a [TempId];

    /// All temporaries of the function (initialized to `Undef`).
    fn fun_temps(&self, f: &Self::Fun) -> Vec<TempId>;

    /// Body.
    fn fun_body<'a>(&self, f: &'a Self::Fun) -> &'a GStmt<Self::Expr>;

    /// Allocate the activation's memory environment.
    fn enter(&self, f: &Self::Fun, mem: &mut Mem) -> Self::Env;

    /// Free the activation's memory environment.
    ///
    /// # Errors
    /// Fails if a block cannot be freed (corrupted permissions).
    fn leave(&self, f: &Self::Fun, env: &Self::Env, mem: &mut Mem) -> Result<(), Stuck>;

    /// Evaluate an expression.
    ///
    /// # Errors
    /// Undefined behaviour (bad loads, unbound temporaries, …).
    fn eval(
        &self,
        symtab: &SymbolTable,
        env: &Self::Env,
        temps: &BTreeMap<TempId, Val>,
        mem: &Mem,
        e: &Self::Expr,
    ) -> Result<Val, Stuck>;
}

/// An activation frame.
#[derive(Debug, Clone)]
pub struct GFrame<Env> {
    fname: Ident,
    env: Env,
    temps: BTreeMap<TempId, Val>,
}

/// Continuations.
#[derive(Debug, Clone)]
pub enum GKont<E, Env> {
    /// Return to the environment.
    Stop,
    /// Run a statement next.
    Seq(GStmt<E>, Rc<GKont<E, Env>>),
    /// Loop re-entry point.
    Loop(E, GStmt<E>, Rc<GKont<E, Env>>),
    /// Return into a suspended internal caller.
    Call {
        /// Result destination.
        dest: Option<TempId>,
        /// Suspended frame.
        frame: GFrame<Env>,
        /// Rest.
        kont: Rc<GKont<E, Env>>,
    },
}

/// States of the generic structured-language LTS.
#[derive(Debug, Clone)]
pub enum GState<E, Env> {
    /// Entering a locally-defined function.
    Entry {
        /// Callee name.
        fname: Ident,
        /// Arguments.
        args: Vec<Val>,
        /// Memory.
        mem: Mem,
        /// Continuation.
        kont: GKont<E, Env>,
    },
    /// Executing a statement.
    Stmt {
        /// Current statement.
        s: GStmt<E>,
        /// Frame.
        frame: GFrame<Env>,
        /// Continuation.
        kont: GKont<E, Env>,
        /// Memory.
        mem: Mem,
    },
    /// Unwinding a return value.
    Returning {
        /// The value.
        v: Val,
        /// Memory.
        mem: Mem,
        /// Continuation (`Stop` or `Call`).
        kont: GKont<E, Env>,
    },
    /// Suspended on an external call.
    External {
        /// Outgoing question.
        q: CQuery,
        /// Result destination.
        dest: Option<TempId>,
        /// Suspended frame.
        frame: GFrame<Env>,
        /// Continuation.
        kont: GKont<E, Env>,
    },
}

/// The generic open semantics of a structured-language unit, over `C ↠ C`.
#[derive(Debug, Clone)]
pub struct StructSem<L> {
    lang: L,
    symtab: SymbolTable,
    label: String,
}

impl<L: StructLang> StructSem<L> {
    /// Wrap a language unit and the shared symbol table.
    pub fn new(lang: L, symtab: SymbolTable) -> StructSem<L> {
        let label = lang.lang_name().to_string();
        StructSem {
            lang,
            symtab,
            label,
        }
    }

    /// Override the display label.
    pub fn with_label(mut self, label: impl Into<String>) -> StructSem<L> {
        self.label = label.into();
        self
    }

    /// The wrapped language unit.
    pub fn lang(&self) -> &L {
        &self.lang
    }

    /// The shared symbol table.
    pub fn symtab(&self) -> &SymbolTable {
        &self.symtab
    }

    fn stuck<T>(&self, msg: impl Into<String>) -> Result<T, Stuck> {
        Err(Stuck::new(format!("{}: {}", self.label, msg.into())))
    }

    fn fun_of_val(&self, vf: &Val) -> Option<(&str, &L::Fun)> {
        match vf {
            Val::Ptr(b, 0) => {
                let name = self.symtab.ident_of(*b)?;
                self.lang.find_fun(name).map(|f| (name, f))
            }
            _ => None,
        }
    }

    fn step_stmt(
        &self,
        s: &GStmt<L::Expr>,
        frame: &GFrame<L::Env>,
        kont: &GKont<L::Expr, L::Env>,
        mem: &Mem,
    ) -> Result<GState<L::Expr, L::Env>, Stuck> {
        let eval = |e: &L::Expr| {
            self.lang
                .eval(&self.symtab, &frame.env, &frame.temps, mem, e)
        };
        match s {
            GStmt::Skip => match kont {
                GKont::Seq(next, k) => Ok(GState::Stmt {
                    s: next.clone(),
                    frame: frame.clone(),
                    kont: (**k).clone(),
                    mem: mem.clone(),
                }),
                GKont::Loop(c, body, k) => Ok(GState::Stmt {
                    s: GStmt::While(c.clone(), Box::new(body.clone())),
                    frame: frame.clone(),
                    kont: (**k).clone(),
                    mem: mem.clone(),
                }),
                GKont::Stop | GKont::Call { .. } => {
                    let f = self
                        .lang
                        .find_fun(&frame.fname)
                        .ok_or_else(|| Stuck::new("frame names unknown function"))?;
                    let mut mem = mem.clone();
                    self.lang.leave(f, &frame.env, &mut mem)?;
                    Ok(GState::Returning {
                        v: Val::Undef,
                        mem,
                        kont: kont.clone(),
                    })
                }
            },
            GStmt::Set(t, e) => {
                let v = eval(e)?;
                let mut frame = frame.clone();
                frame.temps.insert(*t, v);
                Ok(GState::Stmt {
                    s: GStmt::Skip,
                    frame,
                    kont: kont.clone(),
                    mem: mem.clone(),
                })
            }
            GStmt::Store(chunk, addr, value) => {
                let a = eval(addr)?;
                let v = eval(value)?;
                let mut mem = mem.clone();
                if let Err(e) = mem.storev(*chunk, a, v) {
                    return self.stuck(format!("store failed: {e}"));
                }
                Ok(GState::Stmt {
                    s: GStmt::Skip,
                    frame: frame.clone(),
                    kont: kont.clone(),
                    mem,
                })
            }
            GStmt::Call(dest, fname, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(eval(a)?);
                }
                let Some(vf) = self.symtab.func_ptr(fname) else {
                    return self.stuck(format!("call to unknown symbol `{fname}`"));
                };
                if self.lang.find_fun(fname).is_some() {
                    Ok(GState::Entry {
                        fname: fname.clone(),
                        args: vals,
                        mem: mem.clone(),
                        kont: GKont::Call {
                            dest: *dest,
                            frame: frame.clone(),
                            kont: Rc::new(kont.clone()),
                        },
                    })
                } else {
                    let Some(sig) = self.lang.sig_of(fname) else {
                        return self.stuck(format!("no signature for `{fname}`"));
                    };
                    Ok(GState::External {
                        q: CQuery {
                            vf,
                            sig,
                            args: vals,
                            mem: mem.clone(),
                        },
                        dest: *dest,
                        frame: frame.clone(),
                        kont: kont.clone(),
                    })
                }
            }
            GStmt::Seq(a, b) => Ok(GState::Stmt {
                s: (**a).clone(),
                frame: frame.clone(),
                kont: GKont::Seq((**b).clone(), Rc::new(kont.clone())),
                mem: mem.clone(),
            }),
            GStmt::If(c, a, b) => match eval(c)?.truth() {
                Some(t) => Ok(GState::Stmt {
                    s: if t { (**a).clone() } else { (**b).clone() },
                    frame: frame.clone(),
                    kont: kont.clone(),
                    mem: mem.clone(),
                }),
                None => self.stuck("undefined condition"),
            },
            GStmt::While(c, body) => match eval(c)?.truth() {
                Some(true) => Ok(GState::Stmt {
                    s: (**body).clone(),
                    frame: frame.clone(),
                    kont: GKont::Loop(c.clone(), (**body).clone(), Rc::new(kont.clone())),
                    mem: mem.clone(),
                }),
                Some(false) => Ok(GState::Stmt {
                    s: GStmt::Skip,
                    frame: frame.clone(),
                    kont: kont.clone(),
                    mem: mem.clone(),
                }),
                None => self.stuck("undefined loop condition"),
            },
            GStmt::Break => {
                let mut k = kont.clone();
                loop {
                    match k {
                        GKont::Seq(_, next) => k = (*next).clone(),
                        GKont::Loop(_, _, next) => {
                            return Ok(GState::Stmt {
                                s: GStmt::Skip,
                                frame: frame.clone(),
                                kont: (*next).clone(),
                                mem: mem.clone(),
                            })
                        }
                        GKont::Stop | GKont::Call { .. } => {
                            return self.stuck("break outside a loop")
                        }
                    }
                }
            }
            GStmt::Continue => {
                let mut k = kont.clone();
                loop {
                    match k {
                        GKont::Seq(_, next) => k = (*next).clone(),
                        GKont::Loop(c, body, next) => {
                            return Ok(GState::Stmt {
                                s: GStmt::While(c, Box::new(body)),
                                frame: frame.clone(),
                                kont: (*next).clone(),
                                mem: mem.clone(),
                            })
                        }
                        GKont::Stop | GKont::Call { .. } => {
                            return self.stuck("continue outside a loop")
                        }
                    }
                }
            }
            GStmt::Return(e) => {
                let v = match e {
                    Some(e) => eval(e)?,
                    None => Val::Undef,
                };
                let f = self
                    .lang
                    .find_fun(&frame.fname)
                    .ok_or_else(|| Stuck::new("frame names unknown function"))?;
                let mut mem = mem.clone();
                self.lang.leave(f, &frame.env, &mut mem)?;
                let mut k = kont.clone();
                loop {
                    match k {
                        GKont::Seq(_, next) | GKont::Loop(_, _, next) => k = (*next).clone(),
                        GKont::Stop | GKont::Call { .. } => break,
                    }
                }
                Ok(GState::Returning { v, mem, kont: k })
            }
        }
    }
}

impl<L: StructLang> Lts for StructSem<L> {
    type I = C;
    type O = C;
    type State = GState<L::Expr, L::Env>;

    fn name(&self) -> String {
        self.label.clone()
    }

    fn accepts(&self, q: &CQuery) -> bool {
        match self.fun_of_val(&q.vf) {
            Some((_, f)) => {
                self.lang.fun_sig(f) == q.sig && q.args.len() == self.lang.fun_params(f).len()
            }
            None => false,
        }
    }

    fn initial(&self, q: &CQuery) -> Result<Self::State, Stuck> {
        let Some((name, _)) = self.fun_of_val(&q.vf) else {
            return self.stuck("query not accepted");
        };
        Ok(GState::Entry {
            fname: name.to_string(),
            args: q.args.clone(),
            mem: q.mem.clone(),
            kont: GKont::Stop,
        })
    }

    fn step_batch(
        &self,
        s: &mut Self::State,
        _fuel_left: u64,
        _events: &mut Vec<Event>,
    ) -> Batch<CQuery, CReply> {
        // One transition per batch.
        let next = match &*s {
            GState::Entry {
                fname,
                args,
                mem,
                kont,
            } => {
                let Some(f) = self.lang.find_fun(fname) else {
                    return Batch::Stuck(
                        0,
                        Stuck::new(format!("{}: entry into unknown `{fname}`", self.label)),
                    );
                };
                let params = self.lang.fun_params(f);
                if params.len() != args.len() {
                    return Batch::Stuck(
                        0,
                        Stuck::new(format!("{}: arity mismatch entering `{fname}`", self.label)),
                    );
                }
                let mut mem = mem.clone();
                let env = self.lang.enter(f, &mut mem);
                let mut temps: BTreeMap<TempId, Val> = self
                    .lang
                    .fun_temps(f)
                    .into_iter()
                    .map(|t| (t, Val::Undef))
                    .collect();
                for (t, v) in params.iter().zip(args) {
                    temps.insert(*t, *v);
                }
                GState::Stmt {
                    s: self.lang.fun_body(f).clone(),
                    frame: GFrame {
                        fname: fname.clone(),
                        env,
                        temps,
                    },
                    kont: kont.clone(),
                    mem,
                }
            }
            GState::Stmt {
                s,
                frame,
                kont,
                mem,
            } => match self.step_stmt(s, frame, kont, mem) {
                Ok(next) => next,
                Err(stuck) => return Batch::Stuck(0, stuck),
            },
            GState::Returning { v, mem, kont } => match kont {
                GKont::Stop => {
                    return Batch::Final(
                        0,
                        CReply {
                            retval: *v,
                            mem: mem.clone(),
                        },
                    )
                }
                GKont::Call { dest, frame, kont } => {
                    let mut frame = frame.clone();
                    if let Some(t) = dest {
                        frame.temps.insert(*t, *v);
                    }
                    GState::Stmt {
                        s: GStmt::Skip,
                        frame,
                        kont: (**kont).clone(),
                        mem: mem.clone(),
                    }
                }
                _ => return Batch::Stuck(0, Stuck::new("return into non-call continuation")),
            },
            GState::External { q, .. } => return Batch::External(0, q.clone()),
        };
        *s = next;
        Batch::Ran(1)
    }

    fn resume(&self, s: &mut Self::State, a: CReply) -> Result<(), Stuck> {
        let hole = GState::Returning {
            v: Val::Undef,
            mem: Mem::new(),
            kont: GKont::Stop,
        };
        match std::mem::replace(s, hole) {
            GState::External {
                dest,
                mut frame,
                kont,
                ..
            } => {
                if let Some(t) = dest {
                    frame.temps.insert(t, a.retval);
                }
                *s = GState::Stmt {
                    s: GStmt::Skip,
                    frame,
                    kont,
                    mem: a.mem,
                };
                Ok(())
            }
            other => {
                *s = other;
                self.stuck("resume in non-external state")
            }
        }
    }
}
