//! Process-global string interner and the interned symbol types.
//!
//! Constants ([`Cst`]) and variables ([`Var`]) are thin wrappers over an
//! interned symbol ([`Sym`]). Interning makes equality O(1) and keeps facts
//! compact (`u32` per value). Ordering compares the *resolved strings*, so
//! canonical orders are stable across runs regardless of interning order.

use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// An interned string symbol.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
}

fn interner() -> &'static RwLock<Interner> {
    static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        RwLock::new(Interner {
            map: HashMap::new(),
            strings: Vec::new(),
        })
    })
}

static FRESH_COUNTER: AtomicU64 = AtomicU64::new(0);

impl Sym {
    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(s: &str) -> Sym {
        {
            let guard = interner().read();
            if let Some(&id) = guard.map.get(s) {
                return Sym(id);
            }
        }
        let mut guard = interner().write();
        if let Some(&id) = guard.map.get(s) {
            return Sym(id);
        }
        let arc: Arc<str> = Arc::from(s);
        let id = u32::try_from(guard.strings.len()).expect("interner overflow");
        guard.strings.push(arc.clone());
        guard.map.insert(arc, id);
        Sym(id)
    }

    /// Resolves the symbol back to its string.
    pub fn resolve(self) -> Arc<str> {
        interner().read().strings[self.0 as usize].clone()
    }

    /// Interns a globally fresh symbol of the form `{prefix}#{n}`.
    ///
    /// The `#` character is reserved: the parser rejects it in user input, so
    /// fresh symbols can never collide with user-visible names.
    pub fn fresh(prefix: &str) -> Sym {
        let n = FRESH_COUNTER.fetch_add(1, AtomicOrdering::Relaxed);
        Sym::intern(&format!("{prefix}#{n}"))
    }

    /// Whether this symbol was produced by [`Sym::fresh`].
    pub fn is_fresh(self) -> bool {
        self.resolve().contains('#')
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.0 == other.0 {
            return Ordering::Equal;
        }
        // One read guard, no refcount traffic: comparisons run in every
        // BTree operation, on every thread at once.
        let guard = interner().read();
        guard.strings[self.0 as usize].cmp(&guard.strings[other.0 as usize])
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.resolve())
    }
}

/// An interned database **constant**.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cst(pub Sym);

/// Prefix marking a *parameter constant*: a query variable temporarily frozen
/// as a constant during rewriting construction (see `cqa-attack`).
const PARAM_PREFIX: char = '\u{a7}'; // '§'

impl Cst {
    /// Interns a constant by name.
    pub fn new(name: &str) -> Cst {
        Cst(Sym::intern(name))
    }

    /// A globally fresh constant (used by the chase and by repairs that must
    /// invent values; cf. the paper's "fresh constants").
    pub fn fresh(prefix: &str) -> Cst {
        Cst(Sym::fresh(prefix))
    }

    /// Whether this constant was invented by [`Cst::fresh`].
    pub fn is_fresh(self) -> bool {
        self.0.is_fresh()
    }

    /// Freezes a variable as a *parameter constant* (`§x`). Analysis code then
    /// treats it as an ordinary constant; [`Cst::as_param`] recovers the
    /// variable when emitting first-order formulas.
    pub fn param(v: Var) -> Cst {
        Cst(Sym::intern(&format!("{PARAM_PREFIX}{}", v.0.resolve())))
    }

    /// If this is a parameter constant, the variable it froze.
    pub fn as_param(self) -> Option<Var> {
        let s = self.0.resolve();
        let mut chars = s.chars();
        if chars.next() == Some(PARAM_PREFIX) {
            Some(Var::new(chars.as_str()))
        } else {
            None
        }
    }

    /// The constant's name.
    pub fn name(self) -> Arc<str> {
        self.0.resolve()
    }
}

impl fmt::Debug for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "'{}'", self.0)
    }
}

impl fmt::Display for Cst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// An interned query **variable**.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(pub Sym);

impl Var {
    /// Interns a variable by name.
    pub fn new(name: &str) -> Var {
        Var(Sym::intern(name))
    }

    /// A globally fresh variable (used when constructing rewritings).
    pub fn fresh(prefix: &str) -> Var {
        Var(Sym::fresh(prefix))
    }

    /// The variable's name.
    pub fn name(self) -> Arc<str> {
        self.0.resolve()
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trip() {
        let a = Sym::intern("hello");
        let b = Sym::intern("hello");
        assert_eq!(a, b);
        assert_eq!(&*a.resolve(), "hello");
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        assert_ne!(Sym::intern("a"), Sym::intern("b"));
    }

    #[test]
    fn ord_is_string_order() {
        let z = Sym::intern("zzz_first_interned");
        let a = Sym::intern("aaa_second_interned");
        assert!(a < z, "ordering must follow strings, not intern ids");
    }

    #[test]
    fn fresh_symbols_are_unique() {
        let a = Sym::fresh("f");
        let b = Sym::fresh("f");
        assert_ne!(a, b);
        assert!(a.is_fresh());
        assert!(!Sym::intern("plain").is_fresh());
    }

    #[test]
    fn param_round_trip() {
        let x = Var::new("x");
        let p = Cst::param(x);
        assert_eq!(p.as_param(), Some(x));
        assert_eq!(Cst::new("x").as_param(), None);
    }

    #[test]
    fn cst_var_display() {
        assert_eq!(Var::new("y").to_string(), "y");
        assert_eq!(Cst::new("c").to_string(), "c");
        assert_eq!(format!("{:?}", Cst::new("c")), "'c'");
    }
}
