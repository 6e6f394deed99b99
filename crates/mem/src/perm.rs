//! Per-byte access permissions (CompCert's `permission`).

use std::fmt;

/// Access permission attached to a single byte of a memory block.
///
/// Permissions are totally ordered: `Freeable > Writable > Readable > None`.
/// An operation requiring permission `p` succeeds on a byte with permission
/// `q` iff `q >= p`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Perm {
    /// No access allowed.
    #[default]
    None,
    /// Loads allowed.
    Readable,
    /// Loads and stores allowed.
    Writable,
    /// Loads, stores and `free` allowed.
    Freeable,
}

impl Perm {
    /// Does a byte with permission `self` allow an access requiring `req`?
    pub fn allows(self, req: Perm) -> bool {
        self >= req
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Perm::None => "none",
            Perm::Readable => "r",
            Perm::Writable => "rw",
            Perm::Freeable => "rwf",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering() {
        assert!(Perm::Freeable.allows(Perm::Writable));
        assert!(Perm::Writable.allows(Perm::Readable));
        assert!(!Perm::Readable.allows(Perm::Writable));
        assert!(!Perm::None.allows(Perm::Readable));
        assert!(Perm::Readable.allows(Perm::Readable));
    }
}
