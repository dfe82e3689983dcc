//! Sessions: authentication tokens and per-session sheet scoping.
//!
//! A session is created by a successful `Open` against a registered
//! workbook. Its lifecycle:
//!
//! 1. **open** — the client presents the workbook's auth token (when the
//!    workbook requires one) and optionally a *scope*: a subset of sheet
//!    names the session is allowed to touch. The registry validates both
//!    and issues an opaque [`SessionToken`];
//! 2. **use** — every subsequent request carries the token; the registry
//!    resolves it to the session and enforces the scope on each sheet the
//!    request names (out-of-scope sheets are [`OutOfScope`], and query
//!    results are filtered down to the scope so a scoped session cannot
//!    observe foreign sheets even transitively);
//! 3. **close** — an explicit `Close`, or transport teardown: the TCP
//!    server closes every session a connection opened when that
//!    connection ends, so dropped clients never leak sessions.
//!
//! Tokens are opaque 64-bit values drawn from a per-registry sequence
//! mixed through a 64-bit finalizer; they make stale or cross-registry
//! tokens practically unguessable but are **not** a cryptographic
//! capability — transport security is out of scope here.
//!
//! [`OutOfScope`]: crate::ServiceError::OutOfScope

use crate::ServiceError;

/// An opaque session identifier, issued by `Open` and carried by every
/// subsequent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionToken(pub u64);

impl SessionToken {
    /// Mixes a sequence number and a registry seed into an opaque token
    /// (the splitmix64 finalizer: bijective, so distinct sequence numbers
    /// can never collide for a fixed seed).
    pub fn mint(seq: u64, seed: u64) -> Self {
        let mut z = seq.wrapping_add(seed).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        SessionToken(z ^ (z >> 31))
    }
}

/// One open session: which workbook it is bound to and which sheets it
/// may touch.
#[derive(Debug, Clone)]
pub struct Session {
    /// The registry key (lower-cased workbook name) this session is
    /// bound to.
    pub workbook: String,
    /// Allowed sheet names, as the client spelled them (a handful at
    /// most, so a scan beats hashing); `None` = every sheet.
    pub scope: Option<Vec<String>>,
}

impl Session {
    /// A session on `workbook` (already lower-cased) restricted to
    /// `scope`, or unrestricted when `None`.
    pub fn new(workbook: String, scope: Option<Vec<String>>) -> Self {
        Session { workbook, scope }
    }

    /// Whether the session may touch `sheet` (name compared
    /// ASCII-case-insensitively, like the engine's sheet index, without
    /// allocating).
    pub fn allows(&self, sheet: &str) -> bool {
        match &self.scope {
            None => true,
            Some(names) => names.iter().any(|n| n.eq_ignore_ascii_case(sheet)),
        }
    }

    /// Scope check as a typed error.
    pub fn check(&self, sheet: &str) -> Result<(), ServiceError> {
        if self.allows(sheet) {
            Ok(())
        } else {
            Err(ServiceError::OutOfScope(sheet.to_string()))
        }
    }

    /// Filters `(sheet, _)` result pairs down to the scope — used on
    /// query responses so a scoped session cannot observe foreign sheets
    /// even through transitive dependencies.
    pub fn filter_ranges<T>(&self, mut ranges: Vec<(String, T)>) -> Vec<(String, T)> {
        ranges.retain(|(sheet, _)| self.allows(sheet));
        ranges
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_distinct_and_seed_dependent() {
        let a: Vec<u64> = (0..64).map(|i| SessionToken::mint(i, 1).0).collect();
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "sequence tokens must not collide");
        assert_ne!(SessionToken::mint(0, 1), SessionToken::mint(0, 2));
    }

    #[test]
    fn scope_is_case_insensitive() {
        let s = Session::new("book".into(), Some(vec!["data".to_string()]));
        assert!(s.allows("Data"));
        assert!(s.allows("DATA"));
        assert!(!s.allows("Other"));
        assert!(matches!(s.check("Other"), Err(ServiceError::OutOfScope(_))));
        let filtered = s.filter_ranges(vec![("Data".to_string(), 1u8), ("Other".to_string(), 2u8)]);
        assert_eq!(filtered, vec![("Data".to_string(), 1u8)]);
    }

    #[test]
    fn unscoped_session_allows_everything() {
        let s = Session::new("book".into(), None);
        assert!(s.allows("Anything"));
        assert!(s.check("Anything").is_ok());
    }
}
