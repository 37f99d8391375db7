//! The single backend registry.
//!
//! This module is the one place a backend name is resolved: every name in
//! [`BACKEND_NAMES`] maps to a backend here, and an unknown name is an
//! error listing them rather than a panic.

use firvm::Vm;
use interp::{Backend, Interp};

use crate::error::FirError;

/// Every registered backend name (canonical spellings; `"firvm"` and
/// `"firvm-seq"` are accepted as aliases of `"vm"` and `"vm-seq"`).
pub const BACKEND_NAMES: &[&str] = &["vm", "vm-seq", "interp", "interp-seq"];

/// The environment variable naming the default backend.
pub const BACKEND_ENV_VAR: &str = "FIR_BACKEND";

/// Construct a backend by name. Unknown names return an error listing
/// every valid name instead of panicking.
pub fn backend_by_name(name: &str) -> Result<Box<dyn Backend>, FirError> {
    match name {
        "vm" | "firvm" => Ok(Box::new(Vm::new())),
        "vm-seq" | "firvm-seq" => Ok(Box::new(Vm::sequential())),
        "interp" => Ok(Box::new(Interp::new())),
        "interp-seq" => Ok(Box::new(Interp::sequential())),
        other => Err(FirError::UnknownBackend {
            name: other.to_string(),
            known: BACKEND_NAMES,
        }),
    }
}

/// The backend name selected by `FIR_BACKEND`, defaulting to the compiled
/// VM. The name is *not* validated here; pass it to [`backend_by_name`]
/// (or use `Engine::from_env`, which does).
pub fn default_backend_name() -> String {
    std::env::var(BACKEND_ENV_VAR).unwrap_or_else(|_| "vm".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_name_resolves() {
        for name in BACKEND_NAMES {
            assert!(backend_by_name(name).is_ok(), "{name} should resolve");
        }
        assert_eq!(backend_by_name("vm").unwrap().name(), "firvm");
        assert_eq!(backend_by_name("firvm").unwrap().name(), "firvm");
        assert_eq!(backend_by_name("interp").unwrap().name(), "interp");
    }

    #[test]
    fn unknown_names_error_with_the_listing() {
        match backend_by_name("cuda") {
            Err(FirError::UnknownBackend { name, known }) => {
                assert_eq!(name, "cuda");
                assert_eq!(known, BACKEND_NAMES);
            }
            Ok(b) => panic!("expected UnknownBackend, resolved to {}", b.name()),
            Err(e) => panic!("expected UnknownBackend, got {e:?}"),
        }
    }
}
