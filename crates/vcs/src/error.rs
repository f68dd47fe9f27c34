//! VCS error type.

use dsv_core::SolveError;
use dsv_storage::StoreError;

/// Errors from repository operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcsError {
    /// The named branch does not exist.
    UnknownBranch(String),
    /// A branch with that name already exists.
    BranchExists(String),
    /// The commit id is out of range.
    UnknownCommit(u32),
    /// The repository has no commits yet.
    EmptyRepository,
    /// Merges need at least two distinct parents.
    DegenerateMerge,
    /// The object store failed.
    Store(StoreError),
    /// The optimizer failed.
    Solve(SolveError),
}

impl std::fmt::Display for VcsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VcsError::UnknownBranch(b) => write!(f, "unknown branch '{b}'"),
            VcsError::BranchExists(b) => write!(f, "branch '{b}' already exists"),
            VcsError::UnknownCommit(c) => write!(f, "unknown commit v{c}"),
            VcsError::EmptyRepository => write!(f, "repository has no commits"),
            VcsError::DegenerateMerge => write!(f, "merge requires two distinct parents"),
            VcsError::Store(e) => write!(f, "store error: {e}"),
            VcsError::Solve(e) => write!(f, "optimizer error: {e}"),
        }
    }
}

impl std::error::Error for VcsError {}

impl From<StoreError> for VcsError {
    fn from(e: StoreError) -> Self {
        VcsError::Store(e)
    }
}

impl From<SolveError> for VcsError {
    fn from(e: SolveError) -> Self {
        VcsError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        assert!(VcsError::UnknownBranch("dev".into())
            .to_string()
            .contains("dev"));
        assert!(VcsError::UnknownCommit(9).to_string().contains("v9"));
        let store_err: VcsError = StoreError::ChainTooLong.into();
        assert!(store_err.to_string().contains("chain"));
        let solve_err: VcsError = SolveError::EmptyInstance.into();
        assert!(solve_err.to_string().contains("versions"));
    }
}
