//! Protection keys ("colors").

use std::fmt;

/// Number of protection keys supported by the architecture.
///
/// Intel MPK reserves 4 bits in every page-table entry, giving 16 keys
/// (paper §II-A: "Currently, MPK supports 16 keys").
pub const NUM_PKEYS: usize = 16;

/// A protection key (pkey, also called a *color*): an index in `0..16`
/// selecting one `{AD, WD}` pair inside [`Pkru`](crate::Pkru).
///
/// Pkey 0 is the conventional "default" key that every page starts with;
/// non-zero keys are handed out by [`DomainManager`](crate::DomainManager).
///
/// # Examples
///
/// ```
/// use specmpk_mpk::Pkey;
///
/// let k = Pkey::new(3)?;
/// assert_eq!(k.index(), 3);
/// assert!(Pkey::new(16).is_err());
/// # Ok::<(), specmpk_mpk::InvalidPkeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Pkey(u8);

impl Pkey {
    /// The default key assigned to every page that was never re-colored.
    pub const DEFAULT: Pkey = Pkey(0);

    /// Creates a protection key from its index.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidPkeyError`] if `index >= 16`.
    pub fn new(index: u8) -> Result<Self, InvalidPkeyError> {
        if usize::from(index) < NUM_PKEYS {
            Ok(Pkey(index))
        } else {
            Err(InvalidPkeyError { index })
        }
    }

    /// Creates a protection key from the low 4 bits of `raw`, discarding the
    /// rest — the semantics of extracting the pkey field from a PTE.
    #[must_use]
    pub fn from_pte_bits(raw: u64) -> Self {
        Pkey((raw & 0xF) as u8)
    }

    /// The key's index in `0..16`.
    #[must_use]
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// Iterates over all 16 protection keys in ascending order.
    pub fn all() -> impl Iterator<Item = Pkey> {
        (0..NUM_PKEYS as u8).map(Pkey)
    }
}

impl fmt::Display for Pkey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkey{}", self.0)
    }
}

impl From<Pkey> for u8 {
    fn from(k: Pkey) -> u8 {
        k.0
    }
}

impl TryFrom<u8> for Pkey {
    type Error = InvalidPkeyError;

    fn try_from(index: u8) -> Result<Self, Self::Error> {
        Pkey::new(index)
    }
}

/// Error returned when a pkey index is out of the architectural range.
///
/// ```
/// use specmpk_mpk::Pkey;
/// let err = Pkey::new(200).unwrap_err();
/// assert_eq!(err.to_string(), "pkey index 200 is out of range (0..16)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidPkeyError {
    pub(crate) index: u8,
}

impl fmt::Display for InvalidPkeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkey index {} is out of range (0..16)", self.index)
    }
}

impl std::error::Error for InvalidPkeyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_accepts_all_architectural_keys() {
        for i in 0..16 {
            assert_eq!(Pkey::new(i).unwrap().index(), usize::from(i));
        }
    }

    #[test]
    fn new_rejects_out_of_range() {
        for i in [16u8, 17, 100, 255] {
            assert!(Pkey::new(i).is_err());
        }
    }

    #[test]
    fn from_pte_bits_masks_to_four_bits() {
        assert_eq!(Pkey::from_pte_bits(0xFFFF_FFF3).index(), 3);
        assert_eq!(Pkey::from_pte_bits(0x10).index(), 0);
    }

    #[test]
    fn all_yields_sixteen_distinct_keys() {
        let keys: Vec<Pkey> = Pkey::all().collect();
        assert_eq!(keys.len(), 16);
        for (i, k) in keys.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn display_names_the_key() {
        assert_eq!(Pkey::new(7).unwrap().to_string(), "pkey7");
    }

    #[test]
    fn default_is_key_zero() {
        assert_eq!(Pkey::default(), Pkey::DEFAULT);
        assert_eq!(Pkey::DEFAULT.index(), 0);
    }
}
