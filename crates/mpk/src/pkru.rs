//! The PKRU register and permission checking.

use std::fmt;

use crate::{Pkey, ProtectionFault};

/// The kind of a memory access, as seen by the MPK permission check.
///
/// MPK governs data accesses only; instruction fetches are unaffected by
/// PKRU (the AD bit does not apply to execute permission).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data read (load).
    Read,
    /// A data write (store).
    Write,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => f.write_str("read"),
            AccessKind::Write => f.write_str("write"),
        }
    }
}

/// The effective permission a single pkey grants, decoded from its
/// `{AD, WD}` bit pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PkeyPermission {
    /// AD = 0, WD = 0: both reads and writes allowed.
    #[default]
    ReadWrite,
    /// AD = 0, WD = 1: reads allowed, writes disallowed.
    ReadOnly,
    /// AD = 1: no data access at all (WD is irrelevant once AD is set —
    /// "If access is allowed, then read access is allowed irrespective of
    /// the WD value", paper §II-A).
    NoAccess,
}

impl PkeyPermission {
    /// Whether an access of `kind` is permitted.
    #[must_use]
    #[inline]
    pub fn allows(self, kind: AccessKind) -> bool {
        match (self, kind) {
            (PkeyPermission::ReadWrite, _) => true,
            (PkeyPermission::ReadOnly, AccessKind::Read) => true,
            (PkeyPermission::ReadOnly, AccessKind::Write) => false,
            (PkeyPermission::NoAccess, _) => false,
        }
    }

    /// The `(access_disable, write_disable)` encoding of this permission.
    ///
    /// `NoAccess` encodes as `(true, true)`: WRPKRU writers conventionally
    /// set both bits when revoking access.
    #[must_use]
    pub fn to_bits(self) -> (bool, bool) {
        match self {
            PkeyPermission::ReadWrite => (false, false),
            PkeyPermission::ReadOnly => (false, true),
            PkeyPermission::NoAccess => (true, true),
        }
    }
}

impl fmt::Display for PkeyPermission {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PkeyPermission::ReadWrite => f.write_str("read-write"),
            PkeyPermission::ReadOnly => f.write_str("read-only"),
            PkeyPermission::NoAccess => f.write_str("no-access"),
        }
    }
}

/// The 32-bit PKRU register: 16 `{AD, WD}` pairs, one per pkey.
///
/// Bit layout matches the Intel SDM: for pkey *k*, bit `2k` is the
/// Access-Disable (AD) bit and bit `2k + 1` is the Write-Disable (WD) bit.
///
/// `Pkru` is a plain value type (`Copy`); the *renamed*, in-flight copies of
/// PKRU that SpecMPK tracks are `Pkru` values held in `ROB_pkru`
/// (see the `specmpk-core` crate).
///
/// # Examples
///
/// ```
/// use specmpk_mpk::{AccessKind, Pkey, PkeyPermission, Pkru};
///
/// let k = Pkey::new(5)?;
/// let pkru = Pkru::ALL_ACCESS.with_permission(k, PkeyPermission::ReadOnly);
/// assert_eq!(pkru.permission(k), PkeyPermission::ReadOnly);
/// assert!(pkru.check(k, AccessKind::Write).is_err());
/// # Ok::<(), specmpk_mpk::InvalidPkeyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Pkru(u32);

impl Pkru {
    /// PKRU value granting read-write access through every pkey.
    pub const ALL_ACCESS: Pkru = Pkru(0);

    /// The Linux boot-time default: every pkey except pkey 0 is
    /// access-disabled (`0x5555_5554`).
    pub const LINUX_DEFAULT: Pkru = Pkru(0x5555_5554);

    /// Creates a PKRU from its raw 32-bit encoding (the `EAX` value a
    /// `WRPKRU` instruction would write).
    #[must_use]
    #[inline]
    pub fn from_bits(bits: u32) -> Self {
        Pkru(bits)
    }

    /// The raw 32-bit encoding (the value `RDPKRU` places in `EAX`).
    #[must_use]
    #[inline]
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Serializes to the canonical checkpoint encoding: the raw bits as a
    /// `"0x…"` lower-hex string (byte-deterministic, so checkpoint files
    /// containing a PKRU compare equal across runs).
    #[must_use]
    pub fn encode(self) -> String {
        format!("{:#x}", self.0)
    }

    /// Parses the encoding produced by [`Pkru::encode`].
    #[must_use]
    pub fn decode(s: &str) -> Option<Self> {
        let hex = s.strip_prefix("0x")?;
        u32::from_str_radix(hex, 16).ok().map(Pkru)
    }

    /// Whether the Access-Disable bit is set for `pkey`.
    #[must_use]
    #[inline]
    pub fn access_disabled(self, pkey: Pkey) -> bool {
        self.0 & (1 << (2 * pkey.index())) != 0
    }

    /// Whether the Write-Disable bit is set for `pkey`.
    #[must_use]
    #[inline]
    pub fn write_disabled(self, pkey: Pkey) -> bool {
        self.0 & (1 << (2 * pkey.index() + 1)) != 0
    }

    /// The decoded permission for `pkey`.
    #[must_use]
    #[inline]
    pub fn permission(self, pkey: Pkey) -> PkeyPermission {
        if self.access_disabled(pkey) {
            PkeyPermission::NoAccess
        } else if self.write_disabled(pkey) {
            PkeyPermission::ReadOnly
        } else {
            PkeyPermission::ReadWrite
        }
    }

    /// Returns a copy with the AD bit for `pkey` set to `disabled`.
    #[must_use]
    pub fn with_access_disabled(self, pkey: Pkey, disabled: bool) -> Self {
        let mask = 1 << (2 * pkey.index());
        Pkru(if disabled { self.0 | mask } else { self.0 & !mask })
    }

    /// Returns a copy with the WD bit for `pkey` set to `disabled`.
    #[must_use]
    pub fn with_write_disabled(self, pkey: Pkey, disabled: bool) -> Self {
        let mask = 1 << (2 * pkey.index() + 1);
        Pkru(if disabled { self.0 | mask } else { self.0 & !mask })
    }

    /// Returns a copy with both bits of `pkey` set from `perm`.
    ///
    /// This is the value-level equivalent of glibc's `pkey_set`.
    #[must_use]
    pub fn with_permission(self, pkey: Pkey, perm: PkeyPermission) -> Self {
        let (ad, wd) = perm.to_bits();
        self.with_access_disabled(pkey, ad).with_write_disabled(pkey, wd)
    }

    /// Performs the architectural MPK permission check for an access of
    /// `kind` to a page colored `pkey`.
    ///
    /// # Errors
    ///
    /// Returns a [`ProtectionFault`] when the access is disallowed — the
    /// event a real CPU reports as a page fault with the PK bit set.
    #[inline]
    pub fn check(self, pkey: Pkey, kind: AccessKind) -> Result<(), ProtectionFault> {
        let perm = self.permission(pkey);
        if perm.allows(kind) {
            Ok(())
        } else {
            Err(ProtectionFault::new(pkey, kind, perm))
        }
    }

    /// Whether *any* pkey has its AD bit set — the condition SpecMPK's
    /// `AccessDisableCounter` aggregates over the WRPKRU-window.
    #[must_use]
    pub fn any_access_disabled(self) -> bool {
        self.0 & 0x5555_5555 != 0
    }

    /// Whether *any* pkey has its WD bit set.
    #[must_use]
    pub fn any_write_disabled(self) -> bool {
        self.0 & 0xAAAA_AAAA != 0
    }

    /// Iterates over `(pkey, permission)` for all 16 keys.
    pub fn permissions(self) -> impl Iterator<Item = (Pkey, PkeyPermission)> {
        Pkey::all().map(move |k| (k, self.permission(k)))
    }

    /// The set of pkeys whose AD bit is set, as a 16-bit bitmap.
    ///
    /// SpecMPK stores exactly this bitmap in each `ROB_pkru` entry so the
    /// retiring/squashing WRPKRU can decrement the counters it incremented
    /// (paper §V-C1).
    #[must_use]
    #[inline]
    pub fn access_disable_bitmap(self) -> u16 {
        gather_even_bits(self.0)
    }

    /// The set of pkeys whose WD bit is set, as a 16-bit bitmap.
    #[must_use]
    #[inline]
    pub fn write_disable_bitmap(self) -> u16 {
        gather_even_bits(self.0 >> 1)
    }
}

/// Packs bits 0, 2, …, 30 of `x` into bits 0–15: each step merges
/// neighbouring groups of kept bits (groups of 1 → 2 → 4 → 8 → 16).
#[inline]
fn gather_even_bits(x: u32) -> u16 {
    let x = x & 0x5555_5555;
    let x = (x | (x >> 1)) & 0x3333_3333;
    let x = (x | (x >> 2)) & 0x0F0F_0F0F;
    let x = (x | (x >> 4)) & 0x00FF_00FF;
    let x = (x | (x >> 8)) & 0x0000_FFFF;
    x as u16
}

impl fmt::Display for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PKRU({:#010x})", self.0)
    }
}

impl fmt::LowerHex for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for Pkru {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<u32> for Pkru {
    fn from(bits: u32) -> Self {
        Pkru(bits)
    }
}

impl From<Pkru> for u32 {
    fn from(p: Pkru) -> u32 {
        p.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(i: u8) -> Pkey {
        Pkey::new(i).unwrap()
    }

    #[test]
    fn encode_decode_round_trips() {
        for p in [Pkru::ALL_ACCESS, Pkru::LINUX_DEFAULT, Pkru::from_bits(0xDEAD_BEEF)] {
            assert_eq!(Pkru::decode(&p.encode()), Some(p));
        }
        assert_eq!(Pkru::LINUX_DEFAULT.encode(), "0x55555554");
        assert_eq!(Pkru::decode("55555554"), None);
        assert_eq!(Pkru::decode("0xnope"), None);
    }

    #[test]
    fn all_access_allows_everything() {
        for key in Pkey::all() {
            assert!(Pkru::ALL_ACCESS.check(key, AccessKind::Read).is_ok());
            assert!(Pkru::ALL_ACCESS.check(key, AccessKind::Write).is_ok());
        }
    }

    #[test]
    fn linux_default_only_allows_pkey_zero() {
        let p = Pkru::LINUX_DEFAULT;
        assert!(p.check(k(0), AccessKind::Read).is_ok());
        assert!(p.check(k(0), AccessKind::Write).is_ok());
        for key in Pkey::all().skip(1) {
            assert!(p.check(key, AccessKind::Read).is_err());
        }
    }

    #[test]
    fn write_disable_blocks_only_writes() {
        let p = Pkru::ALL_ACCESS.with_write_disabled(k(4), true);
        assert!(p.check(k(4), AccessKind::Read).is_ok());
        assert!(p.check(k(4), AccessKind::Write).is_err());
        // Other keys are untouched.
        assert!(p.check(k(3), AccessKind::Write).is_ok());
    }

    #[test]
    fn access_disable_blocks_reads_and_writes() {
        let p = Pkru::ALL_ACCESS.with_access_disabled(k(9), true);
        assert!(p.check(k(9), AccessKind::Read).is_err());
        assert!(p.check(k(9), AccessKind::Write).is_err());
    }

    #[test]
    fn ad_dominates_wd() {
        // AD=1, WD=0 is still NoAccess per the SDM.
        let p = Pkru::ALL_ACCESS.with_access_disabled(k(2), true);
        assert_eq!(p.permission(k(2)), PkeyPermission::NoAccess);
    }

    #[test]
    fn bit_layout_matches_sdm() {
        // pkey k: AD at bit 2k, WD at bit 2k+1.
        let p = Pkru::ALL_ACCESS.with_access_disabled(k(1), true);
        assert_eq!(p.bits(), 0b0100);
        let p = Pkru::ALL_ACCESS.with_write_disabled(k(1), true);
        assert_eq!(p.bits(), 0b1000);
    }

    #[test]
    fn with_permission_round_trips() {
        for perm in [PkeyPermission::ReadWrite, PkeyPermission::ReadOnly, PkeyPermission::NoAccess]
        {
            let p = Pkru::ALL_ACCESS.with_permission(k(7), perm);
            assert_eq!(p.permission(k(7)), perm);
        }
    }

    #[test]
    fn bitmaps_select_expected_keys() {
        let p = Pkru::ALL_ACCESS
            .with_access_disabled(k(0), true)
            .with_access_disabled(k(15), true)
            .with_write_disabled(k(3), true);
        assert_eq!(p.access_disable_bitmap(), 0b1000_0000_0000_0001);
        assert_eq!(p.write_disable_bitmap(), 0b0000_0000_0000_1000);
    }

    #[test]
    fn any_disabled_predicates() {
        assert!(!Pkru::ALL_ACCESS.any_access_disabled());
        assert!(!Pkru::ALL_ACCESS.any_write_disabled());
        assert!(Pkru::LINUX_DEFAULT.any_access_disabled());
        let wd = Pkru::ALL_ACCESS.with_write_disabled(k(5), true);
        assert!(wd.any_write_disabled());
        assert!(!wd.any_access_disabled());
    }

    #[test]
    fn clearing_bits_restores_access() {
        let p = Pkru::ALL_ACCESS.with_access_disabled(k(6), true).with_access_disabled(k(6), false);
        assert_eq!(p, Pkru::ALL_ACCESS);
    }

    #[test]
    fn raw_round_trip() {
        let p = Pkru::from_bits(0xDEAD_BEEF);
        assert_eq!(p.bits(), 0xDEAD_BEEF);
        assert_eq!(u32::from(p), 0xDEAD_BEEF);
        assert_eq!(Pkru::from(0xDEAD_BEEFu32), p);
    }

    #[test]
    fn permissions_iterator_covers_all_keys() {
        let p = Pkru::LINUX_DEFAULT;
        let perms: Vec<_> = p.permissions().collect();
        assert_eq!(perms.len(), 16);
        assert_eq!(perms[0].1, PkeyPermission::ReadWrite);
        assert!(perms[1..].iter().all(|(_, pm)| *pm == PkeyPermission::NoAccess));
    }
}
