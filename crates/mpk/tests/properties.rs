//! Property-based tests for the MPK architectural model.

// Gated so the workspace still builds/tests with --no-default-features.
#![cfg(feature = "proptest")]

use proptest::prelude::*;
use specmpk_mpk::{AccessKind, Pkey, PkeyPermission, Pkru};

fn arb_pkey() -> impl Strategy<Value = Pkey> {
    (0u8..16).prop_map(|i| Pkey::new(i).unwrap())
}

fn arb_pkru() -> impl Strategy<Value = Pkru> {
    any::<u32>().prop_map(Pkru::from_bits)
}

proptest! {
    /// AD implies no access of either kind; absence of both bits implies full access.
    #[test]
    fn permission_decoding_is_consistent(pkru in arb_pkru(), key in arb_pkey()) {
        let perm = pkru.permission(key);
        match (pkru.access_disabled(key), pkru.write_disabled(key)) {
            (true, _) => prop_assert_eq!(perm, PkeyPermission::NoAccess),
            (false, true) => prop_assert_eq!(perm, PkeyPermission::ReadOnly),
            (false, false) => prop_assert_eq!(perm, PkeyPermission::ReadWrite),
        }
    }

    /// check() agrees with permission().allows() for every access kind.
    #[test]
    fn check_matches_allows(pkru in arb_pkru(), key in arb_pkey()) {
        for kind in [AccessKind::Read, AccessKind::Write] {
            prop_assert_eq!(
                pkru.check(key, kind).is_ok(),
                pkru.permission(key).allows(kind)
            );
        }
    }

    /// Setting then clearing a bit restores the original value (involution).
    #[test]
    fn bit_set_clear_round_trip(pkru in arb_pkru(), key in arb_pkey()) {
        let orig_ad = pkru.access_disabled(key);
        let orig_wd = pkru.write_disabled(key);
        let round = pkru
            .with_access_disabled(key, !orig_ad)
            .with_access_disabled(key, orig_ad)
            .with_write_disabled(key, !orig_wd)
            .with_write_disabled(key, orig_wd);
        prop_assert_eq!(round, pkru);
    }

    /// Modifying one key never disturbs another key's permission.
    #[test]
    fn updates_are_key_local(pkru in arb_pkru(), a in arb_pkey(), b in arb_pkey()) {
        prop_assume!(a != b);
        let updated = pkru.with_permission(a, PkeyPermission::NoAccess);
        prop_assert_eq!(updated.permission(b), pkru.permission(b));
    }

    /// The AD/WD bitmaps agree with the per-key predicates and with the
    /// SDM bit layout (key k's AD at bit 2k, WD at bit 2k + 1).
    #[test]
    fn bitmaps_match_predicates(pkru in arb_pkru()) {
        let ad = pkru.access_disable_bitmap();
        let wd = pkru.write_disable_bitmap();
        let (mut ad_ref, mut wd_ref) = (0u16, 0u16);
        for key in Pkey::all() {
            let k = key.index();
            prop_assert_eq!(ad & (1 << k) != 0, pkru.access_disabled(key));
            prop_assert_eq!(wd & (1 << k) != 0, pkru.write_disabled(key));
            ad_ref |= u16::from(pkru.bits() >> (2 * k) & 1 == 1) << k;
            wd_ref |= u16::from(pkru.bits() >> (2 * k + 1) & 1 == 1) << k;
        }
        prop_assert_eq!(ad, ad_ref);
        prop_assert_eq!(wd, wd_ref);
        prop_assert_eq!(ad != 0, pkru.any_access_disabled());
        prop_assert_eq!(wd != 0, pkru.any_write_disabled());
    }

    /// Raw bits round-trip losslessly (WRPKRU writes what RDPKRU reads).
    #[test]
    fn wrpkru_rdpkru_round_trip(bits in any::<u32>()) {
        prop_assert_eq!(Pkru::from_bits(bits).bits(), bits);
    }

    /// A stricter PKRU (superset of disable bits) never allows an access the
    /// looser one denies.
    #[test]
    fn monotonic_restriction(pkru in arb_pkru(), key in arb_pkey()) {
        let stricter = Pkru::from_bits(pkru.bits() | (1 << (2 * key.index())));
        for kind in [AccessKind::Read, AccessKind::Write] {
            if stricter.check(key, kind).is_ok() {
                prop_assert!(pkru.check(key, kind).is_ok());
            }
        }
    }
}
