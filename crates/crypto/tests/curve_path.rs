//! Differential coverage for the Curve25519 fast paths.
//!
//! Every fast routine is compared with the straightforward code it
//! replaced (`psf_crypto::reference`): field multiplication, squaring,
//! inversion and `pow_p58` on random limbs and on limbs at the 2^52 bound
//! (the dev profile keeps overflow checks on, so a limb overflow panics
//! here); the comb-based X25519 public key against the ladder; and
//! Ed25519 verification — verdict *and* error variant — on valid
//! signatures and on bit flips, non-canonical scalars and points, and
//! small-order R and A.

use proptest::prelude::*;
use psf_crypto::edwards::{basepoint, mul_basepoint, EdwardsPoint};
use psf_crypto::field::Fe;
use psf_crypto::reference;
use psf_crypto::scalar::Scalar;
use psf_crypto::x25519::x25519_base;
use psf_crypto::{CryptoError, Signature, SigningKey, VerifyingKey};

const LIMB_BOUND: u64 = 1 << 52;

fn limbs() -> impl Strategy<Value = [u64; 5]> {
    (
        0..LIMB_BOUND,
        0..LIMB_BOUND,
        0..LIMB_BOUND,
        0..LIMB_BOUND,
        0..LIMB_BOUND,
    )
        .prop_map(|(a, b, c, d, e)| [a, b, c, d, e])
}

/// Field elements at the edge of the accepted limb range.
fn edge_elements() -> Vec<Fe> {
    let max = LIMB_BOUND - 1;
    let mut out = vec![
        Fe::from_limbs([max; 5]),
        Fe::from_limbs([max, 0, max, 0, max]),
        Fe::from_limbs([0, max, 0, max, 0]),
        Fe::from_limbs([max, 0, 0, 0, 0]),
        Fe::from_limbs([0, 0, 0, 0, max]),
        Fe::ZERO,
        Fe::ONE,
        Fe::ONE.neg(),
    ];
    // p itself and p − 1 in the loosest encodings.
    let p_limbs = [
        (1 << 51) - 19,
        (1 << 51) - 1,
        (1 << 51) - 1,
        (1 << 51) - 1,
        (1 << 51) - 1,
    ];
    out.push(Fe::from_limbs(p_limbs));
    out.push(Fe::from_limbs([
        p_limbs[0] - 1,
        p_limbs[1],
        p_limbs[2],
        p_limbs[3],
        p_limbs[4],
    ]));
    out
}

fn assert_field_ops_match(a: &Fe, b: &Fe) {
    assert_eq!(
        a.mul(b).to_bytes(),
        reference::fe_mul(a, b).to_bytes(),
        "mul"
    );
    assert_eq!(
        a.square().to_bytes(),
        reference::fe_square(a).to_bytes(),
        "square"
    );
    assert_eq!(
        a.invert().to_bytes(),
        reference::fe_invert(a).to_bytes(),
        "invert"
    );
    assert_eq!(
        a.pow_p58().to_bytes(),
        reference::fe_pow_p58(a).to_bytes(),
        "pow_p58"
    );
}

#[test]
fn field_ops_match_reference_at_limb_bounds() {
    let edges = edge_elements();
    for a in &edges {
        for b in &edges {
            assert_field_ops_match(a, b);
        }
    }
}

#[test]
fn cached_sqrt_m1_matches_reference() {
    assert_eq!(Fe::sqrt_m1().to_bytes(), reference::sqrt_m1().to_bytes());
    assert_eq!(Fe::sqrt_m1().square(), Fe::ONE.neg());
}

#[test]
fn invert_is_an_inverse() {
    for a in edge_elements() {
        let expect = if a.is_zero() { Fe::ZERO } else { Fe::ONE };
        assert_eq!(a.mul(&a.invert()), expect);
    }
}

fn sign(seed: [u8; 32], msg: &[u8]) -> (VerifyingKey, Signature) {
    let sk = SigningKey::from_seed(seed);
    (sk.verifying_key(), sk.sign(msg))
}

fn assert_verify_matches(
    key: &VerifyingKey,
    msg: &[u8],
    sig: &Signature,
) -> Result<(), CryptoError> {
    let fast = key.verify(msg, sig);
    assert_eq!(
        fast,
        reference::verify(key, msg, sig),
        "key {key:?} sig {sig:?}"
    );
    fast
}

/// A point of small order: [ℓ]·P for an arbitrary curve point P, which
/// kills P's prime-order component and keeps its torsion.
fn small_order(p: &EdwardsPoint) -> EdwardsPoint {
    let l_minus_1 = Scalar::ZERO.sub(&Scalar::from_u64(1));
    p.mul_scalar(&l_minus_1).add(p)
}

/// Curve points that are not in the prime-order subgroup: decompress
/// successive y values until `want` of them decode.
fn mixed_order_points(want: usize) -> Vec<EdwardsPoint> {
    let mut out = Vec::new();
    let mut y = 2u8;
    while out.len() < want {
        let mut enc = [0u8; 32];
        enc[0] = y;
        enc[1] = 0x5a;
        if let Ok(p) = EdwardsPoint::decompress(&enc) {
            if !small_order(&p).is_identity() {
                out.push(p);
            }
        }
        y += 1;
    }
    out
}

/// All eight points of the torsion subgroup, as [ℓ]·P multiples.
fn torsion_points() -> Vec<EdwardsPoint> {
    let t = mixed_order_points(8)
        .iter()
        .map(small_order)
        .find(|t| {
            // A generator of the 8-torsion: 4·t is not the identity.
            !t.double().double().is_identity()
        })
        .expect("some curve point has full torsion");
    let mut out = vec![EdwardsPoint::identity()];
    let mut acc = t;
    while !acc.is_identity() {
        out.push(acc);
        acc = acc.add(&t);
    }
    assert_eq!(out.len(), 8);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn field_ops_match_reference_on_random_limbs(a in limbs(), b in limbs()) {
        assert_field_ops_match(&Fe::from_limbs(a), &Fe::from_limbs(b));
    }

    #[test]
    fn x25519_base_matches_ladder(k in prop::array::uniform32(any::<u8>())) {
        prop_assert_eq!(x25519_base(&k), reference::x25519_base(&k));
    }

    #[test]
    fn double_scalar_mul_matches_separate_products(
        a in prop::array::uniform32(any::<u8>()),
        b in prop::array::uniform32(any::<u8>()),
        seed in any::<u8>(),
    ) {
        let a = Scalar::from_bytes_mod_order(&a);
        let b = Scalar::from_bytes_mod_order(&b);
        let p = mul_basepoint(&Scalar::from_u64(u64::from(seed) + 2));
        let expect = p.mul_scalar(&a).add(&basepoint().mul_scalar(&b));
        prop_assert!(EdwardsPoint::double_scalar_mul(&a, &p, &b).eq_point(&expect));
    }

    #[test]
    fn verify_matches_reference_on_valid_and_flipped(
        seed in prop::array::uniform32(any::<u8>()),
        msg in prop::collection::vec(any::<u8>(), 0..96),
        flip in 0usize..(64 + 32 + 96) * 8,
    ) {
        let (key, sig) = sign(seed, &msg);
        prop_assert_eq!(assert_verify_matches(&key, &msg, &sig), Ok(()));
        let (byte, bit) = (flip / 8, 1u8 << (flip % 8));
        let (mut key, mut sig, mut msg) = (key, sig, msg);
        if byte < 64 {
            sig.0[byte] ^= bit;
        } else if byte < 96 {
            key.0[byte - 64] ^= bit;
        } else if msg.is_empty() {
            msg.push(bit);
        } else {
            let i = (byte - 96) % msg.len();
            msg[i] ^= bit;
        }
        prop_assert!(assert_verify_matches(&key, &msg, &sig).is_err());
    }
}

#[test]
fn double_scalar_mul_handles_torsion_and_zero_scalars() {
    let l_minus_1 = Scalar::ZERO.sub(&Scalar::from_u64(1));
    let scalars = [
        Scalar::ZERO,
        Scalar::from_u64(1),
        Scalar::from_u64(8),
        l_minus_1,
    ];
    let mut points = torsion_points();
    points.extend(mixed_order_points(3));
    for p in &points {
        for a in &scalars {
            for b in &scalars {
                let expect = p.mul_scalar(a).add(&basepoint().mul_scalar(b));
                assert!(EdwardsPoint::double_scalar_mul(a, p, b).eq_point(&expect));
            }
        }
    }
}

#[test]
fn verify_matches_reference_on_non_canonical_scalar() {
    let (key, sig) = sign([7; 32], b"m");
    // s + ℓ: the same residue, non-canonical encoding.
    let l: [u8; 32] = {
        let mut l = [0u8; 32];
        l[..16].copy_from_slice(&0x14de_f9de_a2f7_9cd6_5812_631a_5cf5_d3ed_u128.to_le_bytes());
        l[31] = 0x10;
        l
    };
    let mut forged = sig;
    let mut carry = 0u16;
    for (out, (s, l)) in forged.0[32..].iter_mut().zip(sig.0[32..].iter().zip(l)) {
        let v = u16::from(*s) + u16::from(l) + carry;
        *out = v as u8;
        carry = v >> 8;
    }
    assert_eq!(carry, 0, "s + ℓ fits 256 bits for canonical s");
    assert_eq!(
        assert_verify_matches(&key, b"m", &forged),
        Err(CryptoError::NonCanonicalScalar)
    );
    // An all-ones s is out of range too.
    let mut forged = sig;
    forged.0[32..].copy_from_slice(&[0xff; 32]);
    assert_eq!(
        assert_verify_matches(&key, b"m", &forged),
        Err(CryptoError::NonCanonicalScalar)
    );
}

#[test]
fn verify_matches_reference_on_non_canonical_points() {
    let (key, sig) = sign([8; 32], b"m");
    // y = p + k for small k: each a non-canonical encoding of y = k.
    for k in 0u8..19 {
        let mut enc = [0xffu8; 32];
        enc[0] = 0xed + k;
        enc[31] = 0x7f;
        for sign_bit in [0u8, 0x80] {
            let mut enc = enc;
            enc[31] |= sign_bit;
            let mut bad_r = sig;
            bad_r.0[..32].copy_from_slice(&enc);
            assert_eq!(
                assert_verify_matches(&key, b"m", &bad_r),
                Err(CryptoError::InvalidPoint)
            );
            assert_eq!(
                assert_verify_matches(&VerifyingKey(enc), b"m", &sig),
                Err(CryptoError::InvalidPoint)
            );
        }
    }
    // x = 0 with the sign bit set: y = ±1 (the identity and its
    // order-2 partner) encoded with a negative zero.
    for y in [Fe::ONE, Fe::ONE.neg()] {
        let mut enc = y.to_bytes();
        enc[31] |= 0x80;
        let mut bad_r = sig;
        bad_r.0[..32].copy_from_slice(&enc);
        assert_eq!(
            assert_verify_matches(&key, b"m", &bad_r),
            Err(CryptoError::InvalidPoint)
        );
        assert_eq!(
            assert_verify_matches(&VerifyingKey(enc), b"m", &sig),
            Err(CryptoError::InvalidPoint)
        );
    }
}

#[test]
fn verify_matches_reference_on_small_order_r_and_a() {
    let (key, sig) = sign([9; 32], b"small order");
    for t in torsion_points() {
        let enc = t.compress();
        // Small-order R under an honest key.
        let mut bad_r = sig;
        bad_r.0[..32].copy_from_slice(&enc);
        assert_verify_matches(&key, b"small order", &bad_r).unwrap_err();
        // Small-order A with an honest-looking signature and with the
        // classic forgery R = identity-class, s = 0.
        let weak = VerifyingKey(enc);
        assert_verify_matches(&weak, b"small order", &sig).ok();
        let mut forged = Signature([0u8; 64]);
        forged.0[..32].copy_from_slice(&enc);
        for msg in [&b""[..], b"small order", b"x"] {
            assert_verify_matches(&weak, msg, &forged).ok();
        }
        let mut forged = Signature([0u8; 64]);
        forged.0[..32].copy_from_slice(&EdwardsPoint::identity().compress());
        assert_verify_matches(&weak, b"x", &forged).ok();
    }
    // A key whose point has a torsion component: the verdict still
    // agrees with the reference for signatures made under the clean key.
    for p in mixed_order_points(3) {
        let mixed = VerifyingKey(p.compress());
        assert_verify_matches(&mixed, b"small order", &sig).ok();
    }
}
