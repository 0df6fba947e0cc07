//! The straightforward curve code the fast paths replaced, kept as the
//! differential-testing reference (the way [`crate::poly1305::poly1305_scalar`]
//! backs the wide Poly1305 path).
//!
//! * Field: multiplication that reduces both inputs first, squaring as
//!   `mul(x, x)`, and inversion, `pow_p58` and `sqrt(−1)` by bit-by-bit
//!   square-and-multiply over the public exponent.
//! * X25519: the fixed-base public key through the full 255-step ladder.
//! * Ed25519: verification as two separate scalar multiplications, `s·B`
//!   and `R + k·A`, with the unified extended-coordinate formulas.
//!
//! Nothing on a production path calls this module; `tests/curve_path.rs`
//! compares it against the fast code on random and edge-case inputs.

use crate::ed25519::{Signature, VerifyingKey};
use crate::edwards::{basepoint, EdwardsPoint};
use crate::field::Fe;
use crate::scalar::Scalar;
use crate::sha2::Sha512;
use crate::x25519::{x25519, X25519_BASEPOINT_U};
use crate::CryptoError;

/// Field multiplication, reducing both operands before the schoolbook
/// product.
pub fn fe_mul(a: &Fe, b: &Fe) -> Fe {
    let f = &a.reduce_limbs().0;
    let g = &b.reduce_limbs().0;
    let m = |a: u64, b: u64| (a as u128) * (b as u128);

    let r0 = m(f[0], g[0]) + 19 * (m(f[1], g[4]) + m(f[2], g[3]) + m(f[3], g[2]) + m(f[4], g[1]));
    let r1 = m(f[0], g[1]) + m(f[1], g[0]) + 19 * (m(f[2], g[4]) + m(f[3], g[3]) + m(f[4], g[2]));
    let r2 = m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) + 19 * (m(f[3], g[4]) + m(f[4], g[3]));
    let r3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) + 19 * m(f[4], g[4]);
    let r4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) + m(f[4], g[0]);

    Fe::carry_wide([r0, r1, r2, r3, r4]).reduce_limbs()
}

/// Field squaring as a general multiplication.
pub fn fe_square(a: &Fe) -> Fe {
    fe_mul(a, a)
}

/// Left-to-right square-and-multiply over 32 little-endian exponent bytes.
fn fe_pow(a: &Fe, exp_le: &[u8; 32]) -> Fe {
    let mut acc = Fe::ONE;
    let mut started = false;
    for byte in exp_le.iter().rev() {
        for bit in (0..8).rev() {
            if started {
                acc = fe_square(&acc);
            }
            if (byte >> bit) & 1 == 1 {
                acc = fe_mul(&acc, a);
                started = true;
            }
        }
    }
    acc
}

/// `a^(p−2)`: the multiplicative inverse (zero for zero).
pub fn fe_invert(a: &Fe) -> Fe {
    // p − 2 = 2^255 − 21, little-endian bytes: eb ff .. ff 7f
    let mut e = [0xffu8; 32];
    e[0] = 0xeb;
    e[31] = 0x7f;
    fe_pow(a, &e)
}

/// `a^((p−5)/8)`.
pub fn fe_pow_p58(a: &Fe) -> Fe {
    // (p − 5)/8 = 2^252 − 3, bytes: fd ff .. ff 0f
    let mut e = [0xffu8; 32];
    e[0] = 0xfd;
    e[31] = 0x0f;
    fe_pow(a, &e)
}

/// sqrt(−1) = 2^((p−1)/4), recomputed on every call.
pub fn sqrt_m1() -> Fe {
    // (p − 1)/4 = 2^253 − 5, bytes: fb ff .. ff 1f
    let mut e = [0xffu8; 32];
    e[0] = 0xfb;
    e[31] = 0x1f;
    fe_pow(&Fe::from_u64(2), &e)
}

/// The X25519 public key for `k` through the Montgomery ladder: `k · 9`.
pub fn x25519_base(k: &[u8; 32]) -> [u8; 32] {
    x25519(k, &X25519_BASEPOINT_U)
}

/// Ed25519 verification with the same checks, in the same order, as
/// [`VerifyingKey::verify`], but computing `s·B` and `R + k·A` separately
/// with the windowed variable-base multiplication.
pub fn verify(key: &VerifyingKey, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
    let mut r_bytes = [0u8; 32];
    r_bytes.copy_from_slice(&sig.0[..32]);
    let mut s_bytes = [0u8; 32];
    s_bytes.copy_from_slice(&sig.0[32..]);

    let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::NonCanonicalScalar)?;
    let r_point = EdwardsPoint::decompress(&r_bytes)?;
    let a_point = EdwardsPoint::decompress(&key.0)?;

    let mut h = Sha512::new();
    h.update(&r_bytes);
    h.update(&key.0);
    h.update(msg);
    let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

    let lhs = basepoint().mul_scalar(&s);
    let rhs = r_point.add(&a_point.mul_scalar(&k));
    if lhs.eq_point(&rhs) {
        Ok(())
    } else {
        Err(CryptoError::BadSignature)
    }
}
