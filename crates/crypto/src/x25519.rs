//! X25519 Diffie-Hellman key agreement (RFC 7748): the Montgomery ladder
//! on the u-coordinate for shared secrets, and the Edwards base-point comb
//! for public keys.

use crate::edwards::mul_basepoint_bytes;
use crate::field::Fe;

/// The Montgomery curve base point u = 9.
pub const X25519_BASEPOINT_U: [u8; 32] = {
    let mut b = [0u8; 32];
    b[0] = 9;
    b
};

fn decode_scalar(k: &[u8; 32]) -> [u8; 32] {
    let mut s = *k;
    s[0] &= 248;
    s[31] &= 127;
    s[31] |= 64;
    s
}

/// Scalar multiplication on the Montgomery u-line: `k · u`.
///
/// Implements the RFC 7748 ladder with a swap-flag driven conditional swap.
pub fn x25519(k: &[u8; 32], u: &[u8; 32]) -> [u8; 32] {
    let k = decode_scalar(k);
    // RFC 7748: mask the top bit of u before decoding.
    let mut u_bytes = *u;
    u_bytes[31] &= 0x7f;
    let x1 = Fe::from_bytes(&u_bytes);

    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u8;

    let a24 = Fe::from_u64(121665);

    for t in (0..255).rev() {
        let k_t = (k[t / 8] >> (t % 8)) & 1;
        swap ^= k_t;
        if swap == 1 {
            core::mem::swap(&mut x2, &mut x3);
            core::mem::swap(&mut z2, &mut z3);
        }
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        z2 = e.mul(&aa.add(&a24.mul(&e)));
    }
    if swap == 1 {
        core::mem::swap(&mut x2, &mut x3);
        core::mem::swap(&mut z2, &mut z3);
    }

    x2.mul(&z2.invert()).to_bytes()
}

/// Compute the public key for a secret scalar: `k · 9`.
///
/// u = 9 is the Montgomery image of the Ed25519 base point B, so this
/// takes `k·B` from the fixed-base Edwards comb and maps it with
/// u = (1 + y)/(1 − y) = (Z + Y)/(Z − Y), instead of running the 255-step
/// ladder (`crate::reference::x25519_base` keeps that path). Like signing,
/// the comb indexes its table with secret nibbles of `k`.
pub fn x25519_base(k: &[u8; 32]) -> [u8; 32] {
    let p = mul_basepoint_bytes(&decode_scalar(k));
    p.z.add(&p.y).mul(&p.z.sub(&p.y).invert()).to_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let mut out = [0u8; 32];
        for (i, b) in out.iter_mut().enumerate() {
            *b = u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap();
        }
        out
    }

    #[test]
    fn rfc7748_vector_1() {
        // RFC 7748 §5.2 first test vector.
        let k = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let u = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&k, &u);
        assert_eq!(
            out,
            unhex32("c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552")
        );
    }

    #[test]
    fn rfc7748_vector_2() {
        // RFC 7748 §5.2 second test vector (u has its top bit set).
        let k = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let u = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        assert_eq!(
            x25519(&k, &u),
            unhex32("95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957")
        );
    }

    #[test]
    fn rfc7748_iterated() {
        // RFC 7748 §5.2: start with k = u = 9, then repeatedly set
        // k, u = x25519(k, u), k.
        let mut k = X25519_BASEPOINT_U;
        let mut u = X25519_BASEPOINT_U;
        for i in 1..=1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
            if i == 1 {
                assert_eq!(
                    k,
                    unhex32("422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079")
                );
            }
        }
        assert_eq!(
            k,
            unhex32("684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51")
        );
    }

    #[test]
    fn diffie_hellman_agreement() {
        let alice_sk = [0x11u8; 32];
        let bob_sk = [0x22u8; 32];
        let alice_pk = x25519_base(&alice_sk);
        let bob_pk = x25519_base(&bob_sk);
        let s1 = x25519(&alice_sk, &bob_pk);
        let s2 = x25519(&bob_sk, &alice_pk);
        assert_eq!(s1, s2);
        assert_ne!(s1, [0u8; 32]);
    }

    #[test]
    fn different_secrets_different_shared() {
        let pk = x25519_base(&[0x33u8; 32]);
        let s1 = x25519(&[0x44u8; 32], &pk);
        let s2 = x25519(&[0x55u8; 32], &pk);
        assert_ne!(s1, s2);
    }

    #[test]
    fn iterated_ladder_stays_consistent() {
        // k, u = k·u iterated a few times must match itself when recomputed;
        // exercises many field-arithmetic corner cases.
        let mut k = [0x77u8; 32];
        let mut u = X25519_BASEPOINT_U;
        for _ in 0..10 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        let again = {
            let mut k2 = [0x77u8; 32];
            let mut u2 = X25519_BASEPOINT_U;
            for _ in 0..10 {
                let r = x25519(&k2, &u2);
                u2 = k2;
                k2 = r;
            }
            k2
        };
        assert_eq!(k, again);
    }
}
