//! Arithmetic in GF(2^255 − 19) with radix-2^51 limbs.
//!
//! Representation: five `u64` limbs, value = Σ `limb[i]`·2^(51·i). Every
//! operation accepts limbs below 2^52 and leaves them below 2^51 + 2^10,
//! so products never need their inputs reduced first; full canonical
//! reduction happens only on encoding.
//!
//! [`Fe::invert`] and [`Fe::pow_p58`] use the standard addition chains
//! (~250 squarings and 11 multiplications each). The straightforward code
//! they replaced — input-reducing multiplication, squaring as `mul(x, x)`,
//! bit-by-bit exponentiation — is kept in [`crate::reference`] as the
//! differential-testing oracle.

use std::sync::OnceLock;

/// A field element of GF(2^255 − 19).
#[derive(Debug, Clone, Copy)]
pub struct Fe(pub(crate) [u64; 5]);

const MASK51: u64 = (1 << 51) - 1;

impl Fe {
    /// The additive identity.
    pub const ZERO: Fe = Fe([0; 5]);
    /// The multiplicative identity.
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Construct from raw radix-2^51 limbs. Each limb must be below 2^52,
    /// the loose-reduction bound every operation accepts.
    pub fn from_limbs(limbs: [u64; 5]) -> Fe {
        debug_assert!(limbs.iter().all(|&l| l < 1 << 52));
        Fe(limbs)
    }

    /// Construct from a small u64 (< 2^51).
    pub fn from_u64(v: u64) -> Fe {
        debug_assert!(v <= MASK51);
        Fe([v, 0, 0, 0, 0])
    }

    /// Decode 32 little-endian bytes (the high bit of byte 31 is ignored,
    /// per convention).
    pub fn from_bytes(b: &[u8; 32]) -> Fe {
        let load = |off: usize| -> u64 {
            let mut w = [0u8; 8];
            w.copy_from_slice(&b[off..off + 8]);
            u64::from_le_bytes(w)
        };
        Fe([
            load(0) & MASK51,
            (load(6) >> 3) & MASK51,
            (load(12) >> 6) & MASK51,
            (load(19) >> 1) & MASK51,
            (load(24) >> 12) & MASK51,
        ])
    }

    /// Encode canonically to 32 little-endian bytes.
    pub fn to_bytes(self) -> [u8; 32] {
        let mut t = self.reduce_limbs().0;
        // Canonical reduction: compute q = 1 iff value >= p, then subtract.
        let mut q = (t[0].wrapping_add(19)) >> 51;
        q = (t[1].wrapping_add(q)) >> 51;
        q = (t[2].wrapping_add(q)) >> 51;
        q = (t[3].wrapping_add(q)) >> 51;
        q = (t[4].wrapping_add(q)) >> 51;

        t[0] = t[0].wrapping_add(19u64.wrapping_mul(q));
        let mut carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] = t[1].wrapping_add(carry);
        carry = t[1] >> 51;
        t[1] &= MASK51;
        t[2] = t[2].wrapping_add(carry);
        carry = t[2] >> 51;
        t[2] &= MASK51;
        t[3] = t[3].wrapping_add(carry);
        carry = t[3] >> 51;
        t[3] &= MASK51;
        t[4] = t[4].wrapping_add(carry);
        t[4] &= MASK51; // drop bit 255 (the subtracted 2^255)

        let mut out = [0u8; 32];
        let lo = |x: u64| x.to_le_bytes();
        // Pack 5×51 bits into 32 bytes.
        let w0 = t[0] | (t[1] << 51);
        let w1 = (t[1] >> 13) | (t[2] << 38);
        let w2 = (t[2] >> 26) | (t[3] << 25);
        let w3 = (t[3] >> 39) | (t[4] << 12);
        out[0..8].copy_from_slice(&lo(w0));
        out[8..16].copy_from_slice(&lo(w1));
        out[16..24].copy_from_slice(&lo(w2));
        out[24..32].copy_from_slice(&lo(w3));
        out
    }

    /// One carry pass bringing limbs below 2^51 (+ small epsilon in limb 0).
    pub(crate) fn reduce_limbs(self) -> Fe {
        let mut t = self.0;
        let mut carry;
        carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        carry = t[1] >> 51;
        t[1] &= MASK51;
        t[2] += carry;
        carry = t[2] >> 51;
        t[2] &= MASK51;
        t[3] += carry;
        carry = t[3] >> 51;
        t[3] &= MASK51;
        t[4] += carry;
        carry = t[4] >> 51;
        t[4] &= MASK51;
        t[0] += carry * 19;
        carry = t[0] >> 51;
        t[0] &= MASK51;
        t[1] += carry;
        Fe(t)
    }

    /// Field addition.
    pub fn add(&self, rhs: &Fe) -> Fe {
        let mut out = [0u64; 5];
        for (o, (a, b)) in out.iter_mut().zip(self.0.iter().zip(rhs.0.iter())) {
            *o = a + b;
        }
        Fe(out).reduce_limbs()
    }

    /// Field subtraction.
    pub fn sub(&self, rhs: &Fe) -> Fe {
        // Add 4p before subtracting so limbs stay non-negative for any
        // `rhs` limb below 2^52; in radix-51,
        // 4p = (2^53 − 76, 2^53 − 4, 2^53 − 4, 2^53 − 4, 2^53 − 4).
        let four_p = [
            0x001F_FFFF_FFFF_FFB4_u64,
            0x001F_FFFF_FFFF_FFFC,
            0x001F_FFFF_FFFF_FFFC,
            0x001F_FFFF_FFFF_FFFC,
            0x001F_FFFF_FFFF_FFFC,
        ];
        let mut out = [0u64; 5];
        for i in 0..5 {
            out[i] = self.0[i] + four_p[i] - rhs.0[i];
        }
        Fe(out).reduce_limbs()
    }

    /// Field negation.
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Field multiplication. Inputs need no reduction: with limbs below
    /// 2^52 every partial-product sum stays below 2^111.
    pub fn mul(&self, rhs: &Fe) -> Fe {
        let f = &self.0;
        let g = &rhs.0;
        let m = |a: u64, b: u64| (a as u128) * (b as u128);
        let (g1_19, g2_19, g3_19, g4_19) = (19 * g[1], 19 * g[2], 19 * g[3], 19 * g[4]);

        let r0 = m(f[0], g[0]) + m(f[1], g4_19) + m(f[2], g3_19) + m(f[3], g2_19) + m(f[4], g1_19);
        let r1 = m(f[0], g[1]) + m(f[1], g[0]) + m(f[2], g4_19) + m(f[3], g3_19) + m(f[4], g2_19);
        let r2 = m(f[0], g[2]) + m(f[1], g[1]) + m(f[2], g[0]) + m(f[3], g4_19) + m(f[4], g3_19);
        let r3 = m(f[0], g[3]) + m(f[1], g[2]) + m(f[2], g[1]) + m(f[3], g[0]) + m(f[4], g4_19);
        let r4 = m(f[0], g[4]) + m(f[1], g[3]) + m(f[2], g[2]) + m(f[3], g[1]) + m(f[4], g[0]);

        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// Field squaring: 15 limb products instead of `mul`'s 25.
    pub fn square(&self) -> Fe {
        let f = &self.0;
        let m = |a: u64, b: u64| (a as u128) * (b as u128);
        let (f0_2, f1_2) = (2 * f[0], 2 * f[1]);
        let (f1_38, f2_38, f3_38) = (38 * f[1], 38 * f[2], 38 * f[3]);
        let (f3_19, f4_19) = (19 * f[3], 19 * f[4]);

        let r0 = m(f[0], f[0]) + m(f1_38, f[4]) + m(f2_38, f[3]);
        let r1 = m(f0_2, f[1]) + m(f2_38, f[4]) + m(f3_19, f[3]);
        let r2 = m(f0_2, f[2]) + m(f[1], f[1]) + m(f3_38, f[4]);
        let r3 = m(f0_2, f[3]) + m(f1_2, f[2]) + m(f4_19, f[4]);
        let r4 = m(f0_2, f[4]) + m(f1_2, f[3]) + m(f[2], f[2]);

        Fe::carry_wide([r0, r1, r2, r3, r4])
    }

    /// `self^(2^k)` by `k` successive squarings.
    fn pow2k(&self, k: u32) -> Fe {
        let mut acc = *self;
        for _ in 0..k {
            acc = acc.square();
        }
        acc
    }

    /// Carry a product's five 128-bit column sums down to 51-bit limbs,
    /// folding the top carry back in through 2^255 ≡ 19. Leaves limb 0
    /// below 2^51 and limb 1 below 2^51 + 2^10.
    pub(crate) fn carry_wide(r: [u128; 5]) -> Fe {
        let mut out = [0u64; 5];
        let mut carry: u128 = 0;
        for (o, v) in out.iter_mut().zip(r) {
            let v = v + carry;
            *o = (v as u64) & MASK51;
            carry = v >> 51;
        }
        out[0] += (carry as u64) * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK51;
        Fe(out)
    }

    /// Raise to the power given by 32 little-endian exponent bytes
    /// (variable-time; used only with fixed public exponents).
    pub fn pow_vartime(&self, exp_le: &[u8; 32]) -> Fe {
        let mut acc = Fe::ONE;
        let mut started = false;
        for byte in exp_le.iter().rev() {
            for bit in (0..8).rev() {
                if started {
                    acc = acc.square();
                }
                if (byte >> bit) & 1 == 1 {
                    acc = acc.mul(self);
                    started = true;
                }
            }
        }
        acc
    }

    /// `(self^(2^250 − 1), self^11)`: the shared prefix of the
    /// [`invert`](Self::invert) and [`pow_p58`](Self::pow_p58) addition
    /// chains (ref10's).
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2).mul(self); // 9
        let t11 = t0.mul(&t1); // 11
        let t2 = t11.square().mul(&t1); // 2^5 − 1
        let t3 = t2.pow2k(5).mul(&t2); // 2^10 − 1
        let t4 = t3.pow2k(10).mul(&t3); // 2^20 − 1
        let t5 = t4.pow2k(20).mul(&t4); // 2^40 − 1
        let t6 = t5.pow2k(10).mul(&t3); // 2^50 − 1
        let t7 = t6.pow2k(50).mul(&t6); // 2^100 − 1
        let t8 = t7.pow2k(100).mul(&t7); // 2^200 − 1
        let t9 = t8.pow2k(50).mul(&t6); // 2^250 − 1
        (t9, t11)
    }

    /// Multiplicative inverse via Fermat: `self^(p−2)`, p − 2 = 2^255 − 21.
    /// Returns zero for zero input.
    pub fn invert(&self) -> Fe {
        let (t, t11) = self.pow22501();
        t.pow2k(5).mul(&t11)
    }

    /// `self^((p−5)/8)` = `self^(2^252 − 3)`, used in square-root
    /// extraction.
    pub fn pow_p58(&self) -> Fe {
        let (t, _) = self.pow22501();
        t.pow2k(2).mul(self)
    }

    /// sqrt(−1) mod p = 2^((p−1)/4), derived once.
    pub fn sqrt_m1() -> Fe {
        static SQRT_M1: OnceLock<Fe> = OnceLock::new();
        *SQRT_M1.get_or_init(|| {
            // (p−1)/4 = 2^253 − 5, bytes: fb ff .. ff 1f
            let mut e = [0xffu8; 32];
            e[0] = 0xfb;
            e[31] = 0x1f;
            Fe::from_u64(2).pow_vartime(&e)
        })
    }

    /// Compute `sqrt(u/v)` if it exists (ref10 algorithm). Returns
    /// `(was_square, root)`.
    pub fn sqrt_ratio(u: &Fe, v: &Fe) -> (bool, Fe) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());
        let u_neg = u.neg();
        let correct = check.ct_eq(u);
        let flipped = check.ct_eq(&u_neg);
        if flipped {
            r = r.mul(&Fe::sqrt_m1());
        }
        (correct || flipped, r)
    }

    /// Canonical equality.
    pub fn ct_eq(&self, other: &Fe) -> bool {
        crate::ct::ct_eq(&self.to_bytes(), &other.to_bytes())
    }

    /// True if the canonical encoding is zero.
    pub fn is_zero(&self) -> bool {
        self.ct_eq(&Fe::ZERO)
    }

    /// Sign bit: least-significant bit of the canonical encoding.
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    /// Conditional negation (variable-time on `flag`; flags here derive
    /// from public encodings).
    pub fn cneg(&self, flag: bool) -> Fe {
        if flag {
            self.neg()
        } else {
            *self
        }
    }
}

impl PartialEq for Fe {
    fn eq(&self, other: &Self) -> bool {
        self.ct_eq(other)
    }
}
impl Eq for Fe {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_plus_one() {
        let two = Fe::ONE.add(&Fe::ONE);
        assert_eq!(two, Fe::from_u64(2));
    }

    #[test]
    fn sub_wraps() {
        let a = Fe::from_u64(5);
        let b = Fe::from_u64(7);
        let d = a.sub(&b); // -2 mod p
        assert_eq!(d.add(&Fe::from_u64(2)), Fe::ZERO);
    }

    #[test]
    fn mul_matches_repeated_add() {
        let a = Fe::from_u64(123456789);
        let mut s = Fe::ZERO;
        for _ in 0..17 {
            s = s.add(&a);
        }
        assert_eq!(a.mul(&Fe::from_u64(17)), s);
    }

    #[test]
    fn invert_roundtrip() {
        let a = Fe::from_u64(0x1234_5678_9abc);
        let inv = a.invert();
        assert_eq!(a.mul(&inv), Fe::ONE);
    }

    #[test]
    fn invert_zero_is_zero() {
        assert_eq!(Fe::ZERO.invert(), Fe::ZERO);
    }

    #[test]
    fn sqrt_m1_squares_to_minus_one() {
        let i = Fe::sqrt_m1();
        assert_eq!(i.square(), Fe::ONE.neg());
    }

    #[test]
    fn sqrt_ratio_perfect_square() {
        let x = Fe::from_u64(42);
        let sq = x.square();
        let (ok, r) = Fe::sqrt_ratio(&sq, &Fe::ONE);
        assert!(ok);
        assert!(r == x || r == x.neg());
    }

    #[test]
    fn sqrt_ratio_non_square() {
        // 2 is a non-square mod p (p ≡ 5 mod 8).
        let (ok, _) = Fe::sqrt_ratio(&Fe::from_u64(2), &Fe::ONE);
        assert!(!ok);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut b = [0u8; 32];
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i * 7 + 3) as u8;
        }
        b[31] &= 0x7f;
        let fe = Fe::from_bytes(&b);
        assert_eq!(fe.to_bytes(), b);
    }

    #[test]
    fn canonical_reduction_of_p_is_zero() {
        // p itself encodes to zero.
        let mut p_bytes = [0xffu8; 32];
        p_bytes[0] = 0xed;
        p_bytes[31] = 0x7f;
        let fe = Fe::from_bytes(&p_bytes);
        assert_eq!(fe.to_bytes(), [0u8; 32]);
    }

    #[test]
    fn p_plus_one_is_one() {
        let mut b = [0xffu8; 32];
        b[0] = 0xee; // p + 1
        b[31] = 0x7f;
        let fe = Fe::from_bytes(&b);
        assert_eq!(fe, Fe::ONE);
    }

    #[test]
    fn distributivity() {
        let a = Fe::from_u64(111111);
        let b = Fe::from_u64(222222);
        let c = Fe::from_u64(333333);
        assert_eq!(a.mul(&b.add(&c)), a.mul(&b).add(&a.mul(&c)));
    }
}
