//! The twisted Edwards curve `-x² + y² = 1 + d·x²·y²` over GF(2^255 − 19)
//! used by Ed25519, in extended homogeneous coordinates (X : Y : Z : T)
//! with `x = X/Z`, `y = Y/Z`, `x·y = T/Z`.
//!
//! The curve constant `d = −121665/121666` and the standard base point
//! (`y = 4/5`, sign(x) = 0) are derived at runtime from first principles,
//! avoiding transcription errors; structural tests then pin them down
//! (`ℓ·B = 𝒪`, base point is on the curve, encodings round-trip).

use crate::field::Fe;
use crate::scalar::Scalar;
use crate::CryptoError;
use std::sync::OnceLock;

/// A point on the Ed25519 curve, extended coordinates.
#[derive(Debug, Clone, Copy)]
pub struct EdwardsPoint {
    pub(crate) x: Fe,
    pub(crate) y: Fe,
    pub(crate) z: Fe,
    pub(crate) t: Fe,
}

/// The curve constant d = -121665/121666 mod p.
pub fn d() -> &'static Fe {
    static D: OnceLock<Fe> = OnceLock::new();
    D.get_or_init(|| {
        Fe::from_u64(121665)
            .neg()
            .mul(&Fe::from_u64(121666).invert())
    })
}

/// 2·d, used by the unified addition formula.
fn d2() -> &'static Fe {
    static D2: OnceLock<Fe> = OnceLock::new();
    D2.get_or_init(|| d().add(d()))
}

/// The standard base point B (y = 4/5, even x).
pub fn basepoint() -> &'static EdwardsPoint {
    static B: OnceLock<EdwardsPoint> = OnceLock::new();
    B.get_or_init(|| {
        let y = Fe::from_u64(4).mul(&Fe::from_u64(5).invert());
        let mut enc = y.to_bytes();
        enc[31] &= 0x7f; // sign(x) = 0
        EdwardsPoint::decompress(&enc).expect("base point must decompress")
    })
}

/// A point prepared as the right-hand operand of an addition:
/// (Y+X, Y−X, 2Z, 2d·T). Table entries are stored this way so each
/// addition against them costs four multiplications before the result is
/// mapped back (add-2008-hwcd-3 with the per-operand work done once).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CachedPoint {
    y_plus_x: Fe,
    y_minus_x: Fe,
    z2: Fe,
    t2d: Fe,
}

/// The output of one addition or doubling, ((X:Z), (Y:T)) with
/// `x = X/Z`, `y = Y/T`, before it is mapped back to projective
/// (3 multiplications) or extended (4) coordinates.
struct CompletedPoint {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// (X : Y : Z) without the extended coordinate T: all a doubling needs,
/// so a doubling followed by another doubling never computes T.
struct ProjectivePoint {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl CompletedPoint {
    fn to_projective(&self) -> ProjectivePoint {
        ProjectivePoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
        }
    }

    fn to_extended(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.mul(&self.t),
            y: self.y.mul(&self.z),
            z: self.z.mul(&self.t),
            t: self.x.mul(&self.y),
        }
    }
}

impl ProjectivePoint {
    /// Doubling (dbl-2008-hwcd, a = −1): three squarings plus `(X+Y)²`.
    fn double(&self) -> CompletedPoint {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz2 = self.z.square();
        let zz2 = zz2.add(&zz2);
        let yy_plus_xx = yy.add(&xx);
        let yy_minus_xx = yy.sub(&xx);
        CompletedPoint {
            x: self.x.add(&self.y).square().sub(&yy_plus_xx),
            y: yy_plus_xx,
            z: yy_minus_xx,
            t: zz2.sub(&yy_minus_xx),
        }
    }
}

/// Precomputed fixed-base table: `table[w][d-1] = d · 16^w · B` for 64
/// 4-bit windows and digits d ∈ 1..=15, in cached form. ~150 KiB once,
/// built lazily; turns the 256-double-and-add basepoint multiplication
/// into 64 table additions (the standard comb optimization — signing, key
/// generation and the X25519 public key sit on this path).
fn basepoint_table() -> &'static [[CachedPoint; 15]] {
    static T: OnceLock<Vec<[CachedPoint; 15]>> = OnceLock::new();
    T.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut window_base = *basepoint(); // 16^w · B
        for _ in 0..64 {
            let mut row = [window_base.to_cached(); 15];
            let mut acc = window_base; // d · 16^w · B
            for slot in row.iter_mut() {
                *slot = acc.to_cached();
                acc = acc.add(&window_base);
            }
            table.push(row);
            window_base = acc; // 16 · 16^w · B = 16^(w+1) · B
        }
        table
    })
}

/// Fixed-base scalar multiplication `s · B` via the precomputed window
/// table. Variable-time in the scalar's digits (table lookups are
/// indexed by secret data) — acceptable for this research reproduction;
/// see the crate-level security note.
pub fn mul_basepoint(s: &Scalar) -> EdwardsPoint {
    mul_basepoint_bytes(&s.to_bytes())
}

/// `k · B` for any 256-bit little-endian `k`, unreduced (the comb covers
/// all 64 nibbles). Same secret-indexed lookups as [`mul_basepoint`].
pub(crate) fn mul_basepoint_bytes(k: &[u8; 32]) -> EdwardsPoint {
    let table = basepoint_table();
    let mut acc = EdwardsPoint::identity();
    for (i, byte) in k.iter().enumerate() {
        for (w, digit) in [(2 * i, byte & 0x0f), (2 * i + 1, byte >> 4)] {
            if digit != 0 {
                acc = acc.add_cached(&table[w][digit as usize - 1]).to_extended();
            }
        }
    }
    acc
}

/// The odd multiples `B, 3B, …, 127B` for the width-8 non-adjacent form
/// of the base-point scalar in [`EdwardsPoint::double_scalar_mul`].
fn basepoint_odd_multiples() -> &'static [CachedPoint; 64] {
    static T: OnceLock<[CachedPoint; 64]> = OnceLock::new();
    T.get_or_init(|| odd_multiples(basepoint()))
}

/// `[P, 3P, 5P, …, (2N−1)P]` in cached form.
fn odd_multiples<const N: usize>(p: &EdwardsPoint) -> [CachedPoint; N] {
    let p2 = p.double().to_cached();
    let mut acc = *p;
    let mut table = [acc.to_cached(); N];
    for slot in table.iter_mut().skip(1) {
        acc = acc.add_cached(&p2).to_extended();
        *slot = acc.to_cached();
    }
    table
}

/// Width-`w` non-adjacent form of a canonical scalar: 256 signed digits,
/// each zero or odd with `|d| < 2^(w−1)`, any `w` consecutive digits
/// holding at most one nonzero, and `Σ dᵢ·2^i = s`.
fn non_adjacent_form(s: &Scalar, w: usize) -> [i8; 256] {
    debug_assert!((2..=8).contains(&w));
    let bytes = s.to_bytes();
    let mut limbs = [0u64; 5];
    for (limb, chunk) in limbs.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    let width = 1i64 << w;
    let mask = (1u64 << w) - 1;
    let mut naf = [0i8; 256];
    let mut pos = 0;
    let mut carry = 0i64;
    while pos < 256 {
        let (idx, bit) = (pos / 64, pos % 64);
        let bits = if bit <= 64 - w {
            limbs[idx] >> bit
        } else {
            (limbs[idx] >> bit) | (limbs[idx + 1] << (64 - bit))
        };
        let window = carry + (bits & mask) as i64;
        if window & 1 == 0 {
            pos += 1;
            continue;
        }
        if window < width / 2 {
            carry = 0;
            naf[pos] = window as i8;
        } else {
            carry = 1;
            naf[pos] = (window - width) as i8;
        }
        pos += w;
    }
    naf
}

impl EdwardsPoint {
    /// The identity element (neutral point).
    pub fn identity() -> EdwardsPoint {
        EdwardsPoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
            t: Fe::ZERO,
        }
    }

    /// Whether this is the identity.
    pub fn is_identity(&self) -> bool {
        // x/z == 0 and y/z == 1  ⟺  x == 0 and y == z.
        self.x.is_zero() && self.y.ct_eq(&self.z)
    }

    /// Point addition (unified formula add-2008-hwcd-3 for a = −1).
    pub fn add(&self, rhs: &EdwardsPoint) -> EdwardsPoint {
        let a = self.y.sub(&self.x).mul(&rhs.y.sub(&rhs.x));
        let b = self.y.add(&self.x).mul(&rhs.y.add(&rhs.x));
        let c = self.t.mul(d2()).mul(&rhs.t);
        let dd = self.z.mul(&rhs.z);
        let dd = dd.add(&dd);
        let e = b.sub(&a);
        let f = dd.sub(&c);
        let g = dd.add(&c);
        let h = b.add(&a);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point doubling (dbl-2008-hwcd, a = −1).
    pub fn double(&self) -> EdwardsPoint {
        let a = self.x.square();
        let b = self.y.square();
        let c = self.z.square();
        let c = c.add(&c);
        let d = a.neg(); // a·X² with a = −1
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = d.add(&b);
        let f = g.sub(&c);
        let h = d.sub(&b);
        EdwardsPoint {
            x: e.mul(&f),
            y: g.mul(&h),
            t: e.mul(&h),
            z: f.mul(&g),
        }
    }

    /// Point negation.
    pub fn neg(&self) -> EdwardsPoint {
        EdwardsPoint {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// Scalar multiplication by a canonical scalar, using a 4-bit window:
    /// 15 precomputed multiples, then 4 doublings + ≤1 addition per
    /// window. Variable-time in the scalar (see the crate security note);
    /// [`mul_scalar_uniform`](Self::mul_scalar_uniform) keeps the
    /// uniform-control-flow ladder for callers that prefer it.
    pub fn mul_scalar(&self, s: &Scalar) -> EdwardsPoint {
        // table[d-1] = d · P for d in 1..=15
        let mut table = [EdwardsPoint::identity(); 15];
        let mut acc = *self;
        for slot in table.iter_mut() {
            *slot = acc;
            acc = acc.add(self);
        }
        let bytes = s.to_bytes();
        let mut acc = EdwardsPoint::identity();
        for byte in bytes.iter().rev() {
            for digit in [byte >> 4, byte & 0x0f] {
                acc = acc.double().double().double().double();
                if digit != 0 {
                    acc = acc.add(&table[digit as usize - 1]);
                }
            }
        }
        acc
    }

    /// Double-and-add over all 256 bits with uniform structure (the
    /// original ladder; one addition computed per bit regardless of its
    /// value).
    pub fn mul_scalar_uniform(&self, s: &Scalar) -> EdwardsPoint {
        let bytes = s.to_bytes();
        let mut acc = EdwardsPoint::identity();
        for byte in bytes.iter().rev() {
            for bit in (0..8).rev() {
                acc = acc.double();
                let added = acc.add(self);
                if (byte >> bit) & 1 == 1 {
                    acc = added;
                }
            }
        }
        acc
    }

    /// `a·A + b·B` for the standard base point B, by Straus' method: one
    /// shared chain of ~253 doublings, adding odd multiples of A from the
    /// width-5 non-adjacent form of `a` and of B from the width-8 form of
    /// `b`. Variable-time in both scalars and in A; verification is its
    /// only caller, and all three are public there.
    pub fn double_scalar_mul(a: &Scalar, pa: &EdwardsPoint, b: &Scalar) -> EdwardsPoint {
        let a_naf = non_adjacent_form(a, 5);
        let b_naf = non_adjacent_form(b, 8);
        let Some(top) = (0..256).rev().find(|&i| a_naf[i] != 0 || b_naf[i] != 0) else {
            return EdwardsPoint::identity();
        };
        let a_table: [CachedPoint; 8] = odd_multiples(pa);
        let b_table = basepoint_odd_multiples();
        let mut r = ProjectivePoint {
            x: Fe::ZERO,
            y: Fe::ONE,
            z: Fe::ONE,
        };
        let mut i = top;
        loop {
            let mut t = r.double();
            for (digit, table) in [(a_naf[i], &a_table[..]), (b_naf[i], &b_table[..])] {
                let entry = &table[usize::from(digit.unsigned_abs() / 2)];
                if digit > 0 {
                    t = t.to_extended().add_cached(entry);
                } else if digit < 0 {
                    t = t.to_extended().sub_cached(entry);
                }
            }
            if i == 0 {
                return t.to_extended();
            }
            r = t.to_projective();
            i -= 1;
        }
    }

    /// This point in the cached form table entries use.
    pub(crate) fn to_cached(self) -> CachedPoint {
        CachedPoint {
            y_plus_x: self.y.add(&self.x),
            y_minus_x: self.y.sub(&self.x),
            z2: self.z.add(&self.z),
            t2d: self.t.mul(d2()),
        }
    }

    /// `self + q` for a cached `q`.
    fn add_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let pp = self.y.add(&self.x).mul(&q.y_plus_x);
        let mm = self.y.sub(&self.x).mul(&q.y_minus_x);
        let tt2d = self.t.mul(&q.t2d);
        let zz2 = self.z.mul(&q.z2);
        CompletedPoint {
            x: pp.sub(&mm),
            y: pp.add(&mm),
            z: zz2.add(&tt2d),
            t: zz2.sub(&tt2d),
        }
    }

    /// `self − q` for a cached `q`: the addition with −q = (Y−X, Y+X, 2Z,
    /// −2d·T).
    fn sub_cached(&self, q: &CachedPoint) -> CompletedPoint {
        let pm = self.y.add(&self.x).mul(&q.y_minus_x);
        let mp = self.y.sub(&self.x).mul(&q.y_plus_x);
        let tt2d = self.t.mul(&q.t2d);
        let zz2 = self.z.mul(&q.z2);
        CompletedPoint {
            x: pm.sub(&mp),
            y: pm.add(&mp),
            z: zz2.sub(&tt2d),
            t: zz2.add(&tt2d),
        }
    }

    /// Compress to the 32-byte encoding (y with the sign of x in the top
    /// bit).
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        if x.is_negative() {
            out[31] |= 0x80;
        }
        out
    }

    /// Decompress a 32-byte encoding; rejects encodings that are not on the
    /// curve or are non-canonical (x = 0 with sign bit set).
    pub fn decompress(bytes: &[u8; 32]) -> Result<EdwardsPoint, CryptoError> {
        let sign = bytes[31] >> 7 == 1;
        let mut ybytes = *bytes;
        ybytes[31] &= 0x7f;
        let y = Fe::from_bytes(&ybytes);
        // Reject non-canonical y (y >= p re-encodes differently).
        if y.to_bytes() != ybytes {
            return Err(CryptoError::InvalidPoint);
        }
        // x² = (y² − 1) / (d·y² + 1)
        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(d()).add(&Fe::ONE);
        let (is_square, mut x) = Fe::sqrt_ratio(&u, &v);
        if !is_square {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_zero() && sign {
            return Err(CryptoError::InvalidPoint);
        }
        if x.is_negative() != sign {
            x = x.neg();
        }
        Ok(EdwardsPoint {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// Verify the curve equation for this (projective) point. Used in tests
    /// and debug assertions.
    pub fn is_on_curve(&self) -> bool {
        // -X²Z² + Y²Z² = Z⁴ + d·X²Y²  and  T·Z = X·Y
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let lhs = yy.sub(&xx).mul(&zz);
        let rhs = zz.square().add(&d().mul(&xx).mul(&yy));
        let t_ok = self.t.mul(&self.z).ct_eq(&self.x.mul(&self.y));
        lhs.ct_eq(&rhs) && t_ok
    }

    /// Equality in the group (cross-multiplied affine comparison).
    pub fn eq_point(&self, other: &EdwardsPoint) -> bool {
        // X1/Z1 == X2/Z2 and Y1/Z1 == Y2/Z2
        self.x.mul(&other.z).ct_eq(&other.x.mul(&self.z))
            && self.y.mul(&other.z).ct_eq(&other.y.mul(&self.z))
    }
}

impl PartialEq for EdwardsPoint {
    fn eq(&self, other: &Self) -> bool {
        self.eq_point(other)
    }
}
impl Eq for EdwardsPoint {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn basepoint_on_curve() {
        assert!(basepoint().is_on_curve());
    }

    #[test]
    fn basepoint_roundtrips() {
        let enc = basepoint().compress();
        // Known canonical encoding of the Ed25519 base point.
        assert_eq!(
            enc.iter().map(|b| format!("{b:02x}")).collect::<String>(),
            "5866666666666666666666666666666666666666666666666666666666666666"
        );
        let back = EdwardsPoint::decompress(&enc).unwrap();
        assert!(back.eq_point(basepoint()));
    }

    #[test]
    fn identity_laws() {
        let id = EdwardsPoint::identity();
        assert!(id.is_on_curve());
        let b = basepoint();
        assert!(b.add(&id).eq_point(b));
        assert!(id.add(b).eq_point(b));
        assert!(b.add(&b.neg()).is_identity());
    }

    #[test]
    fn double_matches_add() {
        let b = basepoint();
        assert!(b.double().eq_point(&b.add(b)));
        let b4 = b.double().double();
        assert!(b4.eq_point(&b.add(b).add(b).add(b)));
    }

    #[test]
    fn order_l_annihilates_base() {
        let l_minus_1 = Scalar::from_u64(0).sub(&Scalar::from_u64(1)); // ℓ−1 mod ℓ
        let p = basepoint().mul_scalar(&l_minus_1);
        // (ℓ−1)·B = −B, so adding B gives the identity.
        assert!(p.add(basepoint()).is_identity());
    }

    #[test]
    fn scalar_mul_small_values() {
        let b = basepoint();
        let three = b.mul_scalar(&Scalar::from_u64(3));
        assert!(three.eq_point(&b.add(b).add(b)));
        let zero = b.mul_scalar(&Scalar::from_u64(0));
        assert!(zero.is_identity());
        let one = b.mul_scalar(&Scalar::from_u64(1));
        assert!(one.eq_point(b));
    }

    #[test]
    fn scalar_mul_distributes() {
        let b = basepoint();
        let a = Scalar::from_u64(1234567);
        let c = Scalar::from_u64(7654321);
        let lhs = b.mul_scalar(&a.add(&c));
        let rhs = b.mul_scalar(&a).add(&b.mul_scalar(&c));
        assert!(lhs.eq_point(&rhs));
    }

    #[test]
    fn decompress_rejects_garbage() {
        // y = 7 is not on the curve (x² would be non-square) — check a few.
        let mut rejected = 0;
        for y in [7u64, 11, 13] {
            let enc = Fe::from_u64(y).to_bytes();
            if EdwardsPoint::decompress(&enc).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "at least one small y must be off-curve");
    }

    #[test]
    fn decompress_rejects_noncanonical_y() {
        // Encode p + 3 (same as y = 3 but non-canonical).
        let mut bytes = [0xffu8; 32];
        bytes[0] = 0xf0; // p = ...ed; p + 3 = ...f0
        bytes[31] = 0x7f;
        assert_eq!(
            EdwardsPoint::decompress(&bytes),
            Err(CryptoError::InvalidPoint)
        );
    }

    #[test]
    fn compress_decompress_random_multiples() {
        let b = basepoint();
        for k in [2u64, 3, 5, 99, 1_000_003] {
            let p = b.mul_scalar(&Scalar::from_u64(k));
            assert!(p.is_on_curve());
            let enc = p.compress();
            let q = EdwardsPoint::decompress(&enc).unwrap();
            assert!(p.eq_point(&q));
        }
    }
}
#[cfg(test)]
mod table_tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn table_mul_matches_ladder() {
        for k in [0u64, 1, 2, 15, 16, 255, 1 << 20, u64::MAX] {
            let s = Scalar::from_u64(k);
            assert!(
                mul_basepoint(&s).eq_point(&basepoint().mul_scalar(&s)),
                "k = {k}"
            );
        }
        // Full-width scalars too.
        for seed in 0u8..8 {
            let s = Scalar::from_bytes_mod_order(&[seed.wrapping_mul(37); 32]);
            assert!(mul_basepoint(&s).eq_point(&basepoint().mul_scalar(&s)));
        }
    }

    #[test]
    fn table_mul_zero_is_identity() {
        assert!(mul_basepoint(&Scalar::ZERO).is_identity());
    }

    #[test]
    fn table_points_are_on_curve() {
        let s = Scalar::from_u64(0xdead_beef);
        assert!(mul_basepoint(&s).is_on_curve());
    }
}
#[cfg(test)]
mod window_tests {
    use super::*;
    use crate::scalar::Scalar;

    #[test]
    fn windowed_matches_uniform_ladder() {
        let p = basepoint().mul_scalar(&Scalar::from_u64(987654321));
        for seed in 0u8..6 {
            let s = Scalar::from_bytes_mod_order(&[seed.wrapping_mul(41).wrapping_add(3); 32]);
            assert!(p.mul_scalar(&s).eq_point(&p.mul_scalar_uniform(&s)));
        }
        assert!(p.mul_scalar(&Scalar::ZERO).is_identity());
        assert!(p.mul_scalar(&Scalar::from_u64(1)).eq_point(&p));
    }
}
