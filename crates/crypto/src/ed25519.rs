//! Ed25519 signatures (the RFC 8032 construction).

use crate::edwards::{mul_basepoint, EdwardsPoint};
use crate::scalar::Scalar;
use crate::sha2::Sha512;
use crate::CryptoError;
use rand::Rng;

/// A 64-byte Ed25519 signature (`R || s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Signature(pub [u8; 64]);

impl Signature {
    /// Parse from raw bytes.
    pub fn from_bytes(b: &[u8]) -> Result<Signature, CryptoError> {
        if b.len() != 64 {
            return Err(CryptoError::BadLength);
        }
        let mut out = [0u8; 64];
        out.copy_from_slice(b);
        Ok(Signature(out))
    }

    /// Raw bytes.
    pub fn to_bytes(&self) -> [u8; 64] {
        self.0
    }
}

/// An Ed25519 signing key (seed + cached expanded secret).
#[derive(Clone)]
pub struct SigningKey {
    seed: [u8; 32],
    a: Scalar,        // clamped secret scalar
    prefix: [u8; 32], // nonce-derivation prefix
    public: VerifyingKey,
}

/// An Ed25519 verifying (public) key: compressed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VerifyingKey(pub [u8; 32]);

fn clamp(mut k: [u8; 32]) -> [u8; 32] {
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

impl SigningKey {
    /// Derive the key pair from a 32-byte seed (RFC 8032 §5.1.5).
    pub fn from_seed(seed: [u8; 32]) -> SigningKey {
        let h = crate::sha2::sha512(&seed);
        let mut scalar_bytes = [0u8; 32];
        scalar_bytes.copy_from_slice(&h[..32]);
        let scalar_bytes = clamp(scalar_bytes);
        // The clamped value is < 2^255; reduce mod ℓ for our canonical
        // Scalar type (the group action is identical since ℓ·B = 𝒪).
        let a = Scalar::from_bytes_mod_order(&scalar_bytes);
        let mut prefix = [0u8; 32];
        prefix.copy_from_slice(&h[32..]);
        let public = VerifyingKey(mul_basepoint(&a).compress());
        SigningKey {
            seed,
            a,
            prefix,
            public,
        }
    }

    /// Generate a fresh random key pair.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> SigningKey {
        let mut seed = [0u8; 32];
        rng.fill_bytes(&mut seed);
        SigningKey::from_seed(seed)
    }

    /// The seed this key was derived from.
    pub fn seed(&self) -> &[u8; 32] {
        &self.seed
    }

    /// The corresponding public key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.public
    }

    /// Sign a message.
    pub fn sign(&self, msg: &[u8]) -> Signature {
        // r = SHA-512(prefix || M) mod ℓ  (deterministic nonce)
        let mut h = Sha512::new();
        h.update(&self.prefix);
        h.update(msg);
        let r = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let r_point = mul_basepoint(&r).compress();

        // k = SHA-512(R || A || M) mod ℓ
        let mut h = Sha512::new();
        h.update(&r_point);
        h.update(&self.public.0);
        h.update(msg);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let s = r.add(&k.mul(&self.a));
        let mut out = [0u8; 64];
        out[..32].copy_from_slice(&r_point);
        out[32..].copy_from_slice(&s.to_bytes());
        Signature(out)
    }
}

impl VerifyingKey {
    /// Verify `sig` over `msg`.
    ///
    /// Rejects non-canonical `s` (malleability) and invalid point
    /// encodings. Uses the cofactorless equation `s·B = R + k·A`, checked
    /// as `s·B − k·A = R` with one Straus double-scalar multiplication
    /// ([`EdwardsPoint::double_scalar_mul`]); `crate::reference::verify`
    /// keeps the two separate multiplications as the differential oracle.
    pub fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), CryptoError> {
        let mut r_bytes = [0u8; 32];
        r_bytes.copy_from_slice(&sig.0[..32]);
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig.0[32..]);

        let s = Scalar::from_canonical_bytes(&s_bytes).ok_or(CryptoError::NonCanonicalScalar)?;
        let r_point = EdwardsPoint::decompress(&r_bytes)?;
        let a_point = EdwardsPoint::decompress(&self.0)?;

        let mut h = Sha512::new();
        h.update(&r_bytes);
        h.update(&self.0);
        h.update(msg);
        let k = Scalar::from_bytes_mod_order_wide(&h.finalize());

        let check = EdwardsPoint::double_scalar_mul(&k, &a_point.neg(), &s);
        if check.eq_point(&r_point) {
            Ok(())
        } else {
            Err(CryptoError::BadSignature)
        }
    }

    /// Raw public key bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Short hex fingerprint for diagnostics.
    pub fn fingerprint(&self) -> String {
        self.0[..6].iter().map(|b| format!("{b:02x}")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len() / 2)
            .map(|i| u8::from_str_radix(&s[i * 2..i * 2 + 2], 16).unwrap())
            .collect()
    }

    /// RFC 8032 §7.1 TEST 1–3: secret key, public key, message,
    /// signature. Pins the construction to published bytes, not just to
    /// its own sign/verify agreement.
    const RFC8032_VECTORS: [(&str, &str, &str, &str); 3] = [
        (
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
    ];

    #[test]
    fn rfc8032_vectors() {
        for (i, (sk, pk, msg, sig)) in RFC8032_VECTORS.iter().enumerate() {
            let seed: [u8; 32] = unhex(sk).try_into().unwrap();
            let key = SigningKey::from_seed(seed);
            assert_eq!(
                key.verifying_key().0.to_vec(),
                unhex(pk),
                "TEST {} pk",
                i + 1
            );
            let msg = unhex(msg);
            let signature = key.sign(&msg);
            assert_eq!(signature.0.to_vec(), unhex(sig), "TEST {} sig", i + 1);
            key.verifying_key().verify(&msg, &signature).unwrap();
        }
    }

    fn key(n: u8) -> SigningKey {
        SigningKey::from_seed([n; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let sk = key(1);
        let sig = sk.sign(b"hello drbac");
        sk.verifying_key().verify(b"hello drbac", &sig).unwrap();
    }

    #[test]
    fn tampered_message_rejected() {
        let sk = key(2);
        let sig = sk.sign(b"original");
        assert_eq!(
            sk.verifying_key().verify(b"0riginal", &sig),
            Err(CryptoError::BadSignature)
        );
    }

    #[test]
    fn wrong_key_rejected() {
        let sig = key(3).sign(b"msg");
        assert!(key(4).verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn tampered_signature_rejected() {
        let sk = key(5);
        let mut sig = sk.sign(b"msg");
        sig.0[0] ^= 1;
        assert!(sk.verifying_key().verify(b"msg", &sig).is_err());
    }

    #[test]
    fn signing_is_deterministic() {
        let sk = key(6);
        assert_eq!(sk.sign(b"m"), sk.sign(b"m"));
        assert_ne!(sk.sign(b"m").0, sk.sign(b"n").0);
    }

    #[test]
    fn malleability_rejected() {
        // Add ℓ to s: same value mod ℓ but non-canonical encoding.
        let sk = key(7);
        let sig = sk.sign(b"m");
        let mut s_bytes = [0u8; 32];
        s_bytes.copy_from_slice(&sig.0[32..]);
        let s = crate::bigint::U256::from_le_bytes(&s_bytes);
        let (s_plus_l, overflow) = s.overflowing_add(crate::scalar::L);
        if !overflow {
            let mut forged = sig;
            forged.0[32..].copy_from_slice(&s_plus_l.to_le_bytes());
            assert_eq!(
                sk.verifying_key().verify(b"m", &forged),
                Err(CryptoError::NonCanonicalScalar)
            );
        }
    }

    #[test]
    fn empty_message_signs() {
        let sk = key(8);
        let sig = sk.sign(b"");
        sk.verifying_key().verify(b"", &sig).unwrap();
    }

    #[test]
    fn large_message_signs() {
        let sk = key(9);
        let msg = vec![0xa5u8; 100_000];
        let sig = sk.sign(&msg);
        sk.verifying_key().verify(&msg, &sig).unwrap();
    }

    #[test]
    fn generated_keys_differ() {
        let mut rng = rand::rng();
        let a = SigningKey::generate(&mut rng);
        let b = SigningKey::generate(&mut rng);
        assert_ne!(a.verifying_key(), b.verifying_key());
        let sig = a.sign(b"x");
        assert!(b.verifying_key().verify(b"x", &sig).is_err());
        a.verifying_key().verify(b"x", &sig).unwrap();
    }
}
