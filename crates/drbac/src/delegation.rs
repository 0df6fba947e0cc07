//! Delegations — the dRBAC credential (paper Table 1).
//!
//! ```text
//! Self-certifying   [ Subject → Issuer.Role ] Issuer   with Attr₁=V₁ …
//! Third-party       [ Subject → Entity.Role ] Issuer   with Attr₁=V₁ …
//! Assignment        [ Subject → Entity.Role ' ] Issuer with Attr₁=V₁ …
//! ```
//!
//! Every delegation is signed by its issuer over a canonical byte
//! encoding. A [`SignedDelegation`] is self-describing: given an
//! [`EntityRegistry`](crate::EntityRegistry) to resolve the issuer's public
//! key, anyone can re-verify it.

use crate::attr::AttrSet;
use crate::entity::{Entity, EntityName, RoleName, Subject};
use crate::{DrbacError, Timestamp};
use psf_crypto::ed25519::Signature;

/// The three delegation types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DelegationKind {
    /// `[ Subject → Issuer.Role ] Issuer` — the role owner grants
    /// membership directly.
    SelfCertifying,
    /// `[ Subject → Entity.Role ] Issuer`, issuer ≠ owner — valid only if
    /// the issuer holds the assignment right for the role.
    ThirdParty,
    /// `[ Subject → Entity.Role' ] Issuer` — grants the *right of
    /// assignment* (and further re-assignment) for the role.
    Assignment,
}

/// The unsigned body of a delegation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delegation {
    /// Who receives the rights.
    pub subject: Subject,
    /// The role whose rights are conveyed (`Entity.Role`).
    pub object: RoleName,
    /// Which of the three forms this is.
    pub kind: DelegationKind,
    /// Who issued (and signed) the delegation.
    pub issuer: EntityName,
    /// Attribute attenuations carried by this edge.
    pub attrs: AttrSet,
    /// Optional expiration (logical seconds); `None` = no expiry.
    pub expires: Option<Timestamp>,
    /// Whether the credential requires online validity monitoring from its
    /// home (paper §3.1); monitored credentials are checked against the
    /// revocation bus on every proof evaluation and subscribe monitors.
    pub monitored: bool,
    /// Issuer-chosen serial number; distinguishes re-issued credentials
    /// with otherwise identical content (e.g. re-validation after a
    /// revocation).
    pub serial: u64,
}

impl Delegation {
    /// Canonical byte encoding over which the issuer signs.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128);
        out.extend_from_slice(b"dRBAC-delegation-v1");
        self.subject.encode(&mut out);
        let obj = self.object.to_string();
        out.extend_from_slice(&(obj.len() as u32).to_le_bytes());
        out.extend_from_slice(obj.as_bytes());
        out.push(match self.kind {
            DelegationKind::SelfCertifying => 0,
            DelegationKind::ThirdParty => 1,
            DelegationKind::Assignment => 2,
        });
        out.extend_from_slice(&(self.issuer.0.len() as u32).to_le_bytes());
        out.extend_from_slice(self.issuer.0.as_bytes());
        self.attrs.encode(&mut out);
        match self.expires {
            Some(t) => {
                out.push(1);
                out.extend_from_slice(&t.to_le_bytes());
            }
            None => out.push(0),
        }
        out.push(self.monitored as u8);
        out.extend_from_slice(&self.serial.to_le_bytes());
        out
    }

    /// Render in the paper's bracket syntax, e.g.
    /// `[ Bob -> Comp.SD.Member ] Comp.SD`.
    pub fn render(&self) -> String {
        let prime = if self.kind == DelegationKind::Assignment {
            " '"
        } else {
            ""
        };
        format!(
            "[ {} -> {}{} ] {}{}",
            self.subject.render(),
            self.object,
            prime,
            self.issuer,
            self.attrs.render()
        )
    }
}

/// A delegation plus its issuer's signature; the unit stored in the
/// repository and exchanged between domains.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedDelegation {
    /// The signed body.
    pub body: Delegation,
    /// The issuer's Ed25519 signature over [`Delegation::encode`].
    pub signature: Signature,
}

/// A credential id: the first 8 bytes of SHA-256(encoded body ‖
/// signature) as 16 lowercase hex digits. `Copy` and heap-free, so the
/// proof search can carry one id per credential instead of rehashing;
/// [`SignedDelegation::id`] renders the same digits as a `String`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CredentialId([u8; 16]);

impl CredentialId {
    /// The id's hex digits.
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(&self.0).expect("hex digits are ASCII")
    }

    /// The id whose digits are `digits`, or `None` unless all sixteen are
    /// lowercase hex (the only form [`SignedDelegation::credential_id`]
    /// produces).
    pub(crate) fn from_digits(digits: [u8; 16]) -> Option<CredentialId> {
        digits
            .iter()
            .all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'))
            .then_some(CredentialId(digits))
    }
}

impl std::fmt::Display for CredentialId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

impl SignedDelegation {
    /// Stable credential id: hex SHA-256 (truncated) of body + signature.
    pub fn id(&self) -> String {
        self.credential_id().to_string()
    }

    /// [`id`](Self::id) as a [`CredentialId`]. Computed afresh on every
    /// call: the fields are public, so a memo here could go stale.
    pub fn credential_id(&self) -> CredentialId {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut h = psf_crypto::Sha256::new();
        h.update(&self.body.encode());
        h.update(&self.signature.0);
        let digest = h.finalize();
        let mut out = [0u8; 16];
        for (pair, b) in out.chunks_exact_mut(2).zip(&digest[..8]) {
            pair[0] = HEX[usize::from(b >> 4)];
            pair[1] = HEX[usize::from(b & 0x0f)];
        }
        CredentialId(out)
    }

    /// Structural check (self-certifying ⇒ issuer owns the role): the
    /// time-independent, key-independent part of [`verify`](Self::verify).
    pub fn check_structure(&self) -> Result<(), DrbacError> {
        if self.body.kind == DelegationKind::SelfCertifying
            && self.body.issuer != self.body.object.owner
        {
            return Err(DrbacError::BrokenChain(format!(
                "self-certifying delegation {} not issued by role owner",
                self.id()
            )));
        }
        Ok(())
    }

    /// Expiration check at `now`: the time-dependent part of
    /// [`verify`](Self::verify).
    pub fn check_expiry(&self, now: Timestamp) -> Result<(), DrbacError> {
        if let Some(expires) = self.body.expires {
            if now >= expires {
                return Err(DrbacError::Expired {
                    id: self.id(),
                    expires,
                    now,
                });
            }
        }
        Ok(())
    }

    /// Cryptographic signature check alone (no structure, no expiry) —
    /// the expensive Ed25519 operation a verified-credential cache
    /// memoizes per `(credential id, issuer key)`.
    pub fn verify_signature(
        &self,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
    ) -> Result<(), DrbacError> {
        issuer_key
            .verify(&self.body.encode(), &self.signature)
            .map_err(|_| DrbacError::BadSignature)
    }

    /// Verify the issuer signature given the issuer's public key, plus
    /// structural checks (self-certifying ⇒ issuer owns the role) and
    /// expiration at `now`.
    pub fn verify(
        &self,
        issuer_key: &psf_crypto::ed25519::VerifyingKey,
        now: Timestamp,
    ) -> Result<(), DrbacError> {
        self.check_structure()?;
        self.check_expiry(now)?;
        self.verify_signature(issuer_key)
    }

    /// Approximate on-the-wire size in bytes (used by the storage-model
    /// comparison, F1).
    pub fn wire_size(&self) -> usize {
        self.body.encode().len() + 64
    }
}

/// Fluent builder for issuing delegations.
///
/// ```
/// use psf_drbac::{DelegationBuilder, Entity};
/// let comp_ny = Entity::with_seed("Comp.NY", b"demo");
/// let alice = Entity::with_seed("Alice", b"demo");
/// // (1) [ Alice -> Comp.NY.Member ] Comp.NY
/// let cred = DelegationBuilder::new(&comp_ny)
///     .subject_entity(&alice)
///     .role(comp_ny.role("Member"))
///     .sign();
/// assert_eq!(cred.body.render(), "[ Alice -> Comp.NY.Member ] Comp.NY");
/// ```
pub struct DelegationBuilder<'a> {
    issuer: &'a Entity,
    subject: Option<Subject>,
    object: Option<RoleName>,
    kind: Option<DelegationKind>,
    attrs: AttrSet,
    expires: Option<Timestamp>,
    monitored: bool,
    serial: u64,
}

impl<'a> DelegationBuilder<'a> {
    /// Start building a delegation issued (signed) by `issuer`.
    pub fn new(issuer: &'a Entity) -> DelegationBuilder<'a> {
        DelegationBuilder {
            issuer,
            subject: None,
            object: None,
            kind: None,
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: 0,
        }
    }

    /// Subject = a keyed entity.
    pub fn subject_entity(mut self, e: &Entity) -> Self {
        self.subject = Some(e.as_subject());
        self
    }

    /// Subject = a role (role→role mapping).
    pub fn subject_role(mut self, r: RoleName) -> Self {
        self.subject = Some(Subject::Role(r));
        self
    }

    /// The object role being conveyed. The delegation kind defaults to
    /// self-certifying when the issuer owns the role and third-party
    /// otherwise; call [`assignment`](Self::assignment) to grant the
    /// assignment right instead.
    pub fn role(mut self, r: RoleName) -> Self {
        let kind = if r.owner == self.issuer.name {
            DelegationKind::SelfCertifying
        } else {
            DelegationKind::ThirdParty
        };
        self.object = Some(r);
        self.kind = Some(self.kind.unwrap_or(kind));
        self
    }

    /// Make this an assignment delegation (the trailing `'` of Table 1).
    pub fn assignment(mut self) -> Self {
        self.kind = Some(DelegationKind::Assignment);
        self
    }

    /// Attach an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: crate::attr::AttrValue) -> Self {
        self.attrs = self.attrs.with(name, value);
        self
    }

    /// Set an expiration timestamp.
    pub fn expires(mut self, t: Timestamp) -> Self {
        self.expires = Some(t);
        self
    }

    /// Require online validity monitoring for this credential.
    pub fn monitored(mut self) -> Self {
        self.monitored = true;
        self
    }

    /// Set an issuer-chosen serial number (distinguishes re-issued
    /// credentials with identical content).
    pub fn serial(mut self, serial: u64) -> Self {
        self.serial = serial;
        self
    }

    /// Sign and produce the credential.
    ///
    /// # Panics
    /// If subject or role were not set.
    pub fn sign(self) -> SignedDelegation {
        let body = Delegation {
            subject: self.subject.expect("delegation subject not set"),
            object: self.object.expect("delegation role not set"),
            kind: self.kind.expect("delegation kind not set"),
            issuer: self.issuer.name.clone(),
            attrs: self.attrs,
            expires: self.expires,
            monitored: self.monitored,
            serial: self.serial,
        };
        let signature = self.issuer.sign(&body.encode());
        SignedDelegation { body, signature }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;

    fn entities() -> (Entity, Entity, Entity) {
        (
            Entity::with_seed("Comp.NY", b"t"),
            Entity::with_seed("Comp.SD", b"t"),
            Entity::with_seed("Alice", b"t"),
        )
    }

    #[test]
    fn t1_self_certifying_form() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::SelfCertifying);
        assert_eq!(d.body.render(), "[ Alice -> Comp.NY.Member ] Comp.NY");
        d.verify(&ny.public_key(), 0).unwrap();
    }

    #[test]
    fn t1_third_party_form() {
        let (ny, sd, _) = entities();
        // (12) [ Inc.SE.Member -> Comp.NY.Partner ] Comp.SD
        let d = DelegationBuilder::new(&sd)
            .subject_role(RoleName::new("Inc.SE", "Member"))
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::ThirdParty);
        assert_eq!(
            d.body.render(),
            "[ Inc.SE.Member -> Comp.NY.Partner ] Comp.SD"
        );
        d.verify(&sd.public_key(), 0).unwrap();
    }

    #[test]
    fn t1_assignment_form_renders_prime() {
        let (ny, sd, _) = entities();
        // (3) [ Comp.SD -> Comp.NY.Partner ' ] Comp.NY
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&sd)
            .assignment()
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d.body.kind, DelegationKind::Assignment);
        assert_eq!(d.body.render(), "[ Comp.SD -> Comp.NY.Partner ' ] Comp.NY");
    }

    #[test]
    fn t1_attributes_render() {
        let mail = Entity::with_seed("Mail", b"t");
        // (4) [ Dell.Linux -> Mail.Node with Secure={true,false} Trust=(0,10) ] Mail
        let d = DelegationBuilder::new(&mail)
            .subject_role(RoleName::new("Dell", "Linux"))
            .role(mail.role("Node"))
            .attr("Secure", AttrValue::set(["true", "false"]))
            .attr("Trust", AttrValue::Range(0, 10))
            .sign();
        assert_eq!(
            d.body.render(),
            "[ Dell.Linux -> Mail.Node ] Mail with Secure={false,true} Trust=(0,10)"
        );
    }

    #[test]
    fn signature_binds_content() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        // Tamper with the role.
        let mut forged = d.clone();
        forged.body.object = ny.role("Admin");
        assert_eq!(
            forged.verify(&ny.public_key(), 0),
            Err(DrbacError::BadSignature)
        );
    }

    #[test]
    fn wrong_issuer_key_rejected() {
        let (ny, sd, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        assert_eq!(d.verify(&sd.public_key(), 0), Err(DrbacError::BadSignature));
    }

    #[test]
    fn expiry_enforced() {
        let (ny, _, alice) = entities();
        let d = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .expires(100)
            .sign();
        d.verify(&ny.public_key(), 99).unwrap();
        assert!(matches!(
            d.verify(&ny.public_key(), 100),
            Err(DrbacError::Expired { .. })
        ));
    }

    #[test]
    fn self_certifying_by_non_owner_rejected() {
        let (ny, sd, alice) = entities();
        // Force a bogus self-certifying delegation for a foreign role.
        let body = Delegation {
            subject: alice.as_subject(),
            object: ny.role("Member"),
            kind: DelegationKind::SelfCertifying,
            issuer: sd.name.clone(),
            attrs: AttrSet::new(),
            expires: None,
            monitored: false,
            serial: 0,
        };
        let signature = sd.sign(&body.encode());
        let forged = SignedDelegation { body, signature };
        assert!(matches!(
            forged.verify(&sd.public_key(), 0),
            Err(DrbacError::BrokenChain(_))
        ));
    }

    #[test]
    fn ids_are_stable_and_distinct() {
        let (ny, _, alice) = entities();
        let d1 = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Member"))
            .sign();
        let d2 = DelegationBuilder::new(&ny)
            .subject_entity(&alice)
            .role(ny.role("Partner"))
            .sign();
        assert_eq!(d1.id(), d1.id());
        assert_ne!(d1.id(), d2.id());
    }
}
