//! Entities, roles, and the PKI registry.
//!
//! An **entity** is a principal with an Ed25519 key pair — a person
//! (`Alice`), an organization namespace (`Comp.NY`), a vendor (`Dell`), a
//! node, or an instantiated component. A **role** `Entity.Role` is an
//! equivalence class of access rights owned by an entity: `Comp.NY.Member`
//! is the role `Member` defined by the entity `Comp.NY`.
//!
//! The [`EntityRegistry`] maps entity names to public keys. dRBAC itself is
//! root-free — any entity can define roles — so the registry is just the
//! reproduction's stand-in for "we looked up the issuer's public key"
//! (certificate distribution is out of scope of the paper).

use crate::DrbacError;
use parking_lot::RwLock;
use psf_crypto::ed25519::{SigningKey, VerifyingKey};
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An entity's human-readable, dot-separated name (e.g. `Comp.NY`,
/// `Alice`, `Dell`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EntityName(pub String);

impl EntityName {
    /// Construct from anything string-like.
    pub fn new(s: impl Into<String>) -> EntityName {
        EntityName(s.into())
    }

    /// The raw name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for EntityName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for EntityName {
    fn from(s: &str) -> Self {
        EntityName(s.to_string())
    }
}

/// A role name `Entity.Role`: the rightmost dot separates the owning
/// entity from the role proper (`Comp.NY.Member` → owner `Comp.NY`,
/// role `Member`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleName {
    /// The entity that owns (defines) the role.
    pub owner: EntityName,
    /// The role identifier within the owner's namespace.
    pub role: String,
}

impl RoleName {
    /// Construct from owner + role.
    pub fn new(owner: impl Into<String>, role: impl Into<String>) -> RoleName {
        RoleName {
            owner: EntityName(owner.into()),
            role: role.into(),
        }
    }

    /// Parse `"Comp.NY.Member"` — the rightmost component is the role.
    pub fn parse(s: &str) -> Result<RoleName, DrbacError> {
        match s.rsplit_once('.') {
            Some((owner, role)) if !owner.is_empty() && !role.is_empty() => {
                Ok(RoleName::new(owner, role))
            }
            _ => Err(DrbacError::BadRoleName(s.to_string())),
        }
    }
}

impl fmt::Display for RoleName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.owner, self.role)
    }
}

/// The subject of a delegation: a concrete entity (keyed principal) or
/// another role (enabling role→role mapping).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Subject {
    /// A keyed principal, identified by name + public key.
    Entity {
        /// The entity's name.
        name: EntityName,
        /// Its public key.
        key: VerifyingKey,
    },
    /// A role; anyone proven to hold it is covered by the delegation.
    Role(RoleName),
}

impl Subject {
    /// Display string (paper syntax uses bare names).
    pub fn render(&self) -> String {
        match self {
            Subject::Entity { name, .. } => name.0.clone(),
            Subject::Role(r) => r.to_string(),
        }
    }

    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Subject::Entity { name, key } => {
                out.push(0);
                out.extend_from_slice(&(name.0.len() as u32).to_le_bytes());
                out.extend_from_slice(name.0.as_bytes());
                out.extend_from_slice(key.as_bytes());
            }
            Subject::Role(r) => {
                out.push(1);
                let s = r.to_string();
                out.extend_from_slice(&(s.len() as u32).to_le_bytes());
                out.extend_from_slice(s.as_bytes());
            }
        }
    }
}

/// A keyed principal: name + Ed25519 key pair.
#[derive(Clone)]
pub struct Entity {
    /// The entity's name.
    pub name: EntityName,
    key: SigningKey,
}

impl Entity {
    /// Create an entity with a key derived deterministically from its name
    /// and a domain seed (convenient for reproducible scenarios).
    pub fn with_seed(name: impl Into<String>, seed: &[u8]) -> Entity {
        let name = EntityName(name.into());
        let mut material = Vec::with_capacity(seed.len() + name.0.len() + 1);
        material.extend_from_slice(seed);
        material.push(0);
        material.extend_from_slice(name.0.as_bytes());
        let digest = psf_crypto::sha256(&material);
        Entity {
            name,
            key: SigningKey::from_seed(digest),
        }
    }

    /// Create an entity with a random key.
    pub fn random(name: impl Into<String>) -> Entity {
        let mut rng = rand::rng();
        Entity {
            name: EntityName(name.into()),
            key: SigningKey::generate(&mut rng),
        }
    }

    /// This entity's public key.
    pub fn public_key(&self) -> VerifyingKey {
        self.key.verifying_key()
    }

    /// This entity as a delegation [`Subject`].
    pub fn as_subject(&self) -> Subject {
        Subject::Entity {
            name: self.name.clone(),
            key: self.public_key(),
        }
    }

    /// A role in this entity's namespace.
    pub fn role(&self, role: impl Into<String>) -> RoleName {
        RoleName {
            owner: self.name.clone(),
            role: role.into(),
        }
    }

    /// Sign arbitrary bytes with this entity's key.
    pub fn sign(&self, data: &[u8]) -> psf_crypto::Signature {
        self.key.sign(data)
    }
}

impl fmt::Debug for Entity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entity")
            .field("name", &self.name.0)
            .field("key", &self.public_key().fingerprint())
            .finish()
    }
}

/// Shared name → public-key directory (the reproduction's certificate
/// distribution stand-in).
#[derive(Clone, Default)]
pub struct EntityRegistry {
    inner: Arc<RegistryInner>,
}

#[derive(Default)]
struct RegistryInner {
    map: RwLock<HashMap<EntityName, VerifyingKey>>,
    // Bumped on every registration: proof caches use it to notice that a
    // previously-unknown issuer may have become resolvable.
    epoch: std::sync::atomic::AtomicU64,
    // Bumped only when a registration replaces a name's key with a
    // different one — the one registry change that can break a proof
    // whose every name resolved.
    rekeys: std::sync::atomic::AtomicU64,
}

impl EntityRegistry {
    /// New empty registry.
    pub fn new() -> EntityRegistry {
        EntityRegistry::default()
    }

    /// Register an entity's public key.
    pub fn register(&self, entity: &Entity) {
        self.register_key(entity.name.clone(), entity.public_key());
    }

    /// Register a bare name/key pair.
    pub fn register_key(&self, name: EntityName, key: VerifyingKey) {
        let previous = self.inner.map.write().insert(name, key);
        if previous.is_some_and(|old| old != key) {
            self.inner
                .rekeys
                .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
        }
        self.bump();
    }

    /// Look up a public key.
    pub fn lookup(&self, name: &EntityName) -> Option<VerifyingKey> {
        self.inner.map.read().get(name).copied()
    }

    /// Number of registered entities.
    pub fn len(&self) -> usize {
        self.inner.map.read().len()
    }

    /// True if no entities are registered.
    pub fn is_empty(&self) -> bool {
        self.inner.map.read().is_empty()
    }

    /// Monotonic counter bumped on every registration; used by the proof
    /// cache to gate cached *failures* (a new registration can turn an
    /// `UnknownIssuer` dead end into a provable chain).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Monotonic counter bumped only when a registration *replaces* a
    /// name's key with a different one. Cached positive proofs pin it
    /// instead of [`epoch`](Self::epoch): a brand-new name cannot break a
    /// proof whose every name resolved, a changed key can.
    pub fn rekeys(&self) -> u64 {
        self.inner.rekeys.load(std::sync::atomic::Ordering::Acquire)
    }

    fn bump(&self) {
        self.inner
            .epoch
            .fetch_add(1, std::sync::atomic::Ordering::AcqRel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_parse_rightmost_dot() {
        let r = RoleName::parse("Comp.NY.Member").unwrap();
        assert_eq!(r.owner.as_str(), "Comp.NY");
        assert_eq!(r.role, "Member");
        assert_eq!(r.to_string(), "Comp.NY.Member");
    }

    #[test]
    fn role_parse_single_dot() {
        let r = RoleName::parse("Dell.Linux").unwrap();
        assert_eq!(r.owner.as_str(), "Dell");
        assert_eq!(r.role, "Linux");
    }

    #[test]
    fn role_parse_rejects_undotted() {
        assert!(RoleName::parse("Member").is_err());
        assert!(RoleName::parse(".Member").is_err());
        assert!(RoleName::parse("Comp.").is_err());
    }

    #[test]
    fn seeded_entities_are_deterministic() {
        let a1 = Entity::with_seed("Alice", b"domain");
        let a2 = Entity::with_seed("Alice", b"domain");
        assert_eq!(a1.public_key(), a2.public_key());
        let a3 = Entity::with_seed("Alice", b"other");
        assert_ne!(a1.public_key(), a3.public_key());
        let b = Entity::with_seed("Bob", b"domain");
        assert_ne!(a1.public_key(), b.public_key());
    }

    #[test]
    fn registry_lookup() {
        let reg = EntityRegistry::new();
        let e = Entity::with_seed("Comp.NY", b"s");
        reg.register(&e);
        assert_eq!(reg.lookup(&e.name), Some(e.public_key()));
        assert_eq!(reg.lookup(&EntityName::new("Nobody")), None);
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn entity_signs_verifiably() {
        let e = Entity::with_seed("Signer", b"s");
        let sig = e.sign(b"credential-bytes");
        e.public_key().verify(b"credential-bytes", &sig).unwrap();
    }
}
