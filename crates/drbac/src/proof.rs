//! The proof-graph engine (paper §3.1).
//!
//! "A trust-sensitive component C can determine if a set of dRBAC
//! credentials X gives some subject S the set of access rights represented
//! by a role R continuously over some duration": [`ProofEngine::prove`]
//! implements exactly this query. It authenticates every credential,
//! checks expirations and revocations, enforces issuer authorization
//! (third-party delegations require a supporting *assignment-right*
//! chain), attenuates attributes along the path, and returns a [`Proof`]
//! object that any other party can independently re-[`verify`].
//!
//! [`verify`]: Proof::verify

use crate::attr::AttrSet;
use crate::cache::{AuthCache, Frontier, PresentedFingerprint, ProofKey, RegistryMarks};
use crate::delegation::{CredentialId, DelegationKind, SignedDelegation};
use crate::entity::{EntityRegistry, RoleName, Subject};
#[cfg(test)]
use crate::repository::Repository;
use crate::repository::{subject_key, CredentialSource};
use crate::revocation::RevocationBus;
use crate::{DrbacError, Timestamp};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, OnceLock, Weak};

/// A credential shared for the duration of a search, with its id.
type Candidate = (Arc<SignedDelegation>, CredentialId);

/// A presented credential set (the set X a requester hands over), hashed
/// once: every credential is `Arc`-shared with its id, and the set's
/// proof-cache fingerprint is computed at construction. The fields are
/// private and the set is immutable, so none of them can go stale. A
/// caller that presents the same set repeatedly builds it once and passes
/// it to [`ProofEngine::prove_presented`]; the slice entry points build a
/// throwaway set per call.
#[derive(Debug, Clone, Default)]
pub struct PresentedSet {
    creds: Vec<Candidate>,
    /// Positions in `creds` by canonical subject key, built by the first
    /// search that needs it (a cache hit never does).
    by_subject: OnceLock<HashMap<String, Vec<usize>>>,
    fingerprint: PresentedFingerprint,
}

impl PresentedSet {
    /// Share and hash `creds` once.
    pub fn new(creds: impl IntoIterator<Item = SignedDelegation>) -> PresentedSet {
        let creds: Vec<Candidate> = creds
            .into_iter()
            .map(|c| {
                let id = c.credential_id();
                (Arc::new(c), id)
            })
            .collect();
        let ids: Vec<CredentialId> = creds.iter().map(|(_, id)| *id).collect();
        PresentedSet {
            fingerprint: PresentedFingerprint::of(&ids),
            creds,
            by_subject: OnceLock::new(),
        }
    }

    /// The presented credentials, each with its id, in presentation order.
    pub fn credentials(&self) -> impl Iterator<Item = (&Arc<SignedDelegation>, CredentialId)> {
        self.creds.iter().map(|(c, id)| (c, *id))
    }

    /// The set's proof-cache fingerprint.
    pub(crate) fn fingerprint(&self) -> PresentedFingerprint {
        self.fingerprint
    }

    /// Presented credentials whose subject has canonical key `key`.
    fn by_subject(&self, key: &str) -> impl Iterator<Item = &Candidate> {
        let index = self.by_subject.get_or_init(|| {
            let mut index: HashMap<String, Vec<usize>> = HashMap::new();
            for (i, (c, _)) in self.creds.iter().enumerate() {
                index
                    .entry(subject_key(&c.body.subject))
                    .or_default()
                    .push(i);
            }
            index
        });
        index
            .get(key)
            .into_iter()
            .flatten()
            .map(|&i| &self.creds[i])
    }
}

/// Mark the frontier when a credential was rejected because a name did
/// not resolve: registering that name later could change the search.
fn note_rejection(frontier: &mut Frontier, error: &DrbacError) {
    if matches!(error, DrbacError::UnknownIssuer(_)) {
        frontier.unresolved = true;
    }
}

/// One edge of a proof chain: the credential plus, for third-party
/// delegations, the assignment-right proof authorizing its issuer.
///
/// The credential is `Arc`-shared with the repository/presented set — a
/// proof references signed blobs, it does not copy them.
#[derive(Debug, Clone)]
pub struct ProofEdge {
    /// The signed delegation this edge rests on.
    pub credential: Arc<SignedDelegation>,
    /// For third-party edges: proof that the issuer holds the right of
    /// assignment for the edge's object role.
    pub support: Option<Box<Proof>>,
    /// The search's id for the allocation `credential` pointed at when
    /// the edge was built. The weak handle keeps that allocation's
    /// address unique and blocks `Arc::get_mut` on it, so the id holds
    /// exactly while `credential` still points there.
    id: (Weak<SignedDelegation>, CredentialId),
}

impl ProofEdge {
    /// An edge over `credential` whose id the search already holds.
    fn with_id(
        credential: Arc<SignedDelegation>,
        id: CredentialId,
        support: Option<Box<Proof>>,
    ) -> ProofEdge {
        ProofEdge {
            id: (Arc::downgrade(&credential), id),
            credential,
            support,
        }
    }

    /// The credential's id: the memo when `credential` is still the
    /// allocation it was computed for, a fresh hash otherwise.
    pub fn id(&self) -> CredentialId {
        if std::ptr::eq(self.id.0.as_ptr(), Arc::as_ptr(&self.credential)) {
            self.id.1
        } else {
            self.credential.credential_id()
        }
    }
}

/// A verifiable proof that `subject` holds `role` (or, when `assignment`
/// is set, the *right of assignment* for `role`), with the attributes that
/// survive attenuation along the chain.
#[derive(Debug, Clone)]
pub struct Proof {
    /// The subject being authorized.
    pub subject: Subject,
    /// The role proven.
    pub role: RoleName,
    /// True if this proves the assignment right rather than membership.
    pub assignment: bool,
    /// Attributes accumulated (attenuated) along the chain.
    pub attrs: AttrSet,
    /// The delegation chain, subject-side first.
    pub edges: Vec<ProofEdge>,
}

impl Proof {
    /// Every credential id this proof depends on (recursing into
    /// supports) — the set a [`ValidityMonitor`](crate::ValidityMonitor)
    /// must watch for continuous authorization.
    pub fn credential_ids(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_ids(&mut out);
        out
    }

    fn collect_ids(&self, out: &mut Vec<String>) {
        for e in &self.edges {
            out.push(e.id().to_string());
            if let Some(s) = &e.support {
                s.collect_ids(out);
            }
        }
    }

    /// Total number of edges including support proofs.
    pub fn total_edges(&self) -> usize {
        self.edges
            .iter()
            .map(|e| 1 + e.support.as_ref().map_or(0, |s| s.total_edges()))
            .sum()
    }

    /// Independently re-verify the whole proof: chain structure, every
    /// signature, expirations at `now`, revocations against `bus`, issuer
    /// authorization, and attribute accumulation.
    pub fn verify(
        &self,
        registry: &EntityRegistry,
        bus: &RevocationBus,
        now: Timestamp,
    ) -> Result<(), DrbacError> {
        self.verify_with(registry, bus, now, None)
    }

    /// As [`verify`](Self::verify), answering repeat signature checks from
    /// `cache` when one is supplied. Structure, expiry, and revocation are
    /// always re-checked fresh.
    pub fn verify_with(
        &self,
        registry: &EntityRegistry,
        bus: &RevocationBus,
        now: Timestamp,
        cache: Option<&AuthCache>,
    ) -> Result<(), DrbacError> {
        if self.assignment {
            return self.verify_assignment(registry, bus, now, cache);
        }
        if self.edges.is_empty() {
            return Err(DrbacError::BrokenChain(
                "membership proof must have at least one edge".into(),
            ));
        }
        let mut attrs = AttrSet::new();
        let mut expected_subject = self.subject.clone();
        for edge in &self.edges {
            let cred = &edge.credential;
            let id = edge.id();
            check_edge_common(cred, id, registry, bus, now, cache)?;
            if subject_key(&cred.body.subject) != subject_key(&expected_subject) {
                return Err(DrbacError::BrokenChain(format!(
                    "edge {id} subject '{}' does not follow '{}'",
                    cred.body.subject.render(),
                    expected_subject.render()
                )));
            }
            let effective = effective_edge_attrs(edge, registry, bus, now, cache)?;
            attrs = attrs.attenuate(&effective).ok_or_else(|| {
                DrbacError::BrokenChain(format!("attributes annihilate at edge {id}"))
            })?;
            expected_subject = Subject::Role(cred.body.object.clone());
        }
        let last = &self.edges.last().unwrap().credential;
        if last.body.object != self.role {
            return Err(DrbacError::BrokenChain(format!(
                "chain ends at '{}', not target '{}'",
                last.body.object, self.role
            )));
        }
        if attrs != self.attrs {
            return Err(DrbacError::BrokenChain(
                "claimed attributes do not match the chain".into(),
            ));
        }
        Ok(())
    }

    fn verify_assignment(
        &self,
        registry: &EntityRegistry,
        bus: &RevocationBus,
        now: Timestamp,
        cache: Option<&AuthCache>,
    ) -> Result<(), DrbacError> {
        // Zero edges: the subject *is* the role owner.
        if self.edges.is_empty() {
            match &self.subject {
                Subject::Entity { name, key } if *name == self.role.owner => {
                    let expected = registry
                        .lookup(name)
                        .ok_or_else(|| DrbacError::UnknownIssuer(name.0.clone()))?;
                    if expected != *key {
                        return Err(DrbacError::BrokenChain(
                            "owner key mismatch in assignment proof".into(),
                        ));
                    }
                    return Ok(());
                }
                _ => {
                    return Err(DrbacError::BrokenChain(
                        "empty assignment proof whose subject is not the role owner".into(),
                    ))
                }
            }
        }
        // Chain: [S → R'] I₁, [I₁ → R'] I₂, …, [Iₙ → R'] owner.
        let mut expected_subject = self.subject.clone();
        for edge in &self.edges {
            let cred = &edge.credential;
            let id = edge.id();
            check_edge_common(cred, id, registry, bus, now, cache)?;
            if cred.body.kind != DelegationKind::Assignment {
                return Err(DrbacError::BrokenChain(format!(
                    "assignment proof contains non-assignment edge {id}"
                )));
            }
            if cred.body.object != self.role {
                return Err(DrbacError::BrokenChain(format!(
                    "assignment edge {id} targets '{}', expected '{}'",
                    cred.body.object, self.role
                )));
            }
            if subject_key(&cred.body.subject) != subject_key(&expected_subject) {
                return Err(DrbacError::BrokenChain(format!(
                    "assignment edge {id} subject does not follow chain"
                )));
            }
            // Next link: the issuer must itself be authorized.
            let issuer_key = registry
                .lookup(&cred.body.issuer)
                .ok_or_else(|| DrbacError::UnknownIssuer(cred.body.issuer.0.clone()))?;
            expected_subject = Subject::Entity {
                name: cred.body.issuer.clone(),
                key: issuer_key,
            };
        }
        let last = &self.edges.last().unwrap().credential;
        if last.body.issuer != self.role.owner {
            return Err(DrbacError::BrokenChain(format!(
                "assignment chain terminates at '{}', not the role owner '{}'",
                last.body.issuer, self.role.owner
            )));
        }
        Ok(())
    }

    /// Human-readable rendering of the chain in paper syntax.
    pub fn render(&self) -> String {
        let kind = if self.assignment {
            "assignment-right"
        } else {
            "membership"
        };
        let mut out = format!(
            "proof ({kind}) that {} holds {}{}:\n",
            self.subject.render(),
            self.role,
            self.attrs.render()
        );
        for (i, e) in self.edges.iter().enumerate() {
            out.push_str(&format!("  ({}) {}\n", i + 1, e.credential.body.render()));
            if let Some(s) = &e.support {
                for line in s.render().lines() {
                    out.push_str(&format!("      | {line}\n"));
                }
            }
        }
        out
    }
}

/// Issuer known, credential verifies (through `cache` when given), not
/// revoked. `id` is `cred`'s id, computed once by the caller.
fn check_edge_common(
    cred: &SignedDelegation,
    id: CredentialId,
    registry: &EntityRegistry,
    bus: &RevocationBus,
    now: Timestamp,
    cache: Option<&AuthCache>,
) -> Result<(), DrbacError> {
    let issuer_key = registry
        .lookup(&cred.body.issuer)
        .ok_or_else(|| DrbacError::UnknownIssuer(cred.body.issuer.0.clone()))?;
    match cache {
        Some(c) => c.verify_credential_id(cred, id, &issuer_key, now)?,
        None => cred.verify(&issuer_key, now)?,
    }
    if bus.is_revoked(id.as_str()) {
        return Err(DrbacError::Revoked(id.to_string()));
    }
    Ok(())
}

/// The attributes a membership edge actually conveys: its own attributes
/// attenuated by its supporting assignment chain (a delegatee cannot grant
/// more than it was assigned).
fn effective_edge_attrs(
    edge: &ProofEdge,
    registry: &EntityRegistry,
    bus: &RevocationBus,
    now: Timestamp,
    cache: Option<&AuthCache>,
) -> Result<AttrSet, DrbacError> {
    let cred = &edge.credential;
    match cred.body.kind {
        DelegationKind::SelfCertifying => {
            if cred.body.issuer != cred.body.object.owner {
                return Err(DrbacError::BrokenChain(
                    "self-certifying edge not issued by owner".into(),
                ));
            }
            Ok(cred.body.attrs.clone())
        }
        DelegationKind::ThirdParty => {
            let support = edge
                .support
                .as_ref()
                .ok_or_else(|| DrbacError::UnauthorizedIssuer {
                    id: edge.id().to_string(),
                    issuer: cred.body.issuer.0.clone(),
                    role: cred.body.object.to_string(),
                })?;
            if !support.assignment
                || support.role != cred.body.object
                || !matches!(&support.subject, Subject::Entity { name, .. } if *name == cred.body.issuer)
            {
                return Err(DrbacError::BrokenChain(format!(
                    "support proof for edge {} does not authorize its issuer",
                    edge.id()
                )));
            }
            support.verify_with(registry, bus, now, cache)?;
            // Attenuate by the assignment chain's own attribute bounds.
            let mut bound = AttrSet::new();
            for e in &support.edges {
                bound = bound
                    .attenuate(&e.credential.body.attrs)
                    .ok_or_else(|| DrbacError::BrokenChain("assignment attrs annihilate".into()))?;
            }
            cred.body.attrs.attenuate(&bound).ok_or_else(|| {
                DrbacError::BrokenChain(format!(
                    "edge {} grants more than its assignment allows",
                    edge.id()
                ))
            })
        }
        DelegationKind::Assignment => Err(DrbacError::BrokenChain(
            "assignment delegation used as a membership edge".into(),
        )),
    }
}

/// The paper's attribute constraint on a proven chain: `attrs` must
/// satisfy `required`, or the query fails as if no proof existed.
pub(crate) fn require_attrs(
    subject: &Subject,
    target: &RoleName,
    required: &AttrSet,
    attrs: &AttrSet,
    stats: SearchStats,
) -> Result<(), ProofError> {
    if attrs.satisfies(required) {
        return Ok(());
    }
    Err(ProofError {
        error: DrbacError::NoProof {
            subject: subject.render(),
            role: format!("{target}{}", required.render()),
        },
        stats,
    })
}

/// Search statistics from a proof query (drives experiments F2/F8).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SearchStats {
    /// Graph nodes expanded during BFS.
    pub nodes_expanded: u64,
    /// Credentials examined (valid or not).
    pub credentials_examined: u64,
    /// Credentials rejected (bad signature, expired, revoked,
    /// unauthorized, attribute annihilation).
    pub credentials_rejected: u64,
}

/// Errors plus stats wrapper for failed searches.
#[derive(Debug)]
pub struct ProofError {
    /// The underlying error (usually [`DrbacError::NoProof`]).
    pub error: DrbacError,
    /// Statistics of the failed search.
    pub stats: SearchStats,
}

impl core::fmt::Display for ProofError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.error)
    }
}
impl std::error::Error for ProofError {}

/// The proof-construction engine: breadth-first search over the delegation
/// graph assembled from a credential set and the distributed repository.
pub struct ProofEngine<'a> {
    registry: &'a EntityRegistry,
    repository: &'a dyn CredentialSource,
    bus: &'a RevocationBus,
    now: Timestamp,
    cache: Option<&'a AuthCache>,
}

impl<'a> ProofEngine<'a> {
    /// The credential source this engine searches (used by certificate
    /// emission to pin the repository epoch).
    pub(crate) fn source(&self) -> &dyn CredentialSource {
        self.repository
    }

    /// The cache this engine answers repeat queries from, if any.
    pub(crate) fn auth_cache(&self) -> Option<&AuthCache> {
        self.cache
    }

    /// Current registry epoch (certificate emission pins it).
    pub(crate) fn registry_epoch(&self) -> u64 {
        self.registry.epoch()
    }

    /// Create an engine evaluating at logical time `now`.
    pub fn new(
        registry: &'a EntityRegistry,
        repository: &'a dyn CredentialSource,
        bus: &'a RevocationBus,
        now: Timestamp,
    ) -> ProofEngine<'a> {
        ProofEngine {
            registry,
            repository,
            bus,
            now,
            cache: None,
        }
    }

    /// Create an engine that answers repeat queries from `cache` (see
    /// [`AuthCache`] for the exactness/invalidation rules). The cache must
    /// be dedicated to this engine's `(registry, repository, bus)` triple.
    pub fn with_cache(
        registry: &'a EntityRegistry,
        repository: &'a dyn CredentialSource,
        bus: &'a RevocationBus,
        now: Timestamp,
        cache: &'a AuthCache,
    ) -> ProofEngine<'a> {
        ProofEngine {
            registry,
            repository,
            bus,
            now,
            cache: Some(cache),
        }
    }

    /// Prove that `subject` holds `target`, drawing on `presented`
    /// credentials (the set X handed over by the requester) plus whatever
    /// the repository can discover. Returns the proof and search stats.
    /// Builds a [`PresentedSet`] for this one call; see
    /// [`prove_presented`](Self::prove_presented).
    pub fn prove(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_presented(
            subject,
            target,
            &PresentedSet::new(presented.iter().cloned()),
        )
    }

    /// [`prove`](Self::prove) over a presented set hashed once by its
    /// builder.
    pub fn prove_presented(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &PresentedSet,
    ) -> Result<(Proof, SearchStats), ProofError> {
        let mut span = psf_telemetry::span("psf.drbac", "prove");
        span.field("target", target);
        let start = std::time::Instant::now();
        psf_telemetry::counter!("psf.drbac.prove.calls").inc();

        let key = self.cache.map(|_| ProofKey {
            subject: subject_key(subject),
            role: target.to_string(),
            presented: presented.fingerprint(),
        });
        // Registry counters, epoch and per-shard high-water marks captured
        // BEFORE the search reads any registry or repository data. If a
        // mark is unchanged at some later lookup, no mutation to that
        // shard was visible to this search — the seqlock-style argument
        // per-shard pinning rests on; the registry pins argue the same way.
        let registry = RegistryMarks {
            epoch: self.registry.epoch(),
            rekeys: self.registry.rekeys(),
        };
        let repo_epoch = self.repository.version();
        let marks = self.repository.shard_marks();
        if let (Some(cache), Some(key)) = (self.cache, key.as_ref()) {
            if let Some(cached) =
                cache.lookup_proof(key, self.now, repo_epoch, marks.as_deref(), registry)
            {
                let result = cached.map_err(|(error, stats)| ProofError { error, stats });
                if result.is_err() {
                    psf_telemetry::counter!("psf.drbac.prove.failures").inc();
                }
                psf_telemetry::histogram!("psf.drbac.prove.us").record_duration(start.elapsed());
                span.field("cached", true).field("ok", result.is_ok());
                self.audit_prove(subject, target, &result, true, repo_epoch);
                return result;
            }
        }

        let mut frontier = Frontier::default();
        let result = self.prove_search(subject, target, presented, &mut frontier);
        if let (Some(cache), Some(key)) = (self.cache, key) {
            let plain = match &result {
                Ok(ok) => Ok(ok.clone()),
                Err(e) => Err((e.error.clone(), e.stats)),
            };
            // Pin the pre-search mark of every shard the search queried
            // (hit or miss — an empty shard gaining a credential changes
            // the result too), deduplicated per shard.
            let shard_pins = marks.as_ref().map(|marks| {
                let mut pins: Vec<(u32, u64)> = frontier
                    .subjects
                    .iter()
                    .filter_map(|k| self.repository.shard_of_key(k))
                    .map(|s| (s, marks.get(s as usize).copied().unwrap_or(0)))
                    .collect();
                pins.sort_unstable();
                pins.dedup();
                pins
            });
            cache.insert_proof(
                key, &plain, &frontier, self.bus, repo_epoch, shard_pins, registry, self.now,
            );
        }
        let stats = match &result {
            Ok((_, stats)) => *stats,
            Err(e) => e.stats,
        };
        if result.is_err() {
            psf_telemetry::counter!("psf.drbac.prove.failures").inc();
        }
        psf_telemetry::counter!("psf.drbac.nodes.expanded").add(stats.nodes_expanded);
        psf_telemetry::counter!("psf.drbac.creds.examined").add(stats.credentials_examined);
        psf_telemetry::counter!("psf.drbac.creds.rejected").add(stats.credentials_rejected);
        psf_telemetry::histogram!("psf.drbac.prove.us").record_duration(start.elapsed());
        span.field("nodes_expanded", stats.nodes_expanded)
            .field("ok", result.is_ok());
        self.audit_prove(
            subject,
            target,
            &result,
            false,
            self.cache.and_then(|_| self.repository.version()),
        );
        result
    }

    /// Record the decision on the process audit trail: verdict, the
    /// delegation chain it rested on, and where the answer came from.
    fn audit_prove(
        &self,
        subject: &Subject,
        target: &RoleName,
        result: &Result<(Proof, SearchStats), ProofError>,
        from_cache: bool,
        epoch: Option<u64>,
    ) {
        use psf_telemetry::audit::{self, CacheOutcome, Decision, Verdict};
        let outcome = match (self.cache.is_some(), from_cache, result.is_ok()) {
            (false, ..) => CacheOutcome::Uncached,
            (true, false, _) => CacheOutcome::Miss,
            (true, true, true) => CacheOutcome::Hit,
            (true, true, false) => CacheOutcome::NegativeHit,
        };
        match result {
            Ok((proof, _)) => {
                audit::record(
                    Decision::Prove,
                    subject.render(),
                    target.to_string(),
                    Verdict::Allow,
                )
                .chain(&proof.credential_ids())
                .cache(outcome, epoch)
                .commit();
            }
            Err(e) => {
                audit::record(
                    Decision::Prove,
                    subject.render(),
                    target.to_string(),
                    Verdict::Deny,
                )
                .cache(outcome, epoch)
                .detail(e.to_string())
                .commit();
            }
        }
    }

    fn prove_search(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &PresentedSet,
        frontier: &mut Frontier,
    ) -> Result<(Proof, SearchStats), ProofError> {
        let mut stats = SearchStats::default();

        #[derive(Clone)]
        struct State {
            node: Subject,
            attrs: AttrSet,
            path: Vec<ProofEdge>,
        }

        let mut visited: HashSet<String> = HashSet::new();
        let mut queue = VecDeque::new();
        visited.insert(subject_key(subject));
        queue.push_back(State {
            node: subject.clone(),
            attrs: AttrSet::new(),
            path: Vec::new(),
        });

        while let Some(state) = queue.pop_front() {
            stats.nodes_expanded += 1;
            let key = subject_key(&state.node);
            frontier.note_subject(&key);
            // Candidate edges: presented + repository (both Arc-shared).
            let mut candidates: Vec<Candidate> = presented.by_subject(&key).cloned().collect();
            candidates.extend(self.repository.credentials_by_subject_with_ids(&state.node));

            for (cred, id) in candidates {
                stats.credentials_examined += 1;
                frontier.note(&cred, id, self.now);
                if cred.body.kind == DelegationKind::Assignment {
                    continue; // not a membership edge
                }
                if let Err(e) =
                    check_edge_common(&cred, id, self.registry, self.bus, self.now, self.cache)
                {
                    note_rejection(frontier, &e);
                    stats.credentials_rejected += 1;
                    continue;
                }
                // Issuer authorization (+ support construction).
                let edge = match self.authorize_edge(cred, id, presented, &mut stats, frontier) {
                    Some(e) => e,
                    None => {
                        stats.credentials_rejected += 1;
                        continue;
                    }
                };
                let effective = match effective_edge_attrs(
                    &edge,
                    self.registry,
                    self.bus,
                    self.now,
                    self.cache,
                ) {
                    Ok(a) => a,
                    Err(e) => {
                        note_rejection(frontier, &e);
                        stats.credentials_rejected += 1;
                        continue;
                    }
                };
                let new_attrs = match state.attrs.attenuate(&effective) {
                    Some(a) => a,
                    None => {
                        stats.credentials_rejected += 1;
                        continue;
                    }
                };
                let mut path = state.path.clone();
                let object = edge.credential.body.object.clone();
                path.push(edge);
                if object == *target {
                    let proof = Proof {
                        subject: subject.clone(),
                        role: target.clone(),
                        assignment: false,
                        attrs: new_attrs,
                        edges: path,
                    };
                    return Ok((proof, stats));
                }
                let next = Subject::Role(object);
                let next_key = subject_key(&next);
                if visited.insert(next_key) {
                    queue.push_back(State {
                        node: next,
                        attrs: new_attrs,
                        path,
                    });
                }
            }
        }

        Err(ProofError {
            error: DrbacError::NoProof {
                subject: subject.render(),
                role: target.to_string(),
            },
            stats,
        })
    }

    /// Like [`prove`](Self::prove) but additionally requires the resulting
    /// attributes to satisfy `required` — the paper's "is X a Y (with
    /// constraints)?" query used for node/component authorization.
    pub fn prove_with(
        &self,
        subject: &Subject,
        target: &RoleName,
        required: &AttrSet,
        presented: &[SignedDelegation],
    ) -> Result<(Proof, SearchStats), ProofError> {
        self.prove_with_presented(
            subject,
            target,
            required,
            &PresentedSet::new(presented.iter().cloned()),
        )
    }

    /// [`prove_with`](Self::prove_with) over a presented set hashed once
    /// by its builder.
    pub fn prove_with_presented(
        &self,
        subject: &Subject,
        target: &RoleName,
        required: &AttrSet,
        presented: &PresentedSet,
    ) -> Result<(Proof, SearchStats), ProofError> {
        let (proof, stats) = self.prove_presented(subject, target, presented)?;
        require_attrs(subject, target, required, &proof.attrs, stats)?;
        Ok((proof, stats))
    }

    /// Convenience boolean query.
    pub fn check(
        &self,
        subject: &Subject,
        target: &RoleName,
        presented: &[SignedDelegation],
    ) -> bool {
        self.prove(subject, target, presented).is_ok()
    }

    fn authorize_edge(
        &self,
        cred: Arc<SignedDelegation>,
        id: CredentialId,
        presented: &PresentedSet,
        stats: &mut SearchStats,
        frontier: &mut Frontier,
    ) -> Option<ProofEdge> {
        match cred.body.kind {
            DelegationKind::SelfCertifying => Some(ProofEdge::with_id(cred, id, None)),
            DelegationKind::ThirdParty => {
                let Some(issuer_key) = self.registry.lookup(&cred.body.issuer) else {
                    frontier.unresolved = true;
                    return None;
                };
                let holder = Subject::Entity {
                    name: cred.body.issuer.clone(),
                    key: issuer_key,
                };
                let support = self.prove_assignment(
                    &holder,
                    &cred.body.object,
                    presented,
                    &mut HashSet::new(),
                    stats,
                    frontier,
                )?;
                Some(ProofEdge::with_id(cred, id, Some(Box::new(support))))
            }
            DelegationKind::Assignment => None,
        }
    }

    /// Prove that `holder` (an entity) has the right of assignment for
    /// `role`: either it is the owner, or a chain of assignment
    /// delegations leads back to the owner.
    fn prove_assignment(
        &self,
        holder: &Subject,
        role: &RoleName,
        presented: &PresentedSet,
        in_progress: &mut HashSet<String>,
        stats: &mut SearchStats,
        frontier: &mut Frontier,
    ) -> Option<Proof> {
        let holder_name = match holder {
            Subject::Entity { name, .. } => name.clone(),
            Subject::Role(_) => return None, // assignment subjects must be keyed entities
        };
        if holder_name == role.owner {
            return Some(Proof {
                subject: holder.clone(),
                role: role.clone(),
                assignment: true,
                attrs: AttrSet::new(),
                edges: Vec::new(),
            });
        }
        let hkey = subject_key(holder);
        let key = format!("{hkey}@{role}");
        if !in_progress.insert(key) {
            return None; // cycle
        }

        // Assignment credentials naming this holder for this role.
        frontier.note_subject(&hkey);
        let mut candidates: Vec<Candidate> = presented
            .creds
            .iter()
            .filter(|(c, _)| {
                c.body.kind == DelegationKind::Assignment
                    && c.body.object == *role
                    && subject_key(&c.body.subject) == hkey
            })
            .cloned()
            .collect();
        candidates.extend(
            self.repository
                .credentials_by_subject_with_ids(holder)
                .into_iter()
                .filter(|(c, _)| {
                    c.body.kind == DelegationKind::Assignment && c.body.object == *role
                }),
        );

        for (cred, id) in candidates {
            stats.credentials_examined += 1;
            frontier.note(&cred, id, self.now);
            if let Err(e) =
                check_edge_common(&cred, id, self.registry, self.bus, self.now, self.cache)
            {
                note_rejection(frontier, &e);
                stats.credentials_rejected += 1;
                continue;
            }
            let Some(issuer_key) = self.registry.lookup(&cred.body.issuer) else {
                frontier.unresolved = true;
                continue;
            };
            let issuer_subject = Subject::Entity {
                name: cred.body.issuer.clone(),
                key: issuer_key,
            };
            if let Some(upstream) = self.prove_assignment(
                &issuer_subject,
                role,
                presented,
                in_progress,
                stats,
                frontier,
            ) {
                let mut edges = vec![ProofEdge::with_id(cred, id, None)];
                edges.extend(upstream.edges);
                return Some(Proof {
                    subject: holder.clone(),
                    role: role.clone(),
                    assignment: true,
                    attrs: AttrSet::new(),
                    edges,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrValue;
    use crate::delegation::DelegationBuilder;
    use crate::entity::Entity;

    struct World {
        registry: EntityRegistry,
        repo: Repository,
        bus: RevocationBus,
        ny: Entity,
        sd: Entity,
        se: Entity,
        alice: Entity,
        bob: Entity,
    }

    fn world() -> World {
        let registry = EntityRegistry::new();
        let ny = Entity::with_seed("Comp.NY", b"w");
        let sd = Entity::with_seed("Comp.SD", b"w");
        let se = Entity::with_seed("Inc.SE", b"w");
        let alice = Entity::with_seed("Alice", b"w");
        let bob = Entity::with_seed("Bob", b"w");
        for e in [&ny, &sd, &se, &alice, &bob] {
            registry.register(e);
        }
        World {
            registry,
            repo: Repository::new(),
            bus: RevocationBus::new(),
            ny,
            sd,
            se,
            alice,
            bob,
        }
    }

    impl World {
        fn engine(&self) -> ProofEngine<'_> {
            ProofEngine::new(&self.registry, &self.repo, &self.bus, 0)
        }
    }

    #[test]
    fn edge_id_follows_a_replaced_credential() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let cache = AuthCache::new();
        let engine = ProofEngine::with_cache(&w.registry, &w.repo, &w.bus, 0, &cache);
        let (mut proof, _) = engine
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c),
            )
            .unwrap();
        assert_eq!(proof.credential_ids(), vec![c.id()]);
        proof
            .verify_with(&w.registry, &w.bus, 0, Some(&cache))
            .unwrap();
        // Swap in an edited clone: the memoized id must not vouch for it.
        let mut edited = c.clone();
        edited.body.serial += 1;
        proof.edges[0].credential = Arc::new(edited.clone());
        assert_eq!(proof.credential_ids(), vec![edited.id()]);
        assert_eq!(
            proof.verify_with(&w.registry, &w.bus, 0, Some(&cache)),
            Err(DrbacError::BadSignature)
        );
        // Editing in place through the shared Arc clones it first.
        let mut proof = engine
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c),
            )
            .unwrap()
            .0;
        Arc::make_mut(&mut proof.edges[0].credential).body.serial += 1;
        assert_eq!(proof.edges[0].id().to_string(), edited.id());
        assert!(proof
            .verify_with(&w.registry, &w.bus, 0, Some(&cache))
            .is_err());
    }

    #[test]
    fn direct_membership() {
        let w = world();
        // (1) [ Alice -> Comp.NY.Member ] Comp.NY
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (proof, stats) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        assert_eq!(proof.edges.len(), 1);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
        assert!(stats.credentials_examined >= 1);
    }

    #[test]
    fn t2_bob_via_role_mapping() {
        let w = world();
        // (11) [ Bob -> Comp.SD.Member ] Comp.SD
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        // (2) [ Comp.SD.Member -> Comp.NY.Member ] Comp.NY
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[c11, c2])
            .unwrap();
        assert_eq!(proof.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn no_proof_without_credentials() {
        let w = world();
        let err = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[])
            .unwrap_err();
        assert!(matches!(err.error, DrbacError::NoProof { .. }));
    }

    #[test]
    fn third_party_requires_assignment() {
        let w = world();
        // Comp.SD tries to hand out Comp.NY.Partner without authority:
        let c = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .sign();
        assert!(w
            .engine()
            .prove(
                &w.bob.as_subject(),
                &w.ny.role("Partner"),
                std::slice::from_ref(&c)
            )
            .is_err());

        // Now grant the assignment right:
        // (3) [ Comp.SD -> Comp.NY.Partner ' ] Comp.NY
        let c3 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[c, c3])
            .unwrap();
        assert_eq!(proof.edges.len(), 1);
        let support = proof.edges[0].support.as_ref().unwrap();
        assert!(support.assignment);
        assert_eq!(support.edges.len(), 1);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn chained_assignment_rights() {
        let w = world();
        // NY assigns to SD; SD re-assigns to SE; SE grants Bob membership.
        let a1 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let a2 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.se)
            .assignment()
            .role(w.ny.role("Partner"))
            .sign();
        let m = DelegationBuilder::new(&w.se)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[a1, a2, m])
            .unwrap();
        let support = proof.edges[0].support.as_ref().unwrap();
        assert_eq!(support.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn attribute_attenuation_along_chain() {
        let w = world();
        let mail = Entity::with_seed("Mail", b"w");
        w.registry.register(&mail);
        // (8) [ Mail.Exec-ish -> Comp.NY.Executable with CPU=100 ] Comp.NY — modeled
        // as a role-mapped chain: component role → NY role → SD role.
        let c8 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice) // stand-in for the component
            .role(w.ny.role("Executable"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign();
        // (14) [ Comp.NY.Executable -> Comp.SD.Executable with CPU=80 ] Comp.SD
        let c14 = DelegationBuilder::new(&w.sd)
            .subject_role(w.ny.role("Executable"))
            .role(w.sd.role("Executable"))
            .attr("CPU", AttrValue::Capacity(80))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.sd.role("Executable"), &[c8, c14])
            .unwrap();
        // min(100, 80) = 80
        assert_eq!(proof.attrs.get("CPU"), Some(&AttrValue::Capacity(80)));
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn disjoint_attributes_kill_path() {
        let w = world();
        let c1 = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Node"))
            .attr("Trust", AttrValue::Range(0, 3))
            .sign();
        let c2 = DelegationBuilder::new(&w.sd)
            .subject_role(w.ny.role("Node"))
            .role(w.sd.role("Node"))
            .attr("Trust", AttrValue::Range(5, 9))
            .sign();
        // SD owns its own role so c2 is self-certifying; chain exists but
        // trust ranges are disjoint → no proof.
        assert!(w
            .engine()
            .prove(&w.alice.as_subject(), &w.sd.role("Node"), &[c1, c2])
            .is_err());
    }

    #[test]
    fn prove_with_checks_requirements() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Node"))
            .attr("Secure", AttrValue::set(["false"]))
            .sign();
        let need_secure = AttrSet::new().with("Secure", AttrValue::set(["true"]));
        assert!(w
            .engine()
            .prove_with(
                &w.alice.as_subject(),
                &w.ny.role("Node"),
                &need_secure,
                std::slice::from_ref(&c)
            )
            .is_err());
        let need_insecure = AttrSet::new().with("Secure", AttrValue::set(["false"]));
        assert!(w
            .engine()
            .prove_with(
                &w.alice.as_subject(),
                &w.ny.role("Node"),
                &need_insecure,
                &[c]
            )
            .is_ok());
    }

    #[test]
    fn revoked_credential_blocks_proof() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .monitored()
            .sign();
        let (proof, _) = w
            .engine()
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c),
            )
            .unwrap();
        w.bus.revoke(&c.id());
        assert!(w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .is_err());
        // The already-issued proof also fails re-verification.
        assert!(matches!(
            proof.verify(&w.registry, &w.bus, 0),
            Err(DrbacError::Revoked(_))
        ));
    }

    #[test]
    fn expired_credential_blocks_proof() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .expires(50)
            .sign();
        let engine_ok = ProofEngine::new(&w.registry, &w.repo, &w.bus, 49);
        assert!(engine_ok
            .prove(
                &w.alice.as_subject(),
                &w.ny.role("Member"),
                std::slice::from_ref(&c)
            )
            .is_ok());
        let engine_late = ProofEngine::new(&w.registry, &w.repo, &w.bus, 51);
        assert!(engine_late
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .is_err());
    }

    #[test]
    fn proof_from_repository_discovery() {
        let w = world();
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        w.repo.publish_at_issuer(c11);
        w.repo.publish_at_issuer(c2);
        // No presented credentials at all — discovery finds the chain.
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Member"), &[])
            .unwrap();
        assert_eq!(proof.edges.len(), 2);
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }

    #[test]
    fn tampered_proof_fails_verification() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (mut proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        // Claim better attributes than the chain grants.
        proof.attrs = AttrSet::new().with("CPU", AttrValue::Capacity(999));
        assert!(proof.verify(&w.registry, &w.bus, 0).is_err());
    }

    #[test]
    fn proof_subject_cannot_be_swapped() {
        let w = world();
        let c = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.alice)
            .role(w.ny.role("Member"))
            .sign();
        let (mut proof, _) = w
            .engine()
            .prove(&w.alice.as_subject(), &w.ny.role("Member"), &[c])
            .unwrap();
        proof.subject = w.bob.as_subject();
        assert!(proof.verify(&w.registry, &w.bus, 0).is_err());
    }

    #[test]
    fn monitor_covers_all_chain_credentials() {
        let w = world();
        let c11 = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.sd.role("Member"))
            .sign();
        let c2 = DelegationBuilder::new(&w.ny)
            .subject_role(w.sd.role("Member"))
            .role(w.ny.role("Member"))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(
                &w.bob.as_subject(),
                &w.ny.role("Member"),
                &[c11.clone(), c2],
            )
            .unwrap();
        let ids = proof.credential_ids();
        assert_eq!(ids.len(), 2);
        let monitor = w.bus.monitor(ids);
        assert!(monitor.is_valid());
        w.bus.revoke(&c11.id());
        assert!(!monitor.is_valid());
    }

    #[test]
    fn third_party_attrs_bounded_by_assignment() {
        let w = world();
        // NY assigns Partner to SD but only with CPU ≤ 50.
        let a = DelegationBuilder::new(&w.ny)
            .subject_entity(&w.sd)
            .assignment()
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(50))
            .sign();
        // SD tries to grant Bob CPU = 100.
        let m = DelegationBuilder::new(&w.sd)
            .subject_entity(&w.bob)
            .role(w.ny.role("Partner"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign();
        let (proof, _) = w
            .engine()
            .prove(&w.bob.as_subject(), &w.ny.role("Partner"), &[a, m])
            .unwrap();
        // Bob ends up with min(100, 50) = 50.
        assert_eq!(proof.attrs.get("CPU"), Some(&AttrValue::Capacity(50)));
        proof.verify(&w.registry, &w.bus, 0).unwrap();
    }
}
