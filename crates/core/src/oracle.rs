//! The authorization constraint oracle consulted by the planner
//! (paper §3.3): node authorization (including the mapping of node
//! properties onto application-specific properties) and component
//! authorization (mutual: the node must also accept the component).

use crate::model::ComponentSpec;
use psf_drbac::entity::{EntityRegistry, Subject};
use psf_drbac::proof::{PresentedSet, ProofEngine};
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AttrSet, AuthCache, RoleName, SignedDelegation};
use psf_netsim::NodeId;
use psf_switchboard::ClockRef;
use std::collections::HashMap;

/// Answers the planner's two authorization questions.
pub trait AuthOracle: Send + Sync {
    /// Node authorization: may `component` be hosted on `node` (is the
    /// node mappable to the app's required node role, with attributes)?
    fn node_authorized(&self, component: &ComponentSpec, node: NodeId) -> bool;

    /// Component authorization: does the component's credential chain map
    /// to an executable role of the node's domain, with enough CPU
    /// allowance?
    fn component_authorized(&self, component: &ComponentSpec, node: NodeId) -> bool;
}

/// Accepts everything (baseline / unit tests).
pub struct PermissiveOracle;

impl AuthOracle for PermissiveOracle {
    fn node_authorized(&self, _c: &ComponentSpec, _n: NodeId) -> bool {
        true
    }
    fn component_authorized(&self, _c: &ComponentSpec, _n: NodeId) -> bool {
        true
    }
}

/// The dRBAC-backed oracle: proofs over the shared credential world,
/// evaluated at the deployer's clock — the time preflight and execute
/// check at — so the planner never proposes a placement whose
/// credentials have expired by then.
pub struct DrbacOracle {
    registry: EntityRegistry,
    repository: Repository,
    bus: RevocationBus,
    clock: ClockRef,
    /// Vendor role subjects for each node (`Comp.NY.PC` etc. are modeled
    /// directly by the node's vendor role, e.g. `Dell.Linux`) — the proof
    /// search starts from this subject.
    node_subjects: HashMap<NodeId, Subject>,
    /// Each node's domain executable role (`Comp.SD.Executable`), used
    /// for component authorization; nodes without one accept anything.
    node_exec_roles: HashMap<NodeId, (RoleName, AttrSet)>,
    /// Credentials presented on behalf of components (their exec-role
    /// chains), hashed once when added.
    component_credentials: PresentedSet,
    /// Fast path for the planner's repeated per-(component, node)
    /// authorization queries.
    cache: AuthCache,
}

impl DrbacOracle {
    /// Build an oracle over the shared dRBAC world, reading the time from
    /// `clock` on every query.
    pub fn new(
        registry: EntityRegistry,
        repository: Repository,
        bus: RevocationBus,
        clock: ClockRef,
    ) -> DrbacOracle {
        DrbacOracle {
            registry,
            repository,
            bus,
            clock,
            node_subjects: HashMap::new(),
            node_exec_roles: HashMap::new(),
            component_credentials: PresentedSet::default(),
            cache: AuthCache::new(),
        }
    }

    /// The oracle's authorization cache (hit/miss stats, manual clear).
    pub fn auth_cache(&self) -> &AuthCache {
        &self.cache
    }

    /// Register the dRBAC subject a node authenticates as (typically its
    /// vendor role holder identity).
    pub fn set_node_subject(&mut self, node: NodeId, subject: Subject) {
        self.node_subjects.insert(node, subject);
    }

    /// Register the executable role (and attribute bounds) enforced by a
    /// node's domain.
    pub fn set_node_exec_role(&mut self, node: NodeId, role: RoleName, attrs: AttrSet) {
        self.node_exec_roles.insert(node, (role, attrs));
    }

    /// Add credentials presented on behalf of components. The presented
    /// set is rebuilt (and hashed) here, never per query.
    pub fn add_component_credentials(&mut self, creds: Vec<SignedDelegation>) {
        let held = self
            .component_credentials
            .credentials()
            .map(|(c, _)| SignedDelegation::clone(c));
        self.component_credentials = PresentedSet::new(held.chain(creds));
    }

    fn engine(&self) -> ProofEngine<'_> {
        ProofEngine::with_cache(
            &self.registry,
            &self.repository,
            &self.bus,
            self.clock.now(),
            &self.cache,
        )
    }
}

impl AuthOracle for DrbacOracle {
    fn node_authorized(&self, component: &ComponentSpec, node: NodeId) -> bool {
        let Some((required_role, required_attrs)) = &component.node_role else {
            return true;
        };
        let Some(subject) = self.node_subjects.get(&node) else {
            return false;
        };
        self.engine()
            .prove_with(subject, required_role, required_attrs, &[])
            .is_ok()
    }

    fn component_authorized(&self, component: &ComponentSpec, node: NodeId) -> bool {
        let Some((exec_role, bounds)) = self.node_exec_roles.get(&node) else {
            return true; // domain imposes no executable policy
        };
        let Some(comp_role) = &component.exec_role else {
            return false; // node demands credentials; component has none
        };
        // The component presents its role; the proof must map it into the
        // node domain's executable role with enough CPU allowance.
        let subject = Subject::Role(comp_role.clone());
        let mut required = bounds.clone();
        // CPU demand: the chain's CPU capacity must cover the component.
        required = required.with(
            "CPU",
            psf_drbac::AttrValue::Capacity(component.cpu_cost as i64),
        );
        self.engine()
            .prove_with_presented(&subject, exec_role, &required, &self.component_credentials)
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Effect;
    use psf_drbac::entity::Entity;
    use psf_drbac::{AttrValue, DelegationBuilder, Timestamp};
    use psf_netsim::{three_site_scenario, Network};

    /// Build the Table 2 world: Mail policy roles, vendor roles, and the
    /// executable-role chains for SD and SE.
    struct T2 {
        oracle: DrbacOracle,
        network: Network,
        registry: EntityRegistry,
        repo: Repository,
        bus: RevocationBus,
        ny_node: NodeId,
        sd_node: NodeId,
        se_node: NodeId,
        ny_pc: Entity,
        mail: Entity,
        ny: Entity,
        sd: Entity,
    }

    fn table2_world() -> T2 {
        table2_world_at(ClockRef::new(), None)
    }

    /// The Table 2 world on `clock`, with Dell's certification of the NY
    /// machine (credential 7) expiring at `ny_pc_expiry` when given.
    fn table2_world_at(clock: ClockRef, ny_pc_expiry: Option<Timestamp>) -> T2 {
        let scenario = three_site_scenario(1);
        let registry = EntityRegistry::new();
        let repo = Repository::new();
        let bus = RevocationBus::new();

        let mail = Entity::with_seed("Mail", b"t2");
        let ny = Entity::with_seed("Comp.NY", b"t2");
        let sd = Entity::with_seed("Comp.SD", b"t2");
        let se = Entity::with_seed("Inc.SE", b"t2");
        let dell = Entity::with_seed("Dell", b"t2");
        let ibm = Entity::with_seed("IBM", b"t2");
        // Node identities.
        let ny_pc = Entity::with_seed("Comp.NY.PC-0", b"t2");
        let sd_pc = Entity::with_seed("Comp.SD.PC-0", b"t2");
        let se_pc = Entity::with_seed("Inc.SE.PC-0", b"t2");
        for e in [&mail, &ny, &sd, &se, &dell, &ibm, &ny_pc, &sd_pc, &se_pc] {
            registry.register(e);
        }

        // (4)-(6): Mail policy maps vendor roles onto Mail.Node.
        repo.publish_at_issuer(
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("Dell", "Linux"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["true", "false"]))
                .attr("Trust", AttrValue::Range(0, 10))
                .sign(),
        );
        repo.publish_at_issuer(
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("Dell", "SuSe"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["true", "false"]))
                .attr("Trust", AttrValue::Range(0, 7))
                .sign(),
        );
        repo.publish_at_issuer(
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("IBM", "Windows"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["false"]))
                .attr("Trust", AttrValue::Range(0, 1))
                .sign(),
        );
        // (7)/(13)/(16): vendors certify the machines.
        let mut ny_pc_cred = DelegationBuilder::new(&dell)
            .subject_entity(&ny_pc)
            .role(dell.role("Linux"));
        if let Some(t) = ny_pc_expiry {
            ny_pc_cred = ny_pc_cred.expires(t);
        }
        repo.publish_at_issuer(ny_pc_cred.sign());
        repo.publish_at_issuer(
            DelegationBuilder::new(&dell)
                .subject_entity(&sd_pc)
                .role(dell.role("SuSe"))
                .sign(),
        );
        repo.publish_at_issuer(
            DelegationBuilder::new(&ibm)
                .subject_entity(&se_pc)
                .role(ibm.role("Windows"))
                .sign(),
        );
        // (8)-(10): NY certifies the mail components as executables.
        let comp_creds = vec![DelegationBuilder::new(&ny)
            .subject_role(RoleName::new("Mail", "Encryptor"))
            .role(ny.role("Executable"))
            .attr("CPU", AttrValue::Capacity(100))
            .sign()];
        // (14)/(17): SD and SE map NY executables into their own.
        repo.publish_at_issuer(
            DelegationBuilder::new(&sd)
                .subject_role(ny.role("Executable"))
                .role(sd.role("Executable"))
                .attr("CPU", AttrValue::Capacity(80))
                .sign(),
        );
        repo.publish_at_issuer(
            DelegationBuilder::new(&se)
                .subject_role(ny.role("Executable"))
                .role(se.role("Executable"))
                .attr("CPU", AttrValue::Capacity(40))
                .sign(),
        );

        let mut oracle = DrbacOracle::new(registry.clone(), repo.clone(), bus.clone(), clock);
        oracle.set_node_subject(scenario.ny[0], ny_pc.as_subject());
        oracle.set_node_subject(scenario.sd[0], sd_pc.as_subject());
        oracle.set_node_subject(scenario.se[0], se_pc.as_subject());
        oracle.set_node_exec_role(scenario.sd[0], sd.role("Executable"), AttrSet::new());
        oracle.set_node_exec_role(scenario.se[0], se.role("Executable"), AttrSet::new());
        oracle.add_component_credentials(comp_creds);
        T2 {
            oracle,
            network: scenario.network,
            registry,
            repo,
            bus,
            ny_node: scenario.ny[0],
            sd_node: scenario.sd[0],
            se_node: scenario.se[0],
            ny_pc,
            mail,
            ny,
            sd,
        }
    }

    fn encryptor(t: &T2, cpu: u32, need_secure: bool) -> ComponentSpec {
        let mut attrs = AttrSet::new();
        if need_secure {
            attrs = attrs.with("Secure", AttrValue::set(["true"]));
        }
        ComponentSpec::processor("Encryptor", "MailI", "MailI", Effect::Encrypt)
            .cpu(cpu)
            .exec_role(RoleName::new("Mail", "Encryptor"))
            .node_role(t.mail.role("Node"), attrs)
    }

    #[test]
    fn t2_node_mapping_authorizes_dell_nodes() {
        let t = table2_world();
        let c = encryptor(&t, 10, false);
        // SD node maps (13) → (5): authorized.
        assert!(t.oracle.node_authorized(&c, t.sd_node));
        // NY node maps (7) → (4): authorized.
        assert!(t.oracle.node_authorized(&c, t.ny_node));
        // SE (IBM/Windows) maps to Mail.Node too — but only insecure.
        assert!(t.oracle.node_authorized(&c, t.se_node));
    }

    #[test]
    fn t2_secure_requirement_excludes_windows_nodes() {
        let t = table2_world();
        let c = encryptor(&t, 10, true);
        assert!(t.oracle.node_authorized(&c, t.sd_node));
        // IBM.Windows maps with Secure={false} only (cred 6): the
        // intersection with {true} is empty.
        assert!(!t.oracle.node_authorized(&c, t.se_node));
    }

    #[test]
    fn t2_component_cpu_attenuation() {
        let t = table2_world();
        // NY grants 100; SD attenuates to 80; SE to 40 (creds 8/14/17).
        let small = encryptor(&t, 30, false);
        let medium = encryptor(&t, 60, false);
        let large = encryptor(&t, 90, false);
        // SD accepts ≤ 80.
        assert!(t.oracle.component_authorized(&small, t.sd_node));
        assert!(t.oracle.component_authorized(&medium, t.sd_node));
        assert!(!t.oracle.component_authorized(&large, t.sd_node));
        // SE accepts ≤ 40.
        assert!(t.oracle.component_authorized(&small, t.se_node));
        assert!(!t.oracle.component_authorized(&medium, t.se_node));
    }

    #[test]
    fn component_without_credentials_rejected_where_policy_exists() {
        let t = table2_world();
        let mut c = encryptor(&t, 10, false);
        c.exec_role = None;
        assert!(!t.oracle.component_authorized(&c, t.sd_node));
        // NY imposes no executable policy in this setup.
        assert!(t.oracle.component_authorized(&c, t.ny_node));
    }

    #[test]
    fn unknown_node_not_authorized() {
        let t = table2_world();
        let c = encryptor(&t, 10, false);
        assert!(!t.oracle.node_authorized(&c, NodeId(999)));
        let _ = (&t.ny, &t.sd);
    }

    /// The oracle reads the deployer's clock on every query: once Dell's
    /// certification of the NY machine expires, the planner stops placing
    /// components there, and preflight — evaluating at the same clock —
    /// agrees with both verdicts.
    #[test]
    fn expired_node_credential_stops_the_planner_and_preflight_agrees() {
        use crate::deploy::{AppBundle, Deployer};
        use crate::model::Goal;
        use crate::planner::{Plan, PlanStep, Planner, PlannerConfig};
        use crate::registrar::Registrar;
        use psf_drbac::guard::Guard;
        use psf_views::ComponentClass;
        use std::sync::Arc;

        let clock = ClockRef::new();
        let t = table2_world_at(clock.clone(), Some(100));
        let stamp = ComponentSpec::processor("Stamp", "MailI", "StampI", Effect::Identity)
            .cpu(10)
            .exec_role(RoleName::new("Mail", "Encryptor"))
            .node_role(t.mail.role("Node"), AttrSet::new());
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("MailServer", "MailI"));
        registrar.register(stamp.clone());
        registrar.record_deployed("MailServer", t.ny_node);
        let goal = Goal {
            iface: "StampI".into(),
            client_node: t.ny_node,
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let plan = || {
            Planner::new(&registrar, &t.network, &t.oracle, PlannerConfig::default())
                .plan(&goal)
                .unwrap()
                .0
        };
        let placements = |p: &Plan| -> Vec<NodeId> {
            p.steps
                .iter()
                .filter_map(|s| match s {
                    PlanStep::Deploy { node, .. } => Some(*node),
                    _ => None,
                })
                .collect()
        };
        let class = ComponentClass::builder("Stamp")
            .interface("StampI", ["stamp"])
            .field("n", "int")
            .method("stamp", "int stamp()", &["n"], false, |st, _| {
                Ok(st.get("n"))
            })
            .build()
            .unwrap();
        let guard = Arc::new(Guard::new(
            Entity::with_seed("Deploy.Domain", b"t2"),
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        ));
        let deployer = Deployer::new(guard, clock.clone(), AppBundle::new().class("Stamp", class))
            .with_network(t.network.clone());
        // What preflight would conclude about the NY machine right now.
        let live_verdict = || {
            ProofEngine::new(&t.registry, &t.repo, &t.bus, deployer.clock().now())
                .prove_with(
                    &t.ny_pc.as_subject(),
                    &t.mail.role("Node"),
                    &AttrSet::new(),
                    &[],
                )
                .is_ok()
        };

        assert_eq!(placements(&plan()), vec![t.ny_node]);
        assert!(live_verdict());
        assert!(t.oracle.node_authorized(&stamp, t.ny_node));

        clock.set(150);
        assert!(!live_verdict());
        assert!(!t.oracle.node_authorized(&stamp, t.ny_node));
        let replanned = plan();
        let placed = placements(&replanned);
        assert_eq!(placed.len(), 1, "plan: {}", replanned.render());
        assert_ne!(placed[0], t.ny_node, "plan: {}", replanned.render());
        let violations = deployer.preflight(&registrar, &replanned, &goal);
        assert!(violations.is_empty(), "{violations:?}");
    }
}
