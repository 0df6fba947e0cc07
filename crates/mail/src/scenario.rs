//! The full three-site scenario (paper §2.2/§3.3): "the mail service is
//! used by a company (*Comp*) … across three sites: the main office in
//! New York, a branch office in San Diego, and a partner organization
//! (*Inc*) in Seattle", with **all seventeen Table 2 credentials**, the
//! Table 4 ACL, and the planner/deployer wiring.

use crate::components::{mail_client_class, mail_server_class};
use crate::cryptomw::CipherPair;
use crate::views::{mail_method_library, view_anonymous, view_member, view_partner};
use psf_core::{
    AppBundle, ComponentSpec, Deployer, Deployment, DrbacOracle, Effect, Goal, Plan, Planner,
    PlannerConfig, PsfError, Registrar,
};
use psf_drbac::entity::{Entity, EntityRegistry, RoleName, Subject};
use psf_drbac::guard::Guard;
use psf_drbac::repository::Repository;
use psf_drbac::revocation::RevocationBus;
use psf_drbac::{AttrSet, AttrValue, DelegationBuilder, SignedDelegation};
use psf_netsim::{three_site_scenario, NodeId, ThreeSites};
use psf_switchboard::ClockRef;
use psf_views::ViewAcl;
use psf_views::{ExposureType, ViewSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The assembled world: network, security, users, and framework modules.
pub struct MailWorld {
    /// The three-site network.
    pub sites: ThreeSites,
    /// Shared PKI directory.
    pub registry: EntityRegistry,
    /// Shared credential repository.
    pub repository: Repository,
    /// Shared revocation bus.
    pub bus: RevocationBus,
    /// Shared logical clock.
    pub clock: ClockRef,
    /// NY-Guard ("responsible for the correct use of the mail application
    /// and all clients located in New York").
    pub ny_guard: Arc<Guard>,
    /// SD-Guard.
    pub sd_guard: Arc<Guard>,
    /// SE-Guard.
    pub se_guard: Arc<Guard>,
    /// The mail application's own policy entity (`Mail`).
    pub mail: Entity,
    /// Hardware vendors.
    pub dell: Entity,
    /// Hardware vendors.
    pub ibm: Entity,
    /// The three users of §3.3.
    pub alice: Entity,
    /// Bob works in San Diego.
    pub bob: Entity,
    /// Charlie belongs to the Seattle partner.
    pub charlie: Entity,
    /// Per-node machine identities.
    pub node_identities: BTreeMap<NodeId, Entity>,
    /// The seventeen Table 2 credentials by their paper number, plus
    /// extension (18) for the ViewMailServer template (documented in
    /// EXPERIMENTS.md).
    pub creds: BTreeMap<u8, SignedDelegation>,
    /// Component templates.
    pub registrar: Registrar,
    /// dRBAC constraint oracle for the planner.
    pub oracle: DrbacOracle,
    /// Deployment infrastructure (issues credentials through NY-Guard).
    pub deployer: Deployer,
    /// Table 4 role→view ACL.
    pub acl: ViewAcl,
}

impl MailWorld {
    /// Assemble the world with `per_site` nodes per site.
    pub fn build(per_site: usize) -> MailWorld {
        let sites = three_site_scenario(per_site);
        let registry = EntityRegistry::new();
        let repository = Repository::new();
        let bus = RevocationBus::new();
        let clock = ClockRef::new();

        let ny_guard = Arc::new(Guard::new(
            Entity::with_seed("Comp.NY", b"mail-world"),
            registry.clone(),
            repository.clone(),
            bus.clone(),
        ));
        let sd_guard = Arc::new(Guard::new(
            Entity::with_seed("Comp.SD", b"mail-world"),
            registry.clone(),
            repository.clone(),
            bus.clone(),
        ));
        let se_guard = Arc::new(Guard::new(
            Entity::with_seed("Inc.SE", b"mail-world"),
            registry.clone(),
            repository.clone(),
            bus.clone(),
        ));
        let mail = Entity::with_seed("Mail", b"mail-world");
        let dell = Entity::with_seed("Dell", b"mail-world");
        let ibm = Entity::with_seed("IBM", b"mail-world");
        for e in [&mail, &dell, &ibm] {
            registry.register(e);
        }

        let alice = ny_guard.create_principal("Alice");
        let bob = sd_guard.create_principal("Bob");
        let charlie = se_guard.create_principal("Charlie");

        // Machine identities + site-PC roles.
        let mut node_identities = BTreeMap::new();
        let mut site_pcs = Vec::new();
        for (guard, nodes, label) in [
            (&ny_guard, &sites.ny, "Comp.NY.PC"),
            (&sd_guard, &sites.sd, "Comp.SD.PC"),
            (&se_guard, &sites.se, "Inc.SE.PC"),
        ] {
            for (i, &node) in nodes.iter().enumerate() {
                let pc = guard.create_principal(format!("{label}-{i}"));
                // [ pc → <Site>.PC ] <Site>-Guard — membership in the
                // site's machine class.
                guard.publish(
                    guard
                        .issue()
                        .subject_entity(&pc)
                        .role(guard.role("PC"))
                        .sign(),
                );
                node_identities.insert(node, pc);
                site_pcs.push((label, node));
            }
        }

        let ny = ny_guard.entity().clone();
        let sd = sd_guard.entity().clone();
        let se = se_guard.entity().clone();

        let mut creds: BTreeMap<u8, SignedDelegation> = BTreeMap::new();
        fn publish_numbered(
            creds: &mut BTreeMap<u8, SignedDelegation>,
            n: u8,
            guard: &Arc<Guard>,
            cred: SignedDelegation,
        ) {
            creds.insert(n, guard.publish(cred));
        }

        // ---- New York -------------------------------------------------
        // (1) [ Alice → Comp.NY.Member ] Comp.NY
        publish_numbered(
            &mut creds,
            1,
            &ny_guard,
            ny_guard
                .issue()
                .subject_entity(&alice)
                .role(ny.role("Member"))
                .sign(),
        );
        // (2) [ Comp.SD.Member → Comp.NY.Member ] Comp.NY
        publish_numbered(
            &mut creds,
            2,
            &ny_guard,
            ny_guard
                .issue()
                .subject_role(sd.role("Member"))
                .role(ny.role("Member"))
                .sign(),
        );
        // (3) [ Comp.SD → Comp.NY.Partner ' ] Comp.NY
        publish_numbered(
            &mut creds,
            3,
            &ny_guard,
            ny_guard
                .issue()
                .subject_entity(&sd)
                .assignment()
                .role(ny.role("Partner"))
                .sign(),
        );
        // (4)-(6): Mail's node policy. The Mail entity signs these; they
        // are published at its own home shard.
        fn direct_publish(
            repository: &Repository,
            creds: &mut BTreeMap<u8, SignedDelegation>,
            n: u8,
            cred: SignedDelegation,
        ) {
            repository.publish_at_issuer(cred.clone());
            creds.insert(n, cred);
        }
        direct_publish(
            &repository,
            &mut creds,
            4,
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("Dell", "Linux"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["true", "false"]))
                .attr("Trust", AttrValue::Range(0, 10))
                .sign(),
        );
        direct_publish(
            &repository,
            &mut creds,
            5,
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("Dell", "SuSe"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["true", "false"]))
                .attr("Trust", AttrValue::Range(0, 7))
                .sign(),
        );
        direct_publish(
            &repository,
            &mut creds,
            6,
            DelegationBuilder::new(&mail)
                .subject_role(RoleName::new("IBM", "Windows"))
                .role(mail.role("Node"))
                .attr("Secure", AttrValue::set(["false"]))
                .attr("Trust", AttrValue::Range(0, 1))
                .sign(),
        );
        // (7) [ Comp.NY.PC → Dell.Linux ] Dell
        direct_publish(
            &repository,
            &mut creds,
            7,
            DelegationBuilder::new(&dell)
                .subject_role(ny.role("PC"))
                .role(dell.role("Linux"))
                .sign(),
        );
        // (8)-(10): NY certifies the mail components.
        for (n, comp) in [(8u8, "MailClient"), (9, "Encryptor"), (10, "Decryptor")] {
            publish_numbered(
                &mut creds,
                n,
                &ny_guard,
                ny_guard
                    .issue()
                    .subject_role(RoleName::new("Mail", comp))
                    .role(ny.role("Executable"))
                    .attr("CPU", AttrValue::Capacity(100))
                    .sign(),
            );
        }

        // ---- San Diego -------------------------------------------------
        // (11) [ Bob → Comp.SD.Member ] Comp.SD
        publish_numbered(
            &mut creds,
            11,
            &sd_guard,
            sd_guard
                .issue()
                .subject_entity(&bob)
                .role(sd.role("Member"))
                .sign(),
        );
        // (12) [ Inc.SE.Member → Comp.NY.Partner ] Comp.SD  (third-party,
        // authorized by (3)).
        publish_numbered(
            &mut creds,
            12,
            &sd_guard,
            sd_guard
                .issue()
                .subject_role(se.role("Member"))
                .role(ny.role("Partner"))
                .sign(),
        );
        // (13) [ Comp.SD.PC → Dell.SuSe ] Dell
        direct_publish(
            &repository,
            &mut creds,
            13,
            DelegationBuilder::new(&dell)
                .subject_role(sd.role("PC"))
                .role(dell.role("SuSe"))
                .sign(),
        );
        // (14) [ Comp.NY.Executable → Comp.SD.Executable with CPU=80 ] Comp.SD
        publish_numbered(
            &mut creds,
            14,
            &sd_guard,
            sd_guard
                .issue()
                .subject_role(ny.role("Executable"))
                .role(sd.role("Executable"))
                .attr("CPU", AttrValue::Capacity(80))
                .sign(),
        );

        // ---- Seattle ---------------------------------------------------
        // (15) [ Charlie → Inc.SE.Member ] Inc.SE
        publish_numbered(
            &mut creds,
            15,
            &se_guard,
            se_guard
                .issue()
                .subject_entity(&charlie)
                .role(se.role("Member"))
                .sign(),
        );
        // (16) [ Inc.SE.PC → IBM.Windows ] IBM
        direct_publish(
            &repository,
            &mut creds,
            16,
            DelegationBuilder::new(&ibm)
                .subject_role(se.role("PC"))
                .role(ibm.role("Windows"))
                .sign(),
        );
        // (17) [ Comp.NY.Executable → Inc.SE.Executable with CPU=40 ] Inc.SE
        publish_numbered(
            &mut creds,
            17,
            &se_guard,
            se_guard
                .issue()
                .subject_role(ny.role("Executable"))
                .role(se.role("Executable"))
                .attr("CPU", AttrValue::Capacity(40))
                .sign(),
        );
        // (18, extension): the ViewMailServer cache template gets its own
        // executable credential, mirroring (8)-(10).
        publish_numbered(
            &mut creds,
            18,
            &ny_guard,
            ny_guard
                .issue()
                .subject_role(RoleName::new("Mail", "ViewMailServer"))
                .role(ny.role("Executable"))
                .attr("CPU", AttrValue::Capacity(100))
                .sign(),
        );

        // ---- Component templates ---------------------------------------
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("MailServer", "MailI"));
        registrar.register(
            ComponentSpec::processor("Encryptor", "MailI", "MailI", Effect::Encrypt)
                .requires_encrypted(false)
                .cpu(10)
                .exec_role(RoleName::new("Mail", "Encryptor"))
                .node_role(mail.role("Node"), AttrSet::new()),
        );
        registrar.register(
            ComponentSpec::processor("Decryptor", "MailI", "MailI", Effect::Decrypt)
                .requires_encrypted(true)
                .cpu(10)
                .exec_role(RoleName::new("Mail", "Decryptor"))
                .node_role(mail.role("Node"), AttrSet::new()),
        );
        // The cache holds plaintext mail for many users: it demands a
        // secure, reasonably trusted node.
        registrar.register(
            ComponentSpec::processor("ViewMailServer", "MailI", "MailI", Effect::Cache)
                .cpu(20)
                .exec_role(RoleName::new("Mail", "ViewMailServer"))
                .node_role(
                    mail.role("Node"),
                    AttrSet::new()
                        .with("Secure", AttrValue::set(["true"]))
                        .with("Trust", AttrValue::Range(5, 10)),
                )
                .view_of("MailServer"),
        );

        // ---- Oracle -----------------------------------------------------
        let mut oracle = DrbacOracle::new(
            registry.clone(),
            repository.clone(),
            bus.clone(),
            clock.clone(),
        );
        for (&node, pc) in &node_identities {
            oracle.set_node_subject(node, pc.as_subject());
        }
        for &node in &sites.ny {
            oracle.set_node_exec_role(node, ny.role("Executable"), AttrSet::new());
        }
        for &node in &sites.sd {
            oracle.set_node_exec_role(node, sd.role("Executable"), AttrSet::new());
        }
        for &node in &sites.se {
            oracle.set_node_exec_role(node, se.role("Executable"), AttrSet::new());
        }
        oracle.add_component_credentials(
            [8u8, 9, 10, 14, 17, 18]
                .iter()
                .map(|n| creds[n].clone())
                .collect(),
        );

        // ---- Deployment bundle -----------------------------------------
        let pair = Arc::new(CipherPair::generate());
        let enc_factory = pair.encryptor();
        let dec_factory = pair.decryptor();
        let bundle = AppBundle::new()
            .class("MailServer", mail_server_class())
            .class("MailClient", mail_client_class())
            .view(
                "ViewMailServer",
                ViewSpec::new("ViewMailServer", "MailServer")
                    .restrict("MailI", ExposureType::Local),
            )
            .with_library(mail_method_library())
            .middleware_factory("Encryptor", Arc::new(enc_factory))
            .middleware_factory("Decryptor", Arc::new(dec_factory))
            .cpu_cost("Encryptor", 10)
            .cpu_cost("Decryptor", 10)
            .cpu_cost("ViewMailServer", 20);
        let deployer = Deployer::new(ny_guard.clone(), clock.clone(), bundle)
            .with_network(sites.network.clone());

        // The mail server runs in New York.
        registrar.record_deployed("MailServer", sites.ny[0]);
        let server = deployer
            .start_source("MailServer", sites.ny[0])
            .expect("MailServer class registered");
        // Seed the directory.
        for record in [
            "alice,555-0100,alice@comp.ny",
            "bob,555-0199,bob@comp.sd",
            "charlie,555-0177,charlie@inc.se",
        ] {
            server
                .invoke("createAccount", record.as_bytes())
                .expect("seed account");
        }

        // ---- Table 4 ACL -------------------------------------------------
        let acl = ViewAcl::new()
            .rule(ny.role("Member"), "ViewMailClient_Member")
            .rule(ny.role("Partner"), "ViewMailClient_Partner")
            .others("ViewMailClient_Anonymous");

        MailWorld {
            sites,
            registry,
            repository,
            bus,
            clock,
            ny_guard,
            sd_guard,
            se_guard,
            mail,
            dell,
            ibm,
            alice,
            bob,
            charlie,
            node_identities,
            creds,
            registrar,
            oracle,
            deployer,
            acl,
        }
    }

    /// The authorization matrix the Table 2 credentials are *intended* to
    /// establish: every (subject, role) pair an administrator meant to
    /// grant, directly or through role mapping. Static analysis
    /// (psf-analysis PSF001) compares the computed delegation-graph
    /// closure against this list — any reachable pair missing here is a
    /// privilege escalation.
    pub fn expected_grants(&self) -> Vec<(Subject, RoleName)> {
        let ny = self.ny_guard.entity();
        let sd = self.sd_guard.entity();
        let se = self.se_guard.entity();
        let mut out = vec![
            // Users: direct memberships plus the §3.3 cross-site mappings
            // (11→2 gives Bob NY.Member; 15→12 gives Charlie NY.Partner).
            (self.alice.as_subject(), ny.role("Member")),
            (self.bob.as_subject(), sd.role("Member")),
            (self.bob.as_subject(), ny.role("Member")),
            (self.charlie.as_subject(), se.role("Member")),
            (self.charlie.as_subject(), ny.role("Partner")),
        ];
        // Machines: site PC class, vendor machine class, mail node policy.
        for (&node, pc) in &self.node_identities {
            let subject = pc.as_subject();
            let (site_pc, machine_class) = if self.sites.ny.contains(&node) {
                (ny.role("PC"), self.dell.role("Linux"))
            } else if self.sites.sd.contains(&node) {
                (sd.role("PC"), self.dell.role("SuSe"))
            } else {
                (se.role("PC"), self.ibm.role("Windows"))
            };
            out.push((subject.clone(), site_pc));
            out.push((subject.clone(), machine_class));
            out.push((subject, self.mail.role("Node")));
        }
        out
    }

    /// The client-side view name (and dRBAC proof) Table 4 grants a user.
    pub fn client_view(&self, who: &Entity) -> Option<(String, Option<psf_drbac::Proof>)> {
        self.acl.select_view(
            &who.as_subject(),
            &[],
            &self.registry,
            &self.repository,
            &self.bus,
            self.clock.now(),
        )
    }

    /// Generate the VIG view instance a user is entitled to, bound to a
    /// fresh `MailClient` original (single-sign-on path).
    pub fn instantiate_client_view(
        &self,
        who: &Entity,
    ) -> Option<(String, Arc<psf_views::ViewInstance>)> {
        let (view_name, _proof) = self.client_view(who)?;
        let spec = match view_name.as_str() {
            "ViewMailClient_Member" => view_member(),
            "ViewMailClient_Partner" => view_partner(),
            _ => view_anonymous(),
        };
        let class = mail_client_class();
        let vig = psf_views::Vig::new(mail_method_library());
        let generated = vig.generate(&class, &spec).ok()?;
        let original = class.instantiate();
        original.set_field(
            "accounts",
            "alice,555-0100,alice@comp.ny\nbob,555-0199,bob@comp.sd",
        );
        let inst = generated
            .instantiate(
                Some(psf_views::binding::InProcessRemote::switchboard(original)),
                psf_views::CoherencePolicy::WriteThrough,
                0,
                who.name.0.as_bytes(),
            )
            .ok()?;
        Some((view_name, inst))
    }

    /// Plan mail-service delivery to a client node.
    pub fn plan_service(&self, goal: &Goal) -> Result<(Plan, psf_core::PlannerStats), PsfError> {
        let planner = Planner::new(
            &self.registrar,
            &self.sites.network,
            &self.oracle,
            PlannerConfig::default(),
        );
        planner.plan(goal)
    }

    /// Plan and deploy in one go.
    pub fn deliver(&self, goal: &Goal) -> Result<(Plan, Deployment), PsfError> {
        let mut span = psf_telemetry::span("psf.mail", "deliver");
        span.field("goal_iface", &goal.iface)
            .field("client_node", goal.client_node.0);
        psf_telemetry::counter!("psf.mail.deliveries").inc();
        let (plan, _) = self.plan_service(goal)?;
        let deployment = self.deployer.execute(&plan, goal)?;
        span.field("steps", plan.steps.len())
            .field("channels", deployment.channel_count());
        Ok((plan, deployment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_with_all_credentials() {
        let w = MailWorld::build(2);
        assert_eq!(w.creds.len(), 18);
        // Every paper credential renders in Table 2 syntax.
        assert_eq!(
            w.creds[&1].body.render(),
            "[ Alice -> Comp.NY.Member ] Comp.NY"
        );
        assert_eq!(
            w.creds[&3].body.render(),
            "[ Comp.SD -> Comp.NY.Partner ' ] Comp.NY"
        );
        assert_eq!(
            w.creds[&12].body.render(),
            "[ Inc.SE.Member -> Comp.NY.Partner ] Comp.SD"
        );
        assert!(w.creds[&4].body.render().contains("Trust=(0,10)"));
        assert!(w.creds[&6].body.render().contains("Secure={false}"));
        assert!(w.creds[&14].body.render().contains("CPU=80"));
    }
}
