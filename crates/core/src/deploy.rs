//! The deployment infrastructure (paper §2.1/§4.3): "securely
//! instantiates, links, and executes the components on the given nodes";
//! "once the views are generated, the deployment infrastructure issues to
//! the generated view its own set of credentials, downloads them onto
//! their target nodes, and connects them to other components using secure
//! channels".

use crate::model::Goal;
use crate::planner::{Plan, PlanStep};
use crate::PsfError;
use parking_lot::Mutex;
use psf_drbac::entity::Entity;
use psf_drbac::guard::Guard;
use psf_drbac::{CredentialId, SignedDelegation};
use psf_netsim::{Network, NodeId};
use psf_switchboard::{
    pair_in_memory, pair_in_memory_plain, AuthSuite, Authorizer, Channel, ChannelConfig, ClockRef,
};
use psf_views::binding::{InProcessRemote, RemoteCall};
use psf_views::{
    CoherencePolicy, ComponentClass, ComponentInstance, MethodLibrary, ViewInstance, ViewSpec, Vig,
};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Deterministic 64-bit mixer (splitmix64 finalizer): the source of all
/// "randomness" in fault injection and retry jitter, so a seed fully
/// determines behavior — no wall-clock entropy.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Bounded retry with exponential backoff and deterministic jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total execution attempts (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: Duration,
    /// Cap on any single backoff, jitter included.
    pub max_backoff: Duration,
    /// Seed for the jitter mixer: same seed → same backoff sequence.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5eed,
        }
    }
}

impl RetryPolicy {
    /// Backoff to sleep after failed `attempt` (1-indexed):
    /// `base * 2^(attempt-1)` plus up to +50% deterministic jitter,
    /// capped at `max_backoff`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << (attempt.saturating_sub(1)).min(16));
        let jitter_pct = mix64(self.jitter_seed ^ u64::from(attempt)) % 50;
        let jitter = Duration::from_nanos((exp.as_nanos() as u64 / 100).saturating_mul(jitter_pct));
        (exp + jitter).min(self.max_backoff)
    }
}

/// A deterministic schedule of injected deployment failures, addressed by
/// (attempt, step index). Two combinable modes: explicit [`fail_at`]
/// (DeployFaultPlan::fail_at) entries, and a seeded pseudo-random mode
/// ([`seeded`](DeployFaultPlan::seeded)) that fails each step with a fixed
/// probability, capped at `max_faults` total so a bounded retry can always
/// recover.
#[derive(Clone, Debug, Default)]
pub struct DeployFaultPlan {
    scheduled: Vec<(u32, usize)>,
    seed: Option<u64>,
    probability_pct: u64,
    max_faults: u32,
}

impl DeployFaultPlan {
    /// Fail step `step` (0-indexed) of attempt `attempt` (1-indexed).
    pub fn fail_at(attempt: u32, step: usize) -> DeployFaultPlan {
        DeployFaultPlan::default().and_fail_at(attempt, step)
    }

    /// Add another scheduled failure.
    pub fn and_fail_at(mut self, attempt: u32, step: usize) -> DeployFaultPlan {
        self.scheduled.push((attempt, step));
        self
    }

    /// Seeded random mode: each (attempt, step) fails with
    /// `probability_pct`% probability, derived purely from `seed` — the
    /// same seed always yields the same failures. At most `max_faults`
    /// faults fire per `execute` call; keep it below the retry policy's
    /// `max_attempts` to guarantee an eventually clean attempt.
    pub fn seeded(seed: u64, probability_pct: u64, max_faults: u32) -> DeployFaultPlan {
        DeployFaultPlan {
            scheduled: Vec::new(),
            seed: Some(seed),
            probability_pct: probability_pct.min(100),
            max_faults,
        }
    }

    fn should_fail(&self, attempt: u32, step: usize, fired: u32) -> bool {
        if self
            .scheduled
            .iter()
            .any(|&(a, s)| a == attempt && s == step)
        {
            return true;
        }
        if let Some(seed) = self.seed {
            if fired < self.max_faults {
                let roll = mix64(seed ^ (u64::from(attempt) << 32) ^ step as u64) % 100;
                return roll < self.probability_pct;
            }
        }
        false
    }
}

/// What a rollback undid — the observable proof that a failed attempt
/// released everything it had acquired.
#[derive(Clone, Debug)]
pub struct RollbackReport {
    /// Which attempt failed (1-indexed).
    pub attempt: u32,
    /// The step index at which the attempt failed.
    pub failed_step: usize,
    /// The error that triggered the rollback.
    pub error: String,
    /// Total CPU units released back to their nodes.
    pub released_cpu: u32,
    /// Channels closed (both halves each).
    pub closed_channels: usize,
    /// Credential ids revoked on the `RevocationBus`.
    pub revoked_credential_ids: Vec<String>,
}

/// Factory turning an upstream endpoint into a transformed endpoint
/// (encryptors/decryptors are endpoint middleware in the data plane).
pub type MiddlewareFactory = Arc<dyn Fn(Arc<dyn RemoteCall>) -> Arc<dyn RemoteCall> + Send + Sync>;

/// Everything the deployer needs to turn plan steps into running code.
#[derive(Clone, Default)]
pub struct AppBundle {
    /// Source component classes by template name.
    pub classes: HashMap<String, Arc<ComponentClass>>,
    /// View definitions by template name (templates with `view_of`).
    pub view_specs: HashMap<String, ViewSpec>,
    /// Method bodies for VIG.
    pub library: MethodLibrary,
    /// Data-plane middleware by template name.
    pub middleware: HashMap<String, MiddlewareFactory>,
    /// CPU cost per template (from its [`ComponentSpec`]
    /// (crate::model::ComponentSpec)); used for node reservation at
    /// deployment time.
    pub cpu_costs: HashMap<String, u32>,
}

impl AppBundle {
    /// Empty bundle.
    pub fn new() -> AppBundle {
        AppBundle::default()
    }

    /// Register a source class.
    pub fn class(mut self, name: impl Into<String>, class: Arc<ComponentClass>) -> Self {
        self.classes.insert(name.into(), class);
        self
    }

    /// Register a view template.
    pub fn view(mut self, name: impl Into<String>, spec: ViewSpec) -> Self {
        self.view_specs.insert(name.into(), spec);
        self
    }

    /// Register middleware.
    pub fn middleware_factory(
        mut self,
        name: impl Into<String>,
        factory: MiddlewareFactory,
    ) -> Self {
        self.middleware.insert(name.into(), factory);
        self
    }

    /// Set the VIG method library.
    pub fn with_library(mut self, library: MethodLibrary) -> Self {
        self.library = library;
        self
    }

    /// Record a template's CPU cost (usually from its spec).
    pub fn cpu_cost(mut self, name: impl Into<String>, cost: u32) -> Self {
        self.cpu_costs.insert(name.into(), cost);
        self
    }
}

/// A running artifact produced by one plan step.
pub enum Deployed {
    /// A source component instance.
    Component(Arc<ComponentInstance>),
    /// A VIG-generated view instance.
    View(Arc<ViewInstance>),
    /// A data-plane middleware endpoint.
    Middleware(Arc<dyn RemoteCall>),
}

impl Deployed {
    /// Short kind label.
    pub fn kind(&self) -> &'static str {
        match self {
            Deployed::Component(_) => "component",
            Deployed::View(_) => "view",
            Deployed::Middleware(_) => "middleware",
        }
    }
}

/// The realized deployment: running components + the client's endpoint.
pub struct Deployment {
    /// CPU reservations made on nodes: (node, units).
    pub reservations: Vec<(NodeId, u32)>,
    /// What ran where: (template, node, artifact).
    pub placements: Vec<(String, NodeId, Deployed)>,
    /// Identities issued to instantiated components.
    pub issued_identities: Vec<Entity>,
    /// Credentials issued to instantiated components.
    pub issued_credentials: Vec<SignedDelegation>,
    /// Channels created between nodes (kept alive by the deployment):
    /// (client half — also in use as an endpoint — and server half).
    pub channels: Vec<(Arc<Channel>, Channel)>,
    /// The endpoint the client invokes.
    pub endpoint: Arc<dyn RemoteCall>,
}

impl Deployment {
    /// Number of cross-node channels established.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Tear the deployment down: close every channel, release CPU
    /// reservations, and revoke the credentials issued to its components
    /// (instances die with their credentials — nothing lingers
    /// authorized), then withdraw them from the repository so its size
    /// tracks live deployments, not how many have run.
    pub fn teardown(self, network: Option<&Network>, guard: &Guard) {
        for (client, server) in &self.channels {
            client.close();
            server.close();
        }
        if let Some(net) = network {
            for (node, units) in &self.reservations {
                net.release_cpu(*node, *units);
            }
        }
        retire_credentials(guard, &self.issued_credentials);
    }
}

/// Revoke `creds` and withdraw them from the guard's repository, hashing
/// each id once for both. Revocation comes first and the ids stay in the
/// bus's revoked set: a holder can still present a withdrawn credential.
fn retire_credentials(guard: &Guard, creds: &[SignedDelegation]) -> Vec<CredentialId> {
    let ids: Vec<CredentialId> = creds.iter().map(|c| c.credential_id()).collect();
    guard.bus().revoke_all(ids.iter().map(|id| id.as_str()));
    guard.repository().withdraw(
        creds
            .iter()
            .map(|c| &c.body.subject)
            .zip(ids.iter().copied()),
    );
    ids
}

/// Wraps a [`ViewInstance`] as a callable endpoint.
pub struct ViewEndpoint(pub Arc<ViewInstance>);

impl RemoteCall for ViewEndpoint {
    fn call_remote(&self, method: &str, args: &[u8]) -> Result<Vec<u8>, String> {
        self.0.invoke(method, args)
    }
    fn transport_label(&self) -> &'static str {
        "view"
    }
}

/// The deployment infrastructure.
pub struct Deployer {
    guard: Arc<Guard>,
    clock: ClockRef,
    bundle: AppBundle,
    network: Option<Network>,
    config: ChannelConfig,
    /// Already-running source instances (shared with the registrar's
    /// `record_deployed` bookkeeping).
    running: Mutex<HashMap<(String, NodeId), Arc<ComponentInstance>>>,
    serial: std::sync::atomic::AtomicU64,
    retry: Mutex<RetryPolicy>,
    fault_plan: Mutex<Option<DeployFaultPlan>>,
    last_rollback: Mutex<Option<RollbackReport>>,
}

/// Everything a single execution attempt has acquired so far; on failure
/// the whole state is rolled back as one transaction.
#[derive(Default)]
struct TxState {
    reservations: Vec<(NodeId, u32)>,
    placements: Vec<(String, NodeId, Deployed)>,
    issued_identities: Vec<Entity>,
    issued_credentials: Vec<SignedDelegation>,
    channels: Vec<(Arc<Channel>, Channel)>,
    step: usize,
}

impl Deployer {
    /// Create a deployer issuing credentials through `guard`.
    pub fn new(guard: Arc<Guard>, clock: ClockRef, bundle: AppBundle) -> Deployer {
        Deployer {
            guard,
            clock,
            bundle,
            network: None,
            config: ChannelConfig {
                heartbeat_interval: None,
                rpc_timeout: std::time::Duration::from_secs(10),
                ..Default::default()
            },
            running: Mutex::new(HashMap::new()),
            serial: std::sync::atomic::AtomicU64::new(1),
            retry: Mutex::new(RetryPolicy::default()),
            fault_plan: Mutex::new(None),
            last_rollback: Mutex::new(None),
        }
    }

    /// Replace the retry policy. Interior mutability so callers that
    /// receive an already-built deployer (e.g. from a scenario builder)
    /// can still tune it.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Install (or clear) a fault plan applied to subsequent
    /// [`execute`](Deployer::execute) calls.
    pub fn set_fault_plan(&self, plan: Option<DeployFaultPlan>) {
        *self.fault_plan.lock() = plan;
    }

    /// Report from the most recent rollback, if any attempt has failed.
    pub fn last_rollback(&self) -> Option<RollbackReport> {
        self.last_rollback.lock().clone()
    }

    /// Attach the network so deployments reserve (and teardown releases)
    /// node CPU.
    pub fn with_network(mut self, network: Network) -> Deployer {
        self.network = Some(network);
        self
    }

    /// The guard this deployer issues credentials through (pre-flight
    /// analysis evaluates would-be identities against it).
    pub fn guard(&self) -> &Arc<Guard> {
        &self.guard
    }

    /// The application bundle (pre-flight template resolution).
    pub fn bundle(&self) -> &AppBundle {
        &self.bundle
    }

    /// The attached network, if any.
    pub fn network(&self) -> Option<&Network> {
        self.network.as_ref()
    }

    /// The clock deployments are stamped with.
    pub fn clock(&self) -> &ClockRef {
        &self.clock
    }

    /// Pre-start a source instance on a node (pairs with
    /// `Registrar::record_deployed`).
    pub fn start_source(
        &self,
        template: &str,
        node: NodeId,
    ) -> Result<Arc<ComponentInstance>, PsfError> {
        let class = self
            .bundle
            .classes
            .get(template)
            .ok_or_else(|| PsfError::Unknown(format!("no class for '{template}'")))?;
        let inst = class.instantiate();
        self.running
            .lock()
            .insert((template.to_string(), node), inst.clone());
        Ok(inst)
    }

    /// Fetch a running source instance.
    pub fn source(&self, template: &str, node: NodeId) -> Option<Arc<ComponentInstance>> {
        self.running
            .lock()
            .get(&(template.to_string(), node))
            .cloned()
    }

    /// Issue an identity + component credential for a freshly deployed
    /// artifact ("instantiated components receive their own set of
    /// credentials").
    fn issue_identity(&self, template: &str, node: NodeId) -> (Entity, SignedDelegation) {
        let serial = self
            .serial
            .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let entity = self
            .guard
            .create_principal(format!("{template}@node{}#{serial}", node.0));
        let cred = self.guard.publish(
            self.guard
                .issue()
                .subject_entity(&entity)
                .role(self.guard.role("Component"))
                .monitored()
                .serial(serial)
                .sign(),
        );
        (entity, cred)
    }

    /// Execute a plan: instantiate every step, wire channels across
    /// nodes, and return the client's endpoint.
    ///
    /// `secure_channels`: when true, cross-node hops over insecure paths
    /// use full Switchboard channels (mutual auth + AEAD); secure-path
    /// hops use plain channels, mirroring the paper's rmi/switchboard
    /// distinction.
    /// Execution is **transactional**: a failed attempt rolls back every
    /// acquisition it made (CPU reservations released, channels closed,
    /// issued credentials revoked) before the deployer retries under its
    /// [`RetryPolicy`] with deterministic exponential backoff + jitter.
    /// An installed [`DeployFaultPlan`] can fail any (attempt, step) pair
    /// to exercise this path.
    pub fn execute(&self, plan: &Plan, goal: &Goal) -> Result<Deployment, PsfError> {
        let policy = self.retry.lock().clone();
        let fault_plan = self.fault_plan.lock().clone();
        let mut fired = 0u32;
        let mut attempt = 1u32;
        loop {
            let exec_start = std::time::Instant::now();
            let mut exec_span = psf_telemetry::span("psf.deploy", "execute");
            exec_span
                .field("steps", plan.steps.len())
                .field("goal_iface", &goal.iface)
                .field("attempt", attempt);
            psf_telemetry::counter!("psf.deploy.executions").inc();
            let mut tx = TxState::default();
            match self.execute_attempt(
                plan,
                goal,
                attempt,
                fault_plan.as_ref(),
                &mut fired,
                &mut tx,
            ) {
                Ok(endpoint) => {
                    psf_telemetry::histogram!("psf.deploy.execute.us")
                        .record_duration(exec_start.elapsed());
                    psf_telemetry::histogram!("psf.deploy.attempts").record(u64::from(attempt));
                    exec_span
                        .field("placements", tx.placements.len())
                        .field("channels", tx.channels.len())
                        .field("ok", true);
                    return Ok(Deployment {
                        reservations: tx.reservations,
                        placements: tx.placements,
                        issued_identities: tx.issued_identities,
                        issued_credentials: tx.issued_credentials,
                        channels: tx.channels,
                        endpoint,
                    });
                }
                Err(e) => {
                    psf_telemetry::counter!("psf.deploy.failures").inc();
                    psf_telemetry::event(
                        "psf.deploy",
                        "execute.failed",
                        vec![("error", e.to_string()), ("attempt", attempt.to_string())],
                    );
                    exec_span.field("ok", false);
                    let report = self.rollback(tx, attempt, &e);
                    *self.last_rollback.lock() = Some(report);
                    if attempt >= policy.max_attempts {
                        return Err(e);
                    }
                    let backoff = policy.backoff_for(attempt);
                    psf_telemetry::counter!("psf.deploy.retries").inc();
                    psf_telemetry::histogram!("psf.deploy.backoff.us").record_duration(backoff);
                    std::thread::sleep(backoff);
                    attempt += 1;
                }
            }
        }
    }

    /// Undo a partially executed attempt: close its channels, release its
    /// CPU reservations, and revoke and withdraw every credential it
    /// issued — nothing acquired by a failed attempt outlives it.
    fn rollback(&self, tx: TxState, attempt: u32, error: &PsfError) -> RollbackReport {
        psf_telemetry::counter!("psf.deploy.rollbacks").inc();
        let mut span = psf_telemetry::span("psf.deploy", "rollback");
        for (client, server) in &tx.channels {
            client.close();
            server.close();
        }
        let mut released = 0u32;
        if let Some(net) = &self.network {
            for (node, units) in &tx.reservations {
                net.release_cpu(*node, *units);
                released += units;
            }
        }
        let ids: Vec<String> = retire_credentials(&self.guard, &tx.issued_credentials)
            .iter()
            .map(|id| id.to_string())
            .collect();
        span.field("attempt", attempt)
            .field("failed_step", tx.step)
            .field("released_cpu", released)
            .field("closed_channels", tx.channels.len())
            .field("revoked", ids.len());
        RollbackReport {
            attempt,
            failed_step: tx.step,
            error: error.to_string(),
            released_cpu: released,
            closed_channels: tx.channels.len(),
            revoked_credential_ids: ids,
        }
    }

    fn execute_attempt(
        &self,
        plan: &Plan,
        goal: &Goal,
        attempt: u32,
        fault_plan: Option<&DeployFaultPlan>,
        fired: &mut u32,
        tx: &mut TxState,
    ) -> Result<Arc<dyn RemoteCall>, PsfError> {
        let mut endpoint: Option<Arc<dyn RemoteCall>> = None;
        let mut current_node: Option<NodeId> = None;

        for (idx, step) in plan.steps.iter().enumerate() {
            tx.step = idx;
            if let Some(fp) = fault_plan {
                if fp.should_fail(attempt, idx, *fired) {
                    *fired += 1;
                    psf_telemetry::counter!("psf.deploy.faults.injected").inc();
                    return Err(PsfError::DeployFailed(format!(
                        "injected fault: attempt {attempt}, step {idx}"
                    )));
                }
            }
            let step_start = std::time::Instant::now();
            let mut step_span = psf_telemetry::span("psf.deploy", "step");
            match step {
                PlanStep::UseDeployed { spec, node, .. } => {
                    step_span
                        .field("kind", "use_deployed")
                        .field("template", spec)
                        .field("node", node.0);
                }
                PlanStep::Move {
                    from,
                    to,
                    secure_path,
                    ..
                } => {
                    step_span
                        .field("kind", "move")
                        .field("from", from.0)
                        .field("to", to.0)
                        .field("secure_path", secure_path);
                }
                PlanStep::Deploy { spec, node, .. } => {
                    step_span
                        .field("kind", "deploy")
                        .field("template", spec)
                        .field("node", node.0);
                }
            }
            match step {
                PlanStep::UseDeployed { spec, node, .. } => {
                    let inst = self.source(spec, *node).ok_or_else(|| {
                        PsfError::DeployFailed(format!(
                            "source '{spec}' not running on node {}",
                            node.0
                        ))
                    })?;
                    endpoint = Some(InProcessRemote::switchboard(inst));
                    current_node = Some(*node);
                }
                PlanStep::Move {
                    from,
                    to,
                    secure_path,
                    ..
                } => {
                    if current_node != Some(*from) {
                        return Err(PsfError::DeployFailed(
                            "plan moves an interface from the wrong node".into(),
                        ));
                    }
                    let upstream = endpoint
                        .take()
                        .ok_or_else(|| PsfError::DeployFailed("move before any endpoint".into()))?;
                    let (client_side, server_side) =
                        self.make_channel_pair(*from, *to, *secure_path, tx)?;
                    // Serve the upstream endpoint on the provider side.
                    let served = upstream.clone();
                    server_side.register_default_handler(move |method, args| {
                        served.call_remote(method, args)
                    });
                    let client = Arc::new(client_side);
                    endpoint = Some(client.clone());
                    // Keep both halves alive for the deployment's lifetime.
                    tx.channels.push((client, server_side));
                    current_node = Some(*to);
                }
                PlanStep::Deploy { spec, node, .. } => {
                    if current_node != Some(*node) {
                        return Err(PsfError::DeployFailed(
                            "plan deploys a component away from its input".into(),
                        ));
                    }
                    // Reserve node capacity (released at teardown).
                    if let (Some(net), Some(&cost)) =
                        (&self.network, self.bundle.cpu_costs.get(spec))
                    {
                        if cost > 0 && !net.reserve_cpu(*node, cost) {
                            return Err(PsfError::DeployFailed(format!(
                                "node {} lacks {cost} CPU for '{spec}'",
                                node.0
                            )));
                        }
                        if cost > 0 {
                            tx.reservations.push((*node, cost));
                        }
                    }
                    let (entity, cred) = self.issue_identity(spec, *node);
                    tx.issued_identities.push(entity);
                    tx.issued_credentials.push(cred);

                    if let Some(vspec) = self.bundle.view_specs.get(spec) {
                        // VIG path: generate the view against the
                        // original's class and bind it to the upstream.
                        let original_class =
                            self.bundle.classes.get(&vspec.represents).ok_or_else(|| {
                                PsfError::Unknown(format!(
                                    "no class for represented '{}'",
                                    vspec.represents
                                ))
                            })?;
                        let vig = Vig::new(self.bundle.library.clone());
                        let view = vig
                            .generate(original_class, vspec)
                            .map_err(|e| PsfError::DeployFailed(e.to_string()))?;
                        let upstream = endpoint.clone().ok_or_else(|| {
                            PsfError::DeployFailed("view deployed before source".into())
                        })?;
                        let inst = view
                            .instantiate(Some(upstream), CoherencePolicy::WriteThrough, 8, b"")
                            .map_err(PsfError::DeployFailed)?;
                        endpoint = Some(Arc::new(ViewEndpoint(inst.clone())));
                        tx.placements
                            .push((spec.clone(), *node, Deployed::View(inst)));
                    } else if let Some(factory) = self.bundle.middleware.get(spec) {
                        let upstream = endpoint.clone().ok_or_else(|| {
                            PsfError::DeployFailed("middleware before source".into())
                        })?;
                        let wrapped = factory(upstream);
                        endpoint = Some(wrapped.clone());
                        tx.placements
                            .push((spec.clone(), *node, Deployed::Middleware(wrapped)));
                    } else if let Some(class) = self.bundle.classes.get(spec) {
                        let inst = class.instantiate();
                        endpoint = Some(InProcessRemote::switchboard(inst.clone()));
                        tx.placements
                            .push((spec.clone(), *node, Deployed::Component(inst)));
                    } else {
                        return Err(PsfError::Unknown(format!(
                            "no artifact registered for template '{spec}'"
                        )));
                    }
                }
            }
            psf_telemetry::counter!("psf.deploy.steps").inc();
            psf_telemetry::histogram!("psf.deploy.step.us").record_duration(step_start.elapsed());
        }

        let endpoint = endpoint.ok_or_else(|| PsfError::DeployFailed("empty plan".into()))?;
        if current_node != Some(goal.client_node) {
            return Err(PsfError::DeployFailed(
                "plan does not terminate at the client's node".into(),
            ));
        }
        Ok(endpoint)
    }

    /// Create a (client, server) channel pair for a hop; full Switchboard
    /// with mutual dRBAC authorization when the path is insecure, plain
    /// otherwise.
    fn make_channel_pair(
        &self,
        from: NodeId,
        to: NodeId,
        secure_path: bool,
        tx: &mut TxState,
    ) -> Result<(Channel, Channel), PsfError> {
        if secure_path {
            let (a, b) = pair_in_memory_plain(self.config.clone());
            psf_telemetry::counter!("psf.deploy.channels.plain").inc();
            return Ok((a, b));
        }
        // Issue per-endpoint identities and connect with mutual auth.
        // Recorded on the transaction so teardown/rollback revokes them
        // along with the component credentials.
        let (client_entity, client_cred) = self.issue_identity("conn-client", to);
        let (server_entity, server_cred) = self.issue_identity("conn-server", from);
        tx.issued_identities
            .extend([client_entity.clone(), server_entity.clone()]);
        tx.issued_credentials
            .extend([client_cred.clone(), server_cred.clone()]);
        let role = self.guard.role("Component");
        let make_authorizer = || {
            Authorizer::new(
                self.guard.registry().clone(),
                self.guard.repository().clone(),
                self.guard.bus().clone(),
                self.clock.clone(),
                role.clone(),
            )
        };
        let client_suite = AuthSuite::new(
            client_entity.clone(),
            vec![client_cred.clone()],
            make_authorizer(),
        );
        let server_suite = AuthSuite::new(
            server_entity.clone(),
            vec![server_cred.clone()],
            make_authorizer(),
        );
        let (a, b) = pair_in_memory(client_suite, server_suite, self.config.clone())
            .map_err(|e| PsfError::DeployFailed(format!("channel handshake: {e}")))?;
        psf_telemetry::counter!("psf.deploy.channels.secure").inc();
        Ok((a, b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{ComponentSpec, Effect, Goal};
    use crate::oracle::PermissiveOracle;
    use crate::planner::{Planner, PlannerConfig};
    use crate::registrar::Registrar;
    use psf_drbac::entity::EntityRegistry;
    use psf_drbac::repository::Repository;
    use psf_drbac::revocation::RevocationBus;
    use psf_netsim::three_site_scenario;
    use psf_views::ExposureType;

    fn counter_class() -> Arc<ComponentClass> {
        ComponentClass::builder("KvStore")
            .interface("KvI", ["put", "get"])
            .field("data", "Map")
            .method("put", "void put(kv)", &["data"], true, |st, args| {
                let kv = String::from_utf8_lossy(args).to_string();
                let mut data = st.get_str("data");
                data.push_str(&kv);
                data.push('\n');
                st.set("data", data);
                Ok(vec![])
            })
            .method("get", "String get()", &["data"], false, |st, _| {
                Ok(st.get("data"))
            })
            .build()
            .unwrap()
    }

    fn test_guard() -> Arc<Guard> {
        Arc::new(Guard::new(
            Entity::with_seed("Deploy.Domain", b"dep"),
            EntityRegistry::new(),
            Repository::new(),
            RevocationBus::new(),
        ))
    }

    #[test]
    fn deploy_simple_plan_end_to_end() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);

        let bundle = AppBundle::new().class("KvStore", counter_class()).view(
            "KvView",
            ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
        );
        let deployer = Deployer::new(test_guard(), ClockRef::new(), bundle);
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        // Low-latency demand in SD forces the view cache there.
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let deployment = deployer.execute(&plan, &goal).unwrap();

        // The client endpoint works: write through the view, read back.
        deployment.endpoint.call_remote("put", b"k=v").unwrap();
        let got = deployment.endpoint.call_remote("get", b"").unwrap();
        assert_eq!(got, b"k=v\n");

        // The write propagated to the original KvStore in NY (coherence).
        let origin = deployer.source("KvStore", s.ny[0]).unwrap();
        assert_eq!(origin.field("data"), b"k=v\n");

        // Credentials were issued to the instantiated artifacts.
        assert!(!deployment.issued_credentials.is_empty());
        // A cross-node hop exists.
        assert!(deployment.channel_count() >= 1);
    }

    /// CPU available on every node, for leak accounting across attempts.
    fn cpu_snapshot(net: &Network) -> Vec<u32> {
        net.node_ids()
            .into_iter()
            .map(|id| net.node(id).unwrap().cpu_available())
            .collect()
    }

    #[test]
    fn injected_fault_rolls_back_then_retry_succeeds() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);

        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 5);
        let guard = test_guard();
        let deployer =
            Deployer::new(guard.clone(), ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        assert!(plan.steps.len() >= 2, "need a multi-step plan to fault");

        let before = cpu_snapshot(&s.network);
        // Fail the last step of the first attempt: everything acquired by
        // the earlier steps must be rolled back before the retry.
        deployer.set_fault_plan(Some(DeployFaultPlan::fail_at(1, plan.steps.len() - 1)));
        let deployment = deployer.execute(&plan, &goal).unwrap();

        let report = deployer.last_rollback().expect("a rollback happened");
        assert_eq!(report.attempt, 1);
        assert_eq!(report.failed_step, plan.steps.len() - 1);
        for id in &report.revoked_credential_ids {
            assert!(guard.bus().is_revoked(id), "rollback revokes {id}");
        }
        // The successful attempt's credentials are NOT revoked.
        for cred in &deployment.issued_credentials {
            assert!(!guard.bus().is_revoked(&cred.id()));
        }
        // The endpoint works after recovery.
        deployment.endpoint.call_remote("put", b"k=v").unwrap();

        // Teardown returns the network exactly to its pre-deploy state.
        deployment.teardown(Some(&s.network), &guard);
        assert_eq!(cpu_snapshot(&s.network), before, "no leaked reservations");
    }

    #[test]
    fn exhausted_retries_fail_with_no_leaks() {
        let s = three_site_scenario(2);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(
            ComponentSpec::processor("KvView", "KvI", "KvI", Effect::Cache)
                .view_of("KvStore")
                .cpu(5),
        );
        registrar.record_deployed("KvStore", s.ny[0]);
        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .view(
                "KvView",
                ViewSpec::new("KvView", "KvStore").restrict("KvI", ExposureType::Local),
            )
            .cpu_cost("KvView", 5);
        let guard = test_guard();
        let deployer =
            Deployer::new(guard.clone(), ClockRef::new(), bundle).with_network(s.network.clone());
        deployer.start_source("KvStore", s.ny[0]).unwrap();
        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "KvI".into(),
            client_node: s.sd[0],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let last = plan.steps.len() - 1;

        let before = cpu_snapshot(&s.network);
        // Fault every attempt: execution must give up after max_attempts,
        // leaving zero residue.
        deployer.set_fault_plan(Some(
            DeployFaultPlan::fail_at(1, last)
                .and_fail_at(2, last)
                .and_fail_at(3, last),
        ));
        deployer.set_retry_policy(RetryPolicy {
            base_backoff: Duration::from_micros(100),
            ..RetryPolicy::default()
        });
        let err = match deployer.execute(&plan, &goal) {
            Err(e) => e,
            Ok(_) => panic!("all attempts faulted — execute must fail"),
        };
        assert!(matches!(err, PsfError::DeployFailed(_)));
        assert_eq!(deployer.last_rollback().unwrap().attempt, 3);
        assert_eq!(cpu_snapshot(&s.network), before, "no leaked reservations");
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_bounded() {
        let a = DeployFaultPlan::seeded(42, 100, 2);
        let b = DeployFaultPlan::seeded(42, 100, 2);
        for attempt in 1..4u32 {
            for step in 0..5usize {
                assert_eq!(
                    a.should_fail(attempt, step, 0),
                    b.should_fail(attempt, step, 0),
                    "same seed, same verdict"
                );
            }
        }
        // At 100% probability every step fails — until the cap is hit.
        assert!(a.should_fail(1, 0, 0));
        assert!(a.should_fail(1, 0, 1));
        assert!(!a.should_fail(1, 0, 2), "max_faults caps random faults");
    }

    #[test]
    fn backoff_is_deterministic_exponential_and_capped() {
        let p = RetryPolicy::default();
        assert_eq!(p.backoff_for(1), p.backoff_for(1), "deterministic");
        assert!(p.backoff_for(1) >= p.base_backoff);
        // Jitter adds at most +50% to the exponential base.
        assert!(p.backoff_for(2) <= Duration::from_millis(3));
        for attempt in 1..20u32 {
            assert!(p.backoff_for(attempt) <= p.max_backoff, "capped");
        }
        let other = RetryPolicy {
            jitter_seed: 0xfeed,
            ..RetryPolicy::default()
        };
        // Different seeds de-synchronize retry storms (usually differ).
        let differs = (1..8u32).any(|a| p.backoff_for(a) != other.backoff_for(a));
        assert!(differs);
    }

    #[test]
    fn deploy_fails_for_unknown_template() {
        let s = three_site_scenario(1);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("Ghost", "GhostI"));
        registrar.record_deployed("Ghost", s.ny[0]);
        let deployer = Deployer::new(test_guard(), ClockRef::new(), AppBundle::new());
        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "GhostI".into(),
            client_node: s.ny[0],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        assert!(deployer.execute(&plan, &goal).is_err());
    }

    #[test]
    fn middleware_is_wired_into_the_endpoint_chain() {
        let s = three_site_scenario(1);
        let registrar = Registrar::new();
        registrar.register(ComponentSpec::source("KvStore", "KvI"));
        registrar.register(ComponentSpec::processor(
            "Shouter",
            "KvI",
            "LoudKvI",
            Effect::Identity,
        ));
        registrar.record_deployed("KvStore", s.ny[0]);

        struct Upper(Arc<dyn RemoteCall>);
        impl RemoteCall for Upper {
            fn call_remote(&self, m: &str, a: &[u8]) -> Result<Vec<u8>, String> {
                let out = self.0.call_remote(m, a)?;
                Ok(out.to_ascii_uppercase())
            }
            fn transport_label(&self) -> &'static str {
                "middleware"
            }
        }
        let bundle = AppBundle::new()
            .class("KvStore", counter_class())
            .middleware_factory("Shouter", Arc::new(|up| Arc::new(Upper(up))));
        let deployer = Deployer::new(test_guard(), ClockRef::new(), bundle);
        deployer.start_source("KvStore", s.ny[0]).unwrap();

        let planner = Planner::new(
            &registrar,
            &s.network,
            &PermissiveOracle,
            PlannerConfig::default(),
        );
        let goal = Goal {
            iface: "LoudKvI".into(),
            client_node: s.ny[0],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let deployment = deployer.execute(&plan, &goal).unwrap();
        deployment
            .endpoint
            .call_remote("put", b"hello=world")
            .unwrap();
        let got = deployment.endpoint.call_remote("get", b"").unwrap();
        assert_eq!(got, b"HELLO=WORLD\n");
    }
}
