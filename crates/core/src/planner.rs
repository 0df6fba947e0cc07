//! The planning module — a Sekitei-style planner (paper §2.1; Kichkaylo,
//! Ivan & Karamcheti, IPDPS'03) that "combines regression and progression
//! techniques from classical AI planning to cope with general constraints
//! and network scale concerns".
//!
//! * **Regression**: before searching, the planner computes the backward
//!   closure of interface types relevant to the goal and prunes every
//!   component (and every state) that cannot contribute.
//! * **Progression**: a Dijkstra search over interface states
//!   `(type, node, properties)` whose operators are *link traversal*
//!   (consume an interface across a routed path, degrading properties)
//!   and *component deployment* (transform properties at a node), subject
//!   to node CPU capacity and the dRBAC [`AuthOracle`].
//! * **Parallelism**: `parallel_expansion = K` pops up to K frontier
//!   states per round and expands them on `std::thread::scope` workers
//!   (K-best-first search; with K > 1 the returned plan may be up to one
//!   expansion round from optimal, which the benches account for).
//!   Results are merged in batch order, so plans are reproducible for a
//!   fixed input regardless of thread scheduling.
//! * **Memoization**: search states share their step history through a
//!   persistent `Arc` cons-list and their CPU reservations through an
//!   `Arc`-shared map (copy-on-write only on deployment), so generating a
//!   successor no longer deep-clones the whole plan prefix. A dominance
//!   memo over quantized state keys prunes dominated successors at push
//!   time *and* stale queue entries at pop time (`psf.planner.memo.*`).
//! * **Authorization memo**: within one plan the oracle is asked at most
//!   once per (template, node) pair; the expansion workers share the
//!   answers. A rejection still counts in `pruned_by_auth` every time a
//!   state meets it, so the statistics do not depend on the memo.

use crate::model::{ComponentSpec, Goal, IfaceProps};
use crate::oracle::AuthOracle;
use crate::registrar::Registrar;
use crate::PsfError;
use psf_netsim::{Network, NodeId};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// One step of a deployment plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanStep {
    /// Start from an already-running component instance.
    UseDeployed {
        /// Template name.
        spec: String,
        /// Hosting node.
        node: NodeId,
        /// The interface it provides.
        iface: String,
    },
    /// Consume an interface across the network.
    Move {
        /// Interface type.
        iface: String,
        /// Providing node.
        from: NodeId,
        /// Consuming node.
        to: NodeId,
        /// Path latency (ms).
        latency_ms: f64,
        /// Whether every link on the path was secure.
        secure_path: bool,
    },
    /// Deploy a new component instance.
    Deploy {
        /// Template name.
        spec: String,
        /// Target node.
        node: NodeId,
        /// Interface consumed (None for sources).
        iface_in: Option<String>,
        /// Interface produced.
        iface_out: String,
    },
}

/// A complete plan: "the output of the planner is a sequence of component
/// deployments".
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Ordered steps.
    pub steps: Vec<PlanStep>,
    /// The interface properties delivered at the client.
    pub delivered: IfaceProps,
    /// Search cost of the plan (latency + deployment penalties).
    pub cost: f64,
}

impl Plan {
    /// Number of new component deployments in the plan.
    pub fn deployments(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, PlanStep::Deploy { .. }))
            .count()
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            let line = match s {
                PlanStep::UseDeployed { spec, node, iface } => {
                    format!("use {spec} on node {} providing {iface}", node.0)
                }
                PlanStep::Move {
                    iface,
                    from,
                    to,
                    latency_ms,
                    secure_path,
                } => format!(
                    "carry {iface} from node {} to node {} ({latency_ms:.1} ms, {})",
                    from.0,
                    to.0,
                    if *secure_path { "secure" } else { "INSECURE" }
                ),
                PlanStep::Deploy {
                    spec,
                    node,
                    iface_in,
                    iface_out,
                } => format!(
                    "deploy {spec} on node {} ({} -> {iface_out})",
                    node.0,
                    iface_in.as_deref().unwrap_or("-")
                ),
            };
            out.push_str(&format!("  {}. {line}\n", i + 1));
        }
        out.push_str(&format!(
            "  => delivered: latency {:.1} ms, encrypted={}, exposed={}\n",
            self.delivered.latency_ms, self.delivered.encrypted, self.delivered.plaintext_exposed
        ));
        out
    }
}

/// Planner tuning knobs.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Per-deployment fixed cost added to the search metric.
    pub deploy_penalty: f64,
    /// Extra cost per CPU unit consumed.
    pub cpu_penalty: f64,
    /// States popped and expanded concurrently per round (1 = classic
    /// Dijkstra).
    pub parallel_expansion: usize,
    /// Hard cap on expanded states (guards pathological searches).
    pub max_expansions: usize,
    /// Ablation: disable the regression relevance analysis (every
    /// registered component participates in the search).
    pub disable_regression: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            deploy_penalty: 10.0,
            cpu_penalty: 0.2,
            parallel_expansion: 1,
            max_expansions: 200_000,
            disable_regression: false,
        }
    }
}

/// Search statistics (experiment F6).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PlannerStats {
    /// States expanded.
    pub expanded: u64,
    /// Successor states generated.
    pub generated: u64,
    /// Deployments rejected by the authorization oracle.
    pub pruned_by_auth: u64,
    /// Components skipped by regression relevance analysis.
    pub pruned_irrelevant: u64,
    /// Successors dropped by the dominance memo before entering the
    /// queue (push-time) or when popped stale (pop-time).
    pub memo_pruned: u64,
}

/// The planning module.
pub struct Planner<'a> {
    registrar: &'a Registrar,
    network: &'a Network,
    oracle: &'a dyn AuthOracle,
    config: PlannerConfig,
}

/// Persistent (shared-tail) list of plan steps: every successor state
/// extends its parent's history with one `Arc` cell instead of cloning the
/// whole prefix. Materialized into a `Vec` only for the winning state.
struct StepList {
    step: PlanStep,
    prev: Option<Arc<StepList>>,
}

impl StepList {
    fn push(prev: &Option<Arc<StepList>>, step: PlanStep) -> Option<Arc<StepList>> {
        Some(Arc::new(StepList {
            step,
            prev: prev.clone(),
        }))
    }

    fn materialize(list: &Option<Arc<StepList>>) -> Vec<PlanStep> {
        let mut out = Vec::new();
        let mut cur = list;
        while let Some(cell) = cur {
            out.push(cell.step.clone());
            cur = &cell.prev;
        }
        out.reverse();
        out
    }
}

#[derive(Clone)]
struct State {
    iface: String,
    node: NodeId,
    props: IfaceProps,
    cost: f64,
    steps: Option<Arc<StepList>>,
    /// CPU reserved by this plan per node; `Arc`-shared across successors
    /// and copied only when a deployment actually changes it.
    cpu_used: Arc<HashMap<NodeId, u32>>,
}

/// Quantized state identity for the dominance memo.
type MemoKey = (String, NodeId, bool, bool);

/// One point on a memo key's Pareto frontier. An entry dominates a
/// candidate state only when it is no worse on *all three* axes — cost,
/// delivered latency, and per-node CPU reservations (pointwise). The CPU
/// axis matters: a cheaper state that has exhausted a node the candidate
/// still needs cannot stand in for it.
struct ParetoEntry {
    cost: f64,
    latency: f64,
    cpu: Arc<HashMap<NodeId, u32>>,
}

/// `a <= b` pointwise over per-node CPU reservations (missing = 0).
fn cpu_leq(a: &HashMap<NodeId, u32>, b: &HashMap<NodeId, u32>) -> bool {
    a.iter().all(|(n, c)| *c <= b.get(n).copied().unwrap_or(0))
}

impl ParetoEntry {
    fn dominates(&self, s: &State) -> bool {
        self.cost <= s.cost && self.latency <= s.props.latency_ms && cpu_leq(&self.cpu, &s.cpu_used)
    }

    fn dominated_by(&self, s: &State) -> bool {
        s.cost <= self.cost && s.props.latency_ms <= self.latency && cpu_leq(&s.cpu_used, &self.cpu)
    }

    fn of(s: &State) -> ParetoEntry {
        ParetoEntry {
            cost: s.cost,
            latency: s.props.latency_ms,
            cpu: s.cpu_used.clone(),
        }
    }
}

impl State {
    fn memo_key(&self) -> MemoKey {
        (
            self.iface.clone(),
            self.node,
            self.props.encrypted,
            self.props.plaintext_exposed,
        )
    }
}

/// The oracle's answers for one plan, one cell per (template index,
/// node) pair. A cell is filled by the first expansion that needs it;
/// concurrent workers wait on the cell instead of asking again.
struct AuthMemo<'o> {
    oracle: &'o dyn AuthOracle,
    cells: HashMap<(usize, NodeId), OnceLock<bool>>,
}

impl<'o> AuthMemo<'o> {
    fn new(oracle: &'o dyn AuthOracle, specs: usize, nodes: &[NodeId]) -> AuthMemo<'o> {
        let cells = (0..specs)
            .flat_map(|i| nodes.iter().map(move |&n| ((i, n), OnceLock::new())))
            .collect();
        AuthMemo { oracle, cells }
    }

    /// May template `index` (`spec`) run on `node`: node and component
    /// authorization, in that order, as the oracle answered them first.
    fn authorized(&self, index: usize, spec: &ComponentSpec, node: NodeId) -> bool {
        let ask = || {
            self.oracle.node_authorized(spec, node) && self.oracle.component_authorized(spec, node)
        };
        match self.cells.get(&(index, node)) {
            Some(cell) => *cell.get_or_init(ask),
            None => ask(),
        }
    }
}

/// Priority-queue wrapper (min-heap by cost).
struct QueueEntry(State);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        self.0.cost == other.0.cost
    }
}
impl Eq for QueueEntry {}
impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .cost
            .partial_cmp(&self.0.cost)
            .unwrap_or(std::cmp::Ordering::Equal)
    }
}

impl<'a> Planner<'a> {
    /// Create a planner over the registrar, network, and oracle.
    pub fn new(
        registrar: &'a Registrar,
        network: &'a Network,
        oracle: &'a dyn AuthOracle,
        config: PlannerConfig,
    ) -> Planner<'a> {
        Planner {
            registrar,
            network,
            oracle,
            config,
        }
    }

    /// Regression pass: interface types that can contribute to the goal.
    /// With `disable_regression` (ablation) every interface type any
    /// component touches is considered relevant.
    fn relevant_types(&self, goal: &Goal) -> HashSet<String> {
        let specs = self.registrar.specs();
        let mut relevant: HashSet<String> = HashSet::new();
        relevant.insert(goal.iface.clone());
        if self.config.disable_regression {
            for spec in &specs {
                if let Some(r) = &spec.requires {
                    relevant.insert(r.clone());
                }
                for p in &spec.provides {
                    relevant.insert(p.iface.clone());
                }
            }
            return relevant;
        }
        loop {
            let mut grew = false;
            for spec in &specs {
                if spec.provides.iter().any(|p| relevant.contains(&p.iface)) {
                    if let Some(req) = &spec.requires {
                        grew |= relevant.insert(req.clone());
                    }
                }
            }
            if !grew {
                return relevant;
            }
        }
    }

    /// Find a plan for `goal`.
    pub fn plan(&self, goal: &Goal) -> Result<(Plan, PlannerStats), PsfError> {
        let plan_start = std::time::Instant::now();
        let mut plan_span = psf_telemetry::span("psf.planner", "plan");
        plan_span
            .field("goal_iface", &goal.iface)
            .field("client_node", goal.client_node.0);
        psf_telemetry::counter!("psf.planner.plans").inc();
        let mut stats = PlannerStats::default();
        let result = self.plan_search(goal, &mut stats);
        psf_telemetry::counter!("psf.planner.expanded").add(stats.expanded);
        psf_telemetry::counter!("psf.planner.generated").add(stats.generated);
        psf_telemetry::counter!("psf.planner.pruned_by_auth").add(stats.pruned_by_auth);
        psf_telemetry::counter!("psf.planner.pruned_irrelevant").add(stats.pruned_irrelevant);
        psf_telemetry::histogram!("psf.planner.plan.us").record_duration(plan_start.elapsed());
        plan_span
            .field("expanded", stats.expanded)
            .field("generated", stats.generated)
            .field("ok", result.is_ok());
        match result {
            Ok(plan) => {
                plan_span
                    .field("steps", plan.steps.len())
                    .field("deployments", plan.deployments());
                Ok((plan, stats))
            }
            Err(e) => {
                psf_telemetry::counter!("psf.planner.failures").inc();
                Err(e)
            }
        }
    }

    fn plan_search(&self, goal: &Goal, stats: &mut PlannerStats) -> Result<Plan, PsfError> {
        if !self.network.node_is_up(goal.client_node) {
            return Err(PsfError::NoPlan(format!(
                "client node {} is down",
                goal.client_node.0
            )));
        }
        let relevant = self.relevant_types(goal);
        let specs: Vec<ComponentSpec> = {
            let all = self.registrar.specs();
            let total = all.len();
            let kept: Vec<ComponentSpec> = all
                .into_iter()
                .filter(|s| s.provides.iter().any(|p| relevant.contains(&p.iface)))
                .collect();
            stats.pruned_irrelevant += (total - kept.len()) as u64;
            kept
        };

        // Initial frontier: already-running instances.
        let mut heap: BinaryHeap<QueueEntry> = BinaryHeap::new();
        for (name, node) in self.registrar.deployed() {
            // A source on a failed node is dead: it cannot seed a plan.
            if !self.network.node_is_up(node) {
                continue;
            }
            let Some(spec) = self.registrar.spec(&name) else {
                continue;
            };
            for provided in &spec.provides {
                if !relevant.contains(&provided.iface) {
                    continue;
                }
                let Some(props) = provided.effect.apply(None) else {
                    continue;
                };
                heap.push(QueueEntry(State {
                    iface: provided.iface.clone(),
                    node,
                    props,
                    cost: 0.0,
                    steps: StepList::push(
                        &None,
                        PlanStep::UseDeployed {
                            spec: name.clone(),
                            node,
                            iface: provided.iface.clone(),
                        },
                    ),
                    cpu_used: Arc::new(HashMap::new()),
                }));
            }
        }
        if heap.is_empty() {
            return Err(PsfError::NoPlan(
                "no running component provides a relevant interface".into(),
            ));
        }

        // Pareto frontier of (cost, latency, cpu) per quantized state key.
        let mut best: HashMap<MemoKey, Vec<ParetoEntry>> = HashMap::new();
        // Failed nodes are not deployment targets.
        let nodes: Vec<NodeId> = self
            .network
            .node_ids()
            .into_iter()
            .filter(|&n| self.network.node_is_up(n))
            .collect();
        let auth = AuthMemo::new(self.oracle, specs.len(), &nodes);

        while !heap.is_empty() {
            if stats.expanded as usize > self.config.max_expansions {
                // Running out of budget is not proof of unsatisfiability.
                return Err(PsfError::PlannerInternal(
                    "expansion budget exhausted".into(),
                ));
            }
            // Pop up to K states.
            let k = self.config.parallel_expansion.max(1);
            let mut batch = Vec::with_capacity(k);
            while batch.len() < k {
                match heap.pop() {
                    Some(QueueEntry(s)) => batch.push(s),
                    None => break,
                }
            }
            // Goal check at pop time (checked in batch order = cost order).
            for s in &batch {
                if s.node == goal.client_node
                    && s.iface == goal.iface
                    && goal.satisfied_by(&s.props)
                {
                    psf_telemetry::gauge!("psf.planner.memo.entries")
                        .set(best.values().map(Vec::len).sum::<usize>() as i64);
                    return Ok(Plan {
                        steps: StepList::materialize(&s.steps),
                        delivered: s.props.clone(),
                        cost: s.cost,
                    });
                }
            }
            // Dominance filter (pop-time): drop queue entries that went
            // stale while waiting — a cheaper path to the same quantized
            // key was expanded since they were pushed.
            let before = batch.len();
            let batch: Vec<State> = batch
                .into_iter()
                .filter(|s| {
                    let frontier = best.entry(s.memo_key()).or_default();
                    if frontier.iter().any(|e| e.dominates(s)) {
                        false
                    } else {
                        frontier.retain(|e| !e.dominated_by(s));
                        frontier.push(ParetoEntry::of(s));
                        true
                    }
                })
                .collect();
            let pop_pruned = (before - batch.len()) as u64;
            stats.memo_pruned += pop_pruned;
            psf_telemetry::counter!("psf.planner.memo.pruned_pop").add(pop_pruned);
            if batch.is_empty() {
                continue;
            }
            stats.expanded += batch.len() as u64;

            // Expand (in parallel when configured). Workers only *read*
            // the dominance memo (`best` is updated between rounds), and
            // results are joined in batch order — the merge is
            // deterministic for any thread interleaving.
            let specs_ref: &[ComponentSpec] = &specs;
            let nodes_ref: &[NodeId] = &nodes;
            let relevant_ref = &relevant;
            let auth_ref = &auth;
            let successors: Vec<(Vec<State>, u64)> = if batch.len() == 1 {
                vec![self.expand(&batch[0], specs_ref, nodes_ref, relevant_ref, auth_ref)]
            } else {
                // Carry the ambient trace context onto the scoped workers:
                // spans opened inside `expand` (proof searches via the
                // authorization oracle) must join the planner's tree, not
                // start orphan roots on each worker thread.
                let trace_ctx = psf_telemetry::TraceContext::current();
                std::thread::scope(|scope| {
                    let handles: Vec<_> = batch
                        .iter()
                        .map(|s| {
                            scope.spawn(move || {
                                let _trace = trace_ctx.map(psf_telemetry::TraceContext::attach);
                                self.expand(s, specs_ref, nodes_ref, relevant_ref, auth_ref)
                            })
                        })
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("planner expansion thread"))
                        .collect()
                })
            };
            for (succs, auth_pruned) in successors {
                stats.pruned_by_auth += auth_pruned;
                for s in succs {
                    stats.generated += 1;
                    // Push-time dominance memo: never enqueue a successor
                    // already dominated by an expanded state.
                    if let Some(frontier) = best.get(&s.memo_key()) {
                        if frontier.iter().any(|e| e.dominates(&s)) {
                            stats.memo_pruned += 1;
                            psf_telemetry::counter!("psf.planner.memo.pruned_push").inc();
                            continue;
                        }
                    }
                    heap.push(QueueEntry(s));
                }
            }
        }
        psf_telemetry::gauge!("psf.planner.memo.entries")
            .set(best.values().map(Vec::len).sum::<usize>() as i64);
        Err(PsfError::NoPlan(format!(
            "search exhausted after {} expansions",
            stats.expanded
        )))
    }

    fn expand(
        &self,
        s: &State,
        specs: &[ComponentSpec],
        nodes: &[NodeId],
        relevant: &HashSet<String>,
        auth: &AuthMemo<'_>,
    ) -> (Vec<State>, u64) {
        let mut out = Vec::new();
        let mut auth_pruned = 0u64;

        // Operator 1: link traversal to every other node.
        for &m in nodes {
            if m == s.node {
                continue;
            }
            if let Some(path) = self.network.route(s.node, m) {
                let props = s.props.across(&path);
                let steps = StepList::push(
                    &s.steps,
                    PlanStep::Move {
                        iface: s.iface.clone(),
                        from: s.node,
                        to: m,
                        latency_ms: path.latency_ms,
                        secure_path: path.all_secure,
                    },
                );
                out.push(State {
                    iface: s.iface.clone(),
                    node: m,
                    props: props.clone(),
                    cost: s.cost + path.latency_ms,
                    steps,
                    cpu_used: s.cpu_used.clone(),
                });
            }
        }

        // Operator 2: deploy a component at the current node.
        for (index, spec) in specs.iter().enumerate() {
            let Some(req) = &spec.requires else {
                continue; // sources only enter via the registrar
            };
            if *req != s.iface {
                continue;
            }
            if let Some(need_enc) = spec.requires_encrypted {
                if s.props.encrypted != need_enc {
                    continue;
                }
            }
            // Capacity: node CPU minus what this plan already reserved.
            let already = *s.cpu_used.get(&s.node).unwrap_or(&0);
            let available = self
                .network
                .node(s.node)
                .map(|n| n.cpu_available())
                .unwrap_or(0);
            if available < already + spec.cpu_cost {
                continue;
            }
            // Authorization constraints (dRBAC), asked once per plan.
            if !auth.authorized(index, spec, s.node) {
                auth_pruned += 1;
                continue;
            }
            for provided in &spec.provides {
                if !relevant.contains(&provided.iface) {
                    continue;
                }
                let Some(props) = provided.effect.apply(Some(&s.props)) else {
                    continue;
                };
                let steps = StepList::push(
                    &s.steps,
                    PlanStep::Deploy {
                        spec: spec.name.clone(),
                        node: s.node,
                        iface_in: Some(s.iface.clone()),
                        iface_out: provided.iface.clone(),
                    },
                );
                // Copy-on-write: only deployments touch the reservation map.
                let mut cpu_used = (*s.cpu_used).clone();
                *cpu_used.entry(s.node).or_insert(0) += spec.cpu_cost;
                out.push(State {
                    iface: provided.iface.clone(),
                    node: s.node,
                    props,
                    cost: s.cost
                        + self.config.deploy_penalty
                        + self.config.cpu_penalty * spec.cpu_cost as f64,
                    steps,
                    cpu_used: Arc::new(cpu_used),
                });
            }
        }
        (out, auth_pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Effect;
    use crate::oracle::PermissiveOracle;
    use psf_netsim::three_site_scenario;

    fn mail_registrar() -> Registrar {
        let r = Registrar::new();
        r.register(ComponentSpec::source("MailServer", "MailI"));
        r.register(
            ComponentSpec::processor("Encryptor", "MailI", "MailI", Effect::Encrypt)
                .requires_encrypted(false)
                .cpu(10),
        );
        r.register(
            ComponentSpec::processor("Decryptor", "MailI", "MailI", Effect::Decrypt)
                .requires_encrypted(true)
                .cpu(10),
        );
        r.register(
            ComponentSpec::processor("ViewMailServer", "MailI", "MailI", Effect::Cache)
                .cpu(20)
                .view_of("MailServer"),
        );
        r
    }

    #[test]
    fn local_client_needs_nothing_extra() {
        let s = three_site_scenario(2);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        // Client in NY on another LAN node: secure path, no deployments.
        let goal = Goal::private("MailI", s.ny[1]);
        let (plan, _) = planner.plan(&goal).unwrap();
        assert_eq!(plan.deployments(), 0);
        assert!(!plan.delivered.plaintext_exposed);
    }

    #[test]
    fn insecure_wan_forces_encryptor_decryptor_pair() {
        let s = three_site_scenario(2);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        let goal = Goal::private("MailI", s.sd[1]);
        let (plan, _) = planner.plan(&goal).unwrap();
        // Privacy across the insecure WAN requires the pair.
        let deploys: Vec<&str> = plan
            .steps
            .iter()
            .filter_map(|st| match st {
                PlanStep::Deploy { spec, .. } => Some(spec.as_str()),
                _ => None,
            })
            .collect();
        assert!(deploys.contains(&"Encryptor"), "plan: {}", plan.render());
        assert!(deploys.contains(&"Decryptor"), "plan: {}", plan.render());
        assert!(!plan.delivered.plaintext_exposed);
        assert!(!plan.delivered.encrypted);
    }

    #[test]
    fn without_privacy_no_pair_is_cheaper() {
        let s = three_site_scenario(2);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        let goal = Goal {
            require_privacy: false,
            ..Goal::private("MailI", s.sd[1])
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        assert_eq!(plan.deployments(), 0, "plan: {}", plan.render());
    }

    #[test]
    fn latency_bound_forces_cache_deployment() {
        let s = three_site_scenario(2);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        // WAN latency is ~40 ms; demand < 10 ms at SD without privacy.
        let goal = Goal {
            iface: "MailI".into(),
            client_node: s.sd[1],
            max_latency_ms: Some(10.0),
            require_privacy: false,
            require_plaintext_delivery: true,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        let deploys: Vec<&str> = plan
            .steps
            .iter()
            .filter_map(|st| match st {
                PlanStep::Deploy { spec, .. } => Some(spec.as_str()),
                _ => None,
            })
            .collect();
        assert!(
            deploys.contains(&"ViewMailServer"),
            "expected cache: {}",
            plan.render()
        );
        assert!(plan.delivered.latency_ms <= 10.0);
    }

    #[test]
    fn impossible_goal_fails() {
        let s = three_site_scenario(1);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        // Privacy + sub-ms latency at SD with caches that would expose
        // plaintext… cache after decryptor can satisfy it; so instead ask
        // for an interface nobody provides.
        let goal = Goal::private("CalendarI", s.sd[0]);
        assert!(planner.plan(&goal).is_err());
    }

    #[test]
    fn regression_prunes_irrelevant_components() {
        let s = three_site_scenario(1);
        let r = mail_registrar();
        // Unrelated component family.
        r.register(ComponentSpec::source("VideoServer", "VideoI"));
        r.register(ComponentSpec::processor(
            "Transcoder",
            "VideoI",
            "VideoLoI",
            Effect::Identity,
        ));
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        let (_, stats) = planner.plan(&Goal::private("MailI", s.ny[0])).unwrap();
        assert!(stats.pruned_irrelevant >= 2);
    }

    #[test]
    fn parallel_expansion_finds_valid_plans() {
        let s = three_site_scenario(3);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        for k in [1usize, 2, 4, 8] {
            let cfg = PlannerConfig {
                parallel_expansion: k,
                ..Default::default()
            };
            let planner = Planner::new(&r, &s.network, &PermissiveOracle, cfg);
            let goal = Goal::private("MailI", s.se[2]);
            let (plan, _) = planner.plan(&goal).unwrap();
            assert!(!plan.delivered.plaintext_exposed, "k={k}");
            assert!(!plan.delivered.encrypted, "k={k}");
        }
    }

    #[test]
    fn cpu_exhaustion_blocks_deployment() {
        let s = three_site_scenario(1);
        let r = Registrar::new();
        r.register(ComponentSpec::source("MailServer", "MailI"));
        r.register(ComponentSpec::processor("Hog", "MailI", "HogI", Effect::Identity).cpu(90));
        r.register(ComponentSpec::processor("Hog2", "HogI", "GoalI", Effect::Identity).cpu(90));
        r.record_deployed("MailServer", s.ny[0]);
        let planner = Planner::new(&r, &s.network, &PermissiveOracle, PlannerConfig::default());
        // Two 90-CPU components cannot fit one 100-CPU node; but they can
        // split across NY and SD (insecure link though, no privacy req).
        let goal = Goal {
            iface: "GoalI".into(),
            client_node: s.ny[0],
            max_latency_ms: None,
            require_privacy: false,
            require_plaintext_delivery: false,
        };
        let (plan, _) = planner.plan(&goal).unwrap();
        // The two deployments must land on different nodes.
        let nodes: Vec<NodeId> = plan
            .steps
            .iter()
            .filter_map(|st| match st {
                PlanStep::Deploy { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(nodes.len(), 2);
        assert_ne!(nodes[0], nodes[1], "plan: {}", plan.render());
    }

    /// Counts every question per (template, node, which check) and
    /// denies component authorization for one (template, node) pair.
    struct CountingOracle {
        asked: parking_lot::Mutex<HashMap<(String, NodeId, bool), u32>>,
        deny: (&'static str, NodeId),
    }

    impl CountingOracle {
        fn ask(&self, c: &ComponentSpec, n: NodeId, component: bool) {
            *self
                .asked
                .lock()
                .entry((c.name.clone(), n, component))
                .or_default() += 1;
        }
    }

    impl AuthOracle for CountingOracle {
        fn node_authorized(&self, c: &ComponentSpec, n: NodeId) -> bool {
            self.ask(c, n, false);
            true
        }
        fn component_authorized(&self, c: &ComponentSpec, n: NodeId) -> bool {
            self.ask(c, n, true);
            (c.name.as_str(), n) != self.deny
        }
    }

    #[test]
    fn oracle_is_asked_once_per_template_and_node_per_plan() {
        let s = three_site_scenario(3);
        let r = mail_registrar();
        r.record_deployed("MailServer", s.ny[0]);
        let goal = Goal::private("MailI", s.se[2]);
        for k in [1usize, 4] {
            let oracle = CountingOracle {
                asked: parking_lot::Mutex::new(HashMap::new()),
                deny: ("Decryptor", s.se[2]),
            };
            let cfg = PlannerConfig {
                parallel_expansion: k,
                ..Default::default()
            };
            let (plan, stats) = Planner::new(&r, &s.network, &oracle, cfg.clone())
                .plan(&goal)
                .unwrap();
            let asked = oracle.asked.lock();
            assert!(!asked.is_empty(), "k={k}");
            for (pair, n) in asked.iter() {
                assert_eq!(*n, 1, "k={k}: {pair:?} asked {n} times");
            }
            // The denied pair was asked once, yet every state that met it
            // counts as pruned.
            assert_eq!(asked.get(&("Decryptor".into(), s.se[2], true)), Some(&1));
            assert!(stats.pruned_by_auth >= 1, "k={k}");
            assert!(!plan.steps.iter().any(|st| matches!(
                st,
                PlanStep::Deploy { spec, node, .. } if spec == "Decryptor" && *node == s.se[2]
            )));
            drop(asked);
            // A second plan asks again: the memo lives for one plan.
            let (again, again_stats) = Planner::new(&r, &s.network, &oracle, cfg)
                .plan(&goal)
                .unwrap();
            assert_eq!(again, plan, "k={k}");
            assert_eq!(again_stats, stats, "k={k}");
            assert!(oracle.asked.lock().values().all(|&n| n == 2), "k={k}");
        }
    }
}
