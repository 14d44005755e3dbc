//! The capability table: what each [`Algorithm`] is made of and which
//! configurations it may run in.
//!
//! The paper's Algorithm 4 is one step — accumulate, local top-k, reduce
//! the selections, put the rejects back, average, apply — and every
//! sibling (Top-k, the naive reference, the feedback extension, the
//! no-put-back ablation, Ok-Topk, SparDL) differs from it in exactly two
//! choices: which [`Collective`] reduces the selection and what happens
//! to what that collective [`Rejects`]. An algorithm is therefore a table
//! [`Row`]; the one [`crate::Aggregator`] executes any row, the row's
//! [`Caps`] drive the one validator ([`TrainConfig::validate`]), and
//! [`capability_table`] prints the same table for `gtopk info`.

use crate::TrainConfig;
use gtopk_perfmodel::ZooSchedule;
use std::fmt;

/// Which aggregation algorithm to run — the experiment configuration
/// enum used across the bench harness. Each variant is a [`Row`] of the
/// capability table ([`Algorithm::row`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Dense S-SGD over ring AllReduce.
    Dense,
    /// Top-k S-SGD over the AllGather-equivalent sparse sum (Alg. 1).
    TopK,
    /// gTop-k S-SGD over gTopKAllReduce (Alg. 4, the paper's method).
    GTopK,
    /// gTop-k with the exact sparse sum (Alg. 2; reference).
    NaiveGTopK,
    /// gTop-k with per-merge rejection feedback (our extension): tree
    /// merges feed what they truncate back into the *merging* rank's
    /// residual, so no gradient mass is lost at interior tree nodes (see
    /// `DESIGN.md` §5).
    GTopKFeedback,
    /// Ablation: gTop-k *without* the residual put-back of Algorithm 4
    /// line 10 — the configuration §III-A warns "could damage the model
    /// convergence". Exists to demonstrate that claim.
    GTopKNoPutback,
    /// Ok-Topk (Li & Hoefler, PPoPP'22): equal `⌈k/P⌉` per-rank
    /// contribution quotas, balanced split-and-aggregate rounds and a
    /// region gather — per-rank volume `O(k)` with no `log P` factor.
    OkTopk,
    /// SparDL (Duan et al.): Spar-Reduce-Scatter with cascading holding
    /// budgets and Spar-All-Gather of the surviving regions — no dense
    /// allgather tail.
    SparDl,
}

/// The collective that reduces the ranks' local selections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Ring AllReduce of the whole dense buffer (paper §II-D): nothing is
    /// selected, so nothing is rejected.
    DenseRing,
    /// Exact sparse sum of every rank's `k` entries, `O(kP)` — the
    /// AllGather-equivalent of Algorithm 1. Every contribution survives.
    SparseSum,
    /// The exact sparse sum, then the true global top-k of it
    /// (Algorithm 2).
    SparseSumThenSelect,
    /// gTopKAllReduce (Algorithm 3): a `⊤`-reduction and broadcast
    /// executed as binomial-tree plans.
    Tree,
    /// A budget-padded split/gather schedule over the binomial exchange
    /// plans.
    Zoo(ZooKind),
}

/// Which sparse-allreduce zoo schedule a [`Collective::Zoo`] row runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ZooKind {
    /// [`ZooSchedule::oktopk`].
    OkTopk,
    /// [`ZooSchedule::spardl`].
    SparDl,
}

impl ZooKind {
    /// The schedule for `p` members and budget `k`.
    pub fn schedule(self, p: usize, k: usize) -> ZooSchedule {
        match self {
            ZooKind::OkTopk => ZooSchedule::oktopk(p, k),
            ZooKind::SparDl => ZooSchedule::spardl(p, k),
        }
    }
}

impl Collective {
    fn label(self) -> &'static str {
        match self {
            Collective::DenseRing => "dense ring",
            Collective::SparseSum => "sparse sum",
            Collective::SparseSumThenSelect => "sparse sum, then select",
            Collective::Tree => "binomial tree",
            Collective::Zoo(ZooKind::OkTopk) => "zoo(ok-topk)",
            Collective::Zoo(ZooKind::SparDl) => "zoo(spardl)",
        }
    }
}

/// What happens to the gradient mass the collective turns away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejects {
    /// The collective rejects nothing.
    None,
    /// Rejected values are dropped (Algorithm 4 *without* line 10).
    Drop,
    /// Algorithm 4 line 10: this rank's selected values whose coordinate
    /// lost the global selection return to its residual.
    PutBackOwn,
    /// [`Rejects::PutBackOwn`], plus: entries this rank's merges truncated
    /// whose coordinate *won* globally return to the merging rank's
    /// residual — their owners believe them applied, so nobody else
    /// restores them. (Truncated entries outside the global mask are
    /// covered by their owners' put-back; restoring them here too would
    /// double-count.)
    PutBackOwnAndWitnessed,
    /// Whichever rank a budget forced to drop entries returns exactly
    /// that dropped sum to its own residual.
    Witnessed,
}

impl Rejects {
    fn label(self) -> &'static str {
        match self {
            Rejects::None => "none",
            Rejects::Drop => "drop",
            Rejects::PutBackOwn => "put back own",
            Rejects::PutBackOwnAndWitnessed => "put back own + witnessed",
            Rejects::Witnessed => "put back witnessed",
        }
    }
}

/// Which configurations a row may run in. Every row runs at full
/// membership with no recovery policy, over one overlap bucket or
/// several.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Caps {
    /// The collective runs over a member *subset* (plans regenerate over
    /// the survivors); the others have fixed full-cluster schedules.
    pub member_subset: bool,
    /// Checkpoint/rollback recovery: fault plans and checkpoint dirs.
    pub recovery: bool,
}

/// One algorithm, as the product of its two choices plus where it runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Row {
    /// The collective reducing the local selections.
    pub collective: Collective,
    /// What happens to what the collective rejects.
    pub rejects: Rejects,
    /// Where the row is allowed to run.
    pub caps: Caps,
}

const fn caps(bits: [bool; 2]) -> Caps {
    Caps {
        member_subset: bits[0],
        recovery: bits[1],
    }
}

impl Algorithm {
    /// All algorithms used in experiments, in presentation order.
    pub const ALL: [Algorithm; 8] = [
        Algorithm::Dense,
        Algorithm::TopK,
        Algorithm::GTopK,
        Algorithm::NaiveGTopK,
        Algorithm::GTopKFeedback,
        Algorithm::GTopKNoPutback,
        Algorithm::OkTopk,
        Algorithm::SparDl,
    ];

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Dense => "Dense",
            Algorithm::TopK => "Top-k",
            Algorithm::GTopK => "gTop-k",
            Algorithm::NaiveGTopK => "gTop-k(naive)",
            Algorithm::GTopKFeedback => "gTop-k(feedback)",
            Algorithm::GTopKNoPutback => "gTop-k(no-putback)",
            Algorithm::OkTopk => "Ok-Topk",
            Algorithm::SparDl => "SparDL",
        }
    }

    /// The algorithm's row of the capability table. That no-putback,
    /// Ok-Topk and SparDL run over member subsets yet are refused recovery
    /// is today's accepted set, kept as is: widening needs fault tests of
    /// its own.
    pub const fn row(&self) -> Row {
        use Collective::{DenseRing, SparseSum, SparseSumThenSelect, Tree, Zoo};
        use Rejects as R;
        const Y: bool = true;
        const N: bool = false;
        #[rustfmt::skip]
        let (collective, rejects, caps) = match self {
            // caps: [member_subset, recovery]
            Algorithm::Dense          => (DenseRing,            R::None,                   caps([N, N])),
            Algorithm::TopK           => (SparseSum,            R::None,                   caps([N, N])),
            Algorithm::GTopK          => (Tree,                 R::PutBackOwn,             caps([Y, Y])),
            Algorithm::NaiveGTopK     => (SparseSumThenSelect,  R::PutBackOwn,             caps([N, N])),
            Algorithm::GTopKFeedback  => (Tree,                 R::PutBackOwnAndWitnessed, caps([Y, Y])),
            Algorithm::GTopKNoPutback => (Tree,                 R::Drop,                   caps([Y, N])),
            Algorithm::OkTopk         => (Zoo(ZooKind::OkTopk), R::Witnessed,              caps([Y, N])),
            Algorithm::SparDl         => (Zoo(ZooKind::SparDl), R::Witnessed,              caps([Y, N])),
        };
        Row {
            collective,
            rejects,
            caps,
        }
    }
}

const WHY_RECOVERY: &str = "checkpoint/rollback recovery (fault plans, checkpoint dirs) covers \
     only rows with the `recovery` capability";
const WHY_REJOIN: &str = "a restarted rank of a multi-rank run rejoins through the recovery \
     policy: arm a fault plan with the checkpoint dir (an empty seeded plan injects nothing)";

/// The support matrix, one line per [`Algorithm`] row, followed by the
/// rules [`TrainConfig::validate`] applies to it — rendered from the same
/// table and the same reasons the validator reports.
pub fn capability_table() -> String {
    let mut out = format!(
        "{:20}{:25}{:26}{:8}{}\n",
        "algorithm", "collective", "rejects", "subset", "recovery"
    );
    let mark = |cap: bool| if cap { "yes" } else { "-" };
    for alg in Algorithm::ALL {
        let Row {
            collective,
            rejects,
            caps,
        } = alg.row();
        out.push_str(&format!(
            "{:20}{:25}{:26}{:8}{}\n",
            alg.name(),
            collective.label(),
            rejects.label(),
            mark(caps.member_subset),
            mark(caps.recovery),
        ));
    }
    out.push_str("every row runs, with or without overlap, without recovery; beyond that:\n");
    for (setting, why) in [
        ("fault plan / checkpoint dir", WHY_RECOVERY),
        ("checkpoint dir, workers > 1", WHY_REJOIN),
    ] {
        out.push_str(&format!("  {setting}: {why}\n"));
    }
    out
}

/// A configuration [`TrainConfig::validate`] refuses: the two settings
/// that cannot be combined, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The first offending setting, as `name value`.
    pub setting: String,
    /// The setting it cannot be combined with, as `name value`.
    pub conflicts_with: String,
    /// Why the combination is refused.
    pub reason: &'static str,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} cannot be combined with {}: {} (`gtopk info` prints the support matrix)",
            self.setting, self.conflicts_with, self.reason
        )
    }
}

impl std::error::Error for ConfigError {}

impl TrainConfig {
    /// Checks the configuration against the capability table — the one
    /// place a combination of algorithm and recovery policy is ruled
    /// legal or not. [`crate::train_distributed`] and
    /// [`crate::train_rank`] call it up front.
    ///
    /// # Errors
    ///
    /// The first refused combination, naming both settings.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let caps = self.algorithm.row().caps;
        let refuse = |setting: String, conflicts_with: String, reason| {
            Err(ConfigError {
                setting,
                conflicts_with,
                reason,
            })
        };
        let algorithm = || format!("algorithm {}", self.algorithm.name());
        let fault_plan = || "fault plan".to_string();
        let checkpoint_dir = || "checkpoint_dir".to_string();

        if self.checkpoint_dir.is_some() {
            if !caps.recovery {
                return refuse(algorithm(), checkpoint_dir(), WHY_RECOVERY);
            }
            if self.workers > 1 && !self.fault_tolerant() {
                let workers = format!("workers {}", self.workers);
                return refuse(checkpoint_dir(), workers, WHY_REJOIN);
            }
        }
        if self.fault_tolerant() && !caps.recovery {
            return refuse(algorithm(), fault_plan(), WHY_RECOVERY);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pair_reject_policies_with_collectives_that_can_serve_them() {
        let selects =
            |c: Collective| matches!(c, Collective::Tree | Collective::SparseSumThenSelect);
        let witnesses = |c: Collective| matches!(c, Collective::Tree | Collective::Zoo(_));
        let serves = |c: Collective, rejects: Rejects| match rejects {
            Rejects::None => !selects(c) && !witnesses(c),
            Rejects::Drop => true,
            Rejects::PutBackOwn => selects(c),
            Rejects::PutBackOwnAndWitnessed => selects(c) && witnesses(c),
            Rejects::Witnessed => witnesses(c),
        };
        for alg in Algorithm::ALL {
            let Row {
                collective,
                rejects,
                caps,
            } = alg.row();
            assert!(serves(collective, rejects), "{}", alg.name());
            // Only plan executions regenerate over survivors; recovery
            // shrinks the membership.
            let plan_driven = matches!(collective, Collective::Tree | Collective::Zoo(_));
            assert_eq!(caps.member_subset, plan_driven, "{}", alg.name());
            assert!(!caps.recovery || caps.member_subset);
        }
    }

    #[test]
    fn table_renders_every_row_and_every_reason() {
        let table = capability_table();
        for alg in Algorithm::ALL {
            assert!(table.contains(alg.name()), "{table}");
        }
        assert!(table.contains(WHY_REJOIN) && table.contains(WHY_RECOVERY));
    }
}
