//! Paper-scale per-iteration profiles: the paper-derived compute /
//! sparsification costs of each DNN workload combined with the α-β
//! communication time of each aggregation algorithm, replayed from the
//! plan the product executes.
//!
//! This is the machinery behind Fig. 10 (scaling efficiency), Fig. 11
//! (time breakdown) and Table IV (throughput).

use gtopk_comm::{CostModel, Topology};
use gtopk_perfmodel::{
    dense_plan_ms, gtopk_plan_ms, topk_plan_ms, AggregationKind, IterationProfile, ModelSpec,
};

/// The per-iteration profile of one `(model, algorithm, P)` combination,
/// with communication priced by replaying the algorithm's plan (exactly
/// the time its execution reports).
///
/// # Panics
///
/// Panics if `p == 0`.
pub fn iteration_profile(
    model: &ModelSpec,
    algo: AggregationKind,
    p: usize,
    net: CostModel,
) -> IterationProfile {
    let k = model.k();
    let communication_ms = match algo {
        AggregationKind::Dense => dense_plan_ms(&net, p, model.params),
        AggregationKind::TopK => topk_plan_ms(&net, p, k),
        AggregationKind::GTopK => gtopk_plan_ms(&net, Topology::Binomial, p, k),
    };
    let compression_ms = match algo {
        AggregationKind::Dense => 0.0,
        _ => model.sparsify_ms,
    };
    IterationProfile {
        compute_ms: model.compute_ms,
        compression_ms,
        communication_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtopk_perfmodel::{paper_models, scaling_efficiency, throughput_images_per_sec};

    #[test]
    fn gtopk_beats_dense_on_every_paper_model_at_32_workers() {
        let net = CostModel::gigabit_ethernet();
        for model in paper_models() {
            let dense = iteration_profile(&model, AggregationKind::Dense, 32, net);
            let gtopk = iteration_profile(&model, AggregationKind::GTopK, 32, net);
            assert!(
                gtopk.total_ms() < dense.total_ms(),
                "{}: gTop-k {} !< dense {}",
                model.name,
                gtopk.total_ms(),
                dense.total_ms()
            );
        }
    }

    #[test]
    fn gtopk_beats_topk_at_32_workers_for_large_models() {
        // For large k the bandwidth term dominates and gTop-k wins; for
        // ResNet-20's tiny k (≈270) the α term keeps Top-k competitive —
        // the paper measures only a 1.1× gap there (Table IV).
        let net = CostModel::gigabit_ethernet();
        for model in paper_models() {
            let topk = iteration_profile(&model, AggregationKind::TopK, 32, net);
            let gtopk = iteration_profile(&model, AggregationKind::GTopK, 32, net);
            if model.name == "ResNet-20" {
                let ratio = gtopk.total_ms() / topk.total_ms();
                assert!(
                    (0.8..1.2).contains(&ratio),
                    "ResNet-20 totals should be close: ratio {ratio}"
                );
            } else {
                assert!(
                    gtopk.communication_ms < topk.communication_ms,
                    "{}: gTop-k comm must win at P=32",
                    model.name
                );
            }
        }
    }

    #[test]
    fn resnet20_scales_better_than_vgg16() {
        // Paper Fig. 10: ResNet-20 reaches high efficiency, VGG-16 stays
        // low (communication dominates its FC-heavy gradient).
        let net = CostModel::gigabit_ethernet();
        let models = paper_models();
        let vgg = &models[0];
        let r20 = &models[1];
        let e_vgg = scaling_efficiency(&iteration_profile(vgg, AggregationKind::Dense, 32, net));
        let e_r20 = scaling_efficiency(&iteration_profile(r20, AggregationKind::Dense, 32, net));
        assert!(e_r20 > 2.0 * e_vgg, "ResNet-20 {e_r20} vs VGG-16 {e_vgg}");
    }

    #[test]
    fn throughput_is_positive_and_ordered() {
        let net = CostModel::gigabit_ethernet();
        let models = paper_models();
        let alex = models.iter().find(|m| m.name == "AlexNet").unwrap();
        let d = iteration_profile(alex, AggregationKind::Dense, 32, net);
        let g = iteration_profile(alex, AggregationKind::GTopK, 32, net);
        let td = throughput_images_per_sec(&d, 32, alex.batch_per_worker);
        let tg = throughput_images_per_sec(&g, 32, alex.batch_per_worker);
        assert!(tg > td, "gTop-k throughput {tg} !> dense {td}");
    }
}
