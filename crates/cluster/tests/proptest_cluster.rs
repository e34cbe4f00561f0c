//! Property tests for the cluster: results and traffic accounting must be
//! exact for arbitrary payload shapes and cluster sizes.

use proptest::prelude::*;
use triolet_cluster::{Cluster, ClusterConfig, CostModel};
use triolet_serial::Wire;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn run_roundtrips_arbitrary_payloads(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..64),
            1..8,
        ),
    ) {
        let n = payloads.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 2));
        let expect: Vec<u64> =
            payloads.iter().map(|p| p.iter().fold(0u64, |a, b| a.wrapping_add(*b))).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u64>| {
            v.iter().fold(0u64, |a, b| a.wrapping_add(*b))
        });
        prop_assert_eq!(out.results, expect);
    }

    #[test]
    fn traffic_accounts_exact_bytes(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<f32>().prop_filter("finite", |x| x.is_finite()), 0..64),
            1..6,
        ),
    ) {
        let n = payloads.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 1));
        let expect_out: u64 = payloads.iter().map(|p| p.packed_size() as u64).sum();
        let out = cluster.run(payloads, |_ctx, v: Vec<f32>| v.len() as u64);
        prop_assert_eq!(out.timing.bytes_out, expect_out);
        // Each result is one u64 (8 bytes).
        prop_assert_eq!(out.timing.bytes_back, 8 * n as u64);
        prop_assert_eq!(cluster.stats().messages(), 2 * n as u64);
    }

    #[test]
    fn virtual_comm_time_matches_model(
        sizes in proptest::collection::vec(1usize..5000, 1..6),
        latency_us in 0u64..200,
    ) {
        let cost = CostModel::flat(latency_us as f64 * 1e-6, 1e9);
        let n = sizes.len();
        let cluster = Cluster::new(ClusterConfig::virtual_cluster(n, 1).with_cost(cost));
        let payloads: Vec<Vec<u8>> = sizes.iter().map(|&s| vec![0u8; s]).collect();
        let out = cluster.run(payloads, |_ctx, v: Vec<u8>| v.len() as u64);
        // comm_s = sum over all 2n messages of latency + bytes/bw.
        let mut expect = 0.0;
        for &s in &sizes {
            expect += cost.transfer_time((vec![0u8; s]).packed_size());
        }
        for _ in 0..n {
            expect += cost.transfer_time(8);
        }
        prop_assert!((out.timing.comm_s - expect).abs() < 1e-9);
    }
}
