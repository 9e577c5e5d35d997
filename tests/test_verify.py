from hotplug.verify import (
    run_gradcheck_suite,
    run_losses_suite,
    run_params_suite,
)


class TestGradcheckSuite:
    def test_all_cases_pass(self):
        results = run_gradcheck_suite(seeds=range(3))
        assert results
        for name, err, ok in results:
            assert ok, f"{name}: max rel err {err:.3e}"

    def test_covers_all_pieces(self):
        names = {name for name, _, _ in run_gradcheck_suite(seeds=[0])}
        expected = {
            "matmul", "add_bias", "mul", "softmax_rows", "log_softmax_rows",
            "l2_normalize_rows", "layer_norm", "relu", "gelu",
            "adapter_forward", "adapter_forward_wdown", "projector_forward",
            "lora_forward", "nce", "clip_symmetric_loss", "distill_loss",
            "cross_model_contrastive", "compat_total", "transpose", "reshape",
            "index_select", "concat", "broadcast_to", "embedding_lookup",
            "matmul_batched_weight", "matmul_batched_bias",
        }
        assert expected <= names


class TestParamsSuite:
    def test_random_configs_agree(self):
        results = run_params_suite(num_configs=10)
        assert len(results) == 10
        for name, count, ok in results:
            assert ok, name
            assert count > 0


class TestLossesSuite:
    def test_closed_forms_hold(self):
        for name, value, ok in run_losses_suite():
            assert ok, f"{name}: {value}"
