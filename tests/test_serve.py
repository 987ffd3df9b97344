"""Tests for the fleet-serving subsystem (repro.serve)."""

from __future__ import annotations

import hashlib
import json
import threading

import pytest

from repro.core import OptimizerConfig
from repro.dvfs import GaConfig
from repro.dvfs.strategy import DvfsStrategy, constant_strategy
from repro.errors import ServeError
from repro.serve import (
    OptimizerPool,
    StrategyService,
    StrategyStore,
    config_fingerprint,
    derive_job_seed,
    request_fingerprint,
    spec_fingerprint,
)
from repro.serve.fingerprint import canonicalize
from repro.serve.pool import job_config, optimize_job
from repro.serve.store import STORE_SCHEMA_VERSION, encode_record
from repro.workloads import build_trace, generate
from repro.workloads.trace import Trace
from tests.conftest import make_compute_op

QUICK_GA = GaConfig(population_size=20, iterations=25, seed=0, patience=15)


@pytest.fixture(scope="module")
def quick_serve_config():
    return OptimizerConfig(ga=QUICK_GA, seed=0)


@pytest.fixture(scope="module")
def bert_trace():
    return generate("bert", scale=0.02, seed=0)


@pytest.fixture(scope="module")
def resnet_trace():
    return generate("resnet50", scale=0.02, seed=1)


class TestFingerprint:
    def test_stable_across_calls(self, bert_trace):
        assert bert_trace.fingerprint() == bert_trace.fingerprint()

    def test_name_and_description_excluded(self, bert_trace):
        renamed = Trace(
            name="different-job-name",
            entries=bert_trace.entries,
            description="resubmitted by another device",
        )
        assert renamed.fingerprint() == bert_trace.fingerprint()

    def test_content_changes_fingerprint(self):
        a = build_trace("w", [make_compute_op(name="op0")])
        b = build_trace(
            "w", [make_compute_op(name="op0", core_cycles=999_999.0)]
        )
        assert a.fingerprint() != b.fingerprint()

    def test_gap_changes_fingerprint(self):
        spec = make_compute_op(name="op0")
        from repro.workloads.trace import TraceEntry

        a = build_trace("w", [TraceEntry(spec=spec)])
        b = build_trace("w", [TraceEntry(spec=spec, gap_before_us=50.0)])
        assert a.fingerprint() != b.fingerprint()

    def test_config_fingerprint_tracks_strategy_knobs(
        self, quick_serve_config
    ):
        base = config_fingerprint(quick_serve_config)
        assert base == config_fingerprint(quick_serve_config)
        assert base != config_fingerprint(
            quick_serve_config.with_loss_target(0.05)
        )
        assert base != config_fingerprint(
            quick_serve_config.with_interval(100_000.0)
        )

    def test_spec_fingerprint_tracks_hardware(self, quick_serve_config):
        spec = quick_serve_config.npu
        assert spec_fingerprint(spec) == spec_fingerprint(spec)
        assert spec_fingerprint(spec) != spec_fingerprint(
            spec.with_uncore_frequency(0.8)
        )

    def test_request_fingerprint_is_hex_digest(
        self, bert_trace, quick_serve_config
    ):
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        assert len(fingerprint) == 64
        assert set(fingerprint) <= set("0123456789abcdef")

    def test_default_fingerprints_are_pinned(self):
        """Default config and request keys do not drift.

        Stored strategies and serve job seeds (``derive_job_seed``)
        derive from these digests, so a change here must come with a
        ``FINGERPRINT_VERSION`` bump.
        """
        config = OptimizerConfig()
        assert config_fingerprint(config) == (
            "8dc6531281e52026864871dee8f7705c957dce4e3d40c4f0ddc78447ca4d6907"
        )
        trace = generate("bert", scale=0.02, seed=0)
        assert request_fingerprint(trace, config) == (
            "e1f0c16d1af3938f01eec592ed900d20b611ae2aae6b9b74a08f95973714e477"
        )

    def test_derived_seed_depends_on_both_inputs(self):
        assert derive_job_seed(0, "aa") == derive_job_seed(0, "aa")
        assert derive_job_seed(0, "aa") != derive_job_seed(1, "aa")
        assert derive_job_seed(0, "aa") != derive_job_seed(0, "ab")
        assert derive_job_seed(0, "aa") >= 0

    def test_job_config_applies_derived_seed(self, quick_serve_config):
        derived = job_config(quick_serve_config, "ff" * 32)
        assert derived.seed == derive_job_seed(0, "ff" * 32)
        assert derived.ga.seed == derived.seed
        assert derived.performance_loss_target == (
            quick_serve_config.performance_loss_target
        )


class TestStore:
    def _strategy(self, trace, config, store_key="00" * 32):
        return DvfsStrategy.from_json(
            optimize_job(store_key, trace, config).strategy_json
        )

    def test_roundtrip_and_tiers(self, tmp_path, bert_trace, quick_serve_config):
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        assert store.lookup(fingerprint) is None
        strategy = self._strategy(bert_trace, quick_serve_config)
        store.put(fingerprint, strategy, "cfg", "spec")
        hit = store.lookup(fingerprint, "cfg", "spec")
        assert hit is not None and hit.tier == "memory"
        assert hit.strategy == strategy
        store.clear_memory()
        hit = store.lookup(fingerprint, "cfg", "spec")
        assert hit is not None and hit.tier == "disk"
        # back in the LRU after the disk hit
        assert store.lookup(fingerprint).tier == "memory"
        assert len(store) == 1
        assert list(store.fingerprints()) == [fingerprint]

    def test_schema_version_mismatch_invalidates(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        path = store.put(fingerprint, strategy, "cfg", "spec")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["schema_version"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(record), encoding="utf-8")
        store.clear_memory()
        assert store.lookup(fingerprint) is None
        assert store.counters.invalidations == 1
        assert not path.exists()

    def test_config_hash_drift_invalidates(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        store.put(fingerprint, strategy, "cfg-old", "spec")
        store.clear_memory()
        assert store.lookup(fingerprint, "cfg-new", "spec") is None
        assert store.counters.invalidations == 1

    def test_corrupt_record_invalidates(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        path = store.put(fingerprint, strategy, "cfg", "spec")
        path.write_text("{not json", encoding="utf-8")
        store.clear_memory()
        assert store.lookup(fingerprint) is None
        assert not path.exists()

    @pytest.mark.parametrize(
        "damage",
        [
            pytest.param(lambda doc: doc[: len(doc) // 2], id="truncated"),
            pytest.param(lambda doc: "{garbled" + doc, id="garbled"),
            pytest.param(lambda doc: '["not", "an", "envelope"]', id="list"),
            pytest.param(
                lambda doc: json.dumps(
                    {**json.loads(doc), "strategy": {"nope": 1}}
                ),
                id="malformed-strategy",
            ),
        ],
    )
    def test_damaged_record_quarantined(
        self, tmp_path, bert_trace, quick_serve_config, damage
    ):
        """Structural damage is quarantined (``.corrupt``), counted, and
        treated as a plain miss — lookups never raise."""
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        path = store.put(fingerprint, strategy, "cfg", "spec")
        path.write_text(
            damage(path.read_text(encoding="utf-8")), encoding="utf-8"
        )
        store.clear_memory()
        assert store.lookup(fingerprint, "cfg", "spec") is None
        assert store.counters.quarantined == 1
        assert store.counters.misses == 1
        assert not path.exists()
        quarantined = list(store.quarantined_files())
        assert [p.name for p in quarantined] == [path.name + ".corrupt"]
        # A later lookup is an ordinary miss, not a second quarantine.
        assert store.lookup(fingerprint, "cfg", "spec") is None
        assert store.counters.quarantined == 1
        # ... and a fresh put simply replaces the record.
        store.put(fingerprint, strategy, "cfg", "spec")
        store.clear_memory()
        assert store.lookup(fingerprint, "cfg", "spec").tier == "disk"

    def test_binary_garbage_quarantined(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        path = store.put(fingerprint, strategy, "cfg", "spec")
        path.write_bytes(b"\x00\xff\xfe not utf-8 \x80")
        store.clear_memory()
        assert store.lookup(fingerprint) is None
        assert store.counters.quarantined == 1
        assert list(store.quarantined_files())

    def test_wrong_address_quarantined(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        """A record whose envelope names a different fingerprint than
        its address is corrupt, not merely stale."""
        store = StrategyStore(tmp_path / "store")
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        strategy = self._strategy(bert_trace, quick_serve_config)
        path = store.put(fingerprint, strategy, "cfg", "spec")
        record = json.loads(path.read_text(encoding="utf-8"))
        record["fingerprint"] = "00" * 32
        path.write_text(json.dumps(record), encoding="utf-8")
        store.clear_memory()
        assert store.lookup(fingerprint) is None
        assert store.counters.quarantined == 1

    def test_lru_capacity_bounded(self, tmp_path):
        store = StrategyStore(tmp_path / "store", memory_capacity=2)
        from repro.dvfs.strategy import constant_strategy

        for i in range(4):
            store.put(
                f"{i:02d}" * 32,
                constant_strategy(f"w{i}", 1800.0, 100.0),
                "cfg",
                "spec",
            )
        assert store.memory_size() == 2
        assert len(store) == 4

    def test_bad_fingerprint_rejected(self, tmp_path):
        store = StrategyStore(tmp_path / "store")
        with pytest.raises(ServeError):
            store.path_for("../escape")
        with pytest.raises(ServeError):
            store.path_for("short")

    def test_negative_capacity_rejected(self, tmp_path):
        with pytest.raises(ServeError):
            StrategyStore(tmp_path / "store", memory_capacity=-1)

    def test_clear_removes_records(self, tmp_path):
        store = StrategyStore(tmp_path / "store")
        from repro.dvfs.strategy import constant_strategy

        store.put("ab" * 32, constant_strategy("w", 1800.0, 1.0), "c", "s")
        assert store.clear() == 1
        assert len(store) == 0

    def test_encode_record_carries_schema_version(self):
        from repro.dvfs.strategy import constant_strategy

        record = encode_record(
            "ab" * 32, constant_strategy("w", 1800.0, 1.0), "cfg", "spec"
        )
        assert record["schema_version"] == STORE_SCHEMA_VERSION
        assert record["config_hash"] == "cfg"
        assert record["spec_hash"] == "spec"


class TestPoolDeterminism:
    def test_parallel_matches_serial_end_to_end(
        self, bert_trace, resnet_trace, quick_serve_config, monkeypatch
    ):
        """The same batch on 2 and 4 workers and serially is byte-identical.

        This is the end-to-end concurrency-determinism contract: worker
        count, scheduling order and process boundaries must not change a
        single byte of any strategy JSON.  The workers start from an
        empty calibration-runs cache and build their own runs; the serial
        side replays runs cached before it starts.
        """
        from repro.core import EnergyOptimizer
        from repro.core import optimizer as optimizer_module

        monkeypatch.setattr(optimizer_module, "_CALIBRATION_RUNS", {})
        config = quick_serve_config
        jobs = [
            (request_fingerprint(bert_trace, config), bert_trace),
            (request_fingerprint(resnet_trace, config), resnet_trace),
        ]
        parallel_runs = {}
        for workers in (2, 4):
            with OptimizerPool(workers=workers) as pool:
                parallel_runs[workers] = pool.optimize_batch(jobs, config)
        # Nothing calibrated here yet, so every worker forked cold.
        assert not optimizer_module._CALIBRATION_RUNS
        EnergyOptimizer(config).calibrate()
        assert len(optimizer_module._CALIBRATION_RUNS) == 1
        serial = OptimizerPool(workers=0).optimize_batch(jobs, config)
        for parallel in parallel_runs.values():
            assert parallel.keys() == serial.keys()
            for fingerprint in serial:
                assert (
                    parallel[fingerprint].strategy_json
                    == serial[fingerprint].strategy_json
                )

    def test_batch_order_irrelevant(
        self, bert_trace, resnet_trace, quick_serve_config
    ):
        config = quick_serve_config
        jobs = [
            (request_fingerprint(bert_trace, config), bert_trace),
            (request_fingerprint(resnet_trace, config), resnet_trace),
        ]
        forward = OptimizerPool(workers=0).optimize_batch(jobs, config)
        reverse = OptimizerPool(workers=0).optimize_batch(jobs[::-1], config)
        for fingerprint in forward:
            assert (
                forward[fingerprint].strategy_json
                == reverse[fingerprint].strategy_json
            )

    def test_duplicate_fingerprints_rejected(
        self, bert_trace, quick_serve_config
    ):
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        with pytest.raises(ServeError):
            OptimizerPool(workers=0).optimize_batch(
                [(fingerprint, bert_trace), (fingerprint, bert_trace)],
                quick_serve_config,
            )

    def test_negative_workers_rejected(self):
        with pytest.raises(ServeError):
            OptimizerPool(workers=-1)


class TestStrategyService:
    def test_compute_then_hit(self, tmp_path, bert_trace, quick_serve_config):
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(tmp_path / "s")
        ) as service:
            first = service.request(bert_trace)
            second = service.request(bert_trace)
        assert first.source == "computed"
        assert second.source == "memory"
        assert first.strategy.to_json() == second.strategy.to_json()
        assert service.stats.ga_runs == 1
        assert service.stats.hit_rate == 0.5

    def test_store_survives_restart(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        root = tmp_path / "s"
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(root)
        ) as service:
            computed = service.request(bert_trace)
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(root)
        ) as restarted:
            served = restarted.request(bert_trace)
        assert served.source == "disk"
        assert served.strategy.to_json() == computed.strategy.to_json()
        assert restarted.stats.ga_runs == 0

    def test_config_change_misses_old_records(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        root = tmp_path / "s"
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(root)
        ) as service:
            service.request(bert_trace)
        retargeted = quick_serve_config.with_loss_target(0.05)
        with StrategyService(
            config=retargeted, store=StrategyStore(root)
        ) as service:
            result = service.request(bert_trace)
        assert result.source == "computed"

    def test_batch_coalesces_duplicates(
        self, tmp_path, bert_trace, resnet_trace, quick_serve_config
    ):
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(tmp_path / "s")
        ) as service:
            results = service.serve_batch(
                [bert_trace, resnet_trace, bert_trace, resnet_trace]
            )
        sources = [result.source for result in results]
        assert sources == ["computed", "computed", "coalesced", "coalesced"]
        assert service.stats.ga_runs == 2
        assert results[0].strategy.to_json() == results[2].strategy.to_json()

    def test_batch_matches_naive_per_request(
        self, tmp_path, bert_trace, resnet_trace, quick_serve_config
    ):
        config = quick_serve_config
        with StrategyService(
            config=config, store=StrategyStore(tmp_path / "s")
        ) as service:
            served = service.serve_batch([bert_trace, resnet_trace])
        for trace, result in zip((bert_trace, resnet_trace), served):
            naive = optimize_job(
                request_fingerprint(trace, config), trace, config
            )
            assert result.strategy.to_json() == naive.strategy_json

    def test_concurrent_requests_coalesce(
        self, tmp_path, bert_trace, quick_serve_config
    ):
        """Threads requesting one fingerprint share a single GA run."""
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(tmp_path / "s")
        ) as service:
            results: list = [None] * 4

            def worker(slot: int) -> None:
                results[slot] = service.request(bert_trace)

            threads = [
                threading.Thread(target=worker, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert service.stats.ga_runs == 1
        documents = {result.strategy.to_json() for result in results}
        assert len(documents) == 1
        sources = sorted(result.source for result in results)
        assert "computed" in sources
        assert set(sources) <= {"computed", "coalesced", "memory", "disk"}

    def test_stats_rows_render(self, tmp_path, bert_trace, quick_serve_config):
        from repro.core import render_service_stats

        with StrategyService(
            config=quick_serve_config, store=StrategyStore(tmp_path / "s")
        ) as service:
            service.request(bert_trace)
            service.request(bert_trace)
            rendered = render_service_stats(service.stats)
            store_rendered = render_service_stats(
                service.store.counters, title="store"
            )
        assert "requests" in rendered and "ga_runs" in rendered
        assert "memory_hits" in store_rendered


def _v2_digest(payload) -> str:
    """A digest exactly as fingerprint version 2 encoded it."""
    document = json.dumps(
        {"fingerprint_version": 2, "payload": payload},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(document.encode("utf-8")).hexdigest()


def _v2_hashes(trace, config) -> tuple[str, str, str]:
    """``(request, config, spec)`` hashes a version-2 service computed.

    Version 2 also hashed the default surrogate-search knobs into the
    config payload; version 3 dropped them.
    """
    trace_hash = _v2_digest(
        {
            "kind": "trace",
            "entries": [
                {
                    "spec": canonicalize(entry.spec),
                    "gap_before_us": entry.gap_before_us,
                    "host_interval_us": entry.host_interval_us,
                }
                for entry in trace.entries
            ],
        }
    )
    config_hash = _v2_digest(
        {
            "kind": "optimizer_config",
            "performance_loss_target": config.performance_loss_target,
            "adjustment_interval_us": config.adjustment_interval_us,
            "profile_freqs_mhz": list(config.profile_freqs_mhz),
            "fit_function": config.fit_function.value,
            "objective": config.objective,
            "ga": canonicalize(config.ga),
            "surrogate": {
                "__class__": "SurrogateConfig",
                "enabled": False,
                "train_size": 160,
                "holdout_size": 64,
                "ridge_lambda": 1e-6,
                "r2_floor": 0.9,
                "explore_multiplier": 2,
                "oracle_top_k": 4,
            },
            "fault": canonicalize(config.fault),
            "guard": canonicalize(config.guard),
            "seed": config.seed,
        }
    )
    spec_hash = _v2_digest(
        {"kind": "npu_spec", "spec": canonicalize(config.npu)}
    )
    request_hash = _v2_digest(
        {
            "kind": "request",
            "trace": trace_hash,
            "config": config_hash,
            "spec": spec_hash,
        }
    )
    return request_hash, config_hash, spec_hash


class TestFingerprintMigration:
    """Stores written under fingerprint version 2 invalidate cleanly."""

    @pytest.fixture()
    def stale(self, bert_trace):
        return constant_strategy(bert_trace.name, 1000.0, 1_000.0)

    def test_v2_record_is_a_clean_miss(
        self, tmp_path, bert_trace, quick_serve_config, stale
    ):
        root = tmp_path / "s"
        v2_request, v2_config, v2_spec = _v2_hashes(
            bert_trace, quick_serve_config
        )
        old_path = StrategyStore(root).put(
            v2_request, stale, v2_config, v2_spec
        )
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(root)
        ) as service:
            computed = service.request(bert_trace)
            assert computed.source == "computed"
            assert computed.fingerprint != v2_request
            assert computed.strategy != stale
            service.store.clear_memory()
            reread = service.request(bert_trace)
        assert reread.source == "disk"
        assert reread.strategy == computed.strategy
        counters = service.store.counters
        assert counters.quarantined == 0
        assert counters.invalidations == 0
        assert list(service.store.quarantined_files()) == []
        # The v2 record is left where it was, unread, under its own key.
        assert old_path.exists()
        assert sorted(service.store.fingerprints()) == sorted(
            [v2_request, computed.fingerprint]
        )

    def test_v2_envelope_at_current_address_invalidates(
        self, tmp_path, bert_trace, quick_serve_config, stale
    ):
        """A v2 envelope found under a v3 key is stale, not corrupt."""
        root = tmp_path / "s"
        _, v2_config, v2_spec = _v2_hashes(bert_trace, quick_serve_config)
        fingerprint = request_fingerprint(bert_trace, quick_serve_config)
        StrategyStore(root).put(fingerprint, stale, v2_config, v2_spec)
        with StrategyService(
            config=quick_serve_config, store=StrategyStore(root)
        ) as service:
            computed = service.request(bert_trace)
            service.store.clear_memory()
            reread = service.request(bert_trace)
        assert computed.source == "computed"
        assert computed.strategy != stale
        assert reread.source == "disk"
        assert reread.strategy == computed.strategy
        counters = service.store.counters
        assert counters.invalidations == 1
        assert counters.quarantined == 0
        assert list(service.store.quarantined_files()) == []


class TestServeCli:
    def test_warm_then_hit(self, tmp_path, capsys):
        from repro.serve.cli import main

        store = str(tmp_path / "store")
        args = [
            "bert",
            "--store", store,
            "--scale", "0.02",
            "--iterations", "25",
            "--population", "20",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "computed" in first
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "disk" in second
        assert "ga_runs" in second

    def test_unknown_workload_fails_cleanly(self, tmp_path, capsys):
        from repro.serve.cli import main

        assert main(["warpdrive", "--store", str(tmp_path / "s")]) == 1
        assert "error:" in capsys.readouterr().err
