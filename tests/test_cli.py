"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.n == 20_000
        assert args.r == 16
        assert args.section is None

    def test_table1_sections_accumulate(self):
        args = build_parser().parse_args(
            ["table1", "--section", "disk", "--section", "ellipse"]
        )
        assert args.section == ["disk", "ellipse"]

    def test_invalid_section_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--section", "bogus"])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_engine_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.keys == 64 and args.n == 100_000
        assert args.batch == 10_000
        assert args.r == 32
        assert args.snapshot is None
        assert args.format is None and args.watch is None

    def test_window_defaults(self):
        args = build_parser().parse_args(["engine"])
        assert args.last_n is None and args.horizon is None
        assert args.max_delay is None
        assert args.workers == 0

    def test_window_modes_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["engine", "--last-n", "100", "--horizon", "5"]
            )

    def test_window_rejects_bad_window_values(self):
        for argv in (
            ["engine", "--last-n", "0"],
            ["engine", "--horizon", "0"],
            ["engine", "--horizon", "-3"],
            ["engine", "--horizon", "inf"],
            ["engine", "--max-delay", "0.5"],
        ):
            with pytest.raises(SystemExit, match="engine: --"):
                main(argv)

    def test_engine_rejects_bad_sizes(self):
        for flag, value in (
            ("--n", "0"), ("--n", "-5"), ("--keys", "0"), ("--batch", "0"),
            ("--watch", "-1"),
        ):
            with pytest.raises(SystemExit, match=f"engine: {flag} must be"):
                main(["engine", flag, value])

    def test_folded_commands_rejected(self):
        for command in ("shard", "window", "metrics"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command])

    def test_serve_tick_requires_horizon(self):
        with pytest.raises(SystemExit, match="--tick"):
            main(["gateway", "--tick", "1.0", "--selfcheck"])


class TestCommands:
    def test_table1_disk(self, capsys):
        assert main(["table1", "--section", "disk", "--n", "1500"]) == 0
        out = capsys.readouterr().out
        assert "disk" in out
        assert "max h" in out

    def test_demo(self, capsys):
        assert main(["demo", "--n", "2000", "--r", "16"]) == 0
        out = capsys.readouterr().out
        assert "diameter" in out
        assert "Corollary 5.2" in out

    def test_lower_bound(self, capsys):
        assert main(["lower-bound"]) == 0
        out = capsys.readouterr().out
        assert "optimal" in out

    def test_work(self, capsys):
        assert main(["work"]) == 0
        assert "nodes/pt" in capsys.readouterr().out

    def test_scaling(self, capsys):
        assert main(["scaling", "--n", "2000", "--r-values", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "slope adaptive" in out

    def test_engine(self, tmp_path, capsys):
        snap = tmp_path / "engine.json"
        assert (
            main(
                [
                    "engine",
                    "--keys", "20",
                    "--n", "5000",
                    "--r", "8",
                    "--batch", "1000",
                    "--snapshot", str(snap),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "streams      : 20" in out
        assert "identical hulls: True" in out
        assert snap.exists()

    def test_window_count_mode(self, tmp_path, capsys):
        snap = tmp_path / "window.json"
        assert (
            main(
                [
                    "engine",
                    "--keys", "6",
                    "--n", "6000",
                    "--r", "8",
                    "--batch", "2000",
                    "--last-n", "500",
                    "--snapshot", str(snap),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine       : in-process, last_n=500, r=8" in out
        assert "all-time hull" in out
        assert "identical hulls: True" in out
        assert snap.exists()

    def test_window_time_mode(self, capsys):
        assert (
            main(
                [
                    "engine",
                    "--keys", "4",
                    "--n", "4000",
                    "--r", "8",
                    "--batch", "2000",
                    "--horizon", "1.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "engine       : in-process, horizon=1.5, r=8" in out
        assert "bucket expiries" in out

    def test_engine_sharded_event_time_snapshot(self, tmp_path, capsys):
        snap = tmp_path / "ring.json"
        assert main([
            "engine", "--keys", "8", "--n", "4000", "--r", "8",
            "--batch", "1000", "--workers", "2", "--horizon", "1.0",
            "--max-delay", "0.2", "--snapshot", str(snap),
        ]) == 0
        out = capsys.readouterr().out
        assert "sharded x2, horizon=1.0 max_delay=0.2" in out
        assert "ring load    : shard 0:" in out
        assert "late drops, 0 still buffered" in out
        assert "restore check: 8 keys, identical hulls: True" in out
        assert snap.exists()

    def test_engine_format_json(self, capsys):
        import json

        assert main(
            ["engine", "--keys", "4", "--n", "2000", "--format", "json"]
        ) == 0
        out = capsys.readouterr().out
        page = json.loads(out[out.index("\n{") + 1:])
        values = page["repro_ingest_records_total"]["values"]
        assert values['tier="engine"'] >= 2000
        # Without --format the report carries no page.
        assert main(["engine", "--keys", "4", "--n", "2000"]) == 0
        assert "repro_ingest_records_total" not in capsys.readouterr().out

    def test_fig10(self, tmp_path, capsys):
        assert main(["fig10", "--out", str(tmp_path), "--n", "800"]) == 0
        out = capsys.readouterr().out
        assert "fig10_adaptive.svg" in out
        assert (tmp_path / "fig10_adaptive.svg").exists()
        assert (tmp_path / "fig10_uniform.svg").exists()


class TestDurableParser:
    def test_durable_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["durable"])

    def test_recover_defaults(self):
        args = build_parser().parse_args(["durable", "recover", "wal"])
        assert args.durable_cmd == "recover"
        assert args.wal_dir == "wal"
        assert args.workers is None and args.replicas == 0
        assert args.snapshot is None and not args.compact

    def test_dead_letters_defaults(self):
        args = build_parser().parse_args(["durable", "dead-letters", "wal"])
        assert args.limit == 20
        assert not args.replay and not args.truncate

    def test_shard_gains_wal_and_replica_flags(self):
        args = build_parser().parse_args(["engine"])
        assert args.wal_dir is None and args.replicas == 0
        args = build_parser().parse_args(
            ["engine", "--wal-dir", "d", "--replicas", "2"]
        )
        assert args.wal_dir == "d" and args.replicas == 2

    def test_negative_replicas_rejected(self):
        with pytest.raises(SystemExit, match="--replicas"):
            main(["engine", "--workers", "2", "--replicas", "-1"])

    def test_replicas_need_workers(self):
        with pytest.raises(SystemExit, match="--replicas"):
            main(["gateway", "--replicas", "1", "--selfcheck"])


class TestDurableCommands:
    def _write_late_wal(self, wal_dir):
        """A WAL with two dead-lettered slices, built via the API."""
        import numpy as np

        from repro.durable import DurabilityConfig
        from repro.engine import StreamEngine
        from repro.shard import SummarySpec
        from repro.window import WindowConfig

        eng = StreamEngine(
            SummarySpec("AdaptiveHull", {"r": 8}).build,
            window=WindowConfig(horizon=5.0, max_delay=1.0),
            durability=DurabilityConfig(wal_dir),
        )
        ts = np.arange(40, dtype=np.float64) / 4.0
        keys = np.array([f"k-{i % 4}" for i in range(40)])
        pts = np.arange(80, dtype=np.float64).reshape(40, 2)
        eng.ingest_arrays(keys, pts, ts=ts)
        for i in range(2):
            eng.ingest_arrays(
                np.array([f"late-{i}"]),
                np.array([[float(i), -float(i)]]),
                ts=np.array([0.0]),
            )
        eng.close()

    def test_shard_wal_roundtrip(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        argv = [
            "engine", "--n", "4000", "--keys", "8",
            "--workers", "2", "--wal-dir", wal,
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "wal          : seq" in out

        assert main(["durable", "inspect", wal]) == 0
        out = capsys.readouterr().out
        assert "tier         : shard x2" in out
        assert "spec         : AdaptiveHull" in out

        assert main(["durable", "recover", wal]) == 0
        out = capsys.readouterr().out
        assert "recovered    :" in out
        assert "records      : 4,000" in out
        assert "tier         : sharded x2" in out

        # A second run against the same WAL continues from it.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered    : " in out
        assert "records      : 8,000" in out

    def test_recover_workers_zero_and_snapshot(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        snap = tmp_path / "rec.json"
        assert main(
            ["engine", "--n", "2000", "--workers", "2", "--wal-dir", wal]
        ) == 0
        capsys.readouterr()
        assert main(
            ["durable", "recover", wal, "--workers", "0",
             "--snapshot", str(snap)]
        ) == 0
        out = capsys.readouterr().out
        assert "tier         : in-process" in out
        assert snap.exists()

    def test_recover_compact_skips_replayed_tail(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        assert main(
            ["engine", "--n", "2000", "--workers", "2", "--wal-dir", wal]
        ) == 0
        capsys.readouterr()
        assert main(["durable", "recover", wal, "--compact"]) == 0
        out = capsys.readouterr().out
        assert "compacted    :" in out
        # The compaction snapshot makes the next recovery's tail empty.
        assert main(["durable", "recover", wal]) == 0
        out = capsys.readouterr().out
        assert "recovered    : 0 WAL entries" in out

    def test_recover_refuses_other_tier_after_compaction(
        self, tmp_path, capsys
    ):
        wal = str(tmp_path / "wal")
        assert main(
            ["engine", "--n", "2000", "--workers", "2", "--wal-dir", wal]
        ) == 0
        assert main(["durable", "recover", wal, "--compact"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit, match="'shard'-tier snapshot"):
            main(["durable", "recover", wal, "--workers", "0"])

    def test_timed_wal_resume_continues_event_time(self, tmp_path, capsys):
        # A resumed run numbers its event times on from the recovered
        # records, so the strict time window accepts them.
        argv = [
            "engine", "--n", "2000", "--keys", "4", "--r", "8",
            "--horizon", "1.0", "--wal-dir", str(tmp_path / "wal"),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "recovered    : 1 WAL entries" in out
        assert "records      : 4,000 in 2 batches" in out

    def test_compact_refuses_tier_override(self, tmp_path):
        with pytest.raises(SystemExit, match="--compact"):
            main(
                ["durable", "recover", str(tmp_path), "--workers", "0",
                 "--compact"]
            )

    def test_inspect_without_wal_fails(self, tmp_path, capsys):
        assert main(["durable", "inspect", str(tmp_path / "nope")]) == 1
        assert "no WAL" in capsys.readouterr().out

    def test_dead_letters_list_replay_truncate(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        self._write_late_wal(wal)

        assert main(["durable", "dead-letters", wal]) == 0
        out = capsys.readouterr().out
        assert "dead letters : 2 slices / 2 records" in out
        assert "key='late-0'" in out

        assert main(
            ["durable", "dead-letters", wal, "--replay", "--truncate"]
        ) == 0
        out = capsys.readouterr().out
        assert "redriven     : 2 slices / 2 records (0 skipped)" in out
        assert "truncated    : 2 slices dropped" in out

        # The redriven records are now part of the recovered state.
        assert main(["durable", "recover", wal]) == 0
        out = capsys.readouterr().out
        assert "records      : 42" in out

    def test_metrics_watch_prints_rates(self, capsys):
        assert main(
            [
                "engine", "--n", "20000", "--keys", "4",
                "--batch", "2000", "--watch", "0.0001", "--format", "prom",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "# rates over" in out
        assert "/s" in out
        # The final page still carries the absolute totals.
        assert "repro_ingest_records_total" in out


class TestGatewayParser:
    def test_defaults(self):
        args = build_parser().parse_args(["gateway"])
        assert args.port == 0 and args.host == "127.0.0.1"
        assert args.tenants is None
        assert args.r == 32
        assert args.last_n is None and args.horizon is None
        assert args.workers == 0 and args.replicas == 0
        assert args.wal_dir is None and args.snapshot is None
        assert args.duration == 0.0 and not args.selfcheck
        assert args.metrics_port is None

    def test_window_modes_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["gateway", "--last-n", "10", "--horizon", "5"]
            )

    def test_inspect_gains_fsck_flag(self):
        args = build_parser().parse_args(
            ["durable", "inspect", "/tmp/x", "--fsck"]
        )
        assert args.fsck
        assert not build_parser().parse_args(
            ["durable", "inspect", "/tmp/x"]
        ).fsck


class TestGatewayCommands:
    def test_selfcheck_inprocess(self, tmp_path, capsys):
        wal = str(tmp_path / "wal")
        rc = main([
            "gateway", "--selfcheck", "--r", "8", "--wal-dir", wal,
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "namespace isolation ok=True" in out
        assert "sse push ok=True" in out
        assert "bogus token -> 401" in out
        assert 'tenant="alpha"' in out and 'tenant="beta"' in out

    def test_selfcheck_sharded_event_time_and_metrics_port(self, capsys):
        rc = main([
            "gateway", "--selfcheck", "--r", "8", "--workers", "2",
            "--horizon", "5", "--max-delay", "0.5", "--metrics-port", "0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "late drops {'gw-late': 1} ok=True" in out
        assert "from metrics port" in out
        assert 'repro_ingest_records_total{tier="shard"}' in out

    def test_selfcheck_with_custom_tenants(self, tmp_path, capsys):
        import json

        config = tmp_path / "tenants.json"
        config.write_text(json.dumps({
            "admin_token": "adm",
            "tenants": [
                {"id": "alpha", "token": "a-tok"},
                {"id": "beta", "token": "b-tok"},
            ],
        }))
        rc = main([
            "gateway", "--selfcheck", "--r", "8",
            "--tenants", str(config),
        ])
        assert rc == 0
        assert "namespace isolation ok=True" in capsys.readouterr().out

    def test_bad_tenants_config_fails(self, tmp_path):
        config = tmp_path / "tenants.json"
        config.write_text("{broken")
        with pytest.raises(SystemExit, match="gateway: .*invalid JSON"):
            main(["gateway", "--selfcheck", "--tenants", str(config)])

    def test_fsck_clean_and_corrupt(self, tmp_path, capsys):
        import os

        from repro.durable import list_segments

        wal = str(tmp_path / "wal")
        assert main([
            "gateway", "--selfcheck", "--r", "8", "--wal-dir", wal,
        ]) == 0
        capsys.readouterr()
        assert main(["durable", "inspect", wal, "--fsck"]) == 0
        out = capsys.readouterr().out
        assert "fsck" in out and "clean" in out
        # Flip one mid-file byte: fsck must now fail with the offset.
        path = list_segments(wal)[0][1]
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.seek(size // 2)
            byte = fh.read(1)
            fh.seek(size // 2)
            fh.write(bytes([byte[0] ^ 0xFF]))
        assert main(["durable", "inspect", wal, "--fsck"]) == 1
        out = capsys.readouterr().out
        assert "CORRUPT" in out
