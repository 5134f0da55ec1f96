import dataclasses
import filecmp
import hashlib
import json
import math
import pathlib

import numpy as np
import pytest

from sinrsim.cli import main
from sinrsim.experiment import (
    ExperimentConfig,
    RegionBudgetMonitor,
    analyze_network,
    halo_pair_count,
    report_summary,
    run_coloring,
    run_experiment,
    run_fixed_broadcast,
    run_slow_start,
    run_variable_power,
)
from sinrsim import topology
from sinrsim.model import NetworkParams
from sinrsim.topology import (
    chain_topology,
    generate_topology,
    line_topology,
    load_topology,
    random_topology,
    save_topology,
    uniform_topology,
)

from .conftest import brute_halo_pair_count, brute_longest_chain, brute_random_topology


class TestGenerators:
    def test_uniform_has_unit_ratio(self):
        net = uniform_topology(16, 6.0, 2.0, seed=0)
        assert net.range_ratio == pytest.approx(1.0)
        assert net.longest_chain == 0

    def test_chain_realizes_full_length(self):
        net = chain_topology(5, 0.2)
        assert net.longest_chain == 4
        assert brute_longest_chain(net) == 4

    def test_random_ratio_bounded_by_power_ratio(self):
        net = random_topology(64, 10.0, (1.0, 8.0), seed=4)
        assert net.range_ratio <= 8.0 ** (1.0 / net.params.alpha_hi) + 1e-9

    def test_random_rejects_bad_power_range(self):
        with pytest.raises(ValueError):
            random_topology(4, 5.0, (2.0, 1.0), seed=0)

    def test_dispatch_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_topology("hexagon")

    def test_same_seed_same_topology(self):
        a = random_topology(12, 5.0, (1.0, 4.0), seed=9)
        b = random_topology(12, 5.0, (1.0, 4.0), seed=9)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.powers, b.powers)


def _placement(build, *args, **kwargs):
    """(id, x, y, power, wake_slot) per node, or the error message."""
    try:
        net = build(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return [(v.id, v.x, v.y, v.power, v.wake_slot) for v in net.nodes]


class TestRandomPlacement:
    """Cell-hashed placement against the full pairwise scan, bit for bit."""

    @pytest.mark.parametrize("n", [1, 2, 50, 300])
    @pytest.mark.parametrize("seed,wake_window", [(0, 0), (3, 4), (11, 1)])
    def test_matches_pairwise_scan(self, n, seed, wake_window):
        for side in (0.5, 7.0, 250.0):
            args = (n, side, (1.0, 6.0), seed)
            fast = _placement(random_topology, *args, wake_window=wake_window)
            assert fast == _placement(brute_random_topology, *args, wake_window=wake_window)
            assert not isinstance(fast, str)

    # separations up to 0.9 make cells larger than the square itself
    @pytest.mark.parametrize("n,separation", [
        (60, 0.02), (60, 0.05), (25, 0.12), (8, 0.3), (3, 0.6), (2, 0.9), (60, 0.2),
    ])
    def test_redraws_match_pairwise_scan(self, n, separation, monkeypatch):
        args = (n, 9.0, (1.0, 4.0), 5)
        unconstrained = _placement(random_topology, *args, wake_window=2)
        monkeypatch.setattr(topology, "_MIN_SEPARATION", separation)
        fast = _placement(random_topology, *args, wake_window=2)
        assert fast == _placement(brute_random_topology, *args, wake_window=2)
        if not isinstance(fast, str):
            # a redraw shifts the random stream, so some position differs
            assert [p[1:3] for p in fast] != [p[1:3] for p in unconstrained]

    def test_unreachable_separation_fails_in_both(self, monkeypatch):
        monkeypatch.setattr(topology, "_MIN_SEPARATION", 2.0)  # beyond the diagonal
        for build in (random_topology, brute_random_topology):
            with pytest.raises(ValueError, match="could not place nodes"):
                build(2, 3.0, (1.0, 2.0), seed=0)

    @pytest.mark.parametrize("kwargs,name", [
        ({"side": math.inf}, "side"),
        ({"side": math.nan}, "side"),
        ({"side": 0.0}, "side"),
        ({"side": -1.0}, "side"),
        ({"power_range": (1.0, math.inf)}, "power_range"),
        ({"power_range": (math.nan, 2.0)}, "power_range"),
        ({"n": 2.5}, "n"),
        ({"n": 0}, "n"),
        ({"n": -3}, "n"),
        ({"wake_window": 1.5}, "wake_window"),
        ({"wake_window": -1}, "wake_window"),
    ])
    def test_bad_arguments_are_named(self, kwargs, name):
        args = {"n": 4, "side": 5.0, "power_range": (1.0, 2.0), "seed": 0, **kwargs}
        with pytest.raises(ValueError, match=f"^{name} "):
            random_topology(**args)


class TestTopologyFile:
    def test_round_trip_is_value_identical(self, tmp_path):
        net = random_topology(10, 5.0, (1.0, 4.0), seed=13)
        path = tmp_path / "topo.json"
        save_topology(net, str(path))
        back = load_topology(str(path))
        assert back.ids == net.ids
        assert np.array_equal(back.positions, net.positions)
        assert np.array_equal(back.powers, net.powers)
        assert back.params == net.params
        # serialize again: byte-identical
        path2 = tmp_path / "topo2.json"
        save_topology(back, str(path2))
        assert path.read_bytes() == path2.read_bytes()

    def test_missing_field_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"params": {}, "nodes": []}))
        with pytest.raises(ValueError, match="misses field"):
            load_topology(str(path))

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_constant_is_refused(self, tmp_path, constant):
        net = uniform_topology(3, 4.0, 2.0, seed=1)
        path = tmp_path / "t.json"
        save_topology(net, str(path))
        text = path.read_text().replace('"power": 2.0', f'"power": {constant}', 1)
        assert constant in text
        path.write_text(text)
        with pytest.raises(ValueError, match=f"non-finite number {constant}") as info:
            load_topology(str(path))
        assert str(path) in str(info.value)

    def test_malformed_json_names_the_file(self, tmp_path):
        path = tmp_path / "cut.json"
        path.write_text('{"params": ')
        with pytest.raises(ValueError, match="is not valid JSON") as info:
            load_topology(str(path))
        assert str(path) in str(info.value)

    def test_optional_sleep_slot_round_trips(self, tmp_path):
        net = uniform_topology(3, 4.0, 2.0, seed=1)
        doc_path = tmp_path / "t.json"
        save_topology(net, str(doc_path))
        doc = json.loads(doc_path.read_text())
        doc["nodes"][0]["sleep_slot"] = 500
        doc_path.write_text(json.dumps(doc))
        back = load_topology(str(doc_path))
        assert back.node(0).sleep_slot == 500


GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_NETWORKS = {
    "uniform6": lambda: uniform_topology(6, 3.0, 4.0, seed=2),
    # mixed powers and a thin margin: the 0.75 power level no longer reaches
    # the edge of the broadcasting range, so the moment of the drop matters
    "mixed12": lambda: random_topology(
        12, 5.0, (1.0, 4.0), seed=3,
        params=NetworkParams.exact(alpha=3.0, beta=1.0, delta=1.2),
    ),
}
GOLDEN_RUNS = {
    "slowstart": lambda net: run_slow_start(net, [0, 1]),
    "varpower": lambda net: run_variable_power(net, [0, 1], scale=0.05),
}
COLORING_PARAMS = NetworkParams.exact(alpha=3.0, beta=1.0, delta=2.0, c_whp=1.5)
COLORING_NETWORKS = {
    "mixed10": lambda: random_topology(10, 5.0, (1.0, 4.0), seed=3, params=COLORING_PARAMS),
    "async10": lambda: random_topology(
        10, 5.0, (1.0, 4.0), seed=4, params=COLORING_PARAMS, wake_window=3000
    ),
    # halo-free power levels, as acceptance 08 uses for MIS
    "line12": lambda: line_topology(
        12, [2 * 1.2**3, 2 * 2.2**3], seed=1, jitter=0.01, params=COLORING_PARAMS
    ),
}
COLORING_GOLDEN_CASES = [
    ("coloring", "mixed10"), ("coloring", "async10"),
    ("churn", "mixed10"), ("churn", "async10"), ("mis", "line12"),
]


def coloring_golden_run(case, topo, monkeypatch):
    """The report of a reduced-scale coloring, churn or MIS run on two
    seeds, and one sha256 over every machine's log, color and colored_at
    in every seed's trace."""
    import sinrsim.experiment as experiment

    traces = []
    simulate = experiment.run_simulation

    def keep(*args, **kwargs):
        traces.append(simulate(*args, **kwargs))
        return traces[-1]

    monkeypatch.setattr(experiment, "run_simulation", keep)
    report = run_coloring(
        COLORING_NETWORKS[topo](), [0, 1], mis=case == "mis", scale=0.2,
        forced_resignations=1 if case == "churn" else 0,
    )
    state = [
        (trace.seed, v, m.log, m.color, m.colored_at)
        for trace in traces for v, m in sorted(trace.machines.items())
    ]
    return report, hashlib.sha256(repr(state).encode()).hexdigest() + "\n"


def write_uniform4(tmp_path) -> str:
    topo = tmp_path / "net.json"
    main([
        "generate", "--preset", "uniform", "--n", "4", "--side", "2",
        "--power", "4", "--seed", "1", "-o", str(topo),
    ])
    return str(topo)


class TestReports:
    @pytest.fixture()
    def small_report(self):
        net = uniform_topology(6, 3.0, 4.0, seed=2)
        return run_fixed_broadcast(net, seeds=[0, 1])

    def test_csv_schema_is_stable(self, small_report):
        text = small_report.to_csv()
        header = text.splitlines()[0]
        assert header == "seed,node_id,protocol,success,first_success_slot,budget"
        assert len(text.splitlines()) == 1 + 12  # 2 seeds x 6 nodes

    def test_rerun_is_byte_identical(self):
        net = uniform_topology(6, 3.0, 4.0, seed=2)
        a = run_fixed_broadcast(net, seeds=[5]).to_csv()
        b = run_fixed_broadcast(net, seeds=[5]).to_csv()
        assert a == b

    def test_matches_golden_file(self):
        """Freezes rows across releases; regenerate deliberately if the
        engine's draw order ever changes."""
        import pathlib

        net = uniform_topology(6, 3.0, 4.0, seed=2)
        csv_text = run_fixed_broadcast(net, seeds=[0, 1]).to_csv()
        golden = pathlib.Path(__file__).parent / "golden" / "fixed_broadcast_rows.csv"
        assert csv_text == golden.read_text()

    @pytest.mark.parametrize("topo", sorted(GOLDEN_NETWORKS))
    @pytest.mark.parametrize("case", sorted(GOLDEN_RUNS))
    def test_protocol_matches_golden_files(self, case, topo):
        """Slow-start and variable-power rows and summaries, frozen like
        the fixed-broadcast golden file."""
        report = GOLDEN_RUNS[case](GOLDEN_NETWORKS[topo]())
        assert report.to_csv() == (GOLDEN / f"{case}_{topo}.csv").read_text()
        assert report_summary(report) + "\n" == (GOLDEN / f"{case}_{topo}.txt").read_text()

    @pytest.mark.parametrize("case,topo", COLORING_GOLDEN_CASES)
    def test_coloring_matches_golden_files(self, case, topo, monkeypatch):
        """Coloring, churn and MIS rows, summaries and machine logs, frozen
        like the broadcast golden files; the logs pin every protocol event,
        which the rows alone summarize."""
        report, digest = coloring_golden_run(case, topo, monkeypatch)
        assert report.ok
        assert report.to_csv() == (GOLDEN / f"{case}_{topo}.csv").read_text()
        assert report_summary(report) + "\n" == (GOLDEN / f"{case}_{topo}.txt").read_text()
        assert digest == (GOLDEN / f"{case}_{topo}.sha256").read_text()

    def test_summary_mentions_success_rate(self, small_report):
        text = report_summary(small_report)
        assert "success 100.0%" in text
        assert "[PASS]" in text

    def test_summary_names_failures(self):
        net = uniform_topology(6, 3.0, 4.0, seed=2)
        report = run_fixed_broadcast(net, seeds=[0])
        # doctor a failing row: (seed, node, protocol, success, first, budget)
        report.rows[3] = (0, 3, "fixed", False, None, report.rows[3][5])
        report.verdicts.clear()
        report.add_verdict("all nodes broadcast within budget", False, "11/12")
        text = report_summary(report)
        assert "[FAIL]" in text
        assert "node 3" in text

    @pytest.mark.parametrize("mis, problem", [(False, "uncolored nodes"),
                                              (True, "undecided nodes")])
    def test_failing_validator_names_its_first_problem(self, mis, problem, monkeypatch):
        import sinrsim.experiment as experiment

        simulate = experiment.run_simulation

        def first_slot_only(network, factory, *, max_slots, seed, **kwargs):
            # nobody is colored after one slot
            return simulate(network, factory, max_slots=1, seed=seed, **kwargs)

        monkeypatch.setattr(experiment, "run_simulation", first_slot_only)
        net = COLORING_NETWORKS["mixed10"]()
        report = run_coloring(net, [3, 4], mis=mis, scale=0.2)
        assert report.verdicts[0] == (
            "validator", False, f"seed 3: {problem}: {list(net.ids)[:8]}"
        )
        assert f"[FAIL] validator -- seed 3: {problem}: [" in report_summary(report)

    def test_exit_contract(self, small_report):
        assert small_report.ok
        small_report.add_verdict("synthetic", False)
        assert not small_report.ok


class TestExperimentConfig:
    NET = uniform_topology(4, 2.0, 4.0, seed=0)

    def test_empty_seeds_rejected(self):
        with pytest.raises(ValueError, match="seeds"):
            ExperimentConfig(protocol="fixed", network=self.NET, seeds=())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError, match="protocol"):
            ExperimentConfig(protocol="frisbee", network=self.NET, seeds=(1,))

    @pytest.mark.parametrize("field,value", [
        ("forced_resignations", -1),
        ("forced_resignations", 1.5),
        ("forced_resignations", 1),  # the fixed protocol has no resignation script
        ("slow_start_budget_constant", float("nan")),
        ("slow_start_budget_constant", float("inf")),
        ("slow_start_budget_constant", 0.0),
    ])
    def test_bad_protocol_constant_rejected(self, field, value):
        # slow start alone reads the budget constant; the rest run on fixed
        protocol = "slowstart" if field == "slow_start_budget_constant" else "fixed"
        with pytest.raises(ValueError, match=field) as info:
            ExperimentConfig(protocol=protocol, network=self.NET, **{field: value})
        assert repr(value) in str(info.value)

    @pytest.mark.parametrize("protocol", ["fixed", "varpower", "coloring", "mis"])
    def test_budget_constant_only_for_slowstart(self, protocol):
        rule = f"slow_start_budget_constant must be unset for protocol '{protocol}', got 64.0"
        with pytest.raises(ValueError, match=rule):
            ExperimentConfig(protocol=protocol, network=self.NET, slow_start_budget_constant=64.0)
        ExperimentConfig(protocol="slowstart", network=self.NET, slow_start_budget_constant=64.0)

    def test_unset_budget_constant_is_64(self):
        config = ExperimentConfig(protocol="slowstart", network=self.NET, scale=0.05)
        rows = run_experiment(config).rows
        assert rows == run_slow_start(self.NET, [0], scale=0.05).rows
        assert rows == run_slow_start(self.NET, [0], scale=0.05, budget_constant=64.0).rows

    @pytest.mark.parametrize("protocol", ["fixed", "slowstart", "varpower", "mis"])
    def test_resignations_only_for_coloring(self, protocol):
        rule = f"forced_resignations must be 0 for protocol '{protocol}', got 2"
        with pytest.raises(ValueError, match=rule):
            ExperimentConfig(protocol=protocol, network=self.NET, forced_resignations=2)
        ExperimentConfig(protocol="coloring", network=self.NET, forced_resignations=2)

    def test_mis_run_refuses_resignations(self):
        with pytest.raises(ValueError, match="forced_resignations"):
            run_coloring(self.NET, [0], mis=True, forced_resignations=1)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, 1.5, -1.0])
    def test_bad_scale_names_the_value(self, value):
        with pytest.raises(ValueError, match="^scale ") as info:
            ExperimentConfig(protocol="fixed", network=self.NET, scale=value)
        assert str(info.value).endswith(f"got {value!r}")

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_bad_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seeds") as info:
            ExperimentConfig(protocol="fixed", network=self.NET, seeds=(0, seed))
        assert repr(seed) in str(info.value)

    def test_runs_and_writes_outputs(self, tmp_path):
        net = uniform_topology(6, 3.0, 4.0, seed=2)
        csv_path = tmp_path / "rows.csv"
        report = run_experiment(
            ExperimentConfig(
                protocol="fixed",
                network=net,
                seeds=(0,),
                csv_path=str(csv_path),
            )
        )
        assert report.ok
        assert csv_path.read_text().startswith("seed,node_id")


class TestMonitor:
    def test_detects_budget_violation(self):
        net = uniform_topology(4, 2.0, 4.0, seed=3)
        monitor = RegionBudgetMonitor(net, limit=0.5)
        monitor(7, [(i, 0.2, 0.2) for i in range(net.n)])
        assert monitor.violations  # all four nodes share one region: 0.8 > 0.5
        slot, _region, value = monitor.violations[0]
        assert slot == 7 and value > 0.5

    def test_quiet_until_limit(self):
        net = uniform_topology(4, 2.0, 4.0, seed=3)
        monitor = RegionBudgetMonitor(net, limit=0.9)
        monitor(1, [(i, 0.2, 0.0) for i in range(net.n)])
        assert not monitor.violations
        assert monitor.peak == pytest.approx(0.8)


class TestAnalyze:
    def test_report_fields(self):
        net = uniform_topology(8, 4.0, 4.0, seed=5)
        report = analyze_network(net)
        for key in (
            "region_cap", "prob", "region_sum_max",
            "proximity_silence", "far_interference",
            "silence_min", "interference_max", "far_interference_margin",
        ):
            assert key in report
        assert report["silence_min"] >= 0.25
        assert report["interference_max"] <= report["far_interference_margin"]


class TestHaloPairs:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_pairwise_count(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 30))
        params = NetworkParams(
            alpha_lo=2.9, alpha_hi=3.1, alpha_true=3.0,
            beta_lo=1.0, beta_hi=1.5, beta_true=1.2,
            noise_lo=0.5, noise_hi=1.0, noise_true=0.8,
            delta=2.0, c_whp=2.0,
        ) if seed % 2 else NetworkParams.exact(alpha=3.0)
        side = float(rng.uniform(1.0, 10.0))
        net = random_topology(n, side, (1.0, 8.0), seed=seed, params=params)
        assert halo_pair_count(net) == brute_halo_pair_count(net)


class TestCli:
    def test_generate_analyze_run(self, tmp_path, capsys):
        topo = tmp_path / "net.json"
        assert main([
            "generate", "--preset", "uniform", "--n", "8", "--side", "4",
            "--power", "4", "--seed", "3", "-o", str(topo),
        ]) == 0
        assert main(["analyze", "--topology", str(topo)]) == 0
        payload = json.loads(capsys.readouterr().out.split("wrote")[0] or "{}") if False else None
        csv_path = tmp_path / "rows.csv"
        code = main([
            "run-broadcast", "--protocol", "fixed", "--topology", str(topo),
            "--seeds", "2", "--csv", str(csv_path),
        ])
        assert code == 0
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("seed,node_id,protocol")

    def test_failing_run_exits_nonzero(self, tmp_path):
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "8", "--side", "4",
            "--power", "4", "--seed", "3", "-o", str(topo),
        ])
        # a near-zero scale shreds the budget: nobody can finish
        code = main([
            "run-broadcast", "--protocol", "fixed", "--topology", str(topo),
            "--seeds", "1", "--scale", "0.0001",
        ])
        assert code == 1

    def test_coloring_cli_round(self, tmp_path):
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "4", "--side", "2.2",
            "--power", "4", "--seed", "1", "-o", str(topo),
        ])
        csv_path = tmp_path / "colors.csv"
        assert main([
            "run-coloring", "--topology", str(topo), "--seeds", "1",
            "--csv", str(csv_path),
        ]) == 0
        header = csv_path.read_text().splitlines()[0]
        assert header == "seed,node_id,final_color,colored_at_slot,competes_visited,resigned_count"

    def test_mis_cli(self, tmp_path):
        # tight cluster: every pairwise distance is well inside the
        # broadcasting range, so receptions stay on graph edges
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "4", "--side", "0.8",
            "--power", "4", "--seed", "1", "-o", str(topo),
        ])
        assert main(["run-mis", "--topology", str(topo), "--seeds", "1"]) == 0

    @pytest.mark.parametrize("command", ["run-broadcast", "run-mis"])
    def test_seeds_below_one_is_a_one_line_error(self, command, tmp_path, capsys):
        argv = [command, "--topology", write_uniform4(tmp_path), "--seeds", "0"]
        if command == "run-broadcast":
            argv += ["--protocol", "fixed"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert "--seeds" in err and "0" in err, err

    @pytest.mark.parametrize("argv,words", [
        (["run-coloring", "--forced-resignations", "-1"], ["forced_resignations", "-1"]),
        (["run-broadcast", "--protocol", "slowstart", "--budget-constant", "nan"],
         ["slow_start_budget_constant", "nan"]),
        # slow start alone reads the constant, so any other protocol refuses it
        (["run-broadcast", "--protocol", "fixed", "--budget-constant", "0.001"],
         ["slow_start_budget_constant", "'fixed'", "0.001"]),
    ])
    def test_bad_protocol_constant_flags_are_a_one_line_error(
        self, argv, words, tmp_path, capsys
    ):
        argv = [*argv, "--topology", write_uniform4(tmp_path)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert all(word in err for word in words), err

    @pytest.mark.parametrize("command", ["run-broadcast", "run-coloring"])
    def test_bad_scale_is_a_one_line_error(self, command, tmp_path, capsys):
        argv = [command, "--topology", write_uniform4(tmp_path), "--scale", "nan"]
        if command == "run-broadcast":
            argv += ["--protocol", "fixed"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert "scale" in err and "nan" in err, err

    def test_negative_seed_base_is_a_one_line_error(self, tmp_path, capsys):
        argv = ["run-broadcast", "--protocol", "fixed", "--topology", write_uniform4(tmp_path),
                "--seed-base", "-3"]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert "seeds" in err and "-3" in err, err

    def test_bad_topology_file_is_a_one_line_error(self, tmp_path, capsys):
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "4", "--side", "2",
            "--power", "4", "--seed", "1", "-o", str(topo),
        ])
        doc = json.loads(topo.read_text())
        doc["nodes"][0]["power"] = float("nan")
        topo.write_text(json.dumps(doc))  # writes the bare token NaN
        capsys.readouterr()
        assert main(["analyze", "--topology", str(topo)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and "NaN" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("edit,words", [
        (lambda doc: doc["nodes"][1].update(x="0.0"), ["node 1: x", "'0.0'"]),
        (lambda doc: doc["nodes"][2].update(id=[2]), ["node [2]: id", "integer"]),
        (lambda doc: doc.update(nodes={"0": doc["nodes"][0]}), ["FILE", "nodes", "list"]),
        (lambda doc: doc.update(params=[]), ["FILE", "params", "object"]),
        (lambda doc: doc["nodes"][0].update(wake_slot=None), ["node 0: wake_slot", "None"]),
        (lambda doc: doc["nodes"][2].update(wake=500), ["FILE", "node 2", "unknown", "'wake'"]),
        (lambda doc: doc["params"].update(nosie_lo=1.0), ["FILE", "params", "'nosie_lo'"]),
    ], ids=["string-coordinate", "list-id", "nodes-object", "params-list", "null-wake-slot",
            "unknown-node-key", "unknown-params-key"])
    def test_malformed_topology_is_a_one_line_error(self, edit, words, tmp_path, capsys):
        topo = write_uniform4(tmp_path)
        doc = json.loads(pathlib.Path(topo).read_text())
        edit(doc)
        pathlib.Path(topo).write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["analyze", "--topology", topo]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert all(word.replace("FILE", topo) in err for word in words), err

    def test_missing_topology_file_is_a_one_line_error(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["analyze", "--topology", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and "absent.json" in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv,words", [
        (["--preset", "random", "--n", "4", "--side", "inf"], ["side", "inf"]),
        (["--preset", "random", "--n", "4", "--power-hi", "nan"], ["power_range", "nan"]),
        (["--preset", "random", "--power", "2"], ["'random'", "--power"]),
        (["--preset", "grid", "--n", "4"], ["'grid'", "--n"]),
        (["--preset", "clique", "--side", "3"], ["'clique'", "--side"]),
        (["--preset", "chain", "--power-lo", "1"], ["'chain'", "--power-lo"]),
    ])
    def test_bad_generate_flags_are_a_one_line_error(self, argv, words, tmp_path, capsys):
        out = tmp_path / "net.json"
        assert main(["generate", *argv, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert all(word in err for word in words), err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["random:-5", "random:abc", "bogus"])
    @pytest.mark.parametrize("command", ["run-coloring", "run-mis"])
    def test_bad_async_wakeup_is_a_one_line_error(self, command, mode, tmp_path, capsys):
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "4", "--side", "2",
            "--power", "4", "--seed", "1", "-o", str(topo),
        ])
        capsys.readouterr()
        argv = [command, "--topology", str(topo), "--async-wakeup", mode]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("sinrsim: error: ") and err.count("\n") == 1
        assert "--async-wakeup" in err and repr(mode) in err, err

    def test_report_subcommand(self, tmp_path, capsys):
        topo = tmp_path / "net.json"
        main([
            "generate", "--preset", "uniform", "--n", "6", "--side", "3",
            "--power", "4", "--seed", "2", "-o", str(topo),
        ])
        csv_path = tmp_path / "rows.csv"
        main([
            "run-broadcast", "--protocol", "fixed", "--topology", str(topo),
            "--seeds", "1", "--csv", str(csv_path),
        ])
        capsys.readouterr()
        assert main(["report", "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "success 100.0%" in out


class TestTraceExport:
    def test_jsonl_records(self, tmp_path):
        from sinrsim.broadcast import FixedProbBroadcaster
        from sinrsim.engine import TraceConfig, run_simulation

        net = uniform_topology(4, 2.0, 4.0, seed=8)
        trace = run_simulation(
            net,
            lambda n: FixedProbBroadcaster(n, prob=0.3, budget=50),
            max_slots=52,
            seed=0,
            trace=TraceConfig(record_outcomes=True),
        )
        path = tmp_path / "trace.jsonl"
        trace.export_jsonl(str(path))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert lines, "expected at least one record"
        for record in lines:
            assert {"slot", "sender", "kind"} <= set(record)
            assert record["kind"] == "Broadcast"
        assert any("listener" in record for record in lines)

    def test_truncated_trace_warns(self, tmp_path, monkeypatch):
        import sinrsim.experiment as experiment

        net = uniform_topology(4, 2.0, 4.0, seed=8)
        path = tmp_path / "trace.jsonl"
        monkeypatch.setattr(experiment, "_TRACE_OUTCOME_LIMIT", 5)
        with pytest.warns(RuntimeWarning, match="first 5 eventful slots"):
            run_fixed_broadcast(net, [0, 1], trace_path=str(path))
        slots = {json.loads(line)["slot"] for line in path.read_text().splitlines()}
        assert len(slots) == 5

    def test_coloring_trace_is_the_first_seeds_run(self, tmp_path):
        from sinrsim.analysis import region_probability_cap
        from sinrsim.coloring import ColoringConstants, ColoringMachine
        from sinrsim.engine import TraceConfig, run_simulation

        net = COLORING_NETWORKS["mixed10"]()
        path = tmp_path / "trace.jsonl"
        run_coloring(net, [0, 1], scale=0.2, trace_path=str(path))

        cap = region_probability_cap(net.params, net.range_ratio, net.n)
        k = ColoringConstants.derive(
            net.params, cap, net.max_degree, net.range_ratio, net.n, 0.2
        )
        direct = run_simulation(
            net, lambda node: ColoringMachine(node, k),
            2 * k.termination_budget(net.longest_chain) + 16, 0,
            trace=TraceConfig(record_outcomes=True),
        )
        expected = tmp_path / "direct.jsonl"
        direct.export_jsonl(str(expected))
        # a byte comparison: pytest's diff of two long texts takes minutes
        assert expected.stat().st_size and filecmp.cmp(path, expected, shallow=False)


class TestBenchmarkLookups:
    def test_traced_names_resolve(self):
        """perfbench/run.py finds these by name at runtime, and its traced
        pass wraps several of them; a move that drops one breaks
        `--trace 1` without failing any other test."""
        import sinrsim
        import sinrsim.experiment as ex

        for name in (
            "verify_local_broadcast", "validate_coloring", "halo_pair_count",
            "expected_far_interference", "proximity_silence_probability",
            "run_simulation", "run_experiment", "analyze_network",
        ):
            assert callable(getattr(ex, name)), name
        assert callable(ex.RegionBudgetMonitor.__call__)
        fields = {f.name for f in dataclasses.fields(ex.ExperimentConfig)}
        assert {"protocol", "network", "seeds", "scale", "slow_start_budget_constant"} <= fields
        # the traced pass wraps only the methods a class defines itself, so
        # a callback moved into a base class would silently count 0 calls
        for cls, methods in (
            (sinrsim.FixedProbBroadcaster, ("wake", "poll", "on_transmit")),
            (sinrsim.SlowStartBroadcaster, ("wake", "poll", "on_receive", "on_transmit")),
            (sinrsim.ColoringMachine, ("wake", "poll", "on_receive", "on_transmit")),
        ):
            for method in methods:
                assert method in cls.__dict__, (cls.__name__, method)
        for name in (
            "resolve_slot", "TraceConfig", "FixedProbBroadcaster", "SlowStartBroadcaster",
            "ColoringMachine", "random_topology",
        ):
            assert callable(getattr(sinrsim, name)), name
        assert callable(sinrsim.NetworkParams.exact)

        # the traced pass's layer counts: a run recorded with outcomes, and
        # one multi-transmission slot replayed through the reference
        # resolver over the nodes `awake_at` that slot
        net = random_topology(8, 2.0, (1.0, 4.0), seed=1, wake_window=5)
        sim = ex.run_simulation(
            net, lambda node: sinrsim.FixedProbBroadcaster(node, prob=0.3, budget=60),
            70, 0, trace=sinrsim.TraceConfig(record_outcomes=True),
        )
        assert sim.n_slots > 0 and sim.eventful_slots == len(sim.outcomes)
        multi = [o for o in sim.outcomes if len(o.transmissions) > 1]
        assert multi and sum(len(o.receptions) for o in sim.outcomes) > 0
        outcome = multi[0]
        awake = {v for v in net.ids if net.awake_at(v, outcome.slot)}
        ref = sinrsim.resolve_slot(net, list(outcome.transmissions), awake=awake)
        got = sorted((listener, tx.sender) for listener, tx in outcome.receptions)
        assert got == sorted((listener, tx.sender) for listener, tx in ref.receptions)
        # it also counts awake listeners from each node's wake and sleep slot
        assert all(0 <= node.wake_slot <= 5 and node.sleep_slot is None for node in net.nodes)


ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_committed_bench_files_are_sound():
    """Every committed BENCH_*.json trajectory file holds a correct run
    without failed trials on both sides, and only metrics the benchmark
    defines, named `<workload>.<metric>`."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in spec["workloads"]}
    metrics = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths
    for path in paths:
        doc = json.loads(path.read_text())
        for side in ("parent", "change"):
            result = doc[side]["result"]
            assert result["correct"] is True and result["failed"] == 0, (path.name, side)
            assert result["metrics"], (path.name, side)
            for name in result["metrics"]:
                workload, _, metric = name.partition(".")
                assert workload in workloads and metric in metrics, (path.name, side, name)
