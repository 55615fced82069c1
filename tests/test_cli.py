"""Config parsing, CSV emission, manifests, and command determinism."""

import json
import warnings

import numpy as np
import pytest

from cavitychain import __version__
from cavitychain.cli import (
    ConfigError,
    RunSetup,
    main,
    parse_config,
    serialize_run,
)
from cavitychain.experiments import SweepAxis
from cavitychain.model import (
    ChainConfig,
    DephasingModel,
    DephasingTarget,
    InitialState,
    SinkCoupling,
)


def test_parse_minimal_defaults():
    setup = parse_config("n_atoms=2\n")
    chain = setup.chain
    assert chain.n_atoms == 2
    assert chain.omega_a == 0.1 and chain.omega_p == 0.1 and chain.omega_g == 0.01
    assert chain.k == 0.0 and chain.mu == 0.0
    assert setup.axis1 is None and setup.objective_kind is None


def test_parse_one_line_transport_config():
    setup = parse_config("n_atoms=2 k=1.0 mu=1.0 rate_in=1.5 rate_out=1.5")
    assert setup.chain == ChainConfig(
        n_atoms=2, k=1.0, mu=1.0, rate_in=1.5, rate_out=1.5
    )


def test_parse_comments_and_blank_lines():
    text = "# transport study\n\nn_atoms=1  # one site\nmu=0.8\n"
    assert parse_config(text).chain.mu == 0.8


@pytest.mark.parametrize(
    "text,needle",
    [
        ("n_atoms=2 bogus=1", "bogus"),
        ("n_atoms=2 n_atoms=3", "duplicate"),
        ("k=1.0", "n_atoms"),
        ("n_atoms=two", "n_atoms"),
        ("n_atoms=2 k=fast", "k"),
        ("n_atoms=2 dephasing=sometimes", "dephasing"),
        ("n_atoms=2 rate_in=-1", "rate_in"),
        ("n_atoms=2 k", "key=value"),
        ("n_atoms=2 axis1_values=1,2", "axis1_param"),
        ("n_atoms=2 axis2_param=g axis2_values=1,2", "axis1"),
        ("n_atoms=2 axis1_param=omega_a axis1_values=1,2", "axis1"),
        ("n_atoms=2 axis1_param=k axis1_values=2,1", "axis1"),
        ("n_atoms=2 objective=sink_at_time", "objective_time"),
        ("n_atoms=2 objective=minimize", "objective"),
        ("n_atoms=2 objective_time=0", "objective_time"),
        ("n_atoms=2 max_quanta=0 initial_state=photon1", "max_quanta"),
        ("n_atoms=2 k=inf", "k"),
        ("n_atoms=2 max_quanta=2 phonon_cap=-1", "^phonon_cap:"),
        ("n_atoms=2 max_quanta=-1", "^max_quanta: must be >= 0"),
    ],
)
def test_parse_errors_name_the_key(text, needle):
    with pytest.raises(ConfigError, match=needle):
        parse_config(text)


def test_parse_enum_spellings():
    setup = parse_config("n_atoms=1 g=0.4 dephasing=UnitaryPhonon")
    assert setup.chain.dephasing is DephasingModel.UNITARY_PHONON
    setup = parse_config("n_atoms=1 sink_coupling=EXCITON")
    assert setup.chain.sink_coupling is SinkCoupling.LAST_EXCITON


def test_parse_unitary_without_g_warns_decoupled():
    with pytest.warns(UserWarning, match="decoupled"):
        parse_config("n_atoms=1 dephasing=unitary")


def test_parse_window_keys():
    setup = parse_config("n_atoms=3 rate_in=0.5 max_quanta=2 phonon_cap=0")
    assert (setup.chain.max_quanta, setup.chain.phonon_cap) == (2, 0)
    # defaults fill the missing half of the pair
    setup = parse_config("n_atoms=3 rate_in=0.5 phonon_cap=2")
    assert (setup.chain.max_quanta, setup.chain.phonon_cap) == (7, 2)


def test_serialize_round_trip_simple():
    setup = parse_config("n_atoms=2 k=1.0 mu=1.0 rate_in=1.5 rate_out=1.5")
    assert parse_config(serialize_run(setup)) == setup
    # numpy scalars from a library caller write as plain numbers
    chain = ChainConfig(n_atoms=np.int64(2), k=np.float64(0.7), max_quanta=np.int64(3))
    assert parse_config(serialize_run(RunSetup(chain))) == RunSetup(chain)


def test_serialize_round_trip_randomized():
    rng = np.random.default_rng(7)
    params = ("rate_in", "rate_out", "k", "mu", "g")

    def draw_enum(kind):
        # a member or its value string, which ChainConfig turns into the member
        member = list(kind)[int(rng.integers(len(kind)))]
        return member.value if rng.random() < 0.5 else member

    for _ in range(20):
        chain = ChainConfig(
            n_atoms=int(rng.integers(1, 4)),
            k=float(rng.uniform(0, 2)),
            mu=float(rng.uniform(0, 2)),
            g=float(rng.uniform(0.1, 2)),
            rate_in=float(rng.choice([0.0, rng.uniform(0.1, 2)])),
            rate_out=float(rng.uniform(0, 2)),
            cavity_loss=float(rng.choice([0.0, 0.3])),
            dephasing=draw_enum(DephasingModel),
            sink_coupling=draw_enum(SinkCoupling),
            dephasing_target=draw_enum(DephasingTarget),
            initial_state=draw_enum(InitialState),
            max_quanta=int(rng.integers(1, 5)),
            phonon_cap=int(rng.integers(0, 3)),
        )
        axis1 = None
        axis2 = None
        if rng.random() < 0.7:
            values = np.sort(rng.uniform(0.05, 3, size=int(rng.integers(1, 5))))
            axis1 = SweepAxis(str(rng.choice(params)), tuple(float(v) for v in values))
            if rng.random() < 0.5:
                others = [p for p in params if p != axis1.param]
                axis2 = SweepAxis(str(rng.choice(others)), (0.1, 0.9))
        objective_kind = None
        objective_time = None
        if rng.random() < 0.5:
            objective_kind = str(rng.choice(["time_to_reach", "sink_at_time"]))
            if objective_kind == "sink_at_time":
                objective_time = float(rng.uniform(1, 50))
        setup = RunSetup(
            chain=chain,
            axis1=axis1,
            axis2=axis2,
            objective_kind=objective_kind,
            objective_time=objective_time,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert parse_config(serialize_run(setup)) == setup


def run_cli(*argv):
    return main(list(argv))


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def test_evolve_jc_trajectory(tmp_path):
    config = write_config(tmp_path, "n_atoms=1 mu=0.8\n")
    out = tmp_path / "jc"
    assert run_cli("evolve", "--config", config, "--out", str(out), "--t-max", "5") == 0
    header, rows = read_rows(tmp_path / "jc.csv")
    assert header == ["time", "sink", "photon_1", "exciton_1", "trace", "min_eig_flag"]
    assert len(rows) == 501
    times = np.array([float(r[0]) for r in rows])
    sink = np.array([float(r[1]) for r in rows])
    exciton = np.array([float(r[3]) for r in rows])
    trace = np.array([float(r[4]) for r in rows])
    assert np.all(sink == 0.0)
    np.testing.assert_allclose(exciton, np.sin(0.8 * times) ** 2, atol=1e-8)
    assert np.max(np.abs(trace - 1.0)) <= 1e-8
    assert all(r[5] == "0" for r in rows)


def test_evolve_sampling_row_count(tmp_path):
    config = write_config(tmp_path, "n_atoms=1 mu=0.8\n")
    out = tmp_path / "sampled"
    assert (
        run_cli(
            "evolve", "--config", config, "--out", str(out),
            "--t-max", "5", "--sample-every", "50",
        )
        == 0
    )
    _, rows = read_rows(tmp_path / "sampled.csv")
    assert len(rows) == 11


def test_manifest_round_trips(tmp_path):
    config = write_config(tmp_path, "n_atoms=1 mu=0.8 rate_out=0.5\n")
    out = tmp_path / "traj"
    assert run_cli("evolve", "--config", config, "--out", str(out), "--t-max", "2") == 0
    manifest = json.loads((tmp_path / "traj.manifest.json").read_text())
    assert manifest["command"] == "evolve"
    assert manifest["version"] == __version__
    assert manifest["dt"] == 0.01
    assert manifest["duration_seconds"] > 0
    assert abs(manifest["max_trace_drift"]) < 1e-8
    reparsed = parse_config(manifest["config"])
    assert reparsed == parse_config((tmp_path / "run.cfg").read_text())


@pytest.mark.parametrize(
    "command,text,flags",
    [
        ("evolve", "n_atoms=2 k=0.8 mu=0.2 rate_out=1.0\n", ("--t-max", "1")),
        (
            "dat",
            "n_atoms=2 k=0.8 mu=0.2 objective_time=1\n"
            "axis1_param=rate_out axis1_values=0.5,1.0\n"
            "axis2_param=g axis2_values=0.0,0.3\n",
            (),
        ),
    ],
    ids=["evolve", "dat"],
)
def test_manifest_records_basis_and_sectors(tmp_path, command, text, flags):
    config = write_config(tmp_path, text)
    out = tmp_path / "run"
    assert run_cli(command, "--config", config, "--out", str(out), *flags) == 0
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert list(manifest)[-2:] == ["basis_dim", "sector_sizes"]
    assert ("cell_routes" in manifest) == (command != "evolve")
    assert manifest["basis_dim"] == 6
    # [N, sink, size]: the vacuum; a photon or exciton on either site; the sink
    assert manifest["sector_sizes"] == [[0, 0, 1], [1, 0, 4], [1, 1, 1]]


@pytest.mark.parametrize(
    "objective_time,routes",
    [("1", {"chunked": 6, "stepped": 0}), ("0.01", {"chunked": 0, "stepped": 6})],
    ids=["100 steps", "one step"],
)
def test_sweep_manifest_counts_cell_routes(tmp_path, objective_time, routes):
    config = write_config(
        tmp_path,
        "n_atoms=2 k=0.8 mu=0.2 rate_out=0.5\n"
        "axis1_param=rate_out axis1_values=0.4,0.8,1.2\n"
        "axis2_param=g axis2_values=0.0,0.3\n"
        f"objective=sink_at_time objective_time={objective_time}\n",
    )
    out = tmp_path / "scan"
    assert run_cli("sweep", "--config", config, "--out", str(out)) == 0
    manifest = json.loads((tmp_path / "scan.manifest.json").read_text())
    _, rows = read_rows(tmp_path / "scan.csv")
    assert sum(manifest["cell_routes"].values()) == len(rows) == 6
    assert manifest["cell_routes"] == routes


def test_sweep_csv_layout(tmp_path):
    config = write_config(
        tmp_path,
        "n_atoms=1 mu=0.8 rate_out=0.5\n"
        "axis1_param=rate_out axis1_values=0.4,0.8,1.2\n"
        "axis2_param=mu axis2_values=0.5,1.0\n"
        "objective=sink_at_time objective_time=3\n",
    )
    out = tmp_path / "scan"
    assert run_cli("sweep", "--config", config, "--out", str(out)) == 0
    header, rows = read_rows(tmp_path / "scan.csv")
    assert header == ["axis1", "axis2", "value", "capped"]
    assert len(rows) == 6
    assert [r[0] for r in rows] == ["0.4", "0.4", "0.8", "0.8", "1.2", "1.2"]
    assert [r[1] for r in rows] == ["0.5", "1", "0.5", "1", "0.5", "1"]
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows)
    assert all(r[3] == "0" for r in rows)


def test_sweep_single_axis_csv(tmp_path):
    config = write_config(
        tmp_path,
        "n_atoms=1 mu=0.8 rate_out=0.5\n"
        "axis1_param=rate_out axis1_values=0.4,0.8\n",
    )
    out = tmp_path / "line"
    assert (
        run_cli("sweep", "--config", config, "--out", str(out), "--t-max", "30") == 0
    )
    header, rows = read_rows(tmp_path / "line.csv")
    assert header == ["axis1", "value", "capped"]
    assert len(rows) == 2


def test_rerun_is_byte_identical(tmp_path):
    config = write_config(
        tmp_path,
        "n_atoms=2 k=1.0 mu=1.0 rate_in=1.5\n"
        "axis1_param=rate_in axis1_values=1.5\n"
        "axis2_param=rate_out axis2_values=1.0,1.5\n",
    )
    for name, workers in (("a", "1"), ("b", "3"), ("c", "1")):
        assert (
            run_cli(
                "bottleneck", "--config", config, "--out", str(tmp_path / name),
                "--workers", workers,
            )
            == 0
        )
    first = (tmp_path / "a.csv").read_bytes()
    assert (tmp_path / "b.csv").read_bytes() == first
    assert (tmp_path / "c.csv").read_bytes() == first


def test_dat_with_zero_g_axis_matches_plain_sweep(tmp_path):
    base = "n_atoms=1 mu=0.8 rate_out=0.5\n"
    dat_config = write_config(
        tmp_path,
        base
        + "axis1_param=rate_out axis1_values=0.5,1.0\n"
        + "axis2_param=g axis2_values=0.0\nobjective_time=3\n",
        name="dat.cfg",
    )
    sweep_config = write_config(
        tmp_path,
        base
        + "axis1_param=rate_out axis1_values=0.5,1.0\n"
        + "objective=sink_at_time objective_time=3\n",
        name="sweep.cfg",
    )
    assert run_cli("dat", "--config", dat_config, "--out", str(tmp_path / "dat")) == 0
    assert (
        run_cli("sweep", "--config", sweep_config, "--out", str(tmp_path / "plain"))
        == 0
    )
    _, dat_rows = read_rows(tmp_path / "dat.csv")
    _, sweep_rows = read_rows(tmp_path / "plain.csv")
    assert [r[2] for r in dat_rows] == [r[1] for r in sweep_rows]


def test_sweep_with_bottleneck_axes_matches_bottleneck(tmp_path):
    config = write_config(
        tmp_path,
        "n_atoms=1 mu=0.8 rate_in=1.0\n"
        "axis1_param=rate_in axis1_values=1.0\n"
        "axis2_param=rate_out axis2_values=0.5,1.0\n",
    )
    for command in ("bottleneck", "sweep"):
        out = str(tmp_path / command)
        argv = (command, "--config", config, "--out", out, "--t-max", "5", "--target", "0.3")
        assert run_cli(*argv) == 0
    _, rows = read_rows(tmp_path / "sweep.csv")
    assert [r[3] for r in rows] == ["0", "0"]  # both cells cross the target
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "bottleneck.csv").read_bytes()


def test_exit_codes_on_bad_input(tmp_path):
    bad_key = write_config(tmp_path, "n_atoms=2 bogus=1\n", name="bad.cfg")
    assert run_cli("evolve", "--config", bad_key, "--out", str(tmp_path / "x")) == 2
    missing = str(tmp_path / "nope.cfg")
    assert run_cli("evolve", "--config", missing, "--out", str(tmp_path / "x")) == 2
    no_time = write_config(tmp_path, "n_atoms=1 mu=0.8\n", name="no_time.cfg")
    assert run_cli("dat", "--config", no_time, "--out", str(tmp_path / "x")) == 2
    no_axis = write_config(tmp_path, "n_atoms=1 mu=0.8\n", name="no_axis.cfg")
    assert run_cli("sweep", "--config", no_axis, "--out", str(tmp_path / "x")) == 2
    pumped = write_config(
        tmp_path,
        "n_atoms=1 mu=0.8 rate_in=1.0 objective_time=3\n",
        name="pumped.cfg",
    )
    assert run_cli("dat", "--config", pumped, "--out", str(tmp_path / "x")) == 2
    undriven = write_config(
        tmp_path,
        "n_atoms=2 k=1.0 mu=1.0\n"
        "axis1_param=rate_in axis1_values=1.5\n"
        "axis2_param=rate_out axis2_values=1.0,1.5\n",
        name="undriven.cfg",
    )
    out = str(tmp_path / "undriven")
    assert run_cli("bottleneck", "--config", undriven, "--out", out, "--t-max", "20") == 2
    assert not (tmp_path / "undriven.csv").exists()
    ignored_g = write_config(
        tmp_path,
        "n_atoms=2 k=0.8 mu=0.2 rate_out=1.0 dephasing=none\n"
        "axis1_param=g axis1_values=0,0.5,1.0\n"
        "objective=sink_at_time objective_time=5\n",
        name="ignored_g.cfg",
    )
    out = str(tmp_path / "ignored_g")
    assert run_cli("sweep", "--config", ignored_g, "--out", out) == 2
    assert not (tmp_path / "ignored_g.csv").exists()


@pytest.mark.parametrize(
    "command,text",
    [
        (
            "bottleneck",
            "n_atoms=1 mu=0.8 rate_in=1.0 objective=sink_at_time objective_time=3\n"
            "axis1_param=rate_in axis1_values=1.0 axis2_param=rate_out axis2_values=0.5\n",
        ),
        (
            "bottleneck",
            "n_atoms=1 mu=0.8 rate_in=1.0 objective_time=3\n"
            "axis1_param=rate_in axis1_values=1.0 axis2_param=rate_out axis2_values=0.5\n",
        ),
        (
            "dat",
            "n_atoms=1 mu=0.8 objective=time_to_reach objective_time=3\n"
            "axis1_param=rate_out axis1_values=0.5 axis2_param=g axis2_values=0.0\n",
        ),
        (
            "sweep",
            "n_atoms=1 mu=0.8 rate_out=0.5 objective_time=3\n"
            "axis1_param=rate_out axis1_values=0.5\n",
        ),
        (
            "sweep",
            "n_atoms=1 mu=0.8 rate_out=0.5 objective=time_to_reach objective_time=3\n"
            "axis1_param=rate_out axis1_values=0.5\n",
        ),
    ],
    ids=[
        "bottleneck-sink_at_time",
        "bottleneck-objective_time",
        "dat-time_to_reach",
        "sweep-objective_time",
        "sweep-time_to_reach-objective_time",
    ],
)
def test_objective_the_command_does_not_run_is_rejected(tmp_path, capsys, command, text):
    config = write_config(tmp_path, text)
    out = tmp_path / "x"
    assert run_cli(command, "--config", config, "--out", str(out), "--t-max", "5") == 2
    assert "objective" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_workers_flag_must_be_positive(tmp_path):
    config = write_config(
        tmp_path,
        "n_atoms=1 mu=0.8 rate_out=0.5 objective=sink_at_time objective_time=1\n"
        "axis1_param=rate_out axis1_values=0.5\n",
    )
    with pytest.raises(SystemExit) as exited:
        run_cli("sweep", "--config", config, "--out", str(tmp_path / "x"), "--workers", "0")
    assert exited.value.code == 2


@pytest.mark.parametrize(
    "extra,args,needle",
    [
        (
            "objective=sink_at_time objective_time=3\n"
            "axis1_param=rate_out axis1_values=0.5,1.0\n",
            ("--target", "0.3"),
            "axis1_param",
        ),
        ("axis1_param=rate_out axis1_values=0.5,1.0\n", (), "axis1_param"),
        ("objective=time_to_reach\n", (), "objective"),
        ("objective_time=3\n", (), "objective_time"),
        ("", ("--target", "0.3"), "--target"),
    ],
    ids=["sweep-keys-and-target", "axis1", "objective", "objective_time", "target-flag"],
)
def test_evolve_rejects_what_it_does_not_read(tmp_path, capsys, extra, args, needle):
    config = write_config(tmp_path, "n_atoms=1 mu=0.8 rate_out=0.5\n" + extra)
    out = tmp_path / "x"
    argv = ("evolve", "--config", config, "--out", str(out), "--t-max", "1", *args)
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {needle}:")
    assert not (tmp_path / "x.csv").exists()


DAT_TEXT = (
    "n_atoms=1 mu=0.8 objective_time=3\n"
    "axis1_param=rate_out axis1_values=0.5 axis2_param=g axis2_values=0.0,0.5\n"
)
SINK_SWEEP_TEXT = (
    "n_atoms=1 mu=0.8 rate_out=0.5 objective=sink_at_time objective_time=3\n"
    "axis1_param=rate_out axis1_values=0.5\n"
)


@pytest.mark.parametrize(
    "command,text,flag,value",
    [
        ("dat", DAT_TEXT, "--t-max", "1"),
        ("dat", DAT_TEXT, "--target", "0.2"),
        ("sweep", SINK_SWEEP_TEXT, "--t-max", "1"),
        ("sweep", SINK_SWEEP_TEXT, "--target", "0.2"),
    ],
    ids=["dat-t-max", "dat-target", "sweep-sink_at_time-t-max", "sweep-sink_at_time-target"],
)
def test_flag_the_command_does_not_read_is_rejected(
    tmp_path, capsys, command, text, flag, value
):
    config = write_config(tmp_path, text)
    out = tmp_path / "x"
    assert run_cli(command, "--config", config, "--out", str(out), flag, value) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}:")
    assert not (tmp_path / "x.csv").exists()
    assert run_cli(command, "--config", config, "--out", str(out)) == 0


@pytest.mark.parametrize(
    "command,flag,value",
    [
        ("sweep", "--dt", "inf"),
        ("evolve", "--dt", "inf"),
        ("sweep", "--dt", "nan"),
        ("evolve", "--dt", "nan"),
        ("sweep", "--t-max", "inf"),
        ("evolve", "--t-max", "inf"),
        ("sweep", "--t-max", "nan"),
        ("evolve", "--t-max", "nan"),
        ("evolve", "--t-max", "-1"),
        ("sweep", "--target", "1.5"),
        ("sweep", "--target", "nan"),
        ("evolve", "--sample-every", "0"),
    ],
)
def test_flag_outside_its_range_exits_2_and_names_it(
    tmp_path, capsys, command, flag, value
):
    text = "n_atoms=1 mu=0.8 rate_out=0.5\n"
    if command == "sweep":
        text += "axis1_param=rate_out axis1_values=0.5\n"
    config = write_config(tmp_path, text)
    with pytest.raises(SystemExit) as exited:
        run_cli(command, "--config", config, "--out", str(tmp_path / "x"), flag, value)
    assert exited.value.code == 2
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()
    assert not (tmp_path / "x.manifest.json").exists()
